"""Desk-scale laboratory for three intertwined combinatorial constructions:

- a staged "dump" construction of traceable graphs with no chordless 4-paths,
  whose coding-vertex embeddings decode which values its driving sequence took;
- the finite dichotomy that large traceable graphs contain a K22 copy or a
  chordless n-path, with its coloring-based proof pipeline;
- fence extraction from finitely generated length-3 lattices.
"""

__version__ = "0.1.0"
