"""JSON and DOT input/output with deterministic, round-trippable encodings."""

from __future__ import annotations

import json
import os

from . import construction
from .errors import InvalidInputError, ResourceLimitError
from .graphs import Graph
from .lattices import BoundedPoset

# A loaded lattice keeps two n-bit masks per element, so its memory grows as
# n squared: `lattice fences` on the 64,004-element spurred fence lattice
# peaks at 1.23 GB, and 2**16 elements need about 1.29 GB, well under 3 GiB.
MAX_LATTICE_ELEMENTS = 1 << 16


def _int_entry(value, what: str) -> int:
    # JSON true/false decode to bool, a subclass of int
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError("%s must be an integer: %r" % (what, value))
    return value


def _read_json(path):
    """The JSON value in the file at ``path``.

    Text that is not UTF-8, or nested too deeply for the parser, is an input
    error like any other malformed JSON.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, RecursionError) as exc:
            raise InvalidInputError("unreadable JSON in %s: %s" % (path, exc)) from None


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise InvalidInputError("expected a JSON list, got %r" % (value,))
    return value


def _require_ascending(g: Graph) -> None:
    verts = g.vertices
    if any(a > b for a, b in zip(verts, verts[1:])):
        raise InvalidInputError("a graph is written only with ascending vertices")


def _edge_texts(g: Graph, close: str, head: str):
    """Yield the edge text of ``g``, one string per vertex with larger neighbours.

    Each edge (u, v) with u < v, in sorted order, is ``close + head % u`` and
    the name of v; the first edge's ``close`` is stripped and the last one's
    left to the caller.  The larger neighbours of row i come in a few runs of
    consecutive positions, and ``x = row >> (i + 1)`` is walked run by run:
    shift out the zeros below the lowest set bit, take the run of ones there
    as one slice of names, shift it out.  Each shift copies the rest of the
    row, so a row costs its runs times its width: cheap on staged hosts (at
    most 10 runs above the diagonal per row at T=400), but slower than one
    ``bin`` string per row on dense random rows, which no command writes.
    The vertices must ascend, so that position order is name order.
    """
    verts = g.vertices
    names = list(map(str, verts))
    sep = close + head
    cut = len(close)
    for i, row in enumerate(g.rows):
        x = row >> (i + 1)
        if x:
            row_names = [""]  # so that the join puts the lead before each name
            pos = i + 1
            while x:
                s = (x & -x).bit_length() - 1  # zeros before the next run
                x >>= s
                pos += s
                e = (x ^ (x + 1)).bit_length() - 1  # the run's length
                row_names += names[pos:pos + e]
                x >>= e
                pos += e
            yield (sep % verts[i]).join(row_names)[cut:]
            cut = 0


def graph_json_parts(g: Graph):
    """Yield the text of ``json.dumps(obj, sort_keys=True, indent=2) + "\n"``
    for ``obj = {"edges": the (u, v) pairs with u < v, sorted, as lists,
    "vertices": g.vertices}``, in parts of at most one row's edges.  The
    vertices must ascend, as ``load_graph`` requires; else InvalidInputError.
    """
    _require_ascending(g)
    if any(g.rows):
        yield '{\n  "edges": ['
        yield from _edge_texts(g, "\n    ],", "\n    [\n      %d,\n      ")
        yield "\n    ]\n  ]"
    else:
        yield '{\n  "edges": []'
    vertices = ",".join(map("\n    %d".__mod__, g.vertices))
    yield ',\n  "vertices": %s\n}\n' % ("[%s\n  ]" % vertices if vertices else "[]")


def graph_from_json_obj(obj) -> Graph:
    """Validated Graph from a decoded graph JSON object.

    Pair-shape, integer, ``u < v`` and duplicate errors come in file order;
    negative vertices, then the first edge with an endpoint outside the
    vertex list, are reported only after the whole edge list.  More vertices
    than the construction's cap raise ResourceLimitError before any row is
    built: the rows take memory quadratic in the vertex count.
    """
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise InvalidInputError("graph JSON needs 'vertices' and 'edges'")
    listed = _json_list(obj["vertices"])
    if len(listed) > construction.MAX_CONSTRUCTION_VERTICES:
        raise ResourceLimitError(
            "graph JSON has %d vertices, more than the limit of %d"
            % (len(listed), construction.MAX_CONSTRUCTION_VERTICES)
        )
    vertices = [_int_entry(v, "graph JSON vertex") for v in listed]
    if vertices != sorted(set(vertices)):
        raise InvalidInputError("graph JSON vertices must be ascending, no duplicates")
    position = {v: i for i, v in enumerate(vertices)}.get
    rows = [0] * len(vertices)
    outside = {}  # edges with an endpoint outside the vertices, in file order
    for pair in _json_list(obj["edges"]):
        # the exact-type tests pass every well-formed edge without isinstance
        if type(pair) is not list and not isinstance(pair, list) or len(pair) != 2:
            raise InvalidInputError("graph JSON edge must be a pair: %r" % (pair,))
        u, v = pair
        if type(u) is not int:
            u = _int_entry(u, "graph JSON edge entry")
        if type(v) is not int:
            v = _int_entry(v, "graph JSON edge entry")
        if not u < v:
            raise InvalidInputError("graph JSON edges must satisfy u < v: %r" % (pair,))
        i = position(u)
        j = position(v)
        if i is None or j is None:
            if (u, v) in outside:
                raise InvalidInputError("duplicate edge %r" % (pair,))
            outside[u, v] = None
        elif (rows[i] >> j) & 1:
            raise InvalidInputError("duplicate edge %r" % (pair,))
        else:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    if vertices and vertices[0] < 0:
        raise InvalidInputError("vertices must be natural numbers")
    if outside:
        raise InvalidInputError(
            "edge endpoint outside vertex set: %r" % (next(iter(outside)),)
        )
    return Graph(rows, vertices)


def load_graph(path) -> Graph:
    return graph_from_json_obj(_read_json(path))


def write_parts(path, parts, *written) -> None:
    """Write the strings ``parts`` to ``path`` as they come.  If the write
    fails, or the parts refuse their input, remove the ``written`` paths and,
    once opened, ``path``, but only regular files: never a device such as
    /dev/full, nor a symlink.  The 64 KB buffer batches small parts; a
    larger one was no faster and raises the writer's peak memory."""
    try:
        with open(path, "w", encoding="utf-8", buffering=1 << 16) as fh:
            written += (path,)
            fh.writelines(parts)
    except (OSError, InvalidInputError):
        for done in written:
            if os.path.isfile(done) and not os.path.islink(done):
                os.remove(done)
        raise


def save_graph(g: Graph, path) -> None:
    write_parts(path, graph_json_parts(g))


def graph_dot_parts(g: Graph):
    """Yield the graph's DOT text in parts, at most one row's edges each.
    The vertices must ascend; else InvalidInputError."""
    _require_ascending(g)
    yield "graph G {\n"
    yield from map("  %d;\n".__mod__, g.vertices)
    yield from _edge_texts(g, ";\n", "  %d -- ")
    yield ";\n}\n" if any(g.rows) else "}\n"


def lattice_from_json_obj(obj):
    """Raw (n, leq pairs, generators) from the JSON object; no validation yet.

    The relation must list every holding pair, reflexive ones included;
    validation (and rejection of non-transitive input) happens when the
    candidate is instantiated as a ``FiniteLattice``.  An ``n`` above
    ``MAX_LATTICE_ELEMENTS`` raises ResourceLimitError before the pairs are
    read, unless fewer than ``n`` pairs are listed: then the reflexive axiom
    fails before any ``n``-sized table exists.
    """
    if not isinstance(obj, dict) or "n" not in obj or "leq" not in obj:
        raise InvalidInputError("lattice JSON needs 'n' and 'leq'")
    n = _int_entry(obj["n"], "lattice JSON n")
    leq = _json_list(obj["leq"])
    if n > MAX_LATTICE_ELEMENTS and len(leq) >= n:
        raise ResourceLimitError(
            "lattice JSON n %d exceeds the limit of %d" % (n, MAX_LATTICE_ELEMENTS)
        )
    pairs = []
    for pair in leq:
        # the exact-type tests pass every well-formed entry without isinstance
        if type(pair) is not list and not isinstance(pair, list) or len(pair) != 2:
            raise InvalidInputError("lattice JSON leq entry must be a pair: %r" % (pair,))
        x, y = pair
        if type(x) is not int:
            x = _int_entry(x, "lattice JSON element")
        if type(y) is not int:
            y = _int_entry(y, "lattice JSON element")
        pairs.append((x, y))
    gens = obj.get("generators")
    if gens is not None:
        gens = tuple(_int_entry(g, "lattice JSON generator") for g in _json_list(gens))
    return n, pairs, gens


def load_lattice_candidate(path):
    return lattice_from_json_obj(_read_json(path))


def lattice_to_dot(poset: BoundedPoset) -> str:
    """Hasse diagram: cover edges only, drawn bottom-up."""
    lines = ["digraph L {", "  rankdir=BT;", "  node [shape=circle];"]
    for v in range(poset.n):
        lines.append("  %d;" % v)
    for x, y in poset.covers():
        lines.append("  %d -> %d;" % (x, y))
    lines.append("}")
    return "\n".join(lines) + "\n"
