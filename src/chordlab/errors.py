"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems exit 2; a StructuralError,
ExtractionError included, gives the ``internal`` report and exits 1.
"""


class ChordlabError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(ChordlabError):
    """Malformed graph, path, lattice, or argument."""


class LatticeAxiomError(InvalidInputError):
    """A lattice candidate fails ``axiom``; ``witness`` holds the elements
    that show it."""

    def __init__(self, message, axiom, witness):
        super().__init__(message)
        self.axiom = axiom
        self.witness = tuple(witness)


class CapacityError(ChordlabError):
    """Not enough stable coding vertices for the requested pattern."""

    def __init__(self, message, shortfall=None):
        super().__init__(message)
        self.shortfall = shortfall


class CoverageError(ChordlabError):
    """Generator set does not generate the lattice."""

    def __init__(self, message, unreached=()):
        super().__init__(message)
        self.unreached = tuple(unreached)


class StructuralError(ChordlabError):
    """An internal structural guarantee failed (bug indicator): a witness
    failed the check of the function that made it."""


class ExtractionError(StructuralError):
    """A witness extraction failed; the message names the offending vertices."""


class ResourceLimitError(ChordlabError):
    """Requested exhaustive search exceeds the supported budget."""
