"""Exception types shared across the package."""


class EflError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(EflError):
    """Instance text violates the ``.efl`` grammar or describes an illegal cover."""


class UnknownVertexError(EflError):
    """A vertex token does not occur in the instance."""


class InvalidInstanceError(EflError):
    """The operation requires an instance satisfying the clique-cover invariants."""


class IncompleteColoringError(EflError):
    """A coloring required to be total is missing some vertex of the instance."""


class InconsistentBlockError(EflError):
    """A vertex's matrix cell block holds more than one color.

    Engine results cannot raise it, as their matrix is derived from their
    coloring; only a hand-made matrix (``from_text`` / ``set_block``) can.
    """


class CoreSizeLimitError(EflError):
    """The core graph is too large for exact search: above the configured
    vertex limit, or too deep for the recursive search."""
