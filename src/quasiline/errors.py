"""Exception types shared across the package.

Construction-time failures derive from :class:`ValidationError`, contract
violations of individual operations from :class:`PreconditionError`.  The
command line front end maps these onto distinct exit codes.
"""

from __future__ import annotations


class QuasilineError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QuasilineError, ValueError):
    """A value failed construction-time validation."""


class PreconditionError(QuasilineError, ValueError):
    """An operation was invoked on input that violates its contract."""


class DegreeTooLow(ValidationError):
    """A point or line participates in fewer than two flags."""

    def __init__(self, element, degree: int):
        self.element = element
        self.degree = degree
        super().__init__(f"{element!r} lies in {degree} flag(s), at least 2 required")


class UnknownId(ValidationError):
    """A flag references a point or line that was never declared."""


class DuplicateId(ValidationError):
    """Point and line labels must be pairwise distinct."""


class DuplicateLine(ValidationError):
    """Two Euclidean input lines coincide."""


class IndexOutOfRange(QuasilineError, IndexError):
    """A move or prefix index lies outside the sequence."""


class NotDisjoint(PreconditionError):
    """Adjacent moves overlap positionally and cannot be interchanged."""


class NotGeneralized(PreconditionError):
    """The sequence does not end in the reverse permutation."""


class PlanMismatch(PreconditionError):
    """A realization plan does not cover the incidence structure."""


class NotAdmissible(PreconditionError):
    """The local move would disturb a designated crossing."""


class NoSuchFace(PreconditionError):
    """The requested local move does not match any face of the diagram."""


class HasDigons(PreconditionError):
    """Straightening requires a digon-free arrangement."""


class WireWithoutPoint(PreconditionError):
    """Every wire must carry at least one designated point."""


class DisconnectedScheme(PreconditionError):
    """Embedding schemes are required to be connected."""


class NotTwoConnected(QuasilineError):
    """Internal invariant violation: the crossing graph must be 2-connected."""


class ParseError(QuasilineError):
    """Malformed input file."""

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")
