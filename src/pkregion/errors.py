"""Semantic exception hierarchy with stable machine-readable error codes.

A fault in pmf or protocol data (read from a file or handed over as an
array) and a run over the enumeration budget raise a
:class:`PkRegionError`, whose ``code`` the CLI prints verbatim and callers
may match on. A misused argument raises ``ValueError``: a variable name
that is not a string, an unknown variable name, a variable group that is
empty, repeats a name or overlaps another, a symbol outside its alphabet,
statistic labels, an integer field that is not an integer (a boolean or
float is not) or is below its least value (cardinalities, labels,
blocklength, round count, alphabet sizes, ``budget``), a region whose caps
or points do not fit its provenance, a region cap or point coordinate that
is not finite and nonnegative, a ``hull`` point coordinate that is not
finite, an empty point list, a bad CLI option value
and a non-finite float handed to ``dumps_deterministic``.
A value of a type that ``dumps_deterministic`` cannot serialize raises
``TypeError``, and a failed write by ``write_atomic`` ``OSError``.
"""

__all__ = [
    "PkRegionError",
    "NegativeEntryError",
    "NonFiniteEntryError",
    "SumOutOfToleranceError",
    "ShapeMismatchError",
    "DuplicateVariableError",
    "EmptySupportError",
    "BudgetExceededError",
    "MalformedTableError",
    "InputFormatError",
]


class PkRegionError(Exception):
    """Base class for all package errors."""

    code = "ERROR"

    def __init__(self, message: str = ""):
        self.message = message
        super().__init__(f"{self.code}: {message}" if message else self.code)


class NegativeEntryError(PkRegionError):
    """A probability table contains a negative entry."""

    code = "NEGATIVE_ENTRY"


class NonFiniteEntryError(PkRegionError):
    """A probability table contains an entry that is not a finite number."""

    code = "NON_FINITE_ENTRY"


class SumOutOfToleranceError(PkRegionError):
    """A probability table does not sum to 1 within tolerance."""

    code = "SUM_OUT_OF_TOLERANCE"


class ShapeMismatchError(PkRegionError):
    """Table length or shape disagrees with the declared cardinalities."""

    code = "SHAPE_MISMATCH"


class DuplicateVariableError(PkRegionError):
    """Variable names must be unique within a joint distribution."""

    code = "DUPLICATE_VARIABLE"


class EmptySupportError(PkRegionError):
    """An operation requires a variable with nonempty support."""

    code = "EMPTY_SUPPORT"


class BudgetExceededError(PkRegionError):
    """Exact enumeration would exceed the configured budget."""

    code = "BUDGET_EXCEEDED"


class MalformedTableError(PkRegionError):
    """A protocol lookup table is inconsistent with its declared domain."""

    code = "MALFORMED_TABLE"


class InputFormatError(PkRegionError):
    """A pmf or protocol file does not match its published schema."""

    code = "INPUT_FORMAT"
