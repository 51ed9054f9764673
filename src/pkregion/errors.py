"""Semantic exception hierarchy with stable machine-readable error codes.

A fault in a file or a table (a pmf, a protocol table or a report, read from
a file or handed over as an array) raises a :class:`PkRegionError`, whose
``code`` the CLI prints verbatim and callers may match on. Misuse of a
Python argument (an empty variable group, a symbol outside its alphabet)
and a bad CLI option value raise ``ValueError``.
"""

__all__ = [
    "PkRegionError",
    "NegativeEntryError",
    "NonFiniteEntryError",
    "SumOutOfToleranceError",
    "ShapeMismatchError",
    "DuplicateVariableError",
    "UnknownVariableError",
    "OverlappingGroupsError",
    "EmptySupportError",
    "DegenerateInputError",
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


class UnknownVariableError(PkRegionError):
    """A referenced variable name is not part of the distribution."""

    code = "UNKNOWN_VARIABLE"


class OverlappingGroupsError(PkRegionError):
    """Variable groups that must be disjoint share a variable."""

    code = "OVERLAPPING_GROUPS"


class EmptySupportError(PkRegionError):
    """An operation requires a variable with nonempty support."""

    code = "EMPTY_SUPPORT"


class DegenerateInputError(PkRegionError):
    """Geometric input too degenerate for the requested operation."""

    code = "DEGENERATE_INPUT"


class BudgetExceededError(PkRegionError):
    """Exact enumeration would exceed the configured budget."""

    code = "BUDGET_EXCEEDED"


class MalformedTableError(PkRegionError):
    """A protocol lookup table is inconsistent with its declared domain."""

    code = "MALFORMED_TABLE"


class InputFormatError(PkRegionError):
    """An input document does not match its published schema."""

    code = "INPUT_FORMAT"
