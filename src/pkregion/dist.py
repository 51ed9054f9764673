"""Exact arithmetic on dense finite joint distributions.

A :class:`JointPmf` is a dense probability table over an ordered tuple of
named finite variables, stored as a numpy array whose axes follow the
variable order (so the flat row-major layout has the last variable varying
fastest). All information quantities are in bits (base-2 logarithms).

Conventions
-----------
* No silent renormalization anywhere: tables that do not sum to 1 within
  tolerance are rejected at load time, and every derived table preserves the
  total mass of its input exactly (up to float addition).
* ``0 * log 0`` is treated as 0; zero-probability cells are retained in
  tables but contribute nothing to any entropy.
* Conditional mutual information is clamped to 0 when it lands within
  ``NUM_TOL`` below zero (floating-point guard only).

All functions are pure; :class:`JointPmf` instances are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateVariableError, NegativeEntryError, \
    NonFiniteEntryError, ShapeMismatchError, SumOutOfToleranceError

__all__ = [
    "DEFAULT_SUM_TOL",
    "NUM_TOL",
    "JointPmf",
    "load_pmf",
    "entropy",
    "cond_mutual_info",
    "source_roles",
]

DEFAULT_SUM_TOL = 1e-9
NUM_TOL = 1e-12


def _count(value, least, what: str) -> int:
    """``value`` as an int; ``ValueError`` unless it is an integer, not a
    boolean, of at least ``least``. The one rule for every integer field."""
    # an exact int, nearly every value, passes on one type test
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value,
                                                     (int, np.integer)):
            raise ValueError(f"{what}: {value!r} is not an integer")
        value = int(value)
    if value < least:
        raise ValueError(f"{what} must be >= {least}")
    return value


def _clip0(v: float) -> float:
    return 0.0 if -NUM_TOL <= v < 0.0 else v


def _entropy_of(table: np.ndarray) -> float:
    v = table[table > 0.0]
    # np.add.reduce is what ndarray.sum calls, less its Python wrapper; the
    # + 0.0 turns a -0.0 (deterministic or all-zero table) into +0.0
    return float(-np.add.reduce(v * np.log2(v))) + 0.0


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Dense joint pmf over named finite variables.

    Attributes
    ----------
    variables : tuple[str, ...]
        Unique variable names, in table-axis order.
    cardinalities : tuple[int, ...]
        Alphabet size per variable; the product equals the table size.
    probs : numpy.ndarray
        Read-only float64 array of shape ``cardinalities`` with finite
        entries >= 0.
    """

    variables: tuple
    cardinalities: tuple
    probs: np.ndarray

    def __post_init__(self):
        names = tuple(str(v) for v in self.variables)
        cards = tuple(_count(c, 1, "cardinalities")
                      for c in self.cardinalities)
        if len(set(names)) != len(names):
            raise DuplicateVariableError(f"duplicate variable names in {names}")
        if not names:
            raise ShapeMismatchError("a joint pmf needs at least one variable")
        if len(names) != len(cards):
            raise ShapeMismatchError(
                f"{len(names)} variable names but {len(cards)} cardinalities"
            )
        try:  # no dtype given: numpy would parse strings into numbers
            arr = np.asarray(self.probs)
        except ValueError:  # nested rows of different lengths
            raise ShapeMismatchError("table is not rectangular") from None
        # text and booleans are refused in any table. numpy reads a boolean
        # among numbers as 1.0, so the cells of a table that is not an array
        # are type-checked as given; an object table (Fractions, integers
        # past int64) converts entry by entry
        cells = arr if isinstance(self.probs, np.ndarray) \
            else np.asarray(self.probs, dtype=object)
        if arr.dtype.kind not in "iufO" or cells.dtype.kind == "O" and any(
                isinstance(v, (str, bytes, bool, np.bool_))
                for v in cells.flat):
            raise NonFiniteEntryError("table entries must be real numbers")
        try:
            arr = arr.astype(np.float64, order="C")
        except (TypeError, ValueError, OverflowError):  # 10**400, object()
            raise NonFiniteEntryError(
                "table entries must be finite numbers") from None
        if arr.shape != cards:
            # math.prod: exact, where an int64 product of large sizes wraps
            if arr.size != math.prod(cards):
                raise ShapeMismatchError(
                    f"table has {arr.size} entries, expected {math.prod(cards)}"
                )
            arr = arr.reshape(cards)
        # min and max propagate NaN: two reductions, no temporary arrays
        lo = float(np.minimum.reduce(arr, axis=None))
        hi = float(np.maximum.reduce(arr, axis=None))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise NonFiniteEntryError("table entries must be finite numbers")
        if lo < 0.0:
            raise NegativeEntryError(f"minimum table entry is {lo!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "cardinalities", cards)
        object.__setattr__(self, "probs", arr)

    # -- variable bookkeeping -------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def axis(self, name: str) -> int:
        """Axis of the variable ``name``.

        Raises
        ------
        ValueError
            If ``name`` is not among the variables.
        """
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(
                f"{name!r} not among variables {self.variables}") from None

    def normalize_group(self, group) -> tuple:
        """Return ``group`` as a tuple ordered by this pmf's variable order."""
        if isinstance(group, str):
            group = (group,)
        axes = sorted({self.axis(name) for name in group})
        return tuple(self.variables[i] for i in axes)

    def total(self) -> float:
        return float(np.add.reduce(self.probs, axis=None))


def load_pmf(table, variables, cardinalities,
             sum_tol: float = DEFAULT_SUM_TOL) -> JointPmf:
    """Validate a raw probability table and wrap it as a :class:`JointPmf`.

    Parameters
    ----------
    table : array-like
        Flat row-major entries (last variable fastest) or an array already
        shaped like ``cardinalities``.
    variables, cardinalities
        Names and alphabet sizes, in axis order.
    sum_tol : float
        Maximum allowed deviation of the total mass from 1.

    Raises
    ------
    ShapeMismatchError, NonFiniteEntryError, NegativeEntryError,
    SumOutOfToleranceError, DuplicateVariableError, ValueError
    """
    p = JointPmf(tuple(variables), tuple(cardinalities), table)
    total = p.total()
    if not abs(total - 1.0) <= sum_tol:
        raise SumOutOfToleranceError(
            f"table sums to {total!r}, outside 1 +/- {sum_tol!r}"
        )
    return p


def _table(p: JointPmf, names) -> np.ndarray:
    """Table of the distinct variables ``names``, with axes in that order.

    Summed from ``p.probs`` over every other axis in one ``sum`` call; a
    read-only view of ``p.probs`` when nothing is summed out.

    Raises
    ------
    ValueError
        If a name repeats or is not among the variables.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError(f"the variables {names} must be distinct")
    axes = [p.axis(name) for name in names]
    drop = tuple(i for i in range(p.num_variables) if i not in axes)
    t = p.probs.sum(axis=drop) if drop else p.probs
    kept = sorted(axes)
    return t.transpose([kept.index(i) for i in axes])


def entropy(p: JointPmf, group) -> float:
    """Shannon entropy H(group) in bits, with 0 log 0 = 0."""
    keep = p.normalize_group(group)
    if not keep:
        raise ValueError("entropy needs a nonempty variable group")
    return _entropy_of(_table(p, keep))


def cond_mutual_info(p: JointPmf, a, b, c=()) -> float:
    """Conditional mutual information I(a ; b | c) in bits.

    Computed as H(a,c) + H(b,c) - H(a,b,c) - H(c), which keeps the result
    exactly symmetric in ``a`` and ``b``. ``c`` may be empty (plain mutual
    information). Values within ``NUM_TOL`` below zero are clamped to 0.

    Raises
    ------
    ValueError
        If ``a`` or ``b`` is empty, ``a`` and ``b`` overlap, ``c`` overlaps
        either, or a name is not among the variables.
    """
    ga = p.normalize_group(a)
    gb = p.normalize_group(b)
    gc = p.normalize_group(c)
    if not ga or not gb:
        raise ValueError("both information arguments must be nonempty groups")
    sa, sb, sc = set(ga), set(gb), set(gc)
    if sa & sb:
        raise ValueError(f"groups {ga} and {gb} overlap")
    if sc & (sa | sb):
        raise ValueError(f"conditioning set {gc} overlaps an argument")
    h_ac = entropy(p, ga + gc)
    h_bc = entropy(p, gb + gc)
    h_abc = entropy(p, ga + gb + gc)
    h_c = entropy(p, gc) if gc else 0.0
    return _clip0(h_ac + h_bc - h_abc - h_c)


def source_roles(p: JointPmf) -> tuple:
    """Names of the (X, Y, Z) roles, assigned positionally.

    The three-terminal pipeline designates the first variable as the key
    holder X and the remaining two as Y and Z, in order.
    """
    if p.num_variables != 3:
        raise ShapeMismatchError(
            f"expected a 3-variable source, got {p.num_variables} variables"
        )
    return p.variables

