"""Exact evaluation of deterministic public-discussion protocols.

A protocol runs over n i.i.d. copies of the source. Terminals speak in
fixed turn order — slots 1, 4, 7, … belong to X, slots 2, 5, 8, … to Y and
slots 3, 6, 9, … to Z — and every transmission is a lookup table from (own
n-sequence, transcript heard so far) to a message symbol. After the last
slot, each key pair is read off more tables: K_XY and K_XZ from X's
sequence and the transcript, their estimates L_XY from Y's and L_XZ from
Z's. No randomization anywhere.

The evaluator sums exact product probabilities over sequence tables, so
all reported figures — disagreement probabilities, leakage toward the
respective helper, uniformity deficits, key rates — are exact up to float
rounding, not estimates. Each figure sums over the n-fold product of the
marginal of just the terminals its codes read: two terminals (a key against
its estimate, or either against the helper it is hidden from) plus every
terminal that speaks, since the transcript varies along their sequences; a
null slot (alphabet size 1) always sends 0. So the plan holds, for each
pair of terminals, one table over that pair plus the speakers, with an axis
of size 1 for each terminal left out. Pairs that give the same shape (a
one-symbol alphabet can make them agree) share one table: at most
|X|ⁿ|Y|ⁿ + |X|ⁿ|Z|ⁿ + |Y|ⁿ|Z|ⁿ cells with no speaker, |X|ⁿ|Y|ⁿ|Z|ⁿ with all
three speaking. A key's entropy is read off its secrecy table, the (key,
transcript, helper) table its leak comes from, over the transcripts that
occur, ranked in index order by sorting the sequence sweep (nothing is
built per transcript index). A run is admitted in one pass: each
terminal's sequence count, then every table shape (building up the
transcript count), then the budget, which charges every table at the size
it is built: the sequence tables, each distinct shape once, then each
secrecy table at key × occurring transcripts × helper cells.

Index conventions (also used by the file format): an n-sequence maps to
``sum_i s_i * card**(n-1-i)`` (first symbol most significant), and a
transcript maps to the mixed-radix number over message alphabets with the
earliest message most significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dist import JointPmf, source_roles, _clip0, _count, _entropy_of
from .errors import BudgetExceededError, MalformedTableError

__all__ = [
    "DEFAULT_BUDGET",
    "SlotSpec",
    "ProtocolSpec",
    "EvaluationReport",
    "evaluate_protocol",
    "check_eps_pk",
    "rate_point",
]

DEFAULT_BUDGET = 10 ** 7


class _Owned:
    """An array that a file reader has just built and that no caller holds:
    a constructor takes it as its table without a copy."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _int_table(name: str, raw, upper: int) -> np.ndarray:
    """Read-only int64 2-D lookup table with entries in [0, upper).

    The table is a fresh copy, so a caller's buffer is never frozen or
    shared, unless it comes as an ``_Owned`` array. Booleans, fractions and
    non-numbers are rejected, never coerced; numpy would turn a boolean
    mixed into a Python table of numbers into 1 or 1.0, so the cells of any
    table that is not an array are type-checked first. An integer of 2**64
    or more makes an object table, whose cells must all be Python integers;
    the range check then names the entry.
    """
    if isinstance(raw, _Owned):
        raw = table = raw.array
    else:
        try:
            table = np.array(raw)
        except ValueError:  # nested rows of different lengths
            raise MalformedTableError(f"{name} is not rectangular") from None
    if table.ndim != 2:
        raise MalformedTableError(f"{name} must be 2-D, got {table.ndim}-D")
    kind = table.dtype.kind
    if not isinstance(raw, np.ndarray) and not {bool, np.bool_}.isdisjoint(
            map(type, chain.from_iterable(raw))):
        integral = False
    elif kind == "f":
        integral = bool(np.isfinite(table).all()
                        and (table == np.floor(table)).all())
    elif kind == "O":
        integral = all(type(cell) is int for cell in table.flat)
    else:
        integral = kind in "iu"
    if not integral:
        raise MalformedTableError(
            f"{name} entries must be integers, not booleans or fractions")
    # checked before the int64 cast, which would wrap an entry of 2**63
    upper = min(upper, 2 ** 63)
    if table.size:
        # the ufuncs' own reductions: ndarray.min and .max add a Python layer
        low = int(np.minimum.reduce(table, axis=None))
        high = int(np.maximum.reduce(table, axis=None))
        if low < 0 or high >= upper:
            raise MalformedTableError(
                f"{name} entries must lie in [0, {upper}), got "
                f"[{low}, {high}]")
    table = table.astype(np.int64, copy=False)
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class SlotSpec:
    """One public transmission: message alphabet size plus lookup table.

    ``table[s, t]`` is the symbol sent by the terminal whose n-sequence has
    index ``s`` after the transcript of index ``t``. A null
    transmission is alphabet size 1 with an all-zero table.
    """

    alphabet_size: int
    table: np.ndarray

    def __post_init__(self):
        size = _count(self.alphabet_size, 1, "message alphabet size")
        object.__setattr__(self, "alphabet_size", size)
        object.__setattr__(
            self, "table", _int_table("slot table", self.table, size))


@dataclass(frozen=True, eq=False)
class ProtocolSpec:
    """A complete deterministic protocol at blocklength ``n``.

    ``slots`` holds 3·rounds transmissions in time order. The four key
    tables are indexed by (terminal sequence index, full transcript index):
    ``key_xy``/``key_xz`` read X's sequence, ``est_xy`` reads Y's and
    ``est_xz`` reads Z's; all four produce symbols inside the declared key
    alphabets.
    """

    n: int
    rounds: int
    slots: tuple
    key_xy: np.ndarray
    est_xy: np.ndarray
    key_xz: np.ndarray
    est_xz: np.ndarray
    key_xy_size: int
    key_xz_size: int

    def __post_init__(self):
        for name, least, what in (("n", 1, "blocklength"),
                                  ("rounds", 0, "round count"),
                                  ("key_xy_size", 1, "key alphabet sizes"),
                                  ("key_xz_size", 1, "key alphabet sizes")):
            object.__setattr__(self, name,
                               _count(getattr(self, name), least, what))
        slots = tuple(self.slots)
        if len(slots) != 3 * self.rounds:
            raise MalformedTableError(
                f"{len(slots)} slots for {self.rounds} rounds; need 3 per round")
        if not all(isinstance(s, SlotSpec) for s in slots):
            raise MalformedTableError("every slot must be a SlotSpec")
        object.__setattr__(self, "slots", slots)
        object.__setattr__(
            self, "key_xy", _int_table("key_xy", self.key_xy, self.key_xy_size))
        object.__setattr__(
            self, "est_xy", _int_table("est_xy", self.est_xy, self.key_xy_size))
        object.__setattr__(
            self, "key_xz", _int_table("key_xz", self.key_xz, self.key_xz_size))
        object.__setattr__(
            self, "est_xz", _int_table("est_xz", self.est_xz, self.key_xz_size))


@dataclass(frozen=True)
class EvaluationReport:
    """Exact per-symbol figures of one protocol run against one source.

    Errors are disagreement probabilities; leaks are (1/n)·I(key ∧
    transcript, helper sequence) in bits per symbol, taking the larger of
    the key- and estimate-based values (they coincide at zero error);
    uniformity deficits are (1/n)(log2|key alphabet| − H(key)); rates are
    (1/n)H(key).
    """

    error_xy: float
    error_xz: float
    leak_xy: float
    leak_xz: float
    unif_xy: float
    unif_xz: float
    rate_xy: float
    rate_xz: float


def _kron_power(base: np.ndarray, n: int) -> np.ndarray:
    """n-fold i.i.d. product of ``base``, in the sequence index convention.

    Axis i of the result indexes the n-sequences of axis i of ``base``; each
    cell is the product of one cell of ``base`` per position, multiplied
    first to last, as in ``np.kron``. Each step puts the next factor on new
    outer axes, so the multiply runs over the whole table so far in one
    long inner loop (multiplication commutes, so the bits do not change);
    one transpose at the end orders each axis's factors first to last.
    """
    table = base
    for _ in range(n - 1):
        table = base.reshape(base.shape + (1,) * table.ndim) * table
    # the factor of position k (0 first) is on the axes of group n - 1 - k
    order = [(n - 1 - k) * base.ndim + axis
             for axis in range(base.ndim) for k in range(n)]
    return table.transpose(order).reshape([s ** n for s in base.shape])


def _sequence_count(label: str, card: int, n: int, budget: int) -> int:
    """card ** n, the number of one terminal's length-n sequences.

    Every table the evaluation builds has an axis of this many cells, so a
    count over ``budget`` raises :class:`BudgetExceededError` at once. Since
    card ** n ≥ 2 ** (n·(bits(card) − 1)), a count that far over is refused
    before it is built: a large ``n`` costs no n-digit integer.
    """
    if n * (card.bit_length() - 1) < (budget + 1).bit_length():
        count = card ** n
        if count <= budget:
            return count
    raise BudgetExceededError(
        f"{label} has {card}^{n} sequences, over the budget of {budget}")


def _expected_shape(rows: int, heard: int) -> str:
    """``(rows, heard)`` for an error message. No array axis reaches 2**63
    cells, so a transcript count past that is given by that bound: str() of
    an int of over 4300 digits raises."""
    return f"({rows}, {heard if heard < 2 ** 63 else 'over 2**63'})"


def evaluate_protocol(p: JointPmf, spec: ProtocolSpec,
                      budget: int = DEFAULT_BUDGET) -> EvaluationReport:
    """Evaluate the protocol over every source sequence triple, exactly.

    Raises
    ------
    ValueError
        If ``budget`` is not an integer of at least 0.
    BudgetExceededError
        If one terminal's sequence count exceeds ``budget``; this is checked
        first, so even a huge ``n`` stops at once. Otherwise, once every
        table shape has passed, if the planned sequence tables together or
        either key/transcript/helper table, over the transcripts that
        occur, would exceed ``budget`` cells.
    MalformedTableError
        If a slot or key table does not match its domain (sequence count ×
        transcript count) for this source and blocklength. Shapes are
        checked before the budget, building up the transcript count, so a
        protocol that is both malformed and over budget raises this.
    """
    budget = _count(budget, 0, "budget")
    source_roles(p)
    n = spec.n
    counts = nx, ny, nz = tuple(_sequence_count(label, card, n, budget)
                                for label, card in zip("XYZ", p.cardinalities))
    heard = 1
    for name, table, side, size in (
            *[(f"slot {slot_no + 1}", slot.table, slot_no % 3,
               slot.alphabet_size) for slot_no, slot in enumerate(spec.slots)],
            ("key_xy", spec.key_xy, 0, 1), ("est_xy", spec.est_xy, 1, 1),
            ("key_xz", spec.key_xz, 0, 1), ("est_xz", spec.est_xz, 2, 1)):
        if table.shape != (counts[side], heard):
            raise MalformedTableError(
                f"{name} table has shape {table.shape}, "
                f"expected {_expected_shape(counts[side], heard)}: the "
                f"source's {'XYZ'[side]} has {p.cardinalities[side]} "
                f"symbols and n = {n}")
        heard *= size

    spoken = [(slot_no % 3, slot) for slot_no, slot in enumerate(spec.slots)
              if slot.alphabet_size > 1]
    speakers = {side for side, _ in spoken}
    plan = {}
    for axes in sorted({tuple(sorted(speakers.union(pair)))
                        for pair in ((0, 1), (0, 2), (1, 2))}):
        plan.setdefault(tuple([counts[axis] if axis in axes else 1
                               for axis in range(3)]), axes)
    if sum(map(math.prod, plan)) > budget:
        raise BudgetExceededError(
            " + ".join("*".join(str(counts[axis]) for axis in axes)
                       for axes in plan.values())
            + f" sequence cells exceed the budget of {budget}")
    grids = xg, yg, zg = (np.arange(nx, dtype=np.int64).reshape(nx, 1, 1),
                          np.arange(ny, dtype=np.int64).reshape(1, ny, 1),
                          np.arange(nz, dtype=np.int64).reshape(1, 1, nz))
    transcript = 0
    for side, slot in spoken:
        message = slot.table[grids[side], transcript]
        transcript = transcript * slot.alphabet_size + message
    k_xy, l_xy = spec.key_xy[xg, transcript], spec.est_xy[yg, transcript]
    k_xz, l_xz = spec.key_xz[xg, transcript], spec.est_xz[zg, transcript]
    # the secrecy tables count only the transcripts that occur, ranked in
    # index order (a sort of the sweep: nothing per transcript index); with
    # no speaker the one transcript, 0, is its own rank
    occurring = 1
    if spoken:
        seen, rank = np.unique(transcript, return_inverse=True)
        occurring, transcript = seen.size, rank.reshape(transcript.shape)
    # each helper is paired with the key it must not learn
    kxy, kxz = spec.key_xy_size, spec.key_xz_size
    for label, key_size, helper in (("Z", kxy, nz), ("Y", kxz, ny)):
        if key_size * occurring * helper > budget:
            raise BudgetExceededError(
                f"key/transcript/{label} joint table needs more than "
                f"{budget} cells")

    # each planned table: Pⁿ summed over the axes its shape leaves at 1
    tables = {}
    for shape in plan:
        drop = tuple(axis for axis, size in enumerate(shape) if size == 1)
        tables[shape] = _kron_power(np.add.reduce(p.probs, axis=drop),
                                    n).reshape(shape)
    # one code for the transcript together with the helper's sequence
    tr_z, tr_y = transcript * nz + zg, transcript * ny + yg

    def info_bits(a, a_size, b, b_size):
        """I(a ∧ b) and H(a), both from the table of (a, b).

        ``b`` codes an occurring transcript with a helper sequence, so the
        table has ``a_size × b_size`` cells, the key × transcript × helper
        count the budget charges.
        """
        codes = a * b_size + b
        table = np.bincount(codes.reshape(-1),
                            weights=tables[codes.shape].reshape(-1),
                            minlength=a_size * b_size).reshape(a_size, b_size)
        h_a = _entropy_of(np.add.reduce(table, axis=1))
        return _clip0(h_a + _entropy_of(np.add.reduce(table, axis=0))
                      - _entropy_of(table)), h_a

    def disagreement(a, b):
        differ = a != b
        return float(np.add.reduce(tables[differ.shape][differ]))

    leak_k_xy, h_k_xy = info_bits(k_xy, kxy, tr_z, occurring * nz)
    leak_k_xz, h_k_xz = info_bits(k_xz, kxz, tr_y, occurring * ny)
    return EvaluationReport(
        error_xy=disagreement(k_xy, l_xy),
        error_xz=disagreement(k_xz, l_xz),
        leak_xy=max(leak_k_xy,
                    info_bits(l_xy, kxy, tr_z, occurring * nz)[0]) / n,
        leak_xz=max(leak_k_xz,
                    info_bits(l_xz, kxz, tr_y, occurring * ny)[0]) / n,
        unif_xy=_clip0((math.log2(kxy) - h_k_xy) / n),
        unif_xz=_clip0((math.log2(kxz) - h_k_xz) / n),
        rate_xy=_clip0(h_k_xy / n),
        rate_xz=_clip0(h_k_xz / n),
    )


def check_eps_pk(report: EvaluationReport, eps: float):
    """Whether each key pair meets all three ε conditions.

    Returns ``(xy_ok, xz_ok)``: agreement error, per-symbol leakage and
    uniformity deficit each at most ``eps`` for the respective pair.
    """
    if not eps >= 0.0:
        raise ValueError("eps must be nonnegative")
    xy_ok = (report.error_xy <= eps and report.leak_xy <= eps
             and report.unif_xy <= eps)
    xz_ok = (report.error_xz <= eps and report.leak_xz <= eps
             and report.unif_xz <= eps)
    return xy_ok, xz_ok


def rate_point(report: EvaluationReport):
    """The (R_XY, R_XZ) pair in bits per symbol, for region containment."""
    return report.rate_xy, report.rate_xz
