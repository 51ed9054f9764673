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
rounding, not estimates. One rule decides which table each figure sums
over: the n-fold product of the marginal of just the terminals its codes
read. A figure reads two terminals (a key against its estimate, or either
against the helper it is hidden from) plus every terminal that speaks,
since the transcript varies along their sequences; a null slot (alphabet
size 1) always sends 0. With no speaker this costs |X|ⁿ|Y|ⁿ + |X|ⁿ|Z|ⁿ +
|Y|ⁿ|Z|ⁿ cells, with all three speaking |X|ⁿ|Y|ⁿ|Z|ⁿ. A key's entropy is
read off its secrecy table, the (key, transcript, helper) table its leak
comes from. A run is admitted in one pass: each terminal's sequence count,
then every table shape (building up the transcript count), then the
enumeration budget, which bounds these sequence tables and the
key/transcript/helper tables.

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

from .dist import JointPmf, source_roles, _clip0, _entropy_of
from .errors import BudgetExceededError, MalformedTableError

__all__ = [
    "DEFAULT_BUDGET",
    "SlotSpec",
    "ProtocolSpec",
    "EvaluationReport",
    "sequence_index",
    "transcript_index",
    "evaluate_protocol",
    "check_eps_pk",
    "rate_point",
]

DEFAULT_BUDGET = 10 ** 7


def _int_table(name: str, raw, upper: int) -> np.ndarray:
    """Read-only int64 2-D lookup table with entries in [0, upper).

    The table is always a fresh copy. Booleans, fractions and non-numbers
    are rejected, never coerced; numpy would upcast booleans mixed into a
    Python table of integers, so such a table's cells are type-checked.
    """
    table = np.array(raw)
    if table.ndim != 2:
        raise MalformedTableError(f"{name} must be 2-D, got {table.ndim}-D")
    kind = table.dtype.kind
    if kind == "f":
        integral = bool(np.isfinite(table).all()
                        and (table == np.floor(table)).all())
    else:
        integral = kind in "iu" and (
            isinstance(raw, np.ndarray)
            or bool not in set(map(type, chain.from_iterable(raw))))
    if not integral:
        raise MalformedTableError(
            f"{name} entries must be integers, not booleans or fractions")
    table = table.astype(np.int64, copy=False)
    if table.size and (int(table.min()) < 0 or int(table.max()) >= upper):
        raise MalformedTableError(
            f"{name} entries must lie in [0, {upper}), got "
            f"[{int(table.min())}, {int(table.max())}]"
        )
    table.flags.writeable = False
    return table


def sequence_index(symbols, cardinality: int) -> int:
    """Index of an n-sequence, first symbol most significant."""
    index = 0
    for sym in symbols:
        sym = int(sym)
        if not 0 <= sym < cardinality:
            raise ValueError(f"symbol {sym} outside alphabet of size {cardinality}")
        index = index * cardinality + sym
    return index


def transcript_index(messages, alphabet_sizes) -> int:
    """Index of a message prefix, earliest message most significant."""
    messages = list(messages)
    sizes = list(alphabet_sizes)
    if len(messages) != len(sizes):
        raise ValueError(f"{len(messages)} messages for {len(sizes)} slots")
    index = 0
    for msg, size in zip(messages, sizes):
        msg = int(msg)
        if not 0 <= msg < size:
            raise ValueError(f"message {msg} outside alphabet of size {size}")
        index = index * size + msg
    return index


@dataclass(frozen=True, eq=False)
class SlotSpec:
    """One public transmission: message alphabet size plus lookup table.

    ``table[own_index, transcript_index]`` is the symbol sent. A null
    transmission is alphabet size 1 with an all-zero table.
    """

    alphabet_size: int
    table: np.ndarray

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise MalformedTableError("message alphabet size must be >= 1")
        object.__setattr__(
            self, "table", _int_table("slot table", self.table, self.alphabet_size))


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
        if self.n < 1:
            raise ValueError("blocklength must be >= 1")
        if self.rounds < 0:
            raise ValueError("round count must be >= 0")
        if self.key_xy_size < 1 or self.key_xz_size < 1:
            raise ValueError("key alphabet sizes must be >= 1")
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

    def transcript_space(self) -> int:
        size = 1
        for slot in self.slots:
            size *= slot.alphabet_size
        return size


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
    cell is one multiply of a cell of the (n−1)-fold table by one of ``base``,
    in that order, as in ``np.kron``. Each step is that outer product with
    the axes of the two factors interleaved, so a single reshape merges
    them; it gives the bits of ``np.kron`` without its per-call set-up.
    """
    table = base
    right = base.reshape([s for b in base.shape for s in (1, b)])
    for _ in range(n - 1):
        left = table.reshape([s for a in table.shape for s in (a, 1)])
        table = (left * right).reshape(
            [a * b for a, b in zip(table.shape, base.shape)])
    return table


def _figures(probs: np.ndarray, spec: ProtocolSpec, n: int, heard: int):
    """Errors, leaks (not yet per-symbol) and key entropies of a protocol
    whose transcripts number ``heard``.

    A null slot always sends 0, so the transcript varies only along the
    axes of the terminals that speak. Each key, estimate and helper code is
    a lookup over the sequence grids, broadcast only along the axes it
    reads. Each figure sums over the n-fold product of the marginal of the
    terminals its codes vary along; that table is built once per call and
    kept by its broadcast shape. Every figure reads two terminals plus the
    speakers, so these are the tables the budget counts; a key's entropy is
    the key margin of its secrecy table.
    """
    nx, ny, nz = len(spec.key_xy), len(spec.est_xy), len(spec.est_xz)
    grids = xg, yg, zg = (np.arange(nx, dtype=np.int64).reshape(nx, 1, 1),
                          np.arange(ny, dtype=np.int64).reshape(1, ny, 1),
                          np.arange(nz, dtype=np.int64).reshape(1, 1, nz))
    transcript = 0
    for slot_no, slot in enumerate(spec.slots):
        if slot.alphabet_size > 1:
            message = slot.table[grids[slot_no % 3], transcript]
            transcript = transcript * slot.alphabet_size + message
    k_xy, l_xy = spec.key_xy[xg, transcript], spec.est_xy[yg, transcript]
    k_xz, l_xz = spec.key_xz[xg, transcript], spec.est_xz[zg, transcript]
    # one code for the transcript together with the helper's sequence
    tr_z, tr_y = transcript * nz + zg, transcript * ny + yg
    tables = {}

    def mass(codes):
        """Pⁿ summed over every axis along which ``codes`` is constant,
        in the shape of ``codes``."""
        table = tables.get(codes.shape)
        if table is None:
            drop = tuple(axis for axis, size in enumerate(codes.shape)
                         if size == 1)
            table = tables[codes.shape] = _kron_power(
                probs.sum(axis=drop), n).reshape(codes.shape)
        return table

    def info_bits(a, a_size, b, b_size):
        """I(a ∧ b) and H(a), both from the table of (a, b)."""
        codes = a * b_size + b
        table = np.bincount(codes.reshape(-1), weights=mass(codes).reshape(-1),
                            minlength=a_size * b_size).reshape(a_size, b_size)
        h_a = _entropy_of(table.sum(axis=1))
        return _clip0(h_a + _entropy_of(table.sum(axis=0))
                      - _entropy_of(table)), h_a

    def disagreement(a, b):
        differ = a != b
        return float(mass(differ)[differ].sum())

    kxy, kxz = spec.key_xy_size, spec.key_xz_size
    leak_k_xy, h_k_xy = info_bits(k_xy, kxy, tr_z, heard * nz)
    leak_k_xz, h_k_xz = info_bits(k_xz, kxz, tr_y, heard * ny)
    return (
        disagreement(k_xy, l_xy),
        disagreement(k_xz, l_xz),
        max(leak_k_xy, info_bits(l_xy, kxy, tr_z, heard * nz)[0]),
        max(leak_k_xz, info_bits(l_xz, kxz, tr_y, heard * ny)[0]),
        h_k_xy,
        h_k_xz,
    )


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

    Each figure sums over the n-fold product of the marginal of just the
    terminals its codes read: the key's and the estimate's, or one of them
    and the helper's, plus every terminal that speaks, since the transcript
    varies along its sequences. A protocol in which no terminal speaks is
    thus evaluated from the three pairwise marginals of Pⁿ, one in which
    all three speak from the joint table of all sequence triples. Each
    key's entropy is the key margin of its secrecy table, the (key,
    transcript, helper) table its leak is read from.

    Raises
    ------
    BudgetExceededError
        If one terminal's sequence count exceeds ``budget``; this is checked
        first, so even a huge ``n`` stops at once. Otherwise, once every
        table shape has passed, if the sequence tables the evaluation builds
        (for each pair of terminals, one over that pair plus every terminal
        that speaks) or either key/transcript/helper table would exceed
        ``budget`` cells.
    MalformedTableError
        If a slot or key table does not match its domain (sequence count ×
        transcript count) for this source and blocklength. Shapes are
        checked before the budget, building up the transcript count, so a
        protocol that is both malformed and over budget raises this.
    """
    source_roles(p)
    n = spec.n
    counts = nx, ny, nz = tuple(_sequence_count(label, card, n, budget)
                                for label, card in zip("XYZ", p.cardinalities))
    heard = 1
    for slot_no, slot in enumerate(spec.slots):
        rows = counts[slot_no % 3]
        if slot.table.shape != (rows, heard):
            raise MalformedTableError(
                f"slot {slot_no + 1} table has shape {slot.table.shape}, "
                f"expected {_expected_shape(rows, heard)}")
        heard *= slot.alphabet_size
    for name, table, rows in (("key_xy", spec.key_xy, nx),
                              ("est_xy", spec.est_xy, ny),
                              ("key_xz", spec.key_xz, nx),
                              ("est_xz", spec.est_xz, nz)):
        if table.shape != (rows, heard):
            raise MalformedTableError(
                f"{name} table has shape {table.shape}, "
                f"expected {_expected_shape(rows, heard)}")

    speakers = {slot_no % 3 for slot_no, slot in enumerate(spec.slots)
                if slot.alphabet_size > 1}
    tables = sorted({tuple(sorted({*pair, *speakers}))
                     for pair in ((0, 1), (0, 2), (1, 2))})
    if sum(math.prod(counts[axis] for axis in axes) for axes in tables) > budget:
        raise BudgetExceededError(
            " + ".join("*".join(str(counts[axis]) for axis in axes)
                       for axes in tables)
            + f" sequence cells exceed the budget of {budget}")
    # each helper is paired with the key it must not learn
    for label, key_size, helper in (("Z", spec.key_xy_size, nz),
                                    ("Y", spec.key_xz_size, ny)):
        if key_size * heard * helper > budget:
            raise BudgetExceededError(
                f"key/transcript/{label} joint table needs more than "
                f"{budget} cells")

    error_xy, error_xz, leak_xy, leak_xz, h_k_xy, h_k_xz = _figures(
        p.probs, spec, n, heard)
    return EvaluationReport(
        error_xy=error_xy,
        error_xz=error_xz,
        leak_xy=leak_xy / n,
        leak_xz=leak_xz / n,
        unif_xy=_clip0((math.log2(spec.key_xy_size) - h_k_xy) / n),
        unif_xz=_clip0((math.log2(spec.key_xz_size) - h_k_xz) / n),
        rate_xy=h_k_xy / n,
        rate_xz=h_k_xz / n,
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
