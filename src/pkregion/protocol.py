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
rounding, not estimates. A protocol whose transcript carries information is
run on every joint sequence triple. When the transcript is constant (every
slot alphabet has size 1), each figure involves just two of the three
sequences: the XY key against Z's, the XZ key against Y's. It is then
computed from the pairwise marginals of Pⁿ, which costs |X|ⁿ|Y|ⁿ + |X|ⁿ|Z|ⁿ
+ |Y|ⁿ|Z|ⁿ cells instead of |X|ⁿ|Y|ⁿ|Z|ⁿ. The enumeration budget bounds
the sequence tables the chosen path builds and the accumulated
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


def _pushforward(weights: np.ndarray, codes: np.ndarray, size: int) -> np.ndarray:
    """Distribution of ``codes`` (one per cell of ``weights``) over [0, size)."""
    return np.bincount(codes.reshape(-1), weights=weights.reshape(-1),
                       minlength=size)


def _info_bits(weights, a, a_size: int, b, b_size: int) -> float:
    """I(A ∧ B) in bits, for codes A and B on the cells of ``weights``."""
    table = _pushforward(weights, a * b_size + b, a_size * b_size)
    table = table.reshape(a_size, b_size)
    return _clip0(_entropy_of(table.sum(axis=1))
                  + _entropy_of(table.sum(axis=0)) - _entropy_of(table))


def _disagreement(weights, a, b) -> float:
    return float(weights[a != b].sum())


def _pairwise_figures(probs: np.ndarray, spec: ProtocolSpec, n: int):
    """Errors, leaks (not yet per-symbol) and key entropies of a protocol
    whose transcript is constant.

    Each figure then involves two of the three sequences, so it is a
    functional of one pairwise marginal of Pⁿ. The single-column key tables
    broadcast against each other as (rows, 1) × (1, columns).
    """
    kxy, kxz = spec.key_xy_size, spec.key_xz_size
    p_xy, p_xz, p_yz = (_kron_power(probs.sum(axis=axis), n)
                        for axis in (2, 1, 0))
    p_x = _kron_power(probs.sum(axis=(1, 2)), n)
    ny, nz = p_yz.shape
    y_row = np.arange(ny, dtype=np.int64).reshape(1, ny)
    z_row = np.arange(nz, dtype=np.int64).reshape(1, nz)
    return (
        _disagreement(p_xy, spec.key_xy, spec.est_xy.T),
        _disagreement(p_xz, spec.key_xz, spec.est_xz.T),
        max(_info_bits(p_xz, spec.key_xy, kxy, z_row, nz),
            _info_bits(p_yz, spec.est_xy, kxy, z_row, nz)),
        max(_info_bits(p_xy, spec.key_xz, kxz, y_row, ny),
            _info_bits(p_yz.T, spec.est_xz, kxz, y_row, ny)),
        _entropy_of(_pushforward(p_x, spec.key_xy, kxy)),
        _entropy_of(_pushforward(p_x, spec.key_xz, kxz)),
    )


def _joint_figures(probs: np.ndarray, spec: ProtocolSpec, n: int):
    """The same figures as :func:`_pairwise_figures`, by running the
    protocol on every joint sequence triple."""
    weights = _kron_power(probs, n)
    nx, ny, nz = weights.shape
    xg = np.arange(nx, dtype=np.int64).reshape(nx, 1, 1)
    yg = np.arange(ny, dtype=np.int64).reshape(1, ny, 1)
    zg = np.arange(nz, dtype=np.int64).reshape(1, 1, nz)
    own_grids = (xg, yg, zg)
    transcript = np.zeros((1, 1, 1), dtype=np.int64)
    for slot_no, slot in enumerate(spec.slots):
        message = slot.table[own_grids[slot_no % 3], transcript]
        transcript = transcript * slot.alphabet_size + message

    k_xy, l_xy, k_xz, l_xz, transcript = (
        np.broadcast_to(arr, weights.shape) for arr in (
            spec.key_xy[xg, transcript], spec.est_xy[yg, transcript],
            spec.key_xz[xg, transcript], spec.est_xz[zg, transcript],
            transcript))
    kxy, kxz = spec.key_xy_size, spec.key_xz_size
    heard = spec.transcript_space()
    # one code for the transcript together with the helper's sequence
    tr_z = transcript * nz + zg
    tr_y = transcript * ny + yg
    return (
        _disagreement(weights, k_xy, l_xy),
        _disagreement(weights, k_xz, l_xz),
        max(_info_bits(weights, k_xy, kxy, tr_z, heard * nz),
            _info_bits(weights, l_xy, kxy, tr_z, heard * nz)),
        max(_info_bits(weights, k_xz, kxz, tr_y, heard * ny),
            _info_bits(weights, l_xz, kxz, tr_y, heard * ny)),
        _entropy_of(_pushforward(weights, k_xy, kxy)),
        _entropy_of(_pushforward(weights, k_xz, kxz)),
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


def _over_budget(budget: int, *factors: int) -> bool:
    """Whether the product of ``factors``, each at least 1, exceeds ``budget``.

    Factors of b₁, b₂, … bits multiply to at least 2 ** Σ(bᵢ − 1), so, as in
    :func:`_sequence_count`, a product that far over is refused from the bit
    lengths alone: key and message alphabets as large as a JSON integer
    cost no product of their size.
    """
    if sum(f.bit_length() - 1 for f in factors) >= (budget + 1).bit_length():
        return True
    return math.prod(factors) > budget


def evaluate_protocol(p: JointPmf, spec: ProtocolSpec,
                      budget: int = DEFAULT_BUDGET) -> EvaluationReport:
    """Evaluate the protocol over every source sequence triple, exactly.

    A protocol whose transcript is constant (every slot alphabet has size
    1) is evaluated from the three pairwise marginals of Pⁿ; any other runs
    over the joint table of all sequence triples.

    Raises
    ------
    BudgetExceededError
        If the sequence tables the evaluation builds (the three pairwise
        ones for a constant transcript, the joint one otherwise), or any
        accumulated key/transcript/helper table, would exceed ``budget``
        cells.
    MalformedTableError
        If a slot or key table does not match its domain (sequence count ×
        transcript count) for this source and blocklength.
    """
    source_roles(p)
    n = spec.n
    nx, ny, nz = (_sequence_count(label, card, n, budget)
                  for label, card in zip("XYZ", p.cardinalities))
    num_tr_total = spec.transcript_space()
    # the messages name only factors at most the budget, never their product
    if num_tr_total == 1:
        if nx * ny + nx * nz + ny * nz > budget:
            raise BudgetExceededError(
                f"{nx}*{ny} + {nx}*{nz} + {ny}*{nz} pairwise sequence cells "
                f"exceed the budget of {budget}")
    elif nx * ny * nz > budget:
        raise BudgetExceededError(
            f"{nx}*{ny}*{nz} joint sequences exceed the budget of {budget}")
    # each helper is paired with the key it must not learn
    for label, key_size, helper in (("Z", spec.key_xy_size, nz),
                                    ("Y", spec.key_xz_size, ny)):
        if _over_budget(budget, key_size, num_tr_total, helper):
            raise BudgetExceededError(
                f"key/transcript/{label} joint table needs more than "
                f"{budget} cells")

    own_counts = (nx, ny, nz)
    heard = 1
    for slot_no, slot in enumerate(spec.slots):
        expected = (own_counts[slot_no % 3], heard)
        if slot.table.shape != expected:
            raise MalformedTableError(
                f"slot {slot_no + 1} table has shape {slot.table.shape}, "
                f"expected {expected}")
        heard *= slot.alphabet_size
    for name, table, rows in (("key_xy", spec.key_xy, nx),
                              ("est_xy", spec.est_xy, ny),
                              ("key_xz", spec.key_xz, nx),
                              ("est_xz", spec.est_xz, nz)):
        if table.shape != (rows, heard):
            raise MalformedTableError(
                f"{name} table has shape {table.shape}, expected {(rows, heard)}")

    figures = _pairwise_figures if num_tr_total == 1 else _joint_figures
    error_xy, error_xz, leak_xy, leak_xz, h_k_xy, h_k_xz = figures(
        p.probs, spec, n)
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
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    xy_ok = (report.error_xy <= eps and report.leak_xy <= eps
             and report.unif_xy <= eps)
    xz_ok = (report.error_xz <= eps and report.leak_xz <= eps
             and report.unif_xz <= eps)
    return xy_ok, xz_ok


def rate_point(report: EvaluationReport):
    """The (R_XY, R_XZ) pair in bits per symbol, for region containment."""
    return report.rate_xy, report.rate_xz
