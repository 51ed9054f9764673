"""Exact evaluation of deterministic public-discussion protocols.

A protocol runs over n i.i.d. copies of the source. Terminals speak in
fixed turn order — slots 1, 4, 7, … belong to X, slots 2, 5, 8, … to Y and
slots 3, 6, 9, … to Z — and every transmission is a lookup table from (own
n-sequence, transcript heard so far) to a message symbol. After the last
slot, each key pair is read off more tables: K_XY and K_XZ from X's
sequence and the transcript, their estimates L_XY from Y's and L_XZ from
Z's. No randomization anywhere.

The evaluator enumerates every joint sequence triple with its exact product
probability, so all reported figures — disagreement probabilities, leakage
toward the respective helper, uniformity deficits, key rates — are exact up
to float rounding, not estimates. The price is the enumeration budget,
which bounds both the sequence space and the accumulated joint tables.

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


def _product_table(base: np.ndarray, n: int) -> np.ndarray:
    """Joint table over sequence triples, i.i.d. product of ``base``."""
    seqp = base
    for _ in range(n - 1):
        grown = np.einsum("abc,def->adbecf", seqp, base)
        seqp = grown.reshape(seqp.shape[0] * base.shape[0],
                             seqp.shape[1] * base.shape[1],
                             seqp.shape[2] * base.shape[2])
    return seqp


def _joint3(weights: np.ndarray, codes, sizes) -> np.ndarray:
    flat = (codes[0].reshape(-1) * sizes[1] + codes[1].reshape(-1)) * sizes[2] \
        + codes[2].reshape(-1)
    total = sizes[0] * sizes[1] * sizes[2]
    return np.bincount(flat, weights=weights, minlength=total).reshape(sizes)


def _leak_bits(weights, key_codes, tr_codes, helper_codes, sizes) -> float:
    """I(key ∧ transcript, helper sequence) in bits (not yet per-symbol)."""
    table = _joint3(weights, (key_codes, tr_codes, helper_codes), sizes)
    h_key = _entropy_of(table.sum(axis=(1, 2)))
    h_rest = _entropy_of(table.sum(axis=0))
    return _clip0(h_key + h_rest - _entropy_of(table))


def evaluate_protocol(p: JointPmf, spec: ProtocolSpec,
                      budget: int = DEFAULT_BUDGET) -> EvaluationReport:
    """Run the protocol over every source sequence triple, exactly.

    Raises
    ------
    BudgetExceededError
        If the sequence space, or any accumulated joint table, would exceed
        ``budget`` cells.
    MalformedTableError
        If a slot or key table does not match its domain (sequence count ×
        transcript count) for this source and blocklength.
    """
    source_roles(p)
    cx, cy, cz = p.cardinalities
    n = spec.n
    nx, ny, nz = cx ** n, cy ** n, cz ** n
    if nx * ny * nz > budget:
        raise BudgetExceededError(
            f"{nx * ny * nz} joint sequences exceed the budget of {budget}")
    num_tr_total = spec.transcript_space()
    for label, helper in (("Z", nz), ("Y", ny)):
        cells = max(spec.key_xy_size, spec.key_xz_size) * num_tr_total * helper
        if cells > budget:
            raise BudgetExceededError(
                f"key/transcript/{label} joint table needs {cells} cells, "
                f"over the budget of {budget}")

    weights = _product_table(p.probs, n).reshape(-1)
    xg = np.arange(nx, dtype=np.int64).reshape(nx, 1, 1)
    yg = np.arange(ny, dtype=np.int64).reshape(1, ny, 1)
    zg = np.arange(nz, dtype=np.int64).reshape(1, 1, nz)
    own_grids = (xg, yg, zg)
    own_counts = (nx, ny, nz)

    transcript = np.zeros((1, 1, 1), dtype=np.int64)
    heard = 1
    for slot_no, slot in enumerate(spec.slots):
        side = slot_no % 3
        expected = (own_counts[side], heard)
        if slot.table.shape != expected:
            raise MalformedTableError(
                f"slot {slot_no + 1} table has shape {slot.table.shape}, "
                f"expected {expected}")
        message = slot.table[own_grids[side], transcript]
        transcript = transcript * slot.alphabet_size + message
        heard *= slot.alphabet_size

    for name, table, rows in (("key_xy", spec.key_xy, nx),
                              ("est_xy", spec.est_xy, ny),
                              ("key_xz", spec.key_xz, nx),
                              ("est_xz", spec.est_xz, nz)):
        if table.shape != (rows, heard):
            raise MalformedTableError(
                f"{name} table has shape {table.shape}, expected {(rows, heard)}")

    k_xy = spec.key_xy[xg, transcript]
    l_xy = spec.est_xy[yg, transcript]
    k_xz = spec.key_xz[xg, transcript]
    l_xz = spec.est_xz[zg, transcript]
    full = (nx, ny, nz)
    k_xy, l_xy, k_xz, l_xz, transcript, y_full, z_full = (
        np.broadcast_to(arr, full)
        for arr in (k_xy, l_xy, k_xz, l_xz, transcript, yg, zg))

    error_xy = float(weights[(k_xy != l_xy).reshape(-1)].sum())
    error_xz = float(weights[(k_xz != l_xz).reshape(-1)].sum())
    leak_xy = max(
        _leak_bits(weights, k_xy, transcript, z_full,
                   (spec.key_xy_size, heard, nz)),
        _leak_bits(weights, l_xy, transcript, z_full,
                   (spec.key_xy_size, heard, nz)),
    ) / n
    leak_xz = max(
        _leak_bits(weights, k_xz, transcript, y_full,
                   (spec.key_xz_size, heard, ny)),
        _leak_bits(weights, l_xz, transcript, y_full,
                   (spec.key_xz_size, heard, ny)),
    ) / n
    h_k_xy = _entropy_of(np.bincount(k_xy.reshape(-1), weights=weights,
                                     minlength=spec.key_xy_size))
    h_k_xz = _entropy_of(np.bincount(k_xz.reshape(-1), weights=weights,
                                     minlength=spec.key_xz_size))
    return EvaluationReport(
        error_xy=error_xy,
        error_xz=error_xz,
        leak_xy=leak_xy,
        leak_xz=leak_xz,
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
