"""Structural statistics of a pair of variables.

Three objects drive the region computations downstream:

* the minimal sufficient statistic of one variable with respect to another
  (the coarsest relabeling that preserves the conditional law),
* the maximal common function of two variables (the finest random variable
  that is almost surely a deterministic function of each; its classes are
  the connected components of the support bipartite graph),
* the conditional-independence residual given the maximal common function,
  whose vanishing (up to a tolerance) is the deterministic-correlation test.

Zero-probability symbols carry no label and are excluded from every
partition; the objects here are defined almost surely. Labelings are
canonical: label 0 is the class containing the smallest support symbol
index, and labels increase by first appearance, so results are reproducible
across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import JointPmf, _table
from .errors import EmptySupportError, ShapeMismatchError

__all__ = [
    "DEFAULT_CI_TOL",
    "Statistic",
    "CommonFunction",
    "minimal_sufficient_statistic",
    "maximal_common_function",
    "conditional_independence_residual",
]

DEFAULT_CI_TOL = 1e-9

# Conditional rows are rounded to this many decimals before exact grouping;
# pairwise-epsilon equality is not transitive, rounding-then-grouping is.
_ROW_DECIMALS = 12


@dataclass(frozen=True, eq=False)
class Statistic:
    """Deterministic labeling of one variable's alphabet.

    ``labels[sym]`` is a class index in ``range(num_classes)`` for every
    positive-probability symbol and -1 for symbols off the support.
    """

    variable: str
    labels: tuple
    num_classes: int

    def __post_init__(self):
        labels = tuple(int(v) for v in self.labels)
        used = sorted({v for v in labels if v >= 0})
        if used != list(range(self.num_classes)):
            raise ShapeMismatchError(
                f"labels {used} are not contiguous over {self.num_classes} classes"
            )
        if any(v < -1 for v in labels):
            raise ShapeMismatchError("labels must be >= -1")
        object.__setattr__(self, "labels", labels)

    def classes(self) -> tuple:
        """Symbols grouped by label, label order."""
        out = [[] for _ in range(self.num_classes)]
        for sym, lab in enumerate(self.labels):
            if lab >= 0:
                out[lab].append(sym)
        return tuple(tuple(cls) for cls in out)

    def as_partition(self) -> frozenset:
        """Label-free view, for comparing partitions."""
        return frozenset(frozenset(cls) for cls in self.classes())


@dataclass(frozen=True, eq=False)
class CommonFunction:
    """A pair of statistics with f(a) = g(b) on every positive-probability pair."""

    stat_a: Statistic
    stat_b: Statistic
    components: int

    def __post_init__(self):
        if self.stat_a.num_classes != self.components or \
                self.stat_b.num_classes != self.components:
            raise ShapeMismatchError("both sides must use the same component labels")


def minimal_sufficient_statistic(p: JointPmf, of: str, wrt) -> Statistic:
    """Coarsest labeling of ``of`` preserving the conditional law of ``wrt``.

    Each conditional row P(wrt | of = sym) of a positive-probability symbol
    is rounded to 12 decimals (``np.round``: half to even), and two symbols
    merge exactly when their rounded rows are equal. Grouping is therefore
    by rounding bucket, not by distance: rows 2e-13 apart that straddle a
    rounding boundary split, while rows 9e-13 apart inside one bucket merge.
    Canonical labeling by first appearance in symbol order.

    Parameters
    ----------
    p : JointPmf
    of : str
        The variable being relabeled.
    wrt : str or iterable of str
        The variable group whose conditional law must be preserved;
        must not contain ``of``.

    Raises
    ------
    EmptySupportError
        If ``of`` (or ``wrt``) has no positive-probability symbol.
    """
    group = p.normalize_group(wrt)
    if of in group:
        raise ValueError(f"{of!r} cannot appear in its own conditioning group")
    if not group:
        raise ValueError("wrt must be a nonempty variable group")
    m = _table(p, (of,) + group)
    return _sufficient_statistic(of, m.reshape(m.shape[0], -1))


def _sufficient_statistic(of: str, m: np.ndarray) -> Statistic:
    """The minimal sufficient statistic of ``of`` from its joint table ``m``
    (one row per symbol of ``of``, one column per cell of the group)."""
    weights = m.sum(axis=1)
    support = np.flatnonzero(weights > 0.0)
    if support.size == 0:
        raise EmptySupportError(f"{of!r} has empty support")
    rows = np.round(m[support] / weights[support, None], _ROW_DECIMALS) + 0.0
    labels = [-1] * m.shape[0]
    seen: dict = {}
    for sym, row in zip(support.tolist(), rows):
        labels[sym] = seen.setdefault(row.tobytes(), len(seen))
    return Statistic(of, tuple(labels), len(seen))


def maximal_common_function(p: JointPmf, a: str, b: str) -> CommonFunction:
    """Finest common relabeling of ``a`` and ``b``.

    Components of the bipartite graph on support symbols, with an edge
    wherever the pair has positive probability. Equal labels on both sides;
    canonical numbering by the smallest contained ``a``-symbol.

    Raises
    ------
    EmptySupportError
        If the pair has no positive-probability cell.
    ValueError
        If ``a`` and ``b`` are the same variable.
    """
    return _common_function(a, b, _table(p, (a, b)))


def _common_function(a: str, b: str, t: np.ndarray) -> CommonFunction:
    """The maximal common function of ``a`` and ``b`` from their joint
    table ``t`` (axes ``a``, ``b``)."""
    edges = t > 0.0
    if not edges.any():
        raise EmptySupportError(f"pair ({a!r}, {b!r}) has empty support")
    ca, cb = edges.shape
    lab_a = [-1] * ca
    lab_b = [-1] * cb
    comp = 0
    for start in range(ca):
        if lab_a[start] >= 0 or not edges[start].any():
            continue
        stack = [("a", start)]
        lab_a[start] = comp
        while stack:
            side, idx = stack.pop()
            if side == "a":
                for j in np.nonzero(edges[idx])[0]:
                    if lab_b[j] < 0:
                        lab_b[j] = comp
                        stack.append(("b", int(j)))
            else:
                for i in np.nonzero(edges[:, idx])[0]:
                    if lab_a[i] < 0:
                        lab_a[i] = comp
                        stack.append(("a", int(i)))
        comp += 1
    return CommonFunction(
        Statistic(a, tuple(lab_a), comp),
        Statistic(b, tuple(lab_b), comp),
        comp,
    )


def conditional_independence_residual(p: JointPmf, a: str, b: str) -> float:
    """Worst-case deviation of P(a,b | component) from product form.

    The max over components u and cells (a,b) in u of
    ``|P(a,b|u) - P(a|u) P(b|u)|``, including zero-probability cells inside
    the component block (support holes count as dependence).
    """
    t = _table(p, (a, b))
    return _ci_residual(t, _common_function(a, b, t))


def _ci_residual(t: np.ndarray, cf: CommonFunction) -> float:
    """The residual from the joint table ``t`` of the pair (axes a, b)."""
    lab_a = np.asarray(cf.stat_a.labels)
    lab_b = np.asarray(cf.stat_b.labels)
    worst = 0.0
    for u in range(cf.components):
        block = t[np.ix_(lab_a == u, lab_b == u)]
        w = float(block.sum())
        cond = block / w
        resid = np.abs(cond - np.outer(cond.sum(axis=1), cond.sum(axis=0)))
        worst = max(worst, float(resid.max()))
    return worst
