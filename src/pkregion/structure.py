"""Structural statistics of a pair of variables.

Three objects drive the region computations downstream:

* the minimal sufficient statistic of one variable with respect to another
  (the coarsest relabeling that preserves the conditional law),
* the maximal common function of two variables (the finest random variable
  that is almost surely a deterministic function of each; its classes are
  the connected components of the support bipartite graph, found by
  propagating the smallest symbol index over the support matrix with
  pointer jumping),
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

from .dist import JointPmf, _count, _table
from .errors import EmptySupportError

__all__ = [
    "DEFAULT_CI_TOL",
    "Statistic",
    "CommonFunction",
    "minimal_sufficient_statistic",
    "maximal_common_function",
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
        labels = tuple(_count(v, -1, "labels") for v in self.labels)
        # any integer count: a negative one fails the contiguity test
        classes = _count(self.num_classes, float("-inf"), "class count")
        used = sorted({v for v in labels if v >= 0})
        if used != list(range(len(used))) or len(used) != classes:
            raise ValueError(
                f"labels {used} are not contiguous over {classes} classes")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_classes", classes)

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
        components = _count(self.components, 0, "component count")
        object.__setattr__(self, "components", components)
        if self.stat_a.num_classes != components or \
                self.stat_b.num_classes != components:
            raise ValueError("both sides must use the same component labels")


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
    weights = np.add.reduce(m, axis=1)
    support = (weights > 0.0).nonzero()[0]
    if support.size == 0:
        raise EmptySupportError(f"{of!r} has empty support")
    rows = (m[support] / weights[support, None]).round(_ROW_DECIMALS) + 0.0
    # each row is keyed by its slice of one buffer, not by a view per row
    flat, width = rows.tobytes(), rows.shape[1] * rows.itemsize
    labels = [-1] * m.shape[0]
    seen: dict = {}
    for at, sym in enumerate(support.tolist()):
        labels[sym] = seen.setdefault(flat[at * width:(at + 1) * width],
                                      len(seen))
    return Statistic(of, tuple(labels), len(seen))


def maximal_common_function(p: JointPmf, a: str, b: str) -> CommonFunction:
    """Finest common relabeling of ``a`` and ``b``.

    Components of the bipartite graph on support symbols, with an edge
    wherever the pair has positive probability. Equal labels on both sides;
    canonical numbering by the smallest contained ``a``-symbol.

    Each ``a``-symbol points at itself or a smaller one of its component.
    Every round passes the smallest pointer across the support matrix to
    each column and back, hooks each tree onto the smallest tree two steps
    from it, and shortens every pointer to its tree's root by pointer
    jumping; a round that hooks nothing ends the search. Every round costs
    O(|a||b|) in whole-array operations and at least halves, over two
    rounds, the number of trees in a component, so the worst case is
    O(|a||b| log(|a| + |b|)), which a long path of alternating ``a`` and
    ``b`` symbols approaches.

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
    rows = edges.shape[0]
    # root[i] is a row of i's component, never above i, or rows for a row
    # with no support; trees start as single rows, and every row points
    # straight at its tree's root
    root = np.arange(rows + 1)
    while True:
        # the smallest root next to each column, and two steps from each
        # row; rows where there is none
        col = np.where(edges, root[:rows, None], rows).min(axis=0)
        near = np.where(edges, col, rows).min(axis=1)
        if not (near != root[:rows]).any():
            break
        # each tree hooks its root onto the smallest root near a member:
        # ordered by tree, then by near, the first row of each tree holds it.
        # (lexsort, not np.sort of one key: the default sort's SIMD code
        # adds about 0.25 MB of resident pages to a process.)
        order = np.lexsort((near, root[:rows]))
        tree, hook = root[order], near[order]
        first = np.empty(rows, dtype=bool)
        first[0] = True
        np.not_equal(tree[1:], tree[:-1], out=first[1:])
        root[tree[first]] = hook[first]
        # pointer jumping, until every row points at a root again
        while not ((jumped := root[root]) == root).all():
            root = jumped
    # No tree has a smaller one next to it, so each is a component, rooted
    # at its smallest row; components are numbered in the order of their
    # roots, and label[rows] marks a symbol with no support.
    heads = (root[:rows] == np.arange(rows)).nonzero()[0]
    label = np.empty(rows + 1, dtype=np.intp)
    label.fill(-1)
    label[heads] = np.arange(len(heads))
    comp = len(heads)
    if comp == 0:
        raise EmptySupportError(f"pair ({a!r}, {b!r}) has empty support")
    return CommonFunction(
        Statistic(a, label[root[:rows]].tolist(), comp),
        Statistic(b, label[col].tolist(), comp),
        comp,
    )


def _ci_residual(t: np.ndarray, cf: CommonFunction) -> float:
    """Worst-case deviation of P(a,b | component) from product form, from
    the pair's joint table ``t`` (axes a, b) and common function ``cf``: the
    max over components u and cells (a,b) in u of ``|P(a,b|u) - P(a|u)
    P(b|u)|``, zero-probability cells inside a component block included
    (support holes count as dependence)."""
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
