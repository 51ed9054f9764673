"""Structural statistics of a pair of variables.

Three objects drive the region computations downstream:

* the minimal sufficient statistic of one variable with respect to another
  (the coarsest relabeling that preserves the conditional law),
* the maximal common function of two variables (the finest random variable
  that is almost surely a deterministic function of each; its classes are
  the connected components of the support bipartite graph, found by a
  breadth-first search over each symbol's neighbours held as the bits of
  an int),
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
        used = sorted(set(labels) - {-1})
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

    Each symbol's neighbours on the other side are the bits of one Python
    int, packed from its row of the support matrix. A breadth-first search
    from each unlabeled ``a``-symbol, in symbol order, labels one side of
    the frontier at a time and takes the other side's next frontier as the
    union of their neighbours less the symbols already found. Every symbol
    is visited once, so the search takes O(|a| + |b|) steps, each an
    operation on ints of at most max(|a|, |b|) bits; packing costs O(|a||b|)
    in whole-array operations.

    Raises
    ------
    EmptySupportError
        If the pair has no positive-probability cell.
    ValueError
        If ``a`` and ``b`` are the same variable.
    """
    return _common_function(a, b, _table(p, (a, b)))


def _neighbours(edges: np.ndarray) -> list:
    """Each row's columns in the boolean matrix ``edges``, as the bits of an
    int: bit j for column j."""
    # packed from rows in C order, at about 6x the speed of a transpose's;
    # each row's bytes are then one bytes object, less its trailing zero
    # bytes (numpy strips them), which are the int's high zeros
    packed = np.packbits(np.ascontiguousarray(edges), axis=1,
                         bitorder="little")
    rows = packed.view(f"S{packed.shape[1]}").ravel().tolist()
    return [int.from_bytes(row, "little") for row in rows]


def _label(found: int, labels: list, nbrs: list, comp: int) -> int:
    """Label ``comp`` on each symbol whose bit ``found`` holds; the union of
    their neighbours."""
    near = 0
    while found:
        low = found & -found
        found ^= low
        at = low.bit_length() - 1
        labels[at] = comp
        near |= nbrs[at]
    return near


def _common_function(a: str, b: str, t: np.ndarray) -> CommonFunction:
    """The maximal common function of ``a`` and ``b`` from their joint
    table ``t`` (axes ``a``, ``b``)."""
    edges = t > 0.0
    nbrs_a, nbrs_b = _neighbours(edges), _neighbours(edges.T)
    label_a, label_b = [-1] * len(nbrs_a), [-1] * len(nbrs_b)
    comp = 0
    for start, mask in enumerate(nbrs_a):
        if not mask or label_a[start] >= 0:
            continue
        # the frontier alternates sides: the symbols next to the last
        # frontier that the search has not found yet
        found_a = seen_a = 1 << start
        seen_b = 0
        while found_a:
            found_b = _label(found_a, label_a, nbrs_a, comp) & ~seen_b
            seen_b |= found_b
            found_a = _label(found_b, label_b, nbrs_b, comp) & ~seen_a
            seen_a |= found_a
        comp += 1
    if comp == 0:
        raise EmptySupportError(f"pair ({a!r}, {b!r}) has empty support")
    return CommonFunction(Statistic(a, label_a, comp),
                          Statistic(b, label_b, comp), comp)


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
