"""Rate regions for simultaneous key pairs, and 2-D polytope utilities.

A region is a convex polygon of nonnegative rate pairs (r_xy, r_xz) in
bits, stored as its vertex list. The outer bound and both exact
characterizations have *cap form*, r_xy ≤ a, r_xz ≤ b, r_xy + r_xz ≤ s for
three nonnegative caps; the inner bound is the convex hull of two cap-form
regions and carries vertices only.

Geometry is closed-form throughout: a cap-form region has at most five
corners, every constructor hulls its points on coordinates rounded to 12
decimals, and containment and the Hausdorff gap both read the Euclidean
distance to the vertex polygon. No linear-programming machinery is
involved, which keeps results deterministic to the bit across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .dist import JointPmf, source_roles, _clip0, _entropy_of
from .structure import DEFAULT_CI_TOL, CommonFunction, _ci_residual, \
    _common_function, _sufficient_statistic

__all__ = [
    "RateRegion",
    "RegionReport",
    "hull",
    "contains",
    "gap_metrics",
    "outer_region",
    "inner_region",
    "exact_region",
    "compute_report",
]

_PROVENANCES = frozenset({"outer", "inner-hull", "exact-thm4"})

# Hull coordinates are rounded to this many decimals before exact
# comparisons; doubles as the duplicate-vertex threshold.
_COORD_DECIMALS = 12


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points) -> tuple:
    """Convex hull vertices, counterclockwise, via the monotone chain.

    Coordinates are rounded to 12 decimals first and compared exactly, so
    the result is deterministic and free of duplicates; collinear interior
    points are dropped. A single distinct point hulls to itself and two
    distinct points to the segment endpoints.

    Raises
    ------
    ValueError
        If no points are given.
    """
    pts = sorted({(round(float(r1), _COORD_DECIMALS) + 0.0,
                   round(float(r2), _COORD_DECIMALS) + 0.0)
                  for r1, r2 in points})
    if not pts:
        raise ValueError("hull needs at least one point")
    if len(pts) == 1:
        return (pts[0],)
    lower = []
    for pt in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], pt) <= 0.0:
            lower.pop()
        lower.append(pt)
    upper = []
    for pt in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], pt) <= 0.0:
            upper.pop()
        upper.append(pt)
    return tuple(lower[:-1] + upper[:-1])


def _start_at_origin(verts: tuple) -> tuple:
    anchor = (0.0, 0.0) if (0.0, 0.0) in verts else min(verts)
    i = verts.index(anchor)
    return verts[i:] + verts[:i]


def _edge_list(verts: tuple) -> list:
    return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


def _polygon_area(verts: tuple) -> float:
    twice = 0.0
    for (x0, y0), (x1, y1) in _edge_list(verts):
        twice += x0 * y1 - x1 * y0
    return 0.5 * twice


@dataclass(frozen=True, eq=False)
class RateRegion:
    """A 2-D rate region in bits, cap form or hull form.

    Cap-form regions carry the three caps; hull-form regions (provenance
    ``inner-hull``) carry all caps ``None``. Whatever points a region is
    built from — given, enumerated from its caps when none are given, or
    copied by :func:`dataclasses.replace` — are stored as their convex
    hull: vertices counterclockwise starting from (0, 0), rounded to 12
    decimals, without duplicates.
    """

    cap_xy: float | None
    cap_xz: float | None
    cap_sum: float | None
    vertices: tuple
    provenance: str

    def __post_init__(self):
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        caps = (self.cap_xy, self.cap_xz, self.cap_sum)
        present = [c is not None for c in caps]
        if any(present) and not all(present):
            raise ValueError("caps must be given all together or not at all")
        for cap in caps:
            # a NaN cap fails the comparison too
            if cap is not None and not (cap >= 0.0):
                raise ValueError(f"caps must be nonnegative, got {cap!r}")
        points = list(self.vertices)
        if not points and all(present):
            points = _cap_vertices(*caps)
        object.__setattr__(self, "vertices", _start_at_origin(hull(points)))

    @classmethod
    def from_caps(cls, cap_xy: float, cap_xz: float, cap_sum: float,
                  provenance: str) -> "RateRegion":
        """Build a cap-form region with its vertices enumerated closed-form."""
        return cls(float(cap_xy), float(cap_xz), float(cap_sum), (),
                   provenance)

    @classmethod
    def from_hull(cls, points) -> "RateRegion":
        """Build the hull-form region (``inner-hull``) of ``points``."""
        return cls(None, None, None, points, "inner-hull")


def _cap_vertices(a: float, b: float, s: float) -> tuple:
    """Corners of {(r1, r2) ≥ 0 : r1 ≤ a, r2 ≤ b, r1+r2 ≤ s}, closed-form.

    With a1 = min(a, s) and b1 = min(b, s): the origin, the axis intercepts
    (a1, 0) and (0, b1), and where the sum cap meets the sides r1 = a1 and
    r2 = b1 (the box corner when the sum cap is slack). No corner passes a
    cap; the hull orders them and drops those that coincide.
    """
    a1, b1 = min(a, s), min(b, s)
    return ((0.0, 0.0), (a1, 0.0), (a1, min(b, s - a1)),
            (min(a, s - b1), b1), (0.0, b1))


def _point_segment_distance(point, p0, p1) -> float:
    px, py = point
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    length2 = dx * dx + dy * dy
    if length2 == 0.0:
        return math.hypot(px - p0[0], py - p0[1])
    t = max(0.0, min(1.0, ((px - p0[0]) * dx + (py - p0[1]) * dy) / length2))
    return math.hypot(px - (p0[0] + t * dx), py - (p0[1] + t * dy))


def contains(region: RateRegion, point, tol: float = 0.0) -> bool:
    """Whether ``point`` lies within Euclidean distance ``tol`` of the region.

    The distance is the one :func:`gap_metrics` measures: 0 inside the
    polygon, otherwise the distance to its nearest edge (to the point or
    segment, for degenerate regions). A point with a NaN coordinate, or a
    NaN ``tol``, is never contained.
    """
    return _distance_to(region.vertices,
                        (float(point[0]), float(point[1]))) <= tol


def _distance_to(verts: tuple, point) -> float:
    """Euclidean distance from ``point`` to the convex polygon ``verts``.

    Zero inside it; otherwise the distance to its nearest edge. A point is
    one zero-length edge and a segment its two directions.
    """
    edges = _edge_list(verts)
    if len(verts) > 2 and all(_cross(p0, p1, point) >= 0.0
                              for p0, p1 in edges):
        return 0.0
    return min(_point_segment_distance(point, p0, p1) for p0, p1 in edges)


def gap_metrics(inner: RateRegion, outer: RateRegion):
    """(area difference, Hausdorff distance) between two convex regions.

    The area difference is outer minus inner by the shoelace formula. The
    distance to a convex region is a convex function of the point, so over
    the other region it peaks at a vertex: the Hausdorff distance is the
    largest distance from a vertex of either region to the other region,
    exactly. For nested regions it equals the distance between the two
    boundaries.
    """
    area_gap = _polygon_area(outer.vertices) - _polygon_area(inner.vertices)
    hausdorff = max(
        max(_distance_to(outer.vertices, v) for v in inner.vertices),
        max(_distance_to(inner.vertices, v) for v in outer.vertices),
    )
    return _clip0(area_gap), hausdorff


# Marginal tables of the source by name, each with the axes of the
# (X, Y, Z) table it sums out.
_MARGINALS = {"x": (1, 2), "y": (0, 2), "z": (0, 1),
              "xy": (2,), "xz": (1,), "yz": (0,)}


@dataclass(frozen=True, eq=False)
class RegionReport:
    """The analysis of one source: everything the pipeline knows about it.

    Construction sums the six marginal tables of ``p``, each over all its
    dropped axes at once, and builds the maximal common function C of the
    helpers (Y, Z). Every other attribute is derived once, on first read.

    ``quantities`` maps names of the intermediate information terms (bits)
    to their values; ``components`` and ``ci_residual`` describe the common
    part of (Y, Z), and ``thm4_holds`` is the tightness verdict
    ``ci_residual <= ci_tol``. ``area_gap`` and ``hausdorff_gap`` measure
    inner versus outer.
    """

    p: JointPmf
    ci_tol: float = DEFAULT_CI_TOL
    tables: dict = field(init=False, repr=False)
    common: CommonFunction = field(init=False, repr=False)

    def __post_init__(self):
        _, y, z = source_roles(self.p)
        tables = {name: np.add.reduce(self.p.probs, axis=drop)
                  for name, drop in _MARGINALS.items()}
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "common",
                           _common_function(y, z, tables["yz"]))

    def complete(self) -> "RegionReport":
        """Derive every attribute now; returns the analysis itself."""
        for name, attr in vars(type(self)).items():
            if isinstance(attr, cached_property):
                getattr(self, name)
        return self

    @cached_property
    def entropies(self) -> dict:
        """Entropies of the marginal tables by name, and ``xyz``."""
        h = {name: _entropy_of(t) for name, t in self.tables.items()}
        h["xyz"] = _entropy_of(self.p.probs)
        return h

    @cached_property
    def info_terms(self) -> tuple:
        """I(X∧Y|Z), I(X∧Z|Y) and I(X∧Y,Z)."""
        h = self.entropies
        return (_clip0(h["xz"] + h["yz"] - h["xyz"] - h["z"]),
                _clip0(h["xy"] + h["yz"] - h["xyz"] - h["y"]),
                _clip0(h["x"] + h["yz"] - h["xyz"]))

    @cached_property
    def i_x_common(self) -> float:
        """I(C∧X), the common-part term of the outer sum cap.

        Summed from the (X, Y) table and the Y-side labels of C. H(X) is
        taken from that table's row sums: the entropy of the source's own X
        marginal, summed in another order, can differ in the last bit.
        """
        txy, cf = self.tables["xy"], self.common
        labels = np.array(cf.stat_a.labels, dtype=np.intp)
        on = labels >= 0
        qcx = np.zeros((cf.components, txy.shape[0]), dtype=np.float64)
        # unbuffered: each Y column adds into its label's row, in symbol order
        np.add.at(qcx, labels[on], txy.T[on])
        return _clip0(_entropy_of(np.add.reduce(qcx, axis=1))
                      + _entropy_of(np.add.reduce(txy, axis=1))
                      - _entropy_of(qcx))

    def _statistic_caps(self, axis: int):
        """I(X∧S) and the cap triple of the achievable region of S, the
        minimal sufficient statistic of the helper B on ``axis`` with
        respect to the other helper C.

        The region conditions B's key cap on S next to C and charges the
        sum cap with I(X∧S). S is a function of B, so H(X,B,S,C) = H(X,B,C)
        and H(B,S,C) = H(B,C): I(X∧B|S,C) = H(X,S,C) + H(B,C) − H(X,B,C) −
        H(S,C). The tables of S are pushforwards of the source along B → S:
        sums over each class of S.
        """
        h = self.entropies
        a, b, i_x_yz = self.info_terms
        yz = self.tables["yz"]
        stat = _sufficient_statistic(self.p.variables[axis],
                                     yz if axis == 1 else yz.T)
        probs, classes = self.p.probs, stat.classes()
        xcs = np.empty(probs.shape[:axis] + probs.shape[axis + 1:]
                       + (len(classes),))
        for s, cls in enumerate(classes):
            xcs[..., s] = np.add.reduce(probs.take(cls, axis=axis), axis=axis)
        xs = xcs.sum(axis=1)
        i_x_s = _clip0(h["x"] + _entropy_of(xs.sum(axis=0)) - _entropy_of(xs))
        cap = _clip0(_entropy_of(xcs) + h["yz"] - h["xyz"]
                     - _entropy_of(xcs.sum(axis=0)))
        caps = (cap, b) if axis == 1 else (a, cap)
        return i_x_s, caps + (_clip0(i_x_yz - i_x_s),)

    @cached_property
    def mss_y(self) -> tuple:
        """I(X∧U) and region 1's caps, U = mss(Y|Z) next to Z."""
        return self._statistic_caps(1)

    @cached_property
    def mss_z(self) -> tuple:
        """I(X∧V) and region 2's caps, V = mss(Z|Y) next to Y."""
        return self._statistic_caps(2)

    @cached_property
    def ci_residual(self) -> float:
        return _ci_residual(self.tables["yz"], self.common)

    @cached_property
    def thm4_holds(self) -> bool:
        return self.ci_residual <= self.ci_tol

    @cached_property
    def outer(self) -> RateRegion:
        a, b, i_x_yz = self.info_terms
        return RateRegion.from_caps(a, b, _clip0(i_x_yz - self.i_x_common),
                                    "outer")

    @cached_property
    def inner(self) -> RateRegion:
        return RateRegion.from_hull(_cap_vertices(*self.mss_y[1])
                                    + _cap_vertices(*self.mss_z[1]))

    @cached_property
    def exact(self) -> RateRegion | None:
        return replace(self.outer, provenance="exact-thm4") \
            if self.thm4_holds else None

    @cached_property
    def gaps(self) -> tuple:
        """(area, Hausdorff) gap of inner against outer."""
        return gap_metrics(self.inner, self.outer)

    area_gap = property(lambda self: self.gaps[0])
    hausdorff_gap = property(lambda self: self.gaps[1])
    components = property(lambda self: self.common.components)

    @cached_property
    def quantities(self) -> dict:
        a, b, i_x_yz = self.info_terms
        return {
            "i_x_y_given_z": a,
            "i_x_z_given_y": b,
            "i_x_yz": i_x_yz,
            "i_x_mss_y": self.mss_y[0],
            "i_x_mss_z": self.mss_z[0],
            "i_x_common": self.i_x_common,
        }


def outer_region(p: JointPmf) -> RateRegion:
    """Converse region: no protocol can exceed these caps.

    a = I(X∧Y|Z), b = I(X∧Z|Y), and the sum cap is I(X∧Y,Z) minus the
    largest information an extractable auxiliary carries about X.
    """
    return RegionReport(p).outer


def inner_region(p: JointPmf) -> RateRegion:
    """Achievable region: the hull of the two sufficient-statistic regions."""
    return RegionReport(p).inner


def exact_region(p: JointPmf,
                 ci_tol: float = DEFAULT_CI_TOL) -> RateRegion | None:
    """Exact capacity region, when the source admits one; ``None`` otherwise.

    A source whose helpers are deterministically correlated — Y and Z
    independent given their common part, up to ``ci_tol`` on the max-abs
    residual — has the outer caps as its exact region (provenance
    ``exact-thm4``). A separating extractable auxiliary exists for exactly
    these sources (see :mod:`pkregion.auxsolver`), so no other test is made.
    """
    return RegionReport(p, ci_tol).exact


def compute_report(p: JointPmf,
                   ci_tol: float = DEFAULT_CI_TOL) -> RegionReport:
    """Run the full pipeline on one source and collect every artifact.

    The analysis of ``p``, with every attribute derived here rather than
    when a report document reads it: the outer/inner regions, the tightness
    test (residual at most ``ci_tol``), the exact region when it passes, the
    inner-vs-outer gap metrics and all named information quantities.
    """
    return RegionReport(p, ci_tol).complete()
