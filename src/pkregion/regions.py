"""Rate regions for simultaneous key pairs, and 2-D polytope utilities.

Every region in this package has *cap form*: the set of nonnegative rate
pairs (r_xy, r_xz) with r_xy ≤ a, r_xz ≤ b and r_xy + r_xz ≤ s for three
nonnegative caps in bits. The outer bound and both exact characterizations
are single cap-form regions; the inner bound is the convex hull of two of
them and carries vertices only.

Geometry is closed-form throughout — a cap-form region has at most five
vertices, hulls use the monotone chain on coordinates rounded to 12
decimals, and the (approximate) Hausdorff gap is measured by dense edge
sampling. No linear-programming machinery is involved, which keeps results
deterministic to the bit across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auxsolver import DEFAULT_FEAS_TOL, SolverReport, max_aux_info_outer, \
    max_aux_info_thm3
from .dist import NUM_TOL, JointPmf, attach_statistic, cond_mutual_info, \
    source_roles, _clip0
from .errors import DegenerateInputError
from .structure import DEFAULT_CI_TOL, CommonFunction, \
    conditional_independence_residual, maximal_common_function, \
    minimal_sufficient_statistic

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

_PROVENANCES = frozenset({"outer", "inner-hull", "exact-thm3", "exact-thm4"})

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
    DegenerateInputError
        If no points are given.
    """
    pts = sorted({(round(float(r1), _COORD_DECIMALS) + 0.0,
                   round(float(r2), _COORD_DECIMALS) + 0.0)
                  for r1, r2 in points})
    if not pts:
        raise DegenerateInputError("hull needs at least one point")
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
    if len(verts) == 1:
        return [(verts[0], verts[0])]
    if len(verts) == 2:
        return [(verts[0], verts[1])]
    return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


def _polygon_area(verts: tuple) -> float:
    if len(verts) < 3:
        return 0.0
    twice = 0.0
    for (x0, y0), (x1, y1) in _edge_list(verts):
        twice += x0 * y1 - x1 * y0
    return 0.5 * twice


@dataclass(frozen=True, eq=False)
class RateRegion:
    """A 2-D rate region in bits, cap form or hull form.

    Cap-form regions carry the three caps and their vertex list; hull-form
    regions (provenance ``inner-hull``) carry vertices only, with all caps
    ``None``. Vertices are counterclockwise starting from (0, 0), rounded
    to 12 decimals, without duplicates.
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
            if cap is not None and not (cap >= 0.0):
                raise ValueError(f"caps must be nonnegative, got {cap!r}")
        verts = tuple((float(r1), float(r2)) for r1, r2 in self.vertices)
        if not verts:
            raise DegenerateInputError("a region needs at least one vertex")
        object.__setattr__(self, "vertices", verts)

    @classmethod
    def from_caps(cls, cap_xy: float, cap_xz: float, cap_sum: float,
                  provenance: str) -> "RateRegion":
        """Build a cap-form region with its vertices enumerated closed-form."""
        a, b, s = float(cap_xy), float(cap_xz), float(cap_sum)
        if min(a, b, s) < 0.0:
            raise ValueError(f"caps must be nonnegative, got {(a, b, s)}")
        return cls(a, b, s, _cap_vertices(a, b, s), provenance)

    @classmethod
    def from_hull(cls, points, provenance: str = "inner-hull") -> "RateRegion":
        return cls(None, None, None, _start_at_origin(hull(points)), provenance)

    def contains(self, point, tol: float = 0.0) -> bool:
        return contains(self, point, tol)

    def is_cap_form(self) -> bool:
        return self.cap_xy is not None


def _cap_vertices(a: float, b: float, s: float) -> tuple:
    """Vertices of {(r1, r2) ≥ 0 : r1 ≤ a, r2 ≤ b, r1+r2 ≤ s}, closed-form.

    Candidates are the origin, the axis intercepts, the two sum-cap
    intersections with the box sides, and the box corner; those satisfying
    all constraints survive, and the hull fixes order and duplicates.
    """
    candidates = [
        (0.0, 0.0),
        (min(a, s), 0.0),
        (0.0, min(b, s)),
        (a, s - a),
        (s - b, b),
        (a, b),
    ]
    kept = []
    for r1, r2 in candidates:
        if r1 >= -NUM_TOL and r2 >= -NUM_TOL and r1 <= a + NUM_TOL \
                and r2 <= b + NUM_TOL and r1 + r2 <= s + NUM_TOL:
            kept.append((min(max(r1, 0.0), a), min(max(r2, 0.0), b)))
    return _start_at_origin(hull(kept))


def _point_segment_distance(point, p0, p1) -> float:
    px, py = point
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    length2 = dx * dx + dy * dy
    if length2 == 0.0:
        return math.hypot(px - p0[0], py - p0[1])
    t = max(0.0, min(1.0, ((px - p0[0]) * dx + (py - p0[1]) * dy) / length2))
    return math.hypot(px - (p0[0] + t * dx), py - (p0[1] + t * dy))


def contains(region: RateRegion, point, tol: float = 0.0) -> bool:
    """Whether ``point`` lies in the region, with ``tol`` slack.

    Cap-form regions allow ``tol`` of slack on each half-plane inequality;
    hull-form regions allow ``tol`` of signed distance beyond each edge of
    the counterclockwise boundary (degenerate hulls fall back to
    point/segment distance).
    """
    r1, r2 = float(point[0]), float(point[1])
    if region.is_cap_form():
        return (r1 >= -tol and r2 >= -tol
                and r1 <= region.cap_xy + tol
                and r2 <= region.cap_xz + tol
                and r1 + r2 <= region.cap_sum + tol)
    verts = region.vertices
    if len(verts) == 1:
        return math.hypot(r1 - verts[0][0], r2 - verts[0][1]) <= tol
    if len(verts) == 2:
        return _point_segment_distance((r1, r2), verts[0], verts[1]) <= tol
    for p0, p1 in _edge_list(verts):
        norm = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
        if _cross(p0, p1, (r1, r2)) < -tol * norm:
            return False
    return True


def _sample_boundary(verts: tuple, per_edge: int = 1000) -> np.ndarray:
    chunks = []
    for p0, p1 in _edge_list(verts):
        t = np.linspace(0.0, 1.0, per_edge)
        chunks.append(np.outer(1.0 - t, p0) + np.outer(t, p1))
    return np.vstack(chunks)


def _min_dist_to_boundary(points: np.ndarray, verts: tuple) -> np.ndarray:
    best = np.full(len(points), np.inf)
    for p0, p1 in _edge_list(verts):
        p0 = np.asarray(p0, dtype=np.float64)
        d = np.asarray(p1, dtype=np.float64) - p0
        length2 = float(d @ d)
        if length2 == 0.0:
            closest = np.broadcast_to(p0, points.shape)
        else:
            t = np.clip((points - p0) @ d / length2, 0.0, 1.0)
            closest = p0 + t[:, None] * d
        best = np.minimum(best, np.linalg.norm(points - closest, axis=1))
    return best


def gap_metrics(inner: RateRegion, outer: RateRegion):
    """(area difference, Hausdorff distance) between two regions.

    The area difference is outer minus inner by the shoelace formula. The
    Hausdorff distance is approximated on the boundaries with 1000 samples
    per edge, each sample measured against the other boundary's edges; at
    desk scale that is accurate to well below the tolerances used anywhere
    in this package.
    """
    area_gap = _polygon_area(outer.vertices) - _polygon_area(inner.vertices)
    inner_pts = _sample_boundary(inner.vertices)
    outer_pts = _sample_boundary(outer.vertices)
    hausdorff = max(
        float(_min_dist_to_boundary(inner_pts, outer.vertices).max()),
        float(_min_dist_to_boundary(outer_pts, inner.vertices).max()),
    )
    return _clip0(area_gap), hausdorff


def _fresh_name(p: JointPmf, base: str) -> str:
    name = base
    while name in p.variables:
        name += "_"
    return name


def _info_terms(p: JointPmf):
    """I(X∧Y|Z), I(X∧Z|Y) and I(X∧Y,Z)."""
    x, y, z = source_roles(p)
    return (cond_mutual_info(p, x, y, z), cond_mutual_info(p, x, z, y),
            cond_mutual_info(p, x, (y, z)))


def _base_quantities(p: JointPmf, cf: CommonFunction | None = None):
    """The three source information terms plus the common-part term."""
    return _info_terms(p) + (max_aux_info_outer(p, cf)[0],)


def outer_region(p: JointPmf) -> RateRegion:
    """Converse region: no protocol can exceed these caps.

    a = I(X∧Y|Z), b = I(X∧Z|Y), and the sum cap is I(X∧Y,Z) minus the
    largest information an extractable auxiliary carries about X.
    """
    a, b, i_x_yz, i_x_common = _base_quantities(p)
    return RateRegion.from_caps(a, b, _clip0(i_x_yz - i_x_common), "outer")


def _inner_component_caps(p: JointPmf, a: float, b: float, i_x_yz: float):
    """Cap triples of the two achievable regions, plus their statistic terms.

    Region 1 conditions the XY cap on the minimal sufficient statistic of Y
    (attached as an extra variable) next to Z and charges the sum cap with
    I(U_mss∧X); region 2 swaps the roles of Y and Z.
    """
    x, y, z = source_roles(p)
    u_stat = minimal_sufficient_statistic(p, of=y, wrt=z)
    v_stat = minimal_sufficient_statistic(p, of=z, wrt=y)
    u_name, v_name = _fresh_name(p, "u_mss"), _fresh_name(p, "v_mss")
    p_u = attach_statistic(p, u_stat, new_name=u_name)
    p_v = attach_statistic(p, v_stat, new_name=v_name)
    i_x_mss_y = cond_mutual_info(p_u, x, u_name)
    i_x_mss_z = cond_mutual_info(p_v, x, v_name)
    caps1 = (cond_mutual_info(p_u, x, y, (u_name, z)), b,
             _clip0(i_x_yz - i_x_mss_y))
    caps2 = (a, cond_mutual_info(p_v, x, z, (v_name, y)),
             _clip0(i_x_yz - i_x_mss_z))
    return caps1, caps2, i_x_mss_y, i_x_mss_z


def inner_region(p: JointPmf) -> RateRegion:
    """Achievable region: the hull of the two sufficient-statistic regions."""
    caps1, caps2, _, _ = _inner_component_caps(p, *_info_terms(p))
    return RateRegion.from_hull(_cap_vertices(*caps1) + _cap_vertices(*caps2))


def _exact_caps(a: float, b: float, cap_sum: float,
                det_correlated: bool) -> RateRegion:
    """The outer caps, labelled exact; call only when a tightness test passed.

    A feasible separating auxiliary gives the sum cap I(X∧Y,Z) − I(C∧X),
    which is the outer one.
    """
    return RateRegion.from_caps(
        a, b, cap_sum, "exact-thm4" if det_correlated else "exact-thm3")


def exact_region(p: JointPmf, ci_tol: float = DEFAULT_CI_TOL,
                 feas_tol: float = DEFAULT_FEAS_TOL) -> RateRegion | None:
    """Exact capacity region, when the source admits one; ``None`` otherwise.

    Deterministically correlated sources use the outer caps directly
    (provenance ``exact-thm4``). Failing that, a separating extractable
    auxiliary yields provenance ``exact-thm3``.
    """
    _, y, z = source_roles(p)
    cf = maximal_common_function(p, y, z)
    det_correlated = conditional_independence_residual(p, y, z, cf) <= ci_tol
    if not (det_correlated or max_aux_info_thm3(p, feas_tol, cf).converged):
        return None
    a, b, i_x_yz, i_x_common = _base_quantities(p, cf)
    return _exact_caps(a, b, _clip0(i_x_yz - i_x_common), det_correlated)


@dataclass(frozen=True, eq=False)
class RegionReport:
    """Everything the pipeline knows about one source.

    ``quantities`` maps names of the intermediate information terms (bits)
    to their values; ``components`` and ``ci_residual`` describe the common
    part of (Y, Z); ``solver`` is the separating-auxiliary report.
    ``area_gap`` and ``hausdorff_gap`` measure inner versus outer.
    """

    outer: RateRegion
    inner: RateRegion
    exact: RateRegion | None
    thm4_holds: bool
    thm3_feasible: bool
    components: int
    ci_residual: float
    area_gap: float
    hausdorff_gap: float
    quantities: dict
    solver: SolverReport


def compute_report(p: JointPmf, ci_tol: float = DEFAULT_CI_TOL,
                   feas_tol: float = DEFAULT_FEAS_TOL) -> RegionReport:
    """Run the full pipeline on one source and collect every artifact.

    One analysis pass: the maximal common function, the information terms
    and the conditional-independence residual are computed once and feed
    the outer/inner regions, both tightness checks (the
    deterministic-correlation test and the separating-auxiliary test are
    performed independently and both reported), the exact region when
    either check passes, the inner-vs-outer gap metrics, and all named
    information quantities.
    """
    _, y, z = source_roles(p)
    cf = maximal_common_function(p, y, z)
    a, b, i_x_yz, i_x_common = _base_quantities(p, cf)
    caps1, caps2, i_x_mss_y, i_x_mss_z = _inner_component_caps(p, a, b, i_x_yz)
    outer = RateRegion.from_caps(a, b, _clip0(i_x_yz - i_x_common), "outer")
    inner = RateRegion.from_hull(_cap_vertices(*caps1) + _cap_vertices(*caps2))
    ci_residual = conditional_independence_residual(p, y, z, cf)
    det_correlated = ci_residual <= ci_tol
    solver = max_aux_info_thm3(p, feas_tol, cf)
    exact = None
    if det_correlated or solver.converged:
        exact = _exact_caps(a, b, outer.cap_sum, det_correlated)
    area_gap, hausdorff_gap = gap_metrics(inner, outer)
    quantities = {
        "i_x_y_given_z": a,
        "i_x_z_given_y": b,
        "i_x_yz": i_x_yz,
        "i_x_mss_y": i_x_mss_y,
        "i_x_mss_z": i_x_mss_z,
        "i_x_common": i_x_common,
        "i_x_aux_separating": solver.value,
    }
    return RegionReport(
        outer=outer,
        inner=inner,
        exact=exact,
        thm4_holds=det_correlated,
        thm3_feasible=solver.converged,
        components=cf.components,
        ci_residual=ci_residual,
        area_gap=area_gap,
        hausdorff_gap=hausdorff_gap,
        quantities=quantities,
        solver=solver,
    )
