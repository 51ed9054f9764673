import numpy as np
import pytest

from pkregion import (
    RateRegion, compute_report, contains, exact_region, gap_metrics, hull,
    inner_region, load_pmf, outer_region,
)
from pkregion.regions import _cap_vertices

from conftest import det_correlated_pmf, random_pmf, rng_for


# -- convex hull ------------------------------------------------------------------

def test_hull_of_square_with_interior_points():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.25, 0.75)]
    assert hull(pts) == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def test_hull_handles_duplicates_and_collinear():
    assert hull([(0, 0), (0, 0), (0, 0)]) == ((0.0, 0.0),)
    assert hull([(0, 0), (2, 2), (1, 1)]) == ((0.0, 0.0), (2.0, 2.0))
    assert hull([(0, 0), (1, 0), (2, 0), (1, 1)]) == (
        (0.0, 0.0), (2.0, 0.0), (1.0, 1.0))


def test_hull_rounds_near_duplicates_together():
    a = (0.5, 0.5)
    b = (0.5 + 1e-14, 0.5 - 1e-14)
    assert hull([a, b]) == ((0.5, 0.5),)


def test_hull_empty_raises():
    with pytest.raises(ValueError, match="at least one point") as err:
        hull([])
    assert type(err.value) is ValueError


def test_hull_is_counterclockwise():
    rng = rng_for(401)
    for trial in range(50):
        pts = rng.random((12, 2))
        verts = hull(pts)
        if len(verts) < 3:
            continue
        area = 0.0
        for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
            area += x0 * y1 - x1 * y0
        assert area > 0.0


# -- cap-form regions -----------------------------------------------------------------

def test_from_caps_triangle():
    region = RateRegion.from_caps(1.0, 1.0, 1.0, provenance="outer")
    assert region.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert region.cap_xy is not None


def test_from_caps_pentagon():
    region = RateRegion.from_caps(1.0, 1.0, 1.5, provenance="outer")
    assert region.vertices == (
        (0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 1.0))


def test_from_caps_square_when_sum_is_slack():
    region = RateRegion.from_caps(1.0, 1.0, 2.0, provenance="outer")
    assert region.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def test_from_caps_degenerate_point_and_segment():
    point = RateRegion.from_caps(0.0, 0.0, 0.0, provenance="outer")
    assert point.vertices == ((0.0, 0.0),)
    seg = RateRegion.from_caps(1.0, 0.5, 0.0, provenance="outer")
    assert seg.vertices == ((0.0, 0.0),)
    seg2 = RateRegion.from_caps(1.0, 0.0, 1.0, provenance="outer")
    assert seg2.vertices == ((0.0, 0.0), (1.0, 0.0))


def test_region_validation():
    with pytest.raises(ValueError):
        RateRegion.from_caps(-0.5, 1.0, 1.0, provenance="outer")
    with pytest.raises(ValueError):
        RateRegion.from_caps(1.0, 1.0, 1.0, provenance="nonsense")
    with pytest.raises(ValueError):
        RateRegion(cap_xy=1.0, cap_xz=None, cap_sum=1.0,
                   vertices=((0.0, 0.0),), provenance="outer")
    # a NaN cap is refused as such, before any vertex is enumerated
    nan = float("nan")
    for caps in ((nan, 1.0, 1.0), (1.0, nan, 1.0), (1.0, 1.0, nan)):
        with pytest.raises(ValueError, match="caps must be nonnegative"):
            RateRegion.from_caps(*caps, provenance="outer")
    # a region of no points is refused by the hull it is stored as
    with pytest.raises(ValueError, match="at least one point") as err:
        RateRegion.from_hull([])
    assert type(err.value) is ValueError


def test_cap_vertices_agree_with_grid():
    """Brute force: a 200 x 200 grid over the bounding box lands inside the
    vertex polygon exactly when it satisfies the three inequalities."""
    rng = rng_for(402)
    for trial in range(20):
        a, b = rng.uniform(0.2, 2.0, size=2)
        s = rng.uniform(0.2, float(a + b))
        polygon = RateRegion.from_hull(_cap_vertices(a, b, s))
        xs = np.linspace(0.0, a, 200)
        ys = np.linspace(0.0, b, 200)
        for x in xs[:: 19]:
            for y in ys[:: 19]:
                truth = x <= a + 1e-9 and y <= b + 1e-9 and x + y <= s + 1e-9
                assert contains(polygon, (x, y), tol=1e-9) == truth


def test_cap_contains_measures_distance_to_the_caps():
    region = RateRegion.from_caps(1.0, 1.0, 1.5, provenance="outer")
    assert contains(region, (1.0, 0.5))
    assert contains(region, (0.75, 0.75))
    assert not contains(region, (1.0, 0.5 + 1e-6))
    assert contains(region, (1.0, 0.5 + 1e-6), tol=1e-5)
    assert not contains(region, (-1e-6, 0.0))


def test_hull_form_contains():
    region = RateRegion.from_hull([(0, 0), (1, 0), (0, 1)])
    assert contains(region, (0.3, 0.3))
    assert contains(region, (0.5, 0.5), tol=1e-9)
    assert not contains(region, (0.51, 0.5))
    point = RateRegion.from_hull([(0, 0)])
    assert contains(point, (0.0, 0.0))
    assert not contains(point, (1e-6, 0.0))
    seg = RateRegion.from_hull([(0, 0), (1, 0)])
    assert contains(seg, (0.5, 0.0))
    assert not contains(seg, (0.5, 1e-6))
    # NaN fails every edge test, so it is never contained
    nan = float("nan")
    caps = RateRegion.from_caps(1.0, 1.0, 1.5, provenance="outer")
    for each in (region, point, seg, caps):
        assert not contains(each, (nan, nan))
        assert not contains(each, (nan, 0.0), tol=1.0)
        assert not contains(each, (0.0, 0.0), tol=nan)


def test_down_set_property_of_cap_regions():
    rng = rng_for(403)
    for trial in range(20):
        a, b = rng.uniform(0.1, 2.0, size=2)
        s = rng.uniform(0.1, float(a + b))
        region = RateRegion.from_caps(a, b, s, provenance="outer")
        for _ in range(20):
            x = rng.uniform(0.0, a)
            y = rng.uniform(0.0, b)
            if contains(region, (x, y)):
                shrink = rng.uniform(0.0, 1.0, size=2)
                assert contains(region, (x * shrink[0], y * shrink[1]), tol=1e-12)


def test_gap_metrics_identical_regions_are_zero():
    region = RateRegion.from_caps(1.0, 1.0, 1.5, provenance="outer")
    area, hausdorff = gap_metrics(region, region)
    assert area == 0.0
    assert hausdorff <= 1e-12


def test_gap_metrics_known_triangle_pair():
    inner = RateRegion.from_caps(1.0, 1.0, 1.0, provenance="inner-hull")
    outer = RateRegion.from_caps(1.0, 1.0, 2.0, provenance="outer")
    area, hausdorff = gap_metrics(inner, outer)
    assert area == pytest.approx(0.5, abs=1e-9)
    # farthest outer point from the inner triangle is the corner (1, 1)
    assert hausdorff == pytest.approx(np.sqrt(0.5), abs=1e-15)


# -- source-level regions ----------------------------------------------------------

def test_outer_region_worked_source(worked_source):
    region = outer_region(worked_source)
    assert region.provenance == "outer"
    assert region.cap_xy == pytest.approx(1.0, abs=1e-12)
    assert region.cap_xz == pytest.approx(1.0, abs=1e-12)
    assert region.cap_sum == pytest.approx(1.0, abs=1e-12)
    assert region.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def test_inner_region_worked_source(worked_source):
    region = inner_region(worked_source)
    assert region.provenance == "inner-hull"
    assert region.cap_xy is None
    assert region.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def test_exact_region_worked_source(worked_source):
    region = exact_region(worked_source)
    assert region is not None
    assert region.provenance == "exact-thm4"
    assert region.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def test_square_source_all_regions_are_unit_square(square_source):
    for region in (outer_region(square_source), inner_region(square_source),
                   exact_region(square_source)):
        assert region.vertices == (
            (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def test_independent_source_regions_collapse_to_origin(independent_source):
    assert outer_region(independent_source).vertices == ((0.0, 0.0),)
    assert inner_region(independent_source).vertices == ((0.0, 0.0),)
    exact = exact_region(independent_source)
    assert exact is not None and exact.vertices == ((0.0, 0.0),)


def test_bsc_has_no_exact_region(bsc_source):
    assert exact_region(bsc_source) is None
    outer = outer_region(bsc_source)
    assert outer.cap_xz == 0.0
    inner = inner_region(bsc_source)
    assert all(v[1] == 0.0 for v in inner.vertices)


def test_inner_within_outer_random_sweep():
    rng = rng_for(404)
    for trial in range(60):
        p = random_pmf(rng)
        inner = inner_region(p)
        outer = outer_region(p)
        for v in inner.vertices:
            assert contains(outer, v, tol=1e-9)


def test_det_correlated_collapses_gap():
    rng = rng_for(405)
    for trial in range(25):
        p, _ = det_correlated_pmf(rng)
        _, hausdorff = gap_metrics(inner_region(p), outer_region(p))
        assert hausdorff <= 1e-9


def test_exact_region_nests_between_inner_and_outer():
    rng = rng_for(406)
    for trial in range(15):
        p, _ = det_correlated_pmf(rng)
        inner, outer, exact = inner_region(p), outer_region(p), exact_region(p)
        assert exact is not None
        for v in inner.vertices:
            assert contains(exact, v, tol=1e-9)
        for v in exact.vertices:
            assert contains(outer, v, tol=1e-9)


def assert_same_region(got, want):
    assert (got.cap_xy, got.cap_xz, got.cap_sum) \
        == (want.cap_xy, want.cap_xz, want.cap_sum)
    assert got.vertices == want.vertices
    assert got.provenance == want.provenance


def test_exact_region_matches_compute_report():
    """Each public region function equals the matching field of the full
    report exactly: caps, vertices and provenance."""
    rng = rng_for(407)
    sources = [random_pmf(rng) for _ in range(10)]
    sources += [det_correlated_pmf(rng)[0] for _ in range(10)]
    for p in sources:
        report = compute_report(p)
        assert_same_region(outer_region(p), report.outer)
        assert_same_region(inner_region(p), report.inner)
        # the default tolerance, one that only exact independence passes,
        # and one that every source passes
        for tols in ((), (0.0,), (1.0,)):
            exact = exact_region(p, *tols)
            expected = compute_report(p, *tols).exact
            if expected is None:
                assert exact is None
            else:
                assert_same_region(exact, expected)


# -- the assembled report -----------------------------------------------------------

def test_compute_report_worked_source(worked_source):
    report = compute_report(worked_source)
    assert report.thm4_holds
    assert report.components == 2
    assert report.ci_residual <= 1e-12
    assert report.exact is not None
    assert report.exact.provenance == "exact-thm4"
    assert report.area_gap <= 1e-12
    assert report.hausdorff_gap <= 1e-9
    q = report.quantities
    assert q["i_x_y_given_z"] == pytest.approx(1.0, abs=1e-12)
    assert q["i_x_z_given_y"] == pytest.approx(1.0, abs=1e-12)
    assert q["i_x_yz"] == pytest.approx(2.0, abs=1e-12)
    assert q["i_x_common"] == pytest.approx(1.0, abs=1e-12)


def test_compute_report_bsc(bsc_source):
    report = compute_report(bsc_source)
    assert not report.thm4_holds
    assert report.exact is None
    assert report.components == 1
    assert report.ci_residual == pytest.approx(0.2, abs=1e-12)


def test_compute_report_exact_thm3_fallback(square_source):
    """A source that narrowly misses conditional independence gets no exact
    region. Nudged by 0.003, the square source has a max-abs residual near
    1e-5 but I(Y∧Z|C) near 1e-9 bits, so a bits test at 1e-7 labelled it
    exact with the outer caps, 0.5 in area above its own inner region."""
    base = square_source.probs.copy()
    base[0, 0, 0] += 0.003
    base[3, 1, 1] -= 0.003
    p = load_pmf(base / base.sum(), ("X", "Y", "Z"), base.shape)
    report = compute_report(p)
    assert report.ci_residual > 1e-6
    assert not report.thm4_holds
    assert report.exact is None
    assert exact_region(p) is None
    assert report.area_gap == pytest.approx(0.5, abs=0.01)


def test_residual_above_tolerance_has_no_exact_region():
    """A generated 2x2x2 source whose max-abs residual, 3.0e-5, is far above
    the 1e-9 tolerance while I(Y∧Z|C) is 1.1e-8 bits: not exact."""
    table = np.array([
        1.15729658140984515e-01, 2.31163295372887212e-01,
        4.95995352317333063e-02, 5.86881226577014928e-02,
        2.04284039213963070e-01, 8.66007311169119109e-02,
        1.32197168440840007e-01, 1.21737449824978514e-01])
    p = load_pmf(table, ("X", "Y", "Z"), (2, 2, 2))
    report = compute_report(p)
    assert report.ci_residual == pytest.approx(2.98e-5, abs=1e-7)
    assert report.exact is None
    assert exact_region(p) is None
    assert report.hausdorff_gap == pytest.approx(0.0316, abs=1e-4)
