from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pkregion import (
    DEFAULT_CI_TOL, JointPmf, RegionReport, load_pmf, maximal_common_function,
    minimal_sufficient_statistic,
)
from pkregion.errors import EmptySupportError
from pkregion.structure import CommonFunction, Statistic

from conftest import (
    det_correlated_pmf, pmf_as_dict, random_pair_pmf, random_pmf, rng_for,
)
import oracles


# -- Statistic / CommonFunction plumbing -----------------------------------------

def test_statistic_requires_contiguous_labels():
    assert Statistic("Y", (0, 1, 0)).num_classes == 2
    assert Statistic("Y", (-1, -1)).num_classes == 0
    for labels in ((0, 2), (1,), (-1, 1, 2)):
        with pytest.raises(ValueError, match="not contiguous") as err:
            Statistic("Y", labels)
        assert type(err.value) is ValueError
    # a label is an integer: not a boolean, not an integral float
    for label in (True, 1.0):
        with pytest.raises(ValueError, match="is not an integer") as err:
            Statistic("Y", (0, label))
        assert type(err.value) is ValueError
    stat = Statistic("Y", (np.int64(0), np.int64(1)))
    assert stat.labels == (0, 1) and type(stat.num_classes) is int
    # the count is derived from the labels, never given
    with pytest.raises(TypeError):
        Statistic("Y", (0,), 1)


def test_statistic_views():
    stat = Statistic("Y", (1, -1, 0, 1))
    assert stat.classes() == ((2,), (0, 3))
    assert stat.as_partition() == frozenset({frozenset({2}), frozenset({0, 3})})


def test_common_function_checks_class_counts():
    a = Statistic("Y", (0, 1))
    b = Statistic("Z", (0, 0))
    assert CommonFunction(a, Statistic("Z", (1, 0, -1))).components == 2
    for pair in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="same component labels") as err:
            CommonFunction(*pair)
        assert type(err.value) is ValueError
    with pytest.raises(TypeError):
        CommonFunction(b, b, 1)


# -- minimal sufficient statistic -------------------------------------------------

def test_mss_on_worked_source(worked_source):
    stat = minimal_sufficient_statistic(worked_source, of="Y", wrt="Z")
    assert stat.labels == (0, 0, 1, 1)
    assert stat.num_classes == 2


def test_mss_identity_when_all_rows_differ():
    # Y determines Z: every symbol is informative, nothing merges
    table = np.zeros((1, 3, 3))
    for y in range(3):
        table[0, y, y] = 1 / 3
    p = load_pmf(table, ("X", "Y", "Z"), (1, 3, 3))
    stat = minimal_sufficient_statistic(p, of="Y", wrt="Z")
    assert stat.labels == (0, 1, 2)


def test_mss_constant_when_independent(independent_source):
    stat = minimal_sufficient_statistic(independent_source, of="Y", wrt="Z")
    assert stat.num_classes == 1


def test_mss_marks_off_support_symbols():
    table = np.zeros((1, 3, 2))
    table[0, 0, 0] = 0.5
    table[0, 2, 1] = 0.5
    p = load_pmf(table, ("X", "Y", "Z"), (1, 3, 2))
    stat = minimal_sufficient_statistic(p, of="Y", wrt="Z")
    assert stat.labels[1] == -1
    assert stat.num_classes == 2


def test_mss_empty_support_raises():
    # an all-zero table only gets past validation with an infinite tolerance
    degenerate = load_pmf(np.zeros((2, 2)), ("Y", "Z"), (2, 2), sum_tol=np.inf)
    with pytest.raises(EmptySupportError):
        minimal_sufficient_statistic(degenerate, of="Y", wrt="Z")


def test_mss_is_sufficient_and_coarsest_against_oracle():
    rng = rng_for(201)
    for trial in range(40):
        p = random_pair_pmf(rng, max_card=4)
        stat = minimal_sufficient_statistic(p, of="Y", wrt="Z")
        dist = pmf_as_dict(p)
        # sufficiency, via the oracle's dict-based information measure
        lifted = oracles.apply_partition(dist, 0, stat.classes())
        assert oracles.oracle_cmi(lifted, (1,), (0,), (2,)) <= 1e-9
        # coarsest: equals the fewest-class sufficient partition
        assert stat.as_partition() == oracles.coarsest_sufficient_partition(
            dist, 0, (1,))
        # every sufficient partition refines it
        for classes in oracles.sufficient_partitions(dist, 0, (1,)):
            assert oracles.refines(classes, stat.classes())


def test_mss_merges_proportional_rows_built_by_construction():
    # two symbols share a conditional row exactly; a third differs
    table = np.array([
        [0.10, 0.10],
        [0.15, 0.15],
        [0.30, 0.20],
    ])
    p = load_pmf(table, ("Y", "Z"), (3, 2))
    stat = minimal_sufficient_statistic(p, of="Y", wrt="Z")
    assert stat.labels == (0, 0, 1)


def row_pmf(values):
    """A (Y, Z) pair with P(z | y) = (v, 1 - v) for the v of each Y symbol,
    all symbols equally likely."""
    table = np.array([[v, 1.0 - v] for v in values]) / len(values)
    return load_pmf(table, ("Y", "Z"), table.shape)


def test_mss_merges_rows_within_num_tol_in_max_abs_distance():
    """Rows 0.9e-12 apart merge and rows 1.1e-12 apart split. Three rows
    0.8e-12 apart in a chain merge in every symbol order, although the
    outer two alone, 1.6e-12 apart, split."""
    for gap, labels in ((0.9e-12, (0, 0)), (1.1e-12, (0, 1)),
                        (1.6e-12, (0, 1))):
        p = row_pmf((0.3, 0.3 + gap))
        assert minimal_sufficient_statistic(p, of="Y", wrt="Z").labels \
            == labels, gap
    chain = (0.3, 0.3 + 0.8e-12, 0.3 + 1.6e-12)
    for order in permutations(chain):
        stat = minimal_sufficient_statistic(row_pmf(order), of="Y", wrt="Z")
        assert stat.labels == (0, 0, 0), order


# Y = 0 forces X = 0 and Y = 1 forces X = 1; under both, Z is drawn from
# (v, 1 - v) with v = 0.3000000000005, a 12-decimal half-step. Y = 2 is the
# case X = Z. The computed rows of Y = 0 and Y = 1 are one ulp apart, on
# either side of the half-step.
HALF_STEP_SOURCE = [
    [[0.07606394622314988, 0.17748254118692716], [0.0, 0.0],
     [0.18065720184607117, 0.0]],
    [[0.0, 0.0], [0.11554173266952678, 0.26959737622825397],
     [0.0, 0.18065720184607117]],
]


def test_mss_merges_equal_rows_on_either_side_of_a_half_step():
    """Rows that are equal in the maths and one ulp apart in floats merge,
    wherever they lie; the inner region then has the statistic's vertex."""
    p = load_pmf(HALF_STEP_SOURCE, ("X", "Y", "Z"), (2, 3, 2))
    stat = minimal_sufficient_statistic(p, of="Y", wrt="Z")
    assert stat.classes() == ((0, 1), (2,))
    report = RegionReport(p)
    assert report.quantities["i_x_mss_y"] == pytest.approx(0.00717, abs=1e-5)
    # the sum cap of the statistic's region meets its two sides 9e-16
    # apart; the inner region keeps one of those corners, bit for bit
    a, b, s = report.mss_y[1]
    assert (s - b, b) in report.inner.vertices
    assert (a, s - a) not in report.inner.vertices
    assert report.area_gap == pytest.approx(0.0155, abs=1e-4)
    assert report.hausdorff_gap == pytest.approx(0.066, abs=1e-3)


@st.composite
def half_step_sources(draw):
    """An (X, Y, Z) source whose Y symbols are proportional copies of a few
    conditional rows P(z | y), with X arbitrary given Y, and the expected
    classes: the symbols of each row.

    Each entry of a row but the last is a 12-decimal half-step c/20 +
    5e-13, or one or two ulps off it; the last makes the row sum to 1.
    Two rows are equal as rationals or at least 0.05 apart, so the
    oracle's CMI tolerance, which merges rows up to about 1e-5 apart,
    decides nothing."""
    width = draw(st.integers(2, 3))
    centers = draw(st.lists(
        st.tuples(*[st.integers(1, 9)] * (width - 1)), min_size=1,
        max_size=3, unique=True))
    rows = []
    for center in centers:
        row = []
        for c in center:
            entry = c / 20 + 5e-13
            row.append(entry + draw(st.integers(-2, 2)) * np.spacing(entry))
        rows.append(row + [1.0 - sum(row)])
    of_row = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                           max_size=5))
    weight_y = np.array([draw(st.integers(1, 4)) for _ in of_row], float)
    cards = (draw(st.integers(1, 3)), len(of_row), width)
    x_given_y = draw(arrays(np.int64, cards[:2], elements=st.integers(1, 4)))
    x_given_y = x_given_y / x_given_y.sum(axis=0)
    table = np.array([[weight_y[y] / weight_y.sum() * x_given_y[x, y]
                       * np.array(rows[r]) for y, r in enumerate(of_row)]
                      for x in range(cards[0])])
    classes = frozenset(frozenset(y for y, r in enumerate(of_row) if r == k)
                        for k in set(of_row))
    return load_pmf(table, ("X", "Y", "Z"), cards), classes


@given(half_step_sources())
def test_mss_merges_copies_of_half_step_rows_as_the_oracle_does(source):
    p, classes = source
    stat = minimal_sufficient_statistic(p, of="Y", wrt="Z")
    assert stat.as_partition() == classes
    assert classes == oracles.coarsest_sufficient_partition(
        pmf_as_dict(p), 1, (2,))


def test_mss_needs_a_group_without_its_variable(worked_source):
    for wrt, message in ((("Y", "Z"), "its own conditioning group"),
                         ((), "nonempty variable group")):
        with pytest.raises(ValueError, match=message) as err:
            minimal_sufficient_statistic(worked_source, of="Y", wrt=wrt)
        assert type(err.value) is ValueError


# -- maximal common function -------------------------------------------------------

def test_mcf_on_worked_source(worked_source):
    cf = maximal_common_function(worked_source, "Y", "Z")
    assert cf.components == 2
    assert cf.stat_a.labels == (0, 0, 1, 1)
    assert cf.stat_b.labels == (0, 0, 1, 1)


def test_mcf_single_component_for_full_support(bsc_source):
    cf = maximal_common_function(bsc_source, "Y", "Z")
    assert cf.components == 1


def test_pair_functions_reject_a_repeated_variable(worked_source):
    with pytest.raises(ValueError, match="distinct"):
        maximal_common_function(worked_source, "Y", "Y")


def test_mcf_empty_support_raises():
    empty = JointPmf(("Y", "Z"), (2, 2), np.zeros((2, 2)))
    with pytest.raises(EmptySupportError):
        maximal_common_function(empty, "Y", "Z")


def test_mcf_labels_are_canonical():
    # blocks appear in a scrambled symbol order; labels must follow the
    # smallest contained symbol of the first variable
    table = np.zeros((3, 3))
    table[0, 1] = table[2, 1] = 0.25   # component of y in {0, 2}
    table[1, 0] = table[1, 2] = 0.25   # component of y in {1}
    p = load_pmf(table, ("Y", "Z"), (3, 3))
    cf = maximal_common_function(p, "Y", "Z")
    assert cf.stat_a.labels == (0, 1, 0)
    assert cf.stat_b.labels == (1, 0, 1)


def test_mcf_matches_exhaustive_enumeration():
    rng = rng_for(202)
    for trial in range(40):
        p = random_pair_pmf(rng, max_card=4)
        cf = maximal_common_function(p, "Y", "Z")
        dist = pmf_as_dict(p)
        best_a, best_b = oracles.finest_common_partition(dist, 0, 1)
        assert cf.stat_a.as_partition() == best_a
        assert cf.stat_b.as_partition() == best_b
        # maximality: every valid common pair is coarser on both sides
        for part_a, part_b in oracles.common_partition_pairs(dist, 0, 1):
            assert oracles.refines(cf.stat_a.classes(), part_a)
            assert oracles.refines(cf.stat_b.classes(), part_b)


def test_mcf_agrees_with_union_find_components():
    rng = rng_for(203)
    for trial in range(40):
        p = random_pair_pmf(rng, max_card=4)
        _, _, n = oracles.components_by_union_find(pmf_as_dict(p), 0, 1)
        assert maximal_common_function(p, "Y", "Z").components == n


@st.composite
def supports(draw, max_card=40):
    """The support of a (Y, Z) pair over up to ``max_card`` symbols each:
    random cells, a long path of alternating Y and Z symbols, or one-cell
    components, with the symbols shuffled. Rows and columns may be empty."""
    rows, cols = draw(st.integers(1, max_card)), draw(st.integers(1, max_card))
    edges = np.zeros((rows, cols), dtype=bool)
    kind = draw(st.sampled_from(("cells", "path", "one-cell")))
    if kind == "cells":
        density = draw(st.sampled_from((0.02, 0.05, 0.1, 0.3)))
        edges = rng_for(draw(st.integers(0, 2 ** 32 - 1))).random(
            (rows, cols)) < density
    elif kind == "path":
        # y0 z0 y1 z1 ...: step s joins y_{(s+1)//2} and z_{s//2}
        for step in range(draw(st.integers(1, 2 * min(rows, cols)))):
            if (step + 1) // 2 < rows:
                edges[(step + 1) // 2, step // 2] = True
    else:
        for k in draw(st.sets(st.integers(0, min(rows, cols) - 1))):
            edges[k, k] = True
    if not edges.any():
        edges[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] \
            = True
    return edges[draw(st.permutations(range(rows)))][
        :, draw(st.permutations(range(cols)))]


def support_pmf(edges, rng):
    weights = edges * rng.integers(1, 10, edges.shape)
    return load_pmf(weights / weights.sum(), ("Y", "Z"), edges.shape)


def assert_common_function_of(edges, cf):
    """``cf`` is the union-find oracle's partition of the support of
    ``edges``, numbered canonically."""
    dist = {idx: 1.0 for idx in zip(*np.nonzero(edges))}
    classes_a, classes_b, count = oracles.components_by_union_find(dist, 0, 1)
    assert cf.components == count
    assert cf.stat_a.as_partition() == classes_a
    assert cf.stat_b.as_partition() == classes_b
    # label k is the class with the k-th smallest Y symbol; every pair on
    # the support has one label, and a symbol off it has -1
    firsts = [min(cls) for cls in cf.stat_a.classes()]
    assert firsts == sorted(firsts)
    for y, z in zip(*np.nonzero(edges)):
        assert cf.stat_a.labels[y] == cf.stat_b.labels[z]
    assert [lab == -1 for lab in cf.stat_a.labels] \
        == (~edges.any(axis=1)).tolist()
    assert [lab == -1 for lab in cf.stat_b.labels] \
        == (~edges.any(axis=0)).tolist()


@settings(max_examples=300)
@given(edges=supports())
def test_mcf_agrees_with_union_find_on_large_supports(edges):
    p = support_pmf(edges, rng_for(206))
    assert_common_function_of(edges, maximal_common_function(p, "Y", "Z"))


def test_mcf_on_a_300_step_path():
    """A 300-step path of alternating Y and Z symbols is one component,
    however its symbols are numbered; in the last order the smallest
    symbol sits at one end and the rest count down from the other."""
    rng = rng_for(207)
    edges = np.zeros((151, 150), dtype=bool)
    for step in range(300):
        edges[(step + 1) // 2, step // 2] = True
    countdown = np.r_[0, np.arange(150, 0, -1)]
    for order in (np.arange(151), rng.permutation(151), countdown):
        shuffled = np.empty_like(edges)
        shuffled[order] = edges
        cf = maximal_common_function(support_pmf(shuffled, rng), "Y", "Z")
        assert cf.components == 1
        assert_common_function_of(shuffled, cf)


# -- conditional independence given the common part ---------------------------------
# The residual of the helpers (Y, Z) is read off the per-source analysis.

def test_residual_zero_on_worked_source(worked_source):
    assert RegionReport(worked_source).ci_residual <= 1e-12


def test_residual_positive_on_bsc(bsc_source):
    resid = RegionReport(bsc_source).ci_residual
    # single component, so the residual is max |P(y,z) - P(y)P(z)| = 0.2
    assert resid == pytest.approx(0.2, abs=1e-12)


def test_residual_matches_oracle():
    rng = rng_for(204)
    for trial in range(30):
        p = random_pair_pmf(rng, max_card=4)
        # the pair as the helpers of a source with a one-symbol X
        source = load_pmf(p.probs[None], ("X", "Y", "Z"),
                          (1,) + p.cardinalities)
        got = RegionReport(source).ci_residual
        want = oracles.conditional_independence_residual_oracle(
            pmf_as_dict(p), 0, 1)
        assert got == pytest.approx(want, abs=1e-12)


def test_is_deterministically_correlated():
    """The tightness test, residual <= DEFAULT_CI_TOL, on sources built
    conditionally independent and on generic ones."""
    rng = rng_for(205)
    for trial in range(30):
        p, m = det_correlated_pmf(rng)
        cf = maximal_common_function(p, "Y", "Z")
        assert cf.components == m
        assert RegionReport(p).ci_residual <= DEFAULT_CI_TOL
    for trial in range(30):
        p = random_pmf(rng)  # full support, continuous entries: never exact
        assert RegionReport(p).ci_residual > DEFAULT_CI_TOL

