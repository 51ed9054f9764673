import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    Statistic("Y", (0, 1, 0), 2)
    with pytest.raises(ValueError, match="not contiguous") as err:
        Statistic("Y", (0, 2), 2)
    assert type(err.value) is ValueError
    with pytest.raises(ValueError, match="not contiguous") as err:
        Statistic("Y", (1,), 1)
    assert type(err.value) is ValueError
    with pytest.raises(ValueError, match="not contiguous") as err:
        Statistic("Y", (-1, -1), -1)
    assert type(err.value) is ValueError
    # a count is an integer: not a boolean, not an integral float
    for count in (True, 1.0):
        with pytest.raises(ValueError, match="is not an integer") as err:
            Statistic("Y", (0,), count)
        assert type(err.value) is ValueError
    assert type(Statistic("Y", (0,), np.int64(1)).num_classes) is int


def test_statistic_views():
    stat = Statistic("Y", (1, -1, 0, 1), 2)
    assert stat.classes() == ((2,), (0, 3))
    assert stat.as_partition() == frozenset({frozenset({2}), frozenset({0, 3})})


def test_common_function_checks_class_counts():
    a = Statistic("Y", (0, 1), 2)
    b = Statistic("Z", (0, 0), 1)
    with pytest.raises(ValueError, match="same component labels") as err:
        CommonFunction(a, b, 2)
    assert type(err.value) is ValueError
    for components in (True, 1.0):
        with pytest.raises(ValueError, match="is not an integer") as err:
            CommonFunction(b, b, components)
        assert type(err.value) is ValueError


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


def test_mss_groups_rows_by_12_decimal_rounding_bucket():
    """Rows merge when they round to the same 12 decimals, whatever their
    distance: 2e-13 apart across a rounding boundary they split, 9e-13
    apart inside one bucket they merge."""
    for a, b, labels in ((0.3000000000004, 0.3000000000006, (0, 1)),
                         (0.29999999999955, 0.30000000000045, (0, 0))):
        table = 0.5 * np.array([[a, 1.0 - a], [b, 1.0 - b]])
        p = load_pmf(table, ("Y", "Z"), (2, 2))
        assert minimal_sufficient_statistic(p, of="Y", wrt="Z").labels \
            == labels, (a, b)


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

