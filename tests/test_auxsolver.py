import itertools

import numpy as np
import pytest

from pkregion import (
    compute_report, cond_mutual_info, exact_region, load_pmf,
    max_aux_info_outer, maximal_common_function, outer_region,
)
from pkregion.structure import Statistic

from conftest import det_correlated_pmf, pmf_as_dict, random_pmf, rng_for, \
    square_pmf
import oracles

# Tolerance of the oracle's separating verdict, on I(Y;Z|U) in bits.
SEPARATING_TOL = 1e-7


# -- the closed-form ceiling ---------------------------------------------------------

def test_outer_value_on_worked_source(worked_source):
    value, stat = max_aux_info_outer(worked_source)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert stat.labels == (0, 0, 1, 1)


def test_outer_value_vanishes_without_common_part(bsc_source, independent_source):
    assert max_aux_info_outer(bsc_source)[0] == 0.0
    assert max_aux_info_outer(independent_source)[0] == 0.0


def test_outer_statistic_reproduces_value(worked_source):
    value, stat = max_aux_info_outer(worked_source)
    lifted = oracles.apply_partition(pmf_as_dict(worked_source), 1,
                                     stat.classes())
    assert oracles.oracle_cmi(lifted, (3,), (0,)) == pytest.approx(
        value, abs=1e-12)


def test_deterministic_separating_functions_respect_components():
    """Any deterministic label of Y that is also recoverable from Z must be
    constant on the support components, checked by brute enumeration."""
    rng = rng_for(301)
    for trial in range(10):
        p = random_pmf(rng, cards=(2, 3, 3))
        cf = maximal_common_function(p, "Y", "Z")
        comp = cf.stat_a.labels
        dist = pmf_as_dict(p)
        for labels in itertools.product(range(2), repeat=3):
            k = len(set(labels))
            canon, seen = [], {}
            for lab in labels:
                canon.append(seen.setdefault(lab, len(seen)))
            stat = Statistic("Y", tuple(canon), k)
            lifted = oracles.apply_partition(dist, 1, stat.classes())
            if oracles.oracle_cmi(lifted, (3,), (0, 1), (2,)) <= 1e-12:
                # recoverable from Z as well, hence constant per component
                for y1 in range(3):
                    for y2 in range(3):
                        if comp[y1] == comp[y2]:
                            assert canon[y1] == canon[y2]


def test_dominance_oracle_never_beats_ceiling():
    rng = rng_for(302)
    sources = [random_pmf(rng) for _ in range(3)]
    sources.append(square_pmf())
    for i, p in enumerate(sources):
        bound, _ = max_aux_info_outer(p)
        probe = oracles.dominance_probe(pmf_as_dict(p), trials=200,
                                        seed=500 + i)
        assert probe <= bound + 1e-9


def test_dominance_oracle_is_deterministic(worked_source):
    dist = pmf_as_dict(worked_source)
    a = oracles.dominance_probe(dist, trials=50, seed=7)
    b = oracles.dominance_probe(dist, trials=50, seed=7)
    assert a == b


# -- separating auxiliaries against the one tightness verdict ------------------------
#
# A separating extractable auxiliary exists exactly when the helpers are
# deterministically correlated (proof in the auxsolver docstring), so the
# brute-force oracle's verdict must match the package's single test.

def separating(p):
    """(smallest residual, feasible, best value) from the brute-force oracle."""
    return oracles.separating_aux_oracle(pmf_as_dict(p), SEPARATING_TOL)


def test_thm3_on_worked_source(worked_source):
    report = compute_report(worked_source)
    resid, feasible, best = separating(worked_source)
    assert feasible and report.thm4_holds
    assert resid <= 1e-12
    assert best == pytest.approx(1.0, abs=1e-9)
    assert report.quantities["i_x_common"] == pytest.approx(best, abs=1e-9)
    assert report.exact.provenance == "exact-thm4"


def test_thm3_square_source(square_source):
    # Y and Z are independent here, so the common part is trivial and the
    # best separating auxiliary carries nothing about X
    report = compute_report(square_source)
    _, feasible, best = separating(square_source)
    assert feasible and best == pytest.approx(0.0, abs=1e-12)
    assert report.thm4_holds
    assert report.quantities["i_x_common"] == 0.0
    assert report.exact.vertices == report.outer.vertices


def test_thm3_trivial_when_independent(independent_source):
    report = compute_report(independent_source)
    resid, feasible, best = separating(independent_source)
    assert feasible and resid <= 1e-12
    assert best == pytest.approx(0.0, abs=1e-12)
    assert report.thm4_holds and report.ci_residual <= 1e-12
    assert report.exact is not None


def test_thm3_bsc_is_infeasible(bsc_source):
    """One mixed component: no auxiliary variable separates Y from Z, the
    smallest residual is the raw dependence I(Y;Z), and there is no exact
    region."""
    resid, feasible, best = separating(bsc_source)
    assert not feasible and best is None
    assert resid == pytest.approx(
        cond_mutual_info(bsc_source, "Y", "Z"), abs=1e-9)
    assert not compute_report(bsc_source).thm4_holds
    assert exact_region(bsc_source) is None


def test_thm3_never_exceeds_ceiling():
    """On deterministically correlated sources the exact region is the
    outer one, and no separating auxiliary beats the ceiling I(C∧X)."""
    rng = rng_for(303)
    for trial in range(8):
        p, _ = det_correlated_pmf(rng)
        bound, _ = max_aux_info_outer(p)
        assert bound == compute_report(p).quantities["i_x_common"]
        _, feasible, best = separating(p)
        assert feasible and best <= bound + 1e-9
        exact, outer = exact_region(p), outer_region(p)
        assert (exact.cap_xy, exact.cap_xz, exact.cap_sum) == (
            outer.cap_xy, outer.cap_xz, outer.cap_sum)


def test_thm3_report_is_bitwise_deterministic(worked_source, bsc_source):
    for p in (worked_source, bsc_source):
        r1 = compute_report(p)
        r2 = compute_report(p)
        assert r1.thm4_holds == r2.thm4_holds
        assert r1.ci_residual == r2.ci_residual
        assert r1.quantities == r2.quantities
        assert r1.outer.vertices == r2.outer.vertices
        assert (r1.exact is None) == (r2.exact is None)


def test_thm3_channel_is_reported_feasible(worked_source, bsc_source):
    """U = C separates the worked source's helpers and carries the reported
    I(C∧X); on the noisy pair it leaves all of I(Y;Z)."""
    for p, separates in ((worked_source, True), (bsc_source, False)):
        report = compute_report(p)
        cf = maximal_common_function(p, "Y", "Z")
        lifted = oracles.apply_partition(pmf_as_dict(p), 1,
                                         cf.stat_a.classes())
        assert oracles.oracle_cmi(lifted, (3,), (0,)) == pytest.approx(
            report.quantities["i_x_common"], abs=1e-12)
        resid = oracles.oracle_cmi(lifted, (1,), (2,), (3,))
        assert (resid <= 1e-12) == separates == report.thm4_holds


def test_thm3_against_oracle_best_over_channels():
    """On a tiny deterministically-correlated source, random channel search
    (the oracle) should not beat the exact region's common-part term."""
    rng = rng_for(304)
    p, _ = det_correlated_pmf(rng, max_components=2, max_block=2, x_card=2)
    report = compute_report(p)
    assert report.exact is not None
    probe = oracles.dominance_probe(pmf_as_dict(p), trials=500, seed=21)
    assert probe <= report.quantities["i_x_common"] + 1e-9


def dependent_block_pmf(rng, components, x_card=2):
    """Block-diagonal (Y, Z) support with ``components`` blocks, the first
    one 2x2 with random weights, so Y and Z stay dependent given their
    common part. |Y| and |Z| stay <= 5 to keep the oracle's enumeration of
    common partitions small."""
    y_sizes, z_sizes = [2] + [1] * (components - 1), [2] + [1] * (components - 1)
    for sizes in (y_sizes, z_sizes):
        if components > 1 and sum(sizes) < 5 and rng.random() < 0.5:
            sizes[int(rng.integers(1, components))] = 2
    table = np.zeros((x_card, sum(y_sizes), sum(z_sizes)))
    y0 = z0 = 0
    for c in range(components):
        block = rng.random((y_sizes[c], z_sizes[c]))
        for i in range(y_sizes[c]):
            for j in range(z_sizes[c]):
                table[:, y0 + i, z0 + j] = block[i, j] * rng.dirichlet(
                    np.ones(x_card))
        y0 += y_sizes[c]
        z0 += z_sizes[c]
    table /= table.sum()
    return load_pmf(table, ("X", "Y", "Z"), table.shape)


def test_thm3_matches_bruteforce_oracle():
    """The package's one tightness verdict against every deterministic
    channel from the common part: a separating auxiliary exists exactly when
    the source is labelled deterministically correlated, and the best one
    carries the reported I(C∧X)."""
    rng = rng_for(305)
    sources = [random_pmf(rng, cards=(2, 3, 3)) for _ in range(4)]
    sources += [det_correlated_pmf(rng, x_card=2)[0] for _ in range(6)]
    sources += [dependent_block_pmf(rng, m) for m in (2, 3, 4)
                for _ in range(2)]
    verdicts = []
    for p in sources:
        report = compute_report(p)
        _, feasible, best = separating(p)
        assert report.thm4_holds == feasible
        assert (report.exact is not None) == feasible
        if feasible:
            assert abs(report.quantities["i_x_common"] - best) <= 1e-9
        verdicts.append(feasible)
    # both verdicts occur, and the block sources are all infeasible
    assert any(verdicts) and not all(verdicts)
    assert not any(verdicts[10:])
