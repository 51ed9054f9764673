import numpy as np
import pytest

from pkregion import (
    DEFAULT_FEAS_TOL, attach_statistic, cond_mutual_info, dominance_oracle,
    load_pmf, max_aux_info_outer, max_aux_info_thm3, maximal_common_function,
)
from pkregion.auxsolver import SolverReport
from pkregion.structure import Statistic

from conftest import det_correlated_pmf, pmf_as_dict, random_pmf, rng_for, \
    square_pmf
import itertools
import oracles


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
    q = attach_statistic(worked_source, stat, new_name="U")
    assert cond_mutual_info(q, "U", "X") == pytest.approx(value, abs=1e-12)


def test_deterministic_separating_functions_respect_components():
    """Any deterministic label of Y that is also recoverable from Z must be
    constant on the support components, checked by brute enumeration."""
    rng = rng_for(301)
    for trial in range(10):
        p = random_pmf(rng, cards=(2, 3, 3))
        cf = maximal_common_function(p, "Y", "Z")
        comp = cf.stat_a.labels
        for labels in itertools.product(range(2), repeat=3):
            k = len(set(labels))
            canon, seen = [], {}
            for lab in labels:
                canon.append(seen.setdefault(lab, len(seen)))
            stat = Statistic("Y", tuple(canon), k)
            q = attach_statistic(p, stat, new_name="U")
            if cond_mutual_info(q, "U", ("X", "Y"), "Z") <= 1e-12:
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
        assert dominance_oracle(p, trials=200, seed=500 + i) <= bound + 1e-9


def test_dominance_oracle_is_deterministic(worked_source):
    a = dominance_oracle(worked_source, trials=50, seed=7)
    b = dominance_oracle(worked_source, trials=50, seed=7)
    assert a == b


# -- the restart solver ----------------------------------------------------------------

def test_thm3_on_worked_source(worked_source):
    report = max_aux_info_thm3(worked_source)
    assert isinstance(report, SolverReport)
    assert report.converged
    assert report.value == pytest.approx(1.0, abs=1e-9)
    assert report.residual <= 1e-7


def test_thm3_square_source(square_source):
    # Y and Z are independent here, so the common part is trivial and the
    # best separating auxiliary carries nothing about X
    report = max_aux_info_thm3(square_source)
    assert report.converged
    assert report.value == 0.0


def test_thm3_trivial_when_independent(independent_source):
    report = max_aux_info_thm3(independent_source)
    assert report.converged
    assert report.value == 0.0
    assert report.residual <= 1e-12


def test_thm3_bsc_is_infeasible(bsc_source):
    """One mixed component: no auxiliary variable separates Y from Z, and the
    best-attempt residual equals the raw dependence I(Y;Z)."""
    report = max_aux_info_thm3(bsc_source)
    assert not report.converged
    assert report.residual == pytest.approx(
        cond_mutual_info(bsc_source, "Y", "Z"), abs=1e-9)


def test_thm3_never_exceeds_ceiling():
    rng = rng_for(303)
    for trial in range(8):
        p, _ = det_correlated_pmf(rng)
        bound, _ = max_aux_info_outer(p)
        report = max_aux_info_thm3(p)
        if report.converged:
            assert report.value <= bound + 1e-9


def test_thm3_report_is_bitwise_deterministic(worked_source, bsc_source):
    for p in (worked_source, bsc_source):
        r1 = max_aux_info_thm3(p)
        r2 = max_aux_info_thm3(p)
        assert r1.value == r2.value
        assert r1.residual == r2.residual
        assert r1.converged == r2.converged


def test_thm3_channel_is_reported_feasible(worked_source):
    report = max_aux_info_thm3(worked_source)
    assert report.residual >= 0.0
    # reported value and residual match a recomputation from U = C
    cf = maximal_common_function(worked_source, "Y", "Z")
    q = attach_statistic(worked_source, cf.stat_a, new_name="U")
    assert cond_mutual_info(q, "U", "X") == pytest.approx(report.value,
                                                          abs=1e-12)
    assert cond_mutual_info(q, "Y", "Z", "U") == pytest.approx(
        report.residual, abs=1e-12)


def test_solver_report_is_frozen(worked_source):
    report = max_aux_info_thm3(worked_source)
    with pytest.raises(AttributeError):
        report.value = 0.0


def test_thm3_against_oracle_best_over_channels():
    """On a tiny deterministically-correlated source, random channel search
    (the oracle) should not beat the solver's reported optimum."""
    rng = rng_for(304)
    p, _ = det_correlated_pmf(rng, max_components=2, max_block=2, x_card=2)
    report = max_aux_info_thm3(p)
    assert report.converged
    probe = dominance_oracle(p, trials=500, seed=21)
    assert probe <= report.value + 1e-9


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
    """The closed form against every deterministic channel from the common
    part: same smallest residual, same verdict, same best feasible value."""
    rng = rng_for(305)
    sources = [random_pmf(rng, cards=(2, 3, 3)) for _ in range(4)]
    sources += [det_correlated_pmf(rng, x_card=2)[0] for _ in range(6)]
    sources += [dependent_block_pmf(rng, m) for m in (2, 3, 4)
                for _ in range(2)]
    verdicts = []
    for p in sources:
        report = max_aux_info_thm3(p)
        min_resid, feasible, best = oracles.separating_aux_oracle(
            pmf_as_dict(p), DEFAULT_FEAS_TOL)
        assert abs(report.residual - min_resid) <= 1e-9
        assert report.converged == feasible
        if feasible:
            assert abs(report.value - best) <= 1e-9
        verdicts.append(feasible)
    # both verdicts occur, and the block sources are all infeasible
    assert any(verdicts) and not all(verdicts)
    assert not any(verdicts[10:])
