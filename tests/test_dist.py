import math

import numpy as np
import pytest

from pkregion import (
    JointPmf, cond_mutual_info, entropy, load_pmf, marginal, source_roles,
)
from pkregion.errors import (
    DuplicateVariableError, NegativeEntryError, NonFiniteEntryError,
    ShapeMismatchError, SumOutOfToleranceError, UnknownVariableError,
)

from conftest import pmf_as_dict, random_pmf, rng_for
from oracles import oracle_cmi, oracle_entropy


def test_load_pmf_accepts_flat_and_shaped_tables():
    flat = load_pmf([0.25, 0.25, 0.25, 0.25], ("A", "B"), (2, 2))
    shaped = load_pmf(np.full((2, 2), 0.25), ("A", "B"), (2, 2))
    assert np.array_equal(flat.probs, shaped.probs)
    assert flat.cardinalities == (2, 2)


def test_load_pmf_rejects_bad_inputs():
    with pytest.raises(NegativeEntryError):
        load_pmf([0.5, 0.6, -0.1, 0.0], ("A", "B"), (2, 2))
    with pytest.raises(SumOutOfToleranceError):
        load_pmf([0.5, 0.4, 0.0, 0.0], ("A", "B"), (2, 2))
    # a NaN tolerance admits no table, least of all one summing to 4.8
    with pytest.raises(SumOutOfToleranceError):
        load_pmf(np.full(8, 0.6), ("X", "Y", "Z"), (2, 2, 2),
                 sum_tol=float("nan"))
    with pytest.raises(ShapeMismatchError):
        load_pmf([0.5, 0.5], ("A", "B"), (2, 2))
    with pytest.raises(DuplicateVariableError):
        load_pmf([0.25] * 4, ("A", "A"), (2, 2))
    with pytest.raises(ShapeMismatchError):
        load_pmf([1.0], ("A", "B"), (1,))


def test_load_pmf_rejects_non_finite_entries():
    # a NaN used to pass the sum test (abs(nan - 1) > tol is False)
    table = [0.25, float("nan"), 0.0, 0.25, 0.25, 0.0, 0.0, 0.25]
    with pytest.raises(NonFiniteEntryError):
        load_pmf(table, ("X", "Y", "Z"), (2, 2, 2))
    for bad in (float("inf"), float("-inf")):
        with pytest.raises(NonFiniteEntryError):
            load_pmf([0.5, bad, 0.5, 0.0], ("A", "B"), (2, 2))


def test_load_pmf_sum_tolerance_is_configurable():
    table = [0.5, 0.4999, 0.0, 0.0]
    with pytest.raises(SumOutOfToleranceError):
        load_pmf(table, ("A", "B"), (2, 2))
    p = load_pmf(table, ("A", "B"), (2, 2), sum_tol=1e-3)
    assert p.total() == pytest.approx(0.9999)


def test_probs_are_read_only():
    p = load_pmf([0.25] * 4, ("A", "B"), (2, 2))
    with pytest.raises(ValueError):
        p.probs[0, 0] = 1.0


def test_unknown_variable_raises():
    p = load_pmf([0.25] * 4, ("A", "B"), (2, 2))
    with pytest.raises(UnknownVariableError):
        p.axis("C")
    with pytest.raises(UnknownVariableError):
        entropy(p, "C")


def test_marginal_matches_oracle():
    rng = rng_for(101)
    for trial in range(25):
        p = random_pmf(rng)
        keep = [name for name in p.variables if rng.random() < 0.6]
        if not keep:
            keep = [p.variables[0]]
        m = marginal(p, keep)
        dist = pmf_as_dict(p)
        idxs = tuple(p.axis(name) for name in m.variables)
        for combo in np.ndindex(*m.cardinalities):
            expected = sum(pr for key, pr in dist.items()
                           if tuple(key[i] for i in idxs) == combo)
            assert m.probs[combo] == pytest.approx(expected, abs=1e-12)


def test_entropy_and_cmi_match_oracle():
    rng = rng_for(102)
    for trial in range(50):
        p = random_pmf(rng)
        dist = pmf_as_dict(p)
        assert entropy(p, p.variables) == pytest.approx(
            oracle_entropy(dist, (0, 1, 2)), abs=1e-10)
        assert entropy(p, "Y") == pytest.approx(
            oracle_entropy(dist, (1,)), abs=1e-10)
        assert cond_mutual_info(p, "X", "Y", "Z") == pytest.approx(
            oracle_cmi(dist, (0,), (1,), (2,)), abs=1e-10)
        assert cond_mutual_info(p, "X", ("Y", "Z")) == pytest.approx(
            oracle_cmi(dist, (0,), (1, 2)), abs=1e-10)


def test_entropy_of_deterministic_table_is_positive_zero():
    p = load_pmf([1.0, 0.0, 0.0, 0.0], ("A", "B"), (2, 2))
    h = entropy(p, ("A", "B"))
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_cmi_nonnegative_and_symmetric():
    rng = rng_for(103)
    for trial in range(100):
        p = random_pmf(rng)
        v = cond_mutual_info(p, "X", "Y", "Z")
        assert v >= 0.0
        assert v == cond_mutual_info(p, "Y", "X", "Z")


def test_cmi_chain_rule_tight():
    # I(X ; Y,Z) = I(X ; Z) + I(X ; Y | Z), far below any statistical noise
    rng = rng_for(104)
    for trial in range(100):
        p = random_pmf(rng)
        lhs = cond_mutual_info(p, "X", ("Y", "Z"))
        rhs = cond_mutual_info(p, "X", "Z") + cond_mutual_info(p, "X", "Y", "Z")
        assert abs(lhs - rhs) <= 1e-12


def test_cmi_clamps_tiny_negative_to_zero():
    p = load_pmf(np.full((2, 2, 2), 0.125), ("X", "Y", "Z"), (2, 2, 2))
    assert cond_mutual_info(p, "X", "Y", "Z") == 0.0


def test_source_roles_on_three_variables():
    p = load_pmf(np.full((2, 3, 2), 1 / 12), ("P", "Q", "R"), (2, 3, 2))
    assert source_roles(p) == ("P", "Q", "R")
    with pytest.raises(ShapeMismatchError):
        source_roles(load_pmf([0.5, 0.5], ("A",), (2,)))


def test_jointpmf_direct_construction_validates():
    with pytest.raises(ShapeMismatchError):
        JointPmf(variables=(), cardinalities=(), probs=np.ones(1))


def test_jointpmf_rejects_non_finite_entries():
    # only load_pmf used to check; a directly built table summed to nan
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(NonFiniteEntryError):
            JointPmf(("A", "B"), (2, 2), [0.5, bad, 0.5, 0.0])
