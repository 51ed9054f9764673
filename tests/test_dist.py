import math
from fractions import Fraction

import numpy as np
import pytest

from pkregion import (
    JointPmf, cond_mutual_info, entropy, load_pmf, source_roles,
)
from pkregion.errors import (
    DuplicateVariableError, NegativeEntryError, NonFiniteEntryError,
    ShapeMismatchError, SumOutOfToleranceError,
)

from conftest import pmf_as_dict, random_pmf, rng_for
from oracles import oracle_cmi, oracle_entropy


def test_load_pmf_accepts_flat_and_shaped_tables():
    flat = load_pmf([0.25, 0.25, 0.25, 0.25], ("A", "B"), (2, 2))
    shaped = load_pmf(np.full((2, 2), 0.25), ("A", "B"), (2, 2))
    # an object table of exact numbers converts entry by entry
    exact = load_pmf([Fraction(1, 4)] * 4, ("A", "B"), (2, 2))
    assert np.array_equal(flat.probs, shaped.probs)
    assert np.array_equal(flat.probs, exact.probs)
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
    with pytest.raises(ShapeMismatchError, match="not rectangular"):
        load_pmf([[0.5], [0.25, 0.25]], ("X", "Y"), (2, 2))
    # strings and booleans are rejected, never read as numbers, also among
    # numbers and objects
    for text in (["0.5", "0.5"], [Fraction(1, 2), "0.5"], [True, False],
                 [0.5, True], [np.True_, 0.0], [Fraction(1, 2), True],
                 np.array([True, False]), np.array([0.5, True], dtype=object)):
        with pytest.raises(NonFiniteEntryError, match="real numbers"):
            load_pmf(text, ("X",), (2,))
    with pytest.raises(NonFiniteEntryError, match="real numbers"):
        JointPmf(("X", "Y", "Z"), (1, 2, 2),
                 np.array([[[True, False], [False, False]]]))


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
    with pytest.raises(ValueError, match="not among variables") as err:
        p.axis("C")
    assert type(err.value) is ValueError
    with pytest.raises(ValueError, match="not among variables") as err:
        entropy(p, "C")
    assert type(err.value) is ValueError


def test_overlapping_groups_raise():
    p = load_pmf([0.125] * 8, ("A", "B", "C"), (2, 2, 2))
    for a, b, c in ((("A", "B"), "B", ()), ("A", "B", ("B", "C")),
                    ("A", "B", "A")):
        with pytest.raises(ValueError, match="overlap") as err:
            cond_mutual_info(p, a, b, c)
        assert type(err.value) is ValueError


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
    # table sizes whose int64 product wraps around: 4 and 0
    with pytest.raises(ShapeMismatchError):
        JointPmf(("A", "B", "C"), (2**62 + 1, 4, 1), np.full(4, 0.25))
    with pytest.raises(ShapeMismatchError, match="expected 18446744073709551616"):
        JointPmf(("A", "B", "C"), (2**32, 2**32, 1), np.full(4, 0.25))
    # a cardinality is an integer of at least 1, never truncated or parsed
    for bad in (2.7, 2.0, True, np.True_, "2", None):
        with pytest.raises(ValueError, match="is not an integer") as err:
            JointPmf(("A", "B"), (bad, 2), np.full(4, 0.25))
        assert type(err.value) is ValueError
    with pytest.raises(ValueError, match="must be >= 1") as err:
        JointPmf(("A", "B"), (0, 2), np.full(4, 0.25))
    assert type(err.value) is ValueError
    p = JointPmf(("A", "B"), (np.int64(2), 2), np.full(4, 0.25))
    assert all(type(c) is int for c in p.cardinalities)


def test_jointpmf_rejects_non_finite_entries():
    # only load_pmf used to check; a directly built table summed to nan
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(NonFiniteEntryError):
            JointPmf(("A", "B"), (2, 2), [0.5, bad, 0.5, 0.0])
