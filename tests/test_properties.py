"""Properties the maths guarantees, checked on hypothesis-drawn inputs.

The draws follow the profile registered in ``conftest.py``: derandomized,
with a fixed example count.
"""

import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pkregion import (
    ProtocolSpec, RateRegion, SlotSpec, compute_report, contains,
    evaluate_protocol, exact_region, gap_metrics, inner_region, load_pmf,
    minimal_sufficient_statistic, outer_region,
)
from pkregion import protocol
from pkregion.errors import BudgetExceededError

from conftest import pmf_as_dict
from oracles import apply_partition, oracle_cmi, oracle_evaluate

FIGURES = ("error", "leak", "unif", "rate")


@st.composite
def sources(draw, max_card=3, min_card=1):
    """A source over small alphabets, zero cells included."""
    cards = tuple(draw(st.integers(min_card, max_card)) for _ in range(3))
    weights = draw(arrays(np.int64, cards, elements=st.integers(0, 4)))
    if not weights.any():
        weights[(0, 0, 0)] = 1
    return load_pmf(weights / weights.sum(), ("X", "Y", "Z"), cards)


@st.composite
def block_sources(draw, max_components=3, max_block=2):
    """A source whose (Y, Z) support lies in diagonal blocks, so that the
    common part has up to ``max_components`` components."""
    k = draw(st.integers(1, max_components))
    comp_y = np.repeat(np.arange(k), [draw(st.integers(1, max_block))
                                      for _ in range(k)])
    comp_z = np.repeat(np.arange(k), [draw(st.integers(1, max_block))
                                      for _ in range(k)])
    cards = (draw(st.integers(1, 3)), comp_y.size, comp_z.size)
    weights = draw(arrays(np.int64, cards, elements=st.integers(0, 4)))
    weights *= comp_y[:, None] == comp_z[None, :]
    if not weights.any():
        weights[(0, 0, 0)] = 1
    return load_pmf(weights / weights.sum(), ("X", "Y", "Z"), cards)


def swap_yz(p):
    return load_pmf(p.probs.transpose(0, 2, 1), ("X", "Z", "Y"),
                    (p.cardinalities[0], p.cardinalities[2],
                     p.cardinalities[1]))


def null_slot(rows, heard):
    return SlotSpec(alphabet_size=1, table=np.zeros((rows, heard), dtype=int))


@st.composite
def protocols(draw, cards, n, speakers):
    """A protocol in which the terminals in ``speakers`` (0 = X, 1 = Y,
    2 = Z) each send a binary message in each of one or two rounds and
    every other slot is null. With no speaker the rounds may be zero and
    the transcript is constant."""
    counts = tuple(c ** n for c in cards)
    slots, heard = [], 1
    for t in range(3 * draw(st.integers(int(bool(speakers)), 2))):
        size = 2 if t % 3 in speakers else 1
        slots.append(SlotSpec(alphabet_size=size, table=draw(arrays(
            np.int64, (counts[t % 3], heard),
            elements=st.integers(0, size - 1)))))
        heard *= size
    sizes = {"key_xy_size": draw(st.integers(1, 4)),
             "key_xz_size": draw(st.integers(1, 4))}
    tables = {
        name: draw(arrays(np.int64, (counts[side], heard),
                          elements=st.integers(0, sizes[size] - 1)))
        for name, side, size in (("key_xy", 0, "key_xy_size"),
                                 ("est_xy", 1, "key_xy_size"),
                                 ("key_xz", 0, "key_xz_size"),
                                 ("est_xz", 2, "key_xz_size"))}
    return ProtocolSpec(n=n, rounds=len(slots) // 3, slots=tuple(slots),
                        **sizes, **tables)


def swap_protocol(spec, cards):
    """The protocol run with Y and Z exchanged: X's slots stay, the null
    slots take the other terminal's sequence count, the key pairs trade."""
    counts = (cards[0] ** spec.n, cards[2] ** spec.n, cards[1] ** spec.n)
    slots, heard = [], 1
    for t, slot in enumerate(spec.slots):
        slots.append(slot if t % 3 == 0 else null_slot(counts[t % 3], heard))
        heard *= slot.alphabet_size
    return ProtocolSpec(
        n=spec.n, rounds=spec.rounds, slots=tuple(slots),
        key_xy=spec.key_xz, est_xy=spec.est_xz,
        key_xz=spec.key_xy, est_xz=spec.est_xy,
        key_xy_size=spec.key_xz_size, key_xz_size=spec.key_xy_size)


def as_oracle(spec):
    return {"n": spec.n,
            "slots": [(s.alphabet_size, s.table.tolist()) for s in spec.slots],
            "key_xy_size": spec.key_xy_size, "key_xz_size": spec.key_xz_size,
            **{name: getattr(spec, name).tolist()
               for name in ("key_xy", "est_xy", "key_xz", "est_xz")}}


def blocklength(draw, p, max_cells=4096):
    """n ≤ 3, kept to at most ``max_cells`` joint sequence triples."""
    cells = int(np.prod(p.cardinalities))
    return draw(st.integers(1, max(n for n in (1, 2, 3)
                                   if n == 1 or cells ** n <= max_cells)))


def assert_matches_oracle(p, spec):
    report = evaluate_protocol(p, spec)
    want = oracle_evaluate(pmf_as_dict(p), p.cardinalities, as_oracle(spec))
    for field, expected in want.items():
        assert getattr(report, field) == pytest.approx(expected, abs=1e-12), \
            field


@given(st.data())
def test_constant_transcript_matches_oracle(data):
    p = data.draw(sources())
    n = blocklength(data.draw, p)
    spec = data.draw(protocols(p.cardinalities, n, speakers=set()))
    assert spec.transcript_space() == 1
    assert_matches_oracle(p, spec)


@given(st.data())
def test_any_speaking_terminals_match_oracle(data):
    """Each figure sums over the terminals its codes read plus the
    speakers: every subset of speakers, from one to all three."""
    p = data.draw(sources())
    n = blocklength(data.draw, p)
    speakers = data.draw(st.sets(st.integers(0, 2), min_size=1))
    spec = data.draw(protocols(p.cardinalities, n, speakers))
    assert spec.transcript_space() > 1
    assert_matches_oracle(p, spec)


@pytest.mark.parametrize("x_speaks", (False, True))
@given(data=st.data())
def test_yz_swap_mirrors_evaluation(x_speaks, data):
    p = data.draw(sources())
    n = blocklength(data.draw, p)
    spec = data.draw(protocols(p.cardinalities, n, {0} if x_speaks else set()))
    assert (spec.transcript_space() > 1) == x_speaks
    report = evaluate_protocol(p, spec)
    mirrored = evaluate_protocol(swap_yz(p),
                                 swap_protocol(spec, p.cardinalities))
    for figure in FIGURES:
        for pair, other in (("xy", "xz"), ("xz", "xy")):
            assert getattr(mirrored, f"{figure}_{pair}") == pytest.approx(
                getattr(report, f"{figure}_{other}"), abs=1e-12), \
                (figure, pair)


@pytest.mark.parametrize("speakers", [set(c) for k in range(4)
                                      for c in combinations(range(3), k)])
@settings(max_examples=25)
@given(data=st.data())
def test_built_tables_are_the_ones_the_budget_counts(speakers, data):
    """The sequence tables built sum to exactly the cells the budget rule
    charges: for each pair of terminals, one table over the pair plus the
    speakers, each distinct table once. Alphabets have at least two
    symbols: with a one-symbol alphabet two such tables can share a shape,
    which is built once but charged twice."""
    p = data.draw(sources(min_card=2))
    n = blocklength(data.draw, p)
    spec = data.draw(protocols(p.cardinalities, n, speakers))
    counts = [card ** n for card in p.cardinalities]
    charged = sum(math.prod(counts[axis] for axis in axes)
                  for axes in {tuple(sorted({*pair, *speakers}))
                               for pair in ((0, 1), (0, 2), (1, 2))})
    built = []
    kron_power = protocol._kron_power

    def recording(base, n):
        table = kron_power(base, n)
        built.append(table.size)
        return table

    with mock.patch.object(protocol, "_kron_power", recording):
        evaluate_protocol(p, spec)
    assert sum(built) == charged
    with pytest.raises(BudgetExceededError, match="sequence cells"):
        evaluate_protocol(p, spec, budget=charged - 1)


@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=3),
              elements=st.floats(0.0, 1.0)),
       st.integers(1, 4))
def test_kron_power_equals_folded_kron(base, n):
    want = base
    for _ in range(n - 1):
        want = np.kron(want, base)
    got = protocol._kron_power(base, n)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def assert_regions_match(region, other, mirrored=False, tol=1e-9):
    """Same provenance, caps and vertex set within ``tol``; with
    ``mirrored``, ``other`` is ``region`` reflected in r_xy = r_xz."""
    assert region.provenance == other.provenance
    if region.is_cap_form():
        cap_xy, cap_xz = region.cap_xy, region.cap_xz
        if mirrored:
            cap_xy, cap_xz = cap_xz, cap_xy
        assert other.cap_xy == pytest.approx(cap_xy, abs=tol)
        assert other.cap_xz == pytest.approx(cap_xz, abs=tol)
        assert other.cap_sum == pytest.approx(region.cap_sum, abs=tol)
    # every vertex of each lies within tol of a vertex of the other
    ours = np.array(region.vertices)
    theirs = np.array(other.vertices)
    if mirrored:
        theirs = theirs[:, ::-1]
    gaps = np.abs(ours[:, None, :] - theirs[None, :, :]).max(axis=2)
    assert gaps.min(axis=1).max() <= tol and gaps.min(axis=0).max() <= tol


@given(sources(max_card=4))
def test_yz_swap_mirrors_regions(p):
    swapped = swap_yz(p)
    assert_regions_match(outer_region(p), outer_region(swapped),
                         mirrored=True)
    assert_regions_match(inner_region(p), inner_region(swapped),
                         mirrored=True)
    exact, exact_swapped = exact_region(p), exact_region(swapped)
    assert (exact is None) == (exact_swapped is None)
    if exact is not None:
        assert_regions_match(exact, exact_swapped, mirrored=True)


@given(st.one_of(sources(max_card=4), block_sources()))
def test_inner_terms_match_oracle(p):
    """I(X∧U), I(X∧V) and both inner cap triples, from the pushforward
    tables, against the oracle on the source with U (V) appended."""
    report = compute_report(p)
    (i_x_u, caps1), (i_x_v, caps2) = report.mss_y, report.mss_z
    assert report.quantities["i_x_mss_y"] == i_x_u
    assert report.quantities["i_x_mss_z"] == i_x_v
    dist = pmf_as_dict(p)
    a = oracle_cmi(dist, (0,), (1,), (2,))
    b = oracle_cmi(dist, (0,), (2,), (1,))
    i_x_yz = oracle_cmi(dist, (0,), (1, 2))
    u = minimal_sufficient_statistic(p, of="Y", wrt="Z")
    v = minimal_sufficient_statistic(p, of="Z", wrt="Y")
    with_u = apply_partition(dist, 1, u.classes())
    with_v = apply_partition(dist, 2, v.classes())
    want_u = oracle_cmi(with_u, (0,), (3,))
    want_v = oracle_cmi(with_v, (0,), (3,))
    want1 = (oracle_cmi(with_u, (0,), (1,), (2, 3)), b, i_x_yz - want_u)
    want2 = (a, oracle_cmi(with_v, (0,), (2,), (1, 3)), i_x_yz - want_v)
    assert (i_x_u, i_x_v) == pytest.approx((want_u, want_v), abs=1e-12)
    assert caps1 == pytest.approx(want1, abs=1e-12)
    assert caps2 == pytest.approx(want2, abs=1e-12)


def assert_same_report(got, want, tol=1e-9):
    """Every figure of two region reports agrees within ``tol``; counts and
    verdicts agree exactly."""
    assert got.components == want.components
    assert got.thm4_holds == want.thm4_holds
    assert got.ci_residual == pytest.approx(want.ci_residual, abs=tol)
    assert got.quantities.keys() == want.quantities.keys()
    for name, value in want.quantities.items():
        assert got.quantities[name] == pytest.approx(value, abs=tol), name
    for name in ("outer", "inner", "exact"):
        region, other = getattr(want, name), getattr(got, name)
        assert (region is None) == (other is None), name
        if region is not None:
            assert_regions_match(region, other, tol=tol)
    assert got.area_gap == pytest.approx(want.area_gap, abs=tol)
    assert got.hausdorff_gap == pytest.approx(want.hausdorff_gap, abs=tol)


@given(st.data())
def test_symbol_permutations_leave_the_report_unchanged(data):
    p = data.draw(sources(max_card=4))
    perms = [data.draw(st.permutations(range(c))) for c in p.cardinalities]
    probs = p.probs[np.ix_(*perms)]
    permuted = load_pmf(probs, p.variables, p.cardinalities)
    assert_same_report(compute_report(permuted), compute_report(p))


@given(st.data())
def test_zero_mass_padding_leaves_the_report_unchanged(data):
    p = data.draw(sources())
    axis = data.draw(st.integers(0, 2))
    at = data.draw(st.integers(0, p.cardinalities[axis]))
    probs = np.insert(p.probs, at, 0.0, axis=axis)
    padded = load_pmf(probs, p.variables, probs.shape)
    assert_same_report(compute_report(padded), compute_report(p))


@given(sources(max_card=4))
def test_inner_region_within_outer_region(p):
    outer = outer_region(p)
    for vertex in inner_region(p).vertices:
        assert contains(outer, vertex, tol=1e-9)


def _edges(verts):
    if len(verts) < 3:
        return [(verts[0], verts[-1])]
    return list(zip(verts, verts[1:] + verts[:1]))


def _boundary_samples(verts, per_edge=1000):
    t = np.linspace(0.0, 1.0, per_edge)[:, None]
    return np.vstack([(1.0 - t) * np.array(p0) + t * np.array(p1)
                      for p0, p1 in _edges(verts)])


def _distance_to_boundary(points, verts):
    best = np.full(len(points), np.inf)
    for p0, p1 in _edges(verts):
        p0 = np.array(p0)
        d = np.array(p1) - p0
        t = np.clip((points - p0) @ d / max(float(d @ d), 1e-300), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(points - (p0 + t[:, None] * d),
                                               axis=1))
    return best


def sampled_hausdorff(a, b):
    """Reference: Hausdorff distance between the two boundaries, measured
    from 1000 samples per edge (vertices included) to the other boundary."""
    return max(
        _distance_to_boundary(_boundary_samples(a.vertices), b.vertices).max(),
        _distance_to_boundary(_boundary_samples(b.vertices), a.vertices).max())


@st.composite
def nested_cap_regions(draw):
    """An outer cap-form region and one inside it (every cap no larger)."""
    outer = [draw(st.floats(0.0, 2.0)) for _ in range(3)]
    inner = [draw(st.floats(0.0, cap)) for cap in outer]
    return (RateRegion.from_caps(*inner, provenance="inner-hull"),
            RateRegion.from_caps(*outer, provenance="outer"))


@given(nested_cap_regions())
def test_hausdorff_gap_matches_dense_boundary_sampling(pair):
    inner, outer = pair
    _, hausdorff = gap_metrics(inner, outer)
    assert hausdorff == pytest.approx(sampled_hausdorff(inner, outer),
                                      abs=1e-12)
