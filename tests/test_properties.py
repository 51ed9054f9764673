"""Properties the maths guarantees, checked on hypothesis-drawn inputs.

The draws follow the profile registered in ``conftest.py``: derandomized,
with a fixed example count.
"""

import decimal
import json
import math
import sys
import time
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pkregion import (
    NUM_TOL, ProtocolSpec, RateRegion, SlotSpec, compute_report,
    cond_mutual_info, contains, evaluate_protocol, exact_region, gap_metrics,
    inner_region, load_pmf, minimal_sufficient_statistic, outer_region,
)
from pkregion import protocol
from pkregion.errors import (
    BudgetExceededError, InputFormatError, MalformedTableError,
    NonFiniteEntryError, PkRegionError,
)
from pkregion import ioformats
from pkregion.ioformats import (
    LARGE_TABLE_CHARS, dumps_deterministic, protocol_document, read_pmf,
    read_protocol,
)
from pkregion.regions import _point_segment_distance

import variants
from conftest import pmf_as_dict
from oracles import (
    apply_partition, distance_to_caps, oracle_cmi, oracle_evaluate,
)
from variants import (
    KEY_TABLES, LONG_VARIANTS, PMF_VARIANTS, PROTOCOL_VARIANTS, list_span,
    middle, pmf_variant, protocol_variant, refused_files, table_span,
    variant_files,
)

FIGURES = ("error", "leak", "unif", "rate")


@st.composite
def sources(draw, max_card=3):
    """A source over small alphabets, zero cells included."""
    cards = tuple(draw(st.integers(1, max_card)) for _ in range(3))
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
def protocols(draw, cards, n, speakers, sends=None):
    """A protocol in which the terminals in ``speakers`` (0 = X, 1 = Y,
    2 = Z) each send a binary message in each of one or two rounds and
    every other slot is null. With no speaker the rounds may be zero and
    the transcript is constant.

    With ``sends``, each speaking slot has two or three symbols and its
    table sends at most ``sends`` of them, never all, so the transcript
    indices that occur have gaps; ``sends=1`` makes one transcript occur
    out of several."""
    counts = tuple(c ** n for c in cards)
    slots, heard = [], 1
    for t in range(3 * draw(st.integers(int(bool(speakers)), 2))):
        size = 2 if t % 3 in speakers else 1
        elements = st.integers(0, size - 1)
        if sends and size > 1:
            size = draw(st.integers(2, 3))
            elements = st.sampled_from(draw(st.lists(
                st.integers(0, size - 1), min_size=1,
                max_size=min(sends, size - 1), unique=True)))
        slots.append(SlotSpec(alphabet_size=size, table=draw(arrays(
            np.int64, (counts[t % 3], heard), elements=elements))))
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


def transcripts(spec):
    return math.prod(slot.alphabet_size for slot in spec.slots)


def occurring_transcripts(spec, cards):
    """How many transcripts the sequence triples produce, by running the
    slots on every triple of sequence indices, of any probability, since
    the evaluator's sweep runs over all of them."""
    found = set()
    for seqs in product(*(range(card ** spec.n) for card in cards)):
        transcript = 0
        for t, slot in enumerate(spec.slots):
            transcript = (transcript * slot.alphabet_size
                          + int(slot.table[seqs[t % 3], transcript]))
        found.add(transcript)
    return len(found)


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
    assert transcripts(spec) == 1
    assert_matches_oracle(p, spec)


@given(st.data())
def test_any_speaking_terminals_match_oracle(data):
    """Each figure sums over the terminals its codes read plus the
    speakers: every subset of speakers, from one to all three."""
    p = data.draw(sources())
    n = blocklength(data.draw, p)
    speakers = data.draw(st.sets(st.integers(0, 2), min_size=1))
    spec = data.draw(protocols(p.cardinalities, n, speakers))
    assert transcripts(spec) > 1
    assert_matches_oracle(p, spec)


@pytest.mark.parametrize("sends", (1, 2))
@pytest.mark.parametrize("speakers", [set(c) for k in range(1, 4)
                                      for c in combinations(range(3), k)])
@settings(max_examples=15)
@given(data=st.data())
def test_sparse_transcripts_match_oracle(speakers, sends, data):
    """The secrecy tables run over the transcripts that occur, renumbered
    in index order. Slot tables that send only part of their alphabet leave
    gaps among those indices; with one symbol sent per slot, exactly one
    transcript occurs out of several."""
    p = data.draw(sources())
    n = blocklength(data.draw, p)
    spec = data.draw(protocols(p.cardinalities, n, speakers, sends))
    assert transcripts(spec) > 1
    for slot in spec.slots:
        if slot.alphabet_size > 1:
            assert len(np.unique(slot.table)) <= min(sends,
                                                     slot.alphabet_size - 1)
    assert_matches_oracle(p, spec)


@pytest.mark.parametrize("x_speaks", (False, True))
@given(data=st.data())
def test_yz_swap_mirrors_evaluation(x_speaks, data):
    p = data.draw(sources())
    n = blocklength(data.draw, p)
    spec = data.draw(protocols(p.cardinalities, n, {0} if x_speaks else set()))
    assert (transcripts(spec) > 1) == x_speaks
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
    """Every table is charged at the size it is built. The sequence tables
    built sum to the sequence charge: for each pair of terminals, one table
    over the pair plus the speakers, each distinct shape once (a one-symbol
    alphabet can give two pairs the same shape). Each secrecy table holds
    key × occurring transcripts × helper cells. A run is admitted at the
    largest of these charges, and refused one cell below the sequence charge
    and one cell below a larger secrecy charge."""
    p = data.draw(sources())
    n = blocklength(data.draw, p)
    spec = data.draw(protocols(p.cardinalities, n, speakers))
    counts = [card ** n for card in p.cardinalities]
    charged = sum(map(math.prod, {
        tuple(count if axis in {*pair, *speakers} else 1
              for axis, count in enumerate(counts))
        for pair in ((0, 1), (0, 2), (1, 2))}))
    occurring = occurring_transcripts(spec, p.cardinalities)
    secrecy = (spec.key_xy_size * occurring * counts[2],
               spec.key_xz_size * occurring * counts[1])
    built, built_secrecy = [], []
    kron_power, entropy_of = protocol._kron_power, protocol._entropy_of

    def recording(base, n):
        table = kron_power(base, n)
        built.append(table.size)
        return table

    def recording_entropy(table):
        # only a secrecy table is 2-D; its margins are 1-D
        if table.ndim == 2:
            built_secrecy.append(table.size)
        return entropy_of(table)

    with mock.patch.object(protocol, "_kron_power", recording), \
            mock.patch.object(protocol, "_entropy_of", recording_entropy):
        evaluate_protocol(p, spec)
    assert sum(built) == charged
    # each key and each estimate has its table: two per pair
    assert sorted(built_secrecy) == sorted(2 * secrecy)
    bound = max(charged, *secrecy)
    evaluate_protocol(p, spec, budget=bound)
    # when one table holds all the cells along one axis, one cell less is
    # below that terminal's sequence count, which is checked first
    with pytest.raises(BudgetExceededError, match="sequence cells"
                       if charged > max(counts) else "sequences, over"):
        evaluate_protocol(p, spec, budget=charged - 1)
    if bound > charged:
        with pytest.raises(BudgetExceededError, match="key/transcript/"):
            evaluate_protocol(p, spec, budget=bound - 1)


def fano_bits(error, key_size):
    """Fano's bound on H(K|L) in bits for a key alphabet of ``key_size``:
    h₂(error) + error·log₂(key_size − 1)."""
    if error <= 0.0:
        return 0.0
    binary = sum(-q * math.log2(q) for q in (error, 1.0 - error) if q > 0.0)
    return binary + error * math.log2(key_size - 1)


def helper_copies_key(p, spec, helper, f):
    """The source with helper ``helper`` (1 = Y, 2 = Z) replaced by f(X),
    and the protocol with that helper's key pair replaced by the helper's
    own sequence: X computes it as f applied symbol by symbol, so the pair
    agrees with no error. With no speaker the converse is then tight:
    H(f(X)) = I(X∧f(X)|other helper) + I(f(X)∧other helper)."""
    cards = p.cardinalities
    probs = np.zeros(cards)
    joint = p.probs.sum(axis=helper)
    for x, row in enumerate(joint):
        if helper == 1:
            probs[x, f[x], :] = row
        else:
            probs[x, :, f[x]] = row
    source = load_pmf(probs, p.variables, cards)
    n, heard, count = spec.n, transcripts(spec), cards[helper] ** spec.n
    digits = np.unravel_index(np.arange(cards[0] ** spec.n), (cards[0],) * n)
    copied = np.ravel_multi_index(tuple(np.array(f)[d] for d in digits),
                                  (cards[helper],) * n)
    pair = "xy" if helper == 1 else "xz"
    spec = replace(spec, **{
        f"key_{pair}": np.repeat(copied[:, None], heard, axis=1),
        f"est_{pair}": np.repeat(np.arange(count)[:, None], heard, axis=1),
        f"key_{pair}_size": count})
    return source, spec


def draw_run(data, speakers, source=sources()):
    """A drawn source and protocol with the given speakers, and its exact
    evaluation. Random key tables rarely come near the converses, so some
    draws make one helper a function of X that a key pair copies."""
    p = data.draw(source)
    n = blocklength(data.draw, p)
    spec = data.draw(protocols(p.cardinalities, n, speakers))
    helper = data.draw(st.sampled_from((None, 1, 2)))
    if helper is not None:
        f = data.draw(st.lists(st.integers(0, p.cardinalities[helper] - 1),
                               min_size=p.cardinalities[0],
                               max_size=p.cardinalities[0]))
        p, spec = helper_copies_key(p, spec, helper, f)
    return p, spec, evaluate_protocol(p, spec)


@pytest.mark.parametrize("speakers", [set(c) for k in range(4)
                                      for c in combinations(range(3), k)])
@settings(max_examples=25)
@given(data=st.data())
def test_key_rates_obey_the_finite_blocklength_converse(speakers, data):
    """rate ≤ cap + leak + (h₂(error) + error·log₂(|K| − 1))/n for each
    key pair, with the outer region's axis cap. For K = K_XY, L = L_XY and
    transcript F: H(K) = I(K∧F,Zⁿ) + H(K|F,Zⁿ), the first term is at most
    n·leak, and H(K|F,Zⁿ) ≤ I(Xⁿ∧Yⁿ|F,Zⁿ) + H(K|L) ≤ n·I(X∧Y|Z) + Fano,
    since no public message raises I(Xⁿ∧Yⁿ|Zⁿ, transcript); XZ mirrors it."""
    p, spec, report = draw_run(data, speakers)
    outer = outer_region(p)
    for pair, cap, key_size in (("xy", outer.cap_xy, spec.key_xy_size),
                                ("xz", outer.cap_xz, spec.key_xz_size)):
        error = getattr(report, f"error_{pair}")
        bound = (cap + getattr(report, f"leak_{pair}")
                 + fano_bits(error, key_size) / spec.n)
        assert getattr(report, f"rate_{pair}") <= bound + 1e-12, pair


@pytest.mark.parametrize("speakers", [set(c) for k in range(4)
                                      for c in combinations(range(3), k)])
@settings(max_examples=25)
@given(data=st.data())
def test_key_rates_obey_the_sum_rate_converse(speakers, data):
    """rate_xy + rate_xz ≤ cap_sum + leak_xy + leak_xz + min(leak_xy,
    leak_xz) + 2·(F₁ + F₂)/n, with the outer region's sum cap.

    Write K₁ = K_XY, L₁ = L_XY, K₂ = K_XZ, L₂ = L_XZ, F for the transcript,
    Cⁿ for the common-function labels (a function of Yⁿ and of Zⁿ), and Fᵢ
    for the Fano term of pair i.

    1. H(K₁K₂) = I(K₁K₂∧CⁿF) + H(K₁K₂|CⁿF).
    2. I(K₁∧CⁿF) ≤ I(K₁∧ZⁿF) ≤ n·leak_xy. Also
       I(K₂∧CⁿFK₁) ≤ I(K₂∧YⁿF) + H(K₁|YⁿF) ≤ n·leak_xz + F₁.
    3. H(K₁K₂|CⁿF) ≤ I(Xⁿ∧YⁿZⁿ|CⁿF) + F₁ + F₂. No public message raises
       I(Xⁿ∧YⁿZⁿ|Cⁿ, transcript), so this is at most n·I(X∧YZ|C) + F₁ + F₂.
       Because C is a function of (Y, Z), I(X∧YZ|C) = I(X∧YZ) − I(X∧C) =
       cap_sum.
    4. I(K₁∧K₂) ≤ I(K₁∧L₂) + H(K₂|L₂) ≤ n·leak_xy + F₂, and by symmetry it
       is also at most n·leak_xz + F₁.

    H(K₁) + H(K₂) = H(K₁K₂) + I(K₁∧K₂) then gives the bound; 2·(F₁ + F₂)
    is looser than the sum of the Fano terms above needs.
    """
    source = st.one_of(sources(), block_sources())
    p, spec, report = draw_run(data, speakers, source)
    fano = (fano_bits(report.error_xy, spec.key_xy_size)
            + fano_bits(report.error_xz, spec.key_xz_size))
    leaks = report.leak_xy + report.leak_xz \
        + min(report.leak_xy, report.leak_xz)
    bound = outer_region(p).cap_sum + leaks + 2 * fano / spec.n
    assert report.rate_xy + report.rate_xz <= bound + 1e-12


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
    if region.cap_xy is not None:
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


@given(sources())
def test_inner_region_reaches_the_single_key_capacities(p):
    """(I(X∧Y|Z), 0) and (0, I(X∧Z|Y)), the private-key capacities of one
    pair with the other terminal as helper (Csiszár–Narayan 2000), lie in
    the inner region up to NUM_TOL, the band in which its hull drops a
    corner."""
    dist = pmf_as_dict(p)
    inner = inner_region(p)
    for point in ((oracle_cmi(dist, (0,), (1,), (2,)), 0.0),
                  (0.0, oracle_cmi(dist, (0,), (2,), (1,)))):
        assert contains(inner, point, tol=NUM_TOL), point


@st.composite
def helper_function_sources(draw, max_card=4):
    """A source whose Z is a function of Y, with real weights on the
    (X, Y) cells, so that entropies carry rounding."""
    cards = draw(st.integers(1, max_card)), draw(st.integers(1, max_card))
    z_of_y = draw(st.lists(st.integers(0, max_card - 1), min_size=cards[1],
                           max_size=cards[1]))
    weights = draw(arrays(np.float64, cards, elements=st.floats(0.0, 1.0)))
    if not weights.any():
        weights[0, 0] = 1.0
    table = np.zeros(cards + (max(z_of_y) + 1,))
    for y, z in enumerate(z_of_y):
        table[:, y, z] = weights[:, y] / weights.sum()
    return load_pmf(table, ("X", "Y", "Z"), table.shape)


@given(helper_function_sources())
def test_figures_that_are_zero_in_the_maths_read_zero(p):
    """With Z a function of Y, I(X∧Z|Y) and so the outer XZ cap are 0,
    and so are the XZ cap of each inner region. Each reads exactly 0.0,
    not a rounding residue within NUM_TOL of it."""
    report = compute_report(p)
    assert cond_mutual_info(p, "X", "Z", "Y") == 0.0
    assert report.quantities["i_x_z_given_y"] == 0.0
    assert report.outer.cap_xz == 0.0
    assert report.mss_y[1][1] == report.mss_z[1][1] == 0.0


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
    inner_caps = RateRegion.from_caps(*inner, provenance="outer")
    return (RateRegion.from_hull(inner_caps.vertices),
            RateRegion.from_caps(*outer, provenance="outer"))


@given(nested_cap_regions())
def test_hausdorff_gap_matches_dense_boundary_sampling(pair):
    inner, outer = pair
    _, hausdorff = gap_metrics(inner, outer)
    assert hausdorff == pytest.approx(sampled_hausdorff(inner, outer),
                                      abs=1e-12)


# -- region geometry against the cap oracle --------------------------------------

# the hull drops a cap corner within NUM_TOL of its neighbours' edge, and
# the oracle and contains() round along different paths: a probe whose
# distance lies within this band of tol may fall either way
ROUNDING_BAND = 1e-12


@st.composite
def cap_triples(draw):
    """Caps (a, b, s), with zeros (point and segment regions) and with s
    within 1e-15 relative of a, of b or of a + b."""
    cap = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    a, b = draw(cap), draw(cap)
    tie = draw(st.sampled_from((None, a, b, a + b)))
    if tie is None:
        return a, b, draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
    return a, b, tie * (1.0 + draw(st.floats(-1e-15, 1e-15)))


@st.composite
def probes(draw, a, b, s):
    """A point uniform in a box around the caps, or one about ``tol`` away
    from a point of a constraint line, with ``tol`` in {0, 1e-9, 1e-3}."""
    tol = draw(st.sampled_from((0.0, 1e-9, 1e-3)))
    if draw(st.booleans()):
        return (draw(st.floats(-0.5, max(a, s) + 0.5)),
                draw(st.floats(-0.5, max(b, s) + 0.5))), tol
    u = draw(st.one_of(st.sampled_from((0.0, a, b, s, s - a, s - b)),
                       st.floats(-0.5, max(a, b, s) + 0.5)))
    base = draw(st.sampled_from(((0.0, u), (u, 0.0), (a, u), (u, b),
                                 (u, s - u))))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    reach = tol * draw(st.floats(0.0, 2.0))
    return (base[0] + reach * math.cos(angle),
            base[1] + reach * math.sin(angle)), tol


@settings(max_examples=500)
@given(cap_triples(), st.data())
def test_contains_agrees_with_the_cap_distance_oracle(caps, data):
    """``contains`` is the Euclidean distance to the region against ``tol``,
    for a cap-form region and for the hull of its vertices."""
    point, tol = data.draw(probes(*caps))
    distance = distance_to_caps(point, *caps)
    if abs(distance - tol) <= ROUNDING_BAND:
        return
    region = RateRegion.from_caps(*caps, provenance="outer")
    for tested in (region, RateRegion.from_hull(region.vertices)):
        assert contains(tested, point, tol) == (distance <= tol), \
            (tested.vertices, distance)


@example((1.0 + 9e-13, 0.5, 1.0))
@example((0.5, 1.0 + 9e-13, 1.0))
@given(cap_triples())
def test_cap_vertices_stay_within_the_caps(caps):
    """No vertex passes min(a, s) on the r_xy axis or min(b, s) on the r_xz
    axis: every vertex is a corner as enumerated, bit for bit."""
    a, b, s = caps
    for r1, r2 in RateRegion.from_caps(a, b, s, provenance="outer").vertices:
        assert r1 <= min(a, s) and r2 <= min(b, s)


POINT_LISTS = st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
                       min_size=1, max_size=6)


@given(POINT_LISTS)
def test_every_constructor_stores_the_hull(points):
    """Clockwise or duplicated points given to the constructor make the
    region that ``from_hull`` makes of them in hull form; cap form takes
    its vertices from its caps only and refuses given points."""
    want = RateRegion.from_hull(points).vertices
    for given_points in (points[::-1], points + points):
        assert RateRegion(None, None, None, given_points,
                          "inner-hull").vertices == want
        for provenance in ("outer", "exact-thm4"):
            with pytest.raises(ValueError, match="no vertices"):
                RateRegion(1.0, 1.0, 1.0, given_points, provenance)


def exact_cross(o, a, b):
    """(a - o) x (b - o) in rational arithmetic: positive when the path
    o, a, b turns left at a."""
    (ox, oy), (ax, ay), (bx, by) = (map(Fraction, v) for v in (o, a, b))
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


@given(POINT_LISTS)
def test_hull_keeps_given_points_and_drops_only_within_num_tol(points):
    """The hull rule on drawn points. Every vertex is a given point, bit for
    bit, and every given point lies within NUM_TOL of the region, up to the
    rounding of a distance between coordinates of at most 2. The
    vertices start at the smallest point, (0, 0) for every region that has
    it, rise in lexicographic order to the largest and fall back, and turn
    left at every vertex but those two, the ends of the chains. Each other
    vertex is needed: some given point lies outside the edge between its
    neighbours, further than NUM_TOL from it."""
    region = RateRegion.from_hull(points)
    given_points = {(x + 0.0, y + 0.0) for x, y in points}
    verts, n = region.vertices, len(region.vertices)
    assert set(verts) <= given_points
    assert all(contains(region, point, tol=NUM_TOL + 1e-15)
               for point in given_points)
    top = verts.index(max(given_points))
    assert verts[0] == min(given_points)
    assert list(verts[:top + 1]) == sorted(verts[:top + 1])
    assert list(verts[top:]) == sorted(verts[top:], reverse=True)
    for i in set(range(1, n)) - {top}:
        prev, after = verts[i - 1], verts[(i + 1) % n]
        assert exact_cross(prev, verts[i], after) > 0
        assert any(exact_cross(prev, point, after) > 0
                   and _point_segment_distance(point, prev, after) > NUM_TOL
                   for point in given_points)


def test_a_clockwise_triangle_is_the_cap_triangle():
    region = RateRegion(None, None, None, [(0, 0), (0, 1), (1, 0)],
                        "inner-hull")
    assert contains(region, (0.2, 0.2))
    assert gap_metrics(region, RateRegion.from_caps(1, 1, 1, "outer")) \
        == (0.0, 0.0)


# -- reading protocol files ------------------------------------------------------

# The layouts and variants are defined in variants.py, which
# tools/compare.py runs too, tree against tree.
LAYOUTS = {**variants.LAYOUTS, "deterministic": dumps_deterministic}
# The tests put their own key tables in, which the key sizes admit; one
# round of slots, so that the slot variants find a slot to change.
PROTOCOL_BASE = protocol_document(ProtocolSpec(
    n=1, rounds=1, slots=(SlotSpec(2, [[0], [1]]),
                          *[SlotSpec(1, [[0, 0]])] * 2),
    key_xy=[[0]], est_xy=[[1]], key_xz=[[2]], est_xz=[[3]],
    key_xy_size=2 ** 64, key_xz_size=2 ** 64))


def oracle_read_protocol(path):
    """The reference reader: plain ``json.loads``, then the constructors on
    the decoded lists."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InputFormatError(f"cannot parse {path} as JSON: {exc}") from exc
    try:
        return ProtocolSpec(
            n=doc["n"], rounds=doc["rounds"],
            slots=tuple(SlotSpec(s["alphabet_size"], s["table"])
                        for s in doc["slots"]),
            key_xy_size=doc["key_xy_size"], key_xz_size=doc["key_xz_size"],
            **{key: doc[key] for key in KEY_TABLES})
    except MalformedTableError as exc:
        raise MalformedTableError(f"{path}: {exc.message}") from exc
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def read_outcome(read, path):
    """The tables read, or the class and message of the error raised."""
    try:
        spec = read(path)
    except PkRegionError as exc:
        return type(exc), str(exc)
    return [(spec.n, spec.rounds, spec.key_xy_size, spec.key_xz_size)] + [
        (table.dtype, table.shape, table.tolist())
        for table in [getattr(spec, key) for key in KEY_TABLES]
        + [slot.table for slot in spec.slots]]


@pytest.mark.parametrize("mutation", [None, *PROTOCOL_VARIANTS])
@settings(max_examples=6)
@given(rows=st.integers(1, 1100), seed=st.integers(0, 2 ** 32 - 1),
       target=st.sampled_from(KEY_TABLES),
       specials=st.lists(st.sampled_from(
           (0, 2 ** 63 - 1, 2 ** 63, 2 ** 64)), max_size=3))
def test_protocol_reader_agrees_with_json(tmp_path_factory, mutation, rows,
                                          seed, target, specials):
    """Large integer tables go to numpy's parser, the rest to json; in every
    layout and under every mutation, the result is json's: equal tables,
    or the same error class and message."""
    rng = np.random.default_rng(seed)
    shape = (rows, -(-1100 // rows))  # at least 2 characters a cell
    # the target and the table after it are large, the other two small
    later = KEY_TABLES[(KEY_TABLES.index(target) + 1) % 4]
    tables = {key: rng.integers(0, 1000, shape).tolist()
              for key in (target, later)}
    for value in specials:
        tables[target][rng.integers(shape[0])][rng.integers(shape[1])] = value
    doc = {**PROTOCOL_BASE, **tables}
    path = tmp_path_factory.mktemp("protocols") / "protocol.json"
    for layout in LAYOUTS.values():
        text = layout(doc)
        start, end = table_span(text, target)
        assert end - start >= LARGE_TABLE_CHARS
        if mutation:
            text = protocol_variant(text, target, mutation, rng.integers)
        path.write_text(text, encoding="utf-8")
        assert read_outcome(read_protocol, path) \
            == read_outcome(oracle_read_protocol, path), layout


# -- reading pmf files -----------------------------------------------------------

PMF_LAYOUTS = {**variants.PMF_LAYOUTS, "deterministic": dumps_deterministic}


def pmf_outcome(read, path):
    """The probabilities read, bit for bit, or the class and message of the
    error raised."""
    try:
        p = read(path)
    except PkRegionError as exc:
        return type(exc), str(exc)
    return p.variables, p.cardinalities, p.probs.dtype, p.probs.tobytes()


def read_float_list(span, read=ioformats._read_float_list):
    """The list reader on a span (data, start, end)."""
    return read(*span)


def whole(text):
    """The span (data, start, end) of all of ``text``'s bytes, as the scan
    hands a list to the reader."""
    data = text.encode()
    return data, 0, len(data)


def oracle_read_pmf(path):
    """The reference reader: ``read_pmf`` with every list left to json."""
    with mock.patch.object(ioformats, "LARGE_TABLE_CHARS", math.inf):
        return read_pmf(path)


@pytest.mark.parametrize("mutation", [None, *PMF_VARIANTS])
@settings(max_examples=4)
@given(cells=st.integers(100, 6000), seed=st.integers(0, 2 ** 32 - 1),
       specials=st.lists(st.sampled_from(
           (0, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300)),
           max_size=3))
def test_pmf_reader_agrees_with_json(tmp_path_factory, mutation, cells, seed,
                                     specials):
    """Large flat number lists go to orjson, the rest to json; in every
    layout and under every mutation, the result is json's: the same
    probabilities bit for bit, or the same error class and message."""
    rng = np.random.default_rng(seed)
    probs = rng.random(cells)
    probs /= probs.sum()
    pmf = probs.tolist()
    for value in specials:
        pmf[rng.integers(cells)] = value
    doc = {"schema": "pkregion-pmf-v1", "variables": ["X", "Y", "Z"],
           "cardinalities": [cells, 1, 1], "pmf": pmf}
    path = tmp_path_factory.mktemp("pmfs") / "pmf.json"
    lists_read = []

    def read_list(*span):
        lists_read.append(read_float_list(span))
        return lists_read[-1]

    for layout in PMF_LAYOUTS.values():
        text = layout(doc)
        start, end = list_span(text)
        assert end - start >= LARGE_TABLE_CHARS
        if mutation:
            text = pmf_variant(text, mutation, rng.integers)
        path.write_text(text, encoding="utf-8")
        lists_read.clear()
        with mock.patch.object(ioformats, "_read_float_list", read_list):
            outcome = pmf_outcome(read_pmf, path)
        assert outcome == pmf_outcome(oracle_read_pmf, path), layout
        if mutation is None:  # the list reader, not json, read the pmf
            assert [table is None for table in lists_read] == [False]


FLOAT_FORMATS = (repr, "%.17e".__mod__, "%.25e".__mod__, "%.40g".__mod__)


@st.composite
def formatted_doubles(draw):
    """A double, subnormals, both zeros and the largest included, in one of
    the ways a writer may spell it."""
    value = draw(st.floats(allow_nan=False, allow_infinity=False))
    return draw(st.sampled_from(FLOAT_FORMATS))(value)


@st.composite
def near_halfway(draw):
    """20 to 40 significant digits at, or a last-digit step off, the exact
    midpoint of two neighbouring doubles, where a parser that rounds
    carelessly picks the wrong neighbour."""
    low = draw(st.floats(0.0, math.nextafter(sys.float_info.max, 0.0)))
    with decimal.localcontext(prec=800):  # the midpoint exactly
        midpoint = (Decimal(low) + Decimal(math.nextafter(low, math.inf))) / 2
    with decimal.localcontext(prec=draw(st.integers(20, 40))):
        text = +midpoint
        text = draw(st.sampled_from(
            (text, text.next_minus(), text.next_plus())))
    return str(text)


@settings(max_examples=400)
@given(numbers=st.lists(st.one_of(
           formatted_doubles(), near_halfway(),
           st.integers(-2 ** 70, 2 ** 70).map(str)), min_size=1, max_size=200),
       piece_chars=st.sampled_from((16, 1 << 16)))
def test_float_list_reader_is_bit_exact(numbers, piece_chars):
    """Read in pieces of any size, a list gives json's doubles bit for
    bit."""
    text = "[" + ", ".join(numbers) + "]"
    with mock.patch.object(ioformats, "_PIECE_CHARS", piece_chars):
        table = read_float_list(whole(text))
    assert table is not None
    assert table.tobytes() \
        == np.array(json.loads(text), dtype=np.float64).tobytes()


@pytest.mark.parametrize("number", [
    "2.2250738585072011e-308",
    "1.00000000000000011102230246251565404236316680908203125",
])
def test_float_list_reader_reads_hard_cases_as_json(number):
    text = f"[{number}, {number}]"
    table = read_float_list(whole(text))
    assert table.tobytes() == np.array(json.loads(text)).tobytes()


def test_float_list_reader_refuses_a_trailing_comma_at_a_cut():
    """A trailing comma where a piece ends leaves an empty last piece,
    which orjson parses as an empty list; that empty piece sends the list
    to json."""
    text = "[1.5, 2.5,]"
    with mock.patch.object(ioformats, "_PIECE_CHARS", 4):
        assert read_float_list(whole(text)) is None


def test_number_past_the_float_range_reaches_json(tmp_path):
    """orjson refuses 1.7976931348623159e308, which json reads as inf: the
    file goes to json and fails as it always did."""
    pmf = ", ".join(["0.0"] * 999 + ["1.7976931348623159e308"])
    path = tmp_path / "pmf.json"
    path.write_text('{"schema": "pkregion-pmf-v1", "variables": ["X", "Y", '
                    f'"Z"], "cardinalities": [1000, 1, 1], "pmf": [{pmf}]}}')
    assert read_float_list(whole(f"[{pmf}]")) is None
    assert pmf_outcome(read_pmf, path) == (
        NonFiniteEntryError, f"NON_FINITE_ENTRY: {path}: table entries must "
        "be finite numbers") == pmf_outcome(oracle_read_pmf, path)


@pytest.mark.parametrize("cardinalities, message", [
    ("[2," + " " * 2100 + "2, 2]", None),
    ("[2." + "0" * 2100 + ", 2, 2]", "cardinalities: 2.0 is not an integer"),
], ids=["2100 spaces", "2100 zeros"])
def test_only_the_pmf_field_takes_a_list_read_as_an_array(
        tmp_path, cardinalities, message):
    """A cardinalities list long enough for the list reader is read by json,
    as every field but the pmf is: a valid file reads, and an invalid one
    gets json's message."""
    path = tmp_path / "pmf.json"
    path.write_text('{"schema": "pkregion-pmf-v1", "variables": ["X", "Y", '
                    f'"Z"], "cardinalities": {cardinalities}, '
                    f'"pmf": {json.dumps([0.125] * 8)}}}')
    got = pmf_outcome(read_pmf, path)
    assert got == pmf_outcome(oracle_read_pmf, path)
    if message:
        assert got == (InputFormatError, f"INPUT_FORMAT: {path}: {message}")
    else:
        assert got[1] == (2, 2, 2)


# -- reading the file's bytes ----------------------------------------------------

def text_mode_error(path):
    """The class and message of the error of json on the file opened as
    text, as the readers report it."""
    try:
        with open(path, encoding="utf-8") as fh:
            json.loads(fh.read())
    except ValueError as exc:
        return InputFormatError, \
            f"INPUT_FORMAT: cannot parse {path} as JSON: {exc}"
    raise AssertionError(f"json reads {path}")


def large_documents(rng):
    """Pmf and protocol documents whose pmf list and key tables are large."""
    probs = rng.random(3000)
    pmf = {"schema": "pkregion-pmf-v1", "variables": ["X", "Y", "Z"],
           "cardinalities": [3000, 1, 1],
           "pmf": (probs / probs.sum()).tolist()}
    protocol = {**PROTOCOL_BASE, **{
        key: rng.integers(0, 1000, (100, 12)).tolist() for key in KEY_TABLES}}
    return pmf, protocol


@pytest.mark.parametrize(
    "name", list(refused_files('{"k": [1, 2]}', "k")))
def test_files_read_as_bytes_fail_as_text_fails(tmp_path, name):
    """A pmf file and a protocol file with large tables, cut short after
    CR LF or lone CR line ends, with a BOM, a byte that is not UTF-8 or a
    raw CR in a string: each reader gives json's error class and message on
    the file opened as text, with the offset in the file. The layouts of
    the agreement tests cover the valid files with CR LF or lone CR line
    ends and a string past ASCII."""
    pmf, protocol = large_documents(np.random.default_rng(7))
    for doc, key, layout, read, oracle, outcome in (
            (pmf, "pmf", LAYOUTS["indent=2"], read_pmf, oracle_read_pmf,
             pmf_outcome),
            (protocol, "key_xy", LAYOUTS["fixed width"], read_protocol,
             oracle_read_protocol, read_outcome)):
        path = tmp_path / f"{key}.json"
        path.write_bytes(refused_files(layout(doc), key)[name])
        assert outcome(read, path) == outcome(oracle, path) \
            == text_mode_error(path)


# -- the variants, and the corpus of tools/compare.py ----------------------------

def assert_long(files, key):
    """Each long list or table among ``files`` (variants of a file whose
    large table is ``key``'s) is long enough for the large-table readers."""
    for name in LONG_VARIANTS.keys() & files.keys():
        text = files[name].decode()
        start = text.index("[", text.index(f'"{LONG_VARIANTS[name] or key}"'))
        end = json.JSONDecoder().raw_decode(text, start)[1]
        assert end - start >= LARGE_TABLE_CHARS, name


def test_every_variant_changes_the_files_it_is_applied_to():
    """In a file in each layout of the agreement tests, each variant and
    refused file differs from the file and from every other, so a transform
    that matches nothing in some layout shows (compare.py's: next test)."""
    pmf, protocol = large_documents(np.random.default_rng(11))
    for key, layout in [("pmf", layout) for layout in PMF_LAYOUTS.values()] \
            + list(zip(KEY_TABLES * 2, LAYOUTS.values())):
        text = layout(pmf if key == "pmf" else protocol)
        files = variant_files(text, key, middle)
        names = PMF_VARIANTS if key == "pmf" else PROTOCOL_VARIANTS
        assert len(files) == len(names) + len(refused_files(text, key))
        assert len({text.encode(), *files.values()}) == len(files) + 1
        assert_long(files, key)


def test_compare_builds_its_corpus(tmp_path, monkeypatch):
    """tools/compare.py builds its corpus without running either tree:
    every input a run names exists, no two runs are equal, and no two
    inputs are equal but the copies of one data/ file that the benchmark
    workloads make. Every variant of its pmf and its protocol is run, so
    each changes the file, and each long list or table is long enough."""
    # sys.path comes back as it was, without what compare.py puts on it
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "tools")
    import checkouts
    import compare
    runs = compare.build_corpus(tmp_path)
    assert len({tuple(argv) for argv in runs}) == len(runs)
    inputs = {Path(arg[arg.index(str(tmp_path)):]) for argv in runs
              for arg in argv if str(tmp_path) in arg}
    assert all(path.is_file() for path in inputs)
    contents = {}
    for path in inputs:
        contents.setdefault(path.read_bytes(), []).append(path)
    copies = set(checkouts.workloads.DATA_FILES)
    for paths in contents.values():
        names = {path.name for path in paths}
        assert len(paths) == 1 or len(names) == 1 and names <= copies, paths
    for key in compare.VARIED:
        kind, names = ("pmf", PMF_VARIANTS) if key == "pmf" \
            else ("protocol", PROTOCOL_VARIANTS)
        paths = {name: tmp_path / "variants" / f"{kind} {name}.json"
                 for name in names}
        assert set(paths.values()) <= inputs
        assert_long({name: paths[name].read_bytes()
                     for name in LONG_VARIANTS.keys() & paths.keys()}, key)


def test_compare_counts_the_changes_of_each_field(tmp_path, monkeypatch,
                                                  capsys):
    """tools/compare.py prints, per report field over all runs, the largest
    |difference|, the values changed and those of them that went from
    within NUM_TOL of 0 to exactly 0.0; read from two small results files."""
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "tools")
    import compare
    from pkregion.dist import NUM_TOL
    assert compare.NUM_TOL == NUM_TOL
    reports = [({"a": 1e-13, "b": [0.5, -2e-13, 3.0], "c": "x"},
                {"a": 0.0, "b": [0.5, 0.0, 3.5], "c": "y"}),
               ({"a": 5e-13, "b": [0.5, 0.0, 3.0], "c": "x"},
                {"a": 0.0, "b": [0.5, 0.0, 3.0], "c": "x"}),
               ({"a": 2e-12, "b": [], "c": "x"},
                {"a": 0.0, "b": [], "c": "x"}),
               ({"a": 1.0, "b": [], "c": "x"},
                {"a": 1.0, "b": [], "c": "x"})]
    for side in (0, 1):
        (tmp_path / f"results{side}.json").write_text(json.dumps(
            [[0, json.dumps(pair[side]), ""] for pair in reports]))
    base, head = (json.loads((tmp_path / f"results{side}.json").read_text())
                  for side in (0, 1))
    runs = [["compute", "--input", str(tmp_path / f"s{i}.json")]
            for i in range(len(reports))]
    count, differ = compare.report(runs, base, head, tmp_path)
    assert (count, differ) == (3, {"exit code": 0, "stdout": 3, "stderr": 0})
    fields = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FIELD")]
    assert fields == [
        "FIELD a: largest |difference| 2e-12 at compute --input s2.json; "
        "3 changed, 2 from within 1e-12 of 0 to 0.0",
        "FIELD b[]: largest |difference| 0.5 at compute --input s0.json; "
        "2 changed, 1 from within 1e-12 of 0 to 0.0",
        "FIELD c: largest |difference| inf at compute --input s0.json; "
        "1 changed, 0 from within 1e-12 of 0 to 0.0"]


def test_runner_answers_every_line(tmp_path, monkeypatch, capsys):
    """The runner of tools/checkouts.py, on this tree's src/, answers each
    argv line with [exit code, stdout, stderr, seconds, minor faults]: a
    parser error is an outcome, and the next line still runs."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(root / "tools")
    import checkouts
    from pkregion.cli import main
    source = str(root / "data" / "worked_source.json")
    runs = (["frobnicate"], ["compute", "--input", source])
    with checkouts.runner(root / "src", tmp_path) as proc:
        out, _ = proc.communicate(
            "".join(json.dumps(argv) + "\n" for argv in runs), timeout=120)
    assert proc.returncode == 0
    refused, computed = [json.loads(line) for line in out.splitlines()]
    assert refused[:2] == [2, ""]
    assert refused[2].startswith("usage: pkregion")
    assert main(runs[1]) == 0
    assert computed[:3] == [0, capsys.readouterr().out, ""]
    for outcome in (refused, computed):
        assert outcome[3] > 0.0 and outcome[4] >= 0


def test_workload_requests_are_every_distinct_request(tmp_path, monkeypatch):
    """tools/checkouts.py writes the inputs of the four benchmark workloads
    at seed 1 and yields each of their 135 distinct requests once, workload
    by workload, without running a tree."""
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "tools")
    import checkouts
    found = list(checkouts.workload_requests((1,), tmp_path))
    assert len({tuple(argv) for *_, argv in found}) == len(found) == 135
    for workload in checkouts.workloads.WORKLOADS:
        requests = checkouts.workloads.build(
            workload, 1, checkouts.ROOT / "data")[1]
        assert [(req.command, req.input, req.protocol)
                for name, _, req, _ in found if name == workload] \
            == list(dict.fromkeys((req.command, req.input, req.protocol)
                                  for req in requests))
    assert [name for name, *_ in found] == sorted(
        (name for name, *_ in found),
        key=list(checkouts.workloads.WORKLOADS).index)
    for workload, files, req, argv in found:
        names = [req.input] + [req.protocol] * bool(req.protocol)
        paths = [tmp_path / f"{workload}-seed1" / name for name in names]
        assert argv[2::2] == list(map(str, paths))
        assert [path.read_bytes() for path in paths] \
            == [files[name] for name in names]


def test_every_mutant_edits_its_file(monkeypatch):
    """Each edit of tools/mutants.py finds its old text in its file of
    src/ and changes it, so the list cannot go stale unnoticed."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(root / "tools")
    import mutants
    for label, name, old, new in mutants.MUTANTS:
        assert old in (root / "src" / "pkregion" / name).read_text(), label
        assert old != new, label


# -- the scan for large tables stays linear --------------------------------------

# Candidate table starts per file. Searched for an end from every start,
# the protocol file below whose starts have no end took 2.5 s instead of
# 0.2 s (2-core x86 host); the check on ends searched catches it anyway.
STARTS = 50_000
# Nested starts per group: each start of a group is short of
# LARGE_TABLE_CHARS, and all of them share the group's first end. Each
# level holds a string, so that the pass scans every candidate from inside.
NESTING = 100


def nested(opening, groups):
    """``groups`` lists, each ``opening`` and a string nested NESTING times
    around 0."""
    closing = "]" * opening.count("[")
    group = (opening + '"s", ') * NESTING + "0" + closing * NESTING
    return "[" + ", ".join([group] * groups) + "]"


def read_in_time(read, oracle, closing, path, text):
    """``read`` of ``text`` agrees with ``oracle``, looks for each end of a
    table once, however many starts share it, and for no end at all once,
    and finishes within a few seconds."""
    path.write_text(text)
    search, found = getattr(ioformats, closing), []

    def search_once(text, pos):
        found.append(search(text, pos))
        return found[-1]

    start = time.perf_counter()
    with mock.patch.object(ioformats, closing, search_once):
        outcome = read(path)
    assert time.perf_counter() - start < 5.0
    assert len(found) == len(set(found))
    assert outcome == oracle(path)
    return outcome


def test_pmf_scan_is_linear_in_candidate_starts(tmp_path):
    """A large list after many short candidates, each at most a group's
    width from its ], is read by orjson as json would read it; a file whose
    many starts have no ] after them fails as json does."""
    probs = ", ".join(["0.001"] * 1000)
    head = ('{"schema": "pkregion-pmf-v1", "variables": ["X", "Y", "Z"], '
            '"cardinalities": [1000, 1, 1], ')
    path = tmp_path / "pmf.json"
    lists_read = []

    def read_list(*span):
        lists_read.append(read_float_list(span))
        return lists_read[-1]

    def read(path):
        with mock.patch.object(ioformats, "_read_float_list", read_list):
            return pmf_outcome(read_pmf, path)

    def oracle(path):
        return pmf_outcome(oracle_read_pmf, path)

    text = (head + f'"extra": {nested("[0, ", STARTS // NESTING)}, '
            f'"pmf": [{probs}]}}')
    assert text.count("[0, ") == STARTS
    assert read_in_time(read, oracle, "_list_closing", path, text)[1] \
        == (1000, 1, 1)
    assert [table is None for table in lists_read] == [False]
    # json stops at the 0, before the starts nest deeper than it can read
    text = head + f'"pmf": [{probs}], "extra": 0 ' + "[0, " * STARTS
    assert read_in_time(read, oracle, "_list_closing", path, text)[0] \
        is InputFormatError


def test_protocol_scan_is_linear_in_candidate_starts(tmp_path):
    """The same for protocol files: many short [[ candidates, each at most a
    group's width from its ]], then a large table; and many [[ with no ]]
    after them."""
    spec = ProtocolSpec(n=1, rounds=0, slots=(), key_xy=[[0]], est_xy=[[1]],
                        key_xz=[[2]], est_xz=[[3]], key_xy_size=4,
                        key_xz_size=4)
    large = json.dumps([[k % 4] for k in range(LARGE_TABLE_CHARS)])
    head = json.dumps(protocol_document(spec))[:-1]
    path = tmp_path / "protocol.json"

    def read(path):
        return read_outcome(read_protocol, path)

    def oracle(path):
        return read_outcome(oracle_read_protocol, path)

    text = (head + f', "extra": {nested("[[", STARTS // NESTING)}, '
            f'"est_xz": {large}}}')
    assert text.count("[[") >= STARTS
    assert read_in_time(read, oracle, "_table_closing", path, text)[-1][1] \
        == (LARGE_TABLE_CHARS, 1)
    text = head + f', "est_xz": {large}, "extra": 0 ' + "[[0, " * STARTS
    assert read_in_time(read, oracle, "_table_closing", path, text)[0] \
        is InputFormatError
