import math
import re
import tracemalloc

import numpy as np
import pytest

from pkregion import (
    EvaluationReport, ProtocolSpec, SlotSpec, check_eps_pk, contains,
    evaluate_protocol, load_pmf, outer_region, rate_point, read_protocol,
)
from pkregion.errors import BudgetExceededError, MalformedTableError

from conftest import pmf_as_dict, random_pmf, rng_for, square_pmf, worked_pmf
from oracles import oracle_evaluate


def null_slot(own_count, heard=1):
    return SlotSpec(alphabet_size=1,
                    table=np.zeros((own_count, heard), dtype=int))


def no_message_protocol(key_xy, est_xy, key_xz, est_xz, kxy, kxz, n):
    return ProtocolSpec(
        n=n, rounds=0, slots=(),
        key_xy=key_xy, est_xy=est_xy, key_xz=key_xz, est_xz=est_xz,
        key_xy_size=kxy, key_xz_size=kxz)


def random_protocol(rng, cards, n, rounds, max_message=2, max_key=4):
    """A random protocol in both package form and oracle form."""
    counts = tuple(c ** n for c in cards)
    slots, oracle_slots, heard = [], [], 1
    for t in range(3 * rounds):
        m = int(rng.integers(1, max_message + 1))
        table = rng.integers(0, m, size=(counts[t % 3], heard))
        slots.append(SlotSpec(alphabet_size=m, table=table))
        oracle_slots.append((m, table.tolist()))
        heard *= m
    kxy = int(rng.integers(1, max_key + 1))
    kxz = int(rng.integers(1, max_key + 1))
    tables = {
        "key_xy": rng.integers(0, kxy, size=(counts[0], heard)),
        "est_xy": rng.integers(0, kxy, size=(counts[1], heard)),
        "key_xz": rng.integers(0, kxz, size=(counts[0], heard)),
        "est_xz": rng.integers(0, kxz, size=(counts[2], heard)),
    }
    spec = ProtocolSpec(n=n, rounds=rounds, slots=tuple(slots),
                        key_xy_size=kxy, key_xz_size=kxz, **tables)
    proto = {"n": n, "slots": oracle_slots, "key_xy_size": kxy,
             "key_xz_size": kxz,
             **{k: v.tolist() for k, v in tables.items()}}
    return spec, proto


# -- indexing conventions ---------------------------------------------------------

def test_slot_origin_follows_x_y_z_cycle():
    """With distinct alphabet sizes per terminal, the evaluation only type
    checks when slot 3t goes to X, 3t+1 to Y, 3t+2 to Z."""
    table = np.full((2, 3, 4), 1 / 24)
    p = load_pmf(table, ("X", "Y", "Z"), (2, 3, 4))
    slots = (
        SlotSpec(alphabet_size=2, table=np.arange(2).reshape(2, 1)),
        SlotSpec(alphabet_size=3, table=np.tile(np.arange(3)[:, None], (1, 2))),
        SlotSpec(alphabet_size=4, table=np.tile(np.arange(4)[:, None], (1, 6))),
    )
    ident = np.tile(np.arange(24)[None, :], (2, 1))
    spec = ProtocolSpec(
        n=1, rounds=1, slots=slots,
        key_xy=ident, est_xy=np.tile(np.arange(24)[None, :], (3, 1)),
        key_xz=ident, est_xz=np.tile(np.arange(24)[None, :], (4, 1)),
        key_xy_size=24, key_xz_size=24)
    report = evaluate_protocol(p, spec)
    # everyone broadcast their symbol, so both keys equal the transcript
    assert report.error_xy == 0.0
    assert report.error_xz == 0.0
    assert report.rate_xy == pytest.approx(np.log2(24), abs=1e-12)
    # swapping the first two slots breaks the (own-count, heard) shapes
    bad = (slots[1], slots[0], slots[2])
    with pytest.raises(MalformedTableError):
        evaluate_protocol(p, ProtocolSpec(
            n=1, rounds=1, slots=bad,
            key_xy=ident, est_xy=np.tile(np.arange(24)[None, :], (3, 1)),
            key_xz=ident, est_xz=np.tile(np.arange(24)[None, :], (4, 1)),
            key_xy_size=24, key_xz_size=24))


def test_transcript_column_indexing_matches_convention():
    """Y broadcasts its symbol between two null slots; key tables that read
    the transcript column recover it exactly."""
    table = np.full((2, 3, 2), 1 / 12)
    p = load_pmf(table, ("X", "Y", "Z"), (2, 3, 2))
    slots = (
        null_slot(2),
        SlotSpec(alphabet_size=3, table=np.arange(3).reshape(3, 1)),
        null_slot(2, heard=3),
    )
    spec = ProtocolSpec(
        n=1, rounds=1, slots=slots,
        key_xy=np.tile(np.arange(3)[None, :], (2, 1)),
        est_xy=np.tile(np.arange(3)[:, None], (1, 3)),
        key_xz=np.zeros((2, 3), dtype=int),
        est_xz=np.zeros((2, 3), dtype=int),
        key_xy_size=3, key_xz_size=1)
    report = evaluate_protocol(p, spec)
    assert report.error_xy == 0.0
    assert report.rate_xy == pytest.approx(np.log2(3), abs=1e-12)
    # the transcript reveals the key completely
    assert report.leak_xy == pytest.approx(np.log2(3), abs=1e-12)


# -- reference evaluations ----------------------------------------------------------

def test_direct_extraction_two_symbols_is_perfect():
    """Blocklength 2 where X holds both partners' bits (X = (Y, Z) with Y, Z
    independent fair bits): X reads each partner's bit stream straight out
    of its own symbols, so every figure of merit is exactly zero."""
    p = square_pmf()
    key_xy = np.array([[2 * (a >> 1) + (b >> 1)] for a in range(4)
                       for b in range(4)]).reshape(16, 1)
    key_xz = np.array([[2 * (a & 1) + (b & 1)] for a in range(4)
                       for b in range(4)]).reshape(16, 1)
    # each partner's estimate is just its own two-symbol sequence
    identity = np.arange(4).reshape(4, 1)
    spec = ProtocolSpec(n=2, rounds=0, slots=(),
                        key_xy=key_xy, est_xy=identity,
                        key_xz=key_xz, est_xz=identity,
                        key_xy_size=4, key_xz_size=4)
    report = evaluate_protocol(p, spec)
    assert report.error_xy == 0.0
    assert report.error_xz == 0.0
    assert report.leak_xy == 0.0
    assert report.leak_xz == 0.0
    assert report.unif_xy == 0.0
    assert report.unif_xz == 0.0
    assert rate_point(report) == (1.0, 1.0)
    assert check_eps_pk(report, 0.0) == (True, True)
    assert contains(outer_region(p), rate_point(report), tol=1e-9)


def test_public_broadcast_leaks_everything():
    # Y announces its bit; using it as the shared key leaks one full bit
    table = np.zeros((2, 2, 2))
    for y in (0, 1):
        for z in (0, 1):
            table[y, y, z] = 0.25
    p = load_pmf(table, ("X", "Y", "Z"), (2, 2, 2))
    slots = (null_slot(2),
             SlotSpec(alphabet_size=2, table=np.arange(2).reshape(2, 1)),
             null_slot(2, heard=2))
    spec = ProtocolSpec(
        n=1, rounds=1, slots=slots,
        key_xy=np.tile(np.arange(2)[None, :], (2, 1)),
        est_xy=np.tile(np.arange(2)[:, None], (1, 2)),
        key_xz=np.zeros((2, 2), dtype=int),
        est_xz=np.zeros((2, 2), dtype=int),
        key_xy_size=2, key_xz_size=1)
    report = evaluate_protocol(p, spec)
    assert report.error_xy == 0.0
    assert report.leak_xy == 1.0
    assert check_eps_pk(report, 0.01) == (False, True)
    assert check_eps_pk(report, 1.0) == (True, True)


def test_constant_key_maximal_uniformity_deficit():
    p = worked_pmf()
    zeros = np.zeros((4, 1), dtype=int)
    spec = no_message_protocol(
        key_xy=zeros, est_xy=zeros, key_xz=zeros, est_xz=zeros,
        kxy=2, kxz=1, n=1)
    report = evaluate_protocol(p, spec)
    assert report.error_xy == 0.0
    assert report.leak_xy == 0.0
    assert report.unif_xy == 1.0
    assert report.rate_xy == 0.0
    assert check_eps_pk(report, 1.0) == (True, True)
    assert check_eps_pk(report, 0.5) == (False, True)


def test_evaluation_matches_bruteforce_oracle():
    rng = rng_for(601)
    for trial in range(15):
        cards = tuple(int(rng.integers(2, 3)) for _ in range(3))
        n = int(rng.integers(1, 3))
        rounds = int(rng.integers(0, 3))
        p = random_pmf(rng, cards=cards)
        spec, proto = random_protocol(rng, cards, n, rounds)
        report = evaluate_protocol(p, spec)
        want = oracle_evaluate(pmf_as_dict(p), cards, proto)
        for field, expected in want.items():
            assert getattr(report, field) == pytest.approx(expected, abs=1e-10), \
                (field, trial)


def test_evaluation_is_bitwise_deterministic():
    rng = rng_for(602)
    p = random_pmf(rng, cards=(2, 2, 2))
    spec, _ = random_protocol(rng, (2, 2, 2), n=2, rounds=2)
    r1 = evaluate_protocol(p, spec)
    r2 = evaluate_protocol(p, spec)
    assert r1 == r2


def test_leak_is_capped_by_key_entropy():
    rng = rng_for(603)
    for trial in range(10):
        cards = (2, 2, 2)
        p = random_pmf(rng, cards=cards)
        spec, _ = random_protocol(rng, cards, n=1, rounds=1)
        report = evaluate_protocol(p, spec)
        assert 0.0 <= report.leak_xy <= np.log2(spec.key_xy_size) + 1e-12
        assert 0.0 <= report.leak_xz <= np.log2(spec.key_xz_size) + 1e-12
        assert report.unif_xy >= 0.0 and report.unif_xz >= 0.0


def test_budget_guards(bsc_source):
    p = worked_pmf()
    zeros = np.zeros((16, 1), dtype=int)
    spec = ProtocolSpec(n=2, rounds=0, slots=(),
                        key_xy=zeros, est_xy=zeros, key_xz=zeros,
                        est_xz=zeros, key_xy_size=1, key_xz_size=1)
    with pytest.raises(BudgetExceededError):
        evaluate_protocol(p, spec, budget=100)
    # the joint key/transcript/helper tables count against the budget too
    big = np.zeros((4, 1), dtype=int)
    wide = ProtocolSpec(n=1, rounds=0, slots=(),
                        key_xy=big, est_xy=big, key_xz=big, est_xz=big,
                        key_xy_size=10 ** 9, key_xz_size=1)
    with pytest.raises(BudgetExceededError):
        evaluate_protocol(worked_pmf(), wide, budget=10 ** 6)
    # a constant transcript builds the three pairwise tables, 3 · 16² cells,
    # and never the 16³-cell joint one
    with pytest.raises(BudgetExceededError):
        evaluate_protocol(p, spec, budget=767)
    assert evaluate_protocol(p, spec, budget=768).rate_xy == 0.0
    # each helper's table holds only the key hidden from it: 1 · 8 cells
    # for the XY key against Z, 10⁶ · 1 for the XZ key against Y
    lopsided_source = load_pmf(np.full((2, 1, 8), 1 / 16), ("X", "Y", "Z"),
                               (2, 1, 8))
    lopsided = ProtocolSpec(
        n=1, rounds=0, slots=(),
        key_xy=np.zeros((2, 1), dtype=int), est_xy=np.zeros((1, 1), dtype=int),
        key_xz=np.arange(2).reshape(2, 1), est_xz=np.zeros((8, 1), dtype=int),
        key_xy_size=1, key_xz_size=10 ** 6)
    report = evaluate_protocol(lopsided_source, lopsided, budget=5 * 10 ** 6)
    assert report.rate_xz == 1.0
    with pytest.raises(BudgetExceededError):
        evaluate_protocol(lopsided_source, lopsided, budget=10 ** 6 - 1)
    # 256 of 4096 transcript indices occur, so each secrecy table is charged
    # 16 · 256 · 16 cells, as built, not 16 · 4096 · 16
    gated = gated_bits_protocol(4)
    assert evaluate_protocol(bsc_source, gated, budget=65536).rate_xy > 0.0
    with pytest.raises(BudgetExceededError,
                       match="key/transcript/Z joint table needs more than "
                             "65535 cells"):
        evaluate_protocol(bsc_source, gated, budget=65535)
    # one transcript of 10⁵ indices occurs: ranking the transcripts builds
    # nothing per index, so a budget of 10 cells bounds what is built
    size = 10 ** 5
    keys = np.zeros((1, size), dtype=int)
    sparse = ProtocolSpec(
        n=1, rounds=1, slots=(SlotSpec(size, [[size - 1]]),
                              SlotSpec(1, [[0] * size]),
                              SlotSpec(1, [[0] * size])),
        key_xy=keys, est_xy=keys, key_xz=keys, est_xz=keys,
        key_xy_size=1, key_xz_size=1)
    one_symbol = load_pmf([1.0], ("X", "Y", "Z"), (1, 1, 1))
    tracemalloc.start()
    try:
        evaluate_protocol(one_symbol, sparse, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_shapes_are_checked_before_the_budget():
    """Only a sequence count over the budget comes before the shapes; a
    protocol that is malformed and whose tables are over budget is
    malformed."""
    zeros = np.zeros((4, 1), dtype=int)  # shaped for n = 1, not 2
    spec = ProtocolSpec(n=2, rounds=0, slots=(),
                        key_xy=zeros, est_xy=zeros, key_xz=zeros,
                        est_xz=zeros, key_xy_size=1, key_xz_size=1)
    # 16 sequences per terminal; the pair tables would need 768 cells
    with pytest.raises(MalformedTableError):
        evaluate_protocol(worked_pmf(), spec, budget=100)
    with pytest.raises(BudgetExceededError):
        evaluate_protocol(worked_pmf(), spec, budget=15)


def test_budget_boundary_when_only_z_speaks():
    """The transcript varies along Z alone, so the XY figures need the
    joint table (2·3·4 cells) and the XZ and YZ ones their pair tables
    (2·4 and 3·4): 44 cells in all."""
    p = load_pmf(np.full((2, 3, 4), 1 / 24), ("X", "Y", "Z"), (2, 3, 4))
    spec = ProtocolSpec(
        n=1, rounds=1,
        slots=(null_slot(2), null_slot(3),
               SlotSpec(alphabet_size=2, table=np.arange(4).reshape(4, 1) % 2)),
        key_xy=np.zeros((2, 2), dtype=int), est_xy=np.zeros((3, 2), dtype=int),
        key_xz=np.zeros((2, 2), dtype=int), est_xz=np.zeros((4, 2), dtype=int),
        key_xy_size=1, key_xz_size=1)
    with pytest.raises(BudgetExceededError):
        evaluate_protocol(p, spec, budget=43)
    assert evaluate_protocol(p, spec, budget=44).error_xy == 0.0


def test_pairs_of_one_shape_are_charged_once():
    """On a 2×1×1 source with no speaker the XY and XZ tables have the
    same shape, 8 × 1 × 1 at n = 3; with the YZ table that is 9 cells."""
    p = load_pmf(np.array([0.25, 0.75]).reshape(2, 1, 1), ("X", "Y", "Z"),
                 (2, 1, 1))
    zeros, one = np.zeros((8, 1), dtype=int), np.zeros((1, 1), dtype=int)
    spec = no_message_protocol(zeros, one, zeros, one, 1, 1, n=3)
    assert evaluate_protocol(p, spec, budget=9).error_xy == 0.0
    with pytest.raises(BudgetExceededError,
                       match=r": 8\*1 \+ 1\*1 sequence cells exceed the "
                             r"budget of 8$"):
        evaluate_protocol(p, spec, budget=8)


def test_key_rates_are_clipped_at_zero():
    """A one-symbol key has entropy 0, but the key margin of a skewed
    secrecy table can sum to a hair over 1, a tiny negative entropy; the
    rate reads 0."""
    p = load_pmf(np.array([0.1, 0.9]).reshape(2, 1, 1), ("X", "Y", "Z"),
                 (2, 1, 1))
    zeros, one = np.zeros((16, 1), dtype=int), np.zeros((1, 1), dtype=int)
    report = evaluate_protocol(
        p, no_message_protocol(zeros, one, zeros, one, 1, 1, n=4))
    assert rate_point(report) == (0.0, 0.0)


def perfect_key_source(q):
    """X = (Y, Z), with Y a fair bit and Z a bit of bias ``q``: X's symbol
    2y + z."""
    table = np.zeros((4, 2, 2))
    for y, z in np.ndindex(2, 2):
        table[2 * y + z, y, z] = 0.5 * (q if z else 1.0 - q)
    return load_pmf(table, ("X", "Y", "Z"), (4, 2, 2))


def test_a_perfect_key_passes_eps_zero_at_any_bias(data_dir):
    """Direct extraction at n = 2 reads the XY key off Y's bits, a perfect
    key whatever the helper Z's bias: error, leak and uniformity deficit
    are 0 in the maths, and read exactly 0.0. The leak of the first bias
    is computed as 2.2e-16, which the window around 0 reads as 0.0; the
    others are 2000 biases drawn with numpy seed 0."""
    spec = read_protocol(f"{data_dir}/direct_extraction_n2.json")
    biases = [0.04097352393619469, *np.random.default_rng(0).random(2000)]
    for q in biases:
        report = evaluate_protocol(perfect_key_source(q), spec)
        assert (report.error_xy, report.leak_xy, report.unif_xy) \
            == (0.0, 0.0, 0.0), q
        assert check_eps_pk(report, 0.0)[0], q


def symbol_power_table(symbol_map, card, n):
    """Key column of the n-fold product of a per-symbol map onto {0, 1}."""
    seqs = np.arange(card ** n)
    symbol_map = np.asarray(symbol_map)
    table = np.zeros(card ** n, dtype=np.int64)
    for i in range(n):
        table = table * 2 + symbol_map[seqs // card ** (n - 1 - i) % card]
    return table.reshape(-1, 1)


def test_constant_transcript_reaches_n10_against_closed_forms(bsc_source):
    """The 2³⁰-cell joint table is over the default budget; the three
    pairwise tables (3 · 2²⁰ cells) are not. For an n-fold product of a
    per-symbol protocol the error is 1 − (1 − e₁)ⁿ and the per-symbol leak,
    uniformity deficit and rate equal their n = 1 values."""
    maps = {"key_xy": (0, 1), "est_xy": (0, 1),
            "key_xz": (1, 0), "est_xz": (1, 0)}
    one = oracle_evaluate(pmf_as_dict(bsc_source), (2, 2, 2), {
        "n": 1, "slots": [], "key_xy_size": 2, "key_xz_size": 2,
        **{name: [[k] for k in m] for name, m in maps.items()}})
    n = 10
    spec = ProtocolSpec(
        n=n, rounds=0, slots=(), key_xy_size=2 ** n, key_xz_size=2 ** n,
        **{name: symbol_power_table(m, 2, n) for name, m in maps.items()})
    report = evaluate_protocol(bsc_source, spec)
    for field, value in one.items():
        if field.startswith("error"):
            value = 1.0 - (1.0 - value) ** n
        assert getattr(report, field) == pytest.approx(value, abs=1e-12), field
    assert report.error_xz > 0.6 and report.leak_xy > 0.5


def product_table(table, n, earlier):
    """n-fold product of a per-symbol table over binary messages. A row is
    an own n-sequence, a column the n-fold messages of ``earlier`` slots;
    position i reads digit i of the own sequence and of each message."""
    own = np.arange(2 ** n)[:, None]
    heard = np.arange(2 ** (n * earlier))[None, :]
    out = 0
    for i in range(n):
        prefix = 0
        for j in range(earlier):
            shift = n * (earlier - 1 - j) + n - 1 - i
            prefix = 2 * prefix + (heard >> shift & 1)
        out = 2 * out + np.asarray(table)[own >> (n - 1 - i) & 1, prefix]
    return out


def gated_bits_protocol(n):
    """The n-fold product of a one-round binary protocol where each
    terminal sends its bit only while every earlier bit was 1: 4ⁿ of the
    8ⁿ transcript indices occur. Each key is X's bit, each estimate the
    first bit of the transcript."""
    symbol_slots = ([[0], [1]], [[0, 0], [0, 1]],
                    [[0, 0, 0, 0], [0, 0, 0, 1]])
    own_bit, first_bit = [[0] * 8, [1] * 8], [[f >> 2 for f in range(8)]] * 2
    keys = {"key_xy": own_bit, "est_xy": first_bit,
            "key_xz": own_bit, "est_xz": first_bit}
    return ProtocolSpec(
        n=n, rounds=1, key_xy_size=2 ** n, key_xz_size=2 ** n,
        slots=tuple(SlotSpec(alphabet_size=2 ** n,
                             table=product_table(table, n, t))
                    for t, table in enumerate(symbol_slots)),
        **{name: product_table(table, n, 3) for name, table in keys.items()})


def test_secrecy_tables_hold_only_the_transcripts_that_occur(bsc_source):
    """At n = 4, 4⁴ = 256 of the 16³ = 4096 transcript indices occur. The
    (key, transcript, helper) tables would hold 16 · 4096 · 16 cells, 8 MB
    each, over every index; over the transcripts that occur they hold
    16 · 256 · 16."""
    n = 4
    spec = gated_bits_protocol(n)
    tracemalloc.start()
    try:
        report = evaluate_protocol(bsc_source, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20
    want = oracle_evaluate(pmf_as_dict(bsc_source), (2, 2, 2), {
        "n": n, "key_xy_size": 2 ** n, "key_xz_size": 2 ** n,
        "slots": [(slot.alphabet_size, slot.table.tolist())
                  for slot in spec.slots],
        **{name: getattr(spec, name).tolist()
           for name in ("key_xy", "est_xy", "key_xz", "est_xz")}})
    for field, expected in want.items():
        assert getattr(report, field) == pytest.approx(expected, abs=1e-12), \
            field


def test_malformed_protocols_are_rejected():
    with pytest.raises(MalformedTableError):
        SlotSpec(alphabet_size=2, table=np.full((2, 1), 2))
    for bad in (np.zeros(4, dtype=int), [[0], [0, 1]]):
        with pytest.raises(MalformedTableError):
            SlotSpec(alphabet_size=2, table=bad)
    zeros = np.zeros((4, 1), dtype=int)
    with pytest.raises(MalformedTableError):
        ProtocolSpec(n=1, rounds=1, slots=(),  # wrong slot count
                     key_xy=zeros, est_xy=zeros, key_xz=zeros, est_xz=zeros,
                     key_xy_size=1, key_xz_size=1)
    with pytest.raises(MalformedTableError, match="must be a SlotSpec"):
        ProtocolSpec(n=1, rounds=1, slots=(null_slot(4), [[0], [0], [0]],
                                           null_slot(4)),
                     key_xy=zeros, est_xy=zeros, key_xz=zeros, est_xz=zeros,
                     key_xy_size=1, key_xz_size=1)
    with pytest.raises(MalformedTableError):
        ProtocolSpec(n=1, rounds=0, slots=(),
                     key_xy=np.full((4, 1), 3), est_xy=zeros,
                     key_xz=zeros, est_xz=zeros,
                     key_xy_size=2, key_xz_size=1)
    # integer fields refuse booleans and non-integers, and store numpy
    # integers as Python ints
    fields = dict(n=1, rounds=0, slots=(), key_xy=zeros, est_xy=zeros,
                  key_xz=zeros, est_xz=zeros, key_xy_size=1, key_xz_size=1)
    for name in ("n", "rounds", "key_xy_size", "key_xz_size"):
        for bad in (2.5, 1.0, True, np.True_, "1", None):
            with pytest.raises(ValueError, match="is not an integer") as err:
                ProtocolSpec(**{**fields, name: bad})
            assert type(err.value) is ValueError
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="is not an integer") as err:
            SlotSpec(bad, [[0], [1]])
        assert type(err.value) is ValueError
    spec = ProtocolSpec(**{**fields, "n": np.int64(2),
                           "key_xy_size": np.int32(1)})
    assert type(spec.n) is int and type(spec.key_xy_size) is int
    assert type(SlotSpec(np.int64(2), [[0], [1]]).alphabet_size) is int
    # so does the budget; 0 is a budget that no run fits
    p = worked_pmf()
    spec = ProtocolSpec(**fields)
    for bad in (2.5, True, "100", None, -1):
        with pytest.raises(ValueError) as err:
            evaluate_protocol(p, spec, budget=bad)
        assert type(err.value) is ValueError
    with pytest.raises(BudgetExceededError):
        evaluate_protocol(p, spec, budget=0)
    # table shaped for the wrong blocklength fails at evaluation time
    spec = ProtocolSpec(n=2, rounds=0, slots=(),
                        key_xy=zeros, est_xy=zeros, key_xz=zeros, est_xz=zeros,
                        key_xy_size=1, key_xz_size=1)
    # the message says that the source, not the table, sets the rows
    with pytest.raises(MalformedTableError, match=re.escape(
            "key_xy table has shape (4, 1), expected (16, 1): the source's "
            "X has 4 symbols and n = 2")):
        evaluate_protocol(p, spec)
    # null slots are shape-checked too, though they leave the transcript
    # constant
    silent = ProtocolSpec(n=1, rounds=1, slots=(null_slot(4), null_slot(3),
                                                null_slot(4)),
                          key_xy=zeros, est_xy=zeros, key_xz=zeros,
                          est_xz=zeros, key_xy_size=1, key_xz_size=1)
    with pytest.raises(MalformedTableError):
        evaluate_protocol(p, silent)


def test_non_integer_tables_are_rejected():
    zeros = np.zeros((4, 1), dtype=int)
    # fractions used to be truncated and booleans read as 0/1, also among
    # floats
    for bad in ([[0.7]], [[True]], [[0], [True]], np.array([[False]]),
                [[float("nan")]], [["1"]], [[2 ** 64], [True]], [[None]],
                [[1.0], [True]], [[True, 2.0]], [[np.True_], [0]]):
        with pytest.raises(MalformedTableError):
            SlotSpec(alphabet_size=2, table=bad)
        with pytest.raises(MalformedTableError):
            no_message_protocol(zeros, bad, zeros, zeros, 2, 1, 1)
    # integral floats carry no coercion and stay accepted
    slot = SlotSpec(alphabet_size=2, table=[[1.0], [0.0]])
    assert slot.table.dtype == np.int64
    assert slot.table.tolist() == [[1], [0]]


def test_tables_are_copied_from_read_only_views():
    # a read-only view still tracks its writable base; the spec must not
    base = np.zeros((4, 1), dtype=np.int64)
    view = base.view()
    view.flags.writeable = False
    slot = SlotSpec(alphabet_size=2, table=view)
    spec = no_message_protocol(view, np.broadcast_to(base, (4, 1)), base,
                               base, 2, 1, 1)
    base[:] = 7
    assert slot.table.tolist() == [[0]] * 4
    for table in (spec.key_xy, spec.est_xy, spec.key_xz, spec.est_xz):
        assert table.tolist() == [[0]] * 4
        assert not table.flags.writeable


def test_a_callers_writable_table_is_copied():
    """The constructors neither freeze nor share a caller's int64 array."""
    table = np.zeros((4, 1), dtype=np.int64)
    slot = SlotSpec(alphabet_size=2, table=table)
    spec = no_message_protocol(table, table, table, table, 2, 1, 1)
    assert table.flags.writeable
    for held in (slot.table, spec.key_xy, spec.est_xy, spec.key_xz,
                 spec.est_xz):
        assert not np.shares_memory(held, table)
        assert not held.flags.writeable


def test_check_eps_pk_rejects_negative_eps():
    p = worked_pmf()
    zeros = np.zeros((4, 1), dtype=int)
    spec = no_message_protocol(zeros, zeros, zeros, zeros, 1, 1, 1)
    report = evaluate_protocol(p, spec)
    for eps in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            check_eps_pk(report, eps)


def test_check_eps_pk_fails_a_pair_on_any_one_figure_just_above_eps():
    """Each of ``error``, ``leak`` and ``unif`` one step above ``eps``, the
    others at 0, fails its own pair only; at ``eps`` exactly, both pass."""
    names = [f"{figure}_{pair}" for figure in ("error", "leak", "unif")
             for pair in ("xy", "xz")]
    for eps in (0.0, 0.25):
        above = math.nextafter(eps, math.inf)
        for name in names:
            for value, want in ((eps, (True, True)), (above, (
                    name.endswith("xz"), name.endswith("xy")))):
                report = EvaluationReport(
                    **{**dict.fromkeys(names, 0.0), name: value},
                    rate_xy=0.0, rate_xz=0.0)
                assert check_eps_pk(report, eps) == want, (name, value)
