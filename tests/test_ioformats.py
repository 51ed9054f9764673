import json
import math
import os
import re
import stat
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pkregion import compute_report, evaluate_protocol
from pkregion import RegionReport
from pkregion.errors import (
    DuplicateVariableError, InputFormatError, MalformedTableError,
    NegativeEntryError, NonFiniteEntryError, ShapeMismatchError,
    SumOutOfToleranceError,
)
from pkregion import ioformats
from pkregion.ioformats import (
    LARGE_TABLE_CHARS, check_document, dumps_deterministic,
    evaluation_document, pmf_document, protocol_document, read_pmf,
    read_protocol, regions_document, write_atomic,
    _format_float,
)

import oracles
from conftest import assert_report_fields, random_pmf, rng_for, worked_pmf
from test_protocol import random_protocol


def roundtrip_pmf(tmp_path, p, name="pmf.json"):
    path = tmp_path / name
    write_atomic(path, dumps_deterministic(pmf_document(p)))
    return read_pmf(path)


# -- number formatting --------------------------------------------------------------

def test_format_float_shortest_roundtrip():
    assert _format_float(0.5) == "0.5"
    assert _format_float(1.0) == "1.0"
    assert _format_float(-0.0) == "-0.0"
    for v in (1 / 3, 0.1, 1e-9, 2 ** -40, 123456.789):
        assert float(_format_float(v)) == v


def test_format_float_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            _format_float(bad)


def test_dumps_is_plain_json_with_trailing_newline():
    doc = {"schema": "x", "flag": True, "nums": [1, 2.5], "nested": {"a": 1}}
    text = dumps_deterministic(doc)
    assert text.endswith("\n")
    assert json.loads(text) == doc


def test_dumps_handles_numpy_scalars_and_arrays():
    doc = {
        "i": np.int64(3),
        "f": np.float64(0.25),
        "b": np.bool_(True),
        "arr": np.arange(3),
    }
    assert json.loads(dumps_deterministic(doc)) == {
        "i": 3, "f": 0.25, "b": True, "arr": [0, 1, 2]}


def test_dumps_byte_stability():
    doc = {"values": [0.1, 1.0, 1 / 3], "n": 7}
    assert dumps_deterministic(doc) == dumps_deterministic(doc)
    assert dumps_deterministic(doc) == dumps_deterministic(json.loads(
        dumps_deterministic(doc)))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FLOATS = st.one_of(_FINITE, st.sampled_from(
    [-0.0, 3.0, -2.0 ** 53, 5e-324, 2.2250738585072014e-308 / 3, 1e300,
     -1e300, 1e-300, -1e-300]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2 ** 63),
    _FLOATS, st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9", "\u2028",
                     "\U0001f600", 'a"b\\c\n\t']),
    _FLOATS.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_))
# a 0-d array is no list: both emitters refuse it
_SHAPES = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_ARRAYS = st.one_of(arrays(np.float64, _SHAPES, elements=_FINITE),
                    arrays(np.int64, _SHAPES), arrays(np.bool_, _SHAPES))
_DOCUMENTS = st.recursive(
    _SCALARS | _ARRAYS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text() | st.integers(), inner, max_size=4)),
    max_leaves=24)


def emitted(dumps, doc):
    """The text ``dumps`` writes for ``doc``, or the type and message of
    the error it raises."""
    try:
        return dumps(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@given(_DOCUMENTS)
def test_dumps_matches_the_reference_emitter(doc):
    assert emitted(dumps_deterministic, doc) == \
        emitted(oracles.oracle_dumps, doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 np.float64("nan"), np.float32("-inf")])
def test_dumps_refuses_non_finite_floats(bad):
    for doc in (bad, [1.0, bad], {"a": [[0.5, bad]]}):
        for dumps in (dumps_deterministic, oracles.oracle_dumps):
            with pytest.raises(ValueError, match="non-finite"):
                dumps(doc)


@pytest.mark.parametrize("bad", [{1, 2}, object(), b"x", 1j,
                                 np.array(0.5)])
def test_dumps_refuses_unknown_types(bad):
    for doc in (bad, [1.0, bad], {"a": [bad, [0]]}):
        for dumps in (dumps_deterministic, oracles.oracle_dumps):
            with pytest.raises(TypeError, match="cannot serialize"):
                dumps(doc)


# -- pmf and protocol files ------------------------------------------------------------

def test_pmf_roundtrip_is_bitwise(tmp_path):
    rng = rng_for(701)
    for trial in range(10):
        p = random_pmf(rng)
        q = roundtrip_pmf(tmp_path, p, f"pmf{trial}.json")
        assert q.variables == p.variables
        assert q.cardinalities == p.cardinalities
        assert np.array_equal(q.probs, p.probs)


def test_read_pmf_error_paths(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InputFormatError):
        read_pmf(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all {")
    with pytest.raises(InputFormatError):
        read_pmf(bad)
    wrong_schema = tmp_path / "wrong.json"
    wrong_schema.write_text(json.dumps({"schema": "other-v9"}))
    with pytest.raises(InputFormatError):
        read_pmf(wrong_schema)
    # every coded fault of the table names the file, as the schema faults do
    for variables, table, error in (
            (["X", "X", "Z"], [0.5, 0.5], DuplicateVariableError),
            (["X", "Y", "Z"], [1.0], ShapeMismatchError),
            (["X", "Y", "Z"], [1.5, -0.5], NegativeEntryError),
            (["X", "Y", "Z"], [0.5, 0.25], SumOutOfToleranceError),
            (["X", "Y", "Z"], [float("nan"), 1.0], NonFiniteEntryError)):
        faulty = tmp_path / f"{error.code.lower()}.json"
        faulty.write_text(json.dumps({
            "schema": "pkregion-pmf-v1", "variables": variables,
            "cardinalities": [2, 1, 1], "pmf": table}))
        with pytest.raises(error, match=re.escape(
                f"{error.code}: {faulty}: ")) as err:
            read_pmf(faulty)
        assert type(err.value) is error
    # a JSON boolean is no cardinality, though Python counts true as 1
    boolean = tmp_path / "boolean.json"
    boolean.write_text(json.dumps({
        "schema": "pkregion-pmf-v1", "variables": ["X", "Y", "Z"],
        "cardinalities": [True, 2, 2], "pmf": [0.25] * 4}))
    with pytest.raises(InputFormatError, match="cardinalities"):
        read_pmf(boolean)
    # nor is 2.5 or 0; JointPmf's ValueError comes out coded, with the file
    sizes = tmp_path / "sizes.json"
    for cards, message in (([2.5, 2, 2], "cardinalities: 2.5 is not an "),
                           ([0, 2, 2], "cardinalities must be >= 1")):
        sizes.write_text(json.dumps({
            "schema": "pkregion-pmf-v1", "variables": ["X", "Y", "Z"],
            "cardinalities": cards, "pmf": [0.25] * 4}))
        with pytest.raises(InputFormatError, match=re.escape(
                f"INPUT_FORMAT: {sizes}: {message}")) as err:
            read_pmf(sizes)
        assert type(err.value) is InputFormatError
    two = tmp_path / "two.json"
    two.write_text(json.dumps({
        "schema": "pkregion-pmf-v1", "variables": ["X", "Y"],
        "cardinalities": [2, 2, 1], "pmf": [0.25] * 4}))
    with pytest.raises(InputFormatError, match="variables must be three names"):
        read_pmf(two)


def test_protocol_roundtrip(tmp_path):
    rng = rng_for(702)
    spec, _ = random_protocol(rng, (2, 2, 2), n=2, rounds=2)
    path = tmp_path / "proto.json"
    write_atomic(path, dumps_deterministic(protocol_document(spec)))
    back = read_protocol(path)
    assert back.n == spec.n and back.rounds == spec.rounds
    assert back.key_xy_size == spec.key_xy_size
    assert all(np.array_equal(a.table, b.table) and
               a.alphabet_size == b.alphabet_size
               for a, b in zip(back.slots, spec.slots))
    for field in ("key_xy", "est_xy", "key_xz", "est_xz"):
        assert np.array_equal(getattr(back, field), getattr(spec, field))


def test_read_protocol_rejects_malformed(tmp_path):
    rng = rng_for(703)
    spec, _ = random_protocol(rng, (2, 2, 2), n=1, rounds=1)
    doc = protocol_document(spec)
    del doc["key_xy"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputFormatError, match="missing field 'key_xy'"):
        read_protocol(path)
    for field, value, message in (
            ("n", 0, "blocklength must be >= 1"),
            ("rounds", -1, "round count must be >= 0"),
            ("key_xy_size", 0, "key alphabet sizes must be >= 1"),
            ("n", 2.5, "blocklength: 2.5 is not an integer"),
            ("slots", [{**doc["slots"][0], "alphabet_size": True}]
             + doc["slots"][1:], "message alphabet size: True is not an"),
            ("slots", [{**doc["slots"][0], "alphabet_size": 0}]
             + doc["slots"][1:], "message alphabet size must be >= 1"),
            ("slots", {}, "slots must be a list"),
            ("slots", [1, 2, 3], "slot 1 needs alphabet_size and table"),
            # long enough to be read as an integer table
            ("slots", [[0] * LARGE_TABLE_CHARS],
             "slot 1 needs alphabet_size and table")):
        path.write_text(json.dumps({**protocol_document(spec), field: value}))
        with pytest.raises(InputFormatError, match=message):
            read_protocol(path)
    # one message for a table that is not rectangular, whether or not the
    # file holds a boolean literal, and whatever the table's size
    for key_xy in (protocol_document(spec)["key_xy"],
                   [[0] * LARGE_TABLE_CHARS] * 2):
        for rows in ([key_xy[0] + [0]] + key_xy[1:],
                     key_xy[:1] + [[]] + key_xy[1:],
                     [[[0]] + key_xy[0][1:]] + key_xy[1:]):
            for extra in ({}, {"flag": True}):
                path.write_text(json.dumps(
                    {**protocol_document(spec), **extra, "key_xy": rows}))
                with pytest.raises(MalformedTableError, match=re.escape(
                        f"{path}: key_xy is not rectangular")):
                    read_protocol(path)
    # every table fault names the file
    path.write_text(json.dumps({**protocol_document(spec), "rounds": 2}))
    with pytest.raises(MalformedTableError, match=re.escape(
            f"MALFORMED_TABLE: {path}: 3 slots for 2 rounds")):
        read_protocol(path)
    path.write_text(json.dumps([protocol_document(spec)]))
    with pytest.raises(InputFormatError,
                       match="top level must be a JSON object"):
        read_protocol(path)


def test_tables_the_reader_parsed_are_not_copied_again(tmp_path):
    """Each large table numpy's parser reads is the spec's table itself."""
    rng = rng_for(704)
    spec, _ = random_protocol(rng, (2, 2, 2), n=1, rounds=1)
    large = [[0]] * LARGE_TABLE_CHARS
    path = tmp_path / "proto.json"
    path.write_text(json.dumps({**protocol_document(spec), "key_xy": large,
                                "est_xz": large}))
    parsed, read_int_table = [], ioformats._read_int_table

    def read_table(match):
        parsed.append(read_int_table(match))
        return parsed[-1]

    with mock.patch.object(ioformats, "_read_int_table", read_table):
        back = read_protocol(path)
    assert len(parsed) == 2
    assert back.key_xy is parsed[0] and back.est_xz is parsed[1]
    assert back.key_xy.tolist() == large and not back.key_xy.flags.writeable


# -- report documents -------------------------------------------------------------------

def test_report_documents_validate(worked_source, bsc_source):
    """Each builder emits its schema's fields in order, also after a
    serialization round trip, with a null exact region or not."""
    cfg = {"seed": 42}
    for p in (worked_source, bsc_source):
        report = compute_report(p)
        for doc, schema in ((regions_document(report, cfg),
                             "pkregion-regions-v4"),
                            (check_document(report, cfg),
                             "pkregion-check-v4")):
            assert_report_fields(doc, schema)
            assert_report_fields(json.loads(dumps_deterministic(doc)),
                                 schema)


def test_check_document_derives_only_what_it_emits(worked_source,
                                                   bsc_source):
    """A check report reads the common function and the residual: the
    analysis behind it derives none of its other attributes."""
    for p in (worked_source, bsc_source):
        report = RegionReport(p)
        doc = check_document(report, {})
        assert doc["ci_residual"] == report.ci_residual
        derived = vars(report).keys()
        assert {"ci_residual", "thm4_holds"} <= derived
        assert not derived & {"entropies", "info_terms", "i_x_common",
                              "mss_y", "mss_z", "outer", "inner", "exact",
                              "gaps", "quantities"}


def test_evaluation_document_validates(square_source):
    from pkregion import ProtocolSpec
    identity = np.arange(4).reshape(4, 1)
    key = np.array([[2 * (a >> 1) + (b >> 1)] for a in range(4)
                    for b in range(4)]).reshape(16, 1)
    key2 = np.array([[2 * (a & 1) + (b & 1)] for a in range(4)
                     for b in range(4)]).reshape(16, 1)
    spec = ProtocolSpec(n=2, rounds=0, slots=(), key_xy=key, est_xy=identity,
                        key_xz=key2, est_xz=identity,
                        key_xy_size=4, key_xz_size=4)
    rep = evaluate_protocol(square_source, spec)
    doc = evaluation_document(rep, 0.0, (True, True), (1.0, 1.0), True, {})
    assert_report_fields(doc, "pkregion-evaluation-v2")
    assert_report_fields(json.loads(dumps_deterministic(doc)),
                         "pkregion-evaluation-v2")
    assert doc["eps_pk"] == {"xy": True, "xz": True}


def test_exact_entry_may_be_null(bsc_source):
    report = compute_report(bsc_source)
    doc = regions_document(report, {})
    assert doc["regions"]["exact"] is None
    assert_report_fields(doc, "pkregion-regions-v4")
    assert dumps_deterministic(doc).count('"exact": null') == 1


# -- atomic writes ---------------------------------------------------------------------

def test_write_atomic_writes_exact_bytes(tmp_path):
    path = tmp_path / "out.json"
    write_atomic(path, "{}\n")
    assert path.read_bytes() == b"{}\n"
    # UTF-8, with no line ending translated
    write_atomic(path, "\u00e9\r\n\n")
    assert path.read_bytes() == b"\xc3\xa9\r\n\n"
    write_atomic(path, '{"replaced": true}\n')
    assert json.loads(path.read_text()) == {"replaced": True}
    # no stray temporary files stay behind
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_atomic_gives_the_umask_mode(tmp_path):
    # the temp file is created 0o600; the report must not keep that mode
    path = tmp_path / "out.json"
    old = os.umask(0o022)
    try:
        write_atomic(path, "{}\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_write_atomic_failure_leaves_no_file(tmp_path):
    target = tmp_path / "missing_dir" / "out.json"
    with pytest.raises(OSError):
        write_atomic(target, "data")
    assert not target.exists()
    assert os.listdir(tmp_path) == []


def test_write_atomic_writes_the_whole_report_in_short_writes(tmp_path,
                                                              monkeypatch):
    """A write may take fewer bytes than it is given: every byte still
    reaches the file."""
    real_write = os.write
    monkeypatch.setattr(os, "write",
                        lambda fd, data: real_write(fd, bytes(data[:7])))
    path = tmp_path / "out.json"
    text = dumps_deterministic(pmf_document(worked_pmf()))
    write_atomic(path, text)
    assert path.read_bytes() == text.encode()
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_atomic_failed_write_names_the_target(tmp_path):
    """A write that fails part way (here at a 16-byte file size limit, in
    a child process) raises an OSError that names the target and leaves
    no temporary file."""
    pytest.importorskip("resource")
    package_root = os.path.dirname(os.path.dirname(ioformats.__file__))
    target = tmp_path / "out.json"
    script = """if True:
        import resource, signal, sys
        from pkregion.ioformats import write_atomic
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE,
                           (16, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
        try:
            write_atomic(sys.argv[1], "x" * 100)
        except OSError as exc:
            print(exc.filename)
    """
    proc = subprocess.run(
        [sys.executable, "-c", script, str(target)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": package_root})
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, f"{target}\n", "")
    assert os.listdir(tmp_path) == []
