import json
import os
import stat

import numpy as np
import pytest

from pkregion import compute_report, evaluate_protocol
from pkregion.errors import (
    InputFormatError, ShapeMismatchError, SumOutOfToleranceError,
)
from pkregion.ioformats import (
    check_document, dumps_deterministic, evaluation_document, pmf_document,
    protocol_document, read_pmf, read_protocol, regions_document,
    validate_report, write_atomic, _format_float,
)

from conftest import random_pmf, rng_for, worked_pmf
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
    doc = pmf_document(worked_pmf())
    doc["pmf"] = doc["pmf"][:-1]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(doc))
    with pytest.raises(ShapeMismatchError):
        read_pmf(short)
    doc = pmf_document(worked_pmf())
    doc["pmf"][0] += 0.25
    unnorm = tmp_path / "unnorm.json"
    unnorm.write_text(json.dumps(doc))
    with pytest.raises(SumOutOfToleranceError):
        read_pmf(unnorm)
    # a JSON boolean is no cardinality, though Python counts true as 1
    boolean = tmp_path / "boolean.json"
    boolean.write_text(json.dumps({
        "schema": "pkregion-pmf-v1", "variables": ["X", "Y", "Z"],
        "cardinalities": [True, 2, 2], "pmf": [0.25] * 4}))
    with pytest.raises(InputFormatError, match="cardinalities"):
        read_pmf(boolean)


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
    with pytest.raises(InputFormatError):
        read_protocol(path)


# -- report documents -------------------------------------------------------------------

def test_report_documents_validate(worked_source):
    report = compute_report(worked_source)
    cfg = {"seed": 42}
    regions = regions_document(report, cfg)
    check = check_document(report, cfg)
    assert validate_report(regions) == "pkregion-regions-v3"
    assert validate_report(check) == "pkregion-check-v3"
    # a serialization round trip must still validate
    assert validate_report(json.loads(dumps_deterministic(regions))) \
        == "pkregion-regions-v3"


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
    assert validate_report(doc) == "pkregion-evaluation-v1"
    assert doc["eps_pk"] == {"xy": True, "xz": True}


def test_validate_report_rejects_bad_documents(worked_source):
    with pytest.raises(InputFormatError):
        validate_report({"schema": "pkregion-unknown-v1"})
    with pytest.raises(InputFormatError):
        validate_report([1, 2, 3])
    report = compute_report(worked_source)
    doc = regions_document(report, {})
    del doc["gaps"]
    with pytest.raises(InputFormatError):
        validate_report(doc)
    doc = regions_document(report, {})
    doc["regions"]["outer"]["vertices"] = "oops"
    with pytest.raises(InputFormatError):
        validate_report(doc)


def test_exact_entry_may_be_null(bsc_source):
    report = compute_report(bsc_source)
    doc = regions_document(report, {})
    assert doc["regions"]["exact"] is None
    assert validate_report(doc) == "pkregion-regions-v3"


# -- atomic writes ---------------------------------------------------------------------

def test_write_atomic_writes_exact_bytes(tmp_path):
    path = tmp_path / "out.json"
    write_atomic(path, "{}\n")
    assert path.read_bytes() == b"{}\n"
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
