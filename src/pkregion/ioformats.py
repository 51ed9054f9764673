"""File formats: sources and protocols in, reports out.

Everything is JSON. Emission is deterministic — fixed key order, floats at
17 significant digits (round-trip exact), no timestamps — so identical
inputs and configuration produce byte-identical report files. Output goes
through a temp file and an atomic rename; failures leave no partial files.

Schema identifiers are embedded in every document and checked on read.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, fields

import numpy as np

from ._version import __version__
from .dist import DEFAULT_SUM_TOL, JointPmf, load_pmf
from .errors import InputFormatError
from .protocol import EvaluationReport, ProtocolSpec, SlotSpec
from .regions import RegionReport

__all__ = [
    "PMF_SCHEMA",
    "PROTOCOL_SCHEMA",
    "REGIONS_SCHEMA",
    "CHECK_SCHEMA",
    "EVALUATION_SCHEMA",
    "read_pmf",
    "read_protocol",
    "pmf_document",
    "protocol_document",
    "regions_document",
    "check_document",
    "evaluation_document",
    "validate_report",
    "dumps_deterministic",
    "write_atomic",
]

PMF_SCHEMA = "pkregion-pmf-v1"
PROTOCOL_SCHEMA = "pkregion-protocol-v1"
REGIONS_SCHEMA = "pkregion-regions-v3"
CHECK_SCHEMA = "pkregion-check-v3"
EVALUATION_SCHEMA = "pkregion-evaluation-v1"


# -- reading ------------------------------------------------------------------

def _load_json(path):
    """The parsed document and its text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text), text
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    # bad syntax, an integer too long to read, or nesting too deep to read
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"cannot parse {path} as JSON: {exc}") from exc


def _expect_schema(doc, schema, path):
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: top level must be a JSON object")
    found = doc.get("schema")
    if found != schema:
        raise InputFormatError(f"{path}: schema is {found!r}, expected {schema!r}")


def _field(doc, key, path):
    if key not in doc:
        raise InputFormatError(f"{path}: missing field {key!r}")
    return doc[key]


def _int_field(doc, key, path) -> int:
    value = _field(doc, key, path)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputFormatError(f"{path}: {key} must be an integer")
    return value


def read_pmf(path, sum_tol: float = DEFAULT_SUM_TOL) -> JointPmf:
    """Load a three-variable source distribution file.

    The pmf must be a flat list of JSON numbers: strings, booleans, null
    and nested lists are rejected, not coerced.
    """
    doc, _ = _load_json(path)
    _expect_schema(doc, PMF_SCHEMA, path)
    variables = _field(doc, "variables", path)
    cardinalities = _field(doc, "cardinalities", path)
    table = _field(doc, "pmf", path)
    if not isinstance(variables, list) or len(variables) != 3 \
            or not all(isinstance(v, str) for v in variables):
        raise InputFormatError(f"{path}: variables must be three names")
    if not isinstance(cardinalities, list) or len(cardinalities) != 3 \
            or not all(type(c) is int for c in cardinalities):
        raise InputFormatError(f"{path}: cardinalities must be three integers")
    # One pass over the entry types at C speed (~1.4 ms for 65 536 entries
    # on a 2-core x86 host); numpy's float conversion alone would parse
    # strings and turn booleans into 1.0/0.0.
    if not isinstance(table, list) \
            or not set(map(type, table)) <= {float, int}:
        raise InputFormatError(f"{path}: pmf must be a flat list of numbers")
    try:
        return load_pmf(table, variables, cardinalities, sum_tol=sum_tol)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def read_protocol(path) -> ProtocolSpec:
    """Load a protocol file; tables are validated on construction."""
    doc, text = _load_json(path)
    _expect_schema(doc, PROTOCOL_SCHEMA, path)
    # JSON booleans come only from true/false literals. A file without one
    # hands its tables over as arrays, which the constructors need not
    # type-check cell by cell; on the benchmark's 0.8 MB protocol that
    # check adds ~10 ms to a ~45 ms request. Each list is replaced by its
    # array, so a table is held once, not twice.
    has_bool_literal = "true" in text or "false" in text
    del text

    def table(obj, key):
        raw = _field(obj, key, path)
        if not has_bool_literal:
            raw = obj[key] = np.asarray(raw)
        return raw

    ints = {key: _int_field(doc, key, path)
            for key in ("n", "rounds", "key_xy_size", "key_xz_size")}
    slots_raw = _field(doc, "slots", path)
    if not isinstance(slots_raw, list):
        raise InputFormatError(f"{path}: slots must be a list")
    try:
        slots = []
        for i, entry in enumerate(slots_raw):
            if not isinstance(entry, dict) or "alphabet_size" not in entry \
                    or "table" not in entry:
                raise InputFormatError(
                    f"{path}: slot {i + 1} needs alphabet_size and table")
            slots.append(SlotSpec(_int_field(entry, "alphabet_size", path),
                                  table(entry, "table")))
        return ProtocolSpec(
            n=ints["n"],
            rounds=ints["rounds"],
            slots=tuple(slots),
            key_xy=table(doc, "key_xy"),
            est_xy=table(doc, "est_xy"),
            key_xz=table(doc, "key_xz"),
            est_xz=table(doc, "est_xz"),
            key_xy_size=ints["key_xy_size"],
            key_xz_size=ints["key_xz_size"],
        )
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


# -- document builders ---------------------------------------------------------

def pmf_document(p: JointPmf) -> dict:
    return {
        "schema": PMF_SCHEMA,
        "variables": list(p.variables),
        "cardinalities": list(p.cardinalities),
        "pmf": p.probs.reshape(-1).tolist(),
    }


def protocol_document(spec: ProtocolSpec) -> dict:
    return {
        "schema": PROTOCOL_SCHEMA,
        "n": spec.n,
        "rounds": spec.rounds,
        "slots": [{"alphabet_size": s.alphabet_size, "table": s.table.tolist()}
                  for s in spec.slots],
        "key_xy_size": spec.key_xy_size,
        "key_xz_size": spec.key_xz_size,
        "key_xy": spec.key_xy.tolist(),
        "est_xy": spec.est_xy.tolist(),
        "key_xz": spec.key_xz.tolist(),
        "est_xz": spec.est_xz.tolist(),
    }


def _tool_entry() -> dict:
    return {"name": "pkregion", "version": __version__}


def _region_entry(region):
    if region is None:
        return None
    return {
        "provenance": region.provenance,
        "cap_xy": region.cap_xy,
        "cap_xz": region.cap_xz,
        "cap_sum": region.cap_sum,
        "vertices": [list(v) for v in region.vertices],
    }


def regions_document(report: RegionReport, config: dict) -> dict:
    return {
        "schema": REGIONS_SCHEMA,
        "tool": _tool_entry(),
        "config": dict(config),
        "quantities": dict(report.quantities),
        "mcf_components": report.components,
        "det_correlated": report.thm4_holds,
        "ci_residual": report.ci_residual,
        "regions": {
            "outer": _region_entry(report.outer),
            "inner": _region_entry(report.inner),
            "exact": _region_entry(report.exact),
        },
        "gaps": {"area": report.area_gap, "hausdorff": report.hausdorff_gap},
    }


def check_document(report: RegionReport, config: dict) -> dict:
    return {
        "schema": CHECK_SCHEMA,
        "tool": _tool_entry(),
        "config": dict(config),
        "mcf_components": report.components,
        "det_correlated": report.thm4_holds,
        "ci_residual": report.ci_residual,
    }


def evaluation_document(report: EvaluationReport, eps: float, eps_pk,
                        point, in_outer: bool, config: dict) -> dict:
    return {
        "schema": EVALUATION_SCHEMA,
        "tool": _tool_entry(),
        "config": dict(config),
        "evaluation": asdict(report),
        "eps": float(eps),
        "eps_pk": {"xy": bool(eps_pk[0]), "xz": bool(eps_pk[1])},
        "rate_point": [point[0], point[1]],
        "in_outer_region": bool(in_outer),
    }


# -- report validation ----------------------------------------------------------

_REQUIRED_KEYS = {
    REGIONS_SCHEMA: frozenset({
        "schema", "tool", "config", "quantities", "mcf_components",
        "det_correlated", "ci_residual", "regions", "gaps",
    }),
    CHECK_SCHEMA: frozenset({
        "schema", "tool", "config", "mcf_components", "det_correlated",
        "ci_residual",
    }),
    EVALUATION_SCHEMA: frozenset({
        "schema", "tool", "config", "evaluation", "eps", "eps_pk",
        "rate_point", "in_outer_region",
    }),
}

_EVALUATION_FIELDS = tuple(field.name for field in fields(EvaluationReport))


def _check_region_entry(entry, slot):
    if entry is None:
        if slot == "exact":
            return
        raise InputFormatError(f"region {slot!r} must be present")
    if not isinstance(entry, dict):
        raise InputFormatError(f"region {slot!r} must be an object")
    for key in ("provenance", "cap_xy", "cap_xz", "cap_sum", "vertices"):
        if key not in entry:
            raise InputFormatError(f"region {slot!r} is missing {key!r}")
    vertices = entry["vertices"]
    if not isinstance(vertices, list) or not vertices or not all(
            isinstance(v, list) and len(v) == 2 for v in vertices):
        raise InputFormatError(f"region {slot!r} vertices must be [r1, r2] pairs")


def validate_report(doc) -> str:
    """Check a parsed report against its declared schema; returns the schema.

    Raises
    ------
    InputFormatError
        On an unknown schema string, missing fields, or malformed entries.
    """
    if not isinstance(doc, dict):
        raise InputFormatError("a report must be a JSON object")
    schema = doc.get("schema")
    if schema not in _REQUIRED_KEYS:
        raise InputFormatError(f"unknown report schema {schema!r}")
    missing = _REQUIRED_KEYS[schema] - doc.keys()
    if missing:
        raise InputFormatError(f"report is missing fields {sorted(missing)}")
    tool = doc["tool"]
    if not isinstance(tool, dict) or "name" not in tool or "version" not in tool:
        raise InputFormatError("tool entry must carry name and version")
    if schema == REGIONS_SCHEMA:
        regions = doc["regions"]
        if not isinstance(regions, dict):
            raise InputFormatError("regions must be an object")
        for slot in ("outer", "inner", "exact"):
            _check_region_entry(regions.get(slot), slot)
    if schema == EVALUATION_SCHEMA:
        ev = doc["evaluation"]
        if not isinstance(ev, dict):
            raise InputFormatError("evaluation must be an object")
        for key in _EVALUATION_FIELDS:
            if not isinstance(ev.get(key), (int, float)):
                raise InputFormatError(f"evaluation field {key!r} must be a number")
    return schema


# -- deterministic emission ------------------------------------------------------

def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {v!r}")
    text = format(v, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _emit(value, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = (f"{pad}  {json.dumps(str(k))}: {_emit(v, indent + 1)}"
                for k, v in value.items())
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in items):
            return "[" + ", ".join(_emit(v, indent) for v in items) + "]"
        rows = (f"{pad}  {_emit(v, indent + 1)}" for v in items)
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_deterministic(doc) -> str:
    """Serialize a document to byte-reproducible JSON text."""
    return _emit(doc, 0) + "\n"


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a same-directory temp file.

    The file gets the mode a plain ``open`` would give it, 0o666 less the
    umask, not the 0o600 of the temp file. A failure is raised as an
    :class:`OSError` that names ``path``, not the temp file, whose name is
    random, and leaves no file behind.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pkregion-",
                                   suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        # setting the umask is the portable way to read it; restore at once
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
