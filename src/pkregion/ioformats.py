"""File formats: sources and protocols in, reports out.

Everything is JSON. Emission is deterministic — fixed key order, floats at
17 significant digits (round-trip exact), no timestamps — so identical
inputs and configuration produce byte-identical report files. Output goes
through a temp file and an atomic rename; failures leave no partial files.

Schema identifiers are embedded in every document and checked on read.

An input file is read once, as bytes. Number tables whose text has at
least ``LARGE_TABLE_CHARS`` (2048) characters are found and parsed on those
bytes by C parsers into arrays: a protocol file's 2-D tables of plain
integers by numpy's integer parser, a pmf file's flat number list by orjson,
in pieces of about 64 KiB. On floats at 17 digits the list reader overtakes
json at 1200-1600 characters, so 2048 (about 80 numbers) is just past that.
Only the rest of the file, the text json reads, is decoded. The scan that
finds the tables does not know strings or constants: json decides those,
and a file where a table found could lie in a string, or that holds a
constant of its own, goes through json alone. So does any other valid
layout of the same tables, a file with no large table, a file that is not
UTF-8 and one whose rest json refuses: json then reads the whole text, as
the file opened as text gives it, so each reads to the same result, bit for
bit, and fails with the same errors as before.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from dataclasses import fields
from itertools import chain

import numpy as np

from ._version import __version__
from .dist import DEFAULT_SUM_TOL, JointPmf, load_pmf
from .errors import InputFormatError, MalformedTableError, PkRegionError
from .protocol import EvaluationReport, ProtocolSpec, SlotSpec, _Owned, \
    check_eps_pk, rate_point
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
    "dumps_deterministic",
    "write_atomic",
]

PMF_SCHEMA = "pkregion-pmf-v1"
PROTOCOL_SCHEMA = "pkregion-protocol-v1"
REGIONS_SCHEMA = "pkregion-regions-v4"
CHECK_SCHEMA = "pkregion-check-v4"
EVALUATION_SCHEMA = "pkregion-evaluation-v2"


# -- reading ------------------------------------------------------------------

def _read_bytes(path) -> bytes:
    """The file's bytes."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _load_json(data, path, starts, closing, read_table, key=None):
    """The document of the file ``path`` whose bytes are ``data``, parsed
    as ``_parse_tables`` does, and the text json read."""
    try:
        return _parse_tables(data, starts, closing, read_table, key)
    # bad syntax, bytes that are not UTF-8, an integer too long to read, or
    # nesting too deep to read
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"cannot parse {path} as JSON: {exc}") from exc


# A number table whose text is at least this long is read by a C parser into
# an array: a 2-D table of plain integers by numpy's integer parser, a flat
# list of numbers by orjson. json would build a Python object per entry, then
# numpy would read those. Shorter tables are left to json, whose single pass
# costs less than the scan and the C parser's set-up. Measured on pmf files
# of %.17e floats (25 characters a number, 2-core x86 host), read_pmf with
# the list reader and with json alone break even at 1200-1600 characters
# (48-64 numbers); at 2000 the list reader is 5-12% faster, at 12 800 (512
# numbers) 45-50%. Integer tables keep the same threshold. A table read is
# ASCII, so its bytes are its characters.
LARGE_TABLE_CHARS = 2048

# One pass over a file's bytes finds the starts of candidate tables: in a
# protocol a [[, in a pmf a [ whose first token starts like a number. It
# knows no strings and no constants; json decides those (see _parse_tables).
# A candidate runs to the next ]] or ], found by a search for that literal
# at C speed: a pattern that walks each character of the table through a
# class costs 2.0 ms on a 1.6 MB pmf list and 2.1-2.5 ms on a 0.8 MB
# protocol. The pass goes on past that end whether or not the table was
# read, so it stays linear; whatever a candidate holds is left to json. No
# byte of a multi-byte UTF-8 character is ASCII, so the pass finds on the
# bytes what it would find on the text.
_PROTOCOL_STARTS = re.compile(rb"\[[ \t\n\r]*\[")
_PMF_STARTS = re.compile(rb"\[[ \t\n\r]*[-0-9]")
_TABLE_CLOSING = re.compile(rb"\][ \t\n\r]*\]")
# A reader is given the file's bytes and a candidate's span in them, (data,
# start, end): it cuts only what it parses from data, so the whole table is
# never copied.


def _table_closing(data, pos):
    """The end of the first ]] at or after ``pos``, or None."""
    found = _TABLE_CLOSING.search(data, pos)
    return found and found.end()


def _list_closing(data, pos):
    """The end of the first ] at or after ``pos``, or None."""
    at = data.find(b"]", pos)
    return at + 1 if at >= 0 else None


# loadtxt strips the spaces left around each field
_ROW_BREAK = re.compile(r"\] *, *\[")
_BLANKS_TO_SPACE = bytes.maketrans(b"\t\n\r", b"   ")
# orjson reads a float list in pieces of about this many characters, cut at
# commas. On a 1.6 MB pmf the pieces keep read_pmf's traced peak at the 3.3 MB
# that reading the file takes; the whole list at once peaks at 5.9 MB, json
# at 3.8 MB.
_PIECE_CHARS = 1 << 16


def _read_int_table(data, start, end):
    """The int64 array of the table ``data[start:end]``, or None for json.

    None when a byte is not ASCII, a row is ragged or empty, a field is not
    a plain integer below 2**63, a cell is an array, there is no digit at
    all, or a number has a leading zero, which loadtxt reads and json
    refuses: the text then holds more digits than the shortest rendering of
    the values.
    """
    # the rows: what lies between the span's inner [ and ], cut from the
    # file's bytes and translated; then decoded, and split into rows
    body = data[data.index(b"[", start + 1) + 1:
                data.rindex(b"]", start, end - 1)].translate(_BLANKS_TO_SPACE)
    # loadtxt would warn on an input with no data
    if not body.isascii() or not body.strip(b", []"):
        return None
    rows = _ROW_BREAK.split(body.decode("ascii"))
    try:
        # numpy before 2.0 reads an integer past int64 through a float and
        # warns; as an error, the warning makes loadtxt raise ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(rows, dtype=np.int64, delimiter=",",
                               comments=None, ndmin=2)
    except ValueError:
        return None
    if len(table) != len(rows):  # loadtxt skips an empty row
        return None
    # Read whole, the body holds table.size - 1 commas, two brackets per
    # row break, spaces, and digits.
    digits = (len(body) - body.count(b" ") - (table.size - 1)
              - 2 * (len(rows) - 1))
    shortest = table.size + sum(
        np.count_nonzero(table >= 10 ** k)
        for k in range(1, len(str(table.max()))))
    return table if digits == shortest else None


def _read_float_list(data, start, end):
    """The float64 array of the list ``data[start:end]``, or None for json.

    orjson rounds each number correctly, as json does. None when the list
    holds a byte that starts a JSON value other than a number (``"tfn[{``:
    a string, ``true``, ``false``, ``null``, a list or an object), or a
    piece does not parse (a misplaced comma or sign, a leading zero, a
    number past the float range, ``NaN``, a byte past ASCII) or is empty (a
    trailing comma). What parses is then numbers only, which numpy takes
    from orjson's floats and ints into one growing array, piece by piece.
    """
    # imported here: at the top, its ~5 ms import would slow every run
    import orjson

    # the pieces are cut from the file's bytes, inside the brackets: a copy
    # of the whole list would add its size to the peak
    start, end = start + 1, end - 1
    if any(data.find(c, start, end) >= 0 for c in b'"tfn[{'):
        return None

    def pieces(start):
        while True:
            cut = data.find(b",", start + _PIECE_CHARS, end)
            cut = end if cut < 0 else cut
            piece = orjson.loads(b"[" + data[start:cut] + b"]")
            if not piece:
                raise ValueError("empty piece")
            yield piece
            if cut == end:
                return
            start = cut + 1

    try:
        return np.fromiter(chain.from_iterable(pieces(start)), np.float64)
    except ValueError:  # orjson's errors are ValueErrors too
        return None


def _parse_tables(data, starts, closing, read_table, key=None):
    """``json.loads`` of the text ``data`` holds, with each large table that
    ``starts`` begins, ``closing`` ends and ``read_table`` reads from its
    span as an array, and the text json read.

    Tables are found and read on the bytes, and only the rest of the file
    is decoded. Each table read is replaced by ``-Infinity`` and handed back
    in file order through ``parse_constant``. The pass does not know
    strings, so a placeholder may lie inside one, and json checks that none
    does: the text it reads must hold no ``NaN`` and no ``Infinity`` that is
    not a placeholder, and every placeholder must come back. With ``key``
    given, the table read must be the document's value of ``key``. When a
    check fails, the rest is not UTF-8 (the error's offset would not be the
    file's) or does not parse, or its schema is not a string (the schema
    check quotes it), json parses the whole file's text, as
    ``open(path, encoding="utf-8")`` reads it, so values and errors read
    exactly as json's.
    """
    if len(data) >= LARGE_TABLE_CHARS:
        tables, pieces, end, pos = [], [], 0, 0
        while match := starts.search(data, pos):
            start, pos = match.start(), closing(data, match.end())
            if pos is None:
                break
            if pos - start >= LARGE_TABLE_CHARS and (table := read_table(
                    data, start, pos)) is not None:
                pieces += (data[end:start], b"-Infinity")
                end = pos
                tables.append(table)
        if tables:
            pieces.append(data[end:])
            rest = b"".join(pieces)
            placeholders = iter(tables)
            doc = None
            if rest.count(b"Infinity") == len(tables) and b"NaN" not in rest:
                try:
                    rest = rest.decode("utf-8")
                    doc = json.loads(
                        rest, parse_constant=lambda _: next(placeholders))
                except (ValueError, RecursionError):
                    pass
            if next(placeholders, None) is None and isinstance(doc, dict) \
                    and isinstance(doc.get("schema"), str) and (
                        key is None
                        or len(tables) == 1 and doc.get(key) is tables[0]):
                return doc, rest
    # decoded with universal newlines, as a file opened as text; looking
    # for a CR first spares two replaces that take 1.7 ms on a 1.6 MB file
    # holding none
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text), text


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


def read_pmf(path, sum_tol: float = DEFAULT_SUM_TOL) -> JointPmf:
    """Load a three-variable source distribution file.

    The pmf must be a flat list of JSON numbers: strings, booleans, null
    and nested lists are rejected, not coerced. A pmf list whose text has
    at least ``LARGE_TABLE_CHARS`` characters is read by orjson, the rest
    of the file by json; a file where another field holds such a list is
    read by json alone. Both give the same bits and the same errors, and
    every error names the file.
    """
    return _parse_pmf(_read_bytes(path), path, sum_tol)


def _parse_pmf(data, path, sum_tol) -> JointPmf:
    """:func:`read_pmf` of the file ``path`` whose bytes are ``data``."""
    doc = _load_json(data, path, _PMF_STARTS, _list_closing,
                     _read_float_list, "pmf")[0]
    del data  # read_pmf's bytes, freed before the table is checked and copied
    _expect_schema(doc, PMF_SCHEMA, path)
    variables = _field(doc, "variables", path)
    cardinalities = _field(doc, "cardinalities", path)
    table = _field(doc, "pmf", path)
    if not isinstance(variables, list) or len(variables) != 3 \
            or not all(isinstance(v, str) for v in variables):
        raise InputFormatError(f"{path}: variables must be three names")
    if not isinstance(cardinalities, list) or len(cardinalities) != 3:
        raise InputFormatError(f"{path}: cardinalities must be three integers")
    # A large list arrives as a float array, already checked. For a list
    # json read, one pass over the entry types at C speed (~1.4 ms for
    # 65 536 entries on a 2-core x86 host); numpy's float conversion alone
    # would parse strings and turn booleans into 1.0/0.0. Passed as a float
    # array, the checked list is not typed again.
    if not isinstance(table, np.ndarray) and not (
            isinstance(table, list) and set(map(type, table)) <= {float, int}):
        raise InputFormatError(f"{path}: pmf must be a flat list of numbers")
    try:
        return load_pmf(np.asarray(table, dtype=np.float64), variables,
                        cardinalities, sum_tol=sum_tol)
    except PkRegionError as exc:
        raise type(exc)(f"{path}: {exc.message}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _as_json(value):
    """``value`` as json gives it: a table read as an array, as its list.
    A table given where an integer or the slots belong is then refused as
    json's list."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def read_protocol(path) -> ProtocolSpec:
    """Load a protocol file; tables are validated on construction.

    A 2-D table of plain integers whose text has at least
    ``LARGE_TABLE_CHARS`` characters is read by numpy's integer parser;
    every other value by json. Both give the same tables and the same
    errors, and every error names the file.
    """
    doc, text = _load_json(_read_bytes(path), path, _PROTOCOL_STARTS,
                           _table_closing, _read_int_table)
    _expect_schema(doc, PROTOCOL_SCHEMA, path)
    # JSON booleans come only from true/false literals, which the text
    # numpy read cannot hold. A file without one hands the tables json read
    # over as arrays, which the constructors need not type-check cell by
    # cell: 36 us for a 128 x 1 table against 26 us for its array (2-core
    # x86 host), some 40 us of a ~2 ms zero-round simulate-oneway request
    # with four key tables. Each list is replaced by its array: a table is
    # held once, not twice; the reader owns every array, none is copied.
    has_bool_literal = "true" in text or "false" in text
    del text

    def table(obj, key):
        raw = _field(obj, key, path)
        if isinstance(raw, np.ndarray) or not has_bool_literal:
            try:
                raw = obj[key] = _Owned(np.asarray(raw))
            except ValueError:  # ragged: the constructor names the table
                pass
        return raw

    # checked by the constructors; read first, so a missing one is reported
    ints = {key: _as_json(_field(doc, key, path))
            for key in ("n", "rounds", "key_xy_size", "key_xz_size")}
    slots_raw = _as_json(_field(doc, "slots", path))
    if not isinstance(slots_raw, list):
        raise InputFormatError(f"{path}: slots must be a list")
    try:
        slots = []
        for i, entry in enumerate(slots_raw):
            if not isinstance(entry, dict) or "alphabet_size" not in entry \
                    or "table" not in entry:
                raise InputFormatError(
                    f"{path}: slot {i + 1} needs alphabet_size and table")
            slots.append(SlotSpec(_as_json(entry["alphabet_size"]),
                                  table(entry, "table")))
        return ProtocolSpec(
            slots=tuple(slots),
            key_xy=table(doc, "key_xy"),
            est_xy=table(doc, "est_xy"),
            key_xz=table(doc, "key_xz"),
            est_xz=table(doc, "est_xz"),
            **ints,
        )
    except MalformedTableError as exc:
        raise MalformedTableError(f"{path}: {exc.message}") from exc
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


def _head(schema, config) -> dict:
    """The fields every report opens with."""
    return {"schema": schema,
            "tool": {"name": "pkregion", "version": __version__},
            "config": dict(config)}


def _region(region) -> dict | None:
    return None if region is None else {
        "provenance": region.provenance,
        "cap_xy": region.cap_xy,
        "cap_xz": region.cap_xz,
        "cap_sum": region.cap_sum,
        "vertices": [list(v) for v in region.vertices],
    }


def _tightness(report: RegionReport) -> dict:
    """The tightness fields: they read the common function and residual only."""
    return {"mcf_components": report.components,
            "det_correlated": report.thm4_holds,
            "ci_residual": report.ci_residual}


def regions_document(report: RegionReport, config: dict) -> dict:
    return {
        **_head(REGIONS_SCHEMA, config),
        "quantities": dict(report.quantities),
        **_tightness(report),
        "regions": {
            "outer": _region(report.outer),
            "inner": _region(report.inner),
            "exact": _region(report.exact),
        },
        "gaps": {"area": report.area_gap, "hausdorff": report.hausdorff_gap},
    }


def check_document(report: RegionReport, config: dict) -> dict:
    return {**_head(CHECK_SCHEMA, config), **_tightness(report)}


def evaluation_document(report: EvaluationReport, in_outer: bool,
                        config: dict) -> dict:
    """The ε-verdicts at ``config["eps"]`` and the rate point are derived
    from ``report``; ``in_outer`` needs the source, so the caller gives it."""
    eps = float(config["eps"])
    xy_ok, xz_ok = check_eps_pk(report, eps)
    return {
        **_head(EVALUATION_SCHEMA, config),
        "evaluation": {f.name: getattr(report, f.name) for f in fields(report)},
        "eps": eps,
        "eps_pk": {"xy": bool(xy_ok), "xz": bool(xz_ok)},
        "rate_point": list(rate_point(report)),
        "in_outer_region": bool(in_outer),
    }


# -- deterministic emission ------------------------------------------------------

# json.dumps quotes a str with this function
_quote = json.encoder.encode_basestring_ascii
_CONTAINERS = (dict, list, tuple, np.ndarray)


def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {v!r}")
    text = format(v, ".17g")
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def _scalar(value) -> str:
    """The text of a value that is not a container."""
    # exact float and str first: they are nearly every value of a report
    if type(value) is float:
        return _format_float(value)
    if type(value) is str:
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return _quote(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(value, pad: str, out: list) -> None:
    """Append the text of ``value`` to ``out``; ``pad`` is the indent of
    the line it starts on, and its members go two spaces deeper."""
    if not isinstance(value, _CONTAINERS):
        out.append(_scalar(value))
        return
    if isinstance(value, np.ndarray):
        value = value.tolist()
        if not isinstance(value, list):  # a 0-d array
            raise TypeError(f"cannot serialize {type(value).__name__}")
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{\n"
        for key, item in value.items():
            out += (sep, inner, _quote(str(key)), ": ")
            _emit(item, inner, out)
            sep = ",\n"
        out += ("\n", pad, "}")
    elif not value:
        out.append("[]")
    elif not any(isinstance(item, _CONTAINERS) for item in value):
        out += ("[", ", ".join(map(_scalar, value)), "]")
    else:
        sep = "[\n"
        for item in value:
            out += (sep, inner)
            _emit(item, inner, out)
            sep = ",\n"
        out += ("\n", pad, "]")


def dumps_deterministic(doc) -> str:
    """Serialize a document to byte-reproducible JSON text.

    Two-space indent, one member per line; a list of scalars on one line,
    joined by ``", "``; keys and strings escaped to ASCII as json does;
    floats at 17 significant digits, with ``.0`` on integral values.
    """
    out = []
    _emit(doc, "", out)
    out.append("\n")
    return "".join(out)


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a same-directory temp file.

    The file gets the mode a plain ``open`` would give it, 0o666 less the
    umask: the temp file is created with that mode by the kernel, so the
    process umask is never changed. A failure is raised as an
    :class:`OSError` that names ``path``, not the temp file, whose name is
    random, and leaves no file behind.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        name = os.path.join(directory, f".pkregion-{os.urandom(8).hex()}.tmp")
        # O_EXCL: an existing file of that name is never written through;
        # O_BINARY (Windows only) keeps the C runtime from adding CRs
        fd = os.open(name, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                     | getattr(os, "O_BINARY", 0), 0o666)
        tmp = name
        # written straight to the descriptor: a file object would add a
        # buffer and an fstat call to every report
        try:
            data = memoryview(text.encode("utf-8"))
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
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
