"""Layouts, malformed variants and encodings of pkregion's input files.

Each is defined here once and run twice: against json by the agreement
tests in ``test_properties.py``, on drawn documents in every layout, and
tree against tree by ``tools/compare.py``, on a pmf and a protocol of the
benchmark workloads. A layout writes a document as text. A variant changes
one number or cell of a file's large list or table, that list or table, a
field ahead of it, or the whole file. A refused file is a file's bytes in
a form json refuses on the file opened as text. Every function is pure
text, and nothing from pkregion is imported, so that compare.py builds its
corpus without either tree.
"""

import json
import re

KEY_TABLES = ("key_xy", "est_xy", "key_xz", "est_xz")
_BLANKS = "[ \t\n\r]*"
_SPACED = {ord(c): f" \t{c}\r\n " for c in "[]{},:"}


# -- layouts ---------------------------------------------------------------------

def fixed_width_text(doc):
    """A table row per line, each integer right-aligned to the widest of its
    table, as the benchmark generator writes protocols."""
    def rows(table):
        # the widest integer is the largest or the most negative
        width = max(len(str(f(map(f, table)))) for f in (min, max))
        cell = f"%{width}d"
        return "[" + ",\n".join(
            "[" + ",".join(map(cell.__mod__, row)) + "]"
            for row in table) + "]"
    return "{" + ",\n".join(
        f"{json.dumps(key)}: {rows(v) if key in KEY_TABLES else json.dumps(v)}"
        for key, v in doc.items()) + "}\n"


def spaced_text(doc):
    """Tabs, carriage returns and spaces around every token."""
    return json.dumps(doc, separators=(",", ":")).translate(_SPACED)


def crlf_text(doc):
    """Two-space indent, each line ended by CR LF: the file opened as text
    reads LF alone, and json counts lines and characters in that text."""
    return json.dumps(doc, indent=2).replace("\n", "\r\n")


def cr_text(doc):
    """The fixed-width layout, broken after every ``", "`` as well, each
    line ended by a lone CR, which the file opened as text reads as LF."""
    return fixed_width_text(doc).replace(", ", ",\n").replace("\n", "\r")


def non_ascii_text(doc):
    """A string past ASCII ahead of every table: json counts characters,
    the scan bytes."""
    return json.dumps({"note": "Zürich, 北京 ✓", **doc}, ensure_ascii=False)


def fixed_format_text(doc):
    """Each probability at ``%.17e``: the benchmark generator's pmf layout."""
    values = ", ".join("%.17e" % v for v in doc["pmf"])
    return json.dumps({**doc, "pmf": None}).replace("null", f"[{values}]")


LAYOUTS = {"compact": json.dumps,
           "indent=2": lambda doc: json.dumps(doc, indent=2),
           "fixed width": fixed_width_text, "spaced": spaced_text,
           "CRLF": crlf_text, "lone CR": cr_text, "non-ASCII": non_ascii_text}
PMF_LAYOUTS = {**LAYOUTS, "%.17e": fixed_format_text}


# -- where a variant changes the text --------------------------------------------

def table_span(text, key):
    """Start and end of the 2-D table stored under ``key``."""
    start = text.index("[", text.index(json.dumps(key)))
    return start, re.compile(r"\][ \t\n\r]*\]").search(text, start).end()


def list_span(text):
    """Start and end of the pmf list."""
    start = text.index("[", text.index('"pmf"'))
    return start, text.index("]", start) + 1


def ahead(text, field):
    """``text`` with ``field`` put first in its top-level object."""
    opening = text.index("{") + 1
    return text[:opening] + field + ", " + text[opening:]


def ahead_of(text, key, field):
    """``text`` with ``field`` put just ahead of the one named ``key``."""
    at = text.index(json.dumps(key))
    return text[:at] + field + ", " + text[at:]


def setting(key, value):
    """The variant that sets the first integer field ``key`` to ``value``."""
    field = re.compile(rf'"{key}"{_BLANKS}:{_BLANKS}[0-9]+')
    return lambda text: field.sub(f'"{key}": {value}', text, count=1)


# -- variants of both kinds of file ----------------------------------------------

# A field put just ahead of the large table, which json reads but the scan,
# knowing no strings and no constants, could misread; the file then goes to
# json whole. A [[ or [0 in a string starts a candidate that runs into the
# table after it, which must still read as json reads it.
FIELDS_AHEAD = {
    "Infinity in a string": '"note": "Infinity"',
    "NaN in a string": '"note": "NaN"',
    "-Infinity in an unknown field": '"extra": -Infinity',
    "[[ in a string": '"note": "[["',
    "[0 in a string": '"note": "[0"',
}
# a table given where an integer belongs, past the large-table threshold
LARGE_TABLE = json.dumps([[0] * 8] * 300)


def truncated(text):
    return text[:len(text) // 2]


def middle(n):
    """The middle one of n cells or numbers: the one compare.py changes."""
    return n // 2


# -- protocol files --------------------------------------------------------------

# a cell's text -> its replacement
CELL_MUTATIONS = {
    "leading zero": lambda v: "0" + v,
    "minus": lambda v: "-" + v,
    "plus": lambda v: "+" + v,
    "-1": lambda v: "-1",
    "99": lambda v: "99",
    "2**63-1": lambda v: str(2 ** 63 - 1),
    "2**63": lambda v: str(2 ** 63),
    "2**64": lambda v: str(2 ** 64),
    "1.0": lambda v: "1.0",
    "1e0": lambda v: "1e0",
    "true": lambda v: "true",
    "null": lambda v: "null",
    "string": lambda v: '"1"',
    "empty cell": lambda v: "[]",
    "3-D cell": lambda v: "[1, 2]",
    "NaN": lambda v: "NaN",
    "Arabic-Indic digit": lambda v: "\u0661",
    "trailing no-break space": lambda v: v + "\u00a0",
}
TABLE_MUTATIONS = ("empty row", "ragged row", "trailing comma",
                   "missing comma", "table in a string", "empty rows only",
                   "table nested once more", "closing ]] removed",
                   "ragged row, true field", "true and 1.0 cells",
                   "[true] and [0.0] rows")
# name -> the whole file changed, whatever table is the target
PROTOCOL_FILE_MUTATIONS = {
    "truncated file": truncated,
    "true field": lambda text: ahead(text, '"flag": true'),
    "n NaN": setting("n", "NaN"),
    "n 2.5": setting("n", "2.5"),
    "n true": setting("n", "true"),
    "n as a large table": setting("n", LARGE_TABLE),
    "key_xy_size 0": setting("key_xy_size", "0"),
    "slots for another round count": setting("rounds", "2"),
    "slot 1 alphabet_size true": setting("alphabet_size", "true"),
    "slot 1 alphabet_size as a large table": setting(
        "alphabet_size", LARGE_TABLE),
    # the slots are built first, so the slot is reported
    "n 2.5, slot 1 alphabet_size true": lambda text: setting(
        "alphabet_size", "true")(setting("n", "2.5")(text)),
}
PROTOCOL_VARIANTS = (*CELL_MUTATIONS, *TABLE_MUTATIONS,
                     *PROTOCOL_FILE_MUTATIONS, *FIELDS_AHEAD)


def protocol_variant(text, key, name, pick):
    """``text`` with the variant ``name`` made in, or around, the table
    stored under ``key``; ``pick(n)`` chooses which of n cells changes."""
    if name in FIELDS_AHEAD:
        return ahead_of(text, key, FIELDS_AHEAD[name])
    if name in PROTOCOL_FILE_MUTATIONS:
        return PROTOCOL_FILE_MUTATIONS[name](text)
    if name == "ragged row, true field":
        return PROTOCOL_FILE_MUTATIONS["true field"](
            protocol_variant(text, key, "ragged row", pick))
    if name == "table in a string":
        # another table's text, in a string ahead of every table
        other = text[slice(*table_span(
            text, KEY_TABLES[(KEY_TABLES.index(key) + 1) % 4]))]
        return ahead(text, f'"note": {json.dumps(other)}')
    start, end = table_span(text, key)
    table = text[start:end]
    row_end = table.index("]")
    if name in CELL_MUTATIONS or name == "true and 1.0 cells":
        cells = list(re.finditer(r"[0-9]+", table))
        i = pick(len(cells))
        if name in CELL_MUTATIONS:
            changes = {i: CELL_MUTATIONS[name](cells[i].group())}
        else:  # numpy reads these as floats; true must not become 1
            changes = {0: "true", max(i, 1): "1.0"}
        for i, change in sorted(changes.items(), reverse=True):
            table = table[:cells[i].start()] + change + table[cells[i].end():]
    elif name == "[true] and [0.0] rows":
        rows = re.findall(r"\[[^\[\]]*\]", table[1:-1])
        table = "[" + ", ".join(["[true]", "[0.0]"] + rows[2:]) + "]"
    elif name == "empty row":
        table = table[:1] + "[]," + table[1:]
    elif name == "empty rows only":  # as long as the table it replaces
        table = "[" + ", ".join(["[]"] * (len(table) // 4 + 1)) + "]"
    elif name in ("ragged row", "trailing comma"):
        table = (table[:row_end] + (",0" if name == "ragged row" else ",")
                 + table[row_end:])
    elif name == "missing comma":
        table = table.replace(",", " ", 1)
    elif name == "table nested once more":
        table = f"[{table}]"
    elif name == "closing ]] removed":
        table = table[:-2]
    return text[:start] + table + text[end:]


# -- pmf files -------------------------------------------------------------------

# a number's text -> its replacement
NUMBER_MUTATIONS = {
    "NaN": lambda v: "NaN",
    "Infinity": lambda v: "Infinity",
    "-Infinity": lambda v: "-Infinity",
    "true": lambda v: "true",
    "false": lambda v: "false",
    "null": lambda v: "null",
    "string": lambda v: json.dumps(v),
    "string holding ]": lambda v: '"]"',
    "nested list": lambda v: f"[{v}]",
    "object": lambda v: "{}",
    "01": lambda v: "01",
    "1.": lambda v: "1.",
    ".5": lambda v: ".5",
    "+1": lambda v: "+1",
    "10**400": lambda v: str(10 ** 400),
    "1e400": lambda v: "1e400",
    "1.7976931348623159e308": lambda v: "1.7976931348623159e308",
    "Arabic-Indic digit": lambda v: "\u0661" + v[1:],
    "trailing no-break space": lambda v: v + "\u00a0",
}
EXTRA_LIST_MUTATIONS = ("NaN in a short list", "NaN in a long list",
                        "schema string after a short list",
                        "schema string after a long list")
LIST_MUTATIONS = ("trailing comma", "tab after [", "] removed", "empty list",
                  "short empty list", "second pmf key", "list in a string",
                  "list as schema", "bare list", *EXTRA_LIST_MUTATIONS)
# name -> the whole file changed
PMF_FILE_MUTATIONS = {
    "truncated file": truncated,
    **{f"cardinalities [{bad}, ...]": lambda text, bad=bad: re.sub(
        rf'("cardinalities"{_BLANKS}:{_BLANKS}\[{_BLANKS})[0-9]+',
        rf"\g<1>{bad}", text, count=1) for bad in ("0", "2.5", "true")},
}
PMF_VARIANTS = (*NUMBER_MUTATIONS, *LIST_MUTATIONS, *PMF_FILE_MUTATIONS,
                *FIELDS_AHEAD)
# variant -> the field made long, past the threshold; None: the target
LONG_VARIANTS = {"empty list": None, "empty rows only": None,
                 "NaN in a long list": "extra", "n as a large table": "n",
                 "schema string after a long list": "extra",
                 "slot 1 alphabet_size as a large table": "alphabet_size"}


def pmf_variant(text, name, pick):
    """``text`` with the variant ``name`` made in, or around, its pmf list;
    ``pick(n)`` chooses which of n numbers changes."""
    if name in FIELDS_AHEAD:
        return ahead_of(text, "pmf", FIELDS_AHEAD[name])
    if name in PMF_FILE_MUTATIONS:
        return PMF_FILE_MUTATIONS[name](text)
    start, end = list_span(text)
    values = text[start:end]
    if name in NUMBER_MUTATIONS:
        numbers = list(re.finditer(r"-?[0-9][0-9.eE+-]*", values))
        number = numbers[pick(len(numbers))]
        values = (values[:number.start()]
                  + NUMBER_MUTATIONS[name](number.group())
                  + values[number.end():])
    elif name == "trailing comma":
        values = values[:-1] + ",]"
    elif name == "tab after [":
        values = "[\t" + values[1:]
    elif name == "] removed":
        values = values[:-1]
    elif name == "empty list":  # as long as the list it replaces
        values = "[" + " " * (end - start - 2) + "]"
    elif name == "short empty list":
        values = "[]"
    elif name == "second pmf key":  # the same values, reversed
        reversed_values = ", ".join(reversed(values[1:-1].split(",")))
        closing = text.rindex("}")
        return (text[:closing] + f', "pmf": [{reversed_values}]'
                + text[closing:])
    elif name == "list in a string":
        return ahead(text, f'"note": {json.dumps(values)}')
    elif name == "list as schema":
        return text.replace('"pkregion-pmf-v1"', values, 1)
    elif name == "bare list":
        return values
    elif name in EXTRA_LIST_MUTATIONS:
        # a list ahead of the pmf that starts like numbers, holding NaN, or
        # a quoted ] with the pmf's own list in the schema string
        zeros = "0, " * (2048 if "long" in name else 1)  # long: 6 kB
        if name.startswith("NaN"):
            return ahead(text, f'"extra": [{zeros}NaN]')
        return ahead(text, f'"extra": [{zeros}"]"]').replace(
            '"pkregion-pmf-v1"', json.dumps(values), 1)
    return text[:start] + values + text[end:]


# -- files json refuses on the file opened as text -------------------------------

def refused_files(text, key):
    """Name -> bytes of ``text`` in a form json refuses on the file opened
    as text: cut short after CR LF or lone CR line ends (one after every
    comma), where json counts lines and characters in the text the file
    opened as text gives; a UTF-8 BOM; a byte that is not UTF-8 ahead of,
    inside and after the large table under ``key``; a raw CR in a string."""
    at = text.index(json.dumps(key))
    inside = text.index(",", text.index("[", at)) + 1
    closing = text.rindex("}")

    def put(pos, raw):
        return text[:pos].encode() + raw + text[pos:].encode()

    # after every comma, so that cut short it is not truncated() in any layout
    lines = text.replace(",", ",\n")
    crlf, cr = lines.replace("\n", "\r\n"), lines.replace("\n", "\r")
    return {
        "CRLF, cut short": truncated(crlf).encode(),
        "lone CR, cut short": truncated(cr).encode(),
        "UTF-8 BOM": b"\xef\xbb\xbf" + text.encode(),
        "invalid byte ahead": put(at, b'"note": "\xff", '),
        "invalid byte inside": put(inside, b"\xff"),
        "invalid byte after": put(closing, b', "note": "\xff"'),
        "raw CR in a string": put(at, b'"note": "a\rb", '),
    }


def variant_files(text, key, pick):
    """Name -> bytes of every variant and refused file of ``text``, whose
    large table is stored under ``key``: ``"pmf"`` for a pmf file, one of
    ``KEY_TABLES`` for a protocol file."""
    if key == "pmf":
        made = {name: pmf_variant(text, name, pick) for name in PMF_VARIANTS}
    else:
        made = {name: protocol_variant(text, key, name, pick)
                for name in PROTOCOL_VARIANTS}
    return {**{name: variant.encode() for name, variant in made.items()},
            **refused_files(text, key)}
