"""Seeded inputs for the four benchmark workloads.

Each workload is a fixed list of requests for one pkregion command. The seed
changes the probabilities of the generated sources and the lookup tables of
the generated protocols, never their shapes, so every seed costs the same
work and yields the same per-request call counts. Numbers are written at a
fixed width (floats as ``%.17e``, integers right-aligned to the widest value
their alphabet allows), so input sizes in bytes do not depend on the seed
either.

Every pass also holds one request of the other command (a *control*
request), so that each layer does measured work on every workload. It is
small next to a pass; its inputs are files shipped in ``data/``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Shipped inputs the workloads reuse; copied into the generated set so that
# the program reads only generated files.
DATA_FILES = ("bsc_source.json", "worked_source.json", "xy_pair_source.json",
              "independent_source.json", "direct_extraction_n2.json")


@dataclass(frozen=True)
class Workload:
    command: str
    why: str
    loads: str
    bypasses: str


WORKLOADS = {
    "regions-search": Workload(
        command="compute",
        why="Sources whose tightness test fails, so the 64-restart "
            "separating-auxiliary search runs every start: it is ~95% of "
            "request time here.",
        loads="auxsolver (max_aux_info_thm3 and its private search)",
        bypasses="nothing is bypassed, but ioformats and structure are "
                 "small: every source has at most 8^3 cells",
    ),
    "regions-tight": Workload(
        command="compute",
        why="Deterministically correlated sources with large alphabets: the "
            "search stops after its first start, so reading the pmf, the "
            "information terms, the structural statistics and the quantities "
            "computed more than once dominate.",
        loads="ioformats.read_pmf (up to 1.6 MB per file), dist, structure, "
              "regions.gap_metrics",
        bypasses="the auxsolver search (one start per request)",
    ),
    "simulate-oneway": Workload(
        command="simulate",
        why="Zero-round extraction protocols at blocklengths up to the "
            "default budget (2.1 M joint cells): the product table and the "
            "contingency tables dominate time and memory.",
        loads="protocol.evaluate_protocol over the joint space",
        bypasses="the transcript sweep (no slots) and ioformats.read_protocol "
                 "(files of a few kB)",
    ),
    "simulate-interactive": Workload(
        command="simulate",
        why="One-round protocols where X, Y and Z all speak: transcript "
            "tables outgrow the joint space, so reading the protocol file "
            "and the transcript sweep dominate.",
        loads="ioformats.read_protocol (up to 0.8 MB per file) and the "
              "transcript and key lookups",
        bypasses="the large joint product table (at most 4096 cells); a "
                 "zero-round shortcut does not apply",
    ),
}


@dataclass(frozen=True)
class Request:
    """One CLI call: ``command --input <input> [--protocol <protocol>]``."""

    command: str
    input: str
    protocol: str | None = None
    # Per-symbol (n = 1) protocol the ``protocol`` file is the n-fold power
    # of; None when the protocol file is checked directly.
    symbol_protocol: str | None = None
    n: int = 1
    control: bool = False


# -- file text --------------------------------------------------------------

def pmf_text(table: np.ndarray) -> bytes:
    cards = ", ".join(str(c) for c in table.shape)
    values = ", ".join("%.17e" % v for v in table.reshape(-1).tolist())
    return ('{"schema": "pkregion-pmf-v1", "variables": ["X", "Y", "Z"], '
            f'"cardinalities": [{cards}], "pmf": [{values}]}}\n').encode()


def _int_rows(table: np.ndarray, alphabet: int) -> str:
    width = len(str(alphabet - 1))
    fmt = "%" + str(width) + "d"
    return "[" + ",\n".join(
        "[" + ",".join(fmt % v for v in row) + "]"
        for row in table.tolist()) + "]"


def protocol_text(proto: dict) -> bytes:
    slots = ", ".join(
        f'{{"alphabet_size": {size}, "table": {_int_rows(table, size)}}}'
        for size, table in proto["slots"])
    parts = [f'"schema": "pkregion-protocol-v1"', f'"n": {proto["n"]}',
             f'"rounds": {len(proto["slots"]) // 3}', f'"slots": [{slots}]',
             f'"key_xy_size": {proto["key_xy_size"]}',
             f'"key_xz_size": {proto["key_xz_size"]}']
    for key, size in (("key_xy", "key_xy_size"), ("est_xy", "key_xy_size"),
                      ("key_xz", "key_xz_size"), ("est_xz", "key_xz_size")):
        parts.append(f'"{key}": {_int_rows(proto[key], proto[size])}')
    return ("{" + ",\n".join(parts) + "}\n").encode()


# -- sources ------------------------------------------------------------------

def random_source(rng, k: int) -> np.ndarray:
    """Full-support k x k x k source; Y and Z are dependent."""
    t = rng.random((k, k, k)) + 0.05
    return t / t.sum()


def block_source(rng, comps: int, block: int = 2, kx: int = 2) -> np.ndarray:
    """``comps`` common-function components, Y and Z dependent inside each."""
    t = np.zeros((kx, comps * block, comps * block))
    weight = rng.random(comps) + 0.5
    weight /= weight.sum()
    for c in range(comps):
        b = rng.random((kx, block, block)) + 0.05
        cut = slice(c * block, (c + 1) * block)
        t[:, cut, cut] = weight[c] * b / b.sum()
    return t


def _split(size: int, parts: int) -> list:
    edges = np.linspace(0, size, parts + 1).round().astype(int)
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def det_correlated_source(rng, kx: int, ky: int, kz: int,
                          comps: int) -> np.ndarray:
    """Y and Z independent given their common part; X depends on both."""
    pair = np.zeros((ky, kz))
    weight = rng.random(comps) + 0.5
    weight /= weight.sum()
    for c, (ys, zs) in enumerate(zip(_split(ky, comps), _split(kz, comps))):
        py = rng.random(ys.stop - ys.start) + 0.2
        pz = rng.random(zs.stop - zs.start) + 0.2
        pair[ys, zs] = weight[c] * np.outer(py / py.sum(), pz / pz.sum())
    x_given = rng.random((kx, ky, kz)) + 0.1
    x_given /= x_given.sum(axis=0, keepdims=True)
    return x_given * pair[None]


def bsc_like_source(rng) -> np.ndarray:
    """Binary X; Y and Z are X through two binary symmetric channels."""
    q, p_y, p_z = 0.3 + 0.4 * rng.random(), 0.1 * rng.random(), \
        0.05 + 0.2 * rng.random()
    px = np.array([1.0 - q, q])
    flip_y = np.array([[1.0 - p_y, p_y], [p_y, 1.0 - p_y]])
    flip_z = np.array([[1.0 - p_z, p_z], [p_z, 1.0 - p_z]])
    return px[:, None, None] * flip_y[:, :, None] * flip_z[:, None, :]


def pair_source(rng) -> np.ndarray:
    """X = (Y, Z) for two dependent bits Y and Z: the 4 x 2 x 2 pair source."""
    pyz = rng.random((2, 2)) + 0.2
    pyz /= pyz.sum()
    t = np.zeros((4, 2, 2))
    for y in range(2):
        for z in range(2):
            t[2 * y + z, y, z] = pyz[y, z]
    return t


# -- protocols ----------------------------------------------------------------

def symbol_protocol(rng, cards, rounds: int) -> dict:
    """Random per-symbol protocol with binary messages and binary keys."""
    slots = []
    heard = 1
    for t in range(3 * rounds):
        slots.append((2, rng.integers(0, 2, size=(cards[t % 3], heard))))
        heard *= 2
    proto = {"n": 1, "slots": slots, "key_xy_size": 2, "key_xz_size": 2}
    for key, side in (("key_xy", 0), ("est_xy", 1), ("key_xz", 0),
                      ("est_xz", 2)):
        proto[key] = rng.integers(0, 2, size=(cards[side], heard))
    return proto


def _digits(count: int, base: int, n: int) -> np.ndarray:
    """Base-``base`` digits of 0..count-1, most significant first."""
    idx = np.arange(count)
    return np.stack([(idx // base ** (n - 1 - i)) % base for i in range(n)],
                    axis=1)


def _heard_digits(sizes, n: int) -> np.ndarray:
    """Per-symbol heard-prefix index for every n-fold prefix index.

    A prefix over slots with per-symbol alphabets ``sizes`` is the mixed-radix
    number of the slot messages (alphabets ``size ** n``, earliest most
    significant); symbol i's prefix is the same number over its own digits.
    """
    total = 1
    for size in sizes:
        total *= size ** n
    rest = np.arange(total)
    out = np.zeros((total, n), dtype=np.int64)
    mult = 1
    for size in reversed(sizes):
        msg = rest % size ** n
        rest //= size ** n
        out += mult * _digits(size ** n, size, n)[msg]
        mult *= size
    return out


def _power_table(table: np.ndarray, own_card: int, heard_sizes, alphabet: int,
                 n: int) -> np.ndarray:
    own = _digits(own_card ** n, own_card, n)
    heard = _heard_digits(heard_sizes, n)
    out = np.zeros((own.shape[0], heard.shape[0]), dtype=np.int64)
    for i in range(n):
        out = out * alphabet + table[own[:, i][:, None], heard[:, i][None, :]]
    return out


def power_protocol(proto: dict, cards, n: int) -> dict:
    """The n-fold product of a per-symbol protocol.

    Every message and key is the tuple of the per-symbol values, so the n
    symbol positions are i.i.d. and the figures have closed forms in n.
    """
    sizes = [size for size, _ in proto["slots"]]
    out = {"n": n, "slots": [],
           "key_xy_size": proto["key_xy_size"] ** n,
           "key_xz_size": proto["key_xz_size"] ** n}
    for t, (size, table) in enumerate(proto["slots"]):
        out["slots"].append((size ** n, _power_table(
            table, cards[t % 3], sizes[:t], size, n)))
    for key, side, size in (("key_xy", 0, "key_xy_size"),
                            ("est_xy", 1, "key_xy_size"),
                            ("key_xz", 0, "key_xz_size"),
                            ("est_xz", 2, "key_xz_size")):
        out[key] = _power_table(proto[key], cards[side], sizes, proto[size], n)
    return out


# -- workloads -----------------------------------------------------------------

def _regions_search(rng, files: dict) -> list:
    requests = [Request("compute", "bsc_source.json")]
    # Twelve 2-component sources put p90 inside their cluster rather than in
    # the noisy tail of the random sources, which all cost about the same.
    for comps, copies in ((2, 12), (4, 1), (8, 1)):
        for copy in range(copies):
            name = f"block{comps}_{copy:02d}.json"
            files[name] = pmf_text(block_source(rng, comps))
            requests.append(Request("compute", name))
    for i in range(86):
        k = 2 + i % 7
        name = f"random{i:02d}_k{k}.json"
        files[name] = pmf_text(random_source(rng, k))
        requests.append(Request("compute", name))
    return requests


# (|X|, |Y| = |Z|, components) of the generated deterministically
# correlated sources.
TIGHT_SHAPES = ((4, 16, 1), (4, 16, 2), (8, 32, 1), (8, 32, 2),
                (12, 48, 1), (12, 48, 2), (16, 64, 1), (16, 64, 2))


def _regions_tight(rng, files: dict) -> list:
    names = []
    for kx, kyz, comps in TIGHT_SHAPES:
        name = f"tight_{kx}x{kyz}x{kyz}_c{comps}.json"
        files[name] = pmf_text(det_correlated_source(rng, kx, kyz, kyz, comps))
        names.append(name)
    names += ["worked_source.json", "xy_pair_source.json",
              "independent_source.json"]
    return [Request("compute", name) for _ in range(10) for name in names]


def _simulate(rng, files: dict, rounds: int, blocklengths: dict,
              repeats: int) -> list:
    requests = []
    for label, make in (("bsc", bsc_like_source), ("pair", pair_source)):
        table = make(rng)
        source = f"{label}_seeded_source.json"
        files[source] = pmf_text(table)
        base = symbol_protocol(rng, table.shape, rounds)
        for n in range(1, blocklengths[label] + 1):
            name = f"{label}_r{rounds}_n{n}.json"
            files[name] = protocol_text(power_protocol(base, table.shape, n))
            requests.append(Request("simulate", source, name,
                                    f"{label}_r{rounds}_n1.json", n))
    return requests * repeats


def build(name: str, seed: int, data_dir: Path):
    """Generated files (name -> bytes) and the request list of one pass.

    The last request of the pass is the control request of the other
    command.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng((seed, list(WORKLOADS).index(name)))
    files = {f: (data_dir / f).read_bytes() for f in DATA_FILES}
    if name == "regions-search":
        requests = _regions_search(rng, files)
    elif name == "regions-tight":
        requests = _regions_tight(rng, files)
    elif name == "simulate-oneway":
        requests = _simulate(rng, files, 0, {"bsc": 7, "pair": 5}, 9)
    else:
        requests = _simulate(rng, files, 1, {"bsc": 4, "pair": 3}, 15)
    if WORKLOADS[name].command == "compute":
        control = Request("simulate", "xy_pair_source.json",
                          "direct_extraction_n2.json", None, 2, True)
    else:
        control = Request("compute", "worked_source.json", control=True)
    return files, requests + [control]


def digest(files: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in sorted(files.items())}


def self_check(name: str, seed: int, data_dir: Path, files: dict) -> None:
    """The same seed must rebuild byte-identical files; another must not."""
    again, _ = build(name, seed, data_dir)
    if digest(again) != digest(files):
        raise RuntimeError(f"{name}: seed {seed} did not rebuild the same files")
    other, _ = build(name, seed + 1, data_dir)
    if digest(other) == digest(files):
        raise RuntimeError(f"{name}: seeds {seed} and {seed + 1} built the "
                           "same files")
