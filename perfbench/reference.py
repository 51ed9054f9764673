"""Reference values for every request, from the independent test oracles.

``tests/oracles.py`` is pure Python and shares no code with the package. It
is imported read-only (no bytecode is written next to it) and run once per
(workload, seed), outside any timed region.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import sys
from pathlib import Path

# Tolerance of the conditional-independence verdict (the CLI default).
CI_TOL = 1e-9


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def pmf_dist(data: bytes):
    """(dict of positive cells keyed by (x, y, z), cardinalities)."""
    doc = json.loads(data)
    cards = doc["cardinalities"]
    dist = {}
    for key, pr in zip(itertools.product(*map(range, cards)), doc["pmf"]):
        if pr > 0.0:
            dist[key] = pr
    return dist, cards


def _oracle_protocol(data: bytes) -> dict:
    doc = json.loads(data)
    proto = {key: doc[key] for key in ("n", "key_xy", "est_xy", "key_xz",
                                       "est_xz", "key_xy_size",
                                       "key_xz_size")}
    proto["slots"] = [(s["alphabet_size"], s["table"]) for s in doc["slots"]]
    return proto


def compute_reference(oracles, source: bytes) -> dict:
    dist, _ = pmf_dist(source)
    _, _, components = oracles.components_by_union_find(dist, 1, 2)
    residual = oracles.conditional_independence_residual_oracle(dist, 1, 2)
    return {
        "cap_xy": oracles.oracle_cmi(dist, (0,), (1,), (2,)),
        "cap_xz": oracles.oracle_cmi(dist, (0,), (2,), (1,)),
        "i_x_yz": oracles.oracle_cmi(dist, (0,), (1, 2)),
        "components": components,
        "det_correlated": residual <= CI_TOL,
    }


def simulate_reference(oracles, source: bytes, protocol: bytes,
                       n: int) -> dict:
    """Exact figures of an n-fold product protocol from its n = 1 factor.

    The n symbol positions are i.i.d., so the error is 1 - (1 - e1)^n and
    the per-symbol leak, uniformity deficit and rate equal their n = 1
    values.
    """
    dist, cards = pmf_dist(source)
    figures = oracles.oracle_evaluate(dist, cards, _oracle_protocol(protocol))
    for key in ("error_xy", "error_xz"):
        figures[key] = 1.0 - (1.0 - figures[key]) ** n
    return figures


def references(oracles, requests, files: dict) -> list:
    """One reference dict per request, computed once per distinct request."""
    memo = {}
    out = []
    for req in requests:
        key = (req.command, req.input, req.protocol)
        if key not in memo:
            if req.command == "compute":
                memo[key] = compute_reference(oracles, files[req.input])
            elif req.symbol_protocol is None:
                memo[key] = simulate_reference(
                    oracles, files[req.input], files[req.protocol], 1)
            else:
                memo[key] = simulate_reference(
                    oracles, files[req.input], files[req.symbol_protocol],
                    req.n)
        out.append(memo[key])
    return out
