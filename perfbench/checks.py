"""Output checks of one report against its reference values.

Used by the serving process between timed requests; imports nothing from
the package under test.
"""

from __future__ import annotations

import json

TOL = 1e-9

EVALUATION_FIELDS = ("error_xy", "error_xz", "leak_xy", "leak_xz",
                     "unif_xy", "unif_xz", "rate_xy", "rate_xz")


def _compute_failures(doc: dict, ref: dict) -> list:
    outer = doc["regions"]["outer"]
    found = {"cap_xy": outer["cap_xy"], "cap_xz": outer["cap_xz"],
             "i_x_yz": doc["quantities"]["i_x_yz"]}
    out = [f"{key} {value!r} != oracle {ref[key]!r}"
           for key, value in found.items() if abs(value - ref[key]) > TOL]
    if doc["mcf_components"] != ref["components"]:
        out.append(f"mcf_components {doc['mcf_components']} != oracle "
                   f"{ref['components']}")
    if doc["det_correlated"] != ref["det_correlated"]:
        out.append(f"det_correlated {doc['det_correlated']} != oracle "
                   f"{ref['det_correlated']}")
    a, b, s = outer["cap_xy"], outer["cap_xz"], outer["cap_sum"]
    for r1, r2 in doc["regions"]["inner"]["vertices"]:
        if not (r1 >= -TOL and r2 >= -TOL and r1 <= a + TOL and r2 <= b + TOL
                and r1 + r2 <= s + TOL):
            out.append(f"inner vertex {(r1, r2)} outside the outer caps")
    return out


def _simulate_failures(doc: dict, ref: dict) -> list:
    ev = doc["evaluation"]
    out = [f"{key} {ev[key]!r} != expected {ref[key]!r}"
           for key in EVALUATION_FIELDS if abs(ev[key] - ref[key]) > TOL]
    eps = doc["eps"]
    for pair in ("xy", "xz"):
        meets = all(ev[f"{m}_{pair}"] <= eps for m in ("error", "leak", "unif"))
        if doc["eps_pk"][pair] != meets:
            out.append(f"eps_pk.{pair} disagrees with the reported figures")
    return out


def failures(command: str, output_path: str, ref: dict) -> list:
    """Messages for every check the report at ``output_path`` fails."""
    try:
        with open(output_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if command == "compute":
            return _compute_failures(doc, ref)
        return _simulate_failures(doc, ref)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
