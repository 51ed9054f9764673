"""Command-line surface: compute / check / simulate / version.

Reports go to --output (written atomically) or to stdout. Every option can
also be set through an environment variable with the ``PKREGION_`` prefix
(``--tol-sum`` becomes ``PKREGION_TOL_SUM`` and so on); explicit flags win.

Exit codes: 0 on success, 2 on parsing or validation failure or an
unreadable or unwritable path, 3 when the enumeration budget is exceeded.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass

from ._version import __version__
from .dist import DEFAULT_SUM_TOL
from .errors import BudgetExceededError, PkRegionError
from .ioformats import check_document, dumps_deterministic, \
    evaluation_document, read_pmf, read_protocol, regions_document, \
    write_atomic
from .protocol import DEFAULT_BUDGET, check_eps_pk, evaluate_protocol, \
    rate_point
from .regions import RegionReport, compute_report, contains, outer_region
from .structure import DEFAULT_CI_TOL

__all__ = ["RunConfig", "main", "run", "cmd_compute", "cmd_check", "cmd_simulate"]

_ENV_PREFIX = "PKREGION_"

# Slack used for the rate-point containment verdict in `simulate`.
_CONTAIN_TOL = 1e-9

# flag, destination, parser, default (None = no default, stays optional)
_OPTIONS = (
    ("--input", "input", str, None,
     "source distribution file (pkregion-pmf-v1)"),
    ("--output", "output", str, None,
     "report destination; stdout when omitted"),
    ("--protocol", "protocol", str, None,
     "protocol file (pkregion-protocol-v1), simulate only"),
    ("--tol-sum", "sum_tol", float, DEFAULT_SUM_TOL,
     "allowed deviation of the pmf total from 1"),
    ("--tol-ci", "ci_tol", float, DEFAULT_CI_TOL,
     "max-abs conditional-independence tolerance of the tightness test"),
    ("--budget", "budget", int, DEFAULT_BUDGET,
     "enumeration budget in table cells, simulate only"),
    ("--eps", "eps", float, 0.0,
     "tolerance for the key-pair verdicts, simulate only"),
)


@dataclass(frozen=True)
class RunConfig:
    """Validated option set for one command invocation."""

    input: str | None
    output: str | None
    protocol: str | None
    sum_tol: float
    ci_tol: float
    budget: int
    eps: float

    def __post_init__(self):
        # a NaN fails every comparison, so each range test rejects it
        for name in ("sum_tol", "ci_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError("eps must be nonnegative and finite")

    def echo(self) -> dict:
        """Config entry embedded in every report."""
        return {
            "input": self.input,
            "output": self.output,
            "protocol": self.protocol,
            "tol_sum": self.sum_tol,
            "tol_ci": self.ci_tol,
            "budget": self.budget,
            "eps": self.eps,
        }


def _env_name(flag: str) -> str:
    return _ENV_PREFIX + flag.lstrip("-").replace("-", "_").upper()


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Resolve each option: explicit flag, then environment, then default."""
    values = {}
    for flag, dest, parse, default, _ in _OPTIONS:
        value = getattr(args, dest)
        if value is None:
            raw = os.environ.get(_env_name(flag))
            if raw is not None:
                try:
                    value = parse(raw)
                except ValueError:
                    raise ValueError(
                        f"{_env_name(flag)}={raw!r} is not a valid "
                        f"{parse.__name__}") from None
            else:
                value = default
        values[dest] = value
    return RunConfig(**values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later :func:`main` call in the process.

    Parsing leaves the parser unchanged, and it holds neither environment
    values nor handler functions: :func:`_merge_config` reads ``PKREGION_*``
    and :func:`main` looks up each ``cmd_*`` on every call.
    """
    parser = argparse.ArgumentParser(
        prog="pkregion",
        description="Key-pair rate regions and exact protocol evaluation "
                    "for three-terminal finite sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "compute": "compute outer/inner/exact rate regions for a source",
        "check": "report the tightness conditions for a source",
        "simulate": "evaluate a protocol file against a source, exactly",
        "version": "print the tool version",
    }
    for name, desc in descriptions.items():
        cmd = sub.add_parser(name, help=desc, description=desc)
        if name == "version":
            continue
        for flag, dest, parse, _, help_text in _OPTIONS:
            cmd.add_argument(flag, dest=dest, type=parse, default=None,
                             help=help_text)
    return parser


def _deliver(doc: dict, output: str | None) -> None:
    text = dumps_deterministic(doc)
    if output:
        write_atomic(output, text)
    else:
        sys.stdout.write(text)


def _require_input(cfg: RunConfig) -> str:
    if not cfg.input:
        raise ValueError("an input file is required (--input or PKREGION_INPUT)")
    return cfg.input


def cmd_compute(cfg: RunConfig) -> int:
    """Full pipeline: regions, tightness flags, gaps, named quantities."""
    p = read_pmf(_require_input(cfg), sum_tol=cfg.sum_tol)
    report = compute_report(p, ci_tol=cfg.ci_tol)
    _deliver(regions_document(report, cfg.echo()), cfg.output)
    return 0


def cmd_check(cfg: RunConfig) -> int:
    """Tightness test only: common part and conditional-independence residual.

    The analysis derives only what the document reads.
    """
    p = read_pmf(_require_input(cfg), sum_tol=cfg.sum_tol)
    report = RegionReport(p, ci_tol=cfg.ci_tol)
    _deliver(check_document(report, cfg.echo()), cfg.output)
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    """Protocol evaluation plus the rate-point containment verdict."""
    p = read_pmf(_require_input(cfg), sum_tol=cfg.sum_tol)
    if not cfg.protocol:
        raise ValueError(
            "a protocol file is required (--protocol or PKREGION_PROTOCOL)")
    spec = read_protocol(cfg.protocol)
    report = evaluate_protocol(p, spec, budget=cfg.budget)
    verdicts = check_eps_pk(report, cfg.eps)
    point = rate_point(report)
    inside = contains(outer_region(p), point, _CONTAIN_TOL)
    _deliver(evaluation_document(report, cfg.eps, verdicts, point, inside,
                                 cfg.echo()), cfg.output)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "version":
        print(f"pkregion {__version__}")
        return 0
    # looked up on every call, so that a rebound cmd_* takes effect
    handlers = {"compute": cmd_compute, "check": cmd_check,
                "simulate": cmd_simulate}
    try:
        cfg = _merge_config(args)
        return handlers[args.command](cfg)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PkRegionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())
