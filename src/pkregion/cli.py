"""Command-line surface: compute / check / simulate / version.

Each command takes only the options that shape its report, plus --output,
which decides where the report goes: written atomically to that path, or to
stdout. Every option can also be set through an environment variable with
the ``PKREGION_`` prefix (``--tol-sum`` becomes ``PKREGION_TOL_SUM`` and so
on); a command reads only its own options' variables, and explicit flags
win. A report's ``config`` echoes every option its command takes except
--output, so its bytes do not depend on where it is written.

Exit codes: 0 on success, 2 on parsing or validation failure or an
unreadable or unwritable path, 3 when the enumeration budget is exceeded.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from ._version import __version__
from .dist import DEFAULT_SUM_TOL
from .errors import BudgetExceededError, MalformedTableError, \
    PkRegionError
from .ioformats import check_document, dumps_deterministic, \
    evaluation_document, read_pmf, read_protocol, regions_document, \
    write_atomic
from .protocol import DEFAULT_BUDGET, evaluate_protocol, rate_point
from .regions import RegionReport, compute_report, contains, outer_region
from .structure import DEFAULT_CI_TOL

__all__ = ["main", "run", "cmd_compute", "cmd_check", "cmd_simulate"]

_ENV_PREFIX = "PKREGION_"

# Slack used for the rate-point containment verdict in `simulate`.
_CONTAIN_TOL = 1e-9

_ALL = ("compute", "check", "simulate")
# a NaN fails every comparison, so each range test rejects it
_POSITIVE = ("positive and finite", lambda v: 0.0 < v < math.inf)

# flag, parser, default, allowed range (text, test), the commands that take
# it, help. A default of None marks a file the command needs: it must be
# given. The flag in snake case names the config echo entry; --output
# (default "": stdout) is the one option no report echoes.
_OPTIONS = (
    ("--input", str, None, None, _ALL,
     "source distribution file (pkregion-pmf-v1)"),
    ("--output", str, "", None, _ALL,
     "report destination; stdout when omitted"),
    ("--protocol", str, None, None, ("simulate",),
     "protocol file (pkregion-protocol-v1)"),
    ("--tol-sum", float, DEFAULT_SUM_TOL, _POSITIVE, _ALL,
     "allowed deviation of the pmf total from 1"),
    ("--tol-ci", float, DEFAULT_CI_TOL, _POSITIVE, ("compute", "check"),
     "max-abs conditional-independence tolerance of the tightness test"),
    ("--budget", int, DEFAULT_BUDGET, ("at least 1", lambda v: v >= 1),
     ("simulate",), "enumeration budget in table cells"),
    ("--eps", float, 0.0,
     ("nonnegative and finite", lambda v: 0.0 <= v < math.inf),
     ("simulate",), "tolerance for the key-pair verdicts"),
)


def _merge_config(args: argparse.Namespace) -> dict:
    """The command's options, each from its flag, else its environment
    variable, else its default, and each checked against its range."""
    config = {}
    for flag, parse, default, allowed, commands, _ in _OPTIONS:
        if args.command not in commands:
            continue
        name = flag[2:].replace("-", "_")
        env = _ENV_PREFIX + name.upper()
        value = getattr(args, name)
        if value is None and env in os.environ:
            raw = os.environ[env]
            try:
                value = parse(raw)
            except ValueError:
                raise ValueError(f"{env}={raw!r} is not a valid "
                                 f"{parse.__name__}") from None
        if value is None:
            value = default
        if value is None:
            raise ValueError(f"{flag} or {env} is required")
        if allowed and not allowed[1](value):
            raise ValueError(f"{name} must be {allowed[0]}")
        config[name] = value
    return config


@functools.cache
def _build_parser() -> tuple:
    """The command-line parser and the action holding its command
    subparsers, built on first use and shared by every later :func:`main`
    call in the process.

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
        for flag, parse, _, _, commands, help_text in _OPTIONS:
            if name in commands:
                cmd.add_argument(flag, type=parse, help=help_text)
    return parser, sub


def _parse(argv) -> argparse.Namespace:
    """The parsed command line, as the full parser gives it.

    When the first argument names a command, that command's subparser,
    which the full parser would hand the rest to, parses the rest alone;
    it skips the top-level pass. Anything it leaves unrecognised, and any
    other command line (none, ``-h``, an unknown command), goes through the
    full parser, so every usage, help and error text is argparse's own.
    """
    parser, sub = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = sub.choices.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def cmd_compute(cfg: dict) -> dict:
    """Full pipeline: regions, tightness flags, gaps, named quantities."""
    p = read_pmf(cfg["input"], sum_tol=cfg["tol_sum"])
    report = compute_report(p, ci_tol=cfg["tol_ci"])
    return regions_document(report, cfg)


def cmd_check(cfg: dict) -> dict:
    """Tightness test only: common part and conditional-independence residual.

    The analysis derives only what the document reads.
    """
    p = read_pmf(cfg["input"], sum_tol=cfg["tol_sum"])
    return check_document(RegionReport(p, ci_tol=cfg["tol_ci"]), cfg)


def cmd_simulate(cfg: dict) -> dict:
    """Protocol evaluation plus the rate-point containment verdict."""
    p = read_pmf(cfg["input"], sum_tol=cfg["tol_sum"])
    spec = read_protocol(cfg["protocol"])
    try:
        report = evaluate_protocol(p, spec, budget=cfg["budget"])
    except MalformedTableError as exc:  # a table shaped for another source
        raise MalformedTableError(f"{cfg['protocol']}: {exc.message}") from exc
    inside = contains(outer_region(p), rate_point(report), _CONTAIN_TOL)
    return evaluation_document(report, inside, cfg)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.command == "version":
        print(f"pkregion {__version__}")
        return 0
    # looked up on every call, so that a rebound cmd_* takes effect
    handlers = {"compute": cmd_compute, "check": cmd_check,
                "simulate": cmd_simulate}
    try:
        cfg = _merge_config(args)
        output = cfg.pop("output")
        text = dumps_deterministic(handlers[args.command](cfg))
        if output:
            write_atomic(output, text)
        else:
            sys.stdout.write(text)
        return 0
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PkRegionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())
