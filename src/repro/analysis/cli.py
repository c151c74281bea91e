"""``python -m repro.analysis`` — the determinism linter's front door.

Usage::

    python -m repro.analysis src/repro              # lint the tree
    python -m repro.analysis --select DET001 src    # one rule only
    python -m repro.analysis --format json src      # machine-readable
    python -m repro.analysis --list-rules           # rule catalogue

Exit codes: 0 clean, 1 violations found, 2 usage error.  CI runs this as
a gate (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import run_analysis
from .reporters import REPORTERS
from .rules import ALL_RULES

__all__ = ["main", "build_parser"]

DEFAULT_PATH = "src/repro"


def _rule_ids(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Determinism linter for the repro codebase "
                    "(DET001 ambient nondeterminism, DET002 unordered "
                    "aggregation, PURE001 impure cost models, "
                    "RACE001/RACE002 backend "
                    "task contract, NOQA001 unused suppressions); "
                    "DET002/PURE001/RACE scope is derived from a "
                    "project-wide call graph, not file lists")
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint "
                             f"(default: {DEFAULT_PATH})")
    parser.add_argument("--select", type=_rule_ids, default=None,
                        metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--ignore", type=_rule_ids, default=None,
                        metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--format", choices=sorted(REPORTERS),
                        default="text", help="output format")
    parser.add_argument("--no-unused-noqa", action="store_false",
                        dest="unused_noqa",
                        help="skip the NOQA001 unused-suppression audit")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.summary}")
        return 0
    paths = args.paths or [DEFAULT_PATH]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"repro.analysis: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        result = run_analysis(paths, select=args.select, ignore=args.ignore,
                              unused_noqa=args.unused_noqa)
    except KeyError as exc:
        print(f"repro.analysis: {exc.args[0]}", file=sys.stderr)
        return 2
    print(REPORTERS[args.format](result))
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
