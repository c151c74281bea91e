"""Regenerate the committed CLI option golden.

Run from the repo root::

    PYTHONPATH=src python tests/data/make_cli_options.py

Writes ``tests/data/cli_options.json``: for every sub-command path of
``repro`` (``train``, ..., ``sched submit``, ``sched run-trace``), every
option string mapped to what it parses to — dest, type name, default,
choices, nargs, action class and ``required``.  Help text and ``--help``
order are deliberately left out: they may change, what a command line
parses to may not.  ``tests/test_cli_options.py`` compares the live
parser against this file.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

GOLDEN_PATH = Path(__file__).parent / "cli_options.json"


def subcommands(parser: argparse.ArgumentParser, prefix: str = ""):
    """Yield ``(path, parser)`` for every leaf sub-command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subcommands(sub, f"{prefix}{name} ")
            return
    yield prefix.strip(), parser


def option_table() -> dict:
    """``{command path: {option string: row}}``, both levels sorted."""
    table = {}
    for path, sub in subcommands(build_parser()):
        rows = {}
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            row = {"dest": action.dest,
                   "type": getattr(action.type, "__name__", None),
                   "default": action.default,
                   "choices": (None if action.choices is None
                               else list(action.choices)),
                   "nargs": action.nargs,
                   "action": type(action).__name__,
                   "required": action.required}
            for option in action.option_strings:
                rows[option] = row
        table[path] = dict(sorted(rows.items()))
    return dict(sorted(table.items()))


def render(table: dict) -> str:
    """JSON with one line per option, so a drift is a one-line diff."""
    commands = []
    for path, rows in table.items():
        lines = [f"  {json.dumps(option)}: {json.dumps(row)}"
                 for option, row in rows.items()]
        commands.append(f" {json.dumps(path)}: {{\n" + ",\n".join(lines)
                        + "\n }")
    return "{\n" + ",\n".join(commands) + "\n}\n"


def main() -> None:
    table = option_table()
    GOLDEN_PATH.write_text(render(table), encoding="ascii")
    rows = sum(len(options) for options in table.values())
    print(f"wrote {GOLDEN_PATH} ({len(table)} commands, {rows} options)")


if __name__ == "__main__":
    main()
