"""The CLI's option surface.

``data/cli_options.json`` pins what every option of every sub-command
parses to (regenerate with ``data/make_cli_options.py`` only when a flag
is meant to change), ``--help`` must render every option of every
command, and the flags generated from the config dataclasses must carry
their field's docstring entry as help.
"""

from __future__ import annotations

import dataclasses
import inspect
import re

import pytest

from data.make_cli_options import (GOLDEN_PATH, option_table, render,
                                   subcommands)
from repro.cli import _JOB_FLAGS, _TRAINER_FLAGS, build_parser, main
from repro.core import TrainerConfig
from repro.sched import JobSpec, SchedConfig

COMMANDS = [path for path, _ in subcommands(build_parser())]


def test_options_match_golden():
    assert render(option_table()) == GOLDEN_PATH.read_text(encoding="ascii")


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_every_option(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*command.split(), "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    missing = [opt for opt in option_table()[command] if opt not in out]
    assert missing == []


def docstring_entries(cls) -> dict[str, str]:
    """Field -> whitespace-collapsed body of its Parameters entry."""
    entries = {}
    for header, body in re.findall(r"^(\w[\w /]*):\n((?:    .*\n?)+)",
                                   inspect.getdoc(cls), re.M):
        for name in header.split(" / "):
            entries[name] = " ".join(body.split())
    return entries


@pytest.mark.parametrize("cls, renames, command", [
    (TrainerConfig, _TRAINER_FLAGS, "train"),
    (JobSpec, _JOB_FLAGS, "sched submit"),
    (SchedConfig, {}, "sched run"),
])
def test_generated_help_is_the_field_docstring_entry(cls, renames, command):
    parser = dict(subcommands(build_parser()))[command]
    actions = {opt: a for a in parser._actions for opt in a.option_strings}
    entries = docstring_entries(cls)
    for field in dataclasses.fields(cls):
        flag = renames.get(field.name, "--" + field.name.replace("_", "-"))
        if flag is None:
            continue
        assert field.name in entries, f"{cls.__name__}.{field.name}"
        assert " ".join(actions[flag].help.split()) == entries[field.name]
