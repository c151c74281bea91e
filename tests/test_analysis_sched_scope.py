"""Linter scope extensions for the scheduler subsystem.

The scheduler's determinism contract is enforced the same way the
aggregation paths' is: the ``sched`` package joins the DET002
aggregation scope, and pure ``dispatch_*`` policy functions become
RACE001 roots — mutating shared state from a dispatch decision would
make two replays of the same schedule diverge.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import run_analysis

DET002_BAD = """\
def total(parts):
    acc = 0.0
    for p in {1.5, 2.5, 3.5}:
        acc += p
    return acc
"""


def lint(tmp_path: Path, name: str, source: str, **kwargs):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_analysis([path], **kwargs)


def rules_hit(result) -> set[str]:
    return {v.rule for v in result.violations}


# ----------------------------------------------------------------------
# DET002: the sched package is an aggregation scope root
# ----------------------------------------------------------------------
def test_det002_covers_sched_package(tmp_path):
    assert "DET002" in rules_hit(
        lint(tmp_path, "sched/scheduler.py", DET002_BAD))


def test_det002_reaches_helpers_called_from_sched(tmp_path):
    proj = tmp_path / "proj"
    (proj / "sched").mkdir(parents=True)
    (proj / "sched" / "__init__.py").write_text("")
    (proj / "sched" / "scheduler.py").write_text(
        "from helpers import merge\n\n\n"
        "def settle(parts):\n"
        "    return merge(parts)\n")
    (proj / "helpers.py").write_text(
        "def merge(parts):\n"
        "    out = 0.0\n"
        "    for p in set(parts):\n"
        "        out += p\n"
        "    return out\n")
    result = run_analysis([proj])
    det = [v for v in result.violations if v.rule == "DET002"]
    assert len(det) == 1
    assert det[0].path.name == "helpers.py"


# ----------------------------------------------------------------------
# RACE001: dispatch_* functions under sched/ are roots
# ----------------------------------------------------------------------
def test_race001_flags_stateful_dispatch_function(tmp_path):
    pkg = tmp_path / "sched"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "policy.py").write_text(
        "_HISTORY = []\n\n\n"
        "def dispatch_order(jobs):\n"
        "    _HISTORY.append(len(jobs))\n"
        "    return tuple(range(len(jobs)))\n")
    result = run_analysis([pkg])
    race = [v for v in result.violations if v.rule == "RACE001"]
    assert len(race) == 1
    assert "dispatch_order" in race[0].message
    assert "scheduler dispatch" in race[0].message
    assert "replays" in race[0].message


def test_race001_dispatch_root_follows_helpers(tmp_path):
    pkg = tmp_path / "sched"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "policy.py").write_text(
        "_SEEN = []\n\n\n"
        "def _note(n):\n"
        "    _SEEN.append(n)\n\n\n"
        "def dispatch_fair_shares(total, jobs):\n"
        "    _note(total)\n"
        "    return {}\n")
    result = run_analysis([pkg])
    race = [v for v in result.violations if v.rule == "RACE001"]
    assert len(race) == 1
    assert "dispatch_fair_shares -> _note" in race[0].message


def test_race001_ignores_non_dispatch_sched_functions(tmp_path):
    # Only dispatch_* names are roots; ordinary bookkeeping helpers in
    # the package are not implicitly racy.
    pkg = tmp_path / "sched"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "log.py").write_text(
        "_LINES = []\n\n\n"
        "def record(line):\n"
        "    _LINES.append(line)\n")
    result = run_analysis([pkg])
    assert "RACE001" not in rules_hit(result)


def test_race001_ignores_dispatch_names_outside_sched(tmp_path):
    # The prefix only has meaning inside the sched package.
    (tmp_path / "mailroom.py").write_text(
        "_OUTBOX = []\n\n\n"
        "def dispatch_letters(batch):\n"
        "    _OUTBOX.append(batch)\n")
    result = run_analysis([tmp_path])
    assert "RACE001" not in rules_hit(result)


def test_race001_clean_pure_dispatch_passes(tmp_path):
    pkg = tmp_path / "sched"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "policy.py").write_text(
        "def dispatch_order(jobs):\n"
        "    ranked = sorted(range(len(jobs)),\n"
        "                    key=lambda i: jobs[i].arrival)\n"
        "    return tuple(ranked)\n")
    result = run_analysis([pkg])
    assert result.violations == []


# ----------------------------------------------------------------------
# the real tree stays clean under the widened scope
# ----------------------------------------------------------------------
def test_repo_sched_package_is_lint_clean():
    sched = Path(__file__).resolve().parent.parent / "src" / "repro" / "sched"
    result = run_analysis([sched])
    assert result.violations == []
