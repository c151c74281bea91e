"""RACE-family rule tests plus the runtime proof of the race.

The fixture package ``tests/data/analysis_fixtures/racy_pkg`` defines a
task that mutates a module-level accumulator.  These tests assert the
static side (RACE001 flags it, RACE002 flags unpicklable submissions,
the pre-call-graph rules all passed it) and the dynamic side: run on two
real ``socket`` worker daemons, the flagged task actually returns
different numbers than serial — deterministically, because each
partition is pinned to its own daemon and so to its own copy of the
accumulator.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis import run_analysis
from repro.engine.backend import SerialBackend, SocketBackend

FIXTURES = Path(__file__).resolve().parent / "data" / "analysis_fixtures"
RACY = FIXTURES / "racy_pkg"

if str(FIXTURES) not in sys.path:
    sys.path.insert(0, str(FIXTURES))

from racy_pkg import tasks  # noqa: E402


# ----------------------------------------------------------------------
# static: RACE001 / RACE002 on the fixtures
# ----------------------------------------------------------------------
def test_race001_flags_module_accumulator_mutation():
    result = run_analysis([RACY])
    race = [v for v in result.violations if v.rule == "RACE001"]
    assert len(race) == 1
    assert race[0].path.name == "tasks.py"
    assert ".append() on module global '_ACC'" in race[0].message \
        or "_ACC" in race[0].message
    assert "racy_sum_task" in race[0].message
    assert "pass state via arguments" in race[0].message


def test_race001_clean_task_not_flagged():
    result = run_analysis([RACY])
    race = [v for v in result.violations if v.rule == "RACE001"]
    assert all("clean_sum_task" not in v.message for v in race)


def test_race002_flags_each_unpicklable_submission():
    result = run_analysis([RACY])
    race = [v for v in result.violations if v.rule == "RACE002"]
    assert len(race) == 3
    assert all(v.path.name == "driver.py" for v in race)
    blob = " ".join(v.message for v in race)
    assert "lambda" in blob
    assert "nested" in blob
    assert "bound method" in blob


def test_old_rules_passed_the_racy_task():
    # The acceptance criterion: before the call graph, nothing flagged
    # this task — the first-generation rule set exits clean on it.
    result = run_analysis([RACY],
                          select=["DET001", "DET002", "PURE001", "CFG001"])
    assert result.violations == []


def test_race001_respects_noqa(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "tasks.py").write_text(
        "_ACC = []\n\n\n"
        "def racy_task(part):\n"
        "    _ACC.append(float(sum(part)))  # repro: noqa[RACE001]\n"
        "    return float(sum(_ACC))\n")
    (pkg / "driver.py").write_text(
        "from .tasks import racy_task\n\n\n"
        "class Driver:\n"
        "    def run(self, backend, args):\n"
        "        return backend.map_partitions(racy_task, args)\n")
    result = run_analysis([pkg])
    assert result.violations == []
    assert [v.rule for v in result.suppressed] == ["RACE001"]


def test_race001_reports_mutation_reached_through_helper(tmp_path):
    # The mutation sits one call away from the task; the diagnostic
    # names the path from the task to the mutating helper.
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "tasks.py").write_text(
        "_LOG = []\n\n\n"
        "def _note(x):\n"
        "    _LOG.append(x)\n\n\n"
        "def task(part):\n"
        "    _note(len(part))\n"
        "    return float(sum(part))\n")
    (pkg / "driver.py").write_text(
        "from .tasks import task\n\n\n"
        "class Driver:\n"
        "    def run(self, backend, args):\n"
        "        return backend.map_partitions(task, args)\n")
    result = run_analysis([pkg])
    race = [v for v in result.violations if v.rule == "RACE001"]
    assert len(race) == 1
    assert race[0].path.name == "tasks.py"
    assert race[0].line == 5  # the append inside the helper
    assert "task -> _note" in race[0].message


# ----------------------------------------------------------------------
# dynamic: the flagged race really changes the numbers
# ----------------------------------------------------------------------
PARTITIONS = [[1.0], [2.0]]


def _map(backend, task) -> list[float]:
    tasks.reset()
    with backend:
        backend.install_partitions(PARTITIONS)
        try:
            return backend.map_partitions(task, [(), ()])
        finally:
            tasks.reset()


def test_racy_task_diverges_from_serial_across_processes():
    # Serial sees prefix sums: the second call observes the first append.
    serial_out = _map(SerialBackend(), tasks.racy_sum_task)
    assert serial_out == [1.0, 3.0]
    # Two daemons, partition i pinned to daemon i: each appends into its
    # own copy of the module global, so neither sees the other's value —
    # the numbers silently differ from serial, as RACE001 warns.
    socket_out = _map(SocketBackend(max_workers=2), tasks.racy_sum_task)
    assert socket_out == [1.0, 2.0]
    assert socket_out != serial_out


def test_clean_task_is_backend_invariant():
    serial_out = _map(SerialBackend(), tasks.clean_sum_task)
    socket_out = _map(SocketBackend(max_workers=2), tasks.clean_sum_task)
    assert serial_out == socket_out == [1.0, 2.0]
