"""Per-rule fixtures for the determinism linter (``repro.analysis``).

Every rule gets three fixtures: a violating snippet, a clean snippet, and
a violating snippet whose diagnostic is silenced with an inline
``# repro: noqa[RULE]`` suppression.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import (PARSE_RULE_ID, parse_noqa, rule_registry,
                            run_analysis)

ALL_IDS = {"DET001", "DET002", "PURE001", "CFG001",
           "RACE001", "RACE002", "NOQA001"}


def lint(tmp_path: Path, name: str, source: str, **kwargs):
    """Write ``source`` to ``tmp_path/name`` and lint that one file."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_analysis([path], **kwargs)


def rules_hit(result) -> set[str]:
    return {v.rule for v in result.violations}


# ----------------------------------------------------------------------
# registry basics
# ----------------------------------------------------------------------
def test_registry_exposes_all_rules():
    assert set(rule_registry()) == ALL_IDS


def test_syntax_error_reports_syn001(tmp_path):
    result = lint(tmp_path, "broken.py", "def f(:\n    pass\n")
    assert [v.rule for v in result.violations] == [PARSE_RULE_ID]
    assert result.exit_code == 1


# ----------------------------------------------------------------------
# DET001: ambient nondeterminism
# ----------------------------------------------------------------------
DET001_BAD = """\
import random
import time
import numpy as np
from datetime import datetime


def sample():
    x = random.random()
    np.random.seed(0)
    rng = np.random.default_rng()
    legacy = np.random.randn(3)
    started = time.time()
    stamp = datetime.now()
    return x, rng, legacy, started, stamp
"""

DET001_CLEAN = """\
import numpy as np


def make_streams(seed, k):
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(k)]


def sample(rng: np.random.Generator):
    return rng.normal(size=3)
"""


def test_det001_flags_every_ambient_source(tmp_path):
    result = lint(tmp_path, "bad.py", DET001_BAD)
    det = [v for v in result.violations if v.rule == "DET001"]
    # random.random, np.random.seed, argless default_rng, legacy randn,
    # time.time, datetime.now — six distinct diagnostics.
    assert len(det) == 6
    lines = {v.line for v in det}
    assert lines == {8, 9, 10, 11, 12, 13}


def test_det001_clean_seeded_generators_pass(tmp_path):
    result = lint(tmp_path, "clean.py", DET001_CLEAN)
    assert result.violations == []
    assert result.ok


def test_det001_noqa_suppresses(tmp_path):
    src = "import time\nstarted = time.time()  # repro: noqa[DET001]\n"
    result = lint(tmp_path, "timed.py", src)
    assert result.violations == []
    assert [v.rule for v in result.suppressed] == ["DET001"]


def test_det001_unrelated_modules_not_flagged(tmp_path):
    # A local function *named* random is not the stdlib module.
    src = "def random():\n    return 4\n\n\nvalue = random()\n"
    result = lint(tmp_path, "local.py", src)
    assert result.violations == []


# ----------------------------------------------------------------------
# DET002: unordered iteration feeding accumulation
# ----------------------------------------------------------------------
DET002_BAD = """\
def total(parts):
    acc = 0.0
    for p in {1.5, 2.5, 3.5}:
        acc += p
    return acc


def flatten(items):
    return [x for x in set(items)]
"""

DET002_CLEAN = """\
def total(parts):
    acc = 0.0
    for p in sorted({1.5, 2.5, 3.5}):
        acc += p
    return acc


def flatten(items):
    return [x for x in sorted(set(items))]
"""


def test_det002_flags_set_iteration_in_scoped_paths(tmp_path):
    result = lint(tmp_path, "ps/loop.py", DET002_BAD)
    det = [v for v in result.violations if v.rule == "DET002"]
    assert len(det) == 2


def test_det002_applies_to_collectives_and_ps_roots(tmp_path):
    # Functions living under an aggregation package are scope roots.
    assert "DET002" in rules_hit(
        lint(tmp_path, "collectives/reduce.py", DET002_BAD))
    assert "DET002" in rules_hit(lint(tmp_path, "ps/server.py", DET002_BAD))


def test_det002_scope_is_reachability_not_filename(tmp_path):
    # The same helper module is out of scope on its own...
    helper = ("def merge(parts):\n"
              "    out = 0.0\n"
              "    for p in set(parts):\n"
              "        out += p\n"
              "    return out\n")
    alone = lint(tmp_path / "alone", "helpers.py", helper)
    assert "DET002" not in rules_hit(alone)

    # ...but in scope once a collective combine entry point calls it —
    # no filename list to extend, the call graph derives the scope.
    proj = tmp_path / "proj"
    (proj / "collectives").mkdir(parents=True)
    (proj / "collectives" / "__init__.py").write_text("")
    (proj / "collectives" / "reduce.py").write_text(
        "from helpers import merge\n\n\n"
        "def combine(parts):\n"
        "    return merge(parts)\n")
    (proj / "helpers.py").write_text(helper)
    result = run_analysis([proj])
    det = [v for v in result.violations if v.rule == "DET002"]
    assert len(det) == 1
    assert det[0].path.name == "helpers.py"
    assert "reachable via" in det[0].message
    assert "combine" in det[0].message


def test_det002_ignores_files_outside_scope(tmp_path):
    # The same source in an unscoped module is not DET002's business.
    result = lint(tmp_path, "viz/plotting.py", DET002_BAD)
    assert "DET002" not in rules_hit(result)


def test_det002_sorted_iteration_is_clean(tmp_path):
    result = lint(tmp_path, "ps/loop.py", DET002_CLEAN)
    assert result.violations == []


def test_det002_noqa_suppresses(tmp_path):
    src = ("def f(xs):\n"
           "    out = 0.0\n"
           "    for x in set(xs):  # repro: noqa[DET002]\n"
           "        out += x\n"
           "    return out\n")
    result = lint(tmp_path, "ps/ok.py", src)
    assert result.violations == []
    assert [v.rule for v in result.suppressed] == ["DET002"]


# ----------------------------------------------------------------------
# DET001/PURE001 perf exemption: repro/perf/ is the one place allowed to
# read the wall clock (it measures the simulation, never the simulated
# cluster) — by rule scope, not by noqa comments.
# ----------------------------------------------------------------------
PERF_TIMER = """\
import time


def measure(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
"""


def test_det001_allows_wall_clock_under_perf(tmp_path):
    result = lint(tmp_path, "perf/profiler.py", PERF_TIMER)
    assert result.violations == []


def test_det001_still_flags_rng_under_perf(tmp_path):
    # Only the wall-clock/date names are exempt; unseeded RNG in a perf
    # module is as nondeterministic as anywhere else.
    src = ("import numpy as np\n"
           "import time\n"
           "start = time.time()\n"
           "rng = np.random.default_rng()\n")
    result = lint(tmp_path, "perf/harness.py", src)
    det = [v for v in result.violations if v.rule == "DET001"]
    assert len(det) == 1
    assert det[0].line == 4


def test_det001_flags_wall_clock_outside_perf(tmp_path):
    result = lint(tmp_path, "cluster/cost.py", PERF_TIMER)
    det = [v for v in result.violations if v.rule == "DET001"]
    assert len(det) == 2


def test_det002_covers_backend_task_functions(tmp_path):
    # A function handed to a backend submit site is a DET002 root even
    # though it lives nowhere near collectives/ or ps/.
    (tmp_path / "worker.py").write_text(
        "def fold_task(parts):\n"
        "    acc = 0.0\n"
        "    for p in set(parts):\n"
        "        acc += p\n"
        "    return acc\n")
    (tmp_path / "driver.py").write_text(
        "from worker import fold_task\n\n\n"
        "class Trainer:\n"
        "    def step(self, parts):\n"
        "        return self._backend.map_partitions(fold_task, parts)\n")
    result = run_analysis([tmp_path])
    det = [v for v in result.violations if v.rule == "DET002"]
    assert len(det) == 1
    assert det[0].path.name == "worker.py"


# ----------------------------------------------------------------------
# PURE001: cost-model pricing functions must not mutate state
# ----------------------------------------------------------------------
PURE001_BAD = """\
class CostModel:
    def __init__(self):
        self.calls = 0
        self.log = []

    def seconds(self, n):
        self.calls += 1
        return n * 0.1

    def comm_seconds(self, n):
        self.log.append(n)
        return n * 0.2
"""

PURE001_CLEAN = """\
class CostModel:
    def seconds(self, n):
        return n * 0.1

    def comm_seconds(self, n):
        scale = 0.2
        return n * scale


def fan_in_seconds(k, payload):
    total = 0.0
    for _ in range(k):
        total += payload
    return total
"""


def test_pure001_flags_self_mutation(tmp_path):
    result = lint(tmp_path, "cost.py", PURE001_BAD)
    pure = [v for v in result.violations if v.rule == "PURE001"]
    assert len(pure) == 2  # the AugAssign and the .append call


def test_pure001_clean_pricing_passes(tmp_path):
    result = lint(tmp_path, "cost.py", PURE001_CLEAN)
    assert result.violations == []


def test_pure001_ignores_non_pricing_methods(tmp_path):
    src = ("class Engine:\n"
           "    def advance(self, dt):\n"
           "        self.now += dt\n")
    result = lint(tmp_path, "engine.py", src)
    assert result.violations == []


def test_pure001_skips_perf_paths(tmp_path):
    # The profiler's accumulating phase timers look like impure "seconds"
    # methods; PURE001 polices cost models, not measurement.
    result = lint(tmp_path, "perf/profiler.py", PURE001_BAD)
    assert "PURE001" not in rules_hit(result)


def test_pure001_valueless_annassign_is_not_an_assignment(tmp_path):
    # `self.calls: int` declares a type, assigns nothing — only the
    # annotated assignment with a value is impure.
    src = ("class CostModel:\n"
           "    def seconds(self, n):\n"
           "        self.calls: int\n"
           "        self.total: float = n\n"
           "        return n * 0.1\n")
    result = lint(tmp_path, "cost.py", src)
    pure = [v for v in result.violations if v.rule == "PURE001"]
    assert len(pure) == 1
    assert pure[0].line == 4


def test_pure001_flags_direct_module_global_mutation(tmp_path):
    # The same mutation is flagged in the pricing function's own body as
    # one call away (the helper case below): one finder serves both.
    src = ("_CACHE = []\n"
           "\n\n"
           "def direct_seconds(n):\n"
           "    _CACHE.append(n)\n"
           "    return n * 0.1\n")
    result = lint(tmp_path, "cost.py", src)
    pure = [v for v in result.violations if v.rule == "PURE001"]
    assert len(pure) == 1
    assert pure[0].line == 5
    assert "module global '_CACHE'" in pure[0].message


def test_pure001_flags_unpacking_into_self(tmp_path):
    src = ("class CostModel:\n"
           "    def seconds(self, n):\n"
           "        total, self.last = n * 0.1, n\n"
           "        return total\n")
    result = lint(tmp_path, "cost.py", src)
    pure = [v for v in result.violations if v.rule == "PURE001"]
    assert [v.line for v in pure] == [3]
    assert "self.last" in pure[0].message


PURE001_INDIRECT = """\
class CostModel:
    def __init__(self):
        self.log = []

    def seconds(self, n):
        return self._base(n) * 0.1

    def _base(self, n):
        self.log.append(n)
        return n
"""


def test_pure001_follows_calls_to_impure_helpers(tmp_path):
    result = lint(tmp_path, "cost.py", PURE001_INDIRECT)
    pure = [v for v in result.violations if v.rule == "PURE001"]
    assert len(pure) == 1
    # Flagged at the call site inside the pricing function, naming the
    # path to the offending mutation.
    assert pure[0].line == 6
    assert "CostModel.seconds -> CostModel._base" in pure[0].message
    assert "pricing must stay pure" in pure[0].message


def test_pure001_follows_module_function_chains(tmp_path):
    src = ("import time\n"
           "\n\n"
           "def _stamp():\n"
           "    return time.time()\n"
           "\n\n"
           "def _chain(n):\n"
           "    return _stamp() + n\n"
           "\n\n"
           "def link_seconds(n):\n"
           "    return _chain(n) * 2.0\n")
    result = lint(tmp_path, "cost.py", src)
    pure = [v for v in result.violations if v.rule == "PURE001"]
    assert len(pure) == 1
    assert pure[0].line == 13
    assert "link_seconds -> _chain -> _stamp" in pure[0].message


def test_pure001_interprocedural_ignores_pure_helpers(tmp_path):
    src = ("def _scale(n):\n"
           "    factor = 2.0\n"
           "    return n * factor\n"
           "\n\n"
           "def fan_seconds(n):\n"
           "    return _scale(n) + 1.0\n")
    result = lint(tmp_path, "cost.py", src)
    assert "PURE001" not in rules_hit(result)


def test_pure001_interprocedural_perf_helpers_exempt(tmp_path):
    # A pricing function may call into perf/ instrumentation — the perf
    # tree is exempt wall-clock territory, same as intraprocedurally.
    proj = tmp_path / "proj"
    (proj / "perf").mkdir(parents=True)
    (proj / "perf" / "__init__.py").write_text("")
    (proj / "perf" / "timers.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n")
    (proj / "cost.py").write_text(
        "from perf.timers import stamp\n\n\n"
        "def run_seconds(n):\n"
        "    return stamp() * 0.0 + n\n")
    result = run_analysis([proj])
    assert "PURE001" not in rules_hit(result)


def test_pure001_noqa_suppresses(tmp_path):
    src = ("class CostModel:\n"
           "    def seconds(self, n):\n"
           "        self.calls += 1  # repro: noqa[PURE001]\n"
           "        return n * 0.1\n")
    result = lint(tmp_path, "cost.py", src)
    assert result.violations == []
    assert [v.rule for v in result.suppressed] == ["PURE001"]


# ----------------------------------------------------------------------
# CFG001: TrainerConfig fields must be reachable from the CLI
# ----------------------------------------------------------------------
CFG_CONFIG = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class TrainerConfig:
    max_steps: int = 10
    learning_rate: float = 0.1
    hidden_knob: float = 0.5
"""

CFG_CLI = """\
def make_config(args):
    return dict(max_steps=args.steps, learning_rate=args.lr)
"""


def _write_cfg_project(tmp_path, config_src, cli_src):
    (tmp_path / "config.py").write_text(config_src)
    (tmp_path / "cli.py").write_text(cli_src)
    return run_analysis([tmp_path], select=["CFG001"])


def test_cfg001_flags_unreachable_field(tmp_path):
    result = _write_cfg_project(tmp_path, CFG_CONFIG, CFG_CLI)
    assert [v.rule for v in result.violations] == ["CFG001"]
    assert "hidden_knob" in result.violations[0].message


def test_cfg001_clean_when_every_field_wired(tmp_path):
    cli = ("def make_config(args):\n"
           "    return dict(max_steps=args.steps, learning_rate=args.lr,\n"
           "                hidden_knob=args.knob)\n")
    result = _write_cfg_project(tmp_path, CFG_CONFIG, cli)
    assert result.violations == []


def test_cfg001_string_subscript_counts_as_reachable(tmp_path):
    cli = ("def make_config(args, overrides):\n"
           "    overrides['hidden_knob'] = 1.0\n"
           "    return dict(max_steps=1, learning_rate=0.1)\n")
    result = _write_cfg_project(tmp_path, CFG_CONFIG, cli)
    assert result.violations == []


def test_cfg001_noqa_on_field_line_suppresses(tmp_path):
    config = CFG_CONFIG.replace(
        "hidden_knob: float = 0.5",
        "hidden_knob: float = 0.5  # repro: noqa[CFG001]")
    result = _write_cfg_project(tmp_path, config, CFG_CLI)
    assert result.violations == []
    assert [v.rule for v in result.suppressed] == ["CFG001"]


def test_cfg001_covers_serve_config_too(tmp_path):
    config = ("from dataclasses import dataclass\n"
              "\n\n"
              "@dataclass(frozen=True)\n"
              "class ServeConfig:\n"
              "    max_batch: int = 32\n"
              "    secret_knob: int = 1\n")
    cli = ("def make_serve(args):\n"
           "    return dict(max_batch=args.serve_max_batch)\n")
    result = _write_cfg_project(tmp_path, config, cli)
    assert [v.rule for v in result.violations] == ["CFG001"]
    assert "ServeConfig.secret_knob" in result.violations[0].message


def test_cfg001_checks_every_config_class(tmp_path):
    # one wired class does not excuse another class's unwired field
    config = (CFG_CONFIG
              + "\n\n@dataclass(frozen=True)\n"
                "class ServeConfig:\n"
                "    workers: int = 2\n")
    cli = ("def make(args):\n"
           "    return dict(max_steps=1, learning_rate=0.1,\n"
           "                hidden_knob=2.0, workers=args.w)\n")
    result = _write_cfg_project(tmp_path, config, cli)
    assert result.violations == []


def test_cfg001_silent_without_config_class(tmp_path):
    (tmp_path / "misc.py").write_text("x = 1\n")
    result = run_analysis([tmp_path], select=["CFG001"])
    assert result.violations == []


# ----------------------------------------------------------------------
# suppression machinery
# ----------------------------------------------------------------------
def test_parse_noqa_forms():
    text = ("a = 1  # repro: noqa[DET001]\n"
            "b = 2  # repro: noqa[DET001, PURE001]\n"
            "c = 3  # repro: noqa\n"
            "d = 4  # noqa\n")
    noqa = parse_noqa(text)
    assert noqa[1] == frozenset({"DET001"})
    assert noqa[2] == frozenset({"DET001", "PURE001"})
    assert noqa[3] == frozenset({"*"})  # bare form silences every rule
    assert 4 not in noqa  # plain flake8 noqa is not ours


def test_noqa_for_other_rule_does_not_suppress(tmp_path):
    src = "import time\nstarted = time.time()  # repro: noqa[DET002]\n"
    result = lint(tmp_path, "timed.py", src)
    # The DET001 diagnostic survives, and NOQA001 points out that the
    # DET002 suppression silenced nothing.
    assert [v.rule for v in result.violations] == ["DET001", "NOQA001"]
    quiet = lint(tmp_path, "timed.py", src, unused_noqa=False)
    assert [v.rule for v in quiet.violations] == ["DET001"]


def test_rule_selection_and_ignore(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(DET001_BAD)
    only = run_analysis([path], select=["DET001"])
    assert only.rules_run == ("DET001",)
    ignored = run_analysis([path], ignore=["DET001"])
    assert ignored.violations == []


# ----------------------------------------------------------------------
# NOQA001: suppressions must suppress something
# ----------------------------------------------------------------------
def test_noqa001_used_suppression_is_silent(tmp_path):
    src = "import time\nstarted = time.time()  # repro: noqa[DET001]\n"
    result = lint(tmp_path, "timed.py", src)
    assert result.violations == []


def test_noqa001_flags_stale_suppression(tmp_path):
    src = "x = 1  # repro: noqa[DET001]\n"
    result = lint(tmp_path, "quiet.py", src)
    assert [v.rule for v in result.violations] == ["NOQA001"]
    assert "unused suppression" in result.violations[0].message
    # The diagnostic points at the comment, not column 1.
    assert result.violations[0].col == 8


def test_noqa001_flags_unknown_rule_id(tmp_path):
    src = "x = 1  # repro: noqa[DET999]\n"
    result = lint(tmp_path, "typo.py", src)
    assert [v.rule for v in result.violations] == ["NOQA001"]
    assert "unknown rule 'DET999'" in result.violations[0].message


def test_noqa001_flags_unused_bare_noqa_on_full_runs(tmp_path):
    src = "x = 1  # repro: noqa\n"
    result = lint(tmp_path, "quiet.py", src)
    assert [v.rule for v in result.violations] == ["NOQA001"]
    # A partial run cannot judge a bare suppression (an unselected rule
    # might need it) — only full runs report it.
    partial = lint(tmp_path, "quiet.py", src, select=["DET001", "NOQA001"])
    assert partial.violations == []


def test_noqa001_opt_out(tmp_path):
    src = "x = 1  # repro: noqa[DET001]\n"
    result = lint(tmp_path, "quiet.py", src, unused_noqa=False)
    assert result.violations == []


def test_noqa001_explicit_allowlist_suppresses_the_audit(tmp_path):
    src = "x = 1  # repro: noqa[DET001, NOQA001]\n"
    result = lint(tmp_path, "quiet.py", src)
    assert result.violations == []
    assert "NOQA001" in {v.rule for v in result.suppressed}


def test_noqa001_ignores_mentions_inside_strings(tmp_path):
    src = ('DOC = """use # repro: noqa[DET001] to silence"""\n'
           "x = 1\n")
    result = lint(tmp_path, "doc.py", src)
    assert result.violations == []
