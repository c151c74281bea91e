"""Call-graph construction tests (``repro.analysis.callgraph``).

The fixture packages under ``tests/data/analysis_fixtures/`` exercise
the resolution features the graph-scoped rules depend on: import cycles,
aliased and relative imports, package ``__init__`` re-exports, method
resolution through project-defined bases, and backend submit-site
discovery.  The speed smoke at the bottom is the CI budget for keeping
whole-tree analysis cheap.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis import CallGraph, module_name_for, run_analysis
from repro.analysis.engine import collect_files, load_source

FIXTURES = Path(__file__).resolve().parent / "data" / "analysis_fixtures"
REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def build_graph(*paths: Path) -> CallGraph:
    files = [load_source(p) for p in collect_files(paths)]
    return CallGraph(files)


# ----------------------------------------------------------------------
# module naming
# ----------------------------------------------------------------------
def test_module_name_follows_init_chain():
    assert module_name_for(FIXTURES / "cg_pkg" / "alpha.py") == "cg_pkg.alpha"
    assert module_name_for(FIXTURES / "cg_pkg" / "__init__.py") == "cg_pkg"
    # analysis_fixtures/ has no __init__.py, so the package root is cg_pkg
    # and a sibling bare file is just its stem.
    assert module_name_for(FIXTURES / "uses_cg.py") == "uses_cg"
    assert module_name_for(REPO_SRC / "engine" / "backend.py") == \
        "repro.engine.backend"


# ----------------------------------------------------------------------
# edges: cycles, aliases, re-exports, methods
# ----------------------------------------------------------------------
def test_cycle_resolves_and_reachability_terminates():
    graph = build_graph(FIXTURES / "cg_pkg")
    edges = {callee for callee, _ in graph.calls["cg_pkg.alpha.ping"]}
    assert "cg_pkg.beta.pong" in edges  # via the aliased module import
    back = {callee for callee, _ in graph.calls["cg_pkg.beta.pong"]}
    assert "cg_pkg.alpha.ping" in back  # via the aliased from-import
    reach = graph.reachable(["cg_pkg.alpha.ping"])
    assert set(reach) >= {"cg_pkg.alpha.ping", "cg_pkg.beta.pong"}
    # Shortest path back around the cycle, not an infinite unrolling.
    assert reach["cg_pkg.beta.pong"] == ("cg_pkg.alpha.ping",
                                         "cg_pkg.beta.pong")


def test_reexport_through_package_init():
    graph = build_graph(FIXTURES / "cg_pkg", FIXTURES / "uses_cg.py")
    edges = {callee for callee, _
             in graph.calls["uses_cg.call_through_reexport"]}
    assert "cg_pkg.alpha.ping" in edges


def test_method_resolution_through_project_base():
    graph = build_graph(FIXTURES / "cg_pkg")
    edges = {callee for callee, _
             in graph.calls["cg_pkg.klass.Child.entry"]}
    assert edges == {"cg_pkg.klass.Base.helper", "cg_pkg.klass.Child.local"}


def test_instantiation_routes_to_init():
    graph = build_graph(FIXTURES / "cg_pkg")
    edges = {callee for callee, _ in graph.calls["cg_pkg.klass.build"]}
    assert "cg_pkg.klass.Child.__init__" in edges


def test_unresolvable_calls_produce_no_edge():
    # `Child(2).entry()` — a method on an arbitrary expression — must not
    # be guessed; unsound-but-precise means no invented edges.
    graph = build_graph(FIXTURES / "cg_pkg")
    edges = {callee for callee, _ in graph.calls["cg_pkg.klass.build"]}
    assert "cg_pkg.klass.Child.entry" not in edges


# ----------------------------------------------------------------------
# backend submit sites
# ----------------------------------------------------------------------
def test_submit_site_discovery_and_classification():
    graph = build_graph(FIXTURES / "racy_pkg")
    sites = {s.caller.qualname.rsplit(".", 1)[-1]: s
             for s in graph.submit_sites()}
    assert sites["run_racy"].task == "racy_pkg.tasks.racy_sum_task"
    assert sites["run_racy"].problem is None
    assert sites["run_clean"].task == "racy_pkg.tasks.clean_sum_task"
    assert "lambda" in sites["run_lambda"].problem
    assert "nested" in sites["run_nested"].problem
    assert "bound method" in sites["run_bound"].problem
    tasks = graph.task_functions()
    # The nested function is a task root too — it still *runs* on the
    # backend (RACE002 flags the submission separately).
    assert set(tasks) == {
        "racy_pkg.tasks.racy_sum_task",
        "racy_pkg.tasks.clean_sum_task",
        "racy_pkg.driver.RacyDriver.run_nested.<locals>.local_task",
    }


def test_round_helper_calls_are_submit_sites(tmp_path):
    # Inside DistributedTrainer._local_round the task is a parameter, so
    # the helper's *callers* must count as submit sites — on any
    # receiver, with the first argument classified like a raw submit.
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "tasks.py").write_text(
        "def task(part, rng):\n    return float(sum(part)), rng\n")
    (pkg / "trainers.py").write_text(
        "from .tasks import task\n\n\n"
        "class Trainer:\n"
        "    def _local_round(self, fn, args_for, data):\n"
        "        return self._backend.map_partitions(fn, [()])\n\n"
        "    def run_named(self, data):\n"
        "        return self._local_round(task, lambda i: (), data)\n\n"
        "    def run_lambda(self, data):\n"
        "        return self._local_round(lambda p, r: (0.0, r),\n"
        "                                 lambda i: (), data)\n\n"
        "    def run_nested(self, data):\n"
        "        def local_task(part, rng):\n"
        "            return 0.0, rng\n"
        "        return self._local_round(local_task, lambda i: (), data)\n\n"
        "    def run_bound(self, data):\n"
        "        return self._local_round(self._bound, lambda i: (), data)\n\n"
        "    def _bound(self, part, rng):\n"
        "        return 0.0, rng\n")
    graph = build_graph(pkg)
    sites = {s.caller.name: s for s in graph.submit_sites()}
    assert sites["run_named"].task == "pkg.tasks.task"
    assert sites["run_named"].problem is None
    assert "lambda" in sites["run_lambda"].problem
    assert "nested" in sites["run_nested"].problem
    assert "bound method" in sites["run_bound"].problem
    # the forwarding call inside the helper proves nothing and roots nothing
    assert sites["_local_round"].task is None
    assert sites["_local_round"].problem is None
    assert "pkg.tasks.task" in graph.task_functions()


def test_repo_tree_submit_sites_resolve_worker_tasks():
    # On the real tree the derived scope must find exactly the worker
    # tasks: a task that drops out (a dispatch site the graph stopped
    # seeing) silently leaves RACE001/RACE002/DET002's scope, and the
    # linter would still exit 0.
    graph = build_graph(REPO_SRC)
    assert set(graph.task_functions()) == {
        "repro.core.worker.gradient_wave_task",
        "repro.core.worker.send_model_task",
        "repro.core.worker.petuum_batch_task",
        "repro.core.worker.angel_epoch_task",
        "repro.core.worker.run_dual_on_partition",
        "repro.core.worker.full_pass_task",
        "repro.core.worker.asgd_gradient_task",
        "repro.engine.shm.run_on_shm_partition",
    }


# ----------------------------------------------------------------------
# CI speed budget
# ----------------------------------------------------------------------
def test_full_tree_analysis_under_ten_seconds():
    start = time.perf_counter()
    result = run_analysis([REPO_SRC])
    elapsed = time.perf_counter() - start
    assert result.files_checked > 50
    assert elapsed < 10.0, (f"full-tree analysis took {elapsed:.1f}s; "
                            "the call graph must stay cheap")
