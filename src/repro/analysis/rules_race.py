"""The RACE rule family: static enforcement of the backend task contract.

The execution backends (:mod:`repro.engine.backend`) promise bit-identity
across ``serial``/``shm``/``socket`` — but only for tasks that
honour the contract stated in :mod:`repro.core.worker`:

* a task is a **pure function of its arguments** — all state crosses the
  boundary as parameters and return values (the RNG round-trip pattern);
* a task is a **module-level callable** — process pools pickle functions
  by reference, so lambdas, nested functions, and bound methods either
  crash (spawn) or silently capture parent state (fork).

Both clauses were previously enforced only by convention and by the
bit-identity test battery.  With the shared-memory and socket executors
on the roadmap, the contract needs to hold for code *one call away* from
the task too — exactly what the call graph makes checkable:

* :class:`SharedStateMutation` (``RACE001``) — walks every function
  reachable from a task handed to a backend and flags mutation of module
  globals, closed-over state (``nonlocal``), and bound ``self``
  attributes.  Under ``shm``/``socket`` each worker process mutates its
  own copy, so the numerics diverge from serial *silently* (no crash —
  just different floats).  The regression test
  ``tests/test_analysis_race.py`` demonstrates both the static catch and
  the actual divergence on ``socket``.
* :class:`UnpicklableTask` (``RACE002``) — flags submit sites whose task
  argument is a lambda, a nested function, or a bound method/attribute:
  anything that is not a picklable module-level callable.  These work by
  accident under ``serial`` and break (or worse, capture state) under
  ``shm``/``socket`` — the exact bug class that stays invisible until
  someone flips ``--backend``.

Rule ids are stable; scope is derived from
:meth:`repro.analysis.callgraph.CallGraph.submit_sites` — there is no
file list to forget to extend.

This module is imported at the bottom of :mod:`repro.analysis.rules`
(which provides the base classes and shared finding helpers), so import
it via ``repro.analysis`` rather than directly.
"""

from __future__ import annotations

from typing import Iterator

from .callgraph import CallGraph
from .rules import CallGraphRule, shared_state_findings
from .violations import Violation

__all__ = ["SharedStateMutation", "UnpicklableTask"]


class SharedStateMutation(CallGraphRule):
    """``RACE001`` — no shared-state mutation reachable from a task.

    Roots are the task functions resolved at backend submit sites;
    everything reachable from them through the call graph is checked
    with :func:`repro.analysis.rules.shared_state_findings` (module
    globals, ``global``/``nonlocal`` rebinding, ``self`` attributes).
    The diagnostic lands on the mutating statement and names the call
    path from the task, so the fix — thread the state through arguments
    and return values — is visible at the flagged line.
    """

    id = "RACE001"
    summary = ("backend task functions and scheduler dispatch functions "
               "(and everything they call) must not mutate shared state "
               "— module globals, closed-over names, or self attributes; "
               "parallel backends make the result scheduling-dependent "
               "and impure dispatch breaks schedule replay")

    #: Package whose module-level ``dispatch_*`` policy functions are
    #: purity roots alongside backend tasks: the scheduler's
    #: byte-identical-replay contract folds these over the event
    #: sequence, so hidden state would make two replays diverge.
    DISPATCH_PACKAGE = "sched"
    DISPATCH_PREFIX = "dispatch_"

    def _dispatch_roots(self, graph: CallGraph) -> set[str]:
        return {f.qualname
                for f in graph.functions_under(self.DISPATCH_PACKAGE)
                if f.name.startswith(self.DISPATCH_PREFIX)}

    def check_graph(self, graph: CallGraph) -> Iterator[Violation]:
        tasks = set(graph.task_functions())
        dispatch = self._dispatch_roots(graph)
        roots = tasks | dispatch
        if not roots:
            return
        for qual, path in graph.reachable(sorted(roots)).items():
            info = graph.functions[qual]
            root = graph.functions[path[0]]
            role = ("scheduler dispatch function"
                    if path[0] in dispatch else "backend task")
            consequence = (
                "two replays of the same schedule diverge"
                if path[0] in dispatch else
                "process backends give each worker its own copy, so "
                "results diverge from serial")
            # A constructor assigning to `self` is building a fresh,
            # task-local object — not shared state.  (Same carve-out as
            # interprocedural PURE001.)
            check_self = info.name not in {"__init__", "__post_init__"}
            for node, detail in shared_state_findings(
                    graph, info, check_self=check_self):
                yield Violation(
                    path=info.src.path, line=node.lineno,
                    col=node.col_offset + 1, rule=self.id,
                    message=(f"{detail} inside code run by {role} "
                             f"'{root.short}' (path: "
                             f"{graph.call_path_names(path)}); "
                             f"{consequence} — pass state via arguments "
                             "and return values"))


class UnpicklableTask(CallGraphRule):
    """``RACE002`` — backend tasks must be module-level callables.

    Checks every submit site the call graph discovered; the argument
    classification (lambda / nested function / bound method or
    attribute) comes from
    :meth:`repro.analysis.callgraph.CallGraph.submit_sites`.  Unresolved
    plain names (a callable parameter forwarded to a pool) are left
    alone — nothing can be proven about them statically.
    """

    id = "RACE002"
    summary = ("functions submitted to an execution backend must be "
               "picklable module-level callables: no lambdas, nested "
               "functions, or bound methods")

    def check_graph(self, graph: CallGraph) -> Iterator[Violation]:
        for site in graph.submit_sites():
            if site.problem is None:
                continue
            yield Violation(
                path=site.caller.src.path, line=site.fn_arg.lineno,
                col=site.fn_arg.col_offset + 1, rule=self.id,
                message=(f"task passed to .{site.method}() is not a "
                         f"picklable module-level callable: "
                         f"{site.problem}"))
