"""Lint rules tuned to this codebase's reproducibility invariants.

The repo's central promise — same seed, same weights, bit-for-bit, no
matter what faults or refactors happen — is only as strong as the code
paths nobody happened to test.  These rules encode the invariants as
static checks:

* :class:`AmbientNondeterminism` (``DET001``) — no unseeded randomness or
  wall-clock reads anywhere in ``src/repro``; all randomness must arrive
  as a ``numpy.random.Generator`` parameter derived from a
  ``SeedSequence`` (see ``DistributedTrainer._worker_rngs``).  One scoped
  carve-out: the profiling package ``repro/perf/`` *measures* wall-clock
  time by design, so the wall-clock/date diagnostics are suppressed
  there — structurally, by rule scoping, not by ``noqa`` comments — while
  the RNG diagnostics still apply in full.
* :class:`UnorderedIteration` (``DET002``) — no iteration over ``set`` /
  ``frozenset`` values in code that can run inside a collective combine
  or a backend task: float addition is not associative, so a hash-order
  dependent accumulation silently changes the numerics.  The scope is
  **derived from the call graph** (see :mod:`repro.analysis.callgraph`),
  not declared as a file list: every function reachable from a combine
  entry point (the ``collectives``/``ps`` packages) or from a task
  function handed to an execution backend is in scope, wherever it
  lives.
* :class:`ImpureCostModel` (``PURE001``) — cost-model pricing methods
  (``seconds``, ``*_seconds``, ``timing``) must not mutate state; pricing
  a phase twice must cost the same both times.  The check is
  *interprocedural*: a pricing method that calls a helper which mutates
  state or reads ambient RNG/clock is flagged at the call site, with the
  offending path reported (``seconds -> _helper -> list.append``).
  Scoped out of ``repro/perf/``: its timing accessors report *measured*
  wall-clock aggregates, not simulated prices, and accumulate by design.
* The ``RACE`` family (:mod:`repro.analysis.rules_race`) — backend task
  functions must not touch shared state (``RACE001``) and must be
  picklable module-level callables (``RACE002``).
* :class:`UnusedSuppression` (``NOQA001``) — ``# repro: noqa[RULE]``
  comments that suppress nothing (detected by the engine after the other
  rules run; see :func:`repro.analysis.engine.run_analysis`).

Rules are pluggable: subclass :class:`Rule` (:class:`CallGraphRule` for
checks scoped by the project call graph), give it a unique ``id``, and
add it to :data:`ALL_RULES`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .callgraph import (CallGraph, FunctionInfo, _dotted, _module_imports,
                        local_bindings, module_name_for, own_body)
from .violations import Violation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import SourceFile

__all__ = ["Rule", "CallGraphRule", "ALL_RULES",
           "rule_registry", "AmbientNondeterminism", "UnorderedIteration",
           "ImpureCostModel", "UnusedSuppression",
           "MUTATORS", "shared_state_findings", "ambient_findings"]


class Rule:
    """A single-file lint rule.

    Subclasses set ``id`` / ``summary`` and implement :meth:`check`;
    :meth:`applies_to` narrows the rule to the files whose invariants it
    guards.
    """

    id: str = "RULE000"
    summary: str = ""

    def applies_to(self, path: Path) -> bool:
        return True

    def check(self, src: "SourceFile") -> Iterator[Violation]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def violation(self, src: "SourceFile", node: ast.AST,
                  message: str) -> Violation:
        return Violation(path=src.path, line=node.lineno,
                         col=node.col_offset + 1, rule=self.id,
                         message=message)


class CallGraphRule(Rule):
    """A rule whose scope is derived from the project call graph.

    The engine builds one :class:`~repro.analysis.callgraph.CallGraph`
    per run (over every collected file) and hands it to
    :meth:`check_graph`; per-file dispatch is skipped.
    """

    def check(self, src: "SourceFile") -> Iterator[Violation]:
        return iter(())

    def check_graph(self, graph: CallGraph) -> Iterator[Violation]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
#: Method names that mutate their receiver in place.
MUTATORS = frozenset({
    "append", "extend", "add", "update", "insert", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
    "setflags", "fill",
})


def _resolve(dotted: str | None, aliases: dict[str, str]) -> str | None:
    """Rewrite the first component of a dotted name through the imports."""
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head not in aliases:
        return None  # a local variable, not an imported module
    resolved = aliases[head]
    return f"{resolved}.{rest}" if rest else resolved


def _attribute_root(node: ast.AST) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# ----------------------------------------------------------------------
# shared finding helpers (used by both PURE001 passes and the RACE family
# in rules_race.py)
# ----------------------------------------------------------------------
def shared_state_findings(graph: CallGraph, info: FunctionInfo,
                          check_self: bool = True,
                          ) -> Iterator[tuple[ast.AST, str]]:
    """Mutations of state that outlives one call of ``info``.

    Yields ``(node, detail)`` for: ``global``/``nonlocal`` rebinding,
    assignment to ``self.<attr>``, mutator-method calls on ``self``
    state, and writes into (or mutator calls on) this module's top-level
    globals.  Rebinding a plain local name is never flagged — Python
    scoping makes it function-local.
    """
    module = graph.modules.get(info.module)
    locals_ = local_bindings(info)
    writable = (module.module_globals - locals_) if module else set()

    def _shared_root(target: ast.AST) -> str | None:
        root = _attribute_root(target)
        if root is None:
            return None
        if root == "self" and check_self:
            return "self"
        if root in writable:
            return root
        return None

    for node in own_body(info):
        if isinstance(node, ast.Global):
            yield node, (f"'global {'/'.join(node.names)}' rebinds module "
                         "state")
        elif isinstance(node, ast.Nonlocal):
            yield node, (f"'nonlocal {'/'.join(node.names)}' mutates "
                         "closed-over state")
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(node, ast.Assign):
                targets: list[ast.AST] = list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is None:
                continue  # `x: int` alone assigns nothing
            else:
                targets = [node.target]
            # Unpacking (`a, self.b = ...`) nests the stores a level down.
            for target in (sub for t in targets for sub in ast.walk(t)
                           if isinstance(sub, (ast.Attribute, ast.Subscript))
                           and isinstance(sub.ctx, ast.Store)):
                root = _shared_root(target)
                if root == "self":
                    attr = (target.attr if isinstance(target, ast.Attribute)
                            else "<item>")
                    yield node, f"assignment to self.{attr}"
                elif root is not None:
                    yield node, f"assignment into module global '{root}'"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
                root = _shared_root(func.value)
                if root == "self":
                    yield node, f".{func.attr}() on self state"
                elif root is not None:
                    yield node, (f".{func.attr}() mutates module global "
                                 f"'{root}'")


def ambient_findings(info: FunctionInfo,
                     aliases: dict[str, str],
                     ) -> Iterator[tuple[ast.AST, str]]:
    """Ambient RNG / wall-clock reads inside ``info``'s own body."""
    checker = AmbientNondeterminism()
    for node in own_body(info):
        if not isinstance(node, ast.Call):
            continue
        name = _resolve(_dotted(node.func), aliases)
        if name is None:
            continue
        if checker._diagnose(name, node) is not None:
            yield node, f"reads ambient nondeterminism via '{name}'"


# ----------------------------------------------------------------------
# DET001 — ambient nondeterminism
# ----------------------------------------------------------------------
class AmbientNondeterminism(Rule):
    """No unseeded RNGs or wall-clock reads in ``src/repro``.

    The wall-clock and ambient-date diagnostics are suppressed inside
    ``repro/perf/`` — the profiling package's whole purpose is measuring
    wall-clock time, and confining ``time.perf_counter`` there is exactly
    the invariant this scoping enforces.  The RNG diagnostics still apply
    to ``perf`` files: profiling must never introduce ambient randomness.
    """

    id = "DET001"
    summary = ("ambient nondeterminism: randomness must arrive as a "
               "seeded numpy Generator parameter; wall-clock reads are "
               "forbidden (the simulated clock is the only clock; "
               "measured wall time lives only in repro/perf/)")

    #: Legacy global-state samplers on ``numpy.random`` (the module-level
    #: RandomState, shared and order-dependent).
    LEGACY_NP_RANDOM = frozenset({
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "uniform", "normal",
        "standard_normal", "beta", "binomial", "exponential", "poisson",
        "get_state", "set_state", "bytes",
    })
    WALL_CLOCKS = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    })
    AMBIENT_DATES = frozenset({
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    #: The socket backend's transport layer measures wall time by design
    #: (bytes-on-wire + elapsed seconds feed the measured-vs-simulated
    #: network validation).  The exemption names exactly these two files
    #: so the rest of ``repro.engine`` stays under the wall-clock ban.
    MEASURED_TRANSPORT_FILES = frozenset({"wire.py", "daemon.py"})

    @classmethod
    def _wall_clock_exempt(cls, path: Path) -> bool:
        """True for the profiling package (measures wall time by design)
        and for the socket backend's measured transport layer."""
        if "perf" in path.parts:
            return True
        return ("engine" in path.parts
                and path.name in cls.MEASURED_TRANSPORT_FILES)

    def check(self, src: "SourceFile") -> Iterator[Violation]:
        aliases = _module_imports(src.tree, module_name_for(src.path),
                                  src.path.name == "__init__.py")
        wall_ok = self._wall_clock_exempt(src.path)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolve(_dotted(node.func), aliases)
            if name is None:
                continue
            if wall_ok and (name in self.WALL_CLOCKS
                            or name in self.AMBIENT_DATES):
                continue
            message = self._diagnose(name, node)
            if message is not None:
                yield self.violation(src, node, message)

    def _diagnose(self, name: str, call: ast.Call) -> str | None:
        if name == "random" or name.startswith("random."):
            return (f"call to stdlib '{name}' uses the ambient global RNG; "
                    "take a numpy Generator parameter spawned from a "
                    "SeedSequence instead")
        if name == "numpy.random.seed":
            return ("numpy.random.seed mutates the global RNG; pass "
                    "seeded Generators explicitly")
        if name == "numpy.random.default_rng" and not (call.args
                                                       or call.keywords):
            return ("default_rng() without a seed is nondeterministic; "
                    "derive the seed from config.seed via SeedSequence")
        if name.startswith("numpy.random."):
            attr = name.rsplit(".", 1)[1]
            if attr in self.LEGACY_NP_RANDOM:
                return (f"numpy.random.{attr} samples from the shared "
                        "legacy RandomState; use a Generator parameter")
        if name in self.WALL_CLOCKS:
            return (f"'{name}' reads the wall clock; simulated time "
                    "(engine.now) is the only clock allowed in repro")
        if name in self.AMBIENT_DATES:
            return (f"'{name}' is wall-clock dependent; thread timestamps "
                    "in explicitly if they are needed")
        return None


# ----------------------------------------------------------------------
# DET002 — unordered iteration on aggregation paths
# ----------------------------------------------------------------------
class UnorderedIteration(CallGraphRule):
    """No iteration over sets where numeric accumulation can happen.

    Scope is *derived*, not declared.  The roots are the code that runs
    inside (or feeds) a reduction:

    * every function, method, and module body defined in a
      ``collectives``, ``ps``, or ``sched`` package — the combine entry
      points of the two aggregation data planes (shuffle-based AllReduce
      and the parameter server) and the cluster scheduler, whose
      schedule log carries a byte-identity replay contract;
    * every task function handed to an execution backend
      (``<backend>.map_partitions(fn, ...)`` / ``.run_one(fn, ...)`` /
      ``.submit(fn, ...)`` / ``._local_round(fn, ...)`` sites, resolved
      through the call graph).

    Everything transitively reachable from a root — helper modules, glm
    kernels, wire formats, wherever they live — is in scope; nothing has
    to be added to a file list when worker-side code grows or moves.
    """

    id = "DET002"
    summary = ("iteration over set/frozenset on an aggregation path: "
               "hash order is not a reduction order — float addition "
               "does not commute bit-exactly; sort first (scope: call "
               "graph from collective/ps entry points and backend tasks)")

    #: Directory names anchoring the combine entry points.
    AGGREGATION_PACKAGES = ("collectives", "ps", "sched")

    def check_graph(self, graph: CallGraph) -> Iterator[Violation]:
        roots: set[str] = set()
        for package in self.AGGREGATION_PACKAGES:
            roots.update(f.qualname for f in graph.functions_under(package))
        roots.update(graph.task_functions())
        for qual, path in graph.reachable(sorted(roots)).items():
            info = graph.functions[qual]
            suffix = ""
            if len(path) > 1:
                suffix = f" [reachable via {graph.call_path_names(path)}]"
            for node in own_body(info):
                iters: list[ast.AST] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    if self._is_unordered(it):
                        yield self.violation(
                            info.src, it,
                            "iterating a set here makes the reduction "
                            "order hash-dependent; iterate a sorted() or "
                            "list view instead" + suffix)

    @staticmethod
    def _is_unordered(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False


# ----------------------------------------------------------------------
# PURE001 — cost-model pricing must be pure
# ----------------------------------------------------------------------
class ImpureCostModel(CallGraphRule):
    """``seconds()`` / ``*_seconds()`` / ``timing()`` must not mutate.

    Two layers over one finder, :func:`shared_state_findings`:

    * **intraprocedural** — the pricing function's own body must not
      rebind globals/nonlocals or write into (or call mutating methods
      on) ``self`` state or module globals;
    * **interprocedural** — every project function the pricing function
      can reach through the call graph is checked for shared-state
      mutation and ambient RNG/clock reads; an impure helper is flagged
      *at the call site in the pricing function*, with the offending
      path reported (``seconds -> _helper -> .append()``).

    Scoped out of ``repro/perf/`` on both layers: the profiler's timing
    accessors report measured wall-clock aggregates (not simulated
    prices) and accumulate state by design — they are measurements, not
    a cost model.  Constructor bodies (``__init__``/``__post_init__``)
    reached through instantiation are exempt from the self-assignment
    check: a fresh object's initialization is not shared state.
    """

    id = "PURE001"
    summary = ("cost-model pricing methods must be pure: pricing the "
               "same phase twice must return the same seconds; checked "
               "through the call graph (impure helpers are flagged at "
               "the pricing call site with the call path)")

    #: Constructors: self-assignments initialize a fresh object.
    _CONSTRUCTORS = frozenset({"__init__", "__post_init__"})

    @staticmethod
    def _is_pricing_name(name: str) -> bool:
        return (name in ("seconds", "timing")
                or name.endswith("_seconds"))

    @staticmethod
    def _measures_wall_time(info: FunctionInfo) -> bool:
        return "perf" in info.src.path.parts

    def check_graph(self, graph: CallGraph) -> Iterator[Violation]:
        impurity_cache: dict[str, list[tuple[ast.AST, str]]] = {}
        for qual in sorted(graph.functions):
            info = graph.functions[qual]
            if info.is_module_body or not self._is_pricing_name(info.name):
                continue
            if self._measures_wall_time(info):
                continue
            for node, detail in shared_state_findings(graph, info):
                yield self.violation(
                    info.src, node, f"{detail} inside a pricing function "
                    "mutates cost-model state")
            yield from self._check_call_paths(graph, info, impurity_cache)

    def _check_call_paths(
            self, graph: CallGraph, root: FunctionInfo,
            impurity_cache: dict[str, list[tuple[ast.AST, str]]],
    ) -> Iterator[Violation]:
        seen = {root.qualname}
        queue: list[tuple[str, ast.AST, tuple[str, ...]]] = [
            (callee, node, (root.qualname, callee))
            for callee, node in graph.calls.get(root.qualname, ())]
        reported: set[tuple[int, str, str]] = set()
        while queue:
            qual, entry, path = queue.pop(0)
            if qual in seen or qual not in graph.functions:
                continue
            seen.add(qual)
            info = graph.functions[qual]
            if self._measures_wall_time(info):
                continue  # measurement code; not a cost model
            for node, detail in self._impurities(graph, info,
                                                 impurity_cache):
                key = (entry.lineno, qual, detail)
                if key in reported:
                    continue
                reported.add(key)
                yield Violation(
                    path=root.src.path, line=entry.lineno,
                    col=entry.col_offset + 1, rule=self.id,
                    message=("impure call path "
                             f"{graph.call_path_names(path)}: {detail} "
                             f"({info.src.path.name}:{node.lineno}); "
                             "pricing must stay pure all the way down"))
            for callee, node in graph.calls.get(qual, ()):
                if callee not in seen:
                    queue.append((callee, entry, path + (callee,)))

    def _impurities(self, graph: CallGraph, info: FunctionInfo,
                    impurity_cache: dict[str, list[tuple[ast.AST, str]]],
                    ) -> list[tuple[ast.AST, str]]:
        if info.qualname not in impurity_cache:
            check_self = info.name not in self._CONSTRUCTORS
            found = list(shared_state_findings(graph, info,
                                               check_self=check_self))
            found.extend(ambient_findings(
                info, graph.modules[info.module].imports))
            impurity_cache[info.qualname] = found
        return impurity_cache[info.qualname]


# ----------------------------------------------------------------------
# NOQA001 — suppressions must suppress something
# ----------------------------------------------------------------------
class UnusedSuppression(Rule):
    """``# repro: noqa[RULE]`` comments that silence nothing.

    As rules are rescoped by the call graph, old suppressions rot: the
    comment stays, the diagnostic it silenced is long gone, and the next
    *real* violation on that line is silently eaten.  The engine checks
    every suppression after the other rules run and reports the stale
    ones (opt out with ``--no-unused-noqa``).

    This class is a registry marker — the check itself lives in
    :func:`repro.analysis.engine.run_analysis`, because only the engine
    sees which suppressions matched a diagnostic.
    """

    id = "NOQA001"
    summary = ("unused '# repro: noqa[RULE]' suppression: it silences "
               "nothing on its line (stale suppressions eat the next "
               "real diagnostic); remove it or fix the rule id")

    def check(self, src: "SourceFile") -> Iterator[Violation]:
        return iter(())  # engine-implemented; see run_analysis


# NOTE: imported at the bottom so rules_race can use this module's base
# classes and helpers without a circular-import dance.
from .rules_race import SharedStateMutation, UnpicklableTask  # noqa: E402

#: Registry order is report order for same-position violations.
ALL_RULES: tuple[Rule, ...] = (
    AmbientNondeterminism(),
    UnorderedIteration(),
    ImpureCostModel(),
    SharedStateMutation(),
    UnpicklableTask(),
    UnusedSuppression(),
)


def rule_registry() -> dict[str, Rule]:
    """Map rule id -> rule instance for selection by id."""
    return {rule.id: rule for rule in ALL_RULES}
