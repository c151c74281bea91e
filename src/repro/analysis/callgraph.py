"""Project-wide symbol table and call graph for the determinism linter.

The linter's first generation scoped its rules with hand-maintained file
lists (``applies_to`` naming ``backend.py``, ``worker.py``, …) and never
looked past a function's own body.  Both break the same way: the moment a
helper moves — or a new module joins the worker-side code — the invariant
silently stops being checked.  This module replaces the lists with a
*derived* scope:

* a **symbol table** over every analyzed file (modules, functions,
  classes, methods, module-level globals), keyed by dotted qualified
  names such as ``repro.core.worker.send_model_task`` or
  ``repro.engine.backend.ShmBackend._submit``;
* **import resolution** that follows aliases (``import numpy as np``),
  ``from``-imports, *relative* imports (``from ..glm import sgd_epoch``)
  and package re-exports (``repro.glm.__init__`` re-exporting
  ``local_solvers.sgd_epoch``), so a call in one file resolves to the
  definition in another;
* **call edges** per function: direct calls, ``self.method()`` calls
  resolved through the class (including bases defined in the project),
  calls through imported modules, and nested ``def``s (conservatively
  treated as called by their enclosing function);
* **reachability queries** (:meth:`CallGraph.reachable`) that return the
  call path from a root to every transitively reached function — the
  path is what rules report (``seconds -> _helper -> list.append``);
* **backend submit sites** (:meth:`CallGraph.submit_sites`): every
  ``<...backend...>.map_partitions(fn, ...)`` / ``.run_one(fn, ...)`` /
  ``.submit(fn, ...)`` call and every call of the trainers' dispatch
  helper ``._local_round(fn, ...)``, with the task argument classified
  (resolved module-level function, lambda, nested function, bound
  attribute).  The resolved task functions are the roots for the RACE
  family and part of DET002's derived scope.

Resolution is deliberately *unsound but precise*: a call that cannot be
resolved statically (a method on an arbitrary object, a callable passed
as a parameter, a subscripted dispatch table) produces no edge rather
than a guessed one.  Rules built on the graph therefore under-approximate
reachability and never invent paths that do not exist in the source.

The graph is built once per lint run over all collected files
(:class:`~repro.analysis.engine.SourceFile` objects) and shared by every
graph-scoped rule; construction is a single AST pass per file plus
near-linear resolution, which keeps whole-tree analysis well under the
CI speed budget (see ``tests/test_analysis_callgraph.py``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import SourceFile

__all__ = ["CallGraph", "FunctionInfo", "ClassInfo", "ModuleInfo",
           "SubmitSite", "module_name_for", "own_body"]

#: ``DistributedTrainer._local_round(task, ...)``: the trainers' one
#: dispatch helper.  Inside it the task is a parameter, so its *callers*
#: are the submit sites that name the worker tasks.
ROUND_HELPER = "_local_round"

#: Method names that hand a callable to an execution backend.
SUBMIT_METHODS = frozenset({"map_partitions", "run_one", "submit",
                            ROUND_HELPER})

#: Suffix marking a module's top-level code as a pseudo-function node.
MODULE_BODY = "<module>"


def module_name_for(path: Path) -> str:
    """Dotted module name, derived from the ``__init__.py`` chain.

    ``src/repro/engine/backend.py`` maps to ``repro.engine.backend``
    (``src`` has no ``__init__.py``, so the package root is ``repro``);
    a bare file outside any package maps to its stem.
    """
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass
class FunctionInfo:
    """One function, method, nested function, or module body."""

    qualname: str
    name: str
    node: ast.AST  # FunctionDef / AsyncFunctionDef / Module
    src: "SourceFile"
    module: str
    class_name: str | None = None
    is_nested: bool = False
    is_module_body: bool = False

    @property
    def short(self) -> str:
        """Human-readable name for call-path reporting."""
        if self.is_module_body:
            return f"{self.module}.{MODULE_BODY}"
        if self.class_name is not None:
            return f"{self.class_name}.{self.name}"
        return self.name

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class ClassInfo:
    """One class definition with its method table and raw base names."""

    qualname: str
    name: str
    node: ast.ClassDef
    src: "SourceFile"
    module: str
    bases: tuple[str, ...]
    methods: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One module: imports, top-level definitions, globals, body."""

    name: str
    src: "SourceFile"
    imports: dict[str, str]
    defs: dict[str, str] = field(default_factory=dict)
    module_globals: set[str] = field(default_factory=set)
    body: FunctionInfo | None = None


@dataclass
class SubmitSite:
    """One backend submit call site and its classified task argument."""

    caller: FunctionInfo
    call: ast.Call
    method: str
    fn_arg: ast.AST
    #: Qualified name of the resolved task function (None if unresolved).
    task: str | None
    #: Why the argument is not a picklable module-level callable
    #: (None when it is, or when nothing can be said statically).
    problem: str | None


def _module_imports(tree: ast.Module, module_name: str,
                    is_package: bool) -> dict[str, str]:
    """Local name -> dotted target, including relative imports.

    In module ``repro.core.worker``, ``from ..glm import sgd_epoch`` maps
    ``sgd_epoch -> repro.glm.sgd_epoch``; in the package module
    ``repro.glm`` (its ``__init__.py``), ``from .local_solvers import x``
    maps ``x -> repro.glm.local_solvers.x``.
    """
    base = module_name.split(".")
    if not is_package:
        base = base[:-1]
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                anchor = base[:len(base) - (node.level - 1)] if node.level > 1 \
                    else list(base)
                if node.level - 1 > len(base):
                    continue  # relative import escaping the analyzed tree
                prefix = ".".join(anchor + ([node.module] if node.module
                                            else []))
            else:
                prefix = node.module or ""
            if not prefix:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{prefix}.{alias.name}"
    return aliases


def _dotted(node: ast.AST) -> str | None:
    """Flatten ``a.b.c`` attribute chains to ``"a.b.c"`` (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def own_body(info: FunctionInfo) -> Iterator[ast.AST]:
    """Walk a function's own statements, not descending into nested
    ``def``/``class`` scopes (each is its own graph node).  Lambdas are
    *included*: they share the enclosing scope and are not registered
    separately."""
    if info.is_module_body:
        assert isinstance(info.node, ast.Module)
        stack: list[ast.AST] = [stmt for stmt in info.node.body
                                if not isinstance(stmt, _SCOPE_NODES)]
    else:
        stack = list(getattr(info.node, "body", []))
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            stack.append(child)


def local_bindings(info: FunctionInfo) -> set[str]:
    """Names bound locally in a function (params, assignments, loop and
    ``with`` targets, comprehension variables, local imports)."""
    bound: set[str] = set()
    node = info.node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        for a in (args.posonlyargs + args.args + args.kwonlyargs):
            bound.add(a.arg)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    for sub in own_body(info):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            bound.add(sub.id)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(sub, _SCOPE_NODES):  # pragma: no cover - skipped
            bound.add(sub.name)
    return bound


class CallGraph:
    """Symbol table + call edges over one lint run's files."""

    def __init__(self, files: "Iterable[SourceFile]") -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: caller qualname -> [(callee qualname, call-site node), ...]
        self.calls: dict[str, list[tuple[str, ast.AST]]] = {}
        self._submit_sites: list[SubmitSite] = []
        sources = list(files)
        for src in sources:
            self._register_module(src)
        for src in sources:
            mod = self._module_of(src)
            if mod is not None:
                self._build_edges(mod)
        self._resolve_submit_sites()

    # ------------------------------------------------------------------
    # construction: symbol table
    # ------------------------------------------------------------------
    def _register_module(self, src: "SourceFile") -> None:
        name = module_name_for(src.path)
        if name in self.modules:
            # Two files mapping to one module name (detached fixtures with
            # colliding stems); keep both resolvable by path-suffix key.
            name = f"{name}@{src.path}"
        is_package = src.path.name == "__init__.py"
        mod = ModuleInfo(name=name, src=src,
                         imports=_module_imports(src.tree, name, is_package))
        self.modules[name] = mod
        body = FunctionInfo(qualname=f"{name}.{MODULE_BODY}",
                            name=MODULE_BODY, node=src.tree, src=src,
                            module=name, is_module_body=True)
        mod.body = body
        self.functions[body.qualname] = body
        for stmt in src.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        mod.module_globals.add(target.id)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(stmt.target, ast.Name):
                    mod.module_globals.add(stmt.target.id)
        self._register_scope(mod, src.tree.body, prefix=name,
                             class_name=None, nested=False)

    def _register_scope(self, mod: ModuleInfo, body: list[ast.stmt],
                        prefix: str, class_name: str | None,
                        nested: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{stmt.name}"
                info = FunctionInfo(qualname=qual, name=stmt.name,
                                    node=stmt, src=mod.src,
                                    module=mod.name, class_name=class_name,
                                    is_nested=nested)
                self.functions[qual] = info
                if class_name is None and not nested:
                    mod.defs[stmt.name] = qual
                # nested defs live under <locals>, flake8-style
                self._register_scope(mod, stmt.body,
                                     prefix=f"{qual}.<locals>",
                                     class_name=None, nested=True)
            elif isinstance(stmt, ast.ClassDef):
                qual = f"{prefix}.{stmt.name}"
                bases = tuple(b for b in (_dotted(base)
                                          for base in stmt.bases)
                              if b is not None)
                cls = ClassInfo(qualname=qual, name=stmt.name, node=stmt,
                                src=mod.src, module=mod.name, bases=bases)
                self.classes[qual] = cls
                if class_name is None and not nested:
                    mod.defs[stmt.name] = qual
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        cls.methods[sub.name] = f"{qual}.{sub.name}"
                self._register_scope(mod, stmt.body, prefix=qual,
                                     class_name=stmt.name, nested=nested)

    def _module_of(self, src: "SourceFile") -> ModuleInfo | None:
        for mod in self.modules.values():
            if mod.src is src:
                return mod
        return None  # pragma: no cover - every registered src has a module

    # ------------------------------------------------------------------
    # construction: edges
    # ------------------------------------------------------------------
    def _build_edges(self, mod: ModuleInfo) -> None:
        for info in list(self.functions.values()):
            if info.module != mod.name:
                continue
            edges = self.calls.setdefault(info.qualname, [])
            # nested defs are conservatively reachable from their parent
            if not info.is_module_body:
                for stmt in getattr(info.node, "body", []):
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        edges.append(
                            (f"{info.qualname}.<locals>.{stmt.name}", stmt))
            for node in own_body(info):
                if not isinstance(node, ast.Call):
                    continue
                callee = self._resolve_call(mod, info, node)
                if callee is not None:
                    edges.append((callee, node))
                self._maybe_submit_site(mod, info, node)

    def _resolve_call(self, mod: ModuleInfo, info: FunctionInfo,
                      call: ast.Call) -> str | None:
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and info.class_name is not None and rest \
                and "." not in rest:
            class_qual = f"{info.module}.{info.class_name}"
            return self._method_on_class(class_qual, rest)
        resolved = self.resolve(mod, dotted)
        if resolved in self.classes:
            # Instantiation: route to __init__ when the project defines it
            # (a fresh object's constructor; purity rules treat its
            # self-assignments as local, not shared, state).
            init = self._method_on_class(resolved, "__init__")
            return init
        return resolved

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def resolve(self, mod: ModuleInfo, dotted: str,
                _seen: set[str] | None = None) -> str | None:
        """Resolve a dotted name used in ``mod`` to a definition qualname
        (function, method, or class), following imports and re-exports."""
        seen = _seen if _seen is not None else set()
        head, _, rest = dotted.partition(".")
        if head in mod.defs:
            target = mod.defs[head]
            if not rest:
                return target
            if target in self.classes and "." not in rest:
                return self._method_on_class(target, rest)
            return None
        if head in mod.imports:
            target = mod.imports[head] + (f".{rest}" if rest else "")
            return self._resolve_absolute(target, seen)
        return None

    def _resolve_absolute(self, dotted: str,
                          seen: set[str]) -> str | None:
        if dotted in seen:
            return None
        seen.add(dotted)
        if dotted in self.functions:
            return dotted
        if dotted in self.classes:
            return dotted
        prefix, _, last = dotted.rpartition(".")
        if prefix in self.classes:
            return self._method_on_class(prefix, last)
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:i])
            if mod_name in self.modules:
                rest = ".".join(parts[i:])
                return self.resolve(self.modules[mod_name], rest, seen)
        return None

    def _method_on_class(self, class_qual: str, method: str,
                         _seen: set[str] | None = None) -> str | None:
        """Find ``method`` on a class or its project-defined bases."""
        seen = _seen if _seen is not None else set()
        if class_qual in seen:
            return None
        seen.add(class_qual)
        cls = self.classes.get(class_qual)
        if cls is None:
            return None
        if method in cls.methods:
            return cls.methods[method]
        mod = self.modules.get(cls.module)
        for base in cls.bases:
            base_qual = self.resolve(mod, base) if mod is not None else None
            if base_qual in self.classes:
                found = self._method_on_class(base_qual, method, seen)
                if found is not None:
                    return found
        return None

    # ------------------------------------------------------------------
    # backend submit sites
    # ------------------------------------------------------------------
    def _maybe_submit_site(self, mod: ModuleInfo, info: FunctionInfo,
                           call: ast.Call) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in SUBMIT_METHODS):
            return
        # The raw backend methods are recognized by their receiver's
        # name; the round helper is a submit site on any receiver.
        lowered = (_dotted(func.value) or "").lower()
        if (func.attr != ROUND_HELPER and "backend" not in lowered
                and not (func.attr == "submit" and "pool" in lowered)):
            return
        if not call.args:
            return
        fn_arg = call.args[0]
        if isinstance(fn_arg, ast.Starred):
            return
        task, problem = self._classify_task_arg(mod, info, fn_arg)
        self._submit_sites.append(SubmitSite(
            caller=info, call=call, method=func.attr, fn_arg=fn_arg,
            task=task, problem=problem))

    def _classify_task_arg(self, mod: ModuleInfo, info: FunctionInfo,
                           arg: ast.AST) -> tuple[str | None, str | None]:
        if isinstance(arg, ast.Lambda):
            return None, ("a lambda cannot be pickled by reference; "
                          "define a module-level task function")
        if isinstance(arg, ast.Name):
            # a nested def in the calling function?
            if not info.is_module_body:
                for stmt in ast.walk(info.node):
                    if (isinstance(stmt, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and stmt is not info.node
                            and stmt.name == arg.id):
                        return (f"{info.qualname}.<locals>.{arg.id}",
                                "a nested function cannot be pickled by "
                                "reference; move it to module level")
            resolved = self.resolve(mod, arg.id)
            if resolved is not None and resolved in self.functions:
                fi = self.functions[resolved]
                if fi.class_name is not None:
                    return resolved, ("a method is not a picklable "
                                      "module-level callable; use a "
                                      "module-level task function")
                if fi.is_nested:
                    return resolved, ("a nested function cannot be pickled "
                                      "by reference; move it to module "
                                      "level")
                return resolved, None
            return None, None  # parameter/local callable: nothing provable
        if isinstance(arg, ast.Attribute):
            dotted = _dotted(arg)
            root = dotted.split(".")[0] if dotted else None
            if dotted is not None:
                resolved = self.resolve(mod, dotted)
                if resolved is not None and resolved in self.functions:
                    fi = self.functions[resolved]
                    if fi.class_name is None and not fi.is_nested:
                        return resolved, None
                    return resolved, ("a bound method is not picklable by "
                                      "reference; submit a module-level "
                                      "task function")
            if root is not None and root in mod.imports:
                return None, None  # attribute of an imported module: fine
            return None, ("a bound method or instance attribute is not a "
                          "picklable module-level callable; submit a "
                          "module-level task function")
        return None, ("backend tasks must be named module-level functions "
                      "(pickled by reference), not computed expressions")

    def _resolve_submit_sites(self) -> None:
        # sites are discovered during edge building; tasks also become
        # call edges so reachability flows through the submit boundary.
        for site in self._submit_sites:
            if site.task is not None and site.task in self.functions:
                self.calls.setdefault(site.caller.qualname, []).append(
                    (site.task, site.call))

    def submit_sites(self) -> list[SubmitSite]:
        """Every backend submit call site found in the analyzed files."""
        return list(self._submit_sites)

    def task_functions(self) -> dict[str, SubmitSite]:
        """Resolved task functions handed to a backend, by qualname."""
        tasks: dict[str, SubmitSite] = {}
        for site in self._submit_sites:
            if site.task is not None and site.task in self.functions:
                tasks.setdefault(site.task, site)
        return tasks

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reachable(self, roots: Iterable[str],
                  ) -> dict[str, tuple[str, ...]]:
        """Functions reachable from ``roots`` (roots included), mapped to
        the shortest discovered call path ``(root, ..., function)``."""
        paths: dict[str, tuple[str, ...]] = {}
        queue: list[str] = []
        for root in roots:
            if root in self.functions and root not in paths:
                paths[root] = (root,)
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for callee, _node in self.calls.get(current, ()):
                if callee in paths or callee not in self.functions:
                    continue
                paths[callee] = paths[current] + (callee,)
                queue.append(callee)
        return paths

    def call_path_names(self, path: tuple[str, ...]) -> str:
        """Render a qualname path with human-readable short names."""
        return " -> ".join(self.functions[q].short if q in self.functions
                           else q for q in path)

    def functions_under(self, dir_name: str) -> Iterator[FunctionInfo]:
        """Functions whose file lives under a directory named
        ``dir_name`` (package anchor for rule roots)."""
        for info in self.functions.values():
            if dir_name in info.src.path.parts:
                yield info
