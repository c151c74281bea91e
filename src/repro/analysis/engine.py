"""The lint driver: file collection, parsing, suppression, rule dispatch.

:func:`run_analysis` is the single entry point used by the CLI, the CI
gate, and the tests.  It walks the given paths, parses every ``*.py``
file once, builds one project-wide call graph when any selected rule
needs it (:class:`~repro.analysis.rules.CallGraphRule`), applies the
selected rules, and filters diagnostics through per-line
``# repro: noqa[RULE]`` suppressions:

* ``# repro: noqa`` — suppress every rule on this line;
* ``# repro: noqa[DET001]`` — suppress one rule;
* ``# repro: noqa[DET001,PURE001]`` — suppress several.

Suppressions are matched against the *first physical line* of the
flagged statement, the same convention flake8/ruff use.

After the other rules run, the engine audits the suppressions themselves
(``NOQA001``): a ``noqa`` comment that silenced nothing this run —
because the rule was rescoped, the code was fixed, or the rule id is a
typo — is reported as an unused suppression.  Opt out with
``unused_noqa=False`` (CLI: ``--no-unused-noqa``).  Bare ``# repro:
noqa`` comments are only audited on full runs (no ``select``/``ignore``),
since a partial run cannot know whether an unselected rule needs them.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .callgraph import CallGraph
from .rules import ALL_RULES, CallGraphRule, Rule, rule_registry
from .violations import PARSE_RULE_ID, Violation

__all__ = ["SourceFile", "AnalysisResult", "run_analysis", "collect_files",
           "load_source", "parse_noqa"]

#: The suppression comment — ``repro: noqa`` after a hash, with an
#: optional bracketed rule list.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[\s*(?P<rules>[A-Za-z0-9_,\s]*?)\s*\])?")

#: Sentinel for "all rules suppressed on this line".
_ALL = frozenset({"*"})

#: Rule id of the engine-implemented unused-suppression audit.
_NOQA_RULE_ID = "NOQA001"


@dataclass
class SourceFile:
    """One parsed file plus its suppression map."""

    path: Path
    text: str
    tree: ast.Module
    #: line number -> rule ids suppressed there ({"*"} = every rule).
    noqa: dict[int, frozenset[str]] = field(default_factory=dict)

    def suppresses(self, line: int, rule: str) -> bool:
        rules = self.noqa.get(line)
        if rules is None:
            return False
        return rules is _ALL or "*" in rules or rule in rules


def _comment_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, comment_text)`` for every real COMMENT token.

    Tokenizing (rather than regex-scanning raw lines) keeps docstrings
    and string literals that merely *mention* ``# repro: noqa`` from
    registering as suppressions — which matters now that NOQA001 audits
    every suppression it finds.  Falls back to treating every line as a
    potential comment if the text does not tokenize (callers normally
    parse with :mod:`ast` first, so this is rare).
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        yield from enumerate(text.splitlines(), start=1)
        return
    for token in tokens:
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def parse_noqa(text: str) -> dict[int, frozenset[str]]:
    """Extract the per-line suppression map from source comments."""
    suppressions: dict[int, frozenset[str]] = {}
    for lineno, comment in _comment_lines(text):
        match = _NOQA_RE.search(comment)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = _ALL
        else:
            ids = frozenset(r.strip() for r in rules.split(",") if r.strip())
            suppressions[lineno] = ids if ids else _ALL
    return suppressions


def load_source(path: Path) -> SourceFile | Violation:
    """Parse one file; returns a :data:`PARSE_RULE_ID` violation on
    syntax errors instead of raising."""
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return Violation(path=path, line=exc.lineno or 1,
                         col=(exc.offset or 1), rule=PARSE_RULE_ID,
                         message=f"file does not parse: {exc.msg}")
    return SourceFile(path=path, text=text, tree=tree,
                      noqa=parse_noqa(text))


def collect_files(paths: Iterable[Path]) -> list[Path]:
    """Expand directories to sorted ``*.py`` file lists."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(p for p in path.rglob("*.py")
                                if p.is_file()))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return files


@dataclass
class AnalysisResult:
    """Everything one lint run produced."""

    violations: list[Violation]
    suppressed: list[Violation]
    files_checked: int
    rules_run: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _select_rules(select: Sequence[str] | None,
                  ignore: Sequence[str] | None) -> list[Rule]:
    registry = rule_registry()
    for ids in (select or (), ignore or ()):
        unknown = [r for r in ids if r not in registry]
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(unknown)}; "
                           f"known: {', '.join(sorted(registry))}")
    chosen = [registry[r] for r in select] if select else list(ALL_RULES)
    return [rule for rule in chosen if rule.id not in set(ignore or ())]


def _noqa_column(src: SourceFile, line: int) -> int:
    """1-based column of the ``# repro: noqa`` comment on ``line``."""
    lines = src.text.splitlines()
    if 1 <= line <= len(lines):
        match = _NOQA_RE.search(lines[line - 1])
        if match is not None:
            return match.start() + 1
    return 1


def _unused_suppressions(files: list[SourceFile],
                         suppressed: list[Violation],
                         active_ids: frozenset[str],
                         full_run: bool) -> Iterator[Violation]:
    """The NOQA001 audit: suppressions that silenced nothing this run.

    * a bracketed id that no diagnostic on that line matched is stale
      (only judged for rules that actually ran — a partial ``--select``
      run says nothing about the others);
    * a bracketed id that is not a registered rule at all can never
      suppress anything and is reported on every run;
    * a bare ``# repro: noqa`` that matched nothing is stale, but only a
      full run can tell.
    """
    registry_ids = frozenset(rule_registry())
    used: dict[tuple[Path, int], set[str]] = {}
    for violation in suppressed:
        used.setdefault((violation.path, violation.line),
                        set()).add(violation.rule)
    for src in files:
        for line, ids in sorted(src.noqa.items()):
            used_here = used.get((src.path, line), set())
            col = _noqa_column(src, line)
            if ids is _ALL or "*" in ids:
                if full_run and not used_here:
                    yield Violation(
                        path=src.path, line=line, col=col,
                        rule=_NOQA_RULE_ID,
                        message=("unused suppression: bare '# repro: "
                                 "noqa' silences nothing on this line; "
                                 "remove it"))
                continue
            for rule_id in sorted(ids):
                if rule_id in used_here:
                    continue
                if rule_id not in registry_ids:
                    yield Violation(
                        path=src.path, line=line, col=col,
                        rule=_NOQA_RULE_ID,
                        message=(f"suppression names unknown rule "
                                 f"'{rule_id}'; it can never silence "
                                 "anything (typo?)"))
                elif rule_id in active_ids:
                    yield Violation(
                        path=src.path, line=line, col=col,
                        rule=_NOQA_RULE_ID,
                        message=(f"unused suppression: {rule_id} is not "
                                 "triggered on this line; remove the "
                                 "noqa (stale suppressions eat the next "
                                 "real diagnostic)"))


def run_analysis(paths: Iterable[Path | str],
                 select: Sequence[str] | None = None,
                 ignore: Sequence[str] | None = None,
                 unused_noqa: bool = True) -> AnalysisResult:
    """Lint ``paths`` with the selected rules; see the module docstring."""
    rules = _select_rules(select, ignore)
    files: list[SourceFile] = []
    raw: list[Violation] = []
    for path in collect_files(Path(p) for p in paths):
        loaded = load_source(path)
        if isinstance(loaded, Violation):
            raw.append(loaded)
            continue
        files.append(loaded)

    graph: CallGraph | None = None
    if any(isinstance(rule, CallGraphRule) for rule in rules):
        graph = CallGraph(files)

    by_path = {src.path: src for src in files}
    for src in files:
        for rule in rules:
            if isinstance(rule, CallGraphRule):
                continue
            if rule.applies_to(src.path):
                raw.extend(rule.check(src))
    for rule in rules:
        if isinstance(rule, CallGraphRule):
            assert graph is not None
            raw.extend(rule.check_graph(graph))

    kept: list[Violation] = []
    suppressed: list[Violation] = []
    for violation in raw:
        src = by_path.get(violation.path)
        if (src is not None and violation.rule != PARSE_RULE_ID
                and src.suppresses(violation.line, violation.rule)):
            suppressed.append(violation)
        else:
            kept.append(violation)

    # The suppression audit runs after everything else: only now is it
    # known which noqa comments earned their keep.  Its diagnostics can
    # be allowlisted, but only by naming NOQA001 *explicitly* in the
    # bracket — a bare suppression must not silence the audit of itself,
    # or unused bare suppressions could never be reported.
    active_ids = frozenset(rule.id for rule in rules)
    if unused_noqa and _NOQA_RULE_ID in active_ids:
        full_run = select is None and ignore is None
        for violation in _unused_suppressions(files, suppressed,
                                              active_ids, full_run):
            ids = by_path[violation.path].noqa.get(violation.line)
            if ids is not None and _NOQA_RULE_ID in ids:
                suppressed.append(violation)
            else:
                kept.append(violation)

    kept.sort()
    suppressed.sort()
    return AnalysisResult(violations=kept, suppressed=suppressed,
                          files_checked=len(files),
                          rules_run=tuple(rule.id for rule in rules))
