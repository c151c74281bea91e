"""Static analysis + runtime sanitizer guarding reproducibility invariants.

Two complementary layers (see ``docs/static_analysis.md``):

* the **determinism linter** — an AST rule engine
  (:func:`~repro.analysis.engine.run_analysis`,
  ``python -m repro.analysis``) with a project-wide call graph
  (:class:`~repro.analysis.callgraph.CallGraph`) scoping the rules:
  DET001/DET002/PURE001 plus the RACE001/RACE002 backend task
  contract and the NOQA001 unused-suppression audit, with per-line
  ``# repro: noqa[RULE]`` suppressions;
* the **barrier sanitizer** — ``--sanitize`` runtime checks
  (:class:`~repro.analysis.sanitizer.BarrierSanitizer`) that freeze
  broadcast model arrays at superstep boundaries and digest-check that
  replicas stay bit-identical.
"""

from .callgraph import CallGraph, FunctionInfo, SubmitSite, module_name_for
from .engine import (AnalysisResult, SourceFile, collect_files, load_source,
                     parse_noqa, run_analysis)
from .reporters import render_json, render_sarif, render_text
from .rules import (ALL_RULES, AmbientNondeterminism, CallGraphRule,
                    ImpureCostModel, Rule, UnorderedIteration,
                    UnusedSuppression, rule_registry)
from .rules_race import SharedStateMutation, UnpicklableTask
from .sanitizer import (BarrierSanitizer, ReplicaDivergenceError,
                        SanitizerError, check_replicas, freeze_array,
                        model_digest)
from .violations import PARSE_RULE_ID, Violation

__all__ = [
    "AnalysisResult", "SourceFile", "collect_files", "load_source",
    "parse_noqa", "run_analysis", "render_json", "render_sarif",
    "render_text", "ALL_RULES", "AmbientNondeterminism", "CallGraph",
    "CallGraphRule", "FunctionInfo",
    "ImpureCostModel", "Rule", "SharedStateMutation",
    "SubmitSite", "UnorderedIteration", "UnpicklableTask",
    "UnusedSuppression", "module_name_for", "rule_registry",
    "BarrierSanitizer", "ReplicaDivergenceError", "SanitizerError",
    "check_replicas", "freeze_array", "model_digest", "PARSE_RULE_ID",
    "Violation",
]
