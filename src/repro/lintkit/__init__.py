"""repro.lintkit: AST-based invariant linter for the repro codebase.

Machine-checks the invariants the reproducibility story rests on -- seed
discipline, journalled tree mutation, fingerprint purity, pool
picklability, registry completeness and the typed-record contract.  Run it
as ``repro lint src/`` or through :func:`lint_paths`; silence intentional
violations with ``# repro: lint-ok[rule-name]  -- justification``.
"""

from repro.lintkit.base import (
    RULE_REGISTRY,
    Finding,
    LintRule,
    available_rules,
    register_rule,
    resolve_rules,
)
from repro.lintkit.context import LintProject, ModuleContext, module_name_for
from repro.lintkit.engine import (
    LintResult,
    LintSettings,
    collect_files,
    lint_paths,
)
from repro.lintkit.report import JSON_SCHEMA_VERSION, render_json, render_text

__all__ = [
    "Finding",
    "LintRule",
    "RULE_REGISTRY",
    "register_rule",
    "available_rules",
    "resolve_rules",
    "ModuleContext",
    "LintProject",
    "module_name_for",
    "LintSettings",
    "LintResult",
    "collect_files",
    "lint_paths",
    "render_text",
    "render_json",
    "JSON_SCHEMA_VERSION",
]
