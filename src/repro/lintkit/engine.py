"""The lint engine: file collection, rule execution, suppression filtering.

:func:`lint_paths` is the one entry point the CLI and the tests share -- it
collects ``.py`` files deterministically (sorted, ``__pycache__`` skipped),
parses each into a :class:`~repro.lintkit.context.ModuleContext`, builds the
cross-module :class:`~repro.lintkit.context.LintProject`, runs the selected
rules and returns findings in the canonical (path, line, col, rule) order.
Files that fail to parse surface as ``parse-error`` findings rather than
aborting the run.  A run chooses which rules to run and nothing else: each
rule's scope is its class, and any finding fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.lintkit import rules as _rules  # noqa: F401  (registers the rules)
from repro.lintkit.base import Finding, LintRule, available_rules, resolve_rules
from repro.lintkit.context import LintProject, ModuleContext

__all__ = ["LintSettings", "LintResult", "collect_files", "lint_paths"]

#: Pseudo-rule name used for files the parser rejects.
PARSE_ERROR_RULE = "parse-error"


@dataclass
class LintSettings:
    """Per-run rule selection (``repro lint --select/--ignore``)."""

    #: Rule names to run; ``None`` means every registered rule.
    select: Optional[List[str]] = None
    #: Rule names to drop after selection.
    ignore: List[str] = field(default_factory=list)

    def resolve(self) -> List[LintRule]:
        names = list(self.select) if self.select is not None else available_rules()
        names = [name for name in names if name not in set(self.ignore)]
        return resolve_rules(names)


@dataclass
class LintResult:
    """Everything one run produced, ready for a reporter."""

    findings: List[Finding]
    files_checked: int
    rules_run: List[str]


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths``, deterministically ordered.

    Directories are walked recursively (``__pycache__`` pruned); explicit
    file arguments are taken as-is.  Missing paths raise so a typo'd CI
    invocation cannot silently lint nothing.
    """
    collected: List[Path] = []
    for path in paths:
        if path.is_file():
            collected.append(path)
        elif path.is_dir():
            collected.extend(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        else:
            raise FileNotFoundError(f"lint path does not exist: {path}")
    return sorted(set(collected))


def _parse_contexts(
    files: Iterable[Path],
) -> Tuple[List[ModuleContext], List[Finding]]:
    contexts: List[ModuleContext] = []
    failures: List[Finding] = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        try:
            contexts.append(ModuleContext(path, source))
        except SyntaxError as exc:
            failures.append(
                Finding(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule=PARSE_ERROR_RULE,
                    message=f"cannot parse: {exc.msg}",
                )
            )
    return contexts, failures


def lint_paths(
    paths: Iterable[Path], settings: Optional[LintSettings] = None
) -> LintResult:
    """Run the configured rules over ``paths`` and return sorted findings."""
    settings = settings if settings is not None else LintSettings()
    rules = settings.resolve()
    files = collect_files(Path(p) for p in paths)
    contexts, findings = _parse_contexts(files)
    project = LintProject(contexts)
    for ctx in contexts:
        for rule in rules:
            for finding in rule.check(ctx, project):
                if ctx.suppressed(finding.line, finding.rule):
                    continue
                findings.append(finding)
    findings.sort()
    return LintResult(
        findings=findings,
        files_checked=len(files),
        rules_run=[rule.name for rule in rules],
    )
