"""Reporters: human-readable text and version-stable JSON.

The JSON report is the CI artifact, so it is deliberately boring: a fixed
``schema`` number, no timestamps, no absolute environment detail, findings
pre-sorted by the engine.  Two runs over an unchanged tree must emit
byte-identical documents -- the lint gate itself obeys the same
reproducibility contract as the run store.  Every finding fails the run, so
both reports call each one an ``error`` and count no warnings; the words stay
in the formats so their readers keep parsing them.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, List

from repro.lintkit.engine import LintResult

__all__ = ["render_text", "render_json", "JSON_SCHEMA_VERSION"]

#: Bump only on breaking shape changes; consumers key on this.
JSON_SCHEMA_VERSION = 1


def render_text(result: LintResult) -> str:
    """One ``path:line:col: error [rule] message`` line per finding."""
    lines: List[str] = [
        f"{f.path}:{f.line}:{f.col}: error [{f.rule}] {f.message}"
        for f in result.findings
    ]
    summary = (
        f"{result.files_checked} files checked, "
        f"{len(result.rules_run)} rules, "
        f"{len(result.findings)} errors, 0 warnings"
    )
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_json(result: LintResult) -> str:
    """Deterministic JSON document (sorted keys, trailing newline)."""
    document: Dict[str, Any] = {
        "schema": JSON_SCHEMA_VERSION,
        "tool": "repro-lintkit",
        "files_checked": result.files_checked,
        "rules_run": list(result.rules_run),
        "summary": {"errors": len(result.findings), "warnings": 0},
        "findings": [{**asdict(f), "severity": "error"} for f in result.findings],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
