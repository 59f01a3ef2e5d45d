"""Core lintkit types: findings, rules and the rule registry.

The registry mirrors the :data:`repro.core.pipeline.PASS_REGISTRY` idiom --
rule classes register themselves under their ``name`` via the
:func:`register_rule` class decorator, and consumers (the engine, the CLI,
the reporters) resolve rules by name.  A rule's scope (allowed modules,
forbidden calls, roots) is its own class attributes; a run can only select
or ignore rules, and every finding fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Type

if TYPE_CHECKING:  # import cycle: context needs Finding for parse errors
    from repro.lintkit.context import LintProject, ModuleContext

__all__ = [
    "Finding",
    "LintRule",
    "RULE_REGISTRY",
    "register_rule",
    "available_rules",
    "resolve_rules",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Field order doubles as the deterministic sort order of every report
    (path, then line, then column, then rule), so repeated runs over an
    unchanged tree emit byte-identical output.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str


class LintRule:
    """One named, registrable invariant check.

    Subclasses set ``name`` (the registry key), ``description`` (one line,
    shown by ``repro lint --list-rules``) and whatever class attributes scope
    the check (``allow_modules``, ``forbidden``, ...).  ``check`` yields
    :class:`Finding` objects for one module; the shared
    :class:`~repro.lintkit.context.LintProject` gives rules cross-module
    context (import graph, reachability) when they need it.
    """

    name: str = ""
    description: str = ""

    def check(
        self, ctx: "ModuleContext", project: "LintProject"
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: "ModuleContext", line: int, col: int, message: str
    ) -> Finding:
        """Build one finding anchored in ``ctx`` with this rule's name."""
        return Finding(
            path=str(ctx.path), line=line, col=col, rule=self.name, message=message
        )


#: Registered rule classes, keyed by rule name.
RULE_REGISTRY: Dict[str, Type[LintRule]] = {}


def register_rule(rule_cls: Type[LintRule]) -> Type[LintRule]:
    """Register a rule class under its ``name`` (class-decorator style).

    Raises on a missing or duplicate name so a typo cannot silently shadow
    an existing rule -- the same contract as ``register_pass``.
    """
    name = rule_cls.name
    if not name:
        raise ValueError("a lint rule needs a non-empty 'name' to register")
    if name in RULE_REGISTRY:
        raise ValueError(f"a lint rule named {name!r} is already registered")
    RULE_REGISTRY[name] = rule_cls
    return rule_cls


def available_rules() -> List[str]:
    """Sorted names currently in the registry."""
    return sorted(RULE_REGISTRY)


def resolve_rules(names: List[str]) -> List[LintRule]:
    """Instantiate rules by name; unknown names raise with the valid set."""
    rules: List[LintRule] = []
    for name in names:
        rule_cls = RULE_REGISTRY.get(name)
        if rule_cls is None:
            raise KeyError(
                f"unknown lint rule {name!r}; registered: {available_rules()}"
            )
        rules.append(rule_cls())
    return rules
