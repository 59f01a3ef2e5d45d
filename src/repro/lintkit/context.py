"""Shared static-analysis context: parsed modules and the project import graph.

:class:`ModuleContext` is everything the rules need about one source file --
the AST with parent links, an import-alias resolution table (``np.random`` ->
``numpy.random``), the dotted module name derived from the package layout on
disk, and the ``# repro: lint-ok[...]`` suppression lines.

:class:`LintProject` spans one lint run: it indexes every parsed module by
dotted name and resolves the intra-project import graph, which is what lets
reachability-scoped rules (wallclock-in-fingerprint-path) ask "is this module
transitively imported by the fingerprint computation?" without any runtime
imports.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["ModuleContext", "LintProject", "module_name_for"]

#: ``# repro: lint-ok`` or ``# repro: lint-ok[rule-a,rule-b]``; trailing
#: justification text after the bracket is encouraged and ignored.
_SUPPRESSION = re.compile(r"#\s*repro:\s*lint-ok(?:\[([^\]]*)\])?")

#: Matches every suppressible rule (a bare ``# repro: lint-ok``).
_ALL_RULES = "*"


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, derived from ``__init__.py`` packages.

    Walks up the directory tree as long as each parent is a package, so
    ``src/repro/store/fingerprint.py`` names ``repro.store.fingerprint``
    regardless of where the lint run was rooted.  Files outside any package
    (test fixtures, scripts) keep their bare stem.
    """
    parts: List[str] = []
    if path.stem != "__init__":
        parts.append(path.stem)
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


class ModuleContext:
    """One parsed source file plus the resolution tables the rules share."""

    def __init__(self, path: Path, source: str) -> None:
        self.path = path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.module: str = module_name_for(path)
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        #: Child AST node -> parent AST node, for rules that need enclosure
        #: (registry-drift checks whether a constructor call sits inside a
        #: ``register_*`` call).
        self.parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        #: Local binding -> fully qualified imported name (``np`` ->
        #: ``numpy``, ``derive_rng`` -> ``repro.seeding.derive_rng``).
        self.imports: Dict[str, str] = {}
        #: Absolute names of every module this file imports (used for the
        #: project import graph; includes ``from X import Y`` targets since
        #: ``Y`` may itself be a module).
        self.imported_modules: Set[str] = set()
        self._collect_imports()
        self._suppressions: Dict[int, FrozenSet[str]] = self._collect_suppressions()

    # ------------------------------------------------------------------
    # Imports
    # ------------------------------------------------------------------
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imported_modules.add(alias.name)
                    if alias.asname is not None:
                        self.imports[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        self.imports[root] = root
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute_import_base(node)
                if base is None:
                    continue
                self.imported_modules.add(base)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    qualified = f"{base}.{alias.name}"
                    self.imported_modules.add(qualified)
                    self.imports[alias.asname or alias.name] = qualified

    def _absolute_import_base(self, node: ast.ImportFrom) -> Optional[str]:
        """Resolve a (possibly relative) ``from`` clause to an absolute name."""
        if node.level == 0:
            return node.module
        # Relative import: climb from this module's package.
        parts = self.module.split(".") if self.module else []
        if self.path.stem != "__init__" and parts:
            parts = parts[:-1]
        climb = node.level - 1
        if climb > len(parts):
            return node.module  # over-relative; fall back to the bare name
        if climb:
            parts = parts[:-climb]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else node.module

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully qualified name of a ``Name``/``Attribute`` chain, if imported.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        when the module did ``import numpy as np``; names bound locally (not
        by an import) resolve to ``None``, which keeps call-site rules from
        guessing about local variables.
        """
        attrs: List[str] = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id)
        if base is None:
            return None
        return ".".join([base, *reversed(attrs)]) if attrs else base

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    # ------------------------------------------------------------------
    # Suppressions
    # ------------------------------------------------------------------
    def _collect_suppressions(self) -> Dict[int, FrozenSet[str]]:
        suppressions: Dict[int, FrozenSet[str]] = {}
        for line_number, text in enumerate(self.lines, 1):
            match = _SUPPRESSION.search(text)
            if match is None:
                continue
            body = match.group(1)
            if body is None:
                rules = frozenset({_ALL_RULES})
            else:
                rules = frozenset(
                    token.strip() for token in body.split(",") if token.strip()
                )
                if not rules:
                    rules = frozenset({_ALL_RULES})
            suppressions[line_number] = rules
        return suppressions

    def suppressed(self, line: int, rule: str) -> bool:
        """True when ``rule`` is silenced on ``line``.

        A suppression comment applies to its own line and -- when the comment
        stands alone -- to the line directly below it, so long statements can
        carry the annotation above themselves.
        """
        for candidate in (line, line - 1):
            rules = self._suppressions.get(candidate)
            if rules is None:
                continue
            if candidate == line - 1 and not self._comment_only(candidate):
                continue
            if _ALL_RULES in rules or rule in rules:
                return True
        return False

    def _comment_only(self, line: int) -> bool:
        text = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        return text.startswith("#")


class LintProject:
    """All modules of one lint run plus their intra-project import graph."""

    def __init__(self, contexts: Sequence[ModuleContext]) -> None:
        self.contexts: Tuple[ModuleContext, ...] = tuple(contexts)
        self.modules: Dict[str, ModuleContext] = {
            ctx.module: ctx for ctx in contexts if ctx.module
        }
        self._edges: Optional[Dict[str, Set[str]]] = None

    # ------------------------------------------------------------------
    # Import graph
    # ------------------------------------------------------------------
    def _project_module_of(self, imported: str) -> Optional[str]:
        """Map an imported name onto a module in this project, if any.

        ``from repro.cts import tree`` records both ``repro.cts`` and
        ``repro.cts.tree``; ``from repro.seeding import derive_rng`` records
        ``repro.seeding.derive_rng``, whose longest module prefix is
        ``repro.seeding``.
        """
        name = imported
        while name:
            if name in self.modules:
                return name
            if "." not in name:
                return None
            name = name.rsplit(".", 1)[0]
        return None

    @property
    def import_edges(self) -> Dict[str, Set[str]]:
        """Module name -> set of project modules it imports (lazily built)."""
        if self._edges is None:
            edges: Dict[str, Set[str]] = {}
            for ctx in self.contexts:
                if not ctx.module:
                    continue
                targets: Set[str] = set()
                for imported in ctx.imported_modules:
                    resolved = self._project_module_of(imported)
                    if resolved is not None and resolved != ctx.module:
                        targets.add(resolved)
                edges[ctx.module] = targets
            self._edges = edges
        return self._edges

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Project modules transitively imported by ``roots`` (roots included).

        Roots not present in the project are ignored, so reachability-scoped
        rules degrade gracefully when only a sub-tree is linted.
        """
        edges = self.import_edges
        seen: Set[str] = set()
        stack: List[str] = [root for root in roots if root in self.modules]
        while stack:
            module = stack.pop()
            if module in seen:
                continue
            seen.add(module)
            stack.extend(edges.get(module, ()) - seen)
        return seen
