"""Nothing in ``src/`` exists only for the tests.

A definition in ``src/`` earns its place by being used: by the package
itself, the benchmarks, the examples or the repository benchmark.  A function
whose only callers are tests is either dead code or a second form of an
operation production already has, and its tests should call the production
form instead.  This scan keeps that rule checked.

It visits every module-level function and class in ``src/`` and every public
method and property of those classes.  A definition passes when some file
under ``src/``, ``benchmarks/``, ``examples/`` or ``repobench/`` mentions its
name as a name, an attribute, a string or an imported name (aliased imports
included).  Re-exports in a package ``__init__`` and ``__all__`` entries do
not count: they publish a name, they do not use it.  Classes a registry
decorator registers, dunders and the entries of :data:`ALLOWED` are exempt.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
USER_DIRS = ("src", "benchmarks", "examples", "repobench")

#: Decorators that register a class where a name lookup finds it.
REGISTRY_DECORATORS = {"register_case", "register_pass", "register_rule"}

ENGINE = "a per-stage reference engine the batched reduction is checked against"
CAP_SPLIT = "one part of the split total_capacitance is pinned against"

#: Definitions the tests use as references, with the reason each stays.
ALLOWED: Dict[str, str] = {
    "repro.analysis.elmore:elmore_stage_timing": ENGINE,
    "repro.analysis.elmore:elmore_stage_delays": ENGINE,
    "repro.analysis.arnoldi:arnoldi_stage_timing": ENGINE,
    "repro.cts.tree:ClockTree.total_wire_capacitance": CAP_SPLIT,
    "repro.cts.tree:ClockTree.total_buffer_capacitance": CAP_SPLIT,
    "repro.cts.tree:ClockTree.total_sink_capacitance": CAP_SPLIT,
    "repro.cts.tree:ClockTree.node_polarity": "the path-walk oracle of sink_polarities",
    "repro.cts.tree:ClockTree.copy_state_from": "how the hypothesis suites restore a tree",
    "repro.obs.trace:read_trace": "artifact API: reads what write_trace writes",
    "repro.obs.trace:strip_timings": "artifact API: the byte-stable part of an artifact",
    "repro.workloads.format:write_instance": "file-format API: writes what read_instance reads",
    "repro.seeding:derive_seed": "the unseeded-rng lint rule's message names it",
    "repro.serve.session:SessionRegistry.states": "the only handle on a rejected submission",
}

#: Modules whose every definition is for the tests.
ALLOWED_MODULES: Dict[str, str] = {
    "repro.testing": "shared test fixtures, importable from any pytest rootdir",
}


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions() -> Iterator[Tuple[str, str, str]]:
    """``(key, name, location)`` of every checked definition in ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        if module in ALLOWED_MODULES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.ClassDef) and any(
                _decorator_name(d) in REGISTRY_DECORATORS for d in node.decorator_list
            ):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            if not _is_dunder(node.name):
                yield f"{module}:{node.name}", node.name, where
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("_")
                    ):
                        yield (
                            f"{module}:{node.name}.{item.name}",
                            item.name,
                            f"{path.relative_to(ROOT)}:{item.lineno}",
                        )


def _all_strings(tree: ast.Module) -> Set[int]:
    """Ids of the string nodes inside ``__all__`` assignments."""
    ids: Set[int] = set()
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            ids.update(id(sub) for sub in ast.walk(node) if isinstance(sub, ast.Constant))
    return ids


def references() -> Set[str]:
    """Every name the user directories mention outside re-exports."""
    names: Set[str] = set()
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exported = _all_strings(tree)
            reexports = path.name == "__init__.py"
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if id(node) not in exported:
                        names.add(node.value)
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    names.update(alias.name for alias in node.names)
    return names


@lru_cache(maxsize=None)
def unreferenced() -> Tuple[Tuple[str, str], ...]:
    used = references()
    return tuple((key, where) for key, name, where in definitions() if name not in used)


def test_src_defines_nothing_only_the_tests_use():
    offenders = [(key, where) for key, where in unreferenced() if key not in ALLOWED]
    assert not offenders, (
        "definitions in src/ that only tests use; delete them and point their "
        "tests at the production form, or list them in ALLOWED with a reason:\n"
        + "\n".join(f"  {where}: {key}" for key, where in offenders)
    )


def test_every_allowed_entry_is_still_test_only():
    # An entry whose definition is gone, or that production now uses, is stale.
    test_only = {key for key, _ in unreferenced()}
    assert sorted(set(ALLOWED) - test_only) == []
    for module in ALLOWED_MODULES:
        assert (SRC / Path(*module.split("."))).with_suffix(".py").is_file(), module
