"""Nothing in ``src/`` exists only for the tests.

A definition in ``src/`` earns its place by being used: by the package
itself, the benchmarks, the examples or the repository benchmark.  A function
whose only callers are tests is either dead code or a second form of an
operation production already has, and its tests should call the production
form instead.  Three scans keep that rule checked.

The definitions scan visits every module-level function and class in
``src/`` and every public method and property of those classes.  A function
or class passes when some file under ``src/``, ``benchmarks/``, ``examples/``
or ``repobench/`` mentions its name as a name, an attribute, a string or an
imported name (aliased imports included).  A method or property passes only
through an attribute access or a string: a bare local, parameter or builtin
of the same name does not reach it.  Re-exports in a package ``__init__`` and
``__all__`` entries do not count: they publish a name, they do not use it.
Classes a registry decorator registers, dunders and the entries of
:data:`ALLOWED` are exempt.

The parameters scan applies the same rule to options: every defaulted
parameter of a ``def`` in ``src/``, positional or keyword-only, must be
passed by some call in those directories to a callee of that name -- by
keyword, by position, or through ``*args`` or ``**kwargs``.  For an
``__init__``, a call of the class or of any subclass, or a
``super().__init__`` call in a subclass, counts.  Dataclass fields are out of
its reach: records and ``dataclasses.replace`` set them dynamically.  The
entries of :data:`ALLOWED_PARAMETERS` are exempt.

The imports check fails on a name an import binds in a ``src/`` module
(package ``__init__`` files aside) that the module never uses.
"""

import ast
import re
from collections import defaultdict
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

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

REACH = "tests reach behaviour the default cannot (ROADMAP item 9)"

#: Parameters only the tests pass, with the reason each stays.
ALLOWED_PARAMETERS: Dict[str, str] = {
    "repro.core.slack:compute_sink_slacks(transitions)": REACH,
    "repro.buffering.candidates:max_drivable_capacitance(margin)": REACH,
    "repro.serve.scheduler:JobScheduler.__init__(workers)": (
        "the fairness tests need one dispatch loop"
    ),
    "repro.cli:main(argv)": (
        "the console script calls it with sys.argv; tests drive it in-process"
    ),
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


def _module_name(path: Path) -> str:
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    return module[: -len(".__init__")] if module.endswith(".__init__") else module


@lru_cache(maxsize=None)
def parsed(directory: str) -> Tuple[Tuple[Path, ast.Module], ...]:
    """Every ``.py`` file under ``directory`` of the repository, parsed."""
    return tuple(
        (path, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / directory).rglob("*.py"))
    )


def src_modules() -> Iterator[Tuple[str, Path, ast.Module]]:
    """``(module, path, tree)`` of every checked module in ``src/``."""
    for path, tree in parsed("src"):
        module = _module_name(path)
        if module not in ALLOWED_MODULES:
            yield module, path, tree


# ----------------------------------------------------------------------
# Definitions
# ----------------------------------------------------------------------
def definitions() -> Iterator[Tuple[str, str, str]]:
    """``(key, name, location)`` of every checked definition in ``src/``."""
    for module, path, tree in src_modules():
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


def references() -> Tuple[Set[str], Set[str]]:
    """``(names, attributes)`` the user directories mention outside re-exports.

    ``names`` holds bare names and imported names; ``attributes`` holds
    attribute accesses and strings, the only ways to reach a method.
    """
    names: Set[str] = set()
    attributes: Set[str] = set()
    for directory in USER_DIRS:
        for path, tree in parsed(directory):
            exported = _all_strings(tree)
            reexports = path.name == "__init__.py"
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if id(node) not in exported:
                        attributes.add(node.value)
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    names.update(alias.name for alias in node.names)
    return names, attributes


@lru_cache(maxsize=None)
def unreferenced() -> Tuple[Tuple[str, str], ...]:
    names, attributes = references()
    anything = names | attributes
    return tuple(
        (key, where)
        for key, name, where in definitions()
        if name not in (attributes if "." in key.partition(":")[2] else anything)
    )


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


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------
def _callee(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _is_super_init(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__init__"
        and isinstance(node.func.value, ast.Call)
        and _callee(node.func.value.func) == "super"
    )


@lru_cache(maxsize=None)
def call_index() -> Tuple[Dict[str, List[ast.Call]], Dict[str, Set[str]]]:
    """Calls in the user directories by the name they call, and subclasses.

    The second mapping holds each class name's direct subclasses.  A
    ``super().__init__(...)`` inside class ``C`` is also filed under
    ``super:C``.
    """
    calls: Dict[str, List[ast.Call]] = defaultdict(list)
    subclasses: Dict[str, Set[str]] = defaultdict(set)
    for directory in USER_DIRS:
        for _, tree in parsed(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    for base in filter(None, map(_callee, node.bases)):
                        subclasses[base].add(node.name)
                    calls[f"super:{node.name}"] += filter(_is_super_init, ast.walk(node))
                elif isinstance(node, ast.Call):
                    name = _callee(node.func)
                    if name is not None:
                        calls[name].append(node)
    return calls, subclasses


def callers(func: str, owner: Optional[str]) -> Iterator[ast.Call]:
    """Calls that reach ``func``, defined in class ``owner`` if not ``None``.

    An ``__init__`` is reached by a call of its class or of any subclass,
    and by ``super().__init__`` in a direct subclass.
    """
    calls, subclasses = call_index()
    if func != "__init__" or owner is None:
        yield from calls.get(func, ())
        return
    for subclass in subclasses.get(owner, ()):
        yield from calls.get(f"super:{subclass}", ())
    family: Set[str] = set()
    stack = [owner]
    while stack:
        cls = stack.pop()
        if cls not in family:
            family.add(cls)
            yield from calls.get(cls, ())
            stack.extend(subclasses.get(cls, ()))


def _passes(call: ast.Call, parameter: str, position: Optional[int]) -> bool:
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == parameter for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def defaulted_parameters() -> Iterator[Tuple[str, str, Optional[str], str, Optional[int]]]:
    """``(key, function, owner, parameter, position)`` of each defaulted parameter.

    ``owner`` is the class defining the function, if any; ``position`` is the
    parameter's index among a call's positional arguments (``self``/``cls``
    skipped), ``None`` for a keyword-only one.
    """
    for module, _, tree in src_modules():
        owners = {
            id(item): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            defaulted: List[Tuple[str, Optional[int]]] = [
                (arg.arg, index)
                for index, arg in enumerate(positional)
                if index >= len(positional) - len(args.defaults)
            ]
            defaulted += [
                (arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            owner = owners.get(id(func))
            bound = owner is not None and not any(
                _decorator_name(d) == "staticmethod" for d in func.decorator_list
            )
            qualified = func.name if owner is None else f"{owner}.{func.name}"
            for parameter, index in defaulted:
                position = None if index is None else index - int(bound)
                key = f"{module}:{qualified}({parameter})"
                yield key, func.name, owner, parameter, position


@lru_cache(maxsize=None)
def unpassed_parameters() -> Tuple[str, ...]:
    return tuple(
        key
        for key, func, owner, parameter, position in defaulted_parameters()
        if not any(_passes(call, parameter, position) for call in callers(func, owner))
    )


def test_every_parameter_in_src_has_a_caller_that_passes_it():
    offenders = [key for key in unpassed_parameters() if key not in ALLOWED_PARAMETERS]
    assert not offenders, (
        "defaulted parameters in src/ that no caller outside tests/ passes; "
        "make each a module constant or drop it, or list it in "
        "ALLOWED_PARAMETERS with a reason:\n"
        + "\n".join(f"  {key}" for key in offenders)
    )


def test_every_allowed_parameter_is_still_test_only():
    assert sorted(set(ALLOWED_PARAMETERS) - set(unpassed_parameters())) == []


# ----------------------------------------------------------------------
# Imports
# ----------------------------------------------------------------------
_TOKEN = re.compile(r"[A-Za-z_]\w*")


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            yield from (arg.annotation for arg in every if arg.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports() -> Iterator[str]:
    """``path:line: name`` of every import binding its module never uses.

    A binding is used as a name, as a token of a string annotation or as an
    ``__all__`` entry (a re-export).  ``__future__`` imports and imports
    marked ``# noqa: F401`` are exempt.
    """
    for path, tree in parsed("src"):
        if path.name == "__init__.py":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        exported = _all_strings(tree)
        used: Set[str] = set()
        imports: List[ast.stmt] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and id(node) in exported:
                used.add(node.value)
            elif isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                imports.append(node)
        for annotation in _annotations(tree):
            for node in ast.walk(annotation):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.update(_TOKEN.findall(node.value))
        for node in imports:
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    yield f"{path.relative_to(ROOT)}:{node.lineno}: {bound}"


def test_src_modules_use_every_import():
    offenders = list(unused_imports())
    assert not offenders, "unused imports in src/:\n" + "\n".join(
        f"  {offender}" for offender in offenders
    )
