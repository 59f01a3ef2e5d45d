"""The domain rules: machine-checked invariants of the repro codebase.

Each rule encodes one invariant the correctness story rests on -- seed
discipline (:mod:`repro.seeding`), journalled tree mutation
(:mod:`repro.cts.tree`), fingerprint purity (:mod:`repro.store.fingerprint`),
process-pool picklability, registry completeness, and the typed-record
contract of :mod:`repro.api.records`.  Rules are registered under kebab-case
names and configured through their ``defaults`` mapping; intentional
violations are annotated in the source with ``# repro: lint-ok[rule-name]``.
"""

from __future__ import annotations

import ast
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lintkit.base import Finding, LintRule, Severity, register_rule
from repro.lintkit.context import LintProject, ModuleContext

__all__ = [
    "UnseededRngRule",
    "WallclockInFingerprintPathRule",
    "UnjournaledMutationRule",
    "PoolUnpicklableRule",
    "FingerprintCompareFieldRule",
    "RegistryDriftRule",
    "PerfCaseRegisteredRule",
    "RecordRoundtripSymmetryRule",
    "BareDictRecordRule",
    "UntimedWallclockRule",
    "BlockingInAsyncRule",
]


def _option_names(options: Mapping[str, Any], key: str) -> Tuple[str, ...]:
    """A tuple-of-strings option (accepts any iterable of strings)."""
    value = options.get(key, ())
    return tuple(str(item) for item in value)


def _in_allowed_module(ctx: ModuleContext, options: Mapping[str, Any]) -> bool:
    return ctx.module in _option_names(options, "allow_modules")


def _severity(rule: LintRule, options: Mapping[str, Any]) -> Severity:
    raw = options.get("severity")
    return Severity(raw) if isinstance(raw, str) else rule.default_severity


# ----------------------------------------------------------------------
# 1. unseeded-rng
# ----------------------------------------------------------------------
@register_rule
class UnseededRngRule(LintRule):
    """Every RNG must derive from :mod:`repro.seeding`.

    A direct ``random.Random()``, ``random.<fn>()``, ``np.random.*()`` or
    ``default_rng()`` creates a stream the ``--seed`` machinery cannot
    reproduce or isolate per job, silently breaking bit-identical goldens.
    """

    name = "unseeded-rng"
    description = (
        "RNG constructed outside repro.seeding (use derive_rng/derive_seed)"
    )
    defaults: Mapping[str, Any] = {"allow_modules": ("repro.seeding",)}

    def check(
        self,
        ctx: ModuleContext,
        project: LintProject,
        options: Mapping[str, Any],
    ) -> Iterator[Finding]:
        if _in_allowed_module(ctx, options):
            return
        severity = _severity(self, options)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.resolve(node.func)
            if qualified is None:
                continue
            if qualified == "random.Random" or qualified.startswith("random."):
                source = qualified
            elif qualified.startswith("numpy.random."):
                source = qualified
            else:
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"direct RNG use {source}(); derive deterministic streams "
                "via repro.seeding.derive_rng/derive_seed",
                severity,
            )


# ----------------------------------------------------------------------
# 2. wallclock-in-fingerprint-path
# ----------------------------------------------------------------------
@register_rule
class WallclockInFingerprintPathRule(LintRule):
    """No wall-clock/UUID input may reach the fingerprint computation.

    The run store's content addresses and the canonical instance
    serialization must be pure functions of their inputs; anything time- or
    uuid-dependent in a module transitively imported by the fingerprint
    roots would make equal jobs hash differently across runs.
    """

    name = "wallclock-in-fingerprint-path"
    description = (
        "time/uuid call in a module transitively imported by the "
        "fingerprint computation"
    )
    defaults: Mapping[str, Any] = {
        "roots": ("repro.store.fingerprint", "repro.workloads.format"),
        "forbidden": (
            "time.time",
            "time.time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
            "uuid.uuid1",
            "uuid.uuid4",
        ),
    }

    def check(
        self,
        ctx: ModuleContext,
        project: LintProject,
        options: Mapping[str, Any],
    ) -> Iterator[Finding]:
        if not ctx.module:
            return
        roots = _option_names(options, "roots")
        if ctx.module not in project.reachable_from(roots):
            return
        forbidden = frozenset(_option_names(options, "forbidden"))
        severity = _severity(self, options)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.resolve(node.func)
            if qualified is None or qualified not in forbidden:
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"{qualified}() in fingerprint-feeding module {ctx.module}; "
                "content addresses must be pure functions of their inputs",
                severity,
            )


# ----------------------------------------------------------------------
# 3. unjournaled-mutation
# ----------------------------------------------------------------------
@register_rule
class UnjournaledMutationRule(LintRule):
    """Tree-node state must change through the journaling mutator APIs.

    A bare ``node.wire_type = ...`` outside :mod:`repro.cts.tree` bypasses
    revision bumps and checkpoint journaling, so the evaluator's stage cache
    serves stale results and IVC rollback restores the wrong state.  Code
    doing bespoke surgery must call ``tree.journal_node(...)`` first (and
    ``tree.touch(...)`` after), which this rule recognises.
    """

    name = "unjournaled-mutation"
    description = (
        "direct tree-node attribute write outside the journaling mutators"
    )
    defaults: Mapping[str, Any] = {
        "allow_modules": ("repro.cts.tree",),
        "attrs": (
            "buffer",
            "wire_type",
            "snake_length",
            "route",
            "position",
            "parent",
            "children",
            "sink",
        ),
        #: The rule only applies to modules that actually work with the
        #: journaled tree; unrelated classes may reuse attribute names.
        "tree_modules": ("repro.cts.tree",),
    }

    def check(
        self,
        ctx: ModuleContext,
        project: LintProject,
        options: Mapping[str, Any],
    ) -> Iterator[Finding]:
        if _in_allowed_module(ctx, options):
            return
        tree_modules = set(_option_names(options, "tree_modules"))
        if not any(
            imported == module or imported.startswith(module + ".")
            for imported in ctx.imported_modules
            for module in tree_modules
        ):
            return
        attrs = frozenset(_option_names(options, "attrs"))
        severity = _severity(self, options)
        journal_lines = self._journal_call_lines(ctx)
        for node in ast.walk(ctx.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute) or target.attr not in attrs:
                    continue
                receiver = target.value
                if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
                    continue
                if self._journaled_before(ctx, node, journal_lines):
                    continue
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"direct write to .{target.attr} bypasses the journaling "
                    "mutators of repro.cts.tree.ClockTree; use the mutator "
                    "APIs or call journal_node()/touch() around the edit",
                    severity,
                )

    @staticmethod
    def _journal_call_lines(ctx: ModuleContext) -> List[int]:
        lines: List[int] = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "journal_node"
            ):
                lines.append(node.lineno)
        return lines

    def _journaled_before(
        self, ctx: ModuleContext, assign: ast.AST, journal_lines: Sequence[int]
    ) -> bool:
        """True when a ``journal_node`` call precedes the write in its function."""
        scope = self._enclosing_function(ctx, assign)
        if scope is None:
            return False
        lineno = getattr(assign, "lineno", 0)
        end = getattr(scope, "end_lineno", None) or lineno
        return any(scope.lineno <= line <= end and line < lineno for line in journal_lines)

    @staticmethod
    def _enclosing_function(
        ctx: ModuleContext, node: ast.AST
    ) -> Optional[ast.FunctionDef]:
        current = ctx.parent(node)
        while current is not None:
            if isinstance(current, ast.FunctionDef):
                return current
            current = ctx.parent(current)
        return None


# ----------------------------------------------------------------------
# 4. pool-unpicklable
# ----------------------------------------------------------------------
@register_rule
class PoolUnpicklableRule(LintRule):
    """Workers handed to the process pool must be picklable by reference.

    Lambdas and nested (closure) functions cannot cross the
    ``ProcessPoolExecutor`` boundary; they fail only at dispatch time, deep
    inside a batch.  Flag them at the ``submit`` call site instead.
    """

    name = "pool-unpicklable"
    description = "lambda/nested function handed to ProcessPoolExecutor.submit"
    defaults: Mapping[str, Any] = {}

    def check(
        self,
        ctx: ModuleContext,
        project: LintProject,
        options: Mapping[str, Any],
    ) -> Iterator[Finding]:
        severity = _severity(self, options)
        nested = self._nested_callables(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "submit"):
                continue
            # pool.submit(fn, *args): the callable and every payload arg
            # cross the process boundary.
            for candidate in list(node.args) + [kw.value for kw in node.keywords]:
                problem = self._unpicklable(candidate, nested)
                if problem is None:
                    continue
                yield self.finding(
                    ctx,
                    candidate.lineno,
                    candidate.col_offset,
                    f"{problem} cannot be pickled into a worker process; "
                    "pass a module-level function instead",
                    severity,
                )

    @staticmethod
    def _nested_callables(ctx: ModuleContext) -> Set[str]:
        """Names bound to nested functions or lambdas anywhere in the module."""
        names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parent = ctx.parent(node)
                while parent is not None:
                    if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names.add(node.name)
                        break
                    parent = ctx.parent(parent)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _unpicklable(candidate: ast.expr, nested: Set[str]) -> Optional[str]:
        if isinstance(candidate, ast.Lambda):
            return "a lambda"
        if isinstance(candidate, ast.Name) and candidate.id in nested:
            return f"nested function {candidate.id!r}"
        return None


# ----------------------------------------------------------------------
# 5. fingerprint-compare-field
# ----------------------------------------------------------------------
@register_rule
class FingerprintCompareFieldRule(LintRule):
    """``compare=False`` dataclass fields must follow the cache conventions.

    Non-compare fields are invisible to ``repro.store.fingerprint`` digests,
    so they must be derived state only: constructible without a caller-
    supplied value (``init=False`` or a default), underscore-named, and
    never serialized by ``to_record()`` -- otherwise two records that digest
    equally could serialize differently.
    """

    name = "fingerprint-compare-field"
    description = (
        "compare=False dataclass field violating the derived-state "
        "conventions (init/default, underscore name, no to_record use)"
    )
    defaults: Mapping[str, Any] = {}

    def check(
        self,
        ctx: ModuleContext,
        project: LintProject,
        options: Mapping[str, Any],
    ) -> Iterator[Finding]:
        severity = _severity(self, options)
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            if not self._is_dataclass(ctx, class_node):
                continue
            to_record_reads = self._self_attribute_reads(class_node, "to_record")
            for statement in class_node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                if not isinstance(statement.target, ast.Name):
                    continue
                field_call = statement.value
                if not isinstance(field_call, ast.Call):
                    continue
                callee = ctx.resolve(field_call.func)
                callee_name = callee or (
                    field_call.func.id
                    if isinstance(field_call.func, ast.Name)
                    else ""
                )
                if callee_name not in ("field", "dataclasses.field"):
                    continue
                keywords = {
                    kw.arg: kw.value for kw in field_call.keywords if kw.arg
                }
                compare = keywords.get("compare")
                if not (
                    isinstance(compare, ast.Constant) and compare.value is False
                ):
                    continue
                name = statement.target.id
                init = keywords.get("init")
                non_init = isinstance(init, ast.Constant) and init.value is False
                has_default = "default" in keywords or "default_factory" in keywords
                if not (non_init or has_default):
                    yield self.finding(
                        ctx,
                        statement.lineno,
                        statement.col_offset,
                        f"compare=False field {name!r} must set init=False or "
                        "provide a default: derived state cannot be a "
                        "required constructor input",
                        severity,
                    )
                if not name.startswith("_"):
                    yield self.finding(
                        ctx,
                        statement.lineno,
                        statement.col_offset,
                        f"compare=False field {name!r} should be underscore-"
                        "named: it is derived state, not part of the "
                        "record's identity",
                        severity,
                    )
                if name in to_record_reads:
                    yield self.finding(
                        ctx,
                        statement.lineno,
                        statement.col_offset,
                        f"compare=False field {name!r} is serialized by "
                        "to_record(); records that digest equally must "
                        "serialize equally",
                        severity,
                    )

    @staticmethod
    def _is_dataclass(ctx: ModuleContext, class_node: ast.ClassDef) -> bool:
        for decorator in class_node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            resolved = ctx.resolve(target)
            if resolved in ("dataclasses.dataclass",):
                return True
            if isinstance(target, ast.Name) and target.id == "dataclass":
                return True
        return False

    @staticmethod
    def _self_attribute_reads(class_node: ast.ClassDef, method: str) -> Set[str]:
        reads: Set[str] = set()
        for statement in class_node.body:
            if not isinstance(statement, ast.FunctionDef) or statement.name != method:
                continue
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    reads.add(node.attr)
        return reads


# ----------------------------------------------------------------------
# 6. registry-drift
# ----------------------------------------------------------------------
@register_rule
class RegistryDriftRule(LintRule):
    """Every concrete pass/family definition must reach its registry.

    An :class:`~repro.core.pipeline.OptimizationPass` subclass with a
    ``name`` that is never passed to ``register_pass`` (or a
    :class:`~repro.scenarios.base.ScenarioFamily` never handed to
    ``register_family``) is dead weight the CLI and pipelines cannot see --
    usually a forgotten decorator.
    """

    name = "registry-drift"
    description = (
        "OptimizationPass subclass / ScenarioFamily instance never registered"
    )
    defaults: Mapping[str, Any] = {
        #: base class name -> required registrar function name
        "subclass_registrars": {"OptimizationPass": "register_pass"},
        "instance_registrars": {"ScenarioFamily": "register_family"},
    }

    def check(
        self,
        ctx: ModuleContext,
        project: LintProject,
        options: Mapping[str, Any],
    ) -> Iterator[Finding]:
        severity = _severity(self, options)
        subclass_map = dict(options.get("subclass_registrars", {}))
        instance_map = dict(options.get("instance_registrars", {}))
        registered_names = self._registrar_argument_names(
            ctx, set(subclass_map.values()) | set(instance_map.values())
        )
        yield from self._check_subclasses(
            ctx, subclass_map, registered_names, severity
        )
        yield from self._check_instances(
            ctx, instance_map, registered_names, severity
        )

    # -- shared helpers -------------------------------------------------
    @staticmethod
    def _callable_name(ctx: ModuleContext, node: ast.expr) -> Optional[str]:
        """The terminal name of a Name/Attribute reference (``a.b.c`` -> c)."""
        resolved = ctx.resolve(node)
        if resolved is not None:
            return resolved.rsplit(".", 1)[-1]
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def _registrar_argument_names(
        self, ctx: ModuleContext, registrars: Set[str]
    ) -> Set[str]:
        """Names passed (as ``Name`` args) to any registrar call in the module."""
        names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if self._callable_name(ctx, node.func) not in registrars:
                continue
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    names.add(arg.id)
        return names

    # -- subclass-style registries (OptimizationPass) -------------------
    def _check_subclasses(
        self,
        ctx: ModuleContext,
        subclass_map: Dict[str, str],
        registered_names: Set[str],
        severity: Severity,
    ) -> Iterator[Finding]:
        if not subclass_map:
            return
        # Local subclasses count as bases too (pass hierarchies).
        base_names: Set[str] = set(subclass_map)
        local_subclasses: Dict[str, ast.ClassDef] = {}
        changed = True
        while changed:
            changed = False
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if node.name in local_subclasses:
                    continue
                for base in node.bases:
                    if self._callable_name(ctx, base) in base_names:
                        local_subclasses[node.name] = node
                        base_names.add(node.name)
                        changed = True
                        break
        for class_node in local_subclasses.values():
            registrar = self._registrar_for(ctx, class_node, subclass_map)
            if registrar is None:
                continue
            if not self._has_concrete_name(class_node):
                continue  # abstract intermediate: registration needs a name
            if self._decorated_with(ctx, class_node, registrar):
                continue
            if class_node.name in registered_names:
                continue
            yield self.finding(
                ctx,
                class_node.lineno,
                class_node.col_offset,
                f"class {class_node.name} defines a registrable name but is "
                f"never passed to {registrar}(); pipelines and the CLI "
                "cannot see it",
                severity,
            )

    def _registrar_for(
        self,
        ctx: ModuleContext,
        class_node: ast.ClassDef,
        subclass_map: Dict[str, str],
    ) -> Optional[str]:
        """The registrar this class must reach (single-registry codebases)."""
        del ctx, class_node
        # All subclass-style registries share one registrar in this codebase;
        # extendable to per-base lookups when a second registry appears.
        return next(iter(subclass_map.values()), None)

    @staticmethod
    def _has_concrete_name(class_node: ast.ClassDef) -> bool:
        for statement in class_node.body:
            if (
                isinstance(statement, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "name"
                    for t in statement.targets
                )
                and isinstance(statement.value, ast.Constant)
                and statement.value.value
            ):
                return True
        return False

    def _decorated_with(
        self, ctx: ModuleContext, class_node: ast.ClassDef, registrar: str
    ) -> bool:
        for decorator in class_node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if self._callable_name(ctx, target) == registrar:
                return True
        return False

    # -- instance-style registries (ScenarioFamily) ---------------------
    def _check_instances(
        self,
        ctx: ModuleContext,
        instance_map: Dict[str, str],
        registered_names: Set[str],
        severity: Severity,
    ) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            constructed = self._callable_name(ctx, node.func)
            if constructed not in instance_map:
                continue
            if ctx.resolve(node.func) is None and not self._defined_elsewhere(
                ctx, constructed
            ):
                continue  # local class of the same name, not the registry type
            registrar = instance_map[constructed]
            if self._inside_registrar_call(ctx, node, registrar):
                continue
            assigned = self._assigned_name(ctx, node)
            if assigned is not None and assigned in registered_names:
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"{constructed}(...) instance is never passed to "
                f"{registrar}(); it is unreachable by spec strings and "
                "sweeps",
                severity,
            )

    @staticmethod
    def _defined_elsewhere(ctx: ModuleContext, name: Optional[str]) -> bool:
        """True when ``name`` is *not* a class defined in this module."""
        if name is None:
            return False
        return not any(
            isinstance(node, ast.ClassDef) and node.name == name
            for node in ast.walk(ctx.tree)
        )

    def _inside_registrar_call(
        self, ctx: ModuleContext, node: ast.AST, registrar: str
    ) -> bool:
        current = ctx.parent(node)
        while current is not None:
            if isinstance(current, ast.Call) and self._callable_name(
                ctx, current.func
            ) == registrar:
                return True
            current = ctx.parent(current)
        return False

    @staticmethod
    def _assigned_name(ctx: ModuleContext, node: ast.AST) -> Optional[str]:
        parent = ctx.parent(node)
        if isinstance(parent, ast.Assign):
            for target in parent.targets:
                if isinstance(target, ast.Name):
                    return target.id
        return None


# ----------------------------------------------------------------------
# 6b. perfcase-registered
# ----------------------------------------------------------------------
@register_rule
class PerfCaseRegisteredRule(RegistryDriftRule):
    """Every concrete :class:`~repro.perf.case.PerfCase` must reach the registry.

    A benchmark case with a concrete ``name`` that is never passed to
    ``register_case`` silently drops out of ``repro perf run`` -- the
    performance ledger stops tracking it and the CI counter gate can no
    longer notice it regressing.  Same machinery as ``registry-drift``,
    scoped to the perf-case registry.
    """

    name = "perfcase-registered"
    description = "concrete PerfCase subclass never passed to register_case"
    defaults: Mapping[str, Any] = {
        "subclass_registrars": {"PerfCase": "register_case"},
        "instance_registrars": {},
    }


# ----------------------------------------------------------------------
# 7. record-roundtrip-symmetry
# ----------------------------------------------------------------------
@register_rule
class RecordRoundtripSymmetryRule(LintRule):
    """``to_record``/``from_record`` pairs must read and write the same keys.

    A key emitted by ``to_record()`` that ``from_record()`` never reads (or
    vice versa) silently drops data across the parse/serialize round trip --
    exactly the drift the bit-identical legacy-record goldens exist to
    prevent.  Literal keys are compared; a side using dynamic access (field
    loops, ``record[name]``) is treated as open and not held against the
    other side.
    """

    name = "record-roundtrip-symmetry"
    description = "to_record()/from_record() literal key sets disagree"
    defaults: Mapping[str, Any] = {}

    def check(
        self,
        ctx: ModuleContext,
        project: LintProject,
        options: Mapping[str, Any],
    ) -> Iterator[Finding]:
        severity = _severity(self, options)
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            to_def = self._method(class_node, "to_record")
            from_def = self._method(class_node, "from_record")
            if to_def is None or from_def is None:
                continue
            to_keys, to_dynamic = self._written_keys(to_def)
            from_keys, from_dynamic = self._read_keys(from_def)
            if not from_dynamic:
                for key in sorted(to_keys - from_keys):
                    yield self.finding(
                        ctx,
                        to_def.lineno,
                        to_def.col_offset,
                        f"{class_node.name}.to_record() writes key {key!r} "
                        "that from_record() never reads; the round trip "
                        "drops it",
                        severity,
                    )
            if not to_dynamic:
                for key in sorted(from_keys - to_keys):
                    yield self.finding(
                        ctx,
                        from_def.lineno,
                        from_def.col_offset,
                        f"{class_node.name}.from_record() reads key {key!r} "
                        "that to_record() never writes; serialized records "
                        "can never carry it",
                        severity,
                    )

    @staticmethod
    def _method(class_node: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
        for statement in class_node.body:
            if isinstance(statement, ast.FunctionDef) and statement.name == name:
                return statement
        return None

    @staticmethod
    def _written_keys(func: ast.FunctionDef) -> Tuple[Set[str], bool]:
        keys: Set[str] = set()
        dynamic = False
        for node in ast.walk(func):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
                    else:
                        dynamic = True
            elif isinstance(node, ast.DictComp):
                dynamic = True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        slice_node = target.slice
                        if isinstance(slice_node, ast.Constant) and isinstance(
                            slice_node.value, str
                        ):
                            keys.add(slice_node.value)
                        else:
                            dynamic = True
        return keys, dynamic

    @staticmethod
    def _read_keys(func: ast.FunctionDef) -> Tuple[Set[str], bool]:
        keys: Set[str] = set()
        dynamic = False
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and node.args
            ):
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    keys.add(first.value)
                else:
                    dynamic = True
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                slice_node = node.slice
                if isinstance(slice_node, ast.Constant) and isinstance(
                    slice_node.value, str
                ):
                    keys.add(slice_node.value)
        return keys, dynamic


# ----------------------------------------------------------------------
# 8. bare-dict-record
# ----------------------------------------------------------------------
@register_rule
class BareDictRecordRule(LintRule):
    """Job-result records must go through the typed :mod:`repro.api.records`.

    A hand-rolled dict carrying the record signature keys re-creates the
    cross-module string-key drift PR 5 eliminated; produce a
    ``RunRecord``/``McRecord``/``ErrorRecord`` and call ``to_record()``.
    """

    name = "bare-dict-record"
    description = (
        "hand-rolled result-record dict bypassing the repro.api.records "
        "schemas"
    )
    defaults: Mapping[str, Any] = {
        "allow_modules": ("repro.api.records",),
        "signatures": (
            ("job", "instance", "flow", "engine"),
            ("job", "error"),
        ),
    }

    def check(
        self,
        ctx: ModuleContext,
        project: LintProject,
        options: Mapping[str, Any],
    ) -> Iterator[Finding]:
        if _in_allowed_module(ctx, options):
            return
        severity = _severity(self, options)
        signatures = [
            frozenset(str(key) for key in signature)
            for signature in options.get("signatures", ())
        ]
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Dict):
                continue
            literal_keys = {
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
            matched = next(
                (s for s in signatures if s <= literal_keys), None
            )
            if matched is None:
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                "dict literal carries the job-record signature keys "
                f"({', '.join(sorted(matched))}); build a typed "
                "repro.api.records record and serialize via to_record()",
                severity,
            )


# ----------------------------------------------------------------------
# 9. untimed-wallclock
# ----------------------------------------------------------------------
@register_rule
class UntimedWallclockRule(LintRule):
    """Timing measurements must flow through :mod:`repro.obs`, not raw timers.

    A bare ``time.perf_counter()`` produces a number that never reaches the
    trace artifact, the ``TraceSummary`` on records, or ``repro profile`` --
    an invisible measurement the observability layer cannot aggregate or
    quarantine from deterministic outputs.  Wrap the region in
    ``tracer.span(...)`` instead; the few legitimate raw-timer sites (batch
    wall-clock totals reported on records, the tracer's own clock) carry a
    ``# repro: lint-ok[untimed-wallclock]`` annotation.
    """

    name = "untimed-wallclock"
    description = (
        "raw monotonic-timer call outside repro.obs (use tracer spans)"
    )
    defaults: Mapping[str, Any] = {
        "allow_modules": (
            "repro.obs",
            "repro.obs.trace",
        ),
        #: Path components that exempt a file wholesale (benchmark harnesses
        #: measure overhead of the tracer itself, so they need raw timers).
        "allow_path_parts": ("benchmarks",),
        "forbidden": (
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
        ),
    }

    def check(
        self,
        ctx: ModuleContext,
        project: LintProject,
        options: Mapping[str, Any],
    ) -> Iterator[Finding]:
        if _in_allowed_module(ctx, options):
            return
        allowed_parts = set(_option_names(options, "allow_path_parts"))
        if allowed_parts.intersection(ctx.path.parts):
            return
        forbidden = frozenset(_option_names(options, "forbidden"))
        severity = _severity(self, options)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.resolve(node.func)
            if qualified is None or qualified not in forbidden:
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"raw timer {qualified}() outside repro.obs; measure the "
                "region with tracer.span(...) so the timing reaches trace "
                "artifacts and repro profile",
                severity,
            )


# ----------------------------------------------------------------------
# 10. blocking-in-async
# ----------------------------------------------------------------------
@register_rule
class BlockingInAsyncRule(LintRule):
    """No synchronous waiting inside ``async def`` bodies.

    One blocking call on the event loop stalls *every* client of the serving
    layer at once: ``time.sleep`` freezes the loop outright, and
    ``Future.result()`` / ``concurrent.futures.wait`` /
    ``Executor.shutdown`` park it behind pool work that may itself need the
    loop to progress (deadlock, not just latency).  Async code must await
    instead -- ``asyncio.sleep``, ``asyncio.wrap_future``, or a
    ``run_in_executor`` bridge for genuinely blocking sections; the few
    sanctioned bridge sites carry a ``# repro: lint-ok[blocking-in-async]``
    annotation.  Nested plain ``def`` bodies are exempt (they are the
    functions a bridge executes *off* the loop), as is any call that is
    directly awaited.
    """

    name = "blocking-in-async"
    description = (
        "blocking wait (time.sleep / Future.result / pool wait) inside async def"
    )
    defaults: Mapping[str, Any] = {
        "forbidden": (
            "time.sleep",
            "concurrent.futures.wait",
            "concurrent.futures.as_completed",
        ),
        #: Method names whose bare-attribute calls block on pool machinery.
        "blocking_methods": ("result", "shutdown"),
    }

    @staticmethod
    def _async_body(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Nodes executing in ``func``'s async context (not nested functions)."""
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # a new function scope runs outside this coroutine
            stack.extend(ast.iter_child_nodes(node))

    def check(
        self,
        ctx: ModuleContext,
        project: LintProject,
        options: Mapping[str, Any],
    ) -> Iterator[Finding]:
        forbidden = frozenset(_option_names(options, "forbidden"))
        methods = frozenset(_option_names(options, "blocking_methods"))
        severity = _severity(self, options)
        for func in ast.walk(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in self._async_body(func):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(ctx.parents.get(node), ast.Await):
                    continue  # directly awaited -> not a synchronous wait
                qualified = ctx.resolve(node.func)
                if qualified is not None and qualified in forbidden:
                    blocking = f"{qualified}()"
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in methods
                ):
                    blocking = f".{node.func.attr}()"
                else:
                    continue
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"blocking call {blocking} inside async def "
                    f"{func.name!r}; await it off-loop (asyncio.sleep, "
                    "wrap_future, or a run_in_executor bridge)",
                    severity,
                )
