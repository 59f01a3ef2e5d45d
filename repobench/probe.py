"""Per-layer attribution from outside the program.

A :class:`Probe` wraps each layer's public function at the module or class
attribute its callers look it up through, so every call opens a span on the
probe's :class:`~repro.obs.Tracer` next to the spans the program already
opens (``evaluate``, ``propagate``, ``ivc_round``, ``candidate_batch``,
``yield_sweep``).  Self time per span path comes from
:func:`repro.obs.path_timings`; each span name maps to one layer metric, and
the self time of every span that maps to none (``job``, ``flow:*``,
``pass:*`` ...) inside an operation is reported as ``unattributed_s``.

Layer counts are taken at the same boundaries, from arguments and return
values, so they repeat exactly between runs of the same schedule.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import Tracer, path_timings

Counts = Dict[str, int]
#: Called after each wrapped call with the counts, the positional arguments
#: and the return value.
Hook = Callable[[Counts, Tuple[Any, ...], Any], None]

#: The root span the benchmark opens around one traced operation.
OP_SPAN = "op"


def _detours(counts: Counts, args: Tuple[Any, ...], report: Any) -> None:
    counts["cts.detours"] += report.subtrees_detoured + report.maze_reroutes


def _bytes_parsed(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    path = args[0].path
    counts["store.bytes_parsed"] += path.stat().st_size if path.exists() else 0


def _ivc_outcome(counts: Counts, args: Tuple[Any, ...], outcome: Any) -> None:
    counts["core.ivc.rounds"] += 1
    counts["core.ivc.accepted"] += 1 if outcome.accepted else 0


def _gate_outcome(counts: Counts, args: Tuple[Any, ...], reason: Any) -> None:
    counts["core.variation.gate_checks"] += 1
    counts["core.variation.gate_rejections"] += 0 if reason is None else 1


def _yield_samples(counts: Counts, args: Tuple[Any, ...], report: Any) -> None:
    counts["analysis.yield_samples"] += report.n_samples


def _calls(name: str) -> Hook:
    def hook(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
        counts[name] += 1

    return hook


@dataclass(frozen=True)
class Target:
    """One wrapped public function.

    ``module`` and ``attr`` name the attribute the program's callers look the
    function up through (``"RunStore.append"`` for a method).  ``workload``
    is where the layer must do work: a traced run of that workload in which
    the wrapper never fires fails, since a renamed call site would otherwise
    report the layer as zero.
    """

    module: str
    attr: str
    span: str
    workload: str
    hook: Optional[Hook] = None

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attr}"


_PASSES = (
    "slide_and_interleave_trunk",
    "iterative_buffer_sizing",
    "top_down_wiresizing",
    "top_down_wiresnaking",
    "bottom_level_fine_tuning",
)

TARGETS: Tuple[Target, ...] = (
    Target("repro.runner", "resolve_instance", "workloads.generate", "store-replay",
           _calls("workloads.instances")),
    Target("repro.runner", "instance_fingerprint", "store.fingerprint", "store-replay"),
    Target("repro.runner", "config_digest", "store.fingerprint", "store-replay"),
    Target("repro.runner", "job_fingerprint", "store.fingerprint", "store-replay"),
    Target("repro.store.store", "RunStore.latest_by_fingerprint", "store.lookup", "store-replay",
           _calls("store.lookups")),
    Target("repro.store.store", "RunStore.entries", "store.lookup", "store-replay", _bytes_parsed),
    Target("repro.store.store", "RunStore.append", "store.append", "store-replay",
           _calls("store.appends")),
    Target("repro.core.pipeline", "build_zero_skew_tree", "cts.dme", "flow-large"),
    Target("repro.core.pipeline", "repair_obstacle_violations", "cts.obstacle_repair",
           "sweep-obstacles", _detours),
    Target("repro.cts.tree", "ClockTree.clone", "cts.tree_clone", "flow-large"),
    Target("repro.cts.tree", "ClockTree.checkpoint", "cts.tree_rollback", "flow-large"),
    Target("repro.cts.tree", "ClockTree.rollback_to", "cts.tree_rollback", "flow-large"),
    # No IVC round is accepted on flow-large's instances, so nothing is released there.
    Target("repro.cts.tree", "ClockTree.release", "cts.tree_rollback", "sweep-obstacles"),
    Target("repro.core.pipeline", "insert_buffers_with_sizing", "buffering.insert", "flow-large"),
    Target("repro.core.pipeline", "correct_sink_polarity", "core.polarity", "flow-large"),
    *(Target("repro.core.pipeline", name, "core.pass", "flow-large") for name in _PASSES),
    Target("repro.core.ivc", "ivc_round", "core.ivc", "flow-large", _ivc_outcome),
    Target("repro.core.variation", "VariationGate.check", "core.variation.gate", "yield-mc",
           _gate_outcome),
    Target("repro.analysis.evaluator", "ClockNetworkEvaluator.evaluate", "analysis.evaluate",
           "flow-large", _calls("analysis.evaluations")),
    Target("repro.analysis.evaluator", "ClockNetworkEvaluator.evaluate_candidates",
           "analysis.candidates", "sweep-obstacles"),
    Target("repro.analysis.evaluator", "ClockNetworkEvaluator.evaluate_yield", "analysis.yield",
           "yield-mc", _yield_samples),
)

#: Span name -> the layer metric its self time is charged to.  The last four
#: are spans the program opens itself, nested inside the wrapped functions.
SPAN_METRICS: Mapping[str, str] = {
    "workloads.generate": "workloads.generate_s",
    "store.fingerprint": "store.fingerprint_s",
    "store.lookup": "store.lookup_s",
    "store.append": "store.append_s",
    "cts.dme": "cts.dme_s",
    "cts.obstacle_repair": "cts.obstacle_repair_s",
    "cts.tree_clone": "cts.tree_clone_s",
    "cts.tree_rollback": "cts.tree_rollback_s",
    "buffering.insert": "buffering.insert_s",
    "core.polarity": "core.polarity_s",
    "core.pass": "core.pass_self_s",
    "core.ivc": "core.ivc.self_s",
    "core.variation.gate": "core.variation.gate_s",
    "analysis.evaluate": "analysis.evaluate_s",
    "analysis.candidates": "analysis.candidates_s",
    "analysis.yield": "analysis.yield_s",
    "ivc_round": "core.ivc.self_s",
    "evaluate": "analysis.evaluate_s",
    "propagate": "analysis.propagate_s",
    "candidate_batch": "analysis.candidates_s",
}

#: Counts kept by the hooks above (``core.ivc.accepted`` only feeds a ratio).
COUNTS = (
    "workloads.instances",
    "store.lookups",
    "store.bytes_parsed",
    "store.appends",
    "cts.detours",
    "core.ivc.rounds",
    "core.ivc.accepted",
    "core.variation.gate_checks",
    "core.variation.gate_rejections",
    "analysis.evaluations",
    "analysis.yield_samples",
)


#: The end-to-end metric each layer metric should move, and on which workload.
MOVES: Mapping[str, str] = {
    "workloads.generate_s": "job_s on store-replay",
    "workloads.instances": "job_s on store-replay",
    "store.fingerprint_s": "job_s on store-replay",
    "store.lookup_s": "job_s_p90 on store-replay",
    "store.lookups": "job_s_p90 on store-replay",
    "store.bytes_parsed": "job_s_p90 on store-replay",
    "store.append_s": "jobs_per_s, setup_s on store-replay",
    "store.appends": "jobs_per_s, setup_s on store-replay",
    "cts.dme_s": "job_s on flow-large",
    "cts.obstacle_repair_s": "jobs_per_s on sweep-obstacles",
    "cts.detours": "jobs_per_s on sweep-obstacles",
    "cts.tree_clone_s": "job_s on flow-large",
    "cts.tree_rollback_s": "job_s on flow-large",
    "buffering.insert_s": "job_s on flow-large; jobs_per_s on sweep-obstacles",
    "core.polarity_s": "job_s on flow-large",
    "core.pass_self_s": "job_s on flow-large",
    "core.ivc.self_s": "job_s on flow-large",
    "core.ivc.rounds": "job_s on flow-large",
    "core.ivc.accept_ratio": "job_s on flow-large",
    "core.variation.gate_s": "jobs_per_s on yield-mc",
    "core.variation.gate_checks": "jobs_per_s on yield-mc",
    "core.variation.gate_rejections": "jobs_per_s on yield-mc",
    "analysis.evaluate_s": "job_s on flow-large",
    "analysis.evaluations": "job_s on flow-large",
    "analysis.propagate_s": "job_s on flow-large",
    "analysis.cache_hit_ratio": "job_s on flow-large",
    "analysis.stages_propagated_ratio": "job_s on flow-large",
    "analysis.candidates_s": "jobs_per_s on sweep-obstacles",
    "analysis.candidate_batches": "jobs_per_s on sweep-obstacles",
    "analysis.candidate_fallbacks": "jobs_per_s on sweep-obstacles",
    "analysis.yield_s": "jobs_per_s, peak_rss_mb on yield-mc",
    "analysis.yield_samples": "jobs_per_s, peak_rss_mb on yield-mc",
    "unattributed_s": "nothing: it keeps the breakdown honest",
    "obs.trace_overhead_ratio": "nothing: it validates the traced run",
}


class MissingTargetError(RuntimeError):
    """A wrapped public function is gone, renamed, or never called."""


def _owner(target: Target) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            raise MissingTargetError(f"{target.qualname}: {part!r} is missing")
    return owner, name


class Probe:
    """Installs the wrappers of :data:`TARGETS` for the span of a ``with`` block."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Counts = {name: 0 for name in COUNTS}
        self.calls: Dict[str, int] = {target.qualname: 0 for target in TARGETS}
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Probe":
        missing: List[str] = []
        resolved = []
        for target in TARGETS:
            try:
                owner, name = _owner(target)
            except (ImportError, MissingTargetError):
                missing.append(target.qualname)
                continue
            original = vars(owner).get(name)
            if not callable(original):
                missing.append(target.qualname)
                continue
            resolved.append((target, owner, name, original))
        if missing:
            raise MissingTargetError("wrapped functions not found: " + ", ".join(missing))
        for target, owner, name, original in resolved:
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(target, original))
        return self

    def __exit__(self, *exc_info: object) -> bool:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    def _wrap(self, target: Target, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer, span, hook = self.tracer, target.span, target.hook
        calls, counts, key = self.calls, self.counts, target.qualname

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            with tracer.span(span):
                result = original(*args, **kwargs)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def silent(self, workload: str) -> List[str]:
        """Targets that must do work on ``workload`` but were never called."""
        return [
            target.qualname
            for target in TARGETS
            if target.workload == workload and self.calls[target.qualname] == 0
        ]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    probe: Probe,
    cache: Mapping[str, int],
    untraced_op_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced schedule.

    ``cache`` sums the ``evaluator_cache`` blocks of the schedule's run
    records; ``untraced_op_s`` is the same schedule's operation time measured
    without the probe, the base of ``obs.trace_overhead_ratio``.
    """
    metrics: Dict[str, float] = {name: 0.0 for name in sorted(set(SPAN_METRICS.values()))}
    unattributed = 0.0
    traced_op_s = 0.0
    for path, timing in path_timings(probe.tracer).items():
        leaf = path.rsplit("/", 1)[-1]
        metric = SPAN_METRICS.get(leaf)
        if metric is not None:
            metrics[metric] += timing["self_s"]
        elif path.split("/", 1)[0] == OP_SPAN:
            unattributed += timing["self_s"]
        if path == OP_SPAN:
            traced_op_s = timing["total_s"]
    counts = probe.counts
    metrics.update({name: float(counts[name]) for name in COUNTS if name != "core.ivc.accepted"})
    metrics["core.ivc.accept_ratio"] = _ratio(counts["core.ivc.accepted"], counts["core.ivc.rounds"])
    metrics["analysis.cache_hit_ratio"] = _ratio(
        cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
    )
    metrics["analysis.stages_propagated_ratio"] = _ratio(
        cache.get("stages_propagated", 0), cache.get("stages_total", 0)
    )
    metrics["analysis.candidate_batches"] = float(cache.get("candidate_batches", 0))
    metrics["analysis.candidate_fallbacks"] = float(cache.get("candidate_fallbacks", 0))
    metrics["unattributed_s"] = unattributed
    metrics["obs.trace_overhead_ratio"] = _ratio(traced_op_s, untraced_op_s) - 1.0
    return metrics


def sum_cache(blocks: Sequence[Mapping[str, int]]) -> Dict[str, int]:
    """Key-wise sum of several ``evaluator_cache`` blocks."""
    total: Dict[str, int] = {}
    for block in blocks:
        for key, value in block.items():
            total[key] = total.get(key, 0) + int(value)
    return total
