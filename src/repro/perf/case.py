"""Benchmark-case registry and the run machinery producing ledger entries.

A :class:`PerfCase` is one registered, repeatable performance measurement:
it runs its workload under a live :class:`repro.obs.Tracer` and returns a
:class:`CaseOutcome`.  :func:`run_case` drives the repeats and folds them
into one schema-versioned entry that **strictly quarantines wall-clock from
determinism**:

* ``counters`` / ``span_counters`` -- deterministic integers only, sourced
  from the span tree (:func:`repro.obs.path_counters`) and the case's own
  outcome.  Repeats must agree bit-for-bit; disagreement fails
  the built-in ``counters_deterministic`` check.  ``repro perf compare``
  gates these with an exact match.
* ``timings`` -- everything wall-clock: per-repeat medians/IQRs of the
  span-path self/total times, the traced wall-clock, the case's extra
  timing measurements, and any timing-derived checks (speedup floors).
  :func:`repro.obs.strip_timings` of two entries of the same case at the
  same version is byte-identical.

The registry mirrors :data:`repro.core.pipeline.PASS_REGISTRY` and the
lintkit rules: cases register under their ``name`` via the
:func:`register_case` class decorator, registration raises on a missing or
duplicate name, and the ``perfcase-registered`` lint rule flags concrete
subclasses that never register.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Type

from repro.obs import Tracer, TracerBase, path_counters, path_timings

__all__ = [
    "PERF_SCHEMA",
    "CaseCheck",
    "CaseOutcome",
    "PerfCase",
    "CASE_REGISTRY",
    "register_case",
    "available_cases",
    "resolve_cases",
    "timing_stats",
    "run_case",
    "merged_counters",
]

#: Version number of one persisted perf-case entry; readers reject newer
#: schemas instead of misparsing them (the run-store convention).
PERF_SCHEMA = 1


@dataclass(frozen=True)
class CaseCheck:
    """One named pass/fail assertion of a case run.

    ``timing=False`` checks are deterministic (bit-parity, counter
    consistency) and serialize into the entry's structural remainder;
    ``timing=True`` checks (speedup floors, overhead ceilings) depend on
    wall-clock and are quarantined into the ``timings`` block, details and
    all.
    """

    name: str
    ok: bool
    detail: str = ""
    timing: bool = False


@dataclass
class CaseOutcome:
    """What one repeat of a case hands back to :func:`run_case`.

    ``counters`` are deterministic integers merged into the entry's counter
    block; ``timings`` are case-measured wall-clock floats (seconds unless
    the key says otherwise) aggregated across repeats into the
    ``timings.extra`` block; ``checks`` are the case's own assertions.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    checks: List[CaseCheck] = field(default_factory=list)


class PerfCase:
    """One named, registrable benchmark case.

    Subclasses set ``name`` (the registry key), ``description`` (one line)
    and ``repeats`` (wall-clock sampling; counters must not depend on it),
    and implement :meth:`run_once` -- run the workload under ``tracer``
    (pass it to ``run_job``/the flow so spans nest) and return a
    :class:`CaseOutcome` -- plus :meth:`fingerprint`, the content identity
    of the measured workload (instance fingerprints where applicable), so
    ledger entries are only ever compared like-for-like.
    """

    name: str = ""
    description: str = ""
    repeats: int = 3

    def fingerprint(self) -> str:
        """Content identity of the measured workload."""
        raise NotImplementedError

    def run_once(self, tracer: TracerBase) -> CaseOutcome:
        """Execute one repeat of the workload under ``tracer``."""
        raise NotImplementedError


#: Registered case classes, keyed by case name.
CASE_REGISTRY: Dict[str, Type[PerfCase]] = {}


def register_case(case_cls: Type[PerfCase]) -> Type[PerfCase]:
    """Register a case class under its ``name`` (class-decorator style).

    Raises on a missing or duplicate name so a typo cannot silently shadow
    an existing case -- the same contract as ``register_pass`` and
    ``register_rule``.
    """
    name = case_cls.name
    if not name:
        raise ValueError("a perf case needs a non-empty 'name' to register")
    if name in CASE_REGISTRY:
        raise ValueError(f"a perf case named {name!r} is already registered")
    CASE_REGISTRY[name] = case_cls
    return case_cls


def available_cases() -> List[str]:
    """Sorted names currently in the registry."""
    return sorted(CASE_REGISTRY)


def resolve_cases(names: Optional[Sequence[str]] = None) -> List[PerfCase]:
    """Instantiate cases by name (default: every registered case, sorted).

    Unknown names raise with the valid set, mirroring ``resolve_rules``.
    """
    if names is None:
        names = available_cases()
    cases: List[PerfCase] = []
    for name in names:
        case_cls = CASE_REGISTRY.get(name)
        if case_cls is None:
            raise KeyError(
                f"unknown perf case {name!r}; registered: {available_cases()}"
            )
        cases.append(case_cls())
    return cases


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sample."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return float(ordered[low] * (1.0 - fraction) + ordered[high] * fraction)


def timing_stats(samples: Sequence[float]) -> Dict[str, Any]:
    """median/IQR/min/max summary of one wall-clock sample series.

    The IQR (q75 - q25) is the noise band ``repro perf compare`` widens its
    soft timing gate by; a single-sample series has an IQR of zero and
    relies on the comparison's relative/absolute noise floors instead.
    """
    ordered = sorted(float(sample) for sample in samples)
    return {
        "n": len(ordered),
        "median": round(_quantile(ordered, 0.5), 9),
        "iqr": round(_quantile(ordered, 0.75) - _quantile(ordered, 0.25), 9),
        "min": round(ordered[0], 9) if ordered else 0.0,
        "max": round(ordered[-1], 9) if ordered else 0.0,
    }


def merged_counters(per_path: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    """Collapse per-span-path counters into one sorted counter dict."""
    merged: Dict[str, int] = {}
    for counters in per_path.values():
        for key, amount in counters.items():
            merged[key] = merged.get(key, 0) + amount
    return {key: merged[key] for key in sorted(merged)}


def _check_record(check: CaseCheck) -> Dict[str, Any]:
    return {"name": check.name, "ok": check.ok, "detail": check.detail}


def run_case(
    case: PerfCase,
    repeats: Optional[int] = None,
    package_version: Optional[str] = None,
) -> Dict[str, Any]:
    """Run ``case`` ``repeats`` times and fold the repeats into one entry.

    Every repeat starts from a clean slate: a fresh :class:`Tracer`, so
    counters cannot leak between repeats, and a collected heap, so garbage
    left by earlier repeats or cases is not collected inside this one's
    timed spans.  The counter blocks are taken from the first repeat and
    every later repeat must reproduce them exactly (the
    ``counters_deterministic`` check).
    Deterministic checks must agree across repeats too; timing checks are
    merged with AND semantics (a floor missed in any repeat fails).
    """
    if package_version is None:
        from repro import __version__ as package_version
    count = case.repeats if repeats is None else max(1, int(repeats))

    counter_runs: List[Dict[str, int]] = []
    span_counter_runs: List[Dict[str, Dict[str, int]]] = []
    wall_samples: List[float] = []
    span_total_samples: Dict[str, List[float]] = {}
    span_self_samples: Dict[str, List[float]] = {}
    extra_samples: Dict[str, List[float]] = {}
    deterministic_checks: Dict[str, CaseCheck] = {}
    timing_checks: Dict[str, CaseCheck] = {}

    for _ in range(count):
        gc.collect()
        tracer = Tracer()
        outcome = case.run_once(tracer)

        span_counters = path_counters(tracer)
        counters = merged_counters(span_counters)
        counters.update(outcome.counters)
        counter_runs.append({key: counters[key] for key in sorted(counters)})
        span_counter_runs.append(span_counters)

        wall_samples.append(tracer.total_s())
        for path, timing in path_timings(tracer).items():
            span_total_samples.setdefault(path, []).append(timing["total_s"])
            span_self_samples.setdefault(path, []).append(timing["self_s"])
        for label, value in outcome.timings.items():
            extra_samples.setdefault(label, []).append(float(value))

        for check in outcome.checks:
            bucket = timing_checks if check.timing else deterministic_checks
            previous = bucket.get(check.name)
            if previous is None or (previous.ok and not check.ok):
                bucket[check.name] = check

    deterministic = all(run == counter_runs[0] for run in counter_runs) and all(
        run == span_counter_runs[0] for run in span_counter_runs
    )
    deterministic_checks.setdefault(
        "counters_deterministic",
        CaseCheck(
            name="counters_deterministic",
            ok=True,
            detail="counter blocks agree across repeats",
        ),
    )
    if not deterministic:
        deterministic_checks["counters_deterministic"] = CaseCheck(
            name="counters_deterministic",
            ok=False,
            detail="counter blocks differ between repeats of the same case",
        )

    return {
        "schema": PERF_SCHEMA,
        "kind": "perf-case",
        "case": case.name,
        "description": case.description,
        "package_version": package_version,
        "fingerprint": case.fingerprint(),
        "counters": counter_runs[0],
        "span_counters": span_counter_runs[0],
        "checks": [
            _check_record(deterministic_checks[name])
            for name in sorted(deterministic_checks)
        ],
        "timings": {
            "repeats": count,
            "wall_clock_s": timing_stats(wall_samples),
            "spans": {
                path: {
                    "total_s": timing_stats(span_total_samples[path]),
                    "self_s": timing_stats(span_self_samples[path]),
                }
                for path in sorted(span_total_samples)
            },
            "extra": {
                label: timing_stats(extra_samples[label])
                for label in sorted(extra_samples)
            },
            "checks": [
                _check_record(timing_checks[name]) for name in sorted(timing_checks)
            ],
        },
    }
