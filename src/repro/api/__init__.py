"""``repro.api`` -- the stable, typed public surface of the reproduction.

Three layers, bottom-up:

* :mod:`repro.api.records` -- the typed result schemas (:class:`RunRecord`,
  :class:`McRecord`, :class:`ErrorRecord`, :class:`StageRow`,
  :class:`RunSummary`, :class:`YieldSummary`): every JSON record the system
  emits, defined exactly once, round-tripping bit-identically to the legacy
  dict shapes;
* :mod:`repro.api.jobs` -- the unified job model (:class:`Job`,
  :class:`JobSpec`, :class:`McJobSpec`) and the single
  :meth:`JobMatrix.expand` fan-out path shared by ``repro run`` / ``repro
  sweep`` / ``repro mc``; the only way to describe work, and the one place
  each job default is declared;
* :mod:`repro.api.service` -- :class:`SynthesisService`, the long-lived
  facade owning a persistent warm worker pool: it runs job specs
  (``result(job)`` for one, ``run``/``stream``/``submit`` for many),
  streams typed results and records every call in an attached
  :class:`~repro.store.RunStore`.

Import everything from here::

    from repro.api import JobMatrix, JobSpec, RunRecord, SynthesisService

    with SynthesisService() as service:
        record = service.result(JobSpec("ti:200"))

The records layer is imported eagerly (it is a dependency-free leaf); the
job and service layers load lazily on first attribute access, so low-level
modules can depend on :mod:`repro.api.records` without import cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from repro.api.records import (
    MC_TABLE_COLUMNS,
    MISSING,
    RUN_SUMMARY_COLUMNS,
    STAGE_TABLE_COLUMNS,
    ErrorRecord,
    McRecord,
    Record,
    ResultRecord,
    RunRecord,
    RunSummary,
    StageRow,
    YieldSummary,
    mc_table_row,
    record_from_dict,
    stable_record,
)

if TYPE_CHECKING:  # pragma: no cover - static imports for annotations only
    from repro.api.jobs import (
        Job,
        JobMatrix,
        JobSpec,
        McJobSpec,
        MonteCarloAxes,
        sanitize_spec,
    )
    from repro.api.service import JobEvent, ServiceBatch, SynthesisService

__all__ = [
    # records
    "MISSING",
    "StageRow",
    "RunSummary",
    "YieldSummary",
    "RunRecord",
    "McRecord",
    "ErrorRecord",
    "Record",
    "ResultRecord",
    "record_from_dict",
    "stable_record",
    "mc_table_row",
    "STAGE_TABLE_COLUMNS",
    "RUN_SUMMARY_COLUMNS",
    "MC_TABLE_COLUMNS",
    # jobs
    "Job",
    "JobSpec",
    "McJobSpec",
    "MonteCarloAxes",
    "JobMatrix",
    "sanitize_spec",
    # service
    "SynthesisService",
    "JobEvent",
    "ServiceBatch",
]

#: Lazily resolved attribute -> providing submodule (PEP 562).  The job and
#: service layers pull in the runner/core stack, which itself depends on
#: :mod:`repro.api.records`; loading them on first access keeps that edge
#: acyclic.
_LAZY = {
    "Job": "repro.api.jobs",
    "JobSpec": "repro.api.jobs",
    "McJobSpec": "repro.api.jobs",
    "MonteCarloAxes": "repro.api.jobs",
    "JobMatrix": "repro.api.jobs",
    "sanitize_spec": "repro.api.jobs",
    "SynthesisService": "repro.api.service",
    "JobEvent": "repro.api.service",
    "ServiceBatch": "repro.api.service",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> List[str]:
    return sorted(__all__)
