"""Typed result-record schemas: the single source of truth for record shapes.

Every JSON-able record the batch engine emits -- synthesis runs, Monte Carlo
yield sweeps, failed jobs -- is a dataclass here whose fields declare its
wire shape once.  The ``to_record()`` / ``from_record()`` pair every class
inherits from :class:`_Record` is derived from those fields and round-trips
**bit-identically** to the dict shapes the runner has always streamed
(pinned by ``tests/golden/legacy_records.json``).  Producers
(:mod:`repro.runner`), the store (:mod:`repro.store`), the diff engine
(:mod:`repro.store.compare`) and every table renderer consume these classes
instead of hand-rolled dicts, so adding a field is one declaration.

Conventions
-----------
* Keys go out in field order, the historical dict insertion order, so
  per-job JSON files stay byte-identical.
* ``field(metadata=...)`` declares what the wire shape needs beyond the
  field's name and value: ``_KEY``, the record key where it is not the
  field name (``McRecord.yield_`` goes out as ``"yield"``); ``_NESTED``, the
  record class of a nested value (with ``_MANY`` for a list of them);
  ``_OMIT_FALSY``, emit the key only when the value is truthy
  (``variation_gate`` only when a gate ran, ``trace`` only when traced).
* A field holding :data:`MISSING` is never emitted (the error-record spec
  envelope), so legacy records survive a parse/serialize round trip.
* ``from_record()`` is lenient: an absent key parses to the field's default
  (``None`` for a field without one), so old or hand-written records parse
  with holes but never gain conditional keys.  A nested value that is not
  a JSON object (or a list of them) raises ``ValueError``.

This module is intentionally a *leaf*: it imports nothing from the rest of
the package, so low-level modules (e.g. :mod:`repro.core.report`) can build
on the schemas without import cycles.
"""

from __future__ import annotations

import copy
from dataclasses import MISSING as _NO_DEFAULT
from dataclasses import Field, dataclass, field, fields
from typing import (
    Any,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

__all__ = [
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
    "STAGE_TABLE_COLUMNS",
    "RUN_SUMMARY_COLUMNS",
    "MC_TABLE_COLUMNS",
]


class _MissingType:
    """Sentinel for 'key absent from the record' (distinct from ``None``)."""

    __slots__ = ()
    _instance: Optional["_MissingType"] = None

    def __new__(cls) -> "_MissingType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


MISSING = _MissingType()
"""Field value meaning "this key was not present in the source record".

``to_record()`` skips ``MISSING`` fields entirely, which is how the error
envelope stays backward round-trippable: legacy error records (which carried
no ``pipeline``/``seed`` keys) parse to ``MISSING`` and serialize back without
them, while newly produced error records carry the full spec envelope.
"""


#: ``field(metadata=...)`` keys read by the derived record pair.
_KEY = "key"
_NESTED = "nested"
_MANY = "many"
_OMIT_FALSY = "omit_falsy"

_R = TypeVar("_R", bound="_Record")


class _Record:
    """The record pair, derived from the fields and their metadata (see above)."""

    __dataclass_fields__: ClassVar[Dict[str, Field[Any]]]

    def to_record(self) -> Dict[str, Any]:
        """The record dict: one key per field that is set, in field order."""
        record: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is MISSING or (f.metadata.get(_OMIT_FALSY) and not value):
                continue
            if value is not None and _NESTED in f.metadata:
                value = (
                    [item.to_record() for item in value]
                    if f.metadata.get(_MANY)
                    else value.to_record()
                )
            record[f.metadata.get(_KEY, f.name)] = value
        return record

    @classmethod
    def from_record(cls: Type[_R], record: Mapping[str, Any]) -> _R:
        """Parse a record dict; an absent key takes the field's default."""
        if not isinstance(record, Mapping):
            raise ValueError(
                f"{cls.__name__} must be a JSON object, not {type(record).__name__}"
            )
        values: Dict[str, Any] = {}
        for f in fields(cls):
            key = f.metadata.get(_KEY, f.name)
            if key in record:
                values[f.name] = _parse_field(f, record[key])
            elif f.default is _NO_DEFAULT and f.default_factory is _NO_DEFAULT:
                values[f.name] = None
        return cls(**values)


def _parse_field(f: Field[Any], value: Any) -> Any:
    """One present value, parsed through the field's nested record class."""
    nested = f.metadata.get(_NESTED)
    if nested is None or value is None:
        return value
    if not f.metadata.get(_MANY):
        return nested.from_record(value)
    if not isinstance(value, list):
        raise ValueError(f"{f.name!r} must be a list, not {type(value).__name__}")
    return [nested.from_record(item) for item in value]


@dataclass
class StageRow(_Record):
    """One optimization-stage snapshot (one row of a Table III stage table)."""

    stage: str
    skew_ps: float
    clr_ps: float
    max_latency_ps: float
    worst_slew_ps: float
    total_capacitance_fF: float
    capacitance_utilization: Optional[float]
    wirelength_um: float
    buffer_count: int
    evaluations: int
    #: Rows saved before per-stage timing existed parse with 0.0.
    elapsed_s: float = 0.0


@dataclass
class RunSummary(_Record):
    """Final metrics of one synthesis run (one row of a Table IV comparison)."""

    instance: Optional[str] = None
    flow: Optional[str] = None
    clr_ps: Optional[float] = None
    skew_ps: Optional[float] = None
    max_latency_ps: Optional[float] = None
    capacitance_utilization: Optional[float] = None
    total_capacitance_fF: Optional[float] = None
    wirelength_um: Optional[float] = None
    slew_violations: Optional[int] = None
    evaluations: Optional[int] = None
    runtime_s: Optional[float] = None


@dataclass
class YieldSummary(_Record):
    """Skew/CLR distribution statistics of one Monte Carlo yield sweep."""

    n_samples: Optional[int] = None
    engine: Optional[str] = None
    model: Optional[Dict[str, Any]] = None
    skew_limit_ps: Optional[float] = None
    skew_mean_ps: Optional[float] = None
    skew_std_ps: Optional[float] = None
    skew_p95_ps: Optional[float] = None
    skew_p99_ps: Optional[float] = None
    skew_max_ps: Optional[float] = None
    skew_yield: Optional[float] = None
    clr_mean_ps: Optional[float] = None
    clr_p95_ps: Optional[float] = None
    clr_p99_ps: Optional[float] = None
    slew_yield: Optional[float] = None


@dataclass
class RunRecord(_Record):
    """Complete result of one synthesis job (the ``repro run`` record shape).

    Field order is the serialization order; it matches the dicts
    :func:`repro.runner.run_job` has always emitted, so per-job JSON files
    and store lines are byte-compatible with records written before the
    typed schemas.
    """

    job: Optional[str] = None
    instance: Optional[str] = None
    flow: Optional[str] = None
    engine: Optional[str] = None
    pipeline: Optional[List[str]] = None
    seed: Optional[int] = None
    instance_fingerprint: Optional[str] = None
    config_digest: Optional[str] = None
    fingerprint: Optional[str] = None
    sinks: Optional[int] = None
    summary: Optional[RunSummary] = field(default=None, metadata={_NESTED: RunSummary})
    stage_table: List[StageRow] = field(
        default_factory=list, metadata={_NESTED: StageRow, _MANY: True}
    )
    pass_notes: Dict[str, List[str]] = field(default_factory=dict)
    evaluator_cache: Dict[str, int] = field(default_factory=dict)
    wall_clock_s: Optional[float] = None
    #: Present only when the pipeline ran variation-aware passes, matching
    #: the legacy shape.
    variation_gate: Optional[Dict[str, Any]] = field(
        default=None, metadata={_OMIT_FALSY: True}
    )
    #: Serialized :class:`repro.obs.TraceSummary`; present only when the job
    #: ran traced, so untraced records keep their historical byte shape.
    #: Plain dict here: this module is a dependency-free leaf.
    trace: Optional[Dict[str, Any]] = field(default=None, metadata={_OMIT_FALSY: True})


@dataclass
class McRecord(_Record):
    """Complete result of one Monte Carlo job (the ``repro mc`` record shape)."""

    job: Optional[str] = None
    instance: Optional[str] = None
    flow: Optional[str] = None
    engine: Optional[str] = None
    samples: Optional[int] = None
    family: Optional[str] = None
    seed: Optional[int] = None
    gated: Optional[bool] = None
    sinks: Optional[int] = None
    #: Serialized under the legacy key ``"yield"`` (a Python keyword).
    yield_: Optional[YieldSummary] = field(
        default=None, metadata={_KEY: "yield", _NESTED: YieldSummary}
    )
    nominal: Optional[RunSummary] = field(default=None, metadata={_NESTED: RunSummary})
    wall_clock_s: Optional[float] = None
    variation_gate: Optional[Dict[str, Any]] = field(
        default=None, metadata={_OMIT_FALSY: True}
    )
    #: Serialized :class:`repro.obs.TraceSummary`; present only when traced.
    trace: Optional[Dict[str, Any]] = field(default=None, metadata={_OMIT_FALSY: True})


#: Value of an optional error-envelope field: the real value, ``None``, or
#: :data:`MISSING` when the source record did not carry the key at all.
_OptField = Union[Any, _MissingType]


@dataclass
class ErrorRecord(_Record):
    """A failed job, with the same spec envelope as a successful record.

    Legacy error records carried only ``job``/``instance``/``flow``/``engine``
    plus the traceback; records produced by this codebase additionally carry
    the spec envelope (``pipeline``, ``seed``, and the Monte Carlo axes for
    MC jobs) so ``repro compare`` can line failed jobs up against their
    baseline counterparts by the same job key as successful ones.  The
    envelope fields default to :data:`MISSING`, so each is emitted only when
    it was set.
    """

    job: Optional[str] = None
    instance: Optional[str] = None
    flow: Optional[str] = None
    engine: Optional[str] = None
    error: Optional[str] = None
    pipeline: _OptField = MISSING
    seed: _OptField = MISSING
    samples: _OptField = MISSING
    family: _OptField = MISSING
    gated: _OptField = MISSING

    def envelope(self, name: str) -> Any:
        """An optional envelope field, with absence normalized to ``None``."""
        value = getattr(self, name)
        return None if value is MISSING else value


#: A record that carries results (indexed by the compare engine).
ResultRecord = Union[RunRecord, McRecord]
#: Anything the batch engine can emit for one job.
Record = Union[RunRecord, McRecord, ErrorRecord]


def record_from_dict(record: Union[Mapping[str, Any], Record]) -> Record:
    """Parse one legacy record dict into its typed class (typed passes through).

    Dispatch mirrors how consumers have always told the shapes apart:
    ``"error"`` marks a failed job, ``"yield"`` a Monte Carlo record, and
    anything else is a synthesis run record.
    """
    if isinstance(record, (RunRecord, McRecord, ErrorRecord)):
        return record
    if "error" in record:
        return ErrorRecord.from_record(record)
    if "yield" in record:
        return McRecord.from_record(record)
    return RunRecord.from_record(record)


def stable_record(record: Union[Mapping[str, Any], "Record"]) -> Dict[str, Any]:
    """The record's serialized form with every wall-clock field removed.

    Two executions of the same fingerprint must agree on *this* projection
    bit-for-bit -- the content of a run is everything except how long it
    took.  It is the comparison key of the traced/untraced parity perf check
    and of the serve-layer cache invariant (a cached completion equals a
    fresh run outside ``wall_clock_s``, ``trace``, the summary runtimes and
    the per-stage elapsed times).
    """
    payload = copy.deepcopy(
        dict(record) if isinstance(record, Mapping) else record.to_record()
    )
    payload.pop("wall_clock_s", None)
    payload.pop("trace", None)
    for key in ("summary", "nominal"):
        summary = payload.get(key)
        if isinstance(summary, dict):
            summary.pop("runtime_s", None)
    for row in payload.get("stage_table") or []:
        if isinstance(row, dict):
            row.pop("elapsed_s", None)
    return payload


# ----------------------------------------------------------------------
# Table column specifications (key, header, format-spec)
# ----------------------------------------------------------------------
#: One row per optimization stage of a single run (Table III).  Keys are
#: :class:`StageRow` field names.
STAGE_TABLE_COLUMNS: Tuple[Tuple[str, str, str], ...] = (
    ("stage", "stage", "s"),
    ("skew_ps", "skew[ps]", ".2f"),
    ("clr_ps", "CLR[ps]", ".2f"),
    ("max_latency_ps", "latency[ps]", ".1f"),
    ("worst_slew_ps", "slew[ps]", ".1f"),
    ("total_capacitance_fF", "cap[fF]", ".0f"),
    ("wirelength_um", "WL[um]", ".0f"),
    ("buffer_count", "buffers", "d"),
    ("evaluations", "evals", "d"),
    ("elapsed_s", "t[s]", ".2f"),
)

#: One row per (instance, flow) with the final metrics (Table IV).  Keys are
#: :class:`RunSummary` field names.
RUN_SUMMARY_COLUMNS: Tuple[Tuple[str, str, str], ...] = (
    ("instance", "instance", "s"),
    ("flow", "flow", "s"),
    ("clr_ps", "CLR[ps]", ".2f"),
    ("skew_ps", "skew[ps]", ".2f"),
    ("max_latency_ps", "latency[ps]", ".1f"),
    ("total_capacitance_fF", "cap[fF]", ".0f"),
    ("wirelength_um", "WL[um]", ".0f"),
    ("slew_violations", "slew viol", "d"),
    ("evaluations", "evals", "d"),
    ("runtime_s", "runtime[s]", ".2f"),
)

#: One row per Monte Carlo job with the distribution statistics the
#: ISPD'10-style scoring cares about.  Keys match :func:`mc_table_row`.
MC_TABLE_COLUMNS: Tuple[Tuple[str, str, str], ...] = (
    ("instance", "instance", "s"),
    ("flow", "flow", "s"),
    ("family", "family", "s"),
    ("samples", "samples", "d"),
    ("skew_mean_ps", "skew mu[ps]", ".2f"),
    ("skew_std_ps", "sigma[ps]", ".2f"),
    ("skew_p95_ps", "p95[ps]", ".2f"),
    ("skew_p99_ps", "p99[ps]", ".2f"),
    ("skew_yield_pct", "yield[%]", ".1f"),
    ("clr_p95_ps", "CLR p95[ps]", ".2f"),
    ("nominal_skew_ps", "nom skew[ps]", ".2f"),
    ("wall_clock_s", "t[s]", ".2f"),
)


def mc_table_row(record: McRecord) -> Dict[str, Any]:
    """Flatten one :class:`McRecord` into a :data:`MC_TABLE_COLUMNS` row."""
    summary = record.yield_ or YieldSummary()
    return {
        "instance": record.instance,
        "flow": record.flow,
        "family": record.family,
        "samples": record.samples,
        "skew_mean_ps": summary.skew_mean_ps,
        "skew_std_ps": summary.skew_std_ps,
        "skew_p95_ps": summary.skew_p95_ps,
        "skew_p99_ps": summary.skew_p99_ps,
        "skew_yield_pct": 100.0 * (summary.skew_yield or 0.0),
        "clr_p95_ps": summary.clr_p95_ps,
        "nominal_skew_ps": record.nominal.skew_ps if record.nominal else None,
        "wall_clock_s": record.wall_clock_s,
    }
