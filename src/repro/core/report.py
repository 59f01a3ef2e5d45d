"""Flow result records (stage snapshots, Table III/IV/V style summaries).

The serialized *shapes* of these records -- per-stage rows and the Table IV
summary -- are owned by the typed schema layer (:mod:`repro.api.records`):
:class:`StageRecord` extends :class:`repro.api.records.StageRow` with the
flow-side constructor, and :meth:`FlowResult.summary` builds a
:class:`repro.api.records.RunSummary`, so field names exist in exactly one
place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.evaluator import EvaluationReport
from repro.api.records import RunSummary, StageRow
from repro.core.tuning import PassResult
from repro.cts.tree import ClockTree

__all__ = ["StageRecord", "FlowResult"]


@dataclass
class StageRecord(StageRow):
    """The metrics captured right after one flow stage (one row of Table III).

    Inherits every field (and the ``to_record``/``from_record`` pair) from
    the public :class:`~repro.api.records.StageRow` schema; this subclass
    only adds the constructor that snapshots a live evaluation.
    """

    @classmethod
    def from_report(
        cls,
        stage: str,
        tree: ClockTree,
        report: EvaluationReport,
        elapsed_s: float,
    ) -> "StageRecord":
        return cls(
            stage=stage,
            skew_ps=report.skew,
            clr_ps=report.clr,
            max_latency_ps=report.max_latency,
            worst_slew_ps=report.worst_slew,
            total_capacitance_fF=report.total_capacitance,
            capacitance_utilization=report.capacitance_utilization,
            wirelength_um=report.wirelength,
            buffer_count=tree.buffer_count(),
            evaluations=report.evaluation_index,
            elapsed_s=elapsed_s,
        )


@dataclass
class FlowResult:
    """Complete outcome of one Contango (or baseline) synthesis run.

    ``tree`` and ``final_report`` are ``None`` only while a pipeline is still
    populating the record; a result handed back by a flow always carries
    both.  Use :meth:`require_tree` / :meth:`require_report` for validated
    access (every metric property goes through them).
    """

    instance_name: str
    flow_name: str
    tree: Optional[ClockTree] = None
    final_report: Optional[EvaluationReport] = None
    stages: List[StageRecord] = field(default_factory=list)
    pass_results: Dict[str, PassResult] = field(default_factory=dict)
    chosen_buffer: Optional[str] = None
    inverted_sinks: int = 0
    polarity_inverters_added: int = 0
    obstacle_detours: int = 0
    total_evaluations: int = 0
    runtime_s: float = 0.0
    #: Hit/miss/size statistics of the flow evaluator's incremental stage
    #: cache (see :meth:`repro.analysis.evaluator.StageCache.stats`).
    evaluator_cache: Dict[str, int] = field(default_factory=dict)
    #: Bookkeeping of the Monte Carlo p95 acceptance gate (empty unless the
    #: pipeline ran variation-aware passes; see
    #: :meth:`repro.core.variation.VariationGate.stats`).
    variation_gate: Dict[str, object] = field(default_factory=dict)

    def require_tree(self) -> ClockTree:
        """The synthesized tree; raises if the flow never produced one."""
        if self.tree is None:
            raise ValueError(
                f"flow result for {self.instance_name!r} carries no tree yet"
            )
        return self.tree

    def require_report(self) -> EvaluationReport:
        """The final evaluation; raises if the flow never evaluated."""
        if self.final_report is None:
            raise ValueError(
                f"flow result for {self.instance_name!r} carries no final report yet"
            )
        return self.final_report

    @property
    def skew(self) -> float:
        return self.require_report().skew

    @property
    def clr(self) -> float:
        return self.require_report().clr

    @property
    def capacitance_utilization(self) -> Optional[float]:
        return self.require_report().capacitance_utilization

    def stage(self, name: str) -> StageRecord:
        for record in self.stages:
            if record.stage == name:
                return record
        raise KeyError(f"no stage named {name!r} in flow result")

    def stage_table(self) -> List[Dict[str, object]]:
        """Per-stage rows in Table III format."""
        return [record.to_record() for record in self.stages]

    def typed_summary(self) -> RunSummary:
        """Single-row summary in Table IV format, as the typed schema."""
        report = self.require_report()
        return RunSummary(
            instance=self.instance_name,
            flow=self.flow_name,
            clr_ps=self.clr,
            skew_ps=self.skew,
            max_latency_ps=report.max_latency,
            capacitance_utilization=self.capacitance_utilization,
            total_capacitance_fF=report.total_capacitance,
            wirelength_um=report.wirelength,
            slew_violations=len(report.slew_violations),
            evaluations=self.total_evaluations,
            runtime_s=self.runtime_s,
        )

    def summary(self) -> Dict[str, object]:
        """Single-row summary in Table IV format (legacy dict shape)."""
        return self.typed_summary().to_record()
