"""Configuration of the Contango synthesis flow."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.corners import Corner, ispd09_corners
from repro.analysis.spice import TransientSolverConfig
from repro.analysis.variation import YIELD_SKEW_LIMIT_PS, VariationModel

__all__ = ["DEFAULT_PIPELINE", "VARIATION_PIPELINE", "BATCHED_PIPELINE", "FlowConfig"]

#: The paper's full optimization sequence (Figure 1), as pass-registry names.
DEFAULT_PIPELINE = ("initial", "tbsz", "twsz", "twsn", "bwsn")

#: The variation-aware pipeline variant: the same sequence with every IVC
#: round of the optimization passes additionally screened by the Monte Carlo
#: p95-skew gate (see :mod:`repro.core.variation`).
VARIATION_PIPELINE = ("initial", "tbsz_mc", "twsz_mc", "twsn_mc", "bwsn_mc")

#: The batched-candidate pipeline variant: the same sequence with every IVC
#: round proposing best-of-K scaled candidates, scored in one batched
#: evaluation under the analytical engines (an
#: :class:`repro.core.ivc.IvcEngine` built with ``candidate_scales``).
BATCHED_PIPELINE = ("initial", "tbsz_k", "twsz_k", "twsn_k", "bwsn_k")


@dataclass
class FlowConfig:
    """All knobs of :class:`repro.core.flow.ContangoFlow`.

    The defaults reproduce the paper's methodology: transient (SPICE-style)
    evaluation at the two ISPD'09 supply corners, composite small inverters
    chosen by dominance analysis, a 10% capacitance reserve at initial buffer
    insertion, and the full optimization sequence INITIAL -> TBSZ -> TWSZ ->
    TWSN -> BWSN.

    ``pipeline`` selects which registered optimization passes run, in order
    (see :mod:`repro.core.pipeline`); ``None`` means the paper's
    :data:`DEFAULT_PIPELINE`.  The ``enable_*`` switches additionally gate
    individual stages without dropping their Table III rows -- handy for the
    ablation benches, which compare stage tables of equal shape.
    """

    # Evaluation
    engine: str = "spice"
    corners: List[Corner] = field(default_factory=ispd09_corners)
    max_segment_length: float = 100.0
    solver: TransientSolverConfig = field(default_factory=TransientSolverConfig)

    # Initial tree construction
    topology_method: str = "bisection"
    skew_bound: float = 0.0

    # Buffer insertion
    station_spacing: float = 250.0
    power_reserve: float = 0.10
    buffering_slew_margin: float = 0.70
    composite_max_parallel: int = 8
    composite_ladder_steps: int = 4
    use_composite_inverters: bool = True
    max_dp_options: int = 32

    # Polarity correction
    polarity_strategy: str = "subtree"

    # Optimization passes
    #: Pass-registry names to run, in order; None = DEFAULT_PIPELINE.
    pipeline: Optional[List[str]] = None
    enable_obstacle_avoidance: bool = True
    enable_buffer_sizing: bool = True
    enable_wiresizing: bool = True
    enable_wiresnaking: bool = True
    enable_bottom_level: bool = True
    multicorner_slacks: bool = False

    wiresizing_max_rounds: int = 15
    wiresnaking_unit_length: float = 20.0
    wiresnaking_max_rounds: int = 15
    bottom_unit_length: float = 5.0
    bottom_max_rounds: int = 10
    sizing_levels_after_branch: int = 4
    sizing_max_iterations: int = 8
    #: Consecutive rejected sizing iterations tolerated before the pass stops
    #: (each rejection retries with the growth step halved); 1 reproduces the
    #: historical stop-on-first-rejection behavior.
    sizing_max_rejections: int = 3

    # Reproducibility
    #: Base seed of every stochastic component (Monte Carlo variation
    #: sampling, the p95 acceptance gate, benchmark harnesses).  All
    #: generators are derived from it via :mod:`repro.seeding`, so two runs
    #: with equal seeds are bit-identical and ``None`` falls back to the
    #: library default rather than nondeterminism.
    seed: Optional[int] = None

    # Monte Carlo variation (the `*_mc` pipeline variants and `repro mc`)
    #: Variation model used by the p95 acceptance gate; ``None`` selects
    #: :func:`repro.analysis.variation.default_variation_model`.
    variation_model: Optional[VariationModel] = None
    #: Scenario count per gate check (kept modest: one check costs one
    #: batched yield evaluation).
    variation_samples: int = 128
    #: Allowed p95-skew increase (ps) before the gate rejects a round.
    variation_p95_tolerance_ps: float = 0.0
    #: Skew limit (ps) used for yield reporting by the gate and `repro mc`.
    variation_skew_limit_ps: float = YIELD_SKEW_LIMIT_PS

    def pipeline_names(self) -> List[str]:
        """The pass names this flow runs, resolving the default pipeline."""
        if self.pipeline is None:
            return list(DEFAULT_PIPELINE)
        return list(self.pipeline)

    def corner_names_for_slacks(self) -> Optional[List[str]]:
        """Corners used for slack computation (None = nominal corner only)."""
        if self.multicorner_slacks:
            return [corner.name for corner in self.corners]
        return None
