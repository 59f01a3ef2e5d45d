"""Timing analysis engines and the clock-network evaluator (SPICE substitute).

The package provides three interchangeable stage-analysis engines --
Elmore (+PERI slew), Arnoldi-style moment matching, and a transient RC
solver -- behind the single :class:`~repro.analysis.evaluator.ClockNetworkEvaluator`
interface used by every optimization pass and benchmark.
"""

from repro.analysis.corners import (
    Corner,
    driver_scale_for_vdd,
    ispd09_corners,
    supply_driver_multiplier,
)
from repro.analysis.evaluator import (
    ClockNetworkEvaluator,
    CornerTiming,
    EvaluationReport,
    EvaluatorConfig,
)
from repro.analysis.variation import (
    VariationModel,
    VariationSamples,
    YieldReport,
    default_variation_model,
)
from repro.analysis.rcnetwork import Stage, StageNetwork, build_stage_network, extract_stages
from repro.analysis.elmore import elmore_stage_timing, elmore_stage_delays, StageTiming
from repro.analysis.arnoldi import arnoldi_stage_timing, stage_moments
from repro.analysis.spice import TransientSolverConfig, transient_stage_timing

__all__ = [
    "Corner",
    "driver_scale_for_vdd",
    "ispd09_corners",
    "supply_driver_multiplier",
    "VariationModel",
    "VariationSamples",
    "YieldReport",
    "default_variation_model",
    "ClockNetworkEvaluator",
    "CornerTiming",
    "EvaluationReport",
    "EvaluatorConfig",
    "Stage",
    "StageNetwork",
    "build_stage_network",
    "extract_stages",
    "elmore_stage_timing",
    "elmore_stage_delays",
    "StageTiming",
    "arnoldi_stage_timing",
    "stage_moments",
    "TransientSolverConfig",
    "transient_stage_timing",
]
