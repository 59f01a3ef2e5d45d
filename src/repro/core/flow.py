"""The Contango clock-network synthesis flow (Figure 1 of the paper).

The flow strings together every piece of the library in the order the paper
prescribes, moving from large-range/low-accuracy optimizations to
small-range/high-accuracy ones:

1. **INITIAL** -- zero-skew DME tree, obstacle-violation repair, composite
   inverter analysis, fast buffer insertion with the strongest composite that
   fits 90% of the capacitance budget, and minimal sink-polarity correction.
2. **TBSZ** -- trunk buffer sliding/interleaving followed by iterative buffer
   sizing with capacitance borrowing (targets CLR; may temporarily increase
   skew, exactly as in Table III).
3. **TWSZ** -- iterative top-down wiresizing (targets skew).
4. **TWSN** -- iterative top-down wiresnaking (targets skew).
5. **BWSN** -- bottom-level wiresizing/wiresnaking fine-tuning (targets skew,
   also nudges CLR).

Since the pass-pipeline refactor the sequence is *data*, not code: each step
is an :class:`~repro.core.pipeline.OptimizationPass` resolved by name from
the pass registry, and :class:`ContangoFlow` merely hands the configured
pass list (``FlowConfig.pipeline``, defaulting to the paper's sequence) to
the :class:`~repro.core.pipeline.PipelineDriver`.  The driver re-evaluates
the network after every labelled stage (a CNE step) and records the metrics,
which is how Table III of the paper is regenerated; every individual
optimization performs its Improvement- & Violation-Checking through the
shared :mod:`repro.core.ivc` engine and rolls back rejected rounds, so the
flow is monotone in its primary objectives.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import FlowConfig
from repro.core.pipeline import PipelineDriver
from repro.core.report import FlowResult
from repro.cts.spec import ClockNetworkInstance
from repro.obs import TracerBase

__all__ = ["ContangoFlow"]


class ContangoFlow:
    """End-to-end Contango synthesis for a :class:`ClockNetworkInstance`."""

    def __init__(self, config: Optional[FlowConfig] = None) -> None:
        self.config = config or FlowConfig()

    def run(
        self,
        instance: ClockNetworkInstance,
        tracer: Optional[TracerBase] = None,
    ) -> FlowResult:
        """Synthesize and optimize the clock network for ``instance``."""
        driver = PipelineDriver(self.config.pipeline_names(), flow_name="contango")
        return driver.run(instance, self.config, tracer=tracer)
