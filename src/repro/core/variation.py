"""The variation-aware IVC acceptance gate (Monte Carlo p95-skew check).

Contango's IVC step accepts a round of tuning moves when the *nominal*
objective improves without violating constraints -- but a move that trims
nominal skew can widen the skew *distribution* under supply/process
variation (a snake tuned to cancel a nominal mismatch, say, overshoots at a
perturbed corner).  The :class:`VariationGate` closes that gap: plugged into
:func:`repro.core.ivc.ivc_round`, it runs a seeded Monte Carlo yield
evaluation (:meth:`~repro.analysis.evaluator.ClockNetworkEvaluator.evaluate_yield`)
on every round that would otherwise be accepted and rejects the round when
the p95 skew regresses beyond a tolerance -- "improves nominal skew but
regresses p95 skew" is exactly the failure mode it screens out.

Every check re-uses the same derived RNG seed, so candidate and reference
distributions are compared under **common random numbers**: as long as a
round preserves the stage decomposition (all the wire passes do), the same
variation scenarios are replayed against both trees, which removes sampling
noise from the accept/reject decision; a round that changes the stage count
(trunk-buffer insertion) shifts the per-stage draw alignment and is compared
unpaired, so a nonzero ``tolerance_ps`` is advisable when gating such
passes.  Either way the gate is deterministic for a given ``--seed``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.evaluator import ClockNetworkEvaluator, EvaluationReport
from repro.analysis.variation import VariationModel
from repro.cts.tree import ClockTree
from repro.seeding import derive_rng

__all__ = ["REASON_P95_REGRESSION", "VariationGate"]

REASON_P95_REGRESSION = "p95 skew regression under variation"


class VariationGate:
    """Rejects IVC rounds whose Monte Carlo p95 skew regresses.

    The gate implements the optional hook protocol of
    :func:`repro.core.ivc.ivc_round`:

    * :meth:`prime` establishes the reference p95 from the incoming
      (last-accepted) tree before a pass's round loop starts;
    * :meth:`check` evaluates the candidate tree (called only for rounds
      that already passed constraints and improved the nominal objective)
      and returns a rejection reason or ``None``;
    * :meth:`commit` promotes the last checked candidate's p95 to the new
      reference once the round is accepted.

    One gate instance is shared by every variation-aware pass of a pipeline,
    so the reference threads through the flow exactly like the baseline
    evaluation report does.
    """

    def __init__(
        self,
        evaluator: ClockNetworkEvaluator,
        model: VariationModel,
        *,
        samples: int,
        seed: Optional[int],
        tolerance_ps: float,
        skew_limit_ps: float,
    ) -> None:
        if samples < 2:
            raise ValueError("the variation gate needs at least 2 samples")
        if tolerance_ps < 0.0:
            raise ValueError("tolerance_ps must be non-negative")
        self.evaluator = evaluator
        self.model = model
        self.samples = samples
        self.seed = seed
        self.tolerance_ps = tolerance_ps
        self.skew_limit_ps = skew_limit_ps
        self.reference_p95: Optional[float] = None
        self._pending_p95: Optional[float] = None
        self.checks = 0
        self.rejections = 0

    # ------------------------------------------------------------------
    def _p95(self, tree: ClockTree) -> float:
        # A fresh generator per evaluation replays the identical scenario set
        # (common random numbers): the comparison below is paired, not noisy.
        rng = derive_rng(self.seed, "variation-gate")
        report = self.evaluator.evaluate_yield(
            tree,
            self.model,
            samples=self.samples,
            rng=rng,
            skew_limit_ps=self.skew_limit_ps,
        )
        return report.skew_p95

    # -- ivc_round hook protocol ---------------------------------------
    def prime(self, tree: ClockTree, report: EvaluationReport) -> None:
        """Establish the reference distribution from the last accepted tree.

        Always re-evaluated: an ungated pass may have run (and changed the
        tree) since the last gated one, and a stale reference would wave
        through real p95 regressions.  Under common random numbers an
        unchanged tree reproduces the previous reference exactly, so
        re-priming in an all-gated pipeline costs one cheap batched
        evaluation and changes nothing.
        """
        self.reference_p95 = self._p95(tree)
        self._pending_p95 = None

    def check(self, tree: ClockTree, report: EvaluationReport) -> Optional[str]:
        """Screen a candidate that improved the nominal objective."""
        self.checks += 1
        p95 = self._p95(tree)
        if self.reference_p95 is not None and p95 > self.reference_p95 + self.tolerance_ps:
            self.rejections += 1
            self._pending_p95 = None
            return (
                f"{REASON_P95_REGRESSION} "
                f"({p95:.3f} ps > {self.reference_p95:.3f} ps reference)"
            )
        self._pending_p95 = p95
        return None

    def commit(self) -> None:
        """Promote the last accepted candidate's p95 to the new reference."""
        if self._pending_p95 is not None:
            self.reference_p95 = self._pending_p95
            self._pending_p95 = None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """JSON-able bookkeeping for flow results and logs."""
        return {
            "checks": self.checks,
            "rejections": self.rejections,
            "samples": self.samples,
            "tolerance_ps": self.tolerance_ps,
            "reference_p95_ps": self.reference_p95,
            "model": self.model.describe(),
        }
