"""The shared Improvement- & Violation-Checking (IVC) transaction engine.

Every Contango optimization pass follows the same accept/rollback discipline
(Figure 1 of the paper): snapshot the current solution, apply a batch of
moves, re-evaluate the network, and keep the batch only if the objective
improved without violating the slew or capacitance constraints.  The seed
reproduction re-implemented that loop in every pass; this module owns it
once:

* :class:`Transaction` -- a context manager over the tree's journal-revision
  checkpoints (:meth:`~repro.cts.tree.ClockTree.checkpoint` /
  :meth:`~repro.cts.tree.ClockTree.rollback_to`), so a rejected round costs
  O(touched nodes) instead of an O(n) clone and keeps the evaluator's
  stage-cache identity;
* :func:`ivc_round` -- one transactional round: checkpoint, propose,
  evaluate, triage (slew violation / capacitance limit / no improvement),
  commit or roll back;
* :class:`IvcEngine` -- the full pass lifecycle: baseline handling, the
  round policy (plain, Monte Carlo gated or best-of-K), the round loop with
  retry-at-reduced-aggressiveness after rejections, note bookkeeping, and
  :class:`~repro.core.tuning.PassResult` accounting.

A pass built on the engine supplies only its *proposal* (which moves to try
this round, scaled by :attr:`IvcState.aggressiveness`) and hands the round
policy (``gate``, ``candidate_scales``) to the engine; it keeps zero
snapshot/rollback/accept code of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence

from repro.analysis.evaluator import (
    CandidateScore,
    ClockNetworkEvaluator,
    EvaluationReport,
)
from repro.core.tuning import PassResult, objective_value
from repro.cts.tree import ClockTree

__all__ = [
    "REASON_SLEW",
    "REASON_CAPACITANCE",
    "REASON_NO_IMPROVEMENT",
    "IvcGate",
    "Transaction",
    "IvcState",
    "IvcOutcome",
    "default_constraints",
    "capacitance_cap_constraints",
    "ivc_round",
    "IvcEngine",
]

REASON_SLEW = "slew violation"
REASON_CAPACITANCE = "capacitance limit exceeded"
REASON_NO_IMPROVEMENT = "no improvement"

# Factor applied to the round aggressiveness after every rejected round.
REJECTION_DECAY = 0.5

#: A constraint triage: maps a candidate report to a rejection reason, or
#: ``None`` when the candidate satisfies every constraint.
Constraints = Callable[[EvaluationReport], Optional[str]]

class IvcGate(Protocol):
    """Optional acceptance-gate protocol of :func:`ivc_round`.

    See :class:`repro.core.variation.VariationGate` for the canonical
    implementation.  ``prime(tree, report)`` is called once before a pass's
    round loop; ``check(tree, report)`` runs only for rounds that already
    satisfied constraints *and* improved the objective -- with the tree
    still in candidate state -- and returns a rejection reason or ``None``;
    ``commit()`` is called after the round is accepted.  Gates are
    deliberately last in the triage order because they may be expensive (the
    variation gate runs a Monte Carlo evaluation per check).
    """

    def prime(self, tree: ClockTree, report: EvaluationReport) -> None:
        ...

    def check(self, tree: ClockTree, report: EvaluationReport) -> Optional[str]:
        ...

    def commit(self) -> None:
        ...


class Transaction:
    """Scoped wrapper around one :meth:`ClockTree.checkpoint` transaction.

    Commits on clean ``with``-exit, rolls back when the body raises, and
    exposes explicit :meth:`commit` / :meth:`rollback` for control flow that
    decides the outcome mid-body (the IVC triage).  Either call closes the
    transaction; later calls are no-ops.
    """

    def __init__(self, tree: ClockTree) -> None:
        self._tree = tree
        self._token: Optional[int] = None

    def __enter__(self) -> "Transaction":
        self._token = self._tree.checkpoint()
        return self

    def commit(self) -> None:
        """Accept the mutations made since the transaction opened."""
        if self._token is not None:
            self._tree.release(self._token)
            self._token = None

    def rollback(self) -> None:
        """Undo the mutations made since the transaction opened."""
        if self._token is not None:
            self._tree.rollback_to(self._token)
            self._token = None

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.rollback()
        else:
            self.commit()
        return False


def default_constraints(report: EvaluationReport) -> Optional[str]:
    """The paper's violation checks: tap slews, then the evaluator's cap limit."""
    if report.has_slew_violation:
        return REASON_SLEW
    if not report.within_capacitance_limit:
        return REASON_CAPACITANCE
    return None


def capacitance_cap_constraints(limit: Optional[float]) -> Constraints:
    """Violation checks with an explicit capacitance cap.

    Buffer sizing borrows capacitance against its own budget rather than the
    evaluator's, so it triages against the limit it was handed.
    """

    def check(report: EvaluationReport) -> Optional[str]:
        if report.has_slew_violation:
            return REASON_SLEW
        if limit is not None and report.total_capacitance > limit:
            return "over capacitance limit"
        return None

    return check


@dataclass
class IvcState:
    """Per-round state handed to a pass's proposal callback.

    ``iteration`` is the 1-based attempt counter (rejected rounds included);
    ``aggressiveness`` starts at 1.0 and is multiplied by the engine's decay
    after every rejected round, so a proposal that scales its move budget by
    it automatically retries with smaller steps; ``report`` is the evaluation
    of the last *accepted* state.
    """

    report: EvaluationReport
    iteration: int = 0
    aggressiveness: float = 1.0
    consecutive_rejections: int = 0


@dataclass
class IvcOutcome:
    """Result of one :func:`ivc_round`."""

    accepted: bool
    changed: int
    report: Optional[EvaluationReport]
    reason: Optional[str]


def ivc_round(
    tree: ClockTree,
    evaluator: ClockNetworkEvaluator,
    propose: Callable[[], int],
    *,
    objective: str,
    best_objective: float,
    constraints: Optional[Constraints] = None,
    gate: Optional[IvcGate] = None,
) -> IvcOutcome:
    """Run one transactional IVC round on ``tree``.

    Opens a checkpoint, calls ``propose`` (which mutates the tree and returns
    the number of moves it applied), and triages the result:

    * zero moves -- the round is vacuous; any stray edits are rolled back and
      no evaluation is spent (``report`` is ``None``);
    * a violated constraint or a non-improving objective -- the round is
      rolled back and the rejection ``reason`` reported;
    * a round that would be accepted but fails the optional acceptance
      ``gate`` (see the gate protocol note above; e.g. the Monte Carlo
      p95-skew check of :class:`repro.core.variation.VariationGate`) is
      likewise rolled back;
    * otherwise the round commits, ``report`` carries the new evaluation and
      the gate (when present) is told to promote its reference.

    The tree is restored exactly (content *and* journal revisions) on
    rollback, so the evaluator's stage cache still recognises every stage of
    the restored state.
    """
    with evaluator.tracer.span("ivc_round") as span:
        outcome = _triage(
            tree, evaluator, propose, objective, best_objective, constraints, gate
        )
        if span is not None:
            span.count("changed", outcome.changed)
            span.count("accepted" if outcome.accepted else "rejected")
    return outcome


def _triage(
    tree: ClockTree,
    evaluator: ClockNetworkEvaluator,
    propose: Callable[[], int],
    objective: str,
    best_objective: float,
    constraints: Optional[Constraints],
    gate: Optional[IvcGate],
) -> IvcOutcome:
    check = constraints or default_constraints
    with Transaction(tree) as txn:
        changed = propose()
        if changed == 0:
            txn.rollback()
            return IvcOutcome(accepted=False, changed=0, report=None, reason=None)
        candidate = evaluator.evaluate(tree)
        reason = check(candidate)
        if reason is None and objective_value(candidate, objective) >= best_objective:
            reason = REASON_NO_IMPROVEMENT
        if reason is None and gate is not None:
            reason = gate.check(tree, candidate)
        if reason is not None:
            txn.rollback()
            return IvcOutcome(accepted=False, changed=changed, report=candidate, reason=reason)
    if gate is not None:
        gate.commit()
    return IvcOutcome(accepted=True, changed=changed, report=candidate, reason=None)


class IvcEngine:
    """Owns one optimization pass's complete IVC lifecycle.

    Construction resolves the baseline (evaluating the tree only when the
    caller did not hand one over), fixes the round policy and opens the
    :class:`~repro.core.tuning.PassResult`; :meth:`run` drives the round loop
    with the shared rejection policy; :meth:`abort` / :meth:`finish` close
    the result record.  ``engine.report`` always holds the evaluation of the
    last accepted state and is threaded into the result as ``final_report``.

    The round policy is the optional acceptance ``gate`` (run last in every
    round's triage, see :class:`IvcGate`) and ``candidate_scales``: ``None``
    plays one proposal per round; a sequence of scales plays best-of-K
    rounds, one candidate per scale (see :meth:`run`).  An empty sequence
    raises :class:`ValueError`.
    """

    def __init__(
        self,
        name: str,
        tree: ClockTree,
        evaluator: ClockNetworkEvaluator,
        *,
        objective: str,
        baseline: Optional[EvaluationReport] = None,
        constraints: Optional[Constraints] = None,
        gate: Optional[IvcGate] = None,
        candidate_scales: Optional[Sequence[float]] = None,
    ) -> None:
        if candidate_scales is not None and not candidate_scales:
            raise ValueError("candidate_scales must not be empty")
        self.tree = tree
        self.evaluator = evaluator
        self.objective = objective
        self.constraints = constraints or default_constraints
        self.gate = gate
        self.candidate_scales = (
            None if candidate_scales is None else tuple(candidate_scales)
        )
        self._evals_before = evaluator.run_count
        self.report = baseline if baseline is not None else evaluator.evaluate(tree)
        initial_summary = self.report.summary()
        self.result = PassResult(
            name=name,
            improved=False,
            rounds=0,
            edges_changed=0,
            initial=initial_summary,
            final=initial_summary,
            evaluations_used=0,
        )

    # ------------------------------------------------------------------
    def abort(self, note: str) -> PassResult:
        """Close the pass before its loop starts (nothing to optimize on)."""
        self.result.notes.append(note)
        return self.finish()

    def finish(self) -> PassResult:
        """Seal the result record against the last accepted report."""
        self.result.final = self.report.summary()
        self.result.final_report = self.report
        self.result.evaluations_used = self.evaluator.run_count - self._evals_before
        return self.result

    # ------------------------------------------------------------------
    def run(
        self,
        propose: Callable[[IvcState], int],
        *,
        max_rounds: int,
        empty_note: Optional[str] = None,
        max_consecutive_rejections: int = 3,
        reject_note: str = "round rejected: {reason}",
    ) -> PassResult:
        """Drive up to ``max_rounds`` IVC rounds of ``propose`` and finish.

        Without ``candidate_scales`` each round is one :func:`ivc_round` of
        ``propose``.  With them, each round calls ``propose`` once per scale,
        with the state's aggressiveness multiplied by that scale, and scores
        all candidates in one
        :meth:`~repro.analysis.evaluator.ClockNetworkEvaluator.evaluate_candidates`
        batch (one numpy pass under the analytical engines, serial evaluations
        under the transient engine; the loop is oblivious).  The best
        candidate that satisfies the constraints and improves the objective is
        then re-applied through :func:`ivc_round`, which re-evaluates it
        authoritatively and runs the acceptance gate -- so the committed
        report never depends on the batched scoring path.  ``propose`` must
        therefore be deterministic for a given state: the winning move is
        replayed after its scoring rollback.

        A rejected round is rolled back, noted (``reject_note`` may reference
        ``{reason}`` and ``{iteration}``), and retried with the state's
        aggressiveness multiplied by :data:`REJECTION_DECAY` -- a rejected
        batch usually means the pass's impact model overreached, not that no
        improving move exists, so retrying at lower aggressiveness recovers
        part of the head-room (the paper simply moves on).  The loop stops
        after ``max_consecutive_rejections`` rejections in a row, or on the
        first vacuous round (``empty_note`` records why).
        """
        scales = self.candidate_scales
        state = IvcState(report=self.report)
        best_objective = objective_value(self.report, self.objective)
        if self.gate is not None:
            self.gate.prime(self.tree, self.report)
        for attempt in range(1, max_rounds + 1):
            state.iteration = attempt
            state.report = self.report
            if scales is None:
                outcome = self._round(lambda: propose(state), best_objective)
            else:
                outcome = self._best_of_k(propose, state, scales, best_objective)
            if outcome.changed == 0:
                if empty_note is not None:
                    self.result.notes.append(empty_note)
                break
            if not outcome.accepted:
                self.result.notes.append(
                    reject_note.format(reason=outcome.reason, iteration=state.iteration)
                )
                state.consecutive_rejections += 1
                state.aggressiveness *= REJECTION_DECAY
                if state.consecutive_rejections >= max_consecutive_rejections:
                    break
                continue
            state.consecutive_rejections = 0
            self.report = outcome.report
            best_objective = objective_value(outcome.report, self.objective)
            self.result.rounds += 1
            self.result.edges_changed += outcome.changed
            self.result.improved = True
        return self.finish()

    def _round(self, move: Callable[[], int], best_objective: float) -> IvcOutcome:
        """One :func:`ivc_round` of ``move`` under the engine's policy."""
        return ivc_round(
            self.tree,
            self.evaluator,
            move,
            objective=self.objective,
            best_objective=best_objective,
            constraints=self.constraints,
            gate=self.gate,
        )

    def _best_of_k(
        self,
        propose: Callable[[IvcState], int],
        state: IvcState,
        scales: Sequence[float],
        best_objective: float,
    ) -> IvcOutcome:
        """One best-of-K round: score every scaled candidate, replay the winner."""
        moves = [self._scaled_move(propose, state, scale) for scale in scales]
        batch = self.evaluator.evaluate_candidates(self.tree, moves)
        if all(score.changed == 0 for score in batch):
            return IvcOutcome(accepted=False, changed=0, report=None, reason=None)
        viable: List[CandidateScore] = [
            score
            for score in batch
            if score.changed > 0
            and self.constraints(score) is None  # type: ignore[arg-type]
            and objective_value(score, self.objective) < best_objective
        ]
        if viable:
            winner = min(
                viable,
                key=lambda score: (
                    objective_value(score, self.objective),
                    score.index,
                ),
            )
            # A non-deterministic propose that goes vacuous on replay
            # ends the loop like any other vacuous round.
            return self._round(moves[winner.index], best_objective)
        # Every candidate was triaged away: report the first real
        # candidate's reason, mirroring a rejected ivc_round.
        reason: Optional[str] = REASON_NO_IMPROVEMENT
        for score in batch:
            if score.changed > 0:
                reason = (
                    self.constraints(score)  # type: ignore[arg-type]
                    or REASON_NO_IMPROVEMENT
                )
                break
        return IvcOutcome(
            accepted=False,
            changed=max(score.changed for score in batch),
            report=None,
            reason=reason,
        )

    @staticmethod
    def _scaled_move(
        propose: Callable[[IvcState], int], state: IvcState, scale: float
    ) -> Callable[[], int]:
        """One candidate move: ``propose`` at a scaled aggressiveness."""

        def move() -> int:
            candidate_state = IvcState(
                report=state.report,
                iteration=state.iteration,
                aggressiveness=state.aggressiveness * scale,
                consecutive_rejections=state.consecutive_rejections,
            )
            return propose(candidate_state)

        return move
