"""Composite-inverter buffer-insertion sweep (Section IV-C of the paper).

Contango's initial inverter insertion runs the fast van Ginneken DP for a
series of composite inverters of increasing strength (e.g. 8x, 16x, 24x small
inverters) and keeps the *strongest* configuration that still fits within 90%
of the capacitance (power) limit -- the remaining 10% is reserved for the
later, more accurate optimizations (wiresizing, wiresnaking, buffer sizing).
Strong drivers minimize insertion delay, which both reduces the CLR objective
and shrinks the exposure of the tree to supply-voltage variations.

The strongest candidate that fits is the one kept, so the ladder is visited
strongest first (increasing output resistance) and the sweep stops at the
first candidate that fits: a :class:`~repro.buffering.vanginneken.LadderPlan`
reads the tree once, and each candidate's DP runs only when the sweep
reaches it.  On a TI tree, which has no capacitance limit, that is one DP
instead of four (the whole sweep on a ti:4000 tree: ~0.1 s, against ~0.3 s
when every candidate was scored).  Each candidate is scored on one working
copy of the tree -- placed under a checkpoint, measured and rolled back --
and only the chosen one is applied for good and validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.buffering.vanginneken import BufferInsertionResult, LadderPlan, place_insertion
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.rect import Rect

__all__ = ["BufferSizingSweepResult", "CandidateOutcome", "insert_buffers_with_sizing"]


@dataclass
class CandidateOutcome:
    """Summary of one candidate composite buffer tried by the sweep."""

    buffer: BufferType
    buffer_count: int
    total_capacitance: float
    capacitance_utilization: Optional[float]
    worst_delay_estimate: float
    slew_feasible: bool
    within_power_budget: bool


@dataclass
class BufferSizingSweepResult:
    """Result of the composite-inverter sweep."""

    tree: ClockTree
    chosen: Optional[CandidateOutcome]
    outcomes: List[CandidateOutcome] = field(default_factory=list)

    @property
    def chosen_buffer(self) -> Optional[BufferType]:
        return self.chosen.buffer if self.chosen is not None else None


def insert_buffers_with_sizing(
    tree: ClockTree,
    candidates: Sequence[BufferType],
    capacitance_limit: Optional[float] = None,
    power_reserve: float = 0.10,
    slew_limit: float = 100.0,
    slew_margin: float = 0.70,
    station_spacing: float = 250.0,
    obstacles: Optional[ObstacleSet] = None,
    die: Optional[Rect] = None,
    max_options: int = 32,
) -> BufferSizingSweepResult:
    """Buffer the tree with the strongest composite inverter fitting the budget.

    The input ``tree`` is not modified; the returned result carries a buffered
    clone built with the selected candidate.  Candidates are visited
    strongest first (increasing output resistance, ties in the given order);
    each one's DP runs when the sweep reaches it, and the sweep stops at the
    first candidate that is slew-feasible and stays within
    ``(1 - power_reserve) * capacitance_limit`` total capacitance, which is
    the one chosen.  If no candidate satisfies both constraints, every
    candidate has been scored, and the slew-feasible candidate with the
    smallest capacitance is chosen; failing that, the one with the smallest
    worst-case delay.  ``outcomes`` lists the scored candidates in the given
    order.  Scoring a candidate on the working copy under a checkpoint
    leaves no trace: a rollback restores node ids, node-table order and
    revisions.
    """
    if not candidates:
        raise ValueError("at least one composite buffer candidate is required")
    if not 0.0 <= power_reserve < 1.0:
        raise ValueError("power_reserve must be in [0, 1)")

    budget = None
    if capacitance_limit is not None:
        budget = (1.0 - power_reserve) * capacitance_limit

    plan = LadderPlan(
        tree,
        slew_limit=slew_limit,
        slew_margin=slew_margin,
        station_spacing=station_spacing,
        obstacles=obstacles,
        die=die,
        max_options=max_options,
    )
    strongest_first = sorted(range(len(candidates)), key=lambda i: candidates[i].output_res)
    scored: Dict[int, Tuple[CandidateOutcome, BufferInsertionResult]] = {}
    for index in strongest_first:
        candidate = candidates[index]
        insertion = plan.insertion(candidate)
        if index == strongest_first[-1] or (budget is None and insertion.slew_feasible):
            del plan  # no further DP can be needed: the sweep stops here
        if scored:
            working.rollback_to(token)  # unplace the previous candidate
        else:
            working = tree.clone()  # after the first DP has freed its options
        token = working.checkpoint()
        place_insertion(working, insertion)
        total_cap = working.total_capacitance()
        utilization = (
            total_cap / capacitance_limit if capacitance_limit is not None else None
        )
        outcome = CandidateOutcome(
            buffer=candidate,
            buffer_count=insertion.buffer_count,
            total_capacitance=total_cap,
            capacitance_utilization=utilization,
            worst_delay_estimate=insertion.worst_delay_estimate,
            slew_feasible=insertion.slew_feasible,
            within_power_budget=(budget is None or total_cap <= budget),
        )
        scored[index] = (outcome, insertion)
        if outcome.slew_feasible and outcome.within_power_budget:
            break

    ladder_order = sorted(scored)
    outcomes = [scored[i][0] for i in ladder_order]
    chosen_index = ladder_order[_choose(outcomes)]
    if chosen_index == index:
        working.release(token)  # the last candidate scored is still placed
    else:
        working.rollback_to(token)
        place_insertion(working, scored[chosen_index][1])
    working.validate()
    return BufferSizingSweepResult(
        tree=working,
        chosen=scored[chosen_index][0],
        outcomes=outcomes,
    )


def _choose(outcomes: Sequence[CandidateOutcome]) -> int:
    """Pick the strongest feasible candidate (see :func:`insert_buffers_with_sizing`)."""
    feasible = [
        i
        for i, outcome in enumerate(outcomes)
        if outcome.slew_feasible and outcome.within_power_budget
    ]
    if feasible:
        return min(feasible, key=lambda i: outcomes[i].buffer.output_res)
    slew_ok = [i for i, outcome in enumerate(outcomes) if outcome.slew_feasible]
    if slew_ok:
        return min(slew_ok, key=lambda i: outcomes[i].total_capacitance)
    return min(
        range(len(outcomes)), key=lambda i: outcomes[i].worst_delay_estimate
    )
