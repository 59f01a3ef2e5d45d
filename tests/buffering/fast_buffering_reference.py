"""The composite-inverter sweep as it was when each candidate got its own clone.

:func:`insert_buffers_with_sizing` here clones the unbuffered tree once per
ladder candidate, applies that candidate's sites with
:func:`~repro.buffering.vanginneken.apply_insertion` (which validates the
tree), reads the clone's total capacitance and keeps the chosen clone.
``tests/buffering/test_sweep_oracle.py`` runs it beside the production
sweep and requires the same outcomes, the same choice and the same buffered
tree.  Keep it as it is: it is the result the production sweep must match.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.buffering.fast_buffering import BufferSizingSweepResult, CandidateOutcome
from repro.buffering.vanginneken import apply_insertion, run_ladder
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.rect import Rect


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
    """Buffer a clone of the tree per candidate; keep the strongest fitting one."""
    if not candidates:
        raise ValueError("at least one composite buffer candidate is required")
    if not 0.0 <= power_reserve < 1.0:
        raise ValueError("power_reserve must be in [0, 1)")

    budget = None
    if capacitance_limit is not None:
        budget = (1.0 - power_reserve) * capacitance_limit

    insertions = run_ladder(
        tree,
        candidates,
        slew_limit=slew_limit,
        slew_margin=slew_margin,
        station_spacing=station_spacing,
        obstacles=obstacles,
        die=die,
        max_options=max_options,
    )
    outcomes: List[CandidateOutcome] = []
    buffered_trees: List[ClockTree] = []
    for candidate, insertion in zip(candidates, insertions):
        working = tree.clone()
        apply_insertion(working, insertion)
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
        outcomes.append(outcome)
        buffered_trees.append(working)

    chosen_index = _choose(outcomes)
    return BufferSizingSweepResult(
        tree=buffered_trees[chosen_index],
        chosen=outcomes[chosen_index],
        outcomes=outcomes,
    )


def _choose(outcomes: Sequence[CandidateOutcome]) -> int:
    """Pick the strongest feasible candidate."""
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
