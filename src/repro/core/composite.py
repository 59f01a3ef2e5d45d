"""Composite inverter/buffer analysis (Section IV-B, Table I of the paper).

Technology libraries for clock networks typically contain a few discrete
inverter sizes.  Contango widens the design space by considering *composite*
inverters -- several identical inverters connected in parallel -- and keeps
only the non-dominated configurations (lower input cap, output cap and output
resistance).  For the ISPD'09 library (one large and one small inverter),
eight parallel small inverters dominate one large inverter, which is why the
paper uses 8x/16x/24x small-inverter batches throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cts.bufferlib import BufferLibrary, BufferType

__all__ = [
    "CompositeAnalysis",
    "enumerate_composites",
    "non_dominated_composites",
    "smallest_dominating_count",
    "composite_ladder",
    "analyze_composites",
    "table1_rows",
]

#: Largest parallel count :func:`smallest_dominating_count` tries.
MAX_DOMINATING_COUNT = 64


@dataclass
class CompositeAnalysis:
    """Outcome of the composite-buffer analysis for a library."""

    composites: List[BufferType]
    non_dominated: List[BufferType]
    preferred_base: BufferType
    ladder: List[BufferType]


def enumerate_composites(
    library: BufferLibrary, max_parallel: int = 8
) -> List[BufferType]:
    """All parallel compositions of every primitive up to ``max_parallel`` copies."""
    if max_parallel < 1:
        raise ValueError("max_parallel must be at least 1")
    composites: List[BufferType] = []
    for primitive in library:
        for count in range(1, max_parallel + 1):
            composites.append(primitive.parallel(count))
    return composites


def non_dominated_composites(composites: Sequence[BufferType]) -> List[BufferType]:
    """Filter a composite list down to its Pareto-optimal members.

    A composite is kept when no other composite is at least as good on input
    capacitance, output capacitance and output resistance simultaneously.
    """
    kept: List[BufferType] = []
    for candidate in composites:
        if any(other.dominates(candidate) for other in composites if other is not candidate):
            continue
        kept.append(candidate)
    return kept


def smallest_dominating_count(small: BufferType, large: BufferType) -> Optional[int]:
    """Smallest number of parallel ``small`` inverters that dominates ``large``.

    Returns None when no count up to :data:`MAX_DOMINATING_COUNT` dominates.
    For the ISPD'09 Table I values the answer is 8, matching the paper.
    """
    for count in range(1, MAX_DOMINATING_COUNT + 1):
        if small.parallel(count).dominates(large):
            return count
    return None


def composite_ladder(
    base: BufferType, base_count: int, steps: int = 4
) -> List[BufferType]:
    """The batches actually swept during buffer insertion: k, 2k, 3k, ... copies."""
    if base_count < 1 or steps < 1:
        raise ValueError("base_count and steps must be positive")
    return [base.parallel(base_count * (i + 1)) for i in range(steps)]


def analyze_composites(
    library: BufferLibrary, max_parallel: int = 8, ladder_steps: int = 4
) -> CompositeAnalysis:
    """Run the full composite analysis used by the Contango flow.

    The preferred base composite is the cheapest (by total capacitance)
    composite that is at least as strong as the strongest primitive in the
    library -- for the ISPD'09 library this is the 8x small inverter, which
    dominates the large inverter (smaller input cap, output cap and output
    resistance).  If no composition beats the strongest primitive, that
    primitive itself is used.  The returned ladder multiplies the chosen base
    in integer batches, mirroring the 8x/16x/24x small-inverter batches of
    the paper.
    """
    composites = enumerate_composites(library, max_parallel=max_parallel)
    frontier = non_dominated_composites(composites)
    strongest_primitive = library.strongest
    challengers = [comp for comp in composites if comp.dominates(strongest_primitive)]
    if challengers:
        preferred = min(challengers, key=lambda b: b.total_cap)
    else:
        preferred = strongest_primitive
    base = library.by_name(preferred.base_name)
    ladder = composite_ladder(base, preferred.parallel_count, steps=ladder_steps)
    return CompositeAnalysis(
        composites=composites,
        non_dominated=frontier,
        preferred_base=preferred,
        ladder=ladder,
    )


def table1_rows(library: BufferLibrary) -> List[Dict[str, float]]:
    """Reproduce the rows of Table I for a two-inverter ISPD'09-style library.

    Rows: the large inverter followed by 1x, 2x, 4x and 8x parallel
    compositions of the small inverter, each with input capacitance, output
    capacitance and output resistance.
    """
    large = max(library, key=lambda b: b.input_cap)
    small = min(library, key=lambda b: b.input_cap)
    rows: List[Dict[str, float]] = []
    for label, buffer in [("1X Large", large)] + [
        (f"{count}X Small", small.parallel(count)) for count in (1, 2, 4, 8)
    ]:
        rows.append(
            {
                "type": label,
                "input_cap_fF": round(buffer.input_cap, 3),
                "output_cap_fF": round(buffer.output_cap, 3),
                "output_res_ohm": round(buffer.output_res, 3),
            }
        )
    return rows
