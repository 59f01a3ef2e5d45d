"""Synthetic ISPD'09 CNS-style benchmarks (the seven chips of the contest).

The real contest files are not available offline, so each benchmark is
regenerated from a compact spec that mirrors the published characteristics:
45 nm chips up to 17 mm x 17 mm, up to 330 selected clock sinks, rectangular
placement blockages over which wires may route but buffers may not be placed,
a two-inverter / two-wire library (Table I), a 100 ps slew limit and a total
capacitance budget.  Sink locations mix uniformly scattered flip-flops with a
few dense clusters (register banks) and a handful of macro clock pins placed
on blockages, which is the sink structure the contest chips exhibit.

All generation is deterministic given the spec's seed: the random stream is a
:mod:`repro.seeding` generator derived from ``(seed, "ispd09")``, the same
derivation the scenario families use, so generated-instance fingerprints are
pinned by ``tests/golden/instance_fingerprints.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.cts.bufferlib import ispd09_buffer_library
from repro.cts.spec import ClockNetworkInstance
from repro.cts.topology import SinkInstance
from repro.cts.wirelib import ispd09_wire_library
from repro.geometry.obstacles import Obstacle, ObstacleSet
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.seeding import derive_rng

__all__ = [
    "ISPD09BenchmarkSpec",
    "ISPD09_BENCHMARKS",
    "generate_ispd09_benchmark",
    "capacitance_budget",
]


#: Share of the regular sinks drawn around the register-bank clusters.
CLUSTER_FRACTION = 0.45
#: Uniform ranges of the flip-flop and macro clock-pin capacitances (fF).
SINK_CAP_RANGE = (20.0, 80.0)
MACRO_CAP_RANGE = (150.0, 300.0)
#: Scale of :func:`capacitance_budget` for every contest chip.
CAP_LIMIT_FACTOR = 2.2
#: The contest's slew limit (ps) and the clock source's output resistance (ohm).
SLEW_LIMIT = 100.0
SOURCE_RESISTANCE = 80.0


@dataclass(frozen=True)
class ISPD09BenchmarkSpec:
    """Generation parameters of one ISPD'09-style benchmark."""

    name: str
    die_width: float
    die_height: float
    sink_count: int
    obstacle_count: int
    seed: int
    macro_sink_count: int = 4

    def scaled(self, sink_scale: float) -> "ISPD09BenchmarkSpec":
        """Return a spec with proportionally fewer sinks (for quick test runs)."""
        if not 0.0 < sink_scale <= 1.0:
            raise ValueError("sink_scale must be in (0, 1]")
        return replace(
            self,
            sink_count=max(4, int(self.sink_count * sink_scale)),
            macro_sink_count=min(self.macro_sink_count, max(1, int(self.macro_sink_count * sink_scale))),
            obstacle_count=max(2, int(self.obstacle_count * sink_scale)),
        )


ISPD09_BENCHMARKS: Dict[str, ISPD09BenchmarkSpec] = {
    spec.name: spec
    for spec in [
        ISPD09BenchmarkSpec("ispd09f11", 11000.0, 11000.0, 121, 18, seed=911),
        ISPD09BenchmarkSpec("ispd09f12", 11000.0, 11000.0, 117, 16, seed=912),
        ISPD09BenchmarkSpec("ispd09f21", 13000.0, 13000.0, 117, 22, seed=921),
        ISPD09BenchmarkSpec("ispd09f22", 8000.0, 8000.0, 91, 12, seed=922),
        ISPD09BenchmarkSpec("ispd09f31", 17000.0, 17000.0, 273, 28, seed=931),
        ISPD09BenchmarkSpec("ispd09f32", 14000.0, 14000.0, 190, 24, seed=932),
        ISPD09BenchmarkSpec("ispd09fnb1", 4500.0, 2500.0, 330, 8, seed=941),
    ]
}


def generate_ispd09_benchmark(
    name: str, sink_scale: Optional[float] = None
) -> ClockNetworkInstance:
    """Generate the named benchmark.

    ``sink_scale`` optionally shrinks the instance (fewer sinks/obstacles) for
    fast unit tests while preserving the spatial structure.
    """
    try:
        spec = ISPD09_BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            f"unknown ISPD'09 benchmark {name!r}; "
            f"available: {sorted(ISPD09_BENCHMARKS)}"
        ) from None
    if sink_scale is not None:
        spec = spec.scaled(sink_scale)

    rng = derive_rng(spec.seed, "ispd09")
    die = Rect(0.0, 0.0, spec.die_width, spec.die_height)
    obstacles = _generate_obstacles(rng, die, spec.obstacle_count)
    sinks = _generate_sinks(rng, die, obstacles, spec)
    source = Point(spec.die_width / 2.0, 0.0)
    cap_limit = capacitance_budget(die, sinks, CAP_LIMIT_FACTOR)

    instance = ClockNetworkInstance(
        name=spec.name,
        die=die,
        source=source,
        sinks=sinks,
        obstacles=obstacles,
        wire_library=ispd09_wire_library(),
        buffer_library=ispd09_buffer_library(),
        source_resistance=SOURCE_RESISTANCE,
        capacitance_limit=cap_limit,
        slew_limit=SLEW_LIMIT,
    )
    instance.validate()
    return instance


# ----------------------------------------------------------------------
def _generate_obstacles(rng: np.random.Generator, die: Rect, count: int) -> ObstacleSet:
    """Random macro blockages: mostly free-standing, some abutting pairs."""
    obstacles = ObstacleSet()
    attempts = 0
    while len(obstacles) < count and attempts < count * 60:
        attempts += 1
        width = float(rng.uniform(0.04, 0.16)) * die.width
        height = float(rng.uniform(0.04, 0.16)) * die.height
        xlo = float(rng.uniform(die.xlo + 0.02 * die.width, die.xhi - width - 0.02 * die.width))
        ylo = float(rng.uniform(die.ylo + 0.05 * die.height, die.yhi - height - 0.02 * die.height))
        rect = Rect(xlo, ylo, xlo + width, ylo + height)
        if any(rect.intersects(o.rect.expanded(0.01 * die.width)) for o in obstacles):
            # Occasionally keep an abutting macro to exercise compound-obstacle
            # handling; otherwise retry for a free-standing location.
            if float(rng.random()) > 0.15:
                continue
            if not die.contains_rect(rect):
                continue
        obstacles.add(Obstacle(rect=rect, name=f"blk{len(obstacles)}"))
    return obstacles


def _generate_sinks(
    rng: np.random.Generator,
    die: Rect,
    obstacles: ObstacleSet,
    spec: ISPD09BenchmarkSpec,
) -> List[SinkInstance]:
    sinks: List[SinkInstance] = []
    cluster_count = max(2, spec.sink_count // 40)
    clusters = [
        Point(
            float(rng.uniform(die.xlo + 0.1 * die.width, die.xhi - 0.1 * die.width)),
            float(rng.uniform(die.ylo + 0.1 * die.height, die.yhi - 0.1 * die.height)),
        )
        for _ in range(cluster_count)
    ]
    n_macro = min(spec.macro_sink_count, len(obstacles))
    n_regular = spec.sink_count - n_macro

    for index in range(n_regular):
        if float(rng.random()) < CLUSTER_FRACTION and clusters:
            center = clusters[int(rng.integers(len(clusters)))]
            radius = 0.05 * min(die.width, die.height)
            position = Point(
                min(max(center.x + float(rng.normal(0.0, radius)), die.xlo), die.xhi),
                min(max(center.y + float(rng.normal(0.0, radius)), die.ylo), die.yhi),
            )
        else:
            position = Point(
                float(rng.uniform(die.xlo, die.xhi)),
                float(rng.uniform(die.ylo, die.yhi)),
            )
        # Keep ordinary flip-flop sinks off the blockages; macro pins are
        # added separately below.
        if obstacles.blocks_point(position):
            position = obstacles.nearest_legal_point(position, die, step=0.01 * die.width)
        sinks.append(
            SinkInstance(
                name=f"sink_{index}",
                position=position,
                capacitance=float(rng.uniform(*SINK_CAP_RANGE)),
            )
        )

    macro_rects = [o.rect for o in list(obstacles)[:n_macro]]
    for index, rect in enumerate(macro_rects):
        # Macro clock pins sit near the block periphery (hard macros expose
        # their clock port at the boundary), so the unbuffered wire stub from
        # the blockage edge to the pin stays short.
        inset = 0.05 * min(rect.width, rect.height)
        position = Point(rect.center.x, rect.ylo + inset)
        sinks.append(
            SinkInstance(
                name=f"macro_sink_{index}",
                position=position,
                capacitance=float(rng.uniform(*MACRO_CAP_RANGE)),
            )
        )
    return sinks


def capacitance_budget(die: Rect, sinks: List[SinkInstance], factor: float) -> float:
    """Synthetic total-capacitance limit (shared with the scenario families).

    The contest published a per-benchmark limit; here it is derived from a
    Steiner-length estimate of the wiring (``~1.2 * sqrt(n * A)`` for n sinks
    on area A), the sink pins, and a buffering allowance, scaled by
    ``factor``.  Contango's flow reserves 10% of whatever budget it is given,
    so only the relative sizing matters for reproducing behaviour.
    """
    wire = ispd09_wire_library().widest
    steiner_estimate = 1.2 * (len(sinks) * die.area) ** 0.5
    wire_cap = wire.capacitance(steiner_estimate)
    sink_cap = sum(s.capacitance for s in sinks)
    buffer_allowance = 60.0 * len(sinks)
    return factor * (wire_cap + sink_cap + buffer_allowance)
