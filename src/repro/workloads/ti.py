"""Texas Instruments-style scalability benchmarks (Table V of the paper).

The paper's scalability study starts from a 4.2 mm x 3.0 mm TI chip with
135 K identified sink locations and randomly samples families of 200 to
50 000 sinks.  The real placement is proprietary, so this generator builds a
synthetic stand-in with the same structure: flip-flops arranged in dense
placement rows grouped into register clusters across a 4.2 x 3.0 mm die, from
which the requested number of sinks is sampled uniformly at random.  Only the
sink count and spatial distribution matter for the scaling trends reported in
Table V (capacitance linear in sink count, skew staying in single-digit
picoseconds, slowly growing evaluation counts).
"""

from __future__ import annotations

from typing import List

from repro.seeding import derive_rng

from repro.cts.bufferlib import ispd09_buffer_library
from repro.cts.spec import ClockNetworkInstance
from repro.cts.topology import SinkInstance
from repro.cts.wirelib import ispd09_wire_library
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = ["TI_SINK_COUNTS", "generate_ti_benchmark"]


TI_SINK_COUNTS = [200, 500, 1000, 2000, 5000, 10000, 20000, 50000]
"""The sink-count family reported in Table V."""

# The published chip and its placement: a 4.2 mm x 3.0 mm die, flip-flops on
# 10 um placement rows grouped into 60 register clusters.
DIE_WIDTH = 4200.0
DIE_HEIGHT = 3000.0
ROW_PITCH = 10.0
CLUSTER_COUNT = 60
SINK_CAP_RANGE = (4.0, 15.0)
SLEW_LIMIT = 100.0
SOURCE_RESISTANCE = 60.0


def generate_ti_benchmark(sink_count: int, seed: int = 7) -> ClockNetworkInstance:
    """Generate a TI-style instance with ``sink_count`` sampled sinks."""
    if sink_count < 1:
        raise ValueError("sink_count must be positive")
    # The (seed, sink_count) pair *defines* the benchmark instance, so both
    # feed the seed derivation: repro.seeding mixes them through a
    # SeedSequence (no ad-hoc seed arithmetic), and the generated-instance
    # fingerprints are pinned by tests/golden/instance_fingerprints.json.
    # Stochastic *evaluation* (Monte Carlo sampling, gates) derives from
    # different keys, so changing an evaluation seed can never silently
    # change the instance under test.
    rng = derive_rng(seed, "ti", sink_count)
    die = Rect(0.0, 0.0, DIE_WIDTH, DIE_HEIGHT)

    # Register clusters: each cluster is a small block of placement rows.
    clusters = []
    for _ in range(CLUSTER_COUNT):
        cx = float(rng.uniform(0.05 * DIE_WIDTH, 0.95 * DIE_WIDTH))
        cy = float(rng.uniform(0.05 * DIE_HEIGHT, 0.95 * DIE_HEIGHT))
        width = float(rng.uniform(0.03, 0.12)) * DIE_WIDTH
        height = float(rng.uniform(0.03, 0.12)) * DIE_HEIGHT
        clusters.append((cx, cy, width, height))

    sinks: List[SinkInstance] = []
    for index in range(sink_count):
        if float(rng.random()) < 0.75:
            cx, cy, width, height = clusters[int(rng.integers(len(clusters)))]
            x = min(max(cx + float(rng.uniform(-width, width)) / 2.0, die.xlo), die.xhi)
            raw_y = cy + float(rng.uniform(-height, height)) / 2.0
        else:
            x = float(rng.uniform(die.xlo, die.xhi))
            raw_y = float(rng.uniform(die.ylo, die.yhi))
        # Snap to the placement-row grid, like standard-cell flip-flops.
        y = min(max(round(raw_y / ROW_PITCH) * ROW_PITCH, die.ylo), die.yhi)
        sinks.append(
            SinkInstance(
                name=f"ff_{index}",
                position=Point(x, y),
                capacitance=float(rng.uniform(*SINK_CAP_RANGE)),
            )
        )

    instance = ClockNetworkInstance(
        name=f"ti_{sink_count}",
        die=die,
        source=Point(0.0, DIE_HEIGHT / 2.0),
        sinks=sinks,
        obstacles=ObstacleSet(),
        wire_library=ispd09_wire_library(),
        buffer_library=ispd09_buffer_library(),
        source_resistance=SOURCE_RESISTANCE,
        capacitance_limit=None,
        slew_limit=SLEW_LIMIT,
    )
    instance.validate()
    return instance
