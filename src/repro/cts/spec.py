"""Problem-instance description consumed by synthesis flows and baselines.

A :class:`ClockNetworkInstance` bundles everything a clock-network synthesis
run needs: the die outline, the clock source, the sinks, the placement
obstacles, the wire/buffer libraries, and the contest-style limits (total
capacitance and maximum slew).  Benchmark generators in
:mod:`repro.workloads` produce these instances; :class:`repro.core.ContangoFlow`
and the baseline flows consume them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cts.bufferlib import BufferLibrary, ispd09_buffer_library
from repro.cts.topology import SinkInstance
from repro.cts.wirelib import WireLibrary, ispd09_wire_library
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = ["ClockNetworkInstance"]


@dataclass
class ClockNetworkInstance:
    """One clock-network synthesis problem."""

    name: str
    die: Rect
    source: Point
    sinks: List[SinkInstance]
    obstacles: ObstacleSet = field(default_factory=ObstacleSet)
    wire_library: WireLibrary = field(default_factory=ispd09_wire_library)
    buffer_library: BufferLibrary = field(default_factory=ispd09_buffer_library)
    source_resistance: float = 100.0
    capacitance_limit: Optional[float] = None
    slew_limit: float = 100.0

    @property
    def sink_count(self) -> int:
        return len(self.sinks)

    def validate(self) -> None:
        """Check basic consistency of the instance."""
        if not self.sinks:
            raise ValueError(f"instance {self.name}: no sinks")
        names = [s.name for s in self.sinks]
        if len(set(names)) != len(names):
            raise ValueError(f"instance {self.name}: duplicate sink names")
        if not self.die.contains_point(self.source):
            raise ValueError(f"instance {self.name}: clock source outside the die")
        for sink in self.sinks:
            if not self.die.contains_point(sink.position):
                raise ValueError(
                    f"instance {self.name}: sink {sink.name} outside the die"
                )
        for obstacle in self.obstacles:
            if not self.die.contains_rect(obstacle.rect):
                raise ValueError(
                    f"instance {self.name}: obstacle {obstacle.name} outside the die"
                )
        if self.source_resistance <= 0.0:
            raise ValueError(f"instance {self.name}: source resistance must be positive")
        if self.slew_limit <= 0.0:
            raise ValueError(f"instance {self.name}: slew limit must be positive")
        if self.capacitance_limit is not None and self.capacitance_limit <= 0.0:
            raise ValueError(f"instance {self.name}: capacitance limit must be positive")
