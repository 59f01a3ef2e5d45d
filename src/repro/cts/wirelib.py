"""Wire libraries: available routing wire types and their RC constants.

The ISPD'09 CNS contest provided two wire codes (a default and a wide wire);
clock wire *sizing* in Contango means switching an edge between library
entries.  The flow builds every edge with the widest wire and only ever
*downsizes*: it selects a narrower (higher-resistance, lower-capacitance)
wire, which slows the downstream sinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

__all__ = ["WireType", "WireLibrary", "ispd09_wire_library"]


@dataclass(frozen=True)
class WireType:
    """A routing wire type with per-unit-length parasitics.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"W1"``).
    unit_resistance:
        Resistance in ohm per micrometre of wire.
    unit_capacitance:
        Capacitance in femtofarad per micrometre of wire.
    """

    name: str
    unit_resistance: float
    unit_capacitance: float

    def __post_init__(self) -> None:
        if self.unit_resistance <= 0.0:
            raise ValueError(f"wire {self.name}: unit resistance must be positive")
        if self.unit_capacitance <= 0.0:
            raise ValueError(f"wire {self.name}: unit capacitance must be positive")

    def resistance(self, length: float) -> float:
        """Total resistance (ohm) of ``length`` micrometres of this wire."""
        return self.unit_resistance * length

    def capacitance(self, length: float) -> float:
        """Total capacitance (fF) of ``length`` micrometres of this wire."""
        return self.unit_capacitance * length


class WireLibrary:
    """An ordered collection of wire types, from narrowest to widest.

    "Narrow" means high resistance per unit length.  The ordering defines what
    wire downsizing means for the optimization passes.
    """

    def __init__(self, types: Sequence[WireType]) -> None:
        if not types:
            raise ValueError("wire library must contain at least one wire type")
        ordered = sorted(types, key=lambda w: -w.unit_resistance)
        names = [w.name for w in ordered]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate wire type names: {names}")
        self._types: List[WireType] = ordered
        self._index = {w.name: i for i, w in enumerate(ordered)}

    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[WireType]:
        return iter(self._types)

    def __contains__(self, wire: WireType) -> bool:
        return wire.name in self._index

    @property
    def widest(self) -> WireType:
        return self._types[-1]

    @property
    def default(self) -> WireType:
        """The wire used for initial tree construction (the widest type).

        Contango builds the initial tree with strong wires to minimize
        insertion delay and later *downsizes* selected wires to balance skew.
        """
        return self.widest

    def by_name(self, name: str) -> WireType:
        try:
            return self._types[self._index[name]]
        except KeyError:
            raise KeyError(f"unknown wire type {name!r}") from None

    def index_of(self, wire: WireType) -> int:
        if wire.name not in self._index:
            raise KeyError(f"wire type {wire.name!r} not in library")
        return self._index[wire.name]

    def narrower(self, wire: WireType) -> WireType:
        """Return the next-narrower wire type, or ``wire`` if already narrowest."""
        idx = self.index_of(wire)
        return self._types[max(idx - 1, 0)]

    def can_downsize(self, wire: WireType) -> bool:
        return self.index_of(wire) > 0


def ispd09_wire_library() -> WireLibrary:
    """Return a two-entry 45 nm-class wire library matching the contest setup.

    The contest supplied a default and a wide clock wire; the constants here
    are representative 45 nm global-layer values (the exact contest numbers
    are not printed in the paper, and only relative trends matter for the
    reproduction).
    """
    return WireLibrary(
        [
            WireType(name="W_NARROW", unit_resistance=0.30, unit_capacitance=0.16),
            WireType(name="W_WIDE", unit_resistance=0.10, unit_capacitance=0.20),
        ]
    )
