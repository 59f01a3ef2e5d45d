"""Buffer/inverter libraries, including composite (parallel) inverters.

Table I of the paper characterizes the two ISPD'09 inverters and the parallel
compositions of the small inverter that Contango uses instead of the large
one.  :func:`repro.core.composite.analyze_composites` reproduces that table
from the primitives defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence

__all__ = [
    "BufferType",
    "BufferLibrary",
    "ispd09_buffer_library",
    "ISPD09_LARGE_INVERTER",
    "ISPD09_SMALL_INVERTER",
]


@dataclass(frozen=True)
class BufferType:
    """A clock buffer or inverter.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"INV_L"`` or ``"8X INV_S"``.
    input_cap:
        Gate input pin capacitance in fF.
    output_cap:
        Output (drain) parasitic capacitance in fF.
    output_res:
        Effective switching output resistance in ohm at nominal supply.
    intrinsic_delay:
        Load-independent delay contribution in ps.
    inverting:
        True for inverters (the ISPD'09 library only has inverters).
    parallel_count:
        Number of parallel primitive devices forming this (composite) buffer.
    base_name:
        Name of the primitive device; equals ``name`` for primitives.
    """

    name: str
    input_cap: float
    output_cap: float
    output_res: float
    intrinsic_delay: float = 10.0
    inverting: bool = True
    parallel_count: int = 1
    base_name: Optional[str] = None

    def __post_init__(self) -> None:
        if min(self.input_cap, self.output_cap, self.output_res) <= 0.0:
            raise ValueError(f"buffer {self.name}: parasitics must be positive")
        if self.parallel_count < 1:
            raise ValueError(f"buffer {self.name}: parallel_count must be >= 1")
        if self.base_name is None:
            object.__setattr__(self, "base_name", self.name)

    @property
    def total_cap(self) -> float:
        """Input plus output capacitance -- the power/area proxy used in sizing."""
        return self.input_cap + self.output_cap

    def parallel(self, count: int) -> "BufferType":
        """Return the composite buffer made of ``count`` parallel copies.

        Parallel composition multiplies the capacitances and divides the
        output resistance; the intrinsic delay is unchanged (all copies switch
        together).
        """
        if count < 1:
            raise ValueError("parallel count must be >= 1")
        if count == 1:
            return self
        total = count * self.parallel_count
        return replace(
            self,
            name=f"{total}X {self.base_name}",
            input_cap=self.input_cap * count,
            output_cap=self.output_cap * count,
            output_res=self.output_res / count,
            parallel_count=total,
        )

    def scaled(self, factor: float) -> "BufferType":
        """Return a continuously-sized version of this buffer.

        Used by iterative buffer sizing, which grows composite inverters by a
        percentage per iteration (p_i = 100/(i+3)%).  Capacitances scale with
        ``factor``; output resistance scales with ``1/factor``.
        """
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            name=f"{self.name} x{factor:.3f}",
            input_cap=self.input_cap * factor,
            output_cap=self.output_cap * factor,
            output_res=self.output_res / factor,
        )

    def dominates(self, other: "BufferType") -> bool:
        """Return True when this buffer is at least as good as ``other`` on every axis.

        "Better" means lower input cap, lower output cap and lower output
        resistance; strict improvement is required on at least one axis.
        """
        no_worse = (
            self.input_cap <= other.input_cap
            and self.output_cap <= other.output_cap
            and self.output_res <= other.output_res
        )
        strictly_better = (
            self.input_cap < other.input_cap
            or self.output_cap < other.output_cap
            or self.output_res < other.output_res
        )
        return no_worse and strictly_better


class BufferLibrary:
    """A collection of primitive buffer/inverter types."""

    def __init__(self, types: Sequence[BufferType]) -> None:
        if not types:
            raise ValueError("buffer library must contain at least one buffer")
        names = [b.name for b in types]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate buffer names: {names}")
        self._types: List[BufferType] = list(types)
        self._index = {b.name: i for i, b in enumerate(self._types)}

    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[BufferType]:
        return iter(self._types)

    def by_name(self, name: str) -> BufferType:
        try:
            return self._types[self._index[name]]
        except KeyError:
            raise KeyError(f"unknown buffer type {name!r}") from None

    @property
    def smallest(self) -> BufferType:
        """The buffer with the smallest total capacitance (power footprint)."""
        return min(self._types, key=lambda b: b.total_cap)

    @property
    def strongest(self) -> BufferType:
        """The buffer with the lowest output resistance."""
        return min(self._types, key=lambda b: b.output_res)


# Table I of the paper (ISPD'09 CNS inverters).
ISPD09_LARGE_INVERTER = BufferType(
    name="INV_L",
    input_cap=35.0,
    output_cap=80.0,
    output_res=61.2,
    intrinsic_delay=6.0,
    inverting=True,
)
ISPD09_SMALL_INVERTER = BufferType(
    name="INV_S",
    input_cap=4.2,
    output_cap=6.1,
    output_res=440.0,
    intrinsic_delay=8.0,
    inverting=True,
)


def ispd09_buffer_library() -> BufferLibrary:
    """Return the two-inverter ISPD'09 library from Table I."""
    return BufferLibrary([ISPD09_LARGE_INVERTER, ISPD09_SMALL_INVERTER])
