"""Process/voltage corners used for multi-corner clock evaluation.

The ISPD'09 contest evaluated every network at two supply voltages and scored
the *Clock Latency Range* (CLR): the difference between the greatest sink
latency at 1.0 V and the least sink latency at 1.2 V.  A corner in this
library scales the effective driver resistance (and intrinsic gate delay) to
model the supply dependence of transistor drive strength, and can also scale
wire parasitics to model interconnect process corners.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

__all__ = [
    "Corner",
    "default_corners",
    "ispd09_corners",
    "nominal_corner",
    "driver_scale_for_vdd",
    "supply_driver_multiplier",
]


@dataclass(frozen=True)
class Corner:
    """A single evaluation corner.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"fast_1.2V"``.
    vdd:
        Supply voltage in volts.
    driver_scale:
        Multiplier on buffer output resistance and intrinsic delay relative to
        the nominal (1.2 V) characterization.
    wire_res_scale, wire_cap_scale:
        Multipliers on wire parasitics (interconnect process corner).
    """

    name: str
    vdd: float
    driver_scale: float = 1.0
    wire_res_scale: float = 1.0
    wire_cap_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.vdd <= 0.0:
            raise ValueError("corner supply voltage must be positive")
        if min(self.driver_scale, self.wire_res_scale, self.wire_cap_scale) <= 0.0:
            raise ValueError("corner scale factors must be positive")

    def scaled(
        self,
        voltage: Optional[float] = None,
        wire: Optional[float] = None,
        driver: Optional[float] = None,
        name: Optional[str] = None,
    ) -> "Corner":
        """A derived corner with adjusted supply and/or parasitic scaling.

        ``voltage`` is the new *absolute* supply in volts; the driver scale is
        re-derived through the alpha-power supply law while preserving any
        non-supply drive factor already baked into this corner (so
        ``fast.scaled(voltage=slow.vdd)`` reproduces the slow corner's driver
        scale exactly).  ``wire`` multiplies both wire parasitic scales
        (an interconnect process shift) and ``driver`` applies an extra
        multiplier on drive resistance (a transistor process shift).
        """
        changes: dict = {}
        suffix: List[str] = []
        if voltage is not None:
            process_factor = self.driver_scale / driver_scale_for_vdd(self.vdd)
            changes["vdd"] = voltage
            changes["driver_scale"] = driver_scale_for_vdd(voltage) * process_factor
            suffix.append(f"{voltage:g}V")
        if driver is not None:
            changes["driver_scale"] = changes.get("driver_scale", self.driver_scale) * driver
            suffix.append(f"drv{driver:g}")
        if wire is not None:
            changes["wire_res_scale"] = self.wire_res_scale * wire
            changes["wire_cap_scale"] = self.wire_cap_scale * wire
            suffix.append(f"wire{wire:g}")
        if name is not None:
            changes["name"] = name
        elif suffix:
            changes["name"] = f"{self.name}~{'_'.join(suffix)}"
        return replace(self, **changes)


_NOMINAL_VDD = 1.2
_VTH = 0.3
_ALPHA = 1.1


def driver_scale_for_vdd(vdd: float) -> float:
    """Supply-voltage scaling of effective driver resistance.

    Uses the alpha-power-law approximation ``R ~ Vdd / (Vdd - Vth)^alpha``
    normalized to the nominal supply.  The constants are chosen so that a
    1.0 V supply (versus the 1.2 V nominal) slows the buffers by roughly 10%,
    which puts the resulting Clock Latency Range an order of magnitude above
    the post-optimization skew -- the regime the paper's tables exhibit --
    while keeping CLR in the tens of picoseconds for 500 ps-class latencies.
    """
    if vdd <= _VTH:
        raise ValueError(f"supply {vdd} V is below threshold {_VTH} V")

    def _r(v: float) -> float:
        return v / (v - _VTH) ** _ALPHA

    return _r(vdd) / _r(_NOMINAL_VDD)


def supply_driver_multiplier(vdd: float, vdd_shift: np.ndarray) -> np.ndarray:
    """Vectorized driver-resistance multiplier for per-stage supply shifts.

    ``vdd_shift`` holds additive supply perturbations (volts) around the
    corner supply ``vdd``; the result is the elementwise ratio
    ``R(vdd + shift) / R(vdd)`` of the alpha-power supply law, clamped so a
    large negative draw cannot push the supply to the threshold.  A shift of
    exactly ``0.0`` returns exactly ``1.0`` (bit-for-bit), which is what
    makes zero-variance Monte Carlo reproduce nominal evaluation.
    """
    v = np.maximum(vdd + np.asarray(vdd_shift, dtype=float), _VTH + 0.05)
    scaled = v / (v - _VTH) ** _ALPHA
    return scaled / (vdd / (vdd - _VTH) ** _ALPHA)


def nominal_corner() -> Corner:
    """The 1.2 V corner used for nominal-skew optimization."""
    return Corner(name="nominal_1.2V", vdd=1.2, driver_scale=1.0)


def ispd09_corners() -> List[Corner]:
    """The two supply corners of the ISPD'09 contest (1.2 V fast, 1.0 V slow)."""
    return [
        Corner(name="fast_1.2V", vdd=1.2, driver_scale=driver_scale_for_vdd(1.2)),
        Corner(name="slow_1.0V", vdd=1.0, driver_scale=driver_scale_for_vdd(1.0)),
    ]


def default_corners() -> List[Corner]:
    """Default corner set: the ISPD'09 pair."""
    return ispd09_corners()
