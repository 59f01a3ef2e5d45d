"""Transient RC simulation of clock-tree stages (the SPICE substitute).

The ISPD'09 contest scored networks with ngSPICE/HSPICE.  Neither is available
here, so this module provides the closest pure-Python equivalent that
exercises the same code paths in the optimization flow: a nodal transient
solver for each buffer stage.

Model
-----
* The stage driver (clock source or inverter) is a Thevenin source: an ideal
  ramp from 0 to Vdd with a transition time derived from the driver's input
  slew, in series with the driver's effective output resistance.
* Wires are chains of lumped RC segments (built by
  :mod:`repro.analysis.rcnetwork`), so resistive shielding, far-end slew
  degradation and the effect of wire sizing/snaking are all captured.
* The nodal equations ``C dv/dt + G v = G_drv * Vs(t)`` are integrated with
  the trapezoidal rule at a fixed time step; with a fixed step the system
  matrix is factorized once per stage and reused for every time point, which
  keeps the solver fast enough to sit inside Contango's optimization loop.
* Delay is measured from the 50% crossing of the source ramp to the 50%
  crossing of each tap; slew is the 10%-90% transition time.

The factorization is the only use of scipy in the package, so
:func:`transient_stage_timing` imports ``scipy.linalg`` itself: a process
loads scipy on its first transient analysis and never otherwise, and a job
on the analytical engines does not pay for it.  ``TestLazyImports`` in
``tests/serve/test_cli.py`` fails if scipy leaks back into such a process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.elmore import StageTiming, _node_elmore_delays
from repro.analysis.rcnetwork import StageNetwork
from repro.analysis.units import CONDUCTANCE_SCALE

__all__ = ["TransientSolverConfig", "transient_stage_timing"]


@dataclass(frozen=True)
class TransientSolverConfig:
    """Numerical settings of the transient solver.

    Attributes
    ----------
    steps:
        Number of time points per simulation window.
    horizon_factor:
        The simulated window is ``ramp_time + horizon_factor * max Elmore``.
    min_ramp_time:
        Lower bound (ps) on the driver ramp, protecting against a zero input
        slew at the clock source.
    ramp_slew_fraction:
        The driver ramp time is ``ramp_slew_fraction * input_slew`` -- the
        10-90% input transition maps to a full 0-100% ramp slightly longer
        than the measured slew.
    """

    steps: int = 600
    horizon_factor: float = 6.0
    min_ramp_time: float = 5.0
    ramp_slew_fraction: float = 1.25

    def __post_init__(self) -> None:
        if self.steps < 10:
            raise ValueError("transient solver needs at least 10 time steps")
        if self.horizon_factor <= 1.0:
            raise ValueError("horizon_factor must exceed 1")


def transient_stage_timing(
    network: StageNetwork,
    input_slew: float,
    vdd: float = 1.2,
    config: Optional[TransientSolverConfig] = None,
) -> StageTiming:
    """Simulate one stage and return per-tap delay and slew in ps.

    Delay at a tap is the 50%-to-50% time from the Thevenin ramp midpoint to
    the tap voltage; slew is the tap's 10%-90% transition time.  Both are
    independent of ``vdd`` for a linear RC network, but ``vdd`` is accepted so
    that threshold levels are expressed in real volts (useful when inspecting
    waveforms in tests).
    """
    cfg = config or TransientSolverConfig()
    n = network.size
    elmore = _node_elmore_delays(network)
    max_elmore = max(elmore) if elmore else 1.0
    ramp_time = max(cfg.min_ramp_time, cfg.ramp_slew_fraction * input_slew)
    horizon = ramp_time + cfg.horizon_factor * max(max_elmore, 1e-3)
    dt = horizon / cfg.steps

    caps = np.asarray(network.capacitance, dtype=float)
    conductance = np.zeros((n, n), dtype=float)
    g_drv = CONDUCTANCE_SCALE / network.driver_resistance
    conductance[0, 0] += g_drv
    for idx in range(1, n):
        par = network.parent[idx]
        g = CONDUCTANCE_SCALE / network.resistance[idx]
        conductance[idx, idx] += g
        conductance[par, par] += g
        conductance[idx, par] -= g
        conductance[par, idx] -= g

    from scipy.linalg import lu_factor, lu_solve  # here, not above: see the module docstring

    cap_matrix = np.diag(caps)
    # Trapezoidal integration:  (C/dt + G/2) v_{k+1} = (C/dt - G/2) v_k + (b_k + b_{k+1})/2
    lhs = cap_matrix / dt + conductance / 2.0
    rhs_matrix = cap_matrix / dt - conductance / 2.0
    lu, piv = lu_factor(lhs)

    times = np.linspace(0.0, horizon, cfg.steps + 1)
    source = np.clip(times / ramp_time, 0.0, 1.0) * vdd

    # Fold the factorization into an explicit state recursion
    #   v_{k+1} = A v_k + b * (u_k + u_{k+1}) / 2
    # so that each time step is a single matrix-vector product.
    propagate = lu_solve((lu, piv), rhs_matrix)
    injection = lu_solve((lu, piv), np.eye(n)[:, 0]) * g_drv

    voltages = np.zeros((cfg.steps + 1, n), dtype=float)
    v = np.zeros(n, dtype=float)
    for k in range(cfg.steps):
        v = propagate @ v + injection * ((source[k] + source[k + 1]) / 2.0)
        voltages[k + 1] = v

    source_mid = 0.5 * ramp_time
    delay_map: Dict[int, float] = {}
    slew_map: Dict[int, float] = {}
    for tree_id, idx in network.tap_index.items():
        wave = voltages[:, idx]
        t50 = _crossing_time(times, wave, 0.5 * vdd)
        t10 = _crossing_time(times, wave, 0.1 * vdd)
        t90 = _crossing_time(times, wave, 0.9 * vdd)
        if t50 is None or t10 is None or t90 is None:
            # The window did not capture the full transition; fall back to the
            # Elmore estimate so that the optimization loop can keep going and
            # re-evaluate once the tree improves.
            tau = elmore[idx]
            delay_map[tree_id] = tau
            slew_map[tree_id] = 2.2 * tau + input_slew
            continue
        delay_map[tree_id] = t50 - source_mid
        slew_map[tree_id] = t90 - t10
    return StageTiming(delay=delay_map, slew=slew_map)


def _crossing_time(times: np.ndarray, wave: np.ndarray, level: float) -> Optional[float]:
    """First time the rising waveform crosses ``level`` (linear interpolation)."""
    above = np.nonzero(wave >= level)[0]
    if len(above) == 0:
        return None
    k = above[0]
    if k == 0:
        return float(times[0])
    v0, v1 = wave[k - 1], wave[k]
    t0, t1 = times[k - 1], times[k]
    if v1 == v0:
        return float(t1)
    frac = (level - v0) / (v1 - v0)
    return float(t0 + frac * (t1 - t0))
