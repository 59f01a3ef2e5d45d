"""Reduced-order (moment-matching) timing engine for stage networks.

The paper notes that SPICE can be replaced by "Arnoldi approximation, or any
other available timing analysis tool/model".  This engine computes the first
two moments of every tap transfer function with two tree traversals -- the
path-tracing equivalent of one Arnoldi/Krylov step -- and converts them to
delay and slew with the D2M and lognormal-variance metrics.  It is roughly an
order of magnitude faster than the transient solver and substantially more
accurate than Elmore on resistively-shielded nets.

Two implementations live here:

* :func:`stage_moments` / :func:`arnoldi_stage_timing` -- the reference
  per-network recurrences on a :class:`StageNetwork` (any topological node
  order, one corner at a time), kept as the public single-stage API;
* the **vectorized batch path** used by the incremental evaluator:
  :func:`base_tap_moments` reduces a corner-independent
  :class:`~repro.analysis.rcnetwork.BaseStageNetwork` to a handful of
  per-tap base vectors with numpy prefix sums (no per-segment Python loop),
  and :func:`batched_tap_moments` turns those into exact ``m1``/``m2`` for
  *every* corner and transition at once.  The factorization rests on the
  corner model being a per-stage scaling: with wire scales ``r`` (res) and
  ``w`` (cap, applied to wire capacitance only) and total driver resistance
  ``D``, the moment recurrences separate into

      m1 = D*K(w) + r*a(w)
      m2 = D^2*K(w)^2 + D*r*A0(w) + D*K(w)*r*a(w) + r^2*P(w)

  where ``K(w)``/``a(w)`` are linear and ``A0(w)``/``P(w)`` quadratic
  polynomials in ``w`` whose coefficients (wire/load capacitance split)
  depend only on the stage's RC content -- so they are computed once per
  content revision and reused across corners, transitions and evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.analysis.elmore import StageTiming
from repro.analysis.rcnetwork import BaseStageNetwork, StageNetwork, path_sums, subtree_interval_sums
from repro.analysis.units import LN2, LN9, OHM_FF_TO_PS

__all__ = [
    "stage_moments",
    "arnoldi_stage_timing",
    "BaseTapMoments",
    "base_tap_moments",
    "stack_tap_moments",
    "batched_tap_moments",
    "batched_delay_sigma",
]


def stage_moments(network: StageNetwork) -> Tuple[List[float], List[float]]:
    """Return (m1, m2) at every network node.

    ``m1`` is the (sign-dropped) first moment -- the Elmore delay -- and
    ``m2`` the second moment of the impulse response, both in ps and ps^2.
    The recurrences are the standard RC-tree path formulas:

        m1(i) = sum_{e on path(i)} R_e * C_down(e)
        m2(i) = sum_{e on path(i)} R_e * M_down(e),  M_down(e) = sum_k C_k m1(k)

    with the driver resistance acting as the topmost path resistance.
    """
    downstream_cap = network.downstream_capacitance()
    m1 = [0.0] * network.size
    m1[0] = network.driver_resistance * downstream_cap[0] * OHM_FF_TO_PS
    for idx in range(1, network.size):
        par = network.parent[idx]
        m1[idx] = m1[par] + network.resistance[idx] * downstream_cap[idx] * OHM_FF_TO_PS

    # Downstream capacitance-weighted first moments.
    weighted = [network.capacitance[i] * m1[i] for i in range(network.size)]
    for idx in range(network.size - 1, 0, -1):
        weighted[network.parent[idx]] += weighted[idx]

    m2 = [0.0] * network.size
    m2[0] = network.driver_resistance * weighted[0] * OHM_FF_TO_PS
    for idx in range(1, network.size):
        par = network.parent[idx]
        m2[idx] = m2[par] + network.resistance[idx] * weighted[idx] * OHM_FF_TO_PS
    return m1, m2


def arnoldi_stage_timing(network: StageNetwork, input_slew: float) -> StageTiming:
    """Delay/slew at every tap from two-moment reduced-order models.

    Delay uses the D2M metric ``ln(2) * m1^2 / sqrt(m2)`` (clamped to the
    Elmore value from above, since D2M can overshoot on near taps); slew uses
    the lognormal variance ``sigma^2 = 2*m2 - m1^2`` combined with the input
    transition by the PERI rule.
    """
    m1, m2 = stage_moments(network)
    delay_map: Dict[int, float] = {}
    slew_map: Dict[int, float] = {}
    for tree_id, idx in network.tap_index.items():
        first, second = m1[idx], m2[idx]
        if second <= 0.0 or first <= 0.0:
            delay = LN2 * first
            sigma = first
        else:
            delay = LN2 * first * first / (second**0.5)
            delay = min(delay, first)
            variance = max(2.0 * second - first * first, (0.1 * first) ** 2)
            sigma = variance**0.5
        wire_slew = LN9 * sigma
        slew = (wire_slew**2 + input_slew**2) ** 0.5
        delay_map[tree_id] = delay
        slew_map[tree_id] = slew
    return StageTiming(delay=delay_map, slew=slew_map)


# ----------------------------------------------------------------------
# Vectorized multi-corner path (used by the incremental evaluator)
# ----------------------------------------------------------------------
_Total = Union[float, np.ndarray]


@dataclass(frozen=True)
class BaseTapMoments:
    """Corner-independent moment ingredients of one stage, reduced to its taps.

    Capacitance enters in two components -- wire (``w``-scaled by
    ``wire_cap_scale``) and load (never scaled) -- so every vector that is
    linear in capacitance splits in two, and every vector that is bilinear
    (the second-moment ingredients) splits in three by powers of ``w``.  All
    quantities are in raw ohm/fF units (no :data:`OHM_FF_TO_PS` applied); the
    conversion happens in :func:`batched_tap_moments`.  The per-stage totals
    are floats, or per-tap arrays once :func:`stack_tap_moments` has
    concatenated several stages.
    """

    tap_ids: Tuple[int, ...]
    a_wire_tap: np.ndarray  # sum_path R_e * CdownWire_e at each tap
    a_load_tap: np.ndarray  # sum_path R_e * CdownLoad_e at each tap
    p_ww_tap: np.ndarray  # sum_path R_e * (sum_sub Cw_k * aW_k)     (w^2 term)
    p_mixed_tap: np.ndarray  # sum_path R_e * (sum_sub Cw*aL + Cl*aW) (w^1 term)
    p_ll_tap: np.ndarray  # sum_path R_e * (sum_sub Cl_k * aL_k)     (w^0 term)
    wire_cap_total: _Total  # Kw: total wire capacitance of the stage
    load_cap_total: _Total  # Kl: total load capacitance of the stage
    a0_ww: _Total  # sum over all nodes of Cw_k * aW_k
    a0_mixed: _Total  # sum over all nodes of Cw_k*aL_k + Cl_k*aW_k
    a0_ll: _Total  # sum over all nodes of Cl_k * aL_k
    driver_resistance: _Total  # unscaled driver resistance


def base_tap_moments(base: BaseStageNetwork, split_wire_load: bool = True) -> BaseTapMoments:
    """Reduce a base stage network to the per-tap moment base vectors.

    Every per-segment accumulation (downstream capacitance, the two path-sum
    sweeps of the m1/m2 recurrences) runs as numpy prefix sums over the whole
    segment array at once.

    ``split_wire_load=False`` collapses wire and load capacitance into the
    (never ``w``-scaled) load component, halving the reduction work.  It is
    only valid when every corner subsequently passed to
    :func:`batched_tap_moments` has ``wire_cap_scale == 1.0`` -- true for the
    ISPD'09 corner set -- in which case the results are identical.
    """
    cap_w = base.wire_capacitance
    cap_l = base.load_capacitance
    res = base.resistance
    end = base.subtree_end
    taps = base.tap_indices
    if not split_wire_load:
        cap = cap_w + cap_l
        cdown = subtree_interval_sums(cap, end)
        a = path_sums(res * cdown, end)
        weighted = cap * a
        p = path_sums(res * subtree_interval_sums(weighted, end), end)
        zeros = np.zeros(len(taps))
        return BaseTapMoments(
            tap_ids=tuple(base.tap_ids),
            a_wire_tap=zeros,
            a_load_tap=a[taps],
            p_ww_tap=zeros,
            p_mixed_tap=zeros,
            p_ll_tap=p[taps],
            wire_cap_total=0.0,
            load_cap_total=float(cap.sum()),
            a0_ww=0.0,
            a0_mixed=0.0,
            a0_ll=float(weighted.sum()),
            driver_resistance=base.driver_resistance,
        )
    cdown_w = subtree_interval_sums(cap_w, end)
    cdown_l = subtree_interval_sums(cap_l, end)
    a_w = path_sums(res * cdown_w, end)
    a_l = path_sums(res * cdown_l, end)
    weighted_ww = cap_w * a_w
    weighted_mixed = cap_w * a_l + cap_l * a_w
    weighted_ll = cap_l * a_l
    p_ww = path_sums(res * subtree_interval_sums(weighted_ww, end), end)
    p_mixed = path_sums(res * subtree_interval_sums(weighted_mixed, end), end)
    p_ll = path_sums(res * subtree_interval_sums(weighted_ll, end), end)
    return BaseTapMoments(
        tap_ids=tuple(base.tap_ids),
        a_wire_tap=a_w[taps],
        a_load_tap=a_l[taps],
        p_ww_tap=p_ww[taps],
        p_mixed_tap=p_mixed[taps],
        p_ll_tap=p_ll[taps],
        wire_cap_total=float(cap_w.sum()),
        load_cap_total=float(cap_l.sum()),
        a0_ww=float(weighted_ww.sum()),
        a0_mixed=float(weighted_mixed.sum()),
        a0_ll=float(weighted_ll.sum()),
        driver_resistance=base.driver_resistance,
    )


def stack_tap_moments(variants: Sequence[BaseTapMoments]) -> BaseTapMoments:
    """Concatenate stage moments along the tap axis for one batched call.

    Each variant's per-stage totals are repeated once per tap, so
    :func:`batched_tap_moments` of the result has the variants' tap columns
    side by side, each equal bit for bit to the variant's own call (the
    arithmetic is elementwise).
    """
    counts = [len(variant.tap_ids) for variant in variants]

    def taps(name: str) -> np.ndarray:
        return np.concatenate([getattr(variant, name) for variant in variants])

    def totals(name: str) -> np.ndarray:
        return np.repeat([getattr(variant, name) for variant in variants], counts)

    return BaseTapMoments(
        tap_ids=tuple(chain.from_iterable(variant.tap_ids for variant in variants)),
        a_wire_tap=taps("a_wire_tap"),
        a_load_tap=taps("a_load_tap"),
        p_ww_tap=taps("p_ww_tap"),
        p_mixed_tap=taps("p_mixed_tap"),
        p_ll_tap=taps("p_ll_tap"),
        wire_cap_total=totals("wire_cap_total"),
        load_cap_total=totals("load_cap_total"),
        a0_ww=totals("a0_ww"),
        a0_mixed=totals("a0_mixed"),
        a0_ll=totals("a0_ll"),
        driver_resistance=totals("driver_resistance"),
    )


def batched_tap_moments(
    moments: BaseTapMoments,
    driver_scales: Sequence[float],
    wire_res_scales: Sequence[float],
    wire_cap_scales: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact (m1, m2) at every tap for a batch of corner/transition scalings.

    The three scale sequences must have equal length ``M`` (one entry per
    corner-and-transition combination); the result arrays have shape
    ``(M, taps)`` with m1 in ps and m2 in ps^2.  ``wire_cap_scales`` applies
    only to the wire-capacitance component, matching
    :func:`repro.analysis.rcnetwork.build_stage_network`.
    """
    d_scale = np.asarray(driver_scales)[:, None]
    r = np.asarray(wire_res_scales)[:, None]
    w = np.asarray(wire_cap_scales)[:, None]
    drv = moments.driver_resistance * d_scale
    k = w * moments.wire_cap_total + moments.load_cap_total
    a = w * moments.a_wire_tap + moments.a_load_tap
    a0 = w * w * moments.a0_ww + w * moments.a0_mixed + moments.a0_ll
    p = w * w * moments.p_ww_tap + w * moments.p_mixed_tap + moments.p_ll_tap
    m1 = OHM_FF_TO_PS * (drv * k + r * a)
    m2 = (OHM_FF_TO_PS**2) * (
        drv * drv * k * k + drv * r * a0 + drv * r * k * a + r * r * p
    )
    return m1, m2


def batched_delay_sigma(
    m1: np.ndarray, m2: np.ndarray, use_d2m: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized delay and intrinsic-slew sigma from batched moments.

    With ``use_d2m`` this reproduces :func:`arnoldi_stage_timing`'s metrics
    (D2M delay clamped by Elmore, lognormal-variance sigma) elementwise;
    without it, it reproduces the Elmore engine (delay = sigma = m1).  The
    returned sigma is the quantity multiplied by ``ln(9)`` and PERI-combined
    with the input transition to obtain the tap slew.
    """
    if not use_d2m:
        return m1, m1
    degenerate = (m2 <= 0.0) | (m1 <= 0.0)
    safe_m2 = np.where(degenerate, 1.0, m2)
    d2m = LN2 * m1 * m1 / np.sqrt(safe_m2)
    delay = np.where(degenerate, LN2 * m1, np.minimum(d2m, m1))
    variance = np.maximum(2.0 * m2 - m1 * m1, (0.1 * m1) ** 2)
    sigma = np.where(degenerate, m1, np.sqrt(np.maximum(variance, 0.0)))
    return delay, sigma
