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
  :func:`reduce_stage_batch` reduces a whole
  :class:`~repro.analysis.rcnetwork.StageBatch` -- many stages laid out as
  zero-padded ``(stages, width)`` segment rows -- to a handful of per-tap
  base vectors per stage with row-wise numpy prefix sums (no per-segment
  Python loop; only each stage's totals are taken stage by stage), and
  :func:`batched_tap_moments` turns those into exact ``m1``/``m2`` for
  *every* corner and transition at once.  The row-wise reduction is
  bit-identical to reducing each stage on its own: a row's cumulative sums
  never read past the row's end into its padding, the subtree-removal terms
  come from one ``bincount`` whose bins are private to each row (weights
  added in input order), and each stage's totals are ``.sum()`` over the
  row's own leading entries.  The factorization rests on the
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

from itertools import chain
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.analysis.elmore import StageTiming
from repro.analysis.rcnetwork import StageBatch, StageNetwork
from repro.analysis.units import LN2, LN9, OHM_FF_TO_PS

__all__ = [
    "stage_moments",
    "arnoldi_stage_timing",
    "BaseTapMoments",
    "reduce_stage_batch",
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
# Corner/transition scales: a 1-D sequence, or an array shaped for broadcasting.
_Scales = Union[Sequence[float], np.ndarray]


class BaseTapMoments(NamedTuple):
    """Corner-independent moment ingredients of one stage, reduced to its taps.

    Capacitance enters in two components -- wire (``w``-scaled by
    ``wire_cap_scale``) and load (never scaled) -- so every vector that is
    linear in capacitance splits in two, and every vector that is bilinear
    (the second-moment ingredients) splits in three by powers of ``w``.  All
    quantities are in raw ohm/fF units (no :data:`OHM_FF_TO_PS` applied); the
    conversion happens in :func:`batched_tap_moments`.  The per-stage totals
    are floats, or per-tap arrays once :func:`stack_tap_moments` has
    concatenated several stages.  :func:`reduce_stage_batch` returns the
    per-tap vectors as views into one batch-wide array.
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


def _row_interval_sums(values: np.ndarray, end_index: np.ndarray) -> np.ndarray:
    """Per-node sums of ``values`` over each node's subtree interval, row-wise.

    ``end_index`` is :attr:`StageBatch.end_index`: one flat index into the
    ``(stages, width + 1)`` prefix array per node.
    """
    rows, width = values.shape
    prefix = np.zeros((rows, width + 1))
    np.add.accumulate(values, axis=1, out=prefix[:, 1:])
    return prefix.ravel()[end_index] - prefix[:, :width]


def _row_path_sums(values: np.ndarray, end_index: np.ndarray) -> np.ndarray:
    """Per-node sums of ``values`` over the root-to-node path, row-wise.

    Node ``j`` contributes to node ``i`` exactly when ``i`` lies in ``j``'s
    subtree interval, so scattering ``+values[j]`` at ``j`` and
    ``-values[j]`` at the interval end turns the path sum into one
    cumulative sum over the difference row.  The scatter is one
    ``bincount`` over per-row bins (duplicate interval ends accumulate in
    input order); bin ``width`` of a row collects the ends past it and is
    dropped.
    """
    rows, width = values.shape
    removal = np.bincount(
        end_index.ravel(), weights=values.ravel(), minlength=rows * (width + 1)
    ).reshape(rows, width + 1)[:, :width]
    return np.add.accumulate(values - removal, axis=1)


def _row_totals(values: np.ndarray, sizes: List[int]) -> List[float]:
    """Each row's total over its own ``sizes[s]`` leading entries.

    ``np.add.reduce`` of the contiguous leading slice is what ``.sum()`` of
    a stage's own 1-D array computes (never ``np.add.reduceat``, whose
    summation order differs).
    """
    add = np.add.reduce
    return [float(add(row[:size])) for row, size in zip(values, sizes)]


def reduce_stage_batch(batch: StageBatch, split_wire_load: bool = True) -> List[BaseTapMoments]:
    """Reduce every stage of a laid-out batch to its per-tap moment base vectors.

    Every accumulation (downstream capacitance, the two path-sum sweeps of
    the m1/m2 recurrences) runs as one row-wise numpy pass over the whole
    batch; only the per-stage totals and the per-stage result records are
    produced stage by stage.

    ``split_wire_load=False`` collapses wire and load capacitance into the
    (never ``w``-scaled) load component, halving the reduction work.  It is
    only valid when every corner subsequently passed to
    :func:`batched_tap_moments` has ``wire_cap_scale == 1.0`` -- true for the
    ISPD'09 corner set -- in which case the results are identical.
    """
    res = batch.resistance
    end = batch.end_index
    taps = batch.tap_index
    sizes = batch.sizes
    if split_wire_load:
        cap_w = batch.wire_capacitance
        cap_l = batch.load_capacitance
        a_w = _row_path_sums(res * _row_interval_sums(cap_w, end), end)
        a_l = _row_path_sums(res * _row_interval_sums(cap_l, end), end)
        weighted_ww = cap_w * a_w
        weighted_mixed = cap_w * a_l + cap_l * a_w
        weighted_ll = cap_l * a_l
        p_ww = _row_path_sums(res * _row_interval_sums(weighted_ww, end), end)
        p_mixed = _row_path_sums(res * _row_interval_sums(weighted_mixed, end), end)
        p_ll = _row_path_sums(res * _row_interval_sums(weighted_ll, end), end)
        tap_a_w = a_w.ravel()[taps]
        tap_p_ww = p_ww.ravel()[taps]
        tap_p_mixed = p_mixed.ravel()[taps]
        wire_totals = _row_totals(cap_w, sizes)
        ww_totals = _row_totals(weighted_ww, sizes)
        mixed_totals = _row_totals(weighted_mixed, sizes)
    else:
        cap_l = batch.wire_capacitance + batch.load_capacitance
        a_l = _row_path_sums(res * _row_interval_sums(cap_l, end), end)
        weighted_ll = cap_l * a_l
        p_ll = _row_path_sums(res * _row_interval_sums(weighted_ll, end), end)
        tap_a_w = tap_p_ww = tap_p_mixed = np.zeros(len(taps))
        wire_totals = ww_totals = mixed_totals = [0.0] * len(sizes)
    tap_a_l = a_l.ravel()[taps]
    tap_p_ll = p_ll.ravel()[taps]
    load_totals = _row_totals(cap_l, sizes)
    ll_totals = _row_totals(weighted_ll, sizes)
    moments: List[BaseTapMoments] = []
    low = 0
    for row, tap_ids in enumerate(batch.tap_ids):
        cols = slice(low, low + len(tap_ids))
        low = cols.stop
        moments.append(
            BaseTapMoments(
                tap_ids,
                tap_a_w[cols],
                tap_a_l[cols],
                tap_p_ww[cols],
                tap_p_mixed[cols],
                tap_p_ll[cols],
                wire_totals[row],
                load_totals[row],
                ww_totals[row],
                mixed_totals[row],
                ll_totals[row],
                batch.driver_resistance[row],
            )
        )
    return moments


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
        return np.array([getattr(variant, name) for variant in variants]).repeat(counts)

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
    driver_scales: _Scales,
    wire_res_scales: _Scales,
    wire_cap_scales: _Scales,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact (m1, m2) at every tap for a batch of corner/transition scalings.

    m1 is in ps and m2 in ps^2.  ``wire_cap_scales`` applies only to the
    wire-capacitance component, matching
    :func:`repro.analysis.rcnetwork.build_stage_network`.

    Shapes: the fields of ``moments`` and the three scales meet by numpy
    broadcasting, and m1/m2 have the broadcast shape.  A 1-D scale sequence
    of length ``M`` (one entry per corner-and-transition combination) stands
    for an ``(M, 1)`` column, so three such sequences and a stage's
    ``(taps,)`` vectors give ``(M, taps)`` arrays, one row per combination.
    Scale arrays of two or more dimensions broadcast as they are: the Monte
    Carlo sweep passes ``(taps, 1, 1, 1)`` tap vectors, ``(C, 2, B)`` driver
    scales and ``(1, 1, B)`` or ``(C, 1, B)`` wire scales and gets
    ``(taps, C, 2, B)`` arrays, in which the terms without a driver scale
    (``a``, ``p``, ``r * a``, ``r * r * p``) are computed once per sample
    (or per corner and sample), not once per corner, transition and sample.
    Every element sees the same operations in the same order whatever the
    shapes, so it equals its own one-row call bit for bit.
    """
    d_scale = _scale_column(driver_scales)
    r = _scale_column(wire_res_scales)
    w = _scale_column(wire_cap_scales)
    drv = moments.driver_resistance * d_scale
    k = w * moments.wire_cap_total + moments.load_cap_total
    a = w * moments.a_wire_tap + moments.a_load_tap
    a0 = w * w * moments.a0_ww + w * moments.a0_mixed + moments.a0_ll
    p = w * w * moments.p_ww_tap + w * moments.p_mixed_tap + moments.p_ll_tap
    # m1 = OHM_FF_TO_PS * (drv*k + r*a)
    # m2 = OHM_FF_TO_PS**2 * (drv*drv*k*k + drv*r*a0 + drv*r*k*a + r*r*p)
    # Sums run left to right; only the full-size terms are accumulated in place.
    m1 = np.add(drv * k, r * a)
    m1 *= OHM_FF_TO_PS
    m2 = drv * r * k * a
    np.add(drv * drv * k * k + drv * r * a0, m2, out=m2)
    m2 += r * r * p
    m2 *= OHM_FF_TO_PS**2
    return m1, m2


def _scale_column(scales: _Scales) -> np.ndarray:
    """A 1-D scale sequence as an ``(M, 1)`` column, any other array as is."""
    array = np.asarray(scales, dtype=float)
    return array[:, None] if array.ndim == 1 else array


def batched_delay_sigma(
    m1: np.ndarray, m2: np.ndarray, use_d2m: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized delay and intrinsic-slew sigma from batched moments.

    With ``use_d2m`` this reproduces :func:`arnoldi_stage_timing`'s metrics
    (D2M delay clamped by Elmore, lognormal-variance sigma) elementwise;
    without it, it reproduces the Elmore engine (delay = sigma = m1, the
    same array twice).  The returned sigma is the quantity multiplied by
    ``ln(9)`` and PERI-combined with the input transition to obtain the tap
    slew.  ``m1`` and ``m2`` are never written.

    An entry with ``m1 <= 0`` or ``m2 <= 0`` is degenerate: its delay is
    ``ln(2) * m1`` and its sigma ``m1``.  When no entry is, the masks are
    skipped and the arithmetic runs in place on fresh buffers; a NaN entry
    takes the masked path, which handles it alike.
    """
    if not use_d2m:
        return m1, m1
    delay = LN2 * m1
    if m1.min(initial=np.inf) > 0.0 and m2.min(initial=np.inf) > 0.0:
        delay *= m1
        scratch = np.sqrt(m2)
        delay /= scratch
        np.minimum(delay, m1, out=delay)
        sigma = 2.0 * m2
        sigma -= np.multiply(m1, m1, out=scratch)
        floor = np.multiply(0.1, m1, out=scratch)
        floor *= floor
        np.maximum(sigma, floor, out=sigma)
        return delay, np.sqrt(sigma, out=sigma)
    degenerate = (m2 <= 0.0) | (m1 <= 0.0)
    d2m = delay * m1 / np.sqrt(np.where(degenerate, 1.0, m2))
    # At least its floor, which is a square: the root is real.
    variance = np.maximum(2.0 * m2 - m1 * m1, (0.1 * m1) ** 2)
    return (
        np.where(degenerate, delay, np.minimum(d2m, m1)),
        np.where(degenerate, m1, np.sqrt(variance)),
    )
