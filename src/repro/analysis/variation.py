"""Monte Carlo variation models and skew-yield reporting.

The two-corner Clock Latency Range of the ISPD'09 contest is a *worst-case*
robustness proxy; the follow-on contest (and most industrial sign-off)
instead scores **skew yield**: the fraction of randomized supply/process
scenarios in which the network still meets its skew limit.  This module
provides the sampling side of that evaluation:

* :class:`VariationModel` -- a configurable description of per-stage
  parameter variation (supply voltage, buffer drive strength, unit wire R
  and C) with three sampling families:

  - ``"independent"``: every stage draws its own perturbation (random
    dopant/litho-style uncorrelated variation);
  - ``"correlated"``: perturbations follow a spatial Gaussian field whose
    correlation decays with the distance between stage drivers
    (``exp(-d / correlation_length)``), mixed with an optional chip-global
    component -- the classic across-die variation model;
  - ``"corner_anchored"``: samples slide along the segment(s) spanned by a
    list of anchor :class:`~repro.analysis.corners.Corner` objects
    (e.g. the ISPD'09 supply pair via :meth:`VariationModel.from_corners`),
    optionally with independent per-stage noise on top.

* :class:`VariationSamples` -- the sampled multiplier arrays, shaped
  ``(n_samples, n_stages)`` so the evaluator can apply them in batched numpy
  passes (see :meth:`repro.analysis.evaluator.ClockNetworkEvaluator.evaluate_yield`);
* :class:`YieldReport` -- per-tree skew/CLR/slew distributions with the
  summary statistics (mean, sigma, p95/p99, yield at a skew limit) used by
  the ``repro mc`` command line and the variation-aware acceptance gate.

All multipliers are exactly ``1.0`` (and supply shifts exactly ``0.0``) when
the corresponding sigma is zero, which guarantees that zero-variance Monte
Carlo reproduces the nominal multi-corner evaluation bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.corners import Corner

__all__ = [
    "ANALYTICAL_ENGINES",
    "SAMPLING_FAMILIES",
    "YIELD_SKEW_LIMIT_PS",
    "VariationModel",
    "VariationSamples",
    "YieldReport",
    "default_variation_model",
]

SAMPLING_FAMILIES = ("independent", "correlated", "corner_anchored")
"""The supported sampling families, in documentation order."""

ANALYTICAL_ENGINES = ("elmore", "arnoldi")
"""The evaluation engines that batch Monte Carlo samples through the moment
path; the transient engine cannot."""

YIELD_SKEW_LIMIT_PS = 7.5
"""The skew limit (ps) that defines yield: the ISPD'10-contest-style local
skew target, shared by ``repro mc``, the jobs and the p95 gate."""


@dataclass
class VariationSamples:
    """Sampled per-stage perturbations, one row per Monte Carlo scenario.

    ``driver``, ``wire_res`` and ``wire_cap`` are multipliers (applied on top
    of whatever corner the evaluator analyzes); ``vdd_shift`` is an additive
    supply perturbation in volts, converted to a driver-resistance multiplier
    per corner by :func:`repro.analysis.corners.supply_driver_multiplier`.
    All arrays have shape ``(n_samples, n_stages)`` (broadcast views are
    allowed -- callers only read).
    """

    driver: np.ndarray
    wire_res: np.ndarray
    wire_cap: np.ndarray
    vdd_shift: np.ndarray


@dataclass(frozen=True)
class VariationModel:
    """A configurable per-stage supply/process variation model.

    Attributes
    ----------
    family:
        ``"independent"``, ``"correlated"`` or ``"corner_anchored"``.
    vdd_sigma:
        Standard deviation of the per-stage supply perturbation, in volts.
    driver_sigma, wire_res_sigma, wire_cap_sigma:
        Relative standard deviations of the buffer drive resistance and the
        unit wire R/C multipliers.
    correlation_length:
        Distance (um) over which the ``"correlated"`` family's spatial field
        decays to ``1/e``.
    global_fraction:
        Share of the variance carried by a chip-global component in the
        ``"correlated"`` family (0 = purely local, 1 = one global draw).
    anchors:
        Anchor corners of the ``"corner_anchored"`` family, strongest supply
        first (see :meth:`from_corners`).
    truncation:
        Gaussian draws are clamped to ``±truncation`` sigmas so an extreme
        sample cannot drive a multiplier to zero or negative.
    """

    family: str = "independent"
    vdd_sigma: float = 0.0
    driver_sigma: float = 0.0
    wire_res_sigma: float = 0.0
    wire_cap_sigma: float = 0.0
    correlation_length: float = 1000.0
    global_fraction: float = 0.25
    anchors: Tuple[Corner, ...] = ()
    truncation: float = 3.0

    #: One-slot cache of the spatial Cholesky factor (an O(stages^3)
    #: reduction): acceptance-gate checks call sample() dozens of times on
    #: unchanged stage geometry.  Excluded from equality/hash/repr (and from
    #: config digests, which skip non-compare fields); ``init=False`` keeps
    #: it out of the constructor, so the frozen dataclass still populates it.
    _transform_cache: Dict[Tuple[Tuple[int, ...], bytes], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    _MIN_MULTIPLIER = 0.05

    def __post_init__(self) -> None:
        if self.family not in SAMPLING_FAMILIES:
            raise ValueError(
                f"unknown sampling family {self.family!r}; choose from {SAMPLING_FAMILIES}"
            )
        for name in ("vdd_sigma", "driver_sigma", "wire_res_sigma", "wire_cap_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.correlation_length <= 0.0:
            raise ValueError("correlation_length must be positive")
        if not 0.0 <= self.global_fraction <= 1.0:
            raise ValueError("global_fraction must lie in [0, 1]")
        if self.family == "corner_anchored" and len(self.anchors) < 2:
            raise ValueError(
                "the corner_anchored family needs at least two anchor corners "
                "(use VariationModel.from_corners)"
            )
        if self.truncation <= 0.0:
            raise ValueError("truncation must be positive")

    # ------------------------------------------------------------------
    @classmethod
    def from_corners(cls, corners: Sequence[Corner], **overrides: Any) -> "VariationModel":
        """A corner-anchored model spanning the given corner list.

        The anchors are ordered strongest supply first, so the reference
        anchor (``t = 0``, all multipliers exactly 1) coincides with the
        evaluator's fast corner; sampling interpolates between consecutive
        anchors (see :meth:`_sample_anchored`).
        """
        if len(corners) < 2:
            raise ValueError("from_corners needs at least two corners")
        anchors = tuple(sorted(corners, key=lambda c: -c.vdd))
        overrides.setdefault("family", "corner_anchored")
        return cls(anchors=anchors, **overrides)

    @property
    def perturbs_wire_cap(self) -> bool:
        """True when samples may scale wire capacitance away from nominal.

        The evaluator uses this to decide whether the moment reduction must
        keep wire and load capacitance separate (see
        :func:`repro.analysis.arnoldi.reduce_stage_batch`).
        """
        if self.wire_cap_sigma > 0.0:
            return True
        if self.family == "corner_anchored":
            reference = self.anchors[0].wire_cap_scale
            return any(a.wire_cap_scale != reference for a in self.anchors)
        return False

    def describe(self) -> Dict[str, object]:
        """JSON-able description used in reports and benchmark records."""
        payload: Dict[str, object] = {
            "family": self.family,
            "vdd_sigma_V": self.vdd_sigma,
            "driver_sigma": self.driver_sigma,
            "wire_res_sigma": self.wire_res_sigma,
            "wire_cap_sigma": self.wire_cap_sigma,
        }
        if self.family == "correlated":
            payload["correlation_length_um"] = self.correlation_length
            payload["global_fraction"] = self.global_fraction
        if self.family == "corner_anchored":
            payload["anchors"] = [a.name for a in self.anchors]
        return payload

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(
        self,
        n_samples: int,
        rng: np.random.Generator,
        positions: Optional[np.ndarray] = None,
        n_stages: Optional[int] = None,
    ) -> VariationSamples:
        """Draw ``n_samples`` per-stage perturbation scenarios.

        ``positions`` holds the planar coordinates of each stage driver,
        shape ``(n_stages, 2)``; it is required by the ``"correlated"``
        family and ignored otherwise (pass ``n_stages`` instead when no
        geometry is at hand).
        """
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if positions is not None:
            positions = np.asarray(positions, dtype=float)
            stages = positions.shape[0]
        elif n_stages is not None:
            stages = int(n_stages)
        else:
            raise ValueError("sample() needs positions or n_stages")
        if stages < 1:
            raise ValueError("at least one stage is required")

        if self.family == "independent":
            draw = lambda: self._truncated_normal(rng, (n_samples, stages))  # noqa: E731
        elif self.family == "correlated":
            if positions is None:
                raise ValueError("the correlated family needs stage positions")
            transform = self._spatial_transform(positions)
            draw = lambda: self._correlated_field(rng, n_samples, transform)  # noqa: E731
        else:  # corner_anchored: anchor sweep times optional independent noise
            return self._sample_anchored(n_samples, rng, stages)

        return VariationSamples(
            driver=self._floored(1.0 + self.driver_sigma * draw()),
            wire_res=self._floored(1.0 + self.wire_res_sigma * draw()),
            wire_cap=self._floored(1.0 + self.wire_cap_sigma * draw()),
            vdd_shift=self.vdd_sigma * draw(),
        )

    def _floored(self, multipliers: np.ndarray) -> np.ndarray:
        """Keep multipliers physical even for sigma > 1/truncation.

        An exact ``1.0`` (the zero-variance case) passes through bit-for-bit.
        """
        return np.maximum(multipliers, self._MIN_MULTIPLIER)

    # -- shared draw helpers -------------------------------------------
    def _truncated_normal(
        self, rng: np.random.Generator, shape: Union[int, Tuple[int, ...]]
    ) -> np.ndarray:
        z = rng.standard_normal(shape)
        return np.clip(z, -self.truncation, self.truncation)

    def _spatial_transform(self, positions: np.ndarray) -> np.ndarray:
        """Cholesky factor of the spatial correlation kernel (unit variance).

        The kernel mixes a chip-global component with an exponentially
        decaying local one: ``rho_ij = g + (1 - g) * exp(-d_ij / L)``.  The
        factor is cached against the position set (one slot: geometry only
        changes when a tuning round is accepted).
        """
        cache = self._transform_cache
        key = (positions.shape, positions.tobytes())
        cached = cache.get(key)
        if cached is not None:
            return cached
        deltas = positions[:, None, :] - positions[None, :, :]
        distances = np.sqrt((deltas**2).sum(axis=-1))
        kernel = self.global_fraction + (1.0 - self.global_fraction) * np.exp(
            -distances / self.correlation_length
        )
        kernel[np.diag_indices_from(kernel)] = 1.0 + 1e-9
        transform = np.linalg.cholesky(kernel)
        cache.clear()
        cache[key] = transform
        return transform

    def _correlated_field(
        self, rng: np.random.Generator, n_samples: int, transform: np.ndarray
    ) -> np.ndarray:
        z = rng.standard_normal((n_samples, transform.shape[0]))
        return np.clip(z @ transform.T, -self.truncation, self.truncation)

    def _sample_anchored(
        self, n_samples: int, rng: np.random.Generator, stages: int
    ) -> VariationSamples:
        """Sweep the anchor chain uniformly, with per-stage noise on top.

        The anchor multipliers are chip-global (every stage moves to the
        same point between the corners -- a supply droop affects the whole
        network) and *relative to the reference anchor*; the evaluator
        applies them on top of each of its own corners.  Supply dependence
        is already encoded in the anchors' driver scales, so the anchored
        component leaves ``vdd_shift`` at zero and only per-stage noise
        (``vdd_sigma``) contributes supply shifts.
        """
        grid = np.arange(len(self.anchors), dtype=float)
        t = rng.random(n_samples) * grid[-1]
        reference = self.anchors[0]
        drv = np.interp(t, grid, [a.driver_scale for a in self.anchors]) / reference.driver_scale
        res = np.interp(t, grid, [a.wire_res_scale for a in self.anchors]) / reference.wire_res_scale
        cap = np.interp(t, grid, [a.wire_cap_scale for a in self.anchors]) / reference.wire_cap_scale

        def spread(global_row: np.ndarray, sigma: float) -> np.ndarray:
            column = global_row[:, None]
            if sigma == 0.0:
                return np.broadcast_to(column, (n_samples, stages))
            noise = 1.0 + sigma * self._truncated_normal(rng, (n_samples, stages))
            return self._floored(column * noise)

        if self.vdd_sigma == 0.0:
            vdd_shift = np.zeros((n_samples, stages))
        else:
            vdd_shift = self.vdd_sigma * self._truncated_normal(rng, (n_samples, stages))
        return VariationSamples(
            driver=spread(drv, self.driver_sigma),
            wire_res=spread(res, self.wire_res_sigma),
            wire_cap=spread(cap, self.wire_cap_sigma),
            vdd_shift=vdd_shift,
        )


def default_variation_model(family: str = "independent", **overrides: Any) -> VariationModel:
    """The stock variation model used by the gate, CLI and benchmarks.

    Sigma magnitudes follow the usual across-die budgets quoted for 45 nm
    class processes: ~2% supply noise, 5% drive-strength spread and 4%
    interconnect RC spread.  Any field can be overridden by keyword.
    """
    defaults = dict(
        family=family,
        vdd_sigma=0.02,
        driver_sigma=0.05,
        wire_res_sigma=0.04,
        wire_cap_sigma=0.04,
    )
    defaults.update(overrides)
    return VariationModel(**defaults)


# ----------------------------------------------------------------------
# Yield reporting
# ----------------------------------------------------------------------
@dataclass
class YieldReport:
    """Distributional outcome of one Monte Carlo evaluation of a tree.

    ``skew_samples`` / ``clr_samples`` / ``worst_slew_samples`` are the raw
    per-scenario metrics (ps), shape ``(n_samples,)``; the statistics
    properties summarize them the way Table-style reports and the acceptance
    gate consume them.
    """

    n_samples: int
    engine: str
    model: Dict[str, object]
    skew_limit_ps: float
    slew_limit_ps: float
    fast_corner: str
    slow_corner: str
    skew_samples: np.ndarray
    clr_samples: np.ndarray
    worst_slew_samples: np.ndarray

    # -- skew ----------------------------------------------------------
    @property
    def skew_mean(self) -> float:
        return float(self.skew_samples.mean())

    @property
    def skew_std(self) -> float:
        return float(self.skew_samples.std())

    @property
    def skew_p95(self) -> float:
        return float(np.percentile(self.skew_samples, 95.0))

    @property
    def skew_p99(self) -> float:
        return float(np.percentile(self.skew_samples, 99.0))

    @property
    def skew_max(self) -> float:
        return float(self.skew_samples.max())

    # -- CLR -----------------------------------------------------------
    @property
    def clr_mean(self) -> float:
        return float(self.clr_samples.mean())

    @property
    def clr_p95(self) -> float:
        return float(np.percentile(self.clr_samples, 95.0))

    @property
    def clr_p99(self) -> float:
        return float(np.percentile(self.clr_samples, 99.0))

    # -- yield ---------------------------------------------------------
    @property
    def skew_yield(self) -> float:
        """Fraction of scenarios meeting the skew limit."""
        return float((self.skew_samples <= self.skew_limit_ps).mean())

    @property
    def slew_yield(self) -> float:
        """Fraction of scenarios with every tap slew inside the limit."""
        return float((self.worst_slew_samples <= self.slew_limit_ps).mean())

    def summary(self) -> Dict[str, object]:
        """Compact JSON-able record (no raw sample arrays)."""
        return {
            "n_samples": self.n_samples,
            "engine": self.engine,
            "model": self.model,
            "skew_limit_ps": self.skew_limit_ps,
            "skew_mean_ps": self.skew_mean,
            "skew_std_ps": self.skew_std,
            "skew_p95_ps": self.skew_p95,
            "skew_p99_ps": self.skew_p99,
            "skew_max_ps": self.skew_max,
            "skew_yield": self.skew_yield,
            "clr_mean_ps": self.clr_mean,
            "clr_p95_ps": self.clr_p95,
            "clr_p99_ps": self.clr_p99,
            "slew_yield": self.slew_yield,
        }
