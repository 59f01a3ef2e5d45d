"""Tests for the Monte Carlo variation engine (repro.analysis.variation).

The central property is *nominal parity*: a zero-variance model must make
``evaluate_yield`` reproduce the nominal multi-corner ``evaluate`` results
bit-for-bit, for both analytical engines, on any tree -- that is what makes
the batched Monte Carlo path trustworthy as an extension of the evaluator
rather than a parallel implementation that can drift.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    ClockNetworkEvaluator,
    EvaluatorConfig,
    VariationModel,
    YieldReport,
    default_variation_model,
    driver_scale_for_vdd,
    ispd09_corners,
    supply_driver_multiplier,
)
from repro.analysis.corners import Corner
from repro.core import ContangoFlow, FlowConfig
from repro.seeding import derive_rng, derive_seed
from repro.testing import make_manual_tree, make_small_instance


@pytest.fixture(scope="module")
def optimized_tree():
    """A realistically buffered tree (full Contango flow on 24 sinks)."""
    instance = make_small_instance(sink_count=24)
    result = ContangoFlow(FlowConfig(engine="arnoldi")).run(instance)
    return instance, result.require_tree()


def _rng(seed):
    """The generator ``evaluate_yield`` draws its samples from for ``seed``."""
    return derive_rng(seed, "evaluate-yield")


def _evaluator(instance, engine="arnoldi"):
    return ClockNetworkEvaluator(
        config=EvaluatorConfig(engine=engine, slew_limit=instance.slew_limit),
        capacitance_limit=instance.capacitance_limit,
    )


# ----------------------------------------------------------------------
# Corner helpers
# ----------------------------------------------------------------------
class TestCornerScaled:
    def test_voltage_rescale_round_trips_the_ispd09_pair(self):
        fast, slow = ispd09_corners()
        derived = fast.scaled(voltage=slow.vdd)
        assert derived.vdd == slow.vdd
        assert derived.driver_scale == slow.driver_scale

    def test_wire_multiplier_scales_both_parasitics(self):
        corner = ispd09_corners()[0].scaled(wire=1.1)
        assert corner.wire_res_scale == pytest.approx(1.1)
        assert corner.wire_cap_scale == pytest.approx(1.1)

    def test_driver_multiplier_composes_with_voltage(self):
        fast = ispd09_corners()[0]
        derived = fast.scaled(voltage=1.0, driver=1.2)
        assert derived.driver_scale == pytest.approx(
            driver_scale_for_vdd(1.0) * 1.2
        )

    def test_name_is_derived_unless_given(self):
        fast = ispd09_corners()[0]
        assert "1V" in fast.scaled(voltage=1.0).name
        assert fast.scaled(voltage=1.0, name="custom").name == "custom"

    def test_supply_multiplier_is_exactly_one_at_zero_shift(self):
        mult = supply_driver_multiplier(1.2, np.zeros((3, 4)))
        assert mult.shape == (3, 4)
        assert np.all(mult == 1.0)

    def test_supply_multiplier_monotone_in_shift(self):
        shifts = np.array([-0.1, 0.0, 0.1])
        mult = supply_driver_multiplier(1.2, shifts)
        assert mult[0] > 1.0 > mult[2]


# ----------------------------------------------------------------------
# VariationModel sampling
# ----------------------------------------------------------------------
class TestVariationModel:
    def test_rejects_unknown_family_and_negative_sigma(self):
        with pytest.raises(ValueError, match="family"):
            VariationModel(family="magic")
        with pytest.raises(ValueError, match="non-negative"):
            VariationModel(driver_sigma=-0.1)

    def test_corner_anchored_requires_anchors(self):
        with pytest.raises(ValueError, match="anchor"):
            VariationModel(family="corner_anchored")

    def test_sample_shapes_and_positivity(self):
        model = default_variation_model()
        draws = model.sample(50, derive_rng(1), n_stages=7)
        for array in (draws.driver, draws.wire_res, draws.wire_cap, draws.vdd_shift):
            assert array.shape == (50, 7)
        assert np.all(draws.driver > 0)
        assert np.all(draws.wire_res > 0)
        assert np.all(draws.wire_cap > 0)

    def test_huge_sigma_multipliers_stay_physical(self):
        # sigma > 1/truncation would otherwise drive multipliers negative
        # (negative driver resistance -> garbage moments).
        model = VariationModel(
            driver_sigma=0.6, wire_res_sigma=0.6, wire_cap_sigma=0.6
        )
        draws = model.sample(2000, derive_rng(9), n_stages=4)
        assert np.all(draws.driver > 0)
        assert np.all(draws.wire_res > 0)
        assert np.all(draws.wire_cap > 0)

    def test_correlated_transform_is_cached_per_geometry(self):
        model = VariationModel(family="correlated", driver_sigma=0.05)
        positions = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        first = model._spatial_transform(positions)
        second = model._spatial_transform(positions)
        assert second is first  # same object: no O(n^3) recompute
        moved = model._spatial_transform(positions + 1.0)
        assert moved is not first

    def test_sampling_is_deterministic_per_seed(self):
        model = default_variation_model()
        a = model.sample(20, derive_rng(3), n_stages=5)
        b = model.sample(20, derive_rng(3), n_stages=5)
        c = model.sample(20, derive_rng(4), n_stages=5)
        assert np.array_equal(a.driver, b.driver)
        assert np.array_equal(a.vdd_shift, b.vdd_shift)
        assert not np.array_equal(a.driver, c.driver)

    def test_correlated_family_tracks_distance(self):
        # Two nearly-coincident stages vs. one far away: the near pair's
        # perturbations must correlate much more strongly across samples.
        model = VariationModel(
            family="correlated",
            driver_sigma=0.05,
            correlation_length=500.0,
            global_fraction=0.0,
        )
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [50_000.0, 0.0]])
        draws = model.sample(4000, derive_rng(5), positions=positions)
        corr = np.corrcoef(draws.driver.T)
        assert corr[0, 1] > 0.9
        assert abs(corr[0, 2]) < 0.2

    def test_correlated_family_needs_positions(self):
        model = VariationModel(family="correlated", driver_sigma=0.05)
        with pytest.raises(ValueError, match="positions"):
            model.sample(5, derive_rng(0), n_stages=3)

    def test_from_corners_round_trips_ispd09(self):
        corners = ispd09_corners()
        model = VariationModel.from_corners(corners)
        fast = max(corners, key=lambda c: c.vdd)
        slow = min(corners, key=lambda c: c.vdd)
        assert model.anchors == (fast, slow)
        assert model.family == "corner_anchored"

    def test_anchored_multipliers_stay_inside_the_anchor_span(self):
        model = VariationModel.from_corners(ispd09_corners())
        draws = model.sample(500, derive_rng(6), n_stages=3)
        fast, slow = model.anchors
        ratio_max = slow.driver_scale / fast.driver_scale
        assert np.all(draws.driver >= 1.0 - 1e-12)
        assert np.all(draws.driver <= ratio_max + 1e-12)
        # The anchored component is chip-global: identical across stages.
        assert np.array_equal(draws.driver[:, 0], draws.driver[:, 1])
        assert np.all(draws.vdd_shift == 0.0)

    def test_perturbs_wire_cap_flag(self):
        assert not VariationModel().perturbs_wire_cap
        assert VariationModel(wire_cap_sigma=0.01).perturbs_wire_cap
        anchored = VariationModel.from_corners(
            [Corner("a", vdd=1.2), Corner("b", vdd=1.0, wire_cap_scale=1.1)]
        )
        assert anchored.perturbs_wire_cap


# ----------------------------------------------------------------------
# Zero-variance parity with the nominal evaluator
# ----------------------------------------------------------------------
class TestZeroVarianceParity:
    @pytest.mark.parametrize("engine", ["arnoldi", "elmore"])
    def test_flow_tree_parity_bit_for_bit(self, optimized_tree, engine):
        instance, tree = optimized_tree
        evaluator = _evaluator(instance, engine)
        nominal = evaluator.evaluate(tree)
        report = evaluator.evaluate_yield(tree, VariationModel(), samples=3, rng=_rng(0))
        assert np.all(report.skew_samples == nominal.skew)
        assert np.all(report.clr_samples == nominal.clr)
        assert np.all(report.worst_slew_samples == nominal.worst_slew)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        samples=st.integers(min_value=1, max_value=6),
        family=st.sampled_from(["independent", "correlated"]),
        engine=st.sampled_from(["arnoldi", "elmore"]),
    )
    def test_property_zero_variance_reproduces_nominal(
        self, seed, samples, family, engine
    ):
        tree = make_manual_tree()
        evaluator = ClockNetworkEvaluator(config=EvaluatorConfig(engine=engine))
        nominal = evaluator.evaluate(tree)
        model = VariationModel(family=family)
        report = evaluator.evaluate_yield(tree, model, samples=samples, rng=_rng(seed))
        assert report.n_samples == samples
        assert np.all(report.skew_samples == nominal.skew)
        assert np.all(report.clr_samples == nominal.clr)
        assert np.all(report.worst_slew_samples == nominal.worst_slew)

    def test_yield_order_does_not_change_nominal_results(self, optimized_tree):
        # evaluate -> evaluate_yield -> evaluate must return identical
        # nominal reports even though the yield pass shares the stage cache.
        instance, tree = optimized_tree
        evaluator = _evaluator(instance)
        before = evaluator.evaluate(tree)
        evaluator.evaluate_yield(tree, default_variation_model(), samples=64, rng=_rng(1))
        after = evaluator.evaluate(tree)
        assert before.skew == after.skew
        assert before.clr == after.clr
        assert before.worst_slew == after.worst_slew

    def test_spice_engine_is_rejected(self, optimized_tree):
        instance, tree = optimized_tree
        evaluator = ClockNetworkEvaluator(
            config=EvaluatorConfig(engine="spice", slew_limit=instance.slew_limit)
        )
        with pytest.raises(ValueError, match="analytical engine"):
            evaluator.evaluate_yield(tree, VariationModel(), samples=2, rng=_rng(0))


# ----------------------------------------------------------------------
# Yield evaluation behavior under real variance
# ----------------------------------------------------------------------
class TestEvaluateYield:
    def test_seeded_runs_are_bit_reproducible(self, optimized_tree):
        instance, tree = optimized_tree
        model = default_variation_model()
        a = _evaluator(instance).evaluate_yield(tree, model, samples=128, rng=_rng(42))
        b = _evaluator(instance).evaluate_yield(tree, model, samples=128, rng=_rng(42))
        c = _evaluator(instance).evaluate_yield(tree, model, samples=128, rng=_rng(43))
        assert np.array_equal(a.skew_samples, b.skew_samples)
        assert np.array_equal(a.clr_samples, b.clr_samples)
        assert not np.array_equal(a.skew_samples, c.skew_samples)

    def test_variation_widens_the_distribution(self, optimized_tree):
        instance, tree = optimized_tree
        evaluator = _evaluator(instance)
        nominal = evaluator.evaluate(tree)
        report = evaluator.evaluate_yield(
            tree, default_variation_model(), samples=512, rng=_rng(2)
        )
        assert report.skew_std > 0.0
        assert report.skew_p99 >= report.skew_p95 >= report.skew_mean
        assert report.skew_max > nominal.skew
        assert 0.0 <= report.skew_yield <= 1.0
        assert replace(report, skew_limit_ps=float("inf")).skew_yield == 1.0

    def test_yield_counts_stay_out_of_nominal_run_count(self, optimized_tree):
        instance, tree = optimized_tree
        evaluator = _evaluator(instance)
        evaluator.evaluate(tree)
        runs_before = evaluator.run_count
        evaluator.evaluate_yield(tree, default_variation_model(), samples=32, rng=_rng(3))
        assert evaluator.run_count == runs_before
        assert evaluator.yield_run_count == 1

    def test_yield_reuses_cached_base_moments(self, optimized_tree):
        instance, tree = optimized_tree
        evaluator = _evaluator(instance)
        model = VariationModel(driver_sigma=0.05)  # no wire-cap perturbation
        evaluator.evaluate_yield(tree, model, samples=16, rng=_rng(4))
        first_pass = evaluator.cache_stats()
        evaluator.evaluate_yield(tree, model, samples=16, rng=_rng(5))
        second_pass = evaluator.cache_stats()
        # The second run re-reduced nothing: only hits moved.
        assert second_pass["misses"] == first_pass["misses"]
        assert second_pass["hits"] > first_pass["hits"]
        assert second_pass["base_moments"] == first_pass["base_moments"]

    def test_summary_is_json_compatible(self, optimized_tree):
        import json

        instance, tree = optimized_tree
        report = _evaluator(instance).evaluate_yield(
            tree, default_variation_model(), samples=32, rng=_rng(6)
        )
        payload = json.dumps(report.summary())
        assert "skew_p95_ps" in payload
        assert isinstance(report, YieldReport)

    def test_rejects_bad_sample_count(self, optimized_tree):
        instance, tree = optimized_tree
        with pytest.raises(ValueError, match="samples"):
            _evaluator(instance).evaluate_yield(
                tree, VariationModel(), samples=0, rng=_rng(0)
            )


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------
class TestSeeding:
    def test_derive_rng_is_deterministic_and_key_sensitive(self):
        a = derive_rng(7, "job", 1).standard_normal(4)
        b = derive_rng(7, "job", 1).standard_normal(4)
        c = derive_rng(7, "job", 2).standard_normal(4)
        d = derive_rng(8, "job", 1).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_derive_seed_stability(self):
        assert derive_seed(7, "x") == derive_seed(7, "x")
        assert derive_seed(7, "x") != derive_seed(7, "y")

    def test_none_seed_falls_back_to_default(self):
        from repro.seeding import DEFAULT_SEED

        assert derive_seed(None, "k") == derive_seed(DEFAULT_SEED, "k")
