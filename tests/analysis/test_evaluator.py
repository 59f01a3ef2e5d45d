"""Tests for the full clock-network evaluator (latency, skew, CLR, slews)."""

import pytest

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig, ispd09_corners
from repro.cts import ClockTree, Sink, ispd09_buffer_library, ispd09_wire_library
from repro.geometry import Point

from repro.testing import make_manual_tree, make_zst_tree

WIRES = ispd09_wire_library()
BUFS = ispd09_buffer_library()


class TestConfig:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            EvaluatorConfig(engine="hspice")

    def test_invalid_slew_limit(self):
        with pytest.raises(ValueError):
            EvaluatorConfig(slew_limit=0.0)

    def test_evaluator_requires_corners(self):
        with pytest.raises(ValueError):
            ClockNetworkEvaluator(corners=[])


class TestBasicEvaluation:
    def test_report_contains_all_corners(self, fast_evaluator, manual_tree):
        report = fast_evaluator.evaluate(manual_tree)
        assert set(report.corners) == {c.name for c in ispd09_corners()}

    def test_every_sink_has_rise_and_fall_latency(self, fast_evaluator, manual_tree):
        report = fast_evaluator.evaluate(manual_tree)
        timing = report.nominal
        assert set(timing.latency) == {n.node_id for n in manual_tree.sinks()}
        for per_sink in timing.latency.values():
            assert set(per_sink) == {"rise", "fall"}

    def test_latencies_positive_and_ordered(self, fast_evaluator, manual_tree):
        report = fast_evaluator.evaluate(manual_tree)
        timing = report.nominal
        assert all(v > 0 for per in timing.latency.values() for v in per.values())
        assert report.max_latency >= timing.sink_latencies().max()

    def test_skew_is_max_minus_min(self, fast_evaluator, manual_tree):
        report = fast_evaluator.evaluate(manual_tree)
        timing = report.nominal
        rise = [v["rise"] for v in timing.latency.values()]
        fall = [v["fall"] for v in timing.latency.values()]
        expected = max(max(rise) - min(rise), max(fall) - min(fall))
        assert report.skew == pytest.approx(expected)

    def test_run_count_increments(self, fast_evaluator, manual_tree):
        assert fast_evaluator.run_count == 0
        fast_evaluator.evaluate(manual_tree)
        fast_evaluator.evaluate(manual_tree)
        assert fast_evaluator.run_count == 2

    def test_summary_keys(self, fast_evaluator, manual_tree):
        summary = fast_evaluator.evaluate(manual_tree).summary()
        assert {"skew_ps", "clr_ps", "max_latency_ps", "worst_slew_ps"} <= set(summary)


class TestClrAndCorners:
    def test_clr_exceeds_skew(self, fast_evaluator, manual_tree):
        report = fast_evaluator.evaluate(manual_tree)
        assert report.clr > report.skew

    def test_slow_corner_latency_larger(self, fast_evaluator, manual_tree):
        report = fast_evaluator.evaluate(manual_tree)
        slow = report.corners[report.slow_corner].sink_latencies().max()
        fast = report.corners[report.fast_corner].sink_latencies().max()
        assert report.max_latency == slow > fast

    def test_single_corner_clr_equals_skew_roughly(self, manual_tree):
        from repro.analysis.corners import nominal_corner

        evaluator = ClockNetworkEvaluator(
            EvaluatorConfig(engine="arnoldi"), corners=[nominal_corner()]
        )
        report = evaluator.evaluate(manual_tree)
        assert report.clr == pytest.approx(report.skew, abs=1e-9)


class TestPolarityAndTransitions:
    def test_inverter_chain_swaps_rise_and_fall(self):
        """With one inverter, a rising launch arrives falling at the sink."""
        tree = ClockTree(Point(0, 0), source_resistance=50.0, default_wire=WIRES.widest)
        mid = tree.add_internal(tree.root_id, Point(300, 0))
        tree.place_buffer(mid, BUFS.by_name("INV_S").parallel(8))
        sink = tree.add_sink(mid, Point(600, 0), Sink("s", 20.0))
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        report = evaluator.evaluate(tree)
        timing = report.nominal
        # Pull-up is weaker than pull-down, so the rising arrival at the sink
        # (driven by the inverter's pull-up) is the slower one.
        assert timing.latency[sink]["rise"] != timing.latency[sink]["fall"]


class TestSlewChecks:
    def test_long_unbuffered_wire_violates_slew(self):
        tree = ClockTree(Point(0, 0), source_resistance=200.0, default_wire=WIRES.widest)
        tree.add_sink(tree.root_id, Point(6000, 0), Sink("far", 100.0))
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi", slew_limit=100.0))
        report = evaluator.evaluate(tree)
        assert report.has_slew_violation
        assert report.worst_slew > 100.0

    def test_well_buffered_tree_is_clean(self, fast_evaluator, manual_tree):
        report = fast_evaluator.evaluate(manual_tree)
        assert not report.has_slew_violation

    @pytest.mark.parametrize("engine", ["elmore", "arnoldi", "spice"])
    def test_predicate_agrees_with_the_violation_list(self, engine, manual_tree):
        violating = ClockTree(Point(0, 0), source_resistance=200.0, default_wire=WIRES.widest)
        violating.add_sink(violating.root_id, Point(6000, 0), Sink("far", 100.0))
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine=engine, slew_limit=100.0))
        verdicts = []
        for tree in (violating, manual_tree):
            report = evaluator.evaluate(tree)
            assert report.has_slew_violation == bool(report.slew_violations)
            verdicts.append(report.has_slew_violation)
        assert verdicts == [True, False]

    def test_capacitance_limit_flag(self, manual_tree):
        tight = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"), capacitance_limit=10.0)
        loose = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"), capacitance_limit=1e9)
        assert not tight.evaluate(manual_tree).within_capacitance_limit
        assert loose.evaluate(manual_tree).within_capacitance_limit
        assert tight.evaluate(manual_tree).capacitance_utilization > 1.0


class TestEngineConsistency:
    def test_arnoldi_and_spice_agree_on_buffered_tree(self):
        tree = make_manual_tree()
        arnoldi = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi")).evaluate(tree)
        spice = ClockNetworkEvaluator(EvaluatorConfig(engine="spice")).evaluate(tree)
        assert arnoldi.max_latency == pytest.approx(spice.max_latency, rel=0.15)
        assert arnoldi.worst_slew == pytest.approx(spice.worst_slew, rel=0.2)

    def test_elmore_is_pessimistic(self):
        tree = make_zst_tree(sink_count=16)
        elmore = ClockNetworkEvaluator(EvaluatorConfig(engine="elmore")).evaluate(tree)
        spice = ClockNetworkEvaluator(EvaluatorConfig(engine="spice")).evaluate(tree)
        assert elmore.max_latency >= spice.max_latency

    def test_zst_tree_has_small_skew_under_spice(self):
        tree = make_zst_tree(sink_count=20)
        report = ClockNetworkEvaluator(EvaluatorConfig(engine="spice")).evaluate(tree)
        # The unbuffered DME tree is Elmore-balanced; accurate analysis sees a
        # small but non-zero skew, far below the latency scale.
        assert report.skew < 0.05 * report.max_latency
