"""Tests for the van Ginneken buffer-insertion DP."""

import pytest

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.buffering.vanginneken import VanGinnekenInserter, _prune, run_ladder
from repro.cts import ispd09_buffer_library, ispd09_wire_library
from repro.geometry import Obstacle, ObstacleSet, Point, Rect

from repro.testing import make_zst_tree

WIRES = ispd09_wire_library()
BUFS = ispd09_buffer_library()
COMPOSITE = BUFS.by_name("INV_S").parallel(8)


def opt(cap, req, tau):
    """A DP option with no buffer and no parents."""
    return (cap, req, tau, 0, None, ())


def prune(options, max_options=32):
    return _prune(list(options), max_options)


#: Lowest cap, worst req and tau of every option below: it neither
#: dominates nor is dominated, and sorts first.
LOOSE = opt(1.0, -50.0, 5.0)


class TestOptionDominance:
    """Pruning keeps exactly the options no other option dominates.

    Two options go through the pair fast path, three or more through the
    sorted scan, so each case runs alone and beside :data:`LOOSE`, in both
    input orders.
    """

    def test_dominates_all_axes(self):
        better = opt(10.0, -5.0, 1.0)
        worse = opt(20.0, -9.0, 2.0)
        for extra in ([], [LOOSE]):
            for options in ([better, worse], [worse, better]):
                assert prune(options + extra) == extra + [better]

    def test_incomparable_options(self):
        """Both stay, in ``(cap, -req, tau)`` order."""
        low_cap = opt(10.0, -20.0, 1.0)
        fast = opt(50.0, -5.0, 1.0)
        # Equal cap: the better req sorts first, even with the worse tau.
        sharp = opt(10.0, -19.0, 2.0)
        for pair in ([low_cap, fast], [sharp, low_cap]):
            for extra in ([], [LOOSE]):
                for options in (pair, pair[::-1]):
                    assert prune(options + extra) == extra + pair

    def test_equal_options_do_not_dominate(self):
        a = opt(10.0, -5.0, 1.0)
        b = opt(10.0, -5.0, 1.0)
        for extra in ([], [LOOSE]):
            kept = prune([a, b] + extra)
            assert len(kept) == 2 + len(extra)
            assert [o for o in kept if o is a or o is b] == [a, b]

    def test_near_equal_counts_as_equal(self):
        """A cheaper option 1e-13 worse on req or tau still dominates."""
        worse = opt(20.0, -5.0, 1.0)
        for cheaper in (opt(10.0, -5.0 - 1e-13, 1.0), opt(10.0, -5.0, 1.0 + 1e-13)):
            for extra in ([], [LOOSE]):
                assert prune([worse, cheaper] + extra) == extra + [cheaper]

    def test_options_within_tolerance_do_not_dominate(self):
        """1e-13 apart on one axis is inside the 1e-12 tolerance: both stay."""
        base = [10.0, -5.0, 1.0]
        for axis in range(3):
            for delta in (1e-13, -1e-13):
                moved = list(base)
                moved[axis] += delta
                a, b = opt(*base), opt(*moved)
                assert len(prune([a, b])) == 2
                assert len(prune([a, b, LOOSE])) == 3


class TestPruning:
    def test_dominated_options_removed(self):
        options = [
            opt(10.0, -5.0, 1.0),
            opt(20.0, -9.0, 2.0),
            opt(50.0, -2.0, 1.0),
        ]
        assert prune(options) == [options[0], options[2]]

    def test_overflow_keeps_frontier_extremes(self):
        options = [opt(10.0 * i, -100.0 + i, 0.0) for i in range(1, 40)]
        kept = prune(options, max_options=4)
        assert len(kept) == 4
        caps = [o[0] for o in kept]
        assert min(caps) == 10.0 and max(caps) == 390.0

    def test_max_options_validation(self):
        with pytest.raises(ValueError):
            VanGinnekenInserter(COMPOSITE, max_options=2)
        with pytest.raises(ValueError):
            run_ladder(make_zst_tree(sink_count=6), [COMPOSITE], max_options=3)


class TestInsertion:
    def test_buffers_are_inserted_and_tree_stays_valid(self):
        tree = make_zst_tree(sink_count=24)
        result = VanGinnekenInserter(COMPOSITE).insert(tree)
        tree.validate()
        assert result.buffer_count > 0
        assert tree.buffer_count() == result.buffer_count

    def test_insertion_eliminates_slew_violations(self):
        tree = make_zst_tree(sink_count=24)
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi", slew_limit=100.0))
        assert evaluator.evaluate(tree).has_slew_violation
        VanGinnekenInserter(COMPOSITE, slew_limit=100.0).insert(tree)
        assert not evaluator.evaluate(tree).has_slew_violation

    def test_insertion_reduces_worst_latency(self):
        tree = make_zst_tree(sink_count=24)
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        before = evaluator.evaluate(tree).max_latency
        VanGinnekenInserter(COMPOSITE).insert(tree)
        after = evaluator.evaluate(tree).max_latency
        assert after < before

    def test_apply_false_leaves_tree_unmodified(self):
        tree = make_zst_tree(sink_count=16)
        result = VanGinnekenInserter(COMPOSITE).insert(tree, apply=False)
        assert result.buffer_count > 0
        assert tree.buffer_count() == 0

    def test_no_buffer_placed_inside_obstacles(self):
        tree = make_zst_tree(sink_count=24, die_size=3000.0)
        obstacles = ObstacleSet([Obstacle(Rect(800, 800, 2000, 2000), name="blk")])
        inserter = VanGinnekenInserter(COMPOSITE, obstacles=obstacles)
        inserter.insert(tree)
        for node in tree.buffers():
            assert not obstacles.blocks_point(node.position)

    def test_stronger_buffer_gives_smaller_delay_estimate(self):
        tree = make_zst_tree(sink_count=24)
        weak = VanGinnekenInserter(BUFS.by_name("INV_S").parallel(4)).insert(tree.clone(), apply=False)
        strong = VanGinnekenInserter(BUFS.by_name("INV_S").parallel(16)).insert(tree.clone(), apply=False)
        assert strong.worst_delay_estimate < weak.worst_delay_estimate

    def test_denser_stations_do_not_hurt(self):
        tree = make_zst_tree(sink_count=20)
        sparse = VanGinnekenInserter(COMPOSITE, station_spacing=600.0).insert(tree.clone(), apply=False)
        dense = VanGinnekenInserter(COMPOSITE, station_spacing=150.0).insert(tree.clone(), apply=False)
        assert dense.worst_delay_estimate <= sparse.worst_delay_estimate * 1.05

    def test_result_slew_feasible_on_open_die(self):
        tree = make_zst_tree(sink_count=24)
        result = VanGinnekenInserter(COMPOSITE).insert(tree)
        assert result.slew_feasible
