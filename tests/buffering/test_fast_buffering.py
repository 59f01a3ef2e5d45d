"""Tests for the composite-inverter insertion sweep."""

import dataclasses

import pytest

from repro.buffering.fast_buffering import insert_buffers_with_sizing
from repro.cts import ispd09_buffer_library

from repro.testing import make_zst_tree

import fast_buffering_reference as reference

BUFS = ispd09_buffer_library()
LADDER = [BUFS.by_name("INV_S").parallel(k) for k in (8, 16, 24)]


class TestSweep:
    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            insert_buffers_with_sizing(make_zst_tree(8), [])

    def test_invalid_power_reserve(self):
        with pytest.raises(ValueError):
            insert_buffers_with_sizing(make_zst_tree(8), LADDER, power_reserve=1.0)

    def test_input_tree_is_not_mutated(self):
        tree = make_zst_tree(sink_count=20)
        insert_buffers_with_sizing(tree, LADDER, capacitance_limit=1e6)
        assert tree.buffer_count() == 0

    def test_unconstrained_tree_scores_one_candidate(self):
        result = insert_buffers_with_sizing(make_zst_tree(20), LADDER, capacitance_limit=1e6)
        assert [o.buffer for o in result.outcomes] == [LADDER[-1]]
        assert result.chosen is result.outcomes[0]

    def test_tight_budget_scores_until_the_first_fit(self):
        tree = make_zst_tree(20)
        # A budget nothing fits scores every candidate, in ladder order.
        everything = insert_buffers_with_sizing(tree, LADDER, capacitance_limit=1e-6)
        assert [o.buffer for o in everything.outcomes] == LADDER
        caps = [o.total_capacitance for o in everything.outcomes]
        assert caps[1] < caps[2]
        # Between the two strongest: the strongest does not fit, the next does.
        limit = (caps[1] + caps[2]) / 2.0 / 0.9
        tight = insert_buffers_with_sizing(tree, LADDER, capacitance_limit=limit)
        assert [o.buffer for o in tight.outcomes] == LADDER[1:]
        assert [o.within_power_budget for o in tight.outcomes] == [True, False]
        assert tight.chosen is tight.outcomes[0]
        assert [o.total_capacitance for o in tight.outcomes] == caps[1:]

    def test_equal_output_resistance_keeps_the_ladder_order(self):
        strongest = LADDER[-1]
        twin = dataclasses.replace(strongest, name=f"{strongest.name} twin")
        for pair in ([twin, strongest], [strongest, twin]):
            # Both fit: the first of the two in ladder order is chosen and
            # the other is never scored.
            fits = insert_buffers_with_sizing(
                make_zst_tree(20), [LADDER[0], *pair], capacitance_limit=1e6
            )
            assert [o.buffer for o in fits.outcomes] == [pair[0]]
            assert fits.chosen_buffer is pair[0]
            # Neither fits: both are scored, and the fallback's minimum over
            # equal capacitances takes the first, as the reference's does.
            none_fit = insert_buffers_with_sizing(make_zst_tree(20), pair, capacitance_limit=1e-6)
            assert [o.buffer for o in none_fit.outcomes] == pair
            assert none_fit.chosen_buffer is pair[0]
            want = reference.insert_buffers_with_sizing(
                make_zst_tree(20), pair, capacitance_limit=1e-6
            )
            assert none_fit.outcomes == want.outcomes

    def test_strongest_feasible_candidate_chosen(self):
        result = insert_buffers_with_sizing(make_zst_tree(20), LADDER, capacitance_limit=1e6)
        feasible = [o for o in result.outcomes if o.slew_feasible and o.within_power_budget]
        assert result.chosen is not None
        assert result.chosen.buffer.output_res == min(o.buffer.output_res for o in feasible)

    def test_power_budget_constrains_choice(self):
        generous = insert_buffers_with_sizing(make_zst_tree(20), LADDER, capacitance_limit=1e6)
        # A tight limit leaves only the smallest composites within 90% of budget.
        tight_limit = generous.outcomes[0].total_capacitance * 1.02
        tight = insert_buffers_with_sizing(make_zst_tree(20), LADDER, capacitance_limit=tight_limit)
        assert tight.chosen.buffer.parallel_count <= generous.chosen.buffer.parallel_count

    def test_returned_tree_is_buffered(self):
        result = insert_buffers_with_sizing(make_zst_tree(20), LADDER, capacitance_limit=1e6)
        assert result.tree.buffer_count() == result.chosen.buffer_count
        result.tree.validate()

    def test_chosen_buffer_property(self):
        result = insert_buffers_with_sizing(make_zst_tree(12), LADDER, capacitance_limit=1e6)
        assert result.chosen_buffer is result.chosen.buffer
