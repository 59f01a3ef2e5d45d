"""Tests for composite inverter analysis (Table I)."""

import pytest

from repro.core.composite import (
    analyze_composites,
    composite_ladder,
    enumerate_composites,
    non_dominated_composites,
    smallest_dominating_count,
    table1_rows,
)
from repro.cts import ispd09_buffer_library
from repro.cts.bufferlib import ISPD09_LARGE_INVERTER, ISPD09_SMALL_INVERTER

LIB = ispd09_buffer_library()


class TestEnumeration:
    def test_counts(self):
        composites = enumerate_composites(LIB, max_parallel=8)
        assert len(composites) == 16

    def test_invalid_max_parallel(self):
        with pytest.raises(ValueError):
            enumerate_composites(LIB, max_parallel=0)


class TestDominance:
    def test_smallest_dominating_count_is_eight(self):
        assert smallest_dominating_count(ISPD09_SMALL_INVERTER, ISPD09_LARGE_INVERTER) == 8

    def test_smallest_dominating_count_none_when_unreachable(self):
        assert smallest_dominating_count(ISPD09_LARGE_INVERTER, ISPD09_SMALL_INVERTER) is None

    def test_non_dominated_filter(self):
        composites = enumerate_composites(LIB, max_parallel=8)
        frontier = non_dominated_composites(composites)
        assert all(
            not any(other.dominates(kept) for other in composites)
            for kept in frontier
        )
        # The large inverter is dominated by 8 small ones, so it is not on the frontier.
        assert all(comp.name != "INV_L" for comp in frontier)


class TestAnalysis:
    def test_preferred_base_is_eight_small(self):
        analysis = analyze_composites(LIB)
        assert analysis.preferred_base.base_name == "INV_S"
        assert analysis.preferred_base.parallel_count == 8

    def test_ladder_is_batches_of_the_base(self):
        analysis = analyze_composites(LIB, ladder_steps=4)
        counts = [b.parallel_count for b in analysis.ladder]
        assert counts == [8, 16, 24, 32]

    def test_ladder_strength_increases(self):
        analysis = analyze_composites(LIB)
        resistances = [b.output_res for b in analysis.ladder]
        assert resistances == sorted(resistances, reverse=True)

    def test_composite_ladder_validation(self):
        with pytest.raises(ValueError):
            composite_ladder(ISPD09_SMALL_INVERTER, 0)


class TestTable1:
    def test_rows_match_the_paper(self):
        rows = {row["type"]: row for row in table1_rows(LIB)}
        assert rows["1X Large"]["output_res_ohm"] == pytest.approx(61.2)
        assert rows["1X Small"]["input_cap_fF"] == pytest.approx(4.2)
        assert rows["2X Small"]["input_cap_fF"] == pytest.approx(8.4)
        assert rows["4X Small"]["output_cap_fF"] == pytest.approx(24.4)
        assert rows["8X Small"]["output_res_ohm"] == pytest.approx(55.0)

    def test_row_order(self):
        labels = [row["type"] for row in table1_rows(LIB)]
        assert labels == ["1X Large", "1X Small", "2X Small", "4X Small", "8X Small"]

    def test_eight_small_beats_large_on_every_column(self):
        rows = {row["type"]: row for row in table1_rows(LIB)}
        for key in ("input_cap_fF", "output_cap_fF", "output_res_ohm"):
            assert rows["8X Small"][key] < rows["1X Large"][key]
