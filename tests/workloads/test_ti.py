"""Tests for the TI-style scalability benchmark generator."""

import pytest

from repro.workloads.ti import ROW_PITCH, TI_SINK_COUNTS, generate_ti_benchmark


class TestTIGenerator:
    def test_table5_family_defined(self):
        assert TI_SINK_COUNTS == [200, 500, 1000, 2000, 5000, 10000, 20000, 50000]

    def test_requested_sink_count(self):
        instance = generate_ti_benchmark(200)
        assert instance.sink_count == 200
        instance.validate()

    def test_die_matches_published_chip(self):
        instance = generate_ti_benchmark(100)
        assert instance.die.width == pytest.approx(4200.0)
        assert instance.die.height == pytest.approx(3000.0)

    def test_deterministic_given_seed(self):
        a = generate_ti_benchmark(300, seed=5)
        b = generate_ti_benchmark(300, seed=5)
        assert [s.position for s in a.sinks] == [s.position for s in b.sinks]

    def test_different_seeds_differ(self):
        a = generate_ti_benchmark(300, seed=5)
        b = generate_ti_benchmark(300, seed=6)
        assert [s.position for s in a.sinks] != [s.position for s in b.sinks]

    def test_sinks_snapped_to_placement_rows(self):
        instance = generate_ti_benchmark(400)
        for sink in instance.sinks:
            offset = sink.position.y % ROW_PITCH
            assert min(offset, ROW_PITCH - offset) < 1e-6 or sink.position.y in (0.0, 3000.0)

    def test_larger_families_scale(self):
        small = generate_ti_benchmark(200)
        large = generate_ti_benchmark(2000)
        assert large.sink_count == 10 * small.sink_count
        assert sum(s.capacitance for s in large.sinks) > sum(s.capacitance for s in small.sinks)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            generate_ti_benchmark(0)
