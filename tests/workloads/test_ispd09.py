"""Tests for the ISPD'09-style benchmark generator."""

import pytest

from repro.workloads.ispd09 import (
    ISPD09_BENCHMARKS,
    ISPD09BenchmarkSpec,
    generate_ispd09_benchmark,
)


class TestSuiteDefinition:
    def test_seven_benchmarks_defined(self):
        assert len(ISPD09_BENCHMARKS) == 7
        assert set(ISPD09_BENCHMARKS) == {
            "ispd09f11", "ispd09f12", "ispd09f21", "ispd09f22",
            "ispd09f31", "ispd09f32", "ispd09fnb1",
        }

    def test_published_scale_characteristics(self):
        largest = ISPD09_BENCHMARKS["ispd09f31"]
        assert largest.die_width == pytest.approx(17000.0)
        assert ISPD09_BENCHMARKS["ispd09fnb1"].sink_count == 330
        assert all(spec.sink_count <= 330 for spec in ISPD09_BENCHMARKS.values())

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            generate_ispd09_benchmark("ispd09f99")


class TestGeneration:
    def test_instance_matches_spec(self):
        instance = generate_ispd09_benchmark("ispd09f22")
        spec = ISPD09_BENCHMARKS["ispd09f22"]
        assert instance.sink_count == spec.sink_count
        assert instance.die.width == spec.die_width
        assert instance.capacitance_limit is not None
        instance.validate()

    def test_generation_is_deterministic(self):
        a = generate_ispd09_benchmark("ispd09f11")
        b = generate_ispd09_benchmark("ispd09f11")
        assert [s.position for s in a.sinks] == [s.position for s in b.sinks]
        assert [o.rect for o in a.obstacles] == [o.rect for o in b.obstacles]

    def test_different_benchmarks_differ(self):
        a = generate_ispd09_benchmark("ispd09f11")
        b = generate_ispd09_benchmark("ispd09f12")
        assert [s.position for s in a.sinks] != [s.position for s in b.sinks]

    def test_source_on_die_boundary(self):
        instance = generate_ispd09_benchmark("ispd09f21")
        assert instance.source.y == instance.die.ylo

    def test_regular_sinks_avoid_blockages(self):
        instance = generate_ispd09_benchmark("ispd09f22")
        for sink in instance.sinks:
            if sink.name.startswith("sink_"):
                assert not instance.obstacles.blocks_point(sink.position)

    def test_macro_sinks_sit_on_blockages(self):
        instance = generate_ispd09_benchmark("ispd09f22")
        macro_sinks = [s for s in instance.sinks if s.name.startswith("macro_sink")]
        assert macro_sinks
        for sink in macro_sinks:
            assert any(o.rect.contains_point(sink.position) for o in instance.obstacles)

    def test_sink_scale_reduces_size(self):
        full = generate_ispd09_benchmark("ispd09f31")
        scaled = generate_ispd09_benchmark("ispd09f31", sink_scale=0.25)
        assert scaled.sink_count == pytest.approx(full.sink_count * 0.25, abs=2)
        assert len(scaled.obstacles) <= len(full.obstacles)

    def test_invalid_sink_scale(self):
        with pytest.raises(ValueError):
            ISPD09_BENCHMARKS["ispd09f11"].scaled(0.0)

    def test_explicit_spec_accepted(self):
        spec = ISPD09BenchmarkSpec("custom", 5000.0, 5000.0, 40, 6, seed=1)
        instance = generate_ispd09_benchmark(spec)
        assert instance.name == "custom"
        assert instance.sink_count == 40

    def test_generate_all(self):
        instances = [
            generate_ispd09_benchmark(name, sink_scale=0.1) for name in ISPD09_BENCHMARKS
        ]
        assert len(instances) == 7
        assert all(i.sink_count >= 4 for i in instances)
