"""Tests for the baseline (non-integrated) synthesis flows."""

import pytest

from repro.baselines import (
    BoundedSkewBaseline,
    GreedyBufferedBaseline,
    UnoptimizedDmeBaseline,
    all_baselines,
)
from repro.core import FlowConfig

from repro.testing import make_small_instance


@pytest.fixture(scope="module")
def instance():
    return make_small_instance(sink_count=20)


@pytest.fixture(scope="module")
def config():
    return FlowConfig(engine="arnoldi")


class TestBaselineFlows:
    def test_all_baselines_returns_three_distinct_flows(self, config):
        flows = all_baselines(config)
        assert len(flows) == 3
        assert len({flow.name for flow in flows}) == 3

    @pytest.mark.parametrize("flow_cls", [GreedyBufferedBaseline, UnoptimizedDmeBaseline, BoundedSkewBaseline])
    def test_each_baseline_produces_a_valid_buffered_tree(self, flow_cls, instance, config):
        result = flow_cls(config).run(instance)
        result.tree.validate()
        assert result.tree.buffer_count() > 0
        assert result.tree.sink_count() == instance.sink_count
        assert result.flow_name == flow_cls.name

    @pytest.mark.parametrize("flow_cls", [GreedyBufferedBaseline, UnoptimizedDmeBaseline, BoundedSkewBaseline])
    def test_polarity_corrected(self, flow_cls, instance, config):
        result = flow_cls(config).run(instance)
        assert len(result.tree.wrong_polarity_sinks()) == 0

    def test_summary_row_shape(self, instance, config):
        result = UnoptimizedDmeBaseline(config).run(instance)
        row = result.summary()
        assert row["flow"] == "unoptimized_dme"
        assert row["clr_ps"] > 0.0

    def test_baselines_use_distinct_buffer_choices(self, instance, config):
        greedy = GreedyBufferedBaseline(config).run(instance)
        dme = UnoptimizedDmeBaseline(config).run(instance)
        assert greedy.chosen_buffer != dme.chosen_buffer
