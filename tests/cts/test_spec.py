"""Tests for the ClockNetworkInstance problem description."""

import pytest

from repro.cts.spec import ClockNetworkInstance
from repro.cts.topology import SinkInstance
from repro.geometry import Obstacle, ObstacleSet, Point, Rect


def valid_instance(**overrides):
    defaults = dict(
        name="t",
        die=Rect(0, 0, 1000, 1000),
        source=Point(500, 0),
        sinks=[SinkInstance("a", Point(100, 100), 10.0), SinkInstance("b", Point(900, 900), 10.0)],
        obstacles=ObstacleSet([Obstacle(Rect(400, 400, 600, 600))]),
        capacitance_limit=10000.0,
    )
    defaults.update(overrides)
    return ClockNetworkInstance(**defaults)


class TestValidation:
    def test_valid_instance_passes(self):
        valid_instance().validate()

    def test_no_sinks(self):
        with pytest.raises(ValueError):
            valid_instance(sinks=[]).validate()

    def test_duplicate_sink_names(self):
        sinks = [SinkInstance("a", Point(1, 1), 5.0), SinkInstance("a", Point(2, 2), 5.0)]
        with pytest.raises(ValueError):
            valid_instance(sinks=sinks).validate()

    def test_source_outside_die(self):
        with pytest.raises(ValueError):
            valid_instance(source=Point(-10, 0)).validate()

    def test_sink_outside_die(self):
        sinks = [SinkInstance("a", Point(5000, 100), 5.0)]
        with pytest.raises(ValueError):
            valid_instance(sinks=sinks).validate()

    def test_obstacle_outside_die(self):
        obstacles = ObstacleSet([Obstacle(Rect(900, 900, 1200, 1200))])
        with pytest.raises(ValueError):
            valid_instance(obstacles=obstacles).validate()

    def test_invalid_limits(self):
        with pytest.raises(ValueError):
            valid_instance(capacitance_limit=-1.0).validate()
        with pytest.raises(ValueError):
            valid_instance(slew_limit=0.0).validate()

    def test_helpers(self):
        instance = valid_instance()
        assert instance.sink_count == 2
