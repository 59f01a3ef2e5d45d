"""Tests for process/voltage corners."""

import pytest

from repro.analysis.corners import Corner, driver_scale_for_vdd, ispd09_corners


class TestCorner:
    def test_invalid_vdd(self):
        with pytest.raises(ValueError):
            Corner("bad", vdd=0.0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            Corner("bad", vdd=1.0, driver_scale=0.0)

    def test_nominal_corner_is_unit_scale(self):
        # The nominal 1.2 V supply is the ISPD'09 pair's fast corner.
        corner = max(ispd09_corners(), key=lambda c: c.vdd)
        assert corner.vdd == 1.2
        assert corner.driver_scale == 1.0


class TestSupplyScaling:
    def test_scale_is_one_at_nominal(self):
        assert driver_scale_for_vdd(1.2) == pytest.approx(1.0)

    def test_lower_supply_is_slower(self):
        assert driver_scale_for_vdd(1.0) > 1.0

    def test_higher_supply_is_faster(self):
        assert driver_scale_for_vdd(1.3) < 1.0

    def test_subthreshold_supply_rejected(self):
        with pytest.raises(ValueError):
            driver_scale_for_vdd(0.2)

    def test_low_corner_slowdown_is_moderate(self):
        # Calibrated to roughly +10% so that CLR lands an order of magnitude
        # above the optimized skew, as in the paper's tables.
        scale = driver_scale_for_vdd(1.0)
        assert 1.05 < scale < 1.2


class TestIspd09Corners:
    def test_two_supply_corners(self):
        corners = ispd09_corners()
        assert len(corners) == 2
        assert {c.vdd for c in corners} == {1.2, 1.0}

    def test_slow_corner_has_larger_driver_scale(self):
        fast, slow = sorted(ispd09_corners(), key=lambda c: -c.vdd)
        assert slow.driver_scale > fast.driver_scale
