"""Tests for the moment-matching (Arnoldi-style) engine."""

import math

import numpy as np
import pytest

from repro.analysis.arnoldi import arnoldi_stage_timing, batched_delay_sigma, stage_moments
from repro.analysis.elmore import elmore_stage_delays
from repro.analysis.rcnetwork import StageNetwork
from repro.analysis.units import LN2


def single_pole(resistance=100.0, capacitance=500.0):
    """One R, one C: the transfer function is exactly a single pole."""
    return StageNetwork(
        parent=[-1],
        resistance=[0.0],
        capacitance=[capacitance],
        tap_index={7: 0},
        driver_resistance=resistance,
        total_capacitance=capacitance,
    )


def ladder():
    return StageNetwork(
        parent=[-1, 0, 1],
        resistance=[0.0, 80.0, 120.0],
        capacitance=[50.0, 150.0, 250.0],
        tap_index={42: 2},
        driver_resistance=60.0,
        total_capacitance=450.0,
    )


class TestMoments:
    def test_first_moment_equals_elmore(self):
        network = ladder()
        m1, _ = stage_moments(network)
        elmore = elmore_stage_delays(network)
        assert m1[2] == pytest.approx(elmore[42])

    def test_single_pole_second_moment(self):
        # For a single pole, m2 = m1^2.
        network = single_pole()
        m1, m2 = stage_moments(network)
        assert m2[0] == pytest.approx(m1[0] ** 2)

    def test_moments_increase_downstream(self):
        m1, m2 = stage_moments(ladder())
        assert m1[0] < m1[1] < m1[2]
        assert m2[0] < m2[1] < m2[2]


class TestD2MDelay:
    def test_single_pole_delay_is_ln2_tau(self):
        network = single_pole()
        timing = arnoldi_stage_timing(network, input_slew=0.0)
        tau = 100.0 * 500.0 / 1000.0
        assert timing.delay[7] == pytest.approx(LN2 * tau, rel=1e-6)

    def test_delay_never_exceeds_elmore(self):
        network = ladder()
        timing = arnoldi_stage_timing(network, input_slew=0.0)
        assert timing.delay[42] <= elmore_stage_delays(network)[42] + 1e-9

    def test_resistive_shielding_reduces_delay_estimate(self):
        # On a shielded ladder D2M is strictly below Elmore.
        network = ladder()
        timing = arnoldi_stage_timing(network, input_slew=0.0)
        assert timing.delay[42] < elmore_stage_delays(network)[42]

    def test_slew_combines_input_transition(self):
        network = ladder()
        fast_in = arnoldi_stage_timing(network, input_slew=0.0).slew[42]
        slow_in = arnoldi_stage_timing(network, input_slew=80.0).slew[42]
        assert slow_in > fast_in


def scalar_delay_sigma(first, second):
    """One element of :func:`arnoldi_stage_timing`'s metric, ``math.sqrt`` roots.

    The variance floor squares by multiplication, as numpy's ``** 2`` does.
    """
    if second <= 0.0 or first <= 0.0:
        return LN2 * first, first
    delay = min(LN2 * first * first / math.sqrt(second), first)
    floor = 0.1 * first
    return delay, math.sqrt(max(2.0 * second - first * first, floor * floor))


def regular_moments(rng, shape):
    """Positive m1 with m2 / m1^2 spanning both clamps (D2M above Elmore
    below ~0.48, the variance floor below ~0.505)."""
    m1 = rng.uniform(0.05, 250.0, shape)
    return m1, m1 * m1 * rng.uniform(0.2, 3.0, shape)


class TestBatchedDelaySigma:
    """``batched_delay_sigma`` element for element against the scalar metric,
    compared by bytes so the sign of a zero counts."""

    def assert_matches_scalar(self, m1, m2):
        before = (m1.tobytes(), m2.tobytes())
        delay, sigma = batched_delay_sigma(m1, m2)
        assert (m1.tobytes(), m2.tobytes()) == before  # inputs untouched
        pairs = [
            scalar_delay_sigma(first, second)
            for first, second in zip(m1.ravel().tolist(), m2.ravel().tolist())
        ]
        want_delay = np.array([pair[0] for pair in pairs]).reshape(m1.shape)
        want_sigma = np.array([pair[1] for pair in pairs]).reshape(m1.shape)
        assert delay.shape == sigma.shape == m1.shape
        assert delay.tobytes() == want_delay.tobytes()
        assert sigma.tobytes() == want_sigma.tobytes()

    @pytest.mark.parametrize("shape", [(1, 7), (10, 384), (3, 2, 2, 50)])
    def test_all_regular_entries(self, shape):
        rng = np.random.default_rng(1)
        self.assert_matches_scalar(*regular_moments(rng, shape))

    @pytest.mark.parametrize("shape", [(1, 9), (10, 384)])
    def test_degenerate_entries_mixed_with_regular_ones(self, shape):
        rng = np.random.default_rng(2)
        m1, m2 = regular_moments(rng, shape)
        flat1, flat2 = m1.reshape(-1), m2.reshape(-1)
        picks = rng.permutation(flat1.size)
        flat1[picks[0::9]] = 0.0
        flat1[picks[1::9]] = -0.0
        flat2[picks[2::9]] = 0.0
        flat2[picks[3::9]] = -0.0
        flat2[picks[4::9]] = -rng.uniform(0.1, 50.0, len(picks[4::9]))
        flat1[picks[5::9]] = -rng.uniform(0.1, 50.0, len(picks[5::9]))
        degenerate = (m2 <= 0.0) | (m1 <= 0.0)
        assert degenerate.any() and not degenerate.all()
        self.assert_matches_scalar(m1, m2)

    def test_elmore_returns_m1_twice(self):
        m1, m2 = regular_moments(np.random.default_rng(3), (4, 6))
        delay, sigma = batched_delay_sigma(m1, m2, use_d2m=False)
        assert delay is m1 and sigma is m1
