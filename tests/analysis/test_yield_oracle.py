"""Per-sample oracle for the Monte Carlo yield sweep.

:meth:`ClockNetworkEvaluator.evaluate_yield` walks every sample at once, in
blocks, through the one propagation kernel.  The oracle below walks each
sample on its own, stage by stage and tap by tap in Python floats: the same
draws, per-stage moments from the per-stage reference reduction, one-row
``batched_tap_moments``/``batched_delay_sigma`` calls for the stage models
and a ``math.sqrt`` PERI root.  Every sample's skew, CLR and worst slew must
equal it bit for bit, for both analytical engines, all three sampling
families, a corner pair that scales wires alike and one that does not, on
trees whose drivers are inverters.  A second test pins that the block size
never changes a result.
"""

import math

import numpy as np
import pytest

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.analysis import evaluator as evaluator_module
from repro.analysis.arnoldi import batched_delay_sigma, batched_tap_moments
from repro.analysis.corners import ispd09_corners, supply_driver_multiplier
from repro.analysis.evaluator import (
    BUFFER_SLEW_REGENERATION,
    SLEW_DELAY_FACTOR,
    SOURCE_SLEW,
)
from repro.analysis.rcnetwork import (
    PULL_DOWN_FACTOR,
    PULL_UP_FACTOR,
    build_stage_topology,
    extract_stages,
)
from repro.analysis.units import LN9
from repro.analysis.variation import VariationModel, default_variation_model
from repro.core import ContangoFlow, FlowConfig
from repro.seeding import derive_rng
from repro.workloads import generate_ti_benchmark
from tests.analysis.stage_reference import base_tap_moments, build_base_stage_network

TRANSITIONS = ("rise", "fall")
SAMPLES = 12


def wire_scaled_pair():
    """The ISPD'09 pair with the slow corner's wires 10% more resistive and
    capacitive, so the corners' wire scales differ."""
    fast, slow = ispd09_corners()
    return [fast, slow.scaled(wire=1.1)]


CORNER_SETS = {"ispd09": ispd09_corners, "wire_scaled": wire_scaled_pair}


def variation_model(family, corners):
    if family == "corner_anchored":
        # Zero noise: the draws are broadcast views of one global sweep.
        return VariationModel.from_corners(corners)
    return default_variation_model(family)


def driver_positions(tree, stages):
    return np.array(
        [
            (tree.node(stage.driver_id).position.x, tree.node(stage.driver_id).position.y)
            for stage in stages
        ]
    )


def oracle_yield(tree, corners, engine, model, samples, rng, max_segment_length):
    """(skew, clr, worst slew) lists, one entry per sample, walked one by one."""
    stages = extract_stages(tree)
    draws = model.sample(samples, rng, positions=driver_positions(tree, stages))
    split = any(corner.wire_cap_scale != 1.0 for corner in corners) or model.perturbs_wire_cap
    moments = [
        base_tap_moments(
            build_base_stage_network(tree, stage, max_segment_length), split_wire_load=split
        )
        for stage in stages
    ]
    # Driver multipliers on the full (samples, stages) arrays, then indexed:
    # numpy's power may round one element of a vector differently from the
    # same value alone.
    driver_mult = [
        draws.driver * supply_driver_multiplier(corner.vdd, draws.vdd_shift)
        for corner in corners
    ]
    fast = max(range(len(corners)), key=lambda index: corners[index].vdd)
    slow = min(range(len(corners)), key=lambda index: corners[index].vdd)
    use_d2m = engine == "arnoldi"
    skew, clr, worst = [], [], []
    for sample in range(samples):
        high, low = {}, {}
        worst_slew = 0.0
        for position, corner in enumerate(corners):
            for launch in TRANSITIONS:
                state = {tree.root_id: (0.0, SOURCE_SLEW, launch)}
                for index, (stage, base) in enumerate(zip(stages, moments)):
                    arrival, in_slew, direction = state[stage.driver_id]
                    stage_driver = float(driver_mult[position][sample, index])
                    buffer = tree.node(stage.driver_id).buffer
                    drive = in_slew
                    if buffer is not None:
                        if buffer.inverting:
                            direction = "fall" if direction == "rise" else "rise"
                        drive = BUFFER_SLEW_REGENERATION * in_slew
                        gate = buffer.intrinsic_delay * (corner.driver_scale * stage_driver)
                        arrival = arrival + (gate + SLEW_DELAY_FACTOR * in_slew)
                    asym = PULL_UP_FACTOR if direction == "rise" else PULL_DOWN_FACTOR
                    m1, m2 = batched_tap_moments(
                        base,
                        [(corner.driver_scale * asym) * stage_driver],
                        [corner.wire_res_scale * float(draws.wire_res[sample, index])],
                        [corner.wire_cap_scale * float(draws.wire_cap[sample, index])],
                    )
                    delay, sigma = batched_delay_sigma(m1, m2, use_d2m=use_d2m)
                    for col, tap in enumerate(stage.taps):
                        tap_arrival = arrival + float(delay[0, col])
                        wire = LN9 * float(sigma[0, col])
                        tap_slew = math.sqrt(wire * wire + drive * drive)
                        worst_slew = max(worst_slew, tap_slew)
                        node = tree.node(tap)
                        if node.is_sink:
                            key = (position, direction)
                            high[key] = max(high.get(key, -math.inf), tap_arrival)
                            low[key] = min(low.get(key, math.inf), tap_arrival)
                        if node.buffer is not None:
                            state[tap] = (tap_arrival, tap_slew, direction)
        skew.append(max(high[fast, t] - low[fast, t] for t in TRANSITIONS))
        clr.append(max(high[slow, t] - low[fast, t] for t in TRANSITIONS))
        worst.append(worst_slew)
    return skew, clr, worst


def same_bits(actual, expected):
    expected = np.asarray(expected, dtype=np.float64)
    return actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def flow_trees():
    trees = {}
    for engine in ("arnoldi", "elmore"):
        config = FlowConfig(engine=engine, pipeline=["initial"])
        trees[engine] = ContangoFlow(config).run(generate_ti_benchmark(40, 1)).require_tree()
    return trees


@pytest.mark.parametrize("corner_set", sorted(CORNER_SETS))
@pytest.mark.parametrize("family", ["independent", "correlated", "corner_anchored"])
@pytest.mark.parametrize("engine", ["arnoldi", "elmore"])
def test_every_sample_matches_the_scalar_oracle(flow_trees, engine, family, corner_set):
    tree = flow_trees[engine]
    stages = extract_stages(tree)
    buffers = [tree.node(stage.driver_id).buffer for stage in stages]
    assert any(buffer is not None and buffer.inverting for buffer in buffers)
    corners = CORNER_SETS[corner_set]()
    model = variation_model(family, corners)
    config = EvaluatorConfig(engine=engine)
    evaluator = ClockNetworkEvaluator(config, corners=corners)
    report = evaluator.evaluate_yield(
        tree, model, samples=SAMPLES, rng=derive_rng(11, "yield-oracle", family)
    )
    skew, clr, worst = oracle_yield(
        tree,
        corners,
        engine,
        model,
        SAMPLES,
        derive_rng(11, "yield-oracle", family),
        config.max_segment_length,
    )
    assert same_bits(report.skew_samples, skew)
    assert same_bits(report.clr_samples, clr)
    assert same_bits(report.worst_slew_samples, worst)
    # Real variance: the samples are not all one value.
    assert len(set(report.skew_samples.tolist())) > 1


@pytest.fixture(scope="module")
def ti200_tree():
    config = FlowConfig(engine="arnoldi", pipeline=["initial"])
    return ContangoFlow(config).run(generate_ti_benchmark(200)).require_tree()


@pytest.mark.parametrize("family", ["independent", "correlated", "corner_anchored"])
def test_block_size_never_changes_a_sample(ti200_tree, monkeypatch, family):
    samples = 50
    corners = ispd09_corners()
    model = variation_model(family, corners)
    taps = len(build_stage_topology(ti200_tree).tap_ids)
    batches = []
    walk = ClockNetworkEvaluator._walk

    def spy(self, *args, **kwargs):
        batches.append(kwargs["batch"])
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(ClockNetworkEvaluator, "_walk", spy)

    def sweep():
        batches.clear()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"), corners=corners)
        return evaluator.evaluate_yield(
            ti200_tree, model, samples=samples, rng=derive_rng(5, "blocks", family)
        )

    whole = sweep()
    assert batches == [samples]
    # 16 samples per block: blocks of 16, 16, 16 and a ragged 2.
    monkeypatch.setattr(
        evaluator_module, "_YIELD_BLOCK_ELEMENTS", 2 * len(corners) * taps * 16
    )
    blocked = sweep()
    assert batches == [16, 16, 16, 2]
    for name in ("skew_samples", "clr_samples", "worst_slew_samples"):
        assert same_bits(getattr(blocked, name), getattr(whole, name)), name
