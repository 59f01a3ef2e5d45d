"""Oracle tests for the evaluator's propagation kernel.

``ClockNetworkEvaluator`` applies the stage recurrence -- inversion tracking,
gate delay, slew regeneration and the PERI slew root -- in exactly one place,
a numpy walk over a batch axis.  The oracle below restates that recurrence
as a per-stage, per-tap pure-Python walk with a ``math.sqrt`` root, straight
from the documented model, and the property asserts that every corner's
``latency``, ``slew`` and ``tap_slew`` dict of ``evaluate()`` equals it bit
for bit -- on freshly buffered trees (full walks) and after random touches
(partial walks that read retained taps from the previous walk).
"""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.analysis.arnoldi import batched_delay_sigma, batched_tap_moments
from repro.analysis.evaluator import (
    BUFFER_SLEW_REGENERATION,
    SLEW_DELAY_FACTOR,
    SOURCE_SLEW,
    peri_slew,
)
from repro.analysis.rcnetwork import PULL_DOWN_FACTOR, PULL_UP_FACTOR, extract_stages
from repro.analysis.units import LN9
from repro.core import ContangoFlow, FlowConfig
from repro.cts import ispd09_wire_library
from repro.workloads import generate_ti_benchmark
from tests.analysis.stage_reference import base_tap_moments, build_base_stage_network

TRANSITIONS = ("rise", "fall")
WIRES = list(ispd09_wire_library())


def oracle_timing(tree, config, corners):
    """{corner name: (latency, slew, tap_slew)} from a scalar reference walk."""
    stages = extract_stages(tree)
    split = any(corner.wire_cap_scale != 1.0 for corner in corners)
    combos = [(corner, t) for corner in corners for t in TRANSITIONS]
    drive_scales = [
        c.driver_scale * (PULL_UP_FACTOR if t == "rise" else PULL_DOWN_FACTOR)
        for c, t in combos
    ]
    models = []
    for stage in stages:
        network = build_base_stage_network(tree, stage, config.max_segment_length)
        moments = base_tap_moments(network, split_wire_load=split)
        m1, m2 = batched_tap_moments(
            moments, drive_scales, [c.wire_res_scale for c, _ in combos],
            [c.wire_cap_scale for c, _ in combos],
        )
        delay, sigma = batched_delay_sigma(m1, m2, use_d2m=config.engine == "arnoldi")
        models.append((delay.tolist(), sigma.tolist()))
    timing = {}
    for position, corner in enumerate(corners):
        latency, slew, tap_slew = {}, {}, {}
        for launch in TRANSITIONS:
            root = tree.root_id
            state = {root: (0.0, SOURCE_SLEW, launch)}
            for stage, (delay, sigma) in zip(stages, models):
                arrival, in_slew, direction = state[stage.driver_id]
                buffer = tree.node(stage.driver_id).buffer
                drive = in_slew
                if buffer is not None:
                    if buffer.inverting:
                        direction = "fall" if direction == "rise" else "rise"
                    drive = BUFFER_SLEW_REGENERATION * in_slew
                    gate = buffer.intrinsic_delay * corner.driver_scale
                    arrival = arrival + (gate + SLEW_DELAY_FACTOR * in_slew)
                row = 2 * position + TRANSITIONS.index(direction)
                for col, tap in enumerate(stage.taps):
                    tap_arrival = arrival + delay[row][col]
                    wire = LN9 * sigma[row][col]
                    tap_slew_value = math.sqrt(wire * wire + drive * drive)
                    tap_slew.setdefault(tap, {})[direction] = tap_slew_value
                    node = tree.node(tap)
                    if node.is_sink:
                        latency.setdefault(tap, {})[direction] = tap_arrival
                        slew.setdefault(tap, {})[direction] = tap_slew_value
                    if node.buffer is not None:
                        state[tap] = (tap_arrival, tap_slew_value, direction)
        timing[corner.name] = (latency, slew, tap_slew)
    return timing


def assert_matches_oracle(evaluator, tree):
    report = evaluator.evaluate(tree)
    expected = oracle_timing(tree, evaluator.config, evaluator.corners)
    for name, (latency, slew, tap_slew) in expected.items():
        got = report.corners[name]
        assert got.latency == latency
        assert got.slew == slew
        assert got.tap_slew == tap_slew
        assert list(got.latency) == list(latency)  # sink order too


@settings(max_examples=10, deadline=None)
@given(
    sinks=st.integers(min_value=20, max_value=120),
    seed=st.integers(min_value=0, max_value=2**16),
    engine=st.sampled_from(["elmore", "arnoldi"]),
    touches=st.integers(min_value=1, max_value=4),
)
def test_evaluate_matches_scalar_oracle(sinks, seed, engine, touches):
    instance = generate_ti_benchmark(sinks, seed)
    tree = ContangoFlow(FlowConfig(engine=engine, pipeline=["initial"])).run(instance).require_tree()
    evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine=engine))
    assert_matches_oracle(evaluator, tree)
    rng = random.Random(seed)
    edges = [node.node_id for node in tree.nodes() if node.parent is not None]
    for _ in range(touches):
        edge = rng.choice(edges)
        if rng.random() < 0.5:
            tree.add_snake(edge, rng.uniform(0.5, 40.0))
        else:
            tree.set_wire_type(edge, rng.choice(WIRES))
        assert_matches_oracle(evaluator, tree)
    assert evaluator.cache_stats()["propagations_partial"] == touches


def test_peri_slew_root_is_numpy_sqrt():
    # C pow (Python's ``** 0.5``) and the correctly rounded sqrt disagree in
    # the last bit on a small fraction of inputs; the kernel's one root must
    # be sqrt at every batch width.
    rng = np.random.default_rng(0)
    sigma = rng.uniform(0.1, 60.0, 20_000)
    drive = rng.uniform(0.1, 40.0, 20_000)
    wire = LN9 * sigma
    radicand = wire * wire + drive * drive
    disagree = [
        index
        for index, value in enumerate(radicand.tolist())
        if value ** 0.5 != math.sqrt(value)
    ]
    assert len(disagree) >= 3
    picks = np.array(disagree[:3])
    for rows in (1, 3):
        # One tap, ``rows`` batch rows: sigma is taps-major (taps, rows).
        got = peri_slew(sigma[None, picks[:rows]], drive[picks[:rows]])
        assert got.shape == (1, rows)
        assert got[0].tolist() == np.sqrt(radicand[picks[:rows]]).tolist()
        assert got[0].tolist() == [math.sqrt(v) for v in radicand[picks[:rows]].tolist()]
