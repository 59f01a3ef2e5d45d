"""Bit-parity oracle for the ladder walk of the van Ginneken DP.

:func:`repro.buffering.vanginneken.run_ladder` runs the DP for a whole
ladder of buffer types over one plan of the tree, on plain-tuple options.
``vanginneken_reference.ReferenceInserter`` is the frozen-dataclass DP it
replaced, run once per buffer type.  For every buffer type the two must
choose the same sites in the same order, report the same delay estimate
bit for bit, and leave identical trees once the sites are applied.

The trees are DME trees over random and TI-style sinks, with or without a
blockage, and the INITIAL stage's own input on the maze and macros
scenarios: their detoured, station-dense edges are where options come
within the 1e-12 dominance tolerance of each other.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.jobs import JobSpec
from repro.buffering.vanginneken import VanGinnekenInserter, apply_insertion, run_ladder
from repro.core import ContangoFlow, FlowConfig, pipeline
from repro.cts import ispd09_buffer_library
from repro.cts.dme import build_zero_skew_tree
from repro.geometry import Obstacle, ObstacleSet, Rect
from repro.runner import resolve_instance
from repro.testing import make_initial_tree, make_zst_tree
from repro.workloads import generate_ti_benchmark

from vanginneken_reference import ReferenceInserter

INV_S = ispd09_buffer_library().by_name("INV_S")


def build_tree(family, sinks, seed, blocked):
    """A tree to buffer and the ``obstacles``/``die`` to buffer it under."""
    if family == "zst":
        die = Rect(0.0, 0.0, 3000.0, 3000.0)
        tree = make_zst_tree(sink_count=sinks, seed=seed)
    elif family == "ti":
        instance = generate_ti_benchmark(sinks, seed=seed)
        die = instance.die
        tree = build_zero_skew_tree(
            instance.sinks,
            instance.source,
            instance.wire_library.default,
            source_resistance=instance.source_resistance,
        )
    else:
        spec = JobSpec(instance=f"scenario:{family}:sinks={sinks}", seed=seed)
        instance = resolve_instance(spec)
        return make_initial_tree(instance), dict(obstacles=instance.obstacles, die=instance.die)
    return tree, dict(obstacles=blockage(die) if blocked else None, die=die)


def blockage(die):
    """One blockage over the middle of the die, as wide as a third of it."""
    w, h = die.width, die.height
    rect = Rect(die.xlo + w / 3.0, die.ylo + h / 3.0, die.xlo + 2 * w / 3.0, die.ylo + 2 * h / 3.0)
    return ObstacleSet([Obstacle(rect, name="blk")])


def tree_state(tree):
    """Node ids, links, positions, routes and buffers (not journal revisions)."""
    return [
        (
            node.node_id,
            node.parent,
            tuple(node.children),
            (node.position.x, node.position.y),
            tuple((p.x, p.y) for p in node.route),
            node.snake_length,
            None if node.wire_type is None else node.wire_type.name,
            None if node.buffer is None else node.buffer.name,
        )
        for node in sorted(tree.nodes(), key=lambda n: n.node_id)
    ]


def station_keys(stations):
    return [(s.edge_node, s.distance_from_child, s.fraction_from_parent) for s in stations]


def assert_ladder_matches_reference(tree, ladder, **params):
    results = run_ladder(tree, ladder, **params)
    assert [r.buffer for r in results] == ladder
    for buffer, result in zip(ladder, results):
        expected_tree = tree.clone()
        expected = ReferenceInserter(buffer, **params).insert(expected_tree, apply=True)
        assert result.buffer_count == expected.buffer_count
        assert result.worst_delay_estimate == expected.worst_delay_estimate
        assert result.slew_feasible == expected.slew_feasible
        assert result.node_sites == expected.node_sites
        assert station_keys(result.station_sites) == station_keys(expected.station_sites)
        assert result.station_sites == expected.station_sites
        applied = tree.clone()
        apply_insertion(applied, result)
        assert tree_state(applied) == tree_state(expected_tree)


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["zst", "ti", "maze", "macros"]),
    sinks=st.integers(min_value=6, max_value=200),
    seed=st.integers(min_value=0, max_value=50),
    blocked=st.booleans(),
    steps=st.integers(min_value=1, max_value=4),
    max_options=st.sampled_from([4, 8, 16, 32]),
    spacing=st.sampled_from([150.0, 250.0, 600.0]),
    margin=st.sampled_from([0.70, 0.85]),
)
def test_ladder_walk_matches_reference_dp(
    family, sinks, seed, blocked, steps, max_options, spacing, margin
):
    tree, region = build_tree(family, sinks, seed, blocked)
    assert_ladder_matches_reference(
        tree,
        [INV_S.parallel(8 * k) for k in range(1, steps + 1)],
        slew_margin=margin,
        station_spacing=spacing,
        max_options=max_options,
        **region,
    )


def test_baseline_setting_matches_reference_dp():
    """The baselines' one-buffer setting: margin 0.85, 16 options."""
    tree, region = build_tree("ti", 120, 3, blocked=True)
    assert_ladder_matches_reference(
        tree,
        [INV_S.parallel(8)],
        slew_margin=0.85,
        station_spacing=250.0,
        max_options=16,
        **region,
    )


def test_initial_tree_is_the_sweeps_input():
    """``make_initial_tree`` builds exactly the tree INITIAL hands the sweep."""
    instance = resolve_instance(JobSpec(instance="scenario:maze:sinks=24", seed=2))
    seen = []
    sweep = pipeline.insert_buffers_with_sizing

    def spy(tree, *args, **kwargs):
        seen.append(tree_state(tree))
        return sweep(tree, *args, **kwargs)

    with mock.patch.object(pipeline, "insert_buffers_with_sizing", side_effect=spy):
        ContangoFlow(FlowConfig(engine="elmore", pipeline=["initial"])).run(instance)
    assert seen == [tree_state(make_initial_tree(instance))]


def test_inserter_is_the_one_buffer_ladder():
    tree = make_zst_tree(sink_count=40)
    buffer = INV_S.parallel(16)
    (expected,) = run_ladder(tree, [buffer], max_options=8)
    result = VanGinnekenInserter(buffer, max_options=8).insert(tree, apply=True)
    assert result == expected
    assert tree.buffer_count() == result.buffer_count
