"""Deterministic instance/tree builders shared by tests and benchmarks.

These helpers used to live in ``tests/conftest.py``, but importing them as
``from conftest import ...`` breaks when pytest collects from the repository
root: both ``tests/`` and ``benchmarks/`` ship a ``conftest.py``, both
directories land on ``sys.path``, and the module name ``conftest`` resolves to
whichever was imported first.  Hosting the builders inside the installed
``repro`` package gives them a collision-free import path
(``from repro.testing import make_small_instance``) that works from any
rootdir, in any embedding project, and without ``sys.path`` hacks.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.composite import analyze_composites
from repro.cts import ClockTree, Sink, ispd09_buffer_library, ispd09_wire_library
from repro.cts.dme import build_zero_skew_tree
from repro.cts.obstacle_avoid import repair_obstacle_violations
from repro.cts.spec import ClockNetworkInstance
from repro.cts.topology import SinkInstance
from repro.geometry import Obstacle, ObstacleSet, Point, Rect

__all__ = [
    "make_sinks",
    "tree_fingerprint",
    "make_small_instance",
    "make_manual_tree",
    "make_zst_tree",
    "make_initial_tree",
]


def make_sinks(
    count: int, die: Rect, seed: int = 7, cap_range: Tuple[float, float] = (15.0, 45.0)
) -> List[SinkInstance]:
    """Deterministic random sinks inside ``die``."""
    # repro: lint-ok[unseeded-rng] pinned legacy fixture stream; goldens depend on it
    rng = random.Random(seed)
    return [
        SinkInstance(
            name=f"s{i}",
            position=Point(rng.uniform(die.xlo, die.xhi), rng.uniform(die.ylo, die.yhi)),
            capacitance=rng.uniform(*cap_range),
        )
        for i in range(count)
    ]


def make_small_instance(
    sink_count: int = 24,
    with_obstacles: bool = True,
    seed: int = 7,
    die_size: float = 3000.0,
) -> ClockNetworkInstance:
    """A small, fast-to-evaluate clock-network instance."""
    die = Rect(0.0, 0.0, die_size, die_size)
    obstacles = ObstacleSet()
    if with_obstacles:
        obstacles.add(Obstacle(Rect(0.3 * die_size, 0.4 * die_size, 0.5 * die_size, 0.6 * die_size), name="blk0"))
        obstacles.add(Obstacle(Rect(0.65 * die_size, 0.15 * die_size, 0.8 * die_size, 0.35 * die_size), name="blk1"))
    # repro: lint-ok[unseeded-rng] pinned legacy fixture stream; goldens depend on it
    rng = random.Random(seed)
    sinks = []
    while len(sinks) < sink_count:
        p = Point(rng.uniform(0.0, die_size), rng.uniform(0.0, die_size))
        if obstacles.blocks_point(p):
            continue
        sinks.append(SinkInstance(f"s{len(sinks)}", p, rng.uniform(15.0, 45.0)))
    instance = ClockNetworkInstance(
        name="unit_test_block",
        die=die,
        source=Point(die_size / 2.0, 0.0),
        sinks=sinks,
        obstacles=obstacles,
        capacitance_limit=45000.0,
    )
    instance.validate()
    return instance


def make_manual_tree() -> ClockTree:
    """A tiny hand-built buffered tree: source -> buffer -> two sinks + one near sink."""
    wires = ispd09_wire_library()
    buffers = ispd09_buffer_library()
    tree = ClockTree(Point(0.0, 0.0), source_resistance=80.0, default_wire=wires.widest)
    hub = tree.add_internal(tree.root_id, Point(400.0, 0.0))
    tree.place_buffer(hub, buffers.by_name("INV_S").parallel(8))
    tree.add_sink(hub, Point(800.0, 250.0), Sink("a", 20.0))
    tree.add_sink(hub, Point(800.0, -250.0), Sink("b", 25.0))
    tree.add_sink(tree.root_id, Point(120.0, 100.0), Sink("c", 30.0))
    tree.validate()
    return tree


def make_zst_tree(sink_count: int = 24, seed: int = 7, die_size: float = 3000.0) -> ClockTree:
    """A zero-skew DME tree over random sinks (unbuffered)."""
    die = Rect(0.0, 0.0, die_size, die_size)
    sinks = make_sinks(sink_count, die, seed=seed)
    return build_zero_skew_tree(
        sinks, Point(die_size / 2.0, 0.0), ispd09_wire_library().widest, source_resistance=80.0
    )


def make_initial_tree(instance: ClockNetworkInstance) -> ClockTree:
    """The tree the INITIAL stage buffers, under the default flow settings.

    A zero-skew DME tree over the instance's sinks, repaired around its
    obstacles with the composite driver the stage uses -- what
    ``InitialSynthesisPass`` hands to the buffer-insertion sweep.
    """
    tree = build_zero_skew_tree(
        instance.sinks,
        instance.source,
        instance.wire_library.default,
        source_resistance=instance.source_resistance,
        obstacles=instance.obstacles,
    )
    if len(instance.obstacles):
        repair_obstacle_violations(
            tree,
            instance.obstacles,
            die=instance.die,
            driver=analyze_composites(instance.buffer_library).preferred_base,
            slew_limit=instance.slew_limit,
        )
    return tree


def tree_fingerprint(tree: ClockTree) -> tuple:
    """Hashable digest of a tree's complete state, journal revisions included.

    Two equal fingerprints mean identical topology, geometry, electrical
    content *and* cache identity (node/structure revisions), which is exactly
    what an IVC rollback must restore.  Used by the transaction property
    tests; cheap enough for unit-test-sized trees only.
    """
    nodes = []
    for node in sorted(tree.nodes(), key=lambda n: n.node_id):
        nodes.append(
            (
                node.node_id,
                node.parent,
                tuple(node.children),
                node.kind.value,
                (node.position.x, node.position.y),
                None
                if node.sink is None
                else (node.sink.name, node.sink.capacitance, node.sink.required_polarity),
                None
                if node.buffer is None
                else (node.buffer.name, node.buffer.input_cap, node.buffer.output_res),
                None if node.wire_type is None else node.wire_type.name,
                node.snake_length,
                tuple((p.x, p.y) for p in node.route),
                tree.node_revision(node.node_id),
            )
        )
    return (tree.root_id, tree.structure_revision, tuple(nodes))
