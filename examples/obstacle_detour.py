"""Obstacle detouring walk-through (the Figure 2 scenario of the paper).

Constructs a clock subtree whose sinks sit inside and around a large macro
blockage, runs the three obstacle-repair steps (L-shape flipping, maze
rerouting, subtree capture + contour detouring), reports what each step did,
and writes before/after SVG figures to the working directory.

Run with:  python examples/obstacle_detour.py
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.core.composite import analyze_composites
from repro.cts import ispd09_buffer_library, ispd09_wire_library
from repro.cts.dme import build_zero_skew_tree
from repro.cts.obstacle_avoid import ObstacleAvoider
from repro.cts.topology import SinkInstance
from repro.geometry import Obstacle, ObstacleSet, Point, Rect
from repro.viz import save_tree_svg


def build_scenario():
    """Sinks clustered inside one big compound obstacle plus scattered outside."""
    rng = random.Random(11)
    die = Rect(0.0, 0.0, 6000.0, 6000.0)
    # Two abutting macros form one compound obstacle, as in the paper's Fig. 2.
    obstacles = ObstacleSet(
        [
            Obstacle(Rect(2000.0, 2200.0, 3500.0, 3800.0), name="macro_left"),
            Obstacle(Rect(3500.0, 2600.0, 4400.0, 3400.0), name="macro_right"),
        ]
    )
    sinks = []
    # A register bank whose pins ended up inside the compound obstacle.
    for i in range(6):
        sinks.append(
            SinkInstance(
                name=f"inner_{i}",
                position=Point(rng.uniform(2200.0, 4200.0), rng.uniform(2400.0, 3600.0)),
                capacitance=rng.uniform(30.0, 60.0),
            )
        )
    # Ordinary sinks scattered around the macro.
    for i in range(26):
        while True:
            position = Point(rng.uniform(100.0, 5900.0), rng.uniform(100.0, 5900.0))
            if not obstacles.blocks_point(position):
                break
        sinks.append(
            SinkInstance(
                name=f"outer_{i}",
                position=position,
                capacitance=rng.uniform(15.0, 40.0),
            )
        )
    return die, obstacles, sinks


def main() -> None:
    die, obstacles, sinks = build_scenario()
    wires = ispd09_wire_library()
    buffers = ispd09_buffer_library()
    driver = analyze_composites(buffers).preferred_base

    tree = build_zero_skew_tree(
        sinks, Point(3000.0, 0.0), wires.widest, source_resistance=80.0
    )
    before_wl = tree.total_wirelength()
    before_svg = save_tree_svg(
        tree, Path("detour_before.svg"), obstacles=obstacles, die=die,
        title="Before obstacle repair",
    )

    avoider = ObstacleAvoider(obstacles, die=die, driver=driver, slew_limit=100.0)
    crossing_before = len(avoider.find_crossing_edges(tree))
    report = avoider.repair(tree)
    crossing_after = len(avoider.find_crossing_edges(tree))
    after_svg = save_tree_svg(
        tree, Path("detour_after.svg"), obstacles=obstacles, die=die,
        title="After obstacle repair (contour detours + reroutes)",
    )

    print("obstacle repair report")
    print(f"  edges checked             {report.edges_checked}")
    print(f"  L-shape flips             {report.lshape_flips}")
    print(f"  maze reroutes             {report.maze_reroutes}")
    print(f"  merge nodes legalized     {report.nodes_legalized}")
    print(f"  enclosed subtrees found   {report.subtrees_captured}")
    print(f"  subtrees detoured         {report.subtrees_detoured}")
    print(f"  added detour wirelength   {report.detour_wirelength:.0f} um")
    print(f"  crossing edges            {crossing_before} -> {crossing_after}")
    print(f"  total wirelength          {before_wl:.0f} -> {tree.total_wirelength():.0f} um")
    print(f"\nfigures written: {before_svg.name}, {after_svg.name}")


if __name__ == "__main__":
    main()
