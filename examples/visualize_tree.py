"""Render an optimized clock tree with the slow-down-slack gradient (Figure 3).

Synthesizes the block-level ISPD'09-style benchmark (fnb1, scaled down by
default), annotates every wire with its slow-down slack, and writes
``fnb1_tree.svg`` to the working directory in the style of Figure 3 of the
paper: sinks as crosses, inverters as blue rectangles, wires coloured red (no
slack) to green (large slack).

Run with:  python examples/visualize_tree.py [sink_scale]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.core import ContangoFlow, FlowConfig, annotate_tree_slacks
from repro.viz import save_tree_svg
from repro.workloads import generate_ispd09_benchmark


def main() -> None:
    sink_scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    instance = generate_ispd09_benchmark("ispd09fnb1", sink_scale=sink_scale)
    print(f"synthesizing {instance.name} with {instance.sink_count} sinks ...")

    result = ContangoFlow(FlowConfig(engine="arnoldi")).run(instance)
    print(f"final skew {result.skew:.2f} ps, CLR {result.clr:.2f} ps, "
          f"{result.tree.buffer_count()} inverters")

    evaluator = ClockNetworkEvaluator(
        EvaluatorConfig(engine="arnoldi", slew_limit=instance.slew_limit)
    )
    report = evaluator.evaluate(result.tree)
    annotation = annotate_tree_slacks(result.tree, report)

    out = Path("fnb1_tree.svg")
    save_tree_svg(
        result.tree,
        out,
        annotation=annotation,
        obstacles=instance.obstacles,
        die=instance.die,
        title=f"{instance.name}: skew {result.skew:.1f} ps, CLR {result.clr:.1f} ps",
    )
    print(f"figure written to {out}")


if __name__ == "__main__":
    main()
