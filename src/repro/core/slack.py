"""Slow-down and speed-up slacks for clock trees (Section III of the paper).

Definitions 1 and 2 of the paper introduce, for every sink ``s`` and every
tree edge ``e``:

* slow-down slack  ``Slack_slow(s) = Tmax - T(s)``  /  ``Slack_slow(e) = min over downstream sinks``,
* speed-up slack   ``Slack_fast(s) = T(s) - Tmin``  /  ``Slack_fast(e) = min over downstream sinks``,

the amounts by which a sink (edge) may be unilaterally slowed down (sped up)
without increasing the clock skew.  Lemma 1 gives the O(n) propagation of sink
slacks to edge slacks -- an edge's slack is the minimum over its downstream
sinks -- Lemma 2 the monotonicity along root-to-sink paths, and
Proposition 1 the per-edge budgets ``Delta(e) = Slack(e) - Slack(parent(e))``
whose application drives every skew optimization in Contango: slowing each
edge down by exactly ``Delta_slow(e)`` produces a zero-skew tree.

Lemma 1 is a range-min: in the order the tree's memoized
:meth:`~repro.cts.tree.ClockTree.sink_postorder` reaches them, the
downstream sinks of every node form one contiguous run, so
:func:`annotate_tree_slacks` takes all edge slacks with one
``np.minimum.reduceat`` and all deltas with one vector subtraction.

Slacks are computed per transition (rise/fall) and, optionally, per corner,
on the report's latency arrays; edge slacks take the minimum so that a
tuning move is safe for every transition and corner simultaneously
(Section III-B, last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.evaluator import EvaluationReport
from repro.cts.tree import ClockTree

__all__ = ["SinkSlacks", "SlackAnnotation", "compute_sink_slacks", "annotate_tree_slacks"]


@dataclass(frozen=True)
class SinkSlacks:
    """Per-sink slow-down and speed-up slacks (already minimized over transitions)."""

    slow: Dict[int, float]
    fast: Dict[int, float]


@dataclass
class SlackAnnotation:
    """Edge slacks and per-edge budgets for a specific tree and timing report.

    All dictionaries are keyed by the *child* node id of the edge (the
    convention used throughout :mod:`repro.cts.tree`).  The root carries a
    pseudo-entry with zero slack so that ``delta`` is defined for top edges.
    """

    sink: SinkSlacks
    edge_slow: Dict[int, float] = field(default_factory=dict)
    edge_fast: Dict[int, float] = field(default_factory=dict)
    delta_slow: Dict[int, float] = field(default_factory=dict)
    delta_fast: Dict[int, float] = field(default_factory=dict)

    def normalized_edge_slow(self) -> Dict[int, float]:
        """Edge slow-down slacks scaled to [0, 1] (used for the Figure 3 gradient)."""
        if not self.edge_slow:
            return {}
        peak = max(self.edge_slow.values())
        if peak <= 0.0:
            return {node_id: 0.0 for node_id in self.edge_slow}
        return {node_id: value / peak for node_id, value in self.edge_slow.items()}


def compute_sink_slacks(
    report: EvaluationReport,
    corners: Optional[Sequence[str]] = None,
    transitions: Iterable[str] = ("rise", "fall"),
) -> SinkSlacks:
    """Compute per-sink slacks from an evaluation report (Definition 1).

    ``corners`` selects which corners participate; by default only the
    nominal (fast) corner is used, which matches the nominal-skew optimization
    steps.  Passing several corners yields the conservative multi-corner
    slacks of Section III-B: the minimum over corners of the per-corner slack.
    The dicts are keyed in the report topology's ``sink_ids`` order.
    """
    corner_names = list(corners) if corners is not None else [report.fast_corner]
    transition_list = list(transitions)
    # One row per (corner, transition), one column per sink.
    latency = np.concatenate(
        [report.corners[name].sink_latencies(transition_list) for name in corner_names]
    )
    slow = (latency.max(axis=1, keepdims=True) - latency).min(axis=0)
    fast = (latency - latency.min(axis=1, keepdims=True)).min(axis=0)
    sink_ids = report.topology.sink_ids
    return SinkSlacks(
        slow=dict(zip(sink_ids, slow.tolist())), fast=dict(zip(sink_ids, fast.tolist()))
    )


@dataclass(frozen=True)
class _SinkRuns:
    """Each edge's run of downstream sinks in the sink postorder.

    ``bounds`` interleaves the (start, end) of every edge's run, edges in
    ``tree.nodes()`` order; ``child`` and ``parent`` hold the positions of
    every non-root edge and of its parent edge.  Memoized on the structure
    revision, which a rolled-back ``remove_subtree`` restores while leaving
    the revived nodes at the end of the node table: the edge order is then
    the one from before the removal.
    """

    sinks: List[int]
    edges: List[int]
    bounds: np.ndarray
    deltas: List[int]
    child: np.ndarray
    parent: np.ndarray

    @classmethod
    def of(cls, tree: ClockTree) -> "_SinkRuns":
        runs: Dict[int, Tuple[int, int]] = {}
        sinks: List[int] = []
        for node_id, children in tree.sink_postorder():
            if children:
                runs[node_id] = (runs[children[0]][0], runs[children[-1]][1])
            else:
                runs[node_id] = (len(sinks), len(sinks) + 1)
                sinks.append(node_id)
        edges = [node.node_id for node in tree.nodes() if node.node_id in runs]
        position = {node_id: index for index, node_id in enumerate(edges)}
        parents = [tree.node(node_id).parent for node_id in edges]
        deltas = [node_id for node_id, parent in zip(edges, parents) if parent is not None]
        return cls(
            sinks=sinks,
            edges=edges,
            bounds=np.array([runs[node_id] for node_id in edges], dtype=np.intp).reshape(-1),
            deltas=deltas,
            child=np.array([position[node_id] for node_id in deltas], dtype=np.intp),
            parent=np.array(
                [position[parent] for parent in parents if parent is not None], dtype=np.intp
            ),
        )

    def fold(self, sink_slack: Dict[int, float]) -> Tuple[Dict[int, float], Dict[int, float]]:
        """Edge slacks (Lemma 1) and deltas (Proposition 1) of one sink-slack map."""
        # One trailing pad so a run ending at the last sink is a valid bound.
        values = np.fromiter(map(sink_slack.__getitem__, self.sinks), float, len(self.sinks))
        edge = np.minimum.reduceat(np.append(values, np.inf), self.bounds)[::2]
        delta = edge[self.child] - edge[self.parent]
        return dict(zip(self.edges, edge.tolist())), dict(zip(self.deltas, delta.tolist()))


def annotate_tree_slacks(
    tree: ClockTree,
    report: EvaluationReport,
    corners: Optional[Sequence[str]] = None,
) -> SlackAnnotation:
    """Propagate sink slacks to every edge (Lemma 1) and compute the deltas (Prop. 1).

    Sink slacks cover both transitions.  Edge slacks are keyed in
    ``tree.nodes()`` order and cover every node with a downstream sink; the
    deltas cover the same nodes but the root.
    """
    sink_slacks = compute_sink_slacks(report, corners=corners)
    runs = tree.memoized("sink_runs", lambda: _SinkRuns.of(tree), structural=True)
    if not runs.edges:
        return SlackAnnotation(sink=sink_slacks)
    edge_slow, delta_slow = runs.fold(sink_slacks.slow)
    edge_fast, delta_fast = runs.fold(sink_slacks.fast)
    return SlackAnnotation(
        sink=sink_slacks,
        edge_slow=edge_slow,
        edge_fast=edge_fast,
        delta_slow=delta_slow,
        delta_fast=delta_fast,
    )
