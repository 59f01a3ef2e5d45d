"""Slow-down and speed-up slacks for clock trees (Section III of the paper).

Definitions 1 and 2 of the paper introduce, for every sink ``s`` and every
tree edge ``e``:

* slow-down slack  ``Slack_slow(s) = Tmax - T(s)``  /  ``Slack_slow(e) = min over downstream sinks``,
* speed-up slack   ``Slack_fast(s) = T(s) - Tmin``  /  ``Slack_fast(e) = min over downstream sinks``,

the amounts by which a sink (edge) may be unilaterally slowed down (sped up)
without increasing the clock skew.  Lemma 1 gives the O(n) propagation of sink
slacks to edge slacks -- an edge's slack is the minimum over its children's,
which :func:`annotate_tree_slacks` folds in one bottom-up pass over the
tree's memoized :meth:`~repro.cts.tree.ClockTree.sink_postorder` -- Lemma 2
the monotonicity along root-to-sink paths, and
Proposition 1 the per-edge budgets ``Delta(e) = Slack(e) - Slack(parent(e))``
whose application drives every skew optimization in Contango: slowing each
edge down by exactly ``Delta_slow(e)`` produces a zero-skew tree.

Slacks are computed per transition (rise/fall) and, optionally, per corner;
edge slacks take the minimum so that a tuning move is safe for every
transition and corner simultaneously (Section III-B, last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from repro.analysis.evaluator import EvaluationReport
from repro.cts.tree import ClockTree

__all__ = ["SinkSlacks", "SlackAnnotation", "compute_sink_slacks", "annotate_tree_slacks"]


@dataclass(frozen=True)
class SinkSlacks:
    """Per-sink slow-down and speed-up slacks (already minimized over transitions)."""

    slow: Dict[int, float]
    fast: Dict[int, float]

    def worst_sink(self) -> int:
        """The sink with zero slow-down slack (the slowest sink)."""
        return min(self.slow, key=lambda node_id: self.slow[node_id])

    def fastest_sink(self) -> int:
        """The sink with zero speed-up slack (the fastest sink)."""
        return min(self.fast, key=lambda node_id: self.fast[node_id])


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
    """
    corner_names = list(corners) if corners is not None else [report.fast_corner]
    transition_list = list(transitions)
    slow: Dict[int, float] = {}
    fast: Dict[int, float] = {}
    for corner_name in corner_names:
        timing = report.corners[corner_name]
        for transition in transition_list:
            latencies = {
                sink_id: values[transition] for sink_id, values in timing.latency.items()
            }
            tmax = max(latencies.values())
            tmin = min(latencies.values())
            for sink_id, latency in latencies.items():
                slow_slack = tmax - latency
                fast_slack = latency - tmin
                slow[sink_id] = min(slow.get(sink_id, float("inf")), slow_slack)
                fast[sink_id] = min(fast.get(sink_id, float("inf")), fast_slack)
    return SinkSlacks(slow=slow, fast=fast)


def annotate_tree_slacks(
    tree: ClockTree,
    report: EvaluationReport,
    corners: Optional[Sequence[str]] = None,
) -> SlackAnnotation:
    """Propagate sink slacks to every edge (Lemma 1) and compute the deltas (Prop. 1).

    Sink slacks cover both transitions.  Edge slacks are keyed in
    ``tree.nodes()`` order and cover every node with a downstream sink.
    """
    sink_slacks = compute_sink_slacks(report, corners=corners)
    annotation = SlackAnnotation(sink=sink_slacks)

    # Lemma 1 bottom-up: the minimum over the children's minima is the
    # minimum over every downstream sink.
    slow: Dict[int, float] = {}
    fast: Dict[int, float] = {}
    slow_of, fast_of = slow.__getitem__, fast.__getitem__
    for node_id, children in tree.sink_postorder():
        if children:
            slow[node_id] = min(map(slow_of, children))
            fast[node_id] = min(map(fast_of, children))
        else:
            slow[node_id] = sink_slacks.slow[node_id]
            fast[node_id] = sink_slacks.fast[node_id]
    for node in tree.nodes():
        if node.node_id in slow:
            annotation.edge_slow[node.node_id] = slow[node.node_id]
            annotation.edge_fast[node.node_id] = fast[node.node_id]

    for node in tree.nodes():
        if node.node_id not in annotation.edge_slow:
            continue
        if node.parent is None:
            # The root "edge" has, by Lemma 1, the global minimum slack, which
            # is always zero; keep it explicit for delta computation below.
            continue
        parent_slow = annotation.edge_slow.get(node.parent, 0.0)
        parent_fast = annotation.edge_fast.get(node.parent, 0.0)
        annotation.delta_slow[node.node_id] = (
            annotation.edge_slow[node.node_id] - parent_slow
        )
        annotation.delta_fast[node.node_id] = (
            annotation.edge_fast[node.node_id] - parent_fast
        )
    return annotation
