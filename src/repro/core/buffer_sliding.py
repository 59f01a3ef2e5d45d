"""Buffer sliding and interleaving on the tree trunk (Section IV-H of the paper).

DME trees for a boundary clock source contain a long *trunk*: the wire from
the source to the geometric centre of the sinks, after which the tree branches
out.  The trunk contributes a third to a half of the total sink latency and is
shared by every sink, so strengthening its buffer chain improves robustness to
supply variation (CLR) with almost no effect on skew.  Before upsizing,
Contango first re-arranges the trunk inverters:

* *sliding* an inverter up the trunk reduces the wire capacitance its
  predecessor must drive, creating headroom for upsizing without slew
  violations, and
* *interleaving* inserts an extra inverter when two inverters end up too far
  apart after sliding.

This module implements both as a single robust operation: the trunk inverters
are re-spaced uniformly with a pitch bounded by the slew-free span of the
chosen composite inverter, and an extra inverter is added whenever the pitch
bound requires it.  Polarity is preserved by keeping the number of trunk
inverters the same parity as before (interleaving adds inverters in pairs when
needed).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.evaluator import ClockNetworkEvaluator, EvaluationReport
from repro.buffering.candidates import max_drivable_capacitance
from repro.core.ivc import IvcEngine, IvcGate, IvcState
from repro.core.tuning import PassResult
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree

__all__ = ["find_trunk_chain", "trunk_buffer_nodes", "slide_and_interleave_trunk"]

# Fraction of the slew-free span of the trunk buffer used as the pitch bound.
SPACING_MARGIN = 0.85


def find_trunk_chain(tree: ClockTree) -> List[int]:
    """Node ids of the trunk: the single-child chain from the root to the first branch.

    The returned list starts with the root id and ends with the first node
    that has more than one child (or with a sink for degenerate trees).  Edges
    between consecutive entries form the trunk wires.
    """
    chain = [tree.root_id]
    current = tree.root
    while len(current.children) == 1:
        child = tree.node(current.children[0])
        chain.append(child.node_id)
        if child.is_sink:
            break
        current = child
    return chain


def trunk_buffer_nodes(tree: ClockTree) -> List[int]:
    """Ids of trunk nodes that currently carry a buffer."""
    return [node_id for node_id in find_trunk_chain(tree) if tree.node(node_id).has_buffer]


def slide_and_interleave_trunk(
    tree: ClockTree,
    evaluator: ClockNetworkEvaluator,
    baseline: Optional[EvaluationReport] = None,
    gate: Optional[IvcGate] = None,
) -> PassResult:
    """Re-space (and possibly add) trunk inverters; accept only if it helps.

    The pass runs as a single round of the shared IVC engine: it rebuilds the
    trunk buffer chain with uniform pitch inside a tree transaction,
    re-evaluates, and rolls back unless CLR improved without introducing slew
    violations -- the standard IVC step.  The chain uses the strongest buffer
    already on the trunk (or in the tree) and the evaluator's slew limit.
    ``gate`` is an optional IVC acceptance gate (see
    :class:`repro.core.variation.VariationGate`).  The single respacing
    proposal does not read the round's aggressiveness, so it has no best-of-K
    form: K scaled candidates would be K identical moves.
    """
    engine = IvcEngine(
        "trunk_buffer_sliding",
        tree,
        evaluator,
        objective="clr",
        baseline=baseline,
        gate=gate,
    )
    chain = find_trunk_chain(tree)
    if len(chain) < 2:
        return engine.abort("tree has no trunk to rebalance")

    chosen_buffer = _dominant_trunk_buffer(tree, trunk_buffer_nodes(tree))
    if chosen_buffer is None:
        return engine.abort("no trunk buffers and no buffer type supplied")

    def propose(state: IvcState) -> int:
        return _respace_trunk_buffers(
            tree, chain, chosen_buffer, evaluator.config.slew_limit
        )

    return engine.run(
        propose,
        max_rounds=1,
        reject_note="trunk rebalancing rejected by IVC",
    )


# ----------------------------------------------------------------------
def _dominant_trunk_buffer(
    tree: ClockTree, buffer_nodes: Sequence[int]
) -> Optional[BufferType]:
    if buffer_nodes:
        # Use the strongest buffer already present on the trunk.
        return min(
            (tree.node(n).buffer for n in buffer_nodes), key=lambda b: b.output_res
        )
    buffers = tree.buffers()
    if not buffers:
        return None
    return min((n.buffer for n in buffers), key=lambda b: b.output_res)


def _respace_trunk_buffers(
    tree: ClockTree,
    chain: List[int],
    buffer: BufferType,
    slew_limit: float,
) -> int:
    """Uniformly re-space the trunk buffer chain; returns the new buffer count."""
    edges = chain[1:]
    total_length = sum(tree.node(n).edge_length() for n in edges)
    if total_length <= 0.0:
        return 0

    wire = tree.node(edges[0]).wire_type
    unit_cap = wire.unit_capacitance if wire is not None else 0.2
    drivable = max_drivable_capacitance(buffer, slew_limit)
    max_span = max((drivable - buffer.input_cap) / unit_cap * SPACING_MARGIN, 50.0)

    previous_count = sum(1 for n in edges if tree.node(n).has_buffer)
    needed = max(int(total_length // max_span), 1)
    count = max(previous_count, needed)
    # Preserve the trunk's inversion parity so sink polarities stay correct.
    if buffer.inverting and (count - previous_count) % 2 == 1:
        count += 1

    for node_id in edges:
        if tree.node(node_id).has_buffer:
            tree.remove_buffer(node_id)

    targets = [total_length * (i + 1) / (count + 1) for i in range(count)]
    _place_along_chain(tree, edges, targets, buffer)
    return count


def _place_along_chain(
    tree: ClockTree, edges: List[int], targets: List[float], buffer: BufferType
) -> None:
    """Place a buffer at each arc-length target measured along the chain edges."""
    # Group targets by the chain edge that contains them.
    spans: List[Tuple[int, float, float]] = []
    walked = 0.0
    for node_id in edges:
        length = tree.node(node_id).edge_length()
        spans.append((node_id, walked, walked + length))
        walked += length

    per_edge = {}
    for target in targets:
        for node_id, lo, hi in spans:
            if lo <= target <= hi and hi > lo:
                per_edge.setdefault(node_id, []).append((target - lo) / (hi - lo))
                break

    for node_id, fractions in per_edge.items():
        fractions.sort()
        previous = 0.0
        for fraction in fractions:
            local = (fraction - previous) / (1.0 - previous)
            local = min(max(local, 1e-6), 1.0 - 1e-6)
            new_node = tree.split_edge(node_id, local)
            tree.place_buffer(new_node, buffer)
            previous = fraction
