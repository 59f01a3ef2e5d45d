"""Sink-polarity correction (Section IV-D, Proposition 2 of the paper).

The fast buffer-insertion algorithm ignores inverter polarity, so roughly half
of the sinks end up receiving an inverted clock.  Contango repairs this with a
bottom-up marking pass: a node is *marked* when every sink below it needs a
polarity flip but its parent's subtree does not (i.e. the node is a maximal
uniformly-inverted subtree root).  Placing one inverter at every marked node
corrects all sinks, never stacks more than one corrective inverter on any
root-to-sink path, and -- because the marked nodes form the unique minimal
antichain covering the inverted sinks -- uses the minimum possible number of
inverters (Proposition 2).  Two naive strategies from the paper's discussion
are also provided for comparison (they motivate Table II).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.buffering.candidates import max_drivable_capacitance
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree

__all__ = ["PolarityCorrectionResult", "count_inverted_sinks", "correct_sink_polarity"]

# Length (um) of the wire stub left between a corrective inverter and the
# node below it when the inverter is inserted on the node's parent edge.
STUB_LENGTH = 1.0


@dataclass
class PolarityCorrectionResult:
    """Outcome of one polarity-correction run."""

    strategy: str
    inverted_sinks_before: int
    inverted_sinks_after: int
    inverters_added: int
    corrected_nodes: List[int] = field(default_factory=list)


def count_inverted_sinks(tree: ClockTree) -> int:
    """Number of sinks whose delivered polarity differs from the required one."""
    return len(tree.wrong_polarity_sinks())


def correct_sink_polarity(
    tree: ClockTree,
    inverter: BufferType,
    strategy: str = "subtree",
    slew_limit: float = 100.0,
    stronger_inverters: Optional[Sequence[BufferType]] = None,
) -> PolarityCorrectionResult:
    """Correct all inverted sinks of ``tree`` in place.

    Strategies
    ----------
    ``"per-sink"``
        Place one inverter immediately above every inverted sink (the simple
        patch the paper mentions first; adds ~n/2 inverters on average).
    ``"subtree"``
        The bottom-up marking algorithm of Proposition 2 (minimal count).

    ``stronger_inverters`` optionally provides larger composites; when a
    marked subtree's capacitance exceeds what ``inverter`` can drive within
    the slew limit, the smallest sufficient composite from this list is used
    instead, keeping the correction slew-clean.
    """
    if not inverter.inverting:
        raise ValueError("polarity correction requires an inverting buffer")
    before = count_inverted_sinks(tree)
    if before == 0:
        return PolarityCorrectionResult(
            strategy=strategy,
            inverted_sinks_before=0,
            inverted_sinks_after=0,
            inverters_added=0,
        )

    if strategy == "per-sink":
        corrected = _correct_per_sink(tree, inverter)
    elif strategy == "subtree":
        corrected = _correct_subtrees(
            tree, inverter, slew_limit, list(stronger_inverters or [])
        )
    else:
        raise ValueError(f"unknown polarity-correction strategy {strategy!r}")

    after = count_inverted_sinks(tree)
    return PolarityCorrectionResult(
        strategy=strategy,
        inverted_sinks_before=before,
        inverted_sinks_after=after,
        inverters_added=len(corrected),
        corrected_nodes=corrected,
    )


# ----------------------------------------------------------------------
def _correct_per_sink(tree: ClockTree, inverter: BufferType) -> List[int]:
    corrected: List[int] = []
    for sink in tree.wrong_polarity_sinks():
        corrected.append(_insert_inverter_above(tree, sink.node_id, inverter))
    return corrected


def _correct_subtrees(
    tree: ClockTree,
    inverter: BufferType,
    slew_limit: float,
    stronger: List[BufferType],
) -> List[int]:
    polarities = tree.sink_polarities()

    # A subtree is "uniformly wrong" when every sink below needs a flip,
    # "uniformly right" when none does; anything else is mixed.
    WRONG, RIGHT, MIXED = 1, 0, 2
    state: Dict[int, int] = {}
    for node in tree.postorder():
        if node.is_sink:
            wrong = polarities[node.node_id] != node.sink.required_polarity
            state[node.node_id] = WRONG if wrong else RIGHT
            continue
        child_states = {state[c] for c in node.children}
        if child_states == {WRONG}:
            state[node.node_id] = WRONG
        elif child_states == {RIGHT}:
            state[node.node_id] = RIGHT
        else:
            state[node.node_id] = MIXED

    marked: List[int] = []
    for node in tree.preorder():
        if state[node.node_id] != WRONG:
            continue
        parent = tree.parent_of(node.node_id)
        if parent is None or state[parent.node_id] != WRONG:
            marked.append(node.node_id)

    corrected: List[int] = []
    for node_id in marked:
        chosen = _pick_inverter(tree, node_id, inverter, slew_limit, stronger)
        corrected.append(_insert_inverter_above(tree, node_id, chosen, drive_subtree=True))
    return corrected


def _pick_inverter(
    tree: ClockTree,
    node_id: int,
    inverter: BufferType,
    slew_limit: float,
    stronger: List[BufferType],
) -> BufferType:
    """Choose the smallest inverter that can drive the marked subtree cleanly.

    The relevant load is the *stage* the new inverter will drive: the wires
    and pins below the insertion point up to (and including) the next buffer
    inputs, not the whole electrical subtree.
    """
    load = tree.node_load_capacitance(node_id)
    stack = [] if tree.node(node_id).has_buffer else list(tree.node(node_id).children)
    while stack:
        current = tree.node(stack.pop())
        load += tree.edge_capacitance(current.node_id)
        load += tree.node_load_capacitance(current.node_id)
        if not current.has_buffer:
            stack.extend(current.children)
    candidates = [inverter] + sorted(stronger, key=lambda b: b.total_cap)
    for candidate in candidates:
        if load <= max_drivable_capacitance(candidate, slew_limit):
            return candidate
    return candidates[-1]


def _insert_inverter_above(
    tree: ClockTree,
    node_id: int,
    inverter: BufferType,
    drive_subtree: bool = False,
) -> int:
    """Insert an inverter that flips the polarity of ``node_id``'s subtree.

    When the node is an internal node without a buffer the inverter is placed
    directly on it (a buffer at a node drives everything below it).  Sinks,
    buffered nodes and the root child case are handled by splitting the parent
    edge just above the node and placing the inverter on the new node.
    """
    node = tree.node(node_id)
    if drive_subtree and not node.is_sink and not node.has_buffer:
        tree.place_buffer(node_id, inverter)
        return node_id
    if node.parent is None:
        raise ValueError("cannot insert a polarity-correcting inverter above the root")
    length = node.edge_length()
    if length <= STUB_LENGTH:
        fraction = 0.5
    else:
        fraction = 1.0 - STUB_LENGTH / length
    new_node = tree.split_edge(node_id, fraction)
    tree.place_buffer(new_node, inverter)
    return new_node
