"""Iterative buffer sizing with capacitance borrowing (Section IV-I of the paper).

Stronger buffers reduce insertion delay and, with it, the network's exposure
to supply-voltage variation (the CLR objective) -- but every upsizing costs
input/output capacitance against the power limit and risks slew violations on
the upstream stage.  Contango therefore sizes buffers in a carefully bounded
loop:

* at iteration ``i`` the selected buffers grow by at most
  ``p_i = 100 / (i + 3)`` percent (25%, 20%, 16.7%, ...),
* the trunk chain is sized first (it affects all sinks equally, so skew is
  preserved), then the first few levels of branches below the trunk,
* capacitance spent above is *borrowed back* by downsizing the bottom-level
  buffers (those driving only sinks), keeping the total within the limit,
* every iteration runs through the shared IVC engine: it is accepted only if
  the objective improves without slew violations and within the capacitance
  budget; a rejected iteration is rolled back and retried with the growth
  step halved (a rejection usually means the step overshot the slew
  headroom, not that no beneficial upsizing exists).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.evaluator import ClockNetworkEvaluator, EvaluationReport
from repro.core.buffer_sliding import trunk_buffer_nodes
from repro.core.ivc import IvcEngine, IvcGate, IvcState, capacitance_cap_constraints
from repro.core.tuning import PassResult
from repro.cts.tree import ClockTree

__all__ = [
    "buffer_depths",
    "bottom_level_buffers",
    "iterative_buffer_sizing",
]

# Smallest scale capacitance borrowing may shrink a bottom-level buffer to.
MIN_BOTTOM_SCALE = 0.6


def buffer_depths(tree: ClockTree) -> Dict[int, int]:
    """Number of buffered ancestors (inclusive of the node itself) per buffered node.

    Reads buffer sites and links only, so it is memoized on the structure
    revision (resizing a buffer keeps it): the mapping is shared, read-only.
    """
    return tree.memoized("buffer_depths", lambda: _buffer_depths(tree), structural=True)


def _buffer_depths(tree: ClockTree) -> Dict[int, int]:
    depths: Dict[int, int] = {}
    counts: Dict[int, int] = {}
    for node in tree.preorder():
        inherited = 0 if node.parent is None else counts[node.parent]
        own = inherited + (1 if node.has_buffer else 0)
        counts[node.node_id] = own
        if node.has_buffer:
            depths[node.node_id] = own
    return depths


def bottom_level_buffers(tree: ClockTree) -> List[int]:
    """Buffered nodes with no buffered descendants (they drive only sinks/wire).

    Memoized on the structure revision like :func:`buffer_depths`: the list
    is shared, read-only.
    """
    return tree.memoized(
        "bottom_level_buffers", lambda: _bottom_level_buffers(tree), structural=True
    )


def _bottom_level_buffers(tree: ClockTree) -> List[int]:
    has_buffered_descendant: Dict[int, bool] = {}
    for node in tree.postorder():
        flag = False
        for child in node.children:
            child_node = tree.node(child)
            if child_node.has_buffer or has_buffered_descendant[child]:
                flag = True
        has_buffered_descendant[node.node_id] = flag
    return [
        node.node_id
        for node in tree.nodes()
        if node.has_buffer and not has_buffered_descendant[node.node_id]
    ]


def iterative_buffer_sizing(
    tree: ClockTree,
    evaluator: ClockNetworkEvaluator,
    capacitance_limit: Optional[float] = None,
    baseline: Optional[EvaluationReport] = None,
    levels_after_branch: int = 4,
    max_iterations: int = 8,
    max_consecutive_rejections: int = 3,
    gate: Optional[IvcGate] = None,
    candidate_scales: Optional[Sequence[float]] = None,
) -> PassResult:
    """Iteratively upsize trunk (and upper-branch) buffers on ``tree`` in place.

    An iteration is accepted when it reduces CLR without a violation.
    ``max_consecutive_rejections`` bounds the retry-with-halved-growth policy
    inherited from the IVC engine; ``1`` reproduces the historical
    stop-on-first-rejection behavior.  ``gate`` (an optional acceptance gate,
    see :class:`repro.core.variation.VariationGate`) and ``candidate_scales``
    (best-of-K rounds, one growth step per scale) are the round policy,
    handed to :class:`~repro.core.ivc.IvcEngine`.
    """
    engine = IvcEngine(
        "iterative_buffer_sizing",
        tree,
        evaluator,
        objective="clr",
        baseline=baseline,
        constraints=capacitance_cap_constraints(capacitance_limit),
        gate=gate,
        candidate_scales=candidate_scales,
    )
    if not tree.buffers():
        return engine.abort("tree has no buffers to size")

    def propose(state: IvcState) -> int:
        growth = 1.0 + state.aggressiveness / (state.iteration + 3)
        return _apply_sizing_step(tree, growth, levels_after_branch, capacitance_limit)

    return engine.run(
        propose,
        max_rounds=max_iterations,
        empty_note="no buffer eligible for upsizing",
        max_consecutive_rejections=max_consecutive_rejections,
        reject_note="iteration {iteration} rejected: {reason}",
    )


# ----------------------------------------------------------------------
def _apply_sizing_step(
    tree: ClockTree,
    growth: float,
    levels_after_branch: int,
    capacitance_limit: Optional[float],
) -> int:
    """Upsize trunk + upper-branch buffers by ``growth``; borrow capacitance if needed."""
    trunk_nodes: Set[int] = set(trunk_buffer_nodes(tree))
    depths = buffer_depths(tree)
    trunk_depth = max((depths[n] for n in trunk_nodes), default=0)
    upper_branch = {
        node_id
        for node_id, depth in depths.items()
        if node_id not in trunk_nodes and depth <= trunk_depth + levels_after_branch
    }
    bottom = set(bottom_level_buffers(tree)) - trunk_nodes - upper_branch

    touched = 0
    for node_id in trunk_nodes | upper_branch:
        node = tree.node(node_id)
        tree.place_buffer(node_id, node.buffer.scaled(growth))
        touched += 1
    if touched == 0:
        return 0

    if capacitance_limit is not None:
        overshoot = tree.total_capacitance() - capacitance_limit
        if overshoot > 0.0 and bottom:
            _borrow_capacitance(tree, bottom, overshoot)
    return touched


def _borrow_capacitance(tree: ClockTree, bottom: Set[int], overshoot: float) -> None:
    """Downsize bottom-level buffers to recover ``overshoot`` fF of capacitance."""
    bottom_caps = {node_id: tree.node(node_id).buffer.total_cap for node_id in bottom}
    total_bottom = sum(bottom_caps.values())
    if total_bottom <= 0.0:
        return
    scale = max(1.0 - overshoot / total_bottom, MIN_BOTTOM_SCALE)
    if scale >= 1.0:
        return
    for node_id in bottom:
        node = tree.node(node_id)
        tree.place_buffer(node_id, node.buffer.scaled(scale))
