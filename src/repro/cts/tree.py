"""The clock-tree data model shared by construction, optimization and analysis.

A :class:`ClockTree` is a rooted tree.  Every node has a planar position; the
edge between a node and its parent carries a rectilinear route, a wire type,
and an optional *snake length* (extra wirelength added by wiresnaking or by
obstacle detours).  A node may additionally hold a buffer/inverter that drives
its entire downstream subtree, and leaf nodes hold sink loads.

The structure is deliberately mutable: Contango's optimization passes edit
wire types, snake lengths and buffers in place, snapshot the tree with
:meth:`ClockTree.clone` before risky changes, and roll back when a SPICE-style
evaluation reports a regression or a slew violation.

Change tracking
---------------
Every mutation is journalled so that downstream consumers (most importantly
the incremental :class:`repro.analysis.evaluator.ClockNetworkEvaluator`) can
re-analyze only what actually changed:

* each node carries a **revision** (:meth:`ClockTree.node_revision`), bumped
  whenever the node's electrical content changes -- buffer placed/removed/
  resized, wire type reassigned, snaking added, route or position edited;
* the tree carries a **structure revision**
  (:attr:`ClockTree.structure_revision`), bumped whenever the decomposition
  into buffer stages can change -- children added, edges split, subtrees
  re-parented or removed, buffers placed on or removed from a node;
* the tree also carries one **whole-tree revision**
  (:attr:`ClockTree.revision`), which every mutation moves: it takes the
  value each node-revision bump, structure bump or node creation just drew.

Revisions are drawn from one process-global monotonic counter, so a
``(node_id, revision)`` pair observed anywhere uniquely identifies that
node's content at that moment: clones share revisions (their content is
identical at clone time) while any later edit, in either tree, produces a
revision never seen before.  That property is what lets the evaluator use
revisions as content-addressed cache keys across snapshots, probes and
rollbacks.  Equally, two trees (or two moments of one tree) with equal
whole-tree revisions hold equal nodes and links.  The source resistance is
a plain attribute outside every revision.

Whole-tree analytics are memoized on the tree (:meth:`ClockTree.memoized`):
a value is kept under a name together with the revision it was computed at
-- :attr:`~ClockTree.revision` for values that read electrical content,
:attr:`~ClockTree.structure_revision` for values that read topology alone
(:meth:`~ClockTree.downstream_sinks_map`, :meth:`~ClockTree.sink_postorder`)
-- and recomputed only once that revision moves.  Since a rollback restores
both revisions verbatim and a clone copies them (and the memo), a memoized
value is exact by construction across rollbacks and clones.  Memoized
values are shared between callers: treat them as read-only.

Checkpoints
-----------
Optimization rounds used to snapshot with :meth:`ClockTree.clone` (O(n) per
round even when the round touches three edges).  The journal-revision
checkpoint API replaces that on the hot path:

* :meth:`ClockTree.checkpoint` opens a transaction and returns a token;
  from then on every mutator appends O(1) undo records to a journal.  The
  field edits of the optimization rounds (:meth:`~ClockTree.set_wire_type`,
  :meth:`~ClockTree.add_snake`, :meth:`~ClockTree.place_buffer`,
  :meth:`~ClockTree.remove_buffer`) record the one field they change with
  the node's old revision, one record per call.  Structural edits and
  :meth:`~ClockTree.journal_node` surgery record a pre-image: a copy of the
  whole node, taken on the first touch per node per checkpoint;
* :meth:`ClockTree.rollback_to` replays the records back to the token in
  reverse, in O(records), restoring node *revisions*, the structure
  revision and the whole-tree revision verbatim so content-addressed caches
  (the evaluator's stage cache, the tree's own memo) recognise the
  rolled-back state as already analyzed.  A field record is undone in
  place, so the node stays the same object; a pre-image replaces the node
  object with the copy;
* :meth:`ClockTree.release` closes an accepted transaction and drops its
  journal entries once no checkpoint is left open; the whole-tree revision
  stays where the edits moved it.

Analyses that probe the tree (the wire-delay model calibrations) perturb it
under a checkpoint, evaluate and roll back, rather than editing a clone.

Checkpoints nest and must be released/rolled back LIFO.  With no checkpoint
outstanding the journal hooks are a single branch per mutation.  Code that
edits :class:`TreeNode` attributes directly (bypassing the mutators) must
call :meth:`ClockTree.journal_node` *before* the edit -- and :meth:`touch`
after it -- to stay transactional.  One caveat: nodes deleted by
:meth:`remove_subtree` are re-inserted at the end of the node table on
rollback, so their *iteration order* (not their content) can differ from a
:meth:`clone`-based restore.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.cts.bufferlib import BufferType
from repro.cts.wirelib import WireType
from repro.geometry.point import Point

__all__ = ["NodeKind", "Sink", "TreeNode", "ClockTree", "TreeValidationError"]

#: Process-global monotonic revision source shared by every ClockTree, so that
#: revisions are unique across clones and independently built trees alike.
_REVISIONS = itertools.count(1)

#: The node fields the field records of the checkpoint journal restore: a
#: record ``(field, node_id, old_value, old_revision)`` is undone in place.
_FIELDS = frozenset({"wire_type", "snake_length", "buffer"})

#: Journal records that name no edited pre-existing node.
_TREE_RECORDS = frozenset({"create", "structure", "next_id"})


class TreeValidationError(RuntimeError):
    """Raised by :meth:`ClockTree.validate` when a structural invariant is broken."""


class NodeKind(enum.Enum):
    """Role of a node in the clock tree."""

    SOURCE = "source"
    INTERNAL = "internal"
    SINK = "sink"


@dataclass(frozen=True)
class Sink:
    """A clock sink (flip-flop clock pin or pre-designed block clock port)."""

    name: str
    capacitance: float
    required_polarity: int = 0

    def __post_init__(self) -> None:
        if self.capacitance <= 0.0:
            raise ValueError(f"sink {self.name}: capacitance must be positive")
        if self.required_polarity not in (0, 1):
            raise ValueError(f"sink {self.name}: polarity must be 0 or 1")


@dataclass
class TreeNode:
    """A single clock-tree node together with the edge from its parent.

    Edge attributes (``route``, ``wire_type``, ``snake_length``) describe the
    wire from ``parent`` to this node and are meaningless for the root.
    """

    node_id: int
    position: Point
    kind: NodeKind
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)
    sink: Optional[Sink] = None
    buffer: Optional[BufferType] = None
    route: List[Point] = field(default_factory=list)
    wire_type: Optional[WireType] = None
    snake_length: float = 0.0

    #: Memoized Manhattan length of ``route``.  All route re-assignments go
    #: through :meth:`replace_route` (or happen before the first
    #: :meth:`route_length` call), which keeps the memo coherent without
    #: intercepting every attribute write.
    _route_length: Optional[float] = field(default=None, repr=False, compare=False)

    def replace_route(self, route: List[Point]) -> None:
        """Replace the edge route and invalidate its memoized length."""
        self.route = route
        self._route_length = None

    @property
    def is_sink(self) -> bool:
        return self.kind is NodeKind.SINK

    @property
    def is_source(self) -> bool:
        return self.kind is NodeKind.SOURCE

    @property
    def has_buffer(self) -> bool:
        return self.buffer is not None

    def route_length(self) -> float:
        """Manhattan length of the routed wire from the parent (without snaking)."""
        cached = self._route_length
        if cached is not None:
            return cached
        if len(self.route) < 2:
            length = 0.0
        else:
            length = sum(a.manhattan_to(b) for a, b in zip(self.route, self.route[1:]))
        self._route_length = length
        return length

    def edge_length(self) -> float:
        """Total electrical wirelength of the parent edge including snaking."""
        return self.route_length() + self.snake_length


class ClockTree:
    """A buffered, routed clock tree.

    Parameters
    ----------
    source_position:
        Location of the clock entry point (usually on the die boundary).
    source_resistance:
        Output resistance of the clock source driver, in ohm.
    default_wire:
        Wire type assigned to edges created without an explicit type.
    """

    def __init__(
        self,
        source_position: Point,
        source_resistance: float = 100.0,
        default_wire: Optional[WireType] = None,
    ) -> None:
        if source_resistance <= 0.0:
            raise ValueError("source resistance must be positive")
        self._nodes: Dict[int, TreeNode] = {}
        self._next_id = 0
        self._default_wire = default_wire
        self.source_resistance = source_resistance
        self._node_revision: Dict[int, int] = {}
        self._structure_revision = next(_REVISIONS)
        self._revision = self._structure_revision
        self._memo: Dict[str, Tuple[int, Any]] = {}
        self._journal: List[tuple] = []
        # (journal token, whole-tree revision at the checkpoint), innermost last.
        self._checkpoints: List[Tuple[int, int]] = []
        # Per checkpoint, the nodes with a pre-image in its journal segment.
        self._pre_imaged: List[set] = []
        self.root_id = self._new_node(source_position, NodeKind.SOURCE, parent=None)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_node(
        self, position: Point, kind: NodeKind, parent: Optional[int]
    ) -> int:
        if self._checkpoints:
            self._journal.append(("next_id", self._next_id))
        node_id = self._next_id
        self._next_id += 1
        self._nodes[node_id] = TreeNode(node_id=node_id, position=position, kind=kind, parent=parent)
        self._revision = self._node_revision[node_id] = next(_REVISIONS)
        if self._checkpoints:
            self._journal.append(("create", node_id))
        return node_id

    # ------------------------------------------------------------------
    # Change tracking
    # ------------------------------------------------------------------
    @property
    def structure_revision(self) -> int:
        """Revision of the tree's topology and buffer-site placement.

        Two trees (or two snapshots of one tree) with equal structure
        revisions have identical node ids, parent/child links and buffer
        sites, hence identical buffer-stage decompositions.
        """
        return self._structure_revision

    @property
    def revision(self) -> int:
        """Revision of the whole tree: moved by every mutation.

        Two trees (or two snapshots of one tree) with equal revisions have
        identical nodes, links and edge contents; :meth:`memoized` keys
        content-dependent analytics on it.
        """
        return self._revision

    def memoized(self, name: str, compute: Callable[[], Any], structural: bool = False) -> Any:
        """``compute()``, memoized under ``name`` until the tree's revision moves.

        The value is keyed on :attr:`revision`, or on
        :attr:`structure_revision` when ``structural`` says it reads topology
        alone.  Revisions are never reused, so a hit is exact; the value is
        shared with every later caller and must be treated as read-only.
        """
        key = self._structure_revision if structural else self._revision
        entry = self._memo.get(name)
        if entry is not None and entry[0] == key:
            return entry[1]
        value = compute()
        self._memo[name] = (key, value)
        return value

    def node_revision(self, node_id: int) -> int:
        """Revision of one node's electrical content (see module docstring)."""
        return self._node_revision[node_id]

    @property
    def node_revisions(self) -> Dict[int, int]:
        """The live node-id -> revision mapping (treat as read-only).

        Exposed for bulk consumers (the incremental evaluator builds one
        content key per stage); use :meth:`touch` to record changes, never
        write into this mapping directly.
        """
        return self._node_revision

    def touch(self, node_id: int) -> None:
        """Mark a node's electrical content as changed.

        All :class:`ClockTree` mutators call this automatically; it is public
        for code that edits :class:`TreeNode` attributes directly (e.g.
        bespoke geometry surgery) so that incremental consumers stay sound.
        """
        self._revision = self._node_revision[node_id] = next(_REVISIONS)

    def touch_structure(self) -> None:
        """Mark the tree topology / buffer-site set as changed."""
        if self._checkpoints:
            self._journal.append(("structure", self._structure_revision))
        self._revision = self._structure_revision = next(_REVISIONS)

    # ------------------------------------------------------------------
    # Journal-revision checkpoints (transactional snapshots)
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Open a transaction; returns a token for :meth:`rollback_to`/:meth:`release`.

        While at least one checkpoint is outstanding every mutator journals
        what it changes (see the module docstring), so rolling back costs
        O(edits) instead of the O(n) of a :meth:`clone`-based snapshot.
        Checkpoints nest; tokens must be consumed in LIFO order.
        """
        token = len(self._journal)
        self._checkpoints.append((token, self._revision))
        self._pre_imaged.append(set())
        return token

    def rollback_to(self, token: int) -> None:
        """Undo every mutation made since :meth:`checkpoint` returned ``token``.

        Node revisions, the structure revision and the whole-tree revision
        are restored verbatim, so caches keyed by them (the evaluator's stage
        cache, :meth:`memoized` values) recognise the rolled-back state as
        already analyzed -- exactly like a :meth:`copy_state_from` restore,
        at O(edits) cost.
        """
        self._revision = self._pop_checkpoint(token)
        while len(self._journal) > token:
            entry = self._journal.pop()
            kind = entry[0]
            if kind in _FIELDS:
                _, node_id, value, revision = entry
                setattr(self._nodes[node_id], kind, value)
                self._node_revision[node_id] = revision
            elif kind == "node":
                _, node_id, pre_image, revision = entry
                self._nodes[node_id] = pre_image
                self._node_revision[node_id] = revision
            elif kind == "create":
                self._nodes.pop(entry[1], None)
                self._node_revision.pop(entry[1], None)
            elif kind == "structure":
                self._structure_revision = entry[1]
            else:  # "next_id"
                self._next_id = entry[1]

    def release(self, token: int) -> None:
        """Close an accepted transaction opened by :meth:`checkpoint`.

        Journal entries are kept while an enclosing checkpoint is still
        outstanding (it may yet roll back through them) and dropped once the
        last checkpoint closes.
        """
        self._pop_checkpoint(token)
        if not self._checkpoints:
            self._journal.clear()

    def _pop_checkpoint(self, token: int) -> int:
        """Close the innermost checkpoint; returns the revision it saved."""
        if not self._checkpoints or self._checkpoints[-1][0] != token:
            raise ValueError(
                "checkpoint tokens must be rolled back / released in LIFO order"
            )
        self._pre_imaged.pop()
        return self._checkpoints.pop()[1]

    def touched_since(self, token: int) -> Set[int]:
        """Node ids journaled since the innermost open checkpoint ``token``.

        This is the dirty-set query used by batched candidate evaluation: the
        caller opens a checkpoint, applies a candidate move, asks which nodes
        the move journaled, and rolls back.  The set is read from the journal
        itself, so edits made under inner checkpoints that were released
        since are included.  It over-approximates the nodes whose content
        changed (mutators journal before validating), so consumers treating
        every returned node as dirty stay sound.  Nodes *created* since the
        checkpoint are not included -- creation always bumps the structure
        revision, which callers must check separately.
        """
        if not self._checkpoints or self._checkpoints[-1][0] != token:
            raise ValueError("touched_since requires the innermost open checkpoint token")
        return {
            entry[1]
            for entry in itertools.islice(self._journal, token, None)
            if entry[0] not in _TREE_RECORDS
        }

    def journal_node(self, node_id: int) -> None:
        """Record a pre-image of ``node_id`` for the innermost open checkpoint.

        The structural mutators call this automatically before touching a
        node; it is public for code that edits :class:`TreeNode` attributes
        directly (pair it with :meth:`touch` *after* the edit).  No-op when
        no checkpoint is outstanding or the node already has a pre-image
        since the innermost checkpoint.  Field records do not count: a node
        whose wire was re-typed still gets its pre-image here.
        """
        if not self._checkpoints:
            return
        pre_imaged = self._pre_imaged[-1]
        if node_id in pre_imaged:
            return
        pre_imaged.add(node_id)
        self._journal_pre_image(node_id)

    def _journal_pre_image(self, node_id: int) -> None:
        self._journal.append(
            ("node", node_id, _copy_node(self._nodes[node_id]), self._node_revision[node_id])
        )

    def _journal_field(self, node: TreeNode, name: str) -> None:
        """Record one field's old value and the node's revision, under a checkpoint."""
        if self._checkpoints:
            node_id = node.node_id
            self._journal.append(
                (name, node_id, getattr(node, name), self._node_revision[node_id])
            )

    def add_internal(
        self,
        parent_id: int,
        position: Point,
        route: Optional[Sequence[Point]] = None,
        wire_type: Optional[WireType] = None,
    ) -> int:
        """Add an internal (branch/steiner/buffer-site) node under ``parent_id``."""
        return self._add_child(parent_id, position, NodeKind.INTERNAL, None, route, wire_type)

    def add_sink(
        self,
        parent_id: int,
        position: Point,
        sink: Sink,
        route: Optional[Sequence[Point]] = None,
        wire_type: Optional[WireType] = None,
    ) -> int:
        """Add a sink leaf under ``parent_id``."""
        return self._add_child(parent_id, position, NodeKind.SINK, sink, route, wire_type)

    def _add_child(
        self,
        parent_id: int,
        position: Point,
        kind: NodeKind,
        sink: Optional[Sink],
        route: Optional[Sequence[Point]],
        wire_type: Optional[WireType],
    ) -> int:
        parent = self.node(parent_id)
        if parent.is_sink:
            raise ValueError(f"cannot attach children to sink node {parent_id}")
        self.journal_node(parent_id)
        node_id = self._new_node(position, kind, parent=parent_id)
        node = self._nodes[node_id]
        node.sink = sink
        node.wire_type = wire_type if wire_type is not None else self._default_wire
        node.route = list(route) if route else [parent.position, position]
        self._check_route(node)
        parent.children.append(node_id)
        self.touch_structure()
        return node_id

    def _check_route(self, node: TreeNode) -> None:
        parent = self.node(node.parent) if node.parent is not None else None
        if parent is None:
            return
        if len(node.route) < 2:
            node.replace_route([parent.position, node.position])
        self._validate_route_endpoints(node, parent, node.route)

    @staticmethod
    def _validate_route_endpoints(
        node: TreeNode, parent: TreeNode, points: Sequence[Point]
    ) -> None:
        if not points[0].is_close(parent.position, tol=1e-6):
            raise ValueError(
                f"edge route of node {node.node_id} must start at the parent position"
            )
        if not points[-1].is_close(node.position, tol=1e-6):
            raise ValueError(
                f"edge route of node {node.node_id} must end at the node position"
            )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def node(self, node_id: int) -> TreeNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    @property
    def root(self) -> TreeNode:
        return self._nodes[self.root_id]

    @property
    def default_wire(self) -> Optional[WireType]:
        return self._default_wire

    def nodes(self) -> Iterator[TreeNode]:
        return iter(self._nodes.values())

    def node_ids(self) -> List[int]:
        return list(self._nodes.keys())

    def sinks(self) -> List[TreeNode]:
        """All sink nodes, in insertion order."""
        return [n for n in self._nodes.values() if n.is_sink]

    def buffers(self) -> List[TreeNode]:
        """All nodes carrying a buffer/inverter."""
        return [n for n in self._nodes.values() if n.has_buffer]

    def parent_of(self, node_id: int) -> Optional[TreeNode]:
        parent = self.node(node_id).parent
        return None if parent is None else self._nodes[parent]

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def preorder(self, start: Optional[int] = None) -> Iterator[TreeNode]:
        """Yield nodes top-down (parent before children)."""
        stack = [self.root_id if start is None else start]
        while stack:
            node_id = stack.pop()
            node = self._nodes[node_id]
            yield node
            stack.extend(reversed(node.children))

    def postorder(self, start: Optional[int] = None) -> Iterator[TreeNode]:
        """Yield nodes bottom-up (children before parent)."""
        order: List[int] = []
        stack = [self.root_id if start is None else start]
        while stack:
            node_id = stack.pop()
            order.append(node_id)
            stack.extend(self._nodes[node_id].children)
        for node_id in reversed(order):
            yield self._nodes[node_id]

    def path_to_root(self, node_id: int) -> List[TreeNode]:
        """Return the node list from ``node_id`` up to and including the root."""
        path = []
        current: Optional[int] = node_id
        while current is not None:
            node = self.node(current)
            path.append(node)
            current = node.parent
        return path

    def subtree_node_ids(self, node_id: int) -> List[int]:
        return [n.node_id for n in self.preorder(node_id)]

    def subtree_sinks(self, node_id: int) -> List[TreeNode]:
        return [n for n in self.preorder(node_id) if n.is_sink]

    def downstream_sinks_map(self) -> Dict[int, List[int]]:
        """Map every node id to the ids of its downstream sinks.

        Memoized on the structure revision (see :meth:`memoized`): the map
        and its lists are shared, read-only.
        """
        return self.memoized("downstream_sinks_map", self._downstream_sinks, structural=True)

    def _downstream_sinks(self) -> Dict[int, List[int]]:
        result: Dict[int, List[int]] = {}
        for node in self.postorder():
            if node.is_sink:
                result[node.node_id] = [node.node_id]
            else:
                collected: List[int] = []
                for child in node.children:
                    collected.extend(result[child])
                result[node.node_id] = collected
        return result

    def sink_postorder(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """Every node with a downstream sink, bottom-up, with its children that have one.

        Entries are ``(node_id, children)`` with the children in
        ``node.children`` order; sinks are exactly the entries without
        children.  One pass over it folds a per-sink quantity into every
        edge (the O(n) slack propagation of :mod:`repro.core.slack`).
        Memoized on the structure revision (see :meth:`memoized`): the list
        is shared, read-only.
        """
        return self.memoized("sink_postorder", self._sink_postorder, structural=True)

    def _sink_postorder(self) -> List[Tuple[int, Tuple[int, ...]]]:
        order: List[Tuple[int, Tuple[int, ...]]] = []
        reached: Set[int] = set()
        for node in self.postorder():
            children: Tuple[int, ...] = ()
            if node.kind is not NodeKind.SINK:
                children = tuple(filter(reached.__contains__, node.children))
                if not children:
                    continue
            reached.add(node.node_id)
            order.append((node.node_id, children))
        return order

    # ------------------------------------------------------------------
    # Electrical aggregates
    # ------------------------------------------------------------------
    def edge_capacitance(self, node_id: int) -> float:
        """Capacitance (fF) of the wire on the edge from the parent to ``node_id``."""
        node = self.node(node_id)
        if node.parent is None or node.wire_type is None:
            return 0.0
        return node.wire_type.capacitance(node.edge_length())

    def edge_resistance(self, node_id: int) -> float:
        """Resistance (ohm) of the wire on the edge from the parent to ``node_id``."""
        node = self.node(node_id)
        if node.parent is None or node.wire_type is None:
            return 0.0
        return node.wire_type.resistance(node.edge_length())

    def node_load_capacitance(self, node_id: int) -> float:
        """Local load at a node: sink cap plus buffer input cap, if any."""
        node = self.node(node_id)
        cap = 0.0
        if node.sink is not None:
            cap += node.sink.capacitance
        if node.buffer is not None:
            cap += node.buffer.input_cap
        return cap

    def total_wirelength(self) -> float:
        """Total electrical wirelength (including snaking) in micrometres."""
        return sum(n.edge_length() for n in self._nodes.values() if n.parent is not None)

    def total_wire_capacitance(self) -> float:
        return sum(self.edge_capacitance(n.node_id) for n in self._nodes.values())

    def total_buffer_capacitance(self) -> float:
        """Sum of input+output capacitance over all inserted buffers."""
        return sum(n.buffer.total_cap for n in self._nodes.values() if n.buffer is not None)

    def total_sink_capacitance(self) -> float:
        return sum(n.sink.capacitance for n in self.sinks())

    def total_capacitance(self) -> float:
        """Total switched capacitance: wires + buffers + sinks (the power proxy).

        One fused pass over the node table.  The three components accumulate
        separately and in node-table order, so the result is bit-identical to
        summing :meth:`total_wire_capacitance`, :meth:`total_buffer_capacitance`
        and :meth:`total_sink_capacitance` -- this method sits on the hot path
        of every evaluation, where three separate generator sweeps were a
        measurable fraction of a warm (dirty-region) evaluation.
        """
        wire = 0.0
        buffers = 0.0
        sinks = 0.0
        for node in self._nodes.values():
            if node.parent is not None and node.wire_type is not None:
                wire += node.wire_type.capacitance(node.route_length() + node.snake_length)
            if node.buffer is not None:
                buffers += node.buffer.total_cap
            if node.sink is not None and node.is_sink:
                sinks += node.sink.capacitance
        return wire + buffers + sinks

    def buffer_count(self) -> int:
        return sum(1 for n in self._nodes.values() if n.buffer is not None)

    def sink_count(self) -> int:
        return sum(1 for n in self._nodes.values() if n.is_sink)

    # ------------------------------------------------------------------
    # Polarity
    # ------------------------------------------------------------------
    def node_polarity(self, node_id: int) -> int:
        """Signal polarity at a node: number of inverting buffers above it, mod 2.

        A buffer placed *at* a node inverts the signal seen by the node's
        subtree but not by the node's own sink pin, because the buffer drives
        the downstream wire.  We adopt the convention that a buffer at a node
        affects everything strictly below that node.
        """
        inversions = 0
        for ancestor in self.path_to_root(node_id)[1:]:
            if ancestor.buffer is not None and ancestor.buffer.inverting:
                inversions += 1
        node = self.node(node_id)
        # A buffer co-located with the node itself drives the subtree below;
        # the node's own pin (e.g. a sink) sits at the buffer *input*, so it
        # is not inverted by it.
        del node
        return inversions % 2

    def sink_polarities(self) -> Dict[int, int]:
        """Polarity of every sink, computed in a single O(n) preorder pass.

        A node's pin sees the polarity arriving from its parent; a buffer
        placed at the node only inverts the signal leaving toward children.
        """
        result: Dict[int, int] = {}
        post: Dict[int, int] = {}
        for node in self.preorder():
            incoming = 0 if node.parent is None else post[node.parent]
            if node.is_sink:
                result[node.node_id] = incoming
            outgoing = incoming
            if node.buffer is not None and node.buffer.inverting:
                outgoing = (incoming + 1) % 2
            post[node.node_id] = outgoing
        return result

    def wrong_polarity_sinks(self) -> List[TreeNode]:
        """Sinks whose delivered polarity differs from their required polarity."""
        polarities = self.sink_polarities()
        return [
            n
            for n in self.sinks()
            if polarities[n.node_id] != (n.sink.required_polarity if n.sink else 0)
        ]

    # ------------------------------------------------------------------
    # Mutation helpers for optimization passes
    # ------------------------------------------------------------------
    def place_buffer(self, node_id: int, buffer: BufferType) -> None:
        """Place (or replace) a buffer at a node."""
        node = self.node(node_id)
        self._journal_field(node, "buffer")
        adds_site = node.buffer is None
        node.buffer = buffer
        self.touch(node_id)
        if adds_site:
            # A new buffer site splits a stage in two; replacing the buffer at
            # an existing site keeps the decomposition (consumers read the
            # driving buffer live from the tree, not from cached stages).
            self.touch_structure()

    def remove_buffer(self, node_id: int) -> None:
        node = self.node(node_id)
        if node.buffer is None:
            return
        self._journal_field(node, "buffer")
        node.buffer = None
        self.touch(node_id)
        self.touch_structure()

    def set_wire_type(self, node_id: int, wire: WireType) -> None:
        node = self.node(node_id)
        if node.parent is None:
            raise ValueError("the root has no parent edge to re-type")
        self._journal_field(node, "wire_type")
        node.wire_type = wire
        self.touch(node_id)

    def add_snake(self, node_id: int, extra_length: float) -> None:
        """Add snaking wirelength to the edge above ``node_id``."""
        if extra_length < 0.0:
            raise ValueError("snake length increment must be non-negative")
        node = self.node(node_id)
        if node.parent is None:
            raise ValueError("the root has no parent edge to snake")
        self._journal_field(node, "snake_length")
        node.snake_length += extra_length
        self.touch(node_id)

    def set_route(self, node_id: int, route: Sequence[Point]) -> None:
        """Replace the routed polyline of the edge above ``node_id``.

        The candidate route is validated *before* the node is modified, so a
        rejected route leaves both the tree and its mutation journal
        untouched.
        """
        node = self.node(node_id)
        if node.parent is None:
            raise ValueError("the root has no parent edge to reroute")
        points = self._validated_route(node, self._nodes[node.parent], route)
        self.journal_node(node_id)
        node.replace_route(points)
        self.touch(node_id)

    def _validated_route(
        self, node: TreeNode, parent: TreeNode, route: Optional[Sequence[Point]]
    ) -> List[Point]:
        """Normalize and validate a candidate parent-edge route without mutating."""
        points = list(route) if route else []
        if len(points) < 2:
            points = [parent.position, node.position]
        self._validate_route_endpoints(node, parent, points)
        return points

    def move_node(self, node_id: int, position: Point) -> None:
        """Move a non-root node, restoring direct routes to its neighbours.

        The parent edge and every child edge are reset to two-point routes
        through the new position; callers needing bends should follow up with
        :meth:`set_route`.
        """
        node = self.node(node_id)
        if node.parent is None:
            raise ValueError("the root (clock entry point) cannot be moved")
        self.journal_node(node_id)
        node.position = position
        parent = self._nodes[node.parent]
        node.replace_route([parent.position, position])
        self.touch(node_id)
        for child_id in node.children:
            child = self._nodes[child_id]
            self.journal_node(child_id)
            child.replace_route([position, child.position])
            self.touch(child_id)

    def detach_subtree(self, node_id: int) -> None:
        """Unlink ``node_id`` (and its subtree) from its parent.

        The nodes stay in the tree's node table so they can be re-attached
        with :meth:`attach_subtree`; until then :meth:`validate` reports them
        as orphans.
        """
        node = self.node(node_id)
        if node.parent is None:
            raise ValueError("cannot detach the root")
        self.journal_node(node.parent)
        self.journal_node(node_id)
        self._nodes[node.parent].children.remove(node_id)
        node.parent = None
        self.touch_structure()

    def attach_subtree(
        self,
        node_id: int,
        parent_id: int,
        wire_type: Optional[WireType] = None,
        route: Optional[Sequence[Point]] = None,
    ) -> None:
        """Re-attach a detached subtree under ``parent_id``.

        The new parent edge gets a direct two-point route (or ``route``), the
        given ``wire_type`` (or the node's existing one / the tree default)
        and no snaking.
        """
        node = self.node(node_id)
        if node.parent is not None:
            raise ValueError(f"node {node_id} is still attached; detach it first")
        parent = self.node(parent_id)
        if parent.is_sink:
            raise ValueError(f"cannot attach children to sink node {parent_id}")
        # Validate the candidate route first so a rejected attach leaves the
        # node cleanly detached instead of half-linked.
        points = self._validated_route(node, parent, route)
        self.journal_node(node_id)
        self.journal_node(parent_id)
        node.parent = parent_id
        if wire_type is not None:
            node.wire_type = wire_type
        elif node.wire_type is None:
            node.wire_type = self._default_wire
        node.replace_route(points)
        node.snake_length = 0.0
        parent.children.append(node_id)
        self.touch(node_id)
        self.touch_structure()

    def remove_subtree(self, node_id: int) -> List[int]:
        """Detach and delete ``node_id`` and everything below it.

        Returns the deleted node ids.  Sinks that must survive a structural
        rewrite (e.g. obstacle contour detouring) should be detached with
        :meth:`detach_subtree` first and re-attached with
        :meth:`attach_subtree` afterwards.
        """
        node = self.node(node_id)
        if node_id == self.root_id:
            raise ValueError("cannot remove the root (clock entry point)")
        # Journal every pre-image before the first mutation: the subtree root
        # must be captured while it still points at its parent, or a rollback
        # would resurrect it half-detached.  Each removed node gets its own
        # pre-image even if it has one from earlier in this checkpoint: a
        # rollback undoes the field records in between against the node
        # table, so the node must be back in it by then.
        removed = [n.node_id for n in self.preorder(node_id)]
        if self._checkpoints:
            for removed_id in removed:
                self._journal_pre_image(removed_id)
        if node.parent is not None:
            self.journal_node(node.parent)
            self._nodes[node.parent].children.remove(node_id)
            node.parent = None
        for removed_id in removed:
            del self._nodes[removed_id]
            del self._node_revision[removed_id]
        self.touch_structure()
        return removed

    def split_edge(self, node_id: int, fraction: float) -> int:
        """Insert an internal node on the edge above ``node_id``.

        ``fraction`` is measured along the routed wire from the parent
        (0 < fraction < 1).  The new node becomes the parent of ``node_id``;
        route, wire type and snaking are divided proportionally.  Returns the
        new node's id.  This is the primitive used by buffer insertion and by
        buffer sliding.
        """
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be strictly between 0 and 1, got {fraction}")
        node = self.node(node_id)
        if node.parent is None:
            raise ValueError("cannot split above the root")
        parent = self.node(node.parent)
        self.journal_node(node_id)
        self.journal_node(parent.node_id)

        split_point, upper_route, lower_route = _split_route(node.route, fraction)
        new_id = self._new_node(split_point, NodeKind.INTERNAL, parent=parent.node_id)
        new_node = self._nodes[new_id]
        new_node.wire_type = node.wire_type
        new_node.route = upper_route
        new_node.snake_length = node.snake_length * fraction
        new_node.children = [node_id]

        parent.children[parent.children.index(node_id)] = new_id
        node.parent = new_id
        node.replace_route(lower_route)
        node.snake_length = node.snake_length * (1.0 - fraction)
        self.touch(node_id)
        self.touch_structure()
        return new_id

    def clone(self) -> "ClockTree":
        """Copy the tree (used to snapshot solutions before risky edits).

        Node shells and their mutable lists are copied; the immutable payloads
        (:class:`~repro.geometry.point.Point`, :class:`Sink`,
        :class:`~repro.cts.bufferlib.BufferType`,
        :class:`~repro.cts.wirelib.WireType`) are shared, which makes
        snapshotting roughly an order of magnitude cheaper than a generic
        ``copy.deepcopy`` -- snapshots sit on the hot path of every
        Improvement- & Violation-Checking round.  Revisions are copied
        verbatim (the whole-tree revision and its memo included): the clone
        has identical content, so it shares cache identity until either tree
        is edited.
        """
        twin = ClockTree.__new__(ClockTree)
        twin._nodes = {node_id: _copy_node(node) for node_id, node in self._nodes.items()}
        twin._next_id = self._next_id
        twin._default_wire = self._default_wire
        twin.source_resistance = self.source_resistance
        twin.root_id = self.root_id
        twin._node_revision = dict(self._node_revision)
        twin._structure_revision = self._structure_revision
        twin._revision = self._revision
        twin._memo = dict(self._memo)
        # Checkpoints do not transfer: the clone starts transaction-free.
        twin._journal = []
        twin._checkpoints = []
        twin._pre_imaged = []
        return twin

    def copy_state_from(self, other: "ClockTree") -> None:
        """Restore this tree's state from a snapshot produced by :meth:`clone`.

        Optimization passes mutate the tree in place and call this to roll
        back when an evaluation shows a regression or a slew violation, so
        that callers holding a reference to the tree keep seeing the accepted
        solution.  Revisions are restored along with the content, so caches
        keyed by them recognise the rolled-back state as already analyzed.

        Any outstanding :meth:`checkpoint` transactions are voided: the whole
        state is replaced, so their journals no longer apply.
        """
        self._journal = []
        self._checkpoints = []
        self._pre_imaged = []
        self._nodes = {node_id: _copy_node(node) for node_id, node in other._nodes.items()}
        self._next_id = other._next_id
        self._default_wire = other._default_wire
        self.source_resistance = other.source_resistance
        self.root_id = other.root_id
        self._node_revision = dict(other._node_revision)
        self._structure_revision = other._structure_revision
        self._revision = other._revision

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`TreeValidationError` on failure."""
        seen = set()
        for node in self.preorder():
            if node.node_id in seen:
                raise TreeValidationError(f"node {node.node_id} reachable twice (cycle)")
            seen.add(node.node_id)
        if seen != set(self._nodes.keys()):
            orphans = set(self._nodes.keys()) - seen
            raise TreeValidationError(f"orphan nodes not reachable from root: {sorted(orphans)}")
        for node in self._nodes.values():
            if node.parent is None:
                if node.node_id != self.root_id:
                    raise TreeValidationError(f"non-root node {node.node_id} has no parent")
                continue
            parent = self._nodes.get(node.parent)
            if parent is None or node.node_id not in parent.children:
                raise TreeValidationError(
                    f"parent/child link broken between {node.parent} and {node.node_id}"
                )
            if node.wire_type is None:
                raise TreeValidationError(f"edge above node {node.node_id} has no wire type")
            if node.snake_length < 0.0:
                raise TreeValidationError(f"negative snake length at node {node.node_id}")
            self._check_route(node)
            if node.is_sink and node.sink is None:
                raise TreeValidationError(f"sink node {node.node_id} has no sink record")
            if node.is_sink and node.children:
                raise TreeValidationError(f"sink node {node.node_id} has children")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Small numeric summary used by reports and logs."""
        return {
            "nodes": float(len(self._nodes)),
            "sinks": float(self.sink_count()),
            "buffers": float(self.buffer_count()),
            "wirelength_um": self.total_wirelength(),
            "total_capacitance_fF": self.total_capacitance(),
        }


def _copy_node(node: TreeNode) -> TreeNode:
    """Copy a node shell, sharing its immutable payload objects.

    Bypasses the dataclass constructor (snapshots sit on the hot path of
    every optimization round); only the two mutable lists are copied, all
    frozen payloads (Point, Sink, BufferType, WireType) are shared.  The
    fields are assigned one by one, in declaration order, and ``__dict__``
    is never read: on CPython 3.11+ an instance keeps its attributes inline
    until something asks for ``__dict__``, which turns them into a real
    dict on that node for good, and every later attribute load on it goes
    through the dict -- about 2x slower for the tree walks.
    """
    twin = TreeNode.__new__(TreeNode)
    twin.node_id = node.node_id
    twin.position = node.position
    twin.kind = node.kind
    twin.parent = node.parent
    twin.children = node.children.copy()
    twin.sink = node.sink
    twin.buffer = node.buffer
    twin.route = node.route.copy()
    twin.wire_type = node.wire_type
    twin.snake_length = node.snake_length
    twin._route_length = node._route_length
    return twin


def _split_route(
    route: Sequence[Point], fraction: float
) -> Tuple[Point, List[Point], List[Point]]:
    """Split a polyline route at a fractional position along its length."""
    points = list(route)
    total = sum(a.manhattan_to(b) for a, b in zip(points, points[1:]))
    if total <= 0.0:
        # Degenerate (zero-length) edge: split at the shared point.
        return points[0], [points[0], points[0]], [points[0], points[-1]]
    target = total * fraction
    walked = 0.0
    for i, (a, b) in enumerate(zip(points, points[1:])):
        seg_len = a.manhattan_to(b)
        if walked + seg_len >= target - 1e-12 and seg_len > 0.0:
            t = (target - walked) / seg_len
            split = Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
            upper = points[: i + 1] + [split]
            lower = [split] + points[i + 1 :]
            return split, upper, lower
        walked += seg_len
    split = points[-1]
    return split, list(points), [split, points[-1]]
