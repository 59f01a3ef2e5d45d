"""Obstacle-violation repair for clock trees (Section IV-A of the paper).

The ISPD'09/SoC obstacle model allows *routing* clock wires over pre-designed
blocks but forbids *buffering* over them.  A zero-skew tree built by DME
ignores obstacles, so this module repairs it before buffer insertion:

* **L-shape flipping / maze rerouting** (Step 1).  Every edge whose route
  crosses an obstacle, but whose endpoints both lie outside, is first re-bent
  to the alternative L configuration; if that still conflicts it is rerouted
  with the obstacle-avoiding maze router.  Endpoints are unchanged, so the
  tree structure is untouched -- only wirelength (and therefore delay) grows,
  which downstream electrical correction compensates.

* **Subtree capture and the slew-free capacitance test** (Step 2).  When a
  wire dives *into* an obstacle the entire enclosed subtree is captured and
  its capacitance compared against the largest load one buffer can drive
  without violating the slew limit.  Small subtrees need no detour: a buffer
  placed just before the obstacle can drive them.

* **Contour detouring** (Step 3, Figure 2).  Larger enclosed subtrees are
  re-attached along the obstacle contour: the full contour is taken as the
  detour and the contour arc *furthest from the detour source* (between the
  most contour-distant sink and its far-side neighbour) is removed so the
  network stays a tree while the longest detoured source-to-sink path is
  minimized.  Sinks keep their original positions and are fed by short stubs
  from the contour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.buffering.candidates import max_drivable_capacitance
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree, TreeNode, TreeValidationError
from repro.geometry.lshape import lshape_routes
from repro.geometry.maze import MazeRouteError, MazeRouter
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = [
    "ObstacleAvoidanceReport",
    "ObstacleAvoider",
    "repair_obstacle_violations",
]


@dataclass
class ObstacleAvoidanceReport:
    """Statistics of one obstacle-repair run."""

    edges_checked: int = 0
    lshape_flips: int = 0
    maze_reroutes: int = 0
    subtrees_captured: int = 0
    subtrees_detoured: int = 0
    nodes_legalized: int = 0
    detour_wirelength: float = 0.0
    remaining_violations: int = 0
    notes: List[str] = field(default_factory=list)


class ObstacleAvoider:
    """Repairs obstacle conflicts in a routed clock tree.

    Parameters
    ----------
    obstacles:
        The obstacle set (compound obstacles are derived internally).
    die:
        Optional die outline; rerouted wires are kept inside it.
    driver:
        The composite buffer assumed when applying the slew-free-capacitance
        test of Step 2.
    slew_limit:
        10-90% slew limit in ps used by the same test.
    """

    def __init__(
        self,
        obstacles: ObstacleSet,
        die: Optional[Rect] = None,
        driver: Optional[BufferType] = None,
        slew_limit: float = 100.0,
    ) -> None:
        self.obstacles = obstacles
        self.die = die
        self.driver = driver
        self.slew_limit = slew_limit
        self._router = MazeRouter(obstacles, die=die, clearance=1.0)

    # ------------------------------------------------------------------
    def repair(self, tree: ClockTree) -> ObstacleAvoidanceReport:
        """Repair all obstacle conflicts of ``tree`` in place.

        Order matters: enclosed sink-subtrees are detoured first (Steps 2-3),
        then any remaining Steiner/merge nodes stranded inside blockages are
        pushed to the blockage boundary (they are not legal buffer sites, and
        leaving them inside would create arbitrarily long unbufferable wire
        spans), and finally ordinary crossing wires are rerouted (Step 1).
        """
        report = ObstacleAvoidanceReport()
        if len(self.obstacles) == 0:
            return report
        self._detour_enclosed_subtrees(tree, report)
        self._legalize_internal_nodes(tree, report)
        self._reroute_crossing_edges(tree, report)
        report.remaining_violations = len(self.find_crossing_edges(tree))
        tree.validate()
        return report

    # ------------------------------------------------------------------
    # Merge-node legalization: no internal node may sit inside a blockage
    # ------------------------------------------------------------------
    def _legalize_internal_nodes(self, tree: ClockTree, report: ObstacleAvoidanceReport) -> None:
        for node in list(tree.nodes()):
            if node.parent is None or node.is_sink:
                continue
            if not self.obstacles.blocks_point(node.position):
                continue
            new_position = self.obstacles.push_out_of_obstacles(node.position, self.die)
            tree.move_node(node.node_id, new_position)
            report.nodes_legalized += 1

    # ------------------------------------------------------------------
    # Step 1: reroute point-to-point wires that merely cross an obstacle
    # ------------------------------------------------------------------
    def find_crossing_edges(self, tree: ClockTree) -> List[int]:
        """Node ids whose parent edge's route crosses an obstacle interior."""
        crossing = []
        for node in tree.nodes():
            if node.parent is None:
                continue
            if not self.obstacles.is_route_clear(node.route):
                crossing.append(node.node_id)
        return crossing

    def _reroute_crossing_edges(self, tree: ClockTree, report: ObstacleAvoidanceReport) -> None:
        for node in list(tree.preorder()):
            if node.parent is None:
                continue
            report.edges_checked += 1
            if self.obstacles.is_route_clear(node.route):
                continue
            parent = tree.parent_of(node.node_id)
            if self._endpoint_blocked(parent.position) or self._endpoint_blocked(node.position):
                # The wire legitimately terminates inside an obstacle (e.g. a
                # sink placed on a macro); routing over is allowed, so leave
                # the minimum-overlap L-shape in place.
                new_route = self._least_overlap_lshape(parent.position, node.position)
                if new_route is not None:
                    tree.set_route(node.node_id, new_route)
                continue
            flipped = self._clear_lshape(parent.position, node.position)
            if flipped is not None:
                tree.set_route(node.node_id, flipped)
                report.lshape_flips += 1
                continue
            try:
                rerouted = self._router.route(parent.position, node.position)
            except MazeRouteError:
                report.notes.append(
                    f"edge to node {node.node_id}: no obstacle-free route exists"
                )
                continue
            extra = _route_length(rerouted) - node.route_length()
            tree.set_route(node.node_id, rerouted)
            report.maze_reroutes += 1
            report.detour_wirelength += max(extra, 0.0)

    def _endpoint_blocked(self, position: Point) -> bool:
        return self.obstacles.blocks_point(position)

    def _clear_lshape(self, start: Point, end: Point) -> Optional[List[Point]]:
        for candidate in lshape_routes(start, end):
            points = _dedupe([candidate.start, candidate.bend, candidate.end])
            if self.obstacles.is_route_clear(points):
                return points
        return None

    def _least_overlap_lshape(self, start: Point, end: Point) -> Optional[List[Point]]:
        rects = [o.rect for o in self.obstacles]
        best = None
        best_overlap = float("inf")
        for candidate in lshape_routes(start, end):
            overlap = sum(candidate.overlap_length_with(r) for r in rects)
            if overlap < best_overlap:
                best_overlap = overlap
                best = _dedupe([candidate.start, candidate.bend, candidate.end])
        return best

    # ------------------------------------------------------------------
    # Steps 2-3: capture enclosed subtrees and detour along the contour
    # ------------------------------------------------------------------
    def _detour_enclosed_subtrees(self, tree: ClockTree, report: ObstacleAvoidanceReport) -> None:
        for compound in self.obstacles.compound_obstacles():
            bbox = compound.bbox
            captured = self._captured_subtree_roots(tree, bbox)
            for root_id in captured:
                report.subtrees_captured += 1
                if self.driver is not None and self._single_buffer_drivable(tree, root_id):
                    # One buffer placed before the obstacle can drive the whole
                    # enclosed subtree: no detour required (Step 2).
                    continue
                # The contour detour is heavy tree surgery (detach sinks,
                # delete the enclosed internals, rebuild along the contour);
                # run it as a transaction so a failed rebuild rolls back to
                # the intact subtree instead of leaving the tree half-wired.
                token = tree.checkpoint()
                try:
                    added = self._contour_detour(tree, root_id, bbox)
                except (ValueError, MazeRouteError, TreeValidationError) as exc:
                    tree.rollback_to(token)
                    report.notes.append(
                        f"contour detour of subtree {root_id} rolled back: {exc}"
                    )
                    continue
                tree.release(token)
                if added > 0.0:
                    report.subtrees_detoured += 1
                    report.detour_wirelength += added

    def _captured_subtree_roots(self, tree: ClockTree, bbox: Rect) -> List[int]:
        """Highest nodes whose whole subtree lies strictly inside ``bbox``.

        Only internal subtrees with at least two sinks are returned: a single
        sink inside an obstacle is always drivable from the boundary and never
        needs a contour detour.
        """
        inside: Dict[int, bool] = {}
        for node in tree.postorder():
            own = bbox.contains_point(node.position, strict=True)
            inside[node.node_id] = own and all(inside[c] for c in node.children)
        roots: List[int] = []
        for node in tree.preorder():
            if node.parent is None or not inside[node.node_id]:
                continue
            if not inside[tree.parent_of(node.node_id).node_id]:
                if len(tree.subtree_sinks(node.node_id)) >= 2 and not node.is_sink:
                    roots.append(node.node_id)
        return roots

    def _subtree_capacitance(self, tree: ClockTree, root_id: int) -> float:
        total = 0.0
        for node in tree.preorder(root_id):
            total += tree.edge_capacitance(node.node_id)
            total += tree.node_load_capacitance(node.node_id)
        return total

    def _single_buffer_drivable(self, tree: ClockTree, root_id: int) -> bool:
        """Step-2 test: can one ``driver`` drive the enclosed subtree within the slew limit?

        Besides the total capacitance, the unbuffered wire inside the obstacle
        contributes its own Elmore delay to the far-sink slew, so the test is
        ``ln(9) * (R_driver * C_subtree + tau_subtree) <= margin * limit``
        (equivalently, the subtree capacitance must not exceed the
        tau-adjusted slew-free capacitance).
        """
        subtree_cap = self._subtree_capacitance(tree, root_id)
        tau = self._subtree_worst_elmore(tree, root_id)
        budget = max_drivable_capacitance(
            self.driver, self.slew_limit, wire_delay_to_worst_tap=tau
        )
        return subtree_cap <= budget

    def _subtree_worst_elmore(self, tree: ClockTree, root_id: int) -> float:
        """Worst Elmore delay (ps) from ``root_id`` to any downstream sink."""
        downstream_cap: Dict[int, float] = {}
        for node in tree.postorder(root_id):
            cap = tree.node_load_capacitance(node.node_id)
            cap += sum(
                downstream_cap[c] + tree.edge_capacitance(c) for c in node.children
            )
            downstream_cap[node.node_id] = cap
        worst = 0.0
        delays: Dict[int, float] = {root_id: 0.0}
        for node in tree.preorder(root_id):
            if node.node_id != root_id:
                resistance = tree.edge_resistance(node.node_id)
                wire_cap = tree.edge_capacitance(node.node_id)
                delays[node.node_id] = delays[node.parent] + resistance * (
                    wire_cap / 2.0 + downstream_cap[node.node_id]
                ) * 1e-3
                worst = max(worst, delays[node.node_id])
        return worst

    def _contour_detour(self, tree: ClockTree, subtree_root: int, bbox: Rect) -> float:
        """Re-attach the enclosed subtree's sinks along the obstacle contour."""
        subtree_root_node = tree.node(subtree_root)
        parent = tree.parent_of(subtree_root)
        sinks = tree.subtree_sinks(subtree_root)
        if parent is None or len(sinks) < 2:
            return 0.0
        wire = subtree_root_node.wire_type or tree.default_wire

        entry = bbox.clamp_point(parent.position)
        entry = _snap_to_contour(bbox, entry)
        perimeter = bbox.perimeter
        entry_param = _contour_parameter(bbox, entry)

        # Contour positions of every enclosed sink, relative to the entry.
        sink_params: List[Tuple[float, TreeNode]] = []
        for sink in sinks:
            projected = _snap_to_contour(bbox, bbox.clamp_point(sink.position))
            param = (_contour_parameter(bbox, projected) - entry_param) % perimeter
            sink_params.append((param, sink))
        sink_params.sort(key=lambda item: item[0])

        # The most contour-distant sink (shortest-path distance from the
        # entry) determines which contour arc is removed (Step 3).
        distances = [min(p, perimeter - p) for p, _ in sink_params]
        far_pos = max(range(len(distances)), key=lambda i: distances[i])
        far_param = sink_params[far_pos][0]
        clockwise = [item for item in sink_params if item[0] <= far_param + 1e-9]
        counter = [item for item in sink_params if item[0] > far_param + 1e-9]
        if far_param > perimeter - far_param:
            # The far sink is best reached counter-clockwise: it anchors the
            # counter-clockwise branch instead.
            clockwise = [item for item in sink_params if item[0] < far_param - 1e-9]
            counter = [item for item in sink_params if item[0] >= far_param - 1e-9]
        counter = list(reversed(counter))

        # Detach the old subtree: remove every non-sink descendant.
        removed_wirelength = self._remove_internal_subtree(tree, subtree_root)

        # Entry node on the contour, fed from the old parent.
        entry_id = tree.add_internal(parent.node_id, entry, wire_type=wire)

        added = 0.0
        added += self._build_contour_branch(
            tree, entry_id, entry, bbox, [p for p, _ in clockwise],
            [s for _, s in clockwise], wire, forward=True,
        )
        added += self._build_contour_branch(
            tree, entry_id, entry, bbox, [perimeter - p for p, _ in counter],
            [s for _, s in counter], wire, forward=False,
        )
        added += parent.position.manhattan_to(entry)
        return max(added - removed_wirelength, 0.0)

    def _remove_internal_subtree(self, tree: ClockTree, subtree_root: int) -> float:
        """Delete the enclosed subtree except its sinks; return removed wirelength."""
        removed = 0.0
        sinks = tree.subtree_sinks(subtree_root)
        sink_ids = {s.node_id for s in sinks}
        for node in tree.preorder(subtree_root):
            removed += node.edge_length()
        # Detach sinks first so they survive the subtree deletion below.
        for sink_id in sink_ids:
            tree.detach_subtree(sink_id)
        tree.remove_subtree(subtree_root)
        return removed

    def _build_contour_branch(
        self,
        tree: ClockTree,
        entry_id: int,
        entry: Point,
        bbox: Rect,
        params: List[float],
        sinks: List[TreeNode],
        wire,
        forward: bool,
    ) -> float:
        """Build one contour branch and hook the given sinks onto it."""
        added = 0.0
        current_id = entry_id
        current_point = entry
        current_param = 0.0
        entry_param = _contour_parameter(bbox, entry)
        perimeter = bbox.perimeter
        for param, sink in zip(params, sinks):
            absolute = (entry_param + param) % perimeter if forward else (entry_param - param) % perimeter
            target = _contour_point(bbox, absolute)
            corner_points = _contour_walk(bbox, current_point, target, forward)
            for corner in corner_points:
                if corner.is_close(current_point):
                    continue
                current_id = tree.add_internal(current_id, corner, wire_type=wire)
                added += current_point.manhattan_to(corner)
                current_point = corner
            # Stub from the contour into the sink's original position.
            self._reattach_sink(tree, current_id, sink, wire)
            added += current_point.manhattan_to(sink.position)
            current_param = param
        del current_param
        return added

    def _reattach_sink(self, tree: ClockTree, parent_id: int, sink: TreeNode, wire) -> None:
        parent = tree.node(parent_id)
        route = [parent.position, sink.position]
        # The sink's position may force a bend (the route is interpreted as an
        # L-shape downstream, like the paper's Figure 3).
        if parent.position.x != sink.position.x and parent.position.y != sink.position.y:
            bend = Point(sink.position.x, parent.position.y)
            route = [parent.position, bend, sink.position]
        tree.attach_subtree(sink.node_id, parent_id, wire_type=wire, route=route)


def repair_obstacle_violations(
    tree: ClockTree,
    obstacles: ObstacleSet,
    die: Optional[Rect] = None,
    driver: Optional[BufferType] = None,
    slew_limit: float = 100.0,
) -> ObstacleAvoidanceReport:
    """Convenience wrapper: repair ``tree`` in place and return the report."""
    avoider = ObstacleAvoider(obstacles, die=die, driver=driver, slew_limit=slew_limit)
    return avoider.repair(tree)


# ----------------------------------------------------------------------
# Contour parametrization helpers
# ----------------------------------------------------------------------
def _snap_to_contour(bbox: Rect, p: Point) -> Point:
    """Project a point (already clamped into the box) onto the box contour."""
    gaps = [
        (abs(p.x - bbox.xlo), Point(bbox.xlo, p.y)),
        (abs(p.x - bbox.xhi), Point(bbox.xhi, p.y)),
        (abs(p.y - bbox.ylo), Point(p.x, bbox.ylo)),
        (abs(p.y - bbox.yhi), Point(p.x, bbox.yhi)),
    ]
    return min(gaps, key=lambda item: item[0])[1]


def _contour_parameter(bbox: Rect, p: Point) -> float:
    """Arc-length position of a contour point, clockwise from (xlo, ylo)."""
    w, h = bbox.width, bbox.height
    tol = 1e-6
    if abs(p.y - bbox.ylo) <= tol:
        return p.x - bbox.xlo
    if abs(p.x - bbox.xhi) <= tol:
        return w + (p.y - bbox.ylo)
    if abs(p.y - bbox.yhi) <= tol:
        return w + h + (bbox.xhi - p.x)
    return 2 * w + h + (bbox.yhi - p.y)


def _contour_point(bbox: Rect, param: float) -> Point:
    """Inverse of :func:`_contour_parameter`."""
    w, h = bbox.width, bbox.height
    perimeter = 2 * (w + h)
    s = param % perimeter
    if s <= w:
        return Point(bbox.xlo + s, bbox.ylo)
    s -= w
    if s <= h:
        return Point(bbox.xhi, bbox.ylo + s)
    s -= h
    if s <= w:
        return Point(bbox.xhi - s, bbox.yhi)
    s -= w
    return Point(bbox.xlo, bbox.yhi - s)


def _contour_walk(bbox: Rect, start: Point, end: Point, forward: bool) -> List[Point]:
    """Corner points visited when walking the contour from ``start`` to ``end``."""
    perimeter = bbox.perimeter
    s = _contour_parameter(bbox, start)
    e = _contour_parameter(bbox, end)
    corners = sorted(_contour_parameter(bbox, c) for c in bbox.corners())
    points: List[float] = []
    if forward:
        span = (e - s) % perimeter
        for c in corners:
            offset = (c - s) % perimeter
            if 0 < offset < span:
                points.append(offset)
        points.sort()
        params = [(s + off) % perimeter for off in points] + [e]
    else:
        span = (s - e) % perimeter
        for c in corners:
            offset = (s - c) % perimeter
            if 0 < offset < span:
                points.append(offset)
        points.sort()
        params = [(s - off) % perimeter for off in points] + [e]
    return [_contour_point(bbox, p) for p in params]


def _route_length(points: Sequence[Point]) -> float:
    return sum(a.manhattan_to(b) for a, b in zip(points, points[1:]))


def _dedupe(points: List[Point]) -> List[Point]:
    result: List[Point] = []
    for p in points:
        if not result or p != result[-1]:
            result.append(p)
    return result
