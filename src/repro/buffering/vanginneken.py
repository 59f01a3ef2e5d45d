"""Van Ginneken-style buffer insertion with non-dominated option pruning.

The dynamic program walks the clock tree bottom-up, maintaining at every point
a small set of non-dominated *options* ``(cap, req, tau)``:

* ``cap`` -- capacitance seen looking downstream from the point,
* ``req`` -- required time (the negative of the worst accumulated delay to any
  downstream sink), the quantity van Ginneken maximizes,
* ``tau`` -- worst Elmore delay from the point to any downstream tap through
  the *unbuffered* region below it, used to estimate the output slew a buffer
  placed at this point would produce.

An option is a plain tuple ``(cap, req, tau, nbuffers, site, parents)``:
``site`` is the buffer the option adds at its point (a node id, a
:class:`~repro.buffering.candidates.BufferStation`, or ``None``) and
``parents`` the options it was built from, which the traceback follows.

Candidate insertion points are the legal stations enumerated by
:mod:`repro.buffering.candidates` plus the internal tree nodes.  Contango's
INITIAL stage tries a whole ladder of composite inverters (see
:mod:`repro.buffering.fast_buffering`), so :func:`run_ladder` reads the tree
once into a plan -- the stations, each station interval's wire resistance
and capacitance, and station and node legality -- and then runs the DP for
one buffer type after another over that plan, so only one buffer type's
option graph is alive at a time.  A sink edge that carries no legal station
gets the same options for every buffer type; they are built once and
shared.  The baselines run a one-buffer ladder and apply its result with
:func:`apply_insertion`.

Measured on a 2-vCPU Xeon guest, the DP for the INITIAL stage's
four-inverter ladder takes ~0.35 s on the ti:4000 seed-1 DME tree and
~0.15 s on the ``scenario:maze:sinks=160`` seed-0 tree after obstacle
repair, against ~1.25 s and ~1.1 s for one run per inverter over
frozen-dataclass options.  ``repro perf run --case buffering`` times the
whole sweep on both trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.units import LN9, OHM_FF_TO_PS
from repro.buffering.candidates import BufferStation, enumerate_stations, is_legal_site
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree
from repro.cts.wirelib import WireType
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.rect import Rect

__all__ = [
    "BufferInsertionResult",
    "apply_insertion",
    "place_insertion",
    "run_ladder",
]

#: ``(cap, req, tau, nbuffers, site, parents)``; see the module docstring.
Opt = Tuple[float, float, float, int, Union[int, BufferStation, None], Tuple[Any, ...]]
#: One wire interval of an edge: ``(resistance, capacitance)``, or ``None``
#: where the interval adds nothing (no wire type, or zero length).
Segment = Optional[Tuple[float, float]]
#: A buffer type as the DP reads it: ``(output_res, intrinsic_delay,
#: input_cap, slew_cap, tau_budget)``, the last two being the slew bound
#: and the unbuffered-delay budget it allows.
Drive = Tuple[float, float, float, float, float]

#: Dominance tolerance on every axis.
_EPS = 1e-12


@dataclass
class BufferInsertionResult:
    """Outcome of one buffer-insertion run."""

    buffer: BufferType
    buffer_count: int
    worst_delay_estimate: float
    slew_feasible: bool
    node_sites: List[int] = field(default_factory=list)
    station_sites: List[BufferStation] = field(default_factory=list)


def run_ladder(
    tree: ClockTree,
    buffers: Sequence[BufferType],
    slew_limit: float = 100.0,
    slew_margin: float = 0.70,
    station_spacing: float = 250.0,
    obstacles: Optional[ObstacleSet] = None,
    die: Optional[Rect] = None,
    max_options: int = 32,
) -> List[BufferInsertionResult]:
    """Run the DP on ``tree`` once for each buffer type, in order.

    ``tree`` is read, never modified; apply a result with
    :func:`apply_insertion`.
    """
    if max_options < 4:
        raise ValueError("max_options must be at least 4")
    plan = _Plan(tree, station_spacing, obstacles, die, max_options)
    slew_cap = slew_margin * slew_limit
    return [
        _select(tree.source_resistance, buffer, plan.walk(buffer, slew_cap), slew_cap)
        for buffer in buffers
    ]


class _Plan:
    """What every buffer type's DP reads from one tree, gathered in one walk.

    ``order`` lists, in postorder, the nodes whose options depend on the
    buffer type as ``(node_id, children, leaf, node_site, steps, tail)``:
    ``children`` is ``None`` for a sink and ``leaf`` is then its own option
    list; ``node_site`` says whether a buffer may sit on the (internal,
    non-root) node; ``steps`` and ``tail`` describe the edge above the node
    (``None`` at the root) as one ``(segment, station)`` per station from
    the child end -- ``station`` is ``None`` where it is illegal -- and the
    last segment up to the parent.  ``shared`` holds the finished edge
    options of every sink edge that carries no legal station.
    """

    def __init__(
        self,
        tree: ClockTree,
        spacing: float,
        obstacles: Optional[ObstacleSet],
        die: Optional[Rect],
        max_options: int,
    ) -> None:
        self.max_options = max_options
        self.order: List[Tuple[Any, ...]] = []
        self.shared: Dict[int, List[Opt]] = {}
        stations = enumerate_stations(tree, spacing=spacing, obstacles=obstacles, die=die)
        for node in tree.postorder():
            node_id = node.node_id
            if node.parent is None:
                self.order.append((node_id, node.children, None, False, None, None))
                continue
            wire = node.wire_type
            steps: List[Tuple[Segment, Optional[BufferStation]]] = []
            walked = 0.0
            for station in stations[node_id]:
                segment = _segment(wire, station.distance_from_child - walked)
                steps.append((segment, station if station.legal else None))
                walked = station.distance_from_child
            tail = _segment(wire, node.edge_length() - walked)
            if node.is_sink:
                leaf: List[Opt] = [
                    (tree.node_load_capacitance(node_id), 0.0, 0.0, 0, None, ())
                ]
                if all(station is None for _, station in steps):
                    self.shared[node_id] = _propagate(leaf, steps, tail, None, max_options)
                else:
                    self.order.append((node_id, None, leaf, False, steps, tail))
            else:
                node_site = is_legal_site(node.position, obstacles, die)
                self.order.append((node_id, node.children, None, node_site, steps, tail))

    def walk(self, buffer: BufferType, slew_cap: float) -> List[Opt]:
        """The root's options when ``buffer`` is the one buffer type."""
        max_options = self.max_options
        drive: Drive = (
            buffer.output_res,
            buffer.intrinsic_delay,
            buffer.input_cap,
            slew_cap,
            slew_cap / LN9,
        )
        tops = dict(self.shared)
        options: List[Opt] = []
        for node_id, children, leaf, node_site, steps, tail in self.order:
            if children is None:
                options = leaf
            else:
                options = _merge([tops.pop(child) for child in children], max_options)
                if node_site:
                    options = _buffered(options, node_id, drive)
                options = _prune(options, max_options)
            if steps is not None:
                tops[node_id] = _propagate(options, steps, tail, drive, max_options)
        return options


def _segment(wire: Optional[WireType], length: float) -> Segment:
    if wire is None or length <= 0.0:
        return None
    return (wire.resistance(length), wire.capacitance(length))


# ----------------------------------------------------------------------
# DP building blocks
# ----------------------------------------------------------------------
def _merge(option_lists: Sequence[List[Opt]], max_options: int) -> List[Opt]:
    if not option_lists:
        return [(0.0, 0.0, 0.0, 0, None, ())]
    current = option_lists[0]
    for other in option_lists[1:]:
        combined: List[Opt] = []
        append = combined.append
        for a in current:
            a_cap, a_req, a_tau, a_n = a[0], a[1], a[2], a[3]
            for b in other:
                b_req, b_tau = b[1], b[2]
                append(
                    (
                        a_cap + b[0],
                        b_req if b_req < a_req else a_req,  # min(a_req, b_req)
                        b_tau if b_tau > a_tau else a_tau,  # max(a_tau, b_tau)
                        a_n + b[3],
                        None,
                        (a, b),
                    )
                )
        current = _prune(combined, max_options)
    return current


def _propagate(
    options: List[Opt],
    steps: Sequence[Tuple[Segment, Optional[BufferStation]]],
    tail: Segment,
    drive: Optional[Drive],
    max_options: int,
) -> List[Opt]:
    """Carry ``options`` up one edge, offering a buffer at each legal station."""
    current = options
    for segment, station in steps:
        if segment is not None:
            current = _extend(current, segment)
        if station is not None:
            assert drive is not None
            current = _buffered(current, station, drive)
        current = _prune(current, max_options)
    if tail is not None:
        current = _extend(current, tail)
    return _prune(current, max_options)


def _extend(options: List[Opt], segment: Tuple[float, float]) -> List[Opt]:
    res, cap = segment
    extended: List[Opt] = []
    append = extended.append
    for opt in options:
        opt_cap = opt[0]
        delay = res * (cap / 2.0 + opt_cap) * OHM_FF_TO_PS
        append((opt_cap + cap, opt[1] - delay, opt[2] + delay, opt[3], None, (opt,)))
    return extended


def _buffered(
    options: List[Opt], site: Union[int, BufferStation], drive: Drive
) -> List[Opt]:
    """``options`` plus the variants that place the buffer at ``site``."""
    output_res, intrinsic, input_cap, slew_cap, tau_budget = drive
    result = list(options)
    for opt in options:
        opt_cap, opt_tau = opt[0], opt[2]
        drive_delay = output_res * opt_cap * OHM_FF_TO_PS
        if LN9 * (drive_delay + opt_tau) > slew_cap and opt_tau <= tau_budget:
            # The slew problem is caused by accumulated capacitance, which a
            # buffer placed further down could have fixed -- other options
            # cover that, so this variant is not needed.  When ``tau`` alone
            # already exceeds the budget the violation is unavoidable (an
            # unbufferable span, e.g. a wire crossing a large blockage); a
            # buffer is still allowed here so the damage stays contained
            # instead of poisoning every option up to the root.
            continue
        result.append(
            (input_cap, opt[1] - (intrinsic + drive_delay), 0.0, opt[3] + 1, site, (opt,))
        )
    return result


def _prune_key(opt: Opt) -> Tuple[float, float, float]:
    return (opt[0], -opt[1], opt[2])


def _dominated(kept: List[Opt], cap: float, req: float, tau: float) -> bool:
    """True when an option in ``kept`` dominates ``(cap, req, tau)``.

    Dominating means no worse on every axis and better on one, each within
    the 1e-12 tolerance.
    """
    for opt in reversed(kept):
        if (
            opt[1] >= req - _EPS
            and opt[2] <= tau + _EPS
            and opt[0] <= cap + _EPS
            and (opt[0] < cap - _EPS or opt[1] > req + _EPS or opt[2] < tau - _EPS)
        ):
            return True
    return False


def _prune(options: List[Opt], max_options: int) -> List[Opt]:
    """The non-dominated options in ``(cap, -req, tau)`` order, at most ``max_options``."""
    count = len(options)
    if count <= 1:
        return options
    if count == 2:
        first, second = options
        if _prune_key(second) < _prune_key(first):
            first, second = second, first
        if _dominated([first], second[0], second[1], second[2]):
            return [first]
        return [first, second]
    kept: List[Opt] = []
    # Only a kept option with ``req >= candidate req - _EPS`` can dominate,
    # so a candidate above the best kept ``req`` is kept without a scan, and
    # an exact repeat of the previous candidate (common: different buffer
    # histories often give equal values) shares its verdict.
    best_req = -math.inf
    previous: Optional[Opt] = None
    dropped = False
    for candidate in sorted(options, key=_prune_key):
        cap, req, tau = candidate[0], candidate[1], candidate[2]
        if (
            previous is None
            or cap != previous[0]
            or req != previous[1]
            or tau != previous[2]
        ):
            dropped = req - _EPS <= best_req and _dominated(kept, cap, req, tau)
        previous = candidate
        if dropped:
            continue
        kept.append(candidate)
        if req > best_req:
            best_req = req
    if len(kept) > max_options:
        # Downsample along the capacitance axis.  The low-cap (heavily
        # buffered) end of the frontier must survive -- its value only
        # becomes visible higher up the tree, when upstream wire and the
        # source resistance multiply against the accumulated cap -- so an
        # overflow cut by required time alone would be systematically
        # wrong.  Even spacing keeps both frontier ends and a
        # representative middle.
        step = (len(kept) - 1) / (max_options - 1)
        indices = sorted({round(i * step) for i in range(max_options)})
        kept = [kept[i] for i in indices]
    return kept


# ----------------------------------------------------------------------
# Root selection, traceback and application
# ----------------------------------------------------------------------
def _select(
    source_resistance: float,
    buffer: BufferType,
    options: List[Opt],
    slew_cap: float,
) -> BufferInsertionResult:
    """Pick the root option with the least total delay and trace its sites back."""

    def slew_ok(opt: Opt) -> bool:
        return LN9 * (source_resistance * opt[0] * OHM_FF_TO_PS + opt[2]) <= slew_cap

    def total_delay(opt: Opt) -> float:
        return -opt[1] + source_resistance * opt[0] * OHM_FF_TO_PS

    feasible = [opt for opt in options if slew_ok(opt)]
    best = min(feasible if feasible else options, key=total_delay)

    node_sites: List[int] = []
    station_sites: List[BufferStation] = []
    stack = [best]
    while stack:
        option = stack.pop()
        site = option[4]
        if isinstance(site, BufferStation):
            station_sites.append(site)
        elif site is not None:
            node_sites.append(site)
        stack.extend(option[5])
    return BufferInsertionResult(
        buffer=buffer,
        buffer_count=best[3],
        worst_delay_estimate=total_delay(best),
        slew_feasible=slew_ok(best),
        node_sites=node_sites,
        station_sites=station_sites,
    )


def apply_insertion(tree: ClockTree, result: BufferInsertionResult) -> None:
    """Place ``result.buffer`` at every site of ``result`` in ``tree``, then validate it."""
    place_insertion(tree, result)
    tree.validate()


def place_insertion(tree: ClockTree, result: BufferInsertionResult) -> None:
    """Place ``result.buffer`` at every site of ``result`` in ``tree``.

    Stations split their edges in order along the wire; the tree is not
    validated (see :func:`apply_insertion`).
    """
    for node_id in result.node_sites:
        tree.place_buffer(node_id, result.buffer)
    by_edge: Dict[int, List[BufferStation]] = {}
    for station in result.station_sites:
        by_edge.setdefault(station.edge_node, []).append(station)
    for edge_node, stations in by_edge.items():
        stations.sort(key=lambda s: s.fraction_from_parent)
        previous_fraction = 0.0
        for station in stations:
            local_fraction = (station.fraction_from_parent - previous_fraction) / (
                1.0 - previous_fraction
            )
            local_fraction = min(max(local_fraction, 1e-6), 1.0 - 1e-6)
            new_node = tree.split_edge(edge_node, local_fraction)
            tree.place_buffer(new_node, result.buffer)
            previous_fraction = station.fraction_from_parent
