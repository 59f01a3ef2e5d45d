"""The frozen-dataclass van Ginneken DP, kept as the reference for the ladder walk.

This is the one-buffer dynamic program that :mod:`repro.buffering.vanginneken`
ran before options became plain tuples and the ladder shared one plan: every
:class:`Option` is a frozen dataclass, each method builds its own, and the
DP enumerates its stations on every run.  ``tests/buffering/test_dp_oracle.py``
runs it beside :func:`repro.buffering.vanginneken.run_ladder` and requires
the same sites, delays and applied trees.  Keep it as it is: it is the
operation order the production code must match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.units import LN9, OHM_FF_TO_PS
from repro.buffering.candidates import BufferStation, enumerate_stations
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree
from repro.cts.wirelib import WireType
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.rect import Rect


@dataclass(frozen=True)
class Option:
    """One non-dominated buffering solution for a subtree."""

    cap: float
    req: float
    tau: float
    nbuffers: int = 0
    site: Optional[Tuple[str, object]] = None
    derived_from: Tuple["Option", ...] = ()

    def dominates(self, other: "Option") -> bool:
        """True when this option is at least as good as ``other`` in every metric."""
        no_worse = (
            self.cap <= other.cap + 1e-12
            and self.req >= other.req - 1e-12
            and self.tau <= other.tau + 1e-12
        )
        strictly = (
            self.cap < other.cap - 1e-12
            or self.req > other.req + 1e-12
            or self.tau < other.tau - 1e-12
        )
        return no_worse and strictly


@dataclass
class BufferInsertionResult:
    """Outcome of one buffer-insertion run."""

    buffer: BufferType
    buffer_count: int
    worst_delay_estimate: float
    slew_feasible: bool
    node_sites: List[int] = field(default_factory=list)
    station_sites: List[BufferStation] = field(default_factory=list)


class ReferenceInserter:
    """Insert one buffer type into a clock tree, minimizing worst Elmore delay."""

    def __init__(
        self,
        buffer: BufferType,
        slew_limit: float = 100.0,
        slew_margin: float = 0.70,
        station_spacing: float = 250.0,
        obstacles: Optional[ObstacleSet] = None,
        die: Optional[Rect] = None,
        max_options: int = 32,
    ) -> None:
        if max_options < 4:
            raise ValueError("max_options must be at least 4")
        self.buffer = buffer
        self.slew_limit = slew_limit
        self.slew_margin = slew_margin
        self.station_spacing = station_spacing
        self.obstacles = obstacles
        self.die = die
        self.max_options = max_options

    # ------------------------------------------------------------------
    def insert(self, tree: ClockTree, apply: bool = True) -> BufferInsertionResult:
        """Run the DP on ``tree`` and (optionally) apply the chosen buffering."""
        stations = enumerate_stations(
            tree,
            spacing=self.station_spacing,
            obstacles=self.obstacles,
            die=self.die,
        )
        options_at: Dict[int, List[Option]] = {}
        edge_top: Dict[int, List[Option]] = {}

        for node in tree.postorder():
            if node.is_sink:
                options_at[node.node_id] = [
                    Option(cap=tree.node_load_capacitance(node.node_id), req=0.0, tau=0.0)
                ]
            else:
                merged = self._merge_children(
                    [edge_top[child] for child in node.children]
                )
                if node.parent is not None and self._node_is_legal(tree, node.node_id):
                    merged = self._with_buffered_variants(
                        merged, ("node", node.node_id)
                    )
                options_at[node.node_id] = self._prune(merged)
            if node.parent is not None:
                edge_top[node.node_id] = self._propagate_edge(
                    tree, node.node_id, options_at[node.node_id], stations[node.node_id]
                )

        best = self._select_root_option(tree, options_at[tree.root_id])
        node_sites, station_sites = self._traceback(best)
        if apply:
            self._apply(tree, node_sites, station_sites)
        root_delay = -best.req + tree.source_resistance * best.cap * OHM_FF_TO_PS
        return BufferInsertionResult(
            buffer=self.buffer,
            buffer_count=best.nbuffers,
            worst_delay_estimate=root_delay,
            slew_feasible=self._source_slew_ok(tree, best),
            node_sites=node_sites,
            station_sites=station_sites,
        )

    # ------------------------------------------------------------------
    # DP building blocks
    # ------------------------------------------------------------------
    def _node_is_legal(self, tree: ClockTree, node_id: int) -> bool:
        position = tree.node(node_id).position
        if self.die is not None and not self.die.contains_point(position):
            return False
        if self.obstacles is not None and self.obstacles.blocks_point(position):
            return False
        return True

    def _merge_children(self, option_lists: Sequence[List[Option]]) -> List[Option]:
        if not option_lists:
            return [Option(cap=0.0, req=0.0, tau=0.0)]
        current = option_lists[0]
        for other in option_lists[1:]:
            combined: List[Option] = []
            for a in current:
                for b in other:
                    combined.append(
                        Option(
                            cap=a.cap + b.cap,
                            req=min(a.req, b.req),
                            tau=max(a.tau, b.tau),
                            nbuffers=a.nbuffers + b.nbuffers,
                            derived_from=(a, b),
                        )
                    )
            current = self._prune(combined)
        return current

    def _propagate_edge(
        self,
        tree: ClockTree,
        edge_node: int,
        options: List[Option],
        stations: List[BufferStation],
    ) -> List[Option]:
        node = tree.node(edge_node)
        wire = node.wire_type
        length = node.edge_length()
        current = list(options)
        walked = 0.0
        for station in stations:
            current = [
                self._extend_wire(opt, wire, station.distance_from_child - walked)
                for opt in current
            ]
            walked = station.distance_from_child
            if station.legal:
                current = self._with_buffered_variants(current, ("station", station))
            current = self._prune(current)
        current = [self._extend_wire(opt, wire, length - walked) for opt in current]
        return self._prune(current)

    def _extend_wire(self, option: Option, wire: Optional[WireType], length: float) -> Option:
        if wire is None or length <= 0.0:
            return option
        res = wire.resistance(length)
        cap = wire.capacitance(length)
        delay = res * (cap / 2.0 + option.cap) * OHM_FF_TO_PS
        return Option(
            cap=option.cap + cap,
            req=option.req - delay,
            tau=option.tau + delay,
            nbuffers=option.nbuffers,
            derived_from=(option,),
        )

    def _with_buffered_variants(
        self, options: List[Option], site: Tuple[str, object]
    ) -> List[Option]:
        buffered: List[Option] = []
        tau_budget = self.slew_margin * self.slew_limit / LN9
        for opt in options:
            slew = LN9 * (self.buffer.output_res * opt.cap * OHM_FF_TO_PS + opt.tau)
            if slew > self.slew_margin * self.slew_limit and opt.tau <= tau_budget:
                # The slew problem is caused by accumulated capacitance, which a
                # buffer placed further down could have fixed -- other options
                # cover that, so this variant is not needed.  When ``tau`` alone
                # already exceeds the budget the violation is unavoidable (an
                # unbufferable span, e.g. a wire crossing a large blockage); a
                # buffer is still allowed here so the damage stays contained
                # instead of poisoning every option up to the root.
                continue
            gate_delay = (
                self.buffer.intrinsic_delay
                + self.buffer.output_res * opt.cap * OHM_FF_TO_PS
            )
            buffered.append(
                Option(
                    cap=self.buffer.input_cap,
                    req=opt.req - gate_delay,
                    tau=0.0,
                    nbuffers=opt.nbuffers + 1,
                    site=site,
                    derived_from=(opt,),
                )
            )
        return options + buffered

    def _prune(self, options: List[Option]) -> List[Option]:
        if len(options) <= 1:
            return options
        ordered = sorted(options, key=lambda o: (o.cap, -o.req, o.tau))
        kept: List[Option] = []
        for candidate in ordered:
            if any(existing.dominates(candidate) for existing in kept):
                continue
            kept.append(candidate)
        if len(kept) > self.max_options:
            # Downsample along the capacitance axis.  The low-cap (heavily
            # buffered) end of the frontier must survive -- its value only
            # becomes visible higher up the tree, when upstream wire and the
            # source resistance multiply against the accumulated cap -- so an
            # overflow cut by required time alone would be systematically
            # wrong.  Even spacing keeps both frontier ends and a
            # representative middle.
            step = (len(kept) - 1) / (self.max_options - 1)
            indices = sorted({round(i * step) for i in range(self.max_options)})
            kept = [kept[i] for i in indices]
        return kept

    def _select_root_option(self, tree: ClockTree, options: List[Option]) -> Option:
        def total_delay(opt: Option) -> float:
            return -opt.req + tree.source_resistance * opt.cap * OHM_FF_TO_PS

        feasible = [opt for opt in options if self._source_slew_ok(tree, opt)]
        pool = feasible if feasible else options
        return min(pool, key=total_delay)

    def _source_slew_ok(self, tree: ClockTree, option: Option) -> bool:
        slew = LN9 * (tree.source_resistance * option.cap * OHM_FF_TO_PS + option.tau)
        return slew <= self.slew_margin * self.slew_limit

    # ------------------------------------------------------------------
    # Traceback and application
    # ------------------------------------------------------------------
    def _traceback(self, best: Option) -> Tuple[List[int], List[BufferStation]]:
        node_sites: List[int] = []
        station_sites: List[BufferStation] = []
        stack = [best]
        while stack:
            option = stack.pop()
            if option.site is not None:
                kind, payload = option.site
                if kind == "node":
                    node_sites.append(payload)
                else:
                    station_sites.append(payload)
            stack.extend(option.derived_from)
        return node_sites, station_sites

    def _apply(
        self,
        tree: ClockTree,
        node_sites: Sequence[int],
        station_sites: Sequence[BufferStation],
    ) -> None:
        for node_id in node_sites:
            tree.place_buffer(node_id, self.buffer)
        by_edge: Dict[int, List[BufferStation]] = {}
        for station in station_sites:
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
                tree.place_buffer(new_node, self.buffer)
                previous_fraction = station.fraction_from_parent
        tree.validate()
