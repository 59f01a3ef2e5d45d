"""Clock-network evaluation: latency, skew, slew, CLR, capacitance.

This module is the Clock-Network Evaluation (CNE) box of Figure 1 in the
paper.  It decomposes the buffered tree into stages, analyzes every stage with
the selected engine (Elmore, Arnoldi/moment-matching, or the transient RC
solver), propagates arrival times and slews stage by stage for both launch
transitions, and repeats the analysis at every requested process/voltage
corner.  The resulting :class:`EvaluationReport` carries everything the
optimization passes need: per-sink rise/fall latencies, skew, the multi-corner
Clock Latency Range (CLR), worst slew, slew violations and the capacitance
(power) total.

Incremental evaluation
----------------------
Contango's optimization passes call the evaluator after every candidate move,
but a move touches a handful of edges while the tree has hundreds of stages.
The evaluator therefore keeps a :class:`StageCache`: stage analysis results
are stored under **content keys** derived from the mutation journal of
:class:`~repro.cts.tree.ClockTree` (per-node revisions plus the structure
revision), so re-evaluating a tree re-extracts and re-analyzes only the
stages whose RC content actually changed since any previous evaluation --
including evaluations of clones, probes and rolled-back snapshots, which
share revisions with the tree they were copied from.

For the analytical engines (``elmore``/``arnoldi``) each stage is reduced
once per content revision to a few base vectors from which delays and slews
at *every* corner and transition are produced in one batched array
operation -- no per-corner network rebuilds.  An evaluation handles its
*stage misses* (stages whose tap model is not cached) as one batch: it looks
every stage up in walk order (one hit or miss each), reads the misses'
per-edge content in one Python pass
(:class:`~repro.analysis.rcnetwork.StageContent`), lays all their segments
out as zero-padded numpy rows
(:func:`~repro.analysis.rcnetwork.lay_out_stages`, whose structure comes
from the cached :class:`~repro.analysis.rcnetwork.StageTopology`), reduces
the rows at once (:func:`~repro.analysis.arnoldi.reduce_stage_batch`) and
makes every missed tap model with one :meth:`~ClockNetworkEvaluator._delay_sigma`
call -- bit-identical to building and reducing each stage on its own.
:meth:`~ClockNetworkEvaluator.evaluate_yield` reduces its stages in one
batch too, and candidate scoring reads each move's dirty stages while the
move is applied and reduces every capture's reads together after the moves
are rolled back.  The transient (``spice``) engine caches the per-corner
stage networks and per-input-slew waveform analyses instead.

Between evaluations the evaluator keeps one *revision snapshot* of the tree
(:class:`_RevisionSnapshot`): node ids in node-table order with their
revisions and per-node capacitance/wirelength contributions, plus every
stage's content key.  Refreshing it recomputes only the nodes whose revision
moved and the keys of the stages owning them, and it yields the report's
capacitance and wirelength totals bit-identical to
:meth:`~repro.cts.tree.ClockTree.total_capacitance` and
:meth:`~repro.cts.tree.ClockTree.total_wirelength`.  A cold evaluation
(``incremental=False``) reads and writes neither cache nor snapshot.

Propagation kernel
------------------
Arrival times and slews come out of one stage walk,
:meth:`ClockNetworkEvaluator._walk`, the only code that applies the stage
recurrence: inversion tracking, gate delay (intrinsic delay plus a fraction
of the input slew), slew regeneration through buffers and the PERI slew
combination ``sqrt((ln9 * sigma)^2 + drive^2)`` of :func:`peri_slew`, the one
slew root (numpy's correctly rounded ``sqrt``).  The walk runs over a batch
axis whose rows are ``(corner, transition, b)``: a nominal
:meth:`~ClockNetworkEvaluator.evaluate` is ``B = 1``,
:meth:`~ClockNetworkEvaluator.evaluate_candidates` scores ``B = K`` candidate
moves and :meth:`~ClockNetworkEvaluator.evaluate_yield` ``B = N`` Monte Carlo
samples (in blocks that bound memory).  Rows are kept by the transition *at
the tap*, so an inverting driver swaps each corner's rise and fall input
rows.  The batch axis is the innermost, contiguous one: every per-tap array
is taps-major, ``(taps, rows)``, so a stage of ten taps and thousands of
Monte Carlo rows runs each numpy operation over the long axis, and a stage
reads its input from the contiguous row of its driver tap.  Callers supply
only the per-stage ``(taps, rows)`` delay and sigma and the driver's
``(rows,)`` intrinsic delays -- cached tap models, per-candidate stage
variants, per-sample moment scalings; the transient engine supplies final
delays and slews through the same per-stage hook at ``B = 1``.  A nominal or
candidate walk returns the per-tap arrival/slew arrays plus each row's
sink-latency extremes and worst slew, which is all :class:`CornerTiming` and
:class:`CandidateScore` read.  A Monte Carlo walk runs in *fold mode*: it
keeps no per-tap arrays, folds each stage's sink-latency extremes and worst
tap slew into running per-row vectors as the stage is walked, and holds a
driver tap's rows only until the stage it drives has been walked -- the
extremes are all :class:`~repro.analysis.variation.YieldReport` reads.

The per-tap arrays of a nominal walk double as the retained state.  Every
cached evaluation keeps its nominal walk together with the stage content keys
it came from.  The next one diffs the keys, closes the dirty set over the stage
topology (:class:`~repro.analysis.rcnetwork.StageTopology` children -- every
stage downstream of a changed driver sees changed input slews) and walks only
that region, reading every retained tap from the previous walk's arrays.  A
retained stage provably has only retained ancestors, so its values are
bit-identical to a cold evaluation -- the goldens and the hypothesis suites
in ``tests/analysis`` enforce exactly that.  Candidate scoring is the same
mechanism ``K`` wide: each move is applied under a journal checkpoint, its
dirty stages are captured from
:meth:`~repro.cts.tree.ClockTree.touched_since` and the move is rolled back;
one walk of the union of the dirty regions, seeded from the last nominal
walk, then scores every candidate.  Candidates that change the tree structure
or a driver's polarity fall back to a full evaluation (counted in
``cache_stats()['candidate_fallbacks']``).  The transient engine scores
every candidate by a full evaluation.  The cold path, ``evaluate(tree,
incremental=False)``, walks every stage without cache or snapshot and is
the reference all of this is tested against.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.analysis.arnoldi import (
    BaseTapMoments,
    batched_delay_sigma,
    batched_tap_moments,
    reduce_stage_batch,
    stack_tap_moments,
)
from repro.analysis.corners import Corner, ispd09_corners, supply_driver_multiplier
from repro.analysis.elmore import StageTiming
from repro.analysis.rcnetwork import (
    PULL_DOWN_FACTOR,
    PULL_UP_FACTOR,
    Stage,
    StageContent,
    StageNetwork,
    StageTopology,
    build_stage_network,
    build_stage_topology,
    lay_out_stages,
)
from repro.analysis.spice import TransientSolverConfig, transient_stage_timing
from repro.analysis.units import LN9
from repro.analysis.variation import (
    ANALYTICAL_ENGINES,
    YIELD_SKEW_LIMIT_PS,
    VariationModel,
    YieldReport,
)
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree, TreeNode
from repro.obs import NULL_TRACER, TracerBase

__all__ = [
    "EvaluatorConfig",
    "CornerTiming",
    "EvaluationReport",
    "CandidateScore",
    "CandidateBatch",
    "StageCache",
    "ClockNetworkEvaluator",
    "peri_slew",
]

RISE = "rise"
FALL = "fall"
_TRANSITIONS = (RISE, FALL)
# Kernel rows of one corner are [rise, fall], by the transition at the tap.
_ROW = {RISE: 0, FALL: 1}
# Samples per Monte Carlo block: as many as keep rows x taps (the size a
# block's per-tap arrays would have) under this bound.  A fold-mode walk keeps
# no per-tap arrays, so the bound now sets the size of each stage's working
# arrays.  At ti:4000 x 4,000 samples on a 2-vCPU host its 246-sample blocks
# ran as fast as 512-sample blocks (2.4-2.6 s against 2.2-2.7 s), and 1,024-
# and 2,048-sample blocks were about 10% and 20% slower.  Results do not
# depend on the block size.
_YIELD_BLOCK_ELEMENTS = 1 << 22
# Input transition time of the clock source, in ps.
SOURCE_SLEW = 10.0
# Fraction of the input slew added to a buffer's gate delay (first-order
# model of slew-dependent gate delay).
SLEW_DELAY_FACTOR = 0.08
# Fraction of the input transition that survives through a switching
# inverter and shapes its output ramp.  Inverters regenerate the edge, so the
# output slew is dominated by the driver's own R*C and only weakly coupled to
# the input slew; without this attenuation slews would (unphysically)
# accumulate down the buffer chain.
BUFFER_SLEW_REGENERATION = 0.25


@dataclass(frozen=True)
class EvaluatorConfig:
    """Settings of the clock-network evaluator.

    Attributes
    ----------
    engine:
        ``"elmore"``, ``"arnoldi"`` or ``"spice"`` (transient RC solver).
    max_segment_length:
        Maximum lumped-RC segment length in um (see
        :func:`repro.analysis.rcnetwork.build_stage_network`).
    slew_limit:
        Maximum allowed 10-90% transition time at any tap, in ps.
    solver:
        Numerical settings for the transient engine.
    """

    engine: str = "spice"
    max_segment_length: float = 100.0
    slew_limit: float = 100.0
    solver: TransientSolverConfig = field(default_factory=TransientSolverConfig)

    def __post_init__(self) -> None:
        if self.engine not in ("elmore", "arnoldi", "spice"):
            raise ValueError(f"unknown timing engine {self.engine!r}")
        if self.slew_limit <= 0.0:
            raise ValueError("slew limit must be positive")


class CornerTiming:
    """Timing of the whole network at one corner.

    ``latency`` and ``slew`` map sink node ids to ``{"rise": ps, "fall": ps}``.
    ``tap_slew`` additionally includes buffer-input taps, which are subject to
    the same slew limit as sinks.  The three dicts are built from the
    propagation kernel's per-tap arrays on first access (treat them as
    read-only).  The whole network's extremes (skew, CLR, latency, worst
    slew) are the :class:`EvaluationReport`'s, taken from the kernel by
    :meth:`ClockNetworkEvaluator._objectives`.  ``_arrival`` and ``_slew``
    are ``(2, taps)`` views (rise, fall) of the walk's taps-major arrays.
    """

    __slots__ = ("corner", "_topo", "_arrival", "_slew", "_dicts")

    def __init__(self, corner: Corner, topo: StageTopology, walk: "_Walk", row: int) -> None:
        assert walk.arrival is not None and walk.slew is not None  # not a fold walk
        self.corner = corner
        self._topo = topo
        rows = slice(row, row + 2)
        self._arrival = walk.arrival[:, rows].T
        self._slew = walk.slew[:, rows].T
        self._dicts: Dict[str, Dict[int, Dict[str, float]]] = {}

    @property
    def latency(self) -> Dict[int, Dict[str, float]]:
        return self._per_tap("latency", self._arrival, sinks_only=True)

    @property
    def slew(self) -> Dict[int, Dict[str, float]]:
        return self._per_tap("slew", self._slew, sinks_only=True)

    @property
    def tap_slew(self) -> Dict[int, Dict[str, float]]:
        return self._per_tap("tap_slew", self._slew, sinks_only=False)

    def sink_latencies(self, transitions: Sequence[str] = _TRANSITIONS) -> np.ndarray:
        """Sink latencies as a ``(len(transitions), sinks)`` array.

        One row per transition, in the order given; columns follow the
        topology's ``sink_ids``.  The values are :attr:`latency`'s, read
        from the kernel's arrays without building the dicts.
        """
        rows = [_ROW[transition] for transition in transitions]
        return self._arrival[np.ix_(rows, self._topo.sink_cols)]

    def slew_violations(self, limit: float) -> List[int]:
        """Tap node ids whose rise or fall slew exceeds ``limit``."""
        over = np.flatnonzero(np.maximum(self._slew[0], self._slew[1]) > limit)
        tap_ids = self._topo.tap_ids
        return [tap_ids[col] for col in over.tolist()]

    def _per_tap(
        self, name: str, values: np.ndarray, sinks_only: bool
    ) -> Dict[int, Dict[str, float]]:
        table = self._dicts.get(name)
        if table is None:
            if sinks_only:
                ids: Sequence[int] = self._topo.sink_ids
                values = values[:, self._topo.sink_cols]
            else:
                ids = self._topo.tap_ids
            table = {
                tap: {RISE: rise, FALL: fall}
                for tap, rise, fall in zip(ids, values[0].tolist(), values[1].tolist())
            }
            self._dicts[name] = table
        return table


@dataclass
class EvaluationReport:
    """Result of one Clock-Network Evaluation (CNE) step.

    ``skew`` is the worse of rise and fall skew at the fast (nominal-supply)
    corner; ``clr`` the Clock Latency Range across the fast and slow
    corners; ``max_latency`` the greatest sink latency at the slow corner
    (the paper's "Latency" column); ``worst_slew`` the worst tap slew over
    every corner.  All four come from
    :meth:`ClockNetworkEvaluator._objectives`, the definitions candidate
    scores and Monte Carlo samples use.
    """

    corners: Dict[str, CornerTiming]
    fast_corner: str
    slow_corner: str
    engine: str
    slew_limit: float
    total_capacitance: float
    capacitance_limit: Optional[float]
    wirelength: float
    evaluation_index: int
    skew: float
    clr: float
    max_latency: float
    worst_slew: float

    @property
    def nominal(self) -> CornerTiming:
        """Timing at the fast (nominal-supply) corner, used for skew optimization."""
        return self.corners[self.fast_corner]

    @property
    def topology(self) -> StageTopology:
        """The stage decomposition the report was walked on.

        Its ``structure_revision`` names the tree structure the report's
        stage indices and tap columns belong to.
        """
        return self.nominal._topo

    def stage_worst_slews(self) -> List[float]:
        """Each stage's worst tap slew (ps), in :attr:`topology` stage order.

        The maximum over corners, transitions and the stage's taps, floored
        at 0.0 (a stage without taps reads 0.0).
        """
        topo = self.topology
        worst_tap = np.max(
            [timing._slew.max(axis=0) for timing in self.corners.values()], axis=0
        )
        stage_of_tap = np.repeat(np.arange(len(topo.stages)), np.diff(topo.tap_start))
        worst = np.zeros(len(topo.stages))
        np.maximum.at(worst, stage_of_tap, worst_tap)
        return worst.tolist()

    @property
    def slew_violations(self) -> List[int]:
        violations: List[int] = []
        for timing in self.corners.values():
            violations.extend(timing.slew_violations(self.slew_limit))
        return sorted(set(violations))

    @property
    def has_slew_violation(self) -> bool:
        """Some tap's slew exceeds the limit (:class:`CandidateScore`'s definition)."""
        return self.worst_slew > self.slew_limit

    @property
    def within_capacitance_limit(self) -> bool:
        if self.capacitance_limit is None:
            return True
        return self.total_capacitance <= self.capacitance_limit

    @property
    def capacitance_utilization(self) -> Optional[float]:
        """Total capacitance as a fraction of the limit (None when unlimited)."""
        if self.capacitance_limit is None:
            return None
        return self.total_capacitance / self.capacitance_limit

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by flow logs and benchmarks."""
        return {
            "skew_ps": self.skew,
            "clr_ps": self.clr,
            "max_latency_ps": self.max_latency,
            "worst_slew_ps": self.worst_slew,
            "total_capacitance_fF": self.total_capacitance,
            "wirelength_um": self.wirelength,
            "slew_violations": float(len(self.slew_violations)),
        }


@dataclass(frozen=True)
class CandidateScore:
    """Timing score of one candidate move from :meth:`evaluate_candidates`.

    Exposes the same objective fields (``skew``, ``clr``, ``max_latency``,
    ``worst_slew``, ``total_capacitance``, ``wirelength``) and constraint
    predicates (``has_slew_violation``, ``within_capacitance_limit``) as
    :class:`EvaluationReport`, so objective functions and IVC constraint
    callables accept either.  ``changed`` is the move's reported edge count
    (0 means the move was vacuous and the score fields are meaningless);
    ``batched`` records whether the score came from the batched numpy pass or
    from a full fallback evaluation.
    """

    index: int
    changed: int
    skew: float
    clr: float
    max_latency: float
    worst_slew: float
    total_capacitance: float
    wirelength: float
    slew_limit: float
    capacitance_limit: Optional[float]
    batched: bool

    @property
    def has_slew_violation(self) -> bool:
        return self.worst_slew > self.slew_limit

    @property
    def within_capacitance_limit(self) -> bool:
        if self.capacitance_limit is None:
            return True
        return self.total_capacitance <= self.capacitance_limit


@dataclass
class CandidateBatch:
    """Scores of one :meth:`evaluate_candidates` call, in move order.

    ``batched`` counts candidates scored by the batched numpy pass and
    ``fallbacks`` those that required a full evaluation (structure or driver
    polarity changed); vacuous candidates (``changed == 0``) count in neither.
    """

    scores: List[CandidateScore]
    batched: int
    fallbacks: int

    def __iter__(self) -> Iterator[CandidateScore]:
        return iter(self.scores)

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, index: int) -> CandidateScore:
        return self.scores[index]


# Content key of one stage: (driver revision, source resistance or None,
# *edge revisions); see _stage_key.
_StageKey = Tuple[Any, ...]
# Per-stage analytical model: (delay, sigma), each (taps, corner x transition).
_TapModel = Tuple[np.ndarray, np.ndarray]
_Driver = Optional[BufferType]
# Per-stage hook of the propagation kernel: (stage index, (rows,) drive slews)
# -> ((taps, rows) delays, (taps, rows) sigmas -- or final slews --, (rows,)
# intrinsic gate delays or None for an unbuffered driver).
_StageRows = Callable[
    [int, np.ndarray], Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]
]


def peri_slew(sigma: np.ndarray, drive_slew: np.ndarray) -> np.ndarray:
    """PERI tap slews ``sqrt((ln9 * sigma)^2 + drive^2)`` -- the one slew root.

    ``sigma`` holds ``(taps, rows)`` intrinsic slew scales and ``drive_slew``
    the ``(rows,)`` transitions driving them, broadcast along the last axis.
    The root is numpy's correctly rounded ``sqrt`` at every batch width; C
    ``pow`` with exponent one half (Python's float power) disagrees with it
    in the last bit on a fraction of inputs.
    """
    wire = LN9 * sigma
    wire *= wire
    wire += drive_slew * drive_slew
    return np.sqrt(wire, out=wire)


class _Walk(NamedTuple):
    """Output of one propagation-kernel walk.

    ``arrival``/``slew`` are taps-major ``(taps, rows)`` arrays, taps in
    :attr:`StageTopology.tap_ids` order and batch row
    ``(2 * corner + transition) * B + b`` (transition 0 = rise at the tap);
    both are None after a fold-mode walk, which keeps no per-tap arrays.
    ``max_latency`` and ``min_latency`` are each row's sink-latency
    extremes, ``worst_slew`` its worst tap slew.
    """

    arrival: Optional[np.ndarray]
    slew: Optional[np.ndarray]
    max_latency: np.ndarray
    min_latency: np.ndarray
    worst_slew: np.ndarray


class _PropagationState:
    """The last nominal walk (dirty-region baseline).

    ``keys`` are the per-stage content keys the walk was computed from.
    Valid only while the tree's structure revision matches (the stage
    decomposition, and hence the tap columns, is a function of it).
    """

    __slots__ = ("structure_revision", "keys", "walk")

    def __init__(
        self, structure_revision: int, keys: List[Optional[_StageKey]], walk: _Walk
    ) -> None:
        self.structure_revision = structure_revision
        self.keys = keys
        self.walk = walk


class _CandidateCapture:
    """What one applied-then-rolled-back candidate move left behind.

    ``dirty_moments``/``dirty_drivers`` hold the base moments and the live
    driver for each stage the move touched; every other stage reuses the
    shared base-tree reduction in the batched pass.  A dirty stage whose
    moments were not cached is only read while the move is applied:
    ``pending`` maps it to its slot in the batch's shared
    :class:`~repro.analysis.rcnetwork.StageContent`, and its moments join
    ``dirty_moments`` once the batch has been reduced.
    """

    __slots__ = (
        "index",
        "changed",
        "dirty_moments",
        "pending",
        "dirty_drivers",
        "total_capacitance",
        "wirelength",
    )

    def __init__(
        self,
        index: int,
        changed: int,
        dirty_moments: Dict[int, BaseTapMoments],
        pending: Dict[int, int],
        dirty_drivers: Dict[int, _Driver],
        total_capacitance: float,
        wirelength: float,
    ) -> None:
        self.index = index
        self.changed = changed
        self.dirty_moments = dirty_moments
        self.pending = pending
        self.dirty_drivers = dirty_drivers
        self.total_capacitance = total_capacitance
        self.wirelength = wirelength


def _taps_first(moments: BaseTapMoments) -> BaseTapMoments:
    """``moments`` with its per-tap vectors shaped ``(taps, 1, 1, 1)``, so
    :func:`~repro.analysis.arnoldi.batched_tap_moments` against ``(C, 2, B)``
    scales returns taps-major ``(taps, C, 2, B)`` arrays."""
    lead = (slice(None), None, None, None)
    return moments._replace(
        a_wire_tap=moments.a_wire_tap[lead],
        a_load_tap=moments.a_load_tap[lead],
        p_ww_tap=moments.p_ww_tap[lead],
        p_mixed_tap=moments.p_mixed_tap[lead],
        p_ll_tap=moments.p_ll_tap[lead],
    )


def _wire_scales(corner_scales: List[float], draws: np.ndarray) -> np.ndarray:
    """A Monte Carlo block's ``(samples, stages)`` wire draws times each
    corner's scale, as per-stage ``(C, 1, B)`` rows: ``(stages, C, 1, B)``.

    When every corner applies the same scale, ``C`` is 1 and the products
    are computed once per sample instead of once per corner.
    """
    distinct = corner_scales[:1] if len(set(corner_scales)) == 1 else corner_scales
    scaled = np.multiply.outer(distinct, draws)  # (C, B, stages)
    return np.ascontiguousarray(scaled.transpose(2, 0, 1))[:, :, None, :]


def _node_contribution(node: TreeNode) -> Tuple[float, float, float, float]:
    """One node's (wire cap, buffer cap, sink cap, edge length) contributions.

    Mirrors the accumulation conditions of
    :meth:`~repro.cts.tree.ClockTree.total_capacitance` and
    :meth:`~repro.cts.tree.ClockTree.total_wirelength` exactly.
    """
    if node.parent is not None and node.wire_type is not None:
        wire = node.wire_type.capacitance(node.route_length() + node.snake_length)
    else:
        wire = 0.0
    buffers = node.buffer.total_cap if node.buffer is not None else 0.0
    sinks = node.sink.capacitance if node.sink is not None and node.is_sink else 0.0
    length = node.edge_length() if node.parent is not None else 0.0
    return wire, buffers, sinks, length


def _stage_key(
    tree: ClockTree, stage: Stage, revisions: Dict[int, int]
) -> Tuple[_StageKey, _Driver]:
    """The stage's content key and its live driver buffer.

    The key is ``(driver revision, source resistance or None, *edge
    revisions)``: the source stage is driven through the source resistance,
    which no node revision covers.  It holds no node ids and is still exact.
    Every revision is drawn once from the process-wide counter, for one
    node (by node creation or :meth:`~repro.cts.tree.ClockTree.touch`), and
    clones, rollbacks and ``copy_state_from`` carry (node, revision) pairs
    together, so a revision names its node: two keys are equal exactly when
    the stages' (node, revision) pairs are.  Being one tuple of ints, a
    float and None, a key is left untracked by the cyclic collector after
    its first pass; a tuple per (edge, revision) pair was not.
    """
    driver_id = stage.driver_id
    buffer = tree.node(driver_id).buffer
    resistance = tree.source_resistance if buffer is None else None
    return (revisions[driver_id], resistance, *map(revisions.__getitem__, stage.edges)), buffer


def _stage_keys(
    tree: ClockTree, stages: List[Stage]
) -> Tuple[List[Optional[_StageKey]], List[_Driver]]:
    """Every stage's content key and live driver, computed afresh."""
    revisions = tree.node_revisions
    keys: List[Optional[_StageKey]] = []
    drivers: List[_Driver] = []
    for stage in stages:
        key, buffer = _stage_key(tree, stage, revisions)
        keys.append(key)
        drivers.append(buffer)
    return keys, drivers


class _RevisionSnapshot:
    """One tree state's report totals and stage keys, refreshed by node revision.

    :meth:`refresh` brings the snapshot to a tree.  It holds the node ids in
    node-table order -- the order
    :meth:`~repro.cts.tree.ClockTree.total_capacitance` sums in -- with their
    revisions and each node's (wire, buffer, sink, length) contributions.
    If the ids, their order or the structure revision differ it rebuilds;
    otherwise it recomputes only the nodes whose revision moved, since a
    revision names a node's content (a rolled-back ``remove_subtree``
    re-inserts nodes at the end of the node table under their old
    revisions, which is why the order is checked).  Stage keys and live
    drivers are recomputed only for the stages owning a moved node -- its
    parent edge (``stage_of_edge``) or the stage it drives
    (``stage_of_driver``) -- and all of them when the topology or the source
    resistance differ.  Key and driver lists are replaced, never edited, so
    callers may keep the lists they were given.

    Totals add left to right, as the tree's own walks do: the capacitance
    components with ``np.add.accumulate``, like the loop of
    :meth:`~repro.cts.tree.ClockTree.total_capacitance`, and the wirelength
    with the builtin ``sum``, like
    :meth:`~repro.cts.tree.ClockTree.total_wirelength` (``sum`` is
    compensated from Python 3.12 on, so it serves only the wirelength).
    Non-contributing nodes hold exact zeros, and adding 0.0 is exact, so
    both totals are bit-identical to the tree's walks.
    """

    __slots__ = (
        "ids",
        "pos",
        "revisions",
        "structure_revision",
        "revision",
        "caps",
        "lengths",
        "totals_cache",
        "topo",
        "source_resistance",
        "keys",
        "drivers",
    )

    def __init__(self) -> None:
        self.ids: List[int] = []
        self.pos: Dict[int, int] = {}
        self.revisions = np.zeros(0, dtype=np.int64)
        self.structure_revision = -1
        self.revision = -1
        # (wire, buffer, sink) rows, one column per node.
        self.caps = np.zeros((3, 0))
        self.lengths: List[float] = []
        self.totals_cache: Optional[Tuple[float, float]] = None
        self.topo: Optional[StageTopology] = None
        self.source_resistance = 0.0
        self.keys: List[Optional[_StageKey]] = []
        self.drivers: List[_Driver] = []

    def refresh(
        self, tree: ClockTree, topo: StageTopology
    ) -> Tuple[List[Optional[_StageKey]], List[_Driver]]:
        """Bring the snapshot to ``tree``; returns its stage keys and drivers."""
        revisions = tree.node_revisions
        ids = tree.node_ids()
        moved_stages: Optional[Set[int]] = set()  # None: every stage
        if ids != self.ids or tree.structure_revision != self.structure_revision:
            self._rebuild(tree, ids)
            moved_stages = None
        elif tree.revision != self.revision:
            current = np.fromiter(
                map(revisions.__getitem__, ids), dtype=np.int64, count=len(ids)
            )
            moved = np.flatnonzero(current != self.revisions).tolist()
            self.revisions = current
            stage_of_edge = topo.stage_of_edge
            stage_of_driver = topo.stage_of_driver
            for index in moved:
                node_id = ids[index]
                wire, buffers, sinks, length = _node_contribution(tree.node(node_id))
                self.caps[:, index] = (wire, buffers, sinks)
                self.lengths[index] = length
                for owner in (stage_of_edge.get(node_id), stage_of_driver.get(node_id)):
                    if owner is not None:
                        moved_stages.add(owner)
            if moved:
                self.totals_cache = None
        self.revision = tree.revision
        if (
            moved_stages is None
            or topo is not self.topo
            or tree.source_resistance != self.source_resistance
        ):
            self.keys, self.drivers = _stage_keys(tree, topo.stages)
            self.topo = topo
            self.source_resistance = tree.source_resistance
        elif moved_stages:
            keys = list(self.keys)
            drivers = list(self.drivers)
            for index in moved_stages:
                keys[index], drivers[index] = _stage_key(tree, topo.stages[index], revisions)
            self.keys, self.drivers = keys, drivers
        return self.keys, self.drivers

    def _rebuild(self, tree: ClockTree, ids: List[int]) -> None:
        revisions = tree.node_revisions
        self.ids = ids
        self.pos = {node_id: index for index, node_id in enumerate(ids)}
        self.revisions = np.fromiter(
            map(revisions.__getitem__, ids), dtype=np.int64, count=len(ids)
        )
        self.structure_revision = tree.structure_revision
        columns: List[Tuple[float, float, float]] = []
        self.lengths = []
        for node_id in ids:
            wire, buffers, sinks, length = _node_contribution(tree.node(node_id))
            columns.append((wire, buffers, sinks))
            self.lengths.append(length)
        self.caps = np.array(columns).T.copy()
        self.totals_cache = None

    def totals(self) -> Tuple[float, float]:
        """(total capacitance, wirelength) of the tree last refreshed to."""
        if self.totals_cache is None:
            self.totals_cache = self._sum(self.caps, self.lengths)
        return self.totals_cache

    def candidate_totals(
        self, tree: ClockTree, touched: Iterable[int]
    ) -> Tuple[float, float]:
        """(total capacitance, wirelength) of ``tree`` with a move applied.

        The snapshot holds the tree before the move; a copy with the touched
        nodes' current contributions in their places is re-summed.
        """
        caps = self.caps
        lengths = self.lengths
        copied = False
        for node_id in touched:
            index = self.pos.get(node_id)
            if index is None:
                continue
            if not copied:
                caps = caps.copy()
                lengths = list(lengths)
                copied = True
            caps[0, index], caps[1, index], caps[2, index], lengths[index] = (
                _node_contribution(tree.node(node_id))
            )
        return self._sum(caps, lengths)

    @staticmethod
    def _sum(caps: np.ndarray, lengths: List[float]) -> Tuple[float, float]:
        wire, buffers, sinks = np.add.accumulate(caps, axis=1)[:, -1].tolist()
        return wire + buffers + sinks, sum(lengths)


class StageCache:
    """Content-addressed cache of per-stage analysis results.

    Entries are keyed by stage content keys built from the
    :class:`~repro.cts.tree.ClockTree` mutation journal, so they remain valid
    across snapshots, clones and rollbacks: two stages with equal keys have
    identical RC content, no matter which tree object they live in.  The
    cache stores

    * ``stage topologies`` per tree structure revision (the stage
      decomposition plus its downstream-adjacency and tap-column indexes, see
      :class:`~repro.analysis.rcnetwork.StageTopology`),
    * ``tap models`` per stage content (the taps-major
      ``(taps, corner x transition)`` delay/sigma arrays of the analytical
      engines),
    * ``networks`` per (stage content, corner, transition) and ``timings``
      per (stage content, corner, transition, input slew) for the transient
      engine.

    When the total entry count reaches :attr:`MAX_ENTRIES` the cache is
    cleared wholesale -- the next evaluation repopulates it with only the
    live keys, which keeps memory bounded without LRU bookkeeping on the hot
    path.
    """

    MAX_ENTRIES = 200_000

    def __init__(self) -> None:
        self._topologies: "OrderedDict[int, StageTopology]" = OrderedDict()
        self._tap_models: Dict[_StageKey, _TapModel] = {}
        self._base_moments: Dict[tuple, BaseTapMoments] = {}
        self._networks: Dict[tuple, StageNetwork] = {}
        self._timings: Dict[tuple, StageTiming] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- stage decomposition ------------------------------------------------
    def topology(self, tree: ClockTree) -> StageTopology:
        """The tree's stage topology, cached by structure revision.

        Safe to share across trees with equal structure revisions: the
        decomposition, downstream adjacency and tap columns are all functions
        of the structure revision alone (buffer *presence* changes always
        bump it; same-site replacement is a content-only change).
        """
        revision = tree.structure_revision
        topo = self._topologies.get(revision)
        if topo is None:
            topo = build_stage_topology(tree)
            if len(self._topologies) >= 16:
                self._topologies.popitem(last=False)
            self._topologies[revision] = topo
        else:
            self._topologies.move_to_end(revision)
        return topo

    # -- analytical-engine models ------------------------------------------
    def tap_model(self, key: _StageKey) -> Optional[_TapModel]:
        model = self._tap_models.get(key)
        if model is None:
            self.misses += 1
        else:
            self.hits += 1
        return model

    def store_tap_model(self, key: _StageKey, model: _TapModel) -> None:
        self._bound()
        self._tap_models[key] = model

    def base_moments(self, key: tuple, count: bool = True) -> Optional[BaseTapMoments]:
        """Cached corner-independent moment reduction of one stage.

        Keys carry the stage content key plus the wire/load-split flag; the
        entries are shared between :meth:`ClockNetworkEvaluator.evaluate`
        (which turns them into tap models) and
        :meth:`ClockNetworkEvaluator.evaluate_yield` (which scales them per
        Monte Carlo sample), so a yield evaluation re-reduces only stages
        whose RC content changed since any earlier evaluation of either kind.

        ``count=False`` skips the hit/miss accounting: the nominal tap-model
        path already counts once per stage lookup, and one re-analyzed stage
        should keep counting as one miss.
        """
        moments = self._base_moments.get(key)
        if count:
            if moments is None:
                self.misses += 1
            else:
                self.hits += 1
        return moments

    def store_base_moments(self, key: tuple, moments: BaseTapMoments) -> None:
        self._bound()
        self._base_moments[key] = moments

    # -- transient-engine entries ------------------------------------------
    def network(self, key: tuple) -> Optional[StageNetwork]:
        return self._networks.get(key)

    def store_network(self, key: tuple, network: StageNetwork) -> None:
        self._bound()
        self._networks[key] = network

    def timing(self, key: tuple) -> Optional[StageTiming]:
        timing = self._timings.get(key)
        if timing is None:
            self.misses += 1
        else:
            self.hits += 1
        return timing

    def store_timing(self, key: tuple, timing: StageTiming) -> None:
        self._bound()
        self._timings[key] = timing

    # -- maintenance --------------------------------------------------------
    def _bound(self) -> None:
        total = (
            len(self._tap_models)
            + len(self._base_moments)
            + len(self._networks)
            + len(self._timings)
        )
        if total >= self.MAX_ENTRIES:
            self.clear()
            self.evictions += 1

    def clear(self) -> None:
        """Drop every cached entry (stats are kept)."""
        self._topologies.clear()
        self._tap_models.clear()
        self._base_moments.clear()
        self._networks.clear()
        self._timings.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "tap_models": len(self._tap_models),
            "base_moments": len(self._base_moments),
            "networks": len(self._networks),
            "timings": len(self._timings),
            "stage_lists": len(self._topologies),
        }


class ClockNetworkEvaluator:
    """Evaluate a clock tree with the configured engine at multiple corners.

    The evaluator keeps a running count of invocations (``run_count``), which
    stands in for the paper's "number of SPICE runs" metric in Table V, and a
    :class:`StageCache` making repeated evaluations incremental: only stages
    whose RC content changed since *any* earlier evaluation (of this tree or
    of a snapshot sharing its revisions) are re-analyzed.  Arrival/slew
    propagation is likewise restricted to the changed stages and their
    downstream cone (see the module docstring), and
    :meth:`evaluate_candidates` scores whole batches of moves in one batched
    walk.  All three layers are bit-identical to cold evaluation.
    """

    def __init__(
        self,
        config: Optional[EvaluatorConfig] = None,
        corners: Optional[Sequence[Corner]] = None,
        capacitance_limit: Optional[float] = None,
    ) -> None:
        self.config = config or EvaluatorConfig()
        corner_list = list(corners) if corners is not None else ispd09_corners()
        if not corner_list:
            raise ValueError("at least one corner is required")
        self.corners = corner_list
        self.capacitance_limit = capacitance_limit
        self.run_count = 0
        # Monte Carlo yield evaluations are counted separately: run_count
        # stands for the paper's "SPICE runs" metric and must not drift when
        # the variation engine is switched on.
        self.yield_run_count = 0
        # The fast corner has the highest supply, the slow corner the lowest.
        self._fast = max(corner_list, key=lambda c: c.vdd).name
        self._slow = min(corner_list, key=lambda c: c.vdd).name
        position = {corner.name: index for index, corner in enumerate(corner_list)}
        self._fast_pos = position[self._fast]
        self._slow_pos = position[self._slow]
        self.cache = StageCache()
        # Structured tracing: callers (the pipeline driver, a profiler) swap
        # in a live Tracer; the default NULL_TRACER keeps the instrumented
        # paths at one attribute read plus a branch.
        self.tracer: TracerBase = NULL_TRACER
        # Dirty-region propagation snapshot plus attribution counters
        # (surfaced through cache_stats() so reported speedups stay
        # attributable to the layer that produced them).
        self._prop: Optional[_PropagationState] = None
        # Report totals and stage keys of the last tree evaluated with the
        # cache on, refreshed node by node as revisions move.
        self._snapshot = _RevisionSnapshot()
        self._propagations_full = 0
        self._propagations_partial = 0
        self._stages_propagated = 0
        self._stages_total = 0
        self.candidate_batches = 0
        self.candidates_scored = 0
        self.candidate_fallbacks = 0
        # One kernel row per (corner, transition) combination, with its
        # driver/wire scalings and the corner's gate-delay scale.
        self._combos: List[Tuple[Corner, str]] = []
        driver_scales: List[float] = []
        res_scales: List[float] = []
        cap_scales: List[float] = []
        gate_scales: List[float] = []
        for corner in corner_list:
            for direction in _TRANSITIONS:
                asym = PULL_UP_FACTOR if direction == RISE else PULL_DOWN_FACTOR
                self._combos.append((corner, direction))
                driver_scales.append(corner.driver_scale * asym)
                res_scales.append(corner.wire_res_scale)
                cap_scales.append(corner.wire_cap_scale)
                gate_scales.append(corner.driver_scale)
        self._combo_scales = (driver_scales, res_scales, cap_scales)
        self._gate_scale = np.array(gate_scales)
        # With no corner scaling wire capacitance (the ISPD'09 set), the
        # moment reduction can collapse wire and load caps into one component.
        self._split_caps = any(scale != 1.0 for scale in cap_scales)

    # ------------------------------------------------------------------
    def evaluate(self, tree: ClockTree, incremental: bool = True) -> EvaluationReport:
        """Run one Clock-Network Evaluation of ``tree`` at every corner.

        By default the evaluation reads and updates the stage cache, the
        revision snapshot and the retained walk; ``incremental=False`` forces
        a cold evaluation (identical results, no cache reads or writes).
        """
        tracer = self.tracer
        if not tracer.enabled:
            return self._evaluate_inner(tree, incremental)
        hits_before = self.cache.hits
        misses_before = self.cache.misses
        full_before = self._propagations_full
        partial_before = self._propagations_partial
        stages_before = self._stages_propagated
        with tracer.span("evaluate") as span:
            report = self._evaluate_inner(tree, incremental)
            if span is not None:
                span.count("cache_hits", self.cache.hits - hits_before)
                span.count("cache_misses", self.cache.misses - misses_before)
                span.count("propagations_full", self._propagations_full - full_before)
                span.count(
                    "propagations_partial", self._propagations_partial - partial_before
                )
                span.count(
                    "stages_propagated", self._stages_propagated - stages_before
                )
        return report

    def _evaluate_inner(self, tree: ClockTree, use_cache: bool) -> EvaluationReport:
        self.run_count += 1
        topo, keys, drivers = self._topology_and_keys(tree, use_cache)
        recompute: Optional[List[int]] = None
        prior: Optional[_PropagationState] = None
        if use_cache:
            recompute, prior = self._dirty_frontier(tree, keys, topo)
        total = len(topo.stages)
        self._stages_total += total
        if recompute is None:
            self._propagations_full += 1
            self._stages_propagated += total
        else:
            self._propagations_partial += 1
            self._stages_propagated += len(recompute)
            # ``hits`` counts one lookup per stage per evaluation, and every
            # record's ``evaluator_cache`` pins that count: credit each
            # retained stage with the hit it no longer has to look up.
            self.cache.hits += total - len(recompute)
        order = range(total) if recompute is None else recompute
        with self.tracer.span("propagate") as prop_span:
            walk = self._walk(
                topo,
                drivers,
                order,
                self._nominal_rows(tree, topo, order, keys, drivers),
                prior=None if prior is None else prior.walk,
            )
            if prop_span is not None:
                prop_span.count("corners", len(self.corners))
                prop_span.count(
                    "stages", total if recompute is None else len(recompute)
                )
        if use_cache:
            self._prop = _PropagationState(tree.structure_revision, keys, walk)
            total_capacitance, wirelength = self._snapshot.totals()
        else:
            total_capacitance = tree.total_capacitance()
            wirelength = tree.total_wirelength()
        skew, clr, max_latency, worst_slew = (
            objective.item() for objective in self._objectives(walk, 1)
        )
        return EvaluationReport(
            corners={
                corner.name: CornerTiming(corner, topo, walk, 2 * position)
                for position, corner in enumerate(self.corners)
            },
            fast_corner=self._fast,
            slow_corner=self._slow,
            engine=self.config.engine,
            slew_limit=self.config.slew_limit,
            total_capacitance=total_capacitance,
            capacitance_limit=self.capacitance_limit,
            wirelength=wirelength,
            evaluation_index=self.run_count,
            skew=skew,
            clr=clr,
            max_latency=max_latency,
            worst_slew=worst_slew,
        )

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/size statistics of the stage cache plus propagation and
        candidate-batching attribution counters (see the module docstring)."""
        stats = self.cache.stats()
        stats["propagations_full"] = self._propagations_full
        stats["propagations_partial"] = self._propagations_partial
        stats["stages_propagated"] = self._stages_propagated
        stats["stages_total"] = self._stages_total
        stats["candidate_batches"] = self.candidate_batches
        stats["candidates_scored"] = self.candidates_scored
        stats["candidate_fallbacks"] = self.candidate_fallbacks
        return stats

    def clear_cache(self) -> None:
        """Drop all cached stage analyses (results are unaffected)."""
        self.cache.clear()
        self._prop = None
        self._snapshot = _RevisionSnapshot()

    # ------------------------------------------------------------------
    # The propagation kernel
    # ------------------------------------------------------------------
    def _walk(
        self,
        topo: StageTopology,
        drivers: Sequence[_Driver],
        order: Iterable[int],
        rows: _StageRows,
        batch: int = 1,
        prior: Optional[_Walk] = None,
        fold: bool = False,
    ) -> _Walk:
        """Propagate arrival times and slews through the stages in ``order``.

        This is the only implementation of the stage recurrence.  ``order``
        lists stage indices parents first; ``rows(index, drive)`` supplies
        the stage's ``(taps, rows)`` delay and sigma (final slews for the
        transient engine) plus the driver's ``(rows,)`` intrinsic gate
        delays.  Every row of the batch axis ``(corner, transition, b)``
        carries the transition at the tap.  The per-tap arrays are
        taps-major, so a walked stage reads its input from the contiguous
        row of its driver tap: taps outside ``order`` -- and the walked
        children of retained parents -- see ``prior``'s values, and a
        ``B = 1`` prior fans out to every batch row.

        ``fold=True`` keeps no per-tap arrays (``order`` must then cover
        every stage; there is no prior): each walked stage's sink-latency
        extremes and worst tap slew fold into running ``(rows,)`` vectors,
        and copies of a driver tap's two rows are held only until the stage
        it drives has been walked.  Max and min are exact, so the folded
        extremes equal the whole-array reductions.
        """
        transient = self.config.engine == "spice"
        n_rows = 2 * len(self.corners) * batch
        arrival: Optional[np.ndarray] = None
        slew: Optional[np.ndarray] = None
        if fold:
            high = np.full(n_rows, -np.inf)
            low = np.full(n_rows, np.inf)
            worst = np.zeros(n_rows)
            held: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        elif prior is None:
            arrival = np.empty((len(topo.tap_ids), n_rows))
            slew = np.empty_like(arrival)
        else:
            assert prior.arrival is not None and prior.slew is not None
            fan_out = n_rows // prior.arrival.shape[1]
            arrival = np.repeat(prior.arrival, fan_out, axis=1)
            slew = np.repeat(prior.slew, fan_out, axis=1)
        # An inverting driver swaps the rise and fall rows of every corner.
        swap = np.arange(n_rows).reshape(-1, 2, batch)[:, ::-1].ravel()
        source_arrival = np.zeros(n_rows)
        source_slew = np.full(n_rows, SOURCE_SLEW)
        tap_start = topo.tap_start
        driver_col = topo.driver_col
        for index in order:
            col = driver_col[index]
            if col < 0:
                in_arrival, in_slew = source_arrival, source_slew
            elif arrival is None or slew is None:  # fold mode
                in_arrival, in_slew = held.pop(col)
            else:
                in_arrival, in_slew = arrival[col], slew[col]
            buffer = drivers[index]
            if buffer is None:
                drive = in_slew
            else:
                if buffer.inverting:
                    in_arrival, in_slew = in_arrival[swap], in_slew[swap]
                drive = BUFFER_SLEW_REGENERATION * in_slew
            delay, second, gate = rows(index, drive)
            if gate is not None:
                in_arrival = in_arrival + (gate + SLEW_DELAY_FACTOR * in_slew)
            tap_slew = second if transient else peri_slew(second, drive)
            if arrival is None or slew is None:  # fold mode
                tap_arrival = in_arrival + delay
                sinks = topo.sink_pos[index]
                if len(sinks):
                    latency = tap_arrival[sinks]
                    np.maximum(high, latency.max(axis=0), out=high)
                    np.minimum(low, latency.min(axis=0), out=low)
                np.maximum(worst, tap_slew.max(axis=0, initial=0.0), out=worst)
                for child in topo.children[index]:
                    pos = driver_col[child] - tap_start[index]
                    held[driver_col[child]] = (tap_arrival[pos].copy(), tap_slew[pos].copy())
            else:
                taps = slice(tap_start[index], tap_start[index + 1])
                np.add(in_arrival, delay, out=arrival[taps])
                slew[taps] = tap_slew
        if arrival is None or slew is None:  # fold mode
            return _Walk(None, None, high, low, worst)
        latency = arrival.take(topo.sink_cols, axis=0)
        return _Walk(
            arrival,
            slew,
            latency.max(axis=0, initial=-np.inf),
            latency.min(axis=0, initial=np.inf),
            slew.max(axis=0, initial=0.0),
        )

    def _objectives(
        self, walk: _Walk, batch: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Skew, CLR, max latency and worst slew of every batch item.

        The one definition of the four objectives, applied to each ``b`` of
        the walk's ``(corner, transition, b)`` rows: an
        :class:`EvaluationReport` is the ``B = 1`` case.
        """
        shape = (len(self.corners), 2, batch)
        high = walk.max_latency.reshape(shape)
        low = walk.min_latency.reshape(shape)
        fast, slow = self._fast_pos, self._slow_pos
        skew = np.maximum(high[fast, 0] - low[fast, 0], high[fast, 1] - low[fast, 1])
        clr = np.maximum(high[slow, 0] - low[fast, 0], high[slow, 1] - low[fast, 1])
        max_latency = np.maximum(high[slow, 0], high[slow, 1])
        worst_slew = walk.worst_slew.reshape(-1, batch).max(axis=0)
        return skew, clr, max_latency, worst_slew

    def _nominal_rows(
        self,
        tree: ClockTree,
        topo: StageTopology,
        order: Sequence[int],
        keys: List[Optional[_StageKey]],
        drivers: List[_Driver],
    ) -> _StageRows:
        """Kernel rows of a nominal (``B = 1``) walk of the stages ``order``.

        The analytical engines read tap models, the misses among them built
        in one batch before the walk; the transient engine analyzes the
        stage at each row's drive slew.
        """
        transient = self.config.engine == "spice"
        gate_scale = self._gate_scale
        stages = topo.stages
        models = {} if transient else self._tap_models(tree, topo, order, keys)

        def rows(
            index: int, drive: np.ndarray
        ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
            if transient:
                delay, second = self._transient_rows(tree, stages[index], keys[index], drive)
            else:
                delay, second = models[index]
            buffer = drivers[index]
            gate = None if buffer is None else buffer.intrinsic_delay * gate_scale
            return delay, second, gate

        return rows

    # ------------------------------------------------------------------
    # Batched candidate evaluation
    # ------------------------------------------------------------------
    def evaluate_candidates(
        self, tree: ClockTree, moves: Sequence[Callable[[], int]]
    ) -> CandidateBatch:
        """Score independent candidate moves against the current tree.

        Each ``move`` is a callable that mutates ``tree`` and returns the
        number of edges it changed (0 for a vacuous move).  Every move is
        applied under a journal checkpoint and rolled back before the next
        one, so ``tree`` is returned unchanged; the scores say what *would*
        happen if the move were committed, bit-identical to applying the move
        and calling :meth:`evaluate`.

        With an analytical engine, all structure-preserving moves are scored
        by one walk over the candidates axis (see the module docstring);
        moves that change the tree structure or a driver's polarity fall back
        to a full evaluation.  The transient engine scores every move by a
        full evaluation.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return self._evaluate_candidates_inner(tree, moves)
        with tracer.span("candidate_batch") as span:
            batch = self._evaluate_candidates_inner(tree, moves)
            if span is not None:
                span.count("candidates", len(moves))
                span.count("batched", batch.batched)
                span.count("fallbacks", batch.fallbacks)
        return batch

    def _evaluate_candidates_inner(
        self, tree: ClockTree, moves: Sequence[Callable[[], int]]
    ) -> CandidateBatch:
        if not moves:
            return CandidateBatch(scores=[], batched=0, fallbacks=0)
        if self.config.engine == "spice":
            return CandidateBatch(
                scores=[
                    self._serial_candidate(tree, index, move)
                    for index, move in enumerate(moves)
                ],
                batched=0,
                fallbacks=0,
            )
        topo = self.cache.topology(tree)
        keys, drivers = self._snapshot.refresh(tree, topo)
        # Candidate scoring is seeded from the last nominal walk: only the
        # union of the candidates' dirty closures has to be walked K-wide and
        # every retained tap comes from that walk.  Re-evaluate if the tree
        # moved since the last evaluate (cheap -- itself a partial pass).
        prior = self._prop
        if (
            prior is None
            or prior.structure_revision != tree.structure_revision
            or prior.keys != keys
        ):
            self.evaluate(tree)
            prior = self._prop
        assert prior is not None  # evaluate() just kept its walk
        keys = prior.keys  # equal content; shared for cheap comparisons
        base_revision = tree.structure_revision
        results: List[Optional[CandidateScore]] = [None] * len(moves)
        captures: List[_CandidateCapture] = []
        # Dirty stages read while their move was applied, reduced together
        # after the loop; ``slot_of`` maps each content key to its slot.
        content = StageContent()
        slot_of: Dict[tuple, int] = {}
        fallbacks = 0
        for index, move in enumerate(moves):
            token = tree.checkpoint()
            fell_back = False
            try:
                changed = move()
                if changed == 0:
                    results[index] = self._vacuous_score(index)
                    continue
                capture = self._capture_candidate(
                    tree, token, index, changed, topo, drivers, base_revision,
                    content, slot_of,
                )
                if capture is None:
                    # Structure or driver polarity changed: score honestly
                    # with a full evaluation while the move is applied.
                    fell_back = True
                    fallbacks += 1
                    self.candidate_fallbacks += 1
                    report = self.evaluate(tree)
                    results[index] = self._score_from_report(
                        index, changed, report, batched=False
                    )
                else:
                    captures.append(capture)
            finally:
                tree.rollback_to(token)
            if fell_back:
                # The fallback evaluation moved the snapshot to the applied
                # move; the next captures' totals need the base tree.
                self._snapshot.refresh(tree, topo)
        reduced = self._reduce(topo, content, self._split_caps)
        for cache_key, slot in slot_of.items():
            self.cache.store_base_moments(cache_key, reduced[slot])
        if captures:
            self.candidate_batches += 1
            self.candidates_scored += len(captures)
            # The K-wide walk covers the union of the captured dirty frontiers
            # closed downstream.
            union_dirty: Set[int] = set()
            for capture in captures:
                for stage_index, slot in capture.pending.items():
                    capture.dirty_moments[stage_index] = reduced[slot]
                union_dirty.update(capture.dirty_moments)
            closure = self._downstream_closure(union_dirty, topo)
            for capture, score in zip(
                captures,
                self._batched_scores(
                    tree, topo, keys, drivers, closure, captures, prior.walk
                ),
            ):
                results[capture.index] = score
        scores: List[CandidateScore] = []
        for result in results:
            assert result is not None  # every index filled above
            scores.append(result)
        return CandidateBatch(scores=scores, batched=len(captures), fallbacks=fallbacks)

    def _serial_candidate(
        self, tree: ClockTree, index: int, move: Callable[[], int]
    ) -> CandidateScore:
        token = tree.checkpoint()
        try:
            changed = move()
            if changed == 0:
                return self._vacuous_score(index)
            report = self.evaluate(tree)
            return self._score_from_report(index, changed, report, batched=False)
        finally:
            tree.rollback_to(token)

    def _vacuous_score(self, index: int) -> CandidateScore:
        return CandidateScore(
            index=index,
            changed=0,
            skew=0.0,
            clr=0.0,
            max_latency=0.0,
            worst_slew=0.0,
            total_capacitance=0.0,
            wirelength=0.0,
            slew_limit=self.config.slew_limit,
            capacitance_limit=self.capacitance_limit,
            batched=False,
        )

    def _score_from_report(
        self, index: int, changed: int, report: EvaluationReport, batched: bool
    ) -> CandidateScore:
        return CandidateScore(
            index=index,
            changed=changed,
            skew=report.skew,
            clr=report.clr,
            max_latency=report.max_latency,
            worst_slew=report.worst_slew,
            total_capacitance=report.total_capacitance,
            wirelength=report.wirelength,
            slew_limit=report.slew_limit,
            capacitance_limit=report.capacitance_limit,
            batched=batched,
        )

    def _capture_candidate(
        self,
        tree: ClockTree,
        token: int,
        index: int,
        changed: int,
        topo: StageTopology,
        drivers: List[_Driver],
        base_revision: int,
        content: StageContent,
        slot_of: Dict[tuple, int],
    ) -> Optional[_CandidateCapture]:
        """Capture an applied move's dirty stages, or None to force fallback.

        A dirty stage whose moments are not cached is only read here, into
        the batch's shared ``content``; the caller reduces every capture's
        reads in one batch once the moves are rolled back.
        """
        if tree.structure_revision != base_revision:
            return None
        touched = tree.touched_since(token)
        dirty_stages: Set[int] = set()
        for node_id in touched:
            stage_index = topo.stage_of_edge.get(node_id)
            if stage_index is not None:
                dirty_stages.add(stage_index)
            stage_index = topo.stage_of_driver.get(node_id)
            if stage_index is not None:
                dirty_stages.add(stage_index)
        revisions = tree.node_revisions
        split = self._split_caps
        dirty_moments: Dict[int, BaseTapMoments] = {}
        slots: Dict[int, int] = {}
        dirty_drivers: Dict[int, _Driver] = {}
        for stage_index in dirty_stages:
            base_buffer = drivers[stage_index]
            key, buffer = _stage_key(tree, topo.stages[stage_index], revisions)
            if (buffer is None) != (base_buffer is None):
                return None
            if (
                buffer is not None
                and base_buffer is not None
                and buffer.inverting != base_buffer.inverting
            ):
                return None
            cache_key = (key, split)
            moments = self.cache.base_moments(cache_key, count=False)
            if moments is not None:
                dirty_moments[stage_index] = moments
            else:
                slot = slot_of.get(cache_key)
                if slot is None:
                    slot = slot_of[cache_key] = len(content)
                    content.read(tree, topo, stage_index, self.config.max_segment_length)
                slots[stage_index] = slot
            dirty_drivers[stage_index] = buffer
        total_capacitance, wirelength = self._snapshot.candidate_totals(tree, touched)
        return _CandidateCapture(
            index=index,
            changed=changed,
            dirty_moments=dirty_moments,
            pending=slots,
            dirty_drivers=dirty_drivers,
            total_capacitance=total_capacitance,
            wirelength=wirelength,
        )

    def _batched_scores(
        self,
        tree: ClockTree,
        topo: StageTopology,
        keys: List[Optional[_StageKey]],
        drivers: List[_Driver],
        closure: List[int],
        captures: List[_CandidateCapture],
        prior: _Walk,
    ) -> List[CandidateScore]:
        """Score every captured candidate in one ``K``-wide walk of ``closure``.

        A stage a candidate left untouched uses the base tree's rows, a dirty
        one the candidate's own variant rows; the closure's base moments
        come from one batch reduction and one ``_delay_sigma`` call covers
        every variant of every closure stage, side by side on the tap axis.
        Driver presence and polarity are uniform across candidates by
        construction (divergent moves fell back), so the base tree's drivers
        steer the walk.
        """
        batch = len(captures)
        variants: List[BaseTapMoments] = []
        columns: Dict[int, np.ndarray] = {}  # stage -> (taps, candidates)
        width = 0
        bases = self._base_moments(tree, topo, closure, keys, self._split_caps, count=False)
        for index, base in zip(closure, bases):
            taps = len(base.tap_ids)
            start = np.full(batch, width)
            variants.append(base)
            width += taps
            for column, capture in enumerate(captures):
                moments = capture.dirty_moments.get(index)
                if moments is not None:
                    start[column] = width
                    variants.append(moments)
                    width += taps
            columns[index] = np.arange(taps)[:, None] + start
        delay, sigma = self._delay_sigma(stack_tap_moments(variants))
        # Each stage's kernel rows as flat positions in the (corner x
        # transition, width) delay/sigma arrays: (tap, combination, candidate).
        combo_start = np.arange(len(self._combos))[:, None] * width
        n_rows = len(self._combos) * batch
        positions = {
            index: (cols[:, None, :] + combo_start).reshape(len(cols), n_rows)
            for index, cols in columns.items()
        }

        def rows(
            index: int, drive: np.ndarray
        ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
            stage_delay = delay.take(positions[index])
            if sigma is delay:  # elmore
                stage_sigma = stage_delay
            else:
                stage_sigma = sigma.take(positions[index])
            buffer = drivers[index]
            if buffer is None:
                return stage_delay, stage_sigma, None
            intrinsic: List[float] = []
            for capture in captures:
                driver = capture.dirty_drivers.get(index, buffer)
                assert driver is not None  # presence is uniform (fallback)
                intrinsic.append(driver.intrinsic_delay)
            gate = np.multiply.outer(self._gate_scale, intrinsic).ravel()
            return stage_delay, stage_sigma, gate

        walk = self._walk(topo, drivers, closure, rows, batch=batch, prior=prior)
        skew, clr, max_latency, worst_slew = self._objectives(walk, batch)
        return [
            CandidateScore(
                index=capture.index,
                changed=capture.changed,
                skew=float(skew[column]),
                clr=float(clr[column]),
                max_latency=float(max_latency[column]),
                worst_slew=float(worst_slew[column]),
                total_capacitance=capture.total_capacitance,
                wirelength=capture.wirelength,
                slew_limit=self.config.slew_limit,
                capacitance_limit=self.capacitance_limit,
                batched=True,
            )
            for column, capture in enumerate(captures)
        ]

    def _downstream_closure(
        self, dirty: Iterable[int], topo: StageTopology
    ) -> List[int]:
        """Dirty stage indices closed over downstream stages, in stage order.

        The stage list is topological (parents before children), so the
        sorted closure can be propagated by increasing index.
        """
        closure: Set[int] = set()
        stack = list(dirty)
        while stack:
            index = stack.pop()
            if index in closure:
                continue
            closure.add(index)
            stack.extend(topo.children[index])
        return sorted(closure)

    # ------------------------------------------------------------------
    # Monte Carlo variation evaluation
    # ------------------------------------------------------------------
    def evaluate_yield(
        self,
        tree: ClockTree,
        model: VariationModel,
        samples: int,
        *,
        rng: np.random.Generator,
        skew_limit_ps: float = YIELD_SKEW_LIMIT_PS,
    ) -> YieldReport:
        """Evaluate ``tree`` under ``samples`` Monte Carlo variation scenarios.

        Per-stage perturbations are drawn from ``model`` and applied on top
        of every evaluator corner; the propagation kernel then walks every
        scenario over its batch axis in fold mode, in blocks of samples
        (``_YIELD_BLOCK_ELEMENTS``).  One
        :func:`~repro.analysis.arnoldi.batched_tap_moments` call per stage
        and block covers every corner, transition and sample and returns
        taps-major ``(taps, corner, transition, sample)`` moments: the wire
        scales are ``(1, 1, B)`` -- or ``(C, 1, B)`` when the corners scale
        wires differently -- against ``(C, 2, B)`` driver scales, so the
        wire terms are computed once per sample rather than once per
        corner and transition.  A zero-variance model reproduces the
        nominal evaluation bit-for-bit: sampling returns multipliers of
        exactly 1.0 and the nominal path runs the same kernel.  ``rng``
        draws every sample; callers derive it from their own seed path with
        :func:`repro.seeding.derive_rng`.

        Only the analytical engines can be batched this way; the transient
        engine raises.  ``skew_limit_ps`` sets the yield threshold of the
        returned :class:`~repro.analysis.variation.YieldReport`
        (:data:`~repro.analysis.variation.YIELD_SKEW_LIMIT_PS` by default).
        """
        if self.config.engine not in ANALYTICAL_ENGINES:
            raise ValueError(
                f"evaluate_yield requires an analytical engine {ANALYTICAL_ENGINES}; "
                "the transient engine cannot be batched across variation samples"
            )
        if samples < 1:
            raise ValueError("samples must be >= 1")
        self.yield_run_count += 1
        topo, keys, drivers = self._topology_and_keys(tree, use_cache=True)
        stages = topo.stages
        positions = np.array(
            [
                (tree.node(stage.driver_id).position.x, tree.node(stage.driver_id).position.y)
                for stage in stages
            ]
        )
        draws = model.sample(samples, rng, positions=positions)
        split = self._split_caps or model.perturbs_wire_cap
        moments = [
            _taps_first(base)
            for base in self._base_moments(
                tree, topo, range(len(stages)), keys, split, count=True
            )
        ]
        use_d2m = self.config.engine == "arnoldi"
        corners = self.corners
        driver_mult = [
            draws.driver * supply_driver_multiplier(corner.vdd, draws.vdd_shift)
            for corner in corners
        ]
        # (C, 2, 1) driver scales by transition and (C, 1, 1) gate scales.
        driver_scale = np.array(
            [
                [corner.driver_scale * PULL_UP_FACTOR, corner.driver_scale * PULL_DOWN_FACTOR]
                for corner in corners
            ]
        )[:, :, None]
        gate_scale = np.array([corner.driver_scale for corner in corners])[:, None, None]
        res_scales = [corner.wire_res_scale for corner in corners]
        cap_scales = [corner.wire_cap_scale for corner in corners]
        block = max(
            1, _YIELD_BLOCK_ELEMENTS // (2 * len(corners) * max(1, len(topo.tap_ids)))
        )

        def block_rows(low: int, high: int) -> _StageRows:
            n_rows = 2 * len(corners) * (high - low)
            # Per stage: (C, 1, B) driver multipliers, (1 or C, 1, B) wire scales.
            stage_driver = np.stack([mult[low:high].T for mult in driver_mult], axis=1)
            wire_res = _wire_scales(res_scales, draws.wire_res[low:high])
            wire_cap = _wire_scales(cap_scales, draws.wire_cap[low:high])

            def rows(
                index: int, drive: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
                base = moments[index]
                driver = stage_driver[index][:, None, :]
                m1, m2 = batched_tap_moments(
                    base, driver_scale * driver, wire_res[index], wire_cap[index]
                )
                taps = len(base.tap_ids)
                delay, sigma = batched_delay_sigma(
                    m1.reshape(taps, n_rows), m2.reshape(taps, n_rows), use_d2m=use_d2m
                )
                buffer = drivers[index]
                if buffer is None:
                    return delay, sigma, None
                gate = buffer.intrinsic_delay * (gate_scale * driver)
                return delay, sigma, np.repeat(gate, 2, axis=1).ravel()

            return rows

        parts: List[Tuple[np.ndarray, ...]] = []
        for low in range(0, samples, block):
            high = min(low + block, samples)
            walk = self._walk(
                topo, drivers, range(len(stages)), block_rows(low, high),
                batch=high - low, fold=True,
            )
            parts.append(self._objectives(walk, high - low))
        skew, clr, _, worst_slew = (np.concatenate(columns) for columns in zip(*parts))
        return YieldReport(
            n_samples=samples,
            engine=self.config.engine,
            model=model.describe(),
            skew_limit_ps=skew_limit_ps,
            slew_limit_ps=self.config.slew_limit,
            fast_corner=self._fast,
            slow_corner=self._slow,
            skew_samples=skew,
            clr_samples=clr,
            worst_slew_samples=worst_slew,
        )

    # ------------------------------------------------------------------
    # Stage bookkeeping
    # ------------------------------------------------------------------
    def _topology_and_keys(
        self, tree: ClockTree, use_cache: bool
    ) -> Tuple[StageTopology, List[Optional[_StageKey]], List[_Driver]]:
        """Stage topology, content keys and live driver buffers of ``tree``.

        Drivers are read live from the tree: a cached topology may pre-date
        a same-site buffer re-sizing.
        """
        if not use_cache:
            topo = build_stage_topology(tree)
            drivers = [tree.node(stage.driver_id).buffer for stage in topo.stages]
            return topo, [None] * len(topo.stages), drivers
        topo = self.cache.topology(tree)
        keys, drivers = self._snapshot.refresh(tree, topo)
        return topo, keys, drivers

    def _dirty_frontier(
        self, tree: ClockTree, keys: List[Optional[_StageKey]], topo: StageTopology
    ) -> Tuple[Optional[List[int]], Optional[_PropagationState]]:
        """Stages to re-propagate in stage order, or (None, None) to force a
        full walk.

        The dirty set is the content-key mismatches against the last
        propagation snapshot, closed over downstream stages (a changed stage
        changes the input arrival/slew of everything below its taps).  The
        complement -- retained stages -- then provably has only retained
        ancestors, which is what makes reading them from the snapshot
        bit-identical.
        """
        prop = self._prop
        if (
            prop is None
            or prop.structure_revision != tree.structure_revision
            or len(prop.keys) != len(keys)
        ):
            return None, None
        dirty = (
            index
            for index, (old, new) in enumerate(zip(prop.keys, keys))
            if old != new
        )
        return self._downstream_closure(dirty, topo), prop

    # ------------------------------------------------------------------
    # Analytical engines: batched per-stage tap models
    # ------------------------------------------------------------------
    def _tap_models(
        self,
        tree: ClockTree,
        topo: StageTopology,
        order: Iterable[int],
        keys: List[Optional[_StageKey]],
    ) -> Dict[int, _TapModel]:
        """The ``(taps, corner x transition)`` delay and sigma of ``order``.

        ``delay`` is the wire delay from the driver switching instant and
        ``sigma`` the intrinsic slew scale; both are independent of the input
        transition, which enters only in the final PERI combination during
        propagation -- that is what makes a cached model reusable no matter
        how upstream stages change.  Stages are looked up one by one in
        ``order`` (one cache hit or miss each); the misses are reduced in
        one batch and modelled by one :meth:`_delay_sigma` call.
        """
        models: Dict[int, _TapModel] = {}
        missed: List[int] = []
        for index in order:
            key = keys[index]
            model = None if key is None else self.cache.tap_model(key)
            if model is None:
                missed.append(index)
            else:
                models[index] = model
        if not missed:
            return models
        moments = self._base_moments(tree, topo, missed, keys, self._split_caps, count=False)
        # Computed rows-major (a few rows, many taps: the fast layout) and
        # transposed once, so every cached model is a contiguous row slice.
        delay, sigma = self._delay_sigma(stack_tap_moments(moments))
        delay_taps = np.ascontiguousarray(delay.T)
        sigma_taps = delay_taps if sigma is delay else np.ascontiguousarray(sigma.T)
        low = 0
        for index, base in zip(missed, moments):
            taps = slice(low, low + len(base.tap_ids))
            low = taps.stop
            model = (delay_taps[taps], sigma_taps[taps])
            models[index] = model
            key = keys[index]
            if key is not None:
                self.cache.store_tap_model(key, model)
        return models

    def _delay_sigma(self, moments: BaseTapMoments) -> _TapModel:
        m1, m2 = batched_tap_moments(moments, *self._combo_scales)
        return batched_delay_sigma(m1, m2, use_d2m=(self.config.engine == "arnoldi"))

    def _base_moments(
        self,
        tree: ClockTree,
        topo: StageTopology,
        indices: Iterable[int],
        keys: List[Optional[_StageKey]],
        split: bool,
        count: bool,
    ) -> List[BaseTapMoments]:
        """The stages' corner-independent moment reductions, cached by content.

        Shared by the tap models of :meth:`evaluate`, the Monte Carlo batches
        of :meth:`evaluate_yield` and the candidate batches of
        :meth:`evaluate_candidates`, so whichever runs first pays for the
        reduction and the others reuse it for every stage whose RC content
        is unchanged.  The stages not cached are read from ``tree`` and
        reduced in one batch.  ``count=False`` skips the hit/miss
        accounting: the nominal tap-model path already counts once per stage
        lookup, and one re-analyzed stage should keep counting as one miss.
        """
        content = StageContent()
        lookups: List[Tuple[Optional[BaseTapMoments], Optional[tuple]]] = []
        for index in indices:
            key = keys[index]
            cache_key = None if key is None else (key, split)
            cached = None
            if cache_key is not None:
                cached = self.cache.base_moments(cache_key, count=count)
            if cached is None:
                content.read(tree, topo, index, self.config.max_segment_length)
            lookups.append((cached, cache_key))
        reduced = iter(self._reduce(topo, content, split))
        moments: List[BaseTapMoments] = []
        for cached, cache_key in lookups:
            if cached is None:
                cached = next(reduced)
                if cache_key is not None:
                    self.cache.store_base_moments(cache_key, cached)
            moments.append(cached)
        return moments

    def _reduce(
        self, topo: StageTopology, content: StageContent, split: bool
    ) -> List[BaseTapMoments]:
        """Lay out and reduce every stage read into ``content``, in read order."""
        if not content:
            return []
        return reduce_stage_batch(lay_out_stages(topo, content), split_wire_load=split)

    # ------------------------------------------------------------------
    # Transient (SPICE-substitute) engine
    # ------------------------------------------------------------------
    def _transient_rows(
        self, tree: ClockTree, stage: Stage, key: Optional[_StageKey], drive: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The stage's ``(taps, rows)`` delays and slews, one transient
        analysis per row."""
        delay = np.empty((len(stage.taps), len(self._combos)))
        slew = np.empty_like(delay)
        for row, (corner, direction) in enumerate(self._combos):
            timing = self._transient_stage_timing(
                tree, stage, key, corner, direction, float(drive[row])
            )
            delay[:, row] = [timing.delay[tap] for tap in stage.taps]
            slew[:, row] = [timing.slew[tap] for tap in stage.taps]
        return delay, slew

    def _transient_stage_timing(
        self,
        tree: ClockTree,
        stage: Stage,
        key: Optional[_StageKey],
        corner: Corner,
        output_dir: str,
        drive_slew: float,
    ) -> StageTiming:
        cfg = self.config
        timing_key: Optional[tuple] = None
        if key is not None:
            # The timing key embeds the raw drive_slew float on purpose: the
            # waveform analysis is a function of the exact input slew, and
            # quantizing the key would change results.  The cost is that any
            # upstream slew wiggle produces a fresh key for every downstream
            # stage ("float-key thrash") -- dirty-region propagation sidesteps
            # the repeated lookups for retained stages, and the `propagation`
            # perf case (`repro perf run --case propagation`) gates the hit
            # and miss deltas before/after.
            timing_key = (key, corner.name, output_dir, drive_slew)
            cached = self.cache.timing(timing_key)
            if cached is not None:
                return cached
        network: Optional[StageNetwork] = None
        network_key: Optional[tuple] = None
        if key is not None:
            network_key = (key, corner.name, output_dir)
            network = self.cache.network(network_key)
        if network is None:
            network = build_stage_network(
                tree,
                stage,
                corner=corner,
                max_segment_length=cfg.max_segment_length,
                rise=(output_dir == RISE),
            )
            if network_key is not None:
                self.cache.store_network(network_key, network)
        timing = transient_stage_timing(
            network, drive_slew, vdd=corner.vdd, config=cfg.solver
        )
        if timing_key is not None:
            self.cache.store_timing(timing_key, timing)
        return timing
