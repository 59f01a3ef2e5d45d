"""The unified job model: one composable spec hierarchy, one ``expand()`` path.

A :class:`Job` names everything that identifies one unit of work -- the
instance spec, the flow, the evaluation engine, an optional pass-pipeline
override and a seed.  :class:`JobSpec` (plain synthesis) and
:class:`McJobSpec` (synthesize, then Monte Carlo-evaluate the skew yield)
specialize it; both are tiny frozen dataclasses, cheap to pickle across
worker processes.

:class:`JobMatrix` is the single fan-out path: ``repro run``, ``repro
sweep`` and ``repro mc`` all describe their work as a matrix (explicit
instance specs and/or scenario-family sweeps, times flows, times engines,
times Monte Carlo sample counts) and call :meth:`JobMatrix.expand`, instead
of each maintaining its own nested-loop expansion.  Expansion order is
deterministic and documented: scenario-sweep points first (in
:func:`repro.scenarios.expand_families` order), then explicit instances,
each crossed with flows, engines and -- for Monte Carlo matrices -- sample
counts, in the order given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.variation import (
    ANALYTICAL_ENGINES,
    SAMPLING_FAMILIES,
    YIELD_SKEW_LIMIT_PS,
)
from repro.scenarios import expand_families

__all__ = [
    "sanitize_spec",
    "Job",
    "JobSpec",
    "McJobSpec",
    "MonteCarloAxes",
    "JobMatrix",
]


def sanitize_spec(text: str) -> str:
    """Filesystem-safe, *injective* form of an instance spec.

    ``:`` maps to ``-`` and ``/`` to ``_`` so the common specs stay readable
    (``ti:200`` -> ``ti-200``); literal occurrences of the replacement
    characters (and ``%``) are percent-escaped first, so no two distinct
    specs share a label.  Stripping separators outright collided ``ti:200``
    with a hypothetical ``ti2:00`` -- and a collision means one job's result
    file silently overwrites another's.
    """
    text = text.replace("%", "%25").replace("-", "%2D").replace("_", "%5F")
    return text.replace(":", "-").replace("/", "_")


@dataclass(frozen=True)
class Job:
    """Identity of one unit of batch work, cheap to pickle across processes.

    ``instance`` uses a ``kind:value`` spec:

    * ``ti:<sinks>`` -- the TI-style scalability generator;
    * ``ispd09:<name>`` or ``ispd09:<name>:<scale>`` -- an ISPD'09-style
      benchmark, optionally shrunk by ``scale`` in (0, 1];
    * ``scenario:<family>[:k=v,...]`` -- a registered scenario family from
      :mod:`repro.scenarios` (``repro sweep --list-families`` lists them);
    * ``file:<path>`` -- a saved instance in the plain-text format.

    ``pipeline`` overrides :attr:`FlowConfig.pipeline` (pass-registry
    names); ``seed`` overrides the TI generator's (or a scenario's) default
    instance seed and doubles as the flow's base seed.

    Every default of a job is declared once, on the class that owns it:
    ``Job.flow`` and ``Job.engine`` here, the Monte Carlo axes on
    :class:`McJobSpec`.  :class:`MonteCarloAxes`, :class:`JobMatrix` and the
    CLI options refer to these class attributes instead of repeating them.
    """

    instance: str
    flow: str = "contango"
    engine: str = "arnoldi"
    pipeline: Optional[Tuple[str, ...]] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        # A sequence of pass names is the only valid pipeline.  Checking the
        # shape here turns positional-argument mistakes (e.g. a sample count
        # landing in ``pipeline``) into an immediate, clearly-worded error
        # instead of a crash deep inside a worker.
        if self.pipeline is not None and (
            isinstance(self.pipeline, str)
            or not isinstance(self.pipeline, (tuple, list))
            or not all(isinstance(name, str) for name in self.pipeline)
        ):
            raise ValueError(
                f"pipeline must be a sequence of pass names or None, "
                f"got {self.pipeline!r}"
            )
        if self.seed is not None and not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int or None, got {self.seed!r}")

    def label_parts(self) -> List[str]:
        """Components of :attr:`label`, in order (subclasses extend)."""
        parts = [sanitize_spec(self.instance), self.flow, self.engine]
        if self.pipeline is not None:
            parts.append("-".join(self.pipeline))
        if self.seed is not None:
            parts.append(f"seed{self.seed}")
        return parts

    @property
    def label(self) -> str:
        """Filesystem-safe identifier used for result files and log lines."""
        return "__".join(self.label_parts())


@dataclass(frozen=True)
class JobSpec(Job):
    """One plain synthesis job: run the flow, report the final metrics."""


@dataclass(frozen=True)
class McJobSpec(Job):
    """One Monte Carlo variation job: synthesize, then sample the yield.

    The instance spec and flow/engine/pipeline axes mirror :class:`JobSpec`;
    ``samples`` and ``family`` select the Monte Carlo sweep, and ``seed``
    drives *only* the stochastic parts (sampling, gates) -- the instance
    itself stays pinned by its spec so different seeds explore different
    scenarios of the same network.  ``gated`` additionally switches the
    synthesis pipeline to the variation-aware variant
    (:data:`repro.core.config.VARIATION_PIPELINE`), so robust-optimization
    ablations are one flag away from the nominal flow.
    """

    #: Monte Carlo jobs always carry a concrete base seed.
    seed: Optional[int] = 7
    samples: int = 1000
    family: str = "independent"
    skew_limit_ps: float = YIELD_SKEW_LIMIT_PS
    gated: bool = False
    #: Scenario count per gate check during gated synthesis; ``None`` keeps
    #: the :class:`FlowConfig` default (the gate runs once per IVC round, so
    #: it deliberately uses fewer samples than the final reporting sweep).
    gate_samples: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.seed is None:
            raise ValueError("Monte Carlo jobs need a concrete seed")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.gate_samples is not None and self.gate_samples < 2:
            raise ValueError("gate_samples must be >= 2")
        if self.family not in SAMPLING_FAMILIES:
            raise ValueError(
                f"unknown sampling family {self.family!r}; choose from {SAMPLING_FAMILIES}"
            )
        if self.engine not in ANALYTICAL_ENGINES:
            raise ValueError(f"Monte Carlo jobs need an analytical engine {ANALYTICAL_ENGINES}")
        if self.gated and self.flow != "contango":
            raise ValueError(
                "--gated selects the Contango variation-aware pipeline and is "
                f"not available for flow {self.flow!r}"
            )
        if self.gated and self.pipeline is not None:
            raise ValueError(
                "--gated and an explicit pipeline are mutually exclusive; put "
                "the *_mc pass variants in the pipeline instead"
            )

    def label_parts(self) -> List[str]:
        parts = [
            sanitize_spec(self.instance),
            self.flow,
            self.engine,
            f"mc{self.samples}",
            self.family,
            f"seed{self.seed}",
        ]
        if self.gated:
            parts.append("gated")
        if self.pipeline is not None:
            parts.append("-".join(self.pipeline))
        return parts


@dataclass(frozen=True)
class MonteCarloAxes:
    """The Monte Carlo dimensions of a :class:`JobMatrix`.

    ``samples`` is a sweep axis (one job per count); the remaining knobs are
    shared by every expanded :class:`McJobSpec`.  Every default is
    :class:`McJobSpec`'s.
    """

    samples: Tuple[int, ...] = (McJobSpec.samples,)
    family: str = McJobSpec.family
    skew_limit_ps: float = McJobSpec.skew_limit_ps
    gated: bool = McJobSpec.gated
    gate_samples: Optional[int] = McJobSpec.gate_samples

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("a Monte Carlo matrix needs at least one sample count")


@dataclass
class JobMatrix:
    """A declarative job matrix, expanded through one shared code path.

    ``instances`` lists explicit instance specs; ``families`` (with
    ``fixed`` parameters and ``sweeps`` value lists) adds scenario-lab
    cross products expanded via :func:`repro.scenarios.expand_families`.
    Setting ``monte_carlo`` turns every cell into a :class:`McJobSpec`.
    """

    instances: Sequence[str] = ()
    families: Sequence[str] = ()
    fixed: Mapping[str, Any] = field(default_factory=dict)
    sweeps: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    flows: Sequence[str] = (Job.flow,)
    engines: Sequence[str] = (Job.engine,)
    pipeline: Optional[Tuple[str, ...]] = None
    seed: Optional[int] = None
    monte_carlo: Optional[MonteCarloAxes] = None

    def specs(self) -> List[str]:
        """The instance specs of the matrix: sweep points, then explicit ones."""
        specs = expand_families(self.families, self.fixed, self.sweeps)
        specs.extend(self.instances)
        return specs

    def expand(self) -> List[Job]:
        """All jobs of the matrix, in deterministic documented order.

        Order: instance specs (scenario-sweep points first, then explicit
        instances) x flows x engines x -- for Monte Carlo matrices --
        sample counts.  Every spec-level validation error (unknown family
        or parameter, bad Monte Carlo axes) surfaces here, before any
        synthesis starts.
        """
        specs = self.specs()
        if not specs:
            raise ValueError("a job matrix needs at least one instance or family")
        jobs: List[Job] = []
        for spec in specs:
            for flow in self.flows:
                for engine in self.engines:
                    if self.monte_carlo is None:
                        jobs.append(
                            JobSpec(
                                instance=spec,
                                flow=flow,
                                engine=engine,
                                pipeline=self.pipeline,
                                seed=self.seed,
                            )
                        )
                        continue
                    mc = self.monte_carlo
                    for samples in mc.samples:
                        kwargs: dict = dict(
                            instance=spec,
                            flow=flow,
                            engine=engine,
                            pipeline=self.pipeline,
                            samples=samples,
                            family=mc.family,
                            skew_limit_ps=mc.skew_limit_ps,
                            gated=mc.gated,
                            gate_samples=mc.gate_samples,
                        )
                        # An unset matrix seed falls through to the McJobSpec
                        # default, so that default is defined exactly once.
                        if self.seed is not None:
                            kwargs["seed"] = self.seed
                        jobs.append(McJobSpec(**kwargs))
        return jobs
