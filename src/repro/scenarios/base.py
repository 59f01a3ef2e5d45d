"""Declarative scenario families: parameterized synthetic instance generators.

A :class:`ScenarioFamily` is a named, documented recipe that turns a small
parameter dictionary into a :class:`~repro.cts.spec.ClockNetworkInstance`,
deterministically: the random stream is derived via :mod:`repro.seeding` from
the family name plus the *resolved* parameters, so equal specs always produce
bit-identical instances (pinned by ``tests/golden/instance_fingerprints.json``)
and any parameter change yields a statistically independent instance.

Families register themselves in :data:`SCENARIO_REGISTRY` and are addressable
everywhere an instance spec is accepted (``repro run``, ``repro sweep``, the
:class:`~repro.api.service.SynthesisService`) as::

    scenario:<family>                      # all defaults
    scenario:<family>:k1=v1,k2=v2          # overrides, any order

:func:`expand_sweep` turns one family plus per-parameter value lists into the
cross product of canonical spec strings -- the substrate of ``repro sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cts.spec import ClockNetworkInstance
from repro.seeding import DEFAULT_SEED, derive_rng

__all__ = [
    "ScenarioParam",
    "ScenarioFamily",
    "SCENARIO_REGISTRY",
    "register_family",
    "get_family",
    "scenario_names",
    "parse_scenario_overrides",
    "generate_scenario",
    "canonical_scenario_spec",
    "expand_sweep",
    "expand_families",
]

ParamValue = Union[int, float, str]


@dataclass(frozen=True)
class ScenarioParam:
    """One tunable knob of a scenario family.

    The default's type (int / float / str) doubles as the parameter's type:
    spec-string values are coerced to it, so ``sinks=64`` parses to an int
    and ``tightness=0.05`` to a float.
    """

    name: str
    default: ParamValue
    doc: str = ""
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def coerce(self, raw: Any) -> ParamValue:
        """Convert ``raw`` (possibly a spec-string token) to this parameter's type."""
        kind = type(self.default)
        try:
            if kind is bool:  # future-proofing; no current param is bool
                value: ParamValue = raw in (True, 1, "1", "true", "True")
            elif kind is int:
                value = int(raw)
            elif kind is float:
                value = float(raw)
            else:
                value = str(raw)
        except (TypeError, ValueError):
            raise ValueError(
                f"parameter {self.name}={raw!r} is not a valid {kind.__name__}"
            ) from None
        if self.minimum is not None and value < self.minimum:
            raise ValueError(f"parameter {self.name}={value} below minimum {self.minimum}")
        if self.maximum is not None and value > self.maximum:
            raise ValueError(f"parameter {self.name}={value} above maximum {self.maximum}")
        return value


#: Implicit parameter present on every family: the instance seed.
SEED_PARAM = ScenarioParam(
    "seed", int(DEFAULT_SEED), "instance seed (independent stream per value)"
)


@dataclass(frozen=True)
class ScenarioFamily:
    """A named synthetic-instance recipe with typed, documented parameters.

    ``builder(rng, params)`` receives a :mod:`repro.seeding`-derived generator
    and the fully resolved parameter dict, and returns the instance; it never
    seeds anything itself, so determinism is owned entirely by this class.
    """

    name: str
    description: str
    params: Tuple[ScenarioParam, ...]
    builder: Callable[[np.random.Generator, Dict[str, ParamValue]], ClockNetworkInstance] = field(
        repr=False
    )

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"family {self.name}: duplicate parameter names {names}")
        if "seed" in names:
            raise ValueError(f"family {self.name}: 'seed' is implicit, do not declare it")
        object.__setattr__(self, "params", (*self.params, SEED_PARAM))

    def param(self, name: str) -> ScenarioParam:
        for param in self.params:
            if param.name == name:
                return param
        raise KeyError(
            f"scenario family {self.name!r} has no parameter {name!r}; "
            f"available: {[p.name for p in self.params]}"
        )

    def defaults(self) -> Dict[str, ParamValue]:
        return {p.name: p.default for p in self.params}

    def resolve(self, overrides: Mapping[str, Any]) -> Dict[str, ParamValue]:
        """Defaults merged with coerced ``overrides``; unknown names raise."""
        resolved = self.defaults()
        for name, raw in overrides.items():
            resolved[name] = self.param(name).coerce(raw)
        return resolved

    def generate(self, **overrides: Any) -> ClockNetworkInstance:
        """Build the instance for ``overrides`` (validated before returning)."""
        params = self.resolve(overrides)
        # Every resolved parameter is a derivation key: two specs differing in
        # any parameter draw independent streams, while the same spec -- no
        # matter how the overrides were spelled -- replays the same one.
        keys = [f"{k}={params[k]}" for k in sorted(params) if k != "seed"]
        rng = derive_rng(int(params["seed"]), "scenario", self.name, *keys)
        instance = self.builder(rng, params)
        instance.validate()
        return instance

    def instance_name(self, params: Mapping[str, ParamValue]) -> str:
        """Deterministic instance name: family plus the non-default overrides."""
        tags = [
            f"{k}{params[k]}"
            for k in sorted(params)
            if params[k] != self.param(k).default
        ]
        return "_".join([f"scn_{self.name}"] + tags)


# ----------------------------------------------------------------------
# Registry and spec strings
# ----------------------------------------------------------------------
SCENARIO_REGISTRY: Dict[str, ScenarioFamily] = {}


def register_family(family: ScenarioFamily) -> ScenarioFamily:
    """Add ``family`` to :data:`SCENARIO_REGISTRY` (duplicate names raise)."""
    if family.name in SCENARIO_REGISTRY:
        raise ValueError(f"scenario family {family.name!r} already registered")
    SCENARIO_REGISTRY[family.name] = family
    return family


def get_family(name: str) -> ScenarioFamily:
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario family {name!r}; available: {scenario_names()}"
        ) from None


def scenario_names() -> List[str]:
    """Registered family names, sorted."""
    return sorted(SCENARIO_REGISTRY)


def parse_scenario_overrides(spec: str) -> Tuple[ScenarioFamily, Dict[str, str]]:
    """Parse ``[scenario:]<family>[:k=v,...]`` into (family, raw overrides).

    The overrides dict holds only the parameters the spec *explicitly* names
    (unvalidated beyond syntax), so a caller can tell whether e.g. ``seed``
    was given; ``family.resolve(overrides)`` gives the full parameter set.
    """
    body = spec[len("scenario:"):] if spec.startswith("scenario:") else spec
    family_name, _, param_text = body.partition(":")
    family = get_family(family_name)
    overrides: Dict[str, str] = {}
    if param_text:
        for item in param_text.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key or not value:
                raise ValueError(
                    f"bad scenario parameter {item!r} in {spec!r}; expected k=v"
                )
            if key in overrides:
                raise ValueError(f"duplicate scenario parameter {key!r} in {spec!r}")
            overrides[key] = value
    return family, overrides


def canonical_scenario_spec(
    family: ScenarioFamily,
    params: Mapping[str, ParamValue],
    keep: Sequence[str] = (),
) -> str:
    """The normalized spec string: sorted non-default parameters only.

    Parameters named in ``keep`` are emitted even at their default value --
    sweeps use this for ``seed``, because an elided default seed would fall
    through to the job-level ``--seed`` that :func:`generate_scenario` applies
    and silently change the instance.
    """
    resolved = family.resolve(params)
    tags = [
        f"{k}={resolved[k]}"
        for k in sorted(resolved)
        if k in keep or resolved[k] != family.param(k).default
    ]
    if not tags:
        return f"scenario:{family.name}"
    return f"scenario:{family.name}:" + ",".join(tags)


def generate_scenario(spec: str, seed: Optional[int] = None) -> ClockNetworkInstance:
    """Materialize the instance a ``scenario:`` spec string names.

    ``seed`` is the job seed: it selects the scenario variant, as it does for
    ``ti:`` instances, unless the spec string names its own ``seed=``, which
    pins the instance and wins.
    """
    family, overrides = parse_scenario_overrides(spec)
    params = family.resolve(overrides)
    if seed is not None and "seed" not in overrides:
        params["seed"] = seed
    return family.generate(**params)


def expand_sweep(
    family_name: str,
    base: Optional[Mapping[str, Any]] = None,
    sweeps: Optional[Mapping[str, Sequence[Any]]] = None,
) -> List[str]:
    """Cross-product parameter sweep over one family, as canonical specs.

    ``base`` fixes parameters for every point; ``sweeps`` maps parameter
    names to value lists.  Sweep axes are ordered by parameter name so the
    expansion is independent of dict ordering; values keep their given order.
    """
    family = get_family(family_name)
    base = dict(base or {})
    base_params = family.resolve(base)
    sweeps = dict(sweeps or {})
    for name in sweeps:
        family.param(name)  # unknown-parameter check up front
        if name in base:
            raise ValueError(
                f"parameter {name!r} is both fixed and swept; drop one of the two"
            )
        if not sweeps[name]:
            raise ValueError(f"sweep over {name!r} has no values")
    axes = sorted(sweeps)
    # An explicitly requested seed must survive into the spec string even at
    # its default value, or the job-level --seed override would replace it.
    keep = ("seed",) if "seed" in sweeps or "seed" in base else ()
    specs: List[str] = []
    for values in product(*(sweeps[axis] for axis in axes)):
        point = dict(base_params)
        point.update(dict(zip(axes, values)))
        specs.append(canonical_scenario_spec(family, point, keep=keep))
    return specs


def expand_families(
    families: Sequence[str],
    base: Optional[Mapping[str, Any]] = None,
    sweeps: Optional[Mapping[str, Sequence[Any]]] = None,
) -> List[str]:
    """:func:`expand_sweep` over several families, concatenated in order.

    The shared ``base``/``sweeps`` apply to every family (each validates them
    against its own parameter set); every family is looked up *before* any
    expansion so an unknown name fails fast, ahead of long synthesis batches.
    This is the scenario half of :meth:`repro.api.jobs.JobMatrix.expand`.
    """
    for name in families:
        get_family(name)
    specs: List[str] = []
    for name in families:
        specs.extend(expand_sweep(name, base, sweeps))
    return specs
