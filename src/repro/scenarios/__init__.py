"""Scenario lab: declarative synthetic instance families and sweeps.

See :mod:`repro.scenarios.base` for the family/registry machinery and
:mod:`repro.scenarios.families` for the built-in families (importing this
package registers them).  Spec strings look like ``scenario:maze:sinks=64``
and resolve anywhere an instance spec is accepted: :func:`generate_scenario`
materializes one, with the job seed selecting the variant unless the spec
names its own ``seed=``.
"""

from repro.scenarios.base import (
    SCENARIO_REGISTRY,
    ScenarioFamily,
    ScenarioParam,
    canonical_scenario_spec,
    expand_families,
    expand_sweep,
    generate_scenario,
    get_family,
    parse_scenario_overrides,
    register_family,
    scenario_names,
)
from repro.scenarios import families as _families  # noqa: F401 -- registers built-ins

__all__ = [
    "SCENARIO_REGISTRY",
    "ScenarioFamily",
    "ScenarioParam",
    "canonical_scenario_spec",
    "expand_families",
    "expand_sweep",
    "generate_scenario",
    "get_family",
    "parse_scenario_overrides",
    "register_family",
    "scenario_names",
]
