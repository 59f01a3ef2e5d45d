"""Golden pin of generated-instance fingerprints.

The benchmark generators and scenario families are the ground truth every
golden metric file and baseline store rests on: if an instance silently
changes, downstream numbers change for reasons that have nothing to do with
the synthesis code.  This test locks the canonical-serialization hash of
every workload generator and registered scenario family to
``tests/golden/instance_fingerprints.json``.

Blessed for the repro.seeding-based generators (SeedSequence-derived numpy
streams).  If a generator change is *intended*, regenerate the file::

    PYTHONPATH=src python -m tests.workloads.test_golden_fingerprints

and commit it together with the change (plus any re-blessed metric goldens).
"""

import json
from pathlib import Path

from repro.runner import JobSpec, resolve_instance
from repro.scenarios import scenario_names
from repro.workloads import ISPD09_BENCHMARKS, instance_fingerprint

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "instance_fingerprints.json"

#: Small, fast parameterizations; every registered scenario family must appear.
SCENARIO_SPECS = [
    "scenario:maze:sinks=16,walls=3",
    "scenario:macros:sinks=16,macros=3",
    "scenario:strip:sinks=16",
    "scenario:banks:sinks=16,clusters=4",
]

#: Golden key -> (instance spec, job seed) of the pins a job seed selects.  The
#: maze spec names its own ``seed=5``, which must win over the job's seed 9.
JOB_SEEDED = {
    "ti:200:seed11": ("ti:200", 11),
    "scenario:banks:sinks=16,clusters=4:seed3": ("scenario:banks:sinks=16,clusters=4", 3),
    "scenario:maze:sinks=16,walls=3,seed=5:seed9": ("scenario:maze:sinks=16,walls=3,seed=5", 9),
}

PINNED_SPECS = (
    [f"ispd09:{name}" for name in ISPD09_BENCHMARKS]
    + ["ti:200", "ti:1000", "ti:200:seed11"]
    + SCENARIO_SPECS
    + [key for key in JOB_SEEDED if key.startswith("scenario:")]
)


def compute_fingerprints():
    fingerprints = {}
    for key in PINNED_SPECS:
        instance, seed = JOB_SEEDED.get(key, (key, None))
        fingerprints[key] = instance_fingerprint(
            resolve_instance(JobSpec(instance=instance, seed=seed))
        )
    return fingerprints


def test_generated_instances_match_golden_fingerprints():
    golden = json.loads(GOLDEN_PATH.read_text())["fingerprints"]
    assert compute_fingerprints() == golden


def test_a_seed_named_in_the_spec_wins_over_the_job_seed():
    golden = json.loads(GOLDEN_PATH.read_text())["fingerprints"]
    spec, _ = JOB_SEEDED["scenario:maze:sinks=16,walls=3,seed=5:seed9"]
    unseeded = instance_fingerprint(resolve_instance(JobSpec(instance=spec)))
    assert golden["scenario:maze:sinks=16,walls=3,seed=5:seed9"] == unseeded


def test_every_scenario_family_is_pinned():
    covered = {spec.split(":")[1] for spec in SCENARIO_SPECS}
    assert covered == set(scenario_names())


def test_golden_fingerprints_are_distinct():
    golden = json.loads(GOLDEN_PATH.read_text())["fingerprints"]
    values = list(golden.values())
    assert len(set(values)) == len(values)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "description": "SHA-256 canonical-serialization fingerprints of "
                "generated instances (repro.workloads + repro.scenarios)",
                "fingerprints": compute_fingerprints(),
            },
            indent=1,
        )
        + "\n"
    )
    print(f"re-blessed {GOLDEN_PATH}")
