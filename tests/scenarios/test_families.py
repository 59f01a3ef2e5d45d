"""Tests for the scenario-family registry and the built-in families."""

import pytest

from repro.runner import JobSpec, resolve_instance
from repro.scenarios import (
    SCENARIO_REGISTRY,
    ScenarioFamily,
    ScenarioParam,
    canonical_scenario_spec,
    expand_sweep,
    generate_scenario,
    get_family,
    parse_scenario_overrides,
    register_family,
    scenario_names,
)
from repro.workloads import instance_fingerprint


def parse_resolved(spec):
    """A spec's family and its full, resolved parameter set."""
    family, overrides = parse_scenario_overrides(spec)
    return family, family.resolve(overrides)


#: Small parameterizations so the whole suite generates in milliseconds.
SMALL = {
    "maze": "scenario:maze:sinks=16,walls=3",
    "macros": "scenario:macros:sinks=16,macros=3",
    "strip": "scenario:strip:sinks=16",
    "banks": "scenario:banks:sinks=16,clusters=4",
}


class TestRegistry:
    def test_required_families_registered(self):
        assert {"maze", "macros", "strip", "banks"} <= set(scenario_names())
        assert len(scenario_names()) >= 4

    def test_small_specs_cover_every_family(self):
        # A new family must be added to SMALL (and to the golden fingerprint
        # file) so its determinism and validity are actually exercised.
        assert set(SMALL) == set(scenario_names())

    def test_get_family_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown scenario family"):
            get_family("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_family(SCENARIO_REGISTRY["maze"])

    def test_families_document_their_params(self):
        for family in SCENARIO_REGISTRY.values():
            assert family.description
            for param in family.params:
                assert param.doc


class TestDeterminismAndValidity:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_same_spec_same_fingerprint(self, name):
        a = generate_scenario(SMALL[name])
        b = generate_scenario(SMALL[name])
        assert instance_fingerprint(a) == instance_fingerprint(b)

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_default_instance_validates(self, name):
        instance = generate_scenario(SMALL[name])
        instance.validate()
        assert instance.sink_count == 16
        assert instance.capacitance_limit is not None

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_seed_changes_instance(self, name):
        a = generate_scenario(SMALL[name])
        b = generate_scenario(SMALL[name] + ",seed=11")
        assert instance_fingerprint(a) != instance_fingerprint(b)

    def test_override_order_is_irrelevant(self):
        a = generate_scenario("scenario:banks:sinks=16,clusters=4")
        b = generate_scenario("scenario:banks:clusters=4,sinks=16")
        assert instance_fingerprint(a) == instance_fingerprint(b)

    def test_parameter_change_changes_instance(self):
        a = generate_scenario("scenario:maze:sinks=16,walls=3")
        b = generate_scenario("scenario:maze:sinks=16,walls=4")
        assert instance_fingerprint(a) != instance_fingerprint(b)


class TestFamilyStructure:
    def test_maze_rejects_walls_too_thick_for_their_pitch(self):
        # Over-thick walls would overlap each other; the failure must be a
        # parameter error, not a confusing mid-generation geometry error.
        with pytest.raises(ValueError, match="leaves no corridor"):
            generate_scenario("scenario:maze:sinks=8,walls=34")
        with pytest.raises(ValueError, match="wall_thickness"):
            generate_scenario("scenario:maze:sinks=8,walls=10,wall_thickness=0.2")
        # The guard is tight, not over-broad: just-under-pitch still works.
        generate_scenario("scenario:maze:sinks=8,walls=10,wall_thickness=0.09").validate()

    def test_maze_walls_block_buffers_but_leave_corridors(self):
        instance = generate_scenario("scenario:maze:sinks=16,walls=3")
        assert len(instance.obstacles) == 3
        for sink in instance.sinks:
            assert not instance.obstacles.blocks_point(sink.position)

    def test_macros_place_pins_on_macros(self):
        instance = generate_scenario("scenario:macros:sinks=20,macros=3,edge_sinks=0.5")
        pins = [s for s in instance.sinks if s.name.startswith("pin_")]
        assert len(pins) == 10
        for pin in pins:
            assert any(o.rect.contains_point(pin.position) for o in instance.obstacles)
        for sink in instance.sinks:
            if sink.name.startswith("sink_"):
                assert not instance.obstacles.blocks_point(sink.position)

    def test_strip_aspect_ratio(self):
        instance = generate_scenario("scenario:strip:sinks=16,aspect=12.0")
        assert instance.die.width / instance.die.height == pytest.approx(12.0)

    def test_banks_tightness_controls_spread(self):
        tight = generate_scenario("scenario:banks:sinks=40,clusters=2,tightness=0.005,outliers=0.0")
        loose = generate_scenario("scenario:banks:sinks=40,clusters=2,tightness=0.2,outliers=0.0")

        def mean_nn_distance(instance):
            positions = [s.position for s in instance.sinks]
            total = 0.0
            for p in positions:
                total += min(p.manhattan_to(q) for q in positions if q is not p)
            return total / len(positions)

        assert mean_nn_distance(tight) < mean_nn_distance(loose)


class TestSpecParsing:
    def test_parse_resolves_defaults(self):
        family, params = parse_resolved("scenario:maze")
        assert family.name == "maze"
        assert params["sinks"] == 48
        assert params["seed"] == 7

    def test_parse_coerces_types(self):
        _, params = parse_resolved("scenario:banks:clusters=4,tightness=0.1")
        assert params["clusters"] == 4 and isinstance(params["clusters"], int)
        assert params["tightness"] == pytest.approx(0.1)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError, match="no parameter"):
            parse_resolved("scenario:maze:frobs=3")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="not a valid int"):
            parse_resolved("scenario:maze:sinks=lots")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="below minimum"):
            parse_resolved("scenario:maze:sinks=1")

    def test_malformed_item_rejected(self):
        with pytest.raises(ValueError, match="expected k=v"):
            parse_resolved("scenario:maze:sinks")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_resolved("scenario:maze:sinks=8,sinks=9")

    def test_canonical_spec_drops_defaults_and_sorts(self):
        family = get_family("maze")
        spec = canonical_scenario_spec(family, {"walls": 3, "sinks": 48})
        assert spec == "scenario:maze:walls=3"  # sinks=48 is the default


class TestSweepExpansion:
    def test_cross_product_in_sorted_axis_order(self):
        specs = expand_sweep("banks", {"sinks": 20}, {"clusters": [2, 4], "tightness": [0.01]})
        assert specs == [
            "scenario:banks:clusters=2,sinks=20,tightness=0.01",
            "scenario:banks:clusters=4,sinks=20,tightness=0.01",
        ]

    def test_empty_sweep_is_single_point(self):
        assert expand_sweep("maze", {"sinks": 16}) == ["scenario:maze:sinks=16"]

    def test_unknown_sweep_parameter_rejected(self):
        with pytest.raises(KeyError, match="no parameter"):
            expand_sweep("maze", {}, {"frobs": [1]})

    def test_empty_value_list_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            expand_sweep("maze", {}, {"walls": []})

    def test_parameter_both_fixed_and_swept_rejected(self):
        # Silently preferring the sweep would answer a contradictory request
        # with different instances than the user fixed via --set.
        with pytest.raises(ValueError, match="both fixed and swept"):
            expand_sweep("banks", {"clusters": 4}, {"clusters": [8, 16]})

    def test_expanded_specs_generate(self):
        for spec in expand_sweep("strip", {"sinks": 8}, {"aspect": [2.0, 4.0]}):
            generate_scenario(spec).validate()

    def test_swept_seed_stays_explicit_even_at_default(self):
        # An elided default seed would fall through to the job-level --seed
        # override and silently run a different seed than the sweep requested.
        specs = expand_sweep("banks", {"sinks": 16}, {"seed": [7, 11]})
        assert specs == [
            "scenario:banks:seed=7,sinks=16",
            "scenario:banks:seed=11,sinks=16",
        ]
        seed7 = resolve_instance(JobSpec(instance=specs[0], seed=5))
        assert instance_fingerprint(seed7) == instance_fingerprint(
            generate_scenario("scenario:banks:sinks=16")  # default seed 7
        )


class TestRunnerResolution:
    def test_resolve_instance_handles_scenario_specs(self):
        instance = resolve_instance(JobSpec(instance="scenario:maze:sinks=16,walls=3"))
        assert instance.sink_count == 16
        assert len(instance.obstacles) == 3

    def test_job_seed_selects_scenario_variant(self):
        a = resolve_instance(JobSpec(instance="scenario:strip:sinks=8"))
        b = resolve_instance(JobSpec(instance="scenario:strip:sinks=8", seed=11))
        assert instance_fingerprint(a) != instance_fingerprint(b)

    def test_explicit_spec_seed_wins_over_job_seed(self):
        a = resolve_instance(JobSpec(instance="scenario:strip:sinks=8,seed=3"))
        b = resolve_instance(JobSpec(instance="scenario:strip:sinks=8,seed=3", seed=11))
        assert instance_fingerprint(a) == instance_fingerprint(b)


class TestFamilyClass:
    def test_seed_param_is_implicit(self):
        with pytest.raises(ValueError, match="implicit"):
            ScenarioFamily(
                name="x",
                description="d",
                params=(ScenarioParam("seed", 1, "boom"),),
                builder=lambda rng, p: None,
            )

    def test_duplicate_params_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter"):
            ScenarioFamily(
                name="x",
                description="d",
                params=(ScenarioParam("a", 1, "a"), ScenarioParam("a", 2, "a")),
                builder=lambda rng, p: None,
            )
