"""Framework-level tests: registry contract, import resolution, suppressions."""

import re
from pathlib import Path

import pytest

from repro.lintkit import (
    RULE_REGISTRY,
    LintRule,
    ModuleContext,
    available_rules,
    module_name_for,
    register_rule,
    resolve_rules,
)

FIXTURES = Path(__file__).parent / "fixtures"

#: Every registered rule; README's rule table lists the same names.
ALL_RULES = {
    "unseeded-rng",
    "wallclock-in-fingerprint-path",
    "unjournaled-mutation",
    "pool-unpicklable",
    "fingerprint-compare-field",
    "registry-drift",
    "perfcase-registered",
    "record-roundtrip-symmetry",
    "bare-dict-record",
    "untimed-wallclock",
    "blocking-in-async",
}


def ctx_for(source: str) -> ModuleContext:
    # Outside any package, so module_name_for names it by its stem.
    return ModuleContext(FIXTURES / "fixture_mod.py", source)


class TestRegistry:
    def test_eight_domain_rules_registered(self):
        assert set(RULE_REGISTRY) == ALL_RULES

    def test_readme_rule_table_lists_every_rule(self):
        readme = (Path(__file__).resolve().parents[2] / "README.md").read_text()
        section = readme.split("## Static analysis (`repro lint`)")[1].split("\n## ")[0]
        table = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE)
        assert sorted(table) == available_rules()

    def test_register_rejects_missing_name(self):
        class Nameless(LintRule):
            pass

        with pytest.raises(ValueError, match="non-empty 'name'"):
            register_rule(Nameless)

    def test_register_rejects_duplicate_name(self):
        class Duplicate(LintRule):
            name = "unseeded-rng"

        with pytest.raises(ValueError, match="already registered"):
            register_rule(Duplicate)

    def test_resolve_unknown_rule_lists_valid_names(self):
        with pytest.raises(KeyError, match="no-such-rule"):
            resolve_rules(["no-such-rule"])

    def test_available_rules_sorted(self):
        names = available_rules()
        assert names == sorted(names)


class TestModuleNames:
    def test_package_module_name_from_init_walk(self):
        root = Path(__file__).resolve().parents[2] / "src"
        path = root / "repro" / "store" / "fingerprint.py"
        assert module_name_for(path) == "repro.store.fingerprint"

    def test_package_init_names_the_package(self):
        root = Path(__file__).resolve().parents[2] / "src"
        path = root / "repro" / "lintkit" / "__init__.py"
        assert module_name_for(path) == "repro.lintkit"

    def test_loose_file_keeps_its_stem(self):
        assert module_name_for(FIXTURES / "bad_unseeded_rng.py") == "bad_unseeded_rng"
        assert ctx_for("x = 1\n").module == "fixture_mod"


class TestImportResolution:
    def test_aliased_import_resolves(self):
        ctx = ctx_for("import numpy as np\nx = np.random.default_rng(3)\n")
        call = ctx.tree.body[1].value
        assert ctx.resolve(call.func) == "numpy.random.default_rng"

    def test_from_import_resolves(self):
        ctx = ctx_for("from repro.seeding import derive_rng\nr = derive_rng(7)\n")
        call = ctx.tree.body[1].value
        assert ctx.resolve(call.func) == "repro.seeding.derive_rng"

    def test_local_names_do_not_resolve(self):
        ctx = ctx_for("def f(rng):\n    return rng.normal()\n")
        call = ctx.tree.body[0].body[0].value
        assert ctx.resolve(call.func) is None

    def test_relative_import_resolves_against_package(self):
        root = Path(__file__).resolve().parents[2] / "src"
        path = root / "repro" / "store" / "store.py"
        ctx = ModuleContext(path, "from . import fingerprint\n")
        assert "repro.store.fingerprint" in ctx.imported_modules


class TestSuppressions:
    def test_same_line(self):
        ctx = ctx_for("x = 1  # repro: lint-ok[unseeded-rng] why\n")
        assert ctx.suppressed(1, "unseeded-rng")
        assert not ctx.suppressed(1, "pool-unpicklable")

    def test_comment_line_above(self):
        ctx = ctx_for("# repro: lint-ok[unseeded-rng] why\nx = 1\n")
        assert ctx.suppressed(2, "unseeded-rng")

    def test_bare_marker_silences_all_rules(self):
        ctx = ctx_for("x = 1  # repro: lint-ok legacy\n")
        assert ctx.suppressed(1, "unseeded-rng")
        assert ctx.suppressed(1, "registry-drift")

    def test_code_line_does_not_cover_the_next_line(self):
        ctx = ctx_for("x = 1  # repro: lint-ok[unseeded-rng]\ny = 2\n")
        assert not ctx.suppressed(2, "unseeded-rng")

    def test_multiple_rules_in_one_bracket(self):
        ctx = ctx_for("x = 1  # repro: lint-ok[unseeded-rng, pool-unpicklable]\n")
        assert ctx.suppressed(1, "unseeded-rng")
        assert ctx.suppressed(1, "pool-unpicklable")
        assert not ctx.suppressed(1, "registry-drift")
