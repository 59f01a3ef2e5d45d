"""Per-rule fixture tests: every rule fires on its bad fixture, stays quiet
on the good one, and suppressions silence real findings.

Every rule runs as registered.  A fixture that needs a module name the rule
scopes on (the fingerprint roots, ``repro.seeding``) mirrors it in a fixture
package: ``module_name_for`` names ``wallclock_bad/repro/store/fingerprint.py``
``repro.store.fingerprint`` by walking its ``__init__.py`` files.
"""

from pathlib import Path

import pytest

from repro.lintkit import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(rule, *paths):
    result = lint_paths([FIXTURES / name for name in paths])
    return [f for f in result.findings if f.rule == rule]


CASES = [
    ("unseeded-rng", "bad_unseeded_rng.py", "good_unseeded_rng.py", 5),
    ("wallclock-in-fingerprint-path", "wallclock_bad", "wallclock_good", 3),
    ("unjournaled-mutation", "bad_unjournaled.py", "good_unjournaled.py", 3),
    ("pool-unpicklable", "bad_pool.py", "good_pool.py", 3),
    ("fingerprint-compare-field", "bad_compare_field.py", "good_compare_field.py", 3),
    ("registry-drift", "bad_registry.py", "good_registry.py", 2),
    ("perfcase-registered", "bad_perfcase.py", "good_perfcase.py", 2),
    ("record-roundtrip-symmetry", "bad_roundtrip.py", "good_roundtrip.py", 2),
    ("bare-dict-record", "bad_bare_dict.py", "good_bare_dict.py", 2),
    (
        "untimed-wallclock",
        "bad_untimed_wallclock.py",
        "good_untimed_wallclock.py",
        5,
    ),
    ("blocking-in-async", "bad_blocking_async.py", "good_blocking_async.py", 5),
]


@pytest.mark.parametrize(
    "rule,bad,good,expected", CASES, ids=[case[0] for case in CASES]
)
class TestRuleFixturePairs:
    def test_bad_fixture_fires(self, rule, bad, good, expected):
        findings = findings_for(rule, bad)
        assert len(findings) == expected, [f.message for f in findings]

    def test_good_fixture_is_clean(self, rule, bad, good, expected):
        assert findings_for(rule, good) == []


class TestFindingAnchors:
    def test_unseeded_rng_points_at_the_call(self):
        (first, *_rest) = findings_for("unseeded-rng", "bad_unseeded_rng.py")
        assert first.path.endswith("bad_unseeded_rng.py")
        assert first.line == 10  # random.Random(3)
        assert "repro.seeding" in first.message

    def test_wallclock_names_the_reaching_module(self):
        findings = findings_for("wallclock-in-fingerprint-path", "wallclock_bad")
        assert {Path(f.path).name for f in findings} == {"stamps.py"}
        assert all("module repro.store.stamps;" in f.message for f in findings)
        assert any("time.time" in f.message for f in findings)

    def test_helper_alone_is_not_reachable(self):
        # Without the root in the run, nothing reaches the helper.
        helper = Path("wallclock_bad", "repro", "store", "stamps.py")
        assert findings_for("wallclock-in-fingerprint-path", helper) == []

    def test_roundtrip_reports_both_directions(self):
        findings = findings_for("record-roundtrip-symmetry", "bad_roundtrip.py")
        messages = " ".join(f.message for f in findings)
        assert "'notes'" in messages  # written, never read
        assert "'extra'" in messages  # read, never written


class TestSuppressionsInPractice:
    def test_suppressed_fixture_keeps_only_unsilenced_findings(self):
        findings = findings_for("unseeded-rng", "suppressed.py")
        # Five RNG calls, three suppressed: the mismatched-rule marker and
        # the non-comment-line-above case must still fire.
        assert len(findings) == 2
        assert sorted(f.line for f in findings) == [20, 25]


class TestRuleScope:
    def test_allowed_module_is_exempt(self):
        # seeding_exempt/repro/seeding.py is named repro.seeding, the one
        # module UnseededRngRule.allow_modules lets construct RNGs.
        assert findings_for("unseeded-rng", "seeding_exempt") == []
