"""End-to-end tests of the ``repro lint`` CLI subcommand."""

import json
from pathlib import Path

from repro.cli import main
from repro.lintkit import RULE_REGISTRY

FIXTURES = Path(__file__).parent / "fixtures"


class TestLintCli:
    def test_findings_exit_code_one(self, capsys):
        code = main(["lint", str(FIXTURES / "bad_unseeded_rng.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "[unseeded-rng]" in out

    def test_clean_file_exit_code_zero(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "good_unseeded_rng.py"),
             "--select", "unseeded-rng"]
        )
        assert code == 0
        assert "0 errors" in capsys.readouterr().out

    def test_json_format_parses_and_is_schema_one(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "bad_unseeded_rng.py"), "--format", "json"]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == 1
        assert document["summary"]["errors"] == 5

    def test_output_writes_the_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "lint-report.json"
        code = main(
            ["lint", str(FIXTURES / "bad_unseeded_rng.py"),
             "--format", "json", "--output", str(artifact)]
        )
        assert code == 1
        # The artifact and stdout carry the identical document.
        assert artifact.read_text() == capsys.readouterr().out

    def test_select_and_ignore_narrow_the_rules(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "bad_unseeded_rng.py"),
             "--select", "unseeded-rng", "--ignore", "unseeded-rng"]
        )
        assert code == 0
        assert "0 rules" in capsys.readouterr().out

    def test_unknown_rule_is_a_usage_error(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "bad_unseeded_rng.py"),
             "--select", "no-such-rule"]
        )
        assert code == 2
        assert "no-such-rule" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, capsys):
        code = main(["lint", str(FIXTURES / "does_not_exist.py")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_list_rules_prints_all_eight(self, capsys):
        code = main(["lint", "--list-rules"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # One "name  description" line per registered rule, sorted by name.
        assert [line.split()[0] for line in lines] == sorted(RULE_REGISTRY)
        for line, name in zip(lines, sorted(RULE_REGISTRY)):
            assert line.endswith(" " + RULE_REGISTRY[name].description)
