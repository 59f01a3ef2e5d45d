"""The ``repro`` command line's contract: its option surface and usage errors.

Two pins that hold across refactors of :mod:`repro.cli`:

* every parser's options -- option strings, dest, default, type name,
  choices, nargs, const, required, action class and metavar, but not the help
  text or the order -- equal ``tests/golden/cli_options.json``;
* each bad invocation below exits 2 with exactly one stderr line, the text
  fixed here.

If an option change is *intended*, regenerate the golden::

    PYTHONPATH=src python -m tests.runner.test_cli_contract

and commit it together with the change.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.store import RunStore

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "cli_options.json"
RECORDS_PATH = Path(__file__).parent.parent / "golden" / "legacy_records.json"


def option_surface(parser=None):
    """``{prog: {option: attributes}}`` for the parser and every nested subparser."""
    parser = parser or build_parser()
    surface = {}
    options = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                surface.update(option_surface(child))
            choices = list(choices)
        options["/".join(action.option_strings) or action.dest] = {
            "dest": action.dest,
            "default": action.default,
            "type": getattr(action.type, "__name__", action.type),
            "choices": None if choices is None else list(choices),
            "nargs": action.nargs,
            "const": action.const,
            "required": action.required,
            "action": type(action).__name__,
            "metavar": action.metavar,
        }
    surface[parser.prog] = options
    return surface


def test_option_surface_matches_golden():
    assert option_surface() == json.loads(GOLDEN_PATH.read_text())


@pytest.fixture
def tmp(tmp_path):
    """A scratch tree: an untraced store, a perf-run document, two bad ones, a lintable file."""
    RunStore(tmp_path / "store").append(json.loads(RECORDS_PATH.read_text())["run"], "base")
    (tmp_path / "batch.json").write_text(
        json.dumps({"schema": 1, "kind": "perf-batch", "cases": {}})
    )
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "garbage.json").write_text("not json")
    (tmp_path / "ok.py").write_text("VALUE = 1\n")
    return tmp_path


#: (argv, the one stderr line); ``TMP`` stands for the scratch tree.
USAGE_ERRORS = {
    "run-no-instance": (
        ["run"],
        "repro run: at least one --instance is required",
    ),
    "sweep-no-family": (
        ["sweep", "--store", "TMP/store"],
        "repro sweep: at least one --family or --instance is required",
    ),
    "sweep-no-store": (
        ["sweep", "--family", "banks"],
        "repro sweep: --store DIR is required",
    ),
    "sweep-unknown-family": (
        ["sweep", "--family", "nope", "--store", "TMP/store"],
        "repro sweep: unknown scenario family 'nope'; available: "
        "['banks', 'macros', 'maze', 'strip']",
    ),
    "sweep-bad-set": (
        ["sweep", "--family", "banks", "--set", "nope", "--store", "TMP/store"],
        "repro sweep: --set expects K=V, got 'nope'",
    ),
    "sweep-bad-run-id": (
        ["sweep", "--family", "banks", "--store", "TMP/store", "--run-id", "bad id"],
        "repro sweep: run_id must be non-empty and whitespace-free, got 'bad id'",
    ),
    "compare-missing-store": (
        ["compare", "TMP/missing", "TMP/store"],
        "repro compare: no run store at TMP/missing/runs.jsonl",
    ),
    "compare-unknown-run-id": (
        ["compare", "TMP/store@zz", "TMP/store"],
        "repro compare: run id 'zz' matches nothing in TMP/store/runs.jsonl; "
        "available: ['base']",
    ),
    "mc-no-instance": (
        ["mc"],
        "repro mc: at least one --instance is required",
    ),
    "mc-zero-samples": (
        ["mc", "--instance", "ti:8", "--samples", "0"],
        "repro mc: samples must be >= 1",
    ),
    "mc-one-gate-sample": (
        ["mc", "--instance", "ti:8", "--gated", "--gate-samples", "1"],
        "repro mc: gate_samples must be >= 2",
    ),
    "trace-missing-store": (
        ["trace", "TMP/missing"],
        "repro trace: no run store at TMP/missing/runs.jsonl",
    ),
    "trace-diff-untraced": (
        ["trace", "TMP/store", "--diff", "TMP/store"],
        "repro trace: both selections need traced records to diff",
    ),
    "perf-run-unknown-case": (
        ["perf", "run", "--case", "nope"],
        "repro perf run: unknown perf case 'nope'; registered: ['buffering', "
        "'evaluator', 'propagation', 'runner', 'serve', 'service', 'startup', "
        "'store', 'trace', 'variation']",
    ),
    "perf-compare-not-a-document": (
        ["perf", "compare", "TMP/empty.json", "TMP/batch.json"],
        "repro perf compare: TMP/empty.json is not a merged perf-run document",
    ),
    "perf-compare-not-json": (
        ["perf", "compare", "TMP/garbage.json", "TMP/batch.json"],
        "repro perf compare: Expecting value: line 1 column 1 (char 0)",
    ),
    "perf-compare-missing-ledger": (
        ["perf", "compare", "TMP/missing", "TMP/batch.json"],
        "repro perf compare: no perf ledger at TMP/missing/perf.jsonl",
    ),
    "perf-trend-missing-ledger": (
        ["perf", "trend", "TMP/missing"],
        "repro perf trend: no perf ledger at TMP/missing/perf.jsonl",
    ),
    "lint-unknown-rule": (
        ["lint", "TMP/ok.py", "--select", "nope"],
        "repro lint: unknown lint rule 'nope'; registered: ['bare-dict-record', "
        "'blocking-in-async', 'fingerprint-compare-field', 'perfcase-registered', "
        "'pool-unpicklable', 'record-roundtrip-symmetry', 'registry-drift', "
        "'unjournaled-mutation', 'unseeded-rng', 'untimed-wallclock', "
        "'wallclock-in-fingerprint-path']",
    ),
    "lint-missing-path": (
        ["lint", "TMP/nowhere.py"],
        "repro lint: lint path does not exist: TMP/nowhere.py",
    ),
}


@pytest.mark.parametrize("argv, line", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_2_with_one_line(tmp, capsys, argv, line):
    code = main([arg.replace("TMP", str(tmp)) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == line.replace("TMP", str(tmp)) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(option_surface(), indent=1, sort_keys=True) + "\n")
    print(f"re-blessed {GOLDEN_PATH}")
