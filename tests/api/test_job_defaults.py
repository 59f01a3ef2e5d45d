"""Every job-level default has one declaration that every other site reads.

The declarations: ``Job.flow`` and ``Job.engine``; the Monte Carlo axes on
``McJobSpec``; ``YIELD_SKEW_LIMIT_PS`` and ``ANALYTICAL_ENGINES`` in
``repro.analysis.variation``; the gate's sample count and tolerance on
``FlowConfig``; the compare tolerances on ``CompareTolerances``.  These tests
compare what ``JobMatrix``, ``MonteCarloAxes``, the HTTP payload parser and
the parsed defaults of ``repro run``/``sweep``/``mc``/``profile``/``compare``
produce with those declarations, so a copy that drifts from its declaration
fails here.
"""

import inspect

import pytest

import repro.cli as cli
from repro.analysis.evaluator import ClockNetworkEvaluator
from repro.analysis.variation import ANALYTICAL_ENGINES, YIELD_SKEW_LIMIT_PS
from repro.api.jobs import Job, JobMatrix, JobSpec, McJobSpec, MonteCarloAxes
from repro.api.service import SynthesisService
from repro.core import FlowConfig
from repro.serve.http import job_from_payload
from repro.store import CompareTolerances


@pytest.fixture
def batch_jobs(monkeypatch):
    """Run a batch command and return the jobs it would have dispatched."""

    def run(argv):
        captured = []

        def capture(args, jobs, **kwargs):
            captured.extend(jobs)
            return 0

        monkeypatch.setattr(cli, "_run_batch", capture)
        assert cli.main(argv) == 0
        return captured

    return run


class TestDeclarations:
    def test_matrix_cells_are_the_spec_defaults(self):
        assert JobMatrix(instances=["ti:8"]).expand() == [JobSpec("ti:8")]
        mc = JobMatrix(instances=["ti:8"], monte_carlo=MonteCarloAxes()).expand()
        assert mc == [McJobSpec("ti:8")]

    def test_shared_constants(self):
        assert McJobSpec.skew_limit_ps == YIELD_SKEW_LIMIT_PS
        assert FlowConfig().variation_skew_limit_ps == YIELD_SKEW_LIMIT_PS
        default = inspect.signature(ClockNetworkEvaluator.evaluate_yield).parameters
        assert default["skew_limit_ps"].default == YIELD_SKEW_LIMIT_PS

    def test_http_payload_defaults_are_the_spec_defaults(self):
        assert job_from_payload({"instance": "ti:8"}) == JobSpec("ti:8")
        assert job_from_payload({"instance": "ti:8", "kind": "mc"}) == McJobSpec("ti:8")

    def test_the_service_takes_specs_only(self):
        for facade in ("synthesize", "monte_carlo", "sweep", "compare"):
            assert not hasattr(SynthesisService, facade)


class TestCliDefaults:
    def test_run_and_sweep(self, batch_jobs, tmp_path):
        assert batch_jobs(["run", "--instance", "ti:8"]) == [JobSpec("ti:8")]
        argv = ["sweep", "--instance", "ti:8", "--store", str(tmp_path)]
        assert batch_jobs(argv) == [JobSpec("ti:8")]

    def test_mc(self, batch_jobs):
        assert batch_jobs(["mc", "--instance", "ti:8"]) == [McJobSpec("ti:8")]
        parser = cli.build_parser()
        for engine in ANALYTICAL_ENGINES:
            assert parser.parse_args(["mc", "--engine", engine]).engine == engine
        with pytest.raises(SystemExit):
            parser.parse_args(["mc", "--engine", "spice"])

    def test_profile(self, monkeypatch):
        captured = []

        def capture(spec, tracer=None):
            captured.append(spec)
            raise RuntimeError("not run")

        monkeypatch.setattr(cli, "run_job", capture)
        assert cli.main(["profile", "ti:8"]) == 1
        assert captured == [JobSpec("ti:8")]

    def test_compare(self):
        args = cli.build_parser().parse_args(["compare", "a", "b"])
        parsed = CompareTolerances(
            skew_ps=args.skew_tol, clr_ps=args.clr_tol, evaluations=args.evals_tol
        )
        assert parsed == CompareTolerances()

    def test_options_read_the_declarations(self, monkeypatch):
        # A literal copy in the parser would keep its own value here.
        for owner, name in [(Job, "flow"), (Job, "engine"), (McJobSpec, "family")]:
            monkeypatch.setattr(owner, name, f"drifted-{name}")
        for name in ("seed", "skew_limit_ps"):
            monkeypatch.setattr(McJobSpec, name, 99)
        for name in ("skew_ps", "clr_ps", "evaluations"):
            monkeypatch.setattr(CompareTolerances, name, 99)
        parser = cli.build_parser()
        mc = parser.parse_args(["mc"])
        assert (mc.engine, mc.family, mc.seed, mc.skew_limit) == (
            "drifted-engine", "drifted-family", 99, 99,
        )
        profile = parser.parse_args(["profile", "ti:8"])
        assert (profile.flow, profile.engine) == ("drifted-flow", "drifted-engine")
        compare = parser.parse_args(["compare", "a", "b"])
        assert (compare.skew_tol, compare.clr_tol, compare.evals_tol) == (99, 99, 99)
