"""The composite-inverter sweep against the clone-per-candidate sweep it replaced.

``fast_buffering_reference`` keeps the sweep that buffered one clone of the
input tree per ladder candidate and scored every candidate.  The production
sweep visits the ladder strongest first and stops at the first candidate
that fits, so it scores a prefix of that order.  On the INITIAL stage's own
input, it must choose the same candidate, return the same buffered tree
(node ids and node-table order included), report for each candidate it
scored the reference's outcome for that candidate, run one DP per scored
candidate, and leave its input untouched.  The instances stop after one,
two, three and four candidates (the last one because none fits).
"""

from unittest import mock

import pytest

from repro.api.jobs import JobSpec
from repro.buffering.vanginneken import LadderPlan
from repro.core import ContangoFlow, FlowConfig, pipeline
from repro.runner import resolve_instance
from repro.testing import tree_fingerprint

import fast_buffering_reference as reference


def content(tree):
    """``tree_fingerprint`` without revisions, which one process-wide counter draws."""
    root_id, _, nodes = tree_fingerprint(tree)
    return root_id, tuple(node[:-1] for node in nodes)


def run_initial(spec):
    ContangoFlow(FlowConfig(engine="arnoldi", pipeline=["initial"])).run(resolve_instance(spec))


def counting_walks():
    """A patch of the DP walk that appends the name of each buffer it walks."""
    walked = []
    walk = LadderPlan._walk

    def counted(plan, buffer):
        walked.append(buffer.name)
        return walk(plan, buffer)

    return walked, mock.patch.object(LadderPlan, "_walk", counted)


@pytest.mark.parametrize(
    "spec, scored",
    [
        (JobSpec(instance="ti:1000", seed=1), 1),
        (JobSpec(instance="ispd09:ispd09f12"), 2),
        (JobSpec(instance="scenario:macros:sinks=40", seed=3), 3),
        (JobSpec(instance="scenario:maze:sinks=160", seed=3), 4),
    ],
    ids=["ti1000", "ispd09f12", "macros40", "maze160"],
)
def test_sweep_matches_the_clone_per_candidate_oracle(spec, scored):
    production = pipeline.insert_buffers_with_sizing
    sweeps = []

    def checked(tree, candidates, *args, **kwargs):
        before = (tree_fingerprint(tree), tree.revision)
        walked, patch = counting_walks()
        with patch:
            got = production(tree, candidates, *args, **kwargs)
        assert (tree_fingerprint(tree), tree.revision) == before
        want = reference.insert_buffers_with_sizing(tree, candidates, *args, **kwargs)

        strongest_first = sorted(candidates, key=lambda buffer: buffer.output_res)
        assert walked == [buffer.name for buffer in strongest_first[:scored]]
        assert [outcome.buffer for outcome in got.outcomes] == [
            buffer for buffer in candidates if buffer in strongest_first[:scored]
        ]
        by_buffer = {outcome.buffer.name: outcome for outcome in want.outcomes}
        for outcome in got.outcomes:
            assert outcome == by_buffer[outcome.buffer.name]
        assert got.chosen == want.chosen
        assert got.tree.node_ids() == want.tree.node_ids()
        assert content(got.tree) == content(want.tree)
        sweeps.append(got)
        return got

    with mock.patch.object(pipeline, "insert_buffers_with_sizing", side_effect=checked):
        run_initial(spec)
    assert len(sweeps) == 1


@pytest.mark.parametrize(
    "spec, walks",
    [
        (JobSpec(instance="ti:200", seed=1), 1),
        (JobSpec(instance="scenario:maze:sinks=160", seed=3), 4),
        (JobSpec(instance="scenario:macros:sinks=200", seed=3), 1),
        (JobSpec(instance="scenario:banks:sinks=200", seed=3), 1),
        (JobSpec(instance="scenario:strip:sinks=150", seed=3), 1),
        (JobSpec(instance="scenario:banks:sinks=160", seed=3), 1),
    ],
    ids=["ti200", "maze160", "macros200", "banks200", "strip150", "banks160"],
)
def test_dp_walks_per_initial_stage(spec, walks):
    """One DP on a TI tree and on the scenario jobs whose strongest inverter
    fits; four on maze:160, where none fits the capacitance budget."""
    walked, patch = counting_walks()
    with patch:
        run_initial(spec)
    assert len(walked) == walks
