"""The composite-inverter sweep against the clone-per-candidate sweep it replaced.

``fast_buffering_reference`` keeps the sweep that buffered one clone of the
input tree per ladder candidate.  On the INITIAL stage's own input (a TI
tree and an obstacle-repaired maze tree), the production sweep must report
the same outcomes, choose the same candidate and return the same buffered
tree, node-table order included, and must leave its input untouched.
"""

from unittest import mock

import pytest

from repro.api.jobs import JobSpec
from repro.core import ContangoFlow, FlowConfig, pipeline
from repro.runner import resolve_instance
from repro.testing import tree_fingerprint

import fast_buffering_reference as reference


def content(tree):
    """``tree_fingerprint`` without revisions, which one process-wide counter draws."""
    root_id, _, nodes = tree_fingerprint(tree)
    return root_id, tuple(node[:-1] for node in nodes)


def chosen_index(sweep):
    (index,) = [i for i, outcome in enumerate(sweep.outcomes) if outcome is sweep.chosen]
    return index


@pytest.mark.parametrize(
    "spec",
    [JobSpec(instance="ti:1000", seed=1), JobSpec(instance="scenario:maze:sinks=160", seed=3)],
    ids=["ti1000", "maze160"],
)
def test_sweep_matches_the_clone_per_candidate_oracle(spec):
    production = pipeline.insert_buffers_with_sizing
    sweeps = []

    def checked(tree, *args, **kwargs):
        before = (tree_fingerprint(tree), tree.revision)
        got = production(tree, *args, **kwargs)
        assert (tree_fingerprint(tree), tree.revision) == before
        want = reference.insert_buffers_with_sizing(tree, *args, **kwargs)
        assert got.outcomes == want.outcomes
        assert chosen_index(got) == chosen_index(want)
        assert got.tree.node_ids() == want.tree.node_ids()
        assert content(got.tree) == content(want.tree)
        sweeps.append(got)
        return got

    with mock.patch.object(pipeline, "insert_buffers_with_sizing", side_effect=checked):
        ContangoFlow(FlowConfig(engine="arnoldi", pipeline=["initial"])).run(
            resolve_instance(spec)
        )
    assert len(sweeps) == 1
