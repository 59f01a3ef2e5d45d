"""Shared fixtures: small deterministic instances and trees used across the suite.

The instance/tree builders live in :mod:`repro.testing` so they are importable
by their package path from any pytest rootdir (importing them as ``from
conftest import ...`` collides with ``benchmarks/conftest.py`` when collecting
from the repository root).  This file only binds them to pytest fixtures.
"""

from __future__ import annotations

import pytest

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.cts import ClockTree
from repro.cts.spec import ClockNetworkInstance
from repro.testing import (  # noqa: F401 -- re-exported for legacy imports
    make_manual_tree,
    make_sinks,
    make_small_instance,
    make_zst_tree,
)


@pytest.fixture
def small_instance() -> ClockNetworkInstance:
    return make_small_instance()


@pytest.fixture
def manual_tree() -> ClockTree:
    return make_manual_tree()


@pytest.fixture
def zst_tree() -> ClockTree:
    return make_zst_tree()


@pytest.fixture
def fast_evaluator() -> ClockNetworkEvaluator:
    """Arnoldi-engine evaluator: accurate enough for assertions, fast enough for tests."""
    return ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))


@pytest.fixture
def spice_evaluator() -> ClockNetworkEvaluator:
    return ClockNetworkEvaluator(EvaluatorConfig(engine="spice"))
