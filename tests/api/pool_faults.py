"""Worker functions for the pool-recovery test of ``test_service.py``.

Kept apart from the test module so a pool worker needs only
:mod:`repro.runner`, not pytest.
"""

import os

from repro.runner import execute_job_guarded

#: Seed of a job whose worker process dies.
FATAL_SEED = 666


def execute_or_exit(job):
    """The service's default worker, except that a job seeded
    :data:`FATAL_SEED` ends its worker process at once: no result, no
    cleanup, as an OOM kill or a segfault would."""
    if job.seed == FATAL_SEED:
        os._exit(1)
    return execute_job_guarded(job)
