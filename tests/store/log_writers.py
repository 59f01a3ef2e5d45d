"""Writer processes for the concurrent-append test of ``test_log.py``.

Kept apart from the test module so a spawned child imports only
:mod:`repro.store`, not pytest, hypothesis and the perf cases.
"""

from repro.store import RunStore


def writer_record(writer, index, size):
    fingerprint = f"fp-{writer}-{index}"
    return {"job": f"job-{fingerprint}", "fingerprint": fingerprint, "blob": "x" * size}


def append_many(root, writer, sizes):
    store = RunStore(root)
    for index, size in enumerate(sizes):
        store.append(writer_record(writer, index, size), run_id=f"w{writer}")
