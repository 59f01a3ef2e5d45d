"""Fixture: unpicklable callables crossing the process-pool boundary."""

from concurrent.futures import ProcessPoolExecutor


def run_all(jobs):
    results = []
    with ProcessPoolExecutor() as pool:
        for job in jobs:
            results.append(pool.submit(lambda spec: spec.run(), job))
    return results


def run_nested(pool, jobs):
    def local_worker(spec):
        return spec.run()

    return [pool.submit(local_worker, job) for job in jobs]


def run_named(pool, jobs):
    handler = lambda spec: spec.run()  # noqa: E731
    return [pool.submit(handler, job) for job in jobs]
