"""Fixture: module-level workers only -- picklable by reference."""

from concurrent.futures import ProcessPoolExecutor


def worker(spec):
    return spec.run()


def run_all(jobs):
    with ProcessPoolExecutor() as pool:
        futures = [pool.submit(worker, job) for job in jobs]
    return futures


def run_sorted(pool, jobs):
    # Lambdas outside the pool boundary stay legal.
    ordered = sorted(jobs, key=lambda job: job.seed)
    return [pool.submit(worker, job) for job in ordered]
