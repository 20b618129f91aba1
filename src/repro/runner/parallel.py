"""Process-pool fan-out over independent profile jobs.

Profiles of different (workload, input) pairs share nothing, so they
parallelize embarrassingly well — Meng et al.'s observation for binary
analysis passes applies verbatim here.  The pool is
``ProcessPoolExecutor`` (the engine is pure Python; threads would
serialize on the GIL), results come back in submission order, and a
worker crash surfaces as the underlying exception rather than a hang.

``max_workers <= 1`` (or a single job) runs inline in the calling
process with identical semantics — the serial path and the parallel
path return byte-identical results because graph serialization is exact
and the engine is deterministic.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, List, Optional

from repro.runner.jobs import ProfileJob, ProfileJobResult, run_profile_job


def available_cpus() -> int:
    """CPUs actually available to this process, not the machine total.

    Containers and batch schedulers routinely pin processes to a subset
    of cores; sizing a pool by ``os.cpu_count()`` then oversubscribes
    the allowance.  Prefers ``os.process_cpu_count()`` (3.13+), falls
    back to the CPU-affinity mask where the platform exposes one, and
    only then to the raw machine count.
    """
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:  # pragma: no cover - Python 3.13+
        count = getter()
        if count:
            return count
    if hasattr(os, "sched_getaffinity"):
        try:
            count = len(os.sched_getaffinity(0))
            if count:
                return count
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def default_jobs() -> int:
    """A sensible worker count: the CPUs available to this process.

    Only the *default* is clamped — an explicit ``max_workers`` passed
    to :func:`run_profile_jobs` is honored as given, so callers (and
    tests) can deliberately oversubscribe.
    """
    return available_cpus()


def run_profile_jobs(
    jobs: Iterable[ProfileJob], max_workers: Optional[int] = None
) -> List[ProfileJobResult]:
    """Run every job, fanning out across *max_workers* processes.

    Results are returned in job order.
    """
    from repro.telemetry import get_telemetry

    job_list = list(jobs)
    if max_workers is None:
        max_workers = default_jobs()
    tm = get_telemetry()
    if tm.enabled:
        # Stamp the session's run id onto outgoing jobs so worker
        # telemetry snapshots stitch back into this run's timeline.
        job_list = [
            dataclasses.replace(job, run_id=tm.run_id)
            if job.run_id is None
            else job
            for job in job_list
        ]
    if max_workers > 1 and len(job_list) > 1:
        workers = min(max_workers, len(job_list))
        if tm.enabled:
            tm.gauge("runner.pool.queue_depth", len(job_list))
            tm.gauge("runner.pool.workers", workers)
        with tm.span("runner.pool", jobs=len(job_list), workers=workers):
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(run_profile_job, job_list))
    return [run_profile_job(job) for job in job_list]
