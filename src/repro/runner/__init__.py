"""Parallel, cached execution layer for the reproduction pipeline.

Call-loop profiling dominates experiment wall-clock: every figure
re-executes its workloads and walks the full traces.  This package
removes that bottleneck twice over:

* :mod:`repro.runner.cache` — a content-addressed on-disk
  :class:`ProfileCache`; profiles are deterministic per (workload,
  input, code version), so a warm cache turns re-profiling into a JSON
  load.
* :mod:`repro.runner.jobs` / :mod:`repro.runner.parallel` — pure,
  picklable :class:`ProfileJob` units, each naming a registry workload,
  fanned out over a ``ProcessPoolExecutor``; independent (workload,
  input) profiles run concurrently and return exact serialized graphs.
* :mod:`repro.runner.traces` — a content-addressed :class:`TraceStore`
  of spilled columnar traces, which every consumer memory-maps instead
  of holding or pickling arrays, and :func:`acquire_trace`, the one
  rule for getting a trace out of it: a store hit, else a fresh
  recording, profiled first when a profile is wanted, then spilled with
  its span index.  The memoizing Runner, a profile job and a serving
  query all acquire traces through it.

The memoizing :class:`~repro.experiments.runner.Runner` threads all
three together (``Runner(cache=..., jobs=...)``) and lists every graph
acquisition in its run summary; the CLI exposes them as
``repro experiment NAME --jobs N [--cache-dir DIR | --no-cache]``.
"""

from repro.runner.cache import CACHE_SCHEMA_VERSION, ProfileCache, default_cache_dir
from repro.runner.jobs import ProfileJob, ProfileJobResult, run_profile_job
from repro.runner.parallel import default_jobs, run_profile_jobs
from repro.runner.traces import (
    TraceHandle,
    TraceStore,
    acquire_trace,
    default_trace_dir,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ProfileCache",
    "default_cache_dir",
    "ProfileJob",
    "ProfileJobResult",
    "run_profile_job",
    "default_jobs",
    "run_profile_jobs",
    "TraceHandle",
    "TraceStore",
    "acquire_trace",
    "default_trace_dir",
]
