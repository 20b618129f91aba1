"""Shared fixtures for the serving acceptance tests.

The expensive part of every serving test is the first cold profile of a
workload; ``serving_dirs`` pays it once per session by pre-warming a
shared cache/trace directory pair that the in-process servers then
mount, so the suite measures serving behavior, not interpreter speed.
"""

from __future__ import annotations

import pytest

#: the small workload every serving test queries
WORKLOAD = "compress95"


@pytest.fixture(scope="session")
def serving_dirs(tmp_path_factory):
    """(cache_dir, trace_root) strings, pre-warmed for WORKLOAD."""
    from repro.runner.cache import ProfileCache
    from repro.runner.traces import TraceStore
    from repro.serving import Query, compute_payload

    root = tmp_path_factory.mktemp("serving")
    cache_dir = str(root / "cache")
    trace_root = str(root / "traces")
    compute_payload(
        Query(kind="markers", workload=WORKLOAD),
        cache=ProfileCache(cache_dir),
        trace_store=TraceStore(trace_root),
    )
    return cache_dir, trace_root


@pytest.fixture(autouse=True)
def _empty_worker_state():
    """``run_query_job`` called in this process keeps its programs,
    graphs and mapped traces in the process's worker state; empty it
    around every test, so no kept mapping of one test's temporary stores
    outlives the test."""
    from repro.serving.queries import WORKER_STATE

    WORKER_STATE.clear()
    yield
    WORKER_STATE.clear()
