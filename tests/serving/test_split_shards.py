"""The ``vli`` and ``phases`` query kinds.

Both are served from the variable-length-interval splitter: ``vli``
reports the interval boundaries and phase ids as digests, ``phases``
the per-phase interval and instruction totals. The payload is a pure
function of the :class:`Query`, so a worker job and an inline compute
return the same bytes.
"""

import json

from repro.serving import (
    PAYLOAD_VERSION,
    Query,
    QueryJob,
    compute_payload,
    query_from_dict,
    run_query_job,
)
from repro.serving.queries import QUERY_KINDS

from .conftest import WORKLOAD


def test_vli_and_phases_are_query_kinds():
    assert "vli" in QUERY_KINDS
    assert "phases" in QUERY_KINDS
    # and the wire validator accepts them
    assert query_from_dict({"kind": "vli", "workload": WORKLOAD}).kind == "vli"
    assert (
        query_from_dict({"kind": "phases", "workload": WORKLOAD}).kind
        == "phases"
    )


def test_vli_payload_document_shape(serving_dirs):
    from repro.runner.cache import ProfileCache
    from repro.runner.traces import TraceStore

    cache_dir, trace_root = serving_dirs
    cache, store = ProfileCache(cache_dir), TraceStore(trace_root)
    doc = json.loads(
        compute_payload(
            Query(kind="vli", workload=WORKLOAD), cache=cache, trace_store=store
        )
    )
    assert doc["payload_version"] == PAYLOAD_VERSION
    vli = doc["vli"]
    assert vli["num_intervals"] > 0
    assert vli["num_phases"] > 0
    assert vli["total_instructions"] > 0
    for digest in (
        "row_bounds_digest",
        "start_ts_digest",
        "lengths_digest",
        "phase_ids_digest",
    ):
        assert len(vli[digest]) == 64

    doc = json.loads(
        compute_payload(
            Query(kind="phases", workload=WORKLOAD),
            cache=cache,
            trace_store=store,
        )
    )
    phases = doc["phases"]
    assert phases["num_intervals"] > 0
    per_phase = phases["per_phase"]
    assert sum(p["intervals"] for p in per_phase) == phases["num_intervals"]
    assert (
        sum(p["instructions"] for p in per_phase)
        == phases["total_instructions"]
    )


def test_run_query_job_sharded_matches_inline_compute(serving_dirs):
    """A ``vli`` query run as a worker job returns the inline payload."""
    cache_dir, trace_root = serving_dirs
    query = Query(kind="vli", workload=WORKLOAD)
    job = QueryJob(
        query=query,
        cache_dir=cache_dir,
        trace_root=trace_root,
        run_id="vlirun",
    )
    result = run_query_job(job)
    assert result.key == query.key()
    assert result.payload == compute_payload(query)
