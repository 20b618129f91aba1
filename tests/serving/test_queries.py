"""The query model: validation, identity, and the pure-payload contract."""

import json

import pytest

from repro.serving import (
    PAYLOAD_VERSION,
    Query,
    QueryError,
    QueryJob,
    canonical_json_bytes,
    compute_payload,
    query_from_dict,
    run_query_job,
)

from .conftest import WORKLOAD


def test_query_key_is_stable_and_configuration_sensitive():
    a = Query(kind="markers", workload="x")
    b = Query(kind="markers", workload="x")
    assert a.key() == b.key()
    # every selection knob is part of the identity
    assert a.key() != Query(kind="markers", workload="x", ilower=5_000).key()
    assert a.key() != Query(kind="markers", workload="x", max_limit=10).key()
    assert a.key() != Query(kind="profile", workload="x").key()
    assert a.key() != Query(kind="markers", workload="y").key()


def test_canonical_json_bytes_is_order_insensitive():
    assert canonical_json_bytes({"b": 1, "a": [2, 3]}) == canonical_json_bytes(
        {"a": [2, 3], "b": 1}
    )


def test_query_from_dict_accepts_defaults():
    query = query_from_dict({"kind": "markers", "workload": WORKLOAD})
    assert query == Query(kind="markers", workload=WORKLOAD)


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "markers"},  # missing workload
        {"workload": WORKLOAD},  # missing kind
        {"kind": "markers", "workload": WORKLOAD, "extra": 1},  # unknown field
        {"kind": "cpi", "workload": WORKLOAD},  # unknown kind
        {"kind": "markers", "workload": "nope"},  # unknown workload
        {"kind": "markers", "workload": WORKLOAD, "which": "nope"},
        {"kind": "markers", "workload": WORKLOAD, "ilower": "10"},  # str
        {"kind": "markers", "workload": WORKLOAD, "ilower": True},  # bool
        {"kind": "markers", "workload": WORKLOAD, "ilower": 0},
        {"kind": "markers", "workload": WORKLOAD, "max_limit": -1},
        {"kind": "stream", "workload": WORKLOAD, "window": -1},
        {"kind": "markers", "workload": WORKLOAD, "window": 4},  # not stream
        {"kind": 3, "workload": WORKLOAD},
        "not an object",
        {"kind": "markers", "workload": "compress95/zzz"},  # not an input
    ],
)
def test_query_from_dict_rejects_malformed(doc):
    with pytest.raises(QueryError):
        query_from_dict(doc)


@pytest.mark.parametrize("spec", ["gzip/graphic", "compress95/ref", "gzip/train"])
def test_query_from_dict_accepts_labels_that_name_inputs(spec):
    assert query_from_dict({"kind": "markers", "workload": spec}).workload == spec


def test_payload_is_a_pure_function_of_the_query():
    query = Query(kind="markers", workload=WORKLOAD)
    assert compute_payload(query) == compute_payload(query)


def test_storeless_query_records_its_trace_once(monkeypatch):
    """With no trace store, the trace a cache-miss profile records is
    the one the split and BBVs read: one recording per query."""
    from repro.engine import tracing

    record = tracing.record_trace
    calls = []

    def counted(source):
        calls.append(source)
        return record(source)

    monkeypatch.setattr(tracing, "record_trace", counted)
    doc = json.loads(compute_payload(Query(kind="bbv", workload=WORKLOAD)))
    assert doc["bbv"]["num_intervals"] > 0
    assert len(calls) == 1


def test_cache_hit_and_miss_payloads_are_byte_identical(serving_dirs):
    from repro.runner.cache import ProfileCache
    from repro.runner.traces import TraceStore

    cache_dir, trace_root = serving_dirs
    query = Query(kind="markers", workload=WORKLOAD, ilower=20_000)
    # the warm path (graph cached by the session fixture) must produce
    # the same bytes as a from-scratch computation with no stores at all
    warm = compute_payload(
        query,
        cache=ProfileCache(cache_dir),
        trace_store=TraceStore(trace_root),
    )
    cold = compute_payload(query)
    assert warm == cold


def test_payload_document_shape(serving_dirs):
    from repro.runner.cache import ProfileCache
    from repro.runner.traces import TraceStore

    cache_dir, trace_root = serving_dirs
    cache, store = ProfileCache(cache_dir), TraceStore(trace_root)
    for kind, field in (
        ("profile", "graph"),
        ("markers", "markers"),
        ("bbv", "bbv"),
    ):
        query = Query(kind=kind, workload=WORKLOAD)
        doc = json.loads(
            compute_payload(query, cache=cache, trace_store=store)
        )
        assert doc["payload_version"] == PAYLOAD_VERSION
        assert doc["query"] == query.as_dict()
        assert field in doc
    assert doc["bbv"]["num_intervals"] > 0
    assert len(doc["bbv"]["matrix_digest"]) == 64


def test_stream_window_is_part_of_the_identity():
    a = Query(kind="stream", workload=WORKLOAD)
    assert a.key() != Query(kind="stream", workload=WORKLOAD, window=4).key()


def test_stream_payload_shape_and_purity(serving_dirs):
    from repro.runner.cache import ProfileCache
    from repro.runner.traces import TraceStore

    cache_dir, trace_root = serving_dirs
    cache, store = ProfileCache(cache_dir), TraceStore(trace_root)
    query = query_from_dict(
        {"kind": "stream", "workload": WORKLOAD, "window": 4}
    )
    payload = compute_payload(query, cache=cache, trace_store=store)
    assert payload == compute_payload(query)  # cold path, same bytes
    doc = json.loads(payload)
    assert doc["payload_version"] == PAYLOAD_VERSION
    assert doc["query"] == query.as_dict()
    stream = doc["stream"]
    assert stream["window_slots"] == 4
    assert stream["batch_equivalent"] is False
    assert stream["events"] > 0
    assert stream["total_instructions"] > 0
    assert stream["slots_sealed"] >= stream["slots_evicted"] >= 0
    assert stream["phase_changes"] >= 0
    assert stream["markers"]["markers"]


def test_stream_unbounded_is_flagged_batch_equivalent():
    """window=0 disables drift: no re-selections, batch_equivalent set,
    and the final marker set is exactly the batch selection."""
    markers_doc = json.loads(
        compute_payload(Query(kind="markers", workload=WORKLOAD))
    )
    doc = json.loads(compute_payload(Query(kind="stream", workload=WORKLOAD)))
    stream = doc["stream"]
    assert stream["batch_equivalent"] is True
    assert stream["reselections"] == []
    assert stream["drift_events"] == 0
    assert stream["markers"] == markers_doc["markers"]


def test_run_query_job_matches_inline_compute(serving_dirs):
    cache_dir, trace_root = serving_dirs
    query = Query(kind="markers", workload=WORKLOAD)
    job = QueryJob(
        query=query,
        cache_dir=cache_dir,
        trace_root=trace_root,
        run_id="testrun",
    )
    result = run_query_job(job)
    assert result.key == query.key()
    assert result.payload == compute_payload(query)
    assert result.graph_source in ("cache", "profiled")
    assert result.seconds >= 0
    # the worker ships a telemetry snapshot carrying the parent run id
    assert result.telemetry is not None
    assert result.telemetry["run_id"] == "testrun"
    assert any(
        s["name"] == "serve.compute" for s in result.telemetry["spans"]
    )
