"""Split kinds read the span index spilled with the trace.

A spilled entry holds the trace's columns and its span index.  An index
that is truncated, missing, or out of step with the columns makes the
entry a miss: the next query re-records, re-spills, and answers with
the same bytes as a query with no stores at all.
"""

import json

import pytest

from repro.runner.cache import ProfileCache
from repro.runner.traces import TraceStore
from repro.serving import Query, compute_payload
from repro.telemetry import telemetry_session
from repro.workloads import get_workload

from .conftest import WORKLOAD

KINDS = ("vli", "phases", "bbv")


@pytest.fixture(scope="module")
def storeless():
    """The reference payloads: no cache, no trace store."""
    return {kind: compute_payload(Query(kind=kind, workload=WORKLOAD)) for kind in KINDS}


def _entry(store):
    program_input = get_workload(WORKLOAD).input_for("ref")
    return store.path_for(store.trace_key(WORKLOAD, "ref", program_input))


def _truncate_index(path):
    column = path / "open_rows.npy"
    column.write_bytes(column.read_bytes()[:-4])


def _drop_index(path):
    (path / "opens.json").unlink()


def _miscount_index(path):
    doc = json.loads((path / "opens.json").read_text())
    doc["rows"] -= 1
    (path / "opens.json").write_text(json.dumps(doc))


def _recordings(monkeypatch):
    from repro.engine import tracing

    record = tracing.record_trace
    calls = []

    def counted(source):
        calls.append(source)
        return record(source)

    monkeypatch.setattr(tracing, "record_trace", counted)
    return calls


def test_warm_split_kinds_read_the_stored_index(tmp_path, storeless):
    """After the first query spills the trace with its index, split
    kinds on the warm stores build no index and record nothing."""
    cache, store = ProfileCache(tmp_path / "cache"), TraceStore(tmp_path / "traces")
    first = compute_payload(Query(kind="vli", workload=WORKLOAD), cache, store)
    assert first == storeless["vli"]
    assert (_entry(store) / "open_rows.npy").exists()
    for kind in KINDS:
        with telemetry_session() as tm:
            got = compute_payload(Query(kind=kind, workload=WORKLOAD), cache, store)
        assert got == storeless[kind]
        counters = tm.metrics.counters
        assert counters["markers.firings.spans"] == 1
        assert "markers.firings.index_builds" not in counters
        assert "engine.trace.events" not in counters  # no recording


@pytest.mark.parametrize("spoil", [_truncate_index, _drop_index, _miscount_index])
def test_spoiled_index_is_re_recorded_with_identical_bytes(
    tmp_path, storeless, spoil, monkeypatch
):
    cache, store = ProfileCache(tmp_path / "cache"), TraceStore(tmp_path / "traces")
    assert compute_payload(Query(kind="bbv", workload=WORKLOAD), cache, store) == (
        storeless["bbv"]
    )
    spoil(_entry(store))
    calls = _recordings(monkeypatch)
    for kind in KINDS:
        assert compute_payload(Query(kind=kind, workload=WORKLOAD), cache, store) == (
            storeless[kind]
        )
    assert len(calls) == 1  # re-recorded once, then read back
    assert store.spills == 2
    assert store.load(_entry(store).name) is not None
