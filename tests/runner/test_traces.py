"""Unit tests for the spilled-trace store and shared-memory handoff."""

import json
import pickle

import numpy as np
import pytest

from repro.callloop.spans import EdgeOpens, index_trace
from repro.engine import Machine, Trace, record_trace
from repro.runner.traces import TraceHandle, TraceStore, default_trace_dir


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "traces")


@pytest.fixture
def toy_trace(toy_program, toy_input):
    return record_trace(Machine(toy_program, toy_input))


def assert_same_index(got, want):
    assert got.total == want.total
    assert got.edges == want.edges
    for name in ("rows", "ts", "runs", "resets"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_store_load_roundtrip(store, toy_program, toy_trace, toy_input):
    key = store.trace_key("toy", "ref", toy_input)
    handle = store.store(key, toy_trace, toy_program)
    loaded = store.load(key)
    assert loaded is not None
    for name in ("kinds", "a", "b", "c"):
        assert np.array_equal(getattr(loaded, name), getattr(toy_trace, name))
    # mmap mode: the ids come back as a memory map sharing the page cache
    assert isinstance(loaded.ids, np.memmap)
    assert handle.rows == len(toy_trace)
    # the span index comes back with them, its columns mapped too
    assert_same_index(loaded.opens, toy_trace.opens)
    assert isinstance(loaded.opens.rows, np.memmap)


def test_store_indexes_a_trace_without_one(store, toy_program, toy_trace, toy_input):
    """A spill builds, attaches and writes the span index of a trace
    that has none."""
    key = store.trace_key("toy", "ref", toy_input)
    bare = Trace(toy_trace.ids, toy_trace.table)
    want = index_trace(toy_program, bare)
    assert toy_trace.opens is None
    store.store(key, toy_trace, toy_program)
    assert_same_index(toy_trace.opens, want)
    assert_same_index(store.load(key).opens, want)


def test_declined_trace_spills_its_reason(store, toy_program, toy_trace, toy_input):
    key = store.trace_key("toy", "ref", toy_input)
    declined = Trace(toy_trace.ids, toy_trace.table)
    declined.opens = "off_header"
    store.store(key, declined, toy_program)
    assert store.load(key).opens == "off_header"
    assert not (store.path_for(key) / "open_rows.npy").exists()


def test_handle_load(store, toy_program, toy_trace, toy_input):
    key = store.trace_key("toy", "ref", toy_input)
    handle = store.store(key, toy_trace, toy_program)
    loaded = handle.load()
    assert isinstance(loaded.ids, np.memmap)
    for name in ("kinds", "a", "b", "c"):
        assert np.array_equal(getattr(loaded, name), getattr(toy_trace, name))
    assert_same_index(loaded.opens, toy_trace.opens)


def test_handle_is_picklable(store, toy_program, toy_trace, toy_input):
    key = store.trace_key("toy", "ref", toy_input)
    handle = store.store(key, toy_trace, toy_program)
    clone = pickle.loads(pickle.dumps(handle))
    assert clone == handle
    assert len(pickle.dumps(handle)) < 500  # a path record, not the trace
    assert np.array_equal(clone.load().a, toy_trace.a)


def test_missing_key_is_a_miss(store):
    assert store.load("0" * 64) is None


def test_corrupt_entry_is_a_miss(store, toy_program, toy_trace, toy_input):
    key = store.trace_key("toy", "ref", toy_input)
    store.store(key, toy_trace, toy_program)
    (store.path_for(key) / "table.npy").write_bytes(b"not a npy file")
    assert store.load(key) is None
    assert not store.path_for(key).exists()  # removed for re-recording


def _truncate_index(path):
    column = path / "open_ts.npy"
    column.write_bytes(column.read_bytes()[:-8])


def _drop_index(path):
    (path / "opens.json").unlink()


def _miscount_index(path):
    doc = json.loads((path / "opens.json").read_text())
    doc["rows"] += 1
    (path / "opens.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("spoil", [_truncate_index, _drop_index, _miscount_index])
def test_spoiled_index_is_a_miss(store, toy_program, toy_trace, toy_input, spoil):
    """A truncated index column, a missing index file, or an index whose
    row count disagrees with the columns: the load misses and removes
    the entry, and a handle to it refuses to load."""
    key = store.trace_key("toy", "ref", toy_input)
    handle = store.store(key, toy_trace, toy_program)
    spoil(store.path_for(key))
    with pytest.raises((ValueError, OSError)):
        handle.load()
    assert store.load(key) is None
    assert not store.path_for(key).exists()  # removed for re-recording


def _truncate(name, keep):
    def spoil(path):
        column = path / name
        column.write_bytes(column.read_bytes()[: int(column.stat().st_size * keep)])

    spoil.__name__ = f"truncate_{name.split('.')[0]}_{keep}"
    return spoil


def _resave(name, change):
    def spoil(path):
        np.save(path / name, change(np.load(path / name)))

    spoil.__name__ = f"resave_{name.split('.')[0]}_{change.__name__}"
    return spoil


def past_the_table(ids):
    ids = ids.copy()
    ids[len(ids) // 2] = 32_000
    return ids


def negative(ids):
    ids = ids.copy()
    ids[-1] = -1
    return ids


def three_columns(table):
    return table[:, :3].copy()


def narrowed(table):
    return table.astype(np.int32)


def rows_dropped(table):
    return table[: len(table) // 2]


@pytest.mark.parametrize(
    "spoil",
    [
        _truncate("ids.npy", 0.5),
        _truncate("ids.npy", 0),
        _truncate("table.npy", 0.5),
        _truncate("table.npy", 0),
        _resave("ids.npy", past_the_table),
        _resave("ids.npy", negative),
        _resave("table.npy", three_columns),
        _resave("table.npy", narrowed),
        _resave("table.npy", rows_dropped),
    ],
    ids=lambda f: f.__name__,
)
def test_spoiled_ids_or_table_is_a_miss(store, toy_program, toy_trace, toy_input, spoil):
    """A truncated or empty ids or table file, an id outside its table,
    or a table of the wrong shape or type: the load misses and removes
    the entry, a handle to it raises a typed error, and the next load
    after a re-spill gives the recording's rows."""
    key = store.trace_key("toy", "ref", toy_input)
    handle = store.store(key, toy_trace, toy_program)
    spoil(store.path_for(key))
    with pytest.raises((ValueError, OSError)):
        handle.load()
    assert store.load(key) is None
    assert not store.path_for(key).exists()  # removed for re-recording
    store.store(key, toy_trace, toy_program)
    reloaded = store.load(key)
    for name in ("kinds", "a", "b", "c"):
        assert np.array_equal(getattr(reloaded, name), getattr(toy_trace, name))


def test_entry_holds_ids_table_and_index(store, toy_program, toy_trace, toy_input):
    key = store.trace_key("toy", "ref", toy_input)
    store.store(key, toy_trace, toy_program)
    names = sorted(p.name for p in store.path_for(key).iterdir())
    assert names == [
        "ids.npy",
        "open_resets.npy",
        "open_rows.npy",
        "open_runs.npy",
        "open_ts.npy",
        "opens.json",
        "table.npy",
    ]
    assert np.load(store.path_for(key) / "ids.npy").dtype == np.int16


def test_store_is_idempotent(store, toy_program, toy_trace, toy_input):
    key = store.trace_key("toy", "ref", toy_input)
    h1 = store.store(key, toy_trace, toy_program)
    h2 = store.store(key, toy_trace, toy_program)
    assert h1 == h2
    assert store.spills == 1  # second store reused the existing entry


def test_keys_distinguish_inputs(store, toy_input):
    from repro.ir.program import ProgramInput

    other = ProgramInput("test", {}, seed=toy_input.seed + 1)
    assert store.trace_key("toy", "ref", toy_input) != store.trace_key(
        "toy", "ref", other
    )
    assert store.trace_key("toy", "ref", toy_input) != store.trace_key(
        "toy", "train", toy_input
    )
    assert store.trace_key("toy", "ref", toy_input) == store.trace_key(
        "toy", "ref", toy_input
    )


def test_clear(store, toy_program, toy_trace, toy_input):
    key = store.trace_key("toy", "ref", toy_input)
    store.store(key, toy_trace, toy_program)
    assert store.clear() == 1
    assert store.load(key) is None


def test_handle_row_mismatch_rejected(store, toy_program, toy_trace, toy_input):
    key = store.trace_key("toy", "ref", toy_input)
    handle = store.store(key, toy_trace, toy_program)
    bad = TraceHandle(handle.path, handle.rows + 1)
    with pytest.raises(ValueError):
        bad.load()


def test_default_trace_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "custom"))
    assert default_trace_dir() == tmp_path / "custom"


def test_profile_job_handoff(tmp_path, monkeypatch):
    """A job with a trace_root spills its recording, span index
    included, into the store, where the parent maps it by key instead of
    having the trace pickled back; a second run of the job reads the
    entry and records nothing."""
    from repro.engine import tracing
    from repro.runner.jobs import ProfileJob, run_profile_job
    from repro.workloads import get_workload

    store = TraceStore(tmp_path / "traces")
    job = ProfileJob("mcf", "train", trace_root=str(store.root))
    result = run_profile_job(job)
    key = store.trace_key("mcf", "train", get_workload("mcf").input_for("train"))
    trace = store.load(key)
    assert isinstance(trace.ids, np.memmap)
    assert isinstance(trace.opens, EdgeOpens)
    # a second run of the same job hits the spilled entry
    monkeypatch.setattr(
        tracing, "record_trace", lambda source: pytest.fail("recorded again")
    )
    result2 = run_profile_job(job)
    assert result2.graph_data == result.graph_data
