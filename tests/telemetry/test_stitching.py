"""Cross-worker trace stitching: the ``--jobs N`` acceptance test.

A parallel prefetch under an enabled session must export **one** Chrome
trace containing the spans of every pool worker, with valid parent
linkage throughout — not disconnected per-worker fragments.
"""

import pytest

from repro.experiments.runner import Runner
from repro.telemetry import (
    analyze_critical_path,
    read_jsonl,
    telemetry_session,
    write_jsonl,
)

SPECS = [
    ("mcf/ref", "ref"),
    ("lucas/ref", "ref"),
    ("mgrid/ref", "ref"),
    ("bzip2/graphic", "ref"),
]


@pytest.fixture(scope="module")
def stitched_trace(tmp_path_factory):
    """One jobs=4 prefetch, exported as JSONL."""
    with telemetry_session() as tm:
        runner = Runner(jobs=4)
        profiled = runner.prefetch_graphs(SPECS)
        assert profiled == len(SPECS)
        path = write_jsonl(
            tm, tmp_path_factory.mktemp("trace") / "stitched.jsonl"
        )
    return tm, read_jsonl(path)


def _lanes(events):
    return {
        e["tid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }


def test_single_trace_contains_every_worker(stitched_trace):
    tm, events = stitched_trace
    header = next(e for e in events if e["name"] == "telemetry")
    assert header["args"]["run_id"] == tm.run_id
    lanes = _lanes(events)

    jobs = [e for e in events if e["name"] == "runner.profile_job"]
    assert len(jobs) == len(SPECS)
    worker_labels = {lanes[e["tid"]] for e in jobs}
    # every profiled job rode a worker lane, never the main lane
    assert all(label.startswith("worker ") for label in worker_labels)
    assert all(e["tid"] != 0 for e in jobs)
    # the spans of every participating worker are in this one file
    assert {e["args"].get("worker_pid") for e in jobs} == {
        int(label.split()[1]) for label in worker_labels
    }


def test_stitched_spans_have_valid_parent_linkage(stitched_trace):
    tm, events = stitched_trace
    spans = [e for e in events if e["ph"] == "X"]
    ids = {e["args"]["id"] for e in spans}
    assert len(ids) == len(spans)  # remapped ids stay unique
    for e in spans:
        parent = e["args"]["parent"]
        assert parent is None or parent in ids
    # worker roots re-parented under the parent's prefetch span
    prefetch = next(e for e in spans if e["name"] == "runner.prefetch")
    jobs = [e for e in spans if e["name"] == "runner.profile_job"]
    assert all(e["args"]["parent"] == prefetch["args"]["id"] for e in jobs)
    assert all(
        e["args"]["path"] == "runner.prefetch/runner.profile_job"
        for e in jobs
    )


def test_stitched_trace_times_are_coherent(stitched_trace):
    """Worker spans rebase onto the parent epoch: every job span lies
    inside the prefetch span's window (fork epoch rebasing worked)."""
    tm, events = stitched_trace
    spans = [e for e in events if e["ph"] == "X"]
    prefetch = next(e for e in spans if e["name"] == "runner.prefetch")
    lo, hi = prefetch["ts"], prefetch["ts"] + prefetch["dur"]
    slack = 0.05 * prefetch["dur"]
    for e in spans:
        if e["name"] == "runner.profile_job":
            assert lo - slack <= e["ts"]
            assert e["ts"] + e["dur"] <= hi + slack


def test_stitched_trace_analyzes_with_worker_lanes(stitched_trace):
    tm, events = stitched_trace
    report = analyze_critical_path(events)
    assert report is not None
    # one lane per pool worker that ran a job: 4 jobs on 4 workers need
    # not land on 4 distinct processes
    jobs = [e for e in events if e["name"] == "runner.profile_job"]
    assert report.worker_lanes == len(
        {e["args"]["worker_pid"] for e in jobs}
    )
    assert report.parallel_efficiency is not None
    assert 0.0 < report.parallel_efficiency <= 1.0
    assert not tm.metrics.counters.get("telemetry.merge.run_id_mismatch")
