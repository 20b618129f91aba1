"""Streaming-vs-batch verify wiring: clean on real code, loud on bugs."""

import pytest

from repro.engine.machine import Machine
from repro.engine.tracing import record_trace
from repro.verify import check_corpus, diff_streaming, verify_program
from repro.workloads import get_workload


@pytest.fixture
def toy_trace(toy_program, toy_input):
    return record_trace(Machine(toy_program, toy_input))


def test_diff_streaming_clean_on_fixture(toy_program, toy_trace):
    assert diff_streaming(toy_program, toy_trace) == []


@pytest.mark.parametrize("chunk_rows", [1, 4096])
def test_diff_streaming_clean_at_chunk_extremes(
    toy_program, toy_trace, chunk_rows
):
    assert diff_streaming(toy_program, toy_trace, chunk_rows=chunk_rows) == []


def test_diff_streaming_detects_tampered_trace(toy_program, toy_trace):
    """The streaming side consumes chunk views of the same columns, so a
    divergence must come from the comparison, not the data: tamper with
    a copy fed only to the incremental side via a wrapped trace."""

    class _Tampered:
        """Proxy: batch sees the real trace, chunks see a corrupt c."""

        def __init__(self, trace):
            self._trace = trace

        def __getattr__(self, name):
            return getattr(self._trace, name)

        def __len__(self):
            return len(self._trace)

        def iter_chunks(self, chunk_rows):
            for kinds, a, b, c in self._trace.iter_chunks(chunk_rows):
                c = c.copy()
                c[0] += 1  # shift every chunk's first block size
                yield kinds, a, b, c

    mismatches = diff_streaming(toy_program, _Tampered(toy_trace))
    assert mismatches
    assert all(m.kind == "streaming" for m in mismatches)
    assert any("total" in m.key or "callback" in m.key for m in mismatches)


@pytest.fixture
def broken_bulk_feed(monkeypatch):
    """Break the bulk chunk loop: it restarts the instruction count at
    every chunk (the batch walk, starting at 0, cannot notice)."""
    from repro.callloop.walker import ContextWalker

    select = ContextWalker._interesting_rows

    def restart_count(self, kinds, b_col, c_col, t_start):
        return select(self, kinds, b_col, c_col, 0)

    monkeypatch.setattr(ContextWalker, "_interesting_rows", restart_count)


def test_diff_streaming_detects_broken_bulk_feed(
    toy_program, toy_trace, broken_bulk_feed
):
    """The broken bulk feed is caught by the walker layer fed full
    chunks and by the chunked-monitor layer; the walker layer fed short
    chunks, which take the scalar loop, still matches."""
    mismatches = diff_streaming(toy_program, toy_trace)
    assert mismatches
    assert all(m.kind == "streaming" for m in mismatches)
    keys = [m.key for m in mismatches]
    assert any(k.startswith("walker(edges)") for k in keys)
    assert any(k.startswith("chunked monitor") for k in keys)
    assert not any(k.startswith("walker(edges, short chunks)") for k in keys)


def test_verify_program_runs_streaming_check(toy_program, toy_input):
    report = verify_program(toy_program, toy_input)
    assert "streaming" in report.checks_run
    assert report.ok, report.describe()


def test_check_streaming_corpus_on_workload():
    """The corpus pass finds gzip's streaming walks equal to the batch
    walk."""
    report = check_corpus(workloads=["gzip"])
    assert report.ok, report.describe()
    assert "streaming" in report.checks_run
    assert not [m for m in report.mismatches if m.kind == "streaming"]


def test_corpus_pass_reports_streaming_divergence(broken_bulk_feed):
    """The broken bulk feed, planted under the corpus pass, shows up as
    named ``streaming`` mismatches of the workload."""
    report = check_corpus(workloads=["gzip"])
    assert not report.ok
    assert {m.kind for m in report.mismatches} == {"streaming"}
    assert all(m.key.startswith("gzip ") for m in report.mismatches)
    assert "[streaming] gzip walker(edges)" in report.describe()


def test_workload_matches_batch_end_to_end():
    """One real workload through the full diff, not just the corpus API."""
    workload = get_workload("mcf")
    program = workload.build()
    trace = record_trace(Machine(program, workload.train_input))
    assert diff_streaming(program, trace) == []
