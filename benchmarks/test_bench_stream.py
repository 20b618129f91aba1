"""Streaming-pipeline cost gates: per-event overhead and bounded memory.

``make bench-stream`` checks the two claims that make streaming viable
(see docs/STREAMING.md):

* **per-event cost** — feeding packed rows through
  ``ContextWalker.feed_rows`` (and the full ``StreamingPhaseMonitor``
  with a bounded window + drift detection on top) costs a fraction of
  the scalar batch walk of the same trace, because chunks replay
  through the walker's bulk row loop;
* **bounded memory** — with a bounded window, memory is flat over a
  stream many times the window length: the window never holds more
  than ``window_slots`` slot maps, and traced allocations stop growing
  once the window is full, while the unbounded configuration keeps
  accumulating.

The committed ``benchmarks/results/BENCH_stream_per_event.json`` is the
per-event baseline and doubles as a regression floor (throughput must
stay within 2x), mirroring the e2e smoke gate; the committed
``BENCH_stream_memory.json`` records the memory check.  Each test
writes a passing run under its own key of ``BENCH_stream_run.json``
(not committed), never over those files, so no run moves the next
run's floor.  Each side's time is the best of ``REPEATS`` passes, in
the gate and in the run it writes.
"""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from perfbench.common import fingerprint
from repro.callloop.graph import NodeTable
from repro.callloop.walker import ContextHandler, ContextWalker
from repro.engine import Machine, record_trace
from repro.streaming import StreamingConfig, StreamingPhaseMonitor
from repro.workloads import get_workload

RESULTS = Path(__file__).parent / "results"

#: where passing runs go (gitignored): the committed BENCH_stream_*.json
#: stay the baselines
RUN_FILE = "BENCH_stream_run.json"

WORKLOAD = "gzip"
CHUNK_ROWS = 4096

# ceilings on the cost relative to the scalar batch walk (the committed
# BENCH_stream_per_event.json reads 0.29x for the bare walker and 0.45x
# for the full monitor, on a 2-CPU Xeon VM, Python 3.11.7; 3x headroom
# for CI noise)
WALKER_MAX_RATIO = 1.0
MONITOR_MAX_RATIO = 1.5


class _Null(ContextHandler):
    pass


def _train_trace():
    workload = get_workload(WORKLOAD)
    program = workload.build()
    return program, record_trace(Machine(program, workload.train_input))


def _record_run(results_dir, name, run):
    """Keep a passing run under *name* in :data:`RUN_FILE`."""
    path = results_dir / RUN_FILE
    runs = json.loads(path.read_text()) if path.exists() else {}
    runs[name] = run
    path.write_text(json.dumps(runs, indent=2) + "\n")


def _vm_rss_kib():
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


#: each side is timed as the best of this many runs: one timing on a
#: shared host swings by a third, a best of three by much less
REPEATS = 3


def _best_of(fn):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_stream_per_event_overhead(results_dir):
    program, trace = _train_trace()
    rows = len(trace)

    def batch():
        ContextWalker(program, NodeTable(program)).walk_scalar(trace, _Null())

    def incremental():
        walker = ContextWalker(program, NodeTable(program))
        walker.start(_Null())
        for chunk in trace.iter_chunks(CHUNK_ROWS):
            walker.feed_rows(*chunk)
        walker.finish()

    def streaming():
        monitor = StreamingPhaseMonitor(
            program,
            config=StreamingConfig(
                slot_instructions=5_000, window_slots=4, drift_threshold=0.25
            ),
        )
        monitor.feed_trace(trace, chunk_rows=CHUNK_ROWS)
        monitor.finish()

    batch_s = _best_of(batch)
    walker_s = _best_of(incremental)
    monitor_s = _best_of(streaming)

    walker_ratio = walker_s / batch_s
    monitor_ratio = monitor_s / batch_s
    throughput = rows / monitor_s

    baseline_path = RESULTS / "BENCH_stream_per_event.json"
    baseline = None
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())["monitor_rows_per_s"]

    print(
        f"\nstream per-event: batch {batch_s * 1e3:.1f}ms, "
        f"walker {walker_ratio:.2f}x, monitor {monitor_ratio:.2f}x "
        f"({throughput / 1e6:.2f}M rows/s)"
    )
    assert walker_ratio <= WALKER_MAX_RATIO, (
        f"incremental walker costs {walker_ratio:.2f}x the batch walk "
        f"(ceiling {WALKER_MAX_RATIO}x)"
    )
    assert monitor_ratio <= MONITOR_MAX_RATIO, (
        f"streaming monitor costs {monitor_ratio:.2f}x the batch walk "
        f"(ceiling {MONITOR_MAX_RATIO}x)"
    )
    if baseline is not None:
        assert throughput >= baseline / 2.0, (
            f"streaming throughput regressed: {throughput:.0f} rows/s vs "
            f"committed baseline {baseline:.0f} (floor: half the baseline)"
        )
    _record_run(
        results_dir,
        "per_event",
        {
            "benchmark": (
                "streaming per-event overhead vs scalar batch walk "
                f"({WORKLOAD} train trace)"
            ),
            "rows": rows,
            "total_instructions": trace.total_instructions,
            "chunk_rows": CHUNK_ROWS,
            "batch_walk_s": batch_s,
            "incremental_walker_s": walker_s,
            "streaming_monitor_s": monitor_s,
            "walker_ratio": walker_ratio,
            "monitor_ratio": monitor_ratio,
            "monitor_rows_per_s": throughput,
            "fingerprint": fingerprint(0),
            "unit": f"seconds (best of {REPEATS} passes)",
        },
    )


def _window_entries(monitor):
    """Slot maps resident in the window + live-slot edge entries."""
    return sum(len(slot) for slot in monitor.window.slot_maps())


def test_bench_stream_bounded_memory(results_dir):
    """Flat memory over a stream >= 10x the window length."""
    program, trace = _train_trace()
    slot_instructions = 5_000
    window_slots = 4
    window_span = slot_instructions * window_slots
    stream_factor = trace.total_instructions / window_span
    assert stream_factor >= 10, (
        f"stream must cover >= 10x the window; got {stream_factor:.1f}x"
    )

    def run(window):
        monitor = StreamingPhaseMonitor(
            program,
            config=StreamingConfig(
                slot_instructions=slot_instructions,
                window_slots=window,
                drift_threshold=0.25,
            ),
        )
        chunks = list(trace.iter_chunks(CHUNK_ROWS))
        warmup = max(1, len(chunks) // 4)
        traced = []
        entries = []
        tracemalloc.start()
        try:
            for i, chunk in enumerate(chunks):
                monitor.feed_rows(*chunk)
                if i >= warmup:
                    traced.append(tracemalloc.get_traced_memory()[0])
                    entries.append(_window_entries(monitor))
            monitor.finish()
        finally:
            tracemalloc.stop()
        return monitor, traced, entries

    bounded, traced, entries = run(window_slots)
    unbounded, _, unbounded_entries = run(0)

    assert bounded.window.evicted_slots > 0
    assert bounded.window.num_slots <= window_slots
    # the structural bound: resident edge entries are capped by the
    # window, while the unbounded run keeps accumulating slots
    assert max(entries) < max(unbounded_entries)
    assert unbounded.window.num_slots > window_slots

    # traced allocations are flat once the window is full: the second
    # half of the stream adds no more than a small slack over the first
    # post-warmup measurement (phase-change/reselection logs are tiny)
    half = len(traced) // 2
    early_kib = max(traced[:half]) / 1024
    late_kib = max(traced[half:]) / 1024
    growth_kib = late_kib - early_kib
    print(
        f"\nstream memory: {stream_factor:.1f}x window, "
        f"{bounded.window.evicted_slots} slots evicted, traced "
        f"{early_kib:.0f} -> {late_kib:.0f} KiB (+{growth_kib:.0f}), "
        f"entries {max(entries)} bounded vs {max(unbounded_entries)} unbounded"
    )
    assert growth_kib <= 64, (
        f"traced memory grew {growth_kib:.0f} KiB over the second half of "
        "the stream — the bounded window should hold it flat"
    )
    _record_run(
        results_dir,
        "memory",
        {
            "benchmark": (
                "streaming bounded-memory check "
                f"({WORKLOAD} train trace, window {window_slots} x "
                f"{slot_instructions} instructions)"
            ),
            "stream_over_window_factor": stream_factor,
            "slots_sealed": bounded.slots_sealed,
            "slots_evicted": bounded.window.evicted_slots,
            "max_window_entries_bounded": max(entries),
            "max_window_entries_unbounded": max(unbounded_entries),
            "traced_early_peak_kib": early_kib,
            "traced_late_peak_kib": late_kib,
            "traced_growth_kib": growth_kib,
            "vm_rss_kib": _vm_rss_kib(),
            "fingerprint": fingerprint(0),
            "unit": "KiB (tracemalloc traced allocations)",
        },
    )
