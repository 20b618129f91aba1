"""Split-stage benchmark: scalar splitter vs the shipping split.

``make bench-split`` times marker application (the VLI split) over the
16-workload corpus (ref traces):

* **legacy** — the scalar per-event splitter
  (:func:`split_at_markers_scalar`): one Python-level callback per
  trace event, the reference the index split is diffed against;
* **fast** — the shipping default (:func:`split_at_markers`) on a bare
  copy of the trace (``Trace(kinds, a, b, c)``, no span index): one
  span-builder pass builds the edge-open index, then the split gathers
  the marked edges' opens from it;
* **indexed** — the same split of a trace that already carries its
  index (what a split after a profile, or of a stored trace, costs).

Both fast sides must be **bit-identical** to the scalar splitter on all
four interval columns *before* any timing counts, then the bare-copy
split must beat legacy by >= 2x overall.  Numbers land in
``benchmarks/results/BENCH_split_*.json``.

``test_bench_split_smoke_regression`` is the CI guard: it re-checks
bit-identity on two workloads and fails if bare-copy split throughput
fell more than 20% below the committed baseline JSON.
"""

import json
import time
from pathlib import Path

import pytest

from perfbench.common import fingerprint
from repro.engine import Trace
from repro.intervals import split_at_markers, split_at_markers_scalar
from repro.workloads import all_workloads

RESULTS = Path(__file__).parent / "results"

MARKER_VARIANT = "nolimit-self"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _bare(trace):
    """The trace's columns without a span index: the split builds one."""
    return Trace(trace.kinds, trace.a, trace.b, trace.c)


def _columns(intervals):
    return (
        intervals.row_bounds.tolist(),
        intervals.start_ts.tolist(),
        intervals.lengths.tolist(),
        intervals.phase_ids.tolist(),
    )


def test_bench_split_speedup(runner, results_dir):
    seconds = {"legacy": 0.0, "fast": 0.0, "indexed": 0.0}
    total_instructions = 0
    total_intervals = 0
    per_workload = {}

    for workload in all_workloads():
        spec = workload.name
        program = runner.program(spec)
        trace = runner.trace(spec)
        markers = runner.markers(spec, MARKER_VARIANT)

        legacy_s, legacy = _timed(
            lambda: split_at_markers_scalar(program, trace, markers)
        )
        bare = _bare(trace)
        fast_s, fast = _timed(lambda: split_at_markers(program, bare, markers))
        # the bare copy now carries the index its split built
        indexed_s, indexed = _timed(lambda: split_at_markers(program, bare, markers))

        # bit-identity gate: the fast splits must reproduce the scalar
        # split exactly before their timings count for anything
        assert _columns(fast) == _columns(legacy), spec
        assert _columns(indexed) == _columns(legacy), spec

        seconds["legacy"] += legacy_s
        seconds["fast"] += fast_s
        seconds["indexed"] += indexed_s
        total_instructions += trace.total_instructions
        total_intervals += len(legacy)
        per_workload[spec] = {
            "legacy_seconds": legacy_s,
            "fast_seconds": fast_s,
            "indexed_seconds": indexed_s,
            "intervals": len(legacy),
            "instructions": trace.total_instructions,
        }

    speedup = seconds["legacy"] / seconds["fast"]
    common = {
        "benchmark": (
            "VLI split over 16-workload corpus (ref traces, "
            f"{MARKER_VARIANT} markers)"
        ),
        "total_instructions": total_instructions,
        "total_intervals": total_intervals,
        "fingerprint": fingerprint(0),
        "unit": "seconds (single pass per variant)",
    }
    print(
        f"\nsplit: legacy {seconds['legacy']:.2f}s -> fast "
        f"{seconds['fast']:.2f}s ({speedup:.2f}x), indexed "
        f"{seconds['indexed'] * 1e3:.1f}ms"
    )
    assert speedup >= 2.0
    # only a passing run becomes the next run's baseline
    (results_dir / "BENCH_split_legacy.json").write_text(
        json.dumps(
            {**common, "variant": "legacy (scalar per-event splitter)",
             "seconds": seconds["legacy"]},
            indent=2,
        )
        + "\n"
    )
    (results_dir / "BENCH_split_fast.json").write_text(
        json.dumps(
            {
                **common,
                "variant": (
                    "fast (span-index build plus gather on a bare copy; "
                    "indexed: gather from an attached index)"
                ),
                "seconds": seconds["fast"],
                "indexed_seconds": seconds["indexed"],
                "speedup_vs_legacy": speedup,
                "instructions_per_second": (
                    total_instructions / seconds["fast"]
                ),
                "per_workload": per_workload,
            },
            indent=2,
        )
        + "\n"
    )


SMOKE_SPECS = ("gzip", "vortex")


def test_bench_split_smoke_regression(runner):
    """Bare-copy split bit-identity plus a 20% throughput-regression
    gate against the committed ``BENCH_split_fast.json``.  Each repeat
    splits a fresh bare copy, so none reads an index an earlier one
    built."""
    baseline_path = RESULTS / "BENCH_split_fast.json"
    if not baseline_path.exists():
        pytest.skip(
            "no committed split baseline; run `make bench-split` first"
        )
    committed = json.loads(baseline_path.read_text())
    rows = [committed["per_workload"][name] for name in SMOKE_SPECS]
    baseline = sum(r["instructions"] for r in rows) / sum(
        r["fast_seconds"] for r in rows
    )

    instructions = 0
    seconds = 0.0
    for spec in SMOKE_SPECS:
        program = runner.program(spec)
        trace = runner.trace(spec)
        markers = runner.markers(spec, MARKER_VARIANT)
        want = _columns(split_at_markers_scalar(program, trace, markers))
        # median of 3 to damp scheduler noise on shared CI runners
        times = []
        for _ in range(3):
            bare = _bare(trace)
            fast_s, fast = _timed(lambda: split_at_markers(program, bare, markers))
            times.append(fast_s)
            assert _columns(fast) == want, spec
        instructions += trace.total_instructions
        seconds += sorted(times)[1]
    throughput = instructions / seconds
    print(
        f"\nsplit smoke: {throughput / 1e6:.1f}M instr/s "
        f"(baseline {baseline / 1e6:.1f}M, floor {0.8 * baseline / 1e6:.1f}M)"
    )
    assert throughput >= 0.8 * baseline, (
        f"fast split regressed >20%: {throughput:.0f} instr/s vs "
        f"committed baseline {baseline:.0f}"
    )
