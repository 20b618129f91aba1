"""Split-stage benchmark: scalar splitter vs the shipping split.

``make bench-split`` times two implementations of marker application
(the VLI split) over the 16-workload corpus (ref traces):

* **legacy** — the scalar per-event splitter
  (:func:`split_at_markers_scalar`): one Python-level callback per
  trace event, the oracle every fast path is diffed against;
* **fast** — the shipping default (:func:`split_at_markers`): the
  vectorized candidate pre-scan, which touches only rows that can
  fire a marker and falls back to the batched walk when it must
  decline.

The fast split must be **bit-identical** to the scalar splitter on all
four interval columns *before* any timing counts, then it must beat
legacy by >= 2x overall.  Numbers land in
``benchmarks/results/BENCH_split_*.json``.

``test_bench_split_smoke_regression`` is the CI guard: it re-checks
bit-identity on two workloads and fails if fast-split throughput fell
more than 20% below the committed baseline JSON.
"""

import json
import time
from pathlib import Path

import pytest

from perfbench.common import fingerprint
from repro.intervals import split_at_markers, split_at_markers_scalar
from repro.workloads import all_workloads

RESULTS = Path(__file__).parent / "results"

MARKER_VARIANT = "nolimit-self"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _columns(intervals):
    return (
        intervals.row_bounds.tolist(),
        intervals.start_ts.tolist(),
        intervals.lengths.tolist(),
        intervals.phase_ids.tolist(),
    )


def test_bench_split_speedup(runner, results_dir):
    seconds = {"legacy": 0.0, "fast": 0.0}
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
        fast_s, fast = _timed(
            lambda: split_at_markers(program, trace, markers)
        )

        # bit-identity gate: the fast split must reproduce the scalar
        # split exactly before its timing counts for anything
        assert _columns(fast) == _columns(legacy), spec

        seconds["legacy"] += legacy_s
        seconds["fast"] += fast_s
        total_instructions += trace.total_instructions
        total_intervals += len(legacy)
        per_workload[spec] = {
            "legacy_seconds": legacy_s,
            "fast_seconds": fast_s,
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
        f"{seconds['fast']:.2f}s ({speedup:.2f}x)"
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
                "variant": "fast (vectorized candidate pre-scan)",
                "seconds": seconds["fast"],
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
    """Fast-split bit-identity plus a 20% throughput-regression gate
    against the committed ``BENCH_split_fast.json``."""
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
            fast_s, fast = _timed(
                lambda: split_at_markers(program, trace, markers)
            )
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
