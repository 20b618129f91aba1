"""Split-stage benchmark: the shipping split against the committed
scalar-splitter timing.

``make bench-split`` times marker application (the VLI split) over the
16-workload corpus (ref traces):

* **fast** — the shipping default (:func:`split_at_markers`) on a bare
  copy of the trace (``Trace(ids, table)``, no span index): one
  span-builder pass builds the edge-open index, then the split gathers
  the marked edges' opens from it;
* **indexed** — the same split of a trace that already carries its
  index (what a split after a profile, or of a stored trace, costs).

Both must match the class-``"0"`` ``intervals`` digest in
``perfbench/refs/pipeline.json`` (all four interval columns, made by
``perfbench/make_refs.py`` with the scalar splitter
``split_at_markers_scalar``) *before* any timing counts.  The legacy
side is not re-run: ``BENCH_split_legacy.json`` holds one measured pass
of the scalar per-event splitter, and the bare-copy split must beat it
by >= 2x overall.  A passing run is written to ``BENCH_split_run.json``
(not committed); the committed baseline, ``BENCH_split_fast.json``,
changes only when such a run is copied over it.

``test_bench_split_smoke_regression`` is the CI guard: it re-checks the
digests on two workloads and fails if bare-copy split throughput fell
more than 20% below the committed baseline JSON.
"""

import json
import time
from pathlib import Path

import pytest

from perfbench.common import digest, fingerprint, load_refs
from repro.engine import Trace
from repro.intervals import split_at_markers
from repro.workloads import all_workloads

RESULTS = Path(__file__).parent / "results"

MARKER_VARIANT = "nolimit-self"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _bare(trace):
    """The trace's ids and table without a span index: the split builds
    one."""
    return Trace(trace.ids, trace.table)


def _reference_digests():
    """Per workload, the committed digest of its ref-input intervals."""
    refs = load_refs("pipeline.json")["classes"]["0"]
    return {name: ref["intervals"] for name, ref in refs.items()}


def _digest(intervals):
    """The intervals digest, as ``perfbench.pipeline.output_digests``
    takes it."""
    return digest(
        intervals.row_bounds,
        intervals.start_ts,
        intervals.lengths,
        intervals.phase_ids,
    )


def test_bench_split_speedup(runner, results_dir):
    legacy = json.loads((RESULTS / "BENCH_split_legacy.json").read_text())
    refs = _reference_digests()
    seconds = {"fast": 0.0, "indexed": 0.0}
    total_instructions = 0
    total_intervals = 0
    per_workload = {}

    for workload in all_workloads():
        spec = workload.name
        program = runner.program(spec)
        trace = runner.trace(spec)
        markers = runner.markers(spec, MARKER_VARIANT)

        bare = _bare(trace)
        fast_s, fast = _timed(lambda: split_at_markers(program, bare, markers))
        # the bare copy now carries the index its split built
        indexed_s, indexed = _timed(lambda: split_at_markers(program, bare, markers))

        # identity gate: both splits must reproduce the reference digest
        # before their timings count for anything
        assert _digest(fast) == refs[spec], spec
        assert _digest(indexed) == refs[spec], spec

        seconds["fast"] += fast_s
        seconds["indexed"] += indexed_s
        total_instructions += trace.total_instructions
        total_intervals += len(fast)
        per_workload[spec] = {
            "fast_seconds": fast_s,
            "indexed_seconds": indexed_s,
            "intervals": len(fast),
            "instructions": trace.total_instructions,
        }

    # the committed legacy pass split the same corpus
    assert total_instructions == legacy["total_instructions"]
    assert total_intervals == legacy["total_intervals"]
    speedup = legacy["seconds"] / seconds["fast"]
    print(
        f"\nsplit: legacy {legacy['seconds']:.2f}s (committed) -> fast "
        f"{seconds['fast']:.2f}s ({speedup:.2f}x), indexed "
        f"{seconds['indexed'] * 1e3:.1f}ms"
    )
    assert speedup >= 2.0
    # a passing run is kept beside the committed baseline, never over it
    (results_dir / "BENCH_split_run.json").write_text(
        json.dumps(
            {
                "benchmark": (
                    "VLI split over 16-workload corpus (ref traces, "
                    f"{MARKER_VARIANT} markers)"
                ),
                "total_instructions": total_instructions,
                "total_intervals": total_intervals,
                "fingerprint": fingerprint(0),
                "unit": (
                    "seconds (single pass per variant); speedup against "
                    "the committed BENCH_split_legacy.json"
                ),
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
    """Bare-copy split identity with the reference digest plus a 20%
    throughput-regression gate against the committed
    ``BENCH_split_fast.json``.  Each repeat splits a fresh bare copy, so
    none reads an index an earlier one built."""
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

    refs = _reference_digests()
    instructions = 0
    seconds = 0.0
    for spec in SMOKE_SPECS:
        program = runner.program(spec)
        trace = runner.trace(spec)
        markers = runner.markers(spec, MARKER_VARIANT)
        # median of 3 to damp scheduler noise on shared CI runners
        times = []
        for _ in range(3):
            bare = _bare(trace)
            fast_s, fast = _timed(lambda: split_at_markers(program, bare, markers))
            times.append(fast_s)
            assert _digest(fast) == refs[spec], spec
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
