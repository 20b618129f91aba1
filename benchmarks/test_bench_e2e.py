"""End-to-end trace-pipeline benchmark: legacy vs fast columnar paths.

``make bench-e2e`` runs the whole record -> profile -> select -> split ->
BBV pipeline over the 16-workload corpus twice:

* **legacy** — the pre-pipeline implementations: object-yielding
  ``Machine.run()`` recording, a profile through the scalar
  event-by-event walker (``walk_scalar`` into the profiler's
  ``_MomentBuilder``), the scalar per-event VLI splitter (bulk replay
  disabled), and ``np.add.at`` BBV accumulation;
* **fast** — the shipping defaults: the row-template recorder, the
  span-table profile (whose pass also builds the trace's edge-open
  index), the split gathered from that index, and the row-chunked
  bincount BBV accumulator.  The fast side runs three times per
  workload and reports each stage's median.

Every workload's outputs — trace columns, whole graphs
(``graph_to_dict``), intervals and BBVs — are asserted bit-identical
between the two sides before the timings count, then the numbers land in
``benchmarks/results/BENCH_e2e_*.json`` — corpus totals per stage, plus
each workload's fast-pipeline seconds per stage
(``per_workload[w]["stage_seconds"]``).  The headline claim is a >= 3x
end-to-end speedup.

Two cheap guards ride in ``make bench-smoke``, both against the
committed ``BENCH_e2e_fast.json``:

* ``test_bench_smoke_e2e_throughput_regression`` re-measures the fast
  pipeline on two workloads and fails if throughput fell more than 2x
  below the committed baseline;
* ``test_bench_smoke_profile_throughput_regression`` re-times the
  profile stage alone on the same two workloads (median of 3, each on
  a bare copy of the recording, so each builds the span index) and
  fails below 80% of their committed profile-stage throughput.
"""

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro.callloop.walker as walker_mod
from perfbench.common import fingerprint
from repro.callloop import CallLoopProfiler, SelectionParams, select_markers
from repro.callloop.profiler import _MomentBuilder
from repro.callloop.serialization import graph_to_dict
from repro.callloop.walker import ContextWalker
from repro.engine import Machine, Trace, record_trace
from repro.engine.events import K_BLOCK
from repro.intervals import split_at_markers, split_at_markers_scalar
from repro.intervals.bbv import collect_bbvs
from repro.workloads import all_workloads

RESULTS = Path(__file__).parent / "results"

STAGES = ("record", "profile", "select", "split", "bbv")

#: fast-pipeline passes per workload; each stage reports their median
FAST_REPEATS = 3


def _walk_profile(program, trace):
    """The pre-pipeline profile: the scalar walker's per-event callbacks
    folded by the profiler's moment handler."""
    profiler = CallLoopProfiler(program)
    handler = _MomentBuilder()
    total = ContextWalker(program, profiler.table).walk_scalar(trace, handler)
    return profiler._fold(handler.edges, total)


@contextmanager
def scalar_walks():
    """Disable the bulk row loop (the legacy walker) for the duration."""
    saved = walker_mod.BULK_MIN_CHUNK_ROWS
    walker_mod.BULK_MIN_CHUNK_ROWS = float("inf")
    try:
        yield
    finally:
        walker_mod.BULK_MIN_CHUNK_ROWS = saved


def _bbvs_add_at(interval_set, trace, num_blocks):
    """The pre-pipeline BBV accumulator (np.add.at), kept as the legacy
    side of the benchmark; numerically identical to the bincount path."""
    n = len(interval_set)
    bbvs = np.zeros((n, num_blocks), dtype=np.float64)
    if n == 0:
        return bbvs
    mask = trace.kinds == K_BLOCK
    rows = np.nonzero(mask)[0]
    idx = np.searchsorted(interval_set.row_bounds, rows, side="right") - 1
    valid = (idx >= 0) & (idx < n)
    np.add.at(bbvs, (idx[valid], trace.a[rows][valid]), trace.c[rows][valid])
    return bbvs


def _pipeline(program, program_input, params, fast):
    """One workload through the full pipeline; returns (stage seconds,
    outputs for the bit-identity cross-check)."""
    times = {}

    start = time.perf_counter()
    source = Machine(program, program_input)
    trace = record_trace(source if fast else source.run())
    times["record"] = time.perf_counter() - start

    start = time.perf_counter()
    if fast:
        graph = CallLoopProfiler(program).profile_trace(trace)
    else:
        graph = _walk_profile(program, trace)
    times["profile"] = time.perf_counter() - start

    start = time.perf_counter()
    markers = select_markers(graph, params).markers
    times["select"] = time.perf_counter() - start

    start = time.perf_counter()
    if fast:
        intervals = split_at_markers(program, trace, markers)
    else:
        intervals = split_at_markers_scalar(program, trace, markers)
    times["split"] = time.perf_counter() - start

    start = time.perf_counter()
    if fast:
        bbvs = collect_bbvs(intervals, trace, program.num_blocks)
    else:
        bbvs = _bbvs_add_at(intervals, trace, program.num_blocks)
    times["bbv"] = time.perf_counter() - start

    return times, trace, graph, intervals, bbvs


def test_bench_e2e_pipeline_speedup(runner, results_dir):
    params = SelectionParams(ilower=runner.config.ilower)
    legacy = {s: 0.0 for s in STAGES}
    fast = {s: 0.0 for s in STAGES}
    total_instructions = 0
    per_workload = {}

    for workload in all_workloads():
        program = workload.build()
        program_input = workload.ref_input
        with scalar_walks():
            lt, l_trace, l_graph, l_iv, l_bbvs = _pipeline(
                program, program_input, params, fast=False
            )
        fast_runs = [
            _pipeline(program, program_input, params, fast=True)
            for _ in range(FAST_REPEATS)
        ]
        # per-stage median: single fast passes of one workload swing by
        # up to 2x on a shared host, which the per-workload cells (and
        # the profile smoke guard reading them) cannot absorb
        ft = {s: statistics.median(run[0][s] for run in fast_runs) for s in STAGES}
        for s in STAGES:
            legacy[s] += lt[s]
            fast[s] += ft[s]
        total_instructions += l_trace.total_instructions
        per_workload[workload.name] = {
            "seconds": sum(ft.values()),
            "instructions": l_trace.total_instructions,
            "stage_seconds": ft,
        }

        # bit-identity gate: the speedup only counts if every fast run
        # produces byte-for-byte the legacy outputs
        for _, f_trace, f_graph, f_iv, f_bbvs in fast_runs:
            for name in ("kinds", "a", "b", "c"):
                assert np.array_equal(
                    getattr(f_trace, name), getattr(l_trace, name)
                ), f"{workload.spec_name}: trace column {name}"
            assert graph_to_dict(f_graph) == graph_to_dict(l_graph), (
                workload.spec_name
            )
            assert np.array_equal(f_iv.row_bounds, l_iv.row_bounds)
            assert np.array_equal(f_iv.phase_ids, l_iv.phase_ids)
            assert np.array_equal(f_bbvs, l_bbvs), workload.spec_name

    legacy_s = sum(legacy.values())
    fast_s = sum(fast.values())
    speedup = legacy_s / fast_s

    common = {
        "benchmark": "end-to-end pipeline over 16-workload corpus (ref inputs)",
        "stages": list(STAGES),
        "total_instructions": total_instructions,
        "fingerprint": fingerprint(0),
        "unit": (
            "seconds per stage: legacy single pass, fast median of "
            f"{FAST_REPEATS} passes per workload"
        ),
    }
    print(
        f"\ne2e: legacy {legacy_s:.2f}s -> fast {fast_s:.2f}s ({speedup:.2f}x); "
        + ", ".join(f"{s} {legacy[s] / fast[s]:.1f}x" for s in STAGES)
    )
    assert speedup >= 3.0
    # only a passing run becomes the next run's baseline
    (results_dir / "BENCH_e2e_legacy.json").write_text(
        json.dumps(
            {**common, "pipeline": "legacy", "seconds": legacy_s,
             "stage_seconds": legacy},
            indent=2,
        )
        + "\n"
    )
    (results_dir / "BENCH_e2e_fast.json").write_text(
        json.dumps(
            {
                **common,
                "pipeline": "fast",
                "seconds": fast_s,
                "stage_seconds": fast,
                "speedup_vs_legacy": speedup,
                "stage_speedups": {
                    s: legacy[s] / fast[s] if fast[s] else float("inf")
                    for s in STAGES
                },
                "instructions_per_second": total_instructions / fast_s,
                "per_workload": per_workload,
            },
            indent=2,
        )
        + "\n"
    )


SMOKE_SPECS = ("gzip", "vortex")


def test_bench_smoke_e2e_throughput_regression(runner):
    """Fast-pipeline throughput must stay within 2x of the committed
    baseline (``BENCH_e2e_fast.json``)."""
    baseline_path = RESULTS / "BENCH_e2e_fast.json"
    if not baseline_path.exists():
        pytest.skip("no committed e2e baseline; run `make bench-e2e` first")
    committed = json.loads(baseline_path.read_text())
    # compare against the same two workloads' committed numbers, not the
    # corpus-wide average (per-workload throughput varies several-fold)
    rows = [committed["per_workload"][name] for name in SMOKE_SPECS]
    baseline = sum(r["instructions"] for r in rows) / sum(
        r["seconds"] for r in rows
    )

    params = SelectionParams(ilower=runner.config.ilower)
    instructions = 0
    seconds = 0.0
    for workload in all_workloads():
        if workload.name not in SMOKE_SPECS:
            continue
        times, trace, *_ = _pipeline(
            workload.build(), workload.ref_input, params, fast=True
        )
        instructions += trace.total_instructions
        seconds += sum(times.values())
    throughput = instructions / seconds
    print(
        f"\ne2e smoke: {throughput / 1e6:.1f}M instr/s "
        f"(baseline {baseline / 1e6:.1f}M, floor {baseline / 2 / 1e6:.1f}M)"
    )
    assert throughput >= baseline / 2.0, (
        f"fast pipeline regressed: {throughput:.0f} instr/s vs committed "
        f"baseline {baseline:.0f} (allowed floor: half the baseline)"
    )


def test_bench_smoke_profile_throughput_regression():
    """Profile-stage throughput must stay within 20% of the committed
    per-workload profile seconds (``BENCH_e2e_fast.json``)."""
    baseline_path = RESULTS / "BENCH_e2e_fast.json"
    if not baseline_path.exists():
        pytest.skip("no committed e2e baseline; run `make bench-e2e` first")
    committed = json.loads(baseline_path.read_text())
    rows = [committed["per_workload"][name] for name in SMOKE_SPECS]
    baseline = sum(r["instructions"] for r in rows) / sum(
        r["stage_seconds"]["profile"] for r in rows
    )

    instructions = 0
    seconds = 0.0
    for workload in all_workloads():
        if workload.name not in SMOKE_SPECS:
            continue
        program = workload.build()
        trace = record_trace(Machine(program, workload.ref_input))
        # median of 3 to damp scheduler noise on shared CI runners; each
        # repeat profiles a bare copy, so it builds the span index as the
        # baseline's profile of a fresh recording does
        times = []
        for _ in range(3):
            bare = Trace(trace.kinds, trace.a, trace.b, trace.c)
            start = time.perf_counter()
            CallLoopProfiler(program).profile_trace(bare)
            times.append(time.perf_counter() - start)
        instructions += trace.total_instructions
        seconds += sorted(times)[1]
    throughput = instructions / seconds
    print(
        f"\nprofile smoke: {throughput / 1e6:.1f}M instr/s "
        f"(baseline {baseline / 1e6:.1f}M, floor {0.8 * baseline / 1e6:.1f}M)"
    )
    assert throughput >= 0.8 * baseline, (
        f"profile stage regressed >20%: {throughput:.0f} instr/s vs "
        f"committed baseline {baseline:.0f}"
    )
