"""Telemetry-overhead smoke check: instrumented runs stay within noise.

This is what ``make bench-telemetry`` runs.  Two checks:

* **Overhead gate** — the same small experiment (Figure 7 over one
  workload through the jobs=2 path, fresh Runner each time so nothing
  is memoized) executed with telemetry disabled and enabled, min-of-3
  wall clock each.  The enabled side runs the whole observability
  surface: span recording, cross-worker snapshot stitching, and a live
  background metrics sampler.  The headline guarantee of the no-op fast path and the
  bulk-granularity instrumentation: **enabling it all costs < 10%**.

* **Critical-path reconciliation** — the ``repro stats
  --critical-path`` analyzer run over a telemetry session that timed
  the e2e pipeline stages (the same record/profile/select/split/bbv
  stage set ``BENCH_e2e_fast.json`` reports) must attribute to each
  stage the seconds a wall clock measured for it.
"""

import json
import tempfile
import time
from pathlib import Path

import pytest
from conftest import save_table

from repro.experiments import fig7
from repro.experiments.runner import Runner
from repro.runner import TraceStore
from repro.telemetry import (
    MetricsSampler,
    analyze_critical_path,
    chrome_events,
    disable_telemetry,
    enable_telemetry,
    telemetry_session,
)
from repro.util.tables import Table

RESULTS = Path(__file__).parent / "results"

SPECS = ["gzip/graphic"]
PAIRS = [(spec, which) for spec in SPECS for which in ("ref", "train")]
REPEATS = 3
MAX_OVERHEAD = 0.10


def _run_once() -> float:
    # a fresh trace store per run, so the pool workers have somewhere to
    # spill their recordings and nothing is reused between runs
    with tempfile.TemporaryDirectory() as root:
        start = time.perf_counter()
        runner = Runner(jobs=2, trace_store=TraceStore(root))
        runner.prefetch_graphs(PAIRS)
        fig7.run(runner, specs=SPECS)
        return time.perf_counter() - start


def test_bench_telemetry_overhead(results_dir):
    off_runs, on_runs = [], []
    for _ in range(REPEATS):
        off_runs.append(_run_once())
        tm = enable_telemetry()
        sampler = MetricsSampler(tm, interval_s=0.01).start()
        try:
            on_runs.append(_run_once())
        finally:
            sampler.stop()
            disable_telemetry()
        # the enabled run exercised the whole surface being gated:
        assert tm.spans  # ...span recording
        assert sampler.samples()  # ...the background sampler
        assert any(  # ...and cross-worker stitching onto worker lanes
            label.startswith("worker ") for label in tm.lane_labels.values()
        )

    off, on = min(off_runs), min(on_runs)
    overhead = on / off - 1.0

    table = Table(
        f"Telemetry overhead: fig7 over {SPECS} "
        f"(jobs=2, sampler on), min of {REPEATS}",
        ["mode", "wall seconds", "overhead %"],
        digits=3,
    )
    table.add_row(["telemetry off", off, 0.0])
    table.add_row(["telemetry on + sampler + stitching", on, overhead * 100.0])
    save_table(results_dir, "telemetry_overhead", table)

    assert overhead < MAX_OVERHEAD, (
        f"telemetry overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%} "
        f"(off {off:.3f}s, on {on:.3f}s)"
    )


def test_bench_telemetry_critical_path_reconciles_stages(results_dir):
    """The analyzer's per-stage attribution matches wall-clock stage
    timings, over the same stage set ``BENCH_e2e_fast.json`` reports."""
    from repro.callloop import CallLoopProfiler, SelectionParams, select_markers
    from repro.engine import Machine, record_trace
    from repro.intervals import split_at_markers
    from repro.intervals.bbv import collect_bbvs
    from repro.workloads import get_workload

    workload = get_workload("gzip/graphic")
    program = workload.build()
    which = workload.ref_input

    stage_seconds = {}

    def staged(tm, stage, fn):
        start = time.perf_counter()
        with tm.span(stage):
            result = fn()
        stage_seconds[stage] = time.perf_counter() - start
        return result

    with telemetry_session() as tm:
        with tm.span("pipeline"):
            trace = staged(
                tm, "record", lambda: record_trace(Machine(program, which))
            )
            profiler = CallLoopProfiler(program)
            staged(tm, "profile", lambda: profiler.profile_trace(trace))
            markers = staged(
                tm,
                "select",
                lambda: select_markers(
                    profiler.graph, SelectionParams(ilower=10_000)
                ).markers,
            )
            intervals = staged(
                tm, "split", lambda: split_at_markers(program, trace, markers)
            )
            staged(
                tm,
                "bbv",
                lambda: collect_bbvs(intervals, trace, program.num_blocks),
            )

    report = analyze_critical_path(list(chrome_events(tm)))
    assert report is not None

    # the stage set is exactly what the committed e2e baseline reports
    baseline = json.loads((RESULTS / "BENCH_e2e_fast.json").read_text())
    assert set(stage_seconds) == set(baseline["stage_seconds"])

    table = Table(
        "Critical-path attribution vs wall clock: e2e stages over gzip/graphic",
        ["stage", "wall s", "attributed s", "delta %"],
        digits=4,
    )
    for stage, wall_s in stage_seconds.items():
        _, total_us, _ = report.attribution[f"pipeline/{stage}"]
        attributed_s = total_us / 1e6
        delta = abs(attributed_s - wall_s)
        table.add_row(
            [stage, wall_s, attributed_s, 100.0 * delta / max(wall_s, 1e-9)]
        )
        # the span-based attribution is the wall clock, give or take
        # span bookkeeping noise
        assert delta <= max(0.05, 0.15 * wall_s), (
            f"stage {stage}: analyzer attributes {attributed_s:.4f}s, "
            f"wall clock measured {wall_s:.4f}s"
        )
    save_table(results_dir, "telemetry_critical_path", table)

    # the critical path descends from the pipeline root into its
    # longest stage, and self+child time reconciles with the wall
    assert report.steps[0].path == "pipeline"
    longest = max(stage_seconds, key=stage_seconds.get)
    assert report.steps[1].name == longest
    assert report.wall_us / 1e6 == pytest.approx(
        sum(stage_seconds.values()), rel=0.15
    )
