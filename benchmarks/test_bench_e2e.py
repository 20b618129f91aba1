"""End-to-end trace-pipeline benchmark: the shipping pipeline against
the committed legacy timings.

``make bench-e2e`` runs the whole record -> profile -> select -> split ->
BBV pipeline over the 16-workload corpus (ref inputs) with the shipping
defaults: the row-template recorder, the span-table profile (whose pass
also builds the trace's edge-open index), the split gathered from that
index, and the row-chunked bincount BBV accumulator.  Each workload runs
three times and each stage reports its median: its seconds
(``stage_seconds``) and the process's minor page faults across it
(``stage_minflt``, from ``ru_minflt``).

Before a run's timings count, its trace columns, intervals and BBVs must
match the class-``"0"`` digests in ``perfbench/refs/pipeline.json``
(class 0 is the unmodified ref input), which ``perfbench/make_refs.py``
made through the reference paths: the object-yielding ``Machine.run``,
the scalar splitter ``split_at_markers_scalar`` and an ``np.add.at``
BBV accumulator.

The legacy side is not re-run.  ``BENCH_e2e_legacy.json`` holds one
measured pass of the pre-pipeline implementations (``Machine.run``
recording, the scalar walk folded by the profiler's moment handler, the
scalar splitter, ``np.add.at`` BBVs), and the speedup is taken against
it; the headline claim is a >= 3x end-to-end speedup.  A passing run
is written to ``BENCH_e2e_run.json`` (not committed): corpus totals per
stage, plus each workload's seconds and minor faults per stage
(``per_workload[w]["stage_seconds"]`` and ``["stage_minflt"]``).  The committed baseline,
``BENCH_e2e_fast.json``, changes only when such a run is copied over it.

Two cheap guards ride in ``make bench-smoke``, both against the
committed ``BENCH_e2e_fast.json``:

* ``test_bench_smoke_e2e_throughput_regression`` re-measures the
  pipeline on two workloads, checks their outputs against the same
  digests, and fails if throughput fell more than 2x below the committed
  baseline;
* ``test_bench_smoke_profile_throughput_regression`` re-times the
  profile stage alone on the same two workloads (median of 3, each on
  a bare copy of the recording, so each builds the span index) and
  fails below 80% of their committed profile-stage throughput.
"""

import json
import resource
import statistics
import time
from pathlib import Path

import pytest

from perfbench.common import fingerprint, load_refs
from perfbench.pipeline import output_digests, selection_params
from repro.callloop import CallLoopProfiler, select_markers
from repro.engine import Machine, Trace, record_trace
from repro.intervals import split_at_markers
from repro.intervals.bbv import collect_bbvs
from repro.workloads import all_workloads

RESULTS = Path(__file__).parent / "results"

STAGES = ("record", "profile", "select", "split", "bbv")

#: pipeline passes per workload; each stage reports their median
FAST_REPEATS = 3


def _reference_digests():
    """Per workload, the committed digests of its ref-input outputs."""
    refs = load_refs("pipeline.json")["classes"]["0"]
    return {
        name: {k: ref[k] for k in ("trace", "intervals", "bbv")}
        for name, ref in refs.items()
    }


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _pipeline(program, program_input, params):
    """One workload through the full pipeline; returns (stage seconds,
    stage minor faults, the outputs :func:`output_digests` checks)."""
    times = {}
    faults = {}

    def stage(name, run):
        flt = _minflt()
        start = time.perf_counter()
        got = run()
        times[name] = time.perf_counter() - start
        faults[name] = _minflt() - flt
        return got

    trace = stage("record", lambda: record_trace(Machine(program, program_input)))
    graph = stage("profile", lambda: CallLoopProfiler(program).profile_trace(trace))
    markers = stage("select", lambda: select_markers(graph, params).markers)
    intervals = stage("split", lambda: split_at_markers(program, trace, markers))
    bbvs = stage(
        "bbv", lambda: collect_bbvs(intervals, trace, program.num_blocks)
    )
    return times, faults, (trace, intervals, bbvs)


def test_bench_e2e_pipeline_speedup(results_dir):
    legacy = json.loads((RESULTS / "BENCH_e2e_legacy.json").read_text())
    refs = _reference_digests()
    params = selection_params()
    fast = {s: 0.0 for s in STAGES}
    minflt = {s: 0 for s in STAGES}
    total_instructions = 0
    per_workload = {}

    for workload in all_workloads():
        program = workload.build()
        runs = []
        flts = []
        for _ in range(FAST_REPEATS):
            times, faults, outputs = _pipeline(program, workload.ref_input, params)
            # identity gate: a run's timings count only if its outputs
            # match the reference digests
            assert output_digests(*outputs) == refs[workload.name], (
                workload.spec_name
            )
            runs.append(times)
            flts.append(faults)
        instructions = outputs[0].total_instructions
        del outputs
        # per-stage median: single passes of one workload swing by up to
        # 2x on a shared host, which the per-workload cells (and the
        # profile smoke guard reading them) cannot absorb
        ft = {s: statistics.median(run[s] for run in runs) for s in STAGES}
        ff = {s: int(statistics.median(run[s] for run in flts)) for s in STAGES}
        for s in STAGES:
            fast[s] += ft[s]
            minflt[s] += ff[s]
        total_instructions += instructions
        per_workload[workload.name] = {
            "seconds": sum(ft.values()),
            "instructions": instructions,
            "stage_seconds": ft,
            "stage_minflt": ff,
        }

    # the committed legacy pass timed the same corpus
    assert total_instructions == legacy["total_instructions"]
    legacy_stages = legacy["stage_seconds"]
    fast_s = sum(fast.values())
    speedup = legacy["seconds"] / fast_s
    print(
        f"\ne2e: legacy {legacy['seconds']:.2f}s (committed) -> fast "
        f"{fast_s:.2f}s ({speedup:.2f}x); "
        + ", ".join(f"{s} {legacy_stages[s] / fast[s]:.1f}x" for s in STAGES)
    )
    assert speedup >= 3.0
    # a passing run is kept beside the committed baseline, never over it
    (results_dir / "BENCH_e2e_run.json").write_text(
        json.dumps(
            {
                "benchmark": (
                    "end-to-end pipeline over 16-workload corpus (ref inputs)"
                ),
                "stages": list(STAGES),
                "total_instructions": total_instructions,
                "fingerprint": fingerprint(0),
                "unit": (
                    f"seconds and minor faults per stage, median of "
                    f"{FAST_REPEATS} passes per workload; speedups against "
                    "the committed BENCH_e2e_legacy.json"
                ),
                "pipeline": "fast",
                "seconds": fast_s,
                "stage_seconds": fast,
                "stage_minflt": minflt,
                "speedup_vs_legacy": speedup,
                "stage_speedups": {
                    s: legacy_stages[s] / fast[s] if fast[s] else float("inf")
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


def test_bench_smoke_e2e_throughput_regression():
    """Pipeline throughput must stay within 2x of the committed baseline
    (``BENCH_e2e_fast.json``), on outputs that match the reference
    digests."""
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

    refs = _reference_digests()
    params = selection_params()
    instructions = 0
    seconds = 0.0
    for workload in all_workloads():
        if workload.name not in SMOKE_SPECS:
            continue
        times, _, outputs = _pipeline(workload.build(), workload.ref_input, params)
        assert output_digests(*outputs) == refs[workload.name], workload.spec_name
        instructions += outputs[0].total_instructions
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
            bare = Trace(trace.ids, trace.table)
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
