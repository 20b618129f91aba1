"""SimPoint-evaluation benchmark: cache stack depths and k-means clustering.

``make bench-simpoint`` gates the two hot loops of the paper's Figure
11/12 evaluation (``fig1112.cells_for``):

* **stack depths** — ``profile_events`` over each of the 16 ref traces:
  one address gather, the lock-step stack-depth kernel, one
  ``bincount`` of hits by (event, depth);
* **clustering** — ``run_simpoint_on_intervals`` for lucas and mgrid at
  each Figure 11/12 configuration (SP_1M, SP_10M, SP_100M on fixed
  intervals, VLI on limit markers), almost all of it ``kmeans``.

Bit-identity comes first: per-event accesses and hits must equal
``oracle_profile_events`` (``MultiAssocCacheSim`` stepped event by
event) on all 16 ref traces, and every ``kmeans`` run SimPoint makes
for lucas and mgrid, on the prepared point set each
``run_simpoint_on_intervals`` call shares between its runs, must equal
``oracle_kmeans`` bit for bit.  Then each cell is timed in three
samples (a short cell repeats within a sample until it has run 50 ms).
Each sample is scaled to the nominal host with
``perfbench.common.HostClock``, the repo benchmark's calibration
kernel, and each cell's median must stay within 25% of the committed
``BENCH_simpoint_fast.json``.  A stream whose every access maps to one
cache set is timed live against the reference loop
(``MultiAssocCacheSim.access`` per address); the kernel must stay
within 1.5x of it.

A passing run is written to ``BENCH_simpoint_run.json`` (not
committed); the committed baseline changes only when such a run is
copied over it.

``BENCH_simpoint_legacy.json`` holds the same cells measured once on
the tree before these fast paths (a per-event ``access_many`` loop and
full-matrix k-means), with this module's :func:`measure_cells`; it is
not re-measured.
"""

import importlib
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench.common import HostClock, fingerprint
from repro.cache.stackdist import MultiAssocCacheSim, profile_events, stack_depths
from repro.simpoint.simpoint import run_simpoint_on_intervals
from repro.workloads import all_workloads

RESULTS = Path(__file__).parent / "results"

SPECS = ("lucas/ref", "mgrid/ref")
#: each cell's median may exceed the committed baseline by this much
REGRESSION_BOUND = 0.25
#: the one-set stream's kernel time over the reference loop's, at most
ONE_SET_MAX_RATIO = 1.5
ONE_SET_ACCESSES = 50_000
REPEATS = 3
#: a timed sample repeats a cell until it has run at least this long
MIN_SAMPLE_S = 0.05


def cluster_inputs(runner, spec):
    """``(config, intervals, options, weighted)`` of every SimPoint run
    in ``fig1112.cells_for(runner, spec)``."""
    config = runner.config
    out = []
    for label in ("SP_1M", "SP_10M", "SP_100M"):
        intervals, _ = runner.fixed_intervals(spec, config.fixed_intervals[label])
        options = config.simpoint_options(config.fixed_k_max[label])
        out.append((label, intervals, options, False))
    vli, _ = runner.vli_intervals(spec, "limit")
    out.append(("VLI", vli, config.simpoint_options(config.vli_k_max), True))
    return out


def one_set_stream(num_sets=512, line_bytes=64):
    """Addresses of 24 lines that all map to cache set 0."""
    rng = np.random.default_rng(16)
    tags = rng.integers(0, 24, size=ONE_SET_ACCESSES)
    return (tags * num_sets * line_bytes).astype(np.int64)


def reference_loop(addresses):
    sim = MultiAssocCacheSim()
    return [sim.access(a) for a in addresses.tolist()]


def _timed(clock, fn):
    """``(scaled, raw, result)``: *fn*'s seconds per call, each the
    median of REPEATS samples that repeat it for at least MIN_SAMPLE_S,
    and the result of a first, untimed call."""
    start = time.perf_counter()
    result = fn()
    calls = max(1, math.ceil(MIN_SAMPLE_S / (time.perf_counter() - start)))
    scaled, raw = [], []
    for _ in range(REPEATS):
        clock.probe()
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        seconds = (time.perf_counter() - start) / calls
        raw.append(seconds)
        scaled.append(seconds * clock.scale())
    return statistics.median(scaled), statistics.median(raw), result


def measure_cells(runner, clock):
    """Every timed cell: ``{cell: {"seconds", "raw_seconds", ...}}``,
    seconds per call scaled to the nominal host (see :func:`_timed`)."""
    cells = {}
    for workload in all_workloads():
        spec = workload.name
        trace = runner.trace(spec)
        memory = runner.memory(spec)
        scaled, raw, (rows, _, _) = _timed(clock, lambda: profile_events(trace, memory))
        cells[f"stackdist/{spec}"] = {
            "seconds": scaled,
            "raw_seconds": raw,
            "events": len(rows),
            "instructions": trace.total_instructions,
        }
    for spec in SPECS:
        for label, intervals, options, weighted in cluster_inputs(runner, spec):
            scaled, raw, _ = _timed(
                clock,
                lambda: run_simpoint_on_intervals(intervals, options, weighted),
            )
            cells[f"cluster/{spec.split('/')[0]}/{label}"] = {
                "seconds": scaled,
                "raw_seconds": raw,
                "intervals": len(intervals),
                "k_max": options.k_max,
            }
    scaled, raw, _ = _timed(clock, lambda: reference_loop(one_set_stream()))
    cells["one_set/reference"] = {
        "seconds": scaled,
        "raw_seconds": raw,
        "accesses": ONE_SET_ACCESSES,
    }
    return cells


def stage_totals(cells):
    """Seconds per stage, summed over its cells."""
    return {
        stage: sum(c["seconds"] for n, c in cells.items() if n.startswith(stage + "/"))
        for stage in ("stackdist", "cluster")
    }


def _assert_cache_identical(runner):
    from repro.verify.oracles import oracle_profile_events

    for workload in all_workloads():
        trace = runner.trace(workload.name)
        got = profile_events(trace, runner.memory(workload.name))
        want = oracle_profile_events(trace, runner.memory(workload.name))
        for label, g, w in zip(("rows", "accesses", "hits"), got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (workload.name, label)


def _assert_kmeans_identical(runner):
    """Every kmeans run of run_simpoint for SPECS, against the oracle."""
    from repro.verify.oracles import oracle_kmeans

    module = importlib.import_module("repro.simpoint.kmeans")
    kmeans = module.kmeans
    runs = []

    def recorded(points, k, weights=None, seed=0, max_iter=100):
        result = kmeans(points, k, weights, seed, max_iter)
        runs.append((points, k, seed, result))
        return result

    for spec in SPECS:
        for label, intervals, options, weighted in cluster_inputs(runner, spec):
            runs.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(module, "kmeans", recorded)
                run_simpoint_on_intervals(intervals, options, weighted)
            assert len(runs) == options.seeds * min(options.k_max, len(intervals))
            for prepared, k, seed, got in runs:
                want = oracle_kmeans(prepared.points, k, prepared.weights, seed=seed)
                where = (spec, label, k, seed)
                assert np.array_equal(got.assignments, want.assignments), where
                assert got.centroids.tobytes() == want.centroids.tobytes(), where
                assert (got.sse, got.iterations) == (want.sse, want.iterations), where


def test_bench_simpoint(runner, results_dir):
    # bit-identity before any timing counts
    _assert_cache_identical(runner)
    _assert_kmeans_identical(runner)
    stream = one_set_stream()
    assert stack_depths(stream)[0].tolist() == reference_loop(stream)

    clock = HostClock()
    cells = measure_cells(runner, clock)
    scaled, raw, _ = _timed(clock, lambda: stack_depths(one_set_stream()))
    cells["one_set/kernel"] = {
        "seconds": scaled,
        "raw_seconds": raw,
        "accesses": ONE_SET_ACCESSES,
    }
    ratio = scaled / cells["one_set/reference"]["seconds"]

    baseline_path = RESULTS / "BENCH_simpoint_fast.json"
    baseline = (
        json.loads(baseline_path.read_text())["cells"]
        if baseline_path.exists()
        else {}
    )
    legacy = json.loads((RESULTS / "BENCH_simpoint_legacy.json").read_text())
    totals = stage_totals(cells)
    legacy_totals = stage_totals(legacy["cells"])
    print(
        "\nsimpoint: "
        + ", ".join(
            f"{stage} {legacy_totals[stage]:.2f}s -> {totals[stage]:.2f}s"
            for stage in legacy_totals
        )
        + f"; one-set kernel/reference {ratio:.2f}x"
    )

    assert ratio <= ONE_SET_MAX_RATIO, f"one-set stream: kernel {ratio:.2f}x reference"
    slow = {
        name: (cell["seconds"], baseline[name]["seconds"])
        for name, cell in cells.items()
        if name in baseline
        and cell["seconds"] > (1 + REGRESSION_BOUND) * baseline[name]["seconds"]
    }
    assert not slow, f"cells over {REGRESSION_BOUND:.0%} of the committed baseline: {slow}"
    # a passing run is kept beside the committed baseline, never over it
    (results_dir / "BENCH_simpoint_run.json").write_text(
        json.dumps(
            {
                "benchmark": (
                    "SimPoint evaluation: profile_events over 16 ref traces, "
                    "run_simpoint_on_intervals for lucas/mgrid x 4 configurations"
                ),
                "variant": (
                    "fast (lock-step stack-depth kernel, filtered k-means over "
                    "distinct rows with shared k-means++ draws)"
                ),
                "unit": "seconds per call scaled to the nominal host (HostClock), median of 3 samples of >= 50 ms",
                "fingerprint": fingerprint(0),
                "stage_seconds": totals,
                "speedup_vs_legacy": {
                    stage: legacy_totals[stage] / totals[stage] for stage in legacy_totals
                },
                "one_set_ratio": ratio,
                "cells": cells,
            },
            indent=2,
        )
        + "\n"
    )
