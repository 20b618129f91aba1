"""Tests of the benchmark itself: ``python -m pytest perfbench/tests``.

Tiny runs of every workload complete and check clean; a corrupted
reference shows up as a failed check, never as a crash; the traced
run's layer self times and remainder add up to its wall clock.
"""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import pipeline, serve, simpoint_eval, stream
from perfbench.common import ROOT, end_to_end, tail
from perfbench.layers import layer_metrics, moves_for
from perfbench.tracing import LAYERS, Tracer, instrument

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]


def test_benchmark_json_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == {
        pipeline.NAME, simpoint_eval.NAME, serve.NAME, stream.NAME
    }
    for name in LAYER_NAMES:
        entry = moves_for(name)
        assert entry["not_on"] in workloads
        for e2e, workload in entry["moves"]:
            assert e2e in bounds and workload in workloads


def test_tail_rule():
    values = list(range(1, 33))
    value, pct = tail(values)
    assert value == 22 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(68.75)
    assert tail([3.0, 1.0]) == (3.0, 100.0)
    assert tail(list(range(16)))[0] == 15


def test_pipeline_tiny_run_checks_clean():
    state = pipeline.setup(seed=3, only=["mcf", "lucas"])
    out = pipeline.measure(state, units=1)
    assert (out.attempted, out.failed) == (2, 0)
    metrics = end_to_end(out, setup_s=0.01)
    assert all(v > 0 for v in metrics.values())


def test_pipeline_corrupted_digest_counts_as_failure():
    state = pipeline.setup(seed=3, only=["mcf", "lucas"])
    state.refs["mcf"] = dict(state.refs["mcf"], bbv="0" * 64)
    out = pipeline.measure(state, units=1)
    assert (out.attempted, out.failed) == (2, 1)


def test_stream_tiny_run_and_corrupted_log():
    state = stream.setup(seed=5, only=["bzip2"])
    assert stream.measure(state, units=1).failed == 0
    state.refs["bzip2"] = dict(state.refs["bzip2"], phase_digest="bad")
    out = stream.measure(state, units=1)
    assert (out.attempted, out.failed) == (1, 1)
    assert len(out.ops) > 10


def test_simpoint_tiny_run_and_corrupted_cell():
    state = simpoint_eval.setup(seed=0, specs=["lucas/ref"])
    try:
        want = state.refs["lucas/ref"]
        want["SP_10M"] = [want["SP_10M"][0] + 1] + want["SP_10M"][1:]
        out = simpoint_eval.measure(state, units=1)
    finally:
        simpoint_eval.teardown(state)
    assert (out.attempted, out.failed) == (6, 1)


def test_serve_tiny_run_and_corrupted_payload():
    state = serve.setup(seed=2)
    try:
        clean = serve.measure(state, seconds=1.0)
        key = serve.queries()[0].key()
        state.expected[key] = state.expected[key] + b" "
        dirty = serve.measure(state, seconds=1.0)
    finally:
        serve.teardown(state)
    assert clean.attempted == len(serve.queries()) and clean.failed == 0
    assert dirty.failed == 1
    assert clean.layer["serving.dedup_ratio"] >= 0


def test_traced_run_layers_add_up_to_wall():
    import repro.engine.tracing

    original = repro.engine.tracing.record_trace
    state = pipeline.setup(seed=1, only=["vortex"])
    tracer = Tracer()
    with instrument(tracer), tracer.window():
        out = pipeline.measure(state, units=1, tracer=tracer)
    assert out.failed == 0
    assert tracer.accounting_ok()
    metrics = layer_metrics(tracer, {}, LAYER_NAMES)
    layers = sum(metrics[f"layer.{layer}.self_s"] for layer in LAYERS)
    assert layers + metrics["layer.remainder_s"] == pytest.approx(metrics["layer.wall_s"])
    assert metrics["pipeline.vortex.record_s"] > 0
    assert metrics["intervals.prescan_ratio"] == 1.0
    # wrappers are gone once the run ends
    assert repro.engine.tracing.record_trace is original


def test_cli_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-corpus",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
