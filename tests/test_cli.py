"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "gzip/graphic" in out
    assert "gcc/166" in out


def test_markers_and_save(tmp_path, capsys):
    out_file = tmp_path / "markers.json"
    assert main(["markers", "vortex", "-o", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "markers for vortex" in out
    data = json.loads(out_file.read_text())
    assert data["program_name"] == "vortex"
    assert data["markers"]


def test_phases(capsys):
    assert main(["phases", "vortex"]) == 0
    out = capsys.readouterr().out
    assert "phases" in out
    assert "CoV of CPI" in out


@pytest.mark.parametrize("command", ["phases", "timeplot", "monitor"])
def test_ref_input_recorded_once(command, monkeypatch, capsys):
    """The profiled recording of the ref input is the one the command
    splits, plots or monitors: nothing records it a second time."""
    from repro.engine.machine import Machine
    from repro.workloads import get_workload

    recorded = []
    record = Machine.record

    def counted(self):
        recorded.append(self.input.name)
        return record(self)

    monkeypatch.setattr(Machine, "record", counted)
    assert main([command, "vortex"]) == 0
    assert recorded == [get_workload("vortex").ref_input.name]


def test_monitor(capsys):
    assert main(["monitor", "vortex", "--head", "3"]) == 0
    out = capsys.readouterr().out
    assert "phase changes observed" in out
    assert "Markov" in out


def test_stream_cold_start(capsys):
    assert main(
        ["stream", "gzip", "--train", "--slot", "20000", "--window", "4",
         "--head", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "streamed gzip/graphic/train" in out
    assert "window: 4 slot(s) x 20,000 instructions" in out
    assert "[cold start]" in out
    assert "phase changes observed" in out


def test_stream_unbounded_matches_monitor_phase_count(capsys):
    """--window 0 --drift-threshold 0 is the batch-equivalent mode."""
    assert main(
        ["stream", "gzip", "--train", "--window", "0",
         "--drift-threshold", "0"]
    ) == 0
    out = capsys.readouterr().out
    assert "window: unbounded" in out
    assert "0 re-selection(s)" in out
    # drift off pre-selects the batch marker set and applies it unchanged
    assert "0 marker(s) live at end" not in out
    assert "0 phase changes observed" not in out


def test_stream_deterministic_stdout(capsys):
    args = ["stream", "gzip", "--train", "--slot", "20000"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_markers_with_limit(capsys):
    assert main(["markers", "vortex", "--max-limit", "200000"]) == 0
    out = capsys.readouterr().out
    assert "max_limit" in out


def test_procedures_only(capsys):
    assert main(["markers", "vortex", "--procedures-only"]) == 0


def test_graph_export(tmp_path, capsys):
    out_file = tmp_path / "g.dot"
    assert main(["graph", "vortex", "-o", str(out_file), "--highlight-markers"]) == 0
    text = out_file.read_text()
    assert text.startswith('digraph "vortex"')
    assert "color=red" in text


def test_timeplot(capsys):
    assert main(["timeplot", "vortex", "--width", "40"]) == 0
    out = capsys.readouterr().out
    assert "CPI" in out and "DL1" in out
    assert "alignment" in out


def test_experiment_cache_flags(tmp_path, capsys):
    """Cold run stores profiles; warm run hits and is byte-identical."""
    args = ["experiment", "fig3", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    cold = capsys.readouterr()
    assert "Figure 3" in cold.out
    assert "Run summary" in cold.err  # observability goes to stderr
    assert "profiled" in cold.err

    assert main(args) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out
    assert "cache" in warm.err
    assert "0 misses" in warm.err


def test_experiment_no_cache_flag(tmp_path, capsys):
    assert main(["experiment", "fig3", "--no-cache"]) == 0
    out = capsys.readouterr()
    assert "Figure 3" in out.out
    assert "cache hits" in out.err


def test_experiment_stdout_byte_identical_with_telemetry(tmp_path, capsys):
    """--telemetry must not perturb results: stdout stays byte-identical."""
    assert main(["experiment", "fig3", "--no-cache"]) == 0
    plain = capsys.readouterr()

    trace = tmp_path / "trace.jsonl"
    args = ["experiment", "fig3", "--no-cache", "--telemetry", str(trace)]
    assert main(args) == 0
    telemetered = capsys.readouterr()

    assert telemetered.out == plain.out
    assert trace.exists()
    assert "Telemetry: per-stage spans" in telemetered.err
    assert f"telemetry trace written to {trace}" in telemetered.err


def test_quiet_telemetry_still_writes_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    args = [
        "markers",
        "vortex",
        "--telemetry",
        str(trace),
        "--quiet-telemetry",
    ]
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "Telemetry: per-stage spans" not in err
    assert trace.exists()


def test_stats_renders_stage_table_from_real_run(tmp_path, capsys):
    """repro stats aggregates a JSONL trace produced by a real run."""
    trace = tmp_path / "trace.jsonl"
    assert main(["experiment", "fig3", "--no-cache", "--telemetry", str(trace)]) == 0
    capsys.readouterr()

    assert main(["stats", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "Telemetry: per-stage spans" in out
    assert "runner.trace" in out
    assert "markers.firings.spans" in out  # fig3's marker trace, from the index
    assert "engine.trace.events" in out


def test_stats_missing_trace_fails(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "absent.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "no telemetry trace" in err


def test_stats_critical_path_from_real_run(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert (
        main(["markers", "vortex", "--telemetry", str(trace), "--quiet-telemetry"])
        == 0
    )
    capsys.readouterr()
    assert main(["stats", str(trace), "--critical-path"]) == 0
    out = capsys.readouterr().out
    assert "Critical path" in out
    assert "Self-time attribution" in out
    assert "parallel efficiency" in out


def test_stats_prometheus_from_real_run(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert (
        main(["markers", "vortex", "--telemetry", str(trace), "--quiet-telemetry"])
        == 0
    )
    capsys.readouterr()
    assert main(["stats", str(trace), "--prometheus"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_callloop_profile_instructions_total counter" in out


def test_metrics_series_written_and_summarized(tmp_path, capsys):
    """--metrics-series samples the run and `stats --series` renders it;
    it implies a telemetry session even without --telemetry."""
    series = tmp_path / "series.jsonl"
    args = [
        "markers",
        "vortex",
        "--metrics-series",
        str(series),
        "--metrics-interval",
        "0.005",
    ]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert f"metrics series written to {series}" in captured.err
    assert "Telemetry: per-stage spans" not in captured.err  # no --telemetry
    assert series.exists()

    assert main(["stats", "--series", str(series)]) == 0
    out = capsys.readouterr().out
    assert "metrics time series" in out
    assert "callloop.profile.instructions" in out


def test_stats_missing_series_fails(tmp_path, capsys):
    assert main(["stats", "--series", str(tmp_path / "absent.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "no metrics series" in err


def test_verify_fuzz_only(capsys):
    assert main(
        ["verify", "--skip-golden", "--skip-streaming",
         "--seed", "3", "--iters", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "3/3 programs checked, 0 failure(s)" in out


def test_verify_streaming_pass(capsys):
    assert main(
        ["verify", "--skip-golden", "--iters", "0", "--workload", "gzip"]
    ) == 0
    out = capsys.readouterr().out
    assert "streaming equivalence: 1 workload(s) match batch" in out


def test_verify_golden_check_against_committed_corpus(capsys):
    assert main(["verify", "--iters", "0", "--workload", "gzip"]) == 0
    out = capsys.readouterr().out
    assert "golden corpus: 1 workload(s) match" in out


def test_verify_refresh_golden(tmp_path, capsys):
    args = [
        "verify", "--refresh-golden", "--iters", "0",
        "--golden-dir", str(tmp_path), "--workload", "mcf",
    ]
    assert main(args) == 0
    assert "wrote 1 file(s)" in capsys.readouterr().out
    assert (tmp_path / "mcf.json").exists()
    # and the freshly written corpus passes its own check
    assert main(
        ["verify", "--iters", "0", "--golden-dir", str(tmp_path),
         "--workload", "mcf"]
    ) == 0


def test_verify_fails_on_stale_corpus(tmp_path, capsys):
    main(["verify", "--refresh-golden", "--iters", "0",
          "--golden-dir", str(tmp_path), "--workload", "mcf"])
    capsys.readouterr()
    doc = (tmp_path / "mcf.json").read_text()
    (tmp_path / "mcf.json").write_text(doc.replace('"variant": "base"', '"variant": "x"'))
    code = main(
        ["verify", "--iters", "0", "--golden-dir", str(tmp_path),
         "--workload", "mcf"]
    )
    assert code == 1
    assert "STALE" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])
