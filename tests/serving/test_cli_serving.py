"""The serving CLI: ``repro query`` bytes and the serve+loadgen loop."""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.serving import Query, compute_payload

from .conftest import WORKLOAD

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def test_query_cli_prints_canonical_payload_bytes(serving_dirs, capsysbinary):
    cache_dir, trace_root = serving_dirs
    assert (
        main(
            [
                "query",
                "markers",
                WORKLOAD,
                "--cache-dir",
                cache_dir,
                "--trace-root",
                trace_root,
            ]
        )
        == 0
    )
    out = capsysbinary.readouterr().out
    # stdout is the canonical payload plus exactly one newline
    assert out == compute_payload(Query(kind="markers", workload=WORKLOAD)) + b"\n"


def test_query_cli_writes_payload_file(serving_dirs, tmp_path):
    cache_dir, trace_root = serving_dirs
    out_file = tmp_path / "payload.json"
    assert (
        main(
            [
                "query",
                "bbv",
                WORKLOAD,
                "--cache-dir",
                cache_dir,
                "--trace-root",
                trace_root,
                "-o",
                str(out_file),
            ]
        )
        == 0
    )
    assert out_file.read_bytes() == compute_payload(
        Query(kind="bbv", workload=WORKLOAD)
    )


def test_query_cli_rejects_unknown_workload(capsys):
    with pytest.raises(SystemExit):
        main(["query", "markers"])  # missing workload positional
    from repro.serving import QueryError

    with pytest.raises(QueryError):
        main(["query", "markers", "nope", "--no-cache"])


def test_serve_and_loadgen_cli_round_trip(serving_dirs, tmp_path):
    """The ISSUE acceptance run: `repro loadgen --check --shutdown`
    against a live `repro serve` subprocess exits 0 with no errors and
    no byte mismatches."""
    cache_dir, trace_root = serving_dirs
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    with subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--jobs",
            "2",
            "--cache-dir",
            cache_dir,
            "--trace-root",
            trace_root,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, f"no listening line from repro serve: {line!r}"
            host, port = match.group(1), match.group(2)
            summary_file = tmp_path / "summary.json"
            rc = main(
                [
                    "loadgen",
                    "--host",
                    host,
                    "--port",
                    port,
                    "--scenario",
                    "server",
                    "--target-qps",
                    "40",
                    "--min-duration",
                    "0.5",
                    "--min-queries",
                    "10",
                    "--max-duration",
                    "10",
                    "--workload",
                    WORKLOAD,
                    "--cache-dir",
                    cache_dir,
                    "--trace-root",
                    trace_root,
                    "--check",
                    "--shutdown",
                    "-o",
                    str(summary_file),
                ]
            )
            assert rc == 0
            summary = json.loads(summary_file.read_text())
            assert summary["errors"] == 0
            assert summary["check_mismatches"] == 0
            assert summary["completed"] >= 10
            assert summary["latency_ms"]["p99"] > 0
            # --shutdown drained the server; it exits 0 on its own
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
