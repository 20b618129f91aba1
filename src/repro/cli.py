"""Command-line interface: ``python -m repro <command>``.

Commands (full reference with examples: ``docs/CLI.md``)
--------------------------------------------------------
``list``
    List the bundled workloads with their categories and inputs.
``markers WORKLOAD``
    Profile a workload and print (optionally save) its phase markers.
``phases WORKLOAD``
    Select markers, split the run into VLIs, and summarize the phases.
``timeplot WORKLOAD``
    Figure-3-style time-varying CPI/miss-rate plot in the terminal.
``graph WORKLOAD``
    Export the annotated call-loop graph as Graphviz DOT.
``monitor WORKLOAD``
    Run under the online phase monitor and print the transition log.
``stream WORKLOAD``
    Incremental streaming phase detection: cold-start marker pickup
    over a bounded sliding window of interval moments, CoV drift
    detection, and rolling marker re-selection (``--window 0`` streams
    with an unbounded window, which is bit-identical to the batch
    pipeline; see ``docs/STREAMING.md``).
``experiment NAME``
    Regenerate one of the paper's figures (fig3, fig4, fig56, fig7,
    fig8, fig9, fig10, fig11, fig12, crossbin, selection).  Supports
    ``--jobs N`` (parallel profiling), ``--cache-dir DIR`` and
    ``--no-cache`` (on-disk profile cache); a run summary with per-job
    timings and cache hit/miss counters is printed to stderr, keeping
    stdout byte-identical across serial, parallel, and cached runs.
``verify``
    Differential-oracle verification: one corpus pass over every
    workload's ``train`` run (the golden regression corpus under
    ``tests/golden/``, streaming and split equivalence) and ``--iters``
    seeded fuzz iterations comparing the optimized pipeline against the
    naive oracles (``--refresh-golden`` regenerates the corpus; failing
    fuzz programs are shrunk and written to ``tests/verify/repros/``).
``stats [PATH]``
    Render the stage-by-stage span/counter tables from a telemetry
    JSONL trace (default: the last ``--telemetry`` run).
    ``--critical-path`` reports the straggler chain, per-span self-time
    attribution, and per-lane parallel efficiency instead;
    ``--series [PATH]`` summarizes a ``--metrics-series`` time series;
    ``--prometheus`` prints the trace's metrics in the Prometheus text
    exposition format.
``query KIND WORKLOAD``
    Compute one serving payload inline (the batch path of the
    served-equals-batch contract) and print its canonical JSON bytes.
``serve``
    Run the phase-marker query service: an asyncio HTTP server
    deduplicating in-flight queries over a worker pool, sharing the
    profile cache and trace store (``POST /v1/query``, ``GET
    /healthz``, ``GET /stats``, ``POST /v1/shutdown``).
``loadgen``
    Drive a live server with the MLPerf-style load generator
    (SingleStream or Server scenario, seeded Poisson schedule) and
    report achieved QPS and latency percentiles.  See
    ``docs/SERVING.md``.

Every command also accepts ``--telemetry[=PATH]`` (record spans and
counters across the whole pipeline, write a Chrome-trace-compatible
JSONL file, and print a per-stage report to stderr),
``--quiet-telemetry`` (write the JSONL but suppress the stderr report),
and ``--metrics-series[=PATH]`` with ``--metrics-interval S`` (sample
counters/gauges on a background thread into a time-series JSONL).
Telemetry never writes to stdout: command output stays byte-identical
with telemetry on or off.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.util import diag


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.workloads import all_workloads

    for wl in all_workloads():
        inputs = ", ".join(sorted(wl.inputs))
        print(f"{wl.spec_name:20s} [{wl.category}] inputs: {inputs}")
        print(f"  {wl.description}")
    return 0


def _select(args: argparse.Namespace):
    """Profile the workload and select markers; also returns the profiled
    recording, which carries its span index."""
    from repro.callloop import CallLoopProfiler, select_with_options
    from repro.engine import Machine, record_trace
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    program = workload.build()
    profile_input = (
        workload.train_input if args.train else workload.ref_input
    )
    trace = record_trace(Machine(program, profile_input))
    graph = CallLoopProfiler(program).profile_trace(trace)
    result = select_with_options(
        graph, args.ilower, args.max_limit, args.procedures_only
    )
    return workload, program, graph, result.markers, trace


def _ref_trace(args: argparse.Namespace, workload, program, trace):
    """The ref run: the trace ``_select`` profiled, unless ``--train``."""
    from repro.engine import Machine, record_trace

    return record_trace(Machine(program, workload.ref_input)) if args.train else trace


def _cmd_markers(args: argparse.Namespace) -> int:
    workload, program, graph, markers, _ = _select(args)
    print(graph.summary())
    print(markers.describe())
    if args.output:
        from repro.callloop.serialization import save_markers

        save_markers(markers, args.output)
        print(f"saved to {args.output}")
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    from repro.analysis import phase_cov, whole_program_cov
    from repro.intervals import attach_metrics, split_at_markers

    workload, program, graph, markers, trace = _select(args)
    ref = workload.ref_input
    trace = _ref_trace(args, workload, program, trace)
    intervals = split_at_markers(program, trace, markers)
    attach_metrics(intervals, trace, program, ref)
    cov = phase_cov(intervals)
    print(
        f"{len(intervals)} intervals, {intervals.num_phases} phases, "
        f"avg length {intervals.average_length:,.0f} instructions"
    )
    print(
        f"CoV of CPI: {cov.overall:.2%} within phases vs "
        f"{whole_program_cov(intervals):.2%} whole-program"
    )
    for phase in sorted(cov.per_phase):
        mask = intervals.phase_ids == phase
        lengths = intervals.lengths[mask]
        mean_cpi = float(np.average(intervals.cpis[mask], weights=lengths))
        print(
            f"  phase {phase:3d}: {int(mask.sum()):4d} intervals, "
            f"{cov.phase_weights[phase]:6.1%} of execution, "
            f"mean CPI {mean_cpi:5.2f}, CoV {cov.per_phase[phase]:6.2%}"
        )
    return 0


def _cmd_timeplot(args: argparse.Namespace) -> int:
    from repro.analysis.ascii_plot import render_series
    from repro.analysis.timevarying import time_varying_series

    workload, program, graph, markers, trace = _select(args)
    ref = workload.ref_input
    trace = _ref_trace(args, workload, program, trace)
    series = time_varying_series(
        program, ref, trace, markers, interval_length=args.resolution
    )
    print(render_series(series, width=args.width))
    print(
        f"marker/transition alignment: {series.transition_alignment():.0%}"
    )
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.callloop.dot import to_dot

    workload, program, graph, markers, _ = _select(args)
    dot = to_dot(graph, markers if args.highlight_markers else None)
    if args.output:
        with open(args.output, "w") as f:
            f.write(dot + "\n")
        print(f"wrote {args.output}")
    else:
        print(dot)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.runtime import MarkovPredictor, PhaseMonitor, evaluate_predictor

    workload, program, graph, markers, trace = _select(args)
    monitor = PhaseMonitor(program, markers, min_interval=args.ilower // 10)
    monitor.run(_ref_trace(args, workload, program, trace))
    print(f"{len(monitor.changes)} phase changes observed:")
    limit = args.head or len(monitor.changes)
    for change in monitor.changes[:limit]:
        print(
            f"  t={change.t:>12,}  phase {change.previous_phase:3d} -> "
            f"{change.new_phase:3d}  (spent {change.time_in_previous:,})"
        )
    if len(monitor.changes) > limit:
        print(f"  ... {len(monitor.changes) - limit} more")
    report = evaluate_predictor(monitor.phase_sequence, MarkovPredictor(1))
    print(f"order-1 Markov next-phase accuracy: {report.accuracy:.1%}")
    print(monitor.dwell_table().render())
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.callloop import CallLoopProfiler, SelectionParams, select_markers
    from repro.engine import Machine, record_trace
    from repro.streaming import StreamingConfig, stream_trace
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    program = workload.build()
    run_input = workload.train_input if args.train else workload.ref_input
    trace = record_trace(Machine(program, run_input))
    config = StreamingConfig(
        slot_instructions=args.slot,
        window_slots=args.window,
        drift_threshold=args.drift_threshold or None,
        min_interval=args.ilower // 10,
        selection=SelectionParams(
            ilower=args.ilower, procedures_only=args.procedures_only
        ),
    )
    # drift off = the batch-equivalence mode: select markers up front
    # (batch pipeline order) and apply them unchanged; with drift on the
    # monitor cold-starts and picks markers from the window itself
    marker_set = None
    if config.drift_threshold is None:
        graph = CallLoopProfiler(program).profile_trace(trace)
        marker_set = select_markers(graph, config.selection).markers
    monitor = stream_trace(
        program, trace, marker_set=marker_set, config=config,
        chunk_rows=args.chunk,
    )

    print(
        f"streamed {workload.spec_name}/{run_input.name}: "
        f"{trace.total_instructions:,} instructions, "
        f"{monitor.events_fed:,} events in chunks of {args.chunk}"
    )
    bound = "unbounded" if not config.window_slots else f"{config.window_slots} slot(s)"
    print(
        f"window: {bound} x {config.slot_instructions:,} instructions "
        f"(sealed {monitor.slots_sealed}, evicted {monitor.window.evicted_slots})"
    )
    print(
        f"{len(monitor.reselections)} re-selection(s), "
        f"{monitor.drift_events} drifted edge(s), "
        f"{len(monitor.marker_set.markers)} marker(s) live at end"
    )
    for r in monitor.reselections:
        reason = f"drift x{r.drifted_edges}" if r.drifted_edges else "cold start"
        print(
            f"  t={r.t:>12,}  slot {r.slot:4d}  -> "
            f"{r.num_markers} marker(s)  [{reason}]"
        )
    print(f"{len(monitor.changes)} phase changes observed:")
    limit = args.head or len(monitor.changes)
    for change in monitor.changes[:limit]:
        print(
            f"  t={change.t:>12,}  phase {change.previous_phase:3d} -> "
            f"{change.new_phase:3d}  (spent {change.time_in_previous:,})"
        )
    if len(monitor.changes) > limit:
        print(f"  ... {len(monitor.changes) - limit} more")
    return 0


_EXPERIMENTS = {
    "fig3": ("repro.experiments.fig3", "run"),
    "fig4": ("repro.experiments.fig4", "run"),
    "fig56": ("repro.experiments.fig56", "run"),
    "fig7": ("repro.experiments.fig7", "run"),
    "fig8": ("repro.experiments.fig8", "run"),
    "fig9": ("repro.experiments.fig9", "run"),
    "fig10": ("repro.experiments.fig10", "run"),
    "fig11": ("repro.experiments.fig1112", "run_fig11"),
    "fig12": ("repro.experiments.fig1112", "run_fig12"),
    "crossbin": ("repro.experiments.crossbin", "run"),
    "selection": ("repro.experiments.selection_time", "run"),
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    from repro.experiments.plans import PROFILE_PLANS
    from repro.experiments.runner import Runner
    from repro.runner import ProfileCache

    cache = None if args.no_cache else ProfileCache(args.cache_dir)
    runner = Runner(cache=cache, jobs=args.jobs)
    plan = PROFILE_PLANS.get(args.name, ())
    if plan and args.jobs > 1:
        runner.prefetch_graphs(plan)
    module_name, fn_name = _EXPERIMENTS[args.name]
    module = importlib.import_module(module_name)
    table = getattr(module, fn_name)(runner)
    print(table.render())
    # observability goes to stderr (via diag) so experiment output stays
    # byte-identical across serial, parallel, cached, and telemetry runs
    diag(runner.run_summary().render())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.fuzz import run_fuzz
    from repro.verify.golden import (
        check_corpus,
        default_golden_dir,
        write_golden_corpus,
    )

    golden_dir = args.golden_dir or default_golden_dir()
    workloads = args.workload or None
    failed = False

    if args.refresh_golden:
        written = write_golden_corpus(golden_dir, workloads)
        print(f"golden corpus: wrote {len(written)} file(s) to {golden_dir}")
    elif not args.skip_corpus:
        corpus = check_corpus(golden_dir, workloads)
        print(corpus.describe())
        failed = not corpus.ok

    if args.iters > 0:
        report = run_fuzz(
            seed=args.seed,
            iters=args.iters,
            max_instructions=args.max_instructions,
            repro_dir=args.repro_dir,
            progress=(
                (lambda i, shape: diag(f"fuzz iteration {i}: {shape}"))
                if args.verbose
                else None
            ),
        )
        print(report.describe())
        failed = failed or not report.ok
    return 1 if failed else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        critical_path_report,
        default_series_path,
        default_trace_path,
        prometheus_text,
        read_jsonl,
        read_series_jsonl,
        series_report,
        stats_report,
        trace_metrics,
    )

    if args.series is not None:
        series_path = args.series or str(default_series_path())
        try:
            meta, samples = read_series_jsonl(series_path)
        except OSError as exc:
            diag(
                f"no metrics series at {series_path}: {exc}",
                "run a command with --metrics-series[=PATH] first",
            )
            return 1
        print(
            series_report(
                samples,
                source=series_path,
                skipped_lines=meta.get("skipped_lines", 0),
            )
        )
        return 0

    path = args.path or str(default_trace_path())
    try:
        events = read_jsonl(path)
    except OSError as exc:
        diag(
            f"no telemetry trace at {path}: {exc}",
            "run a command with --telemetry[=PATH] first",
        )
        return 1
    if args.prometheus:
        counters, gauges, histograms = trace_metrics(events)
        print(prometheus_text(counters, gauges, histograms), end="")
        return 0
    if args.critical_path:
        print(critical_path_report(events, source=path))
        return 0
    print(stats_report(events, source=path))
    return 0


def _serving_stores(args: argparse.Namespace):
    """(cache, trace_store) from the shared --cache-dir/--no-cache/
    --trace-root flags, defaulting like the server does."""
    from repro.runner.cache import ProfileCache, default_cache_dir
    from repro.runner.traces import TraceStore, default_trace_dir

    cache = (
        None
        if args.no_cache
        else ProfileCache(args.cache_dir or default_cache_dir())
    )
    store = TraceStore(args.trace_root or default_trace_dir())
    return cache, store


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serving import compute_payload, query_from_dict

    query = query_from_dict(
        {
            "kind": args.kind,
            "workload": args.workload,
            "which": args.which,
            "ilower": args.ilower,
            "max_limit": args.max_limit,
            "procedures_only": args.procedures_only,
            "window": args.window,
        }
    )
    cache, store = _serving_stores(args)
    payload = compute_payload(query, cache=cache, trace_store=store)
    if args.output:
        with open(args.output, "wb") as f:
            f.write(payload)
        diag(f"wrote {len(payload)} payload bytes to {args.output}")
    else:
        # exact canonical bytes + one newline: `repro query ... | head -c-1`
        # is byte-identical to the served response body
        sys.stdout.buffer.write(payload + b"\n")
        sys.stdout.buffer.flush()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from repro.serving import PhaseMarkerServer

    server = PhaseMarkerServer(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        trace_root=args.trace_root,
    )

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, server.request_shutdown)
        # the one stdout line: scripts parse the bound (possibly
        # ephemeral) port from it; everything else goes to stderr
        print(f"listening on http://{server.host}:{server.port}", flush=True)
        diag(
            f"serve: {server.jobs} worker(s), "
            f"cache {server.cache_dir or 'disabled'}, "
            f"traces {server.trace_root}"
        )
        await server.serve_until_shutdown()
        diag(
            f"serve: drained after {server.stats.requests} request(s), "
            f"{server.stats.errors} error(s)"
        )

    asyncio.run(_serve())
    return 0


def _build_loadgen_queries(args: argparse.Namespace):
    from repro.serving import query_from_dict

    workloads = args.workload or ["compress95", "tomcatv"]
    kinds = args.kind or ["markers"]
    return [
        query_from_dict(
            {
                "kind": kind,
                "workload": workload,
                "which": args.which,
                "ilower": args.ilower,
                "max_limit": args.max_limit,
                "procedures_only": args.procedures_only,
                "window": args.window if kind == "stream" else 0,
            }
        )
        for workload in workloads
        for kind in kinds
    ]


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serving import (
        AsyncServeClient,
        LoadGenSettings,
        expected_payloads,
        run_loadgen,
    )

    settings = LoadGenSettings(
        scenario=args.scenario,
        target_qps=args.target_qps,
        max_async_queries=args.max_async_queries,
        min_duration_s=args.min_duration,
        max_duration_s=args.max_duration,
        min_queries=args.min_queries,
        seed=args.seed,
    )
    settings.validate()
    queries = _build_loadgen_queries(args)
    expected = None
    if args.check:
        from repro.runner.cache import default_cache_dir
        from repro.runner.traces import default_trace_dir

        diag(f"loadgen: precomputing {len(queries)} expected payload(s)")
        expected = expected_payloads(
            queries,
            cache_dir=(
                None
                if args.no_cache
                else str(args.cache_dir or default_cache_dir())
            ),
            trace_root=str(args.trace_root or default_trace_dir()),
        )
    summary = run_loadgen(
        args.host, args.port, queries, settings, expected=expected
    )
    print(summary.render())
    if args.output:
        with open(args.output, "w") as f:
            _json.dump(summary.as_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        diag(f"loadgen summary written to {args.output}")
    if args.shutdown:
        import asyncio

        async def _shutdown() -> None:
            client = AsyncServeClient(args.host, args.port)
            try:
                await client.request("POST", "/v1/shutdown")
            finally:
                await client.close()

        asyncio.run(_shutdown())
        diag("loadgen: server shutdown requested")
    failed = summary.errors > 0 or bool(summary.check_mismatches)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Software phase markers (CGO 2006) reproduction toolkit",
    )
    # Telemetry flags are shared by every subcommand via a parent parser.
    tel = argparse.ArgumentParser(add_help=False)
    tel.add_argument(
        "--telemetry", nargs="?", const="", default=None, metavar="PATH",
        help="record pipeline spans/counters; write a Chrome-trace JSONL "
        "to PATH (default: the repro stats location) and print a "
        "per-stage report to stderr",
    )
    tel.add_argument(
        "--quiet-telemetry", action="store_true",
        help="with --telemetry: write the JSONL but skip the stderr report",
    )
    tel.add_argument(
        "--metrics-series", nargs="?", const="", default=None, metavar="PATH",
        help="sample counters/gauges on a background thread and write a "
        "metrics time-series JSONL to PATH (default: next to the "
        "telemetry trace); implies a telemetry session",
    )
    tel.add_argument(
        "--metrics-interval", type=float, default=0.05, metavar="S",
        help="seconds between --metrics-series samples (default 0.05)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list bundled workloads", parents=[tel]
    ).set_defaults(fn=_cmd_list)

    def add_selection_args(p):
        p.add_argument("workload", help="workload name (see `repro list`)")
        p.add_argument(
            "--ilower", type=int, default=10_000,
            help="minimum average interval size (default 10000)",
        )
        p.add_argument(
            "--max-limit", type=int, default=0,
            help="maximum interval size (0 = no limit)",
        )
        p.add_argument(
            "--procedures-only", action="store_true",
            help="only mark procedure edges (no loops)",
        )
        p.add_argument(
            "--train", action="store_true",
            help="profile on the train input instead of ref",
        )

    p_markers = sub.add_parser(
        "markers", help="select and print phase markers", parents=[tel]
    )
    add_selection_args(p_markers)
    p_markers.add_argument("-o", "--output", help="save markers as JSON")
    p_markers.set_defaults(fn=_cmd_markers)

    p_phases = sub.add_parser(
        "phases", help="summarize the phases markers define", parents=[tel]
    )
    add_selection_args(p_phases)
    p_phases.set_defaults(fn=_cmd_phases)

    p_plot = sub.add_parser(
        "timeplot",
        help="Figure-3-style time-varying plot in the terminal",
        parents=[tel],
    )
    add_selection_args(p_plot)
    p_plot.add_argument(
        "--resolution", type=int, default=2000,
        help="instructions per plotted interval (default 2000)",
    )
    p_plot.add_argument("--width", type=int, default=100, help="plot columns")
    p_plot.set_defaults(fn=_cmd_timeplot)

    p_graph = sub.add_parser(
        "graph",
        help="export the annotated call-loop graph as Graphviz DOT",
        parents=[tel],
    )
    add_selection_args(p_graph)
    p_graph.add_argument("-o", "--output", help="write DOT to a file")
    p_graph.add_argument(
        "--highlight-markers", action="store_true",
        help="draw selected marker edges bold red",
    )
    p_graph.set_defaults(fn=_cmd_graph)

    p_monitor = sub.add_parser(
        "monitor", help="run under the online phase monitor", parents=[tel]
    )
    add_selection_args(p_monitor)
    p_monitor.add_argument(
        "--head", type=int, default=20, help="transitions to print (default 20)"
    )
    p_monitor.set_defaults(fn=_cmd_monitor)

    p_stream = sub.add_parser(
        "stream",
        help="incremental streaming phase detection with bounded memory",
        parents=[tel],
    )
    p_stream.add_argument("workload", help="workload name (see `repro list`)")
    p_stream.add_argument(
        "--ilower", type=int, default=10_000,
        help="minimum average interval size (default 10000)",
    )
    p_stream.add_argument(
        "--procedures-only", action="store_true",
        help="only mark procedure edges (no loops)",
    )
    p_stream.add_argument(
        "--train", action="store_true",
        help="stream the train input instead of ref",
    )
    p_stream.add_argument(
        "--window", type=int, default=8, metavar="SLOTS",
        help="sliding-window length in slots (0 = unbounded; default 8)",
    )
    p_stream.add_argument(
        "--slot", type=int, default=100_000, metavar="INSTRUCTIONS",
        help="instructions per window slot (default 100000)",
    )
    p_stream.add_argument(
        "--drift-threshold", type=float, default=0.25, metavar="COV",
        help="absolute CoV drift on a marker edge that triggers rolling "
        "re-selection (0 disables drift detection; default 0.25)",
    )
    p_stream.add_argument(
        "--chunk", type=int, default=4096, metavar="ROWS",
        help="trace rows fed per chunk (default 4096)",
    )
    p_stream.add_argument(
        "--head", type=int, default=20,
        help="transitions to print (default 20)",
    )
    p_stream.set_defaults(fn=_cmd_stream)

    p_exp = sub.add_parser(
        "experiment", help="regenerate a paper figure", parents=[tel]
    )
    p_exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    p_exp.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="profile independent workloads across N processes (default 1)",
    )
    p_exp.add_argument(
        "--cache-dir", default=None,
        help="profile cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/profiles)",
    )
    p_exp.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk profile cache",
    )
    p_exp.set_defaults(fn=_cmd_experiment)

    p_verify = sub.add_parser(
        "verify",
        help="differential-oracle checks: corpus pass + seeded fuzzing",
        parents=[tel],
    )
    p_verify.add_argument(
        "--seed", type=int, default=0, help="base fuzz seed (default 0)"
    )
    p_verify.add_argument(
        "--iters", type=int, default=50,
        help="fuzz iterations (default 50; 0 skips fuzzing)",
    )
    p_verify.add_argument(
        "--max-instructions", type=int, default=20_000,
        help="instruction cap per fuzzed run (default 20000)",
    )
    p_verify.add_argument(
        "--skip-corpus", action="store_true",
        help="skip the corpus pass (golden, streaming and split checks "
        "on every workload's train run)",
    )
    p_verify.add_argument(
        "--refresh-golden", action="store_true",
        help="regenerate the golden corpus instead of checking it",
    )
    p_verify.add_argument(
        "--golden-dir", default=None,
        help="golden corpus directory (default: tests/golden/)",
    )
    p_verify.add_argument(
        "--repro-dir", default="tests/verify/repros",
        help="where shrunk failing programs are written "
        "(default tests/verify/repros)",
    )
    p_verify.add_argument(
        "--workload", action="append", metavar="NAME",
        help="restrict the corpus pass/golden refresh to NAME (repeatable)",
    )
    p_verify.add_argument(
        "-v", "--verbose", action="store_true",
        help="log each fuzz iteration to stderr",
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_stats = sub.add_parser(
        "stats",
        help="render the per-stage tables from a telemetry JSONL trace",
        parents=[tel],
    )
    p_stats.add_argument(
        "path", nargs="?", default=None,
        help="trace file (default: the last --telemetry run)",
    )
    p_stats.add_argument(
        "--critical-path", action="store_true",
        help="report the critical path, per-span self-time attribution, "
        "and per-lane parallel efficiency instead of the stage tables",
    )
    p_stats.add_argument(
        "--series", nargs="?", const="", default=None, metavar="PATH",
        help="summarize a --metrics-series time series instead of a "
        "trace (default: the last --metrics-series run)",
    )
    p_stats.add_argument(
        "--prometheus", action="store_true",
        help="print the trace's metrics in the Prometheus text "
        "exposition format",
    )
    p_stats.set_defaults(fn=_cmd_stats)

    # -- serving layer (docs/SERVING.md) --------------------------------------

    def add_query_args(p, positional: bool):
        if positional:
            from repro.serving.queries import QUERY_KINDS

            p.add_argument(
                "kind", choices=QUERY_KINDS, help="payload kind to compute"
            )
            p.add_argument(
                "workload", help="workload name (see `repro list`)"
            )
        p.add_argument(
            "--which", default="ref",
            help="profiled input: ref, train, or an input name (default ref)",
        )
        p.add_argument(
            "--ilower", type=int, default=10_000,
            help="minimum average interval size (default 10000)",
        )
        p.add_argument(
            "--max-limit", type=int, default=0,
            help="maximum interval size (0 = no limit)",
        )
        p.add_argument(
            "--procedures-only", action="store_true",
            help="only mark procedure edges (no loops)",
        )
        p.add_argument(
            "--window", type=int, default=0, metavar="SLOTS",
            help="stream queries only: sliding-window length in slots "
            "(0 = unbounded, the batch-equivalent mode; default 0)",
        )

    def add_store_args(p):
        p.add_argument(
            "--cache-dir", default=None,
            help="profile cache directory (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro/profiles)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="disable the on-disk profile cache",
        )
        p.add_argument(
            "--trace-root", default=None,
            help="trace store directory (default: $REPRO_TRACE_DIR or "
            "~/.cache/repro/traces)",
        )

    p_query = sub.add_parser(
        "query",
        help="compute one serving payload inline (the batch path)",
        parents=[tel],
    )
    add_query_args(p_query, positional=True)
    add_store_args(p_query)
    p_query.add_argument(
        "-o", "--output", help="write the payload bytes to a file"
    )
    p_query.set_defaults(fn=_cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="run the phase-marker query service (HTTP)",
        parents=[tel],
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8321,
        help="bind port; 0 picks an ephemeral port (default 8321)",
    )
    p_serve.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker pool size (default: the parallel-runner default)",
    )
    add_store_args(p_serve)
    p_serve.set_defaults(fn=_cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="drive a live server with the MLPerf-style load generator",
        parents=[tel],
    )
    p_load.add_argument(
        "--host", default="127.0.0.1", help="server address (default 127.0.0.1)"
    )
    p_load.add_argument(
        "--port", type=int, default=8321, help="server port (default 8321)"
    )
    p_load.add_argument(
        "--scenario", choices=["singlestream", "server"], default="server",
        help="singlestream (closed loop) or server (open loop, default)",
    )
    p_load.add_argument(
        "--target-qps", type=float, default=20.0,
        help="Poisson arrival rate for the server scenario (default 20)",
    )
    p_load.add_argument(
        "--max-async-queries", type=int, default=64,
        help="outstanding-query cap in the server scenario (default 64)",
    )
    p_load.add_argument(
        "--min-duration", type=float, default=1.0, metavar="S",
        help="keep issuing until at least S seconds of schedule (default 1)",
    )
    p_load.add_argument(
        "--max-duration", type=float, default=30.0, metavar="S",
        help="hard stop after S seconds of schedule (default 30)",
    )
    p_load.add_argument(
        "--min-queries", type=int, default=16,
        help="issue at least N queries (default 16)",
    )
    p_load.add_argument(
        "--seed", type=int, default=0,
        help="schedule seed; same seed, same schedule (default 0)",
    )
    p_load.add_argument(
        "--workload", action="append", metavar="NAME",
        help="workload(s) to query, repeatable "
        "(default: compress95, tomcatv)",
    )
    from repro.serving.queries import QUERY_KINDS as _query_kinds

    p_load.add_argument(
        "--kind", action="append", metavar="KIND",
        choices=list(_query_kinds),
        help="query kind(s) to mix in, repeatable (default: markers)",
    )
    add_query_args(p_load, positional=False)
    add_store_args(p_load)
    p_load.add_argument(
        "--check", action="store_true",
        help="byte-verify every response against locally computed payloads",
    )
    p_load.add_argument(
        "--shutdown", action="store_true",
        help="request a graceful server shutdown after the run",
    )
    p_load.add_argument(
        "-o", "--output", metavar="PATH",
        help="also write the summary as JSON to PATH",
    )
    p_load.set_defaults(fn=_cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    telemetry_arg = getattr(args, "telemetry", None)
    series_arg = getattr(args, "metrics_series", None)
    if telemetry_arg is None and series_arg is None:
        return args.fn(args)

    from repro import telemetry as _telemetry
    from repro.telemetry import (
        MetricsSampler,
        default_series_path,
        default_trace_path,
        render_report,
        write_jsonl,
        write_series_jsonl,
    )

    tm = _telemetry.enable_telemetry()
    sampler = None
    if series_arg is not None:
        sampler = MetricsSampler(
            tm, interval_s=getattr(args, "metrics_interval", 0.05)
        ).start()
    try:
        return args.fn(args)
    finally:
        _telemetry.disable_telemetry()
        notes = []
        if sampler is not None:
            samples = sampler.stop()
            series_path = write_series_jsonl(
                samples,
                series_arg or default_series_path(),
                run_id=tm.run_id,
                interval_s=sampler.interval_s,
                dropped=sampler.dropped,
            )
            notes.append(f"metrics series written to {series_path}")
        if telemetry_arg is not None:
            path = telemetry_arg or str(default_trace_path())
            write_jsonl(tm, path)
            notes.append(f"telemetry trace written to {path}")
        if getattr(args, "quiet_telemetry", False):
            pass  # files written, stderr stays clean
        elif telemetry_arg is not None:
            diag(render_report(tm), *notes)
        elif notes:
            diag(*notes)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
