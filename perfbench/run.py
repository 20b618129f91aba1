"""The repo benchmark: one command, named workloads, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured untraced; with ``--trace 1`` they are the
per-layer metrics, from a run with spans around every layer's public
calls (see ``perfbench/tracing.py``).  The line before it stamps the
result with the host fingerprint and the sample counts; both lines, and
the traced run's Chrome-trace JSONL (readable by ``repro stats
--critical-path <file>``), are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import pipeline, serve, simpoint_eval, stream  # noqa: E402
from perfbench.common import (  # noqa: E402
    OUT_DIR,
    HostClock,
    end_to_end,
    fingerprint,
    finite,
    sample_note,
)
from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.tracing import Tracer, instrument  # noqa: E402

WORKLOADS = {
    m.NAME: m for m in (pipeline, simpoint_eval, serve, stream)
}

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3


def fresh_import(modules) -> None:
    """Import *modules* in a fresh interpreter: the part of set-up this
    process already paid once."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); " + "; ".join(
        f"import {m}" for m in modules
    )
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)


def timed_setup(module, seed: int):
    """Set up SETUP_REPEATS times (tearing the previous one down); keep
    the last state and the median set-up time, scaled to the nominal
    host like every other time."""
    times = []
    state = None
    clock = HostClock()
    for _ in range(SETUP_REPEATS):
        if state is not None:
            module.teardown(state)
            state = None
        clock.probe()
        start = time.perf_counter()
        fresh_import(module.IMPORTS)
        state = module.setup(seed)
        seconds = time.perf_counter() - start
        times.append(seconds * clock.scale())
    return state, statistics.median(times)


def overhead(tracer: Tracer, traced_s: float, untraced_s: float) -> float:
    """Traced over untraced wall time for the same work, leaving out the
    pre-scan probes a traced run adds (work, not recording cost)."""
    return (traced_s - tracer.name_self_s()["bench.probe"]) / untraced_s


def traced_run(module, state, seconds: float):
    """An untraced measurement, then the same work traced: returns
    (outcomes, tracer, per-layer figures the workload adds)."""
    untraced = module.measure(state, seconds=seconds / 2)
    tracer = Tracer()
    with instrument(tracer), tracer.window():
        traced = module.measure(state, units=untraced.units, tracer=tracer)
    extras = dict(traced.layer)
    extras["telemetry.overhead_ratio"] = overhead(tracer, traced.wall_s, untraced.wall_s)
    return [untraced, traced], tracer, extras


def traced_serve(state, seconds: float):
    """Serving: the load runs traced (client spans per connection); the
    inline compute replay runs untraced, then traced, for the overhead."""
    compute_ms, plain_wall = serve.replay_compute(state)
    tracer = Tracer()
    with instrument(tracer), tracer.window():
        load = serve.measure(state, seconds=seconds / 2, tracer=tracer)
        with tracer.span("bench.replay"):
            _, traced_wall = serve.replay_compute(state)
    extras = dict(load.layer)
    extras["serving.compute_ms"] = compute_ms
    extras["serving.overhead_ms"] = extras.pop("serving.client_mean_ms") - compute_ms
    extras["telemetry.overhead_ratio"] = overhead(tracer, traced_wall, plain_wall)
    return [load], tracer, extras


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    module = WORKLOADS[workload]
    e2e_specs, layer_specs = metric_specs()
    state, setup_s = timed_setup(module, seed)
    try:
        if not trace:
            outcomes = [module.measure(state, seconds=seconds)]
            values = end_to_end(outcomes[0], setup_s)
            specs = e2e_specs
            trace_file = None
        else:
            runner = traced_serve if module is serve else (
                lambda s, secs: traced_run(module, s, secs)
            )
            outcomes, tracer, extras = runner(state, seconds)
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
            tracer.write(trace_file)
            values = layer_metrics(tracer, extras, [m["name"] for m in layer_specs])
            specs = layer_specs
            # the trace's own integrity: spans inside the traced window
            outcomes[-1].check(tracer.accounting_ok())
    finally:
        module.teardown(state)
    finite(values)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    note = {
        "workload": workload,
        "trace": int(trace),
        "run_seconds": seconds,
        "setup_repeats": SETUP_REPEATS,
        "fingerprint": fingerprint(seed),
        "samples": sample_note(outcomes[0]),
        "error_ratio": failed / attempted if attempted else 1.0,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs
        },
    }
    return {"note": note, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stamp = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    stamp.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(json.dumps(out["note"], sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
