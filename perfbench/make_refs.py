"""Regenerate the committed references the benchmark checks against.

    python3 perfbench/make_refs.py [pipeline|simpoint|stream ...]

Each reference comes from a code path other than the one the benchmark
times:

* ``refs/pipeline.json`` — per input class and program, digests of the
  trace (recorded through the object-yielding ``Machine.run``), of the
  VLI partition (``split_at_markers_scalar``) and of the BBV matrix (the
  ``np.add.at`` accumulator);
* ``refs/simpoint.json`` — per seed class, Figure 11/12 cell values per
  spec from a serial runner with no profile cache or trace store;
* ``refs/stream.json`` — per input class and stream, the re-selection
  log and phase-change digest with rows fed one at a time
  (``StreamingPhaseMonitor.feed``).

Regenerate only for an intended change of results, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.callloop import CallLoopProfiler, select_markers  # noqa: E402
from repro.engine import Machine, record_trace  # noqa: E402
from repro.engine.events import K_BLOCK  # noqa: E402
from repro.experiments.fig1112 import cells_for  # noqa: E402
from repro.experiments.runner import Runner  # noqa: E402
from repro.intervals import split_at_markers_scalar  # noqa: E402
from repro.streaming import StreamingPhaseMonitor  # noqa: E402
from repro.workloads import all_workloads, get_workload  # noqa: E402

from perfbench import pipeline, simpoint_eval, stream  # noqa: E402
from perfbench.common import INPUT_CLASSES, REFS_DIR, seeded_input  # noqa: E402


def bbvs_add_at(interval_set, trace, num_blocks):
    """BBVs by unbuffered scatter-add, independent of ``collect_bbvs``."""
    n = len(interval_set)
    bbvs = np.zeros((n, num_blocks), dtype=np.float64)
    if n == 0:
        return bbvs
    rows = np.nonzero(trace.kinds == K_BLOCK)[0]
    idx = np.searchsorted(interval_set.row_bounds, rows, side="right") - 1
    valid = (idx >= 0) & (idx < n)
    np.add.at(bbvs, (idx[valid], trace.a[rows][valid]), trace.c[rows][valid])
    return bbvs


def pipeline_refs() -> dict:
    params = pipeline.selection_params()
    classes = {}
    for cls in range(INPUT_CLASSES):
        entry = {}
        for wl in all_workloads():
            program = wl.build()
            trace = record_trace(Machine(program, seeded_input(wl, cls)).run())
            graph = CallLoopProfiler(program).profile_trace(trace)
            markers = select_markers(graph, params).markers
            intervals = split_at_markers_scalar(program, trace, markers)
            bbvs = bbvs_add_at(intervals, trace, program.num_blocks)
            entry[wl.name] = {
                **pipeline.output_digests(trace, intervals, bbvs),
                "instructions": int(trace.total_instructions),
            }
            print(f"pipeline class {cls} {wl.name}", flush=True)
        classes[str(cls)] = entry
    return {"input_classes": INPUT_CLASSES, "classes": classes}


def simpoint_refs() -> dict:
    classes = {}
    for cls in range(INPUT_CLASSES):
        runner = Runner(config=simpoint_eval.config_for(cls), jobs=1)
        classes[str(cls)] = {
            spec: simpoint_eval.cell_values(cells_for(runner, spec))
            for spec in simpoint_eval.SPECS
        }
        print(f"simpoint class {cls}", flush=True)
    return {"input_classes": INPUT_CLASSES, "classes": classes}


def stream_refs() -> dict:
    classes = {}
    for cls in range(INPUT_CLASSES):
        entry = {}
        for name in stream.WORKLOADS:
            wl = get_workload(name)
            program = wl.build()
            trace = record_trace(Machine(program, seeded_input(wl, cls)))
            monitor = StreamingPhaseMonitor(program, None, stream.CONFIG)
            for row in trace.iter_packed():
                monitor.feed(*row)
            monitor.finish()
            entry[name] = stream.summary(monitor)
            print(f"stream class {cls} {name}", flush=True)
        classes[str(cls)] = entry
    return {"input_classes": INPUT_CLASSES, "classes": classes}


MAKERS = {
    "pipeline": ("pipeline.json", pipeline_refs),
    "simpoint": ("simpoint.json", simpoint_refs),
    "stream": ("stream.json", stream_refs),
}


def main(argv) -> int:
    for name in argv or sorted(MAKERS):
        filename, make = MAKERS[name]
        REFS_DIR.mkdir(parents=True, exist_ok=True)
        (REFS_DIR / filename).write_text(
            json.dumps(make(), indent=1, sort_keys=True) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
