"""repro — a reproduction of "Selecting Software Phase Markers with Code
Structure Analysis" (Lau, Perelman, Calder; CGO 2006).

The package implements the paper's full pipeline and every substrate it
depends on:

* :mod:`repro.ir` / :mod:`repro.engine` — a synthetic "binary" format and
  its execution engine (the Alpha/ATOM substitute);
* :mod:`repro.workloads` — SPEC-2000-like programs with the phase
  structure the literature reports for each benchmark;
* :mod:`repro.callloop` — **the paper's contribution**: the hierarchical
  call-loop graph, its profiler, and the two-pass marker selection
  algorithm (plus the max-limit SimPoint variant and cross-binary
  mapping);
* :mod:`repro.intervals`, :mod:`repro.perf`, :mod:`repro.cache` —
  fixed/VLI interval infrastructure, the CPI model, and the
  Cheetah-style multi-configuration cache simulator;
* :mod:`repro.simpoint` — SimPoint 2.0/3.0 (k-means + BIC over projected
  basic block vectors);
* :mod:`repro.reuse` — the Shen et al. reuse-distance baseline (reuse
  distances, Haar wavelets, Sequitur, locality phase markers);
* :mod:`repro.analysis` / :mod:`repro.experiments` — the evaluation
  metrics and one module per figure of the paper.

Quickstart::

    from repro import quickstart_pipeline
    markers, intervals = quickstart_pipeline("gzip")

See ``examples/`` for complete walkthroughs.
"""

from repro.callloop import (
    CallLoopGraph,
    CallLoopProfiler,
    LimitParams,
    MarkerSet,
    PhaseMarker,
    SelectionParams,
    build_call_loop_graph,
    map_markers,
    marker_trace,
    select_markers,
    select_markers_with_limit,
)
from repro.engine import Machine, Trace, record_trace
from repro.intervals import (
    attach_metrics,
    split_at_markers,
    split_at_markers_scalar,
    split_fixed,
)
from repro.ir import ProgramBuilder, validate_program
from repro.ir.program import Program, ProgramInput

__version__ = "1.1.0"

__all__ = [
    "CallLoopGraph",
    "LimitParams",
    "MarkerSet",
    "PhaseMarker",
    "SelectionParams",
    "build_call_loop_graph",
    "map_markers",
    "marker_trace",
    "select_markers",
    "select_markers_with_limit",
    "Machine",
    "Trace",
    "record_trace",
    "attach_metrics",
    "split_at_markers",
    "split_at_markers_scalar",
    "split_fixed",
    "ProgramBuilder",
    "validate_program",
    "Program",
    "ProgramInput",
    "quickstart_pipeline",
]


def quickstart_pipeline(workload_name: str, ilower: int = 10_000):
    """Run the whole pipeline on one bundled workload.

    Records the workload's reference input once and profiles that
    recording, selects phase markers, and splits the same run into
    variable-length intervals with CPI / cache metrics attached.
    Returns ``(marker_set, interval_set)``.
    """
    from repro.workloads import get_workload  # deferred: heavy registry

    workload = get_workload(workload_name)
    program = workload.build()
    trace = record_trace(Machine(program, workload.ref_input))
    graph = CallLoopProfiler(program).profile_trace(trace)
    markers = select_markers(graph, SelectionParams(ilower=ilower)).markers
    intervals = split_at_markers(program, trace, markers)
    attach_metrics(intervals, trace, program, workload.ref_input)
    return markers, intervals
