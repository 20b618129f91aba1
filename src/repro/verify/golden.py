"""The corpus pass: every bundled workload's ``train`` run, checked once.

For each bundled workload :func:`check_corpus` builds the program,
records its ``train`` trace and profiles it, once each, and runs three
checks on that one recording:

* ``golden`` — the document derived from the profile must equal the
  committed file under ``tests/golden/`` (dict equality; a missing file
  is a mismatch too).  The document pins the serialized call-loop graph
  (exact — JSON float round-trips are bit-identical and edge order is
  preserved), the marker selection under default parameters *and* under
  ``procedures_only`` (the paper's "procs only" baseline), and the depth
  estimate and processing order the selection used, so any change to
  the profiler, depth estimator, or selection logic that alters output
  for any workload fails the check.  Intentional changes are ratified
  by re-generating the corpus (``repro verify --refresh-golden``) and
  reviewing the resulting diff; the procedure is documented in
  ``docs/VERIFICATION.md``.
* ``streaming`` — :func:`~repro.verify.diff.diff_streaming` with the
  profile as the batch graph: an unbounded-window, drift-disabled
  streaming monitor must reproduce the batch walker callbacks, graph,
  selection, and phase changes bit for bit (``docs/STREAMING.md``).
* ``split`` — :func:`~repro.verify.diff.diff_split` for the plain
  selection and the max-limit one at :data:`SPLIT_MAX_LIMIT` (merged
  loop markers fire every Nth iteration): the firings gathered from the
  span index, built in the call and reloaded from a trace-store spill,
  and the VLI split of them must equal the walk collector's and the
  scalar splitter's.  The report counts the workloads whose sets were
  all answered from the span index.

The streaming and split checks also ride every fuzz iteration inside
:func:`~repro.verify.diff.verify_program`.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.callloop.graph import CallLoopGraph
from repro.callloop.limits import LimitParams, select_markers_with_limit
from repro.callloop.profiler import CallLoopProfiler, build_call_loop_graph
from repro.callloop.selection import SelectionParams, select_markers
from repro.callloop.serialization import graph_to_dict, marker_set_to_dict
from repro.engine.machine import Machine
from repro.engine.tracing import record_trace
from repro.intervals.vli import split_at_markers_prescan
from repro.verify.diff import (
    DiffReport,
    Mismatch,
    diff_split,
    diff_streaming,
    document_diffs,
)
from repro.workloads import all_workloads, get_workload

GOLDEN_FORMAT_VERSION = 1

#: selection variants pinned per workload
_VARIANTS = {
    "default": SelectionParams(),
    "procs_only": SelectionParams(procedures_only=True),
}

#: the max-limit marker set the split check runs besides the plain one
SPLIT_MAX_LIMIT = 200_000


def default_golden_dir() -> Path:
    """``tests/golden/`` resolved relative to the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def compute_golden_entry(
    workload_name: str, graph: Optional[CallLoopGraph] = None
) -> Dict[str, Any]:
    """The pinned document of one workload, derived from *graph*, its
    ``train`` profile (made here when not given)."""
    from repro.callloop.depth import estimate_max_depth, processing_order

    workload = get_workload(workload_name)
    if graph is None:
        graph = build_call_loop_graph(workload.build(), [workload.train_input])

    depths = estimate_max_depth(graph)
    order = processing_order(graph)
    selections = {
        name: marker_set_to_dict(select_markers(graph, params).markers)
        for name, params in _VARIANTS.items()
    }
    return {
        "golden_format_version": GOLDEN_FORMAT_VERSION,
        "workload": workload_name,
        "input": workload.train_input.name,
        "graph": graph_to_dict(graph),
        "depths": {str(node): depth for node, depth in depths.items()},
        "processing_order": [str(node) for node in order],
        "selections": selections,
    }


def _entry_path(golden_dir: Path, workload_name: str) -> Path:
    return Path(golden_dir) / f"{workload_name.replace('/', '_')}.json"


def write_golden_corpus(
    golden_dir: Optional[Path] = None,
    workloads: Optional[List[str]] = None,
) -> List[Path]:
    """(Re-)generate the corpus; returns the files written."""
    golden_dir = Path(golden_dir) if golden_dir else default_golden_dir()
    golden_dir.mkdir(parents=True, exist_ok=True)
    names = workloads or [w.name for w in all_workloads()]
    written = []
    for name in names:
        entry = compute_golden_entry(name)
        path = _entry_path(golden_dir, name)
        path.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
        written.append(path)
    return written


def diff_golden(
    workload_name: str,
    actual: Dict[str, Any],
    golden_dir: Optional[Path] = None,
) -> List[Mismatch]:
    """``golden`` mismatches of the recomputed document *actual* against
    the committed file: one if the file is missing, else one per place
    they differ (the first few)."""
    path = _entry_path(golden_dir or default_golden_dir(), workload_name)
    if not path.exists():
        return [
            Mismatch(
                "golden", workload_name, "recomputed", "missing",
                "run: repro verify --refresh-golden",
            )
        ]
    return [
        Mismatch("golden", f"{workload_name} {where}", got, want, "stale")
        for where, got, want in document_diffs(actual, json.loads(path.read_text()))
    ]


def check_corpus(
    golden_dir: Optional[Path] = None,
    workloads: Optional[List[str]] = None,
) -> DiffReport:
    """Run the ``golden``, ``streaming`` and ``split`` checks on every
    workload's ``train`` trace, recorded and profiled once."""
    names = workloads or [w.name for w in all_workloads()]
    params = SelectionParams()
    limit = LimitParams(ilower=params.ilower, max_limit=SPLIT_MAX_LIMIT)
    found: Dict[str, List[Mismatch]] = {"golden": [], "streaming": [], "split": []}
    indexed = 0
    for name in names:
        workload = get_workload(name)
        program = workload.build()
        trace = record_trace(Machine(program, workload.train_input))
        graph = CallLoopProfiler(program).profile_trace(trace)
        found["golden"] += diff_golden(
            name, compute_golden_entry(name, graph), golden_dir
        )
        found["streaming"] += [
            replace(m, key=f"{name} {m.key}")
            for m in diff_streaming(program, trace, params, sequential=graph)
        ]
        marker_sets = {
            "plain": select_markers(graph, params).markers,
            "limit": select_markers_with_limit(graph, limit).markers,
        }
        for label, markers in marker_sets.items():
            found["split"] += [
                replace(m, key=f"{name} {label} set: {m.key}")
                for m in diff_split(program, trace, markers)
            ]
        indexed += all(
            split_at_markers_prescan(program, trace, markers) is not None
            for markers in marker_sets.values()
        )
    report = DiffReport(program=f"{len(names)} corpus workload(s)")
    report.extend("golden", found["golden"])
    report.extend("streaming", found["streaming"])
    report.extend(f"split ({indexed} via span index)", found["split"])
    return report
