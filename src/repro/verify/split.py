"""Split equivalence pass over the bundled workload corpus.

Marker firings gathered from the trace's span index claim bit-identity
with the walk collector's, and the VLI split of them with the scalar
splitter (see ``docs/PERFORMANCE.md``).  :func:`check_split_corpus`
proves that claim on every bundled workload's ``train`` trace by
running :func:`~repro.verify.diff.diff_split` on each — the index built
in the call, and the index reloaded from a trace-store spill — the same
check that rides every fuzz iteration inside
:func:`~repro.verify.diff.verify_program`, for the plain selection and
the max-limit one at ``max_limit`` 200,000 (merged loop markers fire
every Nth iteration).

Like the streaming pass, nothing is pinned on disk — both sides are
recomputed, so it needs no refresh step and runs even when the golden
files are absent (``repro verify --skip-golden`` still runs it;
``--skip-split`` turns it off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.callloop.limits import LimitParams, select_markers_with_limit
from repro.callloop.profiler import CallLoopProfiler
from repro.callloop.selection import SelectionParams, select_markers
from repro.engine.machine import Machine
from repro.engine.tracing import record_trace
from repro.intervals.vli import split_at_markers_prescan
from repro.verify.diff import diff_split
from repro.workloads import all_workloads, get_workload


@dataclass
class SplitCheckResult:
    """Outcome of the split pass over the corpus."""

    checked: List[str] = field(default_factory=list)
    #: workloads whose marker sets were all answered from the span index
    indexed: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    details: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed

    def describe(self) -> str:
        if self.ok:
            return (
                f"split: {len(self.checked)} workload(s) match the walk "
                f"firings and the scalar splitter, plain and limit sets "
                f"({len(self.indexed)} via span index)"
            )
        lines = [
            f"split: {len(self.failed)} of {len(self.checked)} workload(s) "
            "diverge from the walk firings or the scalar splitter"
        ]
        for name in self.failed:
            lines.append(f"  DIVERGED {name}:")
            lines.extend("    " + d for d in self.details.get(name, []))
        return "\n".join(lines)


def check_split_corpus(
    workloads: Optional[List[str]] = None,
    params: Optional[SelectionParams] = None,
    detail_limit: int = 8,
) -> SplitCheckResult:
    """Run :func:`diff_split` on every workload's ``train`` trace, for
    the plain and the max-limit marker sets."""
    names = workloads or [w.name for w in all_workloads()]
    params = params or SelectionParams()
    limit = LimitParams(ilower=params.ilower, max_limit=200_000)
    result = SplitCheckResult()
    for name in names:
        workload = get_workload(name)
        program = workload.build()
        trace = record_trace(Machine(program, workload.train_input))
        graph = CallLoopProfiler(program).profile_trace(trace)
        marker_sets = {
            "plain": select_markers(graph, params).markers,
            "limit": select_markers_with_limit(graph, limit).markers,
        }
        details = [
            f"{label} set: {m.describe()}"
            for label, markers in marker_sets.items()
            for m in diff_split(program, trace, markers)
        ]
        result.checked.append(name)
        if all(
            split_at_markers_prescan(program, trace, markers) is not None
            for markers in marker_sets.values()
        ):
            result.indexed.append(name)
        if details:
            result.failed.append(name)
            result.details[name] = details[:detail_limit]
    return result
