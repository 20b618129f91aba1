#!/usr/bin/env python
"""Quickstart: select software phase markers for a program and inspect
the phases they define.

This walks the paper's core pipeline on the bundled gzip-like workload:

1. build the program ("binary") and run it to record a trace;
2. profile the trace into the hierarchical call-loop graph;
3. select phase markers with the two-pass algorithm (Section 5.1);
4. cut the run into variable-length intervals at marker executions and
   attach CPI / data-cache metrics;
5. show that intervals sharing a phase id behave homogeneously.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    Machine,
    SelectionParams,
    record_trace,
    select_markers,
    split_at_markers,
    attach_metrics,
)
from repro.analysis import phase_cov, whole_program_cov
from repro.callloop import CallLoopProfiler
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("gzip")
    program = workload.build()
    print(f"workload: {workload.spec_name} — {workload.description}")

    # 1. execute and record
    trace = record_trace(Machine(program, workload.ref_input))
    print(f"executed {trace.total_instructions:,} instructions")

    # 2. profile the recorded run into the call-loop graph
    graph = CallLoopProfiler(program).profile_trace(trace)
    print(graph.summary())

    # 3. select markers (minimum interval size: 10K instructions at the
    #    repository's 1/1000 scale; the paper used 10M)
    result = select_markers(graph, SelectionParams(ilower=10_000))
    print(f"\nselected {len(result.markers)} software phase markers:")
    for marker in result.markers:
        print(
            f"  {marker.describe():58s} "
            f"avg interval {marker.avg_interval:>9,.0f}  CoV {marker.cov:.3f}"
        )

    # 4. split execution at marker firings and measure each interval
    intervals = split_at_markers(program, trace, result.markers)
    attach_metrics(intervals, trace, program, workload.ref_input)
    print(
        f"\n{len(intervals)} variable-length intervals, "
        f"{intervals.num_phases} phases, "
        f"average length {intervals.average_length:,.0f} instructions"
    )

    # 5. per-phase homogeneity: same phase => same behavior
    cov = phase_cov(intervals)
    print(f"\nper-phase CPI behavior (whole-program CoV would be "
          f"{whole_program_cov(intervals):.1%}):")
    for phase in sorted(cov.per_phase):
        mask = intervals.phase_ids == phase
        mean_cpi = float(np.average(intervals.cpis[mask],
                                    weights=intervals.lengths[mask]))
        print(
            f"  phase {phase:2d}: {mask.sum():3d} intervals  "
            f"mean CPI {mean_cpi:5.2f}  CoV {cov.per_phase[phase]:6.2%}  "
            f"({cov.phase_weights[phase]:5.1%} of execution)"
        )
    print(f"\noverall within-phase CoV of CPI: {cov.overall:.2%}")


if __name__ == "__main__":
    main()
