#!/usr/bin/env python
"""Phase-driven adaptive cache reconfiguration (the paper's Section 6.1).

Scenario: an embedded/power-aware core can resize its data cache between
32KB and 256KB (512 sets, 64B lines, 1..8 ways).  Phase markers fire at
code boundaries; the controller explores configurations during a phase's
first two intervals and then locks in the smallest configuration that
does not increase the miss rate.

The example runs the protocol on the swim-like workload — streaming
stencil sweeps that need a large cache interleaved with a compact
boundary phase that doesn't — and reports the average cache size against
the best fixed configuration, plus what happens across inputs (markers
selected on `train`, deployed on `ref`).

Run:  python examples/adaptive_cache.py
"""

import numpy as np

from repro import (
    Machine,
    SelectionParams,
    build_call_loop_graph,
    record_trace,
    select_markers,
    split_at_markers,
    attach_metrics,
)
from repro.cache.reconfig import adaptive_average_size, best_fixed_ways
from repro.workloads import get_workload

WAY_KB = 32.0  # 512 sets x 64B per way
TOLERANCE = 0.002


def reconfigure(program, program_input, markers):
    trace = record_trace(Machine(program, program_input))
    intervals = split_at_markers(program, trace, markers)
    profile = attach_metrics(intervals, trace, program, program_input)
    result = adaptive_average_size(
        intervals.phase_ids,
        intervals.lengths,
        profile.accesses,
        profile.hits,
        tolerance=TOLERANCE,
    )
    fixed_ways = best_fixed_ways(profile.accesses, profile.hits, TOLERANCE)
    return result, fixed_ways * WAY_KB, intervals


def main() -> None:
    workload = get_workload("swim")
    program = workload.build()
    print(f"workload: {workload.spec_name} — {workload.description}\n")

    for trained_on in ("ref", "train"):
        graph = build_call_loop_graph(program, [workload.inputs[trained_on]])
        markers = select_markers(graph, SelectionParams(ilower=10_000)).markers
        result, best_fixed_kb, intervals = reconfigure(
            program, workload.ref_input, markers
        )
        sizes, counts = np.unique(result.ways_per_interval, return_counts=True)
        histogram = ", ".join(
            f"{int(w) * 32}KB x{c}" for w, c in zip(sizes, counts)
        )
        print(f"markers selected on '{trained_on}', deployed on 'ref':")
        print(f"  {len(markers)} markers -> {len(intervals)} intervals")
        print(f"  configurations used: {histogram}")
        print(f"  average cache size:  {result.avg_size_kb:6.1f} KB")
        print(f"  best fixed size:     {best_fixed_kb:6.1f} KB")
        print(f"  miss-rate increase:  {result.miss_increase:.3%}\n")


if __name__ == "__main__":
    main()
