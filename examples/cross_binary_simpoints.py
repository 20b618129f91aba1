#!/usr/bin/env python
"""Cross-binary simulation points (the paper's Sections 6.2 and 6.2.1).

Scenario: an architecture study recompiles a benchmark (new optimization
level, even a new ISA) and wants to keep simulating *the same portions of
execution*.  Fixed-length simulation points break immediately — offsets
shift.  Marker-based simulation points survive: markers anchor to source
structure, so the same markers fire in the same order in every build.

The example:

1. selects limit markers (bounded interval size) on the base binary;
2. runs VLI SimPoint to pick simulation points;
3. recompiles at -O0 and at peak optimization, maps the markers through
   source locations, and verifies the marker traces are identical —
   which lets each simulation point be located in the new binaries by
   its firing index.

Run:  python examples/cross_binary_simpoints.py
"""

from repro import (
    LimitParams,
    Machine,
    build_call_loop_graph,
    map_markers,
    marker_trace,
    record_trace,
    select_markers_with_limit,
    split_at_markers,
    attach_metrics,
)
from repro.callloop.crossbinary import traces_identical
from repro.ir.linker import ALPHA_O0, ALPHA_PEAK, link
from repro.simpoint import SimPointOptions, filter_by_coverage, run_simpoint_on_intervals
from repro.simpoint.error import estimate_metric, relative_error, true_weighted_metric
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("mgrid")
    base = workload.build()
    ref = workload.ref_input
    print(f"workload: {workload.spec_name}\n")

    # 1. markers with a bounded maximum interval size (Section 5.2)
    graph = build_call_loop_graph(base, [ref])
    markers = select_markers_with_limit(
        graph, LimitParams(ilower=10_000, max_limit=200_000)
    ).markers
    print(f"{len(markers)} limit markers selected on the base binary")

    # 2. VLI SimPoint on the base binary
    trace = record_trace(Machine(base, ref))
    intervals = split_at_markers(base, trace, markers)
    attach_metrics(intervals, trace, base, ref)
    result = run_simpoint_on_intervals(
        intervals, SimPointOptions(k_max=30), weighted=True
    )
    coverage = filter_by_coverage(result, intervals, 0.99)
    true_cpi = true_weighted_metric(intervals, intervals.cpis)
    est_cpi = estimate_metric(coverage, intervals.cpis)
    print(
        f"SimPoint: {result.k} phases, {len(coverage.sim_point_indices)} "
        f"simulation points cover {coverage.coverage:.1%} of execution"
    )
    print(
        f"simulate {coverage.simulated_instructions:,} of "
        f"{trace.total_instructions:,} instructions -> CPI error "
        f"{relative_error(est_cpi, true_cpi):.2%}\n"
    )

    # 3. the same simulation points on recompiled binaries
    base_firings = marker_trace(base, ref, markers, trace=trace)
    for variant in (ALPHA_O0, ALPHA_PEAK):
        target = link(base, variant)
        report = map_markers(markers, target)
        target_firings = marker_trace(target, ref, report.markers)
        identical = traces_identical(base_firings, target_firings)
        print(
            f"{variant.name:12s}: {len(report.mapped)}/{len(markers)} markers "
            f"mapped via source, {len(target_firings)} firings, "
            f"order identical: {identical}"
        )
        assert identical, "simulation points would not transfer!"
    print(
        "\nevery simulation point can be located in the recompiled binaries "
        "by its marker firing index — the same source-level execution region "
        "is simulated in every build."
    )


if __name__ == "__main__":
    main()
