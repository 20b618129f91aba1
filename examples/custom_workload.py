#!/usr/bin/env python
"""Analyzing your own program with the phase-marker pipeline.

Scenario: you have an application (here: a small ray-tracer-like batch
renderer built with the IR DSL) and want to know its phase structure —
where to place instrumentation hooks, which code regions behave
homogeneously, and how its behavior decomposes.

The example also contrasts the full algorithm with the procedures-only
configuration to show why loops matter (the paper's Section 4.1): the
renderer keeps its hot work inside main's loop nests, so procedure-level
analysis sees almost nothing.

Run:  python examples/custom_workload.py
"""

from repro import (
    Machine,
    ProgramBuilder,
    ProgramInput,
    SelectionParams,
    build_call_loop_graph,
    record_trace,
    select_markers,
    split_at_markers,
    attach_metrics,
    validate_program,
)
from repro.analysis import phase_cov
from repro.ir import NormalTrips


def build_renderer():
    """A batch renderer: per frame, trace rays, shade, then post-process."""
    b = ProgramBuilder("renderer", source_file="render.c")
    with b.proc("main"):
        b.code(30, loads=8, mem=b.seq("scene", 1 << 20), label="load_scene")
        with b.loop("frames", trips="frames"):
            # hot loops live directly in main — procedures alone can't
            # split this program's execution
            with b.loop("trace_rays", trips=NormalTrips("rays", 0.02)):
                b.code(14, loads=6, fp=0.6, mem=b.chase("bvh", 192 * 1024),
                       label="intersect")
            with b.loop("shade", trips=NormalTrips("pixels", 0.02)):
                b.code(11, loads=4, stores=2, fp=0.7,
                       mem=b.wset("textures", 96 * 1024), label="shade_pixel")
            with b.loop("postfx", trips=NormalTrips("pixels", 0.02)):
                b.code(8, loads=2, stores=3, fp=0.5,
                       mem=b.seq("framebuffer", 1 << 18, stride=64),
                       label="tonemap")
        b.code(12, stores=3, label="flush_output")
    return b.build()


def main() -> None:
    program = build_renderer()
    validate_program(program)
    scene = ProgramInput("shot42", {"frames": 25, "rays": 900, "pixels": 700},
                         seed=11)

    trace = record_trace(Machine(program, scene))
    graph = build_call_loop_graph(program, [scene])
    print(graph.summary(), "\n")

    for label, params in (
        ("procedures only", SelectionParams(ilower=10_000, procedures_only=True)),
        ("procedures + loops", SelectionParams(ilower=10_000)),
    ):
        markers = select_markers(graph, params).markers
        intervals = split_at_markers(program, trace, markers)
        attach_metrics(intervals, trace, program, scene)
        cov = phase_cov(intervals)
        print(f"{label}:")
        print(f"  markers: {len(markers)}, phases: {intervals.num_phases}, "
              f"avg interval {intervals.average_length:,.0f} instructions")
        print(f"  within-phase CoV of CPI: {cov.overall:.2%}")
        for marker in markers:
            if marker.avg_interval < trace.total_instructions * 0.5:
                print(f"    instrument at: {marker.describe()}")
        print()

    print("the loop-level markers expose the per-frame ray/shade/postfx "
          "phases that procedure-level analysis cannot see.")


if __name__ == "__main__":
    main()
