"""``pipeline-corpus``: record -> profile -> select -> split -> BBV, in
process and uncached, over every bundled workload on seeded ref inputs.

One operation is one program through the whole pipeline.  Outputs are
checked against digests the reference implementations produced
(``make_refs.py``: ``Machine.run``, ``split_at_markers_scalar`` and the
``np.add.at`` BBV accumulator), one set per input class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.callloop.selection
import repro.engine.tracing
import repro.intervals.bbv
import repro.intervals.vli
from repro.callloop import CallLoopProfiler, SelectionParams
from repro.engine import Machine
from repro.experiments.config import SCALED
from repro.workloads import all_workloads

from perfbench.common import (
    INPUT_CLASSES,
    HostClock,
    Outcome,
    digest,
    load_refs,
    repeat_passes,
    seeded_input,
    span,
)

NAME = "pipeline-corpus"
IMPORTS = ("repro.callloop", "repro.engine", "repro.intervals", "repro.workloads")


def selection_params() -> SelectionParams:
    return SelectionParams(ilower=SCALED.ilower)


def output_digests(trace, intervals, bbvs) -> Dict[str, str]:
    """The digests a reference run committed, for one program."""
    return {
        "trace": digest(trace.kinds, trace.a, trace.b, trace.c),
        "intervals": digest(
            intervals.row_bounds,
            intervals.start_ts,
            intervals.lengths,
            intervals.phase_ids,
        ),
        "bbv": digest(bbvs, dtype=np.float64),
    }


@dataclass
class State:
    #: (name, program, seeded input)
    programs: List[Tuple[str, object, object]]
    refs: Dict[str, Dict[str, str]]


def setup(seed: int, only: Optional[List[str]] = None) -> State:
    refs = load_refs("pipeline.json")
    if refs["input_classes"] != INPUT_CLASSES:
        raise ValueError("pipeline references were made for another class count")
    programs = [
        (wl.name, wl.build(), seeded_input(wl, seed))
        for wl in all_workloads()
        if only is None or wl.name in only
    ]
    return State(programs, refs["classes"][str(seed % INPUT_CLASSES)])


def teardown(state: State) -> None:
    pass


def run_program(program, program_input, params) -> Tuple[float, tuple]:
    """One program through the pipeline: (seconds, outputs).  Every call
    goes through its module attribute, so a traced run's wrappers see it;
    per-stage times come from those spans."""
    start = time.perf_counter()
    trace = repro.engine.tracing.record_trace(Machine(program, program_input))
    graph = CallLoopProfiler(program).profile_trace(trace)
    markers = repro.callloop.selection.select_markers(graph, params).markers
    intervals = repro.intervals.vli.split_at_markers(program, trace, markers)
    bbvs = repro.intervals.bbv.collect_bbvs(intervals, trace, program.num_blocks)
    return time.perf_counter() - start, (trace, intervals, bbvs)


def measure(
    state: State,
    seconds: Optional[float] = None,
    units: Optional[int] = None,
    tracer=None,
) -> Outcome:
    """Whole passes over the corpus (see :func:`repeat_passes`)."""
    params = selection_params()
    out = Outcome(op_label="program pipeline (record..bbv)")
    clock = HostClock()
    out.host_scales = clock.factors

    def one_pass() -> None:
        instructions, busy, raw = 0, 0.0, 0.0
        for name, program, program_input in state.programs:
            with span(tracer, "bench.program", program=name):
                clock.probe()
                seconds_, outputs = run_program(program, program_input, params)
                scaled = seconds_ * clock.scale()
                with span(tracer, "bench.check"):
                    ok = output_digests(*outputs) == {
                        k: state.refs[name][k] for k in ("trace", "intervals", "bbv")
                    }
            out.check(ok)
            out.record(name, scaled)
            busy += scaled
            raw += seconds_
            instructions += int(outputs[0].total_instructions)
            del outputs
        out.end_unit(instructions, busy, raw)

    repeat_passes(out, one_pass, seconds, units)
    return out
