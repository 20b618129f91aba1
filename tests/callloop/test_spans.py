"""The span builder equals the bulk walk's edge map exactly — order,
moments and sources — and its edge-open index equals the walk's opens
(rows, instruction counts, every-Nth positions), or it declines with a
counted reason."""

import numpy as np
import pytest

from repro.callloop.graph import NodeTable
from repro.callloop.profiler import CallLoopProfiler, _MomentBuilder
from repro.callloop.serialization import graph_to_dict
from repro.callloop import spans
from repro.callloop.spans import SpanBuilder
from repro.callloop.walker import ContextHandler, ContextWalker
from repro.engine import Machine, record_trace
from repro.engine.events import K_BLOCK, K_BRANCH, K_RETURN
from repro.engine.tracing import Trace
from repro.ir import ProgramBuilder
from repro.ir.program import ProgramInput
from repro.telemetry import telemetry_session
from repro.verify.diff import _DepthCapped
from repro.verify.fuzz import DEFAULT_MAX_CALL_DEPTH, build_program, generate_spec
from repro.workloads import all_workloads


def _flat(edges):
    return [
        (key, (m.count, m.total, m.sumsq, m.max_value, m.min_value), sources, last)
        for key, (m, sources, last) in edges.items()
    ]


def walk_edges(program, trace):
    handler = _MomentBuilder()
    total = ContextWalker(program, NodeTable(program)).walk(trace, handler)
    return _flat(handler.edges), total


class _OpenLog(ContextHandler):
    """Every open of a walk as ``(row, t, position)`` per edge: the
    position counts a head->body edge's opens since the last open into
    its head, as a merged marker's counter does."""

    def __init__(self, walker, nodes):
        self.walker = walker
        self.nodes = nodes
        self.opens = {}
        self.since = {}

    def on_edge_open(self, src, dst, t, source):
        if self.nodes[dst].kind.is_head:
            self.since[dst] = pos = 0
        else:
            pos = self.since[src]
            self.since[src] = pos + 1
        key = (self.nodes[src], self.nodes[dst])
        self.opens.setdefault(key, []).append((self.walker.row, t, pos))


def walk_opens(program, trace):
    table = NodeTable(program)
    walker = ContextWalker(program, table)
    log = _OpenLog(walker, table.nodes)
    walker.walk(trace, log)
    return log.opens


#: every-Nth filters the index is checked with
EVERY = (1, 2, 3)


def every_nth(opens):
    """Each edge's ``(row, t)`` opens whose position is a multiple of N,
    for each N in ``EVERY``."""
    return {
        key: {n: [(r, t) for r, t, p in got if p % n == 0] for n in EVERY}
        for key, got in opens.items()
    }


def span_edges(program, trace):
    got = SpanBuilder(program, NodeTable(program)).build(trace)
    assert not isinstance(got, str), f"declined: {got}"
    edges, total, opens = got
    assert opens.total == total
    by_edge = {
        key: {
            n: list(zip(*(col.tolist() for col in opens.of(*key, every=n))))
            for n in EVERY
        }
        for key in opens.edges
    }
    return _flat(edges), total, by_edge


def assert_matches_walk(program, trace, chunk_rows=7):
    """Equal as built, and with the row scan cut into *chunk_rows*-row
    chunks, so the running count, the previous chain and a pending
    segment head cross chunk edges; a pass that collects no index builds
    the same edge map."""
    want = (*walk_edges(program, trace), every_nth(walk_opens(program, trace)))
    assert span_edges(program, trace) == want
    edges, total, opens = SpanBuilder(program, NodeTable(program)).build(
        trace, index=False
    )
    assert opens is None and (_flat(edges), total) == want[:2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spans, "_SCAN_CHUNK_ROWS", chunk_rows)
        assert span_edges(program, trace) == want


def record(program, seed=1):
    return record_trace(Machine(program, ProgramInput("i", seed=seed)))


def rows_where(trace, keep):
    return Trace(trace.ids[keep], trace.table)


def with_block_row(trace, i, **values):
    """*trace* with its *i*-th block row's columns set to *values*."""
    cols = {name: getattr(trace, name).copy() for name in ("kinds", "a", "b", "c")}
    row = np.flatnonzero(cols["kinds"] == K_BLOCK)[i]
    for name, value in values.items():
        cols[name][row] = value
    return Trace.from_columns(**cols)


def block_named(program, label):
    (block,) = [b for b in program.blocks if b.label == label]
    return block


def without_block(trace, block, which=slice(None)):
    """*trace* minus the executions of *block* picked by *which* (and
    the branch rows its terminator fired)."""
    hits = np.flatnonzero(
        ((trace.kinds == K_BLOCK) & (trace.b == block.address))
        | ((trace.kinds == K_BRANCH) & (trace.a == block.end_address))
    )
    keep = np.ones(len(trace), dtype=bool)
    keep[hits[which]] = False
    return rows_where(trace, keep)


# -- equal to the walk -----------------------------------------------------


@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
def test_matches_the_walk_on_corpus_ref_traces(workload):
    (w,) = [w for w in all_workloads() if w.name == workload]
    program = w.build()
    trace = record_trace(Machine(program, w.ref_input))
    assert_matches_walk(program, trace, chunk_rows=1000)


@pytest.mark.parametrize("seed", range(40))
def test_matches_the_walk_on_fuzz_programs(seed):
    program, program_input = build_program(generate_spec(seed))
    events = Machine(program, program_input, max_instructions=20_000).run()
    trace = record_trace(_DepthCapped(events, DEFAULT_MAX_CALL_DEPTH))
    assert_matches_walk(program, trace)


def test_empty_trace(toy_program):
    trace = record(toy_program)
    assert_matches_walk(toy_program, rows_where(trace, slice(0, 0)))


def test_trace_without_calls(loop_only_program):
    trace = record(loop_only_program)
    assert not (trace.kinds > K_BRANCH).any()
    assert_matches_walk(loop_only_program, trace)


# -- callback order within one row -------------------------------------------


def _nest():
    b = ProgramBuilder("nest")
    with b.proc("main"):
        b.code(3)
        with b.loop("outer", trips=4):
            b.code(2)
            with b.loop("inner", trips=3):
                b.code(4)
            b.call("f")
        b.code(2)
    with b.proc("f"):
        b.code(1)
        with b.loop("fa", trips=2):
            with b.loop("fb", trips=3):
                b.code(5)
    return b.build()


def test_inner_exit_and_outer_back_edge_on_one_row():
    """Without the outer latch, the outer header follows the inner
    latch: the inner loop exits and the outer back-edge fires on one
    row (and the last iteration exits both loops on one row)."""
    b = ProgramBuilder("row")
    with b.proc("main"):
        with b.loop("outer", trips=4):
            with b.loop("inner", trips=3):
                b.code(4)
        b.code(2)
    program = b.build()
    trace = without_block(record(program), block_named(program, "outer.latch"))
    assert_matches_walk(program, trace)


def test_return_closes_open_loops():
    """f's last rows are its inner latch, so the RETURN closes fb, then
    fa, then f's body and head edges."""
    program = _nest()
    trace = without_block(record(program), block_named(program, "fa.latch"))
    assert_matches_walk(program, trace)


@pytest.mark.parametrize("cut", [40, 77, 101, 130])
def test_end_of_trace_closes_nested_frames(cut):
    """A trace cut inside f inside main's loops: the end closes f's
    loops and frame, then main's, from the top of the stack down."""
    program = _nest()
    trace = record(program)
    assert cut < len(trace)
    assert_matches_walk(program, rows_where(trace, slice(0, cut)))


def test_recursion(recursive_program):
    assert_matches_walk(recursive_program, record(recursive_program, seed=5))


def test_loops_inside_recursion():
    """Activations of one loop in frames at different depths never
    interleave, so recursion needs no decline."""
    b = ProgramBuilder("recloop")
    with b.proc("main"):
        with b.loop("calls", trips=6):
            b.call("r")
    with b.proc("r"):
        with b.loop("spin", trips=2):
            b.code(8)
            with b.if_(0.3):
                b.call("r")
        b.code(2)
    program = b.build()
    trace = record(program, seed=11)
    assert (trace.kinds == K_RETURN).sum() > 12  # it did recurse
    assert_matches_walk(program, trace)


# -- runs of header rows ------------------------------------------------------


def _built(program, trace):
    """A builder that has built *trace*, for its work counts."""
    builder = SpanBuilder(program, NodeTable(program))
    assert not isinstance(builder.build(trace), str)
    return builder


def _loop_calling(callee_has_loop):
    b = ProgramBuilder("calls")
    with b.proc("main"):
        with b.loop("spin", trips=5):
            b.code(3)
            b.call("f")
        b.code(1)
    with b.proc("f"):
        b.code(2)
        if callee_has_loop:
            with b.loop("inner", trips=3):
                b.code(4)
    return b.build()


def test_run_continues_across_a_loop_free_call():
    """The CALL/RETURN rows between two header rows of one loop cut no
    run when the callee has no loop: the loop's five header rows are one
    run."""
    program = _loop_calling(callee_has_loop=False)
    trace = record(program)
    assert_matches_walk(program, trace)
    assert _built(program, trace).runs == 1


def test_run_breaks_and_resumes_around_a_call_with_loops():
    """The callee's header rows cut the caller's run: each of spin's
    later runs starts by closing the iteration its previous run left
    open, and each inner activation is a run of its own."""
    program = _loop_calling(callee_has_loop=True)
    trace = record(program)
    assert_matches_walk(program, trace)
    assert _built(program, trace).runs == 10


def test_plain_back_edge_on_the_first_block_after_a_return():
    """Without the latch, spin's header is the first block row after
    the call in its body returns: a segment head that only closes an
    iteration, inside a run that continues across the call."""
    program = _loop_calling(callee_has_loop=False)
    trace = without_block(record(program), block_named(program, "spin.latch"))
    assert_matches_walk(program, trace)
    assert _built(program, trace).runs == 1


def test_unused_table_row_with_a_wrong_address_does_not_decline():
    """Addresses are checked once per table row, but only the rows the
    trace uses count."""
    program = _nest()
    trace = record(program)
    header = block_named(program, "inner.header")
    table = np.vstack([trace.table, [K_BLOCK, header.block_id, 0x7FFF_FFFF, 4]])
    assert_matches_walk(program, Trace(trace.ids, table))


def test_runs_and_general_rows_counted_once_per_profile():
    program = _loop_calling(callee_has_loop=True)
    trace = record(program)
    built = _built(program, trace)
    with telemetry_session() as tm:
        CallLoopProfiler(program).profile_trace(trace)
    counters = tm.metrics.counters
    assert counters["callloop.profile.runs"] == built.runs == 10
    assert counters["callloop.profile.general_rows"] == built.general_rows > 0


# -- declines: counted, then walked ------------------------------------------


def _declined(program, trace, reason):
    assert SpanBuilder(program, NodeTable(program)).build(trace) == reason
    with telemetry_session() as tm:
        graph = CallLoopProfiler(program).profile_trace(trace)
    counters = {
        k: v for k, v in tm.metrics.counters.items() if k.startswith("callloop.profile.")
    }
    assert counters == {
        f"callloop.profile.fallback.{reason}": 1,
        "callloop.profile.instructions": graph.total_instructions,
    }
    walked = CallLoopProfiler(program).walk_trace(trace)
    assert graph_to_dict(graph) == graph_to_dict(walked)


def test_declines_unknown_block_address():
    program = _nest()
    trace = with_block_row(record(program), 5, b=0x7FFF_FFFF)
    _declined(program, trace, "unknown_address")


def test_declines_a_region_entered_off_its_header():
    program = _nest()
    trace = without_block(record(program), block_named(program, "inner.header"), 0)
    _declined(program, trace, "off_header")


def test_declines_a_return_without_a_call():
    program = _nest()
    trace = record(program)
    stray = Trace.from_columns(
        np.append(trace.kinds, K_RETURN),
        np.append(trace.a, 0),
        np.append(trace.b, 0),
        np.append(trace.c, 0),
    )
    _declined(program, stray, "unbalanced")


def test_declines_a_span_too_long_for_int64_moments():
    program = _nest()
    trace = with_block_row(record(program), -3, c=2**32)
    _declined(program, trace, "overflow")


def test_spans_counted_once_per_profile(toy_program):
    with telemetry_session() as tm:
        CallLoopProfiler(toy_program).profile_trace(record(toy_program))
    assert tm.metrics.counters["callloop.profile.spans"] == 1
    assert not any(k.startswith("callloop.walk") for k in tm.metrics.counters)
