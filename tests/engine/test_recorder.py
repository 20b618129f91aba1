"""Every path of the row-template recorder against the ``Machine.run``
reference: tiled, drawn and per-iteration loops, instruction-cap
crossings, strict mode, deep recursion, the loop-path counters and the
per-iteration reasons, and the id form of the recording."""

import numpy as np
import pytest

from repro.engine import Machine, record_trace
from repro.engine.machine import ExecutionLimitExceeded
from repro.engine.recorder import PER_ITERATION_REASONS
from repro.engine.rng import make_rng
from repro.engine.tracing import Trace
from repro.ir import NormalTrips, ProgramBuilder, UniformTrips
from repro.ir.program import ProgramInput
from repro.telemetry import chrome_events, telemetry_session

INPUT = ProgramInput("i", {"n": 40}, seed=9)


def check(program, inp=INPUT, **kw):
    """Record *program* and assert it equals the run() reference."""
    machine = Machine(program, inp, **kw)
    fast = machine.record()
    reference = Machine(program, inp, **kw)
    want = Trace.from_events(reference.run())
    assert len(fast) == len(want)
    for name in ("kinds", "a", "b", "c"):
        assert np.array_equal(getattr(fast, name), getattr(want, name)), name
    assert machine.instructions_executed == reference.instructions_executed
    return fast, machine


def sweep_caps(program, inp=INPUT):
    """Cap at every instruction count of the run: each executed block
    with a nonzero size is the crossing block of exactly one cap."""
    total = check(program, inp)[1].instructions_executed
    for cap in range(total + 2):
        check(program, inp, max_instructions=cap)


def gzip_shaped():
    """One ``if`` with straight-line arms around straight-line runs."""
    b = ProgramBuilder("gzipish")
    with b.proc("main"):
        with b.loop("scan", trips=NormalTrips("n", 0.1)):
            b.code(5)
            with b.if_(0.25):
                b.code(3)
                b.call("leaf")
            with b.else_():
                b.code(2)
            b.code(1)
    with b.proc("leaf"):
        b.code(4)
    return b.build()


def perlbmk_shaped():
    """A ``switch`` with one arm calling a procedure whose loop draws."""
    b = ProgramBuilder("perlish")
    with b.proc("main"):
        with b.loop("dispatch", trips="n"):
            b.code(6)
            with b.switch([0.4, 0.25, 0.2, 0.15]) as sw:
                with sw.case():
                    b.code(6)
                with sw.case():
                    b.code(8)
                with sw.case():
                    pass
                with sw.case():
                    b.call("op_string")
    with b.proc("op_string"):
        with b.loop("strcopy", trips=UniformTrips(2, 18)):
            b.code(6)
    return b.build()


def nested():
    """Nested tiled, drawn and general loops, zero-trip ones included."""
    b = ProgramBuilder("nest")
    with b.proc("main"):
        with b.loop("outer", trips=UniformTrips(0, 4)):
            with b.loop("tiled", trips=UniformTrips(0, 3)):
                b.code(2)
            with b.loop("drawn", trips=UniformTrips(0, 3)):
                with b.switch([1, 2]) as sw:
                    with sw.case():
                        b.code(1)
                    with sw.case():
                        b.code(2)
            with b.if_(0.5):
                with b.loop("never", trips=0):
                    b.code(9)
        b.code(3)
    return b.build()


def test_bulk_draw_matches_scalar_draws():
    """``rng.random(n)`` draws the values and leaves the generator state
    of ``n`` scalar ``random()`` calls, also after a buffered 32-bit
    ``integers`` draw."""
    bulk, scalar = make_rng(3, "control", "x"), make_rng(3, "control", "x")
    for n in (1, 2, 17, 1000):
        assert bulk.integers(2, 19) == scalar.integers(2, 19)
        assert bulk.random(n).tolist() == [scalar.random() for _ in range(n)]
        assert bulk.bit_generator.state == scalar.bit_generator.state


def test_gzip_shaped_loop_is_drawn():
    _, machine = check(gzip_shaped())
    assert machine.loop_entries == {"tiled": 0, "drawn": 1, "per_iteration": 0}


def test_perlbmk_shaped_switch_interprets_only_the_drawing_arm():
    trace, machine = check(perlbmk_shaped())
    assert machine.loop_entries["per_iteration"] == 1
    assert machine.loop_entries["tiled"] > 0  # one per op_string call
    assert trace.total_instructions > 0


def test_nested_and_zero_trip_loops():
    for seed in range(8):
        check(nested(), INPUT.with_seed(seed))


def test_zero_size_blocks():
    """The IR forbids empty blocks, but the engine must not depend on it:
    zero-size loop glue and bodies record like the reference."""

    class Empty:
        size = 0

    program = nested()
    for block in program.blocks:
        if block.label.startswith(("tiled", "drawn")) or block.size == 2:
            block.mix = Empty()
    check(program)
    sweep_caps(program)


@pytest.mark.parametrize(
    "build", [gzip_shaped, perlbmk_shaped, nested], ids=lambda f: f.__name__
)
def test_cap_crossing_anywhere(build):
    """Crossings in headers, arms, latches, tiled and drawn pieces all
    stop at the reference's block with its instruction count."""
    sweep_caps(build(), ProgramInput("i", {"n": 6}, seed=5))


def test_strict_raises_on_crossing():
    program = perlbmk_shaped()
    with pytest.raises(ExecutionLimitExceeded):
        record_trace(Machine(program, INPUT, max_instructions=100, strict=True))
    machine = Machine(program, INPUT, max_instructions=10**9, strict=True)
    assert len(machine.record()) > 0


def test_deep_recursion():
    """Self-recursion 400 calls deep, cut by the instruction cap."""
    b = ProgramBuilder("deep")
    with b.proc("main"):
        b.call("f")
    with b.proc("f"):
        b.code(1)
        with b.if_(1.0):
            b.call("f")
    trace, _ = check(b.build(), max_instructions=400 * 5)
    assert int((trace.kinds == 2).sum()) == 400


def test_rows_from_many_loop_entries_keep_order():
    b = ProgramBuilder("order")
    with b.proc("main"):
        with b.loop("outer", trips=200):
            b.code(1)
            with b.loop("inner", trips=UniformTrips(0, 6)):
                b.code(2)
            b.code(3)
    trace, _ = check(b.build())
    assert len(trace) > 2000


def test_rows_after_a_drawn_loop_keep_order():
    b = ProgramBuilder("drawn_then_rows")
    with b.proc("main"):
        with b.loop("L", trips=300):
            with b.if_(0.3):
                b.code(2)
        for size in (1, 2, 3):
            b.code(size)
    trace, _ = check(b.build())
    assert trace.c[-3:].tolist() == [1, 2, 3]


def test_record_twice_reuses_compiled_templates():
    machine = Machine(perlbmk_shaped(), INPUT)
    first = machine.record()
    compiled = machine._recorder
    again = machine.record()
    assert machine._recorder is compiled
    for name in ("kinds", "a", "b", "c"):
        assert np.array_equal(getattr(again, name), getattr(first, name)), name


def test_loop_path_counters_under_telemetry():
    """Loop entries by path are counted once per recording."""
    with telemetry_session() as tm:
        machine = Machine(perlbmk_shaped(), INPUT)
        record_trace(machine)
        record_trace(Machine(gzip_shaped(), INPUT))
    counters = tm.metrics.counters
    assert counters["engine.record.loops.tiled"] == machine.loop_entries["tiled"]
    assert counters["engine.record.loops.drawn"] == 1
    assert counters["engine.record.loops.per_iteration"] == 1
    assert "engine.trace.chunks" not in counters
    # the recorder attribute must not clobber the exported span path
    spans = [e for e in chrome_events(tm) if e["name"] == "engine.record_trace"]
    assert len(spans) == 2
    for span in spans:
        assert span["args"]["path"] == "engine.record_trace"
        assert span["args"]["recorder"] == "rows"


def _loop_with(body):
    """A program whose one loop, 5 trips, holds *body*(builder)."""
    b = ProgramBuilder("why")
    with b.proc("main"):
        with b.loop("L", trips=5):
            b.code(2)
            body(b)
    with b.proc("draws"):
        with b.if_(0.5):
            b.code(1)
    return b.build()


def _nested_loop(b):
    with b.loop("inner", trips=2):
        b.code(1)


def _drawing_call(b):
    b.call("draws")


def _second_branch(b):
    with b.if_(0.5):
        b.code(1)
    with b.if_(0.5):
        b.code(3)


def _drawing_arm(b):
    with b.if_(0.5):
        with b.if_(0.5):
            b.code(1)


@pytest.mark.parametrize(
    "reason, body",
    [
        ("nested_loop", _nested_loop),
        ("drawing_call", _drawing_call),
        ("second_branch", _second_branch),
        ("drawing_arm", _drawing_arm),
    ],
)
def test_per_iteration_reason_counted(reason, body):
    """Each compile-time cause of the per-iteration path counts its
    loop's entries under its own reason, and under telemetry as
    ``engine.record.loops.per_iteration.<reason>``."""
    _, machine = check(_loop_with(body))
    assert machine.loop_entries["per_iteration"] == 1
    assert machine.per_iteration == {
        r: int(r == reason) for r in PER_ITERATION_REASONS
    }
    with telemetry_session() as tm:
        record_trace(Machine(_loop_with(body), INPUT))
    counters = tm.metrics.counters
    assert counters[f"engine.record.loops.per_iteration.{reason}"] == 1
    assert not any(
        k.startswith("engine.record.loops.per_iteration.")
        for k in counters.keys() - {f"engine.record.loops.per_iteration.{reason}"}
    )


def test_recording_is_ids_over_its_static_rows():
    """The recorder returns int16 ids into a table of distinct static
    rows, and columns rebuilt from the derived ones read the same."""
    trace, _ = check(perlbmk_shaped())
    assert trace.ids.dtype == np.int16
    assert trace.table.dtype == np.int64 and trace.table.shape[1] == 4
    assert len(np.unique(trace.table, axis=0)) == len(trace.table)
    assert int(trace.ids.min()) >= 0 and int(trace.ids.max()) < len(trace.table)
    columns = Trace.from_columns(trace.kinds, trace.a, trace.b, trace.c)
    for name in ("kinds", "a", "b", "c"):
        assert np.array_equal(getattr(columns, name), getattr(trace, name)), name
