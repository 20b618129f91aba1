"""Trace assembly in ``Machine.record``: ordering, splicing, empty and
reused recordings, each checked against the ``Machine.run`` reference,
and the one id form every trace builder produces."""

import numpy as np
import pytest

from repro.engine import Machine, record_trace
from repro.engine.events import K_BLOCK, K_BRANCH, K_CALL, K_RETURN
from repro.engine.tracing import Trace, id_dtype
from repro.ir import ProgramBuilder
from repro.ir.program import ProgramInput


def assert_traces_equal(got: Trace, want: Trace):
    assert len(got) == len(want)
    for name in ("kinds", "a", "b", "c"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).dtype == getattr(want, name).dtype, name


def record_and_reference(program, inp, **kw):
    machine = Machine(program, inp, **kw)
    fast = record_trace(machine)
    reference = Machine(program, inp, **kw)
    want = record_trace(reference.run())
    assert_traces_equal(fast, want)
    assert machine.instructions_executed == reference.instructions_executed
    return fast, machine


def test_empty_builder():
    """A recording that emits no row still builds a well-typed Trace."""
    b = ProgramBuilder("empty")
    with b.proc("main"):
        b.code(5)
    trace, machine = record_and_reference(
        b.build(), ProgramInput("i"), max_instructions=0
    )
    assert len(trace) == 0
    assert trace.total_instructions == 0
    assert list(trace.replay()) == []
    assert machine.instructions_executed == 5  # counted, never emitted


def test_single_event():
    b = ProgramBuilder("one")
    with b.proc("main"):
        b.code(7)
    program = b.build()
    trace, _ = record_and_reference(program, ProgramInput("i"))
    block = program.blocks[0]
    assert trace.kinds.tolist() == [K_BLOCK]
    assert (trace.a[0], trace.b[0], trace.c[0]) == (block.block_id, block.address, 7)


def test_append_rows_splices_between_scalar_rows():
    """A long tiled loop lands exactly between the rows around it."""
    b = ProgramBuilder("splice")
    with b.proc("main"):
        b.call("f")
    with b.proc("f"):
        b.code(3)
        with b.loop("L", trips=500):
            b.code(2)
        b.code(4)
    trace, _ = record_and_reference(b.build(), ProgramInput("i"))
    kinds = trace.kinds.tolist()
    assert kinds[:3] == [K_BLOCK, K_CALL, K_BLOCK]
    assert kinds[-2:] == [K_BLOCK, K_RETURN]
    assert kinds.count(K_BRANCH) == 500


def test_append_empty_rows_is_noop():
    """Zero-trip loops on every recorder path add no rows."""
    b = ProgramBuilder("zero")
    with b.proc("main"):
        b.code(3)
        with b.loop("tiled", trips=0):
            b.code(2)
        with b.loop("drawn", trips=0):
            with b.if_(0.5):
                b.code(2)
        with b.loop("iter", trips=0):
            with b.loop("inner", trips=2):
                b.code(2)
        b.code(4)
    trace, machine = record_and_reference(b.build(), ProgramInput("i"))
    assert trace.c.tolist() == [3, 4]
    assert machine.loop_entries == {"tiled": 1, "drawn": 1, "per_iteration": 1}


def test_fast_record_matches_object_path(toy_program, toy_input):
    fast = record_trace(Machine(toy_program, toy_input))
    oracle = record_trace(Machine(toy_program, toy_input).run())
    assert_traces_equal(fast, oracle)


def test_fast_record_matches_object_path_recursive(recursive_program, toy_input):
    fast = record_trace(Machine(recursive_program, toy_input))
    oracle = record_trace(Machine(recursive_program, toy_input).run())
    assert_traces_equal(fast, oracle)


def test_fast_record_with_instruction_cap(loop_only_program, toy_input):
    """Cap truncation is identical between the two recording paths,
    including the instruction counter (the crossing block is counted
    but not emitted on both)."""
    m_fast = Machine(loop_only_program, toy_input, max_instructions=5000)
    fast = record_trace(m_fast)
    m_orc = Machine(loop_only_program, toy_input, max_instructions=5000)
    oracle = record_trace(m_orc.run())
    assert_traces_equal(fast, oracle)
    assert m_fast.instructions_executed == m_orc.instructions_executed


def test_tiled_loop_straddles_chunk_boundary():
    """A pure-block loop long enough to tile in bulk matches the object
    path row for row."""
    b = ProgramBuilder("tile")
    with b.proc("main"):
        with b.loop("L", trips=300):
            b.code(3)
            b.code(5)
    _, machine = record_and_reference(b.build(), ProgramInput("t", {}, seed=1))
    assert machine.loop_entries["tiled"] == 1


# -- one id form from every builder -------------------------------------------


def assert_three_builders_agree(program, inp, **kw):
    """The recorder's trace, ``from_events`` over ``Machine.run`` and
    ``from_columns`` over the recorder's derived columns: equal derived
    columns, dtypes and totals."""
    fast, _ = record_and_reference(program, inp, **kw)
    columns = Trace.from_columns(fast.kinds, fast.a, fast.b, fast.c)
    assert_traces_equal(columns, fast)
    assert columns.total_instructions == fast.total_instructions
    for trace in (fast, columns):
        assert trace.ids.dtype == np.int16
        assert int(trace.ids.min(initial=0)) >= 0
        assert int(trace.ids.max(initial=-1)) < len(trace.table)
    return fast


def test_corpus_builders_agree():
    from repro.workloads import all_workloads

    for workload in all_workloads():
        assert_three_builders_agree(
            workload.build(), workload.input_for("train"), max_instructions=30_000
        )


def test_fuzz_builders_agree():
    """Seeded fuzz programs, cut at the fuzz loop's instruction cap; a
    program whose calls nest past Python's recursion limit (both
    recorders recurse per call) is left to the fuzz loop's depth cap."""
    from repro.verify.fuzz import DEFAULT_MAX_INSTRUCTIONS, build_program, generate_spec

    compared = 0
    for seed in range(24):
        program, inp = build_program(generate_spec(seed))
        try:
            assert_three_builders_agree(
                program, inp, max_instructions=DEFAULT_MAX_INSTRUCTIONS
            )
        except RecursionError:
            continue
        compared += 1
    assert compared >= 20


def test_derived_columns_are_read_only_and_not_kept(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input))
    assert trace.kinds is not trace.kinds  # derived on each access
    assert not vars(trace).keys() & {"kinds", "a", "b", "c"}
    with pytest.raises(ValueError):
        trace.c[0] = 1


def test_table_shape_and_id_type_are_checked():
    table = np.zeros((3, 4), dtype=np.int64)
    with pytest.raises(ValueError):
        Trace(np.zeros(2, dtype=np.int16), table[:, :3])
    with pytest.raises(ValueError):
        Trace(np.zeros(2, dtype=np.int16), table.astype(np.int32))
    with pytest.raises(ValueError):
        Trace(np.zeros(2, dtype=np.float64), table)
    assert len(Trace(np.zeros(2, dtype=np.int16), table)) == 2


def test_ids_widen_past_int16_tables():
    assert id_dtype(32767) == np.int16 and id_dtype(32768) == np.int32
    n = 40_000
    wide = Trace.from_columns(
        np.zeros(n, dtype=np.int8), np.arange(n), np.zeros(n), np.ones(n)
    )
    assert wide.ids.dtype == np.int32 and len(wide.table) == n
    assert wide.a.tolist() == list(range(n))
    assert wide.total_instructions == n
