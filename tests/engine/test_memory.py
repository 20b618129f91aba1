"""Unit tests for the memory address-stream generator."""

import numpy as np
import pytest

from repro.engine import Machine, MemorySystem, record_trace
from repro.ir import ProgramBuilder
from repro.ir.program import MemPattern, MemSpec, ParamExpr, ProgramInput
from repro.workloads import all_workloads, get_workload


def build_mem_program(mem_spec):
    b = ProgramBuilder("p")
    with b.proc("main"):
        with b.loop("l", trips=100):
            b.code(10, loads=4, mem=mem_spec, label="body")
    return b.build()


def run_addresses(prog, inp):
    trace = record_trace(Machine(prog, inp).run())
    ms = MemorySystem(prog, inp)
    return ms.addresses_for_blocks(trace.block_ids())


def test_counts_match_mem_ops():
    prog = build_mem_program(ProgramBuilder.wset("heap", 1 << 14))
    addrs = run_addresses(prog, ProgramInput("i"))
    assert len(addrs) == 100 * 4  # 4 loads per body execution


def test_seq_pattern_is_strided():
    prog = build_mem_program(ProgramBuilder.seq("arr", footprint=1 << 20, stride=8))
    addrs = run_addresses(prog, ProgramInput("i"))
    deltas = np.diff(addrs)
    assert (deltas == 8).mean() > 0.99  # wraps at most once here


def test_wset_stays_within_footprint():
    fp = 1 << 12
    prog = build_mem_program(ProgramBuilder.wset("heap", fp))
    addrs = run_addresses(prog, ProgramInput("i"))
    assert addrs.max() - addrs.min() < fp


def test_chase_touches_distinct_lines():
    fp = 1 << 16
    prog = build_mem_program(ProgramBuilder.chase("list", fp))
    addrs = run_addresses(prog, ProgramInput("i"))
    lines = np.unique(addrs // 64)
    assert len(lines) > 100  # walks many distinct cache lines


def test_regions_disjoint():
    b = ProgramBuilder("p")
    with b.proc("main"):
        b.code(5, loads=2, mem=b.wset("a", 1 << 12), label="x")
        b.code(5, loads=2, mem=b.wset("b", 1 << 12), label="y")
    prog = b.build()
    inp = ProgramInput("i")
    ms = MemorySystem(prog, inp)
    ax = ms.addresses_for_block(prog.blocks[0].block_id)
    by = ms.addresses_for_block(prog.blocks[1].block_id)
    assert abs(int(ax[0]) - int(by[0])) > (1 << 20)


def test_param_footprint():
    spec = MemSpec(MemPattern.WSET, "heap", ParamExpr("bytes"))
    prog = build_mem_program(spec)
    small = run_addresses(prog, ProgramInput("i", {"bytes": 1 << 10}))
    large = run_addresses(prog, ProgramInput("i", {"bytes": 1 << 20}))
    assert (small.max() - small.min()) < (large.max() - large.min())


def test_deterministic():
    prog = build_mem_program(ProgramBuilder.wset("heap", 1 << 14))
    inp = ProgramInput("i", seed=9)
    a = run_addresses(prog, inp)
    b = run_addresses(prog, inp)
    assert np.array_equal(a, b)


def test_reset_rewinds_pools():
    prog = build_mem_program(ProgramBuilder.seq("arr", footprint=1 << 20))
    inp = ProgramInput("i")
    ms = MemorySystem(prog, inp)
    bid = next(b.block_id for b in prog.blocks if b.label == "body")
    first = ms.addresses_for_block(bid).copy()
    ms.addresses_for_block(bid)
    ms.reset()
    again = ms.addresses_for_block(bid)
    assert np.array_equal(first, again)


def test_blocks_without_mem_yield_nothing():
    b = ProgramBuilder("p")
    with b.proc("main"):
        b.code(5)
    prog = b.build()
    ms = MemorySystem(prog, ProgramInput("i"))
    assert len(ms.addresses_for_block(0)) == 0


def test_pool_wraparound_take():
    from repro.engine.memory import _Pool

    pool = _Pool(np.arange(5, dtype=np.int64))
    got = pool.take(12)
    assert got.tolist() == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]
    assert pool.take(2).tolist() == [2, 3]


def test_empty_pool_rejected():
    from repro.engine.memory import _Pool

    with pytest.raises(ValueError):
        _Pool(np.empty(0, dtype=np.int64))


def _per_block(ms, block_ids):
    chunks = [ms.addresses_for_block(b) for b in block_ids.tolist()]
    chunks = [c for c in chunks if len(c)]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_gather_matches_per_block_calls(name):
    """One vectorized gather equals repeated addresses_for_block calls,
    starting mid-pool, and leaves every cursor where they would."""
    workload = get_workload(name)
    program = workload.build()
    trace = record_trace(Machine(program, workload.train_input))
    ids = trace.block_ids()
    fast = MemorySystem(program, workload.train_input)
    slow = MemorySystem(program, workload.train_input)
    head = ids[:101]
    assert np.array_equal(fast.addresses_for_blocks(head), _per_block(slow, head))
    assert np.array_equal(fast.addresses_for_blocks(ids[101:]), _per_block(slow, ids[101:]))
    for bid in ids[:300].tolist():
        assert np.array_equal(fast.addresses_for_block(bid), slow.addresses_for_block(bid))


def test_gather_wraps_shared_pools():
    """Takes longer than their pool wrap around it more than once, and
    blocks sharing a pool advance one cursor."""
    b = ProgramBuilder("p")
    tiny = MemSpec(MemPattern.SEQ, "tiny", 24, 8)  # a 3-address pool
    with b.proc("main"):
        with b.loop("l", trips=7):
            b.code(10, loads=7, mem=tiny, label="long")
            b.code(4, loads=2, mem=tiny, label="short")
            b.code(3, label="none")
    prog = b.build()
    inp = ProgramInput("i")
    ids = record_trace(Machine(prog, inp)).block_ids()
    fast, slow = MemorySystem(prog, inp), MemorySystem(prog, inp)
    want = _per_block(slow, ids)
    assert len(want) == 7 * 9
    assert np.array_equal(fast.addresses_for_blocks(ids), want)
    assert np.array_equal(fast.accesses_for_blocks(ids).sum(), len(want))
    assert [p.cursor for p in fast._pools.values()] == [
        p.cursor for p in slow._pools.values()
    ]


def test_gather_of_nothing():
    prog = build_mem_program(ProgramBuilder.wset("heap", 1 << 14))
    ms = MemorySystem(prog, ProgramInput("i"))
    assert len(ms.addresses_for_blocks(np.empty(0, dtype=np.int64))) == 0
