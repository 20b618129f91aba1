"""Unit and property tests for the Mattson stack-distance simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, MultiAssocCacheSim, SetAssocCache
from repro.cache import stackdist
from repro.cache.stackdist import profile_events, profile_intervals, stack_depths
from repro.engine import Machine, MemorySystem, record_trace
from repro.intervals import split_fixed
from repro.verify.oracles import oracle_profile_events
from repro.workloads import get_workload


def _lines_to_addresses(tags, sets, num_sets, line_bytes=64):
    return ((tags * num_sets + sets) * line_bytes).astype(np.int64)


def _stream(kind):
    """(addresses, num_sets, line_bytes, max_ways) of one stream shape."""
    rng = np.random.default_rng(11)
    n = 3000
    if kind == "random":
        return rng.integers(0, 1 << 14, size=n) * 8, 16, 64, 8
    if kind == "one-set":
        return _lines_to_addresses(rng.integers(0, 24, n), 0, 512), 512, 64, 8
    if kind == "two-sets":
        sets = rng.integers(0, 2, n)
        return _lines_to_addresses(rng.integers(0, 12, n), sets, 512), 512, 64, 8
    if kind == "many-sets":
        return rng.integers(0, 4096, size=n) * 64, 512, 64, 8
    if kind == "skewed":
        hot = _lines_to_addresses(rng.integers(0, 20, n // 2), 3, 64)
        rest = rng.integers(0, 1024, size=n - n // 2) * 64
        stream = np.concatenate([hot, rest])
        rng.shuffle(stream)
        return stream, 64, 64, 6
    if kind == "repeats":
        lines = rng.integers(0, 2048, size=n // 6)
        return np.repeat(lines, rng.integers(1, 11, len(lines)))[:n] * 64, 128, 64, 4
    raise ValueError(kind)


STREAMS = ("random", "one-set", "two-sets", "many-sets", "skewed", "repeats")


@pytest.mark.parametrize("chunk", [None, 257])
@pytest.mark.parametrize("kind", STREAMS)
def test_kernel_matches_direct_simulation_per_access(kind, chunk, monkeypatch):
    """Access by access and at every associativity, a hit in the kernel
    (1 <= depth <= ways) is a hit in the direct LRU cache; ``chunk``
    cuts the stream so per-set stacks carry across chunk boundaries."""
    if chunk is not None:
        monkeypatch.setattr(stackdist, "CHUNK_ACCESSES", chunk)
    addresses, num_sets, line_bytes, max_ways = _stream(kind)
    depths, _ = stack_depths(addresses, num_sets, line_bytes, max_ways)
    assert depths.dtype == np.int8 and len(depths) == len(addresses)
    for ways in range(1, max_ways + 1):
        direct = SetAssocCache(CacheConfig(num_sets, ways, line_bytes))
        hits = [direct.access(a) for a in addresses.tolist()]
        assert ((depths >= 1) & (depths <= ways)).tolist() == hits, ways


@pytest.mark.parametrize("kind", STREAMS)
def test_kernel_depths_equal_reference_loop(kind):
    addresses, num_sets, line_bytes, max_ways = _stream(kind)
    sim = MultiAssocCacheSim(num_sets, line_bytes, max_ways)
    want = [sim.access(a) for a in addresses.tolist()]
    depths, _ = stack_depths(addresses, num_sets, line_bytes, max_ways)
    assert depths.tolist() == want


def test_kernel_tail_covers_skewed_sets():
    """A stream on one set never runs a lock-step round; a spread one
    never needs the per-access tail."""
    one, num_sets, line_bytes, ways = _stream("one-set")
    _, tail_accesses = stack_depths(one, num_sets, line_bytes, ways)
    assert 0 < tail_accesses <= len(one)
    spread = np.arange(4096, dtype=np.int64) * 64
    _, tail_accesses = stack_depths(spread, 512, 64, 8)
    assert tail_accesses == 0


def test_kernel_rejects_bad_geometry():
    addresses = np.arange(4, dtype=np.int64)
    with pytest.raises(ValueError):
        stack_depths(addresses, 512, 64, 128)
    with pytest.raises(ValueError):
        stack_depths(addresses, 500, 64, 8)
    depths, tail_accesses = stack_depths(np.empty(0, dtype=np.int64))
    assert len(depths) == 0 and tail_accesses == 0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    spread=st.sampled_from([1 << 8, 1 << 12, 1 << 16]),
    num_sets=st.sampled_from([1, 2, 8, 64]),
    ways=st.integers(1, 9),
    chunk=st.sampled_from([64, 1 << 16]),
)
def test_kernel_matches_reference_property(seed, spread, num_sets, ways, chunk):
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, spread, size=int(rng.integers(0, 700))) * 16
    sim = MultiAssocCacheSim(num_sets, 64, ways)
    want = [sim.access(a) for a in addresses.tolist()]
    old = stackdist.CHUNK_ACCESSES
    stackdist.CHUNK_ACCESSES = chunk
    try:
        got, _ = stack_depths(addresses, num_sets, 64, ways)
    finally:
        stackdist.CHUNK_ACCESSES = old
    assert got.tolist() == want


@pytest.mark.parametrize("name", ["lucas", "mgrid", "mcf"])
def test_profile_events_equals_per_event_loop(name):
    workload = get_workload(name)
    program = workload.build()
    trace = record_trace(Machine(program, workload.train_input))
    got = profile_events(trace, MemorySystem(program, workload.train_input))
    want = oracle_profile_events(trace, MemorySystem(program, workload.train_input))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_matches_direct_simulation_exhaustively():
    rng = np.random.default_rng(0)
    addresses = rng.integers(0, 1 << 14, size=3000) * 8
    sim = MultiAssocCacheSim(num_sets=16, line_bytes=64, max_ways=4)
    sim.access_many(addresses)
    hits = sim.hits_at_assoc()
    for ways in range(1, 5):
        direct = SetAssocCache(CacheConfig(16, ways, 64))
        direct.access_many(addresses.tolist())
        assert direct.hits == hits[ways - 1], f"mismatch at {ways} ways"


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    spread=st.sampled_from([1 << 10, 1 << 13, 1 << 16]),
)
def test_matches_direct_simulation_property(seed, spread):
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, spread, size=500) * 16
    sim = MultiAssocCacheSim(num_sets=4, line_bytes=64, max_ways=3)
    sim.access_many(addresses)
    hits = sim.hits_at_assoc()
    for ways in (1, 2, 3):
        direct = SetAssocCache(CacheConfig(4, ways, 64))
        direct.access_many(addresses.tolist())
        assert direct.hits == hits[ways - 1]


def test_hits_monotone_nondecreasing_in_ways():
    rng = np.random.default_rng(7)
    addresses = rng.integers(0, 1 << 15, size=5000) * 8
    sim = MultiAssocCacheSim(num_sets=8, max_ways=8)
    sim.access_many(addresses)
    hits = sim.hits_at_assoc()
    assert (np.diff(hits) >= 0).all()


def test_single_access_api():
    sim = MultiAssocCacheSim(num_sets=2, max_ways=2)
    assert sim.access(0) == 0  # miss
    assert sim.access(0) == 1  # hit at depth 1
    sim.access(2 * 64 * 2)  # same set, new line
    assert sim.access(0) == 2  # now at depth 2


def test_accesses_counted():
    sim = MultiAssocCacheSim(num_sets=2, max_ways=2)
    sim.access_many(np.array([0, 64, 128], dtype=np.int64))
    assert sim.accesses == 3


def test_config_for_ways():
    sim = MultiAssocCacheSim(num_sets=512, line_bytes=64, max_ways=8)
    assert sim.config_for_ways(4).size_kb == 128.0


class TestProfileIntervals:
    def test_per_interval_totals(self, toy_program, toy_input):
        trace = record_trace(Machine(toy_program, toy_input).run())
        s = split_fixed(trace, 2000, "toy")
        memory = MemorySystem(toy_program, toy_input)
        accesses, hits = profile_intervals(trace, s, memory, num_sets=64)
        # totals match one flat pass
        memory.reset()
        addrs = memory.addresses_for_blocks(trace.block_ids())
        flat = MultiAssocCacheSim(num_sets=64)
        flat.access_many(addrs)
        assert accesses.sum() == flat.accesses
        assert (hits.sum(axis=0) == flat.hits_at_assoc()).all()

    def test_shapes(self, toy_program, toy_input):
        trace = record_trace(Machine(toy_program, toy_input).run())
        s = split_fixed(trace, 2000, "toy")
        memory = MemorySystem(toy_program, toy_input)
        accesses, hits = profile_intervals(trace, s, memory, max_ways=4)
        assert accesses.shape == (len(s),)
        assert hits.shape == (len(s), 4)

    def test_empty_intervals(self, toy_program, toy_input):
        trace = record_trace([])
        s = split_fixed(trace, 100, "toy")
        memory = MemorySystem(toy_program, toy_input)
        accesses, hits = profile_intervals(trace, s, memory)
        assert len(accesses) == 0
