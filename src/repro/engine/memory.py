"""Deterministic data-address streams for cache simulation.

Each basic block's :class:`~repro.ir.program.MemSpec` describes the shape
of the addresses its loads/stores touch.  The paper's cache experiments
only need *realistic reuse behavior per code region* — streaming regions
that never re-hit, working sets that fit (or don't fit) in a given cache
configuration, and pointer chases with poor locality — so each spec is
realized as a pregenerated cyclic **pool** of addresses that block
executions walk through.  Pools make address generation O(n) numpy slicing
instead of per-access Python work, while preserving the reuse distances
that determine hit rates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.rng import make_rng
from repro.ir.program import MemPattern, MemSpec, Program, ProgramInput

#: cache line size used for address granularity of pointer chases
LINE_BYTES = 64

#: cap on pool length; pools wrap (a loop re-walks its arrays, so wrapping
#: is the natural behavior)
MAX_POOL = 1 << 16

#: spacing between region base addresses (keeps regions disjoint in all
#: realistic cache index spaces)
REGION_SPACING = 1 << 31


class _Pool:
    """A cyclic address pool with a cursor."""

    __slots__ = ("addresses", "cursor")

    def __init__(self, addresses: np.ndarray):
        if len(addresses) == 0:
            raise ValueError("empty address pool")
        self.addresses = addresses
        self.cursor = 0

    def take(self, n: int) -> np.ndarray:
        """The next *n* addresses, wrapping around the pool."""
        pool = self.addresses
        size = len(pool)
        start = self.cursor
        self.cursor = (start + n) % size
        if n <= size - start:
            return pool[start : start + n]
        parts = [pool[start:]]
        remaining = n - (size - start)
        while remaining > size:
            parts.append(pool)
            remaining -= size
        parts.append(pool[:remaining])
        return np.concatenate(parts)


class MemorySystem:
    """Produces the data-address stream of a recorded run.

    The system is constructed per (program, input) pair: footprints may be
    input-dependent, and pool contents are seeded by the input.  Blocks
    sharing a MemSpec share a pool — repeated executions of the same code
    region re-touch the same addresses, which is where cache reuse comes
    from.
    """

    def __init__(self, program: Program, program_input: ProgramInput):
        self.program = program
        self.input = program_input
        self._rng = make_rng(program_input.seed, "memory", program.name)
        self._region_bases: Dict[str, int] = {}
        self._pools: Dict[Tuple, _Pool] = {}
        self._block_pool: List[Optional[_Pool]] = []
        self._block_mem_ops: np.ndarray = np.zeros(program.num_blocks, dtype=np.int64)
        for block in program.blocks:
            self._block_mem_ops[block.block_id] = block.mix.mem_ops
            if block.mem is None or block.mix.mem_ops == 0:
                self._block_pool.append(None)
            else:
                self._block_pool.append(self._pool_for(block.mem))
        self._index_pools()

    # -- pool construction ------------------------------------------------------

    def _base_for(self, region: str) -> int:
        if region not in self._region_bases:
            index = len(self._region_bases)
            self._region_bases[region] = 0x1_0000_0000 + index * REGION_SPACING
        return self._region_bases[region]

    def _pool_for(self, spec: MemSpec) -> _Pool:
        footprint = spec.resolve_footprint(self.input.params)
        key = (spec.pattern, spec.region, footprint, spec.stride)
        if key in self._pools:
            return self._pools[key]
        base = self._base_for(spec.region)
        pattern = spec.pattern
        if pattern in (MemPattern.SEQ, MemPattern.STACK):
            n = max(1, min(footprint // max(1, spec.stride), MAX_POOL))
            offsets = (np.arange(n, dtype=np.int64) * spec.stride) % max(
                footprint, spec.stride
            )
        elif pattern is MemPattern.WSET:
            slots = max(1, footprint // 8)
            n = min(slots, MAX_POOL)
            offsets = self._rng.integers(0, slots, size=n, dtype=np.int64) * 8
        elif pattern is MemPattern.CHASE:
            lines = max(1, footprint // LINE_BYTES)
            n = min(lines, MAX_POOL)
            offsets = self._rng.permutation(lines)[:n].astype(np.int64) * LINE_BYTES
        else:  # pragma: no cover - exhaustive over MemPattern
            raise ValueError(f"unknown pattern {pattern}")
        pool = _Pool(base + offsets)
        self._pools[key] = pool
        return pool

    def _index_pools(self) -> None:
        """Lay every pool out in one table (each pool's addresses become
        a view of its slice) and number pools per block, so a whole
        block sequence can be gathered with array arithmetic."""
        pools = list(self._pools.values())
        self._pool_list = pools
        sizes = np.array([len(p.addresses) for p in pools], dtype=np.int64)
        self._pool_sizes = sizes
        self._pool_starts = np.cumsum(sizes) - sizes
        self._pool_table = (
            np.concatenate([p.addresses for p in pools]) if pools else _EMPTY
        )
        for pool, start, size in zip(pools, self._pool_starts, sizes):
            pool.addresses = self._pool_table[start : start + size]
        number = {id(p): i for i, p in enumerate(pools)}
        self._block_pool_index = np.array(
            [-1 if p is None else number[id(p)] for p in self._block_pool],
            dtype=np.int64,
        )
        #: addresses one execution of each block takes (0 without a pool)
        self._block_takes = np.where(
            self._block_pool_index >= 0, self._block_mem_ops, 0
        )

    # -- address stream -----------------------------------------------------------

    def addresses_for_block(self, block_id: int) -> np.ndarray:
        """Addresses touched by one execution of *block_id* (may be empty)."""
        pool = self._block_pool[block_id]
        if pool is None:
            return _EMPTY
        return pool.take(int(self._block_mem_ops[block_id]))

    def mem_ops_for_block(self, block_id: int) -> int:
        return int(self._block_mem_ops[block_id])

    def accesses_for_blocks(self, block_ids: np.ndarray) -> np.ndarray:
        """Addresses each execution in *block_ids* takes (0 without a
        pool); the stream of :meth:`addresses_for_blocks` is their sum."""
        return self._block_takes[block_ids]

    def executions_to_reach(self, block_ids: np.ndarray, accesses: int) -> int:
        """How many leading executions of *block_ids* the address stream
        needs to hold *accesses* addresses (through the first that takes
        any, for *accesses* < 1; all of them if it never does)."""
        reach = np.cumsum(self._block_takes[block_ids])
        return min(int(np.searchsorted(reach, max(accesses, 1))) + 1, len(reach))

    def addresses_for_blocks(self, block_ids: np.ndarray) -> np.ndarray:
        """Concatenated address stream for a sequence of block executions.

        Equal to concatenating :meth:`addresses_for_block` over
        *block_ids*, and leaves every pool cursor where those calls
        would: each execution's take starts at its pool's cursor plus
        what earlier executions sharing that pool consumed, and wraps
        modulo the pool size (more than once when a take exceeds it).
        """
        block_ids = np.asarray(block_ids, dtype=np.int64)
        takes = self._block_takes[block_ids]
        live = np.nonzero(takes)[0]
        if not len(live):
            return _EMPTY
        takes = takes[live]
        pools = self._block_pool_index[block_ids[live]]
        # per pool, the addresses its earlier takes consumed
        order = np.argsort(pools, kind="stable")
        grouped = pools[order]
        grouped_takes = takes[order]
        consumed = np.cumsum(grouped_takes)
        heads = np.ones(len(order), dtype=bool)
        heads[1:] = grouped[1:] != grouped[:-1]
        head_at = np.nonzero(heads)[0]
        lengths = np.diff(np.append(head_at, len(order)))
        prior = consumed - grouped_takes
        before = np.empty_like(prior)
        before[order] = prior - np.repeat(prior[head_at], lengths)
        cursors = np.array([p.cursor for p in self._pool_list], dtype=np.int64)
        sizes = self._pool_sizes
        # element k of take e sits at (cursor + before[e] + k) mod size
        offsets = np.repeat(cursors[pools] + before - (np.cumsum(takes) - takes), takes)
        offsets += np.arange(len(offsets), dtype=np.int64)
        offsets %= np.repeat(sizes[pools], takes)
        offsets += np.repeat(self._pool_starts[pools], takes)
        used = grouped[head_at]
        totals = consumed[head_at + lengths - 1] - prior[head_at]
        for pool, total in zip(used.tolist(), totals.tolist()):
            state = self._pool_list[pool]
            state.cursor = (state.cursor + total) % len(state.addresses)
        return self._pool_table[offsets]

    def reset(self) -> None:
        """Rewind all pool cursors (for deterministic re-streaming)."""
        for pool in self._pools.values():
            pool.cursor = 0


_EMPTY = np.empty(0, dtype=np.int64)
