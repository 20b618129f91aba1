"""Unit tests for basic block vector collection."""

import numpy as np
import pytest

from repro.engine import Machine, record_trace
from repro.intervals import collect_bbvs, split_fixed
from repro.intervals.bbv import normalize_bbvs


def test_weighted_sum_equals_interval_length(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input).run())
    s = split_fixed(trace, 1000, "toy")
    bbvs = collect_bbvs(s, trace, toy_program.num_blocks)
    assert np.allclose(bbvs.sum(axis=1), s.lengths)
    assert s.bbvs is bbvs


def test_block_weighting_by_size(toy_program, toy_input):
    """bbv[b] = executions(b) * size(b): check one block exactly."""
    trace = record_trace(Machine(toy_program, toy_input).run())
    s = split_fixed(trace, 10**9, "toy")  # one interval = whole run
    bbvs = collect_bbvs(s, trace, toy_program.num_blocks)
    ids = trace.block_ids()
    sizes = toy_program.block_sizes()
    for bid in np.unique(ids)[:5]:
        execs = int((ids == bid).sum())
        assert bbvs[0, bid] == execs * sizes[bid]


def test_different_phases_have_different_bbvs(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input).run())
    s = split_fixed(trace, 500, "toy")
    bbvs = collect_bbvs(s, trace, toy_program.num_blocks)
    norm = normalize_bbvs(bbvs)
    # the run alternates work/emit phases: not all rows identical
    assert not np.allclose(norm[0], norm[len(norm) // 2]) or not np.allclose(
        norm[0], norm[-1]
    )


def test_empty_interval_set(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input).run())
    s = split_fixed(record_trace([]), 100, "toy")
    bbvs = collect_bbvs(s, trace, toy_program.num_blocks)
    assert bbvs.shape == (0, toy_program.num_blocks)


def test_events_before_first_boundary_are_dropped(toy_program, toy_input):
    """Regression: block events before row_bounds[0] belong to no
    interval and must not be clipped into interval 0's BBV."""
    from repro.intervals.base import IntervalSet

    trace = record_trace(Machine(toy_program, toy_input).run())
    full = split_fixed(trace, 1000, "toy")
    # Rebuild the same interval set minus its first interval: the rows
    # before the new row_bounds[0] are now outside every interval.
    shifted = IntervalSet(
        "toy",
        full.kind,
        full.row_bounds[1:],
        full.start_ts[1:],
        full.lengths[1:],
    )
    bbvs = collect_bbvs(shifted, trace, toy_program.num_blocks)
    reference = collect_bbvs(full, trace, toy_program.num_blocks)
    assert np.array_equal(bbvs, reference[1:])
    # the dropped events' weight is exactly the removed interval's length
    assert bbvs.sum() == reference.sum() - reference[0].sum()


def test_events_past_last_boundary_are_dropped(toy_program, toy_input):
    """Rows at or past row_bounds[-1] must be masked out, not folded
    into (or crash) the flattened accumulator."""
    from repro.intervals.base import IntervalSet

    trace = record_trace(Machine(toy_program, toy_input).run())
    full = split_fixed(trace, 1000, "toy")
    truncated = IntervalSet(
        "toy",
        full.kind,
        full.row_bounds[:-1],
        full.start_ts[:-1],
        full.lengths[:-1],
    )
    bbvs = collect_bbvs(truncated, trace, toy_program.num_blocks)
    reference = collect_bbvs(full, trace, toy_program.num_blocks)
    assert np.array_equal(bbvs, reference[:-1])


def test_normalize_rows_sum_to_one():
    bbvs = np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 3.0]])
    norm = normalize_bbvs(bbvs)
    assert norm[0].sum() == pytest.approx(1.0)
    assert norm[1].sum() == 0.0  # zero rows stay zero
    assert norm[2].tolist() == [0.25, 0.75]


# -- the id accumulation against the per-row reference ---------------------------


def add_at_reference(interval_set, trace, num_blocks):
    """``np.add.at`` over the block rows inside the bounds, one at a time."""
    from repro.engine.events import K_BLOCK

    bounds = interval_set.row_bounds
    bbvs = np.zeros((len(interval_set), num_blocks))
    rows = np.flatnonzero(trace.kinds == K_BLOCK)
    rows = rows[(rows >= bounds[0]) & (rows < bounds[-1])]
    interval = np.searchsorted(bounds, rows, side="right") - 1
    np.add.at(bbvs, (interval, trace.a[rows]), trace.c[rows])
    return bbvs


def _mixed_trace(rng, n):
    """Rows of every kind; block ids 0-4, each with two addresses and
    sizes, so the table holds two rows for one block id."""
    from repro.engine import Trace

    kinds = rng.integers(0, 4, n).astype(np.int8)
    a = rng.integers(0, 5, n)
    b = np.where(rng.random(n) < 0.5, 0x100, 0x200) + a
    c = np.where(kinds == 0, (b & 0x300) // 0x100 + a, rng.integers(0, 2, n))
    return Trace.from_columns(kinds, a, b, c)


def _interval_set(bounds):
    from repro.intervals.base import IntervalSet

    bounds = np.asarray(bounds, dtype=np.int64)
    k = len(bounds) - 1
    return IntervalSet(
        "mixed", "fixed", bounds, np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    )


@pytest.mark.parametrize("chunk_rows", [1 << 16, 7])
def test_id_accumulation_matches_add_at(monkeypatch, chunk_rows):
    """Two table rows for one block id, empty intervals, and rows before
    the first bound and past the last: the matrix equals the reference
    bit for bit, whatever the chunking."""
    from repro.engine.events import K_BLOCK
    from repro.intervals import bbv

    monkeypatch.setattr(bbv, "BBV_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(5)
    trace = _mixed_trace(rng, 400)
    blocks = trace.table[trace.table[:, 0] == K_BLOCK]
    assert len(blocks) > len(np.unique(blocks[:, 1]))  # a block with two rows
    inner = np.sort(rng.integers(20, 380, 12))
    for bounds in (
        [0, 400],
        [13, *inner, 381],  # rows outside every interval on both sides
        [13, 50, 50, 50, 381],  # empty intervals between
        [0, *inner, 500],  # a last bound past the trace
    ):
        s = _interval_set(bounds)
        got = collect_bbvs(s, trace, 5)
        want = add_at_reference(s, trace, 5)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), bounds


def test_id_accumulation_matches_add_at_on_a_recording(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input))
    full = split_fixed(trace, 700, "toy")
    s = _interval_set(full.row_bounds[3:-2])
    got = collect_bbvs(s, trace, toy_program.num_blocks)
    assert got.tobytes() == add_at_reference(s, trace, toy_program.num_blocks).tobytes()
