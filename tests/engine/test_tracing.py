"""Unit tests for trace recording and replay."""

import numpy as np
import pytest

from repro.engine import Machine, record_trace
from repro.engine.events import (
    K_BLOCK,
    BlockEvent,
    BranchEvent,
    CallEvent,
    ReturnEvent,
)
from repro.engine.tracing import Trace


def test_roundtrip_events():
    events = [
        BlockEvent(1, 0x1000, 10),
        BranchEvent(0x1024, 0x1000, True),
        CallEvent(0x1100, 2),
        BlockEvent(5, 0x2000, 3),
        ReturnEvent(2),
    ]
    trace = record_trace(events)
    assert list(trace.replay()) == events


def test_total_instructions():
    trace = record_trace([BlockEvent(0, 0, 10), BlockEvent(1, 4, 7)])
    assert trace.total_instructions == 17
    assert trace.num_block_events == 2


def test_block_ids_and_sizes():
    trace = record_trace(
        [BlockEvent(3, 0, 10), ReturnEvent(0), BlockEvent(9, 4, 7)]
    )
    assert trace.block_ids().tolist() == [3, 9]
    assert trace.block_sizes().tolist() == [10, 7]


def test_iter_packed_matches_replay(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input).run())
    packed = list(trace.iter_packed())
    assert len(packed) == len(trace)
    blocks = [p for p in packed if p[0] == K_BLOCK]
    assert len(blocks) == trace.num_block_events


def test_column_mismatch_rejected():
    with pytest.raises(ValueError):
        Trace.from_columns(
            np.zeros(2, dtype=np.int8),
            np.zeros(3, dtype=np.int64),
            np.zeros(2, dtype=np.int64),
            np.zeros(2, dtype=np.int64),
        )


def test_unknown_event_rejected():
    with pytest.raises(TypeError):
        record_trace([object()])


def test_empty_trace():
    trace = record_trace([])
    assert len(trace) == 0
    assert trace.total_instructions == 0
    assert list(trace.replay()) == []


def test_replay_equals_machine_run(toy_program, toy_input):
    original = list(Machine(toy_program, toy_input).run())
    trace = record_trace(original)
    assert list(trace.replay()) == original
