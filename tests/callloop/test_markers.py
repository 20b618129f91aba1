"""Unit tests for marker sets and runtime marker tracking."""

import pytest

from repro.callloop.graph import Node, NodeKind, NodeTable
from repro.callloop.markers import MarkerSet, MarkerTracker, PhaseMarker


def node(name, kind=NodeKind.PROC_HEAD, uid="", label=""):
    return Node(kind, name, uid, label)


def marker(mid, src, dst, merge=1):
    return PhaseMarker(
        marker_id=mid,
        src=src,
        dst=dst,
        avg_interval=1000.0,
        cov=0.01,
        max_interval=2000.0,
        merge_iterations=merge,
    )


class TestMarkerSet:
    def test_lookup(self):
        a, b = node("a"), node("b")
        ms = MarkerSet("p", "base", 100.0, None, [marker(1, a, b)])
        assert ms.marker_for(a, b).marker_id == 1
        assert ms.marker_for(b, a) is None
        assert len(ms) == 1
        assert ms.num_phase_ids == 2  # + phase 0

    def test_duplicate_edges_rejected(self):
        a, b = node("a"), node("b")
        with pytest.raises(ValueError):
            MarkerSet("p", "base", 100.0, None, [marker(1, a, b), marker(2, a, b)])

    def test_describe(self):
        a, b = node("a"), node("b")
        ms = MarkerSet("p", "base", 100.0, 5000.0, [marker(1, a, b, merge=3)])
        text = ms.describe()
        assert "x3" in text and "max_limit" in text


class TestMarkerTracker:
    def _table(self, toy_program):
        return NodeTable(toy_program)

    def test_simple_fire(self, toy_program):
        table = NodeTable(toy_program)
        src = table.node(table.proc_body["main"])
        dst = table.node(table.proc_head["work"])
        ms = MarkerSet("toy", "base", 100.0, None, [marker(7, src, dst)])
        tracker = MarkerTracker(ms, table)
        s, d = table.index(src), table.index(dst)
        assert tracker.edge_opened(s, d).marker_id == 7
        assert tracker.edge_opened(s, d).marker_id == 7  # fires every time
        assert tracker.edge_opened(d, s) is None

    def test_merged_fires_every_nth(self, toy_program):
        table = NodeTable(toy_program)
        header = next(iter(table.loop_head))
        head = table.node(table.loop_head[header])
        body = table.node(table.loop_body[header])
        ms = MarkerSet("toy", "base", 100.0, None, [marker(3, head, body, merge=4)])
        tracker = MarkerTracker(ms, table)
        h, b = table.index(head), table.index(body)
        fires = [tracker.edge_opened(h, b) is not None for _ in range(10)]
        assert fires == [True, False, False, False, True, False, False, False, True, False]

    def test_merged_counter_resets_on_loop_entry(self, toy_program):
        table = NodeTable(toy_program)
        header = next(iter(table.loop_head))
        head = table.node(table.loop_head[header])
        body = table.node(table.loop_body[header])
        ms = MarkerSet("toy", "base", 100.0, None, [marker(3, head, body, merge=4)])
        tracker = MarkerTracker(ms, table)
        h, b = table.index(head), table.index(body)
        assert tracker.edge_opened(h, b) is not None
        assert tracker.edge_opened(h, b) is None
        # loop re-entered: any edge into the head resets the counter
        parent = table.proc_body["main"]
        tracker.edge_opened(parent, h)
        assert tracker.edge_opened(h, b) is not None

    def test_suppressed_consumer_does_not_rewind_cadence(self, toy_program):
        """The tracker owns the cadence: a consumer ignoring a firing
        (hysteresis) must see the *same* later firing points as an eager
        consumer — firing is a function of the iteration count alone."""
        table = NodeTable(toy_program)
        header = next(iter(table.loop_head))
        head = table.node(table.loop_head[header])
        body = table.node(table.loop_body[header])
        ms = MarkerSet("toy", "base", 100.0, None, [marker(3, head, body, merge=3)])
        eager = MarkerTracker(ms, table)
        lazy = MarkerTracker(ms, table)
        h, b = table.index(head), table.index(body)
        eager_fires = []
        lazy_fires = []
        for i in range(12):
            eager_fires.append(i) if eager.edge_opened(h, b) else None
            # the lazy consumer "suppresses" the first firing but still
            # forwards every edge open to its tracker
            fired = lazy.edge_opened(h, b) is not None
            if fired and i > 0:
                lazy_fires.append(i)
        assert eager_fires == [0, 3, 6, 9]
        assert lazy_fires == [3, 6, 9]  # same points, minus the suppressed one

    def test_unmapped_markers_reported(self, toy_program):
        table = NodeTable(toy_program)
        ghost = node("ghost")
        src = table.node(table.proc_body["main"])
        ms = MarkerSet("toy", "base", 100.0, None, [marker(1, src, ghost)])
        tracker = MarkerTracker(ms, table)
        assert tracker.unmapped == list(ms)
