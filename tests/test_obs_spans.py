"""Tests for span tracing: the Tracer span store, its ring-buffer cap, and
the end-to-end CommandSpanTracker lifecycle."""

import pytest

from repro.obs.spans import CommandSpanTracker
from repro.sim.trace import Tracer


# ---------------------------------------------------------------------------
# Span records and the ring-buffer cap.
# ---------------------------------------------------------------------------


def test_begin_end_span_roundtrip():
    tracer = Tracer()
    root = tracer.begin_span(10, "core0", "cmd:memcpy", client=2)
    child = tracer.begin_span(12, "core0", "execute", parent=root)
    assert tracer.closed_spans() == []
    tracer.end_span(child, 20)
    tracer.end_span(root, 25, status="ok")
    closed = tracer.closed_spans()
    assert [s.name for s in closed] == ["cmd:memcpy", "execute"]
    root_span = closed[0]
    assert root_span.duration == 15
    assert root_span.args == {"client": 2, "status": "ok"}
    assert [s.span_id for s in tracer.children_of(root)] == [child]


def test_double_end_is_tolerated():
    tracer = Tracer()
    sid = tracer.begin_span(1, "t", "n")
    tracer.end_span(sid, 5)
    tracer.end_span(sid, 9)  # ignored
    assert tracer.closed_spans()[0].end_cycle == 5


def test_ring_buffer_caps_spans_and_counts_drops():
    tracer = Tracer(max_events=2)
    sids = [tracer.begin_span(i, "t", f"s{i}") for i in range(3)]
    assert tracer.dropped_spans == 1
    # The evicted span's id no longer resolves; ending it is a no-op.
    tracer.end_span(sids[0], 10)
    tracer.end_span(sids[1], 10)
    tracer.end_span(sids[2], 10)
    assert [s.name for s in tracer.closed_spans()] == ["s1", "s2"]


def test_max_events_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(max_events=0)


# ---------------------------------------------------------------------------
# CommandSpanTracker lifecycle.
# ---------------------------------------------------------------------------


KEY = (0, 0)


def _run_one_command(tracker, cycle0=100, label="memcpy"):
    sid = tracker.command_submitted(cycle0, KEY, client=1, label=label)
    tracker.dispatch_begin(cycle0 + 2, sid)
    tracker.dispatch_end(cycle0 + 8, sid, KEY)
    tracker.delivered(cycle0 + 12, KEY)
    axi = tracker.axi_begin(cycle0 + 15, KEY, "Memcpy.core0.reader", "read", 0x1000, 4, 7)
    tracker.axi_end(axi, cycle0 + 30)
    tracker.response_sent(cycle0 + 40, KEY)
    tracker.command_completed(cycle0 + 45, sid)
    return sid


def test_command_lifecycle_produces_span_tree():
    tracer = Tracer()
    tracker = CommandSpanTracker(tracer)
    tracker.set_track(KEY, "Memcpy/core0")
    sid = _run_one_command(tracker)
    assert tracker.commands_tracked == 1
    root = next(s for s in tracer.closed_spans() if s.span_id == sid)
    assert root.name == "cmd:memcpy"
    assert root.track == "Memcpy/core0"
    assert (root.begin_cycle, root.end_cycle) == (100, 145)
    children = {s.name: s for s in tracer.children_of(sid)}
    assert set(children) == {"dispatch", "execute", "axi:read"}
    assert (children["dispatch"].begin_cycle, children["dispatch"].end_cycle) == (102, 108)
    assert (children["execute"].begin_cycle, children["execute"].end_cycle) == (112, 140)
    burst = children["axi:read"]
    assert burst.track == "Memcpy/core0/reader"
    assert burst.args == {"addr": 0x1000, "beats": 4, "tag": 7}
    # Every child interval sits inside the root interval.
    for child in children.values():
        assert root.begin_cycle <= child.begin_cycle
        assert child.end_cycle <= root.end_cycle


def test_fifo_matching_with_two_commands_in_flight():
    """Two commands queued on one core: delivery/response matching follows
    the in-order FIFO discipline, so spans never cross over."""
    tracer = Tracer()
    tracker = CommandSpanTracker(tracer)
    a = tracker.command_submitted(0, KEY, label="a")
    b = tracker.command_submitted(1, KEY, label="b")
    tracker.dispatch_begin(2, a)
    tracker.dispatch_end(4, a, KEY)
    tracker.dispatch_begin(5, b)
    tracker.dispatch_end(7, b, KEY)
    assert tracker.delivered(10, KEY) == a
    assert tracker.current_command(KEY) == a
    assert tracker.delivered(11, KEY) == b
    # Oldest executing command owns the memory ports.
    assert tracker.current_command(KEY) == a
    assert tracker.response_sent(20, KEY) == a
    assert tracker.current_command(KEY) == b
    assert tracker.response_sent(25, KEY) == b
    assert tracker.current_command(KEY) is None


def test_unmatched_delivery_and_response_are_none():
    tracker = CommandSpanTracker(Tracer())
    assert tracker.delivered(1, KEY) is None
    assert tracker.response_sent(2, KEY) is None
    assert tracker.current_command(KEY) is None


def test_axi_burst_without_executing_command_has_no_parent():
    tracer = Tracer()
    tracker = CommandSpanTracker(tracer)
    sid = tracker.axi_begin(5, KEY, "init.reader", "read", 0x0, 1, 0)
    tracker.axi_end(sid, 9)
    span = tracer.closed_spans()[0]
    assert span.parent is None
    assert span.track == "init/reader"


def test_default_track_name():
    tracker = CommandSpanTracker(Tracer())
    assert tracker.track_for((3, 7)) == "sys3/core7"
