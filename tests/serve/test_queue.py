"""Admission-queue semantics: bounds, lanes, shutdown."""

import threading

import pytest

from repro.serve import AdmissionQueue, BATCH_LANE, INTERACTIVE_LANE


class TestBounds:
    def test_offer_within_capacity(self):
        q = AdmissionQueue(2)
        assert q.offer("a")
        assert q.offer("b")
        assert len(q) == 2

    def test_offer_sheds_at_capacity(self):
        q = AdmissionQueue(2)
        # Two accepted, one shed: offer's answer is the only count.
        assert [q.offer(x) for x in "abc"] == [True, True, False]
        assert len(q) == 2  # the shed item was not admitted

    def test_capacity_spans_all_lanes(self):
        q = AdmissionQueue(2)
        assert q.offer("a", INTERACTIVE_LANE)
        assert q.offer("b", BATCH_LANE)
        assert not q.offer("c", INTERACTIVE_LANE)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)

    def test_unknown_lane_rejected(self):
        q = AdmissionQueue(2)
        with pytest.raises(ValueError):
            q.offer("a", "express")


class TestLanePriority:
    def test_interactive_drains_first(self):
        q = AdmissionQueue(8)
        q.offer("b1", BATCH_LANE)
        q.offer("i1", INTERACTIVE_LANE)
        q.offer("b2", BATCH_LANE)
        q.offer("i2", INTERACTIVE_LANE)
        assert [q.take(0) for _ in range(4)] == ["i1", "i2", "b1", "b2"]

    def test_fifo_within_lane(self):
        q = AdmissionQueue(8)
        for x in ("a", "b", "c"):
            q.offer(x)
        assert [q.take(0) for _ in range(3)] == ["a", "b", "c"]

    def test_depths(self):
        q = AdmissionQueue(8)
        q.offer("i", INTERACTIVE_LANE)
        q.offer("b1", BATCH_LANE)
        q.offer("b2", BATCH_LANE)
        assert q.depths() == {INTERACTIVE_LANE: 1, BATCH_LANE: 2}


class TestBlockingTake:
    def test_take_times_out_empty(self):
        q = AdmissionQueue(2)
        assert q.take(timeout=0.01) is None

    def test_take_wakes_on_offer(self):
        q = AdmissionQueue(2)
        got = []
        t = threading.Thread(target=lambda: got.append(q.take(timeout=5)))
        t.start()
        q.offer("x")
        t.join(timeout=5)
        assert not t.is_alive()
        assert got == ["x"]


class TestShutdown:
    def test_closed_queue_sheds(self):
        q = AdmissionQueue(4)
        q.close()
        assert not q.offer("a")
        assert q.closed

    def test_take_returns_none_once_closed_and_drained(self):
        q = AdmissionQueue(4)
        q.offer("a")
        q.close()
        assert q.take(0) == "a"  # drain what was admitted
        assert q.take(0) is None

    def test_close_wakes_blocked_consumers(self):
        q = AdmissionQueue(4)
        got = []
        t = threading.Thread(target=lambda: got.append(q.take(timeout=30)))
        t.start()
        q.close()
        t.join(timeout=5)
        assert not t.is_alive()
        assert got == [None]

    def test_drain_empties_every_lane(self):
        q = AdmissionQueue(8)
        q.offer("i", INTERACTIVE_LANE)
        q.offer("b", BATCH_LANE)
        assert sorted(q.drain()) == ["b", "i"]
        assert len(q) == 0
