"""Tests for the event queue."""

import pytest

from repro.simulator.events import EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(5.0, "late")
        queue.push(1.0, "early")
        queue.push(3.0, "middle")
        assert queue.pop().payload == "early"
        assert queue.pop().payload == "middle"
        assert queue.pop().payload == "late"

    def test_fifo_tie_breaking(self):
        queue = EventQueue()
        queue.push(1.0, "first")
        queue.push(1.0, "second")
        assert queue.pop().payload == "first"
        assert queue.pop().payload == "second"

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(1.0, "x")
        assert queue.peek().payload == "x"
        assert len(queue) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, "x")

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.push(0.0, "x")
        assert queue
        assert len(queue) == 1

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek() is None
