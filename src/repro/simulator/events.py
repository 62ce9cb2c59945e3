"""Deterministic time-ordered queue of simulation events.

The engine keeps the completions of its regular tasks here (the payload is
the executor index; an entry that a preemption made stale is dropped when
it surfaces), and the asynchronous scheduling backend keeps its in-flight
decisions until their latency window ends.  LLM completions are not queued:
batch-composition changes move them, so the engine re-derives them from
executor state.  Equal times pop in push order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional

__all__ = ["SimulationEvent", "EventQueue"]


@dataclass(frozen=True, order=True)
class SimulationEvent:
    """An event with a total ordering of (time, sequence number)."""

    time: float
    sequence: int
    payload: Any = field(compare=False)


class EventQueue:
    """A min-heap of :class:`SimulationEvent` with FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[SimulationEvent] = []
        self._counter = itertools.count()

    def push(self, time: float, payload: Any) -> SimulationEvent:
        if time < 0:
            raise ValueError("event time must be >= 0")
        event = SimulationEvent(time=float(time), sequence=next(self._counter), payload=payload)
        heapq.heappush(self._heap, event)
        return event

    def peek(self) -> Optional[SimulationEvent]:
        return self._heap[0] if self._heap else None

    def pop(self) -> SimulationEvent:
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
