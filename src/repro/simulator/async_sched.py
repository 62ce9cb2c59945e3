"""Asynchronous scheduling: decision latency, stale snapshots, conflicts.

The synchronous engine assumes every scheduling decision is instantaneous:
the scheduler sees a perfectly fresh cluster view and its decision applies
at the very instant it was requested.  At fleet scale neither holds — the
control plane snapshots state, *thinks* for a while, and the decision lands
on a cluster that has moved on.  This module models that regime:

* A :class:`DecisionLatencyModel` prices one scheduling pass — fixed,
  linear in the number of pending jobs, or sampled from an empirical
  latency profile.
* :class:`AsyncSchedulerBackend` snapshots the
  :class:`~repro.schedulers.base.SchedulingContext` at decision-request
  time — a copy-on-write view by default, or a deep copy under the
  ``snapshot_policy="deepcopy"`` oracle; either way later live mutations
  cannot leak into the view — invokes the scheduler against the snapshot,
  and holds the resulting decision *in flight* until ``t + latency``, when
  the engine applies it against the **live** cluster.  The snapshot's
  lifetime is the ``schedule()`` call: the in-flight record keeps only the
  decision (plus the snapshot's free-slot counts), so under COW the
  per-mutation copy cost drops to zero the moment the scheduler returns.
* Conflict resolution happens at apply time: tasks that are no longer
  pending (placed by an earlier decision, finished, or their job left the
  cluster) are dropped and metered as stale placements; tasks that are
  still placeable but find their slot taken are requeued and metered as
  capacity conflicts; preemption directives naming tasks that already
  finished are metered no-ops.
* In **pipelined** mode the backend takes the next snapshot while the
  previous decision is still in flight (up to ``max_in_flight`` deep),
  modeling a scheduler that overlaps decision computation with decision
  delivery.

A latency of zero in non-pipelined mode short-circuits the whole machinery
— the scheduler runs on the live context and the decision applies
immediately — so the asynchronous backend at latency 0 is bit-identical to
the synchronous engine.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from repro.schedulers.base import SchedulingContext, SchedulingDecision
from repro.simulator.events import EventQueue, EventType
from repro.utils.rng import make_rng
from repro.utils.validation import boolean, check_fields, integer

__all__ = [
    "DecisionLatencyModel",
    "FixedLatency",
    "PerJobLinearLatency",
    "SampledLatency",
    "create_latency_model",
    "AsyncConfig",
    "InFlightDecision",
    "AsyncSchedulerBackend",
]


# --------------------------------------------------------------------------- #
# Latency models
# --------------------------------------------------------------------------- #
class DecisionLatencyModel(abc.ABC):
    """Prices one scheduling pass in simulated seconds."""

    name: str = "base"

    @abc.abstractmethod
    def latency(self, context: SchedulingContext) -> float:
        """Decision latency for a pass over ``context`` (>= 0)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class FixedLatency(DecisionLatencyModel):
    """Every decision takes the same ``seconds`` (0 = synchronous)."""

    name = "fixed"

    def __init__(self, seconds: float = 0.0) -> None:
        if seconds < 0:
            raise ValueError("decision latency must be >= 0")
        self.seconds = float(seconds)

    def latency(self, context: SchedulingContext) -> float:
        return self.seconds


class PerJobLinearLatency(DecisionLatencyModel):
    """``base + per_job * num_pending_jobs`` — the decision cost grows with
    the backlog the scheduler must reason about (the shape of every
    optimization-based policy in the paper's Table I)."""

    name = "per_job_linear"

    def __init__(self, base: float = 0.0, per_job: float = 0.01) -> None:
        if base < 0 or per_job < 0:
            raise ValueError("base and per_job must be >= 0")
        self.base = float(base)
        self.per_job = float(per_job)

    def latency(self, context: SchedulingContext) -> float:
        return self.base + self.per_job * len(context.jobs)


class SampledLatency(DecisionLatencyModel):
    """Latency drawn from an empirical profile of observed decision times.

    ``samples`` is any sequence of non-negative latencies (e.g. measured
    scheduler overheads scaled to control-plane units); each decision draws
    one uniformly with a seeded RNG, so runs are reproducible.
    """

    name = "sampled"

    def __init__(self, samples: Sequence[float], seed: int = 0) -> None:
        values = [float(v) for v in samples]
        if not values:
            raise ValueError("samples must not be empty")
        if any(v < 0 for v in values):
            raise ValueError("latency samples must be >= 0")
        self.samples = values
        self.seed = int(seed)
        self._rng = make_rng(self.seed)

    def reset(self) -> None:
        """Re-arm the RNG so a reused model replays the same draws."""
        self._rng = make_rng(self.seed)

    def latency(self, context: SchedulingContext) -> float:
        return self.samples[int(self._rng.integers(0, len(self.samples)))]


def create_latency_model(
    spec: Union[float, int, DecisionLatencyModel],
) -> DecisionLatencyModel:
    """Coerce a bare number into :class:`FixedLatency` (models pass through)."""
    if isinstance(spec, DecisionLatencyModel):
        return spec
    return FixedLatency(float(spec))


# --------------------------------------------------------------------------- #
# Configuration and in-flight state
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AsyncConfig:
    """Knobs of one asynchronous scheduling backend.

    ``latency`` is a :class:`DecisionLatencyModel` or a bare number of
    seconds (coerced to :class:`FixedLatency`).  ``pipelined`` lets the
    backend take the next snapshot while a previous decision is still in
    flight, up to ``max_in_flight`` concurrent decisions; non-pipelined
    backends always hold at most one.
    """

    latency: Union[float, DecisionLatencyModel] = 0.0
    pipelined: bool = field(default=False, metadata=boolean())
    max_in_flight: int = field(default=2, metadata=integer(1))

    def __post_init__(self) -> None:
        check_fields(self)
        if not isinstance(self.latency, DecisionLatencyModel) and float(self.latency) < 0:
            raise ValueError("decision latency must be >= 0")

    @property
    def depth(self) -> int:
        return self.max_in_flight if self.pipelined else 1


@dataclass
class InFlightDecision:
    """A decision computed from a snapshot, waiting out its latency window."""

    requested_at: float
    apply_at: float
    decision: SchedulingDecision
    #: Free capacity the snapshot promised.  Conflict metering is scoped to
    #: the preference-list entries within these budgets: entries beyond them
    #: would have been dropped by the synchronous engine too (preference
    #: lists may exceed capacity by design), so only in-budget drops signal
    #: genuine staleness.
    snapshot_free_regular: int = 0
    snapshot_free_llm: int = 0


# --------------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------------- #
class AsyncSchedulerBackend:
    """Decision-latency layer between the engine and its scheduler.

    The backend owns no scheduler and no metrics — both belong to the
    engine; it owns the *policy* (latency model, pipelining depth) and the
    queue of in-flight decisions, ordered by apply time through the shared
    :class:`~repro.simulator.events.EventQueue` machinery
    (:attr:`~repro.simulator.events.EventType.DECISION_READY` events).

    One backend instance drives one engine; construct one per shard for
    federated runs (see ``FederatedSimulationEngine``'s
    ``async_backend_factory``).
    """

    def __init__(self, config: Optional[AsyncConfig] = None) -> None:
        self.config = config or AsyncConfig()
        self.model = create_latency_model(self.config.latency)
        if isinstance(self.model, SampledLatency):
            # Every backend draws from its own seed-fresh stream: sharing
            # one RNG across backends built from the same config (e.g. the
            # per-shard factory of a federated run) would couple their
            # latency sequences and let any backend's reset() rewind the
            # siblings mid-run.
            self.model = SampledLatency(self.model.samples, self.model.seed)
        self._events = EventQueue()
        self._num_in_flight = 0

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Drop in-flight state so the backend can drive a fresh run."""
        self._events = EventQueue()
        self._num_in_flight = 0
        if isinstance(self.model, SampledLatency):
            self.model.reset()

    def can_request(self) -> bool:
        """Whether a new decision may be requested now (pipelining depth)."""
        return self._num_in_flight < self.config.depth

    # ------------------------------------------------------------------ #
    def request(
        self,
        schedule: Callable[[SchedulingContext], SchedulingDecision],
        context: SchedulingContext,
        now: float,
        eps: float,
    ) -> Optional[SchedulingDecision]:
        """Start one decision at ``now`` against (a snapshot of) ``context``.

        Returns the decision directly when it is synchronous (latency within
        ``eps`` in non-pipelined mode) — the caller applies it immediately,
        exactly like the synchronous engine.  Otherwise the scheduler runs
        against a snapshot, the decision goes in flight, and ``None`` is
        returned; the caller collects it from :meth:`pop_due` once the
        clock reaches ``now + latency``.

        This is the *only* snapshot call site in the async machinery, and
        ``context`` is always the live context freshly built by the engine's
        dispatch pass — never an earlier snapshot.  In pipelined mode each
        of the up-to-``max_in_flight`` outstanding decisions therefore got
        its own independent snapshot of a *live* context; no path
        re-snapshots an existing snapshot (``snapshot()`` raises if one
        ever does).
        """
        latency = self.model.latency(context)
        if latency < 0:
            raise ValueError(f"latency model {self.model.name!r} returned {latency}")
        if latency <= eps and not self.config.pipelined:
            # Synchronous fast path: live view, immediate application —
            # bit-identical to an engine without an async backend.
            return schedule(context)
        decision = schedule(context.snapshot())
        inflight = InFlightDecision(
            requested_at=now,
            apply_at=now + latency,
            decision=decision,
            snapshot_free_regular=context.free_regular_slots,
            snapshot_free_llm=context.free_llm_slots,
        )
        self._events.push(inflight.apply_at, EventType.DECISION_READY, inflight)
        self._num_in_flight += 1
        return None

    def next_apply_time(self) -> Optional[float]:
        """Apply time of the earliest in-flight decision (an event source)."""
        event = self._events.peek()
        return event.time if event is not None else None

    def pop_due(self, now: float, eps: float) -> List[InFlightDecision]:
        """In-flight decisions whose latency window ended by ``now``."""
        due: List[InFlightDecision] = []
        while self._events and self._events.peek().time <= now + eps:
            due.append(self._events.pop().payload)
            self._num_in_flight -= 1
        return due

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncSchedulerBackend(model={self.model.name!r}, "
            f"pipelined={self.config.pipelined}, in_flight={self._num_in_flight})"
        )
