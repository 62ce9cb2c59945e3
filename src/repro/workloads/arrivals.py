"""Open-loop arrival processes: streaming workload generation.

:mod:`repro.workloads.mixtures` materializes a fixed, pre-sorted job list
(closed loop).  This module instead models the *arrival process* as a lazy,
composable stream of arrival times, and turns it into a generator of jobs
that the simulation engine admits one at a time.  Experiments can therefore
drive sustained traffic — e.g. a Poisson stream at high rate, a bursty
MMPP stream, or a diurnal pattern — without ever holding the full workload
in memory.

Composition
-----------
Every process yields absolute, non-decreasing arrival times and can be
re-iterated (each :meth:`ArrivalProcess.times` call restarts the stream
from its seed, so the same process object always replays the same trace):

>>> process = PoissonProcess(rate=2.0, seed=7).until(3600.0).take(1000)
>>> jobs = open_loop_jobs(process, seed=7)          # doctest: +SKIP

``take`` caps the number of arrivals, ``until`` caps the time horizon, and
:func:`superpose` merges independent streams (e.g. a steady background plus
a bursty foreground).
"""

from __future__ import annotations

import abc
import heapq
import math
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Dict, Iterator, Optional, Sequence

from repro.dag.application import ApplicationTemplate
from repro.dag.job import Job
from repro.utils.rng import make_rng
from repro.utils.validation import check_fields, integer, positive, real, text, within

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "BurstyProcess",
    "DiurnalProcess",
    "TraceReplayProcess",
    "superpose",
    "OpenLoopSpec",
    "open_loop_jobs",
]


class ArrivalProcess(abc.ABC):
    """A lazy stream of absolute arrival times (seconds, non-decreasing)."""

    @abc.abstractmethod
    def times(self) -> Iterator[float]:
        """Fresh iterator over the arrival times of this process."""

    # ------------------------------------------------------------------ #
    # Combinators
    # ------------------------------------------------------------------ #
    def take(self, count: int) -> "ArrivalProcess":
        """At most the first ``count`` arrivals."""
        return _Take(self, count)

    def until(self, horizon: float) -> "ArrivalProcess":
        """Only arrivals at or before ``horizon`` seconds."""
        return _Until(self, horizon)


@dataclass(frozen=True)
class _Take(ArrivalProcess):
    inner: ArrivalProcess
    count: int = field(metadata=integer(0))

    def __post_init__(self) -> None:
        check_fields(self)

    def times(self) -> Iterator[float]:
        stream = self.inner.times()
        for _ in range(self.count):
            value = next(stream, None)
            if value is None:
                return
            yield value


@dataclass(frozen=True)
class _Until(ArrivalProcess):
    inner: ArrivalProcess
    horizon: float = field(metadata=positive())

    def __post_init__(self) -> None:
        check_fields(self)

    def times(self) -> Iterator[float]:
        for value in self.inner.times():
            if value > self.horizon:
                return
            yield value


@dataclass(frozen=True)
class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson process with ``rate`` arrivals per second."""

    rate: float = field(metadata=positive())
    seed: int = field(default=0, metadata=integer(0))

    def __post_init__(self) -> None:
        check_fields(self)

    def times(self) -> Iterator[float]:
        rng = make_rng(self.seed)
        now = 0.0
        while True:
            now += float(rng.exponential(1.0 / self.rate))
            yield now


@dataclass(frozen=True)
class BurstyProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (MMPP-2).

    The process alternates between a *normal* phase with rate ``base_rate``
    and a *burst* phase with rate ``burst_rate``; phase durations are
    exponential with the given means.  Because exponential inter-arrival
    gaps are memoryless, redrawing the pending gap at every phase switch
    samples the exact process.
    """

    base_rate: float = field(metadata=positive())
    burst_rate: float = field(metadata=positive())
    mean_normal_duration: float = field(default=60.0, metadata=positive())
    mean_burst_duration: float = field(default=10.0, metadata=positive())
    seed: int = field(default=0, metadata=integer(0))

    def __post_init__(self) -> None:
        check_fields(self)

    def times(self) -> Iterator[float]:
        rng = make_rng(self.seed)
        now = 0.0
        bursting = False
        phase_end = float(rng.exponential(self.mean_normal_duration))
        while True:
            rate = self.burst_rate if bursting else self.base_rate
            candidate = now + float(rng.exponential(1.0 / rate))
            if candidate <= phase_end:
                now = candidate
                yield now
            else:
                now = phase_end
                bursting = not bursting
                mean = self.mean_burst_duration if bursting else self.mean_normal_duration
                phase_end = now + float(rng.exponential(mean))


@dataclass(frozen=True)
class DiurnalProcess(ArrivalProcess):
    """Nonhomogeneous Poisson process with a sinusoidal daily rate.

    ``rate(t) = mean_rate * (1 + amplitude * sin(2 * pi * t / period))``,
    sampled by Lewis–Shedler thinning against the peak rate.
    """

    mean_rate: float = field(metadata=positive())
    amplitude: float = field(default=0.5, metadata=within(0, 1))
    period: float = field(default=86_400.0, metadata=positive())
    seed: int = field(default=0, metadata=integer(0))

    def __post_init__(self) -> None:
        check_fields(self)

    def rate_at(self, time: float) -> float:
        return self.mean_rate * (1.0 + self.amplitude * math.sin(2.0 * math.pi * time / self.period))

    def times(self) -> Iterator[float]:
        rng = make_rng(self.seed)
        peak = self.mean_rate * (1.0 + self.amplitude)
        now = 0.0
        while True:
            now += float(rng.exponential(1.0 / peak))
            if float(rng.random()) * peak <= self.rate_at(now):
                yield now


@dataclass(frozen=True)
class TraceReplayProcess(ArrivalProcess):
    """Replays a recorded sequence of absolute arrival times."""

    trace: Sequence[float] = field(default_factory=tuple, metadata=real(0.0, each=True))

    def __post_init__(self) -> None:
        check_fields(self)
        object.__setattr__(self, "trace", tuple(self.trace))
        if any(later < earlier for earlier, later in pairwise(self.trace)):
            raise ValueError("trace arrival times must be non-decreasing")

    def times(self) -> Iterator[float]:
        return iter([float(value) for value in self.trace])


@dataclass(frozen=True)
class _Superposition(ArrivalProcess):
    processes: Sequence[ArrivalProcess]

    def __post_init__(self) -> None:
        object.__setattr__(self, "processes", tuple(self.processes))
        if not self.processes:
            raise ValueError("superpose needs at least one process")

    def times(self) -> Iterator[float]:
        return heapq.merge(*(p.times() for p in self.processes))


def superpose(*processes: ArrivalProcess) -> ArrivalProcess:
    """Merge independent arrival streams into one (order-preserving)."""
    return _Superposition(processes)


# --------------------------------------------------------------------------- #
# Turning arrival times into jobs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class OpenLoopSpec:
    """A description of an open-loop workload cell.

    Mirrors :class:`repro.workloads.mixtures.WorkloadSpec` for streaming
    runs: an open-loop :class:`~repro.api.spec.WorkloadSection` resolves into
    one, and :meth:`jobs` builds the lazy job stream via :func:`open_loop_jobs`.
    """

    process: ArrivalProcess
    application_names: Optional[Sequence[str]] = field(
        default=None, metadata=text(optional=True, each=True)
    )
    seed: int = field(default=0, metadata=integer(0))
    max_jobs: Optional[int] = field(default=None, metadata=integer(1, optional=True))
    horizon: Optional[float] = field(default=None, metadata=positive(optional=True))
    name: str = field(default="open_loop", metadata=text())

    def __post_init__(self) -> None:
        check_fields(self)

    def jobs(
        self, applications: Optional[Dict[str, ApplicationTemplate]] = None
    ) -> Iterator[Job]:
        return open_loop_jobs(
            self.process,
            applications=applications,
            application_names=self.application_names,
            seed=self.seed,
            max_jobs=self.max_jobs,
            horizon=self.horizon,
        )


def open_loop_jobs(
    process: ArrivalProcess,
    applications: Optional[Dict[str, ApplicationTemplate]] = None,
    application_names: Optional[Sequence[str]] = None,
    seed: int = 0,
    max_jobs: Optional[int] = None,
    horizon: Optional[float] = None,
) -> Iterator[Job]:
    """Generate jobs lazily from an arrival process.

    Each arrival is assigned an application uniformly at random (seeded, so
    the same spec always replays the same job stream) and sampled from the
    application template, exactly like the closed-loop generator — but one
    job at a time, so the engine can run arrival streams of arbitrary
    length in bounded memory.

    ``max_jobs`` and ``horizon`` cap the stream; an uncapped process with no
    cap runs forever, so supply at least one for finite experiments.
    """
    if applications is None:
        from repro.workloads.mixtures import default_applications

        applications = default_applications()
    names = list(application_names) if application_names else sorted(applications)
    missing = [name for name in names if name not in applications]
    if missing:
        raise ValueError(f"missing applications for open-loop workload: {missing}")

    stream: ArrivalProcess = process
    if horizon is not None:
        stream = stream.until(horizon)
    if max_jobs is not None:
        stream = stream.take(max_jobs)

    rng = make_rng(seed)
    for index, arrival in enumerate(stream.times()):
        app = applications[names[int(rng.integers(0, len(names)))]]
        yield app.sample_job(f"job-{index:06d}", float(arrival), rng)
