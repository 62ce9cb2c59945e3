"""Per-layer tracing of a simulator run, from outside the program.

:class:`LayerTracer` wraps the public functions of each simulator layer
(engine, scheduling context, DAG, scheduler, profiler, cluster, async
decisions, federation, workload generation) while it is installed, and
puts every original function object back when it is removed.  Nothing in
``src/`` knows it exists; with no tracer installed the program runs its
own code untouched.

Two kinds of wrapper:

* **spans** time a call.  Each span records its name, start, end and the
  span that was open when it started; self time is the span minus the
  time its child spans cover.  Spans are kept in memory and written out
  by :meth:`LayerTracer.write_spans`.
* **counters** only count calls (the DAG accessors run millions of times
  per run, too often to time).  A count is attributed to the innermost
  open span, so a test can predict exactly how many calls a change in one
  caller adds.

Counts are deterministic (the simulation is), timings are host time.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: The bottom span of every traced run; its self time is the part of the
#: run no wrapped function accounts for.
ROOT = "bench.run"

#: Span-name prefix -> layer, for per-layer self time.
LAYER_OF_PREFIX = {
    "engine": "engine",
    "context": "context",
    "sched": "sched",
    "profiler": "profiler",
    "cluster": "cluster",
    "placement": "cluster",
    "async": "async",
    "fed": "fed",
    "workloads": "workloads",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_PREFIX.values()))


@dataclass(frozen=True)
class Target:
    """One attribute the tracer replaces while installed."""

    owner: object  # a class or a module
    attr: str
    name: str  # span or counter name
    timed: bool


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _defining_classes(base, attr: str) -> List[type]:
    """``base`` and every subclass that defines ``attr`` itself, sorted by name."""
    classes = [c for c in _subclasses(base) if attr in vars(c)]
    return sorted(set(classes), key=lambda c: (c.__module__, c.__qualname__))


def _module_bindings(function) -> List[object]:
    """Every loaded ``repro`` module that binds ``function`` at top level."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
        and getattr(module, function.__name__, None) is function
    ]


def layer_targets() -> List[Target]:
    """The functions wrapped per layer (imports the simulator)."""
    from repro.core.profiler import BayesianProfiler
    from repro.dag.application import ApplicationTemplate
    from repro.dag.job import Job
    from repro.dag.stage import Stage
    from repro.schedulers.base import Scheduler, SchedulingContext
    from repro.schedulers.snapshot import CowSnapshotTracker
    from repro.simulator.async_sched import AsyncSchedulerBackend
    from repro.simulator.cluster import Cluster
    from repro.simulator.engine import SimulationEngine
    from repro.simulator.federation import FederatedSimulationEngine, JobRouter
    from repro.simulator.placement import PlacementPolicy
    from repro.simulator.pool import ExecutorPool
    from repro.workloads.serving import attach_token_model

    spans: List[Tuple[object, str, str]] = [
        (SimulationEngine, "run", "engine.run"),
        (SimulationEngine, "step", "engine.step"),
        (FederatedSimulationEngine, "run", "engine.run"),
        (FederatedSimulationEngine, "step", "fed.step"),
        (SchedulingContext, "schedulable_tasks", "context.schedulable_tasks"),
        (SchedulingContext, "schedulable_stages", "context.schedulable_stages"),
        (SchedulingContext, "running_tasks", "context.running_tasks"),
        (SchedulingContext, "snapshot", "context.snapshot"),
        (BayesianProfiler, "fit", "profiler.fit"),
        (BayesianProfiler, "evidence_for", "profiler.evidence_for"),
        (BayesianProfiler, "posterior_marginals", "profiler.posterior_marginals"),
        (BayesianProfiler, "estimate_remaining_duration", "profiler.estimate_remaining"),
        (BayesianProfiler, "estimate_remaining_interval", "profiler.estimate_remaining"),
        (BayesianProfiler, "uncertainty_reduction", "profiler.uncertainty_reduction"),
        (Cluster, "advance_to", "cluster.advance_to"),
        (AsyncSchedulerBackend, "request", "async.request"),
        (ApplicationTemplate, "build_job", "workloads.build_job"),
    ]
    spans += [(c, "schedule", "sched.schedule") for c in _defining_classes(Scheduler, "schedule")]
    spans += [
        (c, "select_pool", "placement.select_pool")
        for c in _defining_classes(PlacementPolicy, "select_pool")
    ]
    spans += [
        (c, "select_shard", "fed.route") for c in _defining_classes(JobRouter, "select_shard")
    ]
    spans += [
        (c, "sample_job", "workloads.sample_job")
        for c in _defining_classes(ApplicationTemplate, "sample_job")
    ]
    spans += [
        (m, "attach_token_model", "workloads.attach_token_model")
        for m in _module_bindings(attach_token_model)
    ]
    counters: List[Tuple[object, str, str]] = [
        (Stage, "pending_tasks", "dag.pending_tasks"),
        (Job, "schedulable_stages", "dag.schedulable_stages"),
        (Job, "snapshot_clone", "cow.clones"),
        (CowSnapshotTracker, "mark_dirty", "cow.mark_dirty"),
        (Cluster, "finish_regular_task", "cluster.finish_task"),
        (Cluster, "finish_llm_task", "cluster.finish_task"),
        (Cluster, "preempt_task", "cluster.preempt_task"),
        (ExecutorPool, "assign", "cluster.assign"),
    ]
    return [Target(o, a, n, True) for o, a, n in spans] + [
        Target(o, a, n, False) for o, a, n in counters
    ]


class LayerTracer:
    """Installs span and counter wrappers; use as a context manager.

    One tracer records one run.  ``calls``, ``busy`` and ``self_time`` are
    keyed by span name; ``counts`` by ``(counter name, enclosing span)``.
    """

    #: Spans whose individual durations are kept for percentiles.
    SAMPLED = ("sched.schedule",)

    def __init__(self) -> None:
        self.targets = layer_targets()
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[Tuple[str, str], int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = {name: [] for name in self.SAMPLED}
        #: Finished spans: (span id, parent id, name, start, end); ROOT spans have parent -1.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.tasks_scanned = 0
        self.stages_scanned = 0
        self.tasks_ranked = 0
        self.sched_useful = 0
        self.placements = 0
        self._placed_at_last_schedule: Optional[int] = None
        self._names: List[str] = []  # open span names, innermost last
        self._ids: List[int] = []
        self._child: List[float] = []
        self._next_id = 0
        self._originals: List[Tuple[Target, object]] = []

    # -- install / remove ------------------------------------------------ #
    def __enter__(self) -> "LayerTracer":
        for target in self.targets:
            original = vars(target.owner)[target.attr]
            wrap = self._span if target.timed else self._counter
            self._originals.append((target, original))
            setattr(target.owner, target.attr, wrap(original, target.name))
        return self

    def __exit__(self, *exc) -> None:
        for target, original in reversed(self._originals):
            setattr(target.owner, target.attr, original)
        self._originals.clear()

    # -- the root span ---------------------------------------------------- #
    def run(self, function: Callable[[], object]) -> object:
        """Call ``function`` inside the ROOT span and return its result."""
        if self._names:
            raise RuntimeError("a traced run is already open")
        result = self._span(function, ROOT)()
        self._close_schedule_window()
        return result

    # -- wrappers --------------------------------------------------------- #
    def _span(self, function, name: str):
        names, ids, child = self._names, self._ids, self._child
        calls, busy, self_time, spans = self.calls, self.busy, self.self_time, self.spans
        clock = time.perf_counter
        sample = self.samples.get(name)
        after = {
            "sched.schedule": self._after_schedule,
            "context.schedulable_tasks": self._after_schedulable_tasks,
            "context.schedulable_stages": self._after_schedulable_stages,
        }.get(name)
        before = self._close_schedule_window if name == "sched.schedule" else None

        def traced(*args, **kwargs):
            if names and names[-1] == name:
                # A same-named override calling super(): one span, not two.
                return function(*args, **kwargs)
            if before is not None:
                before()
            span_id = self._next_id
            self._next_id += 1
            parent = ids[-1] if ids else -1
            names.append(name)
            ids.append(span_id)
            child.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                names.pop()
                ids.pop()
                duration = end - start
                self_time[name] += duration - child.pop()
                if child:
                    child[-1] += duration
                calls[name] += 1
                busy[name] += duration
                spans.append((span_id, parent, name, start, end))
                if sample is not None:
                    sample.append(duration)
            if after is not None:
                after(result)
            return result

        return traced

    def _counter(self, function, name: str):
        names, counts = self._names, self.counts
        if name != "cluster.assign":

            def counted(*args, **kwargs):
                counts[(name, names[-1] if names else "")] += 1
                return function(*args, **kwargs)

            return counted

        def placed(*args, **kwargs):
            # Counts placements, not attempts: assign returns None on a full pool.
            executor_id = function(*args, **kwargs)
            if executor_id is not None:
                counts[(name, names[-1] if names else "")] += 1
                self.placements += 1
            return executor_id

        return placed

    def _after_schedule(self, decision) -> None:
        self.tasks_ranked += len(decision.regular_tasks) + len(decision.llm_tasks)
        self._placed_at_last_schedule = self.placements

    def _close_schedule_window(self) -> None:
        """Credit the previous scheduler call if a task was placed since."""
        mark = self._placed_at_last_schedule
        if mark is not None and self.placements > mark:
            self.sched_useful += 1
        self._placed_at_last_schedule = None

    def _after_schedulable_tasks(self, tasks) -> None:
        self.tasks_scanned += len(tasks)

    def _after_schedulable_stages(self, stages) -> None:
        self.stages_scanned += len(stages)

    # -- results ---------------------------------------------------------- #
    def count(self, name: str, parent: Optional[str] = None) -> int:
        """Calls counted under ``name``, optionally only inside span ``parent``."""
        return sum(
            n for (key, where), n in self.counts.items()
            if key == name and (parent is None or where == parent)
        )

    def layer_self(self) -> Dict[str, float]:
        """Self time per layer; the ROOT span's self time is not in any layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_time.items():
            if name != ROOT:
                out[LAYER_OF_PREFIX[name.split(".", 1)[0]]] += seconds
        return out

    def wall(self) -> float:
        return self.busy[ROOT]

    def percentile_ms(self, name: str, q: int) -> float:
        values = self.samples[name]
        if len(values) < 2:
            return 1000.0 * values[0] if values else 0.0
        return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    def write_spans(self, path) -> None:
        """Write every finished span as tab-separated text, in start order."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            for span_id, parent, name, start, end in sorted(self.spans):
                out.write(
                    f"{span_id}\t{parent}\t{name}\t{(start - origin) * 1e6:.1f}\t"
                    f"{(end - origin) * 1e6:.1f}\n"
                )
