"""Measure one workload: repeated simulations, output checks, metrics.

A run repeats cycles of the workload (same seed, same inputs) through
:func:`repro.api.run`, one simulation at a time in this one process,
until about ``seconds`` of host time have passed.  A cycle is one
simulation of each of the workload's specs.  Untraced cycles give the
end-to-end metrics; with ``trace`` on, untraced and traced cycles
alternate and the traced ones give the per-layer metrics.  Every cycle's
output is checked (see :func:`check`); any failure makes the run
incorrect.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.tracer import ROOT, LayerTracer
from perfbench.workloads import WORKLOADS, Expected, expected_outputs, jct_digest
from repro import api
from repro.simulator.engine import SimulationEngine
from repro.simulator.federation import FederatedSimulationEngine

#: Digests of the default seed and the held-out seed, per workload.
DIGESTS_FILE = Path(__file__).with_name("digests.json")
DEFAULT_SEED = 1
HELD_OUT_SEED = 97

#: (name, unit, better) of every metric the run prints; BENCHMARK.json
#: lists the same ones (the benchmark's tests check that).
END_TO_END = [
    ("jobs_per_s", "jobs/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]
PER_LAYER = [
    ("engine.steps", "count", "lower"),
    ("engine.step.busy_s", "s", "lower"),
    ("engine.step.self_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.unattributed_s", "s", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.jobs_per_s", "jobs/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("context.schedulable_tasks.calls", "count", "lower"),
    ("context.schedulable_tasks.busy_s", "s", "lower"),
    ("context.tasks_scanned", "count", "lower"),
    ("context.schedulable_stages.calls", "count", "lower"),
    ("context.schedulable_stages.busy_s", "s", "lower"),
    ("context.stages_scanned", "count", "lower"),
    ("context.running_tasks.calls", "count", "lower"),
    ("context.running_tasks.busy_s", "s", "lower"),
    ("context.snapshot.calls", "count", "lower"),
    ("context.snapshot.busy_s", "s", "lower"),
    ("context.self_s", "s", "lower"),
    ("dag.pending_tasks.calls", "count", "lower"),
    ("dag.schedulable_stages.calls", "count", "lower"),
    ("sched.calls", "count", "lower"),
    ("sched.busy_s", "s", "lower"),
    ("sched.self_s", "s", "lower"),
    ("sched.call_p50_ms", "ms", "lower"),
    ("sched.call_p99_ms", "ms", "lower"),
    ("sched.tasks_ranked", "count", "lower"),
    ("sched.useful_frac", "ratio", "higher"),
    ("profiler.evidence_for.calls", "count", "lower"),
    ("profiler.evidence_for.busy_s", "s", "lower"),
    ("profiler.posterior_marginals.calls", "count", "lower"),
    ("profiler.posterior_marginals.busy_s", "s", "lower"),
    ("profiler.estimate_remaining.calls", "count", "lower"),
    ("profiler.estimate_remaining.busy_s", "s", "lower"),
    ("profiler.uncertainty_reduction.calls", "count", "lower"),
    ("profiler.uncertainty_reduction.busy_s", "s", "lower"),
    ("profiler.fit_s", "s", "lower"),
    ("profiler.self_s", "s", "lower"),
    ("cluster.advance_to.calls", "count", "lower"),
    ("cluster.advance_to.busy_s", "s", "lower"),
    ("cluster.finish_task.calls", "count", "lower"),
    ("cluster.preempt_task.calls", "count", "lower"),
    ("cluster.placements", "count", "lower"),
    ("placement.select_pool.calls", "count", "lower"),
    ("placement.select_pool.busy_s", "s", "lower"),
    ("cluster.self_s", "s", "lower"),
    ("async.request.calls", "count", "lower"),
    ("async.request.busy_s", "s", "lower"),
    ("async.useful_frac", "ratio", "higher"),
    ("async.self_s", "s", "lower"),
    ("cow.mark_dirty.calls", "count", "lower"),
    ("cow.clones", "count", "lower"),
    ("fed.route.calls", "count", "lower"),
    ("fed.route.busy_s", "s", "lower"),
    ("fed.migrations", "count", "lower"),
    ("fed.step.self_s", "s", "lower"),
    ("fed.self_s", "s", "lower"),
    ("workloads.build_job.calls", "count", "lower"),
    ("workloads.build_job.busy_s", "s", "lower"),
    ("workloads.sample_job.busy_s", "s", "lower"),
    ("workloads.attach_token_model.busy_s", "s", "lower"),
    ("workloads.self_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


#: What :func:`reference_seconds` takes on an undisturbed 2-vCPU host of
#: the kind the benchmark was tuned on; host times are scaled to it.
REFERENCE_SECONDS = 0.022


class _Node:
    __slots__ = ("key", "links", "weight")

    def __init__(self, key: int) -> None:
        self.key = key
        self.links: List["_Node"] = []
        self.weight = float(key % 13)


def reference_seconds() -> float:
    """Host seconds of a fixed pure-Python workload that shares no simulator code.

    It allocates, links, walks and sorts objects like the simulator does.
    On a shared host the CPU alternates, for seconds to minutes at a time,
    between full speed and up to twice slower, and this workload slows with
    it; timed between simulations, it calibrates their host times.
    """
    size = 20_000
    gc.collect()
    started = time.perf_counter()
    nodes = [_Node(i) for i in range(size)]
    index = {node.key: node for node in nodes}
    for node in nodes:
        node.links.append(index[(node.key * 7919) % size])
    total = 0.0
    for node in nodes:
        for other in node.links:
            total += other.weight
    nodes.sort(key=lambda n: (n.weight, -n.key))
    return time.perf_counter() - started


@dataclass
class Rep:
    """One simulation: its host timings and the outputs the checks read.

    The full :class:`repro.api.Result` is dropped, so the run's peak memory
    is the simulator's, not the benchmark's growing pile of results.
    """

    setup_s: float  # api.run called -> engine starts stepping
    sim_s: float  # engine starts stepping -> api.run returns
    jcts: Dict[str, float]
    tasks_executed: int
    events: int
    wasted_placements: int  # async placements that were stale or lost their slot
    migrations: int
    #: The reference workload's mean time just before and just after.
    reference_s: float = REFERENCE_SECONDS

    @property
    def scale(self) -> float:
        """Factor from this simulation's host seconds to calibrated seconds."""
        return REFERENCE_SECONDS / self.reference_s


@dataclass
class Cycle:
    """One simulation of each of the workload's specs, traced or not."""

    reps: List[Rep]
    tracer: Optional[LayerTracer] = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def jobs(self) -> int:
        return sum(len(r.jcts) for r in self.reps)

    @property
    def sim_s(self) -> float:
        return sum(r.sim_s for r in self.reps)

    @property
    def calibrated_sim_s(self) -> float:
        return sum(r.sim_s * r.scale for r in self.reps)

    @property
    def wall_s(self) -> float:
        return sum(r.setup_s + r.sim_s for r in self.reps)

    @property
    def jobs_per_s(self) -> float:
        """Calibrated simulated jobs per host second."""
        return self.jobs / self.calibrated_sim_s

    @property
    def raw_jobs_per_s(self) -> float:
        return self.jobs / self.sim_s

    @property
    def avg_jct(self) -> float:
        return sum(sum(r.jcts.values()) for r in self.reps) / self.jobs


@dataclass
class Run:
    workload: str
    seed: int
    cycles: List[Cycle] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digest: Optional[str] = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and bool(self.cycles)

    def of_kind(self, traced: bool) -> List[Cycle]:
        return [c for c in self.cycles if c.traced == traced]


@contextmanager
def _engine_start_stamps(stamps: List[float]):
    """Record when each engine's run() starts: the end of set-up."""
    originals = [(cls, vars(cls)["run"]) for cls in (SimulationEngine, FederatedSimulationEngine)]
    for cls, run in originals:

        def stamped(self, _run=run):
            stamps.append(time.perf_counter())
            return _run(self)

        cls.run = stamped
    try:
        yield
    finally:
        for cls, run in originals:
            cls.run = run


def run_once(spec: api.ScenarioSpec, tracer: Optional[LayerTracer] = None) -> Rep:
    """One simulation of ``spec``, inside ``tracer``'s root span when given.

    The tracer must already be installed (``with tracer:``).
    """
    gc.collect()
    stamps: List[float] = []
    with _engine_start_stamps(stamps):
        started = time.perf_counter()
        if tracer is None:
            result = api.run(spec)
        else:
            result = tracer.run(lambda: api.run(spec))
        ended = time.perf_counter()
    metrics = result.metrics
    shards = list(metrics.shards.values()) if result.is_federated else [metrics]
    return Rep(
        setup_s=stamps[0] - started,
        sim_s=ended - stamps[0],
        jcts=dict(result.job_completion_times),
        tasks_executed=metrics.num_tasks_executed,
        events=metrics.num_events,
        wasted_placements=sum(m.num_stale_placements + m.num_placement_conflicts for m in shards),
        migrations=metrics.num_migrations if result.is_federated else 0,
    )


def run_cycle(specs: List[api.ScenarioSpec], traced: bool) -> Cycle:
    """Each spec once, with the reference workload timed between simulations."""
    tracer = LayerTracer() if traced else None
    references = [reference_seconds()]
    reps = []
    for spec in specs:
        if tracer is None:
            reps.append(run_once(spec))
        else:
            with tracer:
                reps.append(run_once(spec, tracer))
        references.append(reference_seconds())
    for rep, before, after in zip(reps, references, references[1:]):
        rep.reference_s = (before + after) / 2
    return Cycle(reps, tracer)


def check(cycle: Cycle, expected: List[Expected]) -> List[str]:
    """Output problems of one cycle (empty when correct)."""
    problems = []
    for index, (rep, want) in enumerate(zip(cycle.reps, expected, strict=True)):
        completed = set(rep.jcts)
        if completed != want.job_ids:
            problems.append(
                f"simulation {index}: {len(want.job_ids - completed)} submitted jobs did not "
                f"complete, {len(completed - want.job_ids)} unknown jobs completed"
            )
        executed = rep.tasks_executed
        if executed != want.tasks:
            problems.append(f"simulation {index}: executed {executed} tasks, generated {want.tasks}")
    tracer = cycle.tracer
    if tracer is not None:
        accounted = sum(tracer.layer_self().values()) + tracer.self_time[ROOT]
        if abs(accounted - tracer.wall()) > 1e-6 * tracer.wall():
            problems.append(f"layer self times sum to {accounted}, traced wall is {tracer.wall()}")
    return problems


def known_digest(workload: str, seed: int) -> Optional[str]:
    return json.loads(DIGESTS_FILE.read_text()).get(workload, {}).get(str(seed))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    """Repeat cycles of ``workload`` at ``seed`` for about ``seconds``.

    Another cycle starts only while it would end less than half a cycle
    past ``seconds``, so a run lasts ``seconds`` give or take half a cycle.
    With ``trace``, untraced and traced cycles alternate, at least one each.
    """
    specs = WORKLOADS[workload].specs(seed)
    expected = [expected_outputs(spec) for spec in specs]
    submitted = sum(len(e.job_ids) for e in expected)
    run = Run(workload, seed)
    reference = known_digest(workload, seed)
    started = time.perf_counter()
    while True:
        traced = trace and len(run.cycles) % 2 == 1
        run.attempted += submitted
        try:
            cycle = run_cycle(specs, traced)
        except Exception:  # a crashing simulation fails the run; its traceback is reported
            run.failed += submitted
            run.problems.append(traceback.format_exc(limit=4))
            break
        run.cycles.append(cycle)
        problems = check(cycle, expected)
        digest = jct_digest([r.jcts for r in cycle.reps])
        if run.digest is None:
            run.digest = digest
        if digest != run.digest:
            problems.append(f"JCT digest {digest} differs from the run's first {run.digest}")
        if reference is not None and digest != reference:
            problems.append(f"JCT digest {digest} differs from the recorded {reference}")
        if problems:
            run.failed += submitted
            run.problems.extend(problems)
        elapsed = time.perf_counter() - started
        kinds_done = len({c.traced for c in run.cycles}) == (2 if trace else 1)
        if kinds_done and elapsed + cycle.wall_s / 2 >= seconds:
            break
    return run


def _median(values) -> float:
    return float(statistics.median(values))


def import_seconds(src: Path) -> float:
    """Median calibrated time to import the simulator's API in three fresh interpreters."""
    code = "import time; t = time.perf_counter(); import repro.api; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    before = reference_seconds()
    for _ in range(3):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        after = reference_seconds()
        times.append(float(done.stdout) * REFERENCE_SECONDS * 2 / (before + after))
        before = after
    return _median(times)


def end_to_end(run: Run, import_s: float) -> Dict[str, float]:
    cycles = run.of_kind(False)
    return {
        "jobs_per_s": _median(c.jobs_per_s for c in cycles),
        "setup_s": import_s + _median(r.setup_s * r.scale for c in cycles for r in c.reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(cycle: Cycle) -> Dict[str, float]:
    """Per-layer metrics of one traced cycle."""
    t = cycle.tracer
    out: Dict[str, float] = {}
    for name in (
        "context.schedulable_tasks", "context.schedulable_stages", "context.running_tasks",
        "context.snapshot", "profiler.evidence_for", "profiler.posterior_marginals",
        "profiler.estimate_remaining", "profiler.uncertainty_reduction", "cluster.advance_to",
        "placement.select_pool", "async.request", "fed.route", "workloads.build_job",
    ):
        out[f"{name}.calls"] = t.calls[name]
        out[f"{name}.busy_s"] = t.busy[name]
    for name in ("dag.pending_tasks", "dag.schedulable_stages", "cluster.finish_task",
                 "cluster.preempt_task", "cow.mark_dirty"):
        out[f"{name}.calls"] = t.count(name)
    for layer, seconds in t.layer_self().items():
        out[f"{layer}.self_s"] = seconds
    landed = t.placements
    wasted = sum(r.wasted_placements for r in cycle.reps)
    out.update({
        "engine.steps": t.calls["engine.step"] + t.calls["fed.step"],
        "engine.step.busy_s": t.busy["engine.step"],
        "engine.step.self_s": t.self_time["engine.step"],
        "engine.unattributed_s": t.self_time[ROOT],
        "trace.unattributed_frac": t.self_time[ROOT] / t.wall(),
        "trace.jobs_per_s": cycle.jobs_per_s,
        "context.tasks_scanned": t.tasks_scanned,
        "context.stages_scanned": t.stages_scanned,
        "sched.calls": t.calls["sched.schedule"],
        "sched.busy_s": t.busy["sched.schedule"],
        "sched.call_p50_ms": t.percentile_ms("sched.schedule", 50),
        "sched.call_p99_ms": t.percentile_ms("sched.schedule", 99),
        "sched.tasks_ranked": t.tasks_ranked,
        "sched.useful_frac": t.sched_useful / max(1, t.calls["sched.schedule"]),
        "profiler.fit_s": t.busy["profiler.fit"],
        "cluster.placements": landed,
        "async.useful_frac": landed / (landed + wasted) if t.calls["async.request"] else 0.0,
        "cow.clones": t.count("cow.clones"),
        "fed.migrations": sum(r.migrations for r in cycle.reps),
        "fed.step.self_s": t.self_time["fed.step"],
        "workloads.sample_job.busy_s": t.busy["workloads.sample_job"],
        "workloads.attach_token_model.busy_s": t.busy["workloads.attach_token_model"],
    })
    return out


def per_layer(run: Run) -> Dict[str, float]:
    """Median over the traced cycles, plus the tracing overhead."""
    traced = [layer_metrics(c) for c in run.of_kind(True)]
    out = {name: _median(m[name] for m in traced) for name, _, _ in PER_LAYER if name in traced[0]}
    untraced = _median(c.jobs_per_s for c in run.of_kind(False))
    out["trace.overhead_frac"] = untraced / out["trace.jobs_per_s"] - 1.0
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3
