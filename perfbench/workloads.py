"""The benchmark's workloads and the checks on their outputs.

Each workload is one :class:`repro.api.ScenarioSpec` built from a seed, so
the same seed always gives the same inputs, and each loads a different
layer of the simulator (see ``perfbench/README.md`` for why).  Every
simulated statistic is deterministic; only host time varies between runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List

from repro import api
from repro.simulator.cluster import ClusterConfig
from repro.simulator.federation import MigrationConfig
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.mixtures import default_applications, generate_workload

#: Jobs per simulation of each stream workload: both streams carry the
#: same arrivals, so fleet_skew sees backlog_fcfs's stream split four ways.
STREAM_JOBS = 400
STREAM_RATE = 12.0
#: 16 regular / 8 LLM executors (batch 8): the stream overloads it.
STREAM_CLUSTER = ClusterConfig(num_regular_executors=16, num_llm_executors=8, max_batch_size=8)


#: Seed offset between the simulations of one run: simulation ``i`` of a
#: run at ``seed`` draws its workload with ``seed + SEED_STRIDE * i``.
SEED_STRIDE = 10007


@dataclass(frozen=True)
class Workload:
    """``simulations`` independent draws of ``num_jobs`` jobs make one cycle.

    A draw's backlog, and with it the host time per job, varies with the
    seed by a tenth or more; averaging several independent draws per run
    keeps one seed's figure close to the next seed's.
    """

    name: str
    why: str
    num_jobs: int
    simulations: int
    build: Callable[[int, int], api.ScenarioSpec]

    def specs(self, seed: int) -> List[api.ScenarioSpec]:
        return [self.build(seed + SEED_STRIDE * i, self.num_jobs) for i in range(self.simulations)]


def _stream(seed: int, num_jobs: int) -> api.WorkloadSection:
    return api.WorkloadSection.open_loop(
        PoissonProcess(rate=STREAM_RATE, seed=seed), seed=seed, max_jobs=num_jobs, name="poisson"
    )


def _backlog_fcfs(seed: int, num_jobs: int) -> api.ScenarioSpec:
    return api.ScenarioSpec(
        scheduler=api.SchedulerSection("fcfs"),
        workload=_stream(seed, num_jobs),
        cluster=api.ClusterSection(config=STREAM_CLUSTER),
    )


def _llmsched_mixed(seed: int, num_jobs: int) -> api.ScenarioSpec:
    # No cluster section: the API sizes the cluster at target_load=1.0.
    return api.ScenarioSpec(
        scheduler=api.SchedulerSection("llmsched"),
        workload=api.WorkloadSection.closed_loop(
            "mixed", num_jobs=num_jobs, arrival_rate=2.0, seed=seed
        ),
    )


def _serving_async(seed: int, num_jobs: int) -> api.ScenarioSpec:
    return api.ScenarioSpec(
        scheduler=api.SchedulerSection("slo_serving"),
        workload=api.WorkloadSection.closed_loop(
            "mixed", num_jobs=num_jobs, arrival_rate=0.9, seed=seed, token_mix="agentic"
        ),
        cluster=api.ClusterSection(
            config=ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=8)
        ),
        async_=api.AsyncSection(kind="fixed", latency=1.0, pipelined=True, max_in_flight=4),
    )


def _fleet_skew(seed: int, num_jobs: int) -> api.ScenarioSpec:
    return api.ScenarioSpec(
        scheduler=api.SchedulerSection("fcfs"),
        workload=_stream(seed, num_jobs),
        cluster=api.ClusterSection(
            config=STREAM_CLUSTER, num_shards=4, router="hash", migration=MigrationConfig()
        ),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "backlog_fcfs",
            "overloaded open-loop stream under fcfs: the backlog grows all run, so "
            "per-event dispatch (context + dag + scheduler) is O(backlog)",
            STREAM_JOBS,
            4,
            _backlog_fcfs,
        ),
        Workload(
            "llmsched_mixed",
            "the paper's llmsched on a closed-loop mixed workload: Bayesian profiler "
            "queries dominate and the backlog is shallow",
            50,
            8,
            _llmsched_mixed,
        ),
        Workload(
            "serving_async",
            "slo_serving with token-level progress and pipelined 1 s async decisions "
            "on COW snapshots over a tight cluster",
            100,
            20,
            _serving_async,
        ),
        Workload(
            "fleet_skew",
            "the backlog_fcfs stream on a 4-shard fleet with hash routing and "
            "migration: exercises route, migrate and per-shard stepping",
            STREAM_JOBS,
            4,
            _fleet_skew,
        ),
    )
}


@dataclass(frozen=True)
class Expected:
    """What a correct run of one spec must produce."""

    job_ids: FrozenSet[str]
    tasks: int


def expected_outputs(spec: api.ScenarioSpec) -> Expected:
    """Regenerate the spec's jobs independently of the run and count them.

    Every submitted job must complete, and every task of a stage that
    executes must run exactly once (work conservation).
    """
    applications = default_applications()
    workload = spec.workload
    if workload.mode == "closed":
        jobs = generate_workload(workload.to_workload_spec(), applications=applications)
    else:
        jobs = workload.to_open_loop_spec().jobs(applications)
    job_ids, tasks = set(), 0
    for job in jobs:
        job_ids.add(job.job_id)
        tasks += sum(len(s.tasks) for s in job.stages.values() if s.will_execute)
    return Expected(frozenset(job_ids), tasks)


def jct_digest(job_completion_times: List[Dict[str, float]]) -> str:
    """sha256 over each simulation's sorted (job id, JCT) pairs, at full precision."""
    digest = hashlib.sha256()
    for index, jcts in enumerate(job_completion_times):
        for job_id, jct in sorted(jcts.items()):
            digest.update(f"{index}\t{job_id}\t{jct!r}\n".encode("utf-8"))
    return digest.hexdigest()
