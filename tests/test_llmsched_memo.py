"""LLMSched's per-job estimate memo and the profiler pass behind it.

Two oracles:

* A fresh :meth:`BayesianProfiler.remaining_estimate` is what every memo
  entry LLMSched would reuse must equal, after every engine step, across
  the feature matrix: an open-loop stream with multi-task stages (evidence
  from sampled tasks), task-automation jobs (dynamic reveals and
  zero-pinned candidates), both ablations, a migrating fleet and
  pipelined async decisions (whose snapshots carry no job version, so
  nothing may be reused).  The unmemoized reference engine must also
  produce the fast engine's JCTs.
* The profiler formulas from before the fused pass (kept below) are what
  ``estimate_remaining_duration`` and ``estimate_remaining_interval`` must
  still return, bit for bit, on randomly advanced jobs of every
  application.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import BatchingAwareCalibrator
from repro.core.llmsched import LLMSchedConfig, LLMSchedScheduler
from repro.core.profiler import BayesianProfiler
from repro.schedulers.registry import create_scheduler
from repro.simulator.async_sched import AsyncConfig, AsyncSchedulerBackend
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationConfig, SimulationEngine
from repro.simulator.federation import (
    FederatedCluster,
    FederatedSimulationEngine,
    JobRouter,
    MigrationConfig,
)
from repro.simulator.latency import DecodingLatencyProfile
from repro.simulator.reference import ReferenceSimulationEngine
from repro.workloads.arrivals import PoissonProcess, open_loop_jobs
from repro.workloads.mixtures import default_applications
from tests.test_ready_index import partial_jobs

SMALL = ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)


@pytest.fixture(scope="module")
def profiler():
    return BayesianProfiler().fit(default_applications().values(), n_profile_jobs=40, seed=3)


def stream(max_jobs=40, rate=2.0, seed=5, names=None):
    return open_loop_jobs(
        PoissonProcess(rate=rate, seed=seed), application_names=names, seed=seed, max_jobs=max_jobs
    )


def has_sampled_tasks(job):
    """True when a visible, unfinished stage already has finished tasks."""
    return any(
        stage.visible and any(task.is_finished for task in stage.tasks)
        for stage in job.unfinished_stages()
    )


class MemoCheck:
    """Counts the memo entries that were checked against a fresh pass."""

    def __init__(self):
        self.reusable = 0
        self.sampled = 0

    def __call__(self, engine):
        """Every entry the next call would reuse equals a fresh profiler pass."""
        scheduler = engine.scheduler
        for job in engine._active_jobs.values():
            cached = scheduler._memo.get(job.job_id)
            if cached is None or cached[0] != engine._ready.version(job):
                continue  # stale or absent: the next call recomputes it
            assert cached[1] == scheduler._estimate(job), job.job_id
            self.reusable += 1
            self.sampled += has_sampled_tasks(job)


def run_checked(engine, check):
    while engine.step():
        check(engine)
    return engine.finalize()


class TestMemoOracle:
    def test_open_loop_stream_with_sampled_tasks(self, profiler):
        check = MemoCheck()
        scheduler = LLMSchedScheduler(profiler, LLMSchedConfig(seed=1))
        # The same scheduler runs two engines over the same job ids: stamps
        # never repeat, so nothing from the first run matches the second.
        for _ in range(2):
            engine = SimulationEngine(stream(), scheduler, cluster=Cluster(SMALL))
            assert len(run_checked(engine, check).job_completion_times) == 40
        assert check.reusable > 0
        assert check.sampled > 0

    def test_task_automation_reveals_and_pinned_candidates(self, profiler):
        check = MemoCheck()
        jobs = stream(max_jobs=30, rate=1.0, names=["task_automation"])
        engine = SimulationEngine(jobs, LLMSchedScheduler(profiler), cluster=Cluster(SMALL))
        assert len(run_checked(engine, check).job_completion_times) == 30
        assert check.reusable > 0

    @pytest.mark.parametrize("name", ["llmsched_wo_bn", "llmsched_wo_uncertainty"])
    def test_ablations(self, profiler, name):
        check = MemoCheck()
        scheduler = create_scheduler(name, profiler=profiler)
        engine = SimulationEngine(stream(), scheduler, cluster=Cluster(SMALL))
        assert len(run_checked(engine, check).job_completion_times) == 40
        assert check.reusable > 0

    def test_fleet_with_migration(self, profiler):
        class Alternating(JobRouter):
            """Floods one shard, then the other, so migrations run both ways."""

            name = "alternating"

            def select_shard(self, shards, job):
                return int(job.arrival_time // 8.0) % 2

        moved = []

        class Recording(FederatedSimulationEngine):
            def _migrate_job(self, job, source, target, now):
                migrated = super()._migrate_job(job, source, target, now)
                if migrated:
                    moved.append(job.job_id)
                return migrated

        check = MemoCheck()
        fleet = FederatedCluster(
            [("s0", Cluster(SMALL)), ("s1", Cluster(SMALL))], router=Alternating()
        )
        engine = Recording(
            list(stream(max_jobs=60, rate=3.0)),
            lambda: LLMSchedScheduler(profiler),
            fleet,
            migration=MigrationConfig(
                interval=2.0, imbalance_threshold=0.1, max_migrations_per_check=3
            ),
        )
        while engine.step():
            for shard in engine.federation.shards:
                check(shard.engine)
        assert len(engine.finalize().job_completion_times) == 60
        assert check.reusable > 0
        assert moved
        assert len(moved) > len(set(moved))  # some job left a shard and came back

    def test_fast_engine_matches_the_unmemoized_reference(self, profiler):
        jcts = []
        for engine_class in (SimulationEngine, ReferenceSimulationEngine):
            scheduler = LLMSchedScheduler(profiler, LLMSchedConfig(seed=1))
            engine = engine_class(list(stream()), scheduler, cluster=Cluster(SMALL))
            jcts.append(engine.run().job_completion_times)
        assert scheduler._memo == {}  # the reference engine stamps no versions
        assert jcts[0] == jcts[1]

    @pytest.mark.parametrize("snapshot_policy", ["cow", "deepcopy"])
    def test_pipelined_async_reuses_nothing(self, profiler, snapshot_policy):
        scheduler = LLMSchedScheduler(profiler)
        engine = SimulationEngine(
            stream(max_jobs=30),
            scheduler,
            cluster=Cluster(SMALL),
            config=SimulationConfig(snapshot_policy=snapshot_policy),
            async_backend=AsyncSchedulerBackend(
                AsyncConfig(latency=1.0, pipelined=True, max_in_flight=3)
            ),
        )
        steps = 0
        while engine.step():
            steps += 1
            assert scheduler._memo == {}
        metrics = engine.finalize()
        assert len(metrics.job_completion_times) == 30
        assert metrics.num_async_decisions > 0 and steps > 0


# --------------------------------------------------------------------------- #
# The profiler formulas before the fused pass: the wrappers' oracle
# --------------------------------------------------------------------------- #
def old_is_resolved(job, variable):
    for stage in job.stages.values():
        if stage.profile_key == variable:
            return stage.is_complete
    return True


def old_remaining_duration(profiler, job, target_batch_size, calibrator, use_posterior):
    profile = profiler.profile_for(job.application)
    evidence = profiler.evidence_for(job)
    marginals = profiler.posterior_marginals(job.application, evidence) if use_posterior else None
    remaining_regular = 0.0
    remaining_llm = 0.0
    for variable in profile.variables:
        if variable in evidence and old_is_resolved(job, variable):
            continue
        if use_posterior:
            representatives = np.asarray(profile.specs[variable].representatives, dtype=float)
            expected = float(np.dot(marginals[variable], representatives))
        else:
            expected = profile.mean_durations[variable]
        if variable in profile.llm_variables:
            remaining_llm += expected
        else:
            remaining_regular += expected
    if calibrator is not None:
        remaining_llm = calibrator.calibrate(remaining_llm, target_batch_size)
    return remaining_regular + remaining_llm


def old_remaining_interval(profiler, job, use_posterior):
    profile = profiler.profile_for(job.application)
    evidence = profiler.evidence_for(job)
    marginals = profiler.posterior_marginals(job.application, evidence) if use_posterior else None
    mean_total = 0.0
    variance_total = 0.0
    for variable in profile.variables:
        if variable in evidence and old_is_resolved(job, variable):
            continue
        representatives = np.asarray(profile.specs[variable].representatives, dtype=float)
        if use_posterior:
            distribution = np.asarray(marginals[variable], dtype=float)
        else:
            distribution = np.full(representatives.size, 1.0 / representatives.size)
        mean = float(np.dot(distribution, representatives))
        second_moment = float(np.dot(distribution, representatives**2))
        mean_total += mean
        variance_total += max(0.0, second_moment - mean**2)
    spread = math.sqrt(variance_total)
    return max(0.0, mean_total - spread), mean_total + spread


class TestWrappersMatchTheOldFormulas:
    @given(
        seed=st.integers(0, 2**16),
        steps=st.integers(0, 30),
        batch=st.floats(1.0, 8.0),
        slope=st.sampled_from([0.0, 0.06, 0.2]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical(self, profiler, seed, steps, batch, slope):
        calibrator = BatchingAwareCalibrator(DecodingLatencyProfile(slope=slope))
        for job in partial_jobs(seed, 6, steps):
            for use_posterior in (True, False):
                for cal in (None, calibrator):
                    assert profiler.estimate_remaining_duration(
                        job, batch, cal, use_posterior
                    ) == old_remaining_duration(profiler, job, batch, cal, use_posterior)
                assert profiler.estimate_remaining_interval(
                    job, use_posterior
                ) == old_remaining_interval(profiler, job, use_posterior)
