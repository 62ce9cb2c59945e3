"""Tests for the open-loop arrival processes and the streaming job source."""

import itertools

import pytest

from repro.schedulers.fcfs import FcfsScheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.workloads.arrivals import (
    BurstyProcess,
    DiurnalProcess,
    OpenLoopSpec,
    PoissonProcess,
    TraceReplayProcess,
    open_loop_jobs,
    superpose,
)
from repro.workloads.mixtures import default_applications


def head(process, count):
    return list(itertools.islice(process.times(), count))


class TestProcesses:
    @pytest.mark.parametrize(
        "process",
        [
            PoissonProcess(rate=2.0, seed=1),
            BurstyProcess(base_rate=1.0, burst_rate=8.0, seed=1),
            DiurnalProcess(mean_rate=2.0, period=600.0, seed=1),
        ],
    )
    def test_times_positive_and_sorted(self, process):
        times = head(process, 300)
        assert len(times) == 300
        assert all(t > 0 for t in times)
        assert times == sorted(times)

    @pytest.mark.parametrize(
        "process",
        [
            PoissonProcess(rate=2.0, seed=5),
            BurstyProcess(base_rate=1.0, burst_rate=8.0, seed=5),
            DiurnalProcess(mean_rate=2.0, period=600.0, seed=5),
        ],
    )
    def test_replayable(self, process):
        assert head(process, 100) == head(process, 100)

    def test_poisson_rate_roughly_matches(self):
        times = head(PoissonProcess(rate=4.0, seed=3), 4000)
        empirical = len(times) / times[-1]
        assert empirical == pytest.approx(4.0, rel=0.1)

    def test_bursty_interleaves_fast_and_slow_phases(self):
        times = head(BurstyProcess(base_rate=0.5, burst_rate=50.0, seed=2), 2000)
        gaps = sorted(b - a for a, b in zip(times, times[1:], strict=False))
        # The gap distribution must mix burst gaps (~0.02s) and normal-phase
        # gaps (~2s) — a single-rate Poisson cannot produce that spread.
        assert gaps[len(gaps) // 2] < 0.1  # bursts dominate the arrival count
        assert gaps[-1] > 1.0  # but slow-phase gaps are present too

    def test_diurnal_rate_oscillates(self):
        process = DiurnalProcess(mean_rate=2.0, amplitude=1.0, period=100.0, seed=2)
        assert process.rate_at(25.0) == pytest.approx(4.0)
        assert process.rate_at(75.0) == pytest.approx(0.0)

    def test_trace_replay_and_validation(self):
        assert head(TraceReplayProcess(trace=(0.5, 1.0, 4.0)), 10) == [0.5, 1.0, 4.0]
        with pytest.raises(ValueError):
            TraceReplayProcess(trace=(1.0, 0.5))
        with pytest.raises(ValueError):
            TraceReplayProcess(trace=(-1.0,))

    @pytest.mark.parametrize(
        "make",
        [
            lambda seed: PoissonProcess(rate=1.0, seed=seed),
            lambda seed: BurstyProcess(base_rate=1.0, burst_rate=8.0, seed=seed),
            lambda seed: DiurnalProcess(mean_rate=1.0, seed=seed),
        ],
        ids=["poisson", "bursty", "diurnal"],
    )
    def test_seed_must_be_a_non_negative_int(self, make):
        for seed in (1.5, True, -1):
            with pytest.raises(ValueError, match="seed must be an int >= 0"):
                make(seed)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PoissonProcess(rate=0.0)
        with pytest.raises(ValueError):
            BurstyProcess(base_rate=1.0, burst_rate=-1.0)
        with pytest.raises(ValueError):
            DiurnalProcess(mean_rate=1.0, amplitude=1.5)


class TestCombinators:
    def test_take_caps_count(self):
        assert len(head(PoissonProcess(rate=5.0, seed=1).take(7), 100)) == 7

    def test_until_caps_horizon(self):
        times = head(PoissonProcess(rate=5.0, seed=1).until(2.0), 1000)
        assert times
        assert all(t <= 2.0 for t in times)

    def test_combinators_compose(self):
        times = head(PoissonProcess(rate=5.0, seed=1).until(100.0).take(3), 100)
        assert len(times) == 3

    def test_superpose_merges_streams(self):
        merged = superpose(
            TraceReplayProcess(trace=(1.0, 3.0)),
            TraceReplayProcess(trace=(2.0, 4.0)),
        )
        assert head(merged, 10) == [1.0, 2.0, 3.0, 4.0]

    def test_superpose_requires_processes(self):
        with pytest.raises(ValueError):
            superpose()


class TestOpenLoopJobs:
    def test_jobs_are_lazy_and_capped(self):
        stream = open_loop_jobs(PoissonProcess(rate=2.0, seed=4), seed=4, max_jobs=25)
        jobs = list(stream)
        assert len(jobs) == 25
        arrivals = [j.arrival_time for j in jobs]
        assert arrivals == sorted(arrivals)
        assert len({j.job_id for j in jobs}) == 25

    def test_horizon_cap(self):
        jobs = list(open_loop_jobs(PoissonProcess(rate=2.0, seed=4), seed=4, horizon=10.0))
        assert jobs
        assert all(j.arrival_time <= 10.0 for j in jobs)

    def test_deterministic_replay(self):
        spec = OpenLoopSpec(process=PoissonProcess(rate=2.0, seed=4), seed=4, max_jobs=15)
        first = [(j.job_id, j.arrival_time, j.application) for j in spec.jobs()]
        second = [(j.job_id, j.arrival_time, j.application) for j in spec.jobs()]
        assert first == second

    def test_application_subset_respected(self):
        jobs = list(
            open_loop_jobs(
                PoissonProcess(rate=2.0, seed=4),
                application_names=["web_search"],
                seed=4,
                max_jobs=10,
            )
        )
        assert {j.application for j in jobs} == {"web_search"}

    def test_unknown_application_rejected(self):
        with pytest.raises(ValueError, match="missing applications"):
            list(
                open_loop_jobs(
                    PoissonProcess(rate=1.0, seed=0),
                    application_names=["nope"],
                    max_jobs=1,
                )
            )

    def test_engine_consumes_stream_end_to_end(self):
        spec = OpenLoopSpec(process=PoissonProcess(rate=2.0, seed=6), seed=6, max_jobs=40)
        cluster = Cluster(
            ClusterConfig(num_regular_executors=6, num_llm_executors=3, max_batch_size=8)
        )
        engine = SimulationEngine(
            spec.jobs(default_applications()), FcfsScheduler(), cluster=cluster
        )
        metrics = engine.run()
        assert len(metrics.job_completion_times) == 40
