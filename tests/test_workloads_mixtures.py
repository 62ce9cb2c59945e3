"""Tests for workload mixtures and arrival processes."""

import pytest

from repro.utils.rng import make_rng
from repro.workloads.mixtures import (
    WorkloadSpec,
    WorkloadType,
    default_applications,
    generate_workload,
    poisson_arrival_times,
)


class TestPoissonArrivals:
    def test_monotonically_increasing(self):
        times = poisson_arrival_times(100, 0.9, make_rng(0))
        assert all(b >= a for a, b in zip(times, times[1:], strict=False))

    def test_rate_approximately_respected(self):
        times = poisson_arrival_times(3000, 2.0, make_rng(1))
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(0.5, rel=0.1)

    def test_zero_count(self):
        assert poisson_arrival_times(0, 1.0, make_rng(0)) == []

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_arrival_times(10, 0.0, make_rng(0))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            poisson_arrival_times(-1, 1.0, make_rng(0))


class TestWorkloadSpec:
    def test_invalid_num_jobs(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_jobs=0)

    def test_application_names_per_type(self):
        assert len(WorkloadSpec(workload_type=WorkloadType.MIXED).application_names) == 6
        assert WorkloadSpec(workload_type=WorkloadType.PREDEFINED).application_names == [
            "sequence_sorting",
            "document_merging",
        ]
        assert WorkloadSpec(workload_type=WorkloadType.CHAIN).application_names == [
            "code_generation",
            "web_search",
        ]
        assert WorkloadSpec(workload_type=WorkloadType.PLANNING).application_names == [
            "task_automation",
            "llm_compiler",
        ]


class TestGenerateWorkload:
    def test_job_count_and_sorted_arrivals(self):
        spec = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=60, seed=0)
        jobs = generate_workload(spec)
        assert len(jobs) == 60
        arrivals = [j.arrival_time for j in jobs]
        assert arrivals == sorted(arrivals)

    def test_uniform_application_mix(self):
        spec = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=60, seed=1)
        jobs = generate_workload(spec)
        counts = {}
        for job in jobs:
            counts[job.application] = counts.get(job.application, 0) + 1
        assert len(counts) == 6
        assert all(count == 10 for count in counts.values())

    def test_chain_workload_uses_only_chain_apps(self):
        spec = WorkloadSpec(workload_type=WorkloadType.CHAIN, num_jobs=20, seed=2)
        jobs = generate_workload(spec)
        assert {j.application for j in jobs} == {"code_generation", "web_search"}

    def test_deterministic_for_same_seed(self):
        spec = WorkloadSpec(workload_type=WorkloadType.PLANNING, num_jobs=30, seed=5)
        jobs_a = generate_workload(spec)
        jobs_b = generate_workload(spec)
        assert [j.application for j in jobs_a] == [j.application for j in jobs_b]
        assert [j.arrival_time for j in jobs_a] == pytest.approx(
            [j.arrival_time for j in jobs_b]
        )
        assert [j.true_total_work for j in jobs_a] == pytest.approx(
            [j.true_total_work for j in jobs_b]
        )

    def test_different_seeds_differ(self):
        base = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=30, seed=1)
        other = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=30, seed=2)
        work_a = [j.true_total_work for j in generate_workload(base)]
        work_b = [j.true_total_work for j in generate_workload(other)]
        assert work_a != pytest.approx(work_b)

    def test_missing_application_rejected(self):
        spec = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=10)
        apps = default_applications()
        del apps["web_search"]
        with pytest.raises(ValueError):
            generate_workload(spec, applications=apps)

    def test_unique_job_ids(self):
        spec = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=40, seed=3)
        jobs = generate_workload(spec)
        assert len({j.job_id for j in jobs}) == 40
