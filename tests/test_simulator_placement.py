"""Tests for the placement layer (policies mapping tasks onto pools)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.task import Task, TaskType
from repro.schedulers.fcfs import FcfsScheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.placement import (
    BestFitPlacement,
    GreedyFirstFitPlacement,
    PrefillDecodePlacement,
    available_placement_policies,
    create_placement_policy,
)
from repro.simulator.pool import PoolSpec
from repro.workloads.mixtures import WorkloadSpec, WorkloadType, generate_workload


def llm_task(work=1.0):
    return Task(job_id="j", stage_id="s", task_type=TaskType.LLM, work=work)


def regular_task(work=1.0):
    return Task(job_id="j", stage_id="s", task_type=TaskType.REGULAR, work=work)


def two_llm_pool_cluster():
    return Cluster(
        pools=[
            PoolSpec("cpu", TaskType.REGULAR, 4),
            PoolSpec("gpu-a", TaskType.LLM, 1, max_batch_size=4),
            PoolSpec("gpu-b", TaskType.LLM, 1, max_batch_size=4),
        ]
    )


class TestFactory:
    def test_names(self):
        assert "greedy" in available_placement_policies()
        assert "best_fit" in available_placement_policies()

    def test_create(self):
        assert isinstance(create_placement_policy("greedy"), GreedyFirstFitPlacement)
        assert isinstance(create_placement_policy("best_fit"), BestFitPlacement)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            create_placement_policy("nope")


class TestGreedyFirstFit:
    def test_first_pool_in_declaration_order(self):
        cluster = two_llm_pool_cluster()
        policy = GreedyFirstFitPlacement()
        assert policy.select_pool(cluster, llm_task()).name == "gpu-a"

    def test_skips_full_pools(self):
        cluster = two_llm_pool_cluster()
        policy = GreedyFirstFitPlacement()
        for _ in range(4):
            cluster.pool("gpu-a").assign(llm_task(), 0.0)
        assert policy.select_pool(cluster, llm_task()).name == "gpu-b"

    def test_none_when_everything_full(self):
        cluster = two_llm_pool_cluster()
        policy = GreedyFirstFitPlacement()
        for _ in range(8):
            assert cluster.assign_llm_task(llm_task(), 0.0) is not None
        assert policy.select_pool(cluster, llm_task()) is None


class TestBestFit:
    def test_prefers_tightest_pool(self):
        cluster = two_llm_pool_cluster()
        policy = BestFitPlacement()
        for _ in range(3):
            cluster.pool("gpu-b").assign(llm_task(), 0.0)
        # gpu-b has 1 free slot vs gpu-a's 4: best-fit packs into gpu-b.
        assert policy.select_pool(cluster, llm_task()).name == "gpu-b"

    def test_falls_back_when_tightest_full(self):
        cluster = two_llm_pool_cluster()
        policy = BestFitPlacement()
        for _ in range(4):
            cluster.pool("gpu-b").assign(llm_task(), 0.0)
        assert policy.select_pool(cluster, llm_task()).name == "gpu-a"


class TestPrefillDecode:
    def disaggregated_cluster(self):
        return Cluster(
            pools=[
                PoolSpec("cpu", TaskType.REGULAR, 4),
                PoolSpec("pre", TaskType.LLM, 1, max_batch_size=4, role="prefill"),
                PoolSpec("dec", TaskType.LLM, 1, max_batch_size=4, role="decode"),
            ]
        )

    def token_llm_task(self, work=2.0, prefill=0.5):
        task = llm_task(work=work)
        task.set_token_model(prompt_tokens=64, output_tokens=32, prefill_work=prefill)
        return task

    def test_fresh_request_routes_to_prefill_pool(self):
        policy = PrefillDecodePlacement()
        pool = policy.select_pool(self.disaggregated_cluster(), self.token_llm_task())
        assert pool.name == "pre"

    def test_prefill_complete_request_routes_to_decode_pool(self):
        policy = PrefillDecodePlacement()
        task = self.token_llm_task(prefill=0.5)
        task.progress = 0.6  # past the prefill boundary
        pool = policy.select_pool(self.disaggregated_cluster(), task)
        assert pool.name == "dec"

    def test_work_conserving_falls_back_to_opposite_role(self):
        cluster = self.disaggregated_cluster()
        policy = PrefillDecodePlacement()
        for _ in range(4):
            cluster.pool("pre").assign(self.token_llm_task(), 0.0)
        # Prefill pool full: a fresh request still lands (on the decode pool)
        # rather than going unplaced.
        assert policy.select_pool(cluster, self.token_llm_task()).name == "dec"

    def test_non_token_task_uses_first_fit(self):
        policy = PrefillDecodePlacement()
        cluster = self.disaggregated_cluster()
        assert policy.select_pool(cluster, llm_task()).name == "pre"
        assert policy.select_pool(cluster, regular_task()).name == "cpu"

    def test_registered_in_factory(self):
        assert "prefill_decode" in available_placement_policies()
        assert isinstance(
            create_placement_policy("prefill_decode"), PrefillDecodePlacement
        )


class TestEngineIntegration:
    SPEC = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=12, arrival_rate=1.5, seed=13)

    def run_with(self, placement, cluster):
        jobs = generate_workload(self.SPEC)
        engine = SimulationEngine(jobs, FcfsScheduler(), cluster=cluster, placement=placement)
        return engine.run()

    def test_default_placement_is_greedy(self):
        implicit = self.run_with(None, Cluster(ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)))
        explicit = self.run_with(
            GreedyFirstFitPlacement(),
            Cluster(ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)),
        )
        assert implicit.job_completion_times == explicit.job_completion_times
        assert implicit.makespan == explicit.makespan

    @pytest.mark.parametrize("policy_name", available_placement_policies())
    def test_policies_complete_on_heterogeneous_cluster(self, policy_name):
        metrics = self.run_with(create_placement_policy(policy_name), two_llm_pool_cluster())
        assert len(metrics.job_completion_times) == self.SPEC.num_jobs
        # Multi-pool runs report per-pool utilization by name.
        assert set(metrics.pool_utilization) == {"cpu", "gpu-a", "gpu-b"}


class TestPlacementContract:
    """Every built-in policy returns a pool whenever one of the task's type
    has a free slot (the engine relies on this to stop placing a decision
    once the free slots are used up)."""

    POOLS = [
        PoolSpec("cpu-a", TaskType.REGULAR, 2),
        PoolSpec("cpu-b", TaskType.REGULAR, 3, speed_factor=1.5),
        PoolSpec("pre", TaskType.LLM, 1, max_batch_size=2, role="prefill"),
        PoolSpec("dec", TaskType.LLM, 2, max_batch_size=3, role="decode"),
        PoolSpec("gpu", TaskType.LLM, 1, max_batch_size=4),
    ]
    POLICIES = {
        "greedy": GreedyFirstFitPlacement,
        "best_fit": BestFitPlacement,
        "prefill_decode": PrefillDecodePlacement,
    }

    @staticmethod
    def make_task(kind):
        if kind == "regular":
            return regular_task()
        task = llm_task(work=2.0)
        if kind != "llm":
            task.set_token_model(prompt_tokens=64, output_tokens=32, prefill_work=0.5)
            if kind == "decoding":
                task.progress = 0.6  # past the prefill boundary
        return task

    @given(
        fills=st.tuples(*(st.integers(0, s.num_executors * s.max_batch_size) for s in POOLS)),
        policy=st.sampled_from(sorted(POLICIES)),
        kind=st.sampled_from(["regular", "llm", "prefilling", "decoding"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_returns_a_pool_whenever_one_has_a_free_slot(self, fills, policy, kind):
        cluster = Cluster(pools=self.POOLS)
        for pool, fill in zip(cluster.pools, fills, strict=True):
            filler = regular_task if pool.task_type is TaskType.REGULAR else llm_task
            for _ in range(fill):
                assert pool.assign(filler(), 0.0) is not None
        task = self.make_task(kind)
        chosen = self.POLICIES[policy]().select_pool(cluster, task)
        if cluster.free_slots(task.task_type) == 0:
            assert chosen is None
        else:
            assert chosen is not None
            assert chosen.task_type is task.task_type
            assert chosen.assign(task, 0.0) is not None

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_full_preferred_pool_still_places(self, policy):
        cluster = Cluster(pools=self.POOLS)
        for name in ("cpu-b", "pre"):  # "pre" is a prefilling task's preferred pool
            pool = cluster.pool(name)
            filler = regular_task if pool.task_type is TaskType.REGULAR else llm_task
            while pool.free_slots:
                pool.assign(filler(), 0.0)
        for kind in ("regular", "prefilling"):
            task = self.make_task(kind)
            chosen = self.POLICIES[policy]().select_pool(cluster, task)
            assert chosen is not None and chosen.name not in ("cpu-b", "pre")
