"""Spec-tree tests: validation errors and JSON round-tripping.

The hypothesis property is the satellite acceptance bar of ISSUE 5:
``ScenarioSpec.from_json(spec.to_json()) == spec`` across every section —
closed/open workloads (including combinator arrival processes), cluster
shapes (sized / config / pools / federated), placement, async latency
models, autoscaler and settings.
"""

import copy
import json
import re

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.api import (
    AsyncSection,
    AutoscalerSection,
    ClusterSection,
    ExperimentSettings,
    MigrationSection,
    PlacementSection,
    ScenarioSpec,
    SchedulerSection,
    SLOSection,
    SpecError,
    WorkloadSection,
    with_overrides,
)
from repro.dag.task import TaskType
from repro.simulator.async_sched import PerJobLinearLatency, SampledLatency
from repro.simulator.cluster import ClusterConfig
from repro.simulator.pool import PoolSpec
from repro.workloads.arrivals import (
    BurstyProcess,
    DiurnalProcess,
    PoissonProcess,
    TraceReplayProcess,
    superpose,
)
from repro.workloads.mixtures import WorkloadType
from repro.workloads.serving import available_token_mixes


# --------------------------------------------------------------------------- #
# Validation: actionable errors
# --------------------------------------------------------------------------- #
#: Valid spec documents the integer-field cases below break one field of.
_CLOSED_DOC = {
    "workload": {
        "mode": "closed", "num_jobs": 5, "seed": 1, "token_mix": "chat", "token_seed": 2
    },
    "cluster": {"config": {"num_regular_executors": 2, "num_llm_executors": 1, "max_batch_size": 4}},
    "async": {"kind": "sampled", "samples": [0.5], "seed": 1, "max_in_flight": 2},
    "autoscaler": {"step": 1},
}
_POOLS_DOC = {
    "cluster": {
        "pools": [
            {"name": "cpu", "task_type": "regular", "num_executors": 2},
            {"name": "gpu", "task_type": "llm", "num_executors": 1, "max_batch_size": 4},
        ]
    }
}
_FLEET_DOC = {
    "workload": {
        "mode": "open",
        "process": {"kind": "poisson", "rate": 1.0, "seed": 1},
        "max_jobs": 5,
        "seed": 1,
    },
    "cluster": {
        "config": {"num_regular_executors": 2, "num_llm_executors": 2},
        "num_shards": 2,
        "migration": {"max_migrations_per_check": 2},
    },
}
#: (document, dotted path into it, value a JSON spec may carry there)
_INT_FIELD_CASES = [
    (_CLOSED_DOC, "cluster.config.num_regular_executors", 2.5),
    (_CLOSED_DOC, "cluster.config.num_regular_executors", True),
    (_CLOSED_DOC, "cluster.config.max_batch_size", 2.5),
    (_POOLS_DOC, "cluster.pools.0.num_executors", 2.5),
    (_FLEET_DOC, "cluster.num_shards", 2.0),
    (_FLEET_DOC, "cluster.migration.max_migrations_per_check", 1.5),
    (_CLOSED_DOC, "workload.num_jobs", 5.5),
    (_FLEET_DOC, "workload.max_jobs", 5.5),
    (_CLOSED_DOC, "workload.seed", 1.5),
    (_CLOSED_DOC, "workload.token_seed", 2.5),
    (_FLEET_DOC, "workload.process.seed", 1.5),
    (_CLOSED_DOC, "async.seed", 1.5),
    (_CLOSED_DOC, "async.max_in_flight", 1.5),
    (_CLOSED_DOC, "autoscaler.step", 1.5),
]


class TestValidation:
    @pytest.mark.parametrize(
        "doc, path, value", _INT_FIELD_CASES, ids=[f"{p}={v!r}" for _, p, v in _INT_FIELD_CASES]
    )
    def test_integer_fields_reject_floats_and_bools(self, doc, path, value):
        # Each of these used to pass validation, then either crash the run
        # with a TypeError or run with a value the spec did not say.
        data = copy.deepcopy(doc)
        ScenarioSpec.from_dict(data)  # the untouched document is valid
        *parents, field = path.split(".")
        node = data
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        node[field] = value
        message = rf"{field} must be an int >= \d+, got {re.escape(repr(value))}"
        with pytest.raises(SpecError, match=message):
            ScenarioSpec.from_dict(data)

    def test_unknown_scheduler_lists_available(self):
        with pytest.raises(SpecError, match="unknown scheduler 'nope'.*available.*fcfs"):
            SchedulerSection("nope")

    def test_unknown_scheduler_kwargs_fail_at_validation(self):
        # A typo must fail at spec construction ("repro validate"), not
        # after the expensive profiler fit at run time.
        with pytest.raises(SpecError, match="epsilonn.*valid.*epsilon"):
            SchedulerSection("llmsched", kwargs={"epsilonn": 0.1})
        with pytest.raises(SpecError, match="does not accept kwargs.*bogus"):
            SchedulerSection("fcfs", kwargs={"bogus": 1})

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"use_bn": "false"}, "use_bn"),
            ({"use_uncertainty": "yes"}, "use_uncertainty"),
            ({"epsilon": 1.5}, "epsilon"),
            ({"seed": -1}, "seed"),
            ({"seed": "3"}, "seed"),
        ],
    )
    def test_bad_llmsched_kwarg_values_fail_at_validation(self, kwargs, field):
        # Values, not just names, are checked before the profiler fit.
        with pytest.raises(SpecError, match=f"{field} must be"):
            SchedulerSection("llmsched_wo_bn", kwargs=kwargs)

    def test_baseline_kwargs_pass_through(self):
        # srtf_preempt genuinely accepts constructor kwargs.
        section = SchedulerSection("srtf_preempt", kwargs={"checkpoint": False})
        assert section.kwargs == {"checkpoint": False}

    def test_unknown_workload_type(self):
        with pytest.raises(SpecError, match="unknown workload_type.*mixed"):
            WorkloadSection.closed_loop("not-a-mix")

    def test_open_mode_requires_process(self):
        with pytest.raises(SpecError, match="process"):
            WorkloadSection(mode="open")

    def test_closed_mode_rejects_process(self):
        with pytest.raises(SpecError, match="closed-loop"):
            WorkloadSection(mode="closed", process=PoissonProcess(rate=1.0))

    def test_cluster_config_and_pools_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            ClusterSection(
                config=ClusterConfig(),
                pools=(PoolSpec("cpu", TaskType.REGULAR, 2),),
            )

    def test_federation_rejects_pools(self):
        with pytest.raises(SpecError, match="per-shard"):
            ClusterSection(pools=(PoolSpec("cpu", TaskType.REGULAR, 2),), num_shards=2)

    def test_migration_requires_federation(self):
        with pytest.raises(SpecError, match="num_shards > 1"):
            ClusterSection(migration=MigrationSection())

    def test_unknown_router_lists_available(self):
        with pytest.raises(SpecError, match="unknown job router.*least_loaded"):
            ClusterSection(num_shards=2, router="wormhole")

    def test_unknown_placement_lists_available(self):
        with pytest.raises(SpecError, match="unknown placement policy.*greedy"):
            PlacementSection("teleport")

    def test_federation_plus_autoscaler_conflict(self):
        with pytest.raises(SpecError, match="autoscal"):
            ScenarioSpec(
                workload=WorkloadSection.open_loop(PoissonProcess(rate=1.0), max_jobs=5),
                cluster=ClusterSection(config=ClusterConfig(), num_shards=2),
                autoscaler=AutoscalerSection(),
            )

    def test_federation_plus_placement_conflict(self):
        with pytest.raises(SpecError, match="placement"):
            ScenarioSpec(
                workload=WorkloadSection.open_loop(PoissonProcess(rate=1.0), max_jobs=5),
                cluster=ClusterSection(config=ClusterConfig(), num_shards=2),
                placement=PlacementSection(),
            )

    def test_federation_requires_open_loop(self):
        with pytest.raises(SpecError, match="open-loop"):
            ScenarioSpec(
                workload=WorkloadSection.closed_loop(),
                cluster=ClusterSection(config=ClusterConfig(), num_shards=2),
            )

    def test_schema_version_mismatch(self):
        with pytest.raises(SpecError, match="schema_version"):
            ScenarioSpec(schema_version=999)

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="unknown top-level key.*schedulerz"):
            ScenarioSpec.from_dict({"schedulerz": {}})

    def test_unknown_section_key(self):
        with pytest.raises(SpecError, match="unknown key.*arrival_rte"):
            ScenarioSpec.from_dict({"workload": {"arrival_rte": 1.0}})

    def test_async_negative_latency(self):
        with pytest.raises(SpecError, match=">= 0"):
            AsyncSection(latency=-1.0)

    def test_async_sampled_needs_samples(self):
        with pytest.raises(SpecError, match="samples"):
            AsyncSection(kind="sampled")

    def test_async_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown async latency kind"):
            AsyncSection(kind="quantum")

    def test_async_rejects_kind_mismatched_fields(self):
        # Overriding async.latency over a sampled section must not silently
        # run identical cells.
        with pytest.raises(SpecError, match="'latency' has no effect.*sampled"):
            AsyncSection(kind="sampled", samples=(0.5,), latency=2.0)
        with pytest.raises(SpecError, match="'base' has no effect.*fixed"):
            AsyncSection(kind="fixed", latency=1.0, base=0.5)

    def test_unknown_process_kind(self):
        with pytest.raises(SpecError, match="unknown arrival process kind"):
            ScenarioSpec.from_dict(
                {"workload": {"mode": "open", "process": {"kind": "tachyon"}}}
            )

    def test_bad_json_is_spec_error(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            ScenarioSpec.from_json("{nope")

    def test_unknown_token_mix_lists_available(self):
        with pytest.raises(SpecError, match="unknown token_mix 'bogus'.*chat"):
            WorkloadSection.closed_loop(token_mix="bogus")

    def test_token_seed_requires_mix(self):
        with pytest.raises(SpecError, match="token_seed.*token_mix"):
            WorkloadSection.closed_loop(token_seed=3)

    def test_slo_unknown_target_key(self):
        with pytest.raises(SpecError, match="unknown SLO target.*ttftt"):
            SLOSection(tiers={"interactive": {"ttftt": 1.0}})

    def test_slo_non_positive_target(self):
        with pytest.raises(SpecError, match="must be > 0"):
            SLOSection(tiers={"interactive": {"ttft": 0.0}})

    def test_slo_empty_tier(self):
        with pytest.raises(SpecError, match="sets no targets"):
            SLOSection(tiers={"interactive": {}})

    def test_slo_needs_a_tier(self):
        with pytest.raises(SpecError, match="at least one tier"):
            SLOSection(tiers={})

    def test_federation_rejects_token_mix(self):
        with pytest.raises(SpecError, match="single-cluster.*token"):
            ScenarioSpec(
                workload=WorkloadSection(
                    mode="open",
                    process=PoissonProcess(rate=1.0),
                    max_jobs=5,
                    token_mix="chat",
                ),
                cluster=ClusterSection(config=ClusterConfig(), num_shards=2),
            ).validate()


# --------------------------------------------------------------------------- #
# Schema v1 -> v2 migration
# --------------------------------------------------------------------------- #
class TestSchemaMigration:
    V1_DOC = {
        "schema_version": 1,
        "scheduler": {"name": "fcfs"},
        "workload": {"mode": "closed", "workload_type": "mixed", "num_jobs": 4},
        "cluster": {"config": {"num_regular_executors": 2, "num_llm_executors": 1}},
    }

    def test_v1_doc_upcasts_to_current_schema(self):
        spec = ScenarioSpec.from_dict(self.V1_DOC)
        assert spec.schema_version == 2
        assert spec.scheduler.name == "fcfs"
        # The upcast is idempotent: serializing re-stamps the document.
        assert spec.to_dict()["schema_version"] == 2

    def test_v1_doc_rejects_v2_only_slo_section(self):
        doc = {**self.V1_DOC, "slo": {"tiers": {"interactive": {"ttft": 5.0}}}}
        with pytest.raises(SpecError, match="schema_version 1.*v2-only.*slo"):
            ScenarioSpec.from_dict(doc)

    def test_v1_doc_rejects_v2_only_token_mix(self):
        doc = {
            **self.V1_DOC,
            "workload": {**self.V1_DOC["workload"], "token_mix": "chat"},
        }
        with pytest.raises(SpecError, match="schema_version 1.*v2-only.*token_mix"):
            ScenarioSpec.from_dict(doc)

    def test_v1_doc_rejects_v2_only_pool_role(self):
        doc = {
            **self.V1_DOC,
            "cluster": {
                "pools": [
                    {
                        "name": "gpu",
                        "task_type": "llm",
                        "num_executors": 1,
                        "role": "prefill",
                    }
                ]
            },
        }
        with pytest.raises(SpecError, match="schema_version 1.*v2-only.*role"):
            ScenarioSpec.from_dict(doc)

    def test_committed_v1_example_loads_through_v2_reader(self):
        # examples/specs/closed_mixed_fcfs.json is deliberately kept at
        # schema v1 as the living migration regression.
        from pathlib import Path

        path = (
            Path(__file__).parent.parent / "examples" / "specs" / "closed_mixed_fcfs.json"
        )
        raw = json.loads(path.read_text())
        assert raw["schema_version"] == 1
        spec = ScenarioSpec.from_json(path.read_text())
        assert spec.schema_version == 2
        spec.validate()


class TestAsyncSectionResolution:
    def test_to_async_config_builds_each_latency_model(self):
        fixed = AsyncSection(latency=2.5, pipelined=True, max_in_flight=3).to_async_config()
        assert fixed.latency == 2.5 and fixed.pipelined and fixed.max_in_flight == 3
        linear = AsyncSection(kind="per_job_linear", base=0.5, per_job=0.2).to_async_config()
        assert type(linear.latency) is PerJobLinearLatency
        assert (linear.latency.base, linear.latency.per_job) == (0.5, 0.2)
        sampled = AsyncSection(kind="sampled", samples=(1.0, 2.0), seed=3).to_async_config()
        assert type(sampled.latency) is SampledLatency
        assert list(sampled.latency.samples) == [1.0, 2.0] and sampled.latency.seed == 3


class TestSnapshotPolicy:
    def test_invalid_policy_raises_value_error_directly(self):
        with pytest.raises(ValueError, match="snapshot_policy must be 'cow' or 'deepcopy'"):
            ExperimentSettings(snapshot_policy="bogus")

    def test_invalid_policy_in_dict_becomes_spec_error(self):
        with pytest.raises(SpecError, match="snapshot_policy"):
            ScenarioSpec.from_dict({"settings": {"snapshot_policy": "bogus"}})

    def test_policy_survives_json_roundtrip(self):
        spec = ScenarioSpec(
            workload=WorkloadSection.closed_loop(num_jobs=5),
            settings=ExperimentSettings(snapshot_policy="deepcopy"),
        )
        replayed = ScenarioSpec.from_json(spec.to_json())
        assert replayed.settings.snapshot_policy == "deepcopy"
        assert replayed == spec

    def test_policy_defaults_to_cow(self):
        assert ExperimentSettings().snapshot_policy == "cow"

    def test_policy_override_path(self):
        spec = ScenarioSpec(workload=WorkloadSection.closed_loop(num_jobs=5))
        out = with_overrides(spec, {"settings.snapshot_policy": "deepcopy"})
        assert out.settings.snapshot_policy == "deepcopy"
        with pytest.raises(SpecError):
            with_overrides(spec, {"settings.snapshot_policy": "shallow"})


class TestOverrides:
    def test_override_creates_async_section(self):
        spec = ScenarioSpec(workload=WorkloadSection.closed_loop(num_jobs=5))
        out = with_overrides(spec, {"async.latency": 2.0, "scheduler.name": "sjf"})
        assert out.async_.latency == 2.0
        assert out.scheduler.name == "sjf"
        assert out.workload == spec.workload

    def test_override_invalid_value_raises(self):
        spec = ScenarioSpec(workload=WorkloadSection.closed_loop(num_jobs=5))
        with pytest.raises(SpecError):
            with_overrides(spec, {"async.latency": -1.0})

    def test_override_clears_section(self):
        spec = ScenarioSpec(
            workload=WorkloadSection.open_loop(PoissonProcess(rate=1.0), max_jobs=5),
            cluster=ClusterSection(
                config=ClusterConfig(), num_shards=2, migration=MigrationSection()
            ),
        )
        out = with_overrides(spec, {"cluster.num_shards": 1, "cluster.migration": None})
        assert out.cluster.num_shards == 1 and out.cluster.migration is None


# --------------------------------------------------------------------------- #
# Round-tripping (hypothesis)
# --------------------------------------------------------------------------- #
_rates = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
_seeds = st.integers(0, 99)

_leaf_processes = st.one_of(
    st.builds(PoissonProcess, rate=_rates, seed=_seeds),
    st.builds(
        BurstyProcess,
        base_rate=_rates,
        burst_rate=_rates,
        mean_normal_duration=st.floats(1.0, 200.0),
        mean_burst_duration=st.floats(1.0, 50.0),
        seed=_seeds,
    ),
    st.builds(
        DiurnalProcess,
        mean_rate=_rates,
        amplitude=st.floats(0.0, 1.0),
        period=st.floats(10.0, 1e5),
        seed=_seeds,
    ),
    st.builds(
        TraceReplayProcess,
        trace=st.lists(st.floats(0.0, 100.0), max_size=4).map(
            lambda xs: tuple(sorted(xs))
        ),
    ),
)

_processes = st.recursive(
    _leaf_processes,
    lambda inner: st.one_of(
        st.tuples(inner, st.integers(0, 50)).map(lambda t: t[0].take(t[1])),
        st.tuples(inner, st.floats(1.0, 1e4)).map(lambda t: t[0].until(t[1])),
        st.lists(inner, min_size=1, max_size=3).map(lambda ps: superpose(*ps)),
    ),
    max_leaves=4,
)

@st.composite
def _closed_workload_strategy(draw):
    # token_seed is only legal alongside a token_mix (validated), so the
    # strategy draws them dependently.
    token_mix = draw(st.one_of(st.none(), st.sampled_from(available_token_mixes())))
    token_seed = draw(st.one_of(st.none(), _seeds)) if token_mix is not None else None
    return WorkloadSection.closed_loop(
        workload_type=draw(st.sampled_from([w.value for w in WorkloadType])),
        num_jobs=draw(st.integers(1, 500)),
        arrival_rate=draw(_rates),
        seed=draw(_seeds),
        token_mix=token_mix,
        token_seed=token_seed,
    )


_closed_workloads = _closed_workload_strategy()

_open_workloads = st.builds(
    WorkloadSection.open_loop,
    process=_processes,
    application_names=st.one_of(
        st.none(), st.just(("code_generation", "web_search"))
    ),
    seed=_seeds,
    max_jobs=st.one_of(st.none(), st.integers(1, 200)),
    horizon=st.one_of(st.none(), st.floats(1.0, 1e4)),
    name=st.sampled_from(["open_loop", "bursty", "diurnal"]),
)

_cluster_configs = st.builds(
    ClusterConfig,
    num_regular_executors=st.integers(1, 32),
    num_llm_executors=st.integers(1, 16),
    max_batch_size=st.integers(1, 16),
    latency_slope=st.floats(0.0, 0.5),
)

_pools = st.lists(
    st.one_of(
        st.builds(
            PoolSpec,
            name=st.sampled_from(["cpu", "cpu2", "arm"]),
            task_type=st.just(TaskType.REGULAR),
            num_executors=st.integers(1, 8),
        ),
        st.builds(
            PoolSpec,
            name=st.sampled_from(["gpu", "a100", "h800"]),
            task_type=st.just(TaskType.LLM),
            num_executors=st.integers(1, 4),
            max_batch_size=st.integers(1, 16),
            speed_factor=st.floats(0.5, 2.0, exclude_min=True),
            role=st.sampled_from([None, "prefill", "decode"]),
        ),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda p: p.name,
).map(tuple)

_schedulers = st.one_of(
    st.builds(SchedulerSection, name=st.sampled_from(["fcfs", "sjf", "srtf", "llmsched"])),
    st.builds(
        SchedulerSection,
        name=st.just("llmsched"),
        kwargs=st.just({"epsilon": 0.25}),
    ),
)

_async_sections = st.one_of(
    st.none(),
    st.builds(
        AsyncSection,
        kind=st.just("fixed"),
        latency=st.floats(0.0, 10.0),
        pipelined=st.booleans(),
        max_in_flight=st.integers(1, 4),
    ),
    st.builds(
        AsyncSection,
        kind=st.just("per_job_linear"),
        base=st.floats(0.0, 2.0),
        per_job=st.floats(0.0, 1.0),
    ),
    st.builds(
        AsyncSection,
        kind=st.just("sampled"),
        samples=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4).map(tuple),
        seed=_seeds,
    ),
)

_slo_targets = st.one_of(
    st.fixed_dictionaries({"ttft": st.floats(0.1, 100.0)}),
    st.fixed_dictionaries({"tpot": st.floats(0.001, 1.0)}),
    st.fixed_dictionaries(
        {"ttft": st.floats(0.1, 100.0), "tpot": st.floats(0.001, 1.0)}
    ),
)

_slo_sections = st.one_of(
    st.none(),
    st.builds(
        SLOSection,
        tiers=st.dictionaries(
            st.sampled_from(["interactive", "batch", "default"]),
            _slo_targets,
            min_size=1,
            max_size=3,
        ),
    ),
)

_settings = st.builds(
    ExperimentSettings,
    target_load=st.floats(0.5, 2.0, exclude_min=True),
    profile_jobs=st.integers(10, 200),
    prior_samples=st.integers(10, 200),
    profiler_seed=_seeds,
    snapshot_policy=st.sampled_from(["cow", "deepcopy"]),
)


@st.composite
def scenario_specs(draw):
    federated = draw(st.booleans())
    if federated:
        workload = draw(_open_workloads)
        cluster = ClusterSection(
            config=draw(_cluster_configs.filter(
                lambda c: c.num_regular_executors >= 2 and c.num_llm_executors >= 2
            )),
            num_shards=draw(st.integers(2, 4)),
            router=draw(st.sampled_from(["hash", "least_loaded", "type_affinity"])),
            migration=draw(st.one_of(st.none(), st.builds(MigrationSection))),
        )
        placement = None
        autoscaler = None
    else:
        workload = draw(st.one_of(_closed_workloads, _open_workloads))
        shape = draw(st.sampled_from(["sized", "config", "pools"]))
        if shape == "config":
            cluster = ClusterSection(config=draw(_cluster_configs))
        elif shape == "pools":
            cluster = ClusterSection(pools=draw(_pools))
        else:
            cluster = ClusterSection(nominal_rate=draw(st.one_of(st.none(), _rates)))
        placement = draw(
            st.one_of(st.none(), st.builds(PlacementSection, name=st.sampled_from(["greedy", "best_fit"])))
        )
        autoscaler = draw(
            st.one_of(st.none(), st.builds(AutoscalerSection, step=st.integers(1, 4)))
        )
    return ScenarioSpec(
        scheduler=draw(_schedulers),
        workload=workload,
        cluster=cluster,
        placement=placement,
        async_=draw(_async_sections),
        autoscaler=autoscaler,
        slo=draw(_slo_sections),
        settings=draw(_settings),
    )


@hyp_settings(max_examples=60, deadline=None)
@given(scenario_specs())
def test_spec_json_roundtrip(spec):
    text = spec.to_json()
    json.loads(text)  # valid JSON
    assert ScenarioSpec.from_json(text) == spec
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


@hyp_settings(max_examples=30, deadline=None)
@given(scenario_specs())
def test_spec_roundtrip_is_stable(spec):
    """Serialization is a fixed point: dict -> spec -> dict is identity."""
    once = spec.to_dict()
    again = ScenarioSpec.from_dict(once).to_dict()
    assert once == again


@hyp_settings(max_examples=60, deadline=None)
@given(scenario_specs())
def test_spec_content_hash_roundtrip(spec):
    """The canonical identity survives serialization: ISSUE 10's property.

    ``content_hash`` hashes the *canonical* JSON of ``to_dict()``, so a spec
    reconstructed from its own serialized form — whatever dict insertion
    order or JSON whitespace it travelled through — must hash identically,
    and the hash must be a stable 64-char hex digest.
    """
    digest = spec.content_hash()
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert ScenarioSpec.from_dict(spec.to_dict()).content_hash() == digest
    # Formatting-insensitive: a pretty-printed to_json round trip and a
    # key-order-scrambled dict both land on the same hash.
    assert ScenarioSpec.from_json(spec.to_json()).content_hash() == digest
    scrambled = json.loads(json.dumps(spec.to_dict()))
    scrambled = dict(reversed(list(scrambled.items())))
    assert ScenarioSpec.from_dict(scrambled).content_hash() == digest
