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
from pathlib import Path

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
from repro.api.spec import _is_finite
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
    "schema_version": 2,
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
    (_CLOSED_DOC, "schema_version", 2.0),
]
#: (example spec, dotted path into it, a non-finite or bool value JSON may carry there)
_REAL_FIELD_CASES = [
    ("federated_poisson", "cluster.config.latency_slope", float("nan")),
    ("federated_poisson", "cluster.config.latency_slope", True),
    ("autoscale_diurnal", "cluster.pools.1.speed_factor", float("nan")),
    ("autoscale_diurnal", "cluster.pools.1.speed_factor", float("inf")),
    ("autoscale_diurnal", "cluster.pools.1.latency_slope", float("nan")),
    ("federated_poisson", "cluster.migration.interval", float("nan")),
    ("federated_poisson", "cluster.migration.cost", float("inf")),
    ("federated_poisson", "cluster.migration.imbalance_threshold", float("nan")),
    ("federated_poisson", "cluster.migration.imbalance_threshold", True),
    ("async_decision_latency", "async.latency", float("nan")),
    ("async_decision_latency", "async.latency", float("inf")),
    ("async_decision_latency", "async.latency", True),
    ("autoscale_diurnal", "autoscaler.interval", float("nan")),
    ("autoscale_diurnal", "autoscaler.interval", float("inf")),
    ("autoscale_diurnal", "autoscaler.interval", True),
    ("serving_slo_chat", "slo.tiers.interactive.ttft", float("nan")),
    ("serving_slo_chat", "slo.tiers.interactive.ttft", float("inf")),
    ("serving_slo_chat", "slo.tiers.batch.tpot", True),
    ("closed_mixed_fcfs", "workload.arrival_rate", float("nan")),
    ("closed_mixed_fcfs", "workload.arrival_rate", float("inf")),
    ("closed_mixed_fcfs", "workload.arrival_rate", True),
]
#: (example spec, dotted path into it, an infinite or bool value JSON may
#: carry there): arrival-process rates and durations, the diurnal amplitude,
#: an autoscaler occupancy and the schema version.
_UNBOUNDED_FIELD_CASES = [
    *(
        ("federated_poisson", "workload.process.rate", value)
        for value in (float("inf"), True)
    ),
    *(
        ("open_loop_bursty_srtf", f"workload.process.{name}", value)
        for name in ("base_rate", "burst_rate", "mean_burst_duration", "mean_normal_duration")
        for value in (float("inf"), True)
    ),
    *(
        ("autoscale_diurnal", f"workload.process.{name}", value)
        for name in ("mean_rate", "period")
        for value in (float("inf"), True)
    ),
    ("autoscale_diurnal", "workload.process.amplitude", True),
    ("autoscale_diurnal", "autoscaler.scale_up_occupancy", True),
    ("autoscale_diurnal", "schema_version", True),
]
#: (field, the name its error gives, a section built with one value there);
#: no committed example sets these fields.
_REAL_SECTION_CASES = [
    ("cluster.nominal_rate", "cluster nominal_rate", lambda v: ClusterSection(nominal_rate=v)),
    (
        "workload.horizon",
        "workload horizon",
        lambda v: WorkloadSection.open_loop(PoissonProcess(rate=1.0), horizon=v),
    ),
    ("async.base", "async base", lambda v: AsyncSection(kind="per_job_linear", base=v)),
    ("async.per_job", "async per_job", lambda v: AsyncSection(kind="per_job_linear", per_job=v)),
    (
        "async.samples.1",
        "async samples[1]",
        lambda v: AsyncSection(kind="sampled", samples=(0.5, v)),
    ),
]


#: Fields declared > 0 (the others above are >= 0.0): a non-finite or bool
#: value there reads "must be a finite number > 0".
_POSITIVE_FIELDS = {
    "speed_factor", "interval", "imbalance_threshold", "arrival_rate", "nominal_rate", "horizon"
}


def _bound(field):
    return "> 0" if field in _POSITIVE_FIELDS else r">= 0\.0"


_ASYNC_EXAMPLE = Path(__file__).parent.parent / "examples" / "specs" / "async_decision_latency.json"


def _set_field(data, path, value):
    """Overwrite the field at dotted ``path`` in ``data`` (it must exist); return its name."""
    *parents, field = path.split(".")
    node = data
    for part in parents:
        node = node[int(part)] if part.isdigit() else node[part]
    assert field in node  # each case breaks a field the document sets
    node[field] = value
    return field


#: (example spec, scheduler, kwargs with one bad value, the error it must raise)
_PREEMPTIVE_KWARG_CASES = [
    ("serving_slo_chat", "slo_serving", {"max_preemptions_per_event": 0},
     "max_preemptions_per_event must be an int >= 1, got 0"),
    ("serving_slo_chat", "slo_serving", {"max_preemptions_per_event": 2.5},
     "max_preemptions_per_event must be an int >= 1, got 2.5"),
    ("serving_slo_chat", "slo_serving", {"slack_margin": True},
     "slack_margin must be a finite number >= 0.0, got True"),
    ("serving_slo_chat", "slo_serving", {"min_victim_remaining": "soon"},
     "min_victim_remaining must be a finite number >= 0.0, got 'soon'"),
    ("open_loop_bursty_srtf", "srtf_preempt", {"max_preemptions_per_event": 2.5},
     "max_preemptions_per_event must be an int >= 1, got 2.5"),
    ("open_loop_bursty_srtf", "srtf_preempt", {"checkpoint": "no"},
     "checkpoint must be a bool, got 'no'"),
    ("open_loop_bursty_srtf", "srtf", {"remaining_estimator": "oracle"},
     "does not accept kwargs ['remaining_estimator']"),
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
        field = _set_field(data, path, value)
        message = rf"{field} must be an int >= \d+, got {re.escape(repr(value))}"
        with pytest.raises(SpecError, match=message):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize(
        "example, path, value",
        _REAL_FIELD_CASES,
        ids=[f"{e}-{p}={v!r}" for e, p, v in _REAL_FIELD_CASES],
    )
    def test_real_fields_reject_non_finite_numbers_and_bools(self, example, path, value):
        # NaN or infinite hardware numbers, async latencies and arrival rates
        # used to validate and then hang or crash the run; bools and
        # non-finite migration, autoscaler and SLO knobs ran silently.
        spec_path = Path(__file__).parent.parent / "examples" / "specs" / f"{example}.json"
        data = json.loads(spec_path.read_text())
        ScenarioSpec.from_dict(data)  # the untouched example is valid
        field = _set_field(data, path, value)
        message = rf"{field} must be a finite number {_bound(field)}, got {re.escape(repr(value))}"
        with pytest.raises(SpecError, match=message):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize(
        "example, path, value",
        _UNBOUNDED_FIELD_CASES,
        ids=[f"{e}-{p}={v!r}" for e, p, v in _UNBOUNDED_FIELD_CASES],
    )
    def test_fields_reject_infinities_and_bools(self, example, path, value):
        # Each of these used to validate and then change the run: an
        # infinite rate still ran, true ran as 1.0, and schema_version true
        # was upcast as v1.
        spec_path = Path(__file__).parent.parent / "examples" / "specs" / f"{example}.json"
        data = json.loads(spec_path.read_text())
        ScenarioSpec.from_dict(data)  # the untouched example is valid
        field = _set_field(data, path, value)
        message = rf"\b{field} must .*got {re.escape(repr(value))}"
        with pytest.raises(SpecError, match=message):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True], ids=repr)
    @pytest.mark.parametrize(
        "field, name, build", _REAL_SECTION_CASES, ids=[f for f, _, _ in _REAL_SECTION_CASES]
    )
    def test_real_fields_of_sections_reject_non_finite_numbers_and_bools(
        self, field, name, build, value
    ):
        # NaN or infinite rates, horizons and latencies used to validate and
        # then crash or hang the run; bools ran as 1.0.
        build(2.0)  # a finite value is valid
        bound = _bound(field.split(".")[-1])
        message = rf"must be a finite number {bound}, got {re.escape(repr(value))}"
        with pytest.raises(SpecError, match=re.escape(name) + " " + message):
            build(value)

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

    @pytest.mark.parametrize(
        "example, name, kwargs, message",
        _PREEMPTIVE_KWARG_CASES,
        ids=[f"{n}-{k}={v!r}" for _, n, kw, _ in _PREEMPTIVE_KWARG_CASES for k, v in kw.items()],
    )
    def test_bad_preemptive_kwarg_values_fail_at_validation(self, example, name, kwargs, message):
        # Each of these used to validate, then fail inside the run (0, "soon",
        # "oracle") or run with a value the spec did not say (2.5, true, "no").
        path = Path(__file__).parent.parent / "examples" / "specs" / f"{example}.json"
        doc = json.loads(path.read_text())
        doc["scheduler"] = {"name": name}
        ScenarioSpec.from_dict(doc)  # the scheduler without kwargs is valid
        doc["scheduler"]["kwargs"] = kwargs
        with pytest.raises(SpecError, match=re.escape(message)):
            ScenarioSpec.from_dict(doc)

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

    @pytest.mark.parametrize("value", ["false", "no", 1, 0])
    def test_async_pipelined_must_be_a_bool(self, value):
        # Each used to validate; the strings and 1 then ran pipelined.
        data = json.loads(_ASYNC_EXAMPLE.read_text())
        data["async"]["pipelined"] = value
        message = rf"async pipelined must be a bool, got {re.escape(repr(value))}"
        with pytest.raises(SpecError, match=message):
            ScenarioSpec.from_dict(data)

    def test_async_max_in_flight_needs_pipelining(self):
        # Unpipelined decisions are one at a time whatever max_in_flight
        # says, so a grid over it used to run identical cells.
        data = json.loads(_ASYNC_EXAMPLE.read_text())
        data["async"].update(pipelined=False, max_in_flight=4)
        with pytest.raises(SpecError, match="'max_in_flight' has no effect unless 'pipelined'"):
            ScenarioSpec.from_dict(data)
        data["async"]["pipelined"] = True
        assert ScenarioSpec.from_dict(data).async_.to_async_config().depth == 4

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


_POISSON = {"kind": "poisson", "rate": 1.0, "seed": 1}
#: (arrival process a JSON spec may carry, the error it must raise): each used
#: to be cast (true ran one arrival, 2.7 two, "5" five), ignored (the typo)
#: or to fail with a KeyError traceback (no count).
_PROCESS_DOCUMENT_CASES = [
    ({"kind": "take", "count": True, "inner": _POISSON}, "count must be an int >= 0, got True"),
    ({"kind": "take", "count": 2.7, "inner": _POISSON}, "count must be an int >= 0, got 2.7"),
    ({"kind": "take", "count": "5", "inner": _POISSON}, "count must be an int >= 0, got '5'"),
    ({"kind": "take", "inner": _POISSON}, "missing required key(s) ['count']"),
    (
        {"kind": "until", "horizon": True, "inner": _POISSON},
        "horizon must be a finite number > 0, got True",
    ),
    ({"kind": "trace", "trace": [True]}, "trace[0] must be a finite number >= 0.0, got True"),
    (
        {"kind": "trace", "trace": [1.0, float("nan")]},
        "trace[1] must be a finite number >= 0.0, got nan",
    ),
    (
        {"kind": "trace", "trace": [1.0, float("inf")]},
        "trace[1] must be a finite number >= 0.0, got inf",
    ),
    (
        {"kind": "take", "count": 3, "inner": _POISSON, "cout": 4},
        "unknown key(s) ['cout'] in arrival process 'take'",
    ),
    (
        {"kind": "superpose", "processes": [_POISSON], "proceses": []},
        "unknown key(s) ['proceses'] in arrival process 'superpose'",
    ),
    (
        {"kind": "until", "horizon": 5.0, "inner": _POISSON, "horizn": 6.0},
        "unknown key(s) ['horizn'] in arrival process 'until'",
    ),
]

#: Processes that end by themselves, so an open workload needs no cap.
_FINITE_PROCESSES = [
    {"kind": "trace", "trace": [1.0, 2.0]},
    {"kind": "take", "count": 3, "inner": _POISSON},
    {"kind": "until", "horizon": 10.0, "inner": _POISSON},
    {"kind": "superpose", "processes": [
        {"kind": "take", "count": 3, "inner": _POISSON}, {"kind": "trace", "trace": [1.0]}
    ]},
]


def _fleet_doc(router_kwargs):
    doc = copy.deepcopy(_FLEET_DOC)
    doc["cluster"].update(router="stale_least_loaded", router_kwargs=router_kwargs)
    return doc


class TestArrivalProcessDocuments:
    @pytest.mark.parametrize(
        "process, message",
        _PROCESS_DOCUMENT_CASES,
        ids=[repr(p)[:60] for p, _ in _PROCESS_DOCUMENT_CASES],
    )
    def test_values_pass_through_as_written_and_fail_by_name(self, process, message):
        doc = {"workload": {"mode": "open", "process": process, "max_jobs": 5}}
        with pytest.raises(SpecError, match=re.escape(message)):
            ScenarioSpec.from_dict(doc)

    def test_combinators_keep_their_values(self):
        take = {"kind": "take", "count": 3, "inner": _POISSON}
        process = {"kind": "until", "horizon": 7, "inner": take}
        spec = ScenarioSpec.from_dict({"workload": {"mode": "open", "process": process}})
        assert spec.to_dict()["workload"]["process"] == process

    def test_an_uncapped_endless_stream_is_rejected(self):
        # It used to validate, and `repro run` then never finished.
        doc = {"workload": {"mode": "open", "process": _POISSON}}
        with pytest.raises(SpecError, match="needs `max_jobs` or `horizon`"):
            ScenarioSpec.from_dict(doc)
        endless = {"kind": "superpose", "processes": [_POISSON, _FINITE_PROCESSES[0]]}
        with pytest.raises(SpecError, match="needs `max_jobs` or `horizon`"):
            ScenarioSpec.from_dict({"workload": {"mode": "open", "process": endless}})
        for cap in ({"max_jobs": 5}, {"horizon": 60.0}):
            ScenarioSpec.from_dict({"workload": {"mode": "open", "process": _POISSON, **cap}})

    @pytest.mark.parametrize("process", _FINITE_PROCESSES, ids=lambda p: p["kind"])
    def test_a_process_that_ends_by_itself_needs_no_cap(self, process):
        ScenarioSpec.from_dict({"workload": {"mode": "open", "process": process}})


class TestRouterKwargs:
    def test_valid_router_kwargs_pass(self):
        spec = ScenarioSpec.from_dict(_fleet_doc({"view_refresh_interval": 5.0}))
        assert spec.cluster.router_kwargs == {"view_refresh_interval": 5.0}

    def test_misspelled_router_kwarg_fails_at_validation(self):
        # It used to validate, then fail with a TypeError after cluster sizing.
        with pytest.raises(SpecError, match="router_kwargs.*view_refresh_intervl"):
            ScenarioSpec.from_dict(_fleet_doc({"view_refresh_intervl": 5.0}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, True, "5"], ids=repr)
    def test_bad_refresh_interval_fails_at_validation(self, value):
        # A NaN interval used to make the router refresh on every call,
        # silently acting as least_loaded.
        got = re.escape(repr(value))
        message = rf"view_refresh_interval must be a finite number >= 0\.0, got {got}"
        with pytest.raises(SpecError, match=message):
            ScenarioSpec.from_dict(_fleet_doc({"view_refresh_interval": value}))

    def test_a_router_kwarg_with_no_json_form_fails_at_validation(self):
        # A JSON fallback name used to validate, then crash the run the
        # first time type_affinity fell back.
        doc = _fleet_doc({"fallback": "hash"})
        doc["cluster"]["router"] = "type_affinity"
        with pytest.raises(SpecError, match="fallback must be a JobRouter, got 'hash'"):
            ScenarioSpec.from_dict(doc)

    def test_single_shard_router_kwargs_are_not_built(self):
        doc = _fleet_doc({"view_refresh_intervl": 5.0})
        doc["cluster"].update(num_shards=1, migration=None)
        ScenarioSpec.from_dict(doc)


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

@st.composite
def _open_workload_strategy(draw):
    # A stream that never ends by itself needs a cap (validated), so the
    # strategy draws max_jobs and horizon dependently.
    max_jobs = draw(st.one_of(st.none(), st.integers(1, 200)))
    horizon = draw(st.one_of(st.none(), st.floats(1.0, 1e4)))
    process = draw(_processes)
    if max_jobs is None and horizon is None and not _is_finite(process):
        max_jobs = draw(st.integers(1, 200))
    return WorkloadSection.open_loop(
        process,
        application_names=draw(st.one_of(st.none(), st.just(("code_generation", "web_search")))),
        seed=draw(_seeds),
        max_jobs=max_jobs,
        horizon=horizon,
        name=draw(st.sampled_from(["open_loop", "bursty", "diurnal"])),
    )


_open_workloads = _open_workload_strategy()

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
        pipelined=st.just(True),
        max_in_flight=st.integers(1, 4),
    ),
    # Unpipelined sections keep the default max_in_flight (anything else is rejected).
    st.builds(AsyncSection, kind=st.just("fixed"), latency=st.floats(0.0, 10.0)),
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
