"""Every spec field declares its rule once, and ``ScenarioSpec.from_dict`` enforces it.

The first tests walk every dataclass field reachable from
:class:`~repro.api.ScenarioSpec` (and from the three classes a spec resolves
into) through ``typing.get_type_hints``, going through ``Optional``, tuples,
nested configs and every arrival-process kind, the combinators included.  A
scalar field without a declared rule fails them: adding a field means
declaring its rule in ``dataclasses.field(metadata=...)``.

The sweep then sets NaN, +inf, -inf, ``true``, a string, -1 and ``null`` on
every declared field of three valid documents that between them hold every
section, config and process kind.  Each value the declaration rules out
must raise a :class:`~repro.api.SpecError` that names the field and the
value; a ``TypeError``, a hang or an accepted value is a failure.
"""

import collections.abc
import copy
import dataclasses
import enum
import typing

import pytest

from repro.api import ScenarioSpec, SpecError
from repro.simulator.engine import SimulationConfig
from repro.utils.validation import RULE
from repro.workloads.arrivals import ArrivalProcess, OpenLoopSpec
from repro.workloads.mixtures import WorkloadSpec

#: The mapping fields: each is declared a mapping, and its entries are
#: checked by the named code.
MAPPING_FIELDS = {
    "SchedulerSection.kwargs": "check_scheduler_kwargs builds the scheduler or its LLMSched config",
    "ClusterSection.router_kwargs": "create_job_router builds the router when num_shards > 1",
    "SLOSection.tiers": "SLOSection.__post_init__ checks each tier's ttft/tpot targets",
}

#: Classes a spec resolves into: not held by a ScenarioSpec, built from one.
RESOLVED = (OpenLoopSpec, WorkloadSpec, SimulationConfig)

PROBES = [float("nan"), float("inf"), -float("inf"), True, "x", -1, None]

_LLMSCHED = {
    "epsilon": 0.1, "sampling_ratio": 0.3, "seed": 0, "use_bn": True, "use_uncertainty": True
}
_SETTINGS = {
    "target_load": 1.0,
    "max_batch_size": 4,
    "latency_slope": 0.06,
    "profile_jobs": 150,
    "prior_samples": 100,
    "profiler_seed": 77,
    "snapshot_policy": "cow",
    "llmsched": _LLMSCHED,
}
#: Valid documents holding, between them, every section, config and process kind.
DOCUMENTS = {
    "closed": {
        "schema_version": 2,
        "scheduler": {"name": "llmsched", "kwargs": {"epsilon": 0.2}},
        "workload": {
            "mode": "closed", "workload_type": "mixed", "num_jobs": 5, "arrival_rate": 0.9,
            "seed": 1, "token_mix": "chat", "token_seed": 2,
        },
        "cluster": {
            "config": {
                "num_regular_executors": 2, "num_llm_executors": 1, "max_batch_size": 4,
                "latency_slope": 0.06,
            },
        },
        "placement": {"name": "greedy"},
        "async": {"kind": "fixed", "latency": 1.0, "pipelined": True, "max_in_flight": 3},
        "autoscaler": {
            "interval": 20.0, "scale_up_occupancy": 0.85, "scale_down_occupancy": 0.25, "step": 2
        },
        "slo": {"tiers": {"interactive": {"ttft": 8.0, "tpot": 0.08}}},
        "settings": _SETTINGS,
    },
    "open": {
        "schema_version": 2,
        "workload": {
            "mode": "open", "name": "mix", "seed": 3, "max_jobs": 10, "horizon": 100.0,
            "application_names": ["code_generation", "web_search"],
            "process": {"kind": "superpose", "processes": [
                {"kind": "take", "count": 3, "inner": {"kind": "poisson", "rate": 1.0, "seed": 1}},
                {"kind": "until", "horizon": 50.0, "inner": {
                    "kind": "bursty", "base_rate": 1.0, "burst_rate": 4.0,
                    "mean_normal_duration": 60.0, "mean_burst_duration": 10.0, "seed": 2,
                }},
                {"kind": "diurnal", "mean_rate": 1.0, "amplitude": 0.5, "period": 600.0, "seed": 3},
                {"kind": "trace", "trace": [1.0, 2.0]},
            ]},
        },
        "cluster": {"pools": [
            {
                "name": "cpu", "task_type": "regular", "num_executors": 2, "max_batch_size": 1,
                "latency_slope": 0.06, "speed_factor": 1.0, "min_executors": 1,
                "max_executors": 4, "executor_id_prefix": "c",
            },
            {
                "name": "gpu", "task_type": "llm", "num_executors": 1, "max_batch_size": 4,
                "latency_slope": 0.06, "speed_factor": 2.0, "min_executors": 1,
                "max_executors": 2, "executor_id_prefix": "g", "role": "prefill",
            },
        ]},
        "async": {"kind": "per_job_linear", "base": 0.5, "per_job": 0.1},
        "settings": _SETTINGS,
    },
    "fleet": {
        "schema_version": 2,
        "workload": {
            "mode": "open", "seed": 9, "max_jobs": 30,
            "process": {"kind": "poisson", "rate": 3.0, "seed": 9},
        },
        "cluster": {
            "nominal_rate": 2.0,
            "num_shards": 2,
            "router": "stale_least_loaded",
            "router_kwargs": {"view_refresh_interval": 5.0},
            "migration": {
                "interval": 20.0, "imbalance_threshold": 0.3, "max_migrations_per_check": 4,
                "cost": 0.0,
            },
        },
        "async": {"kind": "sampled", "samples": [0.5, 1.0], "seed": 1},
        "settings": _SETTINGS,
    },
}


# --------------------------------------------------------------------------- #
# The field walk
# --------------------------------------------------------------------------- #
def _process_kinds():
    """Every arrival-process class the package defines (combinators included)."""
    found, stack = [], [ArrivalProcess]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro.") and not getattr(sub, "__abstractmethods__", ()):
                found.append(sub)
    return found


def _item_type(hint):
    """``hint`` with ``Optional[...]``, ``Tuple[X, ...]`` and ``Sequence[X]`` stripped."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return _item_type(inner)
    if origin in (tuple, collections.abc.Sequence):
        return _item_type(typing.get_args(hint)[0])
    return hint


def _classify(hint):
    """``"scalar"``, ``"mapping"`` or ``"nested"``; anything else is unclassified."""
    if typing.get_origin(hint) is collections.abc.Mapping:
        return "mapping"
    item = _item_type(hint)
    if item in (int, float, bool, str) or (isinstance(item, type) and issubclass(item, enum.Enum)):
        return "scalar"
    if item is ArrivalProcess or dataclasses.is_dataclass(item):
        return "nested"
    return None


def _reachable(roots):
    """Every dataclass reachable from ``roots`` through field type hints."""
    seen, stack = [], list(roots)
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.append(cls)
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if _classify(hints[f.name]) == "nested":
                item = _item_type(hints[f.name])
                stack.extend(_process_kinds() if item is ArrivalProcess else [item])
    return seen


def _fields_by_kind(roots):
    out = {"scalar": [], "mapping": [], "nested": [], None: []}
    for cls in _reachable(roots):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            out[_classify(hints[f.name])].append((cls, f))
    return out


HELD = _fields_by_kind([ScenarioSpec])
ALL = _fields_by_kind([ScenarioSpec, *RESOLVED])


def _name(cls, f):
    return f"{cls.__name__}.{f.name}"


class TestDeclarations:
    def test_the_walk_reaches_every_section_config_and_process_kind(self):
        names = {cls.__name__ for cls in _reachable([ScenarioSpec])}
        assert {
            "ScenarioSpec", "SchedulerSection", "WorkloadSection", "ClusterSection",
            "PlacementSection", "AsyncSection", "SLOSection", "ExperimentSettings",
            "LLMSchedConfig", "ClusterConfig", "PoolSpec", "MigrationConfig",
            "AutoscalerConfig", "PoissonProcess", "BurstyProcess", "DiurnalProcess",
            "TraceReplayProcess", "_Take", "_Until", "_Superposition",
        } <= names

    def test_every_field_is_classified(self):
        assert [_name(cls, f) for cls, f in ALL[None]] == []

    def test_every_scalar_field_declares_a_rule(self):
        undeclared = [_name(cls, f) for cls, f in ALL["scalar"] if RULE not in f.metadata]
        assert undeclared == [], "declare each field's rule in dataclasses.field(metadata=...)"

    def test_mapping_fields_are_the_listed_three(self):
        assert sorted(_name(cls, f) for cls, f in ALL["mapping"]) == sorted(MAPPING_FIELDS)
        assert all(RULE in f.metadata for _, f in ALL["mapping"])


# --------------------------------------------------------------------------- #
# The sweep
# --------------------------------------------------------------------------- #
def _declared_paths(obj, node, path=()):
    """``(class, field, path, value in the document)`` for every declared field of
    ``obj`` and of the parts of it that the document ``node`` writes out."""
    for f in dataclasses.fields(obj):
        key = "async" if f.name == "async_" else f.name
        value = getattr(obj, f.name)
        if RULE in f.metadata:
            yield type(obj), f, path + (key,), node.get(key)
        elif key not in node:
            continue
        elif dataclasses.is_dataclass(value):
            yield from _declared_paths(value, node[key], path + (key,))
        elif isinstance(value, tuple):
            for index, item in enumerate(value):
                yield from _declared_paths(item, node[key][index], path + (key, index))


def _sweep_cases():
    """``label -> (document, path, shown name, rule, is a list item)`` per declared field.

    A per-item rule is probed on the whole field and on its first item.
    """
    cases = {}
    for doc_name, doc in DOCUMENTS.items():
        spec = ScenarioSpec.from_dict(copy.deepcopy(doc))
        for cls, f, path, written in _declared_paths(spec, doc):
            label, rule = _name(cls, f), f.metadata[RULE]
            cases.setdefault(label, (doc_name, path, f.name, rule, False))
            if rule.each and written:
                cases.setdefault(
                    label + "[0]", (doc_name, path + (0,), f"{f.name}[0]", rule, True)
                )
    return cases


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


def _rules_out(rule, value, item):
    try:
        (rule.check if item else rule.apply)(value, "field")
    except ValueError:
        return True
    return False


CASES = _sweep_cases()


def test_the_sweep_covers_every_declared_field_held_by_a_spec():
    declared = {_name(cls, f) for cls, f in HELD["scalar"] + HELD["mapping"]}
    assert declared - set(CASES) == set()


@pytest.mark.parametrize("label", sorted(CASES))
def test_each_value_a_declaration_rules_out_raises_a_spec_error_naming_the_field(label):
    doc_name, path, shown, rule, item = CASES[label]
    rejected = []
    for value in PROBES:
        if not _rules_out(rule, value, item):
            continue
        data = copy.deepcopy(DOCUMENTS[doc_name])
        _set(data, path, value)
        with pytest.raises(SpecError) as info:
            ScenarioSpec.from_dict(data)
        message = str(info.value)
        assert shown in message and repr(value) in message, message
        rejected.append(value)
    assert rejected  # every declaration rules out some probe


def _mapping_entries():
    """``(document, path)`` of every scalar entry under the three mapping fields."""
    paths = {
        "closed": [("scheduler", "kwargs"), ("slo", "tiers")],
        "fleet": [("cluster", "router_kwargs")],
    }
    out = []
    for doc_name, roots in paths.items():
        for root in roots:
            stack = [root]
            while stack:
                path = stack.pop()
                node = _get(DOCUMENTS[doc_name], path)
                if isinstance(node, dict):
                    stack.extend(path + (key,) for key in node)
                else:
                    out.append((doc_name, path))
    return out


@pytest.mark.parametrize(
    "doc_name, path", _mapping_entries(), ids=[".".join(p) for _, p in _mapping_entries()]
)
def test_mapping_entries_are_checked_by_their_owner(doc_name, path):
    # Every probe is a bad value for these entries (epsilon, a refresh
    # interval, an SLO target): each must fail validation naming the entry.
    for value in PROBES:
        data = copy.deepcopy(DOCUMENTS[doc_name])
        _set(data, path, value)
        with pytest.raises(SpecError, match=path[-1]):
            ScenarioSpec.from_dict(data)
