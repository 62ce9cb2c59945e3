"""The benchmark's own tests: its counters bite, its tracing turns off, its
checks pass on the default and held-out seeds, and BENCHMARK.json lists
what the runner prints."""

import json
from pathlib import Path

import pytest

from perfbench import bench, tracer, workloads
from repro.schedulers.base import SchedulingContext
from repro.simulator.engine import SimulationEngine
from repro.simulator.federation import FederatedSimulationEngine

SMALL_JOBS = 120


def _traced_backlog(deoptimise=False):
    spec = workloads.WORKLOADS["backlog_fcfs"].build(bench.DEFAULT_SEED, SMALL_JOBS)
    with tracer.LayerTracer() as t:
        if deoptimise:
            traced = SchedulingContext.schedulable_tasks

            def scan_twice(context):
                traced(context)
                return traced(context)

            # Undone by the tracer's exit, which restores the original.
            SchedulingContext.schedulable_tasks = scan_twice
        rep = bench.run_once(spec, t)
    return t, workloads.jct_digest([rep.jcts])


def test_exact_counters_catch_a_deoptimised_scan():
    base, base_digest = _traced_backlog()
    slow, slow_digest = _traced_backlog(deoptimise=True)

    assert slow_digest == base_digest
    assert slow.calls["engine.step"] == base.calls["engine.step"]
    assert slow.calls["sched.schedule"] == base.calls["sched.schedule"]
    # Every scan now happens twice, returning the same tasks both times ...
    calls = base.calls["context.schedulable_tasks"]
    assert calls > 0
    assert slow.calls["context.schedulable_tasks"] == 2 * calls
    assert slow.tasks_scanned == 2 * base.tasks_scanned
    # ... and the second scan of each pair finds every job's stage cache
    # warm, so it repeats exactly the pending_tasks calls the scan itself made.
    direct = base.count("dag.pending_tasks", parent="context.schedulable_tasks")
    assert direct > 0
    assert slow.count("dag.pending_tasks") == base.count("dag.pending_tasks") + direct


def test_tracing_off_restores_every_original():
    t = tracer.LayerTracer()
    targets = t.targets
    originals = [vars(x.owner)[x.attr] for x in targets]
    engine_runs = [vars(c)["run"] for c in (SimulationEngine, FederatedSimulationEngine)]
    spec = workloads.WORKLOADS["fleet_skew"].build(bench.DEFAULT_SEED, 40)

    with t:
        assert all(vars(x.owner)[x.attr] is not o for x, o in zip(targets, originals, strict=True))
        bench.run_once(spec, t)
        with pytest.raises(ZeroDivisionError):
            t.run(lambda: 1 / 0)

    assert all(vars(x.owner)[x.attr] is o for x, o in zip(targets, originals, strict=True))
    assert [vars(c)["run"] for c in (SimulationEngine, FederatedSimulationEngine)] == engine_runs
    assert t.calls["fed.route"] == 40


def test_traced_time_is_fully_accounted():
    t, _ = _traced_backlog()
    accounted = sum(t.layer_self().values()) + t.self_time[tracer.ROOT]
    assert accounted == pytest.approx(t.wall(), rel=1e-9)
    assert t.calls[tracer.ROOT] == 1


@pytest.mark.parametrize("seed", [bench.DEFAULT_SEED, bench.HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_output_checks_pass_on_both_seeds(name, seed):
    """Small versions of every workload, traced and untraced, on both seeds."""
    workload = workloads.WORKLOADS[name]
    specs = [workload.build(seed + workloads.SEED_STRIDE * i, 20) for i in range(2)]
    expected = [workloads.expected_outputs(spec) for spec in specs]
    plain = bench.run_cycle(specs, traced=False)
    traced = bench.run_cycle(specs, traced=True)
    assert bench.check(plain, expected) == []
    assert bench.check(traced, expected) == []
    digests = {
        workloads.jct_digest([r.jcts for r in cycle.reps])
        for cycle in (plain, traced)
    }
    assert len(digests) == 1
    assert bench.known_digest(name, seed) is not None


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
