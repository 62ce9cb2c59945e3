"""CLI tests: ``python -m repro`` run / grid / validate / list-schedulers."""

import json

import pytest

from repro.api import ClusterSection, ExperimentSettings, ScenarioSpec, WorkloadSection
from repro.api.cli import main
from repro.simulator.cluster import ClusterConfig

TINY = ExperimentSettings(profile_jobs=30, prior_samples=15)
_POISSON = {"kind": "poisson", "rate": 1.0, "seed": 1}


@pytest.fixture()
def spec_file(tmp_path):
    spec = ScenarioSpec(
        workload=WorkloadSection.closed_loop("mixed", num_jobs=6, arrival_rate=1.2, seed=7),
        cluster=ClusterSection(
            config=ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)
        ),
        settings=TINY,
    )
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    return path


class TestRun:
    def test_run_prints_summary(self, spec_file, capsys):
        assert main(["run", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "fcfs" in out and "avg JCT" in out

    def test_run_writes_result_json(self, spec_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        assert main(["run", str(spec_file), "--output", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["metrics"]["num_jobs"] == 6
        assert payload["spec"]["scheduler"]["name"] == "fcfs"

    def test_run_missing_file_fails(self, capsys):
        assert main(["run", "/does/not/exist.json"]) == 1
        assert "cannot read spec file" in capsys.readouterr().err


class TestGrid:
    def test_grid_runs_axes(self, spec_file, tmp_path, capsys):
        out_path = tmp_path / "grid.json"
        code = main(
            [
                "grid",
                str(spec_file),
                "--axis",
                "scheduler.name=fcfs,fair",
                "--processes",
                "1",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert [row["overrides"]["scheduler.name"] for row in rows] == ["fcfs", "fair"]
        assert all(row["metrics"]["num_jobs"] == 6 for row in rows)

    def test_grid_requires_axes(self, spec_file, capsys):
        assert main(["grid", str(spec_file)]) == 1
        assert "--axis" in capsys.readouterr().err

    def test_grid_bad_axis_syntax(self, spec_file, capsys):
        assert main(["grid", str(spec_file), "--axis", "nonsense"]) == 1
        assert "invalid --axis" in capsys.readouterr().err


class TestValidate:
    def test_validate_ok(self, spec_file, capsys):
        assert main(["validate", str(spec_file)]) == 0
        assert "ok (schema v2, fcfs, closed-loop, 1 shard(s))" in capsys.readouterr().out

    def test_validate_reports_v1_upcast(self, spec_file, tmp_path, capsys):
        doc = json.loads(spec_file.read_text())
        doc["schema_version"] = 1
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(doc))
        assert main(["validate", str(v1)]) == 0
        assert "ok (schema v1 upcast to v2," in capsys.readouterr().out

    def test_validate_reports_actionable_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scheduler": {"name": "warp-speed"}}))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "unknown scheduler" in err and "fcfs" in err

    def test_validate_rejects_bad_llmsched_kwargs(self, tmp_path, capsys):
        bad = tmp_path / "bad_kwargs.json"
        kwargs = {"use_bn": "false", "epsilon": 1.5, "seed": -1}
        bad.write_text(json.dumps({"scheduler": {"name": "llmsched", "kwargs": kwargs}}))
        assert main(["validate", str(bad)]) == 1
        assert "epsilon must be within [0, 1]" in capsys.readouterr().err

    def test_validate_rejects_bad_slo_serving_kwargs(self, tmp_path, capsys):
        bad = tmp_path / "bad_slo_kwargs.json"
        kwargs = {"max_preemptions_per_event": 0}
        bad.write_text(json.dumps({"scheduler": {"name": "slo_serving", "kwargs": kwargs}}))
        assert main(["validate", str(bad)]) == 1
        assert "max_preemptions_per_event must be an int >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("profile_jobs", 0),
            ("profile_jobs", "10"),
            ("prior_samples", 0),
            ("max_batch_size", 0),
            ("latency_slope", -1),
            ("profiler_seed", -1),
            ("target_load", True),
        ],
    )
    def test_validate_rejects_unusable_settings(self, field, value, tmp_path, capsys):
        # Each of these used to pass validation and fail only inside a run
        # (or, for target_load=true, run silently as 1.0).
        bad = tmp_path / "bad_settings.json"
        bad.write_text(json.dumps({"settings": {field: value}}))
        assert main(["validate", str(bad)]) == 1
        assert f"invalid settings section: {field} must be" in capsys.readouterr().err

    def test_validate_rejects_fractional_counts(self, tmp_path, capsys):
        bad = tmp_path / "half_executor.json"
        config = {"num_regular_executors": 2.5, "num_llm_executors": 1}
        bad.write_text(json.dumps({"cluster": {"config": config}}))
        assert main(["validate", str(bad)]) == 1
        assert "num_regular_executors must be an int >= 1, got 2.5" in capsys.readouterr().err

    def test_validate_rejects_nan_latency_slope(self, tmp_path, capsys):
        # Used to validate, then hang `repro run` on NaN executor speeds.
        bad = tmp_path / "nan_slope.json"
        config = {"latency_slope": float("nan")}
        bad.write_text(json.dumps({"scheduler": {"name": "fcfs"}, "cluster": {"config": config}}))
        assert "NaN" in bad.read_text()
        assert main(["validate", str(bad)]) == 1
        assert "latency_slope must be a finite number >= 0.0, got nan" in capsys.readouterr().err

    def test_validate_rejects_nan_async_latency(self, tmp_path, capsys):
        # Used to validate, then leave `repro run` running without end.
        bad = tmp_path / "nan_async_latency.json"
        section = {"kind": "fixed", "latency": float("nan")}
        bad.write_text(json.dumps({"scheduler": {"name": "fcfs"}, "async": section}))
        assert "NaN" in bad.read_text()
        assert main(["validate", str(bad)]) == 1
        assert "async latency must be a finite number >= 0.0, got nan" in capsys.readouterr().err

    def test_validate_rejects_infinite_arrival_rate(self, tmp_path, capsys):
        # Used to validate, then run with every arrival at t=0.
        bad = tmp_path / "infinite_rate.json"
        workload = {"mode": "open", "process": {"kind": "poisson", "rate": float("inf")}}
        bad.write_text(json.dumps({"scheduler": {"name": "fcfs"}, "workload": workload}))
        assert "Infinity" in bad.read_text()
        assert main(["validate", str(bad)]) == 1
        assert "rate must be a finite number > 0, got inf" in capsys.readouterr().err

    def test_validate_rejects_quoted_async_pipelined_flag(self, tmp_path, capsys):
        # Used to validate, then run pipelined: the string "false" is truthy.
        bad = tmp_path / "quoted_pipelined.json"
        section = {"kind": "fixed", "latency": 2.0, "pipelined": "false"}
        bad.write_text(json.dumps({"scheduler": {"name": "fcfs"}, "async": section}))
        assert main(["validate", str(bad)]) == 1
        assert "async pipelined must be a bool, got 'false'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "workload, cluster, names",
        [
            ({"max_jobs": 5, "process": {"kind": "trace", "trace": [1.0, float("nan")]}}, {},
             ["trace[1]"]),
            ({"process": {"kind": "take", "count": True, "inner": _POISSON}}, {}, ["count"]),
            ({"process": {"kind": "take", "inner": _POISSON}}, {}, ["count"]),
            ({"process": _POISSON}, {}, ["max_jobs", "horizon"]),
            (
                {"max_jobs": 5, "process": _POISSON},
                {
                    "config": {"num_regular_executors": 2, "num_llm_executors": 2},
                    "num_shards": 2,
                    "router": "stale_least_loaded",
                    "router_kwargs": {"view_refresh_intervl": 5.0},
                },
                ["view_refresh_intervl"],
            ),
            ({"max_jobs": 5, "application_names": ["web_serch"], "process": _POISSON}, {},
             ["application_names[0]", "'web_serch'"]),
            (
                {
                    "max_jobs": 5,
                    "process": {
                        "kind": "bursty", "base_rate": 1.0, "burst_rate": 4.0,
                        "mean_normal_duration": 60.0, "mean_burst_duration": 10.0,
                    },
                },
                {},
                ["cluster.nominal_rate", "'bursty'"],
            ),
            ({"process": {"kind": "take", "count": 5, "inner": _POISSON}}, {},
             ["cluster.nominal_rate", "'take'"]),
        ],
        ids=["nan-trace-entry", "take-count-true", "take-without-count", "uncapped-poisson",
             "misspelled-router-kwarg", "unknown-application", "bursty-without-nominal-rate",
             "take-without-nominal-rate"],
    )
    def test_validate_rejects_by_name_without_a_traceback(
        self, workload, cluster, names, tmp_path, capsys
    ):
        # Each used to validate (and then hang, run a cast value, die in or
        # after cluster sizing) or to end in a traceback.
        bad = tmp_path / "bad.json"
        doc = {"scheduler": {"name": "fcfs"}, "workload": {"mode": "open", **workload}}
        bad.write_text(json.dumps({**doc, "cluster": cluster} if cluster else doc))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert all(name in err for name in names) and "Traceback" not in err, err

    def test_validate_catches_section_conflicts(self, tmp_path, capsys):
        bad = tmp_path / "conflict.json"
        bad.write_text(
            json.dumps(
                {
                    "workload": {"mode": "closed"},
                    "cluster": {
                        "config": {"num_regular_executors": 2, "num_llm_executors": 1},
                        "pools": [{"name": "cpu", "task_type": "regular", "num_executors": 2}],
                    },
                }
            )
        )
        assert main(["validate", str(bad)]) == 1
        assert "not both" in capsys.readouterr().err


class TestListSchedulers:
    def test_lists_everything(self, capsys):
        assert main(["list-schedulers"]) == 0
        out = capsys.readouterr().out
        for name in ("fcfs", "llmsched", "srtf_preempt", "llmsched_wo_bn"):
            assert name in out
        assert "placement policies:" in out and "job routers:" in out
