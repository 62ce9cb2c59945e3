"""CLI tests: ``python -m repro`` run / grid / validate / list-schedulers."""

import json

import pytest

from repro.api import ClusterSection, ExperimentSettings, ScenarioSpec, WorkloadSection
from repro.api.cli import main
from repro.simulator.cluster import ClusterConfig

TINY = ExperimentSettings(profile_jobs=30, prior_samples=15)


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
