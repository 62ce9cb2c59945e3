"""Tests for the figure/table regeneration modules (tiny scale)."""

import pytest

from repro import api
from repro.api import ExperimentSettings, ScenarioSpec, SchedulerSection, WorkloadSection
from repro.core.llmsched import LLMSchedConfig
from repro.experiments import (
    fig1_characterization,
    fig5_heatmap,
    fig7_simulation,
    fig10_ablation,
)
from repro.experiments.report import format_series, format_table
from repro.workloads.mixtures import WorkloadType

TINY = ExperimentSettings(profile_jobs=30, prior_samples=15, llmsched=LLMSchedConfig(seed=0))


class TestReport:
    def test_format_table_alignment_and_floats(self):
        rows = [{"a": 1.23456, "b": "x"}, {"a": 7.0, "b": "longer"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.23" in text and "longer" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_format_series(self):
        text = format_series({0.1: 1.0, 0.2: 1.5}, "x", "y")
        assert "0.1" in text and "1.500" in text


class TestFig1:
    def test_run_shapes(self):
        results = fig1_characterization.run(n_jobs=60, seed=0)
        assert set(results) == {
            "fig1a_job_duration",
            "fig1b_chain_length",
            "fig1c_generated_stages",
        }
        assert sum(results["fig1a_job_duration"]["probability"]) == pytest.approx(1.0)
        assert sum(results["fig1b_chain_length"]["probability"].values()) == pytest.approx(1.0)
        assert 1 <= results["fig1c_generated_stages"]["min"]

    def test_invalid_n_jobs(self):
        with pytest.raises(ValueError):
            fig1_characterization.run(n_jobs=5)

    def test_main_prints(self, capsys):
        fig1_characterization.main(["--n-jobs", "40"])
        out = capsys.readouterr().out
        assert "Fig. 1a" in out and "Fig. 1c" in out


class TestFig5:
    def test_matrices_symmetric_with_unit_diagonal(self):
        matrices = fig5_heatmap.run(n_jobs=80, seed=0)
        assert set(matrices) == {"sequence_sorting", "code_generation"}
        matrix = matrices["sequence_sorting"]
        for a in matrix:
            assert matrix[a][a] == 1.0
            for b in matrix:
                assert matrix[a][b] == pytest.approx(matrix[b][a])

    def test_invalid_n_jobs(self):
        with pytest.raises(ValueError):
            fig5_heatmap.run(n_jobs=2)


class TestFig7:
    def test_rows_cover_grid(self):
        rows = fig7_simulation.run(
            num_jobs_values=(12,),
            workload_types=(WorkloadType.PLANNING,),
            scheduler_names=("fcfs", "llmsched"),
            seed=1,
            settings=TINY,
        )
        assert len(rows) == 2
        assert {r["scheduler"] for r in rows} == {"fcfs", "llmsched"}
        assert all(r["average_jct"] > 0 for r in rows)


class TestFig10:
    def test_normalisation_and_calibration_ablation(self):
        rows = fig10_ablation.run(
            num_jobs=12,
            workload_types=(WorkloadType.CHAIN,),
            settings=TINY,
            include_calibration_ablation=True,
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["llmsched_avg_jct"] > 0
        for key in ("wo_bn_norm", "wo_uncertainty_norm", "wo_calibration_norm"):
            assert row[key] > 0
        # Each ablation is normalised to full LLMSched on the same draw.
        wo_bn = api.run(
            ScenarioSpec(
                scheduler=SchedulerSection("llmsched_wo_bn"),
                workload=WorkloadSection.closed_loop("chain", num_jobs=12),
                settings=TINY,
            )
        )
        assert row["wo_bn_norm"] == wo_bn.average_jct / row["llmsched_avg_jct"]
