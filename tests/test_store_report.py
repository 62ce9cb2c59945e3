"""Report regeneration and the regression gate's baseline store.

``repro store report`` must reproduce the README scheduler/pareto tables
and every BENCH-shaped artifact **byte-for-byte** from store contents
alone.  The committed ``benchmarks/baselines/store/`` is the only baseline
source: the regression gate reads golden values through its store view,
and the positive controls below compare against files rendered from it."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from repro.store import RunStore
from repro.store.report import (
    ReportError,
    bench_artifact,
    bench_artifacts,
    diff_payloads,
    readme_async_table,
    readme_pareto_table,
    readme_tables,
    render_bench_artifact,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"
BENCH_FILES = sorted(p.name for p in REPO_ROOT.glob("BENCH_*.json"))


def _load_check_regression():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rendered_baselines(tmp_path_factory):
    """The committed baseline store rendered to BENCH files, as the docs say:
    ``python -m repro store report benchmarks/baselines/store --table none
    --out DIR``."""
    from repro.api.cli import main

    out_dir = tmp_path_factory.mktemp("rendered")
    rc = main(
        ["store", "report", str(BASELINE_DIR / "store"), "--table", "none", "--out", str(out_dir)]
    )
    assert rc == 0
    return out_dir


@pytest.fixture(scope="module")
def full_store(tmp_path_factory):
    """Every repo-root BENCH artifact, ingested once."""
    store = RunStore(tmp_path_factory.mktemp("full") / "store")
    for name in BENCH_FILES:
        store.ingest_bench_file(REPO_ROOT / name)
    return store


class TestBenchArtifacts:
    def test_every_artifact_byte_for_byte(self, full_store):
        assert BENCH_FILES, "repo-root BENCH_*.json artifacts must exist"
        for name in BENCH_FILES:
            regenerated = render_bench_artifact(bench_artifact(full_store, name))
            assert regenerated == (REPO_ROOT / name).read_text(), name

    def test_bench_artifacts_enumerates_all(self, full_store):
        assert sorted(bench_artifacts(full_store)) == BENCH_FILES

    def test_unknown_bench_file(self, full_store):
        with pytest.raises(ReportError, match="no sections"):
            bench_artifact(full_store, "BENCH_999.json")


class TestReadmeTables:
    def test_async_table_matches_readme_verbatim(self, full_store):
        table = readme_async_table(full_store)
        assert table in (REPO_ROOT / "README.md").read_text()

    def test_pareto_table_matches_readme_verbatim(self, full_store):
        table = readme_pareto_table(full_store)
        assert table in (REPO_ROOT / "README.md").read_text()

    def test_readme_tables_collects_both(self, full_store):
        tables = readme_tables(full_store)
        assert set(tables) == {"async", "pareto"}

    def test_missing_section_raises(self, tmp_path):
        empty = RunStore(tmp_path / "empty")
        with pytest.raises(ReportError, match="async_latency_degradation"):
            readme_async_table(empty)
        assert readme_tables(empty) == {}


class TestCommittedBaselineStore:
    """The committed store is the source of truth."""

    def test_committed_records_pass_integrity(self):
        store = RunStore(BASELINE_DIR / "store")
        assert len(store.records(verify=True)) == len(store)


class TestRegressionGateStoreView:
    def test_gate_passes_through_store_view(self, rendered_baselines, capsys):
        gate = _load_check_regression()
        rc = gate.main(
            ["--current-dir", str(rendered_baselines), "--min-throughput-ratio", "0"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "baselines: 5 file(s) via store:" in out

    def test_gate_bites_on_tampered_record(self, rendered_baselines, tmp_path, capsys):
        tampered_root = tmp_path / "store"
        shutil.copytree(BASELINE_DIR / "store", tampered_root)
        store = RunStore(tampered_root)
        victim = next(
            r for r in store.records() if r.section == "async_latency_degradation"
        )
        data = json.loads(store._record_path(victim.record_id).read_text())
        data["payload"]["average_jct_by_scheduler"]["fcfs"]["0.0"] += 1.0
        store._record_path(victim.record_id).write_text(json.dumps(data) + "\n")

        gate = _load_check_regression()
        rc = gate.main(
            [
                "--current-dir", str(rendered_baselines),
                "--baseline-store", str(tampered_root),
                "--min-throughput-ratio", "0",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "golden drift" in err

    def test_load_baselines_reads_the_store(self, rendered_baselines):
        gate = _load_check_regression()
        payloads, view = gate.load_baselines(str(BASELINE_DIR))
        assert view == f"store:{BASELINE_DIR / 'store'}"
        rendered = {
            p.name: json.loads(p.read_text())
            for p in rendered_baselines.glob("BENCH_*.json")
        }
        assert sorted(rendered) == [f"BENCH_{n}.json" for n in (2, 3, 4, 5, 6)]
        assert payloads == rendered

    def test_gate_fails_without_a_baseline_store(self, rendered_baselines, tmp_path, capsys):
        gate = _load_check_regression()
        rc = gate.main(
            [
                "--current-dir", str(rendered_baselines),
                "--baseline-store", str(tmp_path / "no-store"),
                "--min-throughput-ratio", "0",
            ]
        )
        assert rc == 1
        assert "no BENCH baselines in store:" in capsys.readouterr().err


class TestDiff:
    def test_diff_payloads_reports_leaf_changes(self):
        old = {"a": 1, "nested": {"x": 2.0}, "gone": "yes"}
        new = {"a": 1, "nested": {"x": 3.0}, "fresh": [1]}
        lines = diff_payloads(old, new)
        assert any(line.startswith("~ nested.x:") for line in lines)
        assert any(line.startswith("- gone") for line in lines)
        assert any(line.startswith("+ fresh") for line in lines)
        assert diff_payloads(old, old) == []


@pytest.fixture(autouse=True)
def _drop_check_regression_module():
    yield
    sys.modules.pop("check_regression", None)
