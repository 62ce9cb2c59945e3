"""Query-layer tests over stores built from the committed BENCH artifacts."""

from pathlib import Path

import pytest

from repro.store import RunStore
from repro.store.query import filter_records, latest_per_key

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_store(tmp_path_factory):
    store = RunStore(tmp_path_factory.mktemp("bench") / "store")
    store.ingest_bench_file(REPO_ROOT / "BENCH_4.json")
    store.ingest_bench_file(REPO_ROOT / "BENCH_6.json")
    return store


class TestFilter:
    def test_filter_by_fields(self, bench_store):
        sections = filter_records(bench_store, kind="section")
        assert {r.section for r in sections} >= {
            "async_latency_degradation",
            "slo_serving_pareto",
        }
        one = filter_records(
            bench_store, kind="result", section="async_latency_degradation",
            label="fcfs@0s",
        )
        assert len(one) == 1 and one[0].bench_file == "BENCH_4.json"

    def test_filter_accepts_record_lists(self, bench_store):
        records = bench_store.records()
        assert {r.bench_file for r in records} == {"BENCH_4.json", "BENCH_6.json"}
        assert filter_records(records, kind="section") == filter_records(
            bench_store, kind="section"
        )

    def test_filter_predicate(self, bench_store):
        odd = filter_records(bench_store, predicate=lambda r: r.label == "sjf@5s")
        assert [r.label for r in odd] == ["sjf@5s"]

    def test_unknown_field_rejected(self, bench_store):
        with pytest.raises(ValueError, match="unknown filter field"):
            filter_records(bench_store, flavor="spicy")


class TestLatest:
    def test_latest_per_key_prefers_journal_order(self, bench_store):
        records = bench_store.records()
        # With no duplicate dedup keys, latest == all.
        assert len(latest_per_key(records, order=bench_store.journal_order())) == len(records)

    def test_latest_picks_newer_version(self):
        from repro.store.record import RunRecord

        old = RunRecord(kind="section", payload={"v": 1}, bench_file="B", section="s")
        new = RunRecord(kind="section", payload={"v": 2}, bench_file="B", section="s")
        assert old.dedup_key == new.dedup_key
        order = {old.record_id: 0, new.record_id: 1}
        assert latest_per_key([old, new], order=order) == [new]
        assert latest_per_key([new, old], order=order) == [new]
