"""RunStore durability: dedup, versioning, the journal, crash safety,
and concurrent ingest from real ``run_grid`` worker processes."""

import json
import pickle

import pytest

from repro import api
from repro.api.spec import ScenarioSpec
from repro.store import RunRecord, RunStore, StoreError
from tests.test_store_record import TINY_SPEC


@pytest.fixture(scope="module")
def tiny_result():
    return api.run(ScenarioSpec.from_dict(TINY_SPEC))


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "store")


def new_version(record, bump):
    """A record with ``record``'s dedup key and different content."""
    changed = json.loads(json.dumps(record.payload))
    changed["metrics"]["average_jct"] += bump
    return RunRecord(kind="result", payload=changed, spec_hash=record.spec_hash,
                     seed=record.seed, scheduler=record.scheduler,
                     schema_version=record.schema_version)


class TestAddAndDedup:
    def test_add_then_dedup(self, store, tiny_result):
        record, added = store.add_result(tiny_result)
        assert added and len(store) == 1
        again, added_again = store.add_result(tiny_result)
        assert not added_again and len(store) == 1
        assert again.record_id == record.record_id
        # One journal line per *accepted* record.
        assert len(store.journal_entries()) == 1

    def test_run_store_integration_dedups(self, store, tiny_result):
        # Recording a rerun of the same spec adds nothing because the
        # identity hash excludes wall clock.
        result = api.run(ScenarioSpec.from_dict(TINY_SPEC))
        store.add_result(result)
        assert len(store) == 1
        RunStore(str(store.root)).add_result(api.run(ScenarioSpec.from_dict(TINY_SPEC)))
        assert len(store) == 1
        assert store.records()[0].record_id == RunRecord.result_record(result.to_dict()).record_id

    def test_provenance_stamped(self, store, tiny_result):
        record, _ = store.add_result(tiny_result)
        stored = store.get(record.record_id)
        assert stored.provenance["source"] == "api.run"
        assert "package_version" in stored.provenance

    def test_new_version_supersedes(self, store, tiny_result):
        old, _ = store.add_result(tiny_result)
        new = new_version(old, 1.0)
        assert new.dedup_key == old.dedup_key
        _, added = store.add(new)
        assert added and len(store) == 2
        entry = store.journal_entries()[-1]
        assert entry["supersedes"] == [old.record_id]
        latest = store.latest_records()
        assert [r.record_id for r in latest] == [new.record_id]


class TestJournal:
    def test_records_and_journal_hold_every_version(self, store, tiny_result):
        first, _ = store.add_result(tiny_result)
        second, third = new_version(first, 1.0), new_version(first, 2.0)
        for record in (second, third):
            assert store.add(record)[1]
        assert sorted(p.name for p in store.root.iterdir()) == [
            "FORMAT.json", "journal.jsonl", "records"
        ]
        entries = store.journal_entries()
        assert [e["record_id"] for e in entries] == [
            first.record_id, second.record_id, third.record_id
        ]
        assert entries[2]["supersedes"] == sorted([first.record_id, second.record_id])
        assert [r.record_id for r in store.latest_records()] == [third.record_id]
        with open(store.journal_path, "a") as handle:
            handle.write('{"event": "add", "record_id": "abc')  # crash mid-append
        assert len(store.journal_entries()) == 3
        assert [r.record_id for r in store.latest_records()] == [third.record_id]

    def test_torn_journal_line_skipped(self, store, tiny_result):
        store.add_result(tiny_result)
        with open(store.journal_path, "a") as handle:
            handle.write('{"event": "add", "record_id": "abc')  # crash mid-append
        assert len(store.journal_entries()) == 1
        assert len(store.latest_records()) == 1


class TestCrashSafety:
    def test_partial_tmp_file_ignored(self, store, tiny_result):
        record, _ = store.add_result(tiny_result)
        shard = store._record_path(record.record_id).parent
        # A crashed atomic write leaves "<name>.json.tmp.<pid>" behind;
        # readers must skip it (the glob only matches real records).
        (shard / f"{record.record_id}.json.tmp.999").write_text('{"kind": "resu')
        assert store.record_ids() == [record.record_id]
        assert len(store.records()) == 1

    def test_corrupt_record_file_raises(self, store, tiny_result):
        record, _ = store.add_result(tiny_result)
        store._record_path(record.record_id).write_text("{ half a record")
        with pytest.raises(StoreError, match="unreadable"):
            store.records()

    def test_renamed_record_file_detected(self, store, tiny_result):
        record, _ = store.add_result(tiny_result)
        path = store._record_path(record.record_id)
        bogus = path.parent / (path.stem[:-4] + "beef.json")
        path.rename(bogus)
        with pytest.raises(StoreError, match="filename"):
            store.records()

    def test_verify_on_load_catches_tamper(self, store, tiny_result):
        record, _ = store.add_result(tiny_result)
        path = store._record_path(record.record_id)
        data = json.loads(path.read_text())
        data["payload"]["metrics"]["average_jct"] += 1.0
        path.write_text(json.dumps(data) + "\n")
        assert len(store.records()) == 1  # loads without verification...
        with pytest.raises(StoreError, match="integrity"):
            store.records(verify=True)  # ...fails integrity-checked reads

    def test_format_version_gate(self, store, tiny_result):
        store.add_result(tiny_result)
        (store.root / "FORMAT.json").write_text('{"format_version": 99}')
        with pytest.raises(StoreError, match="format_version"):
            store.add_result(tiny_result)


class TestConcurrentIngest:
    def test_store_is_picklable(self, store):
        assert pickle.loads(pickle.dumps(store)).root == store.root

    def test_multiprocess_run_grid_ingest(self, tmp_path):
        """Two worker processes record into one store without clobbering."""
        store = RunStore(tmp_path / "grid-store")
        spec = ScenarioSpec.from_dict(TINY_SPEC)
        rows = api.run_grid(
            spec, {"workload.seed": [7, 8]}, processes=2, store=store
        )
        assert len(rows) == 2
        assert len(store) == 2
        assert sorted(r.seed for r in store.records()) == [7, 8]
        # Both workers journaled whole lines (O_APPEND, no interleaving).
        entries = store.journal_entries()
        assert sorted(e["record_id"] for e in entries) == store.record_ids()
        # The per-worker results round-trip bit-exactly through the store.
        by_seed = {r.seed: r for r in store.records(verify=True)}
        for _, result in rows:
            assert by_seed[result.seed].merged_payload() == result.to_dict(include_spec=True)

    def test_grid_reingest_dedups(self, tmp_path):
        store = RunStore(tmp_path / "grid-store")
        spec = ScenarioSpec.from_dict(TINY_SPEC)
        api.run_grid(spec, {"workload.seed": [7, 8]}, processes=1, store=store)
        api.run_grid(spec, {"workload.seed": [7, 8]}, processes=1, store=store)
        assert len(store) == 2
        assert len(store.journal_entries()) == 2


class TestIngestion:
    def test_one_ingest_call_reads_the_journal_once(self, store, monkeypatch):
        sections = {f"s{i}": {"average_jct": float(i)} for i in range(5)}
        store.ingest_bench_payload("BENCH_2.json", sections)
        reads = []
        journal_entries = RunStore.journal_entries

        def counted(self):
            reads.append(1)
            return journal_entries(self)

        monkeypatch.setattr(RunStore, "journal_entries", counted)
        bumped = {name: {"average_jct": p["average_jct"] + 1} for name, p in sections.items()}
        outcomes = store.ingest_bench_payload("BENCH_2.json", bumped)
        assert len(reads) == 1
        assert all(added for _, added in outcomes) and len(store) == 10
        # Each new version lists the one it supersedes, as a per-record add would.
        first = {e["dedup_key"][2]: e["record_id"] for e in journal_entries(store)[:5]}
        for entry in journal_entries(store)[5:]:
            assert entry["supersedes"] == [first[entry["dedup_key"][2]]]


class TestBenchOutput:
    def test_a_section_lands_in_the_output_directory_and_ingests(self, tmp_path, monkeypatch):
        from benchmarks.bench_output import record_bench_section
        from repro.api.cli import main

        monkeypatch.setenv("BENCH_OUTPUT", str(tmp_path / "bench-out"))
        monkeypatch.setenv("BENCH_SCALE", "smoke")
        path = record_bench_section("demo_section", {"average_jct": 4.0})
        assert path == str(tmp_path / "bench-out" / "BENCH_2.json")
        root = tmp_path / "store"
        assert not root.exists()  # a benchmark run records into no store
        assert main(["store", "ingest", str(root), path]) == 0
        (record,) = RunStore(root).records(verify=True)
        assert record.kind == "section" and record.section == "demo_section"
        assert record.merged_payload() == {"average_jct": 4.0, "scale": "smoke"}
