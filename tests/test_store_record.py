"""RunRecord: content-addressed identity, timing segregation, round trips.

The bit-exactness bar from ISSUE 10: wrapping a live ``Result`` in a
record and merging it back must reproduce ``Result.to_dict`` exactly,
while the record's *identity* ignores every wall-clock-derived leaf — so
the same seeded scenario hashes identically on any machine.
"""

import json

import pytest

from repro import api
from repro.api.spec import ScenarioSpec
from repro.store.record import (
    RecordError,
    RunRecord,
    is_timing_leaf,
    merge_timing,
    split_timing,
)
from repro.utils.canonical import canonical_json, content_hash

TINY_SPEC = {
    "schema_version": 2,
    "scheduler": {"name": "fcfs"},
    "workload": {
        "mode": "closed",
        "workload_type": "mixed",
        "num_jobs": 6,
        "arrival_rate": 1.2,
        "seed": 7,
    },
    "cluster": {
        "config": {
            "num_regular_executors": 2,
            "num_llm_executors": 1,
            "max_batch_size": 4,
        }
    },
}


@pytest.fixture(scope="module")
def tiny_result():
    return api.run(ScenarioSpec.from_dict(TINY_SPEC))


class TestTimingSplit:
    def test_timing_leaf_classification(self):
        for key in ("wall_clock_sec", "avg_overhead_ms", "jobs_per_sec",
                    "elapsed_sec", "build_elapsed_sec", "speedup_vs_seed"):
            assert is_timing_leaf(key), key
        # Simulated quantities — *not* wall clock, part of record identity.
        for key in ("average_jct", "tps_per_gpu", "tps_per_user", "goodput",
                    "avg_decision_latency", "makespan"):
            assert not is_timing_leaf(key), key

    def test_split_merge_is_inverse(self):
        payload = {
            "metrics": {"average_jct": 3.5, "wall_clock_sec": 0.1},
            "rows": [{"jobs_per_sec": 9.0, "jct": 1.0}, {"jct": 2.0}],
            "elapsed_sec": 4.2,
            "label": "x",
        }
        det, timing = split_timing(payload)
        assert "wall_clock_sec" not in det["metrics"]
        assert "elapsed_sec" not in det
        assert det["rows"][0] == {"jct": 1.0}
        assert timing == {
            "metrics": {"wall_clock_sec": 0.1},
            "rows": {"0": {"jobs_per_sec": 9.0}},
            "elapsed_sec": 4.2,
        }
        assert merge_timing(det, timing) == payload

    def test_all_timing_dict_keeps_skeleton(self):
        det, timing = split_timing({"inner": {"elapsed_sec": 1.0}})
        assert det == {"inner": {}}
        assert merge_timing(det, timing) == {"inner": {"elapsed_sec": 1.0}}

    def test_timing_named_strings_stay_deterministic(self):
        # Only numeric leaves are wall-clock measurements.
        det, timing = split_timing({"elapsed_sec": "n/a"})
        assert det == {"elapsed_sec": "n/a"} and timing == {}


class TestRecordIdentity:
    def test_merged_payload_bit_exact_vs_result_to_dict(self, tiny_result):
        record = RunRecord.result_record(tiny_result.to_dict())
        original = tiny_result.to_dict(include_spec=True)
        assert record.merged_payload() == original
        # ... byte-for-byte, through the same dumps the BENCH files use.
        assert json.dumps(record.merged_payload(), indent=2, sort_keys=True) == json.dumps(
            original, indent=2, sort_keys=True
        )

    def test_identity_excludes_wall_clock(self, tiny_result):
        import dataclasses

        slower = dataclasses.replace(tiny_result, wall_clock_sec=tiny_result.wall_clock_sec + 99.0)
        a = RunRecord.result_record(tiny_result.to_dict())
        b = RunRecord.result_record(slower.to_dict())
        assert a.record_id == b.record_id
        assert a.timing != b.timing

    def test_identity_covers_the_payload(self, tiny_result):
        record = RunRecord.result_record(tiny_result.to_dict())
        tampered = json.loads(json.dumps(record.payload))
        tampered["metrics"]["average_jct"] += 1.0
        other = RunRecord(kind="result", payload=tampered, spec_hash=record.spec_hash,
                          seed=record.seed, scheduler=record.scheduler)
        assert other.record_id != record.record_id

    def test_provenance_and_timing_do_not_change_identity(self, tiny_result):
        record = RunRecord.result_record(tiny_result.to_dict())
        stamped = record.with_provenance(machine="somewhere-else", note="x")
        assert stamped.record_id == record.record_id
        assert stamped.provenance["machine"] == "somewhere-else"

    def test_record_fields(self, tiny_result):
        record = RunRecord.result_record(tiny_result.to_dict())
        assert record.kind == "result"
        assert record.scheduler == "fcfs"
        assert record.seed == 7
        assert record.spec_hash == tiny_result.spec.content_hash()
        assert record.schema_version == tiny_result.spec.schema_version
        assert record.dedup_key == ("result", record.spec_hash, 7, "fcfs")

    def test_bad_kind_rejected(self):
        with pytest.raises(RecordError, match="kind"):
            RunRecord(kind="banana", payload={})


class TestSerialization:
    def test_dict_roundtrip(self, tiny_result):
        record = RunRecord.result_record(tiny_result.to_dict(), bench_file="BENCH_X.json",
                                         section="s", label="fcfs@tiny")
        again = RunRecord.from_dict(json.loads(record.to_json()), verify=True)
        assert again == record

    def test_verify_detects_tampering(self, tiny_result):
        record = RunRecord.result_record(tiny_result.to_dict())
        data = json.loads(record.to_json())
        data["payload"]["metrics"]["average_jct"] += 0.5
        with pytest.raises(RecordError, match="integrity"):
            RunRecord.from_dict(data, verify=True)
        # Without verification the (tampered) record still loads — the
        # regression gate then catches it as golden drift.
        assert RunRecord.from_dict(data).record_id == record.record_id

    def test_unsupported_record_schema(self):
        with pytest.raises(RecordError, match="record_schema"):
            RunRecord.from_dict({"kind": "section", "payload": {}, "record_schema": 99})

    def test_missing_fields(self):
        with pytest.raises(RecordError, match="kind"):
            RunRecord.from_dict({"payload": {}})


class TestCanonicalJson:
    def test_key_order_invariance(self):
        assert canonical_json({"b": 1, "a": [1.5, {"y": 2, "x": 3}]}) == canonical_json(
            {"a": [1.5, {"x": 3, "y": 2}], "b": 1}
        )
        assert content_hash({"b": 1, "a": 2}) == content_hash({"a": 2, "b": 1})

    def test_floats_shortest_repr(self):
        value = 0.1 + 0.2
        assert canonical_json({"v": value}) == f'{{"v":{value!r}}}'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"v": float("nan")})

    def test_spec_content_hash_matches_canonical(self, tiny_result):
        spec = tiny_result.spec
        assert spec.content_hash() == content_hash(spec.to_dict())
