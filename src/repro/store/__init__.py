"""``repro.store`` — a content-addressed run store with provenance.

Every experiment run (a :class:`~repro.api.results.Result`) or benchmark
summary section persists as one frozen
:class:`~repro.store.record.RunRecord` whose id is the SHA-256 of its
deterministic content — wall-clock-derived leaves are segregated so the
same seeded scenario hashes identically on any machine.  A
:class:`~repro.store.store.RunStore` root holds three things: a
``FORMAT.json`` stamp, the records in sharded, atomically-written JSON
files under ``records/``, and an append-only ``journal.jsonl`` (safe for
concurrent ``run_grid`` workers) that is both the ingest order and the
version history; :mod:`repro.store.query` answers filter and
latest-version questions and
:mod:`repro.store.report` regenerates the README tables and BENCH_*.json
artifacts byte-for-byte from store contents alone.

CLI: ``python -m repro store ingest|list|query|diff|report``.
"""

from repro.store.record import (
    RecordError,
    RunRecord,
    is_timing_leaf,
    merge_timing,
    split_timing,
)
from repro.store.store import STORE_FORMAT_VERSION, RunStore, StoreError

__all__ = [
    "RecordError",
    "RunRecord",
    "RunStore",
    "StoreError",
    "STORE_FORMAT_VERSION",
    "is_timing_leaf",
    "merge_timing",
    "split_timing",
]
