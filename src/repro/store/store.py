""":class:`RunStore`: a directory of sharded, atomically-written records.

Layout (everything JSON, everything regenerable from ``records/`` alone)::

    <root>/
      FORMAT.json        # store format version + creating package version
      records/<aa>/<record_id>.json   # one canonical record per file
      journal.jsonl      # append-only ingest log (ordering + audit trail)
      index.json         # rebuildable summary cache (rebuild_index())

Durability rules:

* **Atomic record writes** — each record lands via ``<file>.tmp.<pid>`` +
  ``os.replace``; a crash mid-write leaves only a ``*.tmp.*`` turd, which
  every reader ignores (and which a later ingest of the same record simply
  replaces).
* **Append-only journal** — one JSON line per accepted record, written with
  ``O_APPEND`` so concurrent ``run_grid`` workers interleave whole lines;
  the journal is the store's ordering (``latest`` queries) and audit trail,
  never its source of truth.
* **Content-addressed dedup** — a record's filename *is* its identity hash,
  so re-ingesting identical data is a no-op; a record with the same
  :attr:`~repro.store.record.RunRecord.dedup_key` but different content is
  accepted as a new version (the journal notes what it supersedes) and
  ``latest``-style queries pick the newest.
* **Rebuildable index** — ``index.json`` is a pure cache; deleting it (or
  racing workers clobbering it) loses nothing: :meth:`rebuild_index`
  reconstructs it from the record files alone.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import repro
from repro.store.record import RecordError, RunRecord, looks_like_result_payload
from repro.utils.canonical import canonical_json

__all__ = ["StoreError", "RunStore", "STORE_FORMAT_VERSION"]

STORE_FORMAT_VERSION = 1

_FORMAT_FILE = "FORMAT.json"
_RECORDS_DIR = "records"
_JOURNAL_FILE = "journal.jsonl"
_INDEX_FILE = "index.json"

#: Index summary fields (a subset of the record, for cheap listing/queries).
_INDEX_FIELDS = (
    "kind",
    "spec_hash",
    "seed",
    "scheduler",
    "schema_version",
    "bench_file",
    "section",
    "label",
)


class StoreError(RuntimeError):
    """A store operation failed (bad layout, unreadable record, ...)."""


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class RunStore:
    """Persist, deduplicate and enumerate :class:`RunRecord`\\ s (see module doc).

    The object holds only the root path, so it pickles cleanly into
    ``run_grid`` worker processes; every operation re-opens the directory.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    # Paths ----------------------------------------------------------------- #
    @property
    def records_dir(self) -> Path:
        return self.root / _RECORDS_DIR

    @property
    def journal_path(self) -> Path:
        return self.root / _JOURNAL_FILE

    @property
    def index_path(self) -> Path:
        return self.root / _INDEX_FILE

    def _record_path(self, record_id: str) -> Path:
        return self.records_dir / record_id[:2] / f"{record_id}.json"

    # Layout ---------------------------------------------------------------- #
    def _ensure_layout(self) -> None:
        self.records_dir.mkdir(parents=True, exist_ok=True)
        format_path = self.root / _FORMAT_FILE
        if not format_path.exists():
            _atomic_write_text(
                format_path,
                canonical_json(
                    {
                        "format_version": STORE_FORMAT_VERSION,
                        "package_version": repro.__version__,
                    }
                )
                + "\n",
            )

    def exists(self) -> bool:
        return self.records_dir.is_dir()

    def check_format(self) -> None:
        format_path = self.root / _FORMAT_FILE
        if not format_path.exists():
            return  # pre-format or empty store: records alone are authoritative
        try:
            stamped = json.loads(format_path.read_text())["format_version"]
        except (OSError, ValueError, KeyError) as exc:
            raise StoreError(f"unreadable {format_path}: {exc}") from exc
        if stamped != STORE_FORMAT_VERSION:
            raise StoreError(
                f"store {self.root} has format_version {stamped!r}; this build "
                f"reads version {STORE_FORMAT_VERSION}"
            )

    # Writing --------------------------------------------------------------- #
    def add(
        self, record: RunRecord, *, source: Optional[str] = None
    ) -> Tuple[RunRecord, bool]:
        """Persist one record; returns ``(record, added)``.

        Identical content (same ``record_id``) dedupes to a no-op.  Same
        ``dedup_key`` with different content is stored as a new version and
        journaled with the ids it supersedes.
        """
        self._ensure_layout()
        self.check_format()
        record = record.with_provenance(
            package_version=record.provenance.get("package_version", repro.__version__),
            **({"source": source} if source else {}),
        )
        path = self._record_path(record.record_id)
        if path.exists():
            return record, False
        supersedes = sorted(
            rid
            for rid, entry in self._index_snapshot().items()
            if tuple(entry.get("dedup_key", ())) == tuple(map(_jsonable, record.dedup_key))
            and rid != record.record_id
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(path, record.to_json())
        journal_entry: Dict[str, object] = {
            "event": "add",
            "record_id": record.record_id,
            "dedup_key": [_jsonable(part) for part in record.dedup_key],
        }
        if source:
            journal_entry["source"] = source
        if supersedes:
            journal_entry["supersedes"] = supersedes
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(canonical_json(journal_entry) + "\n")
        self._update_index(record)
        return record, True

    def add_result(self, result, *, source: Optional[str] = None, **meta) -> Tuple[RunRecord, bool]:
        """Persist a live :class:`~repro.api.results.Result`."""
        return self.add(RunRecord.from_result(result, **meta), source=source or "api.run")

    # Ingestion ------------------------------------------------------------- #
    def ingest_bench_payload(
        self,
        bench_file: str,
        data: Mapping[str, object],
        *,
        source: Optional[str] = None,
    ) -> List[Tuple[RunRecord, bool]]:
        """Ingest a BENCH_*.json-shaped mapping of sections.

        Each section becomes one ``section`` record with its ``results``
        payloads hoisted into individual ``result`` records (keyed by label),
        so every persisted ``Result`` is individually addressable while the
        artifact stays byte-for-byte regenerable (the section record keeps an
        empty ``results`` slot marking where they re-attach).
        """
        out: List[Tuple[RunRecord, bool]] = []
        for section in sorted(data):
            payload = data[section]
            if not isinstance(payload, Mapping):
                raise StoreError(
                    f"{bench_file}: section {section!r} is not a JSON object"
                )
            payload = dict(payload)
            results = payload.get("results")
            if isinstance(results, Mapping) and all(
                looks_like_result_payload(v) for v in results.values()
            ):
                for label in sorted(results):
                    out.append(
                        self.add(
                            RunRecord.result_record(
                                results[label],
                                bench_file=bench_file,
                                section=section,
                                label=label,
                            ),
                            source=source,
                        )
                    )
                payload["results"] = {}
            out.append(
                self.add(
                    RunRecord.section_record(
                        payload, bench_file=bench_file, section=section
                    ),
                    source=source,
                )
            )
        return out

    def ingest_bench_file(
        self,
        path: str | os.PathLike,
        *,
        bench_file: Optional[str] = None,
        source: Optional[str] = None,
    ) -> List[Tuple[RunRecord, bool]]:
        """Ingest one BENCH_*.json file (``bench_file`` defaults to its name)."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise StoreError(f"cannot ingest {path}: {exc}") from exc
        if not isinstance(data, Mapping):
            raise StoreError(f"cannot ingest {path}: top level is not a JSON object")
        return self.ingest_bench_payload(
            bench_file or path.name, data, source=source or f"ingest:{path.name}"
        )

    # Reading --------------------------------------------------------------- #
    def get(self, record_id: str, *, verify: bool = False) -> Optional[RunRecord]:
        path = self._record_path(record_id)
        if not path.exists():
            return None
        return self._load_record(path, verify=verify)

    def record_ids(self) -> List[str]:
        if not self.records_dir.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.records_dir.glob("*/*.json")  # *.tmp.* never matches
        )

    def records(self, *, verify: bool = False) -> List[RunRecord]:
        """Every record, sorted by id (tmp turds from crashed writes ignored)."""
        return [
            self._load_record(self._record_path(rid), verify=verify)
            for rid in self.record_ids()
        ]

    def _load_record(self, path: Path, *, verify: bool = False) -> RunRecord:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable record file {path}: {exc}") from exc
        try:
            record = RunRecord.from_dict(data, verify=verify)
        except RecordError as exc:
            raise StoreError(f"{path}: {exc}") from exc
        if record.record_id != path.stem:
            raise StoreError(
                f"{path}: filename does not match stored record_id "
                f"{record.record_id[:12]}..."
            )
        return record

    def __len__(self) -> int:
        return len(self.record_ids())

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"RunStore({str(self.root)!r}, {len(self)} records)"

    # Journal / ordering ---------------------------------------------------- #
    def journal_entries(self) -> List[Dict[str, object]]:
        if not self.journal_path.exists():
            return []
        entries: List[Dict[str, object]] = []
        for line in self.journal_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                # A torn line (crash mid-append) is an audit gap, not data
                # loss: records/ is the source of truth.
                continue
        return entries

    def journal_order(self) -> Dict[str, int]:
        """record_id -> first journal position (ids missing from a lost
        journal rank before journaled ones, in id order, keeping totals stable)."""
        order: Dict[str, int] = {}
        for position, entry in enumerate(self.journal_entries()):
            rid = entry.get("record_id")
            if isinstance(rid, str) and rid not in order:
                order[rid] = position
        return order

    # Index ----------------------------------------------------------------- #
    def _index_entry(self, record: RunRecord) -> Dict[str, object]:
        entry: Dict[str, object] = {
            name: getattr(record, name)
            for name in _INDEX_FIELDS
            if getattr(record, name) is not None
        }
        entry["dedup_key"] = [_jsonable(part) for part in record.dedup_key]
        return entry

    def _index_snapshot(self) -> Dict[str, Dict[str, object]]:
        if self.index_path.exists():
            try:
                data = json.loads(self.index_path.read_text(encoding="utf-8"))
                if (
                    isinstance(data, Mapping)
                    and data.get("format_version") == STORE_FORMAT_VERSION
                    and isinstance(data.get("records"), Mapping)
                ):
                    return dict(data["records"])
            except (OSError, ValueError):
                pass  # stale/corrupt cache: fall through to rebuild
        return {
            record.record_id: self._index_entry(record) for record in self.records()
        }

    def _update_index(self, record: RunRecord) -> None:
        # Best-effort cache refresh: concurrent writers may clobber each
        # other's entries, which is fine — rebuild_index() restores from the
        # record files, and queries never *trust* the index for correctness.
        try:
            snapshot = self._index_snapshot()
            snapshot[record.record_id] = self._index_entry(record)
            self._write_index(snapshot)
        except OSError:  # pragma: no cover - index is advisory
            pass

    def _write_index(self, snapshot: Mapping[str, Mapping[str, object]]) -> None:
        payload = {
            "format_version": STORE_FORMAT_VERSION,
            "num_records": len(snapshot),
            "records": {rid: snapshot[rid] for rid in sorted(snapshot)},
        }
        _atomic_write_text(
            self.index_path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    def rebuild_index(self) -> Dict[str, Dict[str, object]]:
        """Reconstruct ``index.json`` from the record files alone."""
        snapshot = {
            record.record_id: self._index_entry(record) for record in self.records()
        }
        self._ensure_layout()
        self._write_index(snapshot)
        return snapshot

    # Convenience views ------------------------------------------------------ #
    def latest_records(self, *, verify: bool = False) -> List[RunRecord]:
        """One record per dedup key — the newest version by journal order."""
        from repro.store.query import latest_per_key  # lazy: query imports store types

        return latest_per_key(self.records(verify=verify), order=self.journal_order())


def _jsonable(value: object) -> object:
    return value if isinstance(value, (str, int, float, bool)) or value is None else str(value)
