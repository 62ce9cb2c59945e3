"""Pure-function queries over :class:`~repro.store.record.RunRecord` lists.

Everything here takes records (or a :class:`~repro.store.store.RunStore`)
and returns plain data — no I/O, no mutation — so the same queries serve
the CLI, the report generator, and the regression gate's store view.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.store.record import RunRecord

__all__ = [
    "filter_records",
    "latest_per_key",
]

_FIELD_FILTERS = (
    "kind",
    "spec_hash",
    "seed",
    "scheduler",
    "schema_version",
    "bench_file",
    "section",
    "label",
)


def _resolve(store_or_records) -> List[RunRecord]:
    from repro.store.store import RunStore  # lazy: store imports query lazily too

    if isinstance(store_or_records, RunStore):
        return store_or_records.records()
    return list(store_or_records)


def filter_records(
    store_or_records,
    *,
    predicate: Optional[Callable[[RunRecord], bool]] = None,
    **fields: object,
) -> List[RunRecord]:
    """Records matching every given field value (and the optional predicate).

    ``spec_hash`` matches on any unambiguous prefix, so CLI users can pass
    the short ids printed by ``repro store list``.
    """
    unknown = set(fields) - set(_FIELD_FILTERS)
    if unknown:
        raise ValueError(
            f"unknown filter field(s) {sorted(unknown)}; "
            f"expected one of {list(_FIELD_FILTERS)}"
        )
    out = []
    for record in _resolve(store_or_records):
        for name, wanted in fields.items():
            have = getattr(record, name)
            if name == "spec_hash" and isinstance(wanted, str) and isinstance(have, str):
                if not have.startswith(wanted):
                    break
            elif have != wanted:
                break
        else:
            # Field filters narrow first, so the predicate only sees records
            # whose optional fields it can assume (e.g. kind="result" labels).
            if predicate is None or predicate(record):
                out.append(record)
    return out


def latest_per_key(
    store_or_records, *, order: Optional[Mapping[str, int]] = None
) -> List[RunRecord]:
    """One record per :attr:`~RunRecord.dedup_key` — the newest version.

    ``order`` maps record_id to ingest position (a store's journal order);
    records absent from it rank oldest, in record-id order, so a lost
    journal degrades to a deterministic choice instead of an error.
    """
    order = order or {}

    def rank(record: RunRecord) -> Tuple[int, int, str]:
        known = record.record_id in order
        return (1 if known else 0, order.get(record.record_id, -1), record.record_id)

    chosen: Dict[Tuple[object, ...], RunRecord] = {}
    for record in _resolve(store_or_records):
        incumbent = chosen.get(record.dedup_key)
        if incumbent is None or rank(record) > rank(incumbent):
            chosen[record.dedup_key] = record
    return sorted(chosen.values(), key=lambda r: r.record_id)
