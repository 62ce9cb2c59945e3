"""The unit of provenance: one frozen, content-addressed :class:`RunRecord`.

A record wraps one serialized payload — either a full
:meth:`repro.api.results.Result.to_dict` (``kind="result"``) or a benchmark
summary section (``kind="section"``) — together with the provenance needed
to answer *which spec, seed and code produced which number*:

* ``spec_hash`` — :meth:`ScenarioSpec.content_hash` of the (resolved) spec;
* ``seed`` / ``scheduler`` / ``schema_version`` — the run's identity axes;
* ``bench_file`` / ``section`` / ``label`` — where the payload lives in the
  BENCH_*.json universe, so artifacts can be *regenerated* from the store;
* ``provenance`` — free-form, non-identity metadata (package version,
  ingest source, machine calibration fingerprint).

**Identity is deterministic.**  ``record_id`` is the SHA-256 of the
canonical JSON of the *deterministic* fields only.  Wall-clock-derived
leaves (``wall_clock_sec``, ``*_per_sec`` throughputs, elapsed times,
same-machine speedup ratios, the measured scheduler overhead) are
segregated into a parallel ``timing`` tree by :func:`split_timing` before
hashing and re-merged by :func:`merge_timing` on regeneration — so two runs
of the same seeded scenario on different machines produce the *same*
``record_id``, and the byte-for-byte BENCH artifact still comes back out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.utils.canonical import canonical_json, content_hash

__all__ = [
    "RecordError",
    "RunRecord",
    "split_timing",
    "merge_timing",
    "is_timing_leaf",
    "looks_like_result_payload",
]

#: Record schema version stamped into every serialized record.
RECORD_SCHEMA_VERSION = 1

#: Leaf keys that carry wall-clock measurements (or ratios of them) rather
#: than deterministic simulation output.  ``*_per_sec`` and ``*elapsed_sec``
#: are matched by suffix; the rest are exact names used across BENCH files.
_TIMING_EXACT = frozenset(
    {
        "wall_clock_sec",
        "avg_overhead_ms",  # measured scheduler-invocation wall clock (Table I)
        "speedup_vs_seed",
        "scaling_vs_1_shard",
        "scaling_at_4_shards",
        "cow_speedup",
    }
)


class RecordError(ValueError):
    """A record failed validation (corrupt payload, identity mismatch)."""


def is_timing_leaf(key: str) -> bool:
    """Whether a leaf key holds wall-clock-derived (machine-dependent) data."""
    return key in _TIMING_EXACT or key.endswith("_per_sec") or key.endswith("elapsed_sec")


def split_timing(payload: object) -> Tuple[object, Dict[str, object]]:
    """Split ``payload`` into (deterministic tree, timing tree).

    The timing tree mirrors the payload's nesting (list elements keyed by
    their stringified index) and holds exactly the wall-clock leaves, so
    ``merge_timing(*split_timing(p)) == p`` for any JSON payload.  A dict
    whose leaves were *all* timing stays behind as an empty dict, keeping
    the structural skeleton deterministic.
    """
    if isinstance(payload, Mapping):
        det: Dict[str, object] = {}
        timing: Dict[str, object] = {}
        for key, value in payload.items():
            key = str(key)
            if isinstance(value, (Mapping, list)):
                sub_det, sub_timing = split_timing(value)
                det[key] = sub_det
                if sub_timing:
                    timing[key] = sub_timing
            elif is_timing_leaf(key) and isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                timing[key] = value
            else:
                det[key] = value
        return det, timing
    if isinstance(payload, list):
        det_list: List[object] = []
        list_timing: Dict[str, object] = {}
        for i, item in enumerate(payload):
            sub_det, sub_timing = split_timing(item)
            det_list.append(sub_det)
            if sub_timing:
                list_timing[str(i)] = sub_timing
        return det_list, list_timing
    return payload, {}


def merge_timing(det: object, timing: Mapping[str, object]) -> object:
    """Inverse of :func:`split_timing`: re-insert the timing leaves."""
    if isinstance(det, Mapping):
        out: Dict[str, object] = {}
        for key, value in det.items():
            sub = timing.get(key, {}) if timing else {}
            if isinstance(value, (Mapping, list)):
                out[key] = merge_timing(value, sub if isinstance(sub, Mapping) else {})
            else:
                out[key] = value
        if timing:
            for key, value in timing.items():
                if key not in out:  # a timing leaf removed by the split
                    out[key] = value
        return out
    if isinstance(det, list):
        return [
            merge_timing(item, timing.get(str(i), {}) if timing else {})
            for i, item in enumerate(det)
        ]
    return det


def looks_like_result_payload(payload: object) -> bool:
    """Whether a dict has the :meth:`Result.to_dict` shape."""
    return isinstance(payload, Mapping) and "metrics" in payload and "seed" in payload


def _spec_hash_of(spec_dict: Optional[Mapping]) -> Optional[str]:
    """Canonical spec hash of an embedded serialized spec, if any.

    The dict is normalized through :class:`ScenarioSpec` when it parses (so
    a v1 document hashes identically to its v2 upcast); payloads carrying
    specs this build can no longer parse fall back to hashing the raw dict.
    """
    if spec_dict is None:
        return None
    from repro.api.spec import ScenarioSpec, SpecError  # lazy: avoids import cycle

    try:
        return ScenarioSpec.from_dict(spec_dict).content_hash()
    except SpecError:
        return content_hash(dict(spec_dict))


@dataclass(frozen=True)
class RunRecord:
    """One content-addressed, provenance-stamped payload (see module doc)."""

    kind: str  # "result" | "section"
    payload: Mapping[str, object]  # deterministic tree (identity-bearing)
    timing: Mapping[str, object] = field(default_factory=dict)  # non-identity
    spec_hash: Optional[str] = None
    seed: Optional[int] = None
    scheduler: Optional[str] = None
    schema_version: Optional[int] = None
    bench_file: Optional[str] = None
    section: Optional[str] = None
    label: Optional[str] = None
    provenance: Mapping[str, object] = field(default_factory=dict)  # non-identity
    record_id: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("result", "section"):
            raise RecordError(f'record kind must be "result" or "section", not {self.kind!r}')
        computed = self.compute_record_id()
        if not self.record_id:
            object.__setattr__(self, "record_id", computed)

    # Identity ------------------------------------------------------------- #
    def identity_dict(self) -> Dict[str, object]:
        """The exact fields the record identity hashes over."""
        return {
            "kind": self.kind,
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "schema_version": self.schema_version,
            "bench_file": self.bench_file,
            "section": self.section,
            "label": self.label,
            "payload": self.payload,
        }

    def compute_record_id(self) -> str:
        return content_hash(self.identity_dict())

    def verify(self) -> "RunRecord":
        """Raise :class:`RecordError` if the stored id does not match the payload."""
        computed = self.compute_record_id()
        if self.record_id != computed:
            raise RecordError(
                f"record {self.record_id[:12]} fails integrity check: payload hashes "
                f"to {computed[:12]} (tampered or hand-edited record file)"
            )
        return self

    @property
    def dedup_key(self) -> Tuple[object, ...]:
        """The key re-ingesting the same run dedupes on.

        Results with a known spec dedupe on ``(spec_hash, seed, scheduler)``
        — the run's semantic identity; spec-less result payloads and summary
        sections fall back to their position in the BENCH universe.
        """
        if self.kind == "result" and self.spec_hash is not None:
            return ("result", self.spec_hash, self.seed, self.scheduler)
        return (self.kind, self.bench_file, self.section, self.label)

    # Constructors --------------------------------------------------------- #
    @classmethod
    def result_record(
        cls,
        payload: Mapping[str, object],
        *,
        bench_file: Optional[str] = None,
        section: Optional[str] = None,
        label: Optional[str] = None,
    ) -> "RunRecord":
        """Wrap a ``Result.to_dict``-shaped payload: a live run's
        ``result.to_dict()`` (spec included) or one read from a BENCH file."""
        if not looks_like_result_payload(payload):
            raise RecordError(
                f"payload under {section!r}/{label!r} does not look like a "
                "Result.to_dict (missing 'metrics'/'seed')"
            )
        det, timing = split_timing(dict(payload))
        spec = payload.get("spec")
        scheduler = None
        if isinstance(spec, Mapping):
            scheduler = spec.get("scheduler", {}).get("name", "fcfs")
        return cls(
            kind="result",
            payload=det,
            timing=timing,
            spec_hash=_spec_hash_of(spec if isinstance(spec, Mapping) else None),
            seed=payload.get("seed"),
            scheduler=scheduler,
            schema_version=payload.get("schema_version"),
            bench_file=bench_file,
            section=section,
            label=label,
        )

    @classmethod
    def section_record(
        cls,
        payload: Mapping[str, object],
        *,
        bench_file: Optional[str],
        section: str,
    ) -> "RunRecord":
        """Wrap a benchmark summary section (its ``results`` hoisted out)."""
        det, timing = split_timing(dict(payload))
        return cls(
            kind="section",
            payload=det,
            timing=timing,
            bench_file=bench_file,
            section=section,
        )

    # Views ---------------------------------------------------------------- #
    def merged_payload(self) -> Dict[str, object]:
        """The original payload, timing leaves re-merged (regeneration view)."""
        merged = merge_timing(self.payload, self.timing)
        assert isinstance(merged, dict)
        return merged

    # Serialization --------------------------------------------------------- #
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "record_schema": RECORD_SCHEMA_VERSION,
            "record_id": self.record_id,
            "kind": self.kind,
            "payload": self.payload,
        }
        for name in ("spec_hash", "seed", "scheduler", "schema_version",
                     "bench_file", "section", "label"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.timing:
            out["timing"] = self.timing
        if self.provenance:
            out["provenance"] = self.provenance
        return out

    def to_json(self) -> str:
        return canonical_json(self.to_dict()) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping, verify: bool = False) -> "RunRecord":
        if not isinstance(data, Mapping) or "kind" not in data or "payload" not in data:
            raise RecordError("a run record needs at least 'kind' and 'payload'")
        stamped = data.get("record_schema", RECORD_SCHEMA_VERSION)
        if stamped != RECORD_SCHEMA_VERSION:
            raise RecordError(
                f"unsupported record_schema {stamped!r}; this build reads "
                f"version {RECORD_SCHEMA_VERSION}"
            )
        record = cls(
            kind=data["kind"],
            payload=data["payload"],
            timing=data.get("timing", {}),
            spec_hash=data.get("spec_hash"),
            seed=data.get("seed"),
            scheduler=data.get("scheduler"),
            schema_version=data.get("schema_version"),
            bench_file=data.get("bench_file"),
            section=data.get("section"),
            label=data.get("label"),
            provenance=data.get("provenance", {}),
            record_id=data.get("record_id", ""),
        )
        return record.verify() if verify else record

    def with_provenance(self, **extra: object) -> "RunRecord":
        """A copy with extra provenance merged in (identity unchanged)."""
        merged = dict(self.provenance)
        merged.update(extra)
        return replace(self, provenance=merged)
