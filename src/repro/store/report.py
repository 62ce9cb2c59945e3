"""Regenerate human-facing artifacts from store contents alone.

The README scheduler-comparison and serving-pareto tables and every
BENCH_*.json artifact are *renderings* of what the store holds — this
module produces them byte-for-byte, so the tables can be asserted against
the committed docs in CI (no more hand-curated copies drifting apart).
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Sequence

from repro.store.query import filter_records, latest_per_key
from repro.store.record import RunRecord

__all__ = [
    "ReportError",
    "bench_artifact",
    "bench_artifacts",
    "render_bench_artifact",
    "readme_async_table",
    "readme_pareto_table",
]

#: The sections the README tables are generated from.
ASYNC_SECTION = "async_latency_degradation"
PARETO_SECTION = "slo_serving_pareto"


class ReportError(RuntimeError):
    """The store lacks the records a report needs."""


def _latest(store_or_records) -> List[RunRecord]:
    from repro.store.store import RunStore  # lazy to avoid import cycle

    if isinstance(store_or_records, RunStore):
        return store_or_records.latest_records()
    return latest_per_key(store_or_records)


def _section_payload(records: Sequence[RunRecord], section: str) -> Mapping[str, object]:
    matches = filter_records(records, kind="section", section=section)
    if not matches:
        raise ReportError(f"store holds no {section!r} section record")
    if len(matches) > 1:
        files = sorted({str(r.bench_file) for r in matches})
        raise ReportError(f"ambiguous {section!r} section (in {', '.join(files)})")
    return matches[0].merged_payload()


def _scheduler_order(present: Sequence[str]) -> List[str]:
    from repro.schedulers.registry import available_schedulers

    known = available_schedulers(include_llmsched=True)
    ordered = [name for name in known if name in present]
    return ordered + sorted(set(present) - set(known))


# BENCH artifacts ----------------------------------------------------------- #
def bench_artifact(store_or_records, bench_file: str) -> Dict[str, object]:
    """The BENCH_*.json-shaped dict for ``bench_file``, rebuilt from records.

    Section payloads come back with their hoisted ``results`` re-attached
    under their original labels; rendering with :func:`render_bench_artifact`
    reproduces the committed file byte-for-byte.
    """
    records = _latest(store_or_records)
    sections = filter_records(records, kind="section", bench_file=bench_file)
    if not sections:
        raise ReportError(f"store holds no sections for {bench_file!r}")
    artifact: Dict[str, object] = {}
    for section_record in sections:
        assert section_record.section is not None
        payload = section_record.merged_payload()
        hoisted = filter_records(
            records,
            kind="result",
            bench_file=bench_file,
            section=section_record.section,
        )
        if hoisted:
            results = dict(payload.get("results") or {})
            for result_record in hoisted:
                assert result_record.label is not None
                results[result_record.label] = result_record.merged_payload()
            payload["results"] = results
        artifact[section_record.section] = payload
    return artifact


def bench_artifacts(store_or_records) -> Dict[str, Dict[str, object]]:
    """Every reconstructable artifact, keyed by bench filename."""
    records = _latest(store_or_records)
    files = sorted(
        {r.bench_file for r in records if r.kind == "section" and r.bench_file}
    )
    return {name: bench_artifact(records, name) for name in files}


def render_bench_artifact(data: Mapping[str, object]) -> str:
    """Render exactly as ``benchmarks/bench_output.py`` writes BENCH files."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# README tables ------------------------------------------------------------- #
def readme_async_table(store_or_records) -> str:
    """The README mean-JCT-vs-decision-latency table, byte-for-byte."""
    payload = _section_payload(_latest(store_or_records), ASYNC_SECTION)
    latencies = payload["latencies"]
    averages = payload["average_jct_by_scheduler"]
    degradation = payload["degradation_at_max_latency"]
    assert isinstance(latencies, list) and isinstance(averages, Mapping)
    assert isinstance(degradation, Mapping)

    max_latency = latencies[-1]
    lines = [
        "| scheduler | "
        + " | ".join(f"{lat:g} s" for lat in latencies)
        + f" | degradation at {max_latency:g} s |",
        "|-----------|" + "-----:|" * len(latencies) + "---:|",
    ]
    for name in _scheduler_order(sorted(averages)):
        by_latency = averages[name]
        assert isinstance(by_latency, Mapping)
        cells = " | ".join(f"{by_latency[str(lat)]:.1f}" for lat in latencies)
        lines.append(f"| {name:<9} | {cells} | ×{degradation[name]:.1f} |")
    return "\n".join(lines) + "\n"


def readme_pareto_table(store_or_records) -> str:
    """The README serving-goodput pareto table, byte-for-byte."""
    from repro.workloads.serving import TOKEN_MIXES

    payload = _section_payload(_latest(store_or_records), PARETO_SECTION)
    mixes = payload["mixes"]
    assert isinstance(mixes, Mapping)
    schedulers = payload.get("schedulers")
    order = (
        [str(s) for s in schedulers]
        if isinstance(schedulers, list)
        else _scheduler_order(sorted(mixes))
    )
    mix_order = [m for m in TOKEN_MIXES if m in mixes] + sorted(
        set(mixes) - set(TOKEN_MIXES)
    )

    lines = ["| mix | `slo_serving` goodput | best incumbent |", "|---|---|---|"]
    for mix in mix_order:
        entry = mixes[mix]
        assert isinstance(entry, Mapping)
        goodput = entry["goodput"]
        assert isinstance(goodput, Mapping)
        best = entry["best_incumbent_goodput"]
        assert isinstance(best, (int, float))
        winners = "/".join(
            name
            for name in order
            if name != "slo_serving" and goodput.get(name) == best
        )
        lines.append(
            f"| {mix} | **{goodput['slo_serving']:.3f}** | {best:.3f} ({winners}) |"
        )
    return "\n".join(lines) + "\n"


def readme_tables(store_or_records) -> Dict[str, str]:
    """Both README tables (best-effort: absent sections are skipped)."""
    records = _latest(store_or_records)
    tables: Dict[str, str] = {}
    for name, renderer in (("async", readme_async_table), ("pareto", readme_pareto_table)):
        try:
            tables[name] = renderer(records)
        except ReportError:
            continue
    return tables


def diff_payloads(
    old: Mapping[str, object], new: Mapping[str, object], *, prefix: str = ""
) -> List[str]:
    """Human-readable leaf-level differences between two payload trees."""
    out: List[str] = []
    keys = sorted(set(old) | set(new))
    for key in keys:
        path = f"{prefix}.{key}" if prefix else str(key)
        if key not in old:
            out.append(f"+ {path} = {_brief(new[key])}")
        elif key not in new:
            out.append(f"- {path} = {_brief(old[key])}")
        elif isinstance(old[key], Mapping) and isinstance(new[key], Mapping):
            out.extend(diff_payloads(old[key], new[key], prefix=path))
        elif old[key] != new[key]:
            out.append(f"~ {path}: {_brief(old[key])} -> {_brief(new[key])}")
    return out


def _brief(value: object, limit: int = 60) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return text if len(text) <= limit else text[: limit - 3] + "..."
