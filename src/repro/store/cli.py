"""The ``python -m repro store`` subcommand family.

``store ingest <root> <bench.json ...>``
    Ingest BENCH_*.json artifacts into a store (dedup on re-ingest).
``store list <root>``
    One line per record: short id, kind, and its identity axes.
``store query <root> [--kind ...] [--scheduler ...] [--latest] ...``
    Filter records; ``--format json`` emits the merged payloads.
``store diff <root> <id> <id>``
    Leaf-level differences between two records' merged payloads
    (ids may be unambiguous prefixes).
``store report <root> [--table async|pareto|all] [--bench NAME] [--out DIR]``
    Regenerate the README tables and/or BENCH artifacts from the store.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from repro.store.query import filter_records
from repro.store.record import RunRecord
from repro.store.report import (
    ReportError,
    bench_artifact,
    bench_artifacts,
    diff_payloads,
    readme_async_table,
    readme_pareto_table,
    render_bench_artifact,
)
from repro.store.store import RunStore, StoreError

__all__ = ["add_store_parser"]


def _describe(record: RunRecord) -> str:
    bits = [record.record_id[:12], f"{record.kind:<7s}"]
    if record.scheduler is not None:
        bits.append(f"scheduler={record.scheduler}")
    if record.seed is not None:
        bits.append(f"seed={record.seed}")
    if record.spec_hash is not None:
        bits.append(f"spec={record.spec_hash[:12]}")
    if record.bench_file is not None:
        where = record.bench_file
        if record.section is not None:
            where += f":{record.section}"
        if record.label is not None:
            where += f"@{record.label}"
        bits.append(where)
    return "  ".join(bits)


def _cmd_ingest(args: argparse.Namespace) -> int:
    store = RunStore(args.root)
    total_added = total_seen = 0
    for path in args.files:
        outcomes = store.ingest_bench_file(path)
        added = sum(1 for _, was_added in outcomes if was_added)
        total_added += added
        total_seen += len(outcomes)
        print(f"{path}: {added} added, {len(outcomes) - added} deduplicated")
    print(f"store {store.root}: {total_added}/{total_seen} new record(s)")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    store = RunStore(args.root)
    records = store.latest_records() if args.latest else store.records()
    for record in records:
        print(_describe(record))
    print(f"{len(records)} record(s) in {store.root}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    store = RunStore(args.root)
    records = store.latest_records() if args.latest else store.records(verify=args.verify)
    if args.verify and args.latest:
        for record in records:
            record.verify()
    fields = {
        name: getattr(args, name)
        for name in ("kind", "scheduler", "spec_hash", "bench_file", "section", "label")
        if getattr(args, name) is not None
    }
    if args.seed is not None:
        fields["seed"] = args.seed
    matches = filter_records(records, **fields)
    if args.format == "json":
        payload = [
            {**record.to_dict(), "merged_payload": record.merged_payload()}
            for record in matches
        ]
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for record in matches:
            print(_describe(record))
        print(f"{len(matches)} matching record(s)")
    return 0


def _resolve_id(store: RunStore, prefix: str) -> RunRecord:
    matches = [rid for rid in store.record_ids() if rid.startswith(prefix)]
    if not matches:
        raise StoreError(f"no record with id prefix {prefix!r}")
    if len(matches) > 1:
        raise StoreError(
            f"record id prefix {prefix!r} is ambiguous "
            f"({', '.join(m[:12] for m in matches[:4])}...)"
        )
    record = store.get(matches[0])
    assert record is not None
    return record


def _cmd_diff(args: argparse.Namespace) -> int:
    store = RunStore(args.root)
    left = _resolve_id(store, args.left)
    right = _resolve_id(store, args.right)
    lines = diff_payloads(left.merged_payload(), right.merged_payload())
    for line in lines:
        print(line)
    if not lines:
        print(f"{left.record_id[:12]} and {right.record_id[:12]} have identical payloads")
    return 1 if lines else 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = RunStore(args.root)
    printed: List[str] = []
    if args.table in ("async", "all"):
        try:
            printed.append(readme_async_table(store))
        except ReportError as exc:
            if args.table == "async":
                raise
            print(f"(skipping async table: {exc})", file=sys.stderr)
    if args.table in ("pareto", "all"):
        try:
            printed.append(readme_pareto_table(store))
        except ReportError as exc:
            if args.table == "pareto":
                raise
            print(f"(skipping pareto table: {exc})", file=sys.stderr)
    sys.stdout.write("\n".join(printed))

    if args.bench or args.out:
        artifacts = (
            {name: bench_artifact(store, name) for name in args.bench}
            if args.bench
            else bench_artifacts(store)
        )
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, data in sorted(artifacts.items()):
                target = out_dir / name
                target.write_text(render_bench_artifact(data), encoding="utf-8")
                print(f"wrote {target}", file=sys.stderr)
        else:
            for name, data in sorted(artifacts.items()):
                sys.stdout.write(render_bench_artifact(data))
    return 0


def add_store_parser(sub: argparse._SubParsersAction) -> None:
    """Wire the ``store`` subcommand family into the ``python -m repro`` parser."""
    p_store = sub.add_parser(
        "store", help="content-addressed run store: ingest, query, report"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_ingest = store_sub.add_parser("ingest", help="ingest BENCH_*.json files")
    p_ingest.add_argument("root", help="store directory (created if missing)")
    p_ingest.add_argument("files", nargs="+", help="BENCH_*.json artifacts")
    p_ingest.set_defaults(func=_cmd_ingest)

    p_list = store_sub.add_parser("list", help="list records")
    p_list.add_argument("root", help="store directory")
    p_list.add_argument(
        "--latest", action="store_true", help="one record per dedup key (newest)"
    )
    p_list.set_defaults(func=_cmd_list)

    p_query = store_sub.add_parser("query", help="filter records")
    p_query.add_argument("root", help="store directory")
    p_query.add_argument("--kind", choices=("result", "section"))
    p_query.add_argument("--scheduler")
    p_query.add_argument("--seed", type=int)
    p_query.add_argument("--spec-hash", dest="spec_hash", metavar="PREFIX")
    p_query.add_argument("--bench-file", dest="bench_file")
    p_query.add_argument("--section")
    p_query.add_argument("--label")
    p_query.add_argument(
        "--latest", action="store_true", help="one record per dedup key (newest)"
    )
    p_query.add_argument(
        "--verify", action="store_true", help="integrity-check every record read"
    )
    p_query.add_argument("--format", choices=("human", "json"), default="human")
    p_query.set_defaults(func=_cmd_query)

    p_diff = store_sub.add_parser("diff", help="diff two records' payloads")
    p_diff.add_argument("root", help="store directory")
    p_diff.add_argument("left", help="record id (or unambiguous prefix)")
    p_diff.add_argument("right", help="record id (or unambiguous prefix)")
    p_diff.set_defaults(func=_cmd_diff)

    p_report = store_sub.add_parser(
        "report", help="regenerate README tables / BENCH artifacts"
    )
    p_report.add_argument("root", help="store directory")
    p_report.add_argument(
        "--table",
        choices=("async", "pareto", "all", "none"),
        default="all",
        help="which README table(s) to print (default: all)",
    )
    p_report.add_argument(
        "--bench",
        action="append",
        metavar="BENCH_N.json",
        help="regenerate this artifact (repeatable; default with --out: all)",
    )
    p_report.add_argument("--out", help="write regenerated artifacts into this directory")
    p_report.set_defaults(func=_cmd_report)
