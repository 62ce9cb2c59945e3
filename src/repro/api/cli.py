"""``python -m repro`` — run declarative experiment specs from the shell.

Subcommands
-----------
``run <spec.json>``
    Resolve and run one scenario; print a summary, optionally write the
    full :class:`~repro.api.results.Result` JSON with ``--output``.
``grid <spec.json> --axis path=v1,v2,...``
    Fan the spec out over override axes (repeat ``--axis``), in parallel
    with ``--processes``.
``pareto <spec.json> --axis path=v1,v2,...``
    Run a grid of token-model scenarios and print the serving Pareto
    table — TPS/GPU (fleet efficiency) vs TPS/User (stream speed) with
    per-tier goodput — marking the Pareto-optimal cells.  Human and JSON
    output via ``--format``, mirroring ``repro.analysis``.
``validate <spec.json> [...]``
    Parse + validate specs without running anything (reporting each
    document's stamped schema version); exit 1 on the first invalid file
    with its actionable error.
``list-schedulers``
    Print every scheduler name :func:`repro.api.run` accepts, plus the
    available placement policies and job routers.
``store ingest|list|query|diff|report``
    The content-addressed run store (see :mod:`repro.store.cli`); ``run``
    and ``grid`` also take ``--store DIR`` to record their Results.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.dispatch import run as run_spec
from repro.api.grid import run_grid
from repro.api.results import Result
from repro.api.spec import SCHEMA_VERSION, ScenarioSpec, SpecError
from repro.schedulers.registry import available_schedulers
from repro.simulator.federation import available_job_routers
from repro.simulator.placement import available_placement_policies
from repro.store.cli import add_store_parser
from repro.store.report import ReportError
from repro.store.store import RunStore, StoreError

__all__ = ["main", "pareto_rows"]

#: Schema of the ``pareto`` subcommand's JSON output.
PARETO_JSON_VERSION = 1


def _load_spec(path: str) -> ScenarioSpec:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path!r}: {exc}") from exc
    return ScenarioSpec.from_json(text)


def _parse_axis_value(raw: str) -> object:
    """Axis values are JSON when possible (2, 1.5, true), strings otherwise."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _parse_axes(pairs: Sequence[str]) -> Dict[str, List[object]]:
    axes: Dict[str, List[object]] = {}
    for pair in pairs:
        path, sep, values = pair.partition("=")
        if not sep or not path or not values:
            raise SpecError(
                f"invalid --axis {pair!r}; expected dotted.path=value1,value2,..."
            )
        axes[path] = [_parse_axis_value(v) for v in values.split(",")]
    return axes


def _summarize(result: Result, label: str = "") -> str:
    metrics = result.metrics
    prefix = f"{label:<28s} " if label else ""
    kind = "federated" if result.is_federated else "single"
    return (
        f"{prefix}{result.spec.scheduler.name:>12s} | {kind:9s} | "
        f"jobs {len(metrics.job_completion_times):5d} | "
        f"avg JCT {metrics.average_jct:10.2f}s | makespan {metrics.makespan:10.2f}s | "
        f"wall {result.wall_clock_sec:6.2f}s"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    result = run_spec(spec)
    if args.store is not None:
        RunStore(args.store).add_result(result)
    print(_summarize(result))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(result.to_json(include_spec=not args.no_spec))
        print(f"wrote {args.output}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    axes = _parse_axes(args.axis or [])
    if not axes:
        raise SpecError("grid needs at least one --axis dotted.path=value1,value2,...")
    rows = run_grid(spec, axes, processes=args.processes, store=args.store)
    for overrides, result in rows:
        label = ", ".join(f"{k}={v}" for k, v in overrides.items())
        print(_summarize(result, label=label))
    if args.output:
        payload = [
            {"overrides": overrides, **result.to_dict(include_spec=not args.no_spec)}
            for overrides, result in rows
        ]
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


def pareto_rows(
    cells: Sequence[Tuple[Dict[str, object], Result]]
) -> List[Dict[str, object]]:
    """Serving table rows (one per grid cell), Pareto front marked.

    A cell is Pareto-optimal when no other cell is at least as good on
    both throughput axes (TPS/GPU — fleet efficiency — and TPS/User —
    per-stream speed) and strictly better on one.
    """
    rows: List[Dict[str, object]] = []
    for overrides, result in cells:
        serving = result.serving
        if serving is None:
            label = ", ".join(f"{k}={v}" for k, v in overrides.items()) or "<base spec>"
            raise SpecError(
                f"pareto cell {label} produced no serving metrics; the spec needs "
                'a token-model workload (set workload.token_mix to "chat", '
                '"batch" or "agentic") on a single cluster'
            )
        rows.append(
            {
                "overrides": dict(overrides),
                "scheduler": result.spec.scheduler.name,
                "goodput": serving["goodput_overall"],
                "goodput_by_tier": serving["goodput"],
                "tps_per_gpu": serving["tps_per_gpu"],
                "tps_per_user": serving["tps_per_user"],
                "ttft_p95": serving["ttft"]["p95"],
                "tpot_p95": serving["tpot"]["p95"],
                "num_requests": serving["num_requests"],
            }
        )
    for row in rows:
        row["pareto"] = not any(
            other["tps_per_gpu"] >= row["tps_per_gpu"]
            and other["tps_per_user"] >= row["tps_per_user"]
            and (
                other["tps_per_gpu"] > row["tps_per_gpu"]
                or other["tps_per_user"] > row["tps_per_user"]
            )
            for other in rows
            if other is not row
        )
    rows.sort(key=lambda r: (-r["tps_per_gpu"], -r["tps_per_user"]))
    return rows


def _cmd_pareto(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    axes = _parse_axes(args.axis or [])
    if axes:
        cells = run_grid(spec, axes, processes=args.processes)
    else:
        cells = [({}, run_spec(spec))]
    rows = pareto_rows(cells)
    payload = {"version": PARETO_JSON_VERSION, "rows": rows}
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        header = (
            f"{'':2s}{'cell':<40s} {'goodput':>8s} {'tps/gpu':>9s} "
            f"{'tps/user':>9s} {'ttft_p95':>9s} {'tpot_p95':>9s}"
        )
        print(header)
        for row in rows:
            label = ", ".join(f"{k}={v}" for k, v in row["overrides"].items())
            label = label or row["scheduler"]
            marker = "* " if row["pareto"] else "  "
            print(
                f"{marker}{label:<40s} {row['goodput']:>8.3f} "
                f"{row['tps_per_gpu']:>9.1f} {row['tps_per_user']:>9.1f} "
                f"{row['ttft_p95']:>9.2f} {row['tpot_p95']:>9.4f}"
            )
        print("* = Pareto-optimal on (TPS/GPU, TPS/User)")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}", file=sys.stderr if args.format == "json" else sys.stdout)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    for path in args.specs:
        spec = _load_spec(path)
        try:
            with open(path) as handle:
                stamped = json.load(handle).get("schema_version", SCHEMA_VERSION)
        except (OSError, json.JSONDecodeError):  # pragma: no cover - _load_spec caught it
            stamped = spec.schema_version
        version = f"schema v{stamped}"
        if stamped != spec.schema_version:
            version += f" upcast to v{spec.schema_version}"
        mode = spec.workload.mode
        shards = spec.cluster.num_shards
        print(
            f"{path}: ok ({version}, {spec.scheduler.name}, {mode}-loop, {shards} shard(s))"
        )
    return 0


def _cmd_list_schedulers(args: argparse.Namespace) -> int:
    names = available_schedulers(every=True)
    print("schedulers:")
    for name in names:
        print(f"  {name}")
    print(f"placement policies: {', '.join(available_placement_policies())}")
    print(f"job routers: {', '.join(available_job_routers())}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run declarative LLMSched-reproduction experiment specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario spec")
    p_run.add_argument("spec", help="path to a ScenarioSpec JSON file")
    p_run.add_argument("--output", help="write the full Result JSON here")
    p_run.add_argument(
        "--no-spec", action="store_true", help="omit the resolved spec from --output"
    )
    p_run.add_argument(
        "--store", metavar="DIR", help="record the Result into this run store"
    )
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", help="run a grid of override axes over one spec")
    p_grid.add_argument("spec", help="path to the base ScenarioSpec JSON file")
    p_grid.add_argument(
        "--axis",
        action="append",
        metavar="PATH=V1,V2,...",
        help="override axis, e.g. workload.arrival_rate=0.6,0.9,1.2 (repeatable)",
    )
    p_grid.add_argument("--processes", type=int, default=None, help="worker processes")
    p_grid.add_argument("--output", help="write all grid Results as JSON here")
    p_grid.add_argument(
        "--no-spec", action="store_true", help="omit resolved specs from --output"
    )
    p_grid.add_argument(
        "--store", metavar="DIR", help="record every cell Result into this run store"
    )
    p_grid.set_defaults(func=_cmd_grid)

    p_pareto = sub.add_parser(
        "pareto", help="serving Pareto table (TPS/GPU vs TPS/User) over a spec grid"
    )
    p_pareto.add_argument("spec", help="path to the base ScenarioSpec JSON file")
    p_pareto.add_argument(
        "--axis",
        action="append",
        metavar="PATH=V1,V2,...",
        help="override axis, e.g. scheduler.name=fcfs,slo_serving (repeatable)",
    )
    p_pareto.add_argument("--processes", type=int, default=None, help="worker processes")
    p_pareto.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    p_pareto.add_argument("--output", help="also write the JSON table here")
    p_pareto.set_defaults(func=_cmd_pareto)

    p_val = sub.add_parser("validate", help="validate spec files without running them")
    p_val.add_argument("specs", nargs="+", help="ScenarioSpec JSON files")
    p_val.set_defaults(func=_cmd_validate)

    p_list = sub.add_parser(
        "list-schedulers", help="list scheduler / placement / router names"
    )
    p_list.set_defaults(func=_cmd_list_schedulers)

    add_store_parser(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, StoreError, ReportError) as exc:
        # SpecError, the run-time resolution errors (e.g. an unsplittable
        # shard count) and the store/report failures all carry actionable
        # messages.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
