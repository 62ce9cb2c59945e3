#!/usr/bin/env python
"""Benchmark regression gate: compare fresh BENCH_*.json against baselines.

CI regenerates the smoke-scale benchmark results and this script fails the
build when they regress against the baselines committed as run-store
records in ``benchmarks/baselines/store/``:

* **Golden numbers** (simulated JCTs, makespans, migration counts,
  degradation ratios — anything the deterministic simulation produces) must
  match the baseline **exactly**: the simulator is seeded, so any drift is
  a real behavior change.  Intentional changes regenerate the baselines,
  exactly like the golden traces: run the smoke benchmarks, then ingest
  the fresh files with ``python -m repro store ingest
  benchmarks/baselines/store BENCH_*.json`` and update
  ``benchmarks/baselines/calibration.json`` with the printed machine speed.
* **Throughput numbers** (``*_per_sec``) may not drop below
  ``--min-throughput-ratio`` (default 0.75, i.e. a >25% drop fails) after
  normalizing for machine speed: the baseline directory carries a
  ``calibration.json`` with the ops/sec of a fixed pure-Python loop
  measured when the baseline was recorded, and the same loop is measured
  on the current machine, so a slow CI runner does not masquerade as a
  code regression (and a fast one does not hide it).
* **Same-machine ratios** (``speedup_vs_seed``) compare two runs on the
  same host, so they are gated by the ratio alone, without machine
  normalization.  BENCH_3's ``scaling_vs_1_shard`` is recorded but not
  gated: it measured O(backlog) dispatch shrinking per shard, which the
  engine's ready index removed; each shard count's ``events_per_sec`` is
  gated as throughput instead.

The store is the only baseline source: the BENCH-shaped views are
reconstructed from its records via ``repro.store.report`` (``python -m
repro store report benchmarks/baselines/store --table none --out DIR``
writes the same views as files), so a tampered record surfaces as golden
drift.

Exit code 0 = no regression; 1 = regression (every violation is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

#: Path components whose leaves are deterministic simulation output and
#: must match the baseline exactly.
GOLDEN_MARKERS = (
    "jct",
    "makespan",
    "degradation",
    "migrated_work",
    "num_migrations",
    "monotone",
    # Serving metrics (BENCH_6): seeded token streams make goodput, latency
    # percentiles and token-normalized throughput exactly reproducible.
    "goodput",
    "ttft",
    "tpot",
    "itl",
    "tps_per",
    "token",
    "winning",
)

#: Leaf keys that are same-machine ratios (gated, but not normalized).
RATIO_KEYS = ("speedup_vs_seed",)

#: Leaf keys ignored entirely (wall-clock noise / metadata).  Result.to_dict
#: payloads (bench_output.record_results) carry wall_clock_sec and the spec's
#: schema/seed bookkeeping; none of those are simulation output.
IGNORED_KEYS = ("elapsed_sec", "scale", "wall_clock_sec", "seed", "schema_version")

CALIBRATION_FILE = "calibration.json"
CALIBRATION_LOOP = 2_000_000


def load_baselines(
    baseline_dir: str, store_dir: Optional[str] = None
) -> Tuple[Dict[str, Dict], str]:
    """Baseline payloads keyed by BENCH filename, plus the store that served them.

    The BENCH-shaped views are reconstructed from the run store's records
    (``store_dir``, default ``<baseline_dir>/store``), so the committed
    provenance-stamped store is the single source of golden truth.
    """
    store_dir = store_dir or os.path.join(baseline_dir, "store")
    # CI invokes this script without PYTHONPATH; make repro importable.
    src_root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    if src_root not in sys.path:
        sys.path.insert(0, src_root)
    from repro.store.report import bench_artifacts
    from repro.store.store import RunStore

    return dict(bench_artifacts(RunStore(store_dir))), f"store:{store_dir}"


def measure_machine_speed(repeats: int = 3) -> float:
    """Ops/sec of a fixed pure-Python loop (the benchmarks' cost model is
    dominated by pure-Python event processing, so this is the right unit)."""
    best = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i % 7
        elapsed = time.perf_counter() - started
        best = max(best, CALIBRATION_LOOP / elapsed)
    return best


def walk_leaves(payload: object, path: Tuple[str, ...] = ()) -> Iterator[Tuple[Tuple[str, ...], object]]:
    if isinstance(payload, dict):
        for key in sorted(payload):
            yield from walk_leaves(payload[key], path + (str(key),))
    else:
        yield path, payload


def classify(path: Tuple[str, ...]) -> str:
    leaf = path[-1]
    if leaf in IGNORED_KEYS:
        return "ignore"
    if leaf in RATIO_KEYS:
        return "ratio"
    if leaf.endswith("_per_sec"):
        return "throughput"
    if any(marker in component for component in path for marker in GOLDEN_MARKERS):
        return "golden"
    return "ignore"


def check_file(
    name: str,
    baseline: Dict,
    current: Dict,
    min_ratio: float,
    speed_factor: float,
) -> List[str]:
    failures: List[str] = []
    for section, base_payload in baseline.items():
        if section not in current:
            failures.append(f"{name}: section {section!r} missing from current results")
            continue
        cur_payload = current[section]
        base_scale = base_payload.get("scale") if isinstance(base_payload, dict) else None
        cur_scale = cur_payload.get("scale") if isinstance(cur_payload, dict) else None
        if base_scale != cur_scale:
            failures.append(
                f"{name}/{section}: scale mismatch (baseline {base_scale!r} vs "
                f"current {cur_scale!r}) — regenerate at matching BENCH_SCALE"
            )
            continue
        cur_leaves = dict(walk_leaves(cur_payload))
        for path, base_value in walk_leaves(base_payload):
            kind = classify(path)
            if kind == "ignore":
                continue
            dotted = f"{name}/{section}/" + "/".join(path)
            if path not in cur_leaves:
                failures.append(f"{dotted}: missing from current results")
                continue
            cur_value = cur_leaves[path]
            if kind == "golden":
                if cur_value != base_value:
                    failures.append(
                        f"{dotted}: golden drift — baseline {base_value!r}, "
                        f"current {cur_value!r} (exact match required)"
                    )
            elif kind == "ratio":
                floor = base_value * min_ratio
                if cur_value < floor:
                    failures.append(
                        f"{dotted}: ratio regression — baseline {base_value:.3f}, "
                        f"current {cur_value:.3f} (floor {floor:.3f})"
                    )
            elif kind == "throughput":
                floor = base_value * speed_factor * min_ratio
                if cur_value < floor:
                    failures.append(
                        f"{dotted}: throughput regression — baseline {base_value:.1f}, "
                        f"current {cur_value:.1f} (machine-adjusted floor {floor:.1f})"
                    )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines"),
        help="directory holding calibration.json and, by default, the baseline store",
    )
    parser.add_argument(
        "--current-dir",
        default=os.getcwd(),
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline-store",
        default=None,
        help="run-store directory serving the baselines (default: <baseline-dir>/store)",
    )
    parser.add_argument(
        "--min-throughput-ratio",
        type=float,
        default=0.75,
        help="fail when throughput drops below this fraction of baseline (default 0.75)",
    )
    parser.add_argument(
        "--print-calibration",
        action="store_true",
        help="measure and print this machine's calibration ops/sec, then exit",
    )
    args = parser.parse_args(argv)

    if args.print_calibration:
        print(f"{measure_machine_speed():.0f}")
        return 0

    calibration_path = os.path.join(args.baseline_dir, CALIBRATION_FILE)
    with open(calibration_path) as handle:
        baseline_speed = float(json.load(handle)["ops_per_sec"])
    current_speed = measure_machine_speed()
    speed_factor = current_speed / baseline_speed
    print(
        f"machine calibration: baseline {baseline_speed:.0f} ops/s, "
        f"current {current_speed:.0f} ops/s (factor {speed_factor:.2f})"
    )

    baselines, baseline_view = load_baselines(args.baseline_dir, args.baseline_store)
    if not baselines:
        print(f"no BENCH baselines in {baseline_view}", file=sys.stderr)
        return 1
    print(f"baselines: {len(baselines)} file(s) via {baseline_view}")

    failures: List[str] = []
    for filename, baseline in sorted(baselines.items()):
        current_path = os.path.join(args.current_dir, filename)
        if not os.path.exists(current_path):
            failures.append(f"{filename}: not generated (expected at {current_path})")
            continue
        with open(current_path) as handle:
            current = json.load(handle)
        file_failures = check_file(
            filename, baseline, current, args.min_throughput_ratio, speed_factor
        )
        status = "FAIL" if file_failures else "ok"
        print(f"  {filename}: {len(list(walk_leaves(baseline)))} leaves checked — {status}")
        failures.extend(file_failures)

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("no benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
