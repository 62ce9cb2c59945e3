"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload backlog_fcfs --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced simulations (and writes their spans under
``.perfbench_out/``).  Human-readable detail goes first; the last line of
standard output is the JSON result.  Exits 2 when the simulator's sources
are not next to the benchmark.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# One thread per numeric library: the runs are single-process and the
# small-array work of the profiler gains nothing from BLAS threads, which
# only add scheduling noise on a small machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0, help="host seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report(run, metrics, trace: bool) -> None:
    from perfbench.bench import quartiles

    for index, cycle in enumerate(run.cycles):
        print(
            f"cycle {index} {'traced' if cycle.traced else 'untraced'}: "
            f"{len(cycle.reps)} simulations, {cycle.jobs} jobs, "
            f"setup {sum(r.setup_s for r in cycle.reps):.3f} s, sim {cycle.sim_s:.3f} s, "
            f"{cycle.raw_jobs_per_s:.2f} jobs/s raw, {cycle.jobs_per_s:.2f} calibrated, "
            f"{sum(r.events for r in cycle.reps)} events"
        )
    for kind in (False, True) if trace else (False,):
        rates = [c.jobs_per_s for c in run.of_kind(kind)]
        if rates:
            q1, q2, q3 = quartiles(rates)
            print(
                f"{'traced' if kind else 'untraced'} calibrated jobs/s over {len(rates)} "
                f"cycles: median {q2:.2f}, quartiles {q1:.2f}-{q3:.2f}, "
                f"range {min(rates):.2f}-{max(rates):.2f}"
            )
    if run.cycles:
        print(f"simulated average JCT {run.cycles[0].avg_jct!r} s over {run.cycles[0].jobs} jobs")
    print(f"jct digest {run.workload} seed {run.seed}: sha256 {run.digest}")
    for problem in run.problems:
        print(f"PROBLEM: {problem}")
    if trace and metrics:
        wall = sum(v for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 1)
        wall += metrics["engine.unattributed_s"]
        print("layer self time (median traced simulation):")
        for key in sorted(metrics, key=lambda k: -metrics[k] if k.endswith("self_s") else 0):
            if key.endswith(".self_s") and key.count(".") == 1:
                print(f"  {key:<24} {metrics[key]:9.4f} s  {100 * metrics[key] / wall:5.1f}%")
        print(f"  {'unattributed':<24} {metrics['engine.unattributed_s']:9.4f} s")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    run = bench.measure(args.workload, args.seed, args.seconds, trace)
    metrics = {}
    if run.correct:
        if trace:
            metrics = bench.per_layer(run)
        else:
            metrics = bench.end_to_end(run, bench.import_seconds(ROOT / "src"))
        if trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            last = run.of_kind(True)[-1]
            last.tracer.write_spans(out_dir / f"{args.workload}-seed{args.seed}-spans.tsv")
    _report(run, metrics, trace)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": bench.UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
