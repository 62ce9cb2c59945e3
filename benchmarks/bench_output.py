"""Machine-readable benchmark results: BENCH_<PR>.json.

Benchmarks print human-readable evidence with ``-s``; this module
additionally persists the numbers so performance is tracked across PRs.
Each benchmark records named sections into its BENCH file (``BENCH_2.json``
unless it names another).  The files land in the directory named by the
``BENCH_OUTPUT`` environment variable, by default the git-ignored
``bench-out/`` in the repo root, so a test run never rewrites the committed
``BENCH_*.json`` artifacts; copy a fresh file over a committed one to
publish it.  CI uploads the directory as a workflow artifact and the
regression gate (``benchmarks/check_regression.py --current-dir``) compares
smoke-scale regenerations against ``benchmarks/baselines/``.

Benchmarks that run through :func:`repro.api.run` should persist
:class:`repro.api.Result` objects via :func:`record_results` instead of
hand-picking metric fields: ``Result.to_dict()`` is the one schema the
CLI ``--output``, the BENCH files and the regression gate all consume.

The files enter the content-addressed run store (:mod:`repro.store`), from
which BENCH artifacts and README tables regenerate, through ``python -m
repro store ingest <store> bench-out/BENCH_*.json``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Mapping

__all__ = ["record_bench_section", "record_results", "bench_output_path"]

_DEFAULT_FILENAME = "BENCH_2.json"
_DEFAULT_DIR = "bench-out"


def bench_output_path(filename: str = None) -> str:
    """``filename`` (default ``BENCH_2.json``) in the output directory, created on demand."""
    directory = os.environ.get("BENCH_OUTPUT")
    if not directory:
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        directory = os.path.join(repo_root, _DEFAULT_DIR)
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, filename or _DEFAULT_FILENAME)


def record_bench_section(
    section: str,
    payload: Dict[str, object],
    filename: str = None,
) -> str:
    """Merge ``payload`` under ``section`` in the benchmark results file.

    Read-modify-write keeps sections from independent benchmark runs; the
    scale tag records whether a section came from a smoke (CI) or full run.
    ``filename`` targets a different per-PR results file (e.g. the
    federation benchmark writes ``BENCH_3.json``) in the same output
    directory.
    """
    path = bench_output_path(filename)
    data: Dict[str, object] = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    enriched = dict(payload)
    enriched.setdefault("scale", os.environ.get("BENCH_SCALE", "full"))
    data[section] = enriched
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def record_results(
    section: str,
    results: Mapping[str, "object"],
    filename: str = None,
    extra: Dict[str, object] = None,
    include_spec: bool = False,
) -> str:
    """Persist a mapping of labelled :class:`repro.api.Result` objects.

    Each result is serialized through ``Result.to_dict()`` so the BENCH
    file carries the same metrics schema as the CLI and the regression
    gate; ``extra`` merges additional summary keys (degradation ratios,
    scaling factors) into the section and ``include_spec`` optionally
    keeps the resolved specs (off by default for lean artifacts).
    """
    payload: Dict[str, object] = {
        "results": {
            label: result.to_dict(include_spec=include_spec)
            for label, result in results.items()
        }
    }
    if extra:
        payload.update(extra)
    return record_bench_section(section, payload, filename=filename)
