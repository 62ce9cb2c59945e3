"""Grid execution: fan a base spec out over override axes, in parallel.

:func:`run_grid` expresses every sweep (arrival rates, decision latencies,
placement policies, shard counts) with one mechanism: a base
:class:`~repro.api.spec.ScenarioSpec` plus a mapping of dotted-path axes
(``{"workload.arrival_rate": [0.5, 0.9], "scheduler.name": ["fcfs",
"sjf"]}``) expands into the cartesian product of scenarios, which fan out
over worker processes.  Each worker process builds the expensive offline
artifacts (priors, profiler, sizings) once per input, in the memo of
:mod:`repro.api.prep`.
"""

from __future__ import annotations

import itertools
import multiprocessing
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.dispatch import run
from repro.api.results import Result
from repro.api.spec import ScenarioSpec, with_overrides

__all__ = ["expand_axes", "run_grid", "run_specs"]

GridRow = Tuple[Dict[str, object], Result]


def expand_axes(
    base_spec: ScenarioSpec, axes: Mapping[str, Sequence[object]]
) -> List[Tuple[Dict[str, object], ScenarioSpec]]:
    """Cartesian product of override axes, each cell a validated spec.

    Axis insertion order is significant: later axes vary fastest, so
    ``{"a": [1, 2], "b": [x, y]}`` expands to ``(1,x) (1,y) (2,x) (2,y)``.
    Expansion is eager on purpose — an invalid override value fails here,
    before any worker process is spawned.
    """
    if not axes:
        raise ValueError("run_grid needs at least one override axis")
    names = list(axes)
    for name, values in axes.items():
        if not list(values):
            raise ValueError(f"grid axis {name!r} must provide at least one value")
    cells: List[Tuple[Dict[str, object], ScenarioSpec]] = []
    for combo in itertools.product(*(axes[name] for name in names)):
        overrides = dict(zip(names, combo, strict=True))
        cells.append((overrides, with_overrides(base_spec, overrides)))
    return cells


# --------------------------------------------------------------------------- #
# Process fan-out
# --------------------------------------------------------------------------- #
def _run_spec_item(item: Tuple[ScenarioSpec, Optional[str]]) -> Result:
    """Picklable worker: run one cell, optionally recording into a store.

    The store travels as its root *path* (each worker re-opens it), and the
    store's atomic record writes + ``O_APPEND`` journal make concurrent
    ingestion from many workers safe without any cross-process lock.
    """
    spec, store_root = item
    return run(spec, store=store_root)


def _map_cells(worker: Callable, payload: Sequence, processes: Optional[int]) -> List:
    """Fan a picklable worker over payload items via worker processes.

    ``processes=None`` uses one worker per CPU (capped at the item count);
    ``processes=1`` runs serially in-process, which is also the fallback
    when the platform cannot fork/spawn workers.
    """
    if processes is None:
        processes = min(len(payload), multiprocessing.cpu_count())
    if processes <= 1:
        return [worker(item) for item in payload]
    try:
        with multiprocessing.Pool(processes=processes) as pool:
            return pool.map(worker, payload)
    except (OSError, PermissionError):  # pragma: no cover - sandboxed platforms
        return [worker(item) for item in payload]


def _store_root(store) -> Optional[str]:
    """Normalize a ``store=`` argument (RunStore or path) to a path string."""
    if store is None:
        return None
    root = getattr(store, "root", store)
    return str(root)


def run_specs(
    specs: Sequence[ScenarioSpec],
    processes: Optional[int] = None,
    *,
    store=None,
) -> List[Result]:
    """Run scenarios in order, fanned out over worker processes.

    ``store`` (a :class:`repro.store.RunStore` or path) records every cell's
    :class:`Result` from inside the worker that ran it — concurrent workers
    ingest safely via the store's atomic writes and append-only journal.
    """
    if not specs:
        return []
    root = _store_root(store)
    return _map_cells(_run_spec_item, [(spec, root) for spec in specs], processes)


def run_grid(
    base_spec: ScenarioSpec,
    axes: Mapping[str, Sequence[object]],
    processes: Optional[int] = None,
    *,
    store=None,
) -> List[GridRow]:
    """Run the cartesian product of override axes over ``base_spec``.

    Returns one ``(overrides, result)`` row per cell, in expansion order.
    Every cell is an independent simulation; cells sharing a workload
    section see the identical job draw, so grouping rows by any axis
    yields fair comparisons along the others.  ``store`` records each
    cell's Result as it completes (see :func:`run_specs`).
    """
    cells = expand_axes(base_spec, axes)
    results = run_specs([spec for _, spec in cells], processes=processes, store=store)
    return [(overrides, result) for (overrides, _), result in zip(cells, results, strict=True)]
