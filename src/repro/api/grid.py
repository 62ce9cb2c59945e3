"""Grid execution: fan a base spec out over override axes, in parallel.

:func:`run_grid` is the only sweep: schedulers, workload types, job
counts, scheduler options, arrival rates, decision latencies, placement
policies and shard counts are all dotted-path axes of one base
:class:`~repro.api.spec.ScenarioSpec` (``{"workload.arrival_rate": [0.5,
0.9], "scheduler.name": ["fcfs", "sjf"]}``), which expand into the
cartesian product of scenarios.  The cells fan out over worker processes,
or run in order in this one with ``processes=1``, as the figure drivers in
:mod:`repro.experiments` run them.  Each process builds the expensive
offline artifacts (priors, profiler, sizings) once per input, in the memo
of :mod:`repro.api.prep`.
"""

from __future__ import annotations

import itertools
import multiprocessing
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.dispatch import run
from repro.api.results import Result
from repro.api.spec import ScenarioSpec, with_overrides

__all__ = ["expand_axes", "run_grid"]

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
def _run_cell(item: Tuple[ScenarioSpec, Optional[str]]) -> Result:
    """Picklable worker: run one cell, recording it when a store root is given.

    The store travels as its root *path* (each worker re-opens it), and the
    store's atomic record writes + ``O_APPEND`` journal make concurrent
    ingestion from many workers safe without any cross-process lock.
    """
    spec, store_root = item
    result = run(spec)
    if store_root is not None:
        from repro.store import RunStore  # lazy: repro.store imports api.spec

        RunStore(store_root).add_result(result)
    return result


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
    yields fair comparisons along the others.

    ``processes=1`` runs the cells in order in this process, so they share
    its memo and each times nothing but itself (see :func:`_map_cells`).
    ``store`` (a :class:`repro.store.RunStore` or its root path) records
    each cell's :class:`Result` from the worker that ran it.
    """
    cells = expand_axes(base_spec, axes)
    root = _store_root(store)
    results = _map_cells(_run_cell, [(spec, root) for _, spec in cells], processes)
    return [(overrides, result) for (overrides, _), result in zip(cells, results, strict=True)]
