"""Runtime jobs: DAG instances of compound LLM applications."""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

from repro.dag.stage import Stage, StageState
from repro.dag.task import Task
from repro.utils.graph import DiGraph

__all__ = ["Job"]


class Job:
    """A runtime instance of a compound LLM application.

    The job owns the ground-truth structure (every stage that *could* run,
    including padded chain iterations and unselected dynamic candidates) and
    exposes a partially-revealed view to schedulers: only ``visible`` stages,
    and only observed durations.

    Lifecycle driven by the simulator:

    1. ``finalize()`` freezes the structure and runs the full pass,
       ``advance(time)``: it walks every stage to a fixpoint, promoting
       stages whose dependencies completed, auto-skipping stages that will
       not execute, auto-finishing empty placeholder stages and revealing
       stages unlocked by a completed planner, then counts the stages still
       incomplete.
    2. ``notify_stage_finished(stage_id, time)`` is called by the simulator
       when the last task of a stage completes.  It settles the completion
       locally: a worklist visits only the finished stage, the stages it
       reveals and its successors, applies the same transitions, and
       decrements the incomplete count for every stage it completes.  The
       job finishes when that count reaches zero.  With structure caching
       off it runs the full pass instead (the seed cost model).

    Each stage keeps its own pending tasks at every task transition (see
    :meth:`Stage.pending_tasks`), so no step rescans task states.
    """

    def __init__(self, job_id: str, application: str, arrival_time: float) -> None:
        if arrival_time < 0:
            raise ValueError("arrival_time must be >= 0")
        self.job_id = job_id
        self.application = application
        self.arrival_time = float(arrival_time)
        self.finish_time: Optional[float] = None
        #: SLO tier of every request in this job ("default" unless a serving
        #: workload assigns one); looked up against SLOSection targets.
        self.priority: str = "default"

        self._stages: Dict[str, Stage] = {}
        self._graph = DiGraph()
        # trigger stage id -> stage ids that become visible when it completes
        self._reveals: Dict[str, List[str]] = {}
        self._finalized = False
        # Structure caches: the DAG is frozen at finalize(), so the
        # topological order and depth table are computed at most once.
        self._caching = True
        self._topo_cache: Optional[List[str]] = None
        self._depth_cache: Optional[Dict[str, int]] = None
        # Schedulable-stage cache: invalidated by advance() and by the
        # simulator whenever it places tasks (see invalidate_schedulable_cache).
        self._sched_cache: Optional[List[Stage]] = None
        # Stage id -> insertion index, built on first use (see stage_position).
        self._positions: Optional[Dict[str, int]] = None
        # Stages neither finished nor skipped: set by advance(), decremented
        # by notify_stage_finished(); the job finishes when it reaches 0.
        self._incomplete = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_stage(self, stage: Stage) -> None:
        self._require_not_finalized()
        if stage.stage_id in self._stages:
            raise ValueError(f"duplicate stage id {stage.stage_id!r} in job {self.job_id}")
        if stage.job_id != self.job_id:
            raise ValueError(
                f"stage {stage.stage_id!r} belongs to job {stage.job_id!r}, not {self.job_id!r}"
            )
        self._stages[stage.stage_id] = stage
        self._graph.add_node(stage.stage_id)
        self._topo_cache = None
        self._depth_cache = None

    def add_dependency(self, parent_id: str, child_id: str) -> None:
        self._require_not_finalized()
        for stage_id in (parent_id, child_id):
            if stage_id not in self._stages:
                raise ValueError(f"unknown stage {stage_id!r} in job {self.job_id}")
        try:
            self._graph.add_edge(parent_id, child_id)
        except ValueError:
            raise ValueError(
                f"dependency {parent_id!r} -> {child_id!r} would create a cycle"
            ) from None
        self._topo_cache = None
        self._depth_cache = None

    def add_reveal(self, trigger_stage_id: str, revealed_stage_id: str) -> None:
        """Declare that completing ``trigger`` makes ``revealed`` visible."""
        self._require_not_finalized()
        for stage_id in (trigger_stage_id, revealed_stage_id):
            if stage_id not in self._stages:
                raise ValueError(f"unknown stage {stage_id!r} in job {self.job_id}")
        self._reveals.setdefault(trigger_stage_id, []).append(revealed_stage_id)

    def finalize(self) -> None:
        """Freeze the structure and set the initial stage states."""
        self._require_not_finalized()
        if not self._stages:
            raise ValueError(f"job {self.job_id} has no stages")
        self._finalized = True
        self.advance(self.arrival_time)

    def _require_not_finalized(self) -> None:
        if self._finalized:
            raise RuntimeError(f"job {self.job_id} is already finalized")

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError(f"job {self.job_id} is not finalized yet")

    # ------------------------------------------------------------------ #
    # Structure accessors
    # ------------------------------------------------------------------ #
    @property
    def stages(self) -> Dict[str, Stage]:
        return dict(self._stages)

    def stage(self, stage_id: str) -> Stage:
        return self._stages[stage_id]

    def stage_position(self, stage_id: str) -> int:
        """Index of ``stage_id`` in the insertion order of :attr:`stages`.

        The stage set is frozen at :meth:`finalize`, so the table is built
        once, at the first call, and shared with later snapshot clones.
        """
        if self._positions is None:
            self._require_finalized()
            self._positions = {sid: i for i, sid in enumerate(self._stages)}
        return self._positions[stage_id]

    def parents(self, stage_id: str) -> List[str]:
        return sorted(self._graph.predecessors(stage_id))

    def children(self, stage_id: str) -> List[str]:
        return sorted(self._graph.successors(stage_id))

    def edges(self) -> List[Tuple[str, str]]:
        return self._graph.edges()

    def topological_order(self) -> List[str]:
        if self._topo_cache is None:
            order = self._graph.topological_order()
            if not self._caching:
                return order
            self._topo_cache = order
        return list(self._topo_cache)

    def stage_depth(self, stage_id: str) -> int:
        """Length of the longest path from any root to the stage (roots = 0)."""
        if self._depth_cache is None:
            order = self.topological_order()
            depth = {sid: 0 for sid in order}
            for sid in order:
                for child in self._graph.successors(sid):
                    depth[child] = max(depth[child], depth[sid] + 1)
            if not self._caching:
                return depth[stage_id]
            self._depth_cache = depth
        return self._depth_cache[stage_id]

    def set_structure_caching(self, enabled: bool) -> None:
        """Toggle the topology / schedulable-stage caches and the worklist settle.

        Both are on by default and are semantically transparent; off, every
        stage completion runs the full pass.  The only reason to disable
        them is to reproduce the seed cost model when benchmarking the fast
        engine against the reference engine.
        """
        self._caching = bool(enabled)
        self._topo_cache = None
        self._depth_cache = None
        self._sched_cache = None

    # ------------------------------------------------------------------ #
    # Scheduler-facing views
    # ------------------------------------------------------------------ #
    def schedulable_stages(self) -> List[Stage]:
        """Visible stages that are ready/running and still have pending tasks.

        The result is cached between DAG state changes; every path that can
        change the schedulable set (``advance`` and task placement by the
        simulator) invalidates the cache, so the returned list is always
        current.  Treat it as read-only: it may be the cache itself.
        """
        cache = self._sched_cache
        if cache is not None:
            return cache
        self._require_finalized()
        stages = [
            s
            for s in self._stages.values()
            if s.visible
            and s.state in (StageState.READY, StageState.RUNNING)
            and s.pending_tasks()
        ]
        if self._caching:
            self._sched_cache = stages
        return stages

    def invalidate_schedulable_cache(self) -> None:
        """Drop the cached schedulable-stage set (after task placement)."""
        self._sched_cache = None

    def schedulable_tasks(self) -> List[Task]:
        return [t for s in self.schedulable_stages() for t in s.pending_tasks()]

    def unfinished_stages(self) -> List[Stage]:
        return [s for s in self._stages.values() if not s.is_complete]

    def observed_durations(self) -> Dict[str, float]:
        """profile_key -> observed duration for every completed visible stage.

        This is the evidence set fed to the Bayesian profiler (completed
        stages only; skipped stages report 0).
        """
        observations: Dict[str, float] = {}
        for stage in self._stages.values():
            duration = stage.executed_duration
            if duration is not None and stage.visible:
                observations[stage.profile_key] = duration
        return observations

    # ------------------------------------------------------------------ #
    # Ground-truth accessors (simulator / oracle use only)
    # ------------------------------------------------------------------ #
    @property
    def true_total_work(self) -> float:
        return sum(s.duration for s in self._stages.values())

    def true_remaining_work(self) -> float:
        total = 0.0
        for stage in self._stages.values():
            if not stage.will_execute or stage.is_complete:
                continue
            total += sum(t.remaining_work for t in stage.tasks)
        return total

    # ------------------------------------------------------------------ #
    # Progress
    # ------------------------------------------------------------------ #
    @property
    def is_finished(self) -> bool:
        return self.finish_time is not None

    @property
    def jct(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def notify_stage_finished(self, stage_id: str, time: float) -> List[str]:
        """Record that all tasks of ``stage_id`` completed at ``time``.

        Returns the ids of stages whose state changed as a consequence
        (newly ready, skipped, revealed or auto-finished placeholders).
        Only the finished stage, the stages it reveals and its successors
        are visited, cascading through the stages completed on the way;
        the states reached, and the set of ids returned, are those of the
        full pass (:meth:`advance`), which structure caching off still runs.
        Raises if the stage is already finished or skipped.
        """
        self._require_finalized()
        stage = self._stages[stage_id]
        if stage.is_complete:
            raise RuntimeError(f"stage {stage_id!r} of job {self.job_id} is already complete")
        stage.mark_finished(time)
        if not self._caching:
            return self.advance(time)
        self._sched_cache = None
        self._incomplete -= 1
        changed: List[str] = []
        worklist = [stage]
        while worklist:
            done = worklist.pop()
            for revealed_id in self._reveals.pop(done.stage_id, ()):
                revealed = self._stages[revealed_id]
                if not revealed.visible:
                    revealed.visible = True
                    changed.append(revealed_id)
            for child_id in self._graph.successors(done.stage_id):
                child = self._stages[child_id]
                if child.state is not StageState.BLOCKED or not all(
                    self._stages[p].is_complete for p in self._graph.predecessors(child_id)
                ):
                    continue
                child.mark_ready(time)
                changed.append(child_id)
                if not child.will_execute:
                    child.mark_skipped(time)
                elif not child.tasks:
                    child.mark_finished(time)  # empty placeholder
                else:
                    continue
                self._incomplete -= 1
                worklist.append(child)
        if self.finish_time is None and self._incomplete == 0:
            self.finish_time = float(time)
        return changed

    def advance(self, time: float) -> List[str]:
        """Propagate completions through the DAG until a fixpoint.

        Promotes blocked stages whose parents completed, reveals stages whose
        trigger completed, skips stages that will not execute, finishes empty
        placeholder stages, and records the job finish time when everything
        is complete.  This full pass walks every stage; it also recounts the
        incomplete stages that :meth:`notify_stage_finished` decrements.
        """
        if not self._finalized:
            raise RuntimeError(f"job {self.job_id} is not finalized yet")
        self._sched_cache = None
        changed: List[str] = []
        progressed = True
        while progressed:
            progressed = False
            for stage in self._stages.values():
                if stage.is_complete and stage.stage_id in self._reveals:
                    for revealed_id in self._reveals.pop(stage.stage_id):
                        revealed = self._stages[revealed_id]
                        if not revealed.visible:
                            revealed.visible = True
                            changed.append(revealed_id)
                            progressed = True
                if stage.state is StageState.BLOCKED:
                    if all(self._stages[p].is_complete for p in self._graph.predecessors(stage.stage_id)):
                        stage.mark_ready(time)
                        changed.append(stage.stage_id)
                        progressed = True
                if stage.state is StageState.READY:
                    if not stage.will_execute:
                        stage.mark_skipped(time)
                        changed.append(stage.stage_id)
                        progressed = True
                    elif not stage.tasks:
                        # Placeholder (e.g. dynamic stage wrapper) with no work.
                        stage.mark_finished(time)
                        changed.append(stage.stage_id)
                        progressed = True
        self._incomplete = sum(not s.is_complete for s in self._stages.values())
        if self.finish_time is None and self._incomplete == 0:
            self.finish_time = float(time)
        return changed

    def snapshot_clone(self) -> "Job":
        """A structural copy for copy-on-write snapshot views.

        Requires a finalized job: the dependency graph and the topology /
        depth caches are frozen at :meth:`finalize` and therefore *shared*
        with the clone (this is what makes the clone cheaper than
        ``copy.deepcopy(job)``, which copies them too).  Mutable
        runtime state is copied: stages (with their tasks and pending
        lists), the pending reveal map, the incomplete count and the job
        finish time.  The schedulable-stage cache is dropped because it
        holds references to this job's live stages.
        """
        self._require_finalized()
        clone = copy.copy(self)
        clone._stages = {
            stage_id: stage.snapshot_clone() for stage_id, stage in self._stages.items()
        }
        clone._reveals = {trigger: list(ids) for trigger, ids in self._reveals.items()}
        clone._sched_cache = None
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.job_id}, app={self.application}, stages={len(self._stages)}, "
            f"arrived={self.arrival_time:.2f}, finished={self.finish_time})"
        )
