"""The ready index: which active jobs have work a free slot could take.

FCFS-style dispatch only needs, per task type, the active jobs holding at
least one pending task of that type in a schedulable stage, in arrival
order.  Deriving that list from every active job at every scheduling point
costs O(backlog) per event.  :class:`ReadyIndex` keeps it sorted instead:
the engine touches a job at each site that can change its schedulable set,
and the index re-files only the touched jobs, the next time it is read.

:func:`ready_jobs_of` derives the same sequence from a plain job list.
Bare contexts, snapshots and the reference engine use it, and the tests use
it as the index's oracle.  Like the COW tracker, this module knows nothing
about ``SchedulingContext``; the context only holds a reference to the
engine's index.

The index also stamps each active job with a *version*: a fresh value of
one process-wide counter at every touch, and at every task completion the
engine reports through :meth:`ReadyIndex.stamp`.  A job's version is
unchanged exactly while none of those events hit it, so a scheduler may
reuse anything it derived from the job's completed work (LLMSched's
posterior estimate) until the version moves.  Values are never reused, so
a job that leaves one engine and returns, or the same job id in another
run, never matches an old stamp.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.dag.job import Job
from repro.dag.task import TaskType

__all__ = ["ReadyIndex", "ready_jobs_of"]

#: The process-wide source of job versions (see the module docstring).
_STAMPS = itertools.count(1)


def _order(job: Job) -> Tuple[float, str]:
    return (job.arrival_time, job.job_id)


def ready_jobs_of(jobs: Iterable[Job], task_type: TaskType) -> List[Job]:
    """Jobs with a pending ``task_type`` task in a schedulable stage.

    Sorted by ``(arrival_time, job_id)``; the oracle for :class:`ReadyIndex`.
    """
    llm = task_type is TaskType.LLM
    return sorted(
        (job for job in jobs if any(s.is_llm is llm for s in job.schedulable_stages())),
        key=_order,
    )


class ReadyIndex:
    """Per task type, the active jobs with ready work, sorted by arrival.

    ``active`` is the owner's live job-id -> job map.  Re-filing is
    deferred to the next read, so a run whose scheduler never reads the
    index pays one dict write per change, and several changes to one job
    between two reads cost one re-file.
    """

    def __init__(self, active: Mapping[str, Job]) -> None:
        self._active = active
        self._touched: Dict[str, Job] = {}
        self._jobs: Dict[TaskType, List[Job]] = {t: [] for t in TaskType}
        self._filed: Dict[TaskType, Set[str]] = {t: set() for t in TaskType}
        self._versions: Dict[str, int] = {}

    def jobs(self, task_type: TaskType) -> Sequence[Job]:
        """The indexed jobs of one type (read-only; valid until the next change)."""
        if self._touched:
            for job in self._touched.values():
                self._refile(job, self._active.get(job.job_id) is job)
            self._touched.clear()
        return self._jobs[task_type]

    def touch(self, job: Job) -> None:
        """Note that ``job``'s schedulable set or activity may have changed."""
        self._touched[job.job_id] = job
        self._versions[job.job_id] = next(_STAMPS)

    def stamp(self, job: Job) -> None:
        """Give ``job`` a new version without re-filing it (a task finished)."""
        self._versions[job.job_id] = next(_STAMPS)

    def version(self, job: Job) -> Optional[int]:
        """``job``'s current version; ``None`` once it left (or never touched)."""
        return self._versions.get(job.job_id)

    def discard(self, job: Job) -> None:
        """Drop a job that left the active set, at once (bounds memory)."""
        self._touched.pop(job.job_id, None)
        self._versions.pop(job.job_id, None)
        self._refile(job, False)

    def _refile(self, job: Job, active: bool) -> None:
        has_llm = has_regular = False
        if active:
            for stage in job.schedulable_stages():
                if stage.is_llm:
                    has_llm = True
                else:
                    has_regular = True
        self._file(job, TaskType.REGULAR, has_regular)
        self._file(job, TaskType.LLM, has_llm)

    def _file(self, job: Job, task_type: TaskType, ready: bool) -> None:
        filed = self._filed[task_type]
        if (job.job_id in filed) == ready:
            return
        jobs = self._jobs[task_type]
        index = bisect_left(jobs, _order(job), key=_order)
        if ready:
            filed.add(job.job_id)
            jobs.insert(index, job)
        else:
            filed.remove(job.job_id)
            del jobs[index]
