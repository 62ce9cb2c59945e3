"""SLO-aware serving scheduler: EDF admission + deadline-driven preemption.

The baselines optimise job completion time; a serving fleet optimises
*goodput* — the fraction of requests that meet their tier's latency SLOs
(TTFT for responsiveness, TPOT for stream smoothness).  This scheduler
works the token model end to end:

* **EDF ordering** — schedulable tasks are ranked by their TTFT deadline
  (``ready_time + tier ttft target``), so requests closest to blowing
  their first-token budget are admitted first.  Tasks outside the token
  model (or in a tier without a TTFT target) sort last, by arrival.
  Requests whose deadline already passed before their first token are
  *doomed* — no decision can recover their SLO — and demote behind every
  still-feasible request, cutting EDF's classic overload domino effect
  (doomed work starving work that could still meet its target).
* **TPOT admission control** — decode throughput per request degrades
  with batch size (``speed(b) = 1 / (1 + slope * (b - 1))``), so packing
  executors violates TPOT exactly when the cluster is busiest.  Each pass
  caps newly admitted LLM work so the projected mean batch stays within
  the tightest admitted tier's sustainable batch
  ``b_max = 1 + (tpot_target / per_token_work - 1) / slope``.
* **Deadline-driven preemption** — when an admissible task cannot be
  placed and its deadline is at risk, the running task with the most SLO
  slack is checkpoint-preempted (progress conserved, PR 2 machinery), so
  tight-deadline work displaces loose-deadline work and nothing is lost.
* **Disaggregation handoff** — on clusters with prefill/decode-role pools
  (``PoolSpec.role``), a request that finishes its prefill phase on a
  prefill-role executor is checkpoint-preempted so the
  ``prefill_decode`` placement policy can re-land it on a decode pool,
  keeping prefill capacity free for new-request admission.

A request's SLO terms (TTFT deadline, job arrival time, TPOT batch cap) are
fixed once it is ready, so each is priced once, by ``_deadline`` and
``_batch_cap``, and kept as floats in one memo keyed by task ``uid``, which
snapshot copies share.  Only ready tasks of a job the context knows are
kept, and doom, which moves with the clock, never is.  Entries go when their
job completes; a job that migrates off a shard and completes elsewhere
leaves its entries there until the run ends, a residue bounded by the run's
migrations.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from repro.dag.job import Job
from repro.dag.task import Task, TaskType
from repro.schedulers.base import (
    PreemptionDirective,
    Scheduler,
    SchedulingContext,
    SchedulingDecision,
)
from repro.utils.validation import require_int, require_real
from repro.workloads.serving import DEFAULT_SLO_TARGETS

__all__ = ["SloServingScheduler"]

#: Deadline assigned to work outside the SLO model: sorts after every
#: real deadline but stays finite so comparisons never hit inf-inf.
_NO_DEADLINE = 1e18


class SloServingScheduler(Scheduler):
    """Earliest-TTFT-deadline-first with TPOT admission and SLO preemption.

    Parameters
    ----------
    slo_targets:
        Per-tier targets ``{tier: {"ttft": s, "tpot": s}}``; defaults to
        :data:`~repro.workloads.serving.DEFAULT_SLO_TARGETS`.  The spec
        layer injects a scenario's ``SLOSection`` here.
    latency_slope:
        Slope of the decode latency profile (matches
        :class:`~repro.simulator.latency.DecodingLatencyProfile`), used by
        the TPOT admission cap.
    slack_margin:
        A blocked task only triggers preemption when its deadline is
        within ``slack_margin`` seconds; the victim must hold at least
        ``slack_margin`` more slack than the blocked task, so swaps only
        happen when they actually flip an SLO outcome.
    max_preemptions_per_event:
        Safety valve bounding churn per scheduling point.
    min_victim_remaining:
        Tasks within this many seconds of finishing are never preempted
        (their slot frees at the next completion event anyway).
    """

    name = "slo_serving"
    preemptive = True

    def __init__(
        self,
        slo_targets: Optional[Mapping[str, Mapping[str, float]]] = None,
        latency_slope: float = 0.06,
        slack_margin: float = 1.0,
        max_preemptions_per_event: int = 8,
        min_victim_remaining: float = 1e-6,
    ) -> None:
        self._slope = require_real(latency_slope, "latency_slope", 0.0)
        self._slack_margin = require_real(slack_margin, "slack_margin", 0.0)
        self._max_preemptions = require_int(
            max_preemptions_per_event, "max_preemptions_per_event", 1
        )
        self._min_victim_remaining = require_real(
            min_victim_remaining, "min_victim_remaining", 0.0
        )
        targets = slo_targets if slo_targets is not None else DEFAULT_SLO_TARGETS
        self._targets: Dict[str, Dict[str, float]] = {
            tier: dict(values) for tier, values in targets.items()
        }
        #: Task uid -> (deadline, job arrival time, batch cap); see _terms.
        self._memo: Dict[int, Tuple[float, float, float]] = {}

    # ------------------------------------------------------------------ #
    # SLO bookkeeping
    # ------------------------------------------------------------------ #
    def _tier_of(self, context: SchedulingContext, task: Task) -> str:
        try:
            return context.job_of(task).priority
        except KeyError:
            return "default"

    def _tier_targets(self, tier: str) -> Mapping[str, float]:
        targets = self._targets.get(tier)
        if targets is None:
            targets = self._targets.get("default", {})
        return targets

    def _deadline(self, context: SchedulingContext, task: Task) -> float:
        """Absolute TTFT deadline of ``task`` (``_NO_DEADLINE`` if none)."""
        ttft = self._tier_targets(self._tier_of(context, task)).get("ttft")
        if ttft is None or not task.has_token_model:
            return _NO_DEADLINE
        ready = task.ready_time
        if ready is None:
            ready = context.time
        return ready + float(ttft)

    def _batch_cap(self, context: SchedulingContext, task: Task) -> float:
        """Largest batch under which ``task`` still meets its TPOT target.

        A request whose per-token work already exceeds its target at batch
        1 is hopeless — no admission decision can save it, so it must not
        constrain the batch for everyone else; it reports ``inf`` (and
        will be metered as an SLO miss regardless).
        """
        tpot = self._tier_targets(self._tier_of(context, task)).get("tpot")
        per_token = task.per_token_decode_work()
        if tpot is None or per_token is None or per_token <= 0:
            return math.inf
        if per_token >= float(tpot) or self._slope <= 0:
            return math.inf
        return 1.0 + (float(tpot) / per_token - 1.0) / self._slope

    def _terms(self, context: SchedulingContext, task: Task) -> Tuple[float, float, float]:
        """``(deadline, job arrival time, batch cap)`` of ``task``, from the memo.

        A miss prices the task with :meth:`_deadline` and :meth:`_batch_cap`
        and keeps the result only when the task is ready and ``context``
        knows its job; a task without a job sorts after its deadline peers.
        """
        terms = self._memo.get(task.uid)
        if terms is not None:
            return terms
        try:
            job: Optional[Job] = context.job_of(task)
        except KeyError:
            job = None
        terms = (
            self._deadline(context, task),
            math.inf if job is None else job.arrival_time,
            self._batch_cap(context, task),
        )
        if job is not None and task.ready_time is not None:
            self._memo[task.uid] = terms
        return terms

    def on_job_complete(self, job: Job, time: float) -> None:
        for stage in job.stages.values():
            for task in stage.tasks:
                self._memo.pop(task.uid, None)

    @staticmethod
    def _is_doomed(task: Task, deadline: float, now: float) -> bool:
        """True when the TTFT race is already lost: even started right now,
        the remaining prefill work cannot emit the first token before the
        deadline.  No scheduling decision can recover such a request's SLO,
        so it must never displace or constrain still-feasible work — EDF
        without this pruning melts down under overload, pouring capacity
        into requests that expire mid-prefill (the classic domino effect).
        The remaining-prefill bound is optimistic (batch-1 speed), which is
        exactly right: anything it writes off is unsalvageable under every
        policy.  A request that already streamed its first token is *not*
        doomed — its TTFT is banked and prioritising its decode protects
        goodput already paid for."""
        if task.first_token_time is not None:
            return False
        prefill_left = max(0.0, task.remaining_work - task.decode_work)
        return deadline < now + prefill_left

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, context: SchedulingContext) -> SchedulingDecision:
        now = context.time

        def sort_key(t: Task) -> Tuple[bool, float, float, str, int]:
            deadline, arrival, _ = self._terms(context, t)
            return (self._is_doomed(t, deadline, now), deadline, arrival, t.job_id, t.uid)

        ordered = sorted(context.schedulable_tasks(), key=sort_key)
        regular = [t for t in ordered if t.task_type is TaskType.REGULAR]
        llm = [t for t in ordered if t.task_type is TaskType.LLM]
        admitted_llm = self._admit_llm(context, llm)
        decision = SchedulingDecision(regular_tasks=regular, llm_tasks=admitted_llm)
        preemptions = self._plan_preemptions(context, decision)
        if preemptions:
            decision.preemptions = preemptions
        return decision

    def _admit_llm(self, context: SchedulingContext, llm: List[Task]) -> List[Task]:
        """Filter the EDF list so projected batches respect TPOT caps.

        The cap is aggregate (the scheduler ranks, pools place): admitting
        ``k`` more requests onto ``n`` LLM executors carrying ``r`` running
        requests projects a mean batch of ``(r + k) / n``, which must stay
        within the tightest batch cap among the in-flight token streams.
        The cap protects streams already running — near-certain goodput
        already paid for — from being degraded below their TPOT targets
        by new admissions; a candidate whose own cap is tight is its own
        gamble (it may blow its TPOT in a big batch, but that risks only
        itself) and is never deferred on its own account.

        Deferral is a trade, and the gate prices it per pass: protecting
        ``V`` at-risk streams by deferring ``D`` admissible candidates
        jeopardizes up to ``D`` TTFTs to save up to ``V`` TPOTs, so the
        cap only engages for feasible candidates when ``V >= D``.  Under
        sustained overload the queue is deep (``D`` large) and the gate
        stands down — parking the queue to save one stream forfeits far
        more goodput than it protects, and an EDF-ordered greedy admission
        is the best play.  Each deferral is additionally bounded by the
        request's own TTFT slack: once its deadline is within
        ``slack_margin`` the request is admitted unconditionally, since
        placed now it can still meet TTFT, whereas parking it until the
        deadline passes would forfeit both targets.

        Doomed candidates (deadline already missed, see
        :meth:`_is_doomed`) price differently: their TTFT is forfeit
        whatever happens, so deferring them is free and they are held
        back whenever the projected batch would exceed the cap — they
        drain only into capacity the feasible work leaves behind.
        """
        if not llm:
            return llm
        num_executors = len(context.llm_batch_sizes)
        if num_executors == 0:
            return llm
        cap = math.inf
        running_caps: List[float] = []
        for running in context.running_tasks():
            if running.task_type is TaskType.LLM and running.has_token_model:
                running_caps.append(self._terms(context, running)[2])
                cap = min(cap, running_caps[-1])
        load = float(sum(context.llm_batch_sizes))
        projected_full = (load + len(llm)) / num_executors
        if projected_full <= cap:
            return llm  # nothing at risk even admitting everything
        now = context.time
        candidates: List[Tuple[Task, float, bool]] = []
        for task in llm:
            deadline = self._terms(context, task)[0]
            candidates.append(
                (task, deadline - now, self._is_doomed(task, deadline, now))
            )
        protected = sum(1 for c in running_caps if c < projected_full)
        deferrable = sum(
            1 for _, slack, doomed in candidates
            if not doomed and slack > self._slack_margin
        )
        defer_feasible = protected >= deferrable
        admitted: List[Task] = []
        for task, slack, doomed in candidates:
            projected = (load + len(admitted) + 1) / num_executors
            if projected > cap:
                if doomed:
                    continue  # free deferral: its TTFT is lost either way
                if defer_feasible and slack > self._slack_margin:
                    continue  # defer: keeps in-flight streams within their caps
            admitted.append(task)
            # Admitted => effectively running: its cap now guards later admits.
            cap = min(cap, self._terms(context, task)[2])
        return admitted

    # ------------------------------------------------------------------ #
    # Preemption
    # ------------------------------------------------------------------ #
    def _plan_preemptions(
        self, context: SchedulingContext, decision: SchedulingDecision
    ) -> List[PreemptionDirective]:
        budget = self._max_preemptions
        directives: List[PreemptionDirective] = []
        claimed: set = set()

        # Disaggregation handoff first: prefill-complete requests squatting
        # on prefill-role executors block new-request admission, and their
        # checkpoint preemption costs nothing (progress conserved, decode
        # resumes on a decode pool via the prefill_decode placement).
        roles = context.executor_roles
        if roles:
            for task in context.running_tasks():
                if budget <= 0:
                    break
                if (
                    task.task_type is TaskType.LLM
                    and task.has_token_model
                    and task.prefill_done
                    and task.executor_id is not None
                    and roles.get(task.executor_id) == "prefill"
                    and task.executor_id not in context.inactive_executor_ids
                    and task.remaining_work > self._min_victim_remaining
                ):
                    claimed.add(task.uid)
                    directives.append(PreemptionDirective(task=task, checkpoint=True))
                    budget -= 1

        # Deadline-driven preemption: blocked near-deadline tasks displace
        # the running task with the most SLO slack, checkpointed so the
        # victim only pays the requeue.
        blocked = [
            (task, self._terms(context, task)[0])
            for task_list, free in (
                (decision.regular_tasks, context.free_regular_slots),
                (decision.llm_tasks, context.free_llm_slots),
            )
            for task in task_list[free:]
        ]
        blocked = [
            (t, d)
            for t, d in blocked
            # Doomed work (deadline unreachable) earns nothing by displacing
            # a running task, so only still-winnable deadlines preempt.
            if d - context.time <= self._slack_margin
            and not self._is_doomed(t, d, context.time)
        ]
        if not blocked or budget <= 0:
            return directives
        victims = self._victim_pool(context, claimed)
        for task, deadline in sorted(blocked, key=lambda pair: pair[1]):
            if budget <= 0:
                break
            victim = self._pick_victim(victims, claimed, task, deadline)
            if victim is None:
                continue
            claimed.add(victim.uid)
            directives.append(PreemptionDirective(task=victim, checkpoint=True))
            budget -= 1
        return directives

    def _victim_pool(
        self, context: SchedulingContext, claimed: set
    ) -> List[Tuple[Task, float]]:
        """Running tasks paired with their deadlines, loosest-slack first."""
        inactive = context.inactive_executor_ids
        pool = [
            (task, self._terms(context, task)[0])
            for task in context.running_tasks()
            if task.uid not in claimed
            and task.remaining_work > self._min_victim_remaining
            and (task.executor_id is None or task.executor_id not in inactive)
        ]
        pool.sort(key=lambda pair: (-pair[1], pair[0].job_id, pair[0].uid))
        return pool

    def _pick_victim(
        self,
        victims: List[Tuple[Task, float]],
        claimed: set,
        blocked: Task,
        blocked_deadline: float,
    ) -> Optional[Task]:
        for victim, victim_deadline in victims:
            if victim.task_type is not blocked.task_type:
                continue
            if victim_deadline <= blocked_deadline + self._slack_margin:
                return None  # sorted loosest-first: nothing further qualifies
            if victim.uid in claimed or victim.job_id == blocked.job_id:
                continue
            return victim
        return None
