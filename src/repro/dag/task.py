"""Runtime tasks — the unit of work placed on executors."""

from __future__ import annotations

import bisect
import copy
import enum
import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from repro.utils.validation import require_non_negative

if TYPE_CHECKING:
    from repro.dag.stage import Stage

__all__ = ["TaskType", "TaskState", "Task"]

_task_counter = itertools.count()
_INDEX = attrgetter("index")


class TaskType(enum.Enum):
    """Whether a task needs a regular executor or an LLM executor."""

    REGULAR = "regular"
    LLM = "llm"


class TaskState(enum.Enum):
    """Lifecycle of a task inside the simulator."""

    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass
class Task:
    """A single schedulable unit of work.

    ``work`` is the ground-truth execution time of the task when it runs
    alone: seconds on a regular executor, or seconds at batch size 1 on an
    LLM executor.  For LLM tasks the *actual* wall-clock duration depends on
    how many requests share the batch while it runs (handled by the
    executor's latency model); ``progress`` tracks how much of ``work`` has
    been completed so far in batch-size-1-equivalent seconds.

    Token model (opt-in, serving experiments only)
    ----------------------------------------------
    ``prompt_tokens`` / ``output_tokens`` split an LLM task into a prefill
    phase (the first ``prefill_work`` batch-size-1 seconds of ``work``,
    after which the first token is emitted) and a per-iteration decode
    phase covering the remaining ``output_tokens - 1`` tokens.  The split
    is a *decomposition* of the unchanged ``work`` value — progress
    arithmetic, completion times and therefore every legacy trace are
    bit-identical whether or not the token model is attached.  All token
    fields stay ``None``/0 for legacy tasks; :meth:`set_token_model` is the
    only sanctioned way to attach them (enforced by the REP007 invariant
    lint).
    """

    job_id: str
    stage_id: str
    task_type: TaskType
    work: float
    index: int = 0
    uid: int = field(default_factory=lambda: next(_task_counter))
    state: TaskState = TaskState.PENDING
    progress: float = 0.0
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    executor_id: Optional[str] = None
    num_preemptions: int = 0
    #: Token model (None/0 = legacy JCT-only task; see class docstring).
    prompt_tokens: Optional[int] = None
    output_tokens: Optional[int] = None
    prefill_work: float = 0.0
    #: Absolute time the first output token was emitted (stamped by the
    #: LLM executor when progress crosses ``prefill_work``).
    first_token_time: Optional[float] = None
    #: Absolute time the task became schedulable (its stage turned READY);
    #: the TTFT anchor, so TTFT >= queueing delay by construction.
    ready_time: Optional[float] = None
    #: The owning stage, whose pending list the transitions below keep
    #: (None for a task built on its own).  Set by :class:`Stage`; a deep
    #: copy gets the copied stage through the copy memo, and
    #: :meth:`Stage.snapshot_clone` rebinds it to the clone.
    _stage: Optional["Stage"] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        require_non_negative(self.work, "work")

    # ------------------------------------------------------------------ #
    @property
    def is_llm(self) -> bool:
        return self.task_type is TaskType.LLM

    @property
    def remaining_work(self) -> float:
        """Batch-size-1-equivalent seconds of work still to do."""
        return max(0.0, self.work - self.progress)

    @property
    def is_finished(self) -> bool:
        return self.state is TaskState.FINISHED

    # ------------------------------------------------------------------ #
    # Token model
    # ------------------------------------------------------------------ #
    @property
    def has_token_model(self) -> bool:
        return self.prompt_tokens is not None and self.output_tokens is not None

    @property
    def decode_work(self) -> float:
        """Batch-size-1 seconds of the decode phase (``work - prefill_work``)."""
        return max(0.0, self.work - self.prefill_work)

    @property
    def prefill_done(self) -> bool:
        """Whether accrued progress already covers the prefill phase."""
        return self.has_token_model and self.progress >= self.prefill_work

    def per_token_decode_work(self) -> Optional[float]:
        """Batch-size-1 seconds per decode token (None without a token model
        or when the task emits a single token and has no decode phase)."""
        if not self.has_token_model or self.output_tokens <= 1:
            return None
        return self.decode_work / (self.output_tokens - 1)

    def set_token_model(
        self, prompt_tokens: int, output_tokens: int, prefill_work: float
    ) -> None:
        """Attach per-request token counts and the prefill/decode split.

        The split must decompose the existing ``work`` (``0 <= prefill_work
        <= work``); it never changes the total, so legacy completion
        arithmetic is untouched.  Only callable before the task starts.
        """
        if self.state is not TaskState.PENDING or self.progress > 0:
            raise RuntimeError(f"task {self.uid} already started; cannot attach tokens")
        if prompt_tokens < 1 or output_tokens < 1:
            raise ValueError("prompt_tokens and output_tokens must be >= 1")
        if prefill_work < 0 or prefill_work > self.work + 1e-12:
            raise ValueError(
                f"prefill_work {prefill_work} must lie within [0, work={self.work}]"
            )
        self.prompt_tokens = int(prompt_tokens)
        self.output_tokens = int(output_tokens)
        self.prefill_work = min(float(prefill_work), self.work)

    # ------------------------------------------------------------------ #
    def mark_running(self, time: float, executor_id: str) -> None:
        """Start the task; it leaves its stage's pending list."""
        if self.state is not TaskState.PENDING:
            raise RuntimeError(f"task {self.uid} cannot start from state {self.state}")
        self.state = TaskState.RUNNING
        self.start_time = float(time)
        self.executor_id = executor_id
        if self._stage is not None:
            # By identity: a snapshot clone of this task compares equal to it.
            pending = self._stage._pending
            for position, queued in enumerate(pending):
                if queued is self:
                    del pending[position]
                    break

    def advance(self, amount: float) -> None:
        """Record ``amount`` of batch-size-1-equivalent work as completed."""
        if self.state is not TaskState.RUNNING:
            raise RuntimeError(f"task {self.uid} is not running")
        if amount < -1e-9:
            raise ValueError("cannot advance by a negative amount")
        self.progress = min(self.work, self.progress + max(0.0, amount))

    def mark_preempted(self, checkpoint: bool = True) -> float:
        """Checkpoint the task back to PENDING so it can be placed again.

        With ``checkpoint=True`` the accrued ``progress`` is conserved (the
        task resumes with only its remaining work); otherwise progress is
        discarded and the task restarts from scratch.  Returns the amount
        of work wasted (0 for a checkpointed preemption).  The task goes
        back into its stage's pending list at its index position.
        """
        if self.state is not TaskState.RUNNING:
            raise RuntimeError(f"task {self.uid} cannot be preempted from state {self.state}")
        wasted = 0.0
        if not checkpoint:
            wasted = self.progress
            self.progress = 0.0
            # Restarting from scratch re-runs prefill, so the first token
            # has not actually been delivered yet from the user's viewpoint.
            self.first_token_time = None
        self.state = TaskState.PENDING
        self.start_time = None
        self.executor_id = None
        self.num_preemptions += 1
        if self._stage is not None:
            bisect.insort(self._stage._pending, self, key=_INDEX)
        return wasted

    def mark_finished(self, time: float) -> None:
        """Finish a running task (already out of its stage's pending list)."""
        if self.state is not TaskState.RUNNING:
            raise RuntimeError(f"task {self.uid} cannot finish from state {self.state}")
        self.state = TaskState.FINISHED
        self.progress = self.work
        self.finish_time = float(time)

    def snapshot_clone(self) -> "Task":
        """A structural copy for copy-on-write snapshot views.

        Every other field is an immutable scalar, so a shallow copy is a
        full copy; ``uid`` is preserved (unlike constructing a new Task),
        which keeps tie-breaks that sort on uid identical between a
        snapshot and the live world.  The stage back-reference still names
        the original stage: :meth:`Stage.snapshot_clone` rebinds it.
        """
        return copy.copy(self)

    def key(self) -> str:
        """Stable human-readable identifier used in logs and metrics."""
        return f"{self.job_id}/{self.stage_id}/{self.index}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.key()}, {self.task_type.value}, work={self.work:.2f}, {self.state.value})"
