"""Schedulers: the common interface plus the paper's baselines.

LLMSched itself lives in :mod:`repro.core.llmsched`; this package contains
the scheduling interface used by the simulation engine and the six baseline
policies of the evaluation (FCFS, SJF, Fair, Argus, Decima, Carbyne) plus a
plain SRTF used by the ablation study.
"""

from repro.schedulers.base import (
    PreemptionDirective,
    Scheduler,
    SchedulingContext,
    SchedulingDecision,
    flatten_stage_tasks,
    interleave_tasks,
)
from repro.schedulers.snapshot import CowSnapshotTracker
from repro.schedulers.preemptive import PreemptiveSrtfScheduler
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.sjf import SjfScheduler
from repro.schedulers.slo import SloServingScheduler
from repro.schedulers.srtf import SrtfScheduler
from repro.schedulers.argus import ArgusScheduler
from repro.schedulers.carbyne import CarbyneScheduler
from repro.schedulers.decima import DecimaScheduler, DecimaPolicy, train_decima
from repro.schedulers.registry import available_schedulers, create_scheduler

__all__ = [
    "Scheduler",
    "SchedulingContext",
    "SchedulingDecision",
    "PreemptionDirective",
    "PreemptiveSrtfScheduler",
    "CowSnapshotTracker",
    "flatten_stage_tasks",
    "interleave_tasks",
    "FcfsScheduler",
    "FairScheduler",
    "SjfScheduler",
    "SloServingScheduler",
    "SrtfScheduler",
    "ArgusScheduler",
    "CarbyneScheduler",
    "DecimaScheduler",
    "DecimaPolicy",
    "train_decima",
    "available_schedulers",
    "create_scheduler",
]
