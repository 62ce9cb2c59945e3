"""Workload assembly: the four workload types of the paper's evaluation.

* Mixed       — jobs uniformly distributed across all six applications.
* Predefined  — 50% sequence sorting, 50% document merging.
* Chain-like  — 50% code generation, 50% web search.
* Planning    — 50% task automation, 50% LLMCompiler.

Job arrivals follow a Poisson process with rate ``lambda`` as in the paper
(default 0.9 jobs/s, 300 jobs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.dag.application import ApplicationTemplate
from repro.dag.job import Job
from repro.utils.rng import make_rng
from repro.utils.validation import check_fields, integer, member, positive, require_positive
from repro.workloads.code_generation import CodeGenerationApplication
from repro.workloads.document_merging import DocumentMergingApplication
from repro.workloads.llm_compiler import LlmCompilerApplication
from repro.workloads.sequence_sorting import SequenceSortingApplication
from repro.workloads.task_automation import TaskAutomationApplication
from repro.workloads.web_search import WebSearchApplication

__all__ = [
    "WorkloadType",
    "WorkloadSpec",
    "default_applications",
    "poisson_arrival_times",
    "generate_workload",
]


class WorkloadType(enum.Enum):
    """The four workload mixes of the paper's evaluation (Fig. 7/8)."""

    MIXED = "mixed"
    PREDEFINED = "predefined"
    CHAIN = "chain"
    PLANNING = "planning"


def default_applications() -> Dict[str, ApplicationTemplate]:
    """Instantiate the six applications with their default datasets."""
    applications = [
        SequenceSortingApplication(),
        DocumentMergingApplication(),
        CodeGenerationApplication(),
        WebSearchApplication(),
        TaskAutomationApplication(),
        LlmCompilerApplication(),
    ]
    return {app.name: app for app in applications}


_WORKLOAD_APPS: Dict[WorkloadType, List[str]] = {
    WorkloadType.MIXED: [
        "sequence_sorting",
        "document_merging",
        "code_generation",
        "web_search",
        "task_automation",
        "llm_compiler",
    ],
    WorkloadType.PREDEFINED: ["sequence_sorting", "document_merging"],
    WorkloadType.CHAIN: ["code_generation", "web_search"],
    WorkloadType.PLANNING: ["task_automation", "llm_compiler"],
}


def poisson_arrival_times(
    count: int, arrival_rate: float, rng: np.random.Generator
) -> List[float]:
    """Arrival times of a Poisson process with ``arrival_rate`` jobs per second."""
    if count < 0:
        raise ValueError("count must be >= 0")
    require_positive(arrival_rate, "arrival_rate")
    gaps = rng.exponential(1.0 / arrival_rate, count)
    return list(np.cumsum(gaps))


@dataclass
class WorkloadSpec:
    """A fully-specified workload draw.

    Attributes
    ----------
    workload_type:
        Which of the four mixes to generate.
    num_jobs:
        Total number of jobs (paper default 300).
    arrival_rate:
        Poisson arrival rate λ in jobs/s (paper default 0.9).
    seed:
        Seed for the workload RNG; the same spec + seed always produces the
        identical list of jobs, so schedulers can be compared on identical
        inputs.
    """

    workload_type: WorkloadType = field(default=WorkloadType.MIXED, metadata=member(WorkloadType))
    num_jobs: int = field(default=300, metadata=integer(1))
    arrival_rate: float = field(default=0.9, metadata=positive())
    seed: int = field(default=0, metadata=integer(0))

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def application_names(self) -> List[str]:
        return list(_WORKLOAD_APPS[self.workload_type])


def generate_workload(
    spec: WorkloadSpec,
    applications: Optional[Dict[str, ApplicationTemplate]] = None,
) -> List[Job]:
    """Generate the job list for a workload spec, sorted by arrival time.

    Jobs are assigned to applications round-robin (which realises the
    paper's "uniformly distributed across applications" mix exactly) and the
    assignment is shuffled so that arrival order is not biased towards any
    application.
    """
    applications = applications or default_applications()
    app_names = _WORKLOAD_APPS[spec.workload_type]
    missing = [name for name in app_names if name not in applications]
    if missing:
        raise ValueError(f"missing applications for workload: {missing}")

    rng = make_rng(spec.seed)
    arrivals = poisson_arrival_times(spec.num_jobs, spec.arrival_rate, rng)
    assignment = [app_names[i % len(app_names)] for i in range(spec.num_jobs)]
    rng.shuffle(assignment)

    jobs: List[Job] = []
    for index, (arrival, app_name) in enumerate(zip(arrivals, assignment, strict=True)):
        app = applications[app_name]
        job = app.sample_job(f"job-{index:04d}", float(arrival), rng)
        jobs.append(job)
    return jobs
