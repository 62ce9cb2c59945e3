"""Task automation (TaskBench / HuggingGPT) — a *planning* application.

A single LLM planning stage analyses the user's request and selects a set of
tools (deep-learning models) plus the dependencies between them.  The
selected tools only become known when the planner finishes — the paper
models this with a *dynamic stage* whose candidate set lists every tool the
planner may invoke.  The number of generated stages per job matches the
1–8 range of the paper's Fig. 1c.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.dag.application import ApplicationTemplate, JobDraw, StageDraw
from repro.dag.dynamic import StageCandidate
from repro.dag.stage import StageSpec, StageType
from repro.workloads.base import LatentScaledDuration, sample_lognormal
from repro.workloads.datasets import TaskBenchLikeDataset

__all__ = ["TaskAutomationApplication"]


class TaskAutomationApplication(ApplicationTemplate):
    """Generator for task-automation jobs (planning category)."""

    name = "task_automation"
    category = "planning"

    PLAN_KEY = "ta_plan"
    DYNAMIC_KEY = "ta_dynamic"

    #: The tool zoo: name -> (mean duration in seconds, selection probability).
    #: Durations follow typical model-inference latencies — lightweight NLP
    #: models are fast, generative vision models are slow — which produces the
    #: long right tail of job durations (up to ~2 minutes) the paper observes.
    TOOLS: Dict[str, Tuple[float, float]] = {
        "text_translation": (1.0, 0.60),
        "text_summarization": (1.4, 0.55),
        "image_caption": (2.0, 0.45),
        "object_detection": (2.6, 0.40),
        "image_segmentation": (3.5, 0.30),
        "speech_recognition": (5.0, 0.25),
        "video_caption": (14.0, 0.15),
        "image_generation": (30.0, 0.10),
    }

    #: Probability that two consecutively selected tools are dependent.
    EDGE_PROBABILITY = 0.5

    # Planner duration grows mildly with the plan size; it stays cheap (a few
    # seconds) even for large plans, which is what makes it such an effective
    # uncertainty-reducing probe (the paper's Fig. 2 example uses a 2 s planner
    # for a 15 s-mean application).
    _PLAN = LatentScaledDuration(base=0.8, scale_per_unit=0.3, noise_sigma=0.35)

    def __init__(self) -> None:
        self.dataset = TaskBenchLikeDataset()

    # ------------------------------------------------------------------ #
    def profile_variables(self) -> List[str]:
        return [self.PLAN_KEY] + [self.tool_profile_key(t) for t in self.TOOLS]

    def profile_edges(self) -> List[Tuple[str, str]]:
        return [(self.PLAN_KEY, self.tool_profile_key(t)) for t in self.TOOLS]

    def llm_profile_keys(self) -> List[str]:
        return [self.PLAN_KEY]

    @classmethod
    def tool_profile_key(cls, tool: str) -> str:
        return f"ta_tool_{tool}"

    def dynamic_candidates(self) -> Dict[str, List[StageCandidate]]:
        candidates = [
            StageCandidate(
                name=tool,
                is_llm=False,
                mean_duration=mean,
                selection_probability=prob,
            )
            for tool, (mean, prob) in self.TOOLS.items()
        ]
        return {self.DYNAMIC_KEY: candidates}

    # ------------------------------------------------------------------ #
    def sample_plan(self, query, rng: np.random.Generator) -> List[str]:
        """Select the tools for one job, respecting the query's plan size.

        Tool selection follows the per-tool historical frequencies, so most
        plans are a handful of fast NLP/vision tools and only the occasional
        plan includes the slow generative models — this produces the strongly
        right-skewed job-duration distribution (roughly 1 s to 2 minutes, mean
        well above the median) reported in the paper's workload analysis.
        """
        plan_size = int(np.clip(round(query.size), 1, len(self.TOOLS)))
        names = list(self.TOOLS)
        weights = np.array([self.TOOLS[n][1] for n in names])
        weights = weights / weights.sum()
        chosen = rng.choice(len(names), size=plan_size, replace=False, p=weights)
        return [names[i] for i in sorted(chosen)]

    def sample_draw(self, rng: np.random.Generator) -> JobDraw:
        query = self.dataset.sample(rng)
        selected = self.sample_plan(query, rng)
        plan_duration = self._PLAN.sample(rng, float(len(selected)))

        draws: List[StageDraw] = [
            StageDraw(
                spec=StageSpec(
                    stage_id=self.PLAN_KEY,
                    stage_type=StageType.LLM,
                    name="task_plan",
                    num_tasks=1,
                    profile_key=self.PLAN_KEY,
                ),
                task_durations=[plan_duration],
            ),
            StageDraw(
                spec=StageSpec(
                    stage_id=self.DYNAMIC_KEY,
                    stage_type=StageType.DYNAMIC,
                    name="generated_plan",
                    num_tasks=0,
                    profile_key=self.DYNAMIC_KEY,
                ),
                task_durations=[],
            ),
        ]
        edges: List[Tuple[str, str]] = [(self.PLAN_KEY, self.DYNAMIC_KEY)]
        reveals: List[Tuple[str, str]] = []

        difficulty_scale = 0.7 + 0.6 * query.difficulty
        for tool in selected:
            mean, _ = self.TOOLS[tool]
            duration = sample_lognormal(rng, mean * difficulty_scale, sigma=0.3)
            stage_id = f"tool_{tool}"
            draws.append(
                StageDraw(
                    spec=StageSpec(
                        stage_id=stage_id,
                        stage_type=StageType.REGULAR,
                        name=tool,
                        num_tasks=1,
                        profile_key=self.tool_profile_key(tool),
                    ),
                    task_durations=[duration],
                    visible=False,
                )
            )
            edges.append((self.PLAN_KEY, stage_id))
            edges.append((stage_id, self.DYNAMIC_KEY))
            reveals.append((self.PLAN_KEY, stage_id))

        # Dependencies between consecutive selected tools (sequential plans).
        for left, right in zip(selected[:-1], selected[1:], strict=True):
            if rng.random() < self.EDGE_PROBABILITY:
                edges.append((f"tool_{left}", f"tool_{right}"))

        return JobDraw(draws, edges, reveals)
