"""LLMCompiler — a *planning* application with highly parallel function calls.

The planner LLM decomposes the question into independent function calls
(search, lookup, calculator, ...), which can all run in parallel, and a
joiner LLM stage fuses their results.  This is the workload in the paper
with high *stage* parallelism but low *task* parallelism (each generated
stage holds a single task), which is exactly the pattern that degrades
Decima-style one-stage-at-a-time schedulers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.dag.application import ApplicationTemplate, JobDraw, StageDraw
from repro.dag.dynamic import StageCandidate
from repro.dag.stage import StageSpec, StageType
from repro.workloads.base import LatentScaledDuration, sample_lognormal
from repro.workloads.datasets import HotpotQaLikeDataset

__all__ = ["LlmCompilerApplication"]


class LlmCompilerApplication(ApplicationTemplate):
    """Generator for LLMCompiler jobs (planning category)."""

    name = "llm_compiler"
    category = "planning"

    PLAN_KEY = "lc_plan"
    DYNAMIC_KEY = "lc_dynamic"
    JOIN_KEY = "lc_join"

    #: Function-call tools: name -> (mean duration, selection probability).
    TOOLS: Dict[str, Tuple[float, float]] = {
        "web_search": (1.6, 0.65),
        "wiki_lookup": (1.2, 0.55),
        "calculator": (0.3, 0.35),
        "math_solver": (0.8, 0.30),
        "code_exec": (0.6, 0.30),
        "database_query": (1.0, 0.35),
    }

    # Planner/joiner durations scale with the number of hops in the question.
    _PLAN = LatentScaledDuration(base=1.2, scale_per_unit=0.35, noise_sigma=0.4)
    _JOIN = LatentScaledDuration(base=1.0, scale_per_unit=0.30, noise_sigma=0.4)

    def __init__(self) -> None:
        self.dataset = HotpotQaLikeDataset(seed=5)

    # ------------------------------------------------------------------ #
    def profile_variables(self) -> List[str]:
        return (
            [self.PLAN_KEY]
            + [self.tool_profile_key(t) for t in self.TOOLS]
            + [self.JOIN_KEY]
        )

    def profile_edges(self) -> List[Tuple[str, str]]:
        edges = [(self.PLAN_KEY, self.tool_profile_key(t)) for t in self.TOOLS]
        edges += [(self.tool_profile_key(t), self.JOIN_KEY) for t in self.TOOLS]
        return edges

    def llm_profile_keys(self) -> List[str]:
        return [self.PLAN_KEY, self.JOIN_KEY]

    @classmethod
    def tool_profile_key(cls, tool: str) -> str:
        return f"lc_tool_{tool}"

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
    def sample_calls(self, query, rng: np.random.Generator) -> List[str]:
        """Function calls for one job: 2-6 parallel tools, hop-dependent."""
        count = int(np.clip(round(query.size), 2, len(self.TOOLS)))
        names = list(self.TOOLS)
        weights = np.array([self.TOOLS[n][1] for n in names])
        weights = weights / weights.sum()
        chosen = rng.choice(len(names), size=count, replace=False, p=weights)
        return [names[i] for i in sorted(chosen)]

    def sample_draw(self, rng: np.random.Generator) -> JobDraw:
        query = self.dataset.sample(rng)
        selected = self.sample_calls(query, rng)
        hops = query.size

        draws: List[StageDraw] = [
            StageDraw(
                spec=StageSpec(
                    stage_id=self.PLAN_KEY,
                    stage_type=StageType.LLM,
                    name="plan",
                    num_tasks=1,
                    profile_key=self.PLAN_KEY,
                ),
                task_durations=[self._PLAN.sample(rng, hops)],
            ),
            StageDraw(
                spec=StageSpec(
                    stage_id=self.DYNAMIC_KEY,
                    stage_type=StageType.DYNAMIC,
                    name="function_calls",
                    num_tasks=0,
                    profile_key=self.DYNAMIC_KEY,
                ),
                task_durations=[],
            ),
            StageDraw(
                spec=StageSpec(
                    stage_id=self.JOIN_KEY,
                    stage_type=StageType.LLM,
                    name="join",
                    num_tasks=1,
                    profile_key=self.JOIN_KEY,
                ),
                task_durations=[self._JOIN.sample(rng, hops)],
            ),
        ]
        edges: List[Tuple[str, str]] = [
            (self.PLAN_KEY, self.DYNAMIC_KEY),
            (self.DYNAMIC_KEY, self.JOIN_KEY),
        ]
        reveals: List[Tuple[str, str]] = []

        for tool in selected:
            mean, _ = self.TOOLS[tool]
            duration = sample_lognormal(rng, mean, sigma=0.3)
            stage_id = f"call_{tool}"
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

        return JobDraw(draws, edges, reveals)
