"""Web search (ReAct) — a *chain-like* application.

The agent alternates between reasoning with the LLM and invoking a search
tool until it can answer the multi-hop question.  The number of
reason-search rounds depends on the question, so, as with code generation,
the chain is padded to the maximum number of rounds and unexecuted rounds
take duration 0.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dag.application import ApplicationTemplate, JobDraw, StageDraw
from repro.dag.stage import StageSpec, StageType
from repro.workloads.base import LatentScaledDuration, sample_truncated_geometric
from repro.workloads.datasets import HotpotQaLikeDataset

__all__ = ["WebSearchApplication"]


class WebSearchApplication(ApplicationTemplate):
    """Generator for ReAct-style web-search jobs (chain-like)."""

    name = "web_search"
    category = "chain"

    #: Maximum number of search-and-reason rounds after the initial thought.
    MAX_ROUNDS = 5

    # Duration models; latent = number of hops in the question (2-6).
    _THINK = LatentScaledDuration(base=0.8, scale_per_unit=0.5, noise_sigma=0.4)
    _SEARCH = LatentScaledDuration(base=0.4, scale_per_unit=0.05, noise_sigma=0.25)

    def __init__(self) -> None:
        self.dataset = HotpotQaLikeDataset()

    # ------------------------------------------------------------------ #
    def profile_variables(self) -> List[str]:
        variables = ["ws_think_0"]
        for i in range(1, self.MAX_ROUNDS + 1):
            variables.extend([f"ws_search_{i}", f"ws_think_{i}"])
        return variables

    def profile_edges(self) -> List[Tuple[str, str]]:
        variables = self.profile_variables()
        return list(zip(variables[:-1], variables[1:], strict=True))

    def llm_profile_keys(self) -> List[str]:
        return [v for v in self.profile_variables() if v.startswith("ws_think")]

    # ------------------------------------------------------------------ #
    def sample_rounds(self, query, rng: np.random.Generator) -> int:
        """Executed search rounds (1 .. MAX_ROUNDS), driven by hops and difficulty."""
        minimum = int(np.clip(round(query.size) - 1, 1, self.MAX_ROUNDS))
        continue_probability = 0.2 + 0.4 * query.difficulty
        return sample_truncated_geometric(rng, continue_probability, minimum, self.MAX_ROUNDS)

    def sample_draw(self, rng: np.random.Generator) -> JobDraw:
        query = self.dataset.sample(rng)
        rounds = self.sample_rounds(query, rng)
        hops = query.size
        think_scale = rng.uniform(0.8, 1.2)

        def executed(key: str) -> bool:
            if key == "ws_think_0":
                return True
            round_index = int(key.rsplit("_", 1)[1])
            return round_index <= rounds

        draws: List[StageDraw] = []
        for key in self.profile_variables():
            is_think = key.startswith("ws_think")
            stage_type = StageType.LLM if is_think else StageType.REGULAR
            if is_think:
                duration = self._THINK.sample(rng, hops) * think_scale
            else:
                duration = self._SEARCH.sample(rng, hops)
            draws.append(
                StageDraw(
                    spec=StageSpec(
                        stage_id=key,
                        stage_type=stage_type,
                        name=key,
                        num_tasks=1,
                        profile_key=key,
                    ),
                    task_durations=[duration],
                    will_execute=executed(key),
                )
            )
        return JobDraw(draws, self.profile_edges())
