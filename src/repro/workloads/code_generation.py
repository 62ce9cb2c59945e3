"""Code generation (Reflexion) — a *chain-like* application.

Given a programming task, the LLM first generates test cases, then iterates:
generate code (LLM), execute it against the tests (regular), and reflect on
the failures (LLM) — until the tests pass or the maximum number of repair
iterations is reached.  The chain length is therefore revealed only at
runtime: this is the structural uncertainty of the paper's Fig. 1b
(3–15 stages).  Following the paper, the DAG is padded to the maximum length
and unexecuted stages take duration 0.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.dag.application import ApplicationTemplate, JobDraw, StageDraw
from repro.dag.stage import StageSpec, StageType
from repro.workloads.base import (
    LatentScaledDuration,
    sample_lognormal,
    sample_truncated_geometric,
)
from repro.workloads.datasets import MbppLikeDataset

__all__ = ["CodeGenerationApplication"]


class CodeGenerationApplication(ApplicationTemplate):
    """Generator for Reflexion-style code-generation jobs (chain-like)."""

    name = "code_generation"
    category = "chain"

    #: Maximum number of repair iterations after the initial attempt; the
    #: padded chain length is 3 + 3 * MAX_ITERATIONS = 15 stages, matching
    #: the 3-15 range of the paper's Fig. 1b.
    MAX_ITERATIONS = 4

    #: Spread of the per-job code-verbosity factor shared by all generation
    #: and reflection stages (drives the ~0.9 correlations of Fig. 5b).
    VERBOSITY_SIGMA = 0.4

    # Duration models; latent = program size proxy (20-120).
    _TEST_GEN = LatentScaledDuration(base=1.0, scale_per_unit=0.020, noise_sigma=0.15)
    _CODE_GEN = LatentScaledDuration(base=1.2, scale_per_unit=0.035, noise_sigma=0.15)
    _CODE_EXEC = LatentScaledDuration(base=0.15, scale_per_unit=0.002, noise_sigma=0.2)
    _REFLEX = LatentScaledDuration(base=0.8, scale_per_unit=0.020, noise_sigma=0.15)

    def __init__(self, dataset: Optional[MbppLikeDataset] = None) -> None:
        self.dataset = dataset or MbppLikeDataset()

    # ------------------------------------------------------------------ #
    # Static structure (padded chain)
    # ------------------------------------------------------------------ #
    def profile_variables(self) -> List[str]:
        variables = ["cg_testgen", "cg_codegen_0", "cg_exec_0"]
        for i in range(1, self.MAX_ITERATIONS + 1):
            variables.extend([f"cg_reflex_{i}", f"cg_codegen_{i}", f"cg_exec_{i}"])
        return variables

    def profile_edges(self) -> List[Tuple[str, str]]:
        variables = self.profile_variables()
        return list(zip(variables[:-1], variables[1:], strict=True))

    def llm_profile_keys(self) -> List[str]:
        return [v for v in self.profile_variables() if "exec" not in v]

    @staticmethod
    def _stage_type(key: str) -> StageType:
        return StageType.REGULAR if "exec" in key else StageType.LLM

    # ------------------------------------------------------------------ #
    def sample_iterations(self, difficulty: float, rng: np.random.Generator) -> int:
        """Number of executed repair iterations (0 .. MAX_ITERATIONS).

        Most problems pass on the first attempt; hard ones keep iterating up
        to the cap, giving the right-skewed chain-length distribution of the
        paper's Fig. 1b.
        """
        continue_probability = 0.15 + 0.65 * float(np.clip(difficulty, 0.0, 1.0)) ** 2
        return sample_truncated_geometric(rng, continue_probability, 0, self.MAX_ITERATIONS)

    def sample_draw(self, rng: np.random.Generator) -> JobDraw:
        query = self.dataset.sample(rng)
        iterations = self.sample_iterations(query.difficulty, rng)
        size = query.size

        # The generated code of consecutive iterations is similar, so the
        # per-iteration LLM durations share a job-level draw (this yields the
        # ~0.9 Pearson correlation between repair stages in Fig. 5b).
        code_scale = sample_lognormal(rng, 1.0, self.VERBOSITY_SIGMA)

        def executed(key: str) -> bool:
            if key in ("cg_testgen", "cg_codegen_0", "cg_exec_0"):
                return True
            iteration = int(key.rsplit("_", 1)[1])
            return iteration <= iterations

        draws: List[StageDraw] = []
        for key in self.profile_variables():
            stage_type = self._stage_type(key)
            if key == "cg_testgen":
                duration = self._TEST_GEN.sample(rng, size)
            elif key.startswith("cg_codegen"):
                duration = self._CODE_GEN.sample(rng, size) * code_scale
            elif key.startswith("cg_reflex"):
                duration = self._REFLEX.sample(rng, size) * code_scale
            else:
                duration = self._CODE_EXEC.sample(rng, size)
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
