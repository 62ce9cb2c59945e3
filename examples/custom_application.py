"""Define a custom compound LLM application and schedule it with LLMSched.

This example shows the full extension path a downstream user would take:

1. subclass :class:`repro.dag.application.ApplicationTemplate` to describe a
   new compound application (here: a retrieval-augmented QA pipeline with an
   LLM rewrite stage, a parallel retrieval fan-out, and an LLM answer stage):
   ``sample_draw`` returns one job's sampled stages and dependencies as a
   ``JobDraw``, and the base class builds jobs from it,
2. profile it together with the bundled applications,
3. run a workload that mixes the new application with an existing one.
"""

from typing import List, Tuple

import numpy as np

from repro import BayesianProfiler, Cluster, ClusterConfig, LLMSchedScheduler, SimulationEngine
from repro.dag.application import ApplicationTemplate, JobDraw, StageDraw
from repro.dag.stage import StageSpec, StageType
from repro.workloads import WebSearchApplication
from repro.workloads.base import LatentScaledDuration, sample_lognormal


class RagPipelineApplication(ApplicationTemplate):
    """Retrieval-augmented QA: rewrite (LLM) -> k retrievals -> answer (LLM)."""

    name = "rag_pipeline"
    category = "predefined"

    RETRIEVERS = 3

    _REWRITE = LatentScaledDuration(base=0.8, scale_per_unit=0.3, noise_sigma=0.2)
    _RETRIEVE = LatentScaledDuration(base=0.5, scale_per_unit=0.05, noise_sigma=0.2)
    _ANSWER = LatentScaledDuration(base=1.5, scale_per_unit=0.6, noise_sigma=0.2)

    def profile_variables(self) -> List[str]:
        return ["rag_rewrite", "rag_retrieve", "rag_answer"]

    def profile_edges(self) -> List[Tuple[str, str]]:
        return [("rag_rewrite", "rag_retrieve"), ("rag_retrieve", "rag_answer")]

    def llm_profile_keys(self) -> List[str]:
        return ["rag_rewrite", "rag_answer"]

    def sample_draw(self, rng: np.random.Generator) -> JobDraw:
        # Latent question complexity drives every stage (correlated durations).
        complexity = rng.uniform(1.0, 5.0)
        verbosity = sample_lognormal(rng, 1.0, 0.35)
        draws = [
            StageDraw(
                spec=StageSpec("rag_rewrite", StageType.LLM, name="rewrite", profile_key="rag_rewrite"),
                task_durations=[self._REWRITE.sample(rng, complexity) * verbosity],
            ),
            StageDraw(
                spec=StageSpec(
                    "rag_retrieve",
                    StageType.REGULAR,
                    name="retrieve",
                    num_tasks=self.RETRIEVERS,
                    profile_key="rag_retrieve",
                ),
                task_durations=[self._RETRIEVE.sample(rng, complexity) for _ in range(self.RETRIEVERS)],
            ),
            StageDraw(
                spec=StageSpec("rag_answer", StageType.LLM, name="answer", profile_key="rag_answer"),
                task_durations=[self._ANSWER.sample(rng, complexity) * verbosity],
            ),
        ]
        return JobDraw(draws, self.profile_edges())


def main() -> None:
    rag = RagPipelineApplication()
    web = WebSearchApplication()
    applications = {app.name: app for app in (rag, web)}

    profiler = BayesianProfiler().fit(applications.values(), n_profile_jobs=120, seed=1)
    profile = profiler.profile_for("rag_pipeline")
    print("Learned BN edges for the custom application:", profile.network.edges)

    # Build a small interleaved workload by hand.
    rng = np.random.default_rng(7)
    jobs = []
    time = 0.0
    for i in range(60):
        time += float(rng.exponential(1.0))
        app = rag if i % 2 == 0 else web
        jobs.append(app.sample_job(f"job-{i:03d}", time, rng))

    cluster = Cluster(ClusterConfig(num_regular_executors=4, num_llm_executors=1, max_batch_size=4))
    metrics = SimulationEngine(jobs, LLMSchedScheduler(profiler), cluster=cluster, workload_name="custom").run()

    print(f"Scheduled {len(metrics.job_completion_times)} jobs; average JCT = {metrics.average_jct:.2f} s")
    for application, jct in sorted(metrics.jct_by_application().items()):
        print(f"  {application:14s} avg JCT = {jct:.2f} s")


if __name__ == "__main__":
    main()
