"""Bayesian-network profiler (paper Section IV-B).

For every application the profiler runs an offline profiling pass (sampling
historical jobs), discretises each stage's duration distribution into at
most six intervals (plus a zero state for stages that may not execute),
learns a Bayesian network over the stage durations from the inter-stage
correlations, and then answers the two questions LLMSched asks at runtime:

* *What is this job's remaining duration*, given the durations of its
  completed stages (posterior expectation, with batching-aware calibration
  of the LLM share)?
* *Which stages are uncertainty-reducing*, i.e. correlated with other
  unscheduled stages through a directed path in the learned network?
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.bayes.discretize import DiscretizationSpec, Discretizer
from repro.bayes.information import conditional_mutual_information
from repro.bayes.learning import StructureLearningConfig, build_network_from_samples
from repro.bayes.network import DiscreteBayesianNetwork
from repro.dag.application import ApplicationTemplate
from repro.dag.dynamic import dynamic_stage_entropy
from repro.dag.job import Job
from repro.utils.rng import make_rng

__all__ = ["ApplicationProfile", "BayesianProfiler", "RemainingEstimate"]


@dataclass
class ApplicationProfile:
    """Everything the profiler learned about one application."""

    name: str
    variables: List[str]
    network: DiscreteBayesianNetwork
    specs: Dict[str, DiscretizationSpec]
    llm_variables: Set[str]
    mean_durations: Dict[str, float]
    #: dynamic-stage profile key -> (preceding LLM key, entropy, duration range)
    dynamic_info: Dict[str, Tuple[str, float, float]] = field(default_factory=dict)

    @property
    def mean_total_duration(self) -> float:
        return float(sum(self.mean_durations.values()))

    def variable_range(self, variable: str) -> float:
        return self.specs[variable].value_range


class RemainingEstimate(NamedTuple):
    """What :meth:`BayesianProfiler.remaining_estimate` learns about one job.

    It changes only when the job's evidence does, so a caller may keep it
    until one of the job's tasks or stages completes.
    """

    evidence: Dict[str, int]
    #: Uncalibrated remaining work of the regular and of the LLM stages.
    regular: float
    llm: float
    #: (lower, upper) bound of the remaining duration.
    interval: Tuple[float, float]

    def calibrated(self, target_batch_size: float, calibrator) -> float:
        """Remaining duration with the LLM share calibrated to the batch size (Eq. 2)."""
        llm = self.llm
        if calibrator is not None:
            llm = calibrator.calibrate(llm, target_batch_size)
        return self.regular + llm


class BayesianProfiler:
    """Offline profiling plus online posterior queries for LLMSched."""

    def __init__(
        self,
        structure_config: Optional[StructureLearningConfig] = None,
        max_intervals: int = 6,
        max_correlated_targets: int = 3,
    ) -> None:
        if max_intervals < 1:
            raise ValueError("max_intervals must be >= 1")
        if max_correlated_targets < 1:
            raise ValueError("max_correlated_targets must be >= 1")
        # Single-parent (tree) structures keep the fast forward-pass posterior
        # exact and avoid sparse multi-parent CPD columns.
        self.structure_config = structure_config or StructureLearningConfig(
            correlation_threshold=0.3, max_parents=1
        )
        self.max_intervals = int(max_intervals)
        self.max_correlated_targets = int(max_correlated_targets)
        self._profiles: Dict[str, ApplicationProfile] = {}
        # Memoised posterior marginals keyed by (application, evidence signature).
        self._marginal_cache: Dict[Tuple[str, Tuple[Tuple[str, int], ...]], Dict[str, np.ndarray]] = {}
        # Memoised per-variable (mean, variance), keyed like _marginal_cache
        # (signature None: the evidence-free moments without the posterior).
        self._moment_cache: Dict[
            Tuple[str, Optional[Tuple[Tuple[str, int], ...]]], Dict[str, Tuple[float, float]]
        ] = {}
        # Memoised uncertainty reductions keyed by (application, stage, evidence signature).
        self._reduction_cache: Dict[Tuple[str, str, Tuple[Tuple[str, int], ...]], float] = {}

    # ------------------------------------------------------------------ #
    # Offline profiling
    # ------------------------------------------------------------------ #
    def fit(
        self,
        applications: Iterable[ApplicationTemplate],
        n_profile_jobs: int = 200,
        seed: int = 7,
    ) -> "BayesianProfiler":
        """Profile every application from offline job samples."""
        if n_profile_jobs < 2:
            raise ValueError("n_profile_jobs must be >= 2")
        rng = make_rng(seed)
        for app in applications:
            self._profiles[app.name] = self._fit_application(app, n_profile_jobs, rng)
        return self

    def _fit_application(
        self, app: ApplicationTemplate, n_jobs: int, rng: np.random.Generator
    ) -> ApplicationProfile:
        variables = app.profile_variables()
        traces: Dict[str, List[float]] = {v: [] for v in variables}
        dynamic_candidates = app.dynamic_candidates()
        dynamic_totals: Dict[str, List[float]] = {k: [] for k in dynamic_candidates}

        for i in range(n_jobs):
            job = app.sample_job(f"__profile__{app.name}_{i}", 0.0, rng)
            durations = self._ground_truth_durations(job)
            for variable in variables:
                traces[variable].append(durations.get(variable, 0.0))
            for dyn_key in dynamic_candidates:
                inner = [
                    stage.duration
                    for stage in job.stages.values()
                    if stage.profile_key in self._candidate_keys(app, dyn_key)
                ]
                dynamic_totals[dyn_key].append(float(sum(inner)))

        # Discretise each variable; reserve a zero state if the stage ever
        # skips execution.
        specs: Dict[str, DiscretizationSpec] = {}
        discrete: Dict[str, List[int]] = {}
        for variable in variables:
            samples = traces[variable]
            needs_zero_state = any(v <= 1e-9 for v in samples)
            discretizer = Discretizer(max_intervals=self.max_intervals, zero_state=needs_zero_state)
            spec, states = discretizer.fit_transform(samples)
            specs[variable] = spec
            discrete[variable] = states

        cardinalities = {v: specs[v].cardinality for v in variables}
        state_labels = {v: list(specs[v].representatives) for v in variables}
        network = build_network_from_samples(
            continuous_samples=traces,
            discrete_samples=discrete,
            cardinalities=cardinalities,
            state_labels=state_labels,
            variable_order=variables,
            config=self.structure_config,
            laplace_alpha=0.5,
            smoothing_prior="marginal",
        )

        llm_variables = set(app.llm_profile_keys())
        mean_durations = {v: float(np.mean(traces[v])) for v in variables}

        dynamic_info: Dict[str, Tuple[str, float, float]] = {}
        for dyn_key, candidates in dynamic_candidates.items():
            preceding = self._preceding_llm_key(app, dyn_key)
            entropy = dynamic_stage_entropy(candidates)
            totals = dynamic_totals[dyn_key]
            duration_range = float(max(totals) - min(totals)) if totals else 0.0
            dynamic_info[dyn_key] = (preceding, entropy, duration_range)

        return ApplicationProfile(
            name=app.name,
            variables=list(variables),
            network=network,
            specs=specs,
            llm_variables=llm_variables,
            mean_durations=mean_durations,
            dynamic_info=dynamic_info,
        )

    @staticmethod
    def _ground_truth_durations(job: Job) -> Dict[str, float]:
        """profile_key -> executed duration (0 when the stage is skipped)."""
        durations: Dict[str, float] = {}
        for stage in job.stages.values():
            if stage.is_dynamic:
                continue
            durations[stage.profile_key] = stage.duration
        return durations

    @staticmethod
    def _candidate_keys(app: ApplicationTemplate, dyn_key: str) -> Set[str]:
        """Profile keys of the candidate stages of a dynamic stage."""
        candidates = app.dynamic_candidates().get(dyn_key, [])
        keys: Set[str] = set()
        for candidate in candidates:
            if hasattr(app, "tool_profile_key"):
                keys.add(app.tool_profile_key(candidate.name))
            else:  # pragma: no cover - defensive fallback
                keys.add(candidate.name)
        return keys

    @staticmethod
    def _preceding_llm_key(app: ApplicationTemplate, dyn_key: str) -> str:
        """The LLM stage whose completion resolves the dynamic stage."""
        for parent, child in app.profile_edges():
            if child == dyn_key:
                return parent
        # Dynamic stages in this model are always planned by an LLM stage; if
        # the static edges do not say which, fall back to the first LLM key.
        llm_keys = app.llm_profile_keys()
        return llm_keys[0] if llm_keys else dyn_key

    # ------------------------------------------------------------------ #
    # Profile access
    # ------------------------------------------------------------------ #
    def has_profile(self, application: str) -> bool:
        return application in self._profiles

    def profile_for(self, application: str) -> ApplicationProfile:
        if application not in self._profiles:
            raise KeyError(f"no profile for application {application!r}")
        return self._profiles[application]

    @property
    def applications(self) -> List[str]:
        return list(self._profiles)

    # ------------------------------------------------------------------ #
    # Online evidence handling
    # ------------------------------------------------------------------ #
    def evidence_for(self, job: Job) -> Dict[str, int]:
        """Discretised durations of the job's completed (visible) stages.

        Two refinements beyond completed stages:

        * *Task sampling*: a running stage with at least one finished task
          already reveals its duration scale — the paper's Algorithm 1 samples
          a fraction ``r`` of a stage's tasks exactly to obtain this estimate.
          The stage's duration is extrapolated from the finished tasks and
          used as (soft) evidence.
        * Once a dynamic stage's planner has finished (so the realised plan is
          visible), candidate stages that were *not* selected are pinned to
          the zero state — their absence is now known.
        """
        profile = self.profile_for(job.application)
        evidence: Dict[str, int] = {}
        observed = dict(job.observed_durations())
        # Task-sampling estimates from partially finished stages.
        for stage in job.stages.values():
            if stage.is_complete or not stage.visible or stage.is_dynamic:
                continue
            finished = [t for t in stage.tasks if t.is_finished]
            if finished and stage.profile_key not in observed:
                mean_task = sum(t.work for t in finished) / len(finished)
                observed[stage.profile_key] = mean_task * len(stage.tasks)
        for variable, duration in observed.items():
            if variable in profile.specs:
                evidence[variable] = Discretizer.transform(duration, profile.specs[variable])

        present_keys = {s.profile_key for s in job.stages.values()}
        for dyn_key, (preceding, _, _) in profile.dynamic_info.items():
            if preceding in observed:
                for variable in profile.variables:
                    if variable == preceding or variable in evidence:
                        continue
                    if variable not in present_keys and self._is_candidate_variable(profile, dyn_key, variable):
                        evidence[variable] = Discretizer.transform(0.0, profile.specs[variable])
        return evidence

    @staticmethod
    def _is_candidate_variable(profile: ApplicationProfile, dyn_key: str, variable: str) -> bool:
        """Candidate variables share the dynamic stage's key prefix (``ta_tool_*``)."""
        prefix = dyn_key.rsplit("_", 1)[0]
        return variable.startswith(f"{prefix}_tool_")

    @staticmethod
    def _evidence_signature(evidence: Mapping[str, int]) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(evidence.items()))

    def posterior_marginals(self, application: str, evidence: Mapping[str, int]) -> Dict[str, np.ndarray]:
        """Posterior state distributions of every profile variable.

        Computed by a single forward pass in topological order: evidence
        variables are point masses, every other variable mixes its CPD over
        the (already computed) parent marginals.  Because evidence always
        sits on *completed* (upstream) stages, this matches exact inference
        on the chain/tree structures the profiler learns while staying fast
        enough for the scheduler's critical path.
        """
        profile = self.profile_for(application)
        signature = (application, self._evidence_signature(evidence))
        cached = self._marginal_cache.get(signature)
        if cached is not None:
            return cached

        network = profile.network
        marginals: Dict[str, np.ndarray] = {}
        for variable in network.topological_order():
            card = network.cardinality(variable)
            if variable in evidence:
                point = np.zeros(card)
                point[int(evidence[variable])] = 1.0
                marginals[variable] = point
                continue
            cpd = network.get_cpd(variable)
            if not cpd.parents:
                marginals[variable] = cpd.table[:, 0].copy()
                continue
            # Mix the CPD columns over the joint parent distribution
            # (parents treated as independent, which is exact for the
            # tree-structured networks the profiler learns).
            distribution = np.zeros(card)
            parent_cards = [cpd.parent_cardinalities[p] for p in cpd.parents]
            for column_index in range(int(np.prod(parent_cards))):
                weight = 1.0
                remainder = column_index
                for parent, parent_card in zip(reversed(cpd.parents), reversed(parent_cards)):
                    state = remainder % parent_card
                    remainder //= parent_card
                    weight *= float(marginals[parent][state])
                if weight > 0:
                    distribution += weight * cpd.table[:, column_index]
            total = distribution.sum()
            marginals[variable] = distribution / total if total > 0 else np.full(card, 1.0 / card)

        self._marginal_cache[signature] = marginals
        return marginals

    # ------------------------------------------------------------------ #
    # Duration estimation
    # ------------------------------------------------------------------ #
    def remaining_estimate(self, job: Job, use_posterior: bool = True) -> RemainingEstimate:
        """One pass over a job: its evidence, remaining sums and interval.

        The remaining duration is the mean of the posterior job-duration
        distribution, split into its regular and LLM shares so the caller
        can apply the Eq. 2 batch calibration to the LLM share alone.  The
        interval bounds are mean ± one standard deviation of the posterior
        remaining duration (per-stage variances summed, i.e. stages treated
        as conditionally independent given the evidence); Algorithm 1 uses
        them to group jobs into non-overlapping sets.

        ``use_posterior=False`` gives the "LLMSched w/o BN" ablation: the
        remaining sums use the historical mean duration of every unfinished
        stage, and the interval the per-stage historical spread (a uniform
        distribution over the discretised states).

        A variable is skipped once it is observed and its job's first stage
        with that profile key is complete (a variable with no stage in the
        job, i.e. an unselected candidate, counts as complete).
        """
        profile = self.profile_for(job.application)
        evidence = self.evidence_for(job)
        moments = self._variable_moments(job.application, evidence, use_posterior)
        complete: Dict[str, bool] = {}
        for stage in job.stages.values():
            complete.setdefault(stage.profile_key, stage.is_complete)

        regular = llm = mean_total = variance_total = 0.0
        for variable in profile.variables:
            if variable in evidence and complete.get(variable, True):
                continue
            mean, variance = moments[variable]
            expected = mean if use_posterior else profile.mean_durations[variable]
            if variable in profile.llm_variables:
                llm += expected
            else:
                regular += expected
            mean_total += mean
            variance_total += variance
        spread = math.sqrt(variance_total)
        interval = (max(0.0, mean_total - spread), mean_total + spread)
        return RemainingEstimate(evidence, regular, llm, interval)

    def _variable_moments(
        self, application: str, evidence: Mapping[str, int], use_posterior: bool
    ) -> Dict[str, Tuple[float, float]]:
        """variable -> (mean, variance) of its duration, memoised.

        Posterior moments are keyed like ``_marginal_cache``; the uniform
        moments of the ablation do not depend on the evidence.
        """
        key = (application, self._evidence_signature(evidence) if use_posterior else None)
        moments = self._moment_cache.get(key)
        if moments is not None:
            return moments
        profile = self.profile_for(application)
        marginals = self.posterior_marginals(application, evidence) if use_posterior else None
        moments = {}
        for variable in profile.variables:
            representatives = np.asarray(profile.specs[variable].representatives, dtype=float)
            if marginals is not None:
                distribution = np.asarray(marginals[variable], dtype=float)
            else:
                distribution = np.full(representatives.size, 1.0 / representatives.size)
            mean = float(np.dot(distribution, representatives))
            second_moment = float(np.dot(distribution, representatives**2))
            moments[variable] = (mean, max(0.0, second_moment - mean**2))
        self._moment_cache[key] = moments
        return moments

    def estimate_remaining_duration(
        self,
        job: Job,
        target_batch_size: float = 1.0,
        calibrator=None,
        use_posterior: bool = True,
    ) -> float:
        """Estimated remaining work of a job, with Eq. 2 calibration of the
        LLM share (see :meth:`remaining_estimate`)."""
        return self.remaining_estimate(job, use_posterior).calibrated(target_batch_size, calibrator)

    def estimate_remaining_interval(
        self, job: Job, use_posterior: bool = True
    ) -> Tuple[float, float]:
        """(lower, upper) bound of the remaining duration (see :meth:`remaining_estimate`)."""
        return self.remaining_estimate(job, use_posterior).interval

    # ------------------------------------------------------------------ #
    # Uncertainty-reducing stages
    # ------------------------------------------------------------------ #
    def correlated_variables(self, application: str, variable: str) -> Set[str]:
        """Variables connected to ``variable`` by a directed path (Eq. 1)."""
        profile = self.profile_for(application)
        if variable not in profile.specs:
            return set()
        return profile.network.correlated_nodes(variable)

    def is_uncertainty_reducing(self, application: str, variable: str) -> bool:
        """A stage is uncertainty-reducing when correlated with >= 1 stage."""
        if not self.has_profile(application):
            return False
        profile = self.profile_for(application)
        if variable in profile.dynamic_info:
            return True
        if any(variable == preceding for preceding, _, _ in profile.dynamic_info.values()):
            return True
        return bool(self.correlated_variables(application, variable))

    def uncertainty_reduction(
        self, job: Job, stage_profile_key: str, evidence: Optional[Mapping[str, int]] = None
    ) -> float:
        """R(X) of scheduling the given stage of the given job (Eq. 6).

        Conditional mutual information between the stage and its correlated
        unscheduled stages (given the evidence of completed stages), scaled
        by the duration-range sum of those stages; for LLM stages that
        precede an unresolved dynamic stage, the dynamic stage's node+edge
        entropy times its duration range is added.  ``evidence`` may pass
        the job's current :meth:`evidence_for` result to skip recomputing it.
        """
        profile = self.profile_for(job.application)
        if evidence is None:
            evidence = self.evidence_for(job)
        signature = (job.application, stage_profile_key, self._evidence_signature(evidence))
        cached = self._reduction_cache.get(signature)
        if cached is not None:
            return cached

        reduction = 0.0
        if stage_profile_key in profile.specs and stage_profile_key not in evidence:
            correlated = self.correlated_variables(job.application, stage_profile_key)
            targets = [
                v for v in profile.variables
                if v in correlated and v not in evidence and v != stage_profile_key
            ]
            if targets:
                # Keep the largest-range targets to bound inference cost.
                targets.sort(key=lambda v: profile.variable_range(v), reverse=True)
                targets = targets[: self.max_correlated_targets]
                mi = conditional_mutual_information(
                    profile.network, targets, stage_profile_key, evidence
                )
                range_sum = sum(profile.variable_range(v) for v in targets)
                reduction += mi * range_sum

        # Dynamic-stage bonus for the preceding LLM (planner) stage.
        for preceding, entropy, duration_range in profile.dynamic_info.values():
            if stage_profile_key == preceding and preceding not in evidence:
                reduction += entropy * duration_range

        self._reduction_cache[signature] = reduction
        return reduction
