"""Oracles for the draw path: offline readers consume stage draws, never jobs.

``ApplicationTemplate.sample_draw`` samples one job's stages, dependencies
and reveals; ``build_job`` turns a draw into the simulated ``Job``.  The
Bayesian profiler, the SJF-family priors and cluster sizing read draws
only.  The references below read the same numbers from built jobs and
must agree with them exactly.
"""

import numpy as np
import pytest

from repro.api.prep import ExperimentSettings, build_priors, build_profiler, size_cluster
from repro.core.profiler import BayesianProfiler
from repro.dag.application import ApplicationTemplate, JobBuildError, JobDraw, StageDraw
from repro.dag.stage import StageSpec, StageType
from repro.simulator.cluster import ClusterConfig
from repro.simulator.latency import DecodingLatencyProfile
from repro.utils.rng import make_rng
from repro.workloads.mixtures import default_applications

APPLICATIONS = default_applications()
SETTINGS = ExperimentSettings(profile_jobs=60, prior_samples=40, profiler_seed=5)


def _stages(job):
    return [
        (
            stage.stage_id,
            stage.stage_type,
            stage.profile_key,
            [task.work for task in stage.tasks],
            stage.will_execute,
            stage.visible,
            stage.state,
        )
        for stage in job.stages.values()
    ]


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
@pytest.mark.parametrize("seed", [0, 1, 7, 97])
def test_a_built_draw_is_the_sampled_job(name, seed):
    app = APPLICATIONS[name]
    job_rng, draw_rng = make_rng(seed), make_rng(seed)
    for i in range(10):
        job = app.sample_job(f"j{i}", 1.5, job_rng)
        draw = app.sample_draw(draw_rng)
        built = app.build_job(f"j{i}", 1.5, draw)
        assert _stages(built) == _stages(job)
        assert built.edges() == job.edges()
        assert set(built.edges()) == set(draw.edges)
        assert built._reveals == job._reveals  # no public view of pending reveals
        assert [s.spec.stage_id for s in draw.stages] == list(job.stages)
        for stage_draw, stage in zip(draw.stages, job.stages.values(), strict=True):
            assert stage_draw.duration == stage.duration  # exactly, not approximately
        assert sum(s.duration for s in draw.stages) == job.true_total_work
    # The draw used the generator exactly as the job did.
    assert draw_rng.bit_generator.state == job_rng.bit_generator.state


class JobBuiltProfiler(BayesianProfiler):
    """Collects its offline traces from built jobs."""

    @classmethod
    def _sample_traces(cls, app, n_jobs, rng):
        variables = app.profile_variables()
        traces = {v: [] for v in variables}
        dynamic_totals = {k: [] for k in app.dynamic_candidates()}
        for i in range(n_jobs):
            job = app.sample_job(f"__profile__{app.name}_{i}", 0.0, rng)
            durations = {}
            for stage in job.stages.values():
                if not stage.is_dynamic:
                    durations[stage.profile_key] = stage.duration
            for variable in variables:
                traces[variable].append(durations.get(variable, 0.0))
            for dyn_key in dynamic_totals:
                inner = [
                    stage.duration
                    for stage in job.stages.values()
                    if stage.profile_key in cls._candidate_keys(app, dyn_key)
                ]
                dynamic_totals[dyn_key].append(float(sum(inner)))
        return traces, dynamic_totals


def _job_built_priors(applications, settings):
    rng = make_rng(settings.profiler_seed)
    means = {}
    for app in applications.values():
        totals = [
            app.sample_job(f"__est__{i}", 0.0, rng).true_total_work
            for i in range(settings.prior_samples)
        ]
        means[app.name] = float(np.mean(totals))
    return means


def _job_built_mean_work(names, applications, settings):
    """Mean LLM and regular work per job over ``size_cluster``'s 30 jobs per application."""
    rng = make_rng(settings.profiler_seed + 1)
    llm_work, regular_work = [], []
    for name in names:
        for i in range(30):
            job = applications[name].sample_job(f"__size__{name}_{i}", 0.0, rng)
            stages = job.stages.values()
            llm_work.append(sum(s.duration for s in stages if s.is_llm))
            regular = (s.duration for s in stages if not s.is_llm and not s.is_dynamic)
            regular_work.append(sum(regular))
    return float(np.mean(llm_work)), float(np.mean(regular_work))


def _sizing(arrival_rate, mean_llm, mean_regular, settings):
    profile = DecodingLatencyProfile(slope=settings.latency_slope)
    llm_capacity = settings.max_batch_size / profile.latency(settings.max_batch_size)
    llm_rate = arrival_rate * mean_llm
    regular_rate = arrival_rate * mean_regular
    return ClusterConfig(
        num_regular_executors=max(2, int(np.ceil(regular_rate / (0.75 * settings.target_load)))),
        num_llm_executors=max(1, int(round(llm_rate / (settings.target_load * llm_capacity)))),
        max_batch_size=settings.max_batch_size,
        latency_slope=settings.latency_slope,
    )


@pytest.mark.parametrize(
    "settings", [SETTINGS, ExperimentSettings(profile_jobs=25, profiler_seed=77)]
)
def test_profiles_equal_a_job_built_reference(settings):
    profiler = build_profiler(APPLICATIONS, settings)
    reference = JobBuiltProfiler().fit(
        APPLICATIONS.values(), n_profile_jobs=settings.profile_jobs, seed=settings.profiler_seed
    )
    for name in APPLICATIONS:
        profile, expected = profiler.profile_for(name), reference.profile_for(name)
        assert profile.variables == expected.variables
        assert profile.specs == expected.specs
        assert profile.mean_durations == expected.mean_durations
        assert profile.dynamic_info == expected.dynamic_info
        assert profile.llm_variables == expected.llm_variables
        assert profile.network.edges == expected.network.edges
        for variable in profile.variables:
            cpd = profile.network.get_cpd(variable)
            assert cpd.parents == expected.network.get_cpd(variable).parents
            assert np.array_equal(cpd.table, expected.network.get_cpd(variable).table)


def test_priors_equal_a_job_built_reference():
    priors = build_priors(APPLICATIONS, SETTINGS)
    expected = _job_built_priors(APPLICATIONS, SETTINGS)
    assert {name: priors.mean_duration(name) for name in APPLICATIONS} == expected


@pytest.mark.parametrize(
    "names", [sorted(APPLICATIONS), ["web_search"], ["task_automation", "llm_compiler"]]
)
def test_cluster_sizing_equals_a_job_built_reference(names):
    mean_llm, mean_regular = _job_built_mean_work(names, APPLICATIONS, SETTINGS)
    # Sizings are integer counts: a fine grid of rates makes them sensitive
    # to the mean work per job.
    for arrival_rate in np.linspace(0.05, 12.0, 60):
        rate = float(arrival_rate)
        expected = _sizing(rate, mean_llm, mean_regular, SETTINGS)
        assert size_cluster(rate, names, APPLICATIONS, SETTINGS) == expected


def test_offline_preparation_builds_no_job(monkeypatch):
    built = []
    build_job = ApplicationTemplate.build_job

    def counting(app, *args, **kwargs):
        built.append(app.name)
        return build_job(app, *args, **kwargs)

    monkeypatch.setattr(ApplicationTemplate, "build_job", counting)
    settings = ExperimentSettings(profile_jobs=10, prior_samples=5)
    build_profiler(APPLICATIONS, settings)
    build_priors(APPLICATIONS, settings)
    size_cluster(1.0, sorted(APPLICATIONS), APPLICATIONS, settings)
    assert Toy().llm_profile_keys() == ["a"]
    assert built == []
    JobBuiltProfiler().fit(APPLICATIONS.values(), n_profile_jobs=2)
    assert len(built) == 2 * len(APPLICATIONS)  # the counter sees builds


# --------------------------------------------------------------------------- #
# Every draw is checked, built or not
# --------------------------------------------------------------------------- #
def _duplicate_id(stages, edges, reveals):
    stages.append(StageDraw(StageSpec("a", StageType.REGULAR, profile_key="a"), [1.0]))


def _llm_stage_without_tasks(stages, edges, reveals):
    stages[0].task_durations = []


def _unknown_edge_endpoint(stages, edges, reveals):
    edges.append(("b", "c"))


def _unknown_reveal_endpoint(stages, edges, reveals):
    reveals.append(("c", "b"))


def _cycle(stages, edges, reveals):
    edges.append(("b", "a"))


def _no_stages(stages, edges, reveals):
    stages.clear()
    edges.clear()


def _task_duration(value):
    def mutate(stages, edges, reveals):
        stages[1].task_durations = [1.0, value]

    return mutate


DEFECTS = {
    "duplicate_id": (_duplicate_id, "duplicate stage id 'a'"),
    "llm_stage_without_tasks": (_llm_stage_without_tasks, "LLM stage 'a' has no tasks"),
    "unknown_edge_endpoint": (_unknown_edge_endpoint, "unknown stage 'c'"),
    "unknown_reveal_endpoint": (_unknown_reveal_endpoint, "unknown stage 'c'"),
    "cycle": (_cycle, "'b' -> 'a' would create a cycle"),
    "no_stages": (_no_stages, "no stages"),
    "nan_task_duration": (_task_duration(float("nan")), "stage 'b' has task duration nan"),
    "negative_task_duration": (_task_duration(-0.5), "stage 'b' has task duration -0.5"),
    "infinite_task_duration": (_task_duration(float("inf")), "stage 'b' has task duration inf"),
}


class Toy(ApplicationTemplate):
    """An LLM stage ``a`` feeding a regular stage ``b``, with an optional defect."""

    name = "toy"

    def __init__(self, defect=None):
        self.defect = defect

    def profile_variables(self):
        return ["a", "b"]

    def profile_edges(self):
        return [("a", "b")]

    def sample_draw(self, rng):
        work = float(rng.uniform(1.0, 3.0))
        stages = [
            StageDraw(StageSpec("a", StageType.LLM, profile_key="a"), [work]),
            StageDraw(StageSpec("b", StageType.REGULAR, profile_key="b"), [2.0 * work]),
        ]
        edges, reveals = [("a", "b")], []
        if self.defect is not None:
            self.defect(stages, edges, reveals)
        return JobDraw(stages, edges, reveals)


_READERS = {
    "profiler_fit": lambda app: BayesianProfiler().fit([app], n_profile_jobs=5, seed=0),
    "priors": lambda app: build_priors({app.name: app}, SETTINGS),
    "cluster_sizing": lambda app: size_cluster(1.0, [app.name], {app.name: app}, SETTINGS),
    "job_sampling": lambda app: app.sample_job("j0", 0.0, make_rng(0)),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_every_reader_rejects_a_defective_draw(defect, reader):
    mutate, message = DEFECTS[defect]
    with pytest.raises(JobBuildError, match=f"toy: .*{message}"):
        _READERS[reader](Toy(mutate))


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_every_reader_accepts_the_sound_draw(reader):
    _READERS[reader](Toy())


def test_a_nan_stage_fails_the_profiler_fit():
    """The profiler reads draws and builds no task, so the draw check is its only guard."""

    class NanSearch(type(APPLICATIONS["web_search"])):
        def sample_draw(self, rng):
            draw = super().sample_draw(rng)
            stage = next(s for s in draw.stages if s.spec.key == "ws_think_0")
            stage.task_durations = [float("nan")] * len(stage.task_durations)
            return draw

    with pytest.raises(JobBuildError, match="web_search: stage 'ws_think_0' has task duration nan"):
        BayesianProfiler().fit([NanSearch()], n_profile_jobs=20, seed=1)
