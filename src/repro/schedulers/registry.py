"""Name-based scheduler construction: the single scheduler factory.

Every part of the harness — the declarative :mod:`repro.api` front door,
the golden-trace tests — builds schedulers through
:func:`create_scheduler`.  The factory accepts the offline artifacts a
scheduler may need (``priors`` for the duration-based baselines, a fitted
``profiler`` plus experiment ``settings`` for the LLMSched family,
including its three ablation variants) so no caller has to special-case
construction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Mapping, Optional

from repro.schedulers.argus import ArgusScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.carbyne import CarbyneScheduler
from repro.schedulers.decima import DecimaScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.preemptive import PreemptiveSrtfScheduler
from repro.schedulers.priors import ApplicationPriors
from repro.schedulers.sjf import SjfScheduler
from repro.schedulers.slo import SloServingScheduler
from repro.schedulers.srtf import SrtfScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.api.prep import ExperimentSettings
    from repro.core.profiler import BayesianProfiler

__all__ = [
    "PAPER_BASELINES",
    "available_schedulers",
    "create_scheduler",
    "scheduler_requirements",
    "check_scheduler_kwargs",
    "LLMSCHED_VARIANTS",
]

#: Baseline names in the order the paper's figures list them (LLMSched
#: is appended last where a figure shows it).
PAPER_BASELINES = ["fcfs", "sjf", "fair", "argus", "decima", "carbyne"]

#: LLMSched plus its ablation variants (Fig. 10); all need a fitted profiler.
LLMSCHED_VARIANTS = (
    "llmsched",
    "llmsched_wo_bn",
    "llmsched_wo_uncertainty",
    "llmsched_wo_calibration",
)

#: Schedulers that estimate durations from per-application priors.
_NEEDS_PRIORS = frozenset({"sjf", "srtf", "srtf_preempt", "carbyne", "decima"})

#: ``slo_serving`` parameters the spec layer fills from the ``slo`` section
#: and ``settings.latency_slope``, so that the scheduler chases the targets
#: goodput is metered against; a spec's kwargs may not set them.
_FROM_THE_SPEC = ("slo_targets", "latency_slope")

#: Constructor classes per baseline name (kwargs validation + forwarding).
_SCHEDULER_CLASSES: Dict[str, Callable[..., Scheduler]] = {
    "fcfs": FcfsScheduler,
    "fair": FairScheduler,
    "sjf": SjfScheduler,
    "srtf": SrtfScheduler,
    "srtf_preempt": PreemptiveSrtfScheduler,
    "argus": ArgusScheduler,
    "carbyne": CarbyneScheduler,
    "decima": DecimaScheduler,
    "slo_serving": SloServingScheduler,
}


def available_schedulers(every: bool = False) -> List[str]:
    """Names accepted by :func:`create_scheduler`.

    By default, the paper's schedulers (all non-preemptive), which harness
    code sweeps.  ``every=True`` appends the preemptive SRTF, the SLO-aware
    serving scheduler (token-model runs only — it degenerates to arrival
    order without token-annotated requests) and the LLMSched ablation
    variants of Fig. 10.
    """
    names = list(PAPER_BASELINES) + ["srtf", "llmsched"]
    if every:
        names += ["srtf_preempt", "slo_serving"]
        names.extend(v for v in LLMSCHED_VARIANTS if v != "llmsched")
    return names


def scheduler_requirements(name: str) -> FrozenSet[str]:
    """Which offline artifacts a scheduler needs: ``priors``, ``profiler``.

    Unknown names raise the same actionable error as :func:`create_scheduler`
    so validation can happen before any expensive offline preparation.
    """
    key = name.lower()
    if key in _NEEDS_PRIORS:
        return frozenset({"priors"})
    if key in LLMSCHED_VARIANTS:
        return frozenset({"profiler"})
    if key in _SCHEDULER_CLASSES:
        return frozenset()
    raise ValueError(
        f"unknown scheduler {name!r}; available: "
        f"{available_schedulers(every=True)}"
    )


def check_scheduler_kwargs(name: str, kwargs: Mapping[str, object]) -> None:
    """Reject kwargs the named scheduler cannot accept, with the valid set.

    For the LLMSched family the kwargs override
    :class:`~repro.core.llmsched.LLMSchedConfig` fields, and their values
    are checked by building the config; for the baselines they must match
    constructor parameters.  Called by the declarative spec layer so a
    typo or a bad value fails at validation time (``repro validate``), not
    after the expensive profiler fit.
    """
    if not kwargs:
        scheduler_requirements(name)
        return
    key = name.lower()
    if key in LLMSCHED_VARIANTS:
        import dataclasses

        from repro.core.llmsched import LLMSchedConfig

        valid = {f.name for f in dataclasses.fields(LLMSchedConfig)}
    else:
        cls = _SCHEDULER_CLASSES.get(key)
        if cls is None:
            scheduler_requirements(key)  # raises the unknown-scheduler error
            return
        supplied = sorted(set(kwargs) & set(_FROM_THE_SPEC))
        if supplied:
            raise ValueError(
                f"scheduler {name!r} does not take kwargs {supplied}: it reads its SLO "
                "targets from the spec's `slo` section and its latency slope from "
                "`settings.latency_slope`"
            )
        import inspect

        # ``priors`` is supplied by create_scheduler itself, and an SRTF
        # ``remaining_estimator`` (a function) has no JSON form.
        valid = {
            p
            for p in inspect.signature(cls).parameters
            if p not in ("priors", "remaining_estimator", *_FROM_THE_SPEC)
        }
    unknown = sorted(set(kwargs) - valid)
    if unknown:
        raise ValueError(
            f"scheduler {name!r} does not accept kwargs {unknown}; valid: {sorted(valid)}"
        )
    # Build what the kwargs configure: a bad value fails here, naming its
    # field.  Empty priors stand in for the fitted ones.
    if key in LLMSCHED_VARIANTS:
        replace(LLMSchedConfig(), **kwargs)
    else:
        create_scheduler(key, priors=ApplicationPriors({}), **kwargs)


def create_scheduler(
    name: str,
    priors: Optional[ApplicationPriors] = None,
    profiler: Optional["BayesianProfiler"] = None,
    settings: Optional["ExperimentSettings"] = None,
    **kwargs,
) -> Scheduler:
    """Instantiate a scheduler by name.

    The duration-based baselines require ``priors``.  The LLMSched family
    (``llmsched`` and the ``llmsched_wo_*`` ablations) requires a fitted
    ``profiler``; ``settings`` (an :class:`~repro.api.prep.ExperimentSettings`)
    supplies the Algorithm 1 config and the latency-profile slope used by the
    batching-aware calibrator, defaulting to the paper's values.  ``kwargs``
    go to a baseline's constructor, or override fields of the LLMSched
    config.
    """
    key = name.lower()
    if key in LLMSCHED_VARIANTS:
        return _create_llmsched(key, profiler, settings, **kwargs)
    cls = _SCHEDULER_CLASSES.get(key)
    if cls is None:
        raise ValueError(
            f"unknown scheduler {name!r}; available: "
            f"{available_schedulers(every=True)}"
        )
    if key in _NEEDS_PRIORS:
        if priors is None:
            raise ValueError(f"scheduler {key!r} requires application priors")
        return cls(priors=priors, **kwargs)
    return cls(**kwargs)


def _create_llmsched(
    key: str,
    profiler: Optional["BayesianProfiler"],
    settings: Optional["ExperimentSettings"],
    **kwargs: object,
) -> Scheduler:
    # Imported lazily to avoid a circular import (core depends on schedulers).
    from repro.core.calibration import BatchingAwareCalibrator
    from repro.core.llmsched import LLMSchedConfig, LLMSchedScheduler
    from repro.simulator.latency import DecodingLatencyProfile

    if profiler is None:
        raise ValueError(
            f"scheduler {key!r} requires a fitted profiler "
            "(see repro.api.prep.build_profiler)"
        )
    config = settings.llmsched if settings is not None else LLMSchedConfig()
    if kwargs:
        config = replace(config, **kwargs)
    slope = settings.latency_slope if settings is not None else 0.06
    if key == "llmsched_wo_bn":
        config = replace(config, use_bn=False)
    elif key == "llmsched_wo_uncertainty":
        config = replace(config, use_uncertainty=False)
    # Extension ablation: disable Eq. 2 by calibrating against a flat latency
    # profile (batch size has no effect on the estimates).
    calibrator_slope = 0.0 if key == "llmsched_wo_calibration" else slope
    scheduler = LLMSchedScheduler(
        profiler,
        config=config,
        calibrator=BatchingAwareCalibrator(DecodingLatencyProfile(slope=calibrator_slope)),
    )
    if key != "llmsched":
        scheduler.name = key
    return scheduler
