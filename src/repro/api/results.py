"""Uniform run results: what every :func:`repro.api.run` call returns.

A :class:`Result` bundles the metrics of a run with the *resolved* spec
that produced it (auto-sized cluster configs filled in), the workload RNG
seed and the wall-clock cost, and serializes to one schema consumed by the
CLI's ``--output``, the benchmark files (``BENCH_*.json``) and the CI
regression gate — single-cluster and federated runs alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.simulator.federation import FederationMetrics
from repro.simulator.metrics import SimulationMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import ScenarioSpec

__all__ = ["Result"]

AnyMetrics = Union[SimulationMetrics, FederationMetrics]


@dataclass
class Result:
    """Metrics + resolved spec + seed + wall-clock of one scenario run."""

    spec: "ScenarioSpec"
    metrics: AnyMetrics
    seed: int
    wall_clock_sec: float

    # Passthrough views ---------------------------------------------------- #
    @property
    def average_jct(self) -> float:
        return self.metrics.average_jct

    @property
    def job_completion_times(self) -> Dict[str, float]:
        return self.metrics.job_completion_times

    @property
    def makespan(self) -> float:
        return self.metrics.makespan

    @property
    def is_federated(self) -> bool:
        return isinstance(self.metrics, FederationMetrics)

    @property
    def serving(self) -> Optional[Dict[str, object]]:
        """The versioned serving summary, or None for non-token-model runs.

        Single-cluster runs with a ``workload.token_mix`` carry per-request
        TTFT/TPOT/ITL samples and SLO goodput (see
        :meth:`~repro.simulator.metrics.SimulationMetrics.serving_summary`);
        everything else — legacy specs, federated fleets — reports None.
        """
        metrics = self.metrics
        if isinstance(metrics, SimulationMetrics) and metrics.has_serving_samples:
            return metrics.serving_summary()
        return None

    # Serialization -------------------------------------------------------- #
    def to_dict(self, include_spec: bool = True) -> Dict[str, object]:
        """One schema for every run kind (fed straight into BENCH_*.json).

        ``include_spec=False`` drops the resolved spec for lean artifacts;
        the metrics payload is ``metrics.to_dict()`` either way, so the
        benchmark regression gate reads the same keys everywhere.  Token-
        model runs additionally surface the versioned ``serving`` summary
        as a top-level block — the stable serving-metrics API — alongside
        its copy inside ``metrics``.
        """
        out: Dict[str, object] = {
            "schema_version": self.spec.schema_version,
            "seed": self.seed,
            "wall_clock_sec": self.wall_clock_sec,
            "metrics": self.metrics.to_dict(),
        }
        serving = self.serving
        if serving is not None:
            out["serving"] = serving
        if include_spec:
            out["spec"] = self.spec.to_dict()
        return out

    def to_json(self, indent: int = 2, include_spec: bool = True) -> str:
        return (
            json.dumps(self.to_dict(include_spec=include_spec), indent=indent, sort_keys=True)
            + "\n"
        )
