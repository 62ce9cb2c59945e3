"""Cluster simulator substrate.

The paper evaluates LLMSched both on a real testbed (H800 + vLLM) and on a
simulator that models the one property of LLM serving that matters for
scheduling: decoding latency depends on how many requests share the batch,
so the remaining duration of every running LLM task changes whenever the
batch composition changes.  This subpackage implements that simulator as a
discrete-event engine:

* :mod:`~repro.simulator.latency` — batch-size → decoding-latency profile,
* :mod:`~repro.simulator.executor` — regular executors (one task at a time)
  and batched LLM executors (progress rescaling on batch changes),
* :mod:`~repro.simulator.pool` — named, heterogeneous executor pools with
  incremental capacity accounting and drain-based elasticity,
* :mod:`~repro.simulator.cluster` — composition of pools plus the capacity
  surface the engine uses,
* :mod:`~repro.simulator.placement` — pluggable policies mapping scheduler
  decisions onto pools (greedy first-fit, best-fit, pool affinity),
* :mod:`~repro.simulator.autoscaler` — threshold/target-load pool resizing
  at periodic scale events,
* :mod:`~repro.simulator.engine` — the event loop driving jobs, executors,
  a pluggable scheduler and (optionally) preemption + autoscaling,
* :mod:`~repro.simulator.federation` — sharded multi-cluster fleets: job
  routers, a shared-event-clock federated engine and cross-shard
  checkpoint migration,
* :mod:`~repro.simulator.metrics` — JCT / utilisation / preemption /
  scale-event accounting.
"""

from repro.simulator.latency import DecodingLatencyProfile
from repro.simulator.executor import LLMExecutor, RegularExecutor
from repro.simulator.pool import ExecutorPool, PoolSpec
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.placement import (
    BestFitPlacement,
    GreedyFirstFitPlacement,
    PlacementPolicy,
    PoolAffinityPlacement,
    create_placement_policy,
)
from repro.simulator.autoscaler import AutoscalerConfig, ScaleEvent, ThresholdAutoscaler
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.async_sched import (
    AsyncConfig,
    AsyncSchedulerBackend,
    DecisionLatencyModel,
    FixedLatency,
    PerJobLinearLatency,
    SampledLatency,
    create_latency_model,
)
from repro.simulator.engine import SimulationEngine, SimulationConfig
from repro.simulator.events import EventQueue, SimulationEvent
from repro.simulator.federation import (
    FederatedCluster,
    FederatedSimulationEngine,
    FederationMetrics,
    HashRouter,
    JobRouter,
    LeastLoadedRouter,
    MigrationConfig,
    MigrationEvent,
    StaleLeastLoadedRouter,
    TypeAffinityRouter,
    create_job_router,
)
from repro.simulator.reference import ReferenceSimulationEngine

__all__ = [
    "ReferenceSimulationEngine",
    "DecodingLatencyProfile",
    "RegularExecutor",
    "LLMExecutor",
    "ExecutorPool",
    "PoolSpec",
    "Cluster",
    "ClusterConfig",
    "PlacementPolicy",
    "GreedyFirstFitPlacement",
    "BestFitPlacement",
    "PoolAffinityPlacement",
    "create_placement_policy",
    "AutoscalerConfig",
    "ScaleEvent",
    "ThresholdAutoscaler",
    "SimulationMetrics",
    "SimulationEngine",
    "SimulationConfig",
    "AsyncConfig",
    "AsyncSchedulerBackend",
    "DecisionLatencyModel",
    "FixedLatency",
    "PerJobLinearLatency",
    "SampledLatency",
    "create_latency_model",
    "EventQueue",
    "SimulationEvent",
    "FederatedCluster",
    "FederatedSimulationEngine",
    "FederationMetrics",
    "JobRouter",
    "HashRouter",
    "LeastLoadedRouter",
    "StaleLeastLoadedRouter",
    "TypeAffinityRouter",
    "MigrationConfig",
    "MigrationEvent",
    "create_job_router",
]
