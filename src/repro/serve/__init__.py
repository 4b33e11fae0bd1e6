"""High-throughput inference serving for trained potentials."""

from repro.serve.engine import (
    EngineClosed,
    EngineOverloaded,
    EngineStats,
    InferenceEngine,
    Prediction,
)
from repro.serve.faults import DeadlineExceeded, WorkerFailure, WorkerFaultPlan
from repro.serve.scheduler import Autoscaler, AutoscaleConfig, FairScheduler
from repro.serve.tenants import (
    DEFAULT_CLASS,
    DEFAULT_TENANT,
    ClassPolicy,
    TenantPolicy,
    TenantStats,
    percentile,
    standard_classes,
)

__all__ = [
    "Autoscaler",
    "AutoscaleConfig",
    "ClassPolicy",
    "DEFAULT_CLASS",
    "DEFAULT_TENANT",
    "DeadlineExceeded",
    "EngineClosed",
    "EngineOverloaded",
    "EngineStats",
    "InferenceEngine",
    "Prediction",
    "TenantPolicy",
    "TenantStats",
    "WorkerFailure",
    "WorkerFaultPlan",
    "percentile",
    "standard_classes",
]
