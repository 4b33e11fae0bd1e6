"""Simulated multi-GPU communication: collectives, ring allreduce, cost model."""

from repro.comm.communicator import SimCommunicator
from repro.comm.faults import CollectiveTimeout, FaultPlan, RankFailure
from repro.comm.cost_model import (
    ClusterSpec,
    OverlapResult,
    ring_allreduce_time,
    simulate_overlap,
)
from repro.comm.ring import RingTrace, ring_allreduce
from repro.comm.scaling import ComputeModel, ScalingPoint, model_iteration

__all__ = [
    "SimCommunicator",
    "CollectiveTimeout",
    "FaultPlan",
    "RankFailure",
    "ClusterSpec",
    "OverlapResult",
    "ring_allreduce_time",
    "simulate_overlap",
    "RingTrace",
    "ring_allreduce",
    "ComputeModel",
    "ScalingPoint",
    "model_iteration",
]
