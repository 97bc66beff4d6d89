"""Flow-level (fluid, max-min fair) simulator."""

from .fairshare import FairShareState, max_min_allocation
from .simulator import FlowLevelSimulation, run_flow_experiment

__all__ = [
    "max_min_allocation",
    "FairShareState",
    "FlowLevelSimulation",
    "run_flow_experiment",
]
