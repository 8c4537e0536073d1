"""Simulation sessions: machine + kernel + workload + monitor."""

from repro.sim._session import Simulation, TracedRun
from repro.sim.config import CALIBRATIONS, WorkloadCalibration

__all__ = [
    "Simulation",
    "TracedRun",
    "CALIBRATIONS",
    "WorkloadCalibration",
]
