"""Wind, drag and touch-force estimation for a whiskered multirotor."""

from .vehicle import VehicleParams
from .whisker import WhiskerRig, SensorMount, default_rig
from .ukf import BeliefState, ProcessNoise
from .logio import FlightLog, load_log, save_log
from .sim import Scenario, run_scenario

__all__ = [
    "VehicleParams",
    "WhiskerRig",
    "SensorMount",
    "default_rig",
    "BeliefState",
    "ProcessNoise",
    "FlightLog",
    "load_log",
    "save_log",
    "Scenario",
    "run_scenario",
]
