"""Wind, drag and touch-force estimation for a whiskered multirotor."""

from .vehicle import VehicleParams, WrenchInput
from .whisker import WhiskerRig, SensorMount, default_rig
from .ukf import BeliefState, ProcessNoise, OdometryMeasurement
from .logio import FlightLog, load_log, save_log
from .sim import Scenario, run_scenario

__all__ = [
    "VehicleParams",
    "WrenchInput",
    "WhiskerRig",
    "SensorMount",
    "default_rig",
    "BeliefState",
    "ProcessNoise",
    "OdometryMeasurement",
    "FlightLog",
    "load_log",
    "save_log",
    "Scenario",
    "run_scenario",
]
