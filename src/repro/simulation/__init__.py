"""Discrete-time simulation layer (the Figure 2 system architecture).

* :mod:`repro.simulation.scenario` — scenario builder gluing topology,
  workload and pricing into a ready-to-run DSPP setting (including the
  paper's own evaluation setup, :func:`build_paper_scenario`).
* :mod:`repro.simulation.monitoring` — the monitoring module (demand and
  price observation streams).
* :mod:`repro.simulation.metrics` — cost/latency/reconfiguration metric
  collection and summaries.
* :mod:`repro.simulation.engine` — the full closed-loop engine with
  request routers in the loop (the period kernel of
  :mod:`repro.control.loop` with every Figure 2 component plugged in).
* :mod:`repro.simulation.queue_sim` — event-driven queue simulation that
  validates the analytical M/M/1 layer empirically.
* :mod:`repro.simulation.failures` — data-center outage events and the
  capacity schedule ``run_closed_loop(..., outages=...)`` plans against.
"""

from repro.simulation.scenario import Scenario, build_paper_scenario, build_small_scenario
from repro.simulation.monitoring import MonitoringModule, Observation
from repro.simulation.metrics import MetricsCollector, RunSummary
from repro.simulation.engine import SimulationEngine, SimulationResult
from repro.simulation.failures import OutageEvent, capacity_schedule
from repro.simulation.queue_sim import (
    EmpiricalSLAResult,
    QueueSimResult,
    effective_sample_size,
    simulate_mm1,
    simulate_mmc,
    simulate_split_servers,
    sojourn_mean_ci,
    validate_sla_empirically,
)

__all__ = [
    "Scenario",
    "build_paper_scenario",
    "build_small_scenario",
    "MonitoringModule",
    "Observation",
    "MetricsCollector",
    "RunSummary",
    "SimulationEngine",
    "SimulationResult",
    "OutageEvent",
    "capacity_schedule",
    "EmpiricalSLAResult",
    "QueueSimResult",
    "effective_sample_size",
    "sojourn_mean_ci",
    "simulate_mm1",
    "simulate_mmc",
    "simulate_split_servers",
    "validate_sla_empirically",
]
