"""The full simulation engine: all four Figure 2 components in the loop.

Per period the engine (1) has the monitoring module record the realized
demand and prices, (2) lets the controller (which embeds the analysis and
prediction module) compute and apply ``u_{k|k}``, (3) pushes the new
allocation to the request router, which (4) splits the *next* period's
realized demand and reports latency/SLA outcomes, all of which feed the
metrics collector.

Each period is a :class:`repro.control.loop.PeriodKernel` period with
``controller.plan`` as the solve: :func:`repro.control.loop.run_closed_loop`
runs the same kernel without the router, so the two agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from repro.control.loop import PeriodKernel
from repro.control.mpc import MPCController
from repro.routing.router import RequestRouter, RoutingDecision
from repro.simulation.metrics import MetricsCollector, RunSummary
from repro.simulation.monitoring import MonitoringModule
from repro.simulation.scenario import Scenario

__all__ = ["SimulationResult", "SimulationEngine", "scenario_kernel"]

_Result = TypeVar("_Result", bound="SimulationResult")


@dataclass(frozen=True)
class SimulationResult:
    """Everything a full engine run produced.

    Attributes:
        summary: aggregated metrics.
        states: realized allocations ``x_1..x_{K-1}``, shape ``(K-1, L, V)``.
        controls: applied moves, shape ``(K-1, L, V)``.
        routing: per-period routing decisions.
        monitoring: the filled monitoring module (observation history).
    """

    summary: RunSummary
    states: np.ndarray
    controls: np.ndarray
    routing: tuple[RoutingDecision, ...]
    monitoring: MonitoringModule

    @classmethod
    def from_kernel(cls: type[_Result], kernel: PeriodKernel, **extra: Any) -> _Result:
        """Assemble the result of the periods ``kernel`` has run so far.

        ``kernel`` must carry monitoring and metrics (see
        :func:`scenario_kernel`); ``extra`` fills a subclass's own fields.
        """
        assert kernel.monitoring is not None and kernel.metrics is not None
        states, controls, _ = kernel.trajectory()
        return cls(
            summary=kernel.metrics.summary(),
            states=states,
            controls=controls,
            routing=tuple(kernel.decisions),
            monitoring=kernel.monitoring,
            **extra,
        )


def scenario_kernel(scenario: Scenario, controller: MPCController) -> PeriodKernel:
    """The period kernel of a scenario run, all Figure 2 components in it.

    Raises:
        ValueError: if ``controller`` was built for other sites.
    """
    instance = scenario.instance
    if controller.instance.datacenters != instance.datacenters:
        raise ValueError("controller and scenario disagree on data centers")
    if controller.instance.locations != instance.locations:
        raise ValueError("controller and scenario disagree on locations")
    return PeriodKernel(
        controller,
        scenario.demand,
        scenario.prices,
        monitoring=MonitoringModule(
            num_locations=instance.num_locations,
            num_datacenters=instance.num_datacenters,
        ),
        # The SLA policy works in seconds; the topology layer reports ms.
        router=RequestRouter(
            network_latency=scenario.latency.latency_ms * 1e-3,
            demand_coefficients=instance.demand_coefficients,
            service_rate=scenario.sla.service_rate,
            max_latency=scenario.sla.max_latency,
        ),
        metrics=MetricsCollector(),
    )


class SimulationEngine:
    """Glues controller, router, monitoring and metrics over a scenario.

    Args:
        scenario: the setting to run (realized demand/prices inside).
        controller: an MPC controller built over ``scenario.instance``
            (its predictors define the analysis-and-prediction module).
    """

    def __init__(self, scenario: Scenario, controller: MPCController) -> None:
        self.scenario = scenario
        self.controller = controller
        self.kernel = scenario_kernel(scenario, controller)

    def run(self) -> SimulationResult:
        """Run the whole scenario horizon."""
        kernel, controller = self.kernel, self.controller
        while kernel.period < kernel.num_steps:
            kernel.run_period(lambda k, horizon: controller.plan(horizon))
        return SimulationResult.from_kernel(kernel)
