"""The full simulation engine: all four Figure 2 components in the loop.

Per period the engine (1) has the monitoring module record the realized
demand and prices, (2) lets the controller (which embeds the analysis and
prediction module) compute and apply ``u_{k|k}``, (3) pushes the new
allocation to the request router, which (4) splits the *next* period's
realized demand and reports latency/SLA outcomes, all of which feed the
metrics collector.

This is the architecture-faithful superset of
:func:`repro.control.loop.run_closed_loop` (which skips routing); the two
agree on costs, which an integration test pins down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.horizon import effective_horizon
from repro.control.mpc import MPCController
from repro.routing.router import RequestRouter, RoutingDecision
from repro.simulation.metrics import MetricsCollector, RunSummary
from repro.simulation.monitoring import MonitoringModule
from repro.simulation.scenario import Scenario

__all__ = ["SimulationResult", "SimulationEngine"]


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


class SimulationEngine:
    """Glues controller, router, monitoring and metrics over a scenario.

    Args:
        scenario: the setting to run (realized demand/prices inside).
        controller: an MPC controller built over ``scenario.instance``
            (its predictors define the analysis-and-prediction module).
    """

    def __init__(
        self,
        scenario: Scenario,
        controller: MPCController,
    ) -> None:
        instance = scenario.instance
        if controller.instance.datacenters != instance.datacenters:
            raise ValueError("controller and scenario disagree on data centers")
        if controller.instance.locations != instance.locations:
            raise ValueError("controller and scenario disagree on locations")
        self.scenario = scenario
        self.controller = controller
        self.monitoring = MonitoringModule(
            num_locations=instance.num_locations,
            num_datacenters=instance.num_datacenters,
        )
        # The SLA policy works in seconds; the topology layer reports ms.
        self.router = RequestRouter(
            network_latency=scenario.latency.latency_ms * 1e-3,
            demand_coefficients=instance.demand_coefficients,
            service_rate=scenario.sla.service_rate,
            max_latency=scenario.sla.max_latency,
        )
        self.metrics = MetricsCollector()

    def run(self) -> SimulationResult:
        """Run the whole scenario horizon.

        Returns:
            The :class:`SimulationResult`.
        """
        demand = self.scenario.demand
        prices = self.scenario.prices
        K = self.scenario.num_periods
        num_steps = K - 1
        instance = self.controller.instance
        L, V = instance.num_datacenters, instance.num_locations

        states = np.empty((num_steps, L, V))
        controls = np.empty((num_steps, L, V))
        decisions: list[RoutingDecision] = []

        for k in range(num_steps):
            self.monitoring.record(demand[:, k], prices[:, k])
            observation = self.monitoring.latest
            horizon = effective_horizon(
                self.controller.config.window, k, num_steps
            )
            step = self.controller.step(
                observation.demand, observation.prices, horizon=horizon
            )
            states[k] = step.new_state
            controls[k] = step.applied_control

            self.router.update_allocation(step.new_state)
            decision = self.router.route(demand[:, k + 1])
            decisions.append(decision)

            self.metrics.record_period(
                allocation=step.new_state,
                control=step.applied_control,
                prices=prices[:, k + 1],
                recon_weights=instance.reconfiguration_weights,
                assignment=decision.assignment,
                latency=decision.latency,
                unserved=float(decision.unserved.sum()),
                sla_violated=not decision.all_sla_satisfied,
            )

        return SimulationResult(
            summary=self.metrics.summary(),
            states=states,
            controls=controls,
            routing=tuple(decisions),
            monitoring=self.monitoring,
        )
