"""Closed-loop simulation: one control period, shared by every driver.

The controller sees only past observations (through its predictors); the
loop then scores each applied move against the *realized* next-period
demand and price — so prediction error shows up as either over-provisioning
cost or SLA shortfall, exactly the trade-off Figures 9/10 explore.

Period convention: at period ``k`` the controller observes ``(D_k, p_k)``,
moves to ``x_{k+1}``, and that allocation serves the realized demand
``D_{k+1}`` at realized prices ``p_{k+1}``.  A run over a ``(V, K)`` demand
matrix therefore performs ``K - 1`` control steps.

:class:`PeriodKernel` runs that period once for every single-provider
driver: :func:`run_closed_loop` (no router, optionally under data-center
outages), :class:`repro.simulation.engine.SimulationEngine` (monitoring,
router and metrics plugged in) and :class:`repro.service.PlacementService`
(the engine's components behind the degradation ladder).  Period ``k``
applies the capacity-schedule row of ``k+1`` and evicts stranded servers,
observes ``(D_k, p_k)``, solves the clamped horizon through the driver's
``solve``, records the new state and realized control, then routes and
scores ``D_{k+1}`` when a router is present.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.control.horizon import effective_horizon
from repro.control.mpc import MPCController, MPCStep
from repro.core.costs import CostBreakdown, total_cost
from repro.core.state import Trajectory

if TYPE_CHECKING:
    from repro.routing.router import RequestRouter, RoutingDecision
    from repro.simulation.failures import OutageEvent
    from repro.simulation.metrics import MetricsCollector
    from repro.simulation.monitoring import MonitoringModule

__all__ = ["ClosedLoopResult", "PeriodKernel", "Solve", "run_closed_loop"]

#: ``solve(k, horizon)`` plans period ``k`` on the kernel's (already
#: observed) controller.
Solve = Callable[[int, int], MPCStep]


class PeriodKernel:
    """Runs the control periods of one provider over realized data.

    Args:
        controller: the controller observed through and handed to ``solve``.
        demand: realized demand, shape ``(V, K)`` with ``K >= 2``.
        prices: realized per-server prices, shape ``(L, K)``.
        capacities: optional capacity schedule, shape ``(K, L)``.
        monitoring, router, metrics: optional Figure 2 components (metrics
            score routed periods only).

    Raises:
        ValueError: on shape mismatches or too-short runs.
    """

    def __init__(
        self,
        controller: MPCController,
        demand: np.ndarray,
        prices: np.ndarray,
        *,
        capacities: np.ndarray | None = None,
        monitoring: MonitoringModule | None = None,
        router: RequestRouter | None = None,
        metrics: MetricsCollector | None = None,
    ) -> None:
        demand = np.asarray(demand, dtype=float)
        prices = np.asarray(prices, dtype=float)
        V, L = controller.instance.num_locations, controller.instance.num_datacenters
        if demand.ndim != 2 or demand.shape[0] != V:
            raise ValueError(f"demand must be ({V}, K), got {demand.shape}")
        K = demand.shape[1]
        if K < 2:
            raise ValueError("need at least 2 periods (one observation, one step)")
        if prices.shape != (L, K):
            raise ValueError(f"prices must be ({L}, {K}), got {prices.shape}")
        self.controller = controller
        self.demand = demand
        self.prices = prices
        self.capacities = capacities
        self.monitoring = monitoring
        self.router = router
        self.metrics = metrics
        self.states: list[np.ndarray] = []
        self.controls: list[np.ndarray] = []
        self.decisions: list[RoutingDecision] = []

    @property
    def num_steps(self) -> int:
        """Controllable periods (``K - 1``)."""
        return self.demand.shape[1] - 1

    @property
    def period(self) -> int:
        """Zero-based index of the next period to run."""
        return len(self.states)

    def run_period(
        self, solve: Solve, observed: tuple[np.ndarray, np.ndarray] | None = None
    ) -> MPCStep:
        """Run the next period and return ``solve``'s step.

        ``observed`` replaces the realized ``(demand, prices)`` telemetry
        the controller sees (e.g. with injected faults).
        """
        k = self.period
        controller = self.controller
        eviction = self._evict(k)
        demand, prices = (self.demand[:, k], self.prices[:, k]) if observed is None else observed
        if self.monitoring is not None:
            observation = self.monitoring.record(demand, prices)
            demand, prices = observation.demand, observation.prices
        controller.observe(demand, prices)
        step = solve(k, effective_horizon(controller.config.window, k, self.num_steps))
        # Evicted servers leave the system: that move is reconfiguration.
        control = step.applied_control if eviction is None else step.applied_control + eviction
        self.states.append(step.new_state)
        self.controls.append(control)
        if self.router is not None:
            self.router.update_allocation(step.new_state)
            decision = self.router.route(self.demand[:, k + 1])
            self.decisions.append(decision)
            if self.metrics is not None:
                self.metrics.record_period(
                    allocation=step.new_state,
                    control=control,
                    prices=self.prices[:, k + 1],
                    recon_weights=controller.instance.reconfiguration_weights,
                    assignment=decision.assignment,
                    latency=decision.latency,
                    unserved=float(decision.unserved.sum()),
                    sla_violated=not decision.all_sla_satisfied,
                )
        return step

    def _evict(self, k: int) -> np.ndarray | None:
        """Apply the schedule row planned for; return the eviction move."""
        if self.capacities is None:
            return None
        controller = self.controller
        capacity = self.capacities[k + 1]
        if not np.array_equal(capacity, controller.instance.capacities):
            controller.set_capacities(capacity)
        # A failed site cannot carry yesterday's allocation into the plan's
        # initial state: scale each over-full data center down to capacity.
        state = controller.state
        used = controller.instance.server_size * state.sum(axis=1)
        over = used > capacity + 1e-9
        if not over.any():
            return None
        evicted = state.copy()
        evicted[over] *= (capacity[over] / used[over])[:, None]
        controller.set_state(evicted)
        return evicted - state

    def trajectory(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(states, controls, unmet)`` of the periods run so far.

        ``unmet``, shape ``(n, V)``, is the realized demand each allocation
        could not serve under the SLA.
        """
        coeff = self.controller.instance.demand_coefficients  # (L, V)
        states = np.array(self.states).reshape(-1, *coeff.shape)
        controls = np.array(self.controls).reshape(-1, *coeff.shape)
        served = (coeff * states).sum(axis=1)
        unmet = np.maximum(self.demand[:, 1 : len(states) + 1].T - served, 0.0)
        return states, controls, unmet


@dataclass(frozen=True)
class ClosedLoopResult:
    """Everything a closed-loop run produced.

    Attributes:
        trajectory: realized states/controls over the run.
        costs: realized cost audit (allocation at realized prices +
            reconfiguration).
        unmet_demand: shape ``(K-1, V)`` — positive where the realized
            demand exceeded what the allocation could serve under the SLA
            (prediction shortfall); zero when the SLA was met.
        realized_demand: the ``(V, K)`` demand the run was scored against.
        realized_prices: the ``(L, K)`` prices the run was scored against.
        steps: per-period controller outputs (forecasts, plans).
    """

    trajectory: Trajectory
    costs: CostBreakdown
    unmet_demand: np.ndarray
    realized_demand: np.ndarray
    realized_prices: np.ndarray
    steps: tuple[MPCStep, ...]

    @property
    def total_cost(self) -> float:
        return self.costs.total

    @property
    def total_unmet_demand(self) -> float:
        return float(self.unmet_demand.sum())

    @property
    def sla_violation_periods(self) -> int:
        """Number of periods with any unmet demand."""
        return int(np.any(self.unmet_demand > 1e-9, axis=1).sum())

    def servers_per_datacenter(self) -> np.ndarray:
        """Allocation per data center over time, shape ``(K-1, L)``."""
        return self.trajectory.servers_per_datacenter()


def run_closed_loop(
    controller: MPCController,
    demand: np.ndarray,
    prices: np.ndarray,
    outages: Sequence[OutageEvent] = (),
) -> ClosedLoopResult:
    """Drive ``controller`` over realized ``demand``/``prices`` trajectories.

    Under ``outages`` the controller re-plans each period against the
    capacity actually available, with no advance warning, after servers
    stranded at a failed site are evicted; it should run in elastic mode
    (:attr:`MPCConfig.slack_penalty`), as the survivors may not cover demand.

    Args:
        controller: the MPC controller; it runs on from its current state,
            predictor histories and workspace.
        demand: realized demand, shape ``(V, K)`` with ``K >= 2``.
        prices: realized per-server prices, shape ``(L, K)``.
        outages: data-center failure schedule (none by default).

    Returns:
        The :class:`ClosedLoopResult`; unmet demand includes outage
        shortfall and controls include evictions.

    Raises:
        ValueError: on shape mismatches or too-short runs.
        DSPPInfeasibleError: if some period's forecast cannot be served.
    """
    initial_state = controller.state
    kernel = PeriodKernel(controller, demand, prices)
    if outages:
        # Imported here: repro.simulation itself builds on this module.
        from repro.simulation.failures import capacity_schedule

        # A full outage is modelled as an epsilon capacity: the instance
        # requires positive capacities, and epsilon admits no real server.
        schedule = capacity_schedule(
            controller.instance.capacities, kernel.num_steps + 1, list(outages)
        )
        kernel.capacities = np.maximum(schedule, 1e-9)
    steps = tuple(
        kernel.run_period(lambda k, horizon: controller.plan(horizon))
        for _ in range(kernel.num_steps)
    )
    states, controls, unmet = kernel.trajectory()
    weights = controller.instance.reconfiguration_weights
    return ClosedLoopResult(
        trajectory=Trajectory(initial_state, states, controls),
        costs=total_cost(states, controls, kernel.prices[:, 1:], weights),
        unmet_demand=unmet,
        realized_demand=kernel.demand.copy(),
        realized_prices=kernel.prices.copy(),
        steps=steps,
    )
