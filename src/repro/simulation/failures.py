"""Data-center failure injection.

Section III lists "system failure" next to flash crowds as the
unexpected events a dynamic controller must survive.  A failure here is a
temporary capacity collapse at one data center: capacity drops to a
fraction (0 = total outage) for a window of periods, then recovers.  The
failure-aware closed loop feeds the controller the *current* capacity
vector before each decision — the controller sees outages only as they
happen (no failure prediction), exactly like a monitoring-driven system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.horizon import effective_horizon
from repro.control.loop import ClosedLoopResult
from repro.control.mpc import MPCController, MPCStep
from repro.core.costs import total_cost
from repro.core.state import Trajectory

__all__ = ["OutageEvent", "capacity_schedule", "run_closed_loop_with_failures"]


@dataclass(frozen=True)
class OutageEvent:
    """One capacity-loss event at a single data center.

    Attributes:
        datacenter_index: which data center fails.
        start_period: first affected control period.
        duration: number of affected periods (>= 1).
        remaining_fraction: capacity retained during the outage (0 for a
            full outage, 0.5 for losing half the machines, ...).
    """

    datacenter_index: int
    start_period: int
    duration: int
    remaining_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.datacenter_index < 0 or self.start_period < 0:
            raise ValueError("indices must be nonnegative")
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1, got {self.duration}")
        if not 0.0 <= self.remaining_fraction < 1.0:
            raise ValueError(
                f"remaining_fraction must be in [0, 1), got {self.remaining_fraction}"
            )

    def is_active(self, period: int) -> bool:
        return self.start_period <= period < self.start_period + self.duration


def capacity_schedule(
    base_capacity: np.ndarray, num_periods: int, outages: list[OutageEvent]
) -> np.ndarray:
    """Materialize the per-period capacity matrix under the outages.

    Args:
        base_capacity: nominal capacities, shape ``(L,)``.
        num_periods: schedule length.
        outages: events to apply (overlapping events at the same DC
            compound multiplicatively).

    Returns:
        Array of shape ``(num_periods, L)``.

    Raises:
        IndexError: if an event names a nonexistent data center.
    """
    base_capacity = np.asarray(base_capacity, dtype=float)
    L = base_capacity.size
    schedule = np.tile(base_capacity, (num_periods, 1))
    for event in outages:
        if event.datacenter_index >= L:
            raise IndexError(
                f"outage at data center {event.datacenter_index} but only {L} exist"
            )
        for period in range(num_periods):
            if event.is_active(period):
                schedule[period, event.datacenter_index] *= event.remaining_fraction
    return schedule


def run_closed_loop_with_failures(
    controller: MPCController,
    demand: np.ndarray,
    prices: np.ndarray,
    outages: list[OutageEvent],
) -> ClosedLoopResult:
    """Closed loop where capacities change under a failure schedule.

    Before each control period the controller's capacity vector is set to
    the schedule's current value — it re-plans against what is actually
    available, but has no advance warning.  Servers stranded at a failed
    site are evicted (state clamped to the surviving capacity) *before*
    the controller plans, modelling the abrupt loss.

    The controller should run in elastic mode
    (:attr:`repro.control.mpc.MPCConfig.slack_penalty`): during a large
    outage the surviving capacity may simply not cover demand.

    Args:
        controller: an MPC controller; it is reset to its current state
            (clearing predictor history) before the first period.
        demand: realized demand, shape ``(V, K)``.
        prices: realized prices, shape ``(L, K)``.
        outages: the failure schedule.

    Returns:
        A :class:`~repro.control.loop.ClosedLoopResult`; unmet demand now
        includes outage-induced shortfall.
    """
    demand = np.asarray(demand, dtype=float)
    prices = np.asarray(prices, dtype=float)
    instance = controller.instance
    V, L = instance.num_locations, instance.num_datacenters
    if demand.ndim != 2 or demand.shape[0] != V:
        raise ValueError(f"demand must be ({V}, K), got {demand.shape}")
    K = demand.shape[1]
    if prices.shape != (L, K):
        raise ValueError(f"prices must be ({L}, {K}), got {prices.shape}")
    num_steps = K - 1
    schedule = capacity_schedule(instance.capacities, K, outages)

    initial_state = controller.state
    coeff = instance.demand_coefficients
    size = instance.server_size
    states = np.empty((num_steps, L, V))
    controls = np.empty((num_steps, L, V))
    unmet = np.zeros((num_steps, V))
    steps: list[MPCStep] = []

    # Start from a clean history at the current allocation; from here on the
    # controller keeps its predictors and warm workspace across periods.
    controller.reset(initial_state)
    for k in range(num_steps):
        # The capacity that will hold during the period being planned (k+1).
        # A full outage is modelled as an epsilon capacity: the instance
        # requires positive capacities, and epsilon admits no real server.
        current_capacity = np.maximum(schedule[k + 1], 1e-9)
        controller.set_capacities(current_capacity)
        # Evict stranded servers before planning: a failed site cannot
        # carry yesterday's allocation into the plan's initial state.
        state = controller.state
        for l in range(L):
            used = size * state[l].sum()
            if used > current_capacity[l] + 1e-9:
                scale = current_capacity[l] / used if used > 0 else 0.0
                state[l] *= scale
        controller.set_state(state)

        horizon = effective_horizon(controller.config.window, k, num_steps)
        step = controller.step(demand[:, k], prices[:, k], horizon=horizon)
        steps.append(step)
        states[k] = step.new_state
        controls[k] = states[k] - (initial_state if k == 0 else states[k - 1])
        served = (coeff * step.new_state).sum(axis=0)
        unmet[k] = np.maximum(demand[:, k + 1] - served, 0.0)

    trajectory = Trajectory(
        initial_state=initial_state, states=states, controls=controls
    )
    costs = total_cost(
        states, controls, prices[:, 1:], instance.reconfiguration_weights
    )
    return ClosedLoopResult(
        trajectory=trajectory,
        costs=costs,
        unmet_demand=unmet,
        realized_demand=demand.copy(),
        realized_prices=prices.copy(),
        steps=tuple(steps),
    )
