"""Data-center failure injection.

Section III lists "system failure" next to flash crowds as the
unexpected events a dynamic controller must survive.  A failure here is a
temporary capacity collapse at one data center: capacity drops to a
fraction (0 = total outage) for a window of periods, then recovers.
``run_closed_loop(controller, demand, prices, outages=...)``
(:func:`repro.control.loop.run_closed_loop`) feeds the controller the
*current* capacity vector before each decision — the controller sees
outages only as they happen (no failure prediction), exactly like a
monitoring-driven system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OutageEvent", "capacity_schedule"]


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
        active = slice(event.start_period, event.start_period + event.duration)
        schedule[active, event.datacenter_index] *= event.remaining_fraction
    return schedule
