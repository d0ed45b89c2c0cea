"""Pinned closed-loop trajectories of every control loop and of the game.

The output of each single-provider loop at small arguments, and the
provider game's equilibrium and closed-loop outputs, is compared against a
committed fixture (``tests/fixtures/pinned_trajectories.npz``), so a
refactor of a control loop that changes a trajectory fails here.  The comparison is
``rtol=1e-10`` rather than bitwise because BLAS builds differ across
hosts; the small absolute floor only absorbs exact zeros.

Regenerate the fixture (only when a trajectory change is intended) and
print the SHA-256 of every output with::

    PYTHONPATH=src python tests/test_pinned_trajectories.py --write
    PYTHONPATH=src python tests/test_pinned_trajectories.py --digests
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.control.loop import run_closed_loop
from repro.control.mpc import MPCConfig, MPCController
from repro.core.instance import DSPPInstance
from repro.experiments.fig4_demand_tracking import run_fig4
from repro.experiments.fig6_horizon_smoothing import run_fig6
from repro.experiments.fig9_horizon_cost_volatile import run_fig9
from repro.game.best_response import BestResponseConfig, compute_equilibrium
from repro.game.mpc_game import MPCGameConfig, run_mpc_game
from repro.game.players import random_providers
from repro.prediction.naive import LastValuePredictor
from repro.prediction.oracle import OraclePredictor
from repro.service import PlacementService, ServiceConfig, make_fault_plan
from repro.simulation.engine import SimulationEngine
from repro.simulation.failures import OutageEvent
from repro.simulation.scenario import build_small_scenario

FIXTURE = Path(__file__).parent / "fixtures" / "pinned_trajectories.npz"
RTOL = 1e-10
ATOL = 1e-12

_SUMMARY_FIELDS = (
    "total_allocation_cost",
    "total_reconfiguration_cost",
    "total_cost",
    "total_reconfiguration_magnitude",
    "total_unserved_demand",
    "sla_violation_periods",
    "mean_latency_ms",
    "periods",
)


def _figures() -> dict[str, np.ndarray]:
    outputs: dict[str, np.ndarray] = {}
    runs = {
        "fig4": run_fig4(num_hours=12, jobs=1),
        "fig6": run_fig6(horizons=(1, 3), num_hours=12, jobs=1),
        "fig9": run_fig9(horizons=(1, 2), num_periods=12, num_seeds=1, jobs=1),
    }
    for name, result in runs.items():
        outputs[f"{name}.x"] = np.asarray(result.x, dtype=float)
        for series, values in sorted(result.series.items()):
            outputs[f"{name}.{series}"] = np.asarray(values, dtype=float)
    return outputs


def _summary(summary) -> np.ndarray:
    return np.array([float(getattr(summary, name)) for name in _SUMMARY_FIELDS])


def _engine() -> dict[str, np.ndarray]:
    scenario = build_small_scenario(num_periods=10, seed=2)
    instance = scenario.instance
    controller = MPCController(
        instance,
        LastValuePredictor(instance.num_locations),
        LastValuePredictor(instance.num_datacenters),
        MPCConfig(window=3, slack_penalty=1e3),
    )
    result = SimulationEngine(scenario, controller).run()
    return {
        "engine.states": result.states,
        "engine.controls": result.controls,
        "engine.summary": _summary(result.summary),
    }


def _service() -> dict[str, np.ndarray]:
    scenario = build_small_scenario(num_periods=12, seed=4)
    outputs: dict[str, np.ndarray] = {}
    # Fault seed 1 ends periods at the sparse and hold rungs, seed 3 at
    # the cold rung after NaN telemetry.
    for fault_seed in (1, 3):
        plan = make_fault_plan(fault_seed, scenario.num_periods, rate=0.6)
        service = PlacementService(scenario, ServiceConfig(window=3), fault_plan=plan)
        result = service.run()
        assert result is not None
        prefix = f"service.seed{fault_seed}"
        outputs[f"{prefix}.states"] = result.states
        outputs[f"{prefix}.controls"] = result.controls
        outputs[f"{prefix}.summary"] = _summary(result.summary)
        outputs[f"{prefix}.rungs"] = np.array(result.terminal_rungs)
    return outputs


def _outage_setup():
    instance = DSPPInstance(
        datacenters=("a", "b"),
        locations=("v",),
        sla_coefficients=np.array([[0.1], [0.1]]),
        reconfiguration_weights=np.array([0.5, 0.5]),
        capacities=np.array([30.0, 30.0]),
        initial_state=np.zeros((2, 1)),
    )
    K = 10
    demand = np.full((1, K), 150.0)
    prices = np.vstack([np.ones(K), 1.5 * np.ones(K)])
    return instance, demand, prices


def _outages() -> dict[str, np.ndarray]:
    instance, demand, prices = _outage_setup()
    cases = {
        "partial": [OutageEvent(0, 4, 2, remaining_fraction=0.5)],
        "full": [
            OutageEvent(0, 4, 2, remaining_fraction=0.0),
            OutageEvent(1, 4, 2, remaining_fraction=0.0),
        ],
    }
    outputs: dict[str, np.ndarray] = {}
    for name, outages in cases.items():
        controller = MPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3, slack_penalty=50.0),
        )
        result = run_closed_loop(controller, demand, prices, outages=outages)
        outputs[f"outage_{name}.states"] = result.trajectory.states
        outputs[f"outage_{name}.controls"] = result.trajectory.controls
        outputs[f"outage_{name}.unmet"] = result.unmet_demand
        outputs[f"outage_{name}.allocation_cost"] = result.costs.allocation_per_period
        outputs[f"outage_{name}.reconfiguration_cost"] = (
            result.costs.reconfiguration_per_period
        )
    return outputs


def _game_population():
    rng = np.random.default_rng(17)
    providers = random_providers(
        3,
        ("dc0", "dc1"),
        ("v0", "v1", "v2"),
        rng.uniform(10.0, 60.0, size=(2, 3)),
        8,
        rng,
        demand_scale=40.0,
    )
    # The second DC is the cheaper one for most providers; capping it at a
    # fifth of the aggregate peak makes the quotas bind there, so the
    # coordinator moves them for several rounds before the cost settles.
    peak = sum(
        float(p.servers_demanded().max()) * p.instance.server_size for p in providers
    )
    return providers, np.array([peak, 0.2 * peak])


def _last_value_pair(index, provider):
    return (
        LastValuePredictor(provider.instance.num_locations),
        LastValuePredictor(provider.instance.num_datacenters),
    )


def _game() -> dict[str, np.ndarray]:
    providers, capacity = _game_population()
    equilibrium = compute_equilibrium(
        providers, capacity, BestResponseConfig(epsilon=1e-3, max_iterations=8)
    )
    outputs = {
        "game_equilibrium.quotas": equilibrium.quotas,
        "game_equilibrium.provider_costs": equilibrium.provider_costs,
        "game_equilibrium.cost_history": np.array(equilibrium.cost_history),
    }
    factories = {"oracle": None, "last_value": _last_value_pair}
    for name, factory in factories.items():
        config = MPCGameConfig(
            window=3, coordination_rounds=3, predictor_factory=factory
        )
        result = run_mpc_game(providers, capacity, config)
        prefix = f"game_mpc_{name}"
        outputs[f"{prefix}.quotas"] = np.stack([p.quotas for p in result.periods])
        outputs[f"{prefix}.states"] = np.stack([p.states for p in result.periods])
        outputs[f"{prefix}.provider_costs"] = result.provider_costs
        outputs[f"{prefix}.total_shortfall"] = np.array([result.total_shortfall])
    return outputs


_GROUPS = {
    "figures": _figures,
    "engine": _engine,
    "service": _service,
    "outages": _outages,
    "game": _game,
}


def compute_outputs() -> dict[str, np.ndarray]:
    """Every pinned output, keyed ``<driver>.<field>``."""
    outputs: dict[str, np.ndarray] = {}
    for group in _GROUPS.values():
        outputs.update(group())
    return outputs


def _compare(outputs: dict[str, np.ndarray]) -> None:
    with np.load(FIXTURE) as fixture:
        expected = {key: fixture[key] for key in fixture.files}
    prefixes = {key.split(".")[0] for key in outputs}
    pinned = {key for key in expected if key.split(".")[0] in prefixes}
    assert set(outputs) == pinned
    for key, actual in outputs.items():
        desired = expected[key]
        assert actual.shape == desired.shape, key
        if desired.dtype.kind in "US":
            np.testing.assert_array_equal(actual, desired, err_msg=key)
        else:
            np.testing.assert_allclose(actual, desired, rtol=RTOL, atol=ATOL, err_msg=key)


@pytest.mark.parametrize("group", sorted(_GROUPS))
def test_matches_pinned_fixture(group):
    _compare(_GROUPS[group]())


def _digests(outputs: dict[str, np.ndarray]) -> dict[str, str]:
    return {
        key: hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        for key, value in sorted(outputs.items())
    }


if __name__ == "__main__":
    results = compute_outputs()
    if "--write" in sys.argv:
        np.savez(FIXTURE, **results)
        print(f"wrote {len(results)} arrays to {FIXTURE}")
    if "--digests" in sys.argv:
        for name, digest in _digests(results).items():
            print(f"{digest}  {name}")
