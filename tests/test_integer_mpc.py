"""Tests for the integer-in-the-loop MPC controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.integer_mpc import IntegerMPCController
from repro.control.loop import run_closed_loop
from repro.control.mpc import MPCConfig, MPCController
from repro.core.instance import DSPPInstance
from repro.prediction.naive import LastValuePredictor
from repro.prediction.oracle import OraclePredictor
from repro.simulation.engine import SimulationEngine
from repro.simulation.scenario import build_small_scenario


@pytest.fixture
def instance():
    return DSPPInstance(
        datacenters=("dc0", "dc1"),
        locations=("v0", "v1"),
        sla_coefficients=np.array([[0.05, 0.08], [0.08, 0.05]]),
        reconfiguration_weights=np.array([0.5, 0.5]),
        capacities=np.array([100.0, 100.0]),
        initial_state=np.zeros((2, 2)),
    )


def _traces(K=10, seed=0):
    rng = np.random.default_rng(seed)
    demand = 100.0 * (1.0 + 0.3 * np.sin(2 * np.pi * np.arange(K) / 12.0))
    demand = np.vstack([demand, demand * 0.8])
    prices = np.vstack(
        [np.ones(K), 1.2 + 0.2 * np.sin(2 * np.pi * np.arange(K) / 8.0)]
    )
    return demand, prices


class TestIntegerMPC:
    def test_states_are_integral(self, instance):
        demand, prices = _traces()
        controller = IntegerMPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        result = run_closed_loop(controller, demand, prices)
        states = result.trajectory.states
        assert np.allclose(states, np.round(states), atol=1e-9)

    def test_demand_still_served(self, instance):
        demand, prices = _traces()
        controller = IntegerMPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        result = run_closed_loop(controller, demand, prices)
        # Integer rounding only ever adds capacity relative to the plan,
        # and the oracle plan covers realized demand exactly.
        assert result.total_unmet_demand == pytest.approx(0.0, abs=1e-6)

    def test_capacities_respected(self, instance):
        demand, prices = _traces()
        controller = IntegerMPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        result = run_closed_loop(controller, demand, prices)
        per_dc = result.trajectory.states.sum(axis=2)
        assert np.all(per_dc <= instance.capacities[None, :] + 1e-9)

    def test_cost_premium_over_continuous_is_small(self, instance):
        demand, prices = _traces()
        continuous = MPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        integral = IntegerMPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        base = run_closed_loop(continuous, demand, prices)
        rounded = run_closed_loop(integral, demand, prices)
        assert rounded.total_cost >= base.total_cost - 1e-6
        # ~10 servers per pair: rounding overhead must stay moderate.
        assert rounded.total_cost <= base.total_cost * 1.30

    def test_state_persists_between_steps(self, instance):
        demand, prices = _traces()
        controller = IntegerMPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=2),
        )
        first = controller.step(demand[:, 0], prices[:, 0])
        assert controller.state == pytest.approx(first.new_state)
        second = controller.step(demand[:, 1], prices[:, 1])
        assert second.new_state == pytest.approx(
            first.new_state + second.applied_control
        )


class TestIntegerStatesOnEveryPath:
    """The rounding lives in ``plan()``, so every driver that observes and
    plans separately (the period kernel, the service ladder) applies
    integer states, not only ``step()``."""

    def test_observe_then_plan_is_integral(self, instance):
        demand, prices = _traces()
        controller = IntegerMPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        before = controller.state
        controller.observe(demand[:, 0], prices[:, 0])
        step = controller.plan()
        np.testing.assert_array_equal(step.new_state, np.round(step.new_state))
        np.testing.assert_array_equal(controller.state, step.new_state)
        np.testing.assert_array_equal(step.applied_control, step.new_state - before)

    def test_run_closed_loop_and_engine_are_integral(self):
        scenario = build_small_scenario(num_periods=8, seed=1)
        instance = scenario.instance

        def controller():
            return IntegerMPCController(
                instance,
                LastValuePredictor(instance.num_locations),
                LastValuePredictor(instance.num_datacenters),
                MPCConfig(window=3, slack_penalty=1e3),
            )

        looped = run_closed_loop(controller(), scenario.demand, scenario.prices)
        engine = SimulationEngine(scenario, controller()).run()
        for states in (looped.trajectory.states, engine.states):
            np.testing.assert_array_equal(states, np.round(states))
        np.testing.assert_array_equal(looped.trajectory.states, engine.states)
        np.testing.assert_array_equal(looped.trajectory.controls, engine.controls)
