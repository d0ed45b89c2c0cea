"""Tests for failure injection, scenario persistence, and the report
generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.horizon import effective_horizon
from repro.control.loop import run_closed_loop
from repro.control.mpc import MPCConfig, MPCController
from repro.core.instance import DSPPInstance
from repro.io import load_scenario, save_scenario
from repro.prediction.ar import ARPredictor
from repro.prediction.ensemble import BestRecentEnsemble, MeanEnsemble
from repro.prediction.naive import LastValuePredictor
from repro.prediction.oracle import OraclePredictor
from repro.report import ReportOptions, _markdown_table
from repro.simulation.failures import OutageEvent, capacity_schedule
from repro.simulation.scenario import build_paper_scenario, build_small_scenario


class TestOutageEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            OutageEvent(0, 0, duration=0)
        with pytest.raises(ValueError):
            OutageEvent(0, 0, 1, remaining_fraction=1.0)
        with pytest.raises(ValueError):
            OutageEvent(-1, 0, 1)

    def test_activity_window(self):
        event = OutageEvent(0, start_period=3, duration=2)
        assert not event.is_active(2)
        assert event.is_active(3)
        assert event.is_active(4)
        assert not event.is_active(5)


class TestCapacitySchedule:
    def test_applies_fraction(self):
        schedule = capacity_schedule(
            np.array([100.0, 50.0]),
            5,
            [OutageEvent(0, 1, 2, remaining_fraction=0.25)],
        )
        assert schedule[0] == pytest.approx([100.0, 50.0])
        assert schedule[1] == pytest.approx([25.0, 50.0])
        assert schedule[2] == pytest.approx([25.0, 50.0])
        assert schedule[3] == pytest.approx([100.0, 50.0])

    def test_overlapping_events_compound(self):
        schedule = capacity_schedule(
            np.array([100.0]),
            3,
            [
                OutageEvent(0, 0, 3, remaining_fraction=0.5),
                OutageEvent(0, 1, 1, remaining_fraction=0.5),
            ],
        )
        assert schedule[1, 0] == pytest.approx(25.0)

    def test_unknown_datacenter(self):
        with pytest.raises(IndexError):
            capacity_schedule(np.array([1.0]), 2, [OutageEvent(3, 0, 1)])

    def test_outage_truncated_at_schedule_end(self):
        # Duration runs past the schedule: every period from start on is hit.
        schedule = capacity_schedule(
            np.array([100.0]), 4, [OutageEvent(0, 2, 10, remaining_fraction=0.5)]
        )
        assert schedule[:, 0] == pytest.approx([100.0, 100.0, 50.0, 50.0])

    def test_outage_entirely_after_schedule_is_noop(self):
        schedule = capacity_schedule(
            np.array([100.0]), 3, [OutageEvent(0, 5, 2, remaining_fraction=0.0)]
        )
        assert schedule == pytest.approx(np.full((3, 1), 100.0))

    def test_outage_at_period_zero_and_exact_last_period(self):
        schedule = capacity_schedule(
            np.array([100.0]),
            4,
            [
                OutageEvent(0, 0, 1, remaining_fraction=0.0),
                OutageEvent(0, 3, 1, remaining_fraction=0.25),
            ],
        )
        assert schedule[:, 0] == pytest.approx([0.0, 100.0, 100.0, 25.0])

    def test_zero_periods_gives_empty_schedule(self):
        schedule = capacity_schedule(np.array([100.0, 50.0]), 0, [OutageEvent(0, 0, 1)])
        assert schedule.shape == (0, 2)


class TestFailureLoop:
    @pytest.fixture
    def setup(self):
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
        prices = np.vstack([np.ones(K), 1.5 * np.ones(K)])  # a cheaper
        return instance, demand, prices

    def _controller(self, instance, demand, prices):
        return MPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3, slack_penalty=50.0),
        )

    def test_no_outage_matches_plain_loop_service(self, setup):
        instance, demand, prices = setup
        result = run_closed_loop(
            self._controller(instance, demand, prices), demand, prices, outages=[]
        )
        assert result.total_unmet_demand == pytest.approx(0.0, abs=1e-5)

    def test_outage_moves_load_to_survivor(self, setup):
        instance, demand, prices = setup
        outage = OutageEvent(0, start_period=4, duration=3, remaining_fraction=0.0)
        result = run_closed_loop(
            self._controller(instance, demand, prices), demand, prices, outages=[outage]
        )
        servers = result.servers_per_datacenter()  # (K-1, L)
        # During the outage (serving periods 4..6) DC a holds nothing and
        # DC b carries the demand it can.
        assert servers[3, 0] == pytest.approx(0.0, abs=1e-6)
        assert servers[4, 0] == pytest.approx(0.0, abs=1e-6)
        assert servers[3, 1] > 10.0
        # After recovery, load starts migrating back to the cheap site
        # (gradually — the quadratic penalty damps the return).
        assert servers[-1, 0] > servers[5, 0]
        assert servers[-1, 0] > servers[-2, 0] - 1e-9

    def test_full_outage_of_both_sites_reports_unmet(self, setup):
        instance, demand, prices = setup
        outages = [
            OutageEvent(0, 4, 2, remaining_fraction=0.0),
            OutageEvent(1, 4, 2, remaining_fraction=0.0),
        ]
        result = run_closed_loop(
            self._controller(instance, demand, prices), demand, prices, outages=outages
        )
        assert result.unmet_demand[3].sum() > 100.0

    def test_partial_outage_degrades_gracefully(self, setup):
        instance, demand, prices = setup
        outage = OutageEvent(0, 4, 2, remaining_fraction=0.5)
        result = run_closed_loop(
            self._controller(instance, demand, prices), demand, prices, outages=[outage]
        )
        servers = result.servers_per_datacenter()
        assert servers[3, 0] <= 15.0 + 1e-6  # half of 30

    def test_rejects_bad_demand_shape(self, setup):
        instance, demand, prices = setup
        controller = self._controller(instance, demand, prices)
        with pytest.raises(ValueError, match=r"demand must be \(1, K\)"):
            run_closed_loop(
                controller, np.vstack([demand, demand]), prices, outages=[]
            )

    def test_rejects_mismatched_prices(self, setup):
        instance, demand, prices = setup
        controller = self._controller(instance, demand, prices)
        with pytest.raises(ValueError, match="prices must be"):
            run_closed_loop(controller, demand, prices[:, :-1], outages=[])

    def test_rejects_single_period(self, setup):
        instance, demand, prices = setup
        controller = self._controller(instance, demand, prices)
        with pytest.raises(ValueError, match="at least 2 periods"):
            run_closed_loop(
                controller, demand[:, :1], prices[:, :1], outages=[OutageEvent(0, 0, 1)]
            )

    def test_capacities_swapped_only_when_the_schedule_changes(self, setup, monkeypatch):
        instance, demand, prices = setup
        controller = self._controller(instance, demand, prices)
        calls = []
        original = controller.set_capacities

        def counting(capacities):
            calls.append(np.array(capacities))
            original(capacities)

        monkeypatch.setattr(controller, "set_capacities", counting)
        outage = OutageEvent(0, start_period=4, duration=3, remaining_fraction=0.0)
        run_closed_loop(controller, demand, prices, outages=[outage])
        # Into the outage and back out: two swaps over nine periods.
        assert len(calls) == 2
        assert calls[0][0] == pytest.approx(1e-9)
        np.testing.assert_array_equal(calls[1], instance.capacities)

    def test_full_outage_evicts_stranded_servers(self, setup):
        # Servers standing at a fully failed site must not survive into the
        # planned state: during the outage the failed DC's row is (near) zero.
        instance, demand, prices = setup
        outage = OutageEvent(0, 3, 3, remaining_fraction=0.0)
        result = run_closed_loop(
            self._controller(instance, demand, prices), demand, prices, outages=[outage]
        )
        states = result.trajectory.states
        assert states[1, 0].sum() > 1.0  # DC 0 carries load before the outage
        for k in (2, 3, 4):  # planned periods k+1 in the outage window
            assert states[k, 0].sum() == pytest.approx(0.0, abs=1e-6)

    def test_capacity_recovers_after_outage(self, setup):
        instance, demand, prices = setup
        outage = OutageEvent(0, 3, 2, remaining_fraction=0.0)
        result = run_closed_loop(
            self._controller(instance, demand, prices), demand, prices, outages=[outage]
        )
        # After recovery the cheap DC is used again and demand is met.
        assert result.trajectory.states[-1, 0].sum() > 1.0
        assert result.unmet_demand[-1].sum() == pytest.approx(0.0, abs=1e-5)


def _last_value(num_series):
    return LastValuePredictor(num_series)


def _ar(num_series):
    return ARPredictor(num_series, order=2)


def _mean_ensemble(num_series):
    return MeanEnsemble([LastValuePredictor(num_series), ARPredictor(num_series, order=2)])


def _best_recent(num_series):
    return BestRecentEnsemble(
        [LastValuePredictor(num_series), ARPredictor(num_series, order=2)]
    )


def _reset_and_refeed(controller, demand, prices, outages):
    """The outage loop as it was before ``set_state``: every period resets
    the controller (dropping its workspace and predictors) and re-feeds the
    whole observation history.  Returns the steps and the state trajectory."""
    schedule = capacity_schedule(controller.instance.capacities, demand.shape[1], outages)
    size = controller.instance.server_size
    num_steps = demand.shape[1] - 1
    steps = []
    for k in range(num_steps):
        capacity = np.maximum(schedule[k + 1], 1e-9)
        controller.set_capacities(capacity)
        state = controller.state
        for l in range(state.shape[0]):
            used = size * state[l].sum()
            if used > capacity[l] + 1e-9:
                state[l] *= capacity[l] / used if used > 0 else 0.0
        controller.reset(state)
        controller.demand_predictor.observe_history(demand[:, :k])
        controller.price_predictor.observe_history(prices[:, :k])
        horizon = effective_horizon(controller.config.window, k, num_steps)
        steps.append(controller.step(demand[:, k], prices[:, k], horizon=horizon))
    return steps, np.stack([step.new_state for step in steps])


class TestWarmOutageLoop:
    """The outage loop keeps the controller's predictors and workspace
    (``set_state``) instead of resetting and re-feeding every period."""

    @pytest.fixture
    def scenario(self):
        return build_small_scenario(num_periods=14, seed=5)

    @staticmethod
    def _controller(instance, make_predictor):
        return MPCController(
            instance,
            make_predictor(instance.num_locations),
            make_predictor(instance.num_datacenters),
            MPCConfig(window=3, slack_penalty=1e3),
        )

    @pytest.mark.parametrize(
        "make_predictor", [_last_value, _ar, _mean_ensemble, _best_recent]
    )
    def test_matches_reset_and_refeed(self, scenario, make_predictor):
        instance = scenario.instance
        # Data center 1 carries load when it fails, so servers are evicted.
        outages = [OutageEvent(1, start_period=5, duration=3, remaining_fraction=0.0)]
        warm = run_closed_loop(
            self._controller(instance, make_predictor),
            scenario.demand,
            scenario.prices,
            outages=outages,
        )
        steps, states = _reset_and_refeed(
            self._controller(instance, make_predictor),
            scenario.demand,
            scenario.prices,
            outages,
        )
        # The forecasts depend on the observation history only: identical.
        for new, old in zip(warm.steps, steps, strict=True):
            np.testing.assert_array_equal(new.predicted_demand, old.predicted_demand)
            np.testing.assert_array_equal(new.predicted_prices, old.predicted_prices)
        # The plans differ only by solver tolerance (warm crossover vs. a
        # cold solve every period).
        scale = max(1.0, float(np.abs(states).max()))
        np.testing.assert_allclose(warm.trajectory.states, states, rtol=0, atol=1e-4 * scale)

    def test_workspace_survives_the_outage(self, scenario):
        instance = scenario.instance
        controller = self._controller(instance, _last_value)
        outages = [OutageEvent(1, start_period=4, duration=4, remaining_fraction=0.0)]
        result = run_closed_loop(
            controller, scenario.demand, scenario.prices, outages=outages
        )
        # One structure per distinct horizon (3, 2, 1): capacity swaps and
        # evictions are vector-only updates of the same workspace.
        assert controller._workspace.num_setups == 3
        assert [step.period for step in result.steps] == list(range(len(result.steps)))


class TestScenarioIO:
    def test_round_trip_small(self, tmp_path):
        scenario = build_small_scenario(num_periods=6, seed=3)
        path = tmp_path / "scenario.npz"
        save_scenario(path, scenario)
        loaded = load_scenario(path)
        assert loaded.instance.datacenters == scenario.instance.datacenters
        assert loaded.instance.sla_coefficients == pytest.approx(
            scenario.instance.sla_coefficients
        )
        assert loaded.demand == pytest.approx(scenario.demand)
        assert loaded.prices == pytest.approx(scenario.prices)
        assert loaded.sla.max_latency == scenario.sla.max_latency
        assert loaded.vm_type.name == scenario.vm_type.name

    def test_round_trip_paper_with_wholesale(self, tmp_path):
        scenario = build_paper_scenario(num_periods=4, total_peak_rate=300.0)
        path = tmp_path / "paper.npz"
        save_scenario(path, scenario)
        loaded = load_scenario(path)
        assert set(loaded.wholesale_traces) == set(scenario.wholesale_traces)
        for label in scenario.wholesale_traces:
            assert loaded.wholesale_traces[label].prices == pytest.approx(
                scenario.wholesale_traces[label].prices
            )

    def test_loaded_scenario_is_runnable(self, tmp_path):
        from repro.control.loop import run_closed_loop

        scenario = build_small_scenario(num_periods=6, seed=1)
        path = tmp_path / "scenario.npz"
        save_scenario(path, scenario)
        loaded = load_scenario(path)
        controller = MPCController(
            loaded.instance,
            OraclePredictor(loaded.demand),
            OraclePredictor(loaded.prices),
            MPCConfig(window=2),
        )
        result = run_closed_loop(controller, loaded.demand, loaded.prices)
        assert result.total_cost > 0

    def test_bad_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.ones(3))
        with pytest.raises(ValueError, match="not a scenario"):
            load_scenario(path)


class TestReport:
    def test_markdown_table_rendering(self):
        from repro.experiments.common import FigureResult

        result = FigureResult(
            figure="figX",
            title="demo",
            x_label="k",
            x=np.array([1, 2, 3]),
            series={"y": np.array([1.5, 2.5, 3.5])},
        )
        table = _markdown_table(result, max_rows=2)
        assert "| k | y |" in table
        assert "1.500" in table
        assert "more rows omitted" in table

    def test_report_options_defaults(self):
        options = ReportOptions()
        assert options.quick is True
