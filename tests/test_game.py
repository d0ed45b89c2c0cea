"""Tests for the multi-provider game (Section VI)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.game.best_response import (
    BestResponseConfig,
    compute_equilibrium,
)
from repro.game.efficiency import efficiency_ratio, verify_theorem1
from repro.game.equilibrium import verify_equilibrium
from repro.game.mpc_game import run_mpc_game
from repro.game.players import ServiceProvider, random_providers
from repro.game.swp import SWPInfeasibleError, solve_swp


def _population(n=3, horizon=4, seed=0, demand_scale=40.0):
    rng = np.random.default_rng(seed)
    latency = rng.uniform(10.0, 60.0, size=(3, 4))
    return random_providers(
        n,
        ("dc0", "dc1", "dc2"),
        ("v0", "v1", "v2", "v3"),
        latency,
        horizon,
        rng,
        demand_scale=demand_scale,
    )


class TestRandomProviders:
    def test_population_structure(self):
        providers = _population(4)
        assert len(providers) == 4
        sizes = {p.instance.server_size for p in providers}
        assert sizes <= {1.0, 2.0, 4.0}
        for p in providers:
            assert p.horizon == 4
            assert p.demand.shape == (4, 4)
            assert p.prices.shape == (3, 4)

    def test_every_location_servable(self):
        for p in _population(5, seed=3):
            assert np.isfinite(p.instance.sla_coefficients).any(axis=0).all()

    def test_servers_demanded_positive(self):
        p = _population(1)[0]
        assert np.all(p.servers_demanded() > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            _population(0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="latency"):
            random_providers(1, ("a",), ("v",), np.ones((2, 2)), 3, rng)


class TestServiceProviderValidation:
    def test_shape_checks(self):
        p = _population(1)[0]
        with pytest.raises(ValueError, match="demand"):
            ServiceProvider("bad", p.instance, np.ones((2, 4)), p.prices)
        with pytest.raises(ValueError, match="prices"):
            ServiceProvider("bad", p.instance, p.demand, np.ones((3, 9)))
        with pytest.raises(ValueError, match="nonnegative"):
            ServiceProvider("bad", p.instance, -p.demand, p.prices)


class TestBestResponse:
    def test_loose_capacity_converges_immediately(self):
        providers = _population(3)
        result = compute_equilibrium(providers, np.full(3, 1e5))
        assert result.converged
        assert result.total_shortfall == pytest.approx(0.0, abs=1e-6)

    def test_quota_rows_sum_to_capacity(self):
        providers = _population(3)
        capacity = np.array([50.0, 500.0, 500.0])
        result = compute_equilibrium(
            providers, capacity, BestResponseConfig(epsilon=1e-3)
        )
        assert result.quotas.sum(axis=0) == pytest.approx(capacity)

    def test_cost_history_recorded(self):
        providers = _population(2)
        result = compute_equilibrium(providers, np.full(3, 1e5))
        assert len(result.cost_history) == result.iterations
        assert result.cost_history[-1] == pytest.approx(result.total_cost)

    def test_tight_capacity_takes_longer(self):
        providers = _population(4, demand_scale=120.0, seed=2)
        loose = compute_equilibrium(
            providers, np.array([2000.0, 2000.0, 2000.0]), BestResponseConfig(epsilon=1e-4)
        )
        tight = compute_equilibrium(
            providers, np.array([30.0, 2000.0, 2000.0]), BestResponseConfig(epsilon=1e-4)
        )
        assert tight.iterations >= loose.iterations

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            compute_equilibrium([], np.ones(3))
        a = _population(1, horizon=3)
        b = _population(1, horizon=4)
        with pytest.raises(ValueError, match="horizon"):
            compute_equilibrium([a[0], b[0]], np.ones(3))

    @pytest.mark.parametrize("entry_point", [compute_equilibrium, run_mpc_game])
    def test_rejects_providers_on_different_datacenters(self, entry_point):
        rng = np.random.default_rng(0)
        latency = rng.uniform(10.0, 60.0, size=(2, 2))
        (a,) = random_providers(1, ("d0", "d1"), ("v0", "v1"), latency, 4, rng)
        (b,) = random_providers(1, ("x0", "x1"), ("v0", "v1"), latency, 4, rng)
        with pytest.raises(ValueError, match="same data centers"):
            entry_point([a, b], np.full(2, 1e5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BestResponseConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            BestResponseConfig(max_iterations=0)
        with pytest.raises(ValueError):
            BestResponseConfig(slack_penalty=-1.0)


class TestSWP:
    def test_swp_feasible_solves(self):
        providers = _population(2)
        solution = solve_swp(providers, np.full(3, 1e5))
        assert solution.total_cost > 0
        assert solution.total_shortfall == pytest.approx(0.0, abs=1e-6)
        assert len(solution.trajectories) == 2

    def test_swp_respects_joint_capacity(self):
        providers = _population(3, demand_scale=80.0)
        capacity = np.array([40.0, 400.0, 400.0])
        solution = solve_swp(providers, capacity, slack_penalty=1e3)
        T = providers[0].horizon
        for t in range(T):
            used = np.zeros(3)
            for p, traj in zip(providers, solution.trajectories):
                used += p.instance.server_size * traj.states[t].sum(axis=1)
            assert np.all(used <= capacity + 1e-4)

    def test_swp_hard_infeasible_raises(self):
        providers = _population(3, demand_scale=500.0)
        with pytest.raises(SWPInfeasibleError):
            solve_swp(providers, np.array([1.0, 1.0, 1.0]))

    def test_swp_cheaper_than_any_suboptimal_split(self):
        # SWP with generous capacity equals the sum of independent optima.
        providers = _population(2)
        joint = solve_swp(providers, np.full(3, 1e5))
        from repro.core.dspp import solve_dspp

        independent = sum(
            solve_dspp(p.instance, p.demand, p.prices).objective for p in providers
        )
        assert joint.total_cost == pytest.approx(independent, rel=1e-3)


class TestEquilibriumVerification:
    def test_best_response_outcome_is_equilibrium(self):
        providers = _population(3, demand_scale=60.0, seed=5)
        capacity = np.array([60.0, 800.0, 800.0])
        config = BestResponseConfig(epsilon=1e-4)
        result = compute_equilibrium(providers, capacity, config)
        report = verify_equilibrium(
            providers,
            result.solutions,
            capacity,
            slack_penalty=config.slack_penalty,
            tolerance=0.05,
        )
        assert report.is_equilibrium, report.improvements

    def test_misallocated_quotas_are_not_equilibrium(self):
        # Give almost everything to provider 0 — provider 1 must profit by
        # deviating into the idle capacity.
        providers = _population(2, demand_scale=80.0, seed=6)
        capacity = np.array([100.0, 100.0, 100.0])
        from repro.core.dspp import solve_dspp

        starved_quota = capacity * 0.02
        rich_quota = capacity * 0.98
        solutions = [
            solve_dspp(
                providers[0].instance.with_capacities(rich_quota),
                providers[0].demand,
                providers[0].prices,
                demand_slack_penalty=1e3,
            ),
            solve_dspp(
                providers[1].instance.with_capacities(starved_quota),
                providers[1].demand,
                providers[1].prices,
                demand_slack_penalty=1e3,
            ),
        ]
        report = verify_equilibrium(
            providers, solutions, capacity, slack_penalty=1e3, tolerance=0.05
        )
        assert report.improvements[1] > 0.05


class TestEfficiency:
    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            efficiency_ratio(1.0, 0.0)
        assert efficiency_ratio(12.0, 10.0) == pytest.approx(1.2)

    def test_theorem1_pos_is_one(self):
        providers = _population(3, demand_scale=60.0, seed=8)
        capacity = np.array([80.0, 800.0, 800.0])
        report = verify_theorem1(
            providers, capacity, BestResponseConfig(epsilon=1e-4), tolerance=0.1
        )
        assert report.holds, report.price_of_stability
        assert report.price_of_stability == pytest.approx(1.0, abs=0.1)
