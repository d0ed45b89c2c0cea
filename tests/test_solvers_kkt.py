"""Tests for repro.solvers.kkt (residuals + polish)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.matrices import build_qp_structure, build_qp_vectors
from repro.solvers.kkt import (
    KKTResiduals,
    build_active_set_system,
    kkt_residuals,
    polish_solution,
    regularized_kkt,
    solve_active_set_system,
)
from repro.solvers.qp import QPProblem, QPSettings, solve_qp
from repro.verify.generators import random_demand, random_instance, random_prices


def _box_problem():
    # min (x0-2)^2 + (x1-2)^2 s.t. 0 <= x <= 1 (both upper bounds active).
    return QPProblem.build(
        2.0 * np.eye(2), np.array([-4.0, -4.0]), np.eye(2), np.zeros(2), np.ones(2)
    )


class TestResiduals:
    def test_exact_optimum_has_tiny_residuals(self):
        problem = _box_problem()
        x = np.ones(2)
        y = np.array([2.0, 2.0])  # 2x - 4 + y = 0 at x=1
        res = kkt_residuals(problem, x, y)
        assert res.worst < 1e-12

    def test_primal_violation_measured(self):
        problem = _box_problem()
        res = kkt_residuals(problem, np.array([1.5, 0.5]), np.zeros(2))
        assert res.primal == pytest.approx(0.5)

    def test_complementarity_violation_measured(self):
        problem = _box_problem()
        # Positive multiplier on a slack (not active) constraint.
        res = kkt_residuals(problem, np.array([0.5, 0.5]), np.array([2.0, 0.0]))
        assert res.complementarity == pytest.approx(1.0)  # y * (u - ax) = 2 * 0.5

    def test_worst_is_max(self):
        res = KKTResiduals(primal=0.1, dual=0.3, complementarity=0.2)
        assert res.worst == pytest.approx(0.3)


class TestPolish:
    def test_polish_marks_flag_and_improves(self):
        problem = _box_problem()
        rough = solve_qp(
            problem.P,
            problem.q,
            problem.A,
            problem.l,
            problem.u,
            settings=QPSettings(polish=False, eps_abs=1e-4, eps_rel=1e-4),
        )
        refined = polish_solution(problem, rough)
        old = kkt_residuals(problem, rough.x, rough.y)
        new = kkt_residuals(problem, refined.x, refined.y)
        assert new.worst <= old.worst

    def test_polish_no_active_constraints_returns_input(self):
        # Interior optimum: nothing active, polish is a no-op.
        problem = QPProblem.build(
            2.0 * np.eye(1), np.array([-1.0]), np.eye(1), [-10.0], [10.0]
        )
        solution = solve_qp(
            problem.P, problem.q, problem.A, problem.l, problem.u,
            settings=QPSettings(polish=False),
        )
        refined = polish_solution(problem, solution)
        assert refined.polished is False


class TestActiveSetAssembly:
    """Active-set systems are sliced out of one cached regularized KKT."""

    @pytest.mark.parametrize("elastic", [False, True])
    def test_slice_equals_block_assembly_bitwise(self, elastic):
        rng = np.random.default_rng(7)
        instance = random_instance(rng, "medium")
        structure = build_qp_structure(instance, 4, elastic=elastic)
        q, l, u = build_qp_vectors(
            structure,
            instance,
            random_demand(rng, instance, 4),
            random_prices(rng, instance, 4),
            demand_slack_penalty=5.0 if elastic else None,
        )
        problem = QPProblem.build(structure.P, q, structure.A, l, u)
        full = regularized_kkt(problem)
        n = problem.num_variables
        reg = 1e-9
        for _ in range(50):
            active = rng.random(problem.num_constraints) < rng.uniform(0.1, 0.9)
            a_active = problem.A[active]
            reference = sp.bmat(
                [
                    [problem.P + reg * sp.identity(n, format="csc"), a_active.T],
                    [a_active, -reg * sp.identity(a_active.shape[0], format="csc")],
                ],
                format="csc",
            )
            keep = np.concatenate([np.arange(n), n + np.flatnonzero(active)])
            sliced = full[keep][:, keep]
            assert sliced.shape == reference.shape
            np.testing.assert_array_equal(sliced.indptr, reference.indptr)
            np.testing.assert_array_equal(sliced.indices, reference.indices)
            np.testing.assert_array_equal(sliced.data, reference.data)

    def test_cached_kkt_gives_the_same_system(self):
        rng = np.random.default_rng(3)
        instance = random_instance(rng, "small")
        structure = build_qp_structure(instance, 3)
        q, l, u = build_qp_vectors(
            structure, instance, random_demand(rng, instance, 3), random_prices(rng, instance, 3)
        )
        problem = QPProblem.build(structure.P, q, structure.A, l, u)
        lower = np.zeros(problem.num_constraints, dtype=bool)
        upper = problem.l == problem.u
        fresh = build_active_set_system(problem, lower, upper)
        cached = build_active_set_system(problem, lower, upper, kkt=regularized_kkt(problem))
        assert fresh is not None and cached is not None
        for a, b in zip(
            solve_active_set_system(problem, fresh), solve_active_set_system(problem, cached)
        ):
            np.testing.assert_array_equal(a, b)
