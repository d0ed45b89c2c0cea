"""Tests for the stacked QP assembly (repro.core.matrices)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matrices import PairIndexer, build_qp_structure, build_stacked_qp
from repro.core.instance import DSPPInstance


@pytest.fixture
def instance():
    return DSPPInstance(
        datacenters=("dc0", "dc1"),
        locations=("v0", "v1"),
        sla_coefficients=np.array([[0.1, 0.2], [0.2, 0.1]]),
        reconfiguration_weights=np.array([2.0, 3.0]),
        capacities=np.array([40.0, 60.0]),
        initial_state=np.array([[1.0, 0.0], [0.0, 2.0]]),
    )


class TestPairIndexer:
    def test_layout(self):
        indexer = PairIndexer(2, 3, 4)
        assert indexer.pairs_per_step == 6
        assert indexer.num_variables == 48
        assert indexer.pair(1, 2) == 5
        assert indexer.x_index(0, 0, 0) == 0
        assert indexer.x_index(2, 1, 1) == 2 * 6 + 4
        assert indexer.u_index(0, 0, 0) == 24

    def test_elastic_layout(self):
        indexer = PairIndexer(2, 3, 4, elastic=True)
        assert indexer.num_variables == 48 + 12
        assert indexer.slack_index(0, 0) == 48
        assert indexer.slack_index(3, 2) == 48 + 11

    def test_slack_index_requires_elastic(self):
        with pytest.raises(ValueError, match="slack"):
            PairIndexer(1, 1, 1).slack_index(0, 0)

    def test_unstack_roundtrip(self):
        indexer = PairIndexer(2, 2, 3)
        z = np.arange(indexer.num_variables, dtype=float)
        x, u, w = indexer.unstack(z)
        assert x.shape == (3, 2, 2)
        assert u.shape == (3, 2, 2)
        assert w == pytest.approx(np.zeros((3, 2)))
        assert x[1, 0, 1] == z[indexer.x_index(1, 0, 1)]
        assert u[2, 1, 0] == z[indexer.u_index(2, 1, 0)]


class TestBuildStackedQP:
    def test_dimensions(self, instance):
        demand = np.ones((2, 3))
        prices = np.ones((2, 3))
        stacked = build_stacked_qp(instance, demand, prices)
        T, pairs = 3, 4
        n_vars = 2 * T * pairs
        assert stacked.P.shape == (n_vars, n_vars)
        # dynamics + demand + capacity + nonneg rows
        expected_rows = T * pairs + T * 2 + T * 2 + T * pairs
        assert stacked.A.shape == (expected_rows, n_vars)

    def test_quadratic_block_is_2r(self, instance):
        stacked = build_stacked_qp(instance, np.ones((2, 2)), np.ones((2, 2)))
        diag = stacked.P.diagonal()
        indexer = stacked.indexer
        assert diag[indexer.x_index(0, 0, 0)] == 0.0
        assert diag[indexer.u_index(0, 0, 0)] == pytest.approx(4.0)  # 2 * c_0
        assert diag[indexer.u_index(1, 1, 1)] == pytest.approx(6.0)  # 2 * c_1

    def test_linear_cost_is_price_per_dc(self, instance):
        prices = np.array([[1.0, 3.0], [2.0, 4.0]])
        stacked = build_stacked_qp(instance, np.ones((2, 2)), prices)
        indexer = stacked.indexer
        assert stacked.q[indexer.x_index(0, 0, 1)] == 1.0
        assert stacked.q[indexer.x_index(1, 0, 0)] == 3.0
        assert stacked.q[indexer.x_index(1, 1, 1)] == 4.0
        assert stacked.q[indexer.u_index(0, 0, 0)] == 0.0

    def test_dynamics_rhs_carries_initial_state(self, instance):
        stacked = build_stacked_qp(instance, np.ones((2, 2)), np.ones((2, 2)))
        pairs = 4
        assert stacked.l[:pairs] == pytest.approx(instance.initial_state.reshape(-1))
        assert stacked.u[:pairs] == pytest.approx(instance.initial_state.reshape(-1))
        # Later dynamic rows are homogeneous.
        assert stacked.l[pairs : 2 * pairs] == pytest.approx(np.zeros(pairs))

    def test_demand_rows_use_inverse_coefficients(self, instance):
        demand = np.array([[5.0, 6.0], [7.0, 8.0]])
        stacked = build_stacked_qp(instance, demand, np.ones((2, 2)))
        row = stacked.demand_row_offset  # (t=0, v=0)
        dense = stacked.A[row].toarray().ravel()
        indexer = stacked.indexer
        assert dense[indexer.x_index(0, 0, 0)] == pytest.approx(10.0)
        assert dense[indexer.x_index(0, 1, 0)] == pytest.approx(5.0)
        assert stacked.l[row] == 5.0
        assert stacked.u[row] == np.inf

    def test_unusable_pair_excluded_from_demand_row(self):
        coefficients = np.array([[0.1, np.inf], [0.2, 0.1]])
        instance = DSPPInstance(
            datacenters=("dc0", "dc1"),
            locations=("v0", "v1"),
            sla_coefficients=coefficients,
            reconfiguration_weights=np.ones(2),
            capacities=np.full(2, np.inf),
            initial_state=np.zeros((2, 2)),
        )
        stacked = build_stacked_qp(instance, np.ones((2, 1)), np.ones((2, 1)))
        row = stacked.demand_row_offset + 1  # (t=0, v=1)
        dense = stacked.A[row].toarray().ravel()
        assert dense[stacked.indexer.x_index(0, 0, 1)] == 0.0
        assert dense[stacked.indexer.x_index(0, 1, 1)] == pytest.approx(10.0)

    def test_capacity_rows_scaled_by_server_size(self, instance):
        import dataclasses

        sized = dataclasses.replace(instance, server_size=2.0)
        stacked = build_stacked_qp(sized, np.ones((2, 2)), np.ones((2, 2)))
        row = stacked.capacity_row_offset
        dense = stacked.A[row].toarray().ravel()
        indexer = stacked.indexer
        assert dense[indexer.x_index(0, 0, 0)] == 2.0
        assert dense[indexer.x_index(0, 0, 1)] == 2.0
        assert stacked.u[row] == 40.0

    def test_elastic_adds_slack_structure(self, instance):
        stacked = build_stacked_qp(
            instance, np.ones((2, 2)), np.ones((2, 2)), demand_slack_penalty=9.0
        )
        indexer = stacked.indexer
        assert indexer.elastic
        slack_index = indexer.slack_index(0, 0)
        assert stacked.q[slack_index] == 9.0
        row = stacked.demand_row_offset
        assert stacked.A[row].toarray().ravel()[slack_index] == 1.0

    def test_rejects_bad_penalty(self, instance):
        with pytest.raises(ValueError, match="penalty"):
            build_stacked_qp(
                instance, np.ones((2, 2)), np.ones((2, 2)), demand_slack_penalty=0.0
            )

    def test_rejects_shape_mismatches(self, instance):
        with pytest.raises(ValueError, match="demand"):
            build_stacked_qp(instance, np.ones((3, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="prices"):
            build_stacked_qp(instance, np.ones((2, 2)), np.ones((2, 3)))

    def test_rejects_negative_inputs(self, instance):
        with pytest.raises(ValueError):
            build_stacked_qp(instance, -np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            build_stacked_qp(instance, np.ones((2, 2)), -np.ones((2, 2)))

    def test_capacity_duals_extraction(self, instance):
        stacked = build_stacked_qp(instance, np.ones((2, 2)), np.ones((2, 2)))
        y = np.zeros(stacked.A.shape[0])
        y[stacked.capacity_row_offset] = 3.0
        y[stacked.capacity_row_offset + 1] = -1.0  # clipped
        duals = stacked.capacity_duals(y)
        assert duals.shape == (2, 2)
        assert duals[0, 0] == 3.0
        assert duals[0, 1] == 0.0


def _row_families(view):
    families = [view.dynamics_rows, view.demand_rows, view.capacity_rows, view.nonneg_rows]
    return families + [view.slack_rows] if view.elastic else families


class TestShiftActiveSet:
    """The receding shift of an active set onto a shorter horizon."""

    @pytest.fixture
    def pruned_instance(self):
        return DSPPInstance(
            datacenters=("dc0", "dc1", "dc2"),
            locations=("v0", "v1"),
            sla_coefficients=np.array([[0.1, np.inf], [0.2, 0.1], [np.inf, 0.3]]),
            reconfiguration_weights=np.array([2.0, 3.0, 1.0]),
            capacities=np.array([40.0, 60.0, 50.0]),
            initial_state=np.zeros((3, 2)),
        )

    @pytest.mark.parametrize("layout", ["dense", "sparsified", "elastic"])
    @pytest.mark.parametrize("num_steps", [1, 2, 3])
    def test_new_step_rows_are_old_next_step_rows(
        self, instance, pruned_instance, layout, num_steps
    ):
        if layout == "sparsified":
            view = build_qp_structure(pruned_instance, 4, sparsify=True).blocks
            assert view.active_pairs is not None
        else:
            view = build_qp_structure(instance, 4, elastic=layout == "elastic").blocks
        shorter = build_qp_structure(
            pruned_instance if layout == "sparsified" else instance,
            num_steps,
            elastic=layout == "elastic",
            sparsify=layout == "sparsified",
        ).blocks
        rng = np.random.default_rng(num_steps)
        lower = rng.random(view.num_constraints) < 0.5
        upper = rng.random(view.num_constraints) < 0.5
        new_lower, new_upper = view.shift_active_set(lower, upper, num_steps)
        assert new_lower.shape == new_upper.shape == (shorter.num_constraints,)
        for old_rows, new_rows in zip(_row_families(view), _row_families(shorter)):
            for t in range(num_steps):
                np.testing.assert_array_equal(new_lower[new_rows(t)], lower[old_rows(t + 1)])
                np.testing.assert_array_equal(new_upper[new_rows(t)], upper[old_rows(t + 1)])

    def test_rejects_bad_horizons_and_masks(self, instance):
        view = build_qp_structure(instance, 3).blocks
        mask = np.zeros(view.num_constraints, dtype=bool)
        for num_steps in (0, 3, 4):
            with pytest.raises(ValueError, match="num_steps"):
                view.shift_active_set(mask, mask, num_steps)
        with pytest.raises(ValueError, match="mask"):
            view.shift_active_set(mask[1:], mask[1:], 2)
