"""Exact finite-horizon solution of the DSPP (Section IV-D).

``solve_dspp`` assembles the stacked sparse QP and hands it to the ADMM
solver; the result is unpacked into state/control trajectories, audited
costs and the capacity duals that Algorithm 2's coordinator needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.contracts import check_shapes
from repro.core.costs import CostBreakdown, total_cost
from repro.core.instance import DSPPInstance
from repro.core.matrices import (
    StackedQP,
    StackedQPStructure,
    build_qp_structure,
    build_qp_vectors,
    resolve_sparsify,
    structure_fingerprint,
)
from repro.core.state import Trajectory
from repro.solvers.qp import QPSettings, QPSolution, QPStatus, solve_qp
from repro.solvers.workspace import QPWorkspace

__all__ = [
    "DEFAULT_QP_SETTINGS",
    "DSPPInfeasibleError",
    "DSPPSolution",
    "DSPPWorkspace",
    "resolve_qp_settings",
    "solve_dspp",
]

# Solver settings of every DSPP solve that is given none, with or without
# a workspace.  Verified early polishing lets ADMM hand over to the exact
# active-set solve as soon as the polished result meets the *strict*
# tolerances, so accuracy is unchanged.
DEFAULT_QP_SETTINGS = QPSettings(early_polish=True)


def resolve_qp_settings(settings: QPSettings | None) -> QPSettings:
    """``settings``, or :data:`DEFAULT_QP_SETTINGS` when it is ``None``."""
    return DEFAULT_QP_SETTINGS if settings is None else settings


class DSPPInfeasibleError(RuntimeError):
    """The instance admits no feasible allocation (demand exceeds what the
    capacities can serve under the SLA, over the given horizon)."""


class DSPPWorkspace:
    """Persistent solver state reused across same-structure DSPP solves.

    Consecutive receding-horizon (and best-response) solves share the
    ``(P, A)`` sparsity structure — only forecasts, the initial state and
    capacities change, and those live purely in the ``q``/``l``/``u``
    vectors.  A :class:`DSPPWorkspace` caches the assembled
    :class:`~repro.core.matrices.StackedQPStructure` and the underlying
    :class:`~repro.solvers.workspace.QPWorkspace` (Ruiz scaling + KKT
    factorization), so each subsequent solve is a vector-only ``update()``
    plus a warm-started ADMM run.

    Pass one to :func:`solve_dspp` via its ``workspace=`` argument.  The
    workspace re-validates the structure fingerprint on every solve and
    rebuilds itself when the structure genuinely changed (different
    horizon, SLA matrix, reconfiguration weights, server size or elastic
    mode) — capacity swaps and state advances never trigger a rebuild.

    A rebuild whose only change is a shorter horizon — the window clamped
    over the last periods of a finite receding-horizon run — does not
    start cold: the last certified active set, shifted one receding step
    (:meth:`~repro.core.matrices.QPBlockView.shift_active_set`), seeds the
    new solver's crossover, which certifies it or falls back to ADMM.

    Attributes:
        num_setups: structure (re)builds performed, each paying the full
            equilibrate + factorize price.
        num_updates: vector-only updates served from the cache.
    """

    def __init__(self) -> None:
        self._qp = QPWorkspace()
        self._structure: StackedQPStructure | None = None
        self._settings: QPSettings | None = None

    @property
    def num_setups(self) -> int:
        return self._qp.num_setups

    @property
    def num_updates(self) -> int:
        return self._qp.num_updates

    def invalidate(self) -> None:
        """Drop all cached state (structure, factorization and iterates)."""
        self._qp = QPWorkspace()
        self._structure = None
        self._settings = None

    def solve(
        self,
        instance: DSPPInstance,
        demand: np.ndarray,
        prices: np.ndarray,
        settings: QPSettings | None = None,
        warm_start: QPSolution | None = None,
        demand_slack_penalty: float | None = None,
        reuse_iterates: bool = True,
    ) -> tuple[StackedQP, QPSolution]:
        """Assemble (incrementally) and solve one stacked DSPP QP.

        Returns the assembled :class:`~repro.core.matrices.StackedQP` and
        the raw QP solution; :func:`solve_dspp` handles the unpacking.
        """
        demand = np.asarray(demand, dtype=float)
        if demand.ndim != 2 or demand.shape[0] != instance.num_locations:
            raise ValueError(
                f"demand must be ({instance.num_locations}, T), got {demand.shape}"
            )
        T = demand.shape[1]
        elastic = demand_slack_penalty is not None
        effective_settings = resolve_qp_settings(settings)

        # Column sparsification is resolved per solve against the *current*
        # instance (the exactness precondition involves the initial state);
        # the resolved flag is part of the fingerprint, so a solve whose
        # resolution flips never reuses the other layout's structure.
        sparsify = resolve_sparsify(instance, effective_settings.sparsify_columns)
        fingerprint = structure_fingerprint(instance, T, elastic, sparsify=sparsify)
        reusable = (
            self._structure is not None
            and self._structure.fingerprint == fingerprint
            and self._settings == effective_settings
        )
        seed = None
        if not reusable:
            seed = self._receding_active_set(
                instance, T, elastic, sparsify, effective_settings
            )
            self._structure = build_qp_structure(
                instance, T, elastic=elastic, sparsify=sparsify
            )
            self._settings = effective_settings
        structure = self._structure
        assert structure is not None
        q, l, u = build_qp_vectors(
            structure, instance, demand, prices, demand_slack_penalty=demand_slack_penalty
        )
        if reusable:
            self._qp.update(q=q, l=l, u=u)
        else:
            self._qp.setup(
                structure.P,
                structure.A,
                q=q,
                l=l,
                u=u,
                settings=effective_settings,
                blocks=structure.blocks,
            )
            if seed is not None:
                self._qp.seed_active_set(*seed)
        qp_solution = self._qp.solve(
            warm_start=warm_start, reuse_iterates=reuse_iterates
        )
        return structure.stack(q, l, u), qp_solution

    def _receding_active_set(
        self,
        instance: DSPPInstance,
        num_steps: int,
        elastic: bool,
        sparsify: bool,
        settings: QPSettings,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The cached active set, shifted onto a ``num_steps`` horizon.

        ``None`` unless the horizon is the only thing that changed since
        the cached structure was built, and it shrank.
        """
        old = self._structure
        masks = self._qp.active_set
        if old is None or masks is None or self._settings != settings:
            return None
        old_steps = old.indexer.num_steps
        if num_steps >= old_steps or old.fingerprint != structure_fingerprint(
            instance, old_steps, elastic, sparsify=sparsify
        ):
            return None
        return old.blocks.shift_active_set(*masks, num_steps)


@dataclass(frozen=True)
class DSPPSolution:
    """Solution of one finite-horizon DSPP solve.

    Attributes:
        trajectory: consistent states ``x_1..x_T`` and controls
            ``u_0..u_{T-1}``.
        costs: audited ``H``/``G`` breakdown over the horizon.
        capacity_duals: shape ``(T, L)`` — the multipliers ``lambda^l`` of
            the capacity constraints (what each provider reports to the
            coordinator in Algorithm 2).
        demand_slack: shape ``(T, V)`` — unmet demand in elastic mode (all
            zeros for the standard hard-constrained problem).
        slack_penalty: the per-unit penalty used (``None`` if inelastic).
        qp: the raw QP solution (iterations, residuals).
    """

    trajectory: Trajectory
    costs: CostBreakdown
    capacity_duals: np.ndarray
    demand_slack: np.ndarray
    slack_penalty: float | None
    qp: QPSolution

    @property
    def objective(self) -> float:
        """The DSPP objective ``J`` over the horizon, including any
        shortfall penalty paid in elastic mode."""
        penalty = 0.0
        if self.slack_penalty is not None:
            penalty = self.slack_penalty * float(self.demand_slack.sum())
        return self.costs.total + penalty

    @property
    def first_control(self) -> np.ndarray:
        """``u_{k|k}`` — the only move MPC actually applies, shape ``(L, V)``."""
        return self.trajectory.controls[0].copy()


@check_shapes("demand:(V,T)", "prices:(L,T)")
def solve_dspp(
    instance: DSPPInstance,
    demand: np.ndarray,
    prices: np.ndarray,
    settings: QPSettings | None = None,
    warm_start: QPSolution | None = None,
    demand_slack_penalty: float | None = None,
    workspace: DSPPWorkspace | None = None,
    reuse_iterates: bool = True,
) -> DSPPSolution:
    """Solve the DSPP for ``T`` future periods.

    Args:
        instance: static problem data, including the current state ``x_0``.
        demand: forecast demand for periods ``1..T``, shape ``(V, T)``.
        prices: per-server prices for periods ``1..T``, shape ``(L, T)``.
        settings: QP solver settings (``None``: :data:`DEFAULT_QP_SETTINGS`,
            with or without a workspace).
        warm_start: previous same-shaped QP solution (receding-horizon
            solves are nearly identical period over period, so warm starts
            cut iterations dramatically).
        demand_slack_penalty: if given, solve the *elastic* variant where
            demand shortfall is allowed at this linear per-unit penalty
            (used by the best-response game dynamics; see
            :mod:`repro.core.matrices`).
        workspace: a :class:`DSPPWorkspace` to reuse across solves; caches
            the stacked structure, the Ruiz scaling and the KKT
            factorization so repeat solves that differ only in forecasts,
            state or capacities pay a vector-only update.
        reuse_iterates: when solving through a workspace and no explicit
            ``warm_start`` is given, seed ADMM from the previous solve's
            iterates (ignored without a workspace).

    Returns:
        The :class:`DSPPSolution`.

    Raises:
        DSPPInfeasibleError: if the QP is primal infeasible (demand cannot
            be served within capacity under the SLA).
        RuntimeError: if the solver fails to converge.
    """
    if workspace is not None:
        stacked, qp_solution = workspace.solve(
            instance,
            demand,
            prices,
            settings=settings,
            warm_start=warm_start,
            demand_slack_penalty=demand_slack_penalty,
            reuse_iterates=reuse_iterates,
        )
    else:
        settings = resolve_qp_settings(settings)
        structure = build_qp_structure(
            instance,
            np.asarray(demand).shape[1],
            elastic=demand_slack_penalty is not None,
            sparsify=resolve_sparsify(instance, settings.sparsify_columns),
        )
        stacked = structure.stack(
            *build_qp_vectors(
                structure, instance, demand, prices, demand_slack_penalty=demand_slack_penalty
            )
        )
        qp_solution = solve_qp(
            stacked.P,
            stacked.q,
            stacked.A,
            stacked.l,
            stacked.u,
            settings=settings,
            warm_start=warm_start,
            blocks=structure.blocks,
        )
    if qp_solution.status is QPStatus.PRIMAL_INFEASIBLE:
        raise DSPPInfeasibleError(
            "DSPP infeasible: forecast demand exceeds SLA-feasible capacity"
        )
    if qp_solution.status is not QPStatus.OPTIMAL:
        raise RuntimeError(
            f"QP solver failed with status {qp_solution.status.value} after "
            f"{qp_solution.iterations} iterations "
            f"(primal residual {qp_solution.primal_residual:.2e}, "
            f"dual residual {qp_solution.dual_residual:.2e})"
        )

    states, controls, slack = stacked.indexer.unstack(qp_solution.x)
    # ADMM feasibility is approximate; tiny negative allocations are noise.
    states = np.maximum(states, 0.0)
    slack = np.maximum(slack, 0.0)
    # Re-derive controls from the cleaned states so the trajectory is exactly
    # consistent with the state equation.
    prev = np.concatenate([instance.initial_state[None], states[:-1]], axis=0)
    controls = states - prev

    trajectory = Trajectory(
        initial_state=instance.initial_state.copy(), states=states, controls=controls
    )
    costs = total_cost(states, controls, np.asarray(prices, dtype=float), instance.reconfiguration_weights)
    duals = stacked.capacity_duals(qp_solution.y)
    return DSPPSolution(
        trajectory=trajectory,
        costs=costs,
        capacity_duals=duals,
        demand_slack=slack,
        slack_penalty=demand_slack_penalty,
        qp=qp_solution,
    )
