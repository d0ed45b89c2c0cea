"""KKT residual computation and active-set polishing for QP solutions.

The ADMM iteration in :mod:`repro.solvers.qp` converges linearly, which is
fine for control but leaves ~1e-6 residuals.  The *polish* step implemented
here guesses the active set from the final dual iterate, solves the reduced
equality-constrained QP exactly (one regularized KKT solve), and keeps the
result only if it strictly improves every residual — the standard OSQP
post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.sanitize as sanitize
from repro.contracts import check_shapes

__all__ = [
    "ActiveSetSystem",
    "KKTResiduals",
    "build_active_set_system",
    "guess_active_set",
    "kkt_residuals",
    "polish_solution",
    "regularized_kkt",
    "solve_active_set_system",
    "update_active_set",
]

if TYPE_CHECKING:
    from repro.solvers.qp import QPProblem, QPSolution

_ACTIVE_TOL = 1e-7
_POLISH_REGULARIZATION = 1e-9


@dataclass(frozen=True)
class KKTResiduals:
    """Infinity-norm KKT residuals of a primal/dual pair.

    Attributes:
        primal: constraint violation ``max(0, l - Ax, Ax - u)`` in inf-norm.
        dual: stationarity residual ``||Px + q + A'y||_inf``.
        complementarity: violation of complementary slackness.
    """

    primal: float
    dual: float
    complementarity: float

    @property
    def worst(self) -> float:
        return max(self.primal, self.dual, self.complementarity)


@check_shapes("x:(n,)", "y:(m,)")
def kkt_residuals(problem: QPProblem, x: np.ndarray, y: np.ndarray) -> KKTResiduals:
    """Compute KKT residuals of ``(x, y)`` for a :class:`~repro.solvers.qp.QPProblem`.

    The sign convention matches :class:`repro.solvers.qp.QPSolution`:
    positive ``y`` presses on the upper bound, negative on the lower.
    """
    ax = problem.A @ x
    lower_violation = np.where(np.isfinite(problem.l), problem.l - ax, -np.inf)
    upper_violation = np.where(np.isfinite(problem.u), ax - problem.u, -np.inf)
    primal = float(max(0.0, lower_violation.max(initial=0.0), upper_violation.max(initial=0.0)))
    dual = float(np.max(np.abs(problem.P @ x + problem.q + problem.A.T @ y), initial=0.0))

    y_pos = np.maximum(y, 0.0)
    y_neg = np.minimum(y, 0.0)
    slack_upper = np.where(np.isfinite(problem.u), problem.u - ax, 0.0)
    slack_lower = np.where(np.isfinite(problem.l), ax - problem.l, 0.0)
    comp = float(max(np.max(np.abs(y_pos * slack_upper), initial=0.0), np.max(np.abs(y_neg * slack_lower), initial=0.0)))
    return KKTResiduals(primal=primal, dual=dual, complementarity=comp)


@dataclass(frozen=True)
class ActiveSetSystem:
    """A factorized active-set KKT system, reusable across data changes.

    The factorization depends only on the problem *structure* (``P``,
    ``A``) and the active-set masks — not on ``q``/``l``/``u`` — so a
    receding-horizon workspace can cache it and re-solve against fresh
    vectors with two back-substitutions (see
    :func:`solve_active_set_system`).

    Attributes:
        active_lower: boolean mask of rows active at their lower bound.
        active_upper: boolean mask of rows active at their upper bound
            (equality rows are folded in here).
        lu: LU factorization of the regularized KKT matrix.
        a_active: the active rows of ``A``; iterative refinement multiplies
            by this (and ``P``) rather than materializing the unregularized
            KKT matrix, whose assembly would cost more than the solve.
    """

    active_lower: np.ndarray
    active_upper: np.ndarray
    lu: spla.SuperLU
    a_active: sp.csc_matrix


@check_shapes("x:(n,)", "y:(m,)", ret=("(m,)", "(m,)"))
def guess_active_set(
    problem: QPProblem, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Guess the optimal active set from a primal/dual pair.

    A row counts as active when its multiplier presses on it or the
    constraint holds with (near-)equality.  Equality rows are resolved to
    the upper mask so each row carries a single multiplier.

    Returns:
        ``(active_lower, active_upper)`` boolean masks of shape ``(m,)``.
    """
    ax = problem.A @ x
    active_lower = np.isfinite(problem.l) & (
        (y < -_ACTIVE_TOL) | (ax <= problem.l + _ACTIVE_TOL)
    )
    active_upper = np.isfinite(problem.u) & (
        (y > _ACTIVE_TOL) | (ax >= problem.u - _ACTIVE_TOL)
    )
    equality = problem.l == problem.u
    active_upper = active_upper | equality
    active_lower = active_lower & ~equality
    return active_lower, active_upper


def regularized_kkt(problem: QPProblem) -> sp.csc_matrix:
    """The regularized KKT matrix over *every* constraint row.

    ``[[P + reg*I, A'], [A, -reg*I]]`` depends only on ``P`` and ``A``, so
    a caller that builds many active-set systems for one structure builds
    this once and hands it to :func:`build_active_set_system`, which then
    only slices out each active set's rows and columns.
    """
    n = problem.num_variables
    m = problem.num_constraints
    reg = _POLISH_REGULARIZATION
    return sp.bmat(
        [
            [problem.P + reg * sp.identity(n, format="csc"), problem.A.T],
            [problem.A, -reg * sp.identity(m, format="csc")],
        ],
        format="csc",
    )


@check_shapes("active_lower:(m,)", "active_upper:(m,)")
def build_active_set_system(
    problem: QPProblem,
    active_lower: np.ndarray,
    active_upper: np.ndarray,
    kkt: sp.csc_matrix | None = None,
) -> ActiveSetSystem | None:
    """Assemble and factorize the regularized KKT system for an active set.

    Args:
        problem: the QP whose ``P``/``A`` the system is built from.
        active_lower: rows active at their lower bound, ``(m,)``.
        active_upper: rows active at their upper bound, ``(m,)``.
        kkt: :func:`regularized_kkt` of ``problem``, when the caller
            caches it; built here otherwise.

    Returns:
        The factorized :class:`ActiveSetSystem`, or ``None`` if the active
        set is empty or the factorization fails.
    """
    active = active_lower | active_upper
    if not np.any(active):
        return None
    if kkt is None:
        kkt = regularized_kkt(problem)
    n = problem.num_variables
    keep = np.concatenate([np.arange(n), n + np.flatnonzero(active)])
    try:
        lu = spla.splu(kkt[keep][:, keep])
    except RuntimeError:
        return None
    return ActiveSetSystem(
        active_lower=active_lower,
        active_upper=active_upper,
        lu=lu,
        a_active=problem.A[active],
    )


def solve_active_set_system(
    problem: QPProblem, system: ActiveSetSystem
) -> tuple[np.ndarray, np.ndarray]:
    """Solve a cached active-set system against the problem's current data.

    Only ``q``/``l``/``u`` enter the right-hand side, so the cached
    factorization stays valid as long as ``P``/``A`` and the active set are
    unchanged.  Includes one step of iterative refinement against the
    unregularized system.

    Returns:
        ``(x, y)`` with ``y`` expanded to all ``m`` rows (zeros off the
        active set).
    """
    # Degenerate working sets legally produce non-finite iterates here;
    # callers isfinite-check and fall back to ADMM, so opt out of any
    # surrounding sanitize guard.
    with sanitize.tolerant("active-set solve"):
        active = system.active_lower | system.active_upper
        bounds = np.where(
            system.active_lower[active], problem.l[active], problem.u[active]
        )
        n = problem.num_variables
        rhs = np.concatenate([-problem.q, bounds])
        sol = system.lu.solve(rhs)
        x_trial = sol[:n]
        nu = sol[n:]
        residual = np.concatenate(
            [
                rhs[:n] - (problem.P @ x_trial + system.a_active.T @ nu),
                rhs[n:] - system.a_active @ x_trial,
            ]
        )
        sol = sol + system.lu.solve(residual)
        x = sol[:n]
        y = np.zeros(problem.num_constraints)
        y[active] = sol[n:]
    return x, y


@check_shapes("x:(n,)", "y:(m,)", ret=("(m,)", "(m,)"))
def update_active_set(
    problem: QPProblem, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One primal-dual active-set update from a trial KKT point.

    Given ``(x, y)`` solved with some working active set, propose the next
    working set the way a primal-dual active-set method does: rows whose
    constraint is *violated* join the set, and rows held at their bound by
    a wrong-sign multiplier leave it.  The combined test
    ``y_i + (a_i x - bound_i)`` reduces to exactly those two rules at a
    trial point (held rows have ``a_i x = bound_i``; inactive rows have
    ``y_i = 0``).  Equality rows are always active (upper, by the same
    convention as :func:`guess_active_set`).

    Returns:
        ``(active_lower, active_upper)`` boolean masks of shape ``(m,)``.
    """
    ax = problem.A @ x
    equality = problem.l == problem.u
    active_upper = np.isfinite(problem.u) & (y + (ax - problem.u) > _ACTIVE_TOL)
    active_lower = np.isfinite(problem.l) & (y + (ax - problem.l) < -_ACTIVE_TOL)
    active_upper = active_upper | equality
    active_lower = active_lower & ~active_upper
    return active_lower, active_upper


def polish_solution(
    problem: QPProblem, solution: QPSolution, kkt: sp.csc_matrix | None = None
) -> QPSolution:
    """Refine an ADMM solution with one exact active-set KKT solve.

    Args:
        problem: the :class:`repro.solvers.qp.QPProblem` that was solved.
        solution: the :class:`repro.solvers.qp.QPSolution` to refine.
        kkt: :func:`regularized_kkt` of ``problem``, if the caller caches
            it (see :func:`build_active_set_system`).

    Returns:
        A new solution (``polished=True``) if the refinement improved the
        worst KKT residual, otherwise the input solution unchanged.
    """
    active_lower, active_upper = guess_active_set(problem, solution.x, solution.y)
    system = build_active_set_system(problem, active_lower, active_upper, kkt=kkt)
    if system is None:
        return solution
    x_new, y_new = solve_active_set_system(problem, system)
    if not np.all(np.isfinite(x_new)):
        return solution

    old = kkt_residuals(problem, solution.x, solution.y)
    new = kkt_residuals(problem, x_new, y_new)
    if new.worst >= old.worst:
        return solution

    from repro.solvers.qp import QPSolution

    return QPSolution(
        x=x_new,
        y=y_new,
        objective=problem.objective(x_new),
        status=solution.status,
        iterations=solution.iterations,
        primal_residual=new.primal,
        dual_residual=new.dual,
        polished=True,
    )
