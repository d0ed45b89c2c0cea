"""The probes the traced run installs, and the per-layer metrics they give.

Each probe wraps a function or method at the name its caller looks up
(``repro.core.dspp.build_qp_vectors``, not only the defining module), so
the span sees every call the program makes through that seam.  All are
public except ``ProviderPool._replace_worker``, the only place a pool
respawn can be counted from outside.
Counters come from the same boundaries: solver counter deltas around
workspace calls, ADMM iterations from returned solutions, request counts
from returned arrays.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable

from spans import Probe, Tracer

__all__ = ["PER_LAYER", "layer_metrics", "probes"]


def _workspace_counts(tracer: Tracer, args: tuple, kwargs: dict) -> tuple[int, int]:
    workspace = args[0]
    return workspace.num_factorizations, workspace.num_equilibrations


def _workspace_deltas(
    tracer: Tracer, before: tuple[int, int], args: tuple, kwargs: dict, result: Any
) -> None:
    workspace = args[0]
    tracer.count("solvers.workspace.factorizations", workspace.num_factorizations - before[0])
    tracer.count("solvers.workspace.equilibrations", workspace.num_equilibrations - before[1])


def _precision_before(tracer: Tracer, args: tuple, kwargs: dict) -> int:
    return getattr(args[0], "precision_fallbacks", 0)


def _precision_after(tracer: Tracer, before: int, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("solvers.banded.precision_fallbacks", args[0].precision_fallbacks - before)


def _checkpoint_bytes(tracer: Tracer, state: None, args: tuple, kwargs: dict, path: Any) -> None:
    tracer.count("service.checkpoint.bytes", path.stat().st_size)


def _arrival_count(tracer: Tracer, state: None, args: tuple, kwargs: dict, offsets: Any) -> None:
    tracer.count("events.arrivals.requests", len(offsets))


def _replay_counts(tracer: Tracer, state: None, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("events.engine.requests", result.total_requests)
    tracer.count("events.engine.served", result.total_served)
    tracer.count("events.engine.dropped", result.total_dropped)
    tracer.count("events.engine.stranded", result.total_stranded)


def _count(name: str) -> Callable[..., None]:
    def after(tracer: Tracer, state: None, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(name)

    return after


class _Crossover:
    """Counts warm solves and the ones the cached active set certified.

    A warm solve is a ``QPWorkspace.solve`` on a workspace that already
    solved since its last ``setup``; it is a crossover hit when it returns
    after 0 ADMM iterations.
    """

    def __init__(self) -> None:
        self._solved: weakref.WeakSet[Any] = weakref.WeakSet()

    def setup_before(self, tracer: Tracer, args: tuple, kwargs: dict) -> tuple[int, int]:
        self._solved.discard(args[0])
        return _workspace_counts(tracer, args, kwargs)

    def solve_before(self, tracer: Tracer, args: tuple, kwargs: dict) -> tuple[Any, bool]:
        return _workspace_counts(tracer, args, kwargs), args[0] in self._solved

    def solve_after(
        self, tracer: Tracer, state: tuple[Any, bool], args: tuple, kwargs: dict, solution: Any
    ) -> None:
        counts, warm = state
        _workspace_deltas(tracer, counts, args, kwargs, solution)
        tracer.count("solvers.qp.admm_iterations", solution.iterations)
        tracer.count("solvers.qp.admm_solves", int(solution.iterations > 0))
        if warm:
            tracer.count("solvers.crossover.warm_solves")
            tracer.count("solvers.crossover.hits", int(solution.iterations == 0))
        self._solved.add(args[0])


def probes() -> list[Probe]:
    """Every probe of the traced run (all workloads install the same set)."""
    import repro.core.dspp as dspp
    import repro.game.mpc_game as mpc_game
    import repro.service.service as service
    import repro.solvers.workspace as workspace
    from repro.control.mpc import MPCController
    from repro.events.arrivals import MMPPArrivals
    from repro.events.calibration import CalibrationCollector
    from repro.events.collectors import LatencyCollector, ThroughputCollector
    from repro.events.engine import EventEngine
    from repro.experiments.pool import ProviderPool
    from repro.routing.router import RequestRouter
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.metrics import MetricsCollector
    from repro.solvers.banded import BandedActiveSetSystem, BandedKKTSolver
    from repro.solvers.workspace import QPWorkspace

    crossover = _Crossover()
    collectors = (CalibrationCollector, LatencyCollector, ThroughputCollector)
    return [
        Probe(service, "write_checkpoint", "service.checkpoint.write", after=_checkpoint_bytes),
        Probe(MPCController, "observe", "control.mpc.observe"),
        Probe(MPCController, "plan", "control.mpc.plan"),
        Probe(RequestRouter, "route", "routing.router.route"),
        Probe(MetricsCollector, "record_period", "simulation.metrics.record_period"),
        Probe(dspp, "build_qp_structure", "core.matrices.build_qp_structure"),
        Probe(dspp, "build_qp_vectors", "core.matrices.build_qp_vectors"),
        Probe(dspp, "solve_qp", "solvers.qp.solve_qp"),
        Probe(
            QPWorkspace,
            "setup",
            "solvers.workspace.setup",
            before=crossover.setup_before,
            after=_workspace_deltas,
        ),
        Probe(
            QPWorkspace,
            "update",
            "solvers.workspace.update",
            before=_workspace_counts,
            after=_workspace_deltas,
        ),
        Probe(
            QPWorkspace,
            "solve",
            "solvers.workspace.solve",
            before=crossover.solve_before,
            after=crossover.solve_after,
        ),
        Probe(
            BandedKKTSolver,
            "__init__",
            "solvers.banded.kkt_factor",
            before=_precision_before,
            after=_precision_after,
        ),
        Probe(
            BandedKKTSolver,
            "solve",
            "solvers.banded.kkt_solve",
            before=_precision_before,
            after=_precision_after,
        ),
        Probe(workspace, "build_banded_active_set_system", "solvers.banded.active_set_factor"),
        Probe(BandedActiveSetSystem, "solve", "solvers.banded.active_set_solve"),
        Probe(workspace, "solve_active_set_system", "solvers.kkt.active_set_solve"),
        Probe(SimulationEngine, "run", "simulation.engine.run"),
        Probe(MMPPArrivals, "arrivals", "events.arrivals.arrivals", after=_arrival_count),
        Probe(EventEngine, "run", "events.engine.run", after=_replay_counts),
        *(Probe(cls, "on_period", "events.collectors.on_period") for cls in collectors),
        *(Probe(cls, "on_finish", "events.collectors.on_finish") for cls in collectors),
        Probe(ProviderPool, "__init__", "experiments.pool.start"),
        Probe(ProviderPool, "set_problems", "experiments.pool.set_problems"),
        Probe(ProviderPool, "run_round", "experiments.pool.run_round", after=_count("game.rounds")),
        Probe(
            ProviderPool,
            "_replace_worker",
            "experiments.pool.respawn",
            after=_count("experiments.pool.respawns"),
        ),
        Probe(mpc_game, "run_mpc_game", "game.mpc_game.run"),
    ]


# (metric, unit, better, source): ``source`` is ``(span, field)`` for a
# span-table entry or a counter name.  Every workload reports every row;
# a layer its workload does not reach reads 0.
PER_LAYER: list[tuple[str, str, str, tuple[str, str] | str]] = [
    ("service.checkpoint.write.calls", "count", "lower", ("service.checkpoint.write", "calls")),
    ("service.checkpoint.write.busy_ms", "ms", "lower", ("service.checkpoint.write", "busy_ms")),
    ("service.checkpoint.bytes", "bytes", "lower", "service.checkpoint.bytes"),
    ("service.rung.warm", "count", "higher", "service.rung.warm"),
    ("service.rung.cold", "count", "lower", "service.rung.cold"),
    ("service.rung.sparse", "count", "lower", "service.rung.sparse"),
    ("service.rung.hold", "count", "lower", "service.rung.hold"),
    ("service.degradation_events", "count", "lower", "service.degradation_events"),
    ("service.period.busy_ms", "ms", "lower", ("service.period", "busy_ms")),
    ("service.period.unattributed_ms", "ms", "lower", ("service.period", "self_ms")),
    ("control.mpc.observe.busy_ms", "ms", "lower", ("control.mpc.observe", "busy_ms")),
    ("control.mpc.plan.busy_ms", "ms", "lower", ("control.mpc.plan", "busy_ms")),
    ("control.mpc.plan.self_ms", "ms", "lower", ("control.mpc.plan", "self_ms")),
    ("routing.router.route.calls", "count", "lower", ("routing.router.route", "calls")),
    ("routing.router.route.busy_ms", "ms", "lower", ("routing.router.route", "busy_ms")),
    (
        "simulation.metrics.record_period.busy_ms",
        "ms",
        "lower",
        ("simulation.metrics.record_period", "busy_ms"),
    ),
    (
        "core.matrices.build_qp_structure.calls",
        "count",
        "lower",
        ("core.matrices.build_qp_structure", "calls"),
    ),
    (
        "core.matrices.build_qp_structure.busy_ms",
        "ms",
        "lower",
        ("core.matrices.build_qp_structure", "busy_ms"),
    ),
    (
        "core.matrices.build_qp_vectors.busy_ms",
        "ms",
        "lower",
        ("core.matrices.build_qp_vectors", "busy_ms"),
    ),
    ("solvers.workspace.setup.calls", "count", "lower", ("solvers.workspace.setup", "calls")),
    ("solvers.workspace.setup.busy_ms", "ms", "lower", ("solvers.workspace.setup", "busy_ms")),
    ("solvers.workspace.setup.self_ms", "ms", "lower", ("solvers.workspace.setup", "self_ms")),
    ("solvers.workspace.update.busy_ms", "ms", "lower", ("solvers.workspace.update", "busy_ms")),
    ("solvers.workspace.solve.busy_ms", "ms", "lower", ("solvers.workspace.solve", "busy_ms")),
    ("solvers.workspace.solve.self_ms", "ms", "lower", ("solvers.workspace.solve", "self_ms")),
    ("solvers.workspace.factorizations", "count", "lower", "solvers.workspace.factorizations"),
    ("solvers.workspace.equilibrations", "count", "lower", "solvers.workspace.equilibrations"),
    ("solvers.qp.admm_iterations", "count", "lower", "solvers.qp.admm_iterations"),
    ("solvers.qp.admm_solves", "count", "lower", "solvers.qp.admm_solves"),
    ("solvers.qp.solve_qp.busy_ms", "ms", "lower", ("solvers.qp.solve_qp", "busy_ms")),
    ("solvers.banded.kkt_factor.calls", "count", "lower", ("solvers.banded.kkt_factor", "calls")),
    ("solvers.banded.kkt_factor.busy_ms", "ms", "lower", ("solvers.banded.kkt_factor", "busy_ms")),
    ("solvers.banded.kkt_solve.calls", "count", "lower", ("solvers.banded.kkt_solve", "calls")),
    ("solvers.banded.kkt_solve.busy_ms", "ms", "lower", ("solvers.banded.kkt_solve", "busy_ms")),
    (
        "solvers.banded.active_set_factor.calls",
        "count",
        "lower",
        ("solvers.banded.active_set_factor", "calls"),
    ),
    (
        "solvers.banded.active_set_factor.busy_ms",
        "ms",
        "lower",
        ("solvers.banded.active_set_factor", "busy_ms"),
    ),
    (
        "solvers.banded.active_set_solve.calls",
        "count",
        "lower",
        ("solvers.banded.active_set_solve", "calls"),
    ),
    (
        "solvers.banded.active_set_solve.busy_ms",
        "ms",
        "lower",
        ("solvers.banded.active_set_solve", "busy_ms"),
    ),
    ("solvers.banded.precision_fallbacks", "count", "lower", "solvers.banded.precision_fallbacks"),
    (
        "solvers.kkt.active_set_solve.calls",
        "count",
        "lower",
        ("solvers.kkt.active_set_solve", "calls"),
    ),
    (
        "solvers.kkt.active_set_solve.busy_ms",
        "ms",
        "lower",
        ("solvers.kkt.active_set_solve", "busy_ms"),
    ),
    ("solvers.crossover.warm_solves", "count", "higher", "solvers.crossover.warm_solves"),
    ("solvers.crossover.hit_ratio", "ratio", "higher", "solvers.crossover.hit_ratio"),
    ("simulation.engine.run.busy_ms", "ms", "lower", ("simulation.engine.run", "busy_ms")),
    ("events.arrivals.arrivals.calls", "count", "lower", ("events.arrivals.arrivals", "calls")),
    ("events.arrivals.arrivals.busy_ms", "ms", "lower", ("events.arrivals.arrivals", "busy_ms")),
    ("events.arrivals.requests", "count", "higher", "events.arrivals.requests"),
    ("events.engine.run.busy_ms", "ms", "lower", ("events.engine.run", "busy_ms")),
    ("events.engine.run.self_ms", "ms", "lower", ("events.engine.run", "self_ms")),
    ("events.engine.requests", "count", "higher", "events.engine.requests"),
    ("events.engine.served", "count", "higher", "events.engine.served"),
    ("events.engine.dropped", "count", "lower", "events.engine.dropped"),
    ("events.engine.stranded", "count", "lower", "events.engine.stranded"),
    (
        "events.collectors.on_period.busy_ms",
        "ms",
        "lower",
        ("events.collectors.on_period", "busy_ms"),
    ),
    (
        "events.collectors.on_finish.busy_ms",
        "ms",
        "lower",
        ("events.collectors.on_finish", "busy_ms"),
    ),
    ("experiments.pool.start.busy_ms", "ms", "lower", ("experiments.pool.start", "busy_ms")),
    (
        "experiments.pool.set_problems.calls",
        "count",
        "lower",
        ("experiments.pool.set_problems", "calls"),
    ),
    (
        "experiments.pool.set_problems.busy_ms",
        "ms",
        "lower",
        ("experiments.pool.set_problems", "busy_ms"),
    ),
    (
        "experiments.pool.run_round.calls",
        "count",
        "lower",
        ("experiments.pool.run_round", "calls"),
    ),
    (
        "experiments.pool.run_round.busy_ms",
        "ms",
        "lower",
        ("experiments.pool.run_round", "busy_ms"),
    ),
    ("experiments.pool.respawns", "count", "lower", "experiments.pool.respawns"),
    ("game.mpc_game.run.self_ms", "ms", "lower", ("game.mpc_game.run", "self_ms")),
    ("game.rounds", "count", "lower", "game.rounds"),
]


def layer_metrics(
    table: dict[str, dict[str, float]], counters: dict[str, float]
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a span table and counters."""
    counters = dict(counters)
    warm = counters.get("solvers.crossover.warm_solves", 0.0)
    counters["solvers.crossover.hit_ratio"] = (
        counters.get("solvers.crossover.hits", 0.0) / warm if warm else 0.0
    )
    values = {}
    for name, _, _, source in PER_LAYER:
        if isinstance(source, tuple):
            span, field = source
            values[name] = float(table.get(span, {}).get(field, 0.0))
        else:
            values[name] = float(counters.get(source, 0.0))
    return values
