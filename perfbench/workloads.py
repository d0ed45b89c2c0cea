"""The benchmark's workloads: seeded inputs, one repetition, checks.

Each workload builds its inputs from the seed alone, runs one repetition
of the program on them and checks the outputs.  A repetition solves the
same problem sequence for a given seed: there is no wall-clock deadline
and no throttle anywhere, so two repetitions on one seed (the traced and
the untraced one) must agree bitwise.

The period of each workload is its control period:

* ``serve-paper``: one ``PlacementService`` period (observe, ladder solve,
  route, metrics, checkpoint), timed around ``PlacementService.run`` with
  ``until`` one period further each call;
* ``replay-bursty``: one replayed control period of ``EventEngine.run``,
  timed around the per-period replay task handed to ``run_sweep``;
* ``game-paper``: one period of ``run_mpc_game`` (forecast, problem ship,
  coordination rounds, commit), clocked where the game collects its
  providers' first moves (``ProviderPool.first_controls``).

Setup is everything before the first period ends: input build, object
construction and the cold period 0 (for the replay, the placement
planning run; for the game, the pool start).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from spans import Tracer, patched

__all__ = ["WORKLOADS", "Repetition", "Workload"]

clock = time.perf_counter

# Relative tolerance of the per-DC capacity check (solver feasibility is
# certified to eps_abs = eps_rel = 1e-6 on the scaled problem).
CAPACITY_RTOL = 1e-5

SERVE_WINDOW = 6
# serve-paper: two days of hourly periods; a low-rate fault plan sends a
# few periods down the cold, sparse and (rarely) hold rungs.
PAPER_PERIODS = 49
FAULT_RATE = 0.1
FAULT_KINDS = ("nan_observation", "telemetry_gap", "deadline_squeeze", "checkpoint_corruption")
# replay-bursty: MMPP requests against a 24-period paper-scale plan.
REPLAY_PERIODS = 24
REPLAY_REQUESTS = 2_000_000
REPLAY_BURSTINESS = 0.8
# Sampling tolerance of the replayed request count: over 40 seeds the MMPP
# total of the paper scenario has a relative standard deviation of 2.4%
# (a few large cities carry most requests), so 12% is five deviations.
REPLAY_COUNT_RTOL = 0.12
# game-paper: 4 providers on the paper scenario's DCs and locations, with
# the cheap bottleneck DC of ``run_fig8``'s defaults.  Half a day of hourly
# periods per population: populations differ in cost per period by a factor
# of two or more, so a run pools many short games rather than a few long
# ones.
GAME_PROVIDERS = 4
GAME_PERIODS = 13
GAME_WINDOW = 3
GAME_ROUNDS = 2
GAME_DEMAND_SCALE = 250.0
GAME_CHEAP_PRICE = 0.25
GAME_BOTTLENECK = 150.0


@dataclass
class Repetition:
    """What one repetition measured and found.

    Attributes:
        setup_s: input build, construction and the first period.
        period_s: wall time of every later period.
        loop_s: wall time the later periods took together (for the
            replay, the whole ``EventEngine.run``).
        periods: periods counted in ``loop_s``.
        attempted: periods attempted, the first one included.
        degraded: periods that raised or ended at the ``hold`` rung.
        cost: realized placement cost (the planning run's for the replay).
        reference: the outputs ``reference.json`` holds per seed: the cost,
            and for the replay its request and latency totals.
        digest: SHA-256 over the repetition's outputs.
        counters: workload-level counts (rungs, requests).
        problems: correctness violations found by the checks.
    """

    setup_s: float = 0.0
    period_s: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    periods: int = 0
    attempted: int = 0
    degraded: int = 0
    cost: float = float("nan")
    reference: dict[str, Any] = field(default_factory=dict)
    digest: str = ""
    counters: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    seed: int = 0


def _digest(*arrays: Any) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


# ----------------------------------------------------------------------
# serve-paper


def paper_inputs(seed: int) -> tuple[Any, Any]:
    """The Section VII scenario and a seeded low-rate fault plan."""
    from repro.experiments.runner import derive_seed
    from repro.service.faults import make_fault_plan
    from repro.simulation.scenario import build_paper_scenario

    scenario = build_paper_scenario(num_periods=PAPER_PERIODS, seed=seed)
    plan = make_fault_plan(
        derive_seed(seed, 1), scenario.num_periods, rate=FAULT_RATE, kinds=FAULT_KINDS
    )
    return scenario, plan


def _serve(seed: int, workdir: Path, tracer: Tracer | None) -> Repetition:
    from repro.service.ladder import LADDER_RUNGS
    from repro.service.service import PlacementService, ServiceConfig

    checkpoints = workdir / "checkpoints"
    shutil.rmtree(checkpoints, ignore_errors=True)
    rep = Repetition()
    start = clock()
    scenario, plan = paper_inputs(seed)
    service = PlacementService(
        scenario,
        ServiceConfig(window=SERVE_WINDOW, checkpoint_interval=1),
        checkpoint_dir=checkpoints,
        fault_plan=plan,
    )
    result = None
    for k in range(service.num_steps):
        rep.attempted += 1
        began = clock()
        try:
            if tracer is not None and k > 0:
                with tracer.span("service.period"):
                    result = service.run(until=k + 1)
            else:
                result = service.run(until=k + 1)
        except Exception as error:  # noqa: BLE001 - a raising period is a measured failure
            rep.degraded += 1
            rep.problems.append(f"period {k} raised {type(error).__name__}: {error}")
            break
        ended = clock()
        if k == 0:
            rep.setup_s = ended - start
        else:
            rep.period_s.append(ended - began)
    shutil.rmtree(checkpoints, ignore_errors=True)
    rep.loop_s = sum(rep.period_s)
    rep.periods = len(rep.period_s)
    if result is None:
        if not rep.problems:
            rep.problems.append("service did not complete")
        return rep

    rungs = result.terminal_rungs
    if len(rungs) != service.num_steps or not set(rungs) <= set(LADDER_RUNGS):
        rep.problems.append(f"{len(rungs)} terminal rungs for {service.num_steps} periods")
    rep.degraded += rungs.count("hold")
    for rung in LADDER_RUNGS:
        rep.counters[f"service.rung.{rung}"] = rungs.count(rung)
    rep.counters["service.degradation_events"] = len(result.log)

    instance = scenario.instance
    states = result.states
    if not np.all(np.isfinite(states)) or np.any(states < 0):
        rep.problems.append("non-finite or negative state")
    excess = instance.server_size * states.sum(axis=2) - instance.capacities * (
        1 + CAPACITY_RTOL
    )
    if np.any(excess > 0):
        rep.problems.append(f"capacity exceeded by {float(excess.max()):.3g}")
    prices = scenario.prices[:, 1 : result.states.shape[0] + 1]
    audit = float(np.einsum("klv,lk->", result.states, prices)) + float(
        np.einsum("l,klv->", instance.reconfiguration_weights, result.controls**2)
    )
    cost = result.summary.total_cost
    if not np.isclose(audit, cost, rtol=1e-9, atol=0.0):
        rep.problems.append(f"reported cost {cost!r} but states and controls cost {audit!r}")
    rep.cost = cost
    rep.reference = {"cost": cost}
    rep.digest = _digest(result.states, result.controls, np.array([ord(r[0]) for r in rungs]))
    return rep


# ----------------------------------------------------------------------
# replay-bursty


def _replay(seed: int, workdir: Path, tracer: Tracer | None) -> Repetition:
    import repro.events.engine as engine_module
    from repro.control.mpc import MPCConfig, MPCController
    from repro.events.arrivals import MMPPArrivals
    from repro.events.calibration import CalibrationCollector
    from repro.events.collectors import LatencyCollector, ThroughputCollector
    from repro.events.engine import EventEngine, ReplayConfig
    from repro.prediction.naive import LastValuePredictor
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.scenario import build_paper_scenario

    rep = Repetition()
    start = clock()
    scenario = build_paper_scenario(num_periods=REPLAY_PERIODS, seed=seed)
    instance = scenario.instance
    # Planned the way ``repro events`` plans a replay.
    controller = MPCController(
        instance,
        LastValuePredictor(instance.num_locations),
        LastValuePredictor(instance.num_datacenters),
        MPCConfig(window=3, slack_penalty=100.0),
    )
    plan = SimulationEngine(scenario, controller).run()
    latency = LatencyCollector()
    engine = EventEngine(
        scenario,
        plan.states,
        config=ReplayConfig(seed=seed, total_requests=REPLAY_REQUESTS, warmup_fraction=0.1),
        process=MMPPArrivals(rates=scenario.demand, burstiness=REPLAY_BURSTINESS),
        collectors=(CalibrationCollector(), latency, ThroughputCollector()),
    )
    rep.setup_s = clock() - start

    def clocked(run_sweep: Callable[..., Any]) -> Callable[..., Any]:
        def sweep(worker: Callable[[Any], Any], specs: Any, jobs: int | None = None) -> Any:
            def timed(spec: Any) -> Any:
                began = clock()
                batch = worker(spec)
                rep.period_s.append(clock() - began)
                return batch

            return run_sweep(timed, specs, jobs=jobs)

        return sweep

    with patched(engine_module, "run_sweep", clocked):
        began = clock()
        result = engine.run(jobs=1)
        rep.loop_s = clock() - began

    # Request conservation (arrivals = served + dropped + stranded in every
    # period) is gated by ``EventEngine.run`` itself, which raises on a
    # period that breaks it; a raise fails the run.
    counts = result.status_counts
    rep.periods = rep.attempted = counts.shape[0]
    if counts.shape[0] != scenario.num_periods - 1:
        rep.problems.append(f"{counts.shape[0]} periods replayed")
    total = result.total_requests
    if abs(total - REPLAY_REQUESTS) > REPLAY_COUNT_RTOL * REPLAY_REQUESTS:
        rep.problems.append(f"{total} requests replayed, target {REPLAY_REQUESTS}")
    rep.counters["requests"] = total
    rep.cost = plan.summary.total_cost
    stats = latency.location_stats()
    measured = stats.measured > 0
    rep.reference = {
        "cost": rep.cost,
        "requests": total,
        "served": result.total_served,
        "dropped": result.total_dropped,
        "stranded": result.total_stranded,
        "status_sha256": _digest(counts),
        "measured": int(stats.measured.sum()),
        "violations": int(stats.violations.sum()),
        "latency_total": float(np.sum(stats.mean_latency[measured] * stats.measured[measured])),
    }
    rep.digest = _digest(plan.states, counts, stats.measured, stats.violations, stats.mean_latency)
    return rep


# ----------------------------------------------------------------------
# game-paper


def game_inputs(seed: int) -> tuple[list[Any], np.ndarray]:
    """The paper's game population on the paper scenario's network.

    Four providers from ``random_providers`` (Section VII-B) share the
    Section VII scenario's DCs, access cities and latency matrix.  The
    population and the capacity are those of ``run_fig8``'s defaults: the
    first DC is made four times cheaper for everyone and capped at 150
    capacity units, the others keep the paper's 2000 machines, and each
    provider's mean aggregate request rate is 250.
    """
    from repro.game.players import random_providers
    from repro.simulation.scenario import build_paper_scenario

    paper = build_paper_scenario(num_periods=GAME_PERIODS, seed=seed)
    base = paper.instance
    population = random_providers(
        GAME_PROVIDERS,
        base.datacenters,
        base.locations,
        paper.latency.latency_ms,
        GAME_PERIODS,
        np.random.default_rng(seed),
        demand_scale=GAME_DEMAND_SCALE,
    )
    providers = []
    for provider in population:
        prices = provider.prices.copy()
        prices[0] *= GAME_CHEAP_PRICE
        providers.append(
            type(provider)(
                name=provider.name, instance=provider.instance, demand=provider.demand, prices=prices
            )
        )
    capacity = base.capacities.copy()
    capacity[0] = GAME_BOTTLENECK
    return providers, capacity


def _game(seed: int, workdir: Path, tracer: Tracer | None) -> Repetition:
    import repro.game.mpc_game as mpc_game
    from repro.experiments.pool import ProviderPool

    rep = Repetition()
    marks: list[float] = []

    def stamped(first_controls: Callable[..., Any]) -> Callable[..., Any]:
        def collect(pool: Any) -> Any:
            controls = first_controls(pool)
            marks.append(clock())
            return controls

        return collect

    start = clock()
    providers, capacity = game_inputs(seed)
    # The driving process and the pool's workers are at most one process
    # per CPU: a round that needs every CPU at once waits for the slowest
    # one whenever the host lends a CPU elsewhere, and so measures the host.
    # On two CPUs this is one job, which runs the pool's shard code inline.
    jobs = max(1, len(os.sched_getaffinity(0)) - 1)
    with patched(ProviderPool, "first_controls", stamped):
        try:
            result = mpc_game.run_mpc_game(
                providers,
                capacity,
                mpc_game.MPCGameConfig(window=GAME_WINDOW, coordination_rounds=GAME_ROUNDS),
                jobs=jobs,
            )
        except Exception as error:  # noqa: BLE001 - a raising period is a measured failure
            # A provider solve that ends non-optimal raises in solve_dspp.
            result = None
            rep.problems.append(f"game raised {type(error).__name__}: {error}")
    rep.attempted = len(marks) + (result is None)
    rep.degraded = int(result is None)
    if marks:
        rep.setup_s = marks[0] - start
        rep.period_s = list(np.diff(marks))
        rep.loop_s = marks[-1] - marks[0]
        rep.periods = len(rep.period_s)
    if result is None:
        return rep

    if len(result.periods) != GAME_PERIODS - 1:
        rep.problems.append(f"{len(result.periods)} game periods")
    states = np.stack([period.states for period in result.periods])
    if not np.all(np.isfinite(states)) or np.any(states < 0):
        rep.problems.append("non-finite or negative state")
    sizes = np.array([provider.instance.server_size for provider in providers])
    excess = np.einsum("i,kilv->kl", sizes, states) - capacity * (1 + CAPACITY_RTOL)
    if np.any(excess > 0) or result.capacity_violation > CAPACITY_RTOL * float(capacity.min()):
        rep.problems.append(f"capacity violated by {result.capacity_violation:.3g}")
    rep.cost = result.total_cost
    rep.reference = {"cost": rep.cost}
    rep.digest = _digest(
        states, np.stack([period.quotas for period in result.periods]), result.provider_costs
    )
    return rep


@dataclass(frozen=True)
class Workload:
    """A named workload: one repetition as a function of its sub-seed.

    Attributes:
        name: the ``--workload`` name.
        repeat: one repetition ``(seed, workdir, tracer) -> Repetition``.
        rep_seconds: seconds of ``--seconds`` one repetition counts for;
            it only sizes the repetition count.  It is about the wall
            time of one repetition on a 2-CPU x86-64 host, except for the
            game, whose populations vary most: there it is lower, so a
            run pools more of them and takes longer than ``--seconds``.
    """

    name: str
    repeat: Callable[[int, Path, Tracer | None], Repetition]
    rep_seconds: float

    def repetitions(self, seconds: float) -> int:
        """How many repetitions a run of ``seconds`` makes."""
        return max(1, round(seconds / self.rep_seconds))

    def run(self, seed: int, workdir: Path, tracer: Tracer | None) -> Repetition:
        rep = self.repeat(seed, workdir, tracer)
        rep.seed = seed
        return rep


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("serve-paper", _serve, rep_seconds=1.7),
        Workload("replay-bursty", _replay, rep_seconds=3.5),
        Workload("game-paper", _game, rep_seconds=1.2),
    )
}
