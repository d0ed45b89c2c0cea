"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, install, patched, self_times, summarize, tail_percentile, uninstall  # noqa: E402


def test_tail_is_the_highest_percentile_with_ten_samples_beyond() -> None:
    samples = [float(value) for value in range(100, 0, -1)]
    value, percentile, count = tail_percentile(samples)
    assert (percentile, count) == (90.0, 100)
    assert value == pytest.approx(90.1)
    assert sum(sample > value for sample in samples) == 10

    samples = [float(value) for value in range(1, 1001)]
    value, percentile, count = tail_percentile(samples)
    assert (percentile, count) == (99.0, 1000)
    assert sum(sample > value for sample in samples) == 10

    with pytest.raises(ValueError):
        tail_percentile([float(value) for value in range(50)])


def test_self_time_subtracts_direct_children_only() -> None:
    ticks = iter([0, 10, 15, 20, 30, 40, 70, 100])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("leaf"):
                pass
        with tracer.span("b"):
            pass
    spans = tracer.closed_spans()
    assert [span.name for span in spans] == ["root", "a", "leaf", "b"]
    assert [span.parent for span in spans] == [None, 0, 1, 0]
    assert self_times(spans) == [50, 15, 5, 30]

    table = summarize(spans)
    assert table["root"] == {"calls": 1, "busy_ms": 100e-6, "self_ms": 50e-6}
    assert table["a"]["self_ms"] == pytest.approx(15e-6)


def test_spans_carry_the_run_id_and_refuse_open_spans() -> None:
    tracer = Tracer()
    tracer.run_id = "rep-7"
    index = tracer.open("outer")
    with pytest.raises(RuntimeError):
        tracer.closed_spans()
    tracer.close(index)
    assert tracer.closed_spans()[0].run_id == "rep-7"


def _namespaces(probes: list) -> dict[int, dict[str, object]]:
    return {id(probe.owner): dict(vars(probe.owner)) for probe in probes}


def test_install_then_uninstall_leaves_every_namespace_as_found() -> None:
    probes = layers.probes()
    before = _namespaces(probes)
    undo = install(Tracer(), probes)
    during = _namespaces(probes)
    assert any(during[key] != before[key] for key in before)
    uninstall(undo)
    after = _namespaces(probes)
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert after[key].keys() == names.keys()
        assert all(after[key][name] is value for name, value in names.items())


def test_patched_restores_an_inherited_attribute() -> None:
    class Base:
        def hello(self) -> str:
            return "base"

    class Child(Base):
        pass

    with patched(Child, "hello", lambda original: lambda self: "patched"):
        assert Child().hello() == "patched"
    assert "hello" not in vars(Child)
    assert Child().hello() == "base"


def _serve(tmp: Path) -> tuple[np.ndarray, bytes]:
    from repro.service.checkpoint import list_checkpoints
    from repro.service.service import PlacementService, ServiceConfig
    from repro.simulation.scenario import build_small_scenario

    scenario = build_small_scenario(num_periods=6, seed=3)
    service = PlacementService(scenario, ServiceConfig(window=3), checkpoint_dir=tmp)
    result = service.run()
    assert result is not None
    return np.concatenate([result.states, result.controls]), list_checkpoints(tmp)[-1].read_bytes()


def _replay() -> np.ndarray:
    from repro.control.mpc import MPCConfig, MPCController
    from repro.events.arrivals import MMPPArrivals
    from repro.events.collectors import LatencyCollector
    from repro.events.engine import EventEngine, ReplayConfig
    from repro.prediction.naive import LastValuePredictor
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.scenario import build_small_scenario

    scenario = build_small_scenario(num_periods=5, num_datacenters=2, num_locations=3, seed=1)
    instance = scenario.instance
    controller = MPCController(
        instance,
        LastValuePredictor(instance.num_locations),
        LastValuePredictor(instance.num_datacenters),
        MPCConfig(window=2, slack_penalty=100.0),
    )
    states = SimulationEngine(scenario, controller).run().states
    collector = LatencyCollector()
    result = EventEngine(
        scenario,
        states,
        config=ReplayConfig(seed=4, total_requests=5_000),
        process=MMPPArrivals(rates=scenario.demand),
        collectors=(collector,),
    ).run(jobs=1)
    stats = collector.location_stats()
    return np.concatenate([states.ravel(), result.status_counts.ravel(), stats.mean_latency])


def test_tracing_is_inert_on_a_tiny_scenario(tmp_path: Path) -> None:
    plain_outputs, plain_checkpoint = _serve(tmp_path / "plain")
    plain_replay = _replay()

    tracer = Tracer()
    undo = install(tracer, layers.probes())
    try:
        traced_outputs, traced_checkpoint = _serve(tmp_path / "traced")
        traced_replay = _replay()
    finally:
        uninstall(undo)

    assert traced_outputs.tobytes() == plain_outputs.tobytes()
    assert traced_checkpoint == plain_checkpoint
    assert traced_replay.tobytes() == plain_replay.tobytes()
    names = {span.name for span in tracer.closed_spans()}
    assert {"control.mpc.plan", "service.checkpoint.write", "events.engine.run"} <= names
    assert tracer.counters["events.arrivals.requests"] > 0


def test_benchmark_json_names_what_the_run_prints() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    printed = {name: unit for name, unit, _, _ in layers.PER_LAYER}
    printed.update({name: unit for name, unit, _ in run.RUN_LEVEL})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_reference_mismatches_are_exact_for_counts_and_digests() -> None:
    expected = {"cost": 100.0, "requests": 7, "status_sha256": "ab"}
    assert run.reference_mismatches(expected, dict(expected)) == []
    assert run.reference_mismatches(expected, {**expected, "cost": 100.0 + 1e-5}) == []
    assert run.reference_mismatches(expected, {**expected, "cost": 100.01}) != []
    assert run.reference_mismatches(expected, {**expected, "requests": 8}) != []
    assert run.reference_mismatches(expected, {**expected, "status_sha256": "ac"}) != []
    assert run.reference_mismatches(expected, {"cost": 100.0}) != []
