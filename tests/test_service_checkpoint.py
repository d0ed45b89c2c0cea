"""Tests for the checkpoint layer (repro.service.checkpoint)."""

from __future__ import annotations

import pickle
import struct

import numpy as np
import pytest

from repro.control.mpc import MPCConfig, MPCController
from repro.prediction.naive import LastValuePredictor
from repro.service.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointNotFoundError,
    CheckpointVersionError,
    checkpoint_path,
    list_checkpoints,
    load_checkpoint,
    load_latest,
    write_checkpoint,
)
from repro.simulation.scenario import build_small_scenario

HEADER_SIZE = struct.calcsize("<8sIQ32s")


def _stepped_controller(num_steps: int = 3) -> MPCController:
    """A controller mid-run, with warm workspace and predictor history."""
    scenario = build_small_scenario(num_periods=num_steps + 3, seed=7)
    instance = scenario.instance
    controller = MPCController(
        instance,
        LastValuePredictor(instance.num_locations),
        LastValuePredictor(instance.num_datacenters),
        MPCConfig(window=2, slack_penalty=1e3),
    )
    for k in range(num_steps):
        controller.step(scenario.demand[:, k], scenario.prices[:, k])
    return controller


class TestFileFormat:
    def test_write_then_load_round_trips(self, tmp_path):
        payload = {"period": 4, "blob": np.arange(12.0).reshape(3, 4)}
        path = write_checkpoint(tmp_path, 4, payload)
        assert path == checkpoint_path(tmp_path, 4)
        loaded = load_checkpoint(path)
        assert loaded["period"] == 4
        assert np.array_equal(loaded["blob"], payload["blob"])

    def test_no_temporary_file_left_behind(self, tmp_path):
        write_checkpoint(tmp_path, 0, {"x": 1})
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    def test_missing_file_raises_not_found(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            load_checkpoint(tmp_path / "ckpt-00000000.bin")

    def test_bad_magic_raises_base_error(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, {"x": 1})
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTACKPT"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_future_version_raises_typed_error(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, {"x": 1})
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 8, CHECKPOINT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError, match="version"):
            load_checkpoint(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, {"x": list(range(100))})
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE + 5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_payload_detected(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, {"x": list(range(100))})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(CheckpointCorruptError, match="bytes"):
            load_checkpoint(path)

    def test_truncated_inside_header_detected(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, {"x": 1})
        path.write_bytes(path.read_bytes()[: HEADER_SIZE - 3])
        with pytest.raises(CheckpointCorruptError, match="header"):
            load_checkpoint(path)

    def test_magic_constant_is_stable(self):
        # Part of the on-disk contract documented in docs/OPERATIONS.md.
        assert CHECKPOINT_MAGIC == b"DSPPCKPT"
        assert CHECKPOINT_VERSION == 1


class TestGenerations:
    def test_keep_prunes_oldest_generations(self, tmp_path):
        for period in range(6):
            write_checkpoint(tmp_path, period, {"period": period}, keep=3)
        names = [p.name for p in list_checkpoints(tmp_path)]
        assert names == ["ckpt-00000003.bin", "ckpt-00000004.bin", "ckpt-00000005.bin"]

    def test_load_latest_returns_newest(self, tmp_path):
        for period in range(4):
            write_checkpoint(tmp_path, period, {"period": period})
        snapshot, path, skipped = load_latest(tmp_path)
        assert snapshot["period"] == 3
        assert path.name == "ckpt-00000003.bin"
        assert skipped == []

    def test_load_latest_falls_back_past_corruption_loudly(self, tmp_path):
        for period in range(3):
            write_checkpoint(tmp_path, period, {"period": period})
        newest = checkpoint_path(tmp_path, 2)
        raw = bytearray(newest.read_bytes())
        raw[-1] ^= 0xFF
        newest.write_bytes(bytes(raw))
        snapshot, path, skipped = load_latest(tmp_path)
        assert snapshot["period"] == 1
        assert [p.name for p in skipped] == ["ckpt-00000002.bin"]

    def test_load_latest_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            load_latest(tmp_path)

    def test_load_latest_all_corrupt_raises_and_names_files(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, {"x": 1})
        path.write_bytes(path.read_bytes()[: HEADER_SIZE + 2])
        with pytest.raises(CheckpointNotFoundError, match="ckpt-00000000.bin"):
            load_latest(tmp_path)

    def test_version_mismatch_stops_fallback(self, tmp_path):
        """An incompatible version is an operator problem, not bit rot."""
        write_checkpoint(tmp_path, 0, {"x": 1})
        newest = write_checkpoint(tmp_path, 1, {"x": 2})
        raw = bytearray(newest.read_bytes())
        struct.pack_into("<I", raw, 8, CHECKPOINT_VERSION + 9)
        newest.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError):
            load_latest(tmp_path)


class TestControllerSnapshotDeterminism:
    """The core crash-recovery invariant, at the controller level."""

    def test_snapshot_restore_snapshot_is_byte_identical(self):
        controller = _stepped_controller()
        first = pickle.dumps(controller, protocol=4)
        second = pickle.dumps(pickle.loads(first), protocol=4)
        assert first == second

    def test_restored_controller_continues_bitwise(self):
        scenario = build_small_scenario(num_periods=8, seed=13)
        instance = scenario.instance
        controller = MPCController(
            instance,
            LastValuePredictor(instance.num_locations),
            LastValuePredictor(instance.num_datacenters),
            MPCConfig(window=3, slack_penalty=1e3),
        )
        for k in range(3):
            controller.step(scenario.demand[:, k], scenario.prices[:, k])
        clone = pickle.loads(pickle.dumps(controller, protocol=4))
        for k in range(3, 7):
            a = controller.step(scenario.demand[:, k], scenario.prices[:, k])
            b = clone.step(scenario.demand[:, k], scenario.prices[:, k])
            assert np.array_equal(a.new_state, b.new_state)
            assert np.array_equal(a.applied_control, b.applied_control)
