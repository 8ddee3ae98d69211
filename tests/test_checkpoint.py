"""Checkpoint format: exact roundtrips, atomicity, corruption diagnostics."""

import struct

import numpy as np
import pytest

from profit.checkpoint import (
    MAGIC,
    Checkpoint,
    load_checkpoint,
    rng_state_of,
    save_checkpoint,
    write_atomic,
)
from profit.errors import CheckpointError
from profit.mlp import param_count
from profit.toy import make_rng

DIMS = (2, 3, 3, 1)


def sample_checkpoint(step=42, digest="ab" * 32) -> Checkpoint:
    rng = make_rng(7)
    rng.standard_normal(5)  # advance so the state is not pristine
    return Checkpoint(
        dims=DIMS,
        weights=np.random.default_rng(1).standard_normal(param_count(DIMS)),
        rng_state=rng_state_of(rng),
        step_count=step,
        config_digest=digest,
    )


def test_roundtrip_is_bit_exact(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt = sample_checkpoint()
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.dims == ckpt.dims
    assert np.array_equal(loaded.weights, ckpt.weights)
    assert loaded.weights.tobytes() == ckpt.weights.tobytes()
    assert loaded.rng_state == ckpt.rng_state
    assert loaded.step_count == 42
    assert loaded.config_digest == ckpt.config_digest


def test_double_save_produces_identical_bytes(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ckpt = sample_checkpoint()
    save_checkpoint(a, ckpt)
    save_checkpoint(b, ckpt)
    assert a.read_bytes() == b.read_bytes()


def test_no_temp_files_left_behind(tmp_path):
    save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint())
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_save_survives_a_directory_squatting_on_the_old_temp_name(tmp_path):
    """Another writer's temp file at ``<path>.tmp`` cannot break a save."""
    path = tmp_path / "m.ckpt"
    (tmp_path / "m.ckpt.tmp").mkdir()
    save_checkpoint(path, sample_checkpoint())
    assert load_checkpoint(path).weights.tobytes() == sample_checkpoint().weights.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.ckpt.tmp"]


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    (target / "inside").mkdir(parents=True)  # a directory cannot be renamed over
    with pytest.raises(OSError):
        write_atomic(target, b"data")
    with pytest.raises(OSError):
        save_checkpoint(target, sample_checkpoint())
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert [p.name for p in target.iterdir()] == ["inside"]


def test_restored_generator_continues_the_same_stream(tmp_path):
    rng = make_rng(0, 2)
    consumed = rng.standard_normal(10)
    ckpt = Checkpoint(DIMS, np.zeros(param_count(DIMS)), rng_state_of(rng), 0, "")
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    future_from_live = rng.standard_normal(10)
    bit_generator = np.random.Philox()
    bit_generator.state = load_checkpoint(path).rng_state
    revived = np.random.Generator(bit_generator)
    assert np.array_equal(revived.standard_normal(10), future_from_live)
    assert not np.array_equal(future_from_live, consumed)


def test_saved_generator_state_loads_back_unchanged(tmp_path):
    rng = make_rng(0, 2)
    rng.standard_normal(10)
    ckpt = Checkpoint(DIMS, np.zeros(param_count(DIMS)), rng_state_of(rng), 0, "")
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    assert load_checkpoint(path).rng_state == rng_state_of(rng)


def test_constructor_validates_shapes_and_steps():
    with pytest.raises(CheckpointError, match="does not match dims"):
        Checkpoint(DIMS, np.zeros(4), {}, 0, "")
    with pytest.raises(CheckpointError, match="step_count"):
        Checkpoint(DIMS, np.zeros(param_count(DIMS)), {}, -1, "")


def test_missing_file_is_a_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    blob = bytearray(path.read_bytes())
    blob[:4] = b"ELF\x00"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_unsupported_version_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_truncation_names_the_missing_field(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    blob = path.read_bytes()
    # cut inside the weights block
    path.write_bytes(blob[: 4 + 4 + 4 + 4 * len(DIMS) + 8 + 16])
    with pytest.raises(CheckpointError, match="ran out of bytes reading weights"):
        load_checkpoint(path)
    path.write_bytes(blob[:2])
    with pytest.raises(CheckpointError, match="reading magic"):
        load_checkpoint(path)


def test_trailing_garbage_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(path)


def test_nonfinite_weights_are_rejected_on_load(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    blob = bytearray(path.read_bytes())
    weights_start = 4 + 4 + 4 + 4 * len(DIMS) + 8
    blob[weights_start : weights_start + 8] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="non-finite weights"):
        load_checkpoint(path)


def test_parameter_count_mismatch_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    blob = bytearray(path.read_bytes())
    count_at = 4 + 4 + 4 + 4 * len(DIMS)
    blob[count_at : count_at + 8] = struct.pack("<Q", 7)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="parameter count 7"):
        load_checkpoint(path)


def test_rng_state_is_json_safe():
    import json

    state = rng_state_of(make_rng(3, 1))
    json.dumps(state)  # no numpy scalars may remain
    assert state["bit_generator"] == "Philox"


def test_every_truncation_and_single_bit_flip_loads_or_raises_checkpoint_error(tmp_path):
    """No corruption of a small checkpoint escapes as any other exception type."""
    dims = (2, 4, 4, 1)
    ckpt = Checkpoint(
        dims, np.random.default_rng(2).standard_normal(param_count(dims)),
        rng_state_of(make_rng(0)), 40, "0123456789abcdef" * 4,
    )
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    digest_at = len(blob) - 64

    def outcome(data: bytes) -> str:
        path.write_bytes(data)
        try:
            load_checkpoint(path)
        except CheckpointError as exc:
            return str(exc)
        return "loaded"

    for cut in range(len(blob)):
        assert outcome(blob[:cut]) != "loaded"
    corrupt_digests = 0
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        result = outcome(bytes(flipped))
        if bit // 8 >= digest_at and bit % 8 == 7:  # a byte that is no longer ASCII
            assert result.startswith("corrupt checkpoint: bad config digest")
            corrupt_digests += 1
    assert corrupt_digests == 64
