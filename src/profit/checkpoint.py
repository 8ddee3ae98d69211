"""Versioned binary checkpoints with bit-exact save/load roundtrips.

Layout, all integers little-endian:

    bytes  0-3   magic "PFIT"
    u32          format version (currently 1)
    u32          layer count k
    k * u32      layer dims
    u64          parameter count n (must equal the dim chain's count)
    n * f64      flat weights
    u32 + bytes  UTF-8 JSON generator state snapshot (canonical key order)
    u64          training step count
    u32 + bytes  UTF-8 config digest (sha256 hex, may be empty)

Writes go through a uniquely named temp file in the target directory followed
by an atomic rename (``write_atomic``), so a crash never leaves a half-written
checkpoint behind and concurrent writers of one path do not collide.
"""

import json
import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .mlp import param_count

MAGIC = b"PFIT"
VERSION = 1


def rng_state_of(rng: np.random.Generator) -> dict:
    """Generator state as a JSON-safe dict (uint64 words become Python ints)."""
    return json.loads(json.dumps(rng.bit_generator.state, default=lambda v: v.tolist()))


@dataclass(frozen=True)
class Checkpoint:
    dims: tuple
    weights: np.ndarray
    rng_state: dict
    step_count: int
    config_digest: str

    def __post_init__(self):
        n = param_count(self.dims)
        if self.weights.shape != (n,):
            raise CheckpointError(
                f"weights shape {self.weights.shape} does not match dims {tuple(self.dims)} "
                f"(expected ({n},))"
            )
        self.check_step_count(self.step_count)

    @staticmethod
    def check_step_count(step_count: int) -> None:
        """Raise ``CheckpointError`` unless ``step_count`` fits the format's u64."""
        if not 0 <= step_count < 2**64:
            raise CheckpointError(
                f"step_count must be >= 0 and < 2**64 (the format's u64), got {step_count}"
            )


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    path = Path(path)
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    blob += struct.pack("<I", len(ckpt.dims))
    blob += struct.pack(f"<{len(ckpt.dims)}I", *ckpt.dims)
    blob += struct.pack("<Q", ckpt.weights.shape[0])
    blob += np.ascontiguousarray(ckpt.weights, dtype="<f8").tobytes()
    rng_bytes = json.dumps(ckpt.rng_state, sort_keys=True, separators=(",", ":")).encode()
    blob += struct.pack("<I", len(rng_bytes)) + rng_bytes
    blob += struct.pack("<Q", ckpt.step_count)
    digest_bytes = ckpt.config_digest.encode()
    blob += struct.pack("<I", len(digest_bytes)) + digest_bytes

    write_atomic(path, bytes(blob))


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file and an atomic rename.

    The temporary file gets a unique name in the target's directory, so
    concurrent writers of one path never share it, and it is removed when
    the write or the rename fails.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    f = open(tmp, "xb")  # exclusive: never truncates a file someone else owns
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"truncated checkpoint: ran out of bytes reading {what}")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    r = _Reader(path.read_bytes())
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {VERSION}")
    k = r.u32("layer count")
    if k < 2:
        raise CheckpointError(f"dim chain needs at least 2 entries, got {k}")
    dims = struct.unpack(f"<{k}I", r.take(4 * k, "dims"))
    if min(dims) < 1 or dims[0] != 2 or dims[-1] != 1:
        raise CheckpointError(
            f"checkpoint dims {dims} need widths >= 1, an input width of 2 and an output width of 1"
        )
    n = r.u64("parameter count")
    if n != param_count(dims):
        raise CheckpointError(
            f"parameter count {n} does not match dims {dims} (expected {param_count(dims)})"
        )
    weights = np.frombuffer(r.take(8 * n, "weights"), dtype="<f8").astype(np.float64)
    if not np.isfinite(weights).all():
        raise CheckpointError("corrupt checkpoint: non-finite weights")
    rng_len = r.u32("rng state length")
    try:
        rng_state = json.loads(r.take(rng_len, "rng state").decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint: bad generator state blob ({exc})") from exc
    step_count = r.u64("step count")
    digest_len = r.u32("digest length")
    try:
        config_digest = r.take(digest_len, "config digest").decode()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint: bad config digest ({exc})") from exc
    if r.pos != len(r.buf):
        raise CheckpointError(f"trailing bytes after checkpoint payload ({len(r.buf) - r.pos})")
    return Checkpoint(dims, weights, rng_state, step_count, config_digest)
