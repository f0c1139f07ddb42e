"""Binary checkpoints: enough to resume a run bitwise.

Layout (all little-endian): magic "PCF1"; version u32; geometry kind u8
(0 = torus, 1 = sphere); geometry params (torus: nx u64, ny u64, length f64;
sphere: nmu u64); time f64; phi as row-major float64; CRC32 (u32) of every
byte after the magic and before the checksum. The reference density modes are
not stored — the resuming run supplies them through its config, which must
describe the same geometry. The kind byte and the params are each backend's
checkpoint_tag, grid_params and grid_format.
"""

import math
import struct
import zlib

import numpy as np

from .errors import CheckpointError
from .geometry import BACKENDS

MAGIC = b"PCF1"
VERSION = 1


def write_checkpoint(path, geom, state):
    """Serialize (geometry dims, time, phi) with a trailing CRC32."""
    payload = b"".join([
        struct.pack("<IB", VERSION, geom.checkpoint_tag),
        struct.pack(geom.grid_format, *(getattr(geom, name) for name in geom.grid_params)),
        struct.pack("<d", state.time),
        np.ascontiguousarray(state.phi, dtype="<f8").tobytes(),
    ])
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def read_checkpoint(path):
    """Return {kind, params, time, phi}; CheckpointError on any corruption."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 + 1 + 8 + 4 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    payload, (crc_stored,) = blob[4:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError(f"{path}: checksum mismatch")
    version, tag = struct.unpack_from("<IB", payload)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    backend = next((cls for cls in BACKENDS if cls.checkpoint_tag == tag), None)
    if backend is None:
        raise CheckpointError(f"{path}: unknown geometry kind {tag}")
    header_format = backend.grid_format + "d"  # the params, then the time
    off = 5 + struct.calcsize(header_format)
    if len(payload) < off:
        raise CheckpointError(f"{path}: truncated header "
                              f"({len(payload)} bytes, expected at least {off})")
    *values, time = struct.unpack_from(header_format, payload, 5)
    # the integer params are the grid's axis lengths
    shape = tuple(v for v in values if isinstance(v, int))
    expected = off + 8 * math.prod(shape)
    if len(payload) != expected:
        raise CheckpointError(f"{path}: truncated field data "
                              f"({len(payload)} bytes, expected {expected})")
    phi = np.frombuffer(payload, dtype="<f8", offset=off).reshape(shape)
    return {"kind": backend.kind, "params": dict(zip(backend.grid_params, values)),
            "time": float(time), "phi": phi.copy()}


def check_geometry_match(geom, meta):
    """Raise CheckpointError unless geom has the checkpoint's dimensions."""
    params = meta["params"]
    if geom.kind != meta["kind"]:
        raise CheckpointError(f"checkpoint geometry is {meta['kind']}, config says {geom.kind}")
    if any(getattr(geom, name) != params[name] for name in geom.grid_params):
        raise CheckpointError(f"checkpoint geometry {params} does not match config")
