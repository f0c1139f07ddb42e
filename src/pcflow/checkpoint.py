"""Binary checkpoints: enough to resume a run bitwise.

Layout (all little-endian): magic "PCF1"; version u32; geometry kind u8
(0 = torus, 1 = sphere); geometry params (torus: nx u64, ny u64, length f64;
sphere: nmu u64); time f64; phi as row-major float64; in version 2 only,
phi's coefficients as row-major complex128 (torus: the rfft2 layout, nx by
ny//2 + 1); CRC32 (u32) of every byte after the magic and before the
checksum. Version 2 is written for a state that keeps its coefficients (a
semi-implicit torus run steps them, and phi alone does not return them
bitwise); every other state is written as version 1. The reference density
modes are not stored — the resuming run supplies them through its config,
which must describe the same geometry. The kind byte and the params are each
backend's checkpoint_tag, grid_params and grid_format, and the coefficient
shape its coeffs_shape.
"""

import math
import struct
import zlib

import numpy as np

from .errors import CheckpointError
from .geometry import BACKENDS

MAGIC = b"PCF1"
VERSIONS = (1, 2)  # 2 adds phi's coefficients


def write_checkpoint(path, geom, state):
    """Serialize (geometry dims, time, phi[, coeffs]) with a trailing CRC32."""
    coeffs = state.coeffs if geom.coeffs_shape is not None else None
    phi = state.phi if state.phi is not None else geom.from_coeffs(state.coeffs)
    # one expression, so that the parts are freed before the file is written:
    # holding the 0.5 MB phi part through the write changed the heap pattern
    # enough to read +10% in perfbench's calibrated torus_dense_trace time
    payload = b"".join([
        struct.pack("<IB", 1 if coeffs is None else 2, geom.checkpoint_tag),
        struct.pack(geom.grid_format, *(getattr(geom, name) for name in geom.grid_params)),
        struct.pack("<d", state.time),
        np.ascontiguousarray(phi, dtype="<f8").tobytes(),
        b"" if coeffs is None else np.ascontiguousarray(coeffs, dtype="<c16").tobytes(),
    ])
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def read_checkpoint(path):
    """Return {kind, params, time, phi, coeffs} (coeffs None in version 1);
    CheckpointError on any corruption."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 + 1 + 8 + 4 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    payload, (crc_stored,) = blob[4:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError(f"{path}: checksum mismatch")
    version, tag = struct.unpack_from("<IB", payload)
    if version not in VERSIONS:
        raise CheckpointError(f"{path}: unsupported version {version}")
    backend = next((cls for cls in BACKENDS if cls.checkpoint_tag == tag), None)
    if backend is None:
        raise CheckpointError(f"{path}: unknown geometry kind {tag}")
    if version == 2 and backend.coeffs_shape is None:
        raise CheckpointError(f"{path}: version 2 on the {backend.kind}, "
                              "whose coefficients are phi itself")
    header_format = backend.grid_format + "d"  # the params, then the time
    off = 5 + struct.calcsize(header_format)
    if len(payload) < off:
        raise CheckpointError(f"{path}: truncated header "
                              f"({len(payload)} bytes, expected at least {off})")
    *values, time = struct.unpack_from(header_format, payload, 5)
    # the integer params are the grid's axis lengths
    shape = tuple(v for v in values if isinstance(v, int))
    phi_end = off + 8 * math.prod(shape)
    coeffs_shape = backend.coeffs_shape(shape) if version == 2 else None
    expected = phi_end + (16 * math.prod(coeffs_shape) if coeffs_shape else 0)
    if len(payload) != expected:
        raise CheckpointError(f"{path}: truncated field data "
                              f"({len(payload)} bytes, expected {expected})")
    phi = np.frombuffer(payload, dtype="<f8", count=math.prod(shape), offset=off)
    coeffs = None
    if coeffs_shape:
        coeffs = np.frombuffer(payload, dtype="<c16", offset=phi_end)
        coeffs = coeffs.reshape(coeffs_shape).copy()
    return {"kind": backend.kind, "params": dict(zip(backend.grid_params, values)),
            "time": float(time), "phi": phi.reshape(shape).copy(), "coeffs": coeffs}


def check_geometry_match(geom, meta):
    """Raise CheckpointError unless geom has the checkpoint's dimensions."""
    params = meta["params"]
    if geom.kind != meta["kind"]:
        raise CheckpointError(f"checkpoint geometry is {meta['kind']}, config says {geom.kind}")
    if any(getattr(geom, name) != params[name] for name in geom.grid_params):
        raise CheckpointError(f"checkpoint geometry {params} does not match config")
