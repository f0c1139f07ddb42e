"""Binary checkpoints: enough to resume a run bitwise.

Layout (all little-endian): magic "PCF1"; version u32; geometry kind u8
(0 = torus, 1 = sphere); geometry params (torus: nx u64, ny u64, length f64;
sphere: nmu u64); time f64; the field data; CRC32 (u32) of every byte after
the magic and before the checksum. The field data is phi's coefficients, one
row-major array of the backend's coeffs_shape, which read_checkpoint returns
as coeffs beside phi. Each backend writes and reads one version, its
checkpoint_layout: 1 on the sphere (float64: the coefficients are phi), 3 on
the torus (complex128 in the rfft2 layout). The kind byte and the params are
checkpoint_tag, grid_params and grid_format. The reference density modes are
not stored: the resuming run's config supplies them.
"""

import math
import struct
import zlib

import numpy as np

from .errors import CheckpointError
from .geometry import BACKENDS

MAGIC = b"PCF1"


def write_checkpoint(path, geom, state):
    """Serialize (geometry dims, time, phi's coefficients) with a trailing CRC32."""
    version, dtype = geom.checkpoint_layout
    # one expression, so that the parts are freed before the file is written:
    # holding the 0.5 MB field part through the write changed the heap pattern
    # enough to read +10% in perfbench's calibrated torus_dense_trace time
    payload = b"".join([
        struct.pack("<IB", version, geom.checkpoint_tag),
        struct.pack(geom.grid_format, *(getattr(geom, name) for name in geom.grid_params)),
        struct.pack("<d", state.time),
        np.ascontiguousarray(state.coeffs, dtype=dtype).tobytes(),  # phi on the sphere
    ])
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def read_checkpoint(path):
    """Return {kind, params, time, phi, coeffs}; CheckpointError on any corruption."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 + 1 + 8 + 4 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    payload, (crc_stored,) = blob[4:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError(f"{path}: checksum mismatch")
    version, tag = struct.unpack_from("<IB", payload)
    backend = next((cls for cls in BACKENDS if cls.checkpoint_tag == tag), None)
    if backend is None:
        raise CheckpointError(f"{path}: unknown geometry kind {tag}")
    written, dtype = backend.checkpoint_layout
    if version != written:
        raise CheckpointError(f"{path}: unsupported version {version} on the {backend.kind}")
    header_format = backend.grid_format + "d"  # the params, then the time
    off = 5 + struct.calcsize(header_format)
    if len(payload) < off:
        raise CheckpointError(f"{path}: truncated header "
                              f"({len(payload)} bytes, expected at least {off})")
    *values, time = struct.unpack_from(header_format, payload, 5)
    # the integer params are the grid's axis lengths
    shape = tuple(v for v in values if isinstance(v, int))
    if 0 in shape:
        raise CheckpointError(f"{path}: grid {shape} has an empty axis")
    data_shape = shape if backend.coeffs_shape is None else backend.coeffs_shape(shape)
    expected = off + np.dtype(dtype).itemsize * math.prod(data_shape)
    if len(payload) != expected:
        raise CheckpointError(f"{path}: truncated field data "
                              f"({len(payload)} bytes, expected {expected})")
    coeffs = np.frombuffer(payload, dtype, offset=off).reshape(data_shape).copy()
    phi = coeffs if backend.coeffs_shape is None else backend.field_from_coeffs(coeffs, shape)
    return {"kind": backend.kind, "params": dict(zip(backend.grid_params, values)),
            "time": float(time), "phi": phi, "coeffs": coeffs}


def check_geometry_match(geom, meta):
    """Raise CheckpointError unless geom has the checkpoint's dimensions."""
    params = meta["params"]
    if geom.kind != meta["kind"]:
        raise CheckpointError(f"checkpoint geometry is {meta['kind']}, config says {geom.kind}")
    if any(getattr(geom, name) != params[name] for name in geom.grid_params):
        raise CheckpointError(f"checkpoint geometry {params} does not match config")
