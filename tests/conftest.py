"""Shared helpers: reproducible smooth random fields on both backends, and the
environment for subprocesses that import pcflow."""

import os
from pathlib import Path

import numpy as np

import pcflow as pf

TWO_PI = 2.0 * np.pi
SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env(base=None):
    """A copy of base (default: os.environ) with the absolute src path first on
    PYTHONPATH, so `python -m pcflow.cli` imports this tree from any cwd."""
    env = dict(os.environ if base is None else base)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def random_torus_phi(geom, rng, amp=0.1, kmax=4):
    """Band-limited random potential; amp small enough to stay Kahler."""
    phi = np.zeros(geom.shape)
    for kx in range(-kmax, kmax + 1):
        for ky in range(0, kmax + 1):
            if ky == 0 and kx <= 0:
                continue
            a = amp * rng.normal() / (kx * kx + ky * ky)
            ph = rng.uniform(0.0, TWO_PI)
            phi += a * np.cos(TWO_PI * (kx * geom.x + ky * geom.y) / geom.length + ph)
    return phi


def random_sphere_phi(geom, rng, amp=0.02, kmax=5):
    """Smooth random potential on the mu-grid, gentle enough to stay Kahler."""
    phi = np.zeros(geom.shape)
    for k in range(1, kmax + 1):
        phi += amp * rng.normal() / (k * k) * np.cos(k * np.pi * geom.mu)
    return phi


def random_valid_state(geom, rng):
    """A validated MetricState with a comfortable Kahler margin."""
    while True:
        if geom.kind == "torus":
            phi = random_torus_phi(geom, rng)
        else:
            phi = random_sphere_phi(geom, rng)
        try:
            return pf.validate_kahler(geom, phi, rho_floor=0.2)
        except pf.NotKahler:
            continue
