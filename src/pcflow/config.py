"""Scenario configuration: line-oriented "dotted.key = value" files.

Blocks: geometry.* (backend and grid), initial.* (explicit cosine modes on
the torus, a polynomial in mu on the sphere, or a seeded band-limited random
draw rescaled to a target sup|F|), flow.* (integrator settings), output.*
(CSV path, record cadence, optional field snapshots and checkpoint).
Unknown keys are rejected; print-config output re-parses to an equal config.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigParseError, ConfigValidationError, NotKahler
from .flow import FlowConfig, FlowKind, Scheme
from .geometry import build_sphere_geometry, build_torus_geometry

TWO_PI = 2.0 * np.pi

_MODE_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*([^\s,()]+)\s*\)")
_KEY_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.]*\Z")


@dataclass(frozen=True)
class RandomInitial:
    seed: int
    modes: int = 8
    decay: float = 2.0
    target_sup_f: float = 0.05


@dataclass(frozen=True)
class ScenarioConfig:
    geometry_kind: str
    nx: int = 0
    ny: int = 0
    length: float = 0.0
    sigma0_modes: tuple = ()
    nmu: int = 0
    initial_modes: tuple = ()
    initial_poly_mu: tuple = ()
    random: RandomInitial = None
    flow: FlowConfig = field(default_factory=FlowConfig)
    output_path: str = "trace.csv"
    emit_fields: bool = False
    checkpoint_path: str = None
    p_list: tuple = (1.0, 2.0, 4.0)


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigValidationError(key, f"expected an integer, got {raw!r}") from None


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigValidationError(key, f"expected a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigValidationError(key, f"expected a finite number, got {raw!r}")
    return value


def _parse_bool(key, raw):
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigValidationError(key, f"expected true or false, got {raw!r}")


def _parse_modes(key, raw):
    modes = []
    rest = raw
    for match in _MODE_RE.finditer(raw):
        modes.append((int(match.group(1)), int(match.group(2)),
                      _parse_float(key, match.group(3))))
        rest = rest.replace(match.group(0), "", 1)
    if rest.strip():
        raise ConfigValidationError(key, f"expected (kx,ky,amp) triples, got {raw!r}")
    return tuple(modes)


def _parse_float_list(key, raw):
    return tuple(_parse_float(key, tok) for tok in raw.split())


def parse_config(text):
    """Parse and validate a scenario; defaults fill everything not given."""
    raw = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigParseError(line_no, f"expected key = value, got {body!r}")
        key, value = body.split("=", 1)
        key, value = key.strip(), value.strip()
        if not _KEY_RE.match(key):
            raise ConfigParseError(line_no, f"malformed key {key!r}")
        raw[key] = value

    def take(key, parser, default):
        if key not in raw:
            return default
        return parser(key, raw.pop(key))

    kind = raw.pop("geometry.kind", None)
    if kind is None:
        raise ConfigValidationError("geometry.kind", "required (torus or sphere)")
    if kind not in ("torus", "sphere"):
        raise ConfigValidationError("geometry.kind", f"unknown geometry {kind!r}")

    nx = ny = 0
    length = 0.0
    sigma0_modes = ()
    nmu = 0
    if kind == "torus":
        for bad in ("geometry.nmu",):
            if bad in raw:
                raise ConfigValidationError(bad, "not applicable to the torus backend")
        if "geometry.nx" not in raw or "geometry.ny" not in raw or "geometry.length" not in raw:
            raise ConfigValidationError("geometry.nx", "torus needs nx, ny, and length")
        nx = take("geometry.nx", _parse_int, None)
        ny = take("geometry.ny", _parse_int, None)
        length = take("geometry.length", _parse_float, None)
        sigma0_modes = take("geometry.sigma0_modes", _parse_modes, ())
    else:
        for bad in ("geometry.nx", "geometry.ny", "geometry.length", "geometry.sigma0_modes"):
            if bad in raw:
                raise ConfigValidationError(bad, "not applicable to the sphere backend")
        if "geometry.nmu" not in raw:
            raise ConfigValidationError("geometry.nmu", "sphere needs nmu")
        nmu = take("geometry.nmu", _parse_int, None)

    initial_modes = take("initial.modes", _parse_modes, ())
    initial_poly_mu = take("initial.poly_mu", _parse_float_list, ())
    if kind == "torus" and initial_poly_mu:
        raise ConfigValidationError("initial.poly_mu", "not applicable to the torus backend")
    if kind == "sphere" and initial_modes:
        raise ConfigValidationError("initial.modes", "not applicable to the sphere backend")

    random = None
    if any(k.startswith("initial.random.") for k in raw):
        if "initial.random.seed" not in raw:
            raise ConfigValidationError("initial.random.seed", "required for random initial data")
        seed = take("initial.random.seed", _parse_int, None)
        if seed < 0:
            raise ConfigValidationError("initial.random.seed", "must be >= 0")
        modes = take("initial.random.modes", _parse_int, 8)
        if modes < 1:
            raise ConfigValidationError("initial.random.modes", "must be >= 1")
        decay = take("initial.random.decay", _parse_float, 2.0)
        if decay < 0.0:
            raise ConfigValidationError("initial.random.decay", "must be >= 0")
        target = take("initial.random.target_sup_f", _parse_float, 0.05)
        if not 0.0 < target <= 1.0:
            raise ConfigValidationError("initial.random.target_sup_f",
                                        f"must be in (0, 1], got {target}")
        random = RandomInitial(seed=seed, modes=modes, decay=decay, target_sup_f=target)
        if initial_modes or initial_poly_mu:
            raise ConfigValidationError("initial.random.seed",
                                        "random initial data excludes explicit modes")

    scheme_raw = raw.pop("flow.scheme", Scheme.RK4.value)
    try:
        scheme = Scheme(scheme_raw)
    except ValueError:
        raise ConfigValidationError("flow.scheme", f"unknown scheme {scheme_raw!r}") from None
    kind_raw = raw.pop("flow.kind", FlowKind.PCF.value)
    try:
        flow_kind = FlowKind(kind_raw)
    except ValueError:
        raise ConfigValidationError("flow.kind", f"unknown flow kind {kind_raw!r}") from None

    flow = FlowConfig(
        scheme=scheme,
        dt_init=take("flow.dt_init", _parse_float, 1.0),
        cfl=take("flow.cfl", _parse_float, 0.2),
        t_end=take("flow.t_end", _parse_float, 1.0),
        rho_floor=take("flow.rho_floor", _parse_float, 0.05),
        max_halvings=take("flow.max_halvings", _parse_int, 12),
        poisson_tol=take("flow.poisson_tol", _parse_float, 1e-10),
        record_every=take("output.record_every", _parse_int, 10),
        flow_kind=flow_kind,
    )

    p_list = take("output.p_list", _parse_float_list, (1.0, 2.0, 4.0))
    if not p_list:
        raise ConfigValidationError("output.p_list", "needs at least one exponent")
    for p in p_list:
        if not 1.0 <= p <= 8.0:
            raise ConfigValidationError("output.p_list", f"exponent {p} outside [1, 8]")

    config = ScenarioConfig(
        geometry_kind=kind,
        nx=nx, ny=ny, length=length, sigma0_modes=sigma0_modes, nmu=nmu,
        initial_modes=initial_modes,
        initial_poly_mu=initial_poly_mu,
        random=random,
        flow=flow,
        output_path=take("output.path", lambda k, v: v, "trace.csv"),
        emit_fields=take("output.emit_fields", _parse_bool, False),
        checkpoint_path=take("output.checkpoint", lambda k, v: v, None),
        p_list=p_list,
    )
    if raw:
        key = sorted(raw)[0]
        raise ConfigValidationError(key, "unknown key")
    return config


def _format_float(x):
    return repr(float(x))


def _format_modes(modes):
    return " ".join(f"({kx},{ky},{_format_float(a)})" for kx, ky, a in modes)


def format_config(config):
    """Render the effective config; parse_config(format_config(c)) == c."""
    lines = [f"geometry.kind = {config.geometry_kind}"]
    if config.geometry_kind == "torus":
        lines.append(f"geometry.nx = {config.nx}")
        lines.append(f"geometry.ny = {config.ny}")
        lines.append(f"geometry.length = {_format_float(config.length)}")
        if config.sigma0_modes:
            lines.append(f"geometry.sigma0_modes = {_format_modes(config.sigma0_modes)}")
    else:
        lines.append(f"geometry.nmu = {config.nmu}")
    if config.initial_modes:
        lines.append(f"initial.modes = {_format_modes(config.initial_modes)}")
    if config.initial_poly_mu:
        lines.append("initial.poly_mu = "
                     + " ".join(_format_float(c) for c in config.initial_poly_mu))
    if config.random is not None:
        lines.append(f"initial.random.seed = {config.random.seed}")
        lines.append(f"initial.random.modes = {config.random.modes}")
        lines.append(f"initial.random.decay = {_format_float(config.random.decay)}")
        lines.append(f"initial.random.target_sup_f = {_format_float(config.random.target_sup_f)}")
    flow = config.flow
    lines.append(f"flow.scheme = {flow.scheme.value}")
    lines.append(f"flow.kind = {flow.flow_kind.value}")
    lines.append(f"flow.dt_init = {_format_float(flow.dt_init)}")
    lines.append(f"flow.cfl = {_format_float(flow.cfl)}")
    lines.append(f"flow.t_end = {_format_float(flow.t_end)}")
    lines.append(f"flow.rho_floor = {_format_float(flow.rho_floor)}")
    lines.append(f"flow.max_halvings = {flow.max_halvings}")
    lines.append(f"flow.poisson_tol = {_format_float(flow.poisson_tol)}")
    lines.append(f"output.path = {config.output_path}")
    lines.append(f"output.record_every = {flow.record_every}")
    lines.append(f"output.emit_fields = {'true' if config.emit_fields else 'false'}")
    if config.checkpoint_path is not None:
        lines.append(f"output.checkpoint = {config.checkpoint_path}")
    lines.append("output.p_list = " + " ".join(_format_float(p) for p in config.p_list))
    return "\n".join(lines) + "\n"


def build_geometry(config):
    """Construct the backend the config describes."""
    if config.geometry_kind == "torus":
        return build_torus_geometry(config.nx, config.ny, config.length, config.sigma0_modes)
    return build_sphere_geometry(config.nmu)


def _cosine_sum(geom, modes):
    phi = np.zeros(geom.shape)
    for kx, ky, amp in modes:
        phi = phi + amp * np.cos(TWO_PI * (kx * geom.x + ky * geom.y) / geom.length)
    return phi


def _random_draw(geom, spec):
    """Seeded band-limited field with |k|^(-decay) spectral envelope."""
    rng = np.random.default_rng(spec.seed)
    if geom.kind == "torus":
        phi = np.zeros(geom.shape)
        for ky in range(0, spec.modes + 1):
            for kx in range(-spec.modes, spec.modes + 1):
                if ky == 0 and kx <= 0:
                    continue  # one representative per conjugate pair
                norm = float(np.hypot(kx, ky))
                if norm > spec.modes:
                    continue
                amp = rng.standard_normal() * norm ** (-spec.decay)
                phase = rng.uniform(0.0, TWO_PI)
                phi += amp * np.cos(TWO_PI * (kx * geom.x + ky * geom.y) / geom.length + phase)
        return phi
    coeffs = rng.standard_normal(spec.modes)
    phi = np.zeros(geom.shape)
    for k in range(1, spec.modes + 1):
        phi += coeffs[k - 1] * float(k) ** (-spec.decay) * np.cos(k * np.pi * geom.mu)
    return phi


def _rescale_to_target(geom, phi, target):
    """Scale phi so sup|F| hits the target within 0.5% (bisection on the scale)."""
    mixed_ratio = geom.mixed_second_derivative(phi) / geom.sigma0

    def sup_f(scale):
        rho = 1.0 + scale * mixed_ratio
        if float(rho.min()) <= 1e-09:
            return np.inf
        return float(np.max(np.abs(np.log(rho))))

    s_hi = 1.0
    achieved = sup_f(s_hi)
    doublings = 0
    while achieved < target and doublings < 200:
        s_hi *= 2.0
        achieved = sup_f(s_hi)
        doublings += 1
    if achieved < target:
        raise NotKahler(1.0, message=f"cannot reach target sup|F| = {target:.6g} "
                                     f"(achieved {achieved:.6g})")
    s_lo = 0.0
    scale = s_hi
    value = achieved
    for _ in range(200):
        if np.isfinite(value) and abs(value - target) <= 0.005 * target:
            return scale * phi
        mid = 0.5 * (s_lo + s_hi)
        value = sup_f(mid)
        scale = mid
        if value >= target:
            s_hi = mid
        else:
            s_lo = mid
    raise NotKahler(1.0, message=f"rescaling stalled at sup|F| = {value:.6g} "
                                 f"(target {target:.6g})")


def make_initial(geom, config):
    """Initial potential from explicit modes, a mu-polynomial, or a seeded draw."""
    if config.random is not None:
        phi = _random_draw(geom, config.random)
        return _rescale_to_target(geom, phi, config.random.target_sup_f)
    if config.geometry_kind == "torus":
        return _cosine_sum(geom, config.initial_modes)
    phi = np.zeros(geom.shape)
    for power, coeff in enumerate(config.initial_poly_mu):
        phi += coeff * geom.mu ** power
    return phi
