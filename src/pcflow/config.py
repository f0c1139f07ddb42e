"""Scenario configuration: line-oriented "dotted.key = value" files.

Blocks: geometry.* (backend and grid), initial.* (explicit cosine modes on
the torus, a polynomial in mu on the sphere, or a seeded band-limited random
draw rescaled to a target sup|F|), flow.* (integrator settings), output.*
(CSV path, record cadence, optional field snapshots and checkpoint).
``_KEYS`` is the one list of keys. Defaults and range checks live on the
dataclasses, so a config built in Python is checked exactly as a parsed file
is. Unknown keys are rejected; print-config output re-parses to an equal config.
"""

import re
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigParseError, ConfigValidationError, NotKahler
from .flow import FlowConfig, FlowKind, Scheme
from .functionals import DEFAULT_P_LIST, check_p_list
from .geometry import BACKENDS, is_integer, valid_modes

_BACKENDS = {backend.kind: backend for backend in BACKENDS}

_MODE_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*([^\s,()]+)\s*\)")
_KEY_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.]*\Z")


@dataclass(frozen=True)
class RandomInitial:
    seed: int
    modes: int = 8
    decay: float = 2.0
    target_sup_f: float = 0.05

    def __post_init__(self):
        if not is_integer(self.seed) or self.seed < 0:
            raise ConfigValidationError("initial.random.seed", "must be an integer >= 0")
        if not is_integer(self.modes) or self.modes < 1:
            raise ConfigValidationError("initial.random.modes", "must be an integer >= 1")
        if not 0.0 <= self.decay < np.inf:
            raise ConfigValidationError("initial.random.decay", "must be >= 0 and finite")
        if not 0.0 < self.target_sup_f <= 1.0:
            raise ConfigValidationError("initial.random.target_sup_f",
                                        f"must be in (0, 1], got {self.target_sup_f}")


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
    p_list: tuple = DEFAULT_P_LIST

    def __post_init__(self):
        kind = _parse_kind("geometry.kind", self.geometry_kind)
        defaults = {f.name: f.default for f in fields(self)}
        for key, backend, owner, name, parse, _ in _KEYS:
            if owner is not ScenarioConfig:
                continue
            value = getattr(self, name)
            if backend not in (None, kind) and value != defaults[name]:
                raise ConfigValidationError(key, f"not applicable to the {kind} backend")
            if parse is _parse_int and not is_integer(value):
                raise ConfigValidationError(key, f"must be an integer, got {value!r}")
            if parse is _parse_modes and not valid_modes(value):
                raise ConfigValidationError(key, f"needs (int, int, finite) triples: {value!r}")
            if isinstance(value, str) and not value:  # output.path, output.checkpoint
                raise ConfigValidationError(key, "must not be empty")
        check_p_list(self.p_list)
        if self.random is not None and (self.initial_modes or self.initial_poly_mu):
            raise ConfigValidationError("initial.random.seed",
                                        "random initial data excludes explicit modes")


def _parse_kind(key, raw):
    if raw not in _BACKENDS:
        raise ConfigValidationError(key, f"unknown geometry {raw!r}")
    return raw


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


def _parse_floats(key, raw):
    return tuple(_parse_float(key, tok) for tok in raw.split())


def _enum(enum_cls, what):
    """Parser and formatter for a key whose value is the value of an enum member."""
    def parse(key, raw):
        try:
            return enum_cls(raw)
        except ValueError:
            raise ConfigValidationError(key, f"unknown {what} {raw!r}") from None
    return parse, lambda member: member.value


def _format_float(x):
    return repr(float(x))


def _format_floats(values):
    return " ".join(_format_float(x) for x in values)


def _format_modes(modes):
    return " ".join(f"({kx},{ky},{_format_float(a)})" for kx, ky, a in modes)


# (key, backend or None for both, owning dataclass, field, parser, formatter)
_KEYS = (
    ("geometry.kind", None, ScenarioConfig, "geometry_kind", _parse_kind, str),
    ("geometry.nx", "torus", ScenarioConfig, "nx", _parse_int, str),
    ("geometry.ny", "torus", ScenarioConfig, "ny", _parse_int, str),
    ("geometry.length", "torus", ScenarioConfig, "length", _parse_float, _format_float),
    ("geometry.sigma0_modes", "torus", ScenarioConfig, "sigma0_modes", _parse_modes,
     _format_modes),
    ("geometry.nmu", "sphere", ScenarioConfig, "nmu", _parse_int, str),
    ("initial.modes", "torus", ScenarioConfig, "initial_modes", _parse_modes, _format_modes),
    ("initial.poly_mu", "sphere", ScenarioConfig, "initial_poly_mu", _parse_floats,
     _format_floats),
    ("initial.random.seed", None, RandomInitial, "seed", _parse_int, str),
    ("initial.random.modes", None, RandomInitial, "modes", _parse_int, str),
    ("initial.random.decay", None, RandomInitial, "decay", _parse_float, _format_float),
    ("initial.random.target_sup_f", None, RandomInitial, "target_sup_f", _parse_float,
     _format_float),
    ("flow.scheme", None, FlowConfig, "scheme", *_enum(Scheme, "scheme")),
    ("flow.kind", None, FlowConfig, "flow_kind", *_enum(FlowKind, "flow kind")),
    ("flow.dt_init", None, FlowConfig, "dt_init", _parse_float, _format_float),
    ("flow.cfl", None, FlowConfig, "cfl", _parse_float, _format_float),
    ("flow.t_end", None, FlowConfig, "t_end", _parse_float, _format_float),
    ("flow.rho_floor", None, FlowConfig, "rho_floor", _parse_float, _format_float),
    ("flow.max_halvings", None, FlowConfig, "max_halvings", _parse_int, str),
    ("output.path", None, ScenarioConfig, "output_path", lambda key, raw: raw, str),
    ("output.record_every", None, FlowConfig, "record_every", _parse_int, str),
    ("output.emit_fields", None, ScenarioConfig, "emit_fields", _parse_bool,
     lambda flag: "true" if flag else "false"),
    ("output.checkpoint", None, ScenarioConfig, "checkpoint_path", lambda key, raw: raw, str),
    ("output.p_list", None, ScenarioConfig, "p_list", _parse_floats, _format_floats),
)


def parse_config(text):
    """Parse and validate a scenario; keys not given keep the dataclass defaults,
    and a key given twice raises ConfigValidationError."""
    raw, line_of = {}, {}
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
        if key in line_of:
            raise ConfigValidationError(key, f"given twice, on lines {line_of[key]} and {line_no}")
        raw[key], line_of[key] = value, line_no

    kind = raw.get("geometry.kind")
    if kind is None:
        raise ConfigValidationError("geometry.kind", "required (torus or sphere)")
    kwargs = {ScenarioConfig: {}, RandomInitial: {}, FlowConfig: {}}
    for key, backend, owner, name, parse, _ in _KEYS:  # row 1 rejects an unknown kind
        if key in raw:
            if backend not in (None, kind):
                raise ConfigValidationError(key, f"not applicable to the {kind} backend")
            kwargs[owner][name] = parse(key, raw.pop(key))
    needed = _BACKENDS[kind].grid_params
    if not all(name in kwargs[ScenarioConfig] for name in needed):
        raise ConfigValidationError(f"geometry.{needed[0]}", f"{kind} needs {', '.join(needed)}")
    random = kwargs[RandomInitial]
    if random and "seed" not in random:
        raise ConfigValidationError("initial.random.seed", "required for random initial data")
    config = ScenarioConfig(**kwargs[ScenarioConfig],
                            random=RandomInitial(**random) if random else None,
                            flow=FlowConfig(**kwargs[FlowConfig]))
    if raw:
        raise ConfigValidationError(min(raw), "unknown key")
    return config


def format_config(config):
    """Render the effective config; parse_config(format_config(c)) == c."""
    owners = {ScenarioConfig: config, RandomInitial: config.random, FlowConfig: config.flow}
    lines = []
    for key, backend, owner, name, _, format_value in _KEYS:
        value = getattr(owners[owner], name, None)
        if backend in (None, config.geometry_kind) and value is not None and value != ():
            lines.append(f"{key} = {format_value(value)}")
    return "\n".join(lines) + "\n"


def build_geometry(config):
    """Construct the backend the config describes from its geometry.* keys."""
    backend = _BACKENDS[config.geometry_kind]
    return backend(**{name: getattr(config, name) for key, kind, _, name, _, _ in _KEYS
                      if kind == backend.kind and key.startswith("geometry.")})


def _rescale_to_target(geom, phi, target):
    """Scale phi so sup|F| hits the target within 0.5% (bisection on the scale)."""
    lap = geom.ref_laplacian(phi)  # rho - 1 at scale 1
    # rho and log(rho) are monotone in lap: their extremes sit at its own
    extremes = np.array([lap.min(), lap.max()])

    def sup_f(scale):
        rho = 1.0 + scale * extremes
        if float(rho[0]) <= 1e-09:
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
    spec = config.random
    if spec is not None:
        phi = geom.random_initial(np.random.default_rng(spec.seed), spec.modes, spec.decay)
        return _rescale_to_target(geom, phi, spec.target_sup_f)
    # ScenarioConfig leaves the other backend's explicit data empty
    return geom.explicit_initial(config.initial_modes or config.initial_poly_mu)
