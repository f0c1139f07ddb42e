"""Time integration of the pseudo-Calabi flow and the normalized
Kahler-Ricci flow.

Both flows evolve the potential, PCF by F + P and NKRF by -h_phi; they are
compared only through rho, the gauge-invariant metric density. The explicit
scheme is classical RK4 with one elliptic solve per stage and a heat-limit
step cap. The semi-implicit scheme treats a constant-coefficient operator
implicitly with one direct solve per step (a diagonal division in Fourier
space on the torus, a tridiagonal solve on the sphere); it has no linear
stability limit, so it takes dt_init as given.
"""

import enum
import logging
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import DEFAULT_POISSON_TOL, solve_P, solve_ricci_potential
from .errors import ConfigValidationError, NotKahler, ToleranceNotMet
from .functionals import DEFAULT_P_LIST, make_trace_record
from .kahler import validate_kahler

logger = logging.getLogger(__name__)


class Scheme(enum.Enum):
    RK4 = "RK4"
    SEMI_IMPLICIT = "SemiImplicit"


class FlowKind(enum.Enum):
    PCF = "PCF"
    NKRF = "NKRF"


class Termination(enum.Enum):
    REACHED_T_END = "ReachedTEnd"
    STEP_FLOOR_HIT = "StepFloorHit"
    NOT_KAHLER = "NotKahler"


@dataclass(frozen=True)
class FlowConfig:
    scheme: Scheme = Scheme.RK4
    dt_init: float = 1.0
    cfl: float = 0.2
    t_end: float = 1.0
    rho_floor: float = 0.05
    max_halvings: int = 12
    poisson_tol: float = DEFAULT_POISSON_TOL
    record_every: int = 10
    flow_kind: FlowKind = FlowKind.PCF

    def __post_init__(self):
        if not 0.0 < self.dt_init < np.inf:
            raise ConfigValidationError("flow.dt_init",
                                        f"must be > 0 and finite, got {self.dt_init}")
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigValidationError("flow.cfl", f"must be in (0, 1], got {self.cfl}")
        if not 0.0 < self.t_end < np.inf:
            raise ConfigValidationError("flow.t_end",
                                        f"must be > 0 and finite, got {self.t_end}")
        if not 0.0 < self.rho_floor < np.inf:
            raise ConfigValidationError("flow.rho_floor",
                                        f"must be > 0 and finite, got {self.rho_floor}")
        if self.max_halvings < 0:
            raise ConfigValidationError("flow.max_halvings",
                                        f"must be >= 0, got {self.max_halvings}")
        if not 0.0 < self.poisson_tol < np.inf:
            raise ConfigValidationError("flow.poisson_tol",
                                        f"must be > 0 and finite, got {self.poisson_tol}")
        if self.record_every < 1:
            raise ConfigValidationError("output.record_every",
                                        f"must be >= 1, got {self.record_every}")


@dataclass(frozen=True)
class Trajectory:
    states: list
    records: list
    config: FlowConfig
    terminated: Termination


def pcf_rhs(geom, state, poisson_tol=DEFAULT_POISSON_TOL):
    """d(phi)/dt for the pseudo-Calabi flow: F + P."""
    solution = solve_P(geom, state, poisson_tol)
    return state.big_f + solution.field, solution


def nkrf_rhs(geom, state, poisson_tol=DEFAULT_POISSON_TOL):
    """d(phi)/dt for the normalized Kahler-Ricci flow: -h_phi."""
    solution = solve_ricci_potential(geom, state, poisson_tol)
    return -solution.field, solution


def _rhs_for(flow_kind, poisson_tol):
    base = pcf_rhs if flow_kind is FlowKind.PCF else nkrf_rhs

    def rhs_fn(geom, state):
        return base(geom, state, poisson_tol)[0]

    return rhs_fn


def rk4_step(geom, state, dt, flow_kind=FlowKind.PCF, rho_floor=0.05,
             poisson_tol=DEFAULT_POISSON_TOL, rhs_fn=None):
    """Classical RK4 step; every stage revalidates and re-solves.

    Stage derivatives pass through the backend's dealias filter: the RK4
    stability region does not reach the corner modes the nonlinearity
    injects near the torus grid scale, and truncating them restores the
    heat-limit step cap used by suggest_dt.
    """
    if rhs_fn is None:
        rhs_fn = _rhs_for(flow_kind, poisson_tol)
    phi, t = state.phi, state.time
    k1 = geom.dealias(rhs_fn(geom, state))
    s2 = validate_kahler(geom, phi + (0.5 * dt) * k1, t + 0.5 * dt, rho_floor, stage=2)
    k2 = geom.dealias(rhs_fn(geom, s2))
    s3 = validate_kahler(geom, phi + (0.5 * dt) * k2, t + 0.5 * dt, rho_floor, stage=3)
    k3 = geom.dealias(rhs_fn(geom, s3))
    s4 = validate_kahler(geom, phi + dt * k3, t + dt, rho_floor, stage=4)
    k4 = geom.dealias(rhs_fn(geom, s4))
    phi_new = phi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return validate_kahler(geom, phi_new, t + dt, rho_floor)


def semi_implicit_step(geom, state, dt, flow_kind=FlowKind.PCF, rho_floor=0.05,
                       poisson_tol=DEFAULT_POISSON_TOL, rhs_fn=None):
    """First-order step, implicit in c*L0 with c = 1/min(rho).

    L0 is the constant-coefficient operator solve_shifted inverts
    (f_{z zbar}/min(sigma0) on the torus, ref_laplacian on the sphere).
    Solving for the increment, phi_new = phi + (Id - dt*c*L0)^(-1)(dt*rhs),
    equals (Id - dt*c*L0) phi_new = phi + dt*(rhs - c*L0(phi)) without
    applying L0 to phi. c*L0 dominates Delta_phi = f_{z zbar}/(sigma0*rho)
    pointwise, so the frozen-coefficient amplification factor lies in
    [0, 1] and dt is not limited by the heat scale.
    """
    if rhs_fn is None:
        rhs_fn = _rhs_for(flow_kind, poisson_tol)
    c = 1.0 / float(np.min(state.rho))
    phi_new = state.phi + geom.solve_shifted(dt * rhs_fn(geom, state), dt * c)
    return validate_kahler(geom, phi_new, state.time + dt, rho_floor)


def suggest_dt(geom, state, cfl=0.2):
    """Heat-limit step bound for the explicit scheme: cfl times the explicit
    stability scale of Delta_phi on this backend."""
    return cfl * geom.heat_dt_scale(state.rho)


def run(geom, phi0, config, p_list=DEFAULT_P_LIST, start_time=0.0):
    """Advance from start_time to t_end, recording every record_every steps.

    Terminal conditions are reported on the Trajectory, never raised: a
    non-Kahler initial state, a step floor hit after max_halvings halvings,
    or the end time reached.
    """
    try:
        state = validate_kahler(geom, phi0, time=start_time, rho_floor=config.rho_floor)
    except NotKahler as exc:
        logger.warning("initial state rejected: %s", exc)
        return Trajectory(states=[], records=[], config=config,
                          terminated=Termination.NOT_KAHLER)

    stepper = rk4_step if config.scheme is Scheme.RK4 else semi_implicit_step

    def base_dt(current):
        # the explicit scheme is capped by its linear stability limit; the
        # semi-implicit scheme has none and takes dt_init as given
        if config.scheme is Scheme.RK4:
            return min(config.dt_init, suggest_dt(geom, current, config.cfl))
        return config.dt_init

    def record(current, dt_used):
        states.append(current)
        records.append(make_trace_record(geom, current, dt_used, p_list,
                                         config.poisson_tol))

    states = []
    records = []
    record(state, min(base_dt(state), config.t_end - start_time))
    step_index = 0
    step_dt = None  # the dt of the step that produced state
    terminated = Termination.REACHED_T_END

    while state.time < config.t_end:
        remaining = config.t_end - state.time
        dt = base_dt(state)
        # each t + dt rounds by at most eps*t_end and a run takes about
        # t_end/dt steps: a gap between remaining and dt within that bound is
        # rounding, so a full step ends the run and t snaps to t_end
        rounding = np.finfo(float).eps * config.t_end * (config.t_end / dt)
        final_step = remaining - dt <= rounding
        if remaining < dt - rounding:
            dt = remaining
        new_state = None
        for _ in range(config.max_halvings + 1):
            try:
                new_state = stepper(geom, state, dt, config.flow_kind,
                                    config.rho_floor, config.poisson_tol)
                break
            except (NotKahler, ToleranceNotMet) as exc:
                logger.info("step rejected at t = %.6g (dt = %.3e): %s",
                            state.time, dt, exc)
                dt *= 0.5
                final_step = False
        if new_state is None:
            terminated = Termination.STEP_FLOOR_HIT
            break
        if final_step:
            new_state = replace(new_state, time=config.t_end)
        state = new_state
        step_dt = dt
        step_index += 1
        if step_index % config.record_every == 0 or state.time >= config.t_end:
            record(state, dt)

    if records[-1].time < state.time:
        record(state, step_dt)
    return Trajectory(states=states, records=records, config=config, terminated=terminated)
