"""Time integration of the pseudo-Calabi flow and the normalized
Kahler-Ricci flow.

Both flows evolve the potential, PCF by F + P and NKRF by -h_phi; they are
compared only through rho, the gauge-invariant metric density. P is a closed
form on every reference (lambda*phi - h0, see elliptic.closed_form_P), and
h_phi one on the Kahler-Einstein references NKRF runs on, so a step solves
no elliptic equation. The explicit scheme is classical RK4 in the backend's
coefficient space with a heat-limit step cap.
The semi-implicit scheme treats a constant-coefficient operator implicitly
with one direct solve per step (a diagonal division in Fourier space on the
torus, a tridiagonal solve on the sphere); it has no linear stability limit,
so it takes dt_init as given. It steps phi's coefficients, as RK4 steps its
stages: 2 transforms per torus step, and phi is formed only for a record.

Checks: check_field (finite field) and the cone check of state_from_coeffs
on the real phi that starts every run (validate_kahler) and ends every RK4
step, the cone check at each RK4 stage and on the coefficients that end a
semi-implicit step (NaN-safe, so non-finite coefficients fail it), check_field
on every right-hand side, and the closed forms on the defect of the Einstein
identity they rest on. run() halves the step on NotKahler and ToleranceNotMet.
"""

import enum
import logging
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import closed_form_P, solve_ricci_potential
from .errors import ConfigValidationError, NotKahler, ToleranceNotMet
from .functionals import DEFAULT_P_LIST, make_trace_record
from .kahler import state_from_coeffs, validate_kahler

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
    record_every: int = 10
    flow_kind: FlowKind = FlowKind.PCF

    def __post_init__(self):
        # run() selects by identity, so a string would silently pick the other branch
        if not isinstance(self.scheme, Scheme):
            raise ConfigValidationError("flow.scheme",
                                        f"must be a Scheme member, got {self.scheme!r}")
        if not isinstance(self.flow_kind, FlowKind):
            raise ConfigValidationError("flow.kind",
                                        f"must be a FlowKind member, got {self.flow_kind!r}")
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
        if not isinstance(self.max_halvings, numbers.Integral) or self.max_halvings < 0:
            raise ConfigValidationError("flow.max_halvings",
                                        f"must be an integer >= 0, got {self.max_halvings}")
        if not isinstance(self.record_every, numbers.Integral) or self.record_every < 1:
            raise ConfigValidationError("output.record_every",
                                        f"must be an integer >= 1, got {self.record_every}")


@dataclass(frozen=True)
class Trajectory:
    states: list
    records: list
    config: FlowConfig
    terminated: Termination


def pcf_rhs(geom, state):
    """d(phi)/dt for the pseudo-Calabi flow: F + P, with P from closed_form_P."""
    solution = closed_form_P(geom, state)
    return state.big_f + solution.field, solution


def nkrf_rhs(geom, state):
    """d(phi)/dt for the normalized Kahler-Ricci flow: -h_phi."""
    solution = solve_ricci_potential(geom, state)
    return -solution.field, solution


def _rhs_for(flow_kind):
    base = pcf_rhs if flow_kind is FlowKind.PCF else nkrf_rhs
    return lambda geom, state: base(geom, state)[0]


def rk4_step(geom, state, dt, flow_kind=FlowKind.PCF, rho_floor=0.05, rhs_fn=None):
    """Classical RK4 step with its stages in the backend's coefficient space.

    A stage potential is phi_hat + c*k_hat, and one inverse transform gives
    its rho. Each right-hand side is truncated by one forward transform and
    the 2/3 mask, which restores the heat-limit cap of suggest_dt (RK4 does
    not damp the corner modes the nonlinearity injects). The increment goes
    back to real space and the step ends with the checks of validate_kahler
    on the real phi, so checkpoints resume bitwise; the new state keeps phi's
    coefficients for the next step. A torus step, curved or flat, makes 10
    transforms (4 truncations, 3 stage densities, 3 to finish); a step from
    a state without coefficients (the first of a run) makes one more, and
    one from a state without phi (a semi-implicit torus step's) forms it. A
    stage state carries phi only where a closed-form right-hand side reads
    it (lambda_ke != 0: the sphere, whose from_coeffs is the identity).
    """
    if rhs_fn is None:
        rhs_fn = _rhs_for(flow_kind)
    phi_hat = state.coeffs if state.coeffs is not None else geom.to_coeffs(state.phi)
    t = state.time

    def truncated(stage_state):
        return geom.truncate(geom.to_coeffs(geom.check_field(rhs_fn(geom, stage_state))))

    def stage(c, k_hat, number):
        stage_hat = phi_hat + c * k_hat
        return state_from_coeffs(geom, stage_hat, t + c, rho_floor, stage=number,
                                 phi=geom.from_coeffs(stage_hat) if geom.lambda_ke else None)

    k1 = truncated(state)
    k2 = truncated(stage(0.5 * dt, k1, 2))
    k3 = truncated(stage(0.5 * dt, k2, 3))
    k4 = truncated(stage(dt, k3, 4))
    increment = geom.from_coeffs((dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
    phi = state.phi if state.phi is not None else geom.from_coeffs(phi_hat)
    phi_new = geom.check_field(phi + increment)
    phi_hat_new = geom.to_coeffs(phi_new)
    return state_from_coeffs(geom, phi_hat_new, t + dt, rho_floor, phi=phi_new,
                             coeffs=phi_hat_new)


def semi_implicit_step(geom, state, dt, flow_kind=FlowKind.PCF, rho_floor=0.05,
                       rhs_fn=None):
    """First-order step, implicit in c*L0 with c = 1/min(rho), in the
    backend's coefficient space.

    L0 is the constant-coefficient operator solve_shifted inverts
    (f_{z zbar}/min(sigma0) on the torus, ref_laplacian on the sphere).
    Solving for the increment, phi_new = phi + (Id - dt*c*L0)^(-1)(dt*rhs),
    equals (Id - dt*c*L0) phi_new = phi + dt*(rhs - c*L0(phi)) without
    applying L0 to phi. c*L0 dominates Delta_phi = f_{z zbar}/(sigma0*rho)
    pointwise, so the frozen-coefficient amplification factor lies in
    [0, 1] and dt is not limited by the heat scale.

    The increment is added to phi's coefficients, and one inverse transform
    gives the new rho: a torus step makes 2 transforms, and a step from a
    state without coefficients (the first of a run) one more. Like an RK4
    stage, the new state carries phi only where a closed-form right-hand
    side reads it (the sphere); on the torus run() forms phi for a record.
    """
    rhs = geom.check_field((rhs_fn or _rhs_for(flow_kind))(geom, state))
    c = 1.0 / float(np.min(state.rho))
    phi_hat = state.coeffs if state.coeffs is not None else geom.to_coeffs(state.phi)
    phi_hat_new = phi_hat + geom.solve_shifted(dt * rhs, dt * c)
    return state_from_coeffs(geom, phi_hat_new, state.time + dt, rho_floor,
                             phi=geom.from_coeffs(phi_hat_new) if geom.lambda_ke else None,
                             coeffs=phi_hat_new)


def suggest_dt(geom, state, cfl=0.2):
    """Heat-limit step bound for the explicit scheme: cfl times the explicit
    stability scale of Delta_phi on this backend."""
    return cfl * geom.heat_dt_scale(state.rho)


def run(geom, phi0, config, p_list=DEFAULT_P_LIST, start_time=0.0, start_coeffs=None):
    """Advance from start_time to t_end, recording every record_every steps.

    Terminal conditions are reported on the Trajectory, never raised: a
    non-Kahler initial state, a step floor hit after max_halvings halvings,
    or the end time reached. A record's solve_P is the only Poisson solve
    in a run, and its residual bound sits above the grid's rounding floor:
    it raises ToleranceNotMet only on a defect of the solve, such as a NaN.
    That is no step failure, so it propagates to the caller and no
    Trajectory is returned.

    A semi-implicit torus run steps phi's coefficients, and
    to_coeffs(from_coeffs(phi_hat)) is not phi_hat bitwise, so its recorded
    states keep their coefficients; write_checkpoint stores them and a
    resume passes them back as start_coeffs (with phi0 the stored phi) to
    continue the run bitwise.
    """
    try:
        if start_coeffs is None:
            state = validate_kahler(geom, phi0, time=start_time, rho_floor=config.rho_floor)
        else:
            state = state_from_coeffs(geom, start_coeffs, start_time, config.rho_floor,
                                      phi=geom.check_field(phi0), coeffs=start_coeffs)
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

    # only a semi-implicit torus step leaves phi to its coefficients; every
    # other recorded state drops them, as to_coeffs(phi) returns them bitwise
    keep_coeffs = config.scheme is Scheme.SEMI_IMPLICIT and not geom.lambda_ke

    def record(current, dt_used):
        # a record reports the solved P, which the steps never read, and
        # forms phi apart from the stepped state: the flow does not depend
        # on record_every
        if current.phi is None:
            current = replace(current, phi=geom.from_coeffs(current.coeffs))
        states.append(current if keep_coeffs else replace(current, coeffs=None))
        records.append(make_trace_record(geom, current, dt_used, p_list))

    states = []
    records = []
    record(state, min(base_dt(state), config.t_end - start_time))
    step_index = 0
    step_dt = None  # the dt of the step that produced state
    terminated = Termination.REACHED_T_END
    eps = np.finfo(float).eps

    while state.time < config.t_end:
        remaining = config.t_end - state.time
        dt = base_dt(state)
        # each t + dt rounds by at most eps*t_end and a run takes about
        # t_end/dt steps: a gap between remaining and dt within that bound is
        # rounding, so a full step ends the run and t snaps to t_end
        rounding = eps * config.t_end * (config.t_end / dt)
        final_step = remaining - dt <= rounding
        if remaining < dt - rounding:
            dt = remaining
        new_state = None
        for _ in range(config.max_halvings + 1):
            try:
                new_state = stepper(geom, state, dt, config.flow_kind, config.rho_floor)
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
