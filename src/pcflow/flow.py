"""Time integration of the pseudo-Calabi flow and the normalized
Kahler-Ricci flow.

Both flows evolve the potential, PCF by F + P and NKRF by -h_phi; they are
compared only through rho, the gauge-invariant metric density. P is a closed
form on every reference (lambda*phi - h0, see elliptic.closed_form_P), and
h_phi one on the Kahler-Einstein references NKRF runs on, so a step solves
no elliptic equation. A stepper integrates the one rhs it is given, and
run() picks both once. The explicit scheme is classical RK4 in the backend's
coefficient space with a heat-limit step cap. The semi-implicit scheme
treats a constant-coefficient operator implicitly with one direct solve per
step (a diagonal division in Fourier space on the torus, a tridiagonal solve
on the sphere); it has no linear stability limit, so it takes dt_init as
given. Both step phi's coefficients, a state's one form: a torus step makes
8 transforms (RK4) or 2, and phi is formed only where something reads it.

Checks: check_field and the cone check on the real phi that starts a fresh
run (validate_kahler), the NaN-safe cone check on the coefficients of every
RK4 stage and every state a step ends on, check_field on every right-hand
side (one per semi-implicit step, four per RK4 step: the integrals inside the
closed forms check only their sum), and the closed forms on the defect of the
Einstein identity they rest on. run() halves the step on NotKahler and
ToleranceNotMet. A trace record reads a state no step reads again, so run()
may make it on a worker thread.
"""

import enum
import logging
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import closed_form_P, solve_ricci_potential
from .errors import ConfigValidationError, NotKahler, ShapeError, ToleranceNotMet
from .functionals import DEFAULT_P_LIST, check_p_list, make_trace_record
from .kahler import state_from_coeffs, validate_kahler

logger = logging.getLogger(__name__)

# A record costs one to four steps on a torus of 2^14 nodes or more, so at
# one record in 10 steps or fewer records are a tenth or more of a run, which
# the worker hides; at the presets' 50 to 100 it saves a few percent at most,
# while the record's memory in the worker's own malloc arena adds about
# 3.5 MiB to the process's peak resident set
RECORD_EVERY_OFF_THREAD = 10


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
    terminated: Termination


def pcf_rhs(geom, state):
    """d(phi)/dt for the pseudo-Calabi flow: F + P, P from closed_form_P (F if Ricci-flat)."""
    if geom.ricci_flat:
        return state.big_f
    rhs = closed_form_P(geom, state)  # a new field: F added in place
    return np.add(rhs, state.big_f, out=rhs)


def nkrf_rhs(geom, state):
    """d(phi)/dt for the normalized Kahler-Ricci flow: -h_phi."""
    return -solve_ricci_potential(geom, state)


def rk4_step(geom, state, dt, rhs=pcf_rhs, rho_floor=0.05):
    """Classical RK4 step of d(phi)/dt = rhs(geom, state) in coefficient space.

    A stage potential is phi_hat + c*k_hat, formed in one new array, and one
    inverse transform gives its rho. Each right-hand side is truncated by one
    forward transform and the 2/3 rule, which zeroes that transform's new array
    in place and restores the heat-limit cap of suggest_dt (RK4 does not damp
    the corner modes the nonlinearity injects). The step ends on phi_hat +
    (dt/6)(k1 + 2 k2 + 2 k3 + k4), summed in k2, and one inverse transform
    gives its rho.
    """
    phi_hat, t = state.coeffs, state.time

    def truncated(stage_state):
        return geom.truncate(geom.to_coeffs(geom.check_field(rhs(geom, stage_state))))

    def stage(c, k_hat, number):
        potential = np.multiply(k_hat, c)  # bitwise phi_hat + c*k_hat, with one temporary
        potential += phi_hat
        return state_from_coeffs(geom, potential, t + c, rho_floor, stage=number)

    k1 = truncated(state)
    k2 = truncated(stage(0.5 * dt, k1, 2))
    k3 = truncated(stage(0.5 * dt, k2, 3))
    k4 = truncated(stage(dt, k3, 4))
    # phi_hat + (dt/6)(k1 + 2(k2 + k3) + k4) in k2, truncate's new array: no 0.5 MB temporaries
    k2 += k3
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= dt / 6.0
    k2 += phi_hat
    return state_from_coeffs(geom, k2, t + dt, rho_floor)


def semi_implicit_step(geom, state, dt, rhs=pcf_rhs, rho_floor=0.05):
    """First-order step of d(phi)/dt = rhs(geom, state), implicit in c*L0
    with c = 1/min(rho), in the backend's coefficient space.

    L0 is the constant-coefficient operator solve_shifted inverts
    (f_{z zbar}/min(sigma0) on the torus, ref_laplacian on the sphere).
    Solving for the increment, phi_new = phi + (Id - dt*c*L0)^(-1)(dt*rhs),
    equals (Id - dt*c*L0) phi_new = phi + dt*(rhs - c*L0(phi)) without
    applying L0 to phi. c*L0 dominates Delta_phi = f_{z zbar}/(sigma0*rho)
    pointwise, so the frozen-coefficient amplification factor lies in
    [0, 1] and dt is not limited by the heat scale.

    The increment is added to phi's coefficients, and one inverse transform
    gives the new rho: a torus step makes 2 transforms.
    """
    field = geom.check_field(rhs(geom, state))
    c = 1.0 / state.rho_min
    phi_hat_new = geom.solve_shifted(dt * field, dt * c)  # new coefficients: phi_hat added
    phi_hat_new += state.coeffs
    return state_from_coeffs(geom, phi_hat_new, state.time + dt, rho_floor)


def suggest_dt(geom, state, cfl=0.2):
    """Heat-limit step bound for the explicit scheme: cfl times the explicit
    stability scale of Delta_phi on this backend."""
    return cfl * geom.heat_dt_scale(state.rho)


def base_dt(geom, state, config):
    """The dt run() tries from state, before the clamp to t_end and any
    halving: dt_init, capped by suggest_dt under the explicit scheme alone."""
    if config.scheme is Scheme.RK4:
        return min(config.dt_init, suggest_dt(geom, state, config.cfl))
    return config.dt_init


def thread_cap():
    """PCFLOW_THREADS as a positive integer; where it is unset, the usable
    cores (os.sched_getaffinity, Linux only; elsewhere os.cpu_count(), or 1).
    Any other value raises ConfigValidationError("PCFLOW_THREADS")."""
    raw = os.environ.get("PCFLOW_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigValidationError("PCFLOW_THREADS",
                                    f"expected a positive integer, got {raw!r}")
    return cap


def run(geom, phi0, config, p_list=DEFAULT_P_LIST, start_time=0.0, start_coeffs=None):
    """Advance from start_time to t_end, recording every record_every steps.

    Before any work it raises ConfigValidationError for NKRF off an Einstein
    reference (flow.kind), for a start_time not before t_end (flow.t_end), for
    a p_list that check_p_list rejects (output.p_list) and for an invalid
    PCFLOW_THREADS, and ShapeError for start_coeffs not of the backend's
    coefficient shape. Terminal conditions are reported on the Trajectory, never
    raised: a non-Kahler initial state, a step floor hit after max_halvings
    halvings, or the end time reached. A record's solve_P is the only
    Poisson solve in a run, and its residual bound sits above the grid's
    rounding floor: it raises ToleranceNotMet only on a defect of the solve,
    such as a NaN. That is no step failure, so it propagates to the caller
    and no Trajectory is returned.

    Where geom.records_off_thread, thread_cap() > 1 and records come at least
    every RECORD_EVERY_OFF_THREAD steps, each record is made on one worker
    thread while the steps go on, and collected, in order, before the next is
    submitted, under the caller's numpy error state; a failed record raises
    when collected, a few steps later at most. Otherwise (PCFLOW_THREADS=1,
    for one) records are made inline. The bits are the same either way: a
    record is the same sequential arithmetic.

    A run steps phi's coefficients, which to_coeffs(phi) does not return
    bitwise on the torus: recorded states keep them, write_checkpoint stores
    them, and a resume passes them back as start_coeffs, phi0 unread, to
    continue the run bitwise.
    """
    if config.flow_kind is FlowKind.NKRF and geom.ricci_potential0 is not None:
        raise ConfigValidationError(
            "flow.kind", "NKRF needs an Einstein reference (round sphere or flat torus)")
    if not start_time < config.t_end:
        raise ConfigValidationError(
            "flow.t_end", f"start time {start_time:.6g} already at or past t_end")
    expected = geom.shape if geom.coeffs_shape is None else geom.coeffs_shape(geom.shape)
    if start_coeffs is not None and np.shape(start_coeffs) != expected:
        raise ShapeError(f"start_coeffs shape {np.shape(start_coeffs)} != {expected}")
    check_p_list(p_list)
    off_thread = (thread_cap() > 1 and geom.records_off_thread
                  and config.record_every <= RECORD_EVERY_OFF_THREAD)
    try:
        if start_coeffs is None:
            state = validate_kahler(geom, phi0, time=start_time, rho_floor=config.rho_floor)
        else:
            state = state_from_coeffs(geom, start_coeffs, start_time, config.rho_floor)
    except NotKahler as exc:
        logger.warning("initial state rejected: %s", exc)
        return Trajectory(states=[], records=[], terminated=Termination.NOT_KAHLER)

    stepper = rk4_step if config.scheme is Scheme.RK4 else semi_implicit_step
    rhs = pcf_rhs if config.flow_kind is FlowKind.PCF else nkrf_rhs

    states = []
    records = []
    pool = ThreadPoolExecutor(max_workers=1) if off_thread else None
    pending = None  # the record in flight on the worker

    def collect():
        nonlocal pending
        if pending is not None:
            future, pending = pending, None
            records.append(future.result())

    def record_under(err, call, current, dt_used):
        # numpy's error state is per thread before numpy 2: the worker takes
        # the caller's, so np.errstate(all="raise") raises there as inline
        with np.errstate(call=call, **err):
            return make_trace_record(geom, current, dt_used, p_list)

    def record(current, dt_used):
        nonlocal pending
        states.append(current)
        if pool is None:
            records.append(make_trace_record(geom, current, dt_used, p_list))
            return
        collect()
        pending = pool.submit(record_under, np.geterr(), np.geterrcall(), current, dt_used)

    try:
        record(state, min(base_dt(geom, state, config), config.t_end - start_time))
        step_index = 0
        step_dt = None  # the dt of the step that produced state
        terminated = Termination.REACHED_T_END
        eps = np.finfo(float).eps

        while state.time < config.t_end:
            remaining = config.t_end - state.time
            dt = base_dt(geom, state, config)
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
                    new_state = stepper(geom, state, dt, rhs, config.rho_floor)
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

        if states[-1].time < state.time:
            record(state, step_dt)
        collect()
    except BaseException:
        collect()  # the record in flight was made before what failed, as inline
        raise
    finally:
        if pool is not None:
            pool.shutdown()
    return Trajectory(states=states, records=records, terminated=terminated)
