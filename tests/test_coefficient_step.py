"""The coefficient-space RK4 step against its real-space predecessor, its
transform budget, the checks it keeps, and steps that solve no Poisson
equation on any reference: a record's P solve is the only one in a run."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.fft
import pytest
import scipy.fft

import pcflow as pf
from pcflow import flow as flow_mod
from pcflow.kahler import scalar_curvature, trace_ric0
from conftest import TWO_PI

PRESETS = Path(__file__).resolve().parent.parent / "presets"
TORUS_PRESETS = ("decay_torus.cfg", "determinism_torus.cfg", "energy_torus.cfg",
                 "pbound_torus.cfg", "smoothing_torus.cfg")
TRANSFORMS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
DYADIC = 2.0 ** -8


def flat64():
    return pf.build_torus_geometry(64, 64, TWO_PI, ())


def bumpy64():
    return pf.build_torus_geometry(64, 64, TWO_PI, [(1, 0, 0.2)])


def sphere128():
    return pf.build_sphere_geometry(128)


def preset_state(name):
    config = pf.parse_config((PRESETS / name).read_text())
    geom = pf.build_geometry(config)
    phi0 = pf.make_initial(geom, config)
    return geom, pf.validate_kahler(geom, phi0, rho_floor=config.flow.rho_floor)


def real_space_rk4_step(geom, state, dt, flow_kind=pf.FlowKind.PCF, rho_floor=0.05):
    """The RK4 step as it was before the stages moved to coefficient space:
    every stage potential is a real field, validated with validate_kahler,
    and every stage derivative makes a round trip through the 2/3 truncation."""
    base = pf.pcf_rhs if flow_kind is pf.FlowKind.PCF else pf.nkrf_rhs

    def rhs_fn(geom_, state_):
        return base(geom_, state_)[0]

    def dealias(f):
        return geom.from_coeffs(geom.truncate(geom.to_coeffs(f)))

    phi, t = state.phi, state.time
    k1 = dealias(rhs_fn(geom, state))
    s2 = pf.validate_kahler(geom, phi + (0.5 * dt) * k1, t + 0.5 * dt, rho_floor, stage=2)
    k2 = dealias(rhs_fn(geom, s2))
    s3 = pf.validate_kahler(geom, phi + (0.5 * dt) * k2, t + 0.5 * dt, rho_floor, stage=3)
    k3 = dealias(rhs_fn(geom, s3))
    s4 = pf.validate_kahler(geom, phi + dt * k3, t + dt, rho_floor, stage=4)
    k4 = dealias(rhs_fn(geom, s4))
    phi_new = phi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return pf.validate_kahler(geom, phi_new, t + dt, rho_floor)


@pytest.fixture
def transform_count(monkeypatch):
    """Counts 2-D transforms through scipy.fft and numpy.fft; a batched call
    counts as its batch size."""
    count = [0]

    def counted(fn):
        def wrapper(x, *args, **kwargs):
            count[0] += int(np.prod(np.shape(x)[:-2], dtype=int))
            return fn(x, *args, **kwargs)
        return wrapper

    for module in (scipy.fft, numpy.fft):
        for name in TRANSFORMS:
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return count


# ---------------------------------------------------------------------------
# equivalence with the real-space step
# ---------------------------------------------------------------------------

def _advance_both(geom, state, dt, flow_kind, steps=4):
    new = old = state
    for _ in range(steps):
        new = pf.rk4_step(geom, new, dt, flow_kind)
        old = real_space_rk4_step(geom, old, dt, flow_kind)
    return new, old


@pytest.mark.parametrize("case", [
    ("bumpy64", pf.FlowKind.PCF),
    ("flat64", pf.FlowKind.PCF),
    ("flat64", pf.FlowKind.NKRF),
    ("pbound_torus.cfg", pf.FlowKind.PCF),
], ids=lambda case: f"{case[0]}-{case[1].value}")
def test_rk4_matches_real_space_step_on_torus(case):
    name, flow_kind = case
    if name.endswith(".cfg"):
        geom, state = preset_state(name)
    else:
        geom = {"bumpy64": bumpy64, "flat64": flat64}[name]()
        state = pf.validate_kahler(geom, 0.3 * np.cos(geom.x) + 0.05 * np.sin(2.0 * geom.y))
    dt = pf.suggest_dt(geom, state)
    new, old = _advance_both(geom, state, dt, flow_kind)
    assert new.time == old.time
    for a, b in ((new.phi, old.phi), (new.rho, old.rho), (new.big_f, old.big_f)):
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b)))


@pytest.mark.parametrize("flow_kind", [pf.FlowKind.PCF, pf.FlowKind.NKRF])
def test_rk4_matches_real_space_step_bitwise_on_sphere(flow_kind):
    geom = pf.build_sphere_geometry(128)
    state = pf.validate_kahler(geom, 0.1 * geom.mu ** 2 - 0.05 * geom.mu ** 3)
    new, old = _advance_both(geom, state, 1e-3, flow_kind)
    assert new.time == old.time
    assert np.array_equal(new.phi, old.phi)
    assert np.array_equal(new.rho, old.rho)
    assert np.array_equal(new.big_f, old.big_f)


# ---------------------------------------------------------------------------
# transform budget
# ---------------------------------------------------------------------------

def test_transforms_per_step(transform_count):
    geom, state = preset_state("pbound_torus.cfg")
    assert geom.shape == (256, 256) and geom.sigma0_modes
    dt = pf.suggest_dt(geom, state)
    # a step keeps the coefficients the next one starts from; the first step
    # of a run transforms phi once more
    state = pf.rk4_step(geom, state, dt)
    transform_count[0] = 0
    pf.rk4_step(geom, state, dt)  # P is closed-form at every stage
    assert transform_count[0] <= 10
    transform_count[0] = 0
    pf.semi_implicit_step(geom, state, dt)  # one forward, one inverse transform
    assert transform_count[0] == 2

    flat = flat64()
    state = pf.validate_kahler(flat, 0.3 * np.cos(flat.x))
    transform_count[0] = 0
    stepped = pf.semi_implicit_step(flat, state, 1e-3)  # and one of phi
    assert transform_count[0] == 3
    transform_count[0] = 0
    pf.semi_implicit_step(flat, stepped, 1e-3)
    assert transform_count[0] == 2
    state = pf.rk4_step(flat, state, 1e-3)
    transform_count[0] = 0
    pf.rk4_step(flat, state, 1e-3)
    assert transform_count[0] <= 10


def test_transform_count_sees_batches(transform_count):
    scipy.fft.rfft2(np.zeros((3, 16, 16)))
    numpy.fft.irfft2(np.zeros((16, 9), dtype=complex))
    assert transform_count[0] == 4


# ---------------------------------------------------------------------------
# checks that the coefficient-space step keeps
# ---------------------------------------------------------------------------

def _defective_solve(geom, active):
    """Wraps the backend's reference solve so that, while active[0] holds, its
    result carries a defect of sup-norm 1e-8."""
    direct = geom.solve_reference_poisson
    defect = geom.to_coeffs(1e-8 * np.cos(3.0 * geom.x))

    def solve(g):
        u_hat = direct(g)
        return u_hat + defect if active[0] else u_hat

    return solve


def test_reference_solve_defect_raises_tolerance_not_met(monkeypatch):
    # steps solve nothing, so the solver's check guards the records
    geom = bumpy64()
    state = pf.validate_kahler(geom, 0.3 * np.cos(geom.x))
    monkeypatch.setattr(geom, "solve_reference_poisson", _defective_solve(geom, [True]))
    with pytest.raises(pf.ToleranceNotMet):
        pf.solve_P(geom, state)
    with pytest.raises(pf.ToleranceNotMet):
        pf.make_trace_record(geom, state, 1e-3)


def _defective_identity(geom, active):
    """Wraps the backend's ref_laplacian_from_coeffs so that, while active[0]
    holds, the sphere's closed forms see an Einstein-identity defect of 1e-8."""
    direct = geom.ref_laplacian_from_coeffs

    def apply(fh):
        f = direct(fh)
        return f + 1e-8 if active[0] else f

    return apply


def test_run_halves_step_on_einstein_identity_defect(monkeypatch):
    # the first attempt at step 1 meets the defect in its closed-form P
    geom = sphere128()
    active = [False]
    monkeypatch.setattr(geom, "ref_laplacian_from_coeffs", _defective_identity(geom, active))
    real_step = flow_mod.semi_implicit_step
    attempts = []

    def first_attempt_defective(geom_, state_, dt, *args, **kwargs):
        attempts.append(dt)
        active[0] = len(attempts) == 1
        try:
            return real_step(geom_, state_, dt, *args, **kwargs)
        finally:
            active[0] = False

    monkeypatch.setattr(flow_mod, "semi_implicit_step", first_attempt_defective)
    config = pf.FlowConfig(scheme=pf.Scheme.SEMI_IMPLICIT, dt_init=DYADIC, t_end=DYADIC,
                           record_every=1)
    trajectory = pf.run(geom, 0.1 * geom.mu ** 2, config)
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    assert attempts[:2] == [DYADIC, 0.5 * DYADIC]
    assert trajectory.records[1].dt == 0.5 * DYADIC


@pytest.mark.parametrize("name", TORUS_PRESETS)
def test_coefficient_residual_matches_transform_residual(name):
    # the residual solve_poisson_phi checks is applied to the solve's
    # coefficients; applying ref_laplacian to the returned field again sees
    # the same residual up to the round-trip rounding floor
    geom, state = preset_state(name)
    cases = [(pf.solve_P, geom.rbar - trace_ric0(geom, state))]
    if geom.ricci_potential0 is None:
        cases.append((pf.solve_ricci_potential,
                      scalar_curvature(geom, state) - geom.lambda_ke))
    vol_phi = geom.integrate(np.ones(geom.shape), weight=state.rho)
    for solve, rhs in cases:
        solution = solve(geom, state)
        projected = rhs - geom.integrate(rhs, weight=state.rho) / vol_phi
        transform = float(np.max(np.abs(geom.ref_laplacian(solution.field) / state.rho
                                        - projected)))
        assert solution.residual_linf <= 1e-12
        assert transform <= 1e-12
        assert abs(solution.residual_linf - transform) <= 1e-12


@pytest.mark.parametrize("bad_stage", [1, 2, 3, 4])
@pytest.mark.parametrize("build", [bumpy64, lambda: pf.build_sphere_geometry(128)],
                         ids=["torus", "sphere"])
def test_non_finite_stage_rhs_raises_shape_error(build, bad_stage):
    geom = build()
    phi0 = 0.3 * np.cos(geom.x) if geom.kind == "torus" else 0.1 * geom.mu ** 2
    state = pf.validate_kahler(geom, phi0)
    calls = []

    def rhs_fn(geom_, state_):
        calls.append(1)
        rhs = pf.pcf_rhs(geom_, state_)[0]
        return np.full(geom_.shape, np.nan) if len(calls) == bad_stage else rhs

    with pytest.raises(pf.ShapeError):
        pf.rk4_step(geom, state, 1e-3, rhs_fn=rhs_fn)
    assert len(calls) == bad_stage


@pytest.mark.parametrize("build", [bumpy64, lambda: pf.build_sphere_geometry(128)],
                         ids=["torus", "sphere"])
def test_non_finite_semi_implicit_rhs_raises_shape_error(build):
    geom = build()
    phi0 = 0.3 * np.cos(geom.x) if geom.kind == "torus" else 0.1 * geom.mu ** 2
    state = pf.validate_kahler(geom, phi0)

    def rhs_fn(geom_, state_):
        rhs = pf.pcf_rhs(geom_, state_)[0]
        rhs[0] = np.inf
        return rhs

    with pytest.raises(pf.ShapeError):
        pf.semi_implicit_step(geom, state, 1e-3, rhs_fn=rhs_fn)


@pytest.mark.parametrize("scheme", [pf.Scheme.RK4, pf.Scheme.SEMI_IMPLICIT])
@pytest.mark.parametrize("build", [bumpy64, sphere128])
def test_record_cadence_does_not_change_the_flow(build, scheme):
    # the steps take P in closed form and never read a record's solved P,
    # so the flow is the same bits for any cadence
    geom = build()
    phi0 = 0.3 * np.cos(geom.x) if geom.kind == "torus" else 0.1 * geom.mu ** 2
    finals = []
    for record_every in (1, 4):
        config = pf.FlowConfig(scheme=scheme, dt_init=DYADIC, t_end=4.0 * DYADIC,
                               record_every=record_every)
        trajectory = pf.run(geom, phi0, config)
        assert trajectory.terminated is pf.Termination.REACHED_T_END
        finals.append(trajectory.states[-1])
    assert finals[0].time == finals[1].time
    assert np.array_equal(finals[0].phi, finals[1].phi)


# ---------------------------------------------------------------------------
# one P solve per recorded state, none in a step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", [pf.Scheme.RK4, pf.Scheme.SEMI_IMPLICIT])
@pytest.mark.parametrize("case", [("sphere128", pf.FlowKind.PCF),
                                  ("sphere128", pf.FlowKind.NKRF),
                                  ("bumpy64", pf.FlowKind.PCF)],
                         ids=lambda case: f"{case[0]}-{case[1].value}")
def test_steps_solve_no_poisson_equation(monkeypatch, case, scheme):
    # P is a closed form on every reference and the Ricci potential one on
    # the sphere: the one reference solve left is the solved P that each
    # record reports
    name, flow_kind = case
    geom = {"sphere128": sphere128, "bumpy64": bumpy64}[name]()
    solves, p_solves = [], []
    direct_solve, direct_p = geom.solve_reference_poisson, pf.solve_P

    def counted_solve(g):
        solves.append(1)
        return direct_solve(g)

    def counted_p(*args, **kwargs):
        p_solves.append(1)
        return direct_p(*args, **kwargs)

    stepper_name = "rk4_step" if scheme is pf.Scheme.RK4 else "semi_implicit_step"
    real_step = getattr(flow_mod, stepper_name)

    def step_solving_nothing(*args, **kwargs):
        before = len(solves)
        new_state = real_step(*args, **kwargs)
        assert len(solves) == before
        return new_state

    monkeypatch.setattr(geom, "solve_reference_poisson", counted_solve)
    monkeypatch.setattr(pf.functionals, "solve_P", counted_p)
    monkeypatch.setattr(flow_mod, stepper_name, step_solving_nothing)
    phi0 = 0.3 * np.cos(geom.x) if geom.kind == "torus" else 0.1 * geom.mu ** 2
    config = pf.FlowConfig(scheme=scheme, dt_init=DYADIC, t_end=8.0 * DYADIC,
                           record_every=4, flow_kind=flow_kind)
    trajectory = pf.run(geom, phi0, config)
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    # 8 semi-implicit steps, or heat-capped RK4 steps: 625 on the sphere
    assert len(trajectory.records) >= 3
    assert len(p_solves) == len(trajectory.records)
    assert len(solves) == len(trajectory.records)


def test_recorded_states_keep_no_coefficients():
    geom = bumpy64()
    config = pf.FlowConfig(dt_init=DYADIC, t_end=4.0 * DYADIC, record_every=1)
    trajectory = pf.run(geom, 0.3 * np.cos(geom.x), config)
    assert all(state.coeffs is None for state in trajectory.states)
    sphere = sphere128()
    trajectory = pf.run(sphere, 0.1 * sphere.mu ** 2,
                        replace(config, scheme=pf.Scheme.SEMI_IMPLICIT))
    assert all(state.coeffs is None for state in trajectory.states)


def test_semi_implicit_torus_records_keep_coefficients():
    # the steps carry phi_hat alone; a record forms phi from it and keeps it,
    # the initial state of a fresh run excepted (it has no coefficients)
    geom = bumpy64()
    config = pf.FlowConfig(scheme=pf.Scheme.SEMI_IMPLICIT, dt_init=DYADIC,
                           t_end=4.0 * DYADIC, record_every=2)
    trajectory = pf.run(geom, 0.3 * np.cos(geom.x), config)
    first, *rest = trajectory.states
    assert first.coeffs is None
    assert len(rest) == 2
    for state in rest:
        assert np.array_equal(state.phi, geom.from_coeffs(state.coeffs))
    resumed = pf.run(geom, rest[0].phi, config, start_time=rest[0].time,
                     start_coeffs=rest[0].coeffs)
    assert resumed.states[0].coeffs is rest[0].coeffs
    assert np.array_equal(resumed.states[-1].phi, rest[-1].phi)


def test_rk4_from_state_without_coefficients():
    # a recorded state has no coefficients; the step transforms its phi
    geom = bumpy64()
    state = pf.rk4_step(geom, pf.validate_kahler(geom, 0.3 * np.cos(geom.x)), 1e-3)
    assert state.coeffs is not None
    bare = replace(state, coeffs=None)
    assert np.array_equal(pf.rk4_step(geom, bare, 1e-3).phi, pf.rk4_step(geom, state, 1e-3).phi)
    # a semi-implicit torus state has no phi; the step forms it
    state = pf.semi_implicit_step(geom, state, 1e-3)
    with_phi = replace(state, phi=geom.from_coeffs(state.coeffs))
    assert np.array_equal(pf.rk4_step(geom, state, 1e-3).phi,
                          pf.rk4_step(geom, with_phi, 1e-3).phi)
