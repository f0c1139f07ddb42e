"""The coefficient-space RK4 step and trace record against their real-space
predecessors, their transform budgets, the checks the step keeps, and steps
that solve no Poisson equation on any reference: a record's P solve is the
only one in a run."""

from pathlib import Path

import numpy as np
import numpy.fft
import pytest
import scipy.fft

import pcflow as pf
from pcflow import flow as flow_mod
from pcflow.kahler import scalar_curvature, state_from_coeffs, trace_ric0
from conftest import TWO_PI
from oracles import einstein_identity_defect, real_space_trace_record

PRESETS = Path(__file__).resolve().parent.parent / "presets"
TORUS_PRESETS = ("decay_torus.cfg", "determinism_torus.cfg", "energy_torus.cfg",
                 "pbound_torus.cfg", "smoothing_torus.cfg")
# a torus inverse transform ends in one 1-D irfft over the last axis, so that
# name counts each 2-D inverse once
TRANSFORMS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn", "irfft")
DYADIC = 2.0 ** -8


def flat64():
    return pf.TorusGeometry(64, 64, TWO_PI)


def bumpy64():
    return pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)])


def sphere128():
    return pf.SphereGeometry(128)


def preset_state(name):
    config = pf.parse_config((PRESETS / name).read_text())
    geom = pf.build_geometry(config)
    phi0 = pf.make_initial(geom, config)
    return geom, pf.validate_kahler(geom, phi0, rho_floor=config.flow.rho_floor)


def real_space_rk4_step(geom, state, dt, rhs=pf.pcf_rhs, rho_floor=0.05):
    """The RK4 step as it was before the stages moved to coefficient space:
    every stage potential is a real field, validated with validate_kahler,
    and every stage derivative makes a round trip through the 2/3 truncation."""
    def dealias(f):
        return geom.from_coeffs(geom.truncate(geom.to_coeffs(f)))

    phi, t = state.phi, state.time
    k1 = dealias(rhs(geom, state))
    s2 = pf.validate_kahler(geom, phi + (0.5 * dt) * k1, t + 0.5 * dt, rho_floor)
    k2 = dealias(rhs(geom, s2))
    s3 = pf.validate_kahler(geom, phi + (0.5 * dt) * k2, t + 0.5 * dt, rho_floor)
    k3 = dealias(rhs(geom, s3))
    s4 = pf.validate_kahler(geom, phi + dt * k3, t + dt, rho_floor)
    k4 = dealias(rhs(geom, s4))
    phi_new = phi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return pf.validate_kahler(geom, phi_new, t + dt, rho_floor)


@pytest.fixture
def transform_count(monkeypatch):
    """Counts 2-D transforms through scipy.fft and numpy.fft, and the torus's
    inverse through its final 1-D irfft; a batched call counts as its batch size."""
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
    rhs = pf.pcf_rhs if flow_kind is pf.FlowKind.PCF else pf.nkrf_rhs
    new = old = state
    for _ in range(steps):
        new = pf.rk4_step(geom, new, dt, rhs)
        old = real_space_rk4_step(geom, old, dt, rhs)
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
    geom = pf.SphereGeometry(128)
    state = pf.validate_kahler(geom, 0.1 * geom.mu ** 2 - 0.05 * geom.mu ** 3)
    new, old = _advance_both(geom, state, 1e-3, flow_kind)
    assert new.time == old.time
    assert np.array_equal(new.phi, old.phi)
    assert np.array_equal(new.rho, old.rho)
    assert np.array_equal(new.big_f, old.big_f)


class MaskStepReference:
    """The torus steps as the arithmetic was before the in-place truncation:
    stage derivatives times the bool 2/3 mask, inverse transforms of products
    with the real mixed symbol, and stage potentials phi_hat + c*k_hat."""

    def __init__(self, geom):
        self.geom = geom
        mx = scipy.fft.fftfreq(geom.nx, d=1.0 / geom.nx)
        my = scipy.fft.rfftfreq(geom.ny, d=1.0 / geom.ny)
        kx = (TWO_PI / geom.length) * mx[:, None]
        ky = (TWO_PI / geom.length) * my[None, :]
        self.symbol = -0.25 * (kx * kx + ky * ky)
        self.keep = (np.abs(mx[:, None]) <= geom.nx // 3) & (my[None, :] <= geom.ny // 3)

    def state(self, phi_hat, t):
        rho = scipy.fft.irfft2(self.symbol * phi_hat, s=self.geom.shape)
        if self.geom.sigma0_modes:
            rho /= self.geom.sigma0
        rho += 1.0
        return pf.MetricState(phi_hat, rho, np.log(rho), float(rho.min()),
                              self.geom.from_coeffs, float(t))

    def rhs(self, state):
        if self.geom.ricci_flat:
            return state.big_f
        return state.big_f + pf.closed_form_P(self.geom, state)

    def rk4_step(self, state, dt):
        def truncated(s):
            return scipy.fft.rfft2(self.rhs(s)) * self.keep

        phi_hat, t = state.coeffs, state.time
        k1 = truncated(state)
        k2 = truncated(self.state(phi_hat + (0.5 * dt) * k1, t + 0.5 * dt))
        k3 = truncated(self.state(phi_hat + (0.5 * dt) * k2, t + 0.5 * dt))
        k4 = truncated(self.state(phi_hat + dt * k3, t + dt))
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= dt / 6.0
        k2 += phi_hat
        return self.state(k2, t + dt)

    def semi_implicit_step(self, state, dt):
        dt_c = dt * (1.0 / state.rho_min)
        inverse = 1.0 - (dt_c / float(self.geom.sigma0.min())) * self.symbol
        phi_hat_new = scipy.fft.rfft2(dt * self.rhs(state)) * (1.0 / inverse)
        phi_hat_new += state.coeffs
        return self.state(phi_hat_new, state.time + dt)


@pytest.mark.parametrize("name", ["flat64", "bumpy64", "bumpy32x64", "pbound_torus.cfg"])
def test_torus_steps_keep_the_mask_arithmetic_bitwise(name):
    # the in-place truncation, the complex symbol table and the one-temporary
    # stages are bit-for-bit the arithmetic they replaced
    if name.endswith(".cfg"):
        geom, state = preset_state(name)
    else:
        geom = {"flat64": flat64, "bumpy64": bumpy64,
                "bumpy32x64": lambda: pf.TorusGeometry(32, 64, 3.0, [(1, 1, 0.2)])}[name]()
        state = pf.validate_kahler(geom, 0.3 * np.cos(TWO_PI * geom.x / geom.length)
                                   + 0.05 * np.sin(2.0 * TWO_PI * geom.y / geom.length))
    reference = MaskStepReference(geom)
    ref = reference.state(state.coeffs, state.time)
    dt = pf.suggest_dt(geom, state)
    pairs = [(pf.semi_implicit_step(geom, state, dt), reference.semi_implicit_step(ref, dt))]
    new = state
    for _ in range(3):
        new, ref = pf.rk4_step(geom, new, dt), reference.rk4_step(ref, dt)
    pairs.append((new, ref))
    for got, want in pairs:
        assert got.time == want.time and got.rho_min == want.rho_min
        for a, b in ((got.coeffs, want.coeffs), (got.rho, want.rho), (got.big_f, want.big_f)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# transform budget
# ---------------------------------------------------------------------------

def test_transforms_per_step(transform_count):
    # every state holds phi's coefficients, validate_kahler's too, so the
    # first step of a run costs what every other step does: RK4 makes 4
    # truncations and 4 densities, a semi-implicit step one forward and one
    # inverse transform
    geom, state = preset_state("pbound_torus.cfg")
    assert geom.shape == (256, 256) and geom.sigma0_modes
    flat = flat64()
    dt = pf.suggest_dt(geom, state)
    for g, first, step_dt in ((geom, state, dt),
                              (flat, pf.validate_kahler(flat, 0.3 * np.cos(flat.x)), 1e-3)):
        for stepper, expected in ((pf.rk4_step, 8), (pf.semi_implicit_step, 2)):
            transform_count[0] = 0
            stepped = stepper(g, first, step_dt)  # P is closed-form at every stage
            assert transform_count[0] == expected
            transform_count[0] = 0
            stepper(g, stepped, step_dt)
            assert transform_count[0] == expected


def test_check_field_calls_per_step(monkeypatch):
    # a step checks the right-hand side it is given, once per semi-implicit step
    # and once per RK4 stage; the integrals inside the closed forms (the
    # sphere's P and both Ricci potentials) check only the finiteness of their sum
    count = [0]
    check_field = pf.geometry.GridGeometry.check_field

    def counted(self, f):
        count[0] += 1
        return check_field(self, f)

    monkeypatch.setattr(pf.geometry.GridGeometry, "check_field", counted)
    sphere = sphere128()
    cases = [(sphere, pf.validate_kahler(sphere, 0.1 * sphere.mu ** 2 - 0.05 * sphere.mu ** 3))]
    for geom in (bumpy64(), flat64()):
        cases.append((geom, pf.validate_kahler(geom, 0.3 * np.cos(geom.x)
                                               + 0.05 * np.sin(2.0 * geom.y))))
    for geom, state in cases:
        dt = pf.suggest_dt(geom, state)
        einstein = geom.ricci_potential0 is None
        for rhs in (pf.pcf_rhs, pf.nkrf_rhs) if einstein else (pf.pcf_rhs,):
            for stepper, expected in ((pf.semi_implicit_step, 1), (pf.rk4_step, 4)):
                count[0] = 0
                stepper(geom, state, dt, rhs)
                assert count[0] == expected, (geom.kind, rhs.__name__, stepper.__name__)


def test_transforms_per_record(transform_count):
    # 1 to form phi, for I and J both, 3 in solve_P, 1 of F, 2 for the probes'
    # grad F and 1 for R's Laplacian; the dissipation is a Parseval sum of the
    # coefficients already made. No state holds phi, validate_kahler's included
    geom, state = preset_state("pbound_torus.cfg")
    transform_count[0] = 0
    pf.make_trace_record(geom, state, 1e-3)
    assert transform_count[0] <= 8
    stepped = pf.semi_implicit_step(geom, state, 1e-3)
    transform_count[0] = 0
    pf.make_trace_record(geom, stepped, 1e-3)
    assert transform_count[0] == 8
    flat = pf.TorusGeometry(256, 256, TWO_PI)
    state = pf.validate_kahler(flat, 0.3 * np.cos(flat.x) + 0.05 * np.sin(2.0 * flat.y))
    transform_count[0] = 0
    pf.make_trace_record(flat, state, 1e-3)  # P = 0 takes no solve
    assert transform_count[0] <= 5


@pytest.mark.parametrize("name", ["bumpy64", "flat64", "pbound_torus.cfg", "sphere128"])
def test_record_matches_real_space_record(name):
    if name.endswith(".cfg"):
        geom, state = preset_state(name)
    elif name == "sphere128":
        geom = sphere128()
        state = pf.validate_kahler(geom, 0.1 * geom.mu ** 2 - 0.05 * geom.mu ** 3)
    else:
        geom = {"bumpy64": bumpy64, "flat64": flat64}[name]()
        state = pf.validate_kahler(geom, 0.3 * np.cos(geom.x) + 0.05 * np.sin(2.0 * geom.y))
    new = pf.make_trace_record(geom, state, 1e-3)
    old = real_space_trace_record(geom, state, 1e-3)
    assert new.sup_P == old.sup_P
    assert new.poisson_residual == old.poisson_residual
    assert new.lp_grad_F.keys() == old.lp_grad_F.keys()
    pairs = [(getattr(new, f), getattr(old, f)) for f in (
        "time", "dt", "sup_F", "inf_F", "entropy", "j_neg_ric", "k_energy", "i_functional",
        "dissipation", "calabi_energy", "rho_min", "volume")]
    pairs += [(new.lp_grad_F[p], old.lp_grad_F[p]) for p in old.lp_grad_F]
    pairs += [(new.lp_trace0[p], old.lp_trace0[p]) for p in old.lp_trace0]
    for a, b in pairs:
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
    assert old.dissipation > 0.0


def test_transform_count_sees_batches(transform_count):
    geom = flat64()
    transform_count[0] = 0
    scipy.fft.rfft2(np.zeros((3, 16, 16)))
    numpy.fft.irfft2(np.zeros((16, 9), dtype=complex))
    assert transform_count[0] == 4
    geom.from_coeffs(np.zeros((64, 33), dtype=complex))  # one 2-D inverse
    assert transform_count[0] == 5


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
    # the same residual up to the round-trip rounding floor. The closed-form
    # Ricci potential reports none: its field meets the same floor, and on a
    # torus (lambda = 0) its identity defect is zero
    geom, state = preset_state(name)
    vol_phi = geom.integrate(np.ones(geom.shape), weight=state.rho)

    def transform_residual(field, rhs):
        projected = rhs - geom.integrate(rhs, weight=state.rho) / vol_phi
        return float(np.max(np.abs(geom.ref_laplacian(field) / state.rho - projected)))

    solution = pf.solve_P(geom, state)
    transform = transform_residual(solution.field, geom.lambda_ke - trace_ric0(geom, state))
    assert solution.residual_linf <= 1e-12
    assert transform <= 1e-12
    assert abs(solution.residual_linf - transform) <= 1e-12
    if geom.ricci_potential0 is None:
        h = pf.solve_ricci_potential(geom, state)
        assert transform_residual(h, scalar_curvature(geom, state) - geom.lambda_ke) <= 1e-12
        assert einstein_identity_defect(geom, state) == 0.0


@pytest.mark.parametrize("bad_stage", [1, 2, 3, 4])
@pytest.mark.parametrize("build", [bumpy64, lambda: pf.SphereGeometry(128)],
                         ids=["torus", "sphere"])
def test_non_finite_stage_rhs_raises_shape_error(build, bad_stage):
    geom = build()
    phi0 = 0.3 * np.cos(geom.x) if geom.kind == "torus" else 0.1 * geom.mu ** 2
    state = pf.validate_kahler(geom, phi0)
    calls = []

    def rhs_fn(geom_, state_):
        calls.append(1)
        rhs = pf.pcf_rhs(geom_, state_)
        return np.full(geom_.shape, np.nan) if len(calls) == bad_stage else rhs

    with pytest.raises(pf.ShapeError):
        pf.rk4_step(geom, state, 1e-3, rhs=rhs_fn)
    assert len(calls) == bad_stage


@pytest.mark.parametrize("build", [bumpy64, lambda: pf.SphereGeometry(128)],
                         ids=["torus", "sphere"])
def test_non_finite_semi_implicit_rhs_raises_shape_error(build):
    geom = build()
    phi0 = 0.3 * np.cos(geom.x) if geom.kind == "torus" else 0.1 * geom.mu ** 2
    state = pf.validate_kahler(geom, phi0)

    def rhs_fn(geom_, state_):
        rhs = pf.pcf_rhs(geom_, state_)
        rhs[0] = np.inf
        return rhs

    with pytest.raises(pf.ShapeError):
        pf.semi_implicit_step(geom, state, 1e-3, rhs=rhs_fn)


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


@pytest.mark.parametrize("scheme", [pf.Scheme.RK4, pf.Scheme.SEMI_IMPLICIT])
def test_recorded_states_keep_coefficients(scheme):
    # every recorded state keeps phi's coefficients, the initial one included,
    # and forms phi from them on each read; on the sphere they are phi
    config = pf.FlowConfig(scheme=scheme, dt_init=DYADIC, t_end=4.0 * DYADIC, record_every=1)
    torus, sphere = bumpy64(), sphere128()
    for geom, phi0 in ((torus, 0.3 * np.cos(torus.x)), (sphere, 0.1 * sphere.mu ** 2)):
        trajectory = pf.run(geom, phi0, config)
        assert len(trajectory.states) >= 5
        assert np.array_equal(trajectory.states[0].coeffs, geom.to_coeffs(phi0))
        for state in trajectory.states:
            assert np.array_equal(state.phi, geom.from_coeffs(state.coeffs))
            assert (state.phi is state.coeffs) == (geom is sphere)


@pytest.mark.parametrize("scheme", [pf.Scheme.RK4, pf.Scheme.SEMI_IMPLICIT])
@pytest.mark.parametrize("build", [bumpy64, flat64])
def test_recorded_torus_states_retain_no_phi(build, scheme):
    # a recorded torus state keeps phi_hat, rho and F, and no real phi:
    # holding phi as well raised the peak RSS of a dense trace by 8%. It keeps
    # min(rho) from the cone check, which the steps and the records read
    geom = build()
    config = pf.FlowConfig(scheme=scheme, dt_init=DYADIC, t_end=2.0 * DYADIC, record_every=1)
    trajectory = pf.run(geom, 0.3 * np.cos(geom.x), config)
    for state in trajectory.states:
        arrays = [value for value in vars(state).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 3 and arrays[0] is state.coeffs and state.coeffs.dtype == complex
        assert arrays[1] is state.rho and arrays[2] is state.big_f
        assert state.phi is not state.phi  # formed on each read, the first state's too
        assert state.rho_min == float(state.rho.min())


def test_semi_implicit_torus_records_keep_coefficients():
    # the steps carry phi_hat alone, and a record keeps it without phi; a
    # resume from a record's coefficients continues the run bitwise
    geom = bumpy64()
    config = pf.FlowConfig(scheme=pf.Scheme.SEMI_IMPLICIT, dt_init=DYADIC,
                           t_end=4.0 * DYADIC, record_every=2)
    trajectory = pf.run(geom, 0.3 * np.cos(geom.x), config)
    first, *rest = trajectory.states
    assert np.array_equal(first.coeffs, geom.to_coeffs(0.3 * np.cos(geom.x)))
    assert len(rest) == 2
    for state in rest:
        assert np.array_equal(state.phi, geom.from_coeffs(state.coeffs))
    resumed = pf.run(geom, rest[0].phi, config, start_time=rest[0].time,
                     start_coeffs=rest[0].coeffs)
    assert resumed.states[0].coeffs is rest[0].coeffs
    assert np.array_equal(resumed.states[-1].coeffs, rest[-1].coeffs)
    assert np.array_equal(resumed.states[-1].phi, rest[-1].phi)


def test_rk4_from_state_without_phi():
    # a step reads phi's coefficients alone: validate_kahler's state steps to
    # the same bits as the state built from its coefficients, and every state,
    # validate_kahler's and a step's, forms phi from them on each read
    geom = bumpy64()
    phi0 = 0.3 * np.cos(geom.x)
    state = pf.validate_kahler(geom, phi0)
    assert np.array_equal(state.coeffs, geom.to_coeffs(phi0))
    assert np.array_equal(state.phi, geom.from_coeffs(state.coeffs))
    assert state.phi is not state.phi
    bare = state_from_coeffs(geom, state.coeffs)
    for stepper in (pf.rk4_step, pf.semi_implicit_step):
        stepped = stepper(geom, state, 1e-3)
        assert np.array_equal(stepped.phi, geom.from_coeffs(stepped.coeffs))
        assert np.array_equal(stepper(geom, bare, 1e-3).coeffs, stepped.coeffs)
    # a semi-implicit state steps under RK4 like any other
    state = pf.semi_implicit_step(geom, state, 1e-3)
    assert np.array_equal(pf.rk4_step(geom, state, 1e-3).coeffs,
                          pf.rk4_step(geom, state_from_coeffs(geom, state.coeffs), 1e-3).coeffs)
