"""Scalar functionals: entropy, J-energies, K-energy, dissipation, probes."""

import struct
from pathlib import Path

import numpy as np
import pytest

import pcflow as pf
from conftest import TWO_PI, random_valid_state
from oracles import ClosedForm11, j_chi_closed_form, j_chi_path, neg_ricci_form, omega0_form

PRESETS = Path(__file__).resolve().parent.parent / "presets"
XS = (np.arange(8192) + 0.5) * TWO_PI / 8192  # 1-D quadrature nodes


def flat64():
    return pf.TorusGeometry(64, 64, TWO_PI)


def cos_state(geom, amp=0.5):
    return pf.validate_kahler(geom, amp * np.cos(geom.x))


def quad1d(values):
    """Midpoint quadrature over one period, lifted to the 2-D chart measure."""
    return 2.0 * TWO_PI ** 2 * float(np.mean(values))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_zero_potential():
    geom = flat64()
    assert pf.entropy(geom, pf.validate_kahler(geom, np.zeros(geom.shape))) == 0.0


def test_entropy_cosine_oracle():
    geom = flat64()
    got = pf.entropy(geom, cos_state(geom))
    rho = 1.0 - 0.125 * np.cos(XS)
    oracle = quad1d(np.log(rho) * rho)
    assert got > 0.0
    assert abs(got - oracle) <= 1e-12


def test_entropy_nonnegative_random():
    rng = np.random.default_rng(40)
    for geom in (pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)]),
                 pf.SphereGeometry(128)):
        for _ in range(10):
            assert pf.entropy(geom, random_valid_state(geom, rng)) >= -1e-12


# ---------------------------------------------------------------------------
# closed (1,1)-forms
# ---------------------------------------------------------------------------

def test_form_means_match_chart_pairing():
    for geom in (pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)]),
                 pf.SphereGeometry(128)):
        w = omega0_form(geom)
        assert abs(w.mean - geom.chart_integral(w.density) / geom.volume) <= 1e-10
        nr = neg_ricci_form(geom)
        assert abs(nr.mean + geom.lambda_ke) <= 1e-10


# ---------------------------------------------------------------------------
# J_chi
# ---------------------------------------------------------------------------

def test_j_chi_zero_cases():
    geom = flat64()
    chi = omega0_form(geom)
    assert j_chi_path(geom, chi, np.zeros(geom.shape)) == 0.0
    zero_chi = ClosedForm11(density=np.zeros(geom.shape), mean=0.0)
    rng = np.random.default_rng(41)
    phi = random_valid_state(geom, rng).phi
    assert abs(j_chi_path(geom, zero_chi, phi)) <= 1e-15


def test_j_chi_path_brute_force_oracle():
    geom = flat64()
    chi = omega0_form(geom)
    phi = 0.5 * np.cos(geom.x)
    got = j_chi_path(geom, chi, phi)

    # 1000-step midpoint integration of the variational formula along t*phi
    steps = 1000
    total = 0.0
    ones = np.ones(geom.shape)
    for k in range(steps):
        t = (k + 0.5) / steps
        rho_t = pf.validate_kahler(geom, t * phi, rho_floor=0.0).rho
        integrand = phi * (chi.density / (geom.sigma0 * rho_t) - chi.mean)
        total += geom.integrate(integrand, weight=rho_t) / steps
    assert abs(got - total) <= 1e-6 * max(1.0, abs(total))


def test_j_chi_closed_form_values():
    geom = flat64()
    chi = omega0_form(geom)
    assert j_chi_closed_form(geom, chi, np.zeros(geom.shape)) == 0.0
    val = j_chi_closed_form(geom, chi, 0.5 * np.cos(geom.x))
    assert abs(val - np.pi ** 2 / 8.0) <= 1e-12


def test_j_chi_path_matches_closed_form_for_omega0():
    # for chi = omega0 the path integrand is affine in t and the two
    # evaluations agree analytically
    geom = flat64()
    chi = omega0_form(geom)
    rng = np.random.default_rng(42)
    phi = random_valid_state(geom, rng).phi
    a = j_chi_path(geom, chi, phi)
    b = j_chi_closed_form(geom, chi, phi)
    assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


def j_chi_quadrature(geom, chi, phi, nodes):
    """Oracle: Gauss-Legendre quadrature of the variational formula
    int phi (tr_{t phi} chi - chibar) omega_{t phi} over t in [0, 1]."""
    total = 0.0
    for x, w in zip(*np.polynomial.legendre.leggauss(nodes)):
        rho_t = pf.validate_kahler(geom, 0.5 * (x + 1.0) * phi, rho_floor=0.0).rho
        integrand = phi * (chi.density / (geom.sigma0 * rho_t) - chi.mean)
        total += 0.5 * w * geom.integrate(integrand, weight=rho_t)
    return total


def test_j_chi_quadrature_converged():
    rng = np.random.default_rng(43)
    for geom in (pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)]),
                 pf.SphereGeometry(128)):
        chi = neg_ricci_form(geom)
        phi = random_valid_state(geom, rng).phi
        got = j_chi_path(geom, chi, phi)
        for nodes in (16, 32):
            oracle = j_chi_quadrature(geom, chi, phi, nodes)
            assert abs(got - oracle) <= 1e-12 * (1.0 + abs(oracle))


def test_j_chi_path_rejects_invalid_segment():
    geom = flat64()
    chi = omega0_form(geom)
    with pytest.raises(pf.NotKahler):
        j_chi_path(geom, chi, 9.0 * np.cos(geom.x))
    # min rho = 1 - amp/4 is just below the 1e-6 cone floor at t = 1 only;
    # every interior quadrature node still sees min rho_t > 5e-3
    phi = 4.0 * (1.0 - 9e-7) * np.cos(geom.x)
    assert 0.0 < float(np.min(pf.validate_kahler(geom, phi, rho_floor=0.0).rho)) < 1e-6
    assert np.isfinite(j_chi_quadrature(geom, chi, phi, 16))
    with pytest.raises(pf.NotKahler):
        j_chi_path(geom, chi, phi)


# ---------------------------------------------------------------------------
# K-energy
# ---------------------------------------------------------------------------

def test_k_energy_zero_potential():
    geom = flat64()
    assert pf.k_energy(geom, pf.validate_kahler(geom, np.zeros(geom.shape))) == 0.0


def test_k_energy_flat_equals_entropy():
    geom = flat64()
    state = cos_state(geom)
    assert pf.k_energy(geom, state) == pf.entropy(geom, state)


def test_k_energy_sphere_composite():
    geom = pf.SphereGeometry(256)
    state = pf.validate_kahler(geom, 0.1 * geom.mu ** 2)
    e, j, i = pf.k_energy_parts(geom, state)
    assert e == pf.entropy(geom, state)
    assert j == j_chi_path(geom, neg_ricci_form(geom), state.phi)
    assert i == pf.i_functional(geom, state)
    assert pf.k_energy(geom, state) == e + j
    # on the flat torus J_{-Ric} is a zero whose sign reaches the CSV: compare bits
    geom = flat64()
    state = cos_state(geom)
    e, j, i = pf.k_energy_parts(geom, state)
    oracle = j_chi_path(geom, neg_ricci_form(geom), state.phi)
    assert struct.pack("<d", j) == struct.pack("<d", oracle)
    assert i == pf.i_functional(geom, state)
    assert pf.k_energy(geom, state) == e + j


def test_k_gradient_identity():
    rng = np.random.default_rng(44)
    eps = 1e-4
    for geom in (pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)]),
                 pf.SphereGeometry(128)):
        state = random_valid_state(geom, rng)
        v = random_valid_state(geom, rng).phi
        v = v - (geom.integrate(v, weight=state.rho)
                 / geom.integrate(np.ones(geom.shape), weight=state.rho))
        plus = pf.k_energy(geom, pf.validate_kahler(geom, state.phi + eps * v))
        minus = pf.k_energy(geom, pf.validate_kahler(geom, state.phi - eps * v))
        fd = (plus - minus) / (2.0 * eps)
        grad = geom.integrate(
            v * (geom.lambda_ke - pf.scalar_curvature(geom, state)), weight=state.rho)
        assert abs(fd - grad) <= 1e-4 * max(1.0, abs(grad))


def test_j_gradient_identity():
    rng = np.random.default_rng(45)
    eps = 1e-4
    geom = pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)])
    chi = omega0_form(geom)
    state = random_valid_state(geom, rng)
    v = random_valid_state(geom, rng).phi
    plus = j_chi_path(geom, chi, state.phi + eps * v)
    minus = j_chi_path(geom, chi, state.phi - eps * v)
    fd = (plus - minus) / (2.0 * eps)
    trace = chi.density / (geom.sigma0 * state.rho)
    grad = geom.integrate(v * (trace - chi.mean), weight=state.rho)
    assert abs(fd - grad) <= 1e-4 * max(1.0, abs(grad))


# ---------------------------------------------------------------------------
# dissipation
# ---------------------------------------------------------------------------

def test_dissipation_stationary_zero():
    geom = flat64()
    state = pf.validate_kahler(geom, np.zeros(geom.shape))
    P = pf.solve_P(geom, state).field
    assert pf.dissipation(geom, state, P) == 0.0


def test_dissipation_cosine_oracle():
    geom = flat64()
    state = cos_state(geom)
    P = pf.solve_P(geom, state).field  # identically zero on the flat torus
    got = pf.dissipation(geom, state, P)
    # u = log(1 - 0.125 cos x); int 2 |u_z|^2 dx dy with |u_z|^2 = u_x^2/4
    ux = 0.125 * np.sin(XS) / (1.0 - 0.125 * np.cos(XS))
    oracle = quad1d(0.25 * ux * ux)
    assert abs(got - oracle) <= 1e-10


def test_dissipation_sphere_composite():
    geom = pf.SphereGeometry(256)
    state = pf.validate_kahler(geom, 0.1 * geom.mu ** 2)
    P = pf.solve_P(geom, state).field
    got = pf.dissipation(geom, state, P)
    avg = (geom.integrate(state.phi, weight=state.rho)
           / geom.integrate(np.ones(geom.shape), weight=state.rho))
    oracle = geom.dirichlet_energy_from_coeffs(geom.to_coeffs(state.big_f + state.phi - avg))
    assert abs(got - oracle) <= 1e-8 * (1.0 + abs(oracle))


def test_dissipation_zero_iff_constant():
    geom = flat64()
    rng = np.random.default_rng(46)
    # constant phi: F + P constant, dissipation at the floor
    state = pf.validate_kahler(geom, np.full(geom.shape, 1.25))
    P = pf.solve_P(geom, state).field
    assert pf.dissipation(geom, state, P) <= 1e-10
    # non-constant F + P: bounded away from zero
    state = random_valid_state(geom, rng)
    P = pf.solve_P(geom, state).field
    assert pf.dissipation(geom, state, P) > 1e-10


@pytest.mark.parametrize("name", ["pbound_torus.cfg", "smoothing_torus.cfg",
                                  "crosscheck_sphere.cfg"])
def test_energy_law_on_the_grid(name):
    # the K-energy, pcf_rhs and the record's dissipation are consistent on the
    # grid to the centred difference's own error: dK/ds along phi + s*(F + P)
    # is -dissipation, here within 1e-8 relative (measured at most 1.6e-10)
    config = pf.parse_config((PRESETS / name).read_text())
    geom = pf.build_geometry(config)
    state = pf.validate_kahler(geom, pf.make_initial(geom, config))
    for _ in range(3):  # a few steps in, off the initial data
        if config.flow.scheme is pf.Scheme.RK4:
            state = pf.rk4_step(geom, state, pf.suggest_dt(geom, state, config.flow.cfl))
        else:
            state = pf.semi_implicit_step(geom, state, config.flow.dt_init)
    direction, phi, eps = pf.pcf_rhs(geom, state), state.phi, 1e-5
    k_plus = pf.k_energy(geom, pf.validate_kahler(geom, phi + eps * direction))
    k_minus = pf.k_energy(geom, pf.validate_kahler(geom, phi - eps * direction))
    dissipation = pf.make_trace_record(geom, state, 0.0).dissipation
    assert abs((k_plus - k_minus) / (2.0 * eps) + dissipation) <= 1e-8 * dissipation


def coarse_preset(name, nodes):
    """A preset's config and initial data on a grid of nodes per axis (or mu nodes)."""
    text = (PRESETS / name).read_text()
    for key in ("geometry.nx", "geometry.ny", "geometry.nmu"):
        text = text.replace(f"{key} = 256", f"{key} = {nodes}")
        text = text.replace(f"{key} = 512", f"{key} = {nodes}")
    config = pf.parse_config(text)
    geom = pf.build_geometry(config)
    assert geom.shape[0] == nodes
    return config, geom, pf.make_initial(geom, config)


@pytest.mark.parametrize("name, nodes", [("energy_torus.cfg", 64), ("pbound_torus.cfg", 64),
                                         ("crosscheck_sphere.cfg", 128)])
def test_semi_implicit_step_decreases_k(name, nodes):
    # the recorded K falls at every semi-implicit step to t = 2, for every dt
    # from 2^-8 to 0.5; the smallest fall measured is 1.2e-8 (sphere, dt 2^-8),
    # far above K's rounding, and the same holds at 32^2 to 128^2 and nmu to 512
    config, geom, phi0 = coarse_preset(name, nodes)
    for exponent in range(8, 0, -1):
        flow = pf.FlowConfig(scheme=pf.Scheme.SEMI_IMPLICIT, dt_init=2.0 ** -exponent,
                             t_end=2.0, record_every=1, rho_floor=config.flow.rho_floor)
        trajectory = pf.run(geom, phi0, flow, p_list=(1.0,))
        assert trajectory.terminated is pf.Termination.REACHED_T_END
        k = np.array([record.k_energy for record in trajectory.records])
        assert len(k) == 2 ** (exponent + 1) + 1
        assert np.all(np.diff(k) < 0.0)


@pytest.mark.parametrize("name, t_end, exponents", [
    ("pbound_torus.cfg", 2.0 ** -4, (6, 7, 8, 9)),
    ("energy_torus.cfg", 2.0 ** -2, (5, 6, 7)),
])
def test_rk4_energy_law_defect_is_fourth_order(name, t_end, exponents):
    # K(t_end) - K(0) + int D dt, the integral by composite Simpson over the
    # records of every step, is the time error of the law dK/dt = -D, which
    # holds on the grid: it falls by 16 per halving of dt. Measured on these
    # 64^2 grids: 15.72, 15.95, 15.98 (pbound, defect 1.5e-6 to 3.7e-10) and
    # 16.00, 15.92 (energy, 6.2e-11 to 2.4e-13); the next halving of each
    # reaches a floor, rounding on energy_torus. At 32^2 the pbound defect
    # stops at 1.1e-6: the 2/3 truncation of the right-hand side bounds it
    config, geom, phi0 = coarse_preset(name, 64)
    defects = []
    for exponent in exponents:
        dt = 2.0 ** -exponent
        flow = pf.FlowConfig(scheme=pf.Scheme.RK4, dt_init=dt, cfl=1.0, t_end=t_end,
                             record_every=1, rho_floor=config.flow.rho_floor)
        records = pf.run(geom, phi0, flow, p_list=(1.0,)).records
        assert len(records) == 2 ** exponent * t_end + 1 and records[-1].dt == dt
        d = np.array([record.dissipation for record in records])
        integral = dt / 3.0 * (d[0] + 4.0 * d[1:-1:2].sum() + 2.0 * d[2:-1:2].sum() + d[-1])
        defects.append(records[-1].k_energy - records[0].k_energy + integral)
    ratios = np.array(defects[:-1]) / np.array(defects[1:])
    assert np.all((14.0 <= ratios) & (ratios <= 18.0)), ratios


# ---------------------------------------------------------------------------
# I-functional and Calabi energy
# ---------------------------------------------------------------------------

def test_i_functional_values():
    geom = flat64()
    assert pf.i_functional(geom, pf.validate_kahler(geom, np.zeros(geom.shape))) == 0.0
    c = 0.75
    state = pf.validate_kahler(geom, np.full(geom.shape, c))
    assert abs(pf.i_functional(geom, state) - c * geom.volume) <= 1e-12
    got = pf.i_functional(geom, cos_state(geom))
    assert abs(got + np.pi ** 2 / 8.0) <= 1e-12


def test_calabi_energy_csck_zero():
    flat = flat64()
    assert pf.calabi_energy(flat, pf.validate_kahler(flat, np.zeros(flat.shape))) == 0.0
    sphere = pf.SphereGeometry(128)
    val = pf.calabi_energy(sphere, pf.validate_kahler(sphere, np.zeros(sphere.shape)))
    assert abs(val) <= 1e-12


def test_calabi_energy_cosine_oracle():
    geom = flat64()
    state = cos_state(geom)
    got = pf.calabi_energy(geom, state)
    assert got > 0.0
    # independent 1-D spectral oracle: R = -(log rho)_xx/(4 rho) on 8192 nodes
    rho = 1.0 - 0.125 * np.cos(XS)
    k = np.fft.rfftfreq(8192, d=1.0 / 8192)
    logrho_xx = np.fft.irfft(-(k ** 2) * np.fft.rfft(np.log(rho)), n=8192)
    R = -0.25 * logrho_xx / rho
    oracle = quad1d(R ** 2 * rho)
    assert abs(got - oracle) <= 1e-10 * (1.0 + abs(oracle))


# ---------------------------------------------------------------------------
# L^p probes
# ---------------------------------------------------------------------------

def test_probes_zero_potential():
    geom = flat64()
    state = pf.validate_kahler(geom, np.zeros(geom.shape))
    gF, tr0 = pf.estimate_probes(geom, state)
    for p in (1.0, 2.0, 4.0):
        assert gF[p] == 0.0
        assert abs(tr0[p] - geom.volume) <= 1e-10


def test_probes_cosine_oracle():
    geom = flat64()
    state = cos_state(geom)
    gF, tr0 = pf.estimate_probes(geom, state, p_list=(2.0,))
    rho = 1.0 - 0.125 * np.cos(XS)
    fx = 0.125 * np.sin(XS) / rho
    grad_sq = 0.25 * fx * fx / rho
    assert abs(gF[2.0] - quad1d(grad_sq ** 2 * rho)) <= 1e-10
    assert abs(tr0[2.0] - quad1d(rho ** -2)) <= 1e-10


def test_probes_lp_monotone():
    geom = flat64()
    rng = np.random.default_rng(47)
    state = random_valid_state(geom, rng)
    gF, _ = pf.estimate_probes(geom, state, p_list=(1.0, 2.0, 4.0))
    vol = geom.volume
    norms = [(gF[p] / vol) ** (1.0 / (2.0 * p)) for p in (1.0, 2.0, 4.0)]
    assert norms[0] <= norms[1] + 1e-12
    assert norms[1] <= norms[2] + 1e-12


def test_probes_reject_bad_exponents():
    geom = flat64()
    state = cos_state(geom)
    for bad in (0.5, 9.0):
        with pytest.raises(pf.ConfigValidationError) as err:
            pf.estimate_probes(geom, state, p_list=(bad,))
        assert err.value.key == "output.p_list"


# ---------------------------------------------------------------------------
# TraceRecord
# ---------------------------------------------------------------------------

def test_trace_record_invariants():
    rng = np.random.default_rng(48)
    for geom in (pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)]),
                 pf.SphereGeometry(128)):
        analytic = (2.0 * geom.length ** 2 * float(np.mean(geom.sigma0))
                    if geom.kind == "torus" else 4.0 * np.pi)
        for _ in range(3):
            state = random_valid_state(geom, rng)
            rec = pf.make_trace_record(geom, state, dt=0.01)
            assert abs(rec.volume - analytic) <= 1e-6
            assert rec.dissipation >= -1e-12
            assert rec.calabi_energy >= -1e-12
            assert rec.k_energy == rec.entropy + rec.j_neg_ric
            assert rec.sup_F == float(np.max(state.big_f))
            assert rec.inf_F == float(np.min(state.big_f))
            assert rec.rho_min == float(np.min(state.rho))
            assert rec.poisson_residual <= 1e-10
