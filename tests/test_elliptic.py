"""Mean-zero Poisson solves on the evolving metric, and the closed forms of P
and the Ricci potential."""

from pathlib import Path

import numpy as np
import pytest

import pcflow as pf
from pcflow.kahler import scalar_curvature, trace_ric0
from conftest import TWO_PI, random_sphere_phi, random_valid_state
from oracles import einstein_identity_defect

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def flat64():
    return pf.TorusGeometry(64, 64, TWO_PI)


def zero_state(geom):
    return pf.validate_kahler(geom, np.zeros(geom.shape))


# ---------------------------------------------------------------------------
# solve_poisson_phi
# ---------------------------------------------------------------------------

def test_zero_rhs_gives_zero_field():
    geom = flat64()
    sol = pf.solve_poisson_phi(geom, zero_state(geom), np.zeros(geom.shape))
    assert np.all(sol.field == 0.0)
    assert sol.residual_linf == 0.0


def test_scalar_rhs_is_zero_or_a_shape_error():
    # the RHS is a field: a zero one gives the zero solution, and no scalar,
    # not even 0.0, stands for a field
    geom = flat64()
    sol = pf.solve_poisson_phi(geom, zero_state(geom), np.zeros(geom.shape))
    assert sol.field.shape == geom.shape and np.all(sol.field == 0.0)
    assert (sol.residual_linf, sol.coeffs) == (0.0, 0.0)
    for scalar in (0.0, 1.0):
        with pytest.raises(pf.ShapeError):
            pf.solve_poisson_phi(geom, zero_state(geom), scalar)


def test_flat_torus_cosine_inverse():
    geom = flat64()
    state = zero_state(geom)
    sol = pf.solve_poisson_phi(geom, state, np.cos(geom.x))
    # Delta_0 u = u_xx/4 = cos x  =>  u = -4 cos x (already mean zero)
    assert np.max(np.abs(sol.field + 4.0 * np.cos(geom.x))) <= 1e-12
    assert abs(geom.integrate(sol.field, weight=state.rho)) <= 1e-10
    assert sol.residual_linf <= 1e-10


def test_sphere_linear_inverse():
    geom = pf.SphereGeometry(128)
    state = zero_state(geom)
    rhs = 0.5 * (1.0 - 2.0 * geom.mu)
    sol = pf.solve_poisson_phi(geom, state, rhs)
    # inverse of the Laplacian example: u = mu - 1/2, exactly in flux form
    assert np.max(np.abs(sol.field - (geom.mu - 0.5))) <= 1e-12
    assert sol.residual_linf <= 1e-12


def test_residuals_on_random_states():
    rng = np.random.default_rng(30)
    for geom in (pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)]),
                 pf.SphereGeometry(128)):
        for _ in range(5):
            state = random_valid_state(geom, rng)
            rhs = random_valid_state(geom, rng).phi
            sol = pf.solve_poisson_phi(geom, state, rhs)
            assert sol.residual_linf <= 1e-10
            # reapply the operator: matches the projected rhs
            projected = rhs - (geom.integrate(rhs, weight=state.rho)
                               / geom.integrate(np.ones(geom.shape), weight=state.rho))
            back = pf.laplacian_phi(geom, state, sol.field)
            assert np.max(np.abs(back - projected)) <= 1e-10


def test_nan_reference_solve_raises_tolerance_not_met(monkeypatch):
    # a NaN residual fails "<= tol" both times, so the solve raises instead of
    # returning a NaN field
    geom = pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)])
    state = zero_state(geom)
    monkeypatch.setattr(geom, "solve_reference_poisson",
                        lambda g: np.full((geom.nx, geom.ny // 2 + 1), np.nan + 0j))
    with pytest.raises(pf.ToleranceNotMet):
        pf.solve_poisson_phi(geom, state, np.cos(geom.x))


@pytest.mark.parametrize("build, phi_of, factor", [
    (lambda: pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.3)]),
     lambda g: 0.1 * np.cos(g.x) + 0.05 * np.sin(2.0 * g.y), 1.0 + 1e-12),
    (lambda: pf.SphereGeometry(256),
     lambda g: 0.1 * g.mu ** 2 + 0.02 * np.cos(3.0 * np.pi * g.mu), 1.0 + 1e-10),
], ids=["curved_torus", "sphere"])
def test_backward_error_bound_is_tight(monkeypatch, build, phi_of, factor):
    # the bound sits just above the rounding floor: an exact solve meets it,
    # and the same solve off by a relative 1e-12 (torus) or 1e-10 (sphere)
    # does not. Measured residuals 1.6e-13 against a bound of 4.6e-14, and
    # 2.5e-11 against 6.1e-12, so a bound five times as loose passes both
    geom = build()
    state = pf.validate_kahler(geom, phi_of(geom))
    assert pf.solve_P(geom, state).residual_linf > 0.0  # solved, not short-cut
    exact = geom.solve_reference_poisson
    monkeypatch.setattr(geom, "solve_reference_poisson", lambda g: exact(g) * factor)
    with pytest.raises(pf.ToleranceNotMet, match="poisson residual"):
        pf.solve_P(geom, state)


def test_mean_zero_normalization():
    rng = np.random.default_rng(31)
    geom = pf.SphereGeometry(128)
    state = random_valid_state(geom, rng)
    sol = pf.solve_poisson_phi(geom, state, random_sphere_phi(geom, rng, amp=1.0))
    vol = geom.integrate(np.ones(geom.shape))
    assert abs(geom.integrate(sol.field, weight=state.rho)) / vol <= 1e-10


def test_exp_mass_normalization():
    # the Ricci potential is the one exp-mass field: int exp(h) omega_phi = volume
    rng = np.random.default_rng(32)
    for geom in (flat64(), pf.SphereGeometry(128)):
        state = random_valid_state(geom, rng)
        h = pf.solve_ricci_potential(geom, state)
        vol = geom.integrate(np.ones(geom.shape))
        mass = geom.integrate(np.exp(h), weight=state.rho)
        assert abs(mass - vol) / vol <= 1e-10


def test_unnormalized_linearity_via_mean_zero():
    # the MeanZero shift is itself linear in the rhs, so the whole
    # (solve + normalize) map must be linear
    rng = np.random.default_rng(33)
    for geom in (flat64(), pf.SphereGeometry(128)):
        state = random_valid_state(geom, rng)
        r1 = random_valid_state(geom, rng).phi
        r2 = random_valid_state(geom, rng).phi
        a, b = 1.3, -0.7
        lhs = pf.solve_poisson_phi(geom, state, a * r1 + b * r2).field
        rhs = (a * pf.solve_poisson_phi(geom, state, r1).field
               + b * pf.solve_poisson_phi(geom, state, r2).field)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


# ---------------------------------------------------------------------------
# solve_P
# ---------------------------------------------------------------------------

def test_p_flat_torus_identically_zero(monkeypatch):
    # on a Ricci-flat reference the RHS of P is the zero field, so solve_P and
    # closed_form_P return exact zeros without integrating or solving anything
    geom = flat64()
    rng = np.random.default_rng(34)
    states = [random_valid_state(geom, rng) for _ in range(3)]

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_P integrated or solved on a Ricci-flat reference")

    monkeypatch.setattr(geom, "solve_reference_poisson", forbidden)
    monkeypatch.setattr(geom, "integrate", forbidden)
    for state in states:
        sol = pf.solve_P(geom, state)
        assert np.all(sol.field == 0.0)
        assert sol.residual_linf == 0.0
        assert np.all(pf.closed_form_P(geom, state) == 0.0)


def test_p_sphere_closed_form():
    geom = pf.SphereGeometry(512)
    rng = np.random.default_rng(35)
    checked = 0
    while checked < 20:
        phi = random_sphere_phi(geom, rng)
        try:
            state = pf.validate_kahler(geom, phi)
        except pf.NotKahler:
            continue
        sol = pf.solve_P(geom, state)
        avg = (geom.integrate(phi, weight=state.rho)
               / geom.integrate(np.ones(geom.shape), weight=state.rho))
        assert np.max(np.abs(sol.field - (phi - avg))) <= 1e-8
        checked += 1


def test_p_torus_reference_density():
    geom = pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)])
    state = zero_state(geom)
    sol = pf.solve_P(geom, state)
    # P = log sigma0 - c with c the omega0-average of log sigma0;
    # independent 1-D quadrature oracle for c (fields are y-independent)
    xs = (np.arange(8192) + 0.5) * TWO_PI / 8192
    s = 1.0 + 0.2 * np.cos(xs)
    c = float(np.mean(np.log(s) * s)) / float(np.mean(s))
    oracle = np.log(geom.sigma0) - c
    assert np.max(np.abs(sol.field - oracle)) <= 1e-10
    assert p_compat_defect(geom, state) < 1e-6


def p_compat_defect(geom, state):
    """|omega_phi-mass of P's right-hand side lambda_ke - tr_phi Ric(omega0)| / volume."""
    mass = geom.integrate(geom.lambda_ke - trace_ric0(geom, state), weight=state.rho)
    return abs(mass) / geom.volume


def test_p_compat_defect_small():
    rng = np.random.default_rng(36)
    for geom in (pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)]),
                 pf.SphereGeometry(256)):
        state = random_valid_state(geom, rng)
        assert p_compat_defect(geom, state) < 1e-6


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [lambda: pf.SphereGeometry(512), flat64],
                         ids=["sphere", "flat_torus"])
def test_closed_forms_match_solver_route(build):
    # P = lambda*(phi - <phi>_phi) and h = -F - lambda*phi against the Poisson
    # solves they replace in the flow; the solved h is shifted from mean zero
    # to exp-mass here
    geom = build()
    rng = np.random.default_rng(40)
    for _ in range(20):
        state = random_valid_state(geom, rng)
        h = pf.solve_poisson_phi(geom, state,
                                 scalar_curvature(geom, state) - geom.lambda_ke).field
        h -= np.log(geom.integrate(np.exp(h), weight=state.rho) / geom.integrate(state.rho))
        pairs = [(pf.closed_form_P(geom, state), pf.solve_P(geom, state).field),
                 (pf.solve_ricci_potential(geom, state), h)]
        for closed, solved in pairs:
            assert np.max(np.abs(closed - solved)) <= 1e-12
        assert einstein_identity_defect(geom, state) <= 1e-15


def _pbound_states(seeds):
    """The pbound_torus preset's 256^2 curved torus and its initial states at
    the given seeds of the random draw."""
    text = (PRESETS / "pbound_torus.cfg").read_text()
    assert "initial.random.seed = 3\n" in text
    for seed in seeds:
        config = pf.parse_config(text.replace("initial.random.seed = 3\n",
                                              f"initial.random.seed = {seed}\n"))
        geom = pf.build_geometry(config)
        yield geom, pf.validate_kahler(geom, pf.make_initial(geom, config))


def test_closed_form_p_matches_solver_on_curved_torus():
    # on a torus P = log(sigma0) - <log(sigma0)>_phi: the closed form rests on
    # ric0_density being mixed(h0) bitwise, and lambda = 0 leaves no defect at all
    rng = np.random.default_rng(41)
    cases = []
    for modes in ([(1, 0, 0.2)], [(1, 0, 0.9), (2, 3, 0.05)]):
        geom = pf.TorusGeometry(64, 64, TWO_PI, modes)
        cases += [(geom, random_valid_state(geom, rng)) for _ in range(8)]
    cases += list(_pbound_states(range(4)))
    assert len(cases) >= 20
    for geom, state in cases:
        h0 = geom.ricci_potential0
        assert geom.ric0_density.tobytes() == geom.mixed_second_derivative(h0).tobytes()
        closed, solved = pf.closed_form_P(geom, state), pf.solve_P(geom, state)
        assert np.max(np.abs(closed - solved.field)) <= 1e-12
        assert einstein_identity_defect(geom, state) == 0.0


# ---------------------------------------------------------------------------
# solve_ricci_potential
# ---------------------------------------------------------------------------

def test_ricci_potential_stationary_points():
    sphere = pf.SphereGeometry(128)
    h = pf.solve_ricci_potential(sphere, zero_state(sphere))
    assert np.max(np.abs(h)) <= 1e-10
    flat = flat64()
    h = pf.solve_ricci_potential(flat, zero_state(flat))
    assert np.max(np.abs(h)) <= 1e-10


def test_ricci_potential_sphere_oracle():
    # O(h^2) stencil: 256 nodes put the coarse-vs-fine gap inside 1e-6
    nmu = 256
    geom = pf.SphereGeometry(nmu)
    state = pf.validate_kahler(geom, 0.1 * geom.mu ** 2)
    h = pf.solve_ricci_potential(geom, state)

    # independent 8x-resolution oracle: dense solve of the flux-form system
    # for Delta_phi h = R - 1 on the fine grid, ExpMass-normalized, restricted
    # back by midpoint averaging
    nf = 8 * nmu
    hf = 1.0 / nf
    muf = (np.arange(nf) + 0.5) * hf
    phif = 0.1 * muf ** 2
    faces = np.arange(nf + 1) * hf
    c = faces * (1.0 - faces)

    def flux_div(g):
        flux = np.zeros(nf + 1)
        flux[1:-1] = c[1:-1] * (g[1:] - g[:-1]) / hf
        return (flux[1:] - flux[:-1]) / hf

    rhof = 1.0 + 0.5 * flux_div(phif)
    bigff = np.log(rhof)
    curvf = -0.5 * flux_div(bigff) / rhof + 1.0 / rhof
    rhs = curvf - 1.0
    w = 4.0 * np.pi * hf
    rhs = rhs - np.sum(rhs * rhof) / np.sum(rhof)
    # dense assembly of 0.5*flux_div(u)/rho = rhs with the last node pinned
    A = np.zeros((nf, nf))
    for i in range(nf):
        A[i, i] = -(c[i] + c[i + 1])
        if i > 0:
            A[i, i - 1] = c[i]
        if i < nf - 1:
            A[i, i + 1] = c[i + 1]
    A /= 2.0 * hf * hf
    A /= rhof[:, None]
    u = np.zeros(nf)
    u[:-1] = np.linalg.solve(A[:-1, :-1], rhs[:-1])
    mass = np.sum(np.exp(u) * rhof) * w
    vol = np.sum(rhof) * w
    u -= np.log(mass / vol)
    oracle = 0.5 * (u[3::8] + u[4::8])

    assert np.max(np.abs(h - oracle)) <= 1e-6


def test_ricci_potential_trace_identity():
    rng = np.random.default_rng(37)
    for geom in (flat64(), pf.SphereGeometry(256)):
        state = random_valid_state(geom, rng)
        h = pf.solve_ricci_potential(geom, state)
        lam = 0.0 if geom.kind == "torus" else 1.0
        back = pf.laplacian_phi(geom, state, h)
        target = pf.scalar_curvature(geom, state) - lam
        target = target - (geom.integrate(target, weight=state.rho)
                           / geom.integrate(np.ones(geom.shape), weight=state.rho))
        assert np.max(np.abs(back - target)) <= 1e-9


def test_ricci_potential_exp_mass():
    rng = np.random.default_rng(38)
    geom = pf.SphereGeometry(256)
    state = random_valid_state(geom, rng)
    h = pf.solve_ricci_potential(geom, state)
    vol = geom.integrate(np.ones(geom.shape))
    mass = geom.integrate(np.exp(h), weight=state.rho)
    assert abs(mass - vol) / vol <= 1e-10


def test_ricci_potential_needs_einstein_reference():
    geom = pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)])
    rng = np.random.default_rng(39)
    state = random_valid_state(geom, rng)
    with pytest.raises(ValueError):
        pf.solve_ricci_potential(geom, state)


@pytest.mark.parametrize("nmu", [1024, 4096])
def test_sphere_poisson_solves_take_one_reference_solve(monkeypatch, nmu):
    # one direct solve, checked against a bound that grows with the grid as
    # the residual's rounding floor does (like nmu^2; about 5e-10 at nmu 4096
    # for these states). The flow takes the Ricci potential in closed form, so
    # its right-hand side R - lambda goes to solve_poisson_phi directly
    geom = pf.SphereGeometry(nmu)
    calls = []
    direct = geom.solve_reference_poisson

    def counted(g):
        calls.append(1)
        return direct(g)

    monkeypatch.setattr(geom, "solve_reference_poisson", counted)
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = rng.uniform(-0.1, 0.1, 6)
        phi = sum(c[k] * geom.mu ** (k + 1) for k in range(6))
        state = pf.validate_kahler(geom, phi)
        ricci_rhs = scalar_curvature(geom, state) - geom.lambda_ke
        for solve in (pf.solve_P,
                      lambda g, s: pf.solve_poisson_phi(g, s, ricci_rhs),
                      lambda g, s: pf.make_trace_record(g, s, 1e-3)):
            before = len(calls)
            solve(geom, state)
            assert len(calls) - before == 1
