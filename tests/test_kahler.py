"""Pointwise metric quantities: density ratio, Laplacian, curvature, averages."""

import numpy as np
import pytest

import pcflow as pf
from conftest import TWO_PI, random_valid_state
from oracles import scalar_curvature_forms


def flat64():
    return pf.TorusGeometry(64, 64, TWO_PI)


def bumpy64():
    return pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)])


# ---------------------------------------------------------------------------
# Monge-Ampere density
# ---------------------------------------------------------------------------

def test_ma_density_identity():
    for geom in (flat64(), pf.SphereGeometry(64)):
        rho = pf.validate_kahler(geom, np.zeros(geom.shape), rho_floor=0.0).rho
        assert np.all(rho == 1.0)


def test_ma_density_torus_cosine():
    geom = flat64()
    rho = pf.validate_kahler(geom, 0.5 * np.cos(geom.x), rho_floor=0.0).rho
    assert np.max(np.abs(rho - (1.0 - 0.125 * np.cos(geom.x)))) <= 1e-12


def test_ma_density_sphere_quadratic():
    geom = pf.SphereGeometry(256)
    rho = pf.validate_kahler(geom, 0.1 * geom.mu ** 2, rho_floor=0.0).rho
    closed = 1.0 + 0.2 * geom.mu - 0.3 * geom.mu ** 2
    assert np.max(np.abs(rho - closed)) <= 1e-6


# ---------------------------------------------------------------------------
# validate_kahler
# ---------------------------------------------------------------------------

def test_validate_zero_potential():
    geom = flat64()
    state = pf.validate_kahler(geom, np.zeros(geom.shape))
    assert np.all(state.big_f == 0.0)
    assert np.all(state.rho == 1.0)
    assert state.time == 0.0


def test_validate_rejects_cone_exit():
    geom = flat64()
    with pytest.raises(pf.NotKahler) as err:
        pf.validate_kahler(geom, 9.0 * np.cos(geom.x))
    assert err.value.min_rho < 0.0


def test_cone_check_rejects_non_finite_coefficients():
    # a NaN min(rho) compares False with the floor both ways; the check must
    # fail on it, since a semi-implicit torus step passes no real phi
    # through check_field
    from pcflow.kahler import state_from_coeffs
    geom = pf.TorusGeometry(16, 16, TWO_PI)
    phi_hat = geom.to_coeffs(0.1 * np.cos(geom.x))
    phi_hat[1, 0] = np.nan
    with pytest.raises(pf.NotKahler):
        state_from_coeffs(geom, phi_hat)


def test_validate_sphere_margin():
    geom = pf.SphereGeometry(512)
    state = pf.validate_kahler(geom, 0.1 * geom.mu ** 2)
    # min of 1 + 0.2 mu - 0.3 mu^2 approaches 0.9 at the mu -> 1 endpoint
    assert abs(float(np.min(state.rho)) - 0.9) <= 5e-3


def test_state_caches_consistent():
    geom = bumpy64()
    rng = np.random.default_rng(20)
    state = random_valid_state(geom, rng)
    assert np.max(np.abs(state.big_f - np.log(state.rho))) <= 1e-15
    # rho and min(rho) are those of the coefficients the state holds, bitwise
    rho = geom.density_from_coeffs(state.coeffs)
    assert np.max(np.abs(state.rho - rho)) == 0.0
    assert state.rho_min == float(rho.min())


# ---------------------------------------------------------------------------
# laplacian_phi
# ---------------------------------------------------------------------------

def test_laplacian_constant():
    geom = flat64()
    state = pf.validate_kahler(geom, 0.3 * np.cos(geom.x))
    out = pf.laplacian_phi(geom, state, np.full(geom.shape, 4.2))
    assert np.max(np.abs(out)) <= 1e-13


def test_laplacian_flat_reference():
    geom = flat64()
    state = pf.validate_kahler(geom, np.zeros(geom.shape))
    out = pf.laplacian_phi(geom, state, np.cos(geom.x))
    assert np.max(np.abs(out + 0.25 * np.cos(geom.x))) <= 1e-12


def test_laplacian_sphere_linear():
    geom = pf.SphereGeometry(128)
    state = pf.validate_kahler(geom, np.zeros(geom.shape))
    out = pf.laplacian_phi(geom, state, geom.mu.copy())
    assert np.max(np.abs(out - 0.5 * (1.0 - 2.0 * geom.mu))) <= 1e-13


def test_laplacian_integrates_to_zero():
    rng = np.random.default_rng(21)
    for geom in (bumpy64(), pf.SphereGeometry(128)):
        state = random_valid_state(geom, rng)
        f = random_valid_state(geom, rng).phi
        val = geom.integrate(pf.laplacian_phi(geom, state, f), weight=state.rho)
        assert abs(val) <= 1e-10


def test_laplacian_self_adjoint():
    rng = np.random.default_rng(22)
    for geom in (bumpy64(), pf.SphereGeometry(128)):
        state = random_valid_state(geom, rng)
        u = random_valid_state(geom, rng).phi
        v = random_valid_state(geom, rng).phi
        lhs = geom.integrate(v * pf.laplacian_phi(geom, state, u), weight=state.rho)
        rhs = geom.integrate(u * pf.laplacian_phi(geom, state, v), weight=state.rho)
        assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------------
# trace_ric0 and scalar_curvature
# ---------------------------------------------------------------------------

def test_trace_flat_zero():
    geom = flat64()
    rng = np.random.default_rng(23)
    state = random_valid_state(geom, rng)
    assert np.all(pf.trace_ric0(geom, state) == 0.0)


def test_trace_sphere_round():
    geom = pf.SphereGeometry(128)
    state = pf.validate_kahler(geom, np.zeros(geom.shape))
    assert np.max(np.abs(pf.trace_ric0(geom, state) - 1.0)) <= 1e-14


def test_trace_sphere_inverse_density():
    geom = pf.SphereGeometry(256)
    state = pf.validate_kahler(geom, 0.1 * geom.mu ** 2)
    closed = 1.0 / (1.0 + 0.2 * geom.mu - 0.3 * geom.mu ** 2)
    assert np.max(np.abs(pf.trace_ric0(geom, state) - closed)) <= 1e-6


def test_scalar_curvature_flat_zero():
    geom = flat64()
    state = pf.validate_kahler(geom, np.zeros(geom.shape))
    assert np.max(np.abs(pf.scalar_curvature(geom, state))) == 0.0


@pytest.mark.parametrize("build", [flat64, bumpy64, lambda: pf.SphereGeometry(128)],
                         ids=["flat64", "bumpy64", "sphere128"])
def test_scalar_curvature_is_bitwise_the_trace_identity(build):
    # -Delta_phi(F) + tr_phi Ric(omega0) as a sum, signed zeros included: a
    # Ricci-flat reference adds no trace field
    geom = build()
    phis = [np.zeros(geom.shape), random_valid_state(geom, np.random.default_rng(5)).phi]
    for phi in phis:
        state = pf.validate_kahler(geom, phi)
        summed = -pf.laplacian_phi(geom, state, state.big_f) + pf.trace_ric0(geom, state)
        got = pf.scalar_curvature(geom, state)
        assert np.array_equal(got, summed)
        assert np.array_equal(np.signbit(got), np.signbit(summed))


def test_scalar_curvature_reference_density():
    geom = bumpy64()
    state = pf.validate_kahler(geom, np.zeros(geom.shape))
    got = pf.scalar_curvature(geom, state)
    # symbolic oracle: R = -(log sigma0)_{z zbar}/sigma0 with sigma0 = 1+0.2 cos x
    x = geom.x
    s = 1.0 + 0.2 * np.cos(x)
    log_s_xx = (-0.2 * np.cos(x) * s - 0.04 * np.sin(x) ** 2) / s ** 2
    oracle = -0.25 * log_s_xx / s
    assert np.max(np.abs(got - oracle)) <= 1e-10


def test_scalar_curvature_two_forms_agree():
    rng = np.random.default_rng(24)
    for geom in (bumpy64(), pf.SphereGeometry(256)):
        for _ in range(5):
            state = random_valid_state(geom, rng)
            primary, alternative, gap = scalar_curvature_forms(geom, state)
            assert gap <= 1e-8
            assert np.max(np.abs(primary - alternative)) <= 1e-8


def test_sphere_curvature_rounding_ceiling():
    # phi = 2 log(1 + 3 mu) is the round metric pulled back by z -> 2z, so
    # R = 1 exactly. Discretization error falls with the grid until R's two
    # second differences amplify rounding like eps*nmu^4. Measured max|R - 1|:
    # 1.5e-4, 4.0e-5, 1.4e-5, 1.9e-4, 2.9e-3, 5.3e-2 at nmu 128 ... 4096
    errors = {}
    for nmu in (128, 256, 512, 2048, 4096):
        geom = pf.SphereGeometry(nmu)
        state = pf.validate_kahler(geom, 2.0 * np.log(1.0 + 3.0 * geom.mu))
        errors[nmu] = float(np.max(np.abs(pf.scalar_curvature(geom, state) - 1.0)))
    assert errors[128] >= 2.5 * errors[256]
    assert errors[256] >= 2.5 * errors[512]
    assert errors[4096] >= 10.0 * errors[2048]


# ---------------------------------------------------------------------------
# Rbar and cohomology invariance
# ---------------------------------------------------------------------------

def mean_ref_curvature(geom):
    """The omega0-average of R(omega0), the scalar curvature of phi = 0."""
    zero = pf.validate_kahler(geom, np.zeros(geom.shape))
    return geom.integrate(pf.scalar_curvature(geom, zero)) / geom.volume


def test_lambda_ke_is_mean_ref_curvature():
    # Rbar is the class constant lambda_ke, which every reader takes
    assert mean_ref_curvature(flat64()) == flat64().lambda_ke == 0.0
    assert abs(mean_ref_curvature(bumpy64()) - bumpy64().lambda_ke) <= 1e-10
    sphere = pf.SphereGeometry(128)
    assert sphere.lambda_ke == 1.0
    assert abs(mean_ref_curvature(sphere) - sphere.lambda_ke) <= 1e-10


def test_cohomology_invariance():
    rng = np.random.default_rng(25)
    for geom in (bumpy64(), pf.SphereGeometry(256)):
        rb = geom.lambda_ke
        vol = geom.integrate(np.ones(geom.shape))
        for _ in range(20):
            state = random_valid_state(geom, rng)
            avg_r = geom.integrate(pf.scalar_curvature(geom, state), weight=state.rho)
            assert abs(avg_r - rb * vol) <= 1e-8
            vol_phi = geom.integrate(np.ones(geom.shape), weight=state.rho)
            assert abs(vol_phi - vol) <= 1e-8


# ---------------------------------------------------------------------------
# gauge covariance
# ---------------------------------------------------------------------------

def test_gauge_covariance_sphere_bitwise():
    geom = pf.SphereGeometry(128)
    rng = np.random.default_rng(26)
    # exactly representable potential (multiples of 2^-20) and shift c = 1.0:
    # the difference stencils subtract the constant away without rounding
    phi = np.round(random_valid_state(geom, rng).phi * 2 ** 20) / 2 ** 20
    a = pf.validate_kahler(geom, phi)
    b = pf.validate_kahler(geom, phi + 1.0)
    assert np.all(a.rho == b.rho)
    assert np.all(a.big_f == b.big_f)
    assert np.all(pf.scalar_curvature(geom, a) == pf.scalar_curvature(geom, b))
    assert a != b  # one rho_min and time, two potentials: a state is equal only to itself


def test_gauge_covariance_torus():
    geom = bumpy64()
    rng = np.random.default_rng(27)
    state = random_valid_state(geom, rng)
    shifted = pf.validate_kahler(geom, state.phi + 1.0)
    # the spectral transform mixes an added constant into every mode at the
    # rounding floor (measured ~1.4e-13), so agreement is near-bitwise only
    assert np.max(np.abs(state.rho - shifted.rho)) <= 1e-12
    assert np.max(np.abs(pf.scalar_curvature(geom, state)
                         - pf.scalar_curvature(geom, shifted))) <= 1e-10
