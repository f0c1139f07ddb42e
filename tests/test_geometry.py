"""Grid backends: construction, quadrature, chart derivatives, Dirichlet energy."""

import numpy as np
import pytest

import pcflow as pf
from conftest import TWO_PI, random_sphere_phi, random_torus_phi
from oracles import banded_solve_reference_poisson, banded_solve_shifted


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_flat_torus_build_and_volume():
    geom = pf.build_torus_geometry(256, 256, TWO_PI, ())
    assert np.all(geom.sigma0 == 1.0)
    assert geom.lambda_ke == 0.0
    assert geom.ricci_potential0 is None  # the flat reference is Einstein
    # volume of the flat reference: int 2 dx dy over [0, 2pi)^2 = 8 pi^2
    assert abs(geom.volume - 8.0 * np.pi ** 2) <= 1e-10
    ones = np.ones(geom.shape)
    assert abs(geom.integrate(ones) - geom.volume) <= 1e-12


def test_torus_volume_tracks_mean_density():
    geom = pf.build_torus_geometry(64, 64, TWO_PI, [(1, 0, 0.2)])
    oracle = 2.0 * geom.length ** 2 * float(np.mean(geom.sigma0))
    assert abs(geom.volume - oracle) <= 1e-12 * abs(oracle)
    assert geom.lambda_ke == 0.0  # every torus class is c_1 = 0
    assert geom.ricci_potential0 is not None  # a curved reference is not Einstein


def test_torus_negative_density_rejected():
    with pytest.raises(pf.NonPositiveDensity):
        pf.build_torus_geometry(16, 16, 1.0, [(1, 0, -1.5)])


def test_torus_density_extremes():
    geom = pf.build_torus_geometry(64, 64, TWO_PI, [(1, 0, 0.2)])
    # closed form 1 + 0.2 cos x; the grid contains x = 0 and x = pi
    assert abs(float(np.min(geom.sigma0)) - 0.8) <= 1e-12
    assert abs(float(np.max(geom.sigma0)) - 1.2) <= 1e-12


@pytest.mark.parametrize("nx,ny,length", [
    (48, 64, 1.0),   # not a power of two
    (8, 16, 1.0),    # below minimum
    (64, 64, 0.0),   # degenerate length
    (64, 64, -2.0),
    (64, 64, np.inf),
    (64, 64, np.nan),
    (64.0, 64, 1.0),  # not an integer
    (64, 64.5, 1.0),
])
def test_torus_bad_grid(nx, ny, length):
    with pytest.raises(pf.BadGrid):
        pf.build_torus_geometry(nx, ny, length, ())


@pytest.mark.parametrize("modes", [[(1, 0, np.nan)], [(1, 0, 0.2), (0, 1, np.inf)]])
def test_torus_rejects_non_finite_sigma0_amplitude(modes):
    with pytest.raises(pf.BadGrid):
        pf.build_torus_geometry(16, 16, TWO_PI, modes)


def test_sphere_build_and_volume():
    geom = pf.build_sphere_geometry(128)
    # quadrature of the constant 1 against omega0 equals 4 pi exactly
    assert geom.integrate(np.ones(geom.shape)) == 4.0 * np.pi
    assert geom.volume == 4.0 * np.pi
    assert geom.lambda_ke == 1.0
    assert geom.ricci_potential0 is None  # the round reference is Einstein


def test_sphere_nodes_interior():
    geom = pf.build_sphere_geometry(64)
    assert np.all(geom.mu > 0.0)
    assert np.all(geom.mu < 1.0)
    assert np.all(np.diff(geom.mu) > 0.0)


def test_sphere_min_grid():
    with pytest.raises(pf.BadGrid):
        pf.build_sphere_geometry(31)
    with pytest.raises(pf.BadGrid):  # used to build 100 nodes
        pf.build_sphere_geometry(100.7)
    pf.build_sphere_geometry(32)


def test_sphere_round_metric_curvature():
    geom = pf.build_sphere_geometry(64)
    state = pf.validate_kahler(geom, np.zeros(geom.shape))
    r = pf.scalar_curvature(geom, state)
    assert np.max(np.abs(r - 1.0)) <= 1e-10


# ---------------------------------------------------------------------------
# mixed second derivative
# ---------------------------------------------------------------------------

def test_mixed_torus_cosine():
    geom = pf.build_torus_geometry(64, 64, TWO_PI, ())
    f = np.cos(geom.x)
    got = geom.mixed_second_derivative(f)
    assert np.max(np.abs(got + 0.25 * np.cos(geom.x))) <= 1e-12


def test_mixed_annihilates_constants():
    torus = pf.build_torus_geometry(32, 32, 1.5, ())
    sphere = pf.build_sphere_geometry(64)
    assert np.max(np.abs(torus.mixed_second_derivative(np.full(torus.shape, 3.7)))) <= 1e-14
    assert np.max(np.abs(sphere.mixed_second_derivative(np.full(sphere.shape, 3.7)))) <= 1e-14


def _sphere_mixed_oracle(fn, nmu, factor=8):
    """Independent flux-form evaluation at factor-times resolution,
    restricted back to the coarse cell centers by midpoint averaging."""
    nf = factor * nmu
    hf = 1.0 / nf
    muf = (np.arange(nf) + 0.5) * hf
    g = fn(muf)
    faces = np.arange(nf + 1) * hf
    c = faces * (1.0 - faces)
    flux = np.zeros(nf + 1)
    flux[1:-1] = c[1:-1] * (g[1:] - g[:-1]) / hf
    div = (flux[1:] - flux[:-1]) / hf
    mixed_fine = muf * (1.0 - muf) * div
    lo = mixed_fine[factor // 2 - 1::factor]
    hi = mixed_fine[factor // 2::factor]
    return 0.5 * (lo + hi)


def test_mixed_sphere_oracle():
    geom = pf.build_sphere_geometry(128)
    got = geom.mixed_second_derivative(geom.mu ** 2)
    oracle = _sphere_mixed_oracle(lambda m: m ** 2, 128)
    assert np.max(np.abs(got - oracle)) <= 1e-5

    fine = pf.build_sphere_geometry(256)
    got = fine.mixed_second_derivative(fine.mu ** 2)
    # mu(1-mu) d/dmu (mu(1-mu) * 2 mu) = 2 mu^2 (1-mu)(2 - 3 mu)
    closed = 2.0 * fine.mu ** 2 * (1.0 - fine.mu) * (2.0 - 3.0 * fine.mu)
    assert np.max(np.abs(got - closed)) <= 3e-6


def test_mixed_linearity():
    rng = np.random.default_rng(11)
    torus = pf.build_torus_geometry(64, 64, TWO_PI, ())
    sphere = pf.build_sphere_geometry(128)
    for geom, draw in ((torus, random_torus_phi), (sphere, random_sphere_phi)):
        f = draw(geom, rng, amp=1.0)
        g = draw(geom, rng, amp=1.0)
        a, b = -1.7, 0.4
        lhs = geom.mixed_second_derivative(a * f + b * g)
        rhs = (a * geom.mixed_second_derivative(f)
               + b * geom.mixed_second_derivative(g))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_integration_by_parts():
    rng = np.random.default_rng(12)
    flat = pf.build_torus_geometry(64, 64, TWO_PI, ())
    u = random_torus_phi(flat, rng, amp=1.0)
    v = random_torus_phi(flat, rng, amp=1.0)
    lhs = flat.integrate(v * flat.mixed_second_derivative(u))
    rhs = flat.integrate(u * flat.mixed_second_derivative(v))
    assert abs(lhs - rhs) <= 1e-10

    for geom, draw in (
        (pf.build_torus_geometry(64, 64, TWO_PI, [(1, 0, 0.2)]), random_torus_phi),
        (pf.build_sphere_geometry(128), random_sphere_phi),
    ):
        u = draw(geom, rng, amp=1.0)
        v = draw(geom, rng, amp=1.0)
        lhs = geom.chart_integral(v * geom.mixed_second_derivative(u))
        rhs = geom.chart_integral(u * geom.mixed_second_derivative(v))
        assert abs(lhs - rhs) <= 1e-10


def test_mixed_has_zero_chart_mean():
    rng = np.random.default_rng(13)
    for geom, draw in (
        (pf.build_torus_geometry(64, 64, TWO_PI, [(2, 1, 0.1)]), random_torus_phi),
        (pf.build_sphere_geometry(128), random_sphere_phi),
    ):
        u = draw(geom, rng, amp=1.0)
        assert abs(geom.chart_integral(geom.mixed_second_derivative(u))) <= 1e-10


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_integrate_flat_constant():
    geom = pf.build_torus_geometry(64, 64, TWO_PI, ())
    assert abs(geom.integrate(np.ones(geom.shape)) - 8.0 * np.pi ** 2) <= 1e-10


def test_integrate_mean_zero_mode():
    geom = pf.build_torus_geometry(64, 64, TWO_PI, ())
    assert abs(geom.integrate(np.cos(geom.x))) <= 1e-13


def test_integrate_weighted():
    geom = pf.build_torus_geometry(64, 64, TWO_PI, ())
    f = np.cos(geom.x)
    # int cos^2 x * 2 dx dy = (2pi)^2
    assert abs(geom.integrate(f, weight=f) - TWO_PI ** 2) <= 1e-10


def test_shape_errors():
    geom = pf.build_torus_geometry(32, 32, 1.0, ())
    bad = np.zeros((16, 32))
    for op in (geom.mixed_second_derivative, geom.integrate,
               geom.dirichlet_energy, geom.chart_integral):
        with pytest.raises(pf.ShapeError):
            op(bad)
    sphere = pf.build_sphere_geometry(64)
    with pytest.raises(pf.ShapeError):
        sphere.integrate(np.zeros(65))
    with pytest.raises(pf.ShapeError):
        geom.integrate(np.full(geom.shape, np.nan))


# ---------------------------------------------------------------------------
# Dirichlet energy
# ---------------------------------------------------------------------------

def test_dirichlet_constant_zero():
    torus = pf.build_torus_geometry(32, 32, 1.0, ())
    sphere = pf.build_sphere_geometry(64)
    assert torus.dirichlet_energy(np.full(torus.shape, 2.5)) == 0.0
    assert sphere.dirichlet_energy(np.full(sphere.shape, 2.5)) == 0.0


def test_dirichlet_torus_cosine():
    geom = pf.build_torus_geometry(64, 64, TWO_PI, ())
    u = 0.5 * np.cos(geom.x)
    val = geom.dirichlet_energy(u)
    assert abs(val - np.pi ** 2 / 4.0) <= 1e-12
    # independent 1-D quadrature of int 2 |u_z|^2 dx dy, u_z = -0.25 sin x
    xs = (np.arange(8192) + 0.5) * TWO_PI / 8192
    oracle = TWO_PI ** 2 * 2.0 * float(np.mean(0.0625 * np.sin(xs) ** 2))
    assert abs(val - oracle) <= 1e-12


def test_dirichlet_sphere_linear():
    geom = pf.build_sphere_geometry(128)
    val = geom.dirichlet_energy(geom.mu.copy())
    # independent plain-Python face sum of 2 pi h * mu_f (1-mu_f) (du/dmu)^2
    total = 0.0
    for i in range(1, 128):
        mf = i * geom.h
        df = (geom.mu[i] - geom.mu[i - 1]) / geom.h
        total += mf * (1.0 - mf) * df * df
    oracle = 2.0 * np.pi * geom.h * total
    assert abs(val - oracle) <= 1e-13
    assert abs(val - np.pi / 3.0) <= 1e-4

    fine = pf.build_sphere_geometry(512)
    assert abs(fine.dirichlet_energy(fine.mu.copy()) - np.pi / 3.0) <= 1e-5


def test_dirichlet_nonnegative_and_laplacian_pairing():
    rng = np.random.default_rng(14)
    for geom, draw in (
        (pf.build_torus_geometry(64, 64, TWO_PI, [(1, 1, 0.15)]), random_torus_phi),
        (pf.build_sphere_geometry(128), random_sphere_phi),
    ):
        for _ in range(5):
            u = draw(geom, rng, amp=1.0)
            e = geom.dirichlet_energy(u)
            assert e >= 0.0
            pairing = -geom.chart_integral(u * geom.mixed_second_derivative(u))
            assert abs(e - pairing) <= 1e-10 * (1.0 + abs(e))


# ---------------------------------------------------------------------------
# reference Poisson solve (the building block the elliptic module rests on)
# ---------------------------------------------------------------------------

def test_reference_poisson_roundtrip_torus():
    geom = pf.build_torus_geometry(64, 64, TWO_PI, [(1, 0, 0.2)])
    rng = np.random.default_rng(15)
    u = random_torus_phi(geom, rng, amp=1.0)
    u -= geom.chart_integral(u) / geom.chart_integral(np.ones(geom.shape))
    got = geom.from_coeffs(geom.solve_reference_poisson(geom.ref_laplacian(u)))
    got -= geom.chart_integral(got) / geom.chart_integral(np.ones(geom.shape))
    assert np.max(np.abs(got - u)) <= 1e-11


def test_reference_poisson_roundtrip_sphere():
    geom = pf.build_sphere_geometry(128)
    rng = np.random.default_rng(16)
    u = random_sphere_phi(geom, rng, amp=1.0)
    got = geom.from_coeffs(geom.solve_reference_poisson(geom.ref_laplacian(u)))
    # the solver pins the last node; compare after matching constants
    got = got - got[-1] + u[-1]
    assert np.max(np.abs(got - u)) <= 1e-10


# ---------------------------------------------------------------------------
# shifted solve of the semi-implicit step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: pf.build_torus_geometry(64, 64, TWO_PI, ()),
    lambda: pf.build_torus_geometry(64, 64, TWO_PI, [(1, 0, 0.2)]),
    lambda: pf.build_sphere_geometry(128),
], ids=["flat_torus", "curved_torus", "sphere"])
def test_solve_shifted_meets_tolerance(build):
    geom = build()
    rng = np.random.default_rng(30)
    if geom.kind == "torus":
        b = random_torus_phi(geom, rng, amp=1.0)
    else:
        b = random_sphere_phi(geom, rng, amp=1.0)
    # defect of the operator actually inverted: L0 = f_{z zbar}/min(sigma0) on
    # the torus, ref_laplacian on the sphere. The sphere's defect sits at the
    # rounding floor of its flux-form operator, which grows like dt_c / h^2
    # and reaches 3e-13 at dt_c = 1, so the check stays within the presets'
    # range of dt_c
    if geom.kind == "torus":
        inverted = lambda u: geom.mixed_second_derivative(u) / geom.sigma0.min()
    else:
        inverted = geom.ref_laplacian
    for dt_c in (1e-3, 1e-1):
        u = geom.from_coeffs(geom.solve_shifted(b, dt_c))
        defect = b - (u - dt_c * inverted(u))
        assert float(np.max(np.abs(defect))) <= 1e-13 * (1.0 + float(np.max(np.abs(b))))


def test_sphere_solves_raise_singular_solve_on_nan():
    geom = pf.build_sphere_geometry(128)
    b = np.zeros(geom.shape)
    b[5] = np.nan
    with pytest.raises(pf.SingularSolve):
        geom.solve_shifted(b, 0.1)
    with pytest.raises(pf.SingularSolve):
        geom.solve_reference_poisson(b)


@pytest.mark.parametrize("nmu", [32, 128, 512, 4096])
def test_sphere_solves_are_bitwise_solve_banded(nmu):
    # one dgtsv call is the routine solve_banded((1, 1), ...) ends in, so both
    # sphere solves return its bytes: smooth and rough right-hand sides, and
    # dt_c = 0 (the identity) to 10 for the shifted solve
    geom = pf.build_sphere_geometry(nmu)
    rng = np.random.default_rng(nmu)
    for b in (random_sphere_phi(geom, rng, amp=1.0), rng.standard_normal(nmu)):
        for dt_c in (0.0, 1e-3, 0.1, 1.0, 10.0):
            got = geom.solve_shifted(b, dt_c)
            assert got.tobytes() == banded_solve_shifted(geom, b, dt_c).tobytes()
        g = b - np.mean(b)  # compatible: the dropped last equation is implied
        got = geom.solve_reference_poisson(g)
        assert got.tobytes() == banded_solve_reference_poisson(geom, g).tobytes()


def test_sphere_band_solve_raises_singular_solve_on_zero_pivot():
    geom = pf.build_sphere_geometry(64)
    ab = np.ones((3, geom.nmu))
    ab[1, 0] = ab[2, 0] = 0.0  # the first column is zero: dgtsv reports info = 1
    with pytest.raises(pf.SingularSolve, match="info 1"):
        geom._solve_band(ab, np.ones(geom.nmu))


def test_solve_shifted_strongly_curved_torus_closed_form():
    # sigma0 in [0.1, 1.9]: L0 = f_{z zbar}/min(sigma0) is diagonal on
    # cos x (symbol -1/4) and sin 2y (symbol -1), so with a = dt_c/min(sigma0)
    # the solution is exact; the forward defect would only show the 1e-12
    # rounding floor of applying L0 at large dt_c
    geom = pf.build_torus_geometry(256, 256, TWO_PI, [(1, 0, 0.9)])
    b = np.cos(geom.x) + 0.5 * np.sin(2.0 * geom.y)
    for dt_c in (1e-3, 0.1, 1.0, 10.0):
        a = dt_c / geom.sigma0.min()
        expected = np.cos(geom.x) / (1.0 + a / 4.0) + 0.5 * np.sin(2.0 * geom.y) / (1.0 + a)
        u = geom.from_coeffs(geom.solve_shifted(b, dt_c))
        assert float(np.max(np.abs(u - expected))) <= 1e-14
