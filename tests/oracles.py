"""Test oracles: second routes to quantities the package computes one way.

J_chi for a general closed (1,1)-form chi, its dimension-1 closed form, the
scalar curvature through the full chart density log, the defect of the
Einstein identity the closed forms of P and h_phi rest on, the average against
omega_phi, the sphere's tridiagonal solves through scipy.linalg.solveh_banded,
a trace record built in real space, and the torus's random initial data as a
sum of cosines on the grid. Only tests call these.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

import pcflow as pf

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ClosedForm11:
    """A closed (1,1)-form: chart density relative to i dz^dzbar, and its
    trace mean chibar = (chart integral of density)/Volume."""

    density: np.ndarray
    mean: float


def omega0_form(geom):
    """The reference form omega0 as a ClosedForm11 (chibar = 1)."""
    density = geom.sigma0.copy()
    return ClosedForm11(density=density, mean=geom.chart_integral(density) / geom.volume)


def neg_ricci_form(geom):
    """chi = -Ric(omega0), the K-energy pairing form (chibar = -Rbar = -lambda_ke)."""
    return ClosedForm11(density=-geom.ric0_density, mean=-geom.lambda_ke)


def j_chi_path(geom, chi, phi):
    """J_chi(phi): the variational formula integrated along the segment t*phi,
    J_chi(0) = 0, in closed form.

    In the chart tr_{t phi} chi * omega_{t phi} = chi_density * (chart
    measure), so the integrand g(t) = int phi (tr_{t phi} chi - chibar)
    omega_{t phi} is the fixed pairing <phi, chi>_chart minus chibar * int phi
    rho_t omega0. rho_t = 1 + t*(rho_1 - 1) is affine in t, so the integral
    over [0, 1] is <phi, chi>_chart - chibar * I(phi), and the segment stays
    in the Kahler cone iff rho_1 does (validate_kahler, floor 1e-6).
    """
    state = pf.validate_kahler(geom, phi, rho_floor=1e-06)
    return geom.chart_integral(state.phi * chi.density) - chi.mean * pf.i_functional(geom, state)


def j_chi_closed_form(geom, chi, phi):
    """The dimension-1 closed form (1/2) int i d(phi)^dbar(phi): a cross-check
    value, chi-independent by construction (see j_chi_path for the primary)."""
    return 0.5 * geom.dirichlet_energy_from_coeffs(geom.to_coeffs(phi))


def scalar_curvature_forms(geom, state):
    """Both routes to R(omega_phi): via F and via log sigma0 + F.

    Primary: R = -Delta_phi(F) + tr_phi Ric(omega0). Alternative: the full
    chart density log, R = -Delta_phi(log(sigma0*rho)) computed in one sweep.
    Returns (primary, alternative, max pointwise discrepancy); the test
    oracle for scalar_curvature, which computes only the primary.
    """
    primary = pf.scalar_curvature(geom, state)
    if geom.kind == "sphere":
        # The reduced chart density sigma0 = 2 mu (1-mu) vanishes at the poles,
        # so differencing log(sigma0 * rho) directly is singular there. The
        # reference part is analytic (-(log sigma0)_mixed = sigma0, the round
        # metric being Einstein); difference only the state-dependent log.
        alternative = (geom.ric0_density
                       - geom.mixed_second_derivative(state.big_f)) / (geom.sigma0 * state.rho)
    else:
        alternative = -geom.ref_laplacian(np.log(geom.sigma0 * state.rho)) / state.rho
    return primary, alternative, float(np.max(np.abs(primary - alternative)))


def einstein_identity_defect(geom, state):
    """sup|lambda*(rho - 1 - ref_laplacian(phi))/rho|: the defect of the
    identity the closed forms' lambda*phi part rests on (0.0 where lambda = 0)."""
    lap = geom.ref_laplacian(state.phi)
    return float(np.max(np.abs(geom.lambda_ke * (state.rho - 1.0 - lap) / state.rho)))


def average_against_state(geom, state, f):
    """Average of f against omega_phi."""
    return geom.integrate(f, weight=state.rho) / geom.volume


def sphere_flux_band(geom):
    """-h^2 times the sphere's flux divergence, a symmetric tridiagonal matrix,
    in solveh_banded's upper form (off-diagonal row, then the diagonal),
    assembled from the face coefficients."""
    c = geom.face_coeff
    band = np.zeros((2, geom.nmu))
    band[0, 1:] = -c[1:-1]
    band[1, :] = c[:-1] + c[1:]
    return band


def banded_solve_shifted(geom, b, dt_c):
    """(Id - dt_c * ref_laplacian) u = b on the sphere by solveh_banded, which ends
    in one ?ptsv call on Id + (dt_c/(2 h^2)) * sphere_flux_band."""
    ab = (0.5 * dt_c / (geom.h * geom.h)) * sphere_flux_band(geom)
    ab[1] += 1.0
    return scipy.linalg.solveh_banded(ab, b)


def banded_solve_reference_poisson(geom, g):
    """ref_laplacian(u) = g on the sphere, last node pinned to zero, by
    solveh_banded on the leading (nmu - 1) block of sphere_flux_band for -2 h^2 g."""
    m = geom.nmu - 1
    u = scipy.linalg.solveh_banded(sphere_flux_band(geom)[:, :m],
                                   -2.0 * geom.h * geom.h * g[:m])
    return np.append(u, 0.0)


def real_space_dirichlet_energy(geom, u):
    """integral of 2 |u_z|^2 as a grid sum of the real field grad_chart_sq(u)
    on the torus; the sphere's face sum already is one."""
    if geom.kind == "torus":
        return geom.chart_integral(geom.grad_chart_sq_from_coeffs(geom.to_coeffs(u)))
    return geom.dirichlet_energy_from_coeffs(geom.to_coeffs(u))


def real_space_trace_record(geom, state, dt, p_list=(1.0, 2.0, 4.0)):
    """make_trace_record as it was before its terms shared F's coefficients:
    each derivative term transforms its own real field (11 transforms on a
    curved torus), I is integrated twice, and the dissipation is the grid sum
    of |(F + P)_z|^2."""
    p_solution = pf.solve_P(geom, state)
    P = p_solution.field
    ent, j, _ = pf.k_energy_parts(geom, state)
    grad_F_sq = (geom.grad_chart_sq_from_coeffs(geom.to_coeffs(state.big_f))
                 / (geom.sigma0 * state.rho))
    inv_rho = 1.0 / state.rho
    curvature = -pf.laplacian_phi(geom, state, state.big_f) + pf.trace_ric0(geom, state)
    deviation = curvature - geom.lambda_ke
    return pf.TraceRecord(
        time=state.time,
        dt=float(dt),
        sup_F=float(state.big_f.max()),
        inf_F=float(state.big_f.min()),
        sup_P=float(P.max()),
        entropy=ent,
        j_neg_ric=j,
        k_energy=ent + j,
        i_functional=pf.i_functional(geom, state),
        dissipation=real_space_dirichlet_energy(geom, state.big_f + P),
        calabi_energy=geom.integrate(deviation * deviation, weight=state.rho),
        rho_min=float(state.rho.min()),
        volume=geom.integrate(state.rho),
        poisson_residual=p_solution.residual_linf,
        lp_grad_F={p: geom.integrate(grad_F_sq ** p, weight=state.rho) for p in p_list},
        lp_trace0={p: geom.integrate(inv_rho ** (p + 1.0), weight=state.rho) for p in p_list},
    )


def cosine_random_initial(geom, rng, modes, decay):
    """TorusGeometry.random_initial as a sum of grid cosines, one per mode,
    with the same draws in the same order."""
    phi = np.zeros(geom.shape)
    for ky in range(0, modes + 1):
        for kx in range(-modes, modes + 1):
            if ky == 0 and kx <= 0:
                continue  # one representative per conjugate pair
            norm = float(np.hypot(kx, ky))
            if norm > modes:
                continue
            amp = rng.standard_normal() * norm ** (-decay)
            phase = rng.uniform(0.0, TWO_PI)
            phi += amp * np.cos(TWO_PI * (kx * geom.x + ky * geom.y) / geom.length + phase)
    return phi
