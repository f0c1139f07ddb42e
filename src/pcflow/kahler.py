"""Kahler potentials, metric states, and curvature operators.

A potential phi determines omega_phi = omega0 + i d dbar(phi), whose density
ratio is rho = omega_phi/omega0 = 1 + (mixed derivative of phi)/sigma0 in the
chart. The Monge-Ampere log F = log(rho) and the Ricci trace close the scalar
curvature identity R(omega_phi) = -Delta_phi F + tr_phi Ric(omega0).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NotKahler


@dataclass(frozen=True)
class MetricState:
    """A validated Kahler potential with its cached pointwise densities; a
    state made by rk4_step also keeps phi's coefficients for the next step,
    and run() drops them from recorded states."""

    phi: np.ndarray
    rho: np.ndarray
    big_f: np.ndarray
    time: float = 0.0
    coeffs: np.ndarray = field(default=None, repr=False, compare=False)


def _density(geom, phi_hat):
    return 1.0 + geom.mixed_from_coeffs(phi_hat) / geom.sigma0


def ma_density(geom, phi):
    """Monge-Ampere density rho = 1 + phi_{z zbar}/sigma0."""
    return _density(geom, geom.to_coeffs(geom.check_field(phi)))


def validate_kahler(geom, phi, time=0.0, rho_floor=1e-06, stage=None):
    """Build a MetricState, raising NotKahler when min(rho) <= rho_floor."""
    phi = geom.check_field(phi)
    return state_from_coeffs(geom, geom.to_coeffs(phi), time, rho_floor, stage, phi)


def state_from_coeffs(geom, phi_hat, time=0.0, rho_floor=1e-06, stage=None, phi=None,
                      coeffs=None):
    """validate_kahler from coefficients; the state keeps the phi and coeffs
    given (an RK4 stage keeps neither)."""
    rho = _density(geom, phi_hat)
    min_rho = float(rho.min())
    if min_rho <= rho_floor:
        raise NotKahler(min_rho, stage=stage)
    return MetricState(phi=phi, rho=rho, big_f=np.log(rho), time=float(time), coeffs=coeffs)


def laplacian_phi(geom, state, f):
    """dbar-Laplacian of omega_phi: f_{z zbar}/(sigma0*rho) = ref_lap(f)/rho."""
    return geom.ref_laplacian(f) / state.rho


def trace_ric0(geom, state):
    """tr_{omega_phi} Ric(omega0) = ric0_density/(sigma0*rho); zero when flat."""
    if geom.is_flat:
        return np.zeros(geom.shape)
    return geom.ric0_density / (geom.sigma0 * state.rho)


def scalar_curvature_forms(geom, state):
    """Both routes to R(omega_phi): via F and via log sigma0 + F.

    Primary: R = -Delta_phi(F) + tr_phi Ric(omega0). Alternative: the full
    chart density log, R = -Delta_phi(log(sigma0*rho)) computed in one sweep.
    Returns (primary, alternative, max pointwise discrepancy); the test
    oracle for scalar_curvature, which computes only the primary.
    """
    primary = scalar_curvature(geom, state)
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


def scalar_curvature(geom, state):
    """Scalar curvature of omega_phi via the trace identity
    R = -Delta_phi(F) + tr_phi Ric(omega0), reusing the flow's own operators."""
    return -laplacian_phi(geom, state, state.big_f) + trace_ric0(geom, state)


def rbar(geom):
    """Volume average of R(omega0); cohomological, so phi-independent.

    0 on a flat torus, 1 on the round sphere and 0 on curved-reference tori
    up to quadrature rounding; the backend computes it once at construction.
    """
    return geom.rbar


def average_against_state(geom, state, f):
    """Average of f against omega_phi."""
    return geom.integrate(f, weight=state.rho) / geom.volume
