"""Kahler potentials, metric states, and curvature operators.

A potential phi determines omega_phi = omega0 + i d dbar(phi), whose density
ratio is rho = omega_phi/omega0 = 1 + (mixed derivative of phi)/sigma0 in the
chart. The Monge-Ampere log F = log(rho) and the Ricci trace close the scalar
curvature identity R(omega_phi) = -Delta_phi F + tr_phi Ric(omega0). Its
volume average rbar is cohomological; each backend stores it as geom.rbar.
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
    given (an RK4 stage keeps no coeffs, and phi only on the sphere)."""
    rho = _density(geom, phi_hat)
    min_rho = float(rho.min())
    if min_rho <= rho_floor:
        raise NotKahler(min_rho, stage=stage)
    return MetricState(phi=phi, rho=rho, big_f=np.log(rho), time=float(time), coeffs=coeffs)


def laplacian_phi(geom, state, f):
    """dbar-Laplacian of omega_phi: f_{z zbar}/(sigma0*rho) = ref_lap(f)/rho."""
    return geom.ref_laplacian(f) / state.rho


def trace_ric0(geom, state):
    """tr_{omega_phi} Ric(omega0) = ric0_density/(sigma0*rho); zero when Ricci-flat."""
    if geom.lambda_ke == 0.0 and geom.ricci_potential0 is None:
        return np.zeros(geom.shape)
    return geom.ric0_density / (geom.sigma0 * state.rho)


def scalar_curvature(geom, state):
    """Scalar curvature of omega_phi via the trace identity
    R = -Delta_phi(F) + tr_phi Ric(omega0), reusing the flow's own operators."""
    return -laplacian_phi(geom, state, state.big_f) + trace_ric0(geom, state)
