"""Kahler potentials, metric states, and curvature operators.

A potential phi determines omega_phi = omega0 + i d dbar(phi), whose density
ratio is rho = omega_phi/omega0 = 1 + (mixed derivative of phi)/sigma0 in the
chart. The Monge-Ampere log F = log(rho) and the Ricci trace close the scalar
curvature identity R(omega_phi) = -Delta_phi F + tr_phi Ric(omega0). Its
volume average Rbar is cohomological: the class constant geom.lambda_ke.

A MetricState holds phi's backend coefficients, built from phi (validate_kahler)
or from them (state_from_coeffs, what the steps use), and forms phi on read.
Either way the cone check min(rho) > rho_floor is the one gate into the
Kahler cone, and a NaN min(rho) fails it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NotKahler


@dataclass(frozen=True)
class MetricState:
    """A validated Kahler potential as phi's backend coefficients (phi itself on
    the sphere), from which each read of phi forms it, with its cached pointwise
    densities and rho_min, the min(rho) of the cone check."""

    coeffs: np.ndarray = field(repr=False, compare=False)
    rho: np.ndarray
    big_f: np.ndarray
    rho_min: float
    from_coeffs: object = field(repr=False, compare=False)
    time: float = 0.0

    @property
    def phi(self):
        return self.from_coeffs(self.coeffs)


def validate_kahler(geom, phi, time=0.0, rho_floor=1e-06):
    """Build a MetricState from phi's coefficients, raising NotKahler unless
    min(rho) > rho_floor."""
    return state_from_coeffs(geom, geom.to_coeffs(geom.check_field(phi)), time, rho_floor)


def state_from_coeffs(geom, phi_hat, time=0.0, rho_floor=1e-06, stage=None):
    """validate_kahler from coefficients, which the state holds. Non-finite
    coefficients give a NaN min(rho), which fails the check too."""
    rho = geom.density_from_coeffs(phi_hat)
    min_rho = float(rho.min())
    if not min_rho > rho_floor:
        raise NotKahler(min_rho, stage=stage)
    return MetricState(phi_hat, rho, np.log(rho), min_rho, geom.from_coeffs, float(time))


def laplacian_phi(geom, state, f):
    """dbar-Laplacian of omega_phi: f_{z zbar}/(sigma0*rho) = ref_lap(f)/rho."""
    return geom.ref_laplacian(f) / state.rho


def trace_ric0(geom, state):
    """tr_{omega_phi} Ric(omega0) = ric0_density/(sigma0*rho); zero when Ricci-flat."""
    if geom.ricci_flat:
        return np.zeros(geom.shape)
    return geom.ric0_density / (geom.sigma0 * state.rho)


def scalar_curvature(geom, state, big_f_hat=None):
    """Scalar curvature of omega_phi via the trace identity R = -Delta_phi(F) +
    tr_phi Ric(omega0) (0.0 if Ricci-flat), from F's coefficients big_f_hat if given."""
    if big_f_hat is None:
        big_f_hat = geom.to_coeffs(geom.check_field(state.big_f))
    ric = 0.0 if geom.ricci_flat else trace_ric0(geom, state)
    lap = geom.ref_laplacian_from_coeffs(big_f_hat)  # a new field: R is formed in it
    lap /= state.rho
    return np.subtract(ric, lap, out=lap)
