"""Kahler potentials, metric states, and curvature operators.

A potential phi determines omega_phi = omega0 + i d dbar(phi), whose density
ratio is rho = omega_phi/omega0 = 1 + (mixed derivative of phi)/sigma0 in the
chart. The Monge-Ampere log F = log(rho) and the Ricci trace close the scalar
curvature identity R(omega_phi) = -Delta_phi F + tr_phi Ric(omega0). Its
volume average Rbar is cohomological: the class constant geom.lambda_ke.

A MetricState holds phi's backend coefficients, built from phi (validate_kahler)
or from them (state_from_coeffs, what the steps use), with the rho and F they
give; the states run() records drop those two. Either way the cone check
min(rho) > rho_floor is the one gate into the Kahler cone, and a NaN min(rho)
fails it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NotKahler


@dataclass(frozen=True, eq=False)  # equal only to itself: rho_min and time do not identify it
class MetricState:
    """A validated Kahler potential as phi's backend coefficients (phi itself on
    the sphere) with rho_min, the min(rho) of the cone check. phi is formed from
    them through geom on each read. rho and F are held, the (rho, F) pair that
    state_from_coeffs made, except in the states run() records (held is None),
    which form them likewise on each read, bitwise the same: one inverse
    transform on the torus, and a log more for F."""

    coeffs: np.ndarray = field(repr=False)
    rho_min: float
    geom: object = field(repr=False)
    time: float = 0.0
    held: tuple = field(default=None, repr=False)

    @property
    def phi(self):
        return self.geom.from_coeffs(self.coeffs)

    @property
    def rho(self):
        return self.geom.density_from_coeffs(self.coeffs) if self.held is None else self.held[0]

    @property
    def big_f(self):
        return np.log(self.rho) if self.held is None else self.held[1]


def validate_kahler(geom, phi, time=0.0, rho_floor=1e-06):
    """Build a MetricState from phi's coefficients, raising NotKahler unless
    min(rho) > rho_floor."""
    return state_from_coeffs(geom, geom.to_coeffs(geom.check_field(phi)), time, rho_floor)


def state_from_coeffs(geom, phi_hat, time=0.0, rho_floor=1e-06, stage=None):
    """validate_kahler from coefficients, held with the rho and F they give.
    Non-finite coefficients give a NaN min(rho), which fails the check too."""
    rho = geom.density_from_coeffs(phi_hat)
    min_rho = float(rho.min())
    if not min_rho > rho_floor:
        raise NotKahler(min_rho, stage=stage)
    return MetricState(phi_hat, min_rho, geom, float(time), (rho, np.log(rho)))


def laplacian_phi(geom, state, f):
    """dbar-Laplacian of omega_phi: f_{z zbar}/(sigma0*rho) = ref_lap(f)/rho."""
    return geom.ref_laplacian(f) / state.rho


def trace_ric0(geom, state):
    """tr_{omega_phi} Ric(omega0) = ric0_density/(sigma0*rho), zeros on a flat torus."""
    return geom.ric0_density / (geom.sigma0 * state.rho)


def scalar_curvature(geom, state, big_f_hat=None):
    """Scalar curvature of omega_phi via the trace identity R = -Delta_phi(F) +
    tr_phi Ric(omega0), from F's coefficients big_f_hat if given."""
    if big_f_hat is None:
        big_f_hat = geom.to_coeffs(geom.check_field(state.big_f))
    lap = geom.ref_laplacian_from_coeffs(big_f_hat)  # a new field: R is formed in it
    lap /= state.rho
    return np.subtract(trace_ric0(geom, state), lap, out=lap)
