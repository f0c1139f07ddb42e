"""Mean-zero Poisson solves on the evolving metric, and the closed forms
that replace them in the flow.

Every solve first projects the right-hand side onto the compatible range of
Delta_phi (its mean against omega_phi is removed), then inverts the chart
equation u_{z zbar} = rhs*sigma0*rho with one direct solve of the backend,
and finally shifts u to mean zero against omega_phi. The residual
r = Delta_phi(u) - b must meet the normwise backward-error bound
|r| <= C*eps*(|u|*|Delta_phi| + |b|) in the sup norm (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., ch. 7), with |Delta_phi| taken
as 1/heat_dt_scale(rho); no fixed tolerance fits, since the rounding floor
grows with the grid (like nmu^2 on the sphere).

In complex dimension 1, Ric(omega0) = lambda*omega0 + i d dbar(h0) on every
reference (geom.lambda_ke and geom.ricci_potential0, None where omega0 is
Einstein and h0 = 0). Since Delta_phi(phi) = 1 - tr_phi(omega0), P is
lambda*phi - h0 up to a constant, and on an Einstein reference the Ricci
potential is -F - lambda*phi. The discrete operators keep both parts by
construction: rho is 1 + ref_laplacian(phi) (density_from_coeffs), to the one
rounding of the sum, and ric0_density is mixed(h0). So closed_form_P and
solve_ricci_potential solve nothing and check nothing: they return the field.
solve_P, the solver, is left to trace records.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ToleranceNotMet
from .kahler import trace_ric0

_BACKWARD_ERROR_BOUND = 16.0  # C; smooth sphere states up to nmu 16384 reach 1.08


@dataclass(frozen=True)
class PoissonSolution:
    field: np.ndarray
    residual_linf: float
    coeffs: np.ndarray = None  # field's coefficients, up to the zero mode


def _mean_zero(geom, u, rho, vol_phi):
    """u minus its mean against omega_phi, whose volume is vol_phi."""
    return u - geom.integrate(u, weight=rho) / vol_phi


def solve_poisson_phi(geom, state, rhs):
    """Solve Delta_phi(u) = rhs - mean_phi(rhs) for the mean-zero u of a field
    rhs (a scalar raises ShapeError; a zero field gives u = 0 with no quadrature
    or solve). A residual above the backward-error bound raises ToleranceNotMet."""
    rhs = geom.check_field(rhs)
    if not np.any(rhs):
        return PoissonSolution(np.zeros(geom.shape), 0.0, 0.0)
    rho = state.rho
    vol_phi = geom.integrate(rho)
    projected = _mean_zero(geom, rhs, rho, vol_phi)
    del rhs  # frees a caller's temporary, as solve_P's is, before the solve allocates

    # the residual is applied to the solve's own coefficients: on the torus
    # one inverse transform, where applying ref_laplacian to u takes two
    u_hat = geom.solve_reference_poisson(projected * rho)
    residual = geom.ref_laplacian_from_coeffs(u_hat)  # a new field: reduced in place
    residual /= rho
    residual -= projected
    residual_linf = float(np.max(np.abs(residual, out=residual)))
    del residual
    u = geom.from_coeffs(u_hat)
    bound = _BACKWARD_ERROR_BOUND * np.finfo(float).eps * (
        float(np.max(np.abs(u))) / geom.heat_dt_scale(rho) + float(np.max(np.abs(projected))))
    # "not <=" so that a NaN residual fails the check too
    if not residual_linf <= bound:
        raise ToleranceNotMet(f"poisson residual {residual_linf:.3e} > bound {bound:.3e}")
    return PoissonSolution(_mean_zero(geom, u, rho, vol_phi), residual_linf, u_hat)


def solve_P(geom, state):
    """PCF potential by a Poisson solve: Delta_phi(P) = lambda_ke - tr_phi Ric(omega0),
    mean-zero (lambda_ke is R-bar; on a flat torus the RHS is zero, and so is P).
    Only trace records call it: a record reports its sup_P, its residual
    (poisson_residual) and the dissipation of F + P, and compares it with
    nothing; the steps take closed_form_P."""
    return solve_poisson_phi(geom, state, geom.lambda_ke - trace_ric0(geom, state))


def closed_form_P(geom, state):
    """PCF potential lambda*phi - h0, mean-zero: the field P that solve_P
    solves for, with no solve, on every reference.

    On a curved torus (lambda = 0) it is <h0>_phi - h0, its mean two dot
    products with rho, reading neither phi nor an operator; on a flat torus
    the zero field, with no quadrature. On the sphere (h0 = 0) it is
    lambda*(phi - <phi>_phi): rho is 1 + ref_laplacian(phi) by construction,
    so the identity it rests on holds to the one rounding of that sum.
    """
    if geom.ricci_flat:
        return np.zeros(geom.shape)
    if geom.lambda_ke == 0.0:
        # einsum's own loop: BLAS dot threads split the sum, so its bits, by core count
        mean = (np.einsum("ij,ij", geom.ricci_potential0_density, state.rho)
                / np.einsum("ij,ij", geom.sigma0, state.rho))
        return mean - geom.ricci_potential0
    return _mean_zero(geom, geom.lambda_ke * state.phi, state.rho, geom.integrate(state.rho))


def solve_ricci_potential(geom, state):
    """Ricci potential h, Delta_phi(h) = R(omega_phi) - lambda, exp-mass
    normalized: the closed form -F - lambda*phi as a field, with no solve.

    Needs an Einstein reference: the round sphere (lambda = 1) or a flat torus
    (lambda = 0); curved-reference tori have no Ricci potential in this gauge.
    Its lambda*phi part holds by construction, as closed_form_P's does.
    """
    if geom.ricci_potential0 is not None:
        raise ValueError("Ricci potential needs an Einstein reference "
                         "(round sphere or flat torus)")
    u = np.negative(state.big_f)  # a new field: shifted in place
    if geom.lambda_ke != 0.0:
        u -= geom.lambda_ke * state.phi
    peak = float(u.max())
    shifted = np.subtract(u, peak)
    mass = geom.integrate(np.exp(shifted, out=shifted), weight=state.rho)
    return np.subtract(u, peak + np.log(mass / geom.integrate(state.rho)), out=u)
