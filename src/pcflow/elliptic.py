"""Normalized Poisson solves on the evolving metric.

Every solve first projects the right-hand side onto the compatible range of
Delta_phi (its mean against omega_phi is removed), then inverts the chart
equation u_{z zbar} = rhs*sigma0*rho with the backend's direct solver, and
finally applies the requested normalization as a constant shift. The constant
nullspace is never pinned inside the linear algebra. solve_poisson_phi is the
only code that checks a residual and refines; the backends solve once.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceNotMet
from .kahler import scalar_curvature, trace_ric0

DEFAULT_POISSON_TOL = 1e-10


class Normalization(enum.Enum):
    MEAN_ZERO = "MeanZeroAgainstOmegaPhi"
    EXP_MASS = "ExpMassEqualsVolume"


@dataclass(frozen=True)
class PoissonSolution:
    field: np.ndarray
    residual_linf: float
    compat_defect: float


def solve_poisson_phi(geom, state, rhs, normalization=Normalization.MEAN_ZERO,
                      poisson_tol=DEFAULT_POISSON_TOL):
    """Solve Delta_phi(u) = rhs - mean_phi(rhs) with the given normalization."""
    rhs = geom.check_field(rhs)
    if not rhs.any():
        # a zero RHS (P on a Ricci-flat reference): no quadrature, no solve
        return PoissonSolution(np.zeros(geom.shape), 0.0, 0.0)
    rho = state.rho
    vol_phi = geom.integrate(rho)
    raw_mass = geom.integrate(rhs, weight=rho)
    compat_defect = abs(raw_mass) / geom.volume
    projected = rhs - raw_mass / vol_phi

    if not projected.any():
        # a constant RHS projects to zero; the zero field meets both normalizations
        return PoissonSolution(np.zeros(geom.shape), 0.0, compat_defect)

    # the residual is applied to the solve's own coefficients: on the torus
    # one inverse transform, where applying ref_laplacian to u takes two
    u_hat = geom.solve_reference_poisson(projected * rho)
    residual = geom.ref_laplacian_from_coeffs(u_hat) / rho - projected
    residual_linf = float(np.max(np.abs(residual)))
    if residual_linf > poisson_tol:
        u_hat = u_hat - geom.solve_reference_poisson(residual * rho)
        residual = geom.ref_laplacian_from_coeffs(u_hat) / rho - projected
        residual_linf = float(np.max(np.abs(residual)))
        if residual_linf > poisson_tol:
            raise ToleranceNotMet(
                f"poisson residual {residual_linf:.3e} > tol {poisson_tol:.3e}")

    u = geom.from_coeffs(u_hat)
    if normalization is Normalization.MEAN_ZERO:
        u = u - geom.integrate(u, weight=rho) / vol_phi
    else:
        peak = float(np.max(u))
        mass = geom.integrate(np.exp(u - peak), weight=rho)
        u = u - (peak + np.log(mass / vol_phi))
    return PoissonSolution(field=u, residual_linf=residual_linf, compat_defect=compat_defect)


def solve_P(geom, state, poisson_tol=DEFAULT_POISSON_TOL):
    """PCF potential: Delta_phi(P) = rbar - tr_phi Ric(omega0), mean-zero.

    On a flat torus the RHS is identically zero: P is the zero field, with no quadrature.
    """
    rhs = geom.rbar - trace_ric0(geom, state)
    return solve_poisson_phi(geom, state, rhs, Normalization.MEAN_ZERO, poisson_tol)


def solve_ricci_potential(geom, state, poisson_tol=DEFAULT_POISSON_TOL):
    """Ricci potential: Delta_phi(h) = R(omega_phi) - lambda, exp-mass normalized.

    Needs an Einstein reference: the round sphere (lambda = 1) or a flat torus
    (lambda = 0); curved-reference tori have no Ricci potential in this gauge.
    """
    if geom.lambda_ke is None:
        raise ValueError("Ricci potential needs an Einstein reference "
                         "(round sphere or flat torus)")
    rhs = scalar_curvature(geom, state) - geom.lambda_ke
    return solve_poisson_phi(geom, state, rhs, Normalization.EXP_MASS, poisson_tol)
