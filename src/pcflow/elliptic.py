"""Normalized Poisson solves on the evolving metric, and their closed forms
on Kahler-Einstein references.

Every solve first projects the right-hand side onto the compatible range of
Delta_phi (its mean against omega_phi is removed), then inverts the chart
equation u_{z zbar} = rhs*sigma0*rho with the backend's direct solver, and
finally applies the requested normalization as a constant shift. The constant
nullspace is never pinned inside the linear algebra. solve_poisson_phi checks
the residual of a solve and refines once; the backends solve once.

On a Kahler-Einstein reference (Ric(omega0) = lambda*omega0, geom.lambda_ke
not None) Delta_phi(phi) = 1 - tr_phi(omega0), so P = lambda*(phi -
<phi>_phi) and the Ricci potential is -F - lambda*phi up to a constant. The
discrete operators keep that identity up to rounding (rho - 1 =
ref_laplacian(phi)), so closed_form_P and solve_ricci_potential solve
nothing: they check the identity's defect against poisson_tol instead of a
residual.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceNotMet
from .kahler import trace_ric0

DEFAULT_POISSON_TOL = 1e-10


class Normalization(enum.Enum):
    MEAN_ZERO = "MeanZeroAgainstOmegaPhi"
    EXP_MASS = "ExpMassEqualsVolume"


@dataclass(frozen=True)
class PoissonSolution:
    field: np.ndarray
    residual_linf: float
    compat_defect: float


def _normalize(geom, u, rho, vol_phi, normalization):
    """u shifted by the constant that the normalization fixes."""
    if normalization is Normalization.MEAN_ZERO:
        return u - geom.integrate(u, weight=rho) / vol_phi
    peak = float(np.max(u))
    mass = geom.integrate(np.exp(u - peak), weight=rho)
    return u - (peak + np.log(mass / vol_phi))


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
    # one inverse transform, where applying ref_laplacian to u takes two.
    # "not <=" so that a NaN residual fails the check too
    u_hat = geom.solve_reference_poisson(projected * rho)
    residual = geom.ref_laplacian_from_coeffs(u_hat) / rho - projected
    residual_linf = float(np.max(np.abs(residual)))
    if not residual_linf <= poisson_tol:
        u_hat = u_hat - geom.solve_reference_poisson(residual * rho)
        residual = geom.ref_laplacian_from_coeffs(u_hat) / rho - projected
        residual_linf = float(np.max(np.abs(residual)))
        if not residual_linf <= poisson_tol:
            raise ToleranceNotMet(
                f"poisson residual {residual_linf:.3e} > tol {poisson_tol:.3e}")

    u = _normalize(geom, geom.from_coeffs(u_hat), rho, vol_phi, normalization)
    return PoissonSolution(field=u, residual_linf=residual_linf, compat_defect=compat_defect)


def _closed_form(geom, state, u, normalization, poisson_tol):
    """Normalize a closed-form potential u on an Einstein reference.

    Its residual_linf is the defect sup|lambda*(rho - 1 - ref_laplacian(phi))/rho|
    of the identity it rests on, which raises ToleranceNotMet above poisson_tol;
    its compat_defect is |lambda|*|vol_phi - vol|/vol, that of the solved RHS.
    On a Ricci-flat reference both are 0.0 and phi is not read.
    """
    lam = geom.lambda_ke
    rho = state.rho
    vol_phi = geom.integrate(rho)
    defect_linf = 0.0
    if lam != 0.0:
        phi_lap = geom.ref_laplacian_from_coeffs(geom.to_coeffs(state.phi))
        defect_linf = float(np.max(np.abs(lam * (rho - 1.0 - phi_lap) / rho)))
        if not defect_linf <= poisson_tol:
            raise ToleranceNotMet(
                f"Einstein identity defect {defect_linf:.3e} > tol {poisson_tol:.3e}")
    compat_defect = abs(lam) * abs(vol_phi - geom.volume) / geom.volume
    return PoissonSolution(_normalize(geom, u, rho, vol_phi, normalization),
                           defect_linf, compat_defect)


def _require_einstein(geom, what):
    if geom.lambda_ke is None:
        raise ValueError(f"{what} needs an Einstein reference (round sphere or flat torus)")


def solve_P(geom, state, poisson_tol=DEFAULT_POISSON_TOL):
    """PCF potential by a Poisson solve: Delta_phi(P) = rbar - tr_phi Ric(omega0),
    mean-zero. The flow calls it off Einstein references, and trace records
    on every reference.

    On a flat torus the RHS is identically zero: P is the zero field, with no quadrature.
    """
    rhs = geom.rbar - trace_ric0(geom, state)
    return solve_poisson_phi(geom, state, rhs, Normalization.MEAN_ZERO, poisson_tol)


def closed_form_P(geom, state, poisson_tol=DEFAULT_POISSON_TOL):
    """PCF potential on an Einstein reference: lambda*(phi - <phi>_phi), the
    mean-zero P that solve_P solves for, with no solve.

    On a flat torus it is the zero field, with no quadrature; elsewhere it
    checks the identity's defect (see _closed_form).
    """
    _require_einstein(geom, "closed-form P")
    if geom.lambda_ke == 0.0:
        return PoissonSolution(np.zeros(geom.shape), 0.0, 0.0)
    return _closed_form(geom, state, geom.lambda_ke * state.phi, Normalization.MEAN_ZERO,
                        poisson_tol)


def solve_ricci_potential(geom, state, poisson_tol=DEFAULT_POISSON_TOL):
    """Ricci potential h, Delta_phi(h) = R(omega_phi) - lambda, exp-mass
    normalized: the closed form -F - lambda*phi, with no solve.

    Needs an Einstein reference: the round sphere (lambda = 1) or a flat torus
    (lambda = 0); curved-reference tori have no Ricci potential in this gauge.
    Off a flat torus it checks the identity's defect (see _closed_form).
    """
    _require_einstein(geom, "Ricci potential")
    u = -state.big_f
    if geom.lambda_ke != 0.0:
        u = u - geom.lambda_ke * state.phi
    return _closed_form(geom, state, u, Normalization.EXP_MASS, poisson_tol)
