"""Scalar functionals and monitored norms along the flow.

Conventions (complex dimension 1): entropy = int F omega_phi; K = entropy +
J_{-Ric(omega0)}, where J_chi integrates its variational formula delta J =
int dphi (tr_phi chi - chibar) omega_phi along t*phi: rho is affine in t, so
J_chi = <phi, chi>_chart - chibar * I, and for chi = -Ric(omega0) (chibar =
-Rbar) J_{-Ric} = <phi, -Ric0>_chart + Rbar * I; I = (1/2) int phi (rho + 1)
omega0; dissipation = int |grad_phi(F+P)|^2 omega_phi, a sum over the
coefficients of F + P (Parseval on the torus); Calabi energy = int (R - Rbar)^2
omega_phi, where Rbar is the class constant geom.lambda_ke. The L^p probes
are raw monitors, never asserted against constants. A trace record forms phi
once, for I and J, and transforms F once.
"""

from dataclasses import dataclass

from .elliptic import solve_P
from .errors import ConfigValidationError
from .kahler import scalar_curvature

DEFAULT_P_LIST = (1.0, 2.0, 4.0)


def entropy(geom, state):
    """int F omega_phi; >= 0 up to rounding since rho*log(rho) >= rho - 1."""
    return geom.integrate(state.big_f, weight=state.rho)


def k_energy_parts(geom, state):
    """(entropy, J_{-Ric}, I) of a validated state, phi formed once for J and I."""
    phi = state.phi
    i_value = _i_of(geom, state, phi)
    # this operand order keeps a flat torus's J_{-Ric} at +0.0, not -0.0
    j_neg_ric = geom.chart_integral(phi * -geom.ric0_density) + geom.lambda_ke * i_value
    return entropy(geom, state), j_neg_ric, i_value


def k_energy(geom, state):
    """K(phi) = entropy + J_{-Ric(omega0)}: its variation is int dphi (Rbar - R) w_phi."""
    ent, j, _ = k_energy_parts(geom, state)
    return ent + j


def dissipation(geom, state, P):
    """int |grad_phi(F + P)|^2 omega_phi >= 0, a sum over the coefficients of F + P."""
    return geom.dirichlet_energy_from_coeffs(geom.to_coeffs(geom.check_field(state.big_f + P)))


def i_functional(geom, state):
    """I(phi) = (1/2) int phi (rho + 1) omega0; its flow derivative is the entropy."""
    return _i_of(geom, state, state.phi)


def _i_of(geom, state, phi):
    """I of the state, whose phi the caller has formed."""
    return 0.5 * geom.integrate(phi * (state.rho + 1.0))


def calabi_energy(geom, state, big_f_hat=None):
    """int (R(omega_phi) - Rbar)^2 omega_phi >= 0; zero iff cscK on the grid."""
    deviation = scalar_curvature(geom, state, big_f_hat)  # a new field: squared in place
    deviation -= geom.lambda_ke
    deviation *= deviation
    return geom.integrate(deviation, weight=state.rho)


def check_p_list(p_list):
    """The probe rule: raise ConfigValidationError("output.p_list") unless
    p_list holds at least one exponent and each lies in [1, 8]."""
    if not p_list:
        raise ConfigValidationError("output.p_list", "needs at least one exponent")
    for p in p_list:
        if not 1.0 <= p <= 8.0:
            raise ConfigValidationError("output.p_list", f"probe exponent {p} outside [1, 8]")


def estimate_probes(geom, state, p_list=DEFAULT_P_LIST, big_f_hat=None):
    """Smoothing-rate monitors: p -> int |grad_phi F|^{2p} omega_phi and
    p -> int (tr_phi omega0)^{p+1} omega_phi, |grad_phi F|^2 = |F_z|^2/(sigma0 rho)."""
    check_p_list(p_list)
    if big_f_hat is None:
        big_f_hat = geom.to_coeffs(geom.check_field(state.big_f))
    gF = geom.grad_chart_sq_from_coeffs(big_f_hat)  # a new field: divided in place
    gF /= geom.sigma0 * state.rho
    lp_grad_F = {p: geom.integrate(gF ** p, weight=state.rho) for p in p_list}
    del gF  # freed before 1/rho is formed
    inv_rho = 1.0 / state.rho
    lp_trace0 = {p: geom.integrate(inv_rho ** (p + 1.0), weight=state.rho) for p in p_list}
    return lp_grad_F, lp_trace0


@dataclass(frozen=True)
class TraceRecord:
    """One monitoring row: every scalar the flow reports at a record time."""

    time: float
    dt: float
    sup_F: float
    inf_F: float
    sup_P: float
    entropy: float
    j_neg_ric: float
    k_energy: float
    i_functional: float
    dissipation: float
    calabi_energy: float
    rho_min: float
    volume: float
    poisson_residual: float
    lp_grad_F: dict
    lp_trace0: dict


def make_trace_record(geom, state, dt, p_list=DEFAULT_P_LIST):
    """Evaluate every monitored quantity at one state, with P by solve_P. The
    solved P is dropped once sup_P, its residual and the dissipation, a sum
    over the coefficients of F + P, are read, before the probes allocate."""
    ent, j, i_value = k_energy_parts(geom, state)  # phi is freed on return
    p_solution = solve_P(geom, state)
    sup_P = float(p_solution.field.max())
    poisson_residual = p_solution.residual_linf
    big_f_hat = geom.to_coeffs(geom.check_field(state.big_f))
    dissipation_value = geom.dirichlet_energy_from_coeffs(big_f_hat + p_solution.coeffs)
    del p_solution
    lp_grad_F, lp_trace0 = estimate_probes(geom, state, p_list, big_f_hat)
    return TraceRecord(
        time=state.time,
        dt=float(dt),
        sup_F=float(state.big_f.max()),
        inf_F=float(state.big_f.min()),
        sup_P=sup_P,
        entropy=ent,
        j_neg_ric=j,
        k_energy=ent + j,
        i_functional=i_value,
        dissipation=dissipation_value,
        calabi_energy=calabi_energy(geom, state, big_f_hat),
        rho_min=state.rho_min,
        volume=geom.integrate(state.rho),
        poisson_residual=poisson_residual,
        lp_grad_F=lp_grad_F,
        lp_trace0=lp_trace0,
    )
