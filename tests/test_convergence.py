"""Spatial convergence of the discrete flow: under grid refinement the
integrals a trace records converge at the order of the scheme's operators."""

import numpy as np

import pcflow as pf


def test_sphere_integrals_converge_at_second_order():
    # crosscheck_sphere's data (phi0 = 0.1 mu^2), semi-implicit at a fixed
    # dt = 2^-12 to t = 0.125, so the time error is the same at every nmu.
    # The Richardson ratio (e(n) - e(2n))/(e(2n) - e(4n)) needs no reference
    # solution; the flux-form operators are second order, and integrals (not
    # sup norms, which sample nodes) show it cleanly: orders 1.998 to 2.000
    config = pf.FlowConfig(scheme=pf.Scheme.SEMI_IMPLICIT, dt_init=2.0 ** -12, t_end=0.125,
                           record_every=2 ** 12)
    values = {}
    for nmu in (64, 128, 256, 512):
        geom = pf.SphereGeometry(nmu)
        trajectory = pf.run(geom, 0.1 * geom.mu ** 2, config)
        assert trajectory.terminated is pf.Termination.REACHED_T_END
        last = trajectory.records[-1]
        assert last.time == 0.125
        values[nmu] = np.array([last.k_energy, last.i_functional, last.dissipation,
                                last.calabi_energy])
    for nmu in (64, 128):
        ratio = (values[nmu] - values[2 * nmu]) / (values[2 * nmu] - values[4 * nmu])
        order = np.log2(ratio)
        assert np.all(np.abs(order - 2.0) <= 0.3), (nmu, order)
