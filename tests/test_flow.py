"""Time integration: right-hand sides, steppers, the run loop, checkpoints."""

import functools
import logging
import os
import struct
import threading
import zlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

import pcflow as pf
from pcflow import flow as flow_mod
from conftest import TWO_PI, random_torus_phi, random_valid_state

DYADIC = 2.0 ** -8


def flat64():
    return pf.TorusGeometry(64, 64, TWO_PI)


def bumpy64():
    return pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.2)])


def sphere64():
    return pf.SphereGeometry(64)


def zero_state(geom):
    return pf.validate_kahler(geom, np.zeros(geom.shape))


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def test_pcf_rhs_flat_is_big_f():
    geom = flat64()
    rng = np.random.default_rng(50)
    state = random_valid_state(geom, rng)
    rhs = pf.pcf_rhs(geom, state)
    assert np.all(pf.closed_form_P(geom, state) == 0.0)
    assert np.all(rhs == state.big_f)


def test_pcf_rhs_sphere_closed_form():
    geom = pf.SphereGeometry(128)
    state = pf.validate_kahler(geom, 0.05 * np.cos(np.pi * geom.mu))
    rhs = pf.pcf_rhs(geom, state)
    avg = (geom.integrate(state.phi, weight=state.rho)
           / geom.integrate(np.ones(geom.shape), weight=state.rho))
    assert np.max(np.abs(rhs - (state.big_f + state.phi - avg))) <= 1e-8


def test_rhs_stationary_points():
    sphere = pf.SphereGeometry(128)
    rhs = pf.pcf_rhs(sphere, zero_state(sphere))
    assert np.max(np.abs(rhs)) <= 1e-12
    rhs = pf.nkrf_rhs(sphere, zero_state(sphere))
    assert np.max(np.abs(rhs)) <= 1e-12
    flat = flat64()
    rhs = pf.nkrf_rhs(flat, zero_state(flat))
    assert np.max(np.abs(rhs)) <= 1e-12


def test_nkrf_rhs_is_neg_ricci_potential():
    geom = pf.SphereGeometry(128)
    state = pf.validate_kahler(geom, 0.1 * geom.mu ** 2)
    rhs = pf.nkrf_rhs(geom, state)
    h = pf.solve_ricci_potential(geom, state)
    assert np.all(rhs == -h)
    assert np.all(h == pf.solve_ricci_potential(geom, state))


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

def test_steppers_fix_stationary_states():
    for geom in (flat64(), pf.SphereGeometry(128)):
        state = zero_state(geom)
        for stepper in (pf.rk4_step, pf.semi_implicit_step):
            out = stepper(geom, state, 0.01)
            assert np.all(out.phi == state.phi)
            assert out.time == state.time + 0.01


def test_rk4_local_order():
    geom = flat64()
    state = pf.validate_kahler(geom, 0.5 * np.cos(geom.x))
    rhs = pf.pcf_rhs(geom, state)
    errs = []
    for dt in (1e-3, 5e-4):
        stepped = pf.rk4_step(geom, state, dt)
        euler = state.phi + dt * rhs
        errs.append(float(np.max(np.abs(stepped.phi - euler))))
    ratio = errs[0] / errs[1]
    # ||step(dt) - (phi + dt*rhs)|| = O(dt^2): halving dt quarters the gap
    assert 3.7 <= ratio <= 4.3


def test_rk4_rejects_cone_exit_with_stage():
    geom = flat64()
    state = pf.validate_kahler(geom, 0.5 * np.cos(geom.x))

    def explosive(geom_, state_):
        return 1.0e3 * np.cos(geom_.x)

    with pytest.raises(pf.NotKahler) as err:
        pf.rk4_step(geom, state, 1.0, rhs=explosive)
    assert err.value.stage is not None


@functools.cache
def rk4_global_order_ratios():
    """Self-convergence of full RK4 trajectories on a stiff flat-torus field.

    Returns consecutive error ratios against a dt/16 reference at t = 0.2;
    fourth order puts them near 16.
    """
    geom = flat64()
    phi0 = (0.3 * np.cos(geom.x) + 0.15 * np.cos(2.0 * geom.x + 0.5)
            + 0.06 * np.cos(3.0 * geom.y) + 0.02 * np.cos(4.0 * (geom.x + geom.y)))
    t_end = 0.2

    def advance(dt):
        state = pf.validate_kahler(geom, phi0)
        steps = round(t_end / dt)
        for _ in range(steps):
            state = pf.rk4_step(geom, state, dt)
        return state.phi

    reference = advance(1e-3 / 16.0)
    errs = [float(np.max(np.abs(advance(dt) - reference)))
            for dt in (4e-3, 2e-3, 1e-3)]
    return errs[0] / errs[1], errs[1] / errs[2]


def test_rk4_global_order():
    for ratio in rk4_global_order_ratios():
        assert np.log2(ratio) >= 3.7


def test_semi_implicit_matches_rk4_to_first_order():
    # the cross-scheme gap is O(dt): halving dt roughly halves it,
    # exercised on a curved reference, where L0 = f_{z zbar}/min(sigma0)
    # differs from ref_laplacian
    geom = bumpy64()
    phi0 = 0.3 * np.cos(geom.x)
    t_end = 2.0 ** -4

    def advance(stepper, dt):
        state = pf.validate_kahler(geom, phi0)
        for _ in range(round(t_end / dt)):
            state = stepper(geom, state, dt)
        return state.phi

    reference = advance(pf.rk4_step, 2.0 ** -10)
    gap_coarse = float(np.max(np.abs(advance(pf.semi_implicit_step, 2.0 ** -6) - reference)))
    gap_fine = float(np.max(np.abs(advance(pf.semi_implicit_step, 2.0 ** -7) - reference)))
    assert 1.5 <= gap_coarse / gap_fine <= 2.5


def test_semi_implicit_survives_large_steps():
    geom = flat64()
    phi0 = 0.5 * np.cos(geom.x)
    state = pf.validate_kahler(geom, phi0)
    big = 50.0 * pf.suggest_dt(geom, state)
    config = pf.FlowConfig(scheme=pf.Scheme.SEMI_IMPLICIT, dt_init=big,
                           t_end=10.0 * big, record_every=5)
    trajectory = pf.run(geom, phi0, config)
    assert trajectory.terminated is pf.Termination.REACHED_T_END


def test_nkrf_gauge_invariance():
    geom = pf.SphereGeometry(128)
    state = pf.validate_kahler(geom, 0.1 * geom.mu ** 2)
    shift = 0.5

    def base(geom_, state_):
        return pf.nkrf_rhs(geom_, state_)

    def shifted(geom_, state_):
        return pf.nkrf_rhs(geom_, state_) - shift

    a = pf.rk4_step(geom, state, 1e-3, rhs=base)
    b = pf.rk4_step(geom, state, 1e-3, rhs=shifted)
    # only the potential gauge moves; the metric density does not
    assert np.max(np.abs(a.rho - b.rho)) < 1e-12
    assert np.max(np.abs((b.phi - a.phi) + shift * 1e-3)) < 1e-12


# ---------------------------------------------------------------------------
# suggest_dt
# ---------------------------------------------------------------------------

def test_suggest_dt_reference_value():
    geom = pf.TorusGeometry(256, 256, TWO_PI)
    state = zero_state(geom)
    expected = 0.2 * (TWO_PI / 256) ** 2 * 4.0
    got = pf.suggest_dt(geom, state, cfl=0.2)
    assert abs(got - expected) <= 1e-18
    assert abs(got - 4.819142773969413e-4) <= 1e-15


def test_suggest_dt_scalings():
    coarse = pf.TorusGeometry(128, 128, TWO_PI)
    fine = pf.TorusGeometry(256, 256, TWO_PI)
    ratio = (pf.suggest_dt(coarse, zero_state(coarse))
             / pf.suggest_dt(fine, zero_state(fine)))
    assert abs(ratio - 4.0) <= 1e-12

    half = pf.TorusGeometry(128, 128, TWO_PI, [(1, 0, -0.5)])
    ratio = (pf.suggest_dt(half, zero_state(half))
             / pf.suggest_dt(coarse, zero_state(coarse)))
    assert abs(ratio - 0.5) <= 1e-12


def test_sphere_rk4_at_its_heat_cap_is_stable(caplog):
    # cfl 1.0, the largest a config allows: RK4 at the sphere's cap takes no
    # rejected step and stays smooth. Measured: no rejection and a final sup_F
    # of 0.1442; a cap twice as large makes 58 rejections and ends at 0.285
    geom = pf.SphereGeometry(128)
    phi0 = 0.1 * geom.mu ** 2 + 0.02 * np.cos(3.0 * np.pi * geom.mu)
    config = pf.FlowConfig(cfl=1.0, t_end=0.05, record_every=1000)
    with caplog.at_level(logging.INFO, logger="pcflow"):
        trajectory = pf.run(geom, phi0, config)
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    assert [r.message for r in caplog.records if "step rejected" in r.message] == []
    assert trajectory.records[-1].sup_F <= 0.15


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def test_run_stationary_records_identical():
    from dataclasses import replace
    geom = flat64()
    config = pf.FlowConfig(dt_init=DYADIC, t_end=60.0 * DYADIC, record_every=20)
    trajectory = pf.run(geom, np.zeros(geom.shape), config)
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    assert len(trajectory.records) == 4
    first = trajectory.records[0]
    for rec in trajectory.records[1:]:
        assert replace(rec, time=first.time) == first
    for state in trajectory.states:
        assert np.all(state.phi == 0.0)


def test_run_trajectory_contract():
    geom = bumpy64()
    config = pf.FlowConfig(t_end=0.3, record_every=10)
    trajectory = pf.run(geom, 0.3 * np.cos(geom.x), config)
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    times = [r.time for r in trajectory.records]
    assert times == sorted(times)
    assert len(set(times)) == len(times)
    assert times[0] == 0.0
    assert times[-1] == 0.3
    for state in trajectory.states:
        assert float(np.min(state.rho)) > 0.05
        assert state.time <= 0.3


def test_run_monotone_energies_and_conservation():
    geom = bumpy64()
    config = pf.FlowConfig(t_end=0.3, record_every=10)
    trajectory = pf.run(geom, 0.3 * np.cos(geom.x), config)
    records = trajectory.records
    vol0 = records[0].volume
    for a, b in zip(records, records[1:]):
        assert b.k_energy <= a.k_energy + 1e-8 * (1.0 + abs(a.k_energy))
        assert b.i_functional >= a.i_functional - 1e-8
    for rec in records:
        assert rec.entropy >= -1e-12
        assert abs(rec.volume - vol0) <= 1e-8 * vol0
        assert rec.poisson_residual <= 1e-10
    # the P normalization holds at every recorded state
    for state in trajectory.states:
        sol = pf.solve_P(geom, state)
        mean = geom.integrate(sol.field, weight=state.rho) / geom.volume
        assert abs(mean) <= 1e-10


def test_run_flat_relaxation_decays():
    geom = flat64()
    config = pf.FlowConfig(t_end=2.0, record_every=50)
    trajectory = pf.run(geom, 0.5 * np.cos(geom.x), config)
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    sup0 = max(trajectory.records[0].sup_F, -trajectory.records[0].inf_F)
    sup1 = max(trajectory.records[-1].sup_F, -trajectory.records[-1].inf_F)
    # the k=1 mode on this side length relaxes at unit rate over 4t:
    # exp(-0.5) ~ 0.61 by t = 2, so 0.65 leaves margin without being vacuous
    assert sup1 < 0.65 * sup0


@pytest.mark.parametrize("flow_kind", [pf.FlowKind.PCF, pf.FlowKind.NKRF])
def test_mobius_round_metric_is_a_fixed_point(flow_kind):
    # phi = 2 log(1 + (a^2 - 1) mu) pulls the round metric back by z -> a z:
    # omega_phi is round, with the non-constant density a^2/(1 - mu + a^2 mu)^2,
    # so both flows leave rho fixed (every round metric is a fixed point of
    # the normalized Ricci flow on surfaces). The drift of rho is the flux-form
    # stencil's discretization error, second order in 1/nmu: measured
    # 4.2e-4 at nmu 128 and 1.1e-4 at 256 for a^2 = 4
    drifts = []
    for nmu in (128, 256):
        geom = pf.SphereGeometry(nmu)
        config = pf.FlowConfig(scheme=pf.Scheme.SEMI_IMPLICIT, dt_init=DYADIC, t_end=1.0,
                               record_every=256, flow_kind=flow_kind)
        trajectory = pf.run(geom, 2.0 * np.log(1.0 + 3.0 * geom.mu), config)
        assert trajectory.terminated is pf.Termination.REACHED_T_END
        first, last = trajectory.states[0], trajectory.states[-1]
        assert (first.time, last.time) == (0.0, 1.0)
        drifts.append(float(np.max(np.abs(last.rho - first.rho))))
    assert drifts[0] <= 1e-3
    assert np.log2(drifts[0] / drifts[1]) >= 1.8


def test_run_pcf_nkrf_agree_on_flat_torus():
    geom = flat64()
    phi0 = 0.3 * np.cos(geom.x)
    base = dict(dt_init=DYADIC, t_end=0.2, record_every=8)
    a = pf.run(geom, phi0, pf.FlowConfig(flow_kind=pf.FlowKind.PCF, **base))
    b = pf.run(geom, phi0, pf.FlowConfig(flow_kind=pf.FlowKind.NKRF, **base))
    assert len(a.states) == len(b.states)
    for sa, sb in zip(a.states, b.states):
        assert sa.time == sb.time
        assert np.max(np.abs(sa.rho - sb.rho)) <= 1e-10


@pytest.mark.parametrize("name", ["dt_init", "t_end", "rho_floor", "max_halvings"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_flow_config_rejects_non_finite(name, value):
    # t_end = inf used to run one step to t = inf and report ReachedTEnd
    with pytest.raises(pf.ConfigValidationError) as err:
        pf.FlowConfig(**{name: value})
    assert err.value.key == f"flow.{name}"


def test_run_rejects_initial_below_flow_floor():
    geom = flat64()
    phi0 = 0.96 * np.cos(2.0 * geom.x)  # min rho = 0.04, below the 0.05 floor
    trajectory = pf.run(geom, phi0, pf.FlowConfig(t_end=1.0))
    assert trajectory.terminated is pf.Termination.NOT_KAHLER
    assert trajectory.states == []
    assert trajectory.records == []


@pytest.mark.parametrize("build, flow_kind, start_time, key", [
    (bumpy64, pf.FlowKind.NKRF, 0.0, "flow.kind"),
    (flat64, pf.FlowKind.PCF, 1.0, "flow.t_end"),
    (flat64, pf.FlowKind.PCF, 1.5, "flow.t_end"),
    (flat64, pf.FlowKind.PCF, float("nan"), "flow.t_end"),
], ids=["nkrf_on_curved_torus", "start_at_t_end", "start_past_t_end", "start_nan"])
def test_run_checks_preconditions_before_any_work(monkeypatch, build, flow_kind, start_time,
                                                  key):
    def no_work(*args, **kwargs):
        raise AssertionError("run() did work before checking its preconditions")

    for name in ("validate_kahler", "state_from_coeffs", "make_trace_record"):
        monkeypatch.setattr(flow_mod, name, no_work)
    geom = build()
    config = pf.FlowConfig(t_end=1.0, flow_kind=flow_kind)
    with pytest.raises(pf.ConfigValidationError) as err:
        pf.run(geom, 0.1 * np.cos(geom.x), config, start_time=start_time)
    assert err.value.key == key


@pytest.mark.parametrize("build, p_list, threads, key", [
    (flat64, (1.0, 9.0), None, "output.p_list"),
    (sphere64, (0.5,), None, "output.p_list"),
    (flat64, (1.0,), "0", "PCFLOW_THREADS"),
    (sphere64, (1.0,), "two", "PCFLOW_THREADS"),
], ids=["exponent_above_8", "exponent_below_1", "threads_zero", "threads_not_integer"])
def test_run_checks_probes_and_thread_cap_before_any_work(monkeypatch, build, p_list,
                                                          threads, key):
    # a bad exponent would otherwise surface only when a record is collected,
    # after steps have run; an invalid PCFLOW_THREADS is refused on a sphere
    # too, whose records never leave the calling thread
    def no_work(*args, **kwargs):
        raise AssertionError("run() did work before checking its preconditions")

    for name in ("validate_kahler", "state_from_coeffs", "make_trace_record"):
        monkeypatch.setattr(flow_mod, name, no_work)
    if threads is not None:
        monkeypatch.setenv("PCFLOW_THREADS", threads)
    geom = build()
    with pytest.raises(pf.ConfigValidationError) as err:
        pf.run(geom, np.zeros(geom.shape), pf.FlowConfig(t_end=1.0), p_list=p_list)
    assert err.value.key == key
    if key == "output.p_list":
        assert str(err.value) == f"output.p_list: probe exponent {p_list[-1]} outside [1, 8]"


@pytest.mark.parametrize("build, shape, expected", [
    (lambda: pf.TorusGeometry(32, 32, TWO_PI), (32, 16), (32, 17)),
    (lambda: pf.TorusGeometry(32, 32, TWO_PI), (16, 17), (32, 17)),
    (lambda: pf.TorusGeometry(32, 32, TWO_PI), (32, 32), (32, 17)),
    (sphere64, (65,), (64,)),
], ids=["torus_half_axis", "torus_full_axis", "torus_field_shape", "sphere_one_more"])
def test_run_checks_start_coeffs_shape_before_any_work(monkeypatch, build, shape, expected):
    # checked up front, a wrong shape cannot reach the first transform, where
    # it would raise numpy's broadcast error
    def no_work(*args, **kwargs):
        raise AssertionError("run() did work before checking its preconditions")

    for name in ("validate_kahler", "state_from_coeffs", "make_trace_record"):
        monkeypatch.setattr(flow_mod, name, no_work)
    geom = build()
    dtype = complex if geom.coeffs_shape is not None else float
    with pytest.raises(pf.ShapeError) as err:
        pf.run(geom, np.zeros(geom.shape), pf.FlowConfig(t_end=1.0),
               start_coeffs=np.zeros(shape, dtype=dtype))
    assert str(err.value) == f"start_coeffs shape {shape} != {expected}"
    monkeypatch.undo()
    # the shape it names is the one a run resumes from
    trajectory = pf.run(geom, np.zeros(geom.shape), pf.FlowConfig(t_end=2.0 ** -8),
                        start_coeffs=np.zeros(expected, dtype=dtype))
    assert trajectory.terminated is pf.Termination.REACHED_T_END


def test_thread_cap_defaults_to_usable_cores(monkeypatch):
    monkeypatch.delenv("PCFLOW_THREADS", raising=False)
    assert flow_mod.thread_cap() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("PCFLOW_THREADS", "3")
    assert flow_mod.thread_cap() == 3


def test_thread_cap_without_sched_getaffinity(monkeypatch):
    # os.sched_getaffinity exists on Linux only; elsewhere the cap is the cores
    monkeypatch.delenv("PCFLOW_THREADS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert flow_mod.thread_cap() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert flow_mod.thread_cap() == 1


def test_worker_records_run_under_the_callers_numpy_error_state(monkeypatch):
    monkeypatch.setenv("PCFLOW_THREADS", "2")
    real_record, seen = flow_mod.make_trace_record, []

    def watched_record(*args, **kwargs):
        seen.append((threading.current_thread() is threading.main_thread(),
                     np.geterr()["invalid"]))
        return real_record(*args, **kwargs)

    monkeypatch.setattr(flow_mod, "make_trace_record", watched_record)
    geom = bumpy128()
    config = pf.FlowConfig(dt_init=2.0 ** -10, t_end=2.0 ** -10, record_every=1)
    with np.errstate(invalid="raise"):
        pf.run(geom, 0.3 * np.cos(geom.x), config)
    assert seen == [(False, "raise")] * 2


def test_records_go_off_thread_on_tori_of_2_14_nodes_and_up():
    assert not pf.TorusGeometry(64, 128, TWO_PI).records_off_thread
    assert pf.TorusGeometry(128, 128, TWO_PI).records_off_thread
    assert pf.TorusGeometry(256, 64, TWO_PI, [(1, 0, 0.2)]).records_off_thread
    assert not pf.SphereGeometry(16384).records_off_thread


def bumpy128():
    return pf.TorusGeometry(128, 128, TWO_PI, [(1, 0, 0.2)])


@pytest.mark.parametrize("scheme", [pf.Scheme.RK4, pf.Scheme.SEMI_IMPLICIT])
def test_worker_records_match_inline_records(monkeypatch, scheme):
    # with a cap above 1 the records of a 128^2 torus are made on one worker
    # thread, one at a time and in order, and are the inline records bitwise
    geom = bumpy128()
    phi0 = 0.3 * np.cos(geom.x) + 0.05 * np.sin(2.0 * geom.y)
    config = pf.FlowConfig(scheme=scheme, dt_init=2.0 ** -10, t_end=6.0 * 2.0 ** -10,
                           record_every=1)
    stepper_name = "rk4_step" if scheme is pf.Scheme.RK4 else "semi_implicit_step"
    real_record, real_step = flow_mod.make_trace_record, getattr(flow_mod, stepper_name)
    threads, done, steps = [], [], []

    def watched_record(*args, **kwargs):
        threads.append(threading.current_thread())
        record = real_record(*args, **kwargs)
        done.append(record.time)
        return record

    def watched_step(*args, **kwargs):
        # step m starts after the record of state m - 1 was submitted, which
        # collected the record of state m - 2 first: one record in flight
        steps.append(1)
        assert len(done) >= len(steps) - 1
        return real_step(*args, **kwargs)

    monkeypatch.setattr(flow_mod, "make_trace_record", watched_record)
    monkeypatch.setattr(flow_mod, stepper_name, watched_step)
    runs = {}
    for cap in ("1", "2"):
        monkeypatch.setenv("PCFLOW_THREADS", cap)
        for log in (threads, done, steps):
            log.clear()
        runs[cap] = pf.run(geom, phi0, config)
        assert len(threads) == len(runs[cap].records) == 7
        assert [t is threading.main_thread() for t in threads] == [cap == "1"] * 7
    inline, worker = runs["1"], runs["2"]
    assert worker.terminated is inline.terminated is pf.Termination.REACHED_T_END
    assert worker.records == inline.records
    assert [r.time for r in worker.records] == [k * 2.0 ** -10 for k in range(7)]
    for a, b in zip(worker.states, inline.states):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_sparse_records_stay_inline(monkeypatch):
    # with records sparser than one in RECORD_EVERY_OFF_THREAD steps the worker
    # would save a few percent at most and cost its arena's resident memory
    monkeypatch.setenv("PCFLOW_THREADS", "2")
    real_record, threads = flow_mod.make_trace_record, []

    def watched_record(*args, **kwargs):
        threads.append(threading.current_thread())
        return real_record(*args, **kwargs)

    monkeypatch.setattr(flow_mod, "make_trace_record", watched_record)
    geom = bumpy128()
    limit = flow_mod.RECORD_EVERY_OFF_THREAD
    for every, on_main in ((limit, False), (limit + 1, True)):
        threads.clear()
        config = pf.FlowConfig(dt_init=2.0 ** -10, t_end=2.0 ** -10, record_every=every)
        assert len(pf.run(geom, 0.3 * np.cos(geom.x), config).records) == 2
        assert [t is threading.main_thread() for t in threads] == [on_main] * 2


def test_worker_record_failure_comes_before_a_later_step_failure(monkeypatch):
    # the record of the first state fails on the worker while the first step
    # fails on the calling thread: run() raises the record's exception, the
    # one the inline path meets first
    monkeypatch.setenv("PCFLOW_THREADS", "2")
    record_failure = pf.ToleranceNotMet("poisson residual forced")

    def failing_record(*args, **kwargs):
        raise record_failure

    def failing_step(*args, **kwargs):
        raise pf.ShapeError("field contains non-finite entries")

    monkeypatch.setattr(flow_mod, "make_trace_record", failing_record)
    monkeypatch.setattr(flow_mod, "rk4_step", failing_step)
    geom, config = bumpy128(), pf.FlowConfig(t_end=1.0, record_every=1)
    with pytest.raises(pf.ToleranceNotMet) as err:
        pf.run(geom, 0.3 * np.cos(geom.x), config)
    assert err.value is record_failure
    monkeypatch.setenv("PCFLOW_THREADS", "1")
    with pytest.raises(pf.ToleranceNotMet):
        pf.run(geom, 0.3 * np.cos(geom.x), config)


def test_run_records_honour_configured_rho_floor():
    # min rho = 5e-7 lies between the configured floor and the 1e-6 floor of
    # the public j_chi_path; the trace records must use the run's own floor
    geom = pf.TorusGeometry(32, 32, TWO_PI)
    phi0 = 4.0 * (1.0 - 5e-7) * np.cos(geom.x)
    config = pf.FlowConfig(rho_floor=1e-7, t_end=1e-9, dt_init=1e-10)
    trajectory = pf.run(geom, phi0, config)
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    assert trajectory.records
    assert all(record.rho_min < 1e-6 for record in trajectory.records)


def test_run_step_floor_hit(monkeypatch):
    geom = flat64()
    attempts = []

    def always_rejects(geom_, state_, dt, *args, **kwargs):
        attempts.append(dt)
        raise pf.NotKahler(0.0, stage=2)

    monkeypatch.setattr(flow_mod, "rk4_step", always_rejects)
    config = pf.FlowConfig(dt_init=DYADIC, t_end=1.0, max_halvings=3)
    trajectory = pf.run(geom, 0.1 * np.cos(geom.x), config)
    assert trajectory.terminated is pf.Termination.STEP_FLOOR_HIT
    assert len(attempts) == 4  # dt_init plus max_halvings halvings
    assert attempts[-1] == DYADIC / 8.0
    assert len(trajectory.records) == 1  # the initial record remains


def test_run_step_floor_record_carries_last_step_dt(monkeypatch):
    # step 1 is taken with dt_init, step 2 only after one halving, and every
    # attempt at step 3 fails: the terminal record is the state of step 2
    geom = flat64()
    real_step = flow_mod.semi_implicit_step
    attempts = []

    def flaky(geom_, state_, dt, *args, **kwargs):
        attempts.append(dt)
        if len(attempts) == 2 or len(attempts) > 3:
            raise pf.ToleranceNotMet("forced")
        return real_step(geom_, state_, dt, *args, **kwargs)

    monkeypatch.setattr(flow_mod, "semi_implicit_step", flaky)
    config = pf.FlowConfig(scheme=pf.Scheme.SEMI_IMPLICIT, dt_init=DYADIC, t_end=1.0,
                           max_halvings=2, record_every=10)
    trajectory = pf.run(geom, 0.1 * np.cos(geom.x), config)
    assert trajectory.terminated is pf.Termination.STEP_FLOOR_HIT
    assert [r.time for r in trajectory.records] == [0.0, 1.5 * DYADIC]
    assert trajectory.records[-1].dt == 0.5 * DYADIC


def test_run_takes_no_sliver_step(tmp_path):
    # 300 additions of 0.005 stop 1e-14 short of 1.5; that remainder is
    # rounding and must not become a 301st step
    geom = flat64()
    phi0 = 0.3 * np.cos(geom.x) + 0.1 * np.cos(2.0 * geom.y)
    config = pf.FlowConfig(scheme=pf.Scheme.SEMI_IMPLICIT, dt_init=0.005, t_end=1.5,
                           record_every=1)
    full = pf.run(geom, phi0, config)
    assert full.terminated is pf.Termination.REACHED_T_END
    assert len(full.records) == 301
    assert all(r.dt == 0.005 for r in full.records)
    assert full.states[-1].time == 1.5

    half = pf.run(geom, phi0, replace(config, t_end=0.75, record_every=150))
    path = tmp_path / "half.ckpt"
    pf.write_checkpoint(path, geom, half.states[-1])
    meta = pf.read_checkpoint(path)
    resumed = pf.run(geom, meta["phi"], replace(config, record_every=150),
                     start_time=meta["time"], start_coeffs=meta["coeffs"])
    assert resumed.states[-1].time == 1.5
    assert np.all(resumed.states[-1].phi == full.states[-1].phi)
    # the run steps phi's coefficients, which the real phi alone returns
    # only to rounding
    real_only = pf.run(geom, meta["phi"], replace(config, record_every=150),
                       start_time=meta["time"])
    assert real_only.states[-1].time == 1.5
    assert float(np.max(np.abs(real_only.states[-1].phi - full.states[-1].phi))) <= 1e-14


def test_run_takes_a_short_last_step_above_rounding():
    # t_end = 1 + 1e-11 in steps of 2^-10: the 1e-11 left after 1024 steps is
    # far above the rounding of their sum (about 2.3e-13), so a 1025th step of
    # that length ends the run. A rounding window 1000 times as wide swallows
    # it, and the run ends after 1024 steps
    geom = pf.SphereGeometry(32)
    config = pf.FlowConfig(scheme=pf.Scheme.SEMI_IMPLICIT, dt_init=2.0 ** -10,
                           t_end=1.0 + 1e-11, record_every=1)
    trajectory = pf.run(geom, 0.1 * geom.mu ** 2, config)
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    assert len(trajectory.records) == 1026  # the initial state and 1025 steps
    assert abs(trajectory.records[-1].dt - 1e-11) <= 1e-15
    assert trajectory.states[-1].time == config.t_end


def test_run_semi_implicit_curved_torus_takes_dt_init():
    # sigma0 in [0.1, 1.9]: the shifted solve is direct on a curved torus
    # too, so a step of dt*c = 0.5 / min(rho) is taken without halving
    geom = pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.9)])
    config = pf.FlowConfig(scheme=pf.Scheme.SEMI_IMPLICIT, dt_init=0.5, t_end=0.5,
                           record_every=1)
    trajectory = pf.run(geom, 0.05 * np.cos(geom.x), config)
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    assert len(trajectory.records) == 2
    assert trajectory.records[1].dt == 0.5
    assert trajectory.states[-1].time == 0.5


def test_curved_torus_flows_to_its_flat_metric():
    # every torus class holds a flat metric, sigma0*rho = 1: with
    # sigma0 = 1 + sum a_k cos(k.x), phi_inf = sum 4 a_k/|k|^2 cos(k.x) solves
    # phi_{z zbar} = 1 - sigma0 up to a constant. Measured 2.8e-7 and 2.2e-6
    geom = pf.TorusGeometry(64, 64, TWO_PI, [(1, 0, 0.3), (1, 2, 0.1)])
    config = pf.FlowConfig(scheme=pf.Scheme.SEMI_IMPLICIT, dt_init=2.0 ** -6, t_end=56.0,
                           record_every=4096)
    trajectory = pf.run(geom, 0.2 * np.cos(geom.x) * np.sin(geom.y), config)
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    final = trajectory.states[-1]
    assert final.time == 56.0
    assert np.max(np.abs(geom.sigma0 * final.rho - 1.0)) <= 1e-6
    phi_inf = sum(4.0 * a / (kx * kx + ky * ky) * np.cos(kx * geom.x + ky * geom.y)
                  for kx, ky, a in geom.sigma0_modes)
    assert np.ptp(final.phi - phi_inf) <= 1e-5


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(51)
    torus = bumpy64()
    state = pf.validate_kahler(torus, random_torus_phi(torus, rng), time=0.375)
    path = tmp_path / "state.ckpt"
    pf.write_checkpoint(path, torus, state)
    meta = pf.read_checkpoint(path)
    assert meta["kind"] == "torus"
    assert meta["time"] == 0.375
    # a torus checkpoint keeps the coefficients a run resumes from, and phi
    # reads back as the state forms it from them
    assert np.all(meta["coeffs"] == state.coeffs)
    assert np.all(meta["phi"] == state.phi)

    sphere = pf.SphereGeometry(128)
    state = pf.validate_kahler(sphere, 0.1 * sphere.mu ** 2, time=1.5)
    path2 = tmp_path / "sphere.ckpt"
    pf.write_checkpoint(path2, sphere, state)
    meta = pf.read_checkpoint(path2)
    assert meta["kind"] == "sphere"
    assert np.all(meta["phi"] == state.phi)


def pack_checkpoint(payload):
    """A CRC-valid checkpoint file around a hand-packed payload."""
    return b"PCF1" + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def test_checkpoint_detects_corruption(tmp_path):
    geom = flat64()
    state = pf.validate_kahler(geom, 0.1 * np.cos(geom.x))
    path = tmp_path / "state.ckpt"
    pf.write_checkpoint(path, geom, state)
    blob = bytearray(path.read_bytes())

    flipped = tmp_path / "flipped.ckpt"
    blob2 = bytearray(blob)
    blob2[len(blob2) // 2] ^= 0xFF
    flipped.write_bytes(bytes(blob2))
    with pytest.raises(pf.CheckpointError):
        pf.read_checkpoint(flipped)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(bytes(blob[:-10]))
    with pytest.raises(pf.CheckpointError):
        pf.read_checkpoint(truncated)

    renamed = tmp_path / "magic.ckpt"
    blob3 = bytearray(blob)
    blob3[:4] = b"XYZ0"
    renamed.write_bytes(bytes(blob3))
    with pytest.raises(pf.CheckpointError):
        pf.read_checkpoint(renamed)

    for version, tag in ((3, 0), (1, 1)):  # CRC-valid, but the header ends 8 bytes
        short = tmp_path / f"short{tag}.ckpt"  # after the kind byte
        short.write_bytes(pack_checkpoint(struct.pack("<IBQ", version, tag, 64)))
        with pytest.raises(pf.CheckpointError, match="truncated header"):
            pf.read_checkpoint(short)

    for nx, ny in ((0, 64), (64, 0)):  # CRC-valid version 3, but a grid axis is empty
        empty = tmp_path / f"empty{nx}x{ny}.ckpt"
        empty.write_bytes(pack_checkpoint(struct.pack("<IBQQdd", 3, 0, nx, ny, TWO_PI, 0.0)
                                          + bytes(16 * nx * (ny // 2 + 1))))
        with pytest.raises(pf.CheckpointError, match=rf"grid \({nx}, {ny}\)"):
            pf.read_checkpoint(empty)


def test_checkpoint_layout_is_pinned(tmp_path):
    # the layout of the checkpoint module docstring, packed by hand: a torus
    # state is written as version 3, phi's coefficients alone
    torus = bumpy64()
    state = pf.validate_kahler(torus, 0.1 * np.cos(torus.x), time=0.375)
    expected = pack_checkpoint(struct.pack("<IB", 3, 0) + struct.pack("<QQd", 64, 64, TWO_PI)
                               + struct.pack("<d", 0.375) + state.coeffs.astype("<c16").tobytes())
    pf.write_checkpoint(tmp_path / "torus.ckpt", torus, state)
    assert (tmp_path / "torus.ckpt").read_bytes() == expected
    meta = pf.read_checkpoint(tmp_path / "torus.ckpt")
    assert meta["time"] == 0.375
    assert meta["coeffs"].dtype == complex and np.array_equal(meta["coeffs"], state.coeffs)
    assert np.array_equal(meta["phi"], torus.from_coeffs(state.coeffs))
    assert np.array_equal(meta["phi"], scipy.fft.irfft2(state.coeffs, s=torus.shape))

    # each backend reads only the version it writes: a version-1 torus file,
    # phi alone, is not read
    path = tmp_path / "torus_v1.ckpt"
    path.write_bytes(pack_checkpoint(struct.pack("<IB", 1, 0) + struct.pack("<QQd", 64, 64, TWO_PI)
                                     + struct.pack("<d", 0.375)
                                     + state.phi.astype("<f8").tobytes()))
    with pytest.raises(pf.CheckpointError, match="unsupported version 1 on the torus"):
        pf.read_checkpoint(path)

    # a sphere state is written as version 1, phi alone, which is its coefficients
    sphere = pf.SphereGeometry(128)
    state = pf.validate_kahler(sphere, 0.1 * sphere.mu ** 2, time=1.5)
    expected = pack_checkpoint(struct.pack("<IB", 1, 1) + struct.pack("<Q", 128)
                               + struct.pack("<d", 1.5) + state.phi.astype("<f8").tobytes())
    pf.write_checkpoint(tmp_path / "sphere.ckpt", sphere, state)
    assert (tmp_path / "sphere.ckpt").read_bytes() == expected
    meta = pf.read_checkpoint(tmp_path / "sphere.ckpt")
    assert meta["time"] == 1.5 and meta["coeffs"].dtype == float
    assert np.array_equal(meta["coeffs"], meta["phi"])
    assert np.array_equal(meta["phi"], state.phi)


def semi_implicit_torus_state():
    """A semi-implicit step's state on a curved torus: coefficients, phi formed from them."""
    torus = bumpy64()
    state = pf.semi_implicit_step(torus, pf.validate_kahler(torus, 0.1 * np.cos(torus.x)),
                                  0.375)
    assert state.coeffs.shape == (64, 33)
    assert np.array_equal(state.phi, torus.from_coeffs(state.coeffs))
    return torus, state


def test_checkpoint_v2_is_unsupported(tmp_path):
    # version 2, phi and then its rfft2 coefficients as complex128, is not
    # read: a CRC-valid version-2 file of either backend raises
    torus, state = semi_implicit_torus_state()
    payloads = {
        "torus": (struct.pack("<IB", 2, 0) + struct.pack("<QQd", 64, 64, TWO_PI)
                  + struct.pack("<d", 0.375) + state.phi.astype("<f8").tobytes()
                  + state.coeffs.astype("<c16").tobytes()),
        "sphere": struct.pack("<IBQd", 2, 1, 32, 0.0) + bytes(8 * 32 + 16 * 32),
    }
    for name, payload in payloads.items():
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(pack_checkpoint(payload))
        with pytest.raises(pf.CheckpointError, match="unsupported version 2"):
            pf.read_checkpoint(path)


def test_checkpoint_v3_detects_truncation(tmp_path):
    torus, state = semi_implicit_torus_state()
    path = tmp_path / "state.ckpt"
    pf.write_checkpoint(path, torus, state)
    payload = path.read_bytes()[4:-4]
    for cut in (16, 16 * 33, 16 * 64 * 33):  # into, or all of, the coefficients
        short = tmp_path / f"short{cut}.ckpt"
        short.write_bytes(pack_checkpoint(payload[:-cut]))  # CRC-valid
        with pytest.raises(pf.CheckpointError, match="truncated field data"):
            pf.read_checkpoint(short)
    short = tmp_path / "short.ckpt"
    short.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(pf.CheckpointError):
        pf.read_checkpoint(short)
    # coefficients on a backend whose coefficients are phi itself
    sphere_file = tmp_path / "sphere3.ckpt"
    sphere_file.write_bytes(pack_checkpoint(struct.pack("<IBQd", 3, 1, 32, 0.0) + bytes(16 * 32)))
    with pytest.raises(pf.CheckpointError, match="version 3"):
        pf.read_checkpoint(sphere_file)


def test_checkpoint_geometry_match(tmp_path):
    from pcflow.checkpoint import check_geometry_match
    geom = flat64()
    state = pf.validate_kahler(geom, 0.1 * np.cos(geom.x))
    path = tmp_path / "state.ckpt"
    pf.write_checkpoint(path, geom, state)
    meta = pf.read_checkpoint(path)
    check_geometry_match(geom, meta)  # same dimensions: accepted
    with pytest.raises(pf.CheckpointError):
        check_geometry_match(pf.TorusGeometry(128, 64, TWO_PI), meta)
    with pytest.raises(pf.CheckpointError):
        check_geometry_match(pf.SphereGeometry(64), meta)
    with pytest.raises(pf.CheckpointError):
        check_geometry_match(pf.TorusGeometry(64, 64, 2.0 * TWO_PI), meta)

    sphere = pf.SphereGeometry(64)
    pf.write_checkpoint(path, sphere, pf.validate_kahler(sphere, np.zeros(sphere.shape)))
    meta = pf.read_checkpoint(path)
    check_geometry_match(sphere, meta)
    with pytest.raises(pf.CheckpointError):
        check_geometry_match(pf.SphereGeometry(128), meta)


def test_resume_is_bitwise(tmp_path):
    geom = bumpy64()
    phi0 = 0.3 * np.cos(geom.x)
    config = pf.FlowConfig(dt_init=DYADIC, t_end=64.0 * DYADIC, record_every=16)

    full = pf.run(geom, phi0, config)

    half_config = pf.FlowConfig(dt_init=DYADIC, t_end=32.0 * DYADIC, record_every=16)
    half = pf.run(geom, phi0, half_config)
    path = tmp_path / "half.ckpt"
    pf.write_checkpoint(path, geom, half.states[-1])
    meta = pf.read_checkpoint(path)
    resumed = pf.run(geom, meta["phi"], config, start_time=meta["time"],
                     start_coeffs=meta["coeffs"])

    assert full.states[-1].time == resumed.states[-1].time
    assert np.all(full.states[-1].coeffs == resumed.states[-1].coeffs)
    assert np.all(full.states[-1].phi == resumed.states[-1].phi)
    # the run steps phi's coefficients, which the real phi alone returns
    # only to rounding
    real_only = pf.run(geom, meta["phi"], config, start_time=meta["time"])
    assert real_only.states[-1].time == full.states[-1].time
    assert float(np.max(np.abs(real_only.states[-1].phi - full.states[-1].phi))) <= 1e-14
