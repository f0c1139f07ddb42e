"""End-to-end acceptance checks, one test per numbered criterion.

Each test runs its scenario from the shipped preset (or measures the shared
helper), asserts the stated tolerance, and prints one line; under pytest -v
each criterion also appears as its own PASSED/FAILED line.
"""

import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pcflow as pf
from oracles import average_against_state
from conftest import random_valid_state, subprocess_env
from test_flow import rk4_global_order_ratios

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def load_preset(name):
    return pf.parse_config((PRESETS / name).read_text())


def run_config(config):
    geom = pf.build_geometry(config)
    phi0 = pf.make_initial(geom, config)
    return geom, pf.run(geom, phi0, config.flow, p_list=config.p_list)


def sup_f(record):
    return max(record.sup_F, -record.inf_F)


def announce(num, label):
    print(f"criterion {num} PASS: {label}")


@pytest.fixture(scope="module")
def energy_run():
    geom, trajectory = run_config(load_preset("energy_torus.cfg"))
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    return geom, trajectory


def test_criterion_1_energy_dissipation(energy_run):
    _, trajectory = energy_run
    records = trajectory.records
    for a, b in zip(records, records[1:]):
        assert b.k_energy <= a.k_energy + 1e-8 * (1.0 + abs(a.k_energy))
    checked = 0
    for before, mid, after in zip(records, records[1:], records[2:]):
        if mid.dissipation <= 1e-6:
            continue
        dkdt = (after.k_energy - before.k_energy) / (after.time - before.time)
        rel = abs(dkdt + mid.dissipation) / mid.dissipation
        assert rel <= 0.02, f"t = {mid.time}: dK/dt off by {rel:.3%}"
        checked += 1
    assert checked > 10
    announce(1, "K-energy non-increasing; centered dK/dt = -dissipation within 2%")


def test_criterion_2_i_functional_monotone(energy_run):
    _, trajectory = energy_run
    records = trajectory.records
    for a, b in zip(records, records[1:]):
        assert b.i_functional >= a.i_functional - 1e-8
    for rec in records:
        assert rec.entropy >= -1e-12
    announce(2, "I-functional non-decreasing; entropy nonnegative at every record")


def test_criterion_3_pcf_equals_nkrf_on_sphere():
    config = load_preset("crosscheck_sphere.cfg")
    geom = pf.build_geometry(config)
    phi0 = pf.make_initial(geom, config)
    runs = {}
    for kind in (pf.FlowKind.PCF, pf.FlowKind.NKRF):
        trajectory = pf.run(geom, phi0, replace(config.flow, flow_kind=kind),
                            p_list=config.p_list)
        assert trajectory.terminated is pf.Termination.REACHED_T_END
        runs[kind] = trajectory
    pcf, nkrf = runs[pf.FlowKind.PCF], runs[pf.FlowKind.NKRF]
    assert [s.time for s in pcf.states] == [s.time for s in nkrf.states]
    divergence = max(float(np.max(np.abs(a.rho - b.rho)))
                     for a, b in zip(pcf.states, nkrf.states))
    assert divergence <= 1e-5

    # elliptic-level identity on random valid sphere states
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(20):
        state = random_valid_state(geom, rng)
        p_field = pf.solve_P(geom, state).field
        avg = average_against_state(geom, state, state.phi)
        worst = max(worst, float(np.max(np.abs(p_field - (state.phi - avg)))))
    assert worst <= 1e-8
    announce(3, f"flow divergence {divergence:.3g} <= 1e-5; "
                f"elliptic identity gap {worst:.3g} <= 1e-8 on 20 states")


def test_criterion_4_decay_to_constant_curvature():
    base = load_preset("decay_torus.cfg")
    for seed in (1, 2, 3, 4, 5):
        config = replace(base, random=replace(base.random, seed=seed))
        _, trajectory = run_config(config)
        assert trajectory.terminated is pf.Termination.REACHED_T_END
        records = trajectory.records
        late = [r for r in records if r.time >= 1.0]
        for a, b in zip(late, late[1:]):
            assert sup_f(b) <= sup_f(a) + 1e-9, f"seed {seed} at t = {b.time}"
        assert sup_f(records[-1]) < 1e-6, f"seed {seed}: final sup|F| = {sup_f(records[-1])}"
        window = [(r.time, np.log(sup_f(r))) for r in records if 5.0 <= r.time <= 20.0]
        ts = np.array([t for t, _ in window])
        logs = np.array([v for _, v in window])
        slope, intercept = np.polyfit(ts, logs, 1)
        residual = float(np.max(np.abs(logs - (slope * ts + intercept))))
        assert residual < 0.5, f"seed {seed}: log-linear fit residual {residual}"
        assert slope < 0.0
    announce(4, "five seeds: monotone decay after t = 1, final sup|F| < 1e-6, "
                "log-linear tail")


def test_criterion_5_p_bounded_by_f():
    _, trajectory = run_config(load_preset("pbound_torus.cfg"))
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    worst = 0.0
    for rec in trajectory.records:
        envelope = 10.0 * (sup_f(rec) + 1.0)
        assert rec.sup_P <= envelope, f"t = {rec.time}: sup_P = {rec.sup_P}"
        worst = max(worst, rec.sup_P / envelope)
    announce(5, f"sup_P within the 10*(sup_F + 1) envelope (worst ratio {worst:.3f})")


def test_criterion_6_smoothing_rate():
    _, trajectory = run_config(load_preset("smoothing_torus.cfg"))
    assert trajectory.terminated is pf.Termination.REACHED_T_END
    positive = [r for r in trajectory.records if r.time > 0.0]
    anchor = positive[0]
    assert abs(anchor.time - 0.1) < 1e-9
    bound = 10.0 * anchor.time ** 3 * anchor.lp_grad_F[2.0]
    worst = 0.0
    for rec in positive:
        weighted = rec.time ** 3 * rec.lp_grad_F[2.0]
        assert weighted <= bound, f"t = {rec.time}: {weighted} > {bound}"
        worst = max(worst, weighted / bound)
    announce(6, f"t^3 * int |grad F|^4 bounded by 10x its t = 0.1 value "
                f"(worst ratio {worst:.3f})")


def test_criterion_7_operator_and_solver_correctness():
    # the module suites carry the full property coverage; this re-measures
    # one representative of each named identity at the stated tolerance
    geom = pf.TorusGeometry(64, 64, 2.0 * np.pi, [(1, 0, 0.2)])
    rng = np.random.default_rng(7)
    state = random_valid_state(geom, rng)

    u = rng.standard_normal(geom.shape)
    v = rng.standard_normal(geom.shape)
    left = geom.integrate(u * pf.laplacian_phi(geom, state, v), weight=state.rho)
    right = geom.integrate(v * pf.laplacian_phi(geom, state, u), weight=state.rho)
    scale = max(1.0, abs(left))
    assert abs(left - right) <= 1e-9 * scale

    assert pf.solve_P(geom, state).residual_linf <= 1e-10

    zero = pf.validate_kahler(geom, np.zeros(geom.shape))
    mass = geom.integrate(pf.trace_ric0(geom, state), weight=state.rho)
    mass0 = geom.integrate(pf.trace_ric0(geom, zero), weight=zero.rho)
    assert abs(mass - mass0) <= 1e-8

    eps = 1e-4
    noise = geom.to_coeffs(rng.standard_normal(geom.shape))
    direction = geom.from_coeffs(geom.truncate(noise))
    direction -= np.mean(direction)
    k_plus = pf.k_energy(geom, pf.validate_kahler(geom, state.phi + eps * direction))
    k_minus = pf.k_energy(geom, pf.validate_kahler(geom, state.phi - eps * direction))
    fd = (k_plus - k_minus) / (2.0 * eps)
    rbar = geom.lambda_ke
    curvature = pf.scalar_curvature(geom, state)
    grad = geom.integrate(direction * (rbar - curvature), weight=state.rho)
    assert abs(fd - grad) <= 1e-4 * max(1.0, abs(grad))

    ratios = rk4_global_order_ratios()
    orders = [float(np.log2(r)) for r in ratios]
    assert min(orders) >= 3.7
    announce(7, f"self-adjointness, residual, cohomology mass, K-gradient all hold; "
                f"RK4 order {min(orders):.2f} >= 3.7")


def test_criterion_8_determinism(tmp_path):
    env = subprocess_env({k: v for k, v in os.environ.items() if k != "PCFLOW_THREADS"})

    def run_preset_in(directory, preset, command="run", extra=()):
        directory.mkdir(exist_ok=True)
        shutil.copy(PRESETS / preset, directory / preset)
        proc = subprocess.run(
            [sys.executable, "-m", "pcflow.cli", command, *extra, preset],
            cwd=directory, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return directory

    for preset, csv_name, ckpt_name in (
            ("determinism_torus.cfg", "determinism_torus.csv", "determinism_torus.ckpt"),
            ("determinism_sphere.cfg", "determinism_sphere.csv", "determinism_sphere.ckpt")):
        a = run_preset_in(tmp_path / f"a_{preset}", preset)
        b = run_preset_in(tmp_path / f"b_{preset}", preset)
        assert (a / csv_name).read_bytes() == (b / csv_name).read_bytes()
        assert (a / ckpt_name).read_bytes() == (b / ckpt_name).read_bytes()

    # checkpoint resume reproduces the uninterrupted run bitwise
    work = tmp_path / "resume"
    work.mkdir()
    full_text = (PRESETS / "determinism_torus.cfg").read_text()
    (work / "full.cfg").write_text(full_text)
    (work / "half.cfg").write_text(
        full_text.replace("flow.t_end = 0.125", "flow.t_end = 0.0625")
                 .replace("determinism_torus.csv", "half.csv")
                 .replace("determinism_torus.ckpt", "half.ckpt"))
    (work / "tail.cfg").write_text(
        full_text.replace("determinism_torus.csv", "tail.csv")
                 .replace("determinism_torus.ckpt", "tail.ckpt"))
    for args in (["run", "full.cfg"], ["run", "half.cfg"],
                 ["resume", "half.ckpt", "tail.cfg"]):
        proc = subprocess.run([sys.executable, "-m", "pcflow.cli", *args],
                              cwd=work, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert ((work / "tail.ckpt").read_bytes()
            == (work / "determinism_torus.ckpt").read_bytes())
    announce(8, "double runs bitwise-identical (CSV and checkpoint); "
                "resume bitwise-exact")
