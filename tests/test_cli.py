"""Scenario parsing, initial-data construction, CSV output, CLI behavior."""

import dataclasses
import re
import struct
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import pcflow as pf
from pcflow import cli as cli_mod
from pcflow import config as config_mod
from pcflow.csvout import emit_csv, header_line
from conftest import subprocess_env
from test_flow import pack_checkpoint

TWO_PI = 2.0 * np.pi
DYADIC = 2.0 ** -8

MINIMAL_TORUS = """
geometry.kind = torus
geometry.nx = 64
geometry.ny = 64
geometry.length = 6.283185307179586
"""

MINIMAL_SPHERE = """
geometry.kind = sphere
geometry.nmu = 64
"""


def cfg(text):
    return pf.parse_config(textwrap.dedent(text))


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_parse_minimal_torus_defaults():
    config = cfg(MINIMAL_TORUS)
    assert config.geometry_kind == "torus"
    assert (config.nx, config.ny) == (64, 64)
    assert config.length == TWO_PI
    assert config.sigma0_modes == ()
    assert config.initial_modes == ()
    assert config.random is None
    flow = config.flow
    assert flow.scheme is pf.Scheme.RK4
    assert flow.flow_kind is pf.FlowKind.PCF
    assert flow.dt_init == 1.0
    assert flow.cfl == 0.2
    assert flow.t_end == 1.0
    assert flow.rho_floor == 0.05
    assert flow.max_halvings == 12
    assert flow.record_every == 10
    assert config.output_path == "trace.csv"
    assert config.p_list == (1.0, 2.0, 4.0)
    assert config.emit_fields is False
    assert config.checkpoint_path is None


def test_parse_comments_and_blank_lines():
    config = cfg("""
    # leading comment
    geometry.kind = sphere

    geometry.nmu = 64  # trailing comment
    """)
    assert config.nmu == 64


def test_parse_modes_and_scheme():
    config = cfg(MINIMAL_TORUS + """
    geometry.sigma0_modes = (1,0,0.2) ( 2 , -1 , 2.5e-2 )
    initial.modes = (1,0,0.5)
    flow.scheme = SemiImplicit
    flow.kind = NKRF
    output.p_list = 1 2 4 8
    output.checkpoint = state.ckpt
    """)
    assert config.sigma0_modes == ((1, 0, 0.2), (2, -1, 0.025))
    assert config.initial_modes == ((1, 0, 0.5),)
    assert config.flow.scheme is pf.Scheme.SEMI_IMPLICIT
    assert config.flow.flow_kind is pf.FlowKind.NKRF
    assert config.p_list == (1.0, 2.0, 4.0, 8.0)
    assert config.checkpoint_path == "state.ckpt"


@pytest.mark.parametrize("snippet,key", [
    ("geometry.kind = klein_bottle", "geometry.kind"),
    (MINIMAL_TORUS + "flow.cfl = 1.5", "flow.cfl"),
    (MINIMAL_TORUS + "flow.cfl = 0.0", "flow.cfl"),
    (MINIMAL_TORUS + "flow.dt_init = -1.0", "flow.dt_init"),
    (MINIMAL_TORUS + "flow.t_end = 0.0", "flow.t_end"),
    (MINIMAL_TORUS + "flow.scheme = Leapfrog", "flow.scheme"),
    (MINIMAL_TORUS + "flow.kind = Ricci", "flow.kind"),
    (MINIMAL_TORUS + "planet.radius = 3", "planet.radius"),
    (MINIMAL_TORUS + "geometry.nmu = 64", "geometry.nmu"),
    (MINIMAL_TORUS + "initial.poly_mu = 0.1", "initial.poly_mu"),
    (MINIMAL_SPHERE + "geometry.nx = 64", "geometry.nx"),
    (MINIMAL_SPHERE + "initial.modes = (1,0,0.5)", "initial.modes"),
    ("geometry.kind = sphere", "geometry.nmu"),
    ("geometry.kind = torus\ngeometry.nx = 64", "geometry.nx"),
    (MINIMAL_TORUS + "initial.random.modes = 4", "initial.random.seed"),
    (MINIMAL_TORUS + "initial.random.seed = -3", "initial.random.seed"),
    (MINIMAL_TORUS + "initial.random.seed = 1\ninitial.random.target_sup_f = 1.5",
     "initial.random.target_sup_f"),
    (MINIMAL_TORUS + "initial.random.seed = 1\ninitial.modes = (1,0,0.1)",
     "initial.random.seed"),
    (MINIMAL_TORUS + "output.p_list = 0.5", "output.p_list"),
    (MINIMAL_TORUS + "output.p_list = 9", "output.p_list"),
    (MINIMAL_TORUS + "geometry.nx = lots", "geometry.nx"),
    (MINIMAL_TORUS + "initial.modes = (1,0)", "initial.modes"),
    # a retired key is unknown, whatever its value
    (MINIMAL_TORUS + "flow.poisson_tol = 1e-10", "flow.poisson_tol"),
    (MINIMAL_TORUS + "geometry.sigma0_modes = (1,0,nan)", "geometry.sigma0_modes"),
])
def test_parse_rejects_invalid_values(snippet, key):
    with pytest.raises(pf.ConfigValidationError) as err:
        cfg(snippet)
    assert err.value.key == key


@pytest.mark.parametrize("build,text,key", [
    (lambda: pf.RandomInitial(seed=-3),
     MINIMAL_TORUS + "initial.random.seed = -3", "initial.random.seed"),
    (lambda: pf.RandomInitial(seed=1.5),
     MINIMAL_TORUS + "initial.random.seed = 1.5", "initial.random.seed"),
    (lambda: pf.RandomInitial(seed=1, modes=2.5),
     MINIMAL_TORUS + "initial.random.seed = 1\ninitial.random.modes = 2.5",
     "initial.random.modes"),
    (lambda: pf.FlowConfig(max_halvings=2.5),
     MINIMAL_TORUS + "flow.max_halvings = 2.5", "flow.max_halvings"),
    (lambda: pf.FlowConfig(record_every=2.5),
     MINIMAL_TORUS + "output.record_every = 2.5", "output.record_every"),
    # a value string is not the member: it used to select the other scheme
    (lambda: pf.FlowConfig(scheme="RK4"),
     MINIMAL_TORUS + "flow.scheme = RK5", "flow.scheme"),
    (lambda: pf.FlowConfig(flow_kind="PCF"),
     MINIMAL_TORUS + "flow.kind = Ricci", "flow.kind"),
    (lambda: pf.RandomInitial(seed=1, modes=0),
     MINIMAL_TORUS + "initial.random.seed = 1\ninitial.random.modes = 0",
     "initial.random.modes"),
    (lambda: pf.RandomInitial(seed=1, decay=-1.0),
     MINIMAL_TORUS + "initial.random.seed = 1\ninitial.random.decay = -1",
     "initial.random.decay"),
    (lambda: pf.RandomInitial(seed=1, target_sup_f=1.5),
     MINIMAL_TORUS + "initial.random.seed = 1\ninitial.random.target_sup_f = 1.5",
     "initial.random.target_sup_f"),
    (lambda: pf.ScenarioConfig("torus", p_list=(0.5,)),
     MINIMAL_TORUS + "output.p_list = 0.5", "output.p_list"),
    (lambda: pf.ScenarioConfig("torus", p_list=(9.0,)),
     MINIMAL_TORUS + "output.p_list = 9", "output.p_list"),
    (lambda: pf.ScenarioConfig("torus", p_list=()),
     MINIMAL_TORUS + "output.p_list =", "output.p_list"),
    # an empty path would fail only when the finished run writes to it
    (lambda: pf.ScenarioConfig("torus", output_path=""),
     MINIMAL_TORUS + "output.path =", "output.path"),
    (lambda: pf.ScenarioConfig("sphere", checkpoint_path=""),
     MINIMAL_SPHERE + "output.checkpoint =", "output.checkpoint"),
    (lambda: pf.ScenarioConfig("klein_bottle"),
     "geometry.kind = klein_bottle", "geometry.kind"),
    (lambda: pf.ScenarioConfig("torus", initial_modes=((1, 0, 0.1),),
                               random=pf.RandomInitial(seed=1)),
     MINIMAL_TORUS + "initial.random.seed = 1\ninitial.modes = (1,0,0.1)",
     "initial.random.seed"),
    (lambda: pf.ScenarioConfig("sphere", nmu=64, initial_modes=((1, 0, 0.3),)),
     MINIMAL_SPHERE + "initial.modes = (1,0,0.3)", "initial.modes"),
    (lambda: pf.ScenarioConfig("sphere", nmu=64, initial_modes=((1, 0, 0.3),), nx=32),
     MINIMAL_SPHERE + "initial.modes = (1,0,0.3)\ngeometry.nx = 32", "geometry.nx"),
    (lambda: pf.ScenarioConfig("torus", nx=64, ny=64, length=TWO_PI,
                               initial_poly_mu=(0.0, 0.1)),
     MINIMAL_TORUS + "initial.poly_mu = 0 0.1", "initial.poly_mu"),
    (lambda: pf.ScenarioConfig("sphere", nmu=100.7),
     MINIMAL_SPHERE + "geometry.nmu = 100.7", "geometry.nmu"),
    (lambda: pf.ScenarioConfig("torus", nx=64.0, ny=64, length=TWO_PI),
     MINIMAL_TORUS + "geometry.nx = 64.0", "geometry.nx"),
    (lambda: pf.ScenarioConfig("torus", nx=64, ny=32.5, length=TWO_PI),
     MINIMAL_TORUS + "geometry.ny = 32.5", "geometry.ny"),
    # a fractional wave number built sigma0 = 1.1 (int() of 0.5) or a phi0 with a
    # jump across the seam; a NaN amplitude surfaced later as a ShapeError
    (lambda: pf.ScenarioConfig("torus", nx=64, ny=64, length=TWO_PI,
                               sigma0_modes=((0.5, 0, 0.2),)),
     MINIMAL_TORUS + "geometry.sigma0_modes = (0.5,0,0.2)", "geometry.sigma0_modes"),
    (lambda: pf.ScenarioConfig("torus", nx=64, ny=64, length=TWO_PI,
                               sigma0_modes=((1, 0, np.inf),)),
     MINIMAL_TORUS + "geometry.sigma0_modes = (1,0,inf)", "geometry.sigma0_modes"),
    (lambda: pf.ScenarioConfig("torus", nx=64, ny=64, length=TWO_PI,
                               initial_modes=((0.5, 0, 0.01),)),
     MINIMAL_TORUS + "initial.modes = (0.5,0,0.01)", "initial.modes"),
    (lambda: pf.ScenarioConfig("torus", nx=64, ny=64, length=TWO_PI,
                               initial_modes=((1, 0.0, 0.01),)),
     MINIMAL_TORUS + "initial.modes = (1,0.0,0.01)", "initial.modes"),
    (lambda: pf.ScenarioConfig("torus", nx=64, ny=64, length=TWO_PI,
                               initial_modes=((1, 0, np.nan),)),
     MINIMAL_TORUS + "initial.modes = (1,0,nan)", "initial.modes"),
], ids=["seed", "seed_fraction", "modes_fraction", "max_halvings_fraction",
        "record_every_fraction", "scheme_string", "kind_string", "modes", "decay",
        "target_sup_f", "p_below", "p_above",
        "p_empty", "path_empty", "checkpoint_empty", "unknown_kind", "random_and_modes", "torus_modes_on_sphere",
        "torus_nx_on_sphere", "sphere_poly_on_torus", "nmu_fraction", "nx_float",
        "ny_fraction", "sigma0_wave_fraction", "sigma0_amp_inf", "modes_wave_fraction",
        "modes_wave_float", "modes_amp_nan"])
def test_library_validates_like_parser(build, text, key):
    with pytest.raises(pf.ConfigValidationError) as err:
        build()
    assert err.value.key == key
    with pytest.raises(pf.ConfigValidationError) as err:
        cfg(text)
    assert err.value.key == key


def test_repeated_key_is_rejected():
    # a key given twice is an error naming the key and both lines, not the
    # last value silently overriding the first
    with pytest.raises(pf.ConfigValidationError, match="lines 2 and 4") as err:
        cfg("geometry.kind = sphere\nflow.t_end = 0.5\ngeometry.nmu = 64\nflow.t_end = 0.01\n")
    assert err.value.key == "flow.t_end"


def test_readme_scenario_keys_are_config_keys():
    # every dotted key the README's scenario example shows, commented or not,
    # must still parse, so a removed key cannot linger in the docs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = set(re.findall(r"^#?\s*([a-z_]+(?:\.[a-z_0-9]+)+)\s*=", block, flags=re.M))
    assert len(keys) >= 10
    assert sorted(keys - {row[0] for row in config_mod._KEYS}) == []


def test_parse_error_carries_line_number():
    with pytest.raises(pf.ConfigParseError) as err:
        cfg("geometry.kind = torus\nno equals sign here\n")
    assert err.value.line_no == 2
    with pytest.raises(pf.ConfigParseError) as err:
        cfg("geometry.kind = torus\n\n1bad.key = 3\n")
    assert err.value.line_no == 3


def test_format_config_round_trips():
    rich = cfg(MINIMAL_TORUS + """
    geometry.sigma0_modes = (1,0,0.2)
    initial.random.seed = 7
    initial.random.decay = 1.5
    flow.scheme = SemiImplicit
    flow.dt_init = 0.0078125
    output.record_every = 25
    output.checkpoint = out.ckpt
    output.p_list = 1 3.5 8
    """)
    assert pf.parse_config(pf.format_config(rich)) == rich
    sphere = cfg(MINIMAL_SPHERE + "initial.poly_mu = 0.0 0.0 0.1\n")
    assert pf.parse_config(pf.format_config(sphere)) == sphere

    # every field away from its default, so a key print-config omits cannot pass
    flow_keys = """
    flow.scheme = SemiImplicit
    flow.kind = NKRF
    flow.dt_init = 0.0078125
    flow.cfl = 0.1
    flow.t_end = 0.5
    flow.rho_floor = 0.01
    flow.max_halvings = 3
    output.path = out.csv
    output.record_every = 5
    output.emit_fields = true
    output.checkpoint = out.ckpt
    output.p_list = 1.5 3
    """
    torus = cfg(MINIMAL_TORUS.replace("64", "32") + flow_keys + """
    geometry.sigma0_modes = (1,0,0.2)
    initial.modes = (1,0,0.1)
    """)
    sphere = cfg(MINIMAL_SPHERE + flow_keys + """
    initial.random.seed = 3
    initial.random.modes = 5
    initial.random.decay = 1.5
    initial.random.target_sup_f = 0.1
    """)
    for config, same in ((torus, {"nmu", "initial_poly_mu", "random"}),
                         (sphere, {"nx", "ny", "length", "sigma0_modes", "initial_modes",
                                   "initial_poly_mu"})):
        assert pf.parse_config(pf.format_config(config)) == config
        assert defaulted_fields(config) == same
        assert defaulted_fields(config.flow) == set()
    assert defaulted_fields(sphere.random) == set()


def defaulted_fields(obj):
    """Names of the dataclass fields of obj that hold their default value."""
    names = set()
    for f in dataclasses.fields(obj):
        default = (f.default if f.default_factory is dataclasses.MISSING
                   else f.default_factory())
        if getattr(obj, f.name) == default:
            names.add(f.name)
    return names


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_make_initial_explicit_modes():
    config = cfg(MINIMAL_TORUS + "initial.modes = (1,0,0.5)\n")
    geom = pf.build_geometry(config)
    phi = pf.make_initial(geom, config)
    assert np.max(np.abs(phi - 0.5 * np.cos(geom.x))) <= 1e-12

    sphere = cfg(MINIMAL_SPHERE + "initial.poly_mu = 0.0 0.0 0.1\n")
    geom_s = pf.build_geometry(sphere)
    phi_s = pf.make_initial(geom_s, sphere)
    assert np.max(np.abs(phi_s - 0.1 * geom_s.mu ** 2)) <= 1e-15


def test_make_initial_seeded_draw_is_reproducible():
    config = cfg(MINIMAL_TORUS + "initial.random.seed = 7\n")
    geom = pf.build_geometry(config)
    a = pf.make_initial(geom, config)
    b = pf.make_initial(geom, config)
    assert np.all(a == b)
    other = cfg(MINIMAL_TORUS + "initial.random.seed = 8\n")
    assert np.max(np.abs(pf.make_initial(geom, other) - a)) > 1e-6


def test_make_initial_hits_target_sup_f():
    config = cfg(MINIMAL_TORUS + "initial.random.seed = 7\n")
    geom = pf.build_geometry(config)
    state = pf.validate_kahler(geom, pf.make_initial(geom, config))
    sup_f = float(np.max(np.abs(state.big_f)))
    assert abs(sup_f - 0.05) <= 0.005 * 0.05

    sphere = cfg(MINIMAL_SPHERE.replace("64", "128")
                 + "initial.random.seed = 11\ninitial.random.target_sup_f = 0.05\n")
    geom_s = pf.build_geometry(sphere)
    state_s = pf.validate_kahler(geom_s, pf.make_initial(geom_s, sphere))
    sup_f = float(np.max(np.abs(state_s.big_f)))
    assert abs(sup_f - 0.05) <= 0.005 * 0.05


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def run_scenario(config):
    geom = pf.build_geometry(config)
    phi0 = pf.make_initial(geom, config)
    return pf.run(geom, phi0, config.flow, p_list=config.p_list)


def test_csv_header_is_pinned():
    # the trace-CSV header is a contract: the scalar columns are TraceRecord's
    # float fields, and a field added there must not slip into it unnoticed
    assert header_line((1.0, 2.0, 4.0)) == (
        "t,dt,sup_F,inf_F,sup_P,entropy,j_neg_ric,k_energy,i_functional,dissipation,"
        "calabi_energy,rho_min,volume,poisson_residual,"
        "grad_F_Lp1,grad_F_Lp2,grad_F_Lp4,trace0_Lp1,trace0_Lp2,trace0_Lp4")
    assert header_line((1.5,)).endswith(",poisson_residual,grad_F_Lp1.5,trace0_Lp1.5")


def test_csv_stationary_rows_identical(tmp_path):
    config = cfg(MINIMAL_TORUS + f"""
    flow.dt_init = {DYADIC!r}
    flow.t_end = {20.0 * DYADIC!r}
    output.record_every = 10
    """)
    trajectory = run_scenario(config)
    path = tmp_path / "trace.csv"
    emit_csv(trajectory, path)
    lines = path.read_text().splitlines()
    assert lines[0] == header_line((1.0, 2.0, 4.0))
    assert len(lines) == 4  # header plus records at steps 0, 10, 20
    cols = [line.split(",") for line in lines[1:]]
    for row in cols[1:]:
        assert row[1:] == cols[0][1:]  # everything but t is bit-identical
    times = [float(row[0]) for row in cols]
    assert times == [0.0, 10.0 * DYADIC, 20.0 * DYADIC]


def test_csv_row_counts(tmp_path):
    base = MINIMAL_TORUS + f"initial.modes = (1,0,0.1)\nflow.dt_init = {DYADIC!r}\n"
    aligned = cfg(base + f"flow.t_end = {100.0 * DYADIC!r}\noutput.record_every = 10\n")
    path = tmp_path / "a.csv"
    emit_csv(run_scenario(aligned), path)
    assert len(path.read_text().splitlines()) == 1 + 11

    offgrid = cfg(base + f"flow.t_end = {97.0 * DYADIC!r}\noutput.record_every = 10\n")
    path2 = tmp_path / "b.csv"
    emit_csv(run_scenario(offgrid), path2)
    # records at steps 0, 10, ..., 90 plus the off-cadence final step
    assert len(path2.read_text().splitlines()) == 1 + 11


def test_csv_rejects_empty_trajectory(tmp_path):
    empty = pf.Trajectory(states=[], records=[],
                          terminated=pf.Termination.NOT_KAHLER)
    with pytest.raises(ValueError):
        emit_csv(empty, tmp_path / "x.csv")


# ---------------------------------------------------------------------------
# CLI (in-process)
# ---------------------------------------------------------------------------

QUICK_RUN = MINIMAL_TORUS + f"""
initial.modes = (1,0,0.3)
flow.dt_init = {DYADIC!r}
flow.t_end = {16.0 * DYADIC!r}
output.record_every = 8
"""


# a torus of 2^14 nodes recording every step, where a cap above 1 sends the
# records to the worker thread; 2^-10 is below its heat limit, so every step
# takes it and lands on a dyadic time
CURVED_128 = MINIMAL_TORUS.replace("64", "128") + f"""
geometry.sigma0_modes = (1,0,0.2)
initial.modes = (1,0,0.3)
flow.dt_init = {2.0 ** -10!r}
flow.t_end = {8.0 * 2.0 ** -10!r}
output.record_every = 1
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def test_cli_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli_mod.main(["run", write_cfg(tmp_path, QUICK_RUN)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ReachedTEnd" in out
    assert (tmp_path / "trace.csv").exists()


def test_cli_print_config_round_trip(tmp_path, capsys):
    path = write_cfg(tmp_path, QUICK_RUN)
    assert cli_mod.main(["print-config", path]) == 0
    printed = capsys.readouterr().out
    assert pf.parse_config(printed) == pf.parse_config(textwrap.dedent(QUICK_RUN))


def test_cli_probe_reports_functionals(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_mod.main(["probe", write_cfg(tmp_path, QUICK_RUN)]) == 0
    values = {}
    for line in capsys.readouterr().out.splitlines():
        name, _, value = line.partition(" = ")
        values[name] = float(value)
    expected = ["sup_F", "inf_F", "sup_P", "entropy", "j_neg_ric", "k_energy",
                "i_functional", "dissipation", "calabi_energy", "rho_min",
                "volume", "poisson_residual",
                "grad_F_Lp1", "grad_F_Lp2", "grad_F_Lp4",
                "trace0_Lp1", "trace0_Lp2", "trace0_Lp4"]
    assert sorted(values) == sorted(expected)
    config = pf.parse_config(textwrap.dedent(QUICK_RUN))
    geom = pf.build_geometry(config)
    state = pf.validate_kahler(geom, pf.make_initial(geom, config))
    assert values["entropy"] == pf.entropy(geom, state)
    assert values["volume"] == geom.volume
    assert (tmp_path / "trace.csv").exists()


def test_cli_probe_names_match_csv_header(tmp_path, monkeypatch, capsys):
    # exponents that {p:g} would print as 2 twice and as 3.14159
    monkeypatch.chdir(tmp_path)
    p_list = (2.0, 2.0000001, 3.14159265)
    scenario = QUICK_RUN + "output.p_list = 2 2.0000001 3.14159265\n"
    assert cli_mod.main(["probe", write_cfg(tmp_path, scenario)]) == 0
    names = [line.partition(" = ")[0] for line in capsys.readouterr().out.splitlines()]
    csv_header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert csv_header == header_line(p_list)
    assert names == csv_header.split(",")[2:]


@pytest.mark.parametrize("flow", [
    "flow.scheme = SemiImplicit\nflow.dt_init = 0.01\nflow.t_end = 0.02\n",
    "flow.scheme = RK4\nflow.t_end = 1e-05\n",
], ids=["semi_implicit", "rk4"])
def test_cli_probe_row_is_runs_first_row(tmp_path, monkeypatch, flow):
    # the probe records the initial state with the dt run() records it with:
    # dt_init above the heat limit under SemiImplicit, and clamped to t_end
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, MINIMAL_TORUS + "initial.modes = (1,0,0.3)\n" + flow)
    assert cli_mod.main(["probe", path]) == 0
    probe_rows = (tmp_path / "trace.csv").read_bytes().splitlines()
    assert cli_mod.main(["run", path]) == 0
    run_rows = (tmp_path / "trace.csv").read_bytes().splitlines()
    assert len(probe_rows) == 2 and len(run_rows) > 2
    assert probe_rows == run_rows[:2]


def test_cli_crosscheck_sphere(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    scenario = MINIMAL_SPHERE + """
    initial.poly_mu = 0.0 0.0 0.1
    flow.scheme = SemiImplicit
    flow.dt_init = 0.015625
    flow.t_end = 0.25
    output.record_every = 4
    output.path = cross.csv
    """
    assert cli_mod.main(["crosscheck", write_cfg(tmp_path, scenario)]) == 0
    for suffix in ("pcf", "nkrf", "diff"):
        assert (tmp_path / f"cross.{suffix}.csv").exists()
    rows = (tmp_path / "cross.diff.csv").read_text().splitlines()
    assert rows[0] == "t,sup_rho_diff"
    divergences = [float(r.split(",")[1]) for r in rows[1:]]
    assert max(divergences) < 1e-8
    assert "crosscheck:" in capsys.readouterr().out


def test_cli_crosscheck_rejects_non_einstein_reference(tmp_path, capsys):
    scenario = MINIMAL_TORUS + "geometry.sigma0_modes = (1,0,0.2)\n"
    assert cli_mod.main(["crosscheck", write_cfg(tmp_path, scenario)]) == 3
    assert "invalid configuration" in capsys.readouterr().err


def test_cli_nkrf_rejects_non_einstein_reference(tmp_path, capsys):
    scenario = MINIMAL_TORUS + "geometry.sigma0_modes = (1,0,0.2)\nflow.kind = NKRF\n"
    assert cli_mod.main(["run", write_cfg(tmp_path, scenario)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("scenario, threads, on_worker", [
    (QUICK_RUN + "geometry.sigma0_modes = (1,0,0.2)\n", "1", False),
    (CURVED_128, "2", True),
], ids=["inline_64", "worker_128"])
def test_cli_run_reports_record_solve_failure(tmp_path, monkeypatch, capsys, scenario,
                                              threads, on_worker):
    # a record's solve_P is the only Poisson solve in a run: its
    # ToleranceNotMet leaves run() and the CLI reports it as a runtime error,
    # exit 4, with no traceback and no CSV, also where the record was made
    # on the worker thread
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PCFLOW_THREADS", threads)
    direct = pf.geometry.TorusGeometry.solve_reference_poisson
    solved_on = []

    def defective(self, g):
        solved_on.append(threading.current_thread() is not threading.main_thread())
        return direct(self, g) + self.to_coeffs(1e-8 * np.cos(3.0 * self.x))

    monkeypatch.setattr(pf.geometry.TorusGeometry, "solve_reference_poisson", defective)
    path = write_cfg(tmp_path, scenario)
    assert cli_mod.main(["run", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("pcflow: runtime error: poisson residual")
    assert "Traceback" not in captured.err
    assert list(tmp_path.glob("*.csv")) == []
    assert solved_on == [on_worker]  # the first record failed; none came after it
    config = pf.parse_config(Path(path).read_text())
    geom = pf.build_geometry(config)
    with pytest.raises(pf.ToleranceNotMet, match="poisson residual"):
        pf.run(geom, pf.make_initial(geom, config), config.flow, p_list=config.p_list)


def test_cli_emit_fields(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    scenario = QUICK_RUN + "output.emit_fields = true\n"
    assert cli_mod.main(["run", write_cfg(tmp_path, scenario)]) == 0
    capsys.readouterr()
    snapshots = sorted(tmp_path.glob("trace.field*.ckpt"))
    assert len(snapshots) == 3  # records at steps 0, 8, 16
    meta = pf.read_checkpoint(snapshots[0])
    assert meta["time"] == 0.0


def test_cli_resume_is_bitwise(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    common = MINIMAL_TORUS + f"""
    geometry.sigma0_modes = (1,0,0.2)
    initial.modes = (1,0,0.3)
    flow.dt_init = {DYADIC!r}
    output.record_every = 16
    """
    full = write_cfg(tmp_path, common + f"""
    flow.t_end = {64.0 * DYADIC!r}
    output.path = full.csv
    output.checkpoint = full.ckpt
    """, "full.cfg")
    half = write_cfg(tmp_path, common + f"""
    flow.t_end = {32.0 * DYADIC!r}
    output.path = half.csv
    output.checkpoint = half.ckpt
    """, "half.cfg")
    tail = write_cfg(tmp_path, common + f"""
    flow.t_end = {64.0 * DYADIC!r}
    output.path = tail.csv
    output.checkpoint = tail.ckpt
    """, "tail.cfg")
    assert cli_mod.main(["run", full]) == 0
    assert cli_mod.main(["run", half]) == 0
    assert cli_mod.main(["resume", "half.ckpt", tail]) == 0
    capsys.readouterr()
    assert (tmp_path / "tail.ckpt").read_bytes() == (tmp_path / "full.ckpt").read_bytes()


def test_cli_semi_implicit_resume_is_bitwise(tmp_path, monkeypatch, capsys):
    # a semi-implicit torus run steps phi's coefficients: its checkpoint
    # carries them (version 3), and the resumed run continues bitwise
    monkeypatch.chdir(tmp_path)
    common = MINIMAL_TORUS + f"""
    geometry.sigma0_modes = (1,0,0.2)
    initial.modes = (1,0,0.3)
    flow.scheme = SemiImplicit
    flow.dt_init = {DYADIC!r}
    output.record_every = 16
    """
    for name, t_end in (("full", 64.0 * DYADIC), ("half", 32.0 * DYADIC),
                        ("tail", 64.0 * DYADIC)):
        write_cfg(tmp_path, common + f"""
        flow.t_end = {t_end!r}
        output.path = {name}.csv
        output.checkpoint = {name}.ckpt
        """, f"{name}.cfg")
    assert cli_mod.main(["run", "full.cfg"]) == 0
    assert cli_mod.main(["run", "half.cfg"]) == 0
    assert pf.read_checkpoint("half.ckpt")["coeffs"] is not None
    assert cli_mod.main(["resume", "half.ckpt", "tail.cfg"]) == 0
    capsys.readouterr()
    assert (tmp_path / "tail.ckpt").read_bytes() == (tmp_path / "full.ckpt").read_bytes()
    full_rows = (tmp_path / "full.csv").read_text().splitlines()
    tail_rows = (tmp_path / "tail.csv").read_text().splitlines()
    assert tail_rows[1:] == full_rows[-len(tail_rows) + 1:]


def test_cli_sphere_resume_is_bitwise(tmp_path, monkeypatch, capsys):
    # a sphere checkpoint stores phi, which is the sphere's coefficients:
    # read_checkpoint returns it as coeffs, and resume continues bitwise from
    # them as on the torus
    monkeypatch.chdir(tmp_path)
    common = MINIMAL_SPHERE + f"""
    initial.poly_mu = 0 0 0.1
    flow.scheme = SemiImplicit
    flow.dt_init = {DYADIC!r}
    output.record_every = 16
    """
    for name, t_end in (("full", 64.0 * DYADIC), ("half", 32.0 * DYADIC),
                        ("tail", 64.0 * DYADIC)):
        write_cfg(tmp_path, common + f"""
        flow.t_end = {t_end!r}
        output.path = {name}.csv
        output.checkpoint = {name}.ckpt
        """, f"{name}.cfg")
    assert cli_mod.main(["run", "full.cfg"]) == 0
    assert cli_mod.main(["run", "half.cfg"]) == 0
    meta = pf.read_checkpoint("half.ckpt")
    assert np.array_equal(meta["coeffs"], meta["phi"])
    assert cli_mod.main(["resume", "half.ckpt", "tail.cfg"]) == 0
    capsys.readouterr()
    assert (tmp_path / "tail.ckpt").read_bytes() == (tmp_path / "full.ckpt").read_bytes()
    full_rows = (tmp_path / "full.csv").read_text().splitlines()
    tail_rows = (tmp_path / "tail.csv").read_text().splitlines()
    assert tail_rows[1:] == full_rows[-len(tail_rows) + 1:]


def test_cli_resume_rejects_finished_checkpoint(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    done = write_cfg(tmp_path, QUICK_RUN + "output.checkpoint = done.ckpt\n", "done.cfg")
    assert cli_mod.main(["run", done]) == 0
    assert cli_mod.main(["resume", "done.ckpt", done]) == 3
    assert "already at or past t_end" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # parse failure
    assert cli_mod.main(["run", write_cfg(tmp_path, "geometry.kind torus\n", "a.cfg")]) == 2
    # validation failures
    assert cli_mod.main(["run", write_cfg(tmp_path, "geometry.kind = klein_bottle\n", "b.cfg")]) == 3
    assert cli_mod.main(["run", write_cfg(tmp_path, MINIMAL_TORUS + "flow.cfl = 1.5\n", "c.cfg")]) == 3
    no_checkpoint = write_cfg(tmp_path, QUICK_RUN + "output.checkpoint =\n", "f.cfg")
    assert cli_mod.main(["run", no_checkpoint]) == 3  # before any step, not after the run
    assert "output.checkpoint: must not be empty" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []
    # runtime failure: initial data far outside the Kahler cone
    bad = write_cfg(tmp_path, MINIMAL_TORUS + "initial.modes = (1,0,9.0)\n", "d.cfg")
    assert cli_mod.main(["probe", bad]) == 4
    assert cli_mod.main(["run", bad]) == 4
    # io failures
    assert cli_mod.main(["run", str(tmp_path / "missing.cfg")]) == 5
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"not a checkpoint at all")
    assert cli_mod.main(["resume", str(garbage), write_cfg(tmp_path, QUICK_RUN, "e.cfg")]) == 5
    for version, tag in ((3, 0), (1, 1)):  # CRC-valid, but the header ends 8 bytes
        short = tmp_path / f"short{tag}.ckpt"  # after the kind byte
        short.write_bytes(pack_checkpoint(struct.pack("<IBQ", version, tag, 64)))
        assert cli_mod.main(["resume", str(short), str(tmp_path / "e.cfg")]) == 5
        assert "truncated header" in capsys.readouterr().err
    empty = tmp_path / "empty.ckpt"  # CRC-valid version 3 on a 0 x 64 grid
    empty.write_bytes(pack_checkpoint(struct.pack("<IBQQdd", 3, 0, 0, 64, 1.0, 0.0)))
    assert cli_mod.main(["resume", str(empty), str(tmp_path / "e.cfg")]) == 5
    assert "empty axis" in capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "crosscheck"])
def test_cli_reports_non_kahler_initial_state(tmp_path, monkeypatch, capsys, command):
    # rho = 1 - 1.25 cos x: the run stops at its initial state with no record,
    # so the CLI prints why, writes no CSV and exits 4
    monkeypatch.chdir(tmp_path)
    scenario = """
    geometry.kind = torus
    geometry.nx = 32
    geometry.ny = 32
    geometry.length = 6.283185307179586
    initial.modes = (1,0,5.0)
    output.path = out.csv
    """
    assert cli_mod.main([command, write_cfg(tmp_path, scenario)]) == 4
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["terminated: NotKahler at t = nan (0 records)"]
    assert captured.err == ""
    assert list(tmp_path.glob("*.csv")) == []


def test_cli_log_level_info_shows_step_rejections(tmp_path, monkeypatch, capsys):
    # the first attempt at the first step is rejected and run() halves dt; the
    # INFO line that says so reaches stderr only with --log-level INFO
    monkeypatch.chdir(tmp_path)
    real_step = pf.flow.rk4_step
    attempts = []

    def first_attempt_rejected(geom_, state_, dt, *args, **kwargs):
        attempts.append(dt)
        if len(attempts) == 1:
            raise pf.NotKahler(0.01, stage=3)
        return real_step(geom_, state_, dt, *args, **kwargs)

    monkeypatch.setattr(pf.flow, "rk4_step", first_attempt_rejected)
    path = write_cfg(tmp_path, QUICK_RUN)
    assert cli_mod.main(["run", path]) == 0
    assert capsys.readouterr().err == ""
    attempts.clear()
    assert cli_mod.main(["--log-level", "INFO", "run", path]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"step rejected at t = 0 (dt = {DYADIC:.3e}): ")
    assert "stage 3" in err[0]


def test_cli_default_log_level_keeps_output(tmp_path):
    # the initial-state WARNING reads the same with and without the option;
    # --log-level ERROR hides it
    path = write_cfg(tmp_path, MINIMAL_TORUS + "initial.modes = (1,0,9.0)\n")
    outputs = []
    for extra in ([], ["--log-level", "WARNING"], ["--log-level", "ERROR"]):
        proc = subprocess.run([sys.executable, "-m", "pcflow.cli", *extra, "run", path],
                              cwd=tmp_path, env=subprocess_env(), capture_output=True)
        assert proc.returncode == 4
        outputs.append((proc.stdout, proc.stderr))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].startswith(b"initial state rejected: ")
    assert outputs[2] == (outputs[0][0], b"")


def test_cli_thread_cap_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, QUICK_RUN)
    monkeypatch.setenv("PCFLOW_THREADS", "abc")
    assert cli_mod.main(["probe", path]) == 3
    monkeypatch.setenv("PCFLOW_THREADS", "0")
    assert cli_mod.main(["probe", path]) == 3
    capsys.readouterr()


def test_cli_thread_cap_does_not_change_results(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PCFLOW_THREADS", "1")
    scenario = QUICK_RUN + "output.path = one.csv\n"
    assert cli_mod.main(["run", write_cfg(tmp_path, scenario, "one.cfg")]) == 0
    monkeypatch.setenv("PCFLOW_THREADS", "4")
    scenario2 = QUICK_RUN + "output.path = four.csv\n"
    assert cli_mod.main(["run", write_cfg(tmp_path, scenario2, "four.cfg")]) == 0
    capsys.readouterr()
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "four.csv").read_bytes()

    # at 128^2 a cap above 1 moves the records to the worker thread: every
    # record, field snapshot and checkpoint keeps its bytes, and a resume on
    # the worker path continues the sequential run bitwise
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("PCFLOW_THREADS", threads)
        (tmp_path / threads).mkdir()
        path = write_cfg(tmp_path / threads, CURVED_128 + """
        output.path = trace.csv
        output.emit_fields = true
        output.checkpoint = final.ckpt
        """)
        monkeypatch.chdir(tmp_path / threads)
        assert cli_mod.main(["run", path]) == 0
        outputs[threads] = {p.name: p.read_bytes() for p in (tmp_path / threads).iterdir()
                            if p.suffix in (".csv", ".ckpt")}
    assert len(outputs["1"]) == 11  # the CSV, 9 snapshots and the checkpoint
    assert outputs["1"] == outputs["2"]

    monkeypatch.chdir(tmp_path / "1")
    half_run = CURVED_128.replace(f"t_end = {8.0 * 2.0 ** -10!r}", f"t_end = {4.0 * 2.0 ** -10!r}")
    half = write_cfg(tmp_path / "1", half_run + """
    output.path = half.csv
    output.checkpoint = half.ckpt
    """, "half.cfg")
    tail = write_cfg(tmp_path / "1", CURVED_128 + """
    output.path = tail.csv
    output.checkpoint = tail.ckpt
    """, "tail.cfg")
    monkeypatch.setenv("PCFLOW_THREADS", "1")
    assert cli_mod.main(["run", half]) == 0
    monkeypatch.setenv("PCFLOW_THREADS", "2")
    assert cli_mod.main(["resume", "half.ckpt", tail]) == 0
    capsys.readouterr()
    assert (tmp_path / "1" / "tail.ckpt").read_bytes() == outputs["1"]["final.ckpt"]
    full_rows = outputs["1"]["trace.csv"].decode().splitlines()
    tail_rows = (tmp_path / "1" / "tail.csv").read_text().splitlines()
    assert tail_rows[1:] == full_rows[5:]  # the records from t = 4 * 2^-10 on


# ---------------------------------------------------------------------------
# CLI (subprocess, module entry point)
# ---------------------------------------------------------------------------

def test_cli_module_entry_point(tmp_path):
    path = write_cfg(tmp_path, QUICK_RUN)
    proc = subprocess.run([sys.executable, "-m", "pcflow.cli", "run", path],
                          cwd=tmp_path, env=subprocess_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert "ReachedTEnd" in proc.stdout
    assert (tmp_path / "trace.csv").exists()


def test_cli_module_entry_point_error_path(tmp_path):
    path = write_cfg(tmp_path, "geometry.kind = klein_bottle\n")
    proc = subprocess.run([sys.executable, "-m", "pcflow.cli", "run", path],
                          cwd=tmp_path, env=subprocess_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 3
    assert "invalid configuration" in proc.stderr
