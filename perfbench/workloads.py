"""The four benchmark workloads, each derived from a shipped preset.

A workload is a preset plus a fixed window of simulated time and a few
output settings. ``make_config`` turns (workload, seed) into the
ScenarioConfig the program receives; seed 0 reproduces the preset's own
initial data exactly.
"""

from dataclasses import dataclass, replace

import numpy as np

import pcflow

# half-width of the seeded perturbation of the sphere's poly_mu coefficients;
# rho stays above 0.88 for the shipped (0, 0, 0.1), far inside the cone
POLY_MU_JITTER = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    t_end: float = None          # None keeps the preset's t_end
    smoke_t_end: float = None
    record_every: int = None     # None keeps the preset's cadence
    emit_fields: bool = False
    final_checkpoint: bool = False
    crosscheck: bool = False     # run PCF then NKRF and pair their densities
    envelope: bool = False       # gate sup_P <= 10 (sup|F| + 1) on every record
    exercised: tuple = ()        # traced call counts that must be > 0


_COMMON = ("flow.run", "kahler.validate_kahler", "kahler.scalar_curvature",
           "elliptic.solve_poisson_phi", "functionals.make_trace_record",
           "geometry.check_field", "csvout.emit_csv", "config.parse_config",
           "config.make_initial")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="torus_rk4_curved",
            preset="pbound_torus.cfg",
            t_end=0.02, smoke_t_end=0.001, envelope=True,
            exercised=_COMMON + ("geometry.fft2", "geometry.solve_reference_poisson")),
        Workload(
            name="torus_semi_flat",
            preset="decay_torus.cfg",
            t_end=1.5, smoke_t_end=0.015,
            exercised=_COMMON + ("geometry.fft2",)),
        Workload(
            name="sphere_crosscheck",
            preset="crosscheck_sphere.cfg",
            smoke_t_end=0.0078125, crosscheck=True,
            exercised=_COMMON + ("geometry.solve_reference_poisson",
                                 "elliptic.solve_ricci_potential")),
        Workload(
            name="torus_dense_trace",
            preset="pbound_torus.cfg",
            t_end=0.00485, smoke_t_end=0.001, record_every=1, emit_fields=True,
            final_checkpoint=True,
            exercised=_COMMON + ("geometry.fft2", "geometry.solve_reference_poisson",
                                 "checkpoint.write_checkpoint")),
    )
}


def make_config(workload, preset_text, seed=0, smoke=False):
    """The scenario one sample runs; output paths are relative to its directory."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    config = pcflow.parse_config(preset_text)
    flow = config.flow
    t_end = workload.smoke_t_end if smoke else workload.t_end
    if t_end is not None:
        flow = replace(flow, t_end=t_end)
    if workload.record_every is not None:
        flow = replace(flow, record_every=workload.record_every)
    changes = {
        "flow": flow,
        "output_path": f"{workload.name}.csv",
        "emit_fields": workload.emit_fields,
        "checkpoint_path": f"{workload.name}.ckpt" if workload.final_checkpoint else None,
    }
    if config.random is not None:
        changes["random"] = replace(config.random, seed=config.random.seed + seed)
    elif seed:
        jitter = np.random.default_rng(seed).uniform(
            -POLY_MU_JITTER, POLY_MU_JITTER, len(config.initial_poly_mu))
        changes["initial_poly_mu"] = tuple(
            float(c + d) for c, d in zip(config.initial_poly_mu, jitter))
    return replace(config, **changes)


def reference_step_config(config):
    """The same scenario with every step 4x smaller (the accuracy reference)."""
    flow = config.flow
    return replace(config, flow=replace(flow, dt_init=flow.dt_init / 4.0, cfl=flow.cfl / 4.0))
