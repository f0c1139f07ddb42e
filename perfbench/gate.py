"""Correctness gate applied after every timed pass of a benchmark sample.

``check`` returns a list of problems; an empty list means the sample passed.
A failed pass counts towards the run's ``failed`` total.
"""

import json
import os
from pathlib import Path

import numpy as np

import pcflow

REFERENCE = Path(__file__).resolve().parent / "reference.json"
VOLUME_RTOL = 1e-10
MONOTONE_TOL = 1e-8
CROSSCHECK_TOL = 1e-5
REFERENCE_FIELDS = ("sup_F", "k_energy", "calabi_energy")


def load_reference(workload_name):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload_name]


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def _check_trajectory(label, traj, geom, t_end, envelope):
    if traj.terminated is not pcflow.Termination.REACHED_T_END:
        return [f"{label}: terminated {traj.terminated.value}"]
    problems = []
    if traj.states[-1].time != t_end or traj.records[-1].time != t_end:
        problems.append(f"{label}: ended at t = {traj.states[-1].time!r}, not {t_end!r}")
    for rec in traj.records:
        if abs(rec.volume - geom.volume) > VOLUME_RTOL * geom.volume:
            problems.append(f"{label}: volume {rec.volume!r} at t = {rec.time!r}")
            break
    for a, b in zip(traj.records, traj.records[1:]):
        if b.k_energy > a.k_energy + MONOTONE_TOL:
            problems.append(f"{label}: K rose from {a.k_energy!r} to {b.k_energy!r}")
            break
        if b.i_functional < a.i_functional - MONOTONE_TOL:
            problems.append(f"{label}: I fell from {a.i_functional!r} to {b.i_functional!r}")
            break
    if envelope:
        for rec in traj.records:
            if rec.sup_P > 10.0 * (max(rec.sup_F, -rec.inf_F) + 1.0):
                problems.append(f"{label}: sup_P = {rec.sup_P!r} outside the envelope "
                                f"at t = {rec.time!r}")
                break
    return problems


def _check_reference(label, record, reference):
    problems = []
    for name in REFERENCE_FIELDS:
        entry = reference[name]
        value = getattr(record, name)
        if not abs(value - entry["reference"]) <= entry["tolerance"]:
            problems.append(f"{label}: final {name} = {value!r}, reference "
                            f"{entry['reference']!r} +- {entry['tolerance']!r}")
    return problems


def check(workload, config, geom, outcome, reference=None):
    """Every check the benchmark makes on one sample's outputs."""
    t_end = config.flow.t_end
    problems = []
    for label, traj in outcome.trajectories.items():
        problems += _check_trajectory(label, traj, geom, t_end, workload.envelope)
    if problems:
        return problems
    if reference is not None:
        if reference["t_end"] != t_end:
            problems.append(f"reference is for t_end = {reference['t_end']!r}, not {t_end!r}")
        else:
            for label, traj in outcome.trajectories.items():
                if traj.records:
                    problems += _check_reference(label, traj.records[-1],
                                                 reference["flows"][label])
    for path, traj in outcome.csv_paths.items():
        rows = _csv_rows(path)
        if rows != len(traj.records):
            problems.append(f"{path}: {rows} rows for {len(traj.records)} records")
    if workload.crosscheck:
        pcf, nkrf = outcome.trajectories.values()
        if len(pcf.states) != len(nkrf.states):
            problems.append(f"crosscheck: {len(pcf.states)} PCF records against "
                            f"{len(nkrf.states)} NKRF records")
        if any(a.time != b.time for a, b in zip(pcf.states, nkrf.states)):
            problems.append("crosscheck: paired record times differ")
        worst = max(outcome.divergences, default=float("inf"))
        if not worst <= CROSSCHECK_TOL:
            problems.append(f"crosscheck: sup|rho_PCF - rho_NKRF| = {worst!r}")
    if config.emit_fields or config.checkpoint_path is not None:
        (traj,) = outcome.trajectories.values()
    if config.emit_fields:
        written = [p for p in outcome.snapshot_paths if os.path.isfile(p)]
        if len(written) != len(traj.states):
            problems.append(f"{len(written)} field snapshots for {len(traj.states)} states")
    if config.checkpoint_path is not None:
        meta = pcflow.read_checkpoint(config.checkpoint_path)
        final = traj.states[-1]
        same = (meta["time"] == final.time
                and meta["phi"].tobytes() == np.ascontiguousarray(final.phi, "<f8").tobytes())
        if not same:
            problems.append("final checkpoint does not read back bitwise")
    return problems
