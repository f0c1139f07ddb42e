"""One benchmark sample: set up, run workload passes, check them, report.

Run by perfbench/run.py in a fresh process per sample, with the sample's
directory as the working directory and the generated scenario in it:

    python3 sample.py --workload NAME --config scenario.cfg --traced 0|1
                      --reference 0|1 --pass-seconds S

The sample repeats the set-up (parse_config, build_geometry, make_initial,
initial validate_kahler) several times, then times passes from the initial
state to t_end, each including every output file and each followed by the
correctness gate, for up to --pass-seconds (one pass at 0). Each set-up and
each pass is reported raw and calibrated to a reference host speed
(calibration.py; traced samples run the kernel only at the interval ends).
It prints one JSON object as its last line of standard output.
"""

import argparse
import json
import os
import platform
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
import scipy

import pcflow
from calibration import SpeedClock
from gate import check, load_reference
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

SETUP_MIN_REPS = 2
SETUP_MAX_REPS = 200
SETUP_MIN_SECONDS = 0.4
TICK_S = 0.05           # calibration period inside untraced samples
THREAD_VARS = ("PCFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass
class Outcome:
    trajectories: dict                    # flow kind -> Trajectory
    csv_paths: dict                       # trace CSV path -> its Trajectory
    divergences: list = field(default_factory=list)
    snapshot_paths: list = field(default_factory=list)


def set_up(text):
    config = pcflow.parse_config(text)
    geom = pcflow.build_geometry(config)
    phi0 = pcflow.make_initial(geom, config)
    pcflow.validate_kahler(geom, phi0, rho_floor=config.flow.rho_floor)
    return config, geom, phi0


def run_workload(workload, config, geom, phi0):
    """The timed pass: what `pcflow run` or `pcflow crosscheck` does after set-up."""
    stem = os.path.splitext(config.output_path)[0]
    if workload.crosscheck:
        trajectories, csv_paths = {}, {}
        for kind in (pcflow.FlowKind.PCF, pcflow.FlowKind.NKRF):
            traj = pcflow.run(geom, phi0, replace(config.flow, flow_kind=kind),
                              p_list=config.p_list)
            path = f"{stem}.{kind.value.lower()}.csv"
            pcflow.emit_csv(traj, path)
            trajectories[kind.value] = traj
            csv_paths[path] = traj
        pcf, nkrf = trajectories.values()
        pairs = list(zip(pcf.states, nkrf.states))
        divergences = [float(np.max(np.abs(a.rho - b.rho))) for a, b in pairs]
        pcflow.csvout.emit_divergence_csv([a.time for a, _ in pairs], divergences,
                                          f"{stem}.diff.csv")
        return Outcome(trajectories, csv_paths, divergences)
    traj = pcflow.run(geom, phi0, config.flow, p_list=config.p_list)
    pcflow.emit_csv(traj, config.output_path)
    snapshots = []
    if config.emit_fields:
        for i, state in enumerate(traj.states):
            snapshots.append(f"{stem}.field{i:05d}.ckpt")
            pcflow.write_checkpoint(snapshots[-1], geom, state)
    if config.checkpoint_path is not None and traj.states:
        pcflow.write_checkpoint(config.checkpoint_path, geom, traj.states[-1])
    return Outcome({config.flow.flow_kind.value: traj}, {config.output_path: traj},
                   snapshot_paths=snapshots)


def peak_rss_mib():
    """High-water resident set of this process (VmHWM; reset by exec)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def retained_mb(outcome):
    """Bytes of field arrays the returned trajectories keep alive."""
    arrays = {id(a): a for traj in outcome.trajectories.values() for state in traj.states
              for a in (state.phi, state.rho, state.big_f)}
    return sum(a.nbytes for a in arrays.values()) / 1e6


def final_bytes(outcome):
    """The final state of every flow, to compare passes of one sample bitwise."""
    return b"".join(traj.states[-1].phi.tobytes() for traj in outcome.trajectories.values()
                    if traj.states)


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()

    clock = SpeedClock(None if args.traced else TICK_S)
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    spans = tracer.spans if tracer is not None else []

    with clock:
        setup_s, setup_cal_s = [], []
        mark = clock.mark()
        begin = perf_counter()
        while len(setup_s) < SETUP_MAX_REPS and (
                len(setup_s) < SETUP_MIN_REPS or perf_counter() - begin < SETUP_MIN_SECONDS):
            config, geom, phi0 = set_up(text)
            start, mark = mark, clock.mark()
            raw, scaled = clock.measure(start, mark)
            setup_s.append(raw)
            setup_cal_s.append(scaled)
        setup_spans = len(spans)

        reference = load_reference(workload.name) if args.reference else None
        passes, rss, first_final = [], None, None
        begin = last = perf_counter()
        # start another pass only when one more, as long as the last, still fits
        while not passes or 2 * perf_counter() - last - begin <= args.pass_seconds:
            last = perf_counter()
            start = clock.mark()
            timed_from = len(spans)
            outcome = run_workload(workload, config, geom, phi0)
            timed = (timed_from, len(spans))
            wall_s, wall_cal_s = clock.measure(start, clock.mark())
            if rss is None:
                rss = peak_rss_mib()
            problems = check(workload, config, geom, outcome, reference)
            final = final_bytes(outcome)
            first_final = first_final or final
            if final != first_final:
                problems.append(f"pass {len(passes) + 1} ended in another state than pass 1")
            record = {"wall_s": wall_s, "wall_cal_s": wall_cal_s, "problems": problems}
            if tracer is not None:
                record["layers"] = layer_metrics(spans, (0, setup_spans), timed)
                record["layers"]["flow.trajectory.retained_mb"] = retained_mb(outcome)
            passes.append(record)
            del outcome  # keep one pass's trajectories alive at a time
        passes_s = perf_counter() - begin

    result = {"setup_s": setup_s, "setup_cal_s": setup_cal_s, "peak_rss_mb": rss,
              "passes": passes, "passes_s": passes_s, "problems": [],
              "env": environment()}
    if tracer is not None:
        counts = Counter(span[0] for span in spans)
        missing = [name for name in workload.exercised if counts[name] == 0]
        if any(p["layers"]["flow.steps"] == 0 for p in passes):
            missing.append("flow.rk4_step or flow.semi_implicit_step")
        if missing:
            result["problems"].append("tracer saw no call to " + ", ".join(missing))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
