"""Command-line entry points.

Subcommands: run, resume, crosscheck, probe, print-config. Exit codes by
failure class: 2 parse, 3 validation, 4 runtime, 5 io. --log-level sets the
least severe of the package's log records shown on stderr (default WARNING;
INFO adds run()'s step rejections). PCFLOW_THREADS caps internal data
parallelism; the reference implementation executes every reduction
sequentially, so any positive cap gives identical results and the variable is
validated but otherwise inert.
"""

import argparse
import contextlib
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from .checkpoint import check_geometry_match, read_checkpoint, write_checkpoint
from .config import build_geometry, format_config, make_initial, parse_config
from .csvout import (emit_csv, emit_divergence_csv, emit_record_csv, header_line,
                     record_line)
from .errors import (BadGrid, CheckpointError, ConfigParseError, ConfigValidationError,
                     NonPositiveDensity, NotKahler, ShapeError, SingularSolve,
                     ToleranceNotMet)
from .flow import FlowKind, Termination, run, suggest_dt
from .functionals import make_trace_record
from .kahler import validate_kahler

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4
EXIT_IO = 5


def _thread_cap():
    raw = os.environ.get("PCFLOW_THREADS")
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigValidationError("PCFLOW_THREADS",
                                    f"expected a positive integer, got {raw!r}") from None
    if cap < 1:
        raise ConfigValidationError("PCFLOW_THREADS",
                                    f"expected a positive integer, got {raw!r}")
    return cap


@contextlib.contextmanager
def _log_level(level):
    """Within the block, show pcflow's log records at level and above on
    stderr as bare messages; afterwards the pcflow logger has level NOTSET
    and no handler.

    Below WARNING a stderr handler is added. At WARNING and above none is:
    Python's last-resort handler already prints those records in this form,
    so the default output stays as it is without the option.
    """
    logger = logging.getLogger("pcflow")
    handler = None
    if logging.getLevelName(level) < logging.WARNING:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
    logger.setLevel(level)
    try:
        yield
    finally:
        logger.setLevel(logging.NOTSET)
        if handler is not None:
            logger.removeHandler(handler)


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _check_flow_geometry(config, geom):
    if config.flow.flow_kind is FlowKind.NKRF and geom.ricci_potential0 is not None:
        raise ConfigValidationError(
            "flow.kind", "NKRF needs an Einstein reference (round sphere or flat torus)")


def _field_snapshot_paths(output_path, count):
    stem = os.path.splitext(output_path)[0]
    return [f"{stem}.field{i:05d}.ckpt" for i in range(count)]


def _emit_outputs(config, geom, trajectory):
    emit_csv(trajectory, config.output_path)
    if config.emit_fields:
        for state, path in zip(trajectory.states,
                               _field_snapshot_paths(config.output_path,
                                                     len(trajectory.states))):
            write_checkpoint(path, geom, state)
    if config.checkpoint_path is not None and trajectory.states:
        write_checkpoint(config.checkpoint_path, geom, trajectory.states[-1])


def _report(trajectory, suffix=""):
    """Print the terminated line of a run and return its exit code."""
    last_t = trajectory.states[-1].time if trajectory.states else float("nan")
    print(f"terminated: {trajectory.terminated.value} at t = {last_t:.6g} "
          f"({len(trajectory.records)} records){suffix}")
    return EXIT_OK if trajectory.terminated is Termination.REACHED_T_END else EXIT_RUNTIME


def _finish_run(config, geom, trajectory):
    if not trajectory.records:  # stopped at its initial state: nothing to write
        return _report(trajectory)
    _emit_outputs(config, geom, trajectory)
    return _report(trajectory, f" -> {config.output_path}")


def _cmd_run(args):
    config = _load_config(args.config)
    geom = build_geometry(config)
    _check_flow_geometry(config, geom)
    phi0 = make_initial(geom, config)
    trajectory = run(geom, phi0, config.flow, p_list=config.p_list)
    return _finish_run(config, geom, trajectory)


def _cmd_resume(args):
    config = _load_config(args.config)
    geom = build_geometry(config)
    _check_flow_geometry(config, geom)
    meta = read_checkpoint(args.checkpoint)
    check_geometry_match(geom, meta)
    if meta["time"] >= config.flow.t_end:
        raise ConfigValidationError(
            "flow.t_end", f"checkpoint time {meta['time']:.6g} already at or past t_end")
    trajectory = run(geom, meta["phi"], config.flow, p_list=config.p_list,
                     start_time=meta["time"], start_coeffs=meta["coeffs"])
    return _finish_run(config, geom, trajectory)


def _cmd_crosscheck(args):
    config = _load_config(args.config)
    geom = build_geometry(config)
    if geom.ricci_potential0 is not None:
        raise ConfigValidationError(
            "geometry.kind", "crosscheck needs an Einstein reference "
                             "(round sphere or flat torus)")
    phi0 = make_initial(geom, config)
    stem = os.path.splitext(config.output_path)[0]
    trajectories = {}
    for kind in (FlowKind.PCF, FlowKind.NKRF):
        flow_config = replace(config.flow, flow_kind=kind)
        trajectory = run(geom, phi0, flow_config, p_list=config.p_list)
        if not trajectory.records:
            return _report(trajectory)
        emit_csv(trajectory, f"{stem}.{kind.value.lower()}.csv")
        trajectories[kind] = trajectory
    pcf, nkrf = trajectories[FlowKind.PCF], trajectories[FlowKind.NKRF]
    pairs = min(len(pcf.states), len(nkrf.states))
    times, divergences = [], []
    for a, b in zip(pcf.states[:pairs], nkrf.states[:pairs]):
        if abs(a.time - b.time) > 1e-12 * (1.0 + abs(a.time)):
            raise ToleranceNotMet(f"record times diverged: {a.time!r} vs {b.time!r}")
        times.append(a.time)
        divergences.append(float(np.max(np.abs(a.rho - b.rho))))
    emit_divergence_csv(times, divergences, f"{stem}.diff.csv")
    print(f"crosscheck: {pairs} paired records, max sup|rho_PCF - rho_NKRF| = "
          f"{max(divergences):.6g} -> {stem}.diff.csv")
    ok = (pcf.terminated is Termination.REACHED_T_END
          and nkrf.terminated is Termination.REACHED_T_END)
    return EXIT_OK if ok else EXIT_RUNTIME


def _cmd_probe(args):
    config = _load_config(args.config)
    geom = build_geometry(config)
    phi0 = make_initial(geom, config)
    state = validate_kahler(geom, phi0, rho_floor=config.flow.rho_floor)
    dt = min(config.flow.dt_init, suggest_dt(geom, state, config.flow.cfl))
    record = make_trace_record(geom, state, dt, config.p_list)
    emit_record_csv(record, config.output_path)
    p_list = tuple(record.lp_grad_F.keys())
    for name, value in zip(header_line(p_list).split(","),
                           record_line(record, p_list).split(",")):
        if name not in ("t", "dt"):
            print(f"{name} = {value}")
    return EXIT_OK


def _cmd_print_config(args):
    config = _load_config(args.config)
    sys.stdout.write(format_config(config))
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pcflow",
        description="Pseudo-Calabi flow laboratory on model geometries")
    parser.add_argument("--log-level", default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="least severe log record shown on stderr (default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario and emit its trace CSV")
    p_run.add_argument("config")
    p_run.set_defaults(fn=_cmd_run)
    p_resume = sub.add_parser("resume", help="continue a run from a checkpoint")
    p_resume.add_argument("checkpoint")
    p_resume.add_argument("config")
    p_resume.set_defaults(fn=_cmd_resume)
    p_cross = sub.add_parser("crosscheck",
                             help="run PCF and NKRF from the same data, emit divergence")
    p_cross.add_argument("config")
    p_cross.set_defaults(fn=_cmd_crosscheck)
    p_probe = sub.add_parser("probe", help="evaluate all functionals on the initial state")
    p_probe.add_argument("config")
    p_probe.set_defaults(fn=_cmd_probe)
    p_print = sub.add_parser("print-config", help="dump the effective config with defaults")
    p_print.add_argument("config")
    p_print.set_defaults(fn=_cmd_print_config)

    args = parser.parse_args(argv)
    with _log_level(args.log_level):
        try:
            _thread_cap()
            return args.fn(args)
        except ConfigParseError as exc:
            print(f"pcflow: parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except (ConfigValidationError, BadGrid, NonPositiveDensity) as exc:
            print(f"pcflow: invalid configuration: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except (NotKahler, ToleranceNotMet, SingularSolve, ShapeError, ValueError) as exc:
            print(f"pcflow: runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        except (CheckpointError, OSError) as exc:
            print(f"pcflow: io error: {exc}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
