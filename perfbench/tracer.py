"""Span tracer that wraps pcflow's public functions from outside the package.

``Tracer.install`` replaces every public function of the traced modules, and
every public method of the geometry backends, with a wrapper that records one
span per call: [name, start, end, parent span index, exception class or None,
extra]. A wrapper is bound in every pcflow namespace that holds the original
(``validate_kahler`` lives in both flow and kahler, ``solve_P`` in flow and
functionals), so a call cannot bypass it by going through another import.
2-D transforms from ``numpy.fft`` and ``scipy.fft`` are wrapped the same way
under the single name ``geometry.fft2``; a transform called from inside
another transform counts once. Spans stay in memory until the sample ends.
"""

import functools
import importlib
import inspect
import math
import os
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy.fft
import scipy.fft

TRACED_MODULES = ("flow", "kahler", "elliptic", "geometry", "functionals", "checkpoint",
                  "csvout", "config")
FFT = "geometry.fft2"
FFT_FUNCTIONS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
STEPPERS = ("flow.rk4_step", "flow.semi_implicit_step")
REJECTIONS = ("NotKahler", "ToleranceNotMet")

# name -> unit of every per-layer metric a traced sample reports
LAYER_UNITS = {
    "flow.steps": "count",
    "flow.rejected": "count",
    "flow.steps_per_s": "1/s",
    "flow.step.p50_ms": "ms",
    "flow.step.p99_ms": "ms",
    "flow.step.self_ms": "ms",
    "flow.trajectory.retained_mb": "MB",
    "geometry.fft2.per_step": "count/step",
    "geometry.fft2.ms": "ms",
    "geometry.fft2.computed_mb_per_step": "MB/step",
    "geometry.solve_reference_poisson.calls": "count",
    "geometry.solve_reference_poisson.ms": "ms",
    "geometry.dealias.ms": "ms",
    "geometry.check_field.calls": "count",
    "kahler.validate_kahler.calls": "count",
    "kahler.validate_kahler.ms": "ms",
    "kahler.scalar_curvature.calls": "count",
    "kahler.scalar_curvature.ms": "ms",
    "elliptic.solve_poisson_phi.calls": "count",
    "elliptic.solve_poisson_phi.ms": "ms",
    "elliptic.ref_solves_per_poisson": "ratio",
    "elliptic.residual_max": "1",
    "functionals.make_trace_record.calls": "count",
    "functionals.make_trace_record.ms": "ms",
    "functionals.make_trace_record.p50_ms": "ms",
    "functionals.j_chi_path.ms": "ms",
    "functionals.estimate_probes.ms": "ms",
    "functionals.calabi_energy.ms": "ms",
    "checkpoint.write_checkpoint.calls": "count",
    "checkpoint.write_checkpoint.ms": "ms",
    "checkpoint.write_checkpoint.mb": "MB",
    "csvout.emit_csv.ms": "ms",
    "csvout.emit_csv.kb": "kB",
    "config.parse_config.ms": "ms",
    "config.make_initial.ms": "ms",
    "trace.overhead_frac": "ratio",
}


def _transform_bytes(args, kwargs, result):
    return getattr(args[0], "nbytes", 0) + getattr(result, "nbytes", 0)


def _file_size(position):
    def size(args, kwargs, result):
        return os.path.getsize(kwargs["path"] if "path" in kwargs else args[position])
    return size


# what a span records as its extra value, by span name
EXTRAS = {
    FFT: _transform_bytes,
    "elliptic.solve_poisson_phi": lambda args, kwargs, result: result.residual_linf,
    "checkpoint.write_checkpoint": _file_size(0),
    "csvout.emit_csv": _file_size(1),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.current = -1

    def _wrap(self, name, fn, reentrant=True):
        spans = self.spans
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            if not reentrant and parent >= 0 and spans[parent][0] == name:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, parent, None, 0.0]
            self.current = len(spans)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                self.current = parent
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function in every namespace that holds it."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for short in TRACED_MODULES:
            module = importlib.import_module(f"pcflow.{short}")
            found = 0
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
                    found += 1
                elif inspect.isclass(obj) and short == "geometry":
                    for method_name, method in list(vars(obj).items()):
                        if not method_name.startswith("_") and inspect.isfunction(method):
                            wrapper = self._wrap(f"geometry.{method_name}", method)
                            setattr(obj, method_name, wrapper)
                            found += 1
            if not found:
                raise RuntimeError(f"tracer found no public function in pcflow.{short}")
        for module in (numpy.fft, scipy.fft):
            for name in FFT_FUNCTIONS:
                fn = getattr(module, name)
                wrappers.setdefault(id(fn), (fn, self._wrap(FFT, fn, reentrant=False)))
        namespaces = [numpy.fft, scipy.fft] + [
            module for name, module in sys.modules.items()
            if name == "pcflow" or name.startswith("pcflow.")]
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(namespace, name, entry[1])


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(spans, setup, timed):
    """Per-layer metrics from the set-up spans and the timed-pass spans.

    ``setup`` and ``timed`` are (start, stop) index ranges into ``spans``.
    Times are inclusive of child spans except ``flow.step.self_ms``.
    """
    start, stop = timed
    calls = Counter()
    busy = Counter()
    durations = {}
    child_time = Counter()
    in_step = {}
    in_poisson = {}
    for i in range(start, stop):
        name, t0, t1, parent, _, _ = spans[i]
        duration = t1 - t0
        calls[name] += 1
        busy[name] += duration
        durations.setdefault(name, []).append(duration)
        child_time[parent] += duration
        in_step[i] = name in STEPPERS or in_step.get(parent, False)
        in_poisson[i] = name == "elliptic.solve_poisson_phi" or in_poisson.get(parent, False)

    steps = [i for i in range(start, stop) if spans[i][0] in STEPPERS]
    accepted = [i for i in steps if spans[i][4] is None]
    step_ms = sorted(1e3 * (spans[i][2] - spans[i][1]) for i in accepted)
    step_self = sum(spans[i][2] - spans[i][1] - child_time[i] for i in accepted)
    transforms = [i for i in range(start, stop) if spans[i][0] == FFT and in_step[i]]
    poisson = [spans[i] for i in range(start, stop)
               if spans[i][0] == "elliptic.solve_poisson_phi"]
    ref_solves = sum(1 for i in range(start, stop)
                     if spans[i][0] == "geometry.solve_reference_poisson" and in_poisson[i])
    records = sorted(1e3 * d for d in durations.get("functionals.make_trace_record", []))

    def ms(name):
        return 1e3 * busy[name]

    def per_call_ms(name):
        values = [1e3 * (s[2] - s[1]) for s in spans[setup[0]:setup[1]] if s[0] == name]
        return statistics.median(values) if values else 0.0

    return {
        "flow.steps": len(accepted),
        "flow.rejected": sum(1 for i in steps if spans[i][4] in REJECTIONS),
        "flow.steps_per_s": len(accepted) / busy["flow.run"] if busy["flow.run"] else 0.0,
        "flow.step.p50_ms": _percentile(step_ms, 50),
        "flow.step.p99_ms": _percentile(step_ms, 99),
        "flow.step.self_ms": 1e3 * step_self / len(accepted) if accepted else 0.0,
        "geometry.fft2.per_step": len(transforms) / len(steps) if steps else 0.0,
        "geometry.fft2.ms": ms(FFT),
        "geometry.fft2.computed_mb_per_step":
            sum(spans[i][5] for i in transforms) / 1e6 / len(steps) if steps else 0.0,
        "geometry.solve_reference_poisson.calls": calls["geometry.solve_reference_poisson"],
        "geometry.solve_reference_poisson.ms": ms("geometry.solve_reference_poisson"),
        "geometry.dealias.ms": ms("geometry.dealias"),
        "geometry.check_field.calls": calls["geometry.check_field"],
        "kahler.validate_kahler.calls": calls["kahler.validate_kahler"],
        "kahler.validate_kahler.ms": ms("kahler.validate_kahler"),
        "kahler.scalar_curvature.calls": calls["kahler.scalar_curvature"],
        "kahler.scalar_curvature.ms": ms("kahler.scalar_curvature"),
        "elliptic.solve_poisson_phi.calls": len(poisson),
        "elliptic.solve_poisson_phi.ms": ms("elliptic.solve_poisson_phi"),
        "elliptic.ref_solves_per_poisson": ref_solves / len(poisson) if poisson else 0.0,
        "elliptic.residual_max": max((s[5] for s in poisson), default=0.0),
        "functionals.make_trace_record.calls": len(records),
        "functionals.make_trace_record.ms": ms("functionals.make_trace_record"),
        "functionals.make_trace_record.p50_ms": _percentile(records, 50),
        "functionals.j_chi_path.ms": ms("functionals.j_chi_path"),
        "functionals.estimate_probes.ms": ms("functionals.estimate_probes"),
        "functionals.calabi_energy.ms": ms("functionals.calabi_energy"),
        "checkpoint.write_checkpoint.calls": calls["checkpoint.write_checkpoint"],
        "checkpoint.write_checkpoint.ms": ms("checkpoint.write_checkpoint"),
        "checkpoint.write_checkpoint.mb": sum(
            s[5] for s in spans[start:stop] if s[0] == "checkpoint.write_checkpoint") / 1e6,
        "csvout.emit_csv.ms": ms("csvout.emit_csv"),
        "csvout.emit_csv.kb": sum(
            s[5] for s in spans[start:stop] if s[0] == "csvout.emit_csv") / 1e3,
        "config.parse_config.ms": per_call_ms("config.parse_config"),
        "config.make_initial.ms": per_call_ms("config.make_initial"),
    }
