"""pcflow benchmark: time to a fixed simulated end time on preset-derived workloads.

Run from the repository root:

    python3 perfbench/run.py --workload torus_rk4_curved --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run repeats samples of one workload for about --seconds seconds. Each
sample is a fresh process (perfbench/sample.py) started one after another,
with PCFLOW_THREADS set to the number of usable cores and every BLAS thread
variable set to 1; it times gated passes to t_end for up to PASS_SECONDS.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (medians over the run of calibrated set-up and pass times,
see calibration.py); with --trace 1 untraced and traced samples alternate and
the JSON holds the per-layer metrics (medians over traced passes). --smoke
runs every workload over a tiny window, untraced and traced once each, and
checks that every metric BENCHMARK.json names is reported with its unit. The
exit code is 0 only when every pass passed the correctness gate.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PRESETS = ROOT / "presets"
WORK = ROOT / ".perfbench_tmp"

MIN_SAMPLES = 3
MAX_SAMPLES = 200
PASS_SECONDS = 8.0
SAMPLE_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def sample_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PCFLOW_THREADS"] = str(len(os.sched_getaffinity(0)))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_sample(workload, config_text, traced, check_reference, pass_seconds, workdir):
    """Start one sample process, wait for it, and return its parsed report."""
    started = perf_counter()
    sample_dir = Path(tempfile.mkdtemp(dir=workdir))
    try:
        (sample_dir / "scenario.cfg").write_text(config_text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(BENCH / "sample.py"), "--workload", workload.name,
             "--config", "scenario.cfg", "--traced", str(int(traced)),
             "--reference", str(int(check_reference)),
             "--pass-seconds", str(pass_seconds)],
            cwd=sample_dir, env=sample_env(), capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"sample took longer than {SAMPLE_TIMEOUT_S} s"], "passes": []}
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"problems": [f"sample exited with {proc.returncode}: {tail[0]}"],
                "passes": []}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["overhead_s"] = perf_counter() - started - result["passes_s"]
    return result


def measure(workload, config_text, seconds, trace, check_reference, smoke):
    """Untraced (and, when tracing, traced) samples until the time is used."""
    samples = {False: [], True: []}
    modes = (False, True) if trace else (False,)
    done = []
    deadline = perf_counter() + seconds
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        while len(done) < MAX_SAMPLES:
            # the last sample gets what is left after its start-up and set-up
            budget = 0.0
            if not smoke:
                ok = [s for s in done if s.get("passes")]
                overhead = statistics.median(s["overhead_s"] for s in ok) if ok else 0.0
                per_pass = statistics.median(s["passes_s"] / len(s["passes"]) for s in ok) \
                    if ok else 0.0
                budget = min(PASS_SECONDS, deadline - perf_counter() - overhead)
                if len(done) >= MIN_SAMPLES and budget < per_pass:
                    break
            traced = modes[len(done) % len(modes)]
            done.append(run_sample(workload, config_text, traced, check_reference,
                                   max(0.0, budget), workdir))
            samples[traced].append(done[-1])
            if smoke and len(done) == len(modes):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return samples[False], samples[True]


def walls(samples, key="wall_s"):
    return [p[key] for s in samples for p in s["passes"]]


def setups(samples, key="setup_s"):
    return [t for s in samples for t in s.get(key, ())]


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(untraced):
    return {
        "setup_s": _median(setups(untraced, "setup_cal_s")),
        "wall_s": _median(walls(untraced, "wall_cal_s")),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in untraced if "peak_rss_mb" in s]),
    }


def per_layer(untraced, traced):
    layered = [p["layers"] for s in traced for p in s["passes"]]
    metrics = {}
    for name in (layered[0] if layered else {}):
        metrics[name] = statistics.median(layer[name] for layer in layered)
    metrics["trace.overhead_frac"] = _median(walls(traced)) / _median(walls(untraced)) - 1.0
    return metrics


def _quantiles(values):
    """Count, 10th percentile, median and 90th percentile."""
    if len(values) < 2:
        return len(values), values[0], values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return len(values), deciles[0], statistics.median(values), deciles[8]


def counts(samples):
    """(attempted, failed): one attempt per pass, plus one per failed sample process."""
    attempted = sum(len(s["passes"]) + bool(s["problems"]) for s in samples)
    failed = sum(sum(1 for p in s["passes"] if p["problems"]) + bool(s["problems"])
                 for s in samples)
    return attempted, failed


def report(name, seed, untraced, traced, trace):
    """Human-readable lines; the caller prints the JSON result after them."""
    samples = untraced + traced
    attempted, failed = counts(samples)
    e2e = end_to_end(untraced)
    print(f"workload {name}  seed {seed}  {len(untraced)} untraced"
          f"{f' + {len(traced)} traced' if trace else ''} samples, one process each, "
          f"{len(walls(untraced))} untraced passes")
    for key, values in (("setup_s", setups(untraced, "setup_cal_s")),
                        ("  raw", setups(untraced)),
                        ("wall_s", walls(untraced, "wall_cal_s")),
                        ("  raw", walls(untraced))):
        if values:
            n, p10, p50, p90 = _quantiles(values)
            print(f"  {key:<12} median {p50:.6f} s  p10 {p10:.6f}  p90 {p90:.6f}  of {n}")
    print(f"  {'peak_rss_mb':<12} {e2e['peak_rss_mb']:.2f} MiB")
    print(f"  {'fail_frac':<12} {failed / max(1, attempted):.3f} ratio  "
          f"({failed} of {attempted} passes or sample processes failed the gate)")
    problems = [q for s in samples for q in s["problems"]]
    problems += [q for s in samples for p in s["passes"] for q in p["problems"]]
    for problem in problems[:5]:
        print(f"    FAIL: {problem}")
    env = next((s["env"] for s in samples if "env" in s), None)
    if env is not None:
        print("env " + json.dumps(env, sort_keys=True))
    metrics = e2e
    if trace:
        metrics = per_layer(untraced, traced)
        for key, value in metrics.items():
            print(f"  {key:<40} {value:.6g} {LAYER_UNITS.get(key, '?')}")
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def smoke(workloads, scenario):
    """Every workload over a tiny window, once untraced and once traced."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    problems = []
    if not {w["name"] for w in declared["workloads"]} <= set(workloads):
        problems.append("BENCHMARK.json names a workload the benchmark does not have")
    attempted = failed = 0
    for name, workload in workloads.items():
        untraced, traced = measure(workload, scenario(workload, 0, tiny=True), seconds=0,
                                   trace=True, check_reference=False, smoke=True)
        result = report(name, 0, untraced, traced, trace=True)
        attempted += result["attempted"]
        failed += result["failed"]
        reported = {**END_TO_END_UNITS, **{k: LAYER_UNITS[k] for k in result["metrics"]}}
        if reported != expected:
            problems.append(f"{name}: reported metrics {sorted(reported.items())} "
                            f"differ from BENCHMARK.json {sorted(expected.items())}")
    for problem in problems:
        print("FAIL: " + problem)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not ((SRC / "pcflow" / "__init__.py").is_file() and PRESETS.is_dir()):
        print(f"perfbench: no pcflow source tree and presets under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pcflow
    from workloads import WORKLOADS, make_config

    if Path(pcflow.__file__).resolve().parent != SRC / "pcflow":
        print(f"perfbench: imported pcflow from {pcflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.smoke and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    def scenario(workload, seed, tiny=False):
        preset = (PRESETS / workload.preset).read_text(encoding="utf-8")
        return pcflow.format_config(make_config(workload, preset, seed, smoke=tiny))

    WORK.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke(WORKLOADS, scenario)
        workload = WORKLOADS[args.workload]
        untraced, traced = measure(workload, scenario(workload, args.seed), args.seconds,
                                   trace=args.trace == 1, check_reference=args.seed == 0,
                                   smoke=False)
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    result = report(args.workload, args.seed, untraced, traced, trace=args.trace == 1)
    units = {**END_TO_END_UNITS, **LAYER_UNITS}
    result["metrics"] = {key: {"value": value, "unit": units[key]}
                         for key, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
