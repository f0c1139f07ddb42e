"""Write BENCH_<n>.json: perfbench runs of one or more source trees.

Run from the repository root, for example to compare a checkout of the
parent commit with this tree:

    python3 scripts/write_bench.py --number 6 --tree parent=../parent \
        --tree change=. --seeds 1 --seconds 30

Every run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace X` started in the tree's own root, so each tree is measured with its
own benchmark code and source. For every repeat, workload, seed and trace
mode the trees run one after another, and the order of the trees alternates
from one repeat to the next. The file keeps, per run, the final JSON line of
run.py, its `env` line and its report lines (which also give the raw,
uncalibrated medians), and a summary per workload and tree of five metrics:
calibrated and raw wall_s, calibrated and raw setup_s (raw: the `raw` report
line under the metric) and peak_rss_mb. Each metric M gets M_runs and
M_q1_median_q3, and for every tree after the first M_pairs and
M_wins_over_<first tree>, the pairs where it was lower. --append adds runs to
an existing file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("torus_rk4_curved", "torus_semi_flat", "sphere_crosscheck", "torus_dense_trace")


def run_once(root, workload, seed, seconds, trace):
    """One run.py run in root; returns (exit code, env dict, final JSON, the
    report lines with raw and calibrated medians)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": (proc.stderr.strip().splitlines() or [""])[-1]}
    return proc.returncode, env, result, [line for line in lines if line.startswith("  ")]


def quartiles(values):
    if len(values) < 2:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def raw_median(report, metric):
    """The raw median of a metric in a run: the `raw` report line under it."""
    for line, following in zip(report, report[1:]):
        if line.split()[:1] == [metric] and following.split()[:1] == ["raw"]:
            return float(following.split()[2])
    return None


def calibrated(metric):
    return lambda r: r["result"]["metrics"][metric]["value"]


def raw(metric):
    return lambda r: raw_median(r["report"], metric)


SUMMARY = (("wall_s", calibrated("wall_s")), ("raw_wall_s", raw("wall_s")),
           ("setup_s", calibrated("setup_s")), ("raw_setup_s", raw("setup_s")),
           ("peak_rss_mb", calibrated("peak_rss_mb")))


def summarize(runs, trees):
    """Quartiles of every SUMMARY metric per workload and tree, and wins (lower
    values) of each tree over the first one in runs paired by (workload, seed,
    repeat)."""
    summary = {}
    untraced = [r for r in runs if r["trace"] == 0 and r["result"].get("correct")]
    for workload in sorted({r["workload"] for r in untraced}):
        entry = {}
        for metric, value_of in SUMMARY:
            values = {}
            for r in untraced:
                value = value_of(r) if r["workload"] == workload else None
                if value is not None:
                    values.setdefault(r["tree"], {})[(r["seed"], r["repeat"])] = value
            for tree, v in values.items():
                entry.setdefault(tree, {})[metric + "_runs"] = len(v)
                entry[tree][metric + "_q1_median_q3"] = quartiles(sorted(v.values()))
            base = trees[0] if trees[0] in values else None
            for tree in values:
                if base is None or tree == base:
                    continue
                pairs = [(values[base][k], values[tree][k]) for k in values[tree]
                         if k in values[base]]
                entry[tree][metric + "_pairs"] = len(pairs)
                entry[tree][metric + "_wins_over_" + base] = sum(1 for b, c in pairs if c < b)
        summary[workload] = entry
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH",
                        help="a source tree to measure; repeat for each tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--traces", type=int, nargs="+", choices=(0, 1), default=[0, 1])
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--out-dir", default=".", help="where BENCH_<n>.json goes")
    args = parser.parse_args(argv)

    trees = {}
    for spec in args.tree:
        label, sep, path = spec.partition("=")
        root = Path(path).resolve()
        if not sep or not (root / "perfbench" / "run.py").is_file():
            parser.error(f"--tree {spec}: expected LABEL=PATH to a tree with perfbench/run.py")
        trees[label] = root
    out = Path(args.out_dir) / f"BENCH_{args.number}.json"
    bench = json.loads(out.read_text()) if args.append and out.exists() else {"runs": []}
    first_repeat = 1 + max((r["repeat"] for r in bench["runs"]), default=-1)

    labels = list(trees)
    for repeat in range(first_repeat, first_repeat + args.repeats):
        order = labels if repeat % 2 == 0 else labels[::-1]
        for workload in args.workloads:
            for seed in args.seeds:
                for trace in args.traces:
                    for label in order:
                        code, env, result, lines = run_once(trees[label], workload, seed,
                                                            args.seconds, trace)
                        bench["runs"].append({
                            "tree": label, "workload": workload, "seed": seed,
                            "trace": trace, "repeat": repeat, "seconds": args.seconds,
                            "exit_code": code, "env": env, "result": result,
                            "report": lines})
                        wall = result.get("metrics", {}).get("wall_s", {}).get("value")
                        print(f"repeat {repeat} {workload} seed {seed} trace {trace} "
                              f"{label}: exit {code}"
                              + (f", wall_s {wall:.4f}" if wall is not None else ""),
                              flush=True)
                        out.write_text(json.dumps(bench, indent=1) + "\n")
    bench["summary"] = summarize(bench["runs"], labels)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(json.dumps(bench["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
