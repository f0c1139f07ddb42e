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
uncalibrated medians), and a summary per workload and tree of calibrated
wall_s and of raw wall_s (the `raw` line under `wall_s` in the report), each
with its quartiles and the pairwise wins. --append adds runs to an existing
file.
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


def raw_wall(report):
    """The raw median wall_s of a run: the `raw` report line under `wall_s`."""
    for line, following in zip(report, report[1:]):
        if line.split()[:1] == ["wall_s"] and following.split()[:1] == ["raw"]:
            return float(following.split()[2])
    return None


def summarize(runs, trees):
    """Calibrated and raw wall_s quartiles per workload and tree, and wins of
    each tree over the first one in runs paired by (workload, seed, repeat)."""
    summary = {}
    untraced = [r for r in runs if r["trace"] == 0 and r["result"].get("correct")]
    for workload in sorted({r["workload"] for r in untraced}):
        entry = {}
        for prefix, wall in (("", lambda r: r["result"]["metrics"]["wall_s"]["value"]),
                             ("raw_", lambda r: raw_wall(r["report"]))):
            walls = {}
            for r in untraced:
                value = wall(r) if r["workload"] == workload else None
                if value is not None:
                    walls.setdefault(r["tree"], {})[(r["seed"], r["repeat"])] = value
            for tree, v in walls.items():
                entry.setdefault(tree, {})[prefix + "runs"] = len(v)
                entry[tree][prefix + "wall_s_q1_median_q3"] = quartiles(sorted(v.values()))
            base = trees[0] if trees[0] in walls else None
            for tree in walls:
                if base is None or tree == base:
                    continue
                pairs = [(walls[base][k], walls[tree][k]) for k in walls[tree] if k in walls[base]]
                entry[tree][prefix + "pairs"] = len(pairs)
                entry[tree][prefix + "wins_over_" + base] = sum(1 for b, c in pairs if c < b)
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
