"""Run every shipped preset on two source trees and compare what they write.

Run from the repository root, for example against a checkout of the parent
commit:

    python3 scripts/compare_outputs.py --tree parent=../parent --tree change=.

Each preset runs once per tree, as `python3 -m pcflow.cli run PRESET` (and
`crosscheck` for crosscheck_sphere.cfg) in a fresh directory under --work,
with that tree's src first on PYTHONPATH and the script's own environment,
so both trees run under the PCFLOW_THREADS it was given, for example

    PCFLOW_THREADS=2 python3 scripts/compare_outputs.py --tree parent=../parent --tree change=.

That variable selects a code path (records on a worker thread or inline), so
the report's first line states it. For every CSV and checkpoint file either
run wrote, the report says whether the two files are byte-identical.
Where they differ it gives, for each CSV column that moved, the largest
|a - b| / max(1, |a|) over the rows (a from the first tree), how many rows
differ in it and the first and last t at which they do (t from the first
tree); and the same largest figure for a checkpoint's time and phi, both read
with this tree's read_checkpoint, which reads what each backend writes.
The exit code is 1 if a run fails or the files written differ in name or
row count, and 0 otherwise.
"""

import argparse
import csv
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from pcflow import read_checkpoint  # noqa: E402

COMMANDS = {"crosscheck_sphere.cfg": "crosscheck"}  # every other preset: run


def run_preset(tree, preset, directory):
    """Run one preset of tree in directory; returns the CLI's exit code."""
    directory.mkdir(parents=True)
    shutil.copy(tree / "presets" / preset, directory / preset)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tree / "src"),
                                                      env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pcflow.cli", COMMANDS.get(preset, "run"), preset],
        cwd=directory, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        print(f"  {directory.name}: exit {proc.returncode}: {proc.stderr.strip()}")
    return proc.returncode


def relative_gap(a, b):
    """max |a - b| / max(1, |a|) over matching entries."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a)), initial=0.0))


def compare_csv(a, b):
    """For each column of two CSVs with one header whose cells differ, a text
    giving its largest relative gap, the rows that differ and their first and
    last t (the first column); None if the two differ in header or rows."""
    with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return None
    columns = list(zip(*rows_a[1:])), list(zip(*rows_b[1:]))
    times = columns[0][0]
    moved = {}
    for name, col_a, col_b in zip(rows_a[0], *columns):
        rows = [i for i, (x, y) in enumerate(zip(col_a, col_b)) if x != y]
        if rows:
            moved[name] = (f"{relative_gap(col_a, col_b):.2g} in {len(rows)} of "
                           f"{len(col_a)} rows, t {times[rows[0]]} to {times[rows[-1]]}")
    return moved


def compare_checkpoint(a, b):
    """The relative gaps of two checkpoints' time and phi that are not zero."""
    meta_a, meta_b = read_checkpoint(a), read_checkpoint(b)
    gaps = {name: relative_gap(meta_a[name], meta_b[name]) for name in ("time", "phi")}
    return {name: f"{gap:.2g}" for name, gap in gaps.items() if gap > 0.0}


def compare_preset(preset, dirs):
    """Print the comparison of one preset's outputs; returns True if they match
    in names and shapes."""
    names = [sorted(p.name for p in d.iterdir() if p.suffix in (".csv", ".ckpt"))
             for d in dirs]
    if names[0] != names[1]:
        print(f"  files differ: {names[0]} against {names[1]}")
        return False
    ok = True
    for name in names[0]:
        a, b = dirs[0] / name, dirs[1] / name
        if a.read_bytes() == b.read_bytes():
            print(f"  {name}: byte-identical")
            continue
        gaps = compare_csv(a, b) if a.suffix == ".csv" else compare_checkpoint(a, b)
        if gaps is None:
            print(f"  {name}: header or row count differs")
            ok = False
            continue
        moved = ", ".join(f"{k} {v}" for k, v in gaps.items()) or "no value"
        print(f"  {name}: bytes differ; max |d|/max(1,|x|): {moved}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH",
                        help="a source tree; give exactly two")
    parser.add_argument("--presets", nargs="+", metavar="NAME",
                        help="preset file names (default: every preset of the first tree)")
    parser.add_argument("--work", help="directory for the runs (default: a temporary one)")
    args = parser.parse_args(argv)
    trees = [spec.partition("=")[::2] for spec in args.tree]
    if len(trees) != 2 or any(not (Path(path) / "src").is_dir() for _, path in trees):
        parser.error("expected two --tree LABEL=PATH, each a tree with src/")
    roots = [Path(path).resolve() for _, path in trees]
    print(f"PCFLOW_THREADS = {os.environ.get('PCFLOW_THREADS', 'unset')}")
    presets = args.presets or sorted(p.name for p in (roots[0] / "presets").glob("*.cfg"))
    work = Path(args.work or tempfile.mkdtemp(prefix="compare_outputs_")).resolve()
    ok = True
    for preset in presets:
        print(f"{preset}:", flush=True)
        dirs = [work / Path(preset).stem / label for label, _ in trees]
        if any(run_preset(root, preset, d) != 0 for root, d in zip(roots, dirs)):
            ok = False
            continue
        ok = compare_preset(preset, dirs) and ok
    print(f"outputs under {work}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
