"""Mutation audit: apply one-line mutations to copies of the tree and run the tests.

Run from the repository root:

    python3 scripts/mutants.py              # every mutant in MUTANTS
    python3 scripts/mutants.py --only M1 B3 # some of them
    python3 scripts/mutants.py --list       # print the list and check it applies

Each mutant replaces one line's text, which must occur exactly once in its
file, in a fresh copy of the tree under a temporary directory (the tree
itself is never written). The copy first runs FAST_SUBSET, a named subset of
the tier-1 tests, stopping at the first failure; a mutant that passes it then
runs TIER1, the documented tier-1 command exactly as written. A failing test
run kills the mutant. One that passes both survives, and one that runs past
--timeout seconds in either run has timed out. Any other pytest exit (an
import or collection error, for one) is reported as an error. No test is
edited or deselected in any copy.

The report has one line per mutant (verdict, the run that decided it, seconds,
what changed), under it the first failing test of a killed mutant, and last a
count per verdict. The exit code is 0 when every mutant was applied, whatever
its verdict, and 1 when one was stale (its text not found exactly once).
"""

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"
# the unit-level files: every module's operators, the steps, records, CLI and
# checkpoints, without the acceptance criteria's long runs or the benchmark smoke
FAST_SUBSET = ("tests/test_geometry.py", "tests/test_kahler.py", "tests/test_elliptic.py",
               "tests/test_functionals.py", "tests/test_coefficient_step.py",
               "tests/test_flow.py", "tests/test_cli.py", "tests/test_layering.py",
               "tests/test_readme.py")
FAST = ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -x "
        "-p no:cacheprovider " + " ".join(FAST_SUBSET))

# (id, file, text, replacement, what the mutation does)
MUTANTS = (
    # the four that survived tier-1 when the audit was first made by hand
    ("M1", "src/pcflow/elliptic.py", "_BACKWARD_ERROR_BOUND = 16.0",
     "_BACKWARD_ERROR_BOUND = 1e6", "Poisson backward-error bound 16 -> 1e6"),
    ("M3", "src/pcflow/flow.py", "rounding = eps * config.t_end * (config.t_end / dt)",
     "rounding = 1000.0 * eps * config.t_end * (config.t_end / dt)",
     "t_end snap's rounding window x1000"),
    ("M4", "src/pcflow/geometry.py",
     "return 2.0 * self.h * self.h * float((rho / -self._band[1]).min())",
     "return 4.0 * self.h * self.h * float((rho / -self._band[1]).min())",
     "sphere heat_dt_scale x2"),
    ("M7", "src/pcflow/flow.py", "RECORD_EVERY_OFF_THREAD = 10",
     "RECORD_EVERY_OFF_THREAD = 1000",
     "records off-thread up to every 1000 steps (equivalent for outputs by design)"),
    # the six that tier-1 killed then
    ("K1", "src/pcflow/elliptic.py", "_IDENTITY_TOL = 1e-10", "_IDENTITY_TOL = 1e-7",
     "Einstein-identity tolerance x1000"),
    ("K2", "src/pcflow/functionals.py", "inv_rho ** (p + 1.0)", "inv_rho ** p",
     "trace probe exponent p + 1 -> p"),
    ("K3", "src/pcflow/geometry.py", "kx_d[self.nx // 2, :] = 0.0",
     "kx_d[self.nx // 2 - 1, :] = 0.0", "Nyquist zeroing of d/dx on the wrong row"),
    ("K4", "src/pcflow/csvout.py", 'return f"{x:.17g}"', 'return f"{x:.16g}"',
     "CSV values with 16 significant digits"),
    ("K5", "src/pcflow/geometry.py", "return 4.0 * h * h * float((self.sigma0 * rho).min())",
     "return 6.0 * h * h * float((self.sigma0 * rho).min())", "torus heat_dt_scale x1.5"),
    ("K6a", "src/pcflow/geometry.py", "fh[self.nx // 3 + 1:self.nx - self.nx // 3] = 0.0",
     "fh[self.nx // 4 + 1:self.nx - self.nx // 4] = 0.0", "truncation rows: 2/3 -> 1/2 rule"),
    ("K6b", "src/pcflow/geometry.py", "fh[:, self.ny // 3 + 1:] = 0.0",
     "fh[:, self.ny // 4 + 1:] = 0.0", "truncation columns: 2/3 -> 1/2 rule"),
    # each bound of the two blocks the 2/3 rule zeroes, moved by one mode
    ("B1", "src/pcflow/geometry.py", "fh[self.nx // 3 + 1:self.nx - self.nx // 3] = 0.0",
     "fh[self.nx // 3:self.nx - self.nx // 3] = 0.0", "row block starts one mode early"),
    ("B2", "src/pcflow/geometry.py", "fh[self.nx // 3 + 1:self.nx - self.nx // 3] = 0.0",
     "fh[self.nx // 3 + 2:self.nx - self.nx // 3] = 0.0", "row block starts one mode late"),
    ("B3", "src/pcflow/geometry.py", "fh[self.nx // 3 + 1:self.nx - self.nx // 3] = 0.0",
     "fh[self.nx // 3 + 1:self.nx - self.nx // 3 - 1] = 0.0", "row block ends one mode early"),
    ("B4", "src/pcflow/geometry.py", "fh[self.nx // 3 + 1:self.nx - self.nx // 3] = 0.0",
     "fh[self.nx // 3 + 1:self.nx - self.nx // 3 + 1] = 0.0", "row block ends one mode late"),
    ("B5", "src/pcflow/geometry.py", "fh[:, self.ny // 3 + 1:] = 0.0",
     "fh[:, self.ny // 3:] = 0.0", "column block starts one mode early"),
    ("B6", "src/pcflow/geometry.py", "fh[:, self.ny // 3 + 1:] = 0.0",
     "fh[:, self.ny // 3 + 2:] = 0.0", "column block starts one mode late"),
)


def copy_tree(dest):
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".benchmarks", "*.egg-info", "BENCH_*.json"))


def apply(tree, path, text, replacement):
    """Replace text in tree/path; False (and no write) unless it occurs exactly once."""
    target = tree / path
    source = target.read_text()
    if source.count(text) != 1:
        return False
    target.write_text(source.replace(text, replacement))
    return True


def run_tests(tree, command, timeout):
    """(outcome, first failing test or "", seconds) of one shell command in tree;
    the outcome is passed, failed, timeout or error."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(["bash", "-c", command], cwd=tree, capture_output=True,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return "timeout", "", time.perf_counter() - start
    outcome = {0: "passed", 1: "failed"}.get(proc.returncode, "error")
    first = next((line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return outcome, first, time.perf_counter() - start


def audit(mutant, timeout):
    """(verdict, deciding run, first failing test, seconds) of one mutant on a fresh copy."""
    ident, path, text, replacement, _ = mutant
    with tempfile.TemporaryDirectory(prefix=f"pcflow-mutant-{ident}-") as tmp:
        tree = Path(tmp) / "tree"
        copy_tree(tree)
        if not apply(tree, path, text, replacement):
            return "stale", "-", "", 0.0
        total = 0.0
        for stage, command in (("fast", FAST), ("tier-1", TIER1)):
            outcome, first, seconds = run_tests(tree, command, timeout)
            total += seconds
            if outcome != "passed":
                verdict = {"failed": "killed", "timeout": "timed out"}.get(outcome, "error")
                return verdict, stage, first, total
        return "survived", "tier-1", "", total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="ID", help="audit these mutants only")
    parser.add_argument("--timeout", type=float, default=900.0,
                        help="seconds allowed for each test run (default 900)")
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and whether each applies, run nothing")
    args = parser.parse_args()
    known = {m[0] for m in MUTANTS}
    unknown = sorted(set(args.only or ()) - known)
    if unknown:
        parser.error(f"unknown mutant ids: {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if args.only is None or m[0] in args.only]

    counts = Counter()
    for mutant in chosen:
        ident, path, text, _, what = mutant
        if args.list:
            found = (ROOT / path).read_text().count(text)
            verdict, stage, first, seconds = ("applies" if found == 1 else "stale"), "-", "", 0.0
        else:
            verdict, stage, first, seconds = audit(mutant, args.timeout)
        counts[verdict] += 1
        print(f"{ident:<4} {verdict:<9} {stage:<6} {seconds:6.1f} s  {path}: {what}", flush=True)
        if first:
            print(f"     first failure: {first}", flush=True)
    print(", ".join(f"{n} {verdict}" for verdict, n in sorted(counts.items())))
    return 1 if "stale" in counts else 0


if __name__ == "__main__":
    sys.exit(main())
