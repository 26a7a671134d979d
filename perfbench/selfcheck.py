"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--counts] [--seed N]

1. The oracle must reject wrong answers.  One pass of small tasks runs
   through the CLI; each output then gets one deliberate corruption (a
   zero moved by 1e-3, an entropy or correlator perturbed, a count off by
   one, a perturbed ground state, ...).  The oracle has to accept every
   original output and reject every corrupted one.
2. With ``--counts``: two traced runs of each workload with one seed must
   report identical counts (every per-layer metric with unit "count"), so
   later changes can cite them as counts.

Exits 0 when every expectation holds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import subprocess
import sys

import run  # first: pins BLAS threads before numpy loads

import numpy as np

sys.path.insert(0, str(run.SRC))

from yanglee import cli

import oracle
from workloads import Task

SMALL = [
    "xxz-zeros --L=4 --beta=60 --grid-n=24 --analytic",
    "xxz-verify-zeros --L=5 --beta=50",
    "xxz-poly --L=6",
    "xxz-bethe --L=8 --M=3",
    "xxz-ee --L=8 --delta-re=0.95 --delta-im=0.02",
    "xxz-gap --L-list=6,8 --delta-re=-0.05",
    "ssh-corr --u=1 --v=2.02 --w=1 --channel=AB --x-max=20",
    "ssh-ee --u=1 --v=1.05 --w=1 --cells=200 --subsystems=10:40:10",
    "ssh-chi --u=1 --v=1.02 --w=1 --beta=500",
    "ssh-zeros-scan --u=1 --wv-steps=20 --t-steps=5",
]


def _edit(text: str, row: int, column: str, change) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[row][column] = repr(change(rows[row][column]))
    buf = io.StringIO()
    out = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    out.writeheader()
    out.writerows(rows)
    return buf.getvalue()


def _numeric_row(text: str, provenance: str) -> int:
    rows = list(csv.DictReader(io.StringIO(text)))
    return next(i for i, r in enumerate(rows) if r["provenance"] == provenance)


def _bumped_state(captured):
    m, energy, psi = captured["ground_state"]
    psi = psi.copy()
    psi[np.flatnonzero(psi)[0]] += 1e-4
    return {**captured, "ground_state": (m, energy, psi)}


def _shift_momentum(captured):
    zero_set = captured["yang_lee_root_count"]
    (k, n), *rest = zero_set.entries
    moved = type(zero_set)(beta=zero_set.beta, entries=[(k + 1e-6, n)] + rest,
                           chi=zero_set.chi)
    return {**captured, "yang_lee_root_count": moved}


# (task index, description, corrupt(text, captured) -> (text, captured))
CORRUPTIONS = [
    (0, "numeric zero moved by 1e-3",
     lambda t, c: (_edit(t, _numeric_row(t, "numeric"), "re_delta",
                         lambda v: float(v) + 1e-3), c)),
    (0, "analytic zero moved by 1e-3",
     lambda t, c: (_edit(t, _numeric_row(t, "analytic"), "im_delta",
                         lambda v: float(v) + 1e-3), c)),
    (1, "paired numeric zero moved by 1e-3",
     lambda t, c: (_edit(t, 0, "re_numeric", lambda v: float(v) + 1e-3), c)),
    (2, "polynomial coefficient off by one",
     lambda t, c: (_edit(t, 1, "coefficient", lambda v: int(v) + 1), c)),
    (3, "Bethe root moved by 1e-6",
     lambda t, c: (_edit(t, 0, "re_zeta", lambda v: float(v) + 1e-6), c)),
    (4, "entropy perturbed by 1e-6",
     lambda t, c: (_edit(t, 2, "entropy", lambda v: float(v) + 1e-6), c)),
    (4, "ground state perturbed by 1e-4", lambda t, c: (t, _bumped_state(c))),
    (5, "gap perturbed by 1e-6",
     lambda t, c: (_edit(t, 0, "gap_ed", lambda v: float(v) + 1e-6), c)),
    (6, "correlator at x = 1 perturbed by 1e-6",
     lambda t, c: (_edit(t, 0, "re_corr", lambda v: float(v) + 1e-6), c)),
    (7, "SSH entropy perturbed by 1e-5",
     lambda t, c: (_edit(t, 0, "re_s", lambda v: float(v) + 1e-5), c)),
    (8, "zero count off by one",
     lambda t, c: (_edit(t, 0, "chi", lambda v: int(v) + 1), c)),
    (8, "mode momentum moved by 1e-6", lambda t, c: (t, _shift_momentum(c))),
    (9, "one scan cell's count off by one",
     lambda t, c: (_edit(t, 7, "chi", lambda v: int(v) + 1), c)),
]


def corruption_check() -> bool:
    tasks = [Task(a.split()[0], tuple(a.split())) for a in SMALL]
    first = run.run_pass(cli, tasks).runs
    ok = True
    for task, result in zip(tasks, first):
        problems = oracle.check(task.argv, result.text, result.captured,
                                oracle.Visibility())
        good = result.rc == 0 and not problems
        ok &= good
        print(f"{'ok ' if good else 'BAD'} original   {' '.join(task.argv)}"
              + ("" if good else f": {problems}"))
    for index, description, corrupt in CORRUPTIONS:
        text, captured = corrupt(first[index].text, first[index].captured)
        problems = oracle.check(tasks[index].argv, text, captured, oracle.Visibility())
        ok &= bool(problems)
        print(f"{'ok ' if problems else 'BAD'} corrupted  {description}: "
              + ("; ".join(problems)[:200] if problems else "not detected"))
    return ok


def _counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def count_check(seed: int) -> bool:
    ok = True
    for workload in ("zeros", "ground", "ssh"):
        first, second = _counts(workload, seed), _counts(workload, seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        ok &= not differ
        nonzero = {k: v for k, v in first.items() if v}
        print(f"{'ok ' if not differ else 'BAD'} counts     {workload} seed {seed}: "
              f"{len(first)} counts, {len(nonzero)} nonzero"
              + (f", differ: {differ}" if differ else ""))
        print("    " + json.dumps(nonzero))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--counts", action="store_true",
                        help="also compare the counts of two traced runs")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    ok = corruption_check()
    if args.counts:
        ok &= count_check(args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
