"""Compare the output bytes of the XXZ zero commands between two revisions.

Runs every ``xxz-zeros`` and ``xxz-verify-zeros`` task of the benchmark's
``zeros`` workload at the given seeds, plus the README example, once on
the sources of a git revision and once on the working tree, and lists
each task whose stdout, stderr or exit code differ.  It also prints how
many ``partition_scaled`` calls each side makes, and over how many
points, per seed and for the README example.  Run from the root of a
checkout:

    python scripts/compare_zero_outputs.py --base HEAD~1 --seeds 1-8

Exit status 0 when every output is byte-identical, 1 otherwise.  BLAS
runs on one thread on both sides.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README_TASK = ["xxz-zeros", "--L", "6", "--beta", "100", "--grid-n", "80", "--analytic"]
COMMANDS = ("xxz-zeros", "xxz-verify-zeros")


def tasks(seeds: list[int]) -> list[tuple[str, list[str]]]:
    """(label, argv) of the README example and the seeds' zero tasks."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import tasks_for

    out = [("readme", README_TASK)]
    for seed in seeds:
        out += [(f"seed {seed}", list(t.argv)) for t in tasks_for("zeros", seed)
                if t.command in COMMANDS]
    return out


def run_tasks(src: str) -> None:
    """Child side: run the tasks read from stdin against ``src``, print JSON results."""
    sys.path.insert(0, src)
    from yanglee import cli, xxz

    counts = [0, 0]
    partition_scaled = xxz.partition_scaled

    def counted(L, J, beta, aniso):
        counts[0] += 1
        counts[1] += xxz.np.size(aniso)
        return partition_scaled(L, J, beta, aniso)

    xxz.partition_scaled = counted
    results = []
    for label, argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        counts[:] = [0, 0]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        results.append({"label": label, "argv": argv, "code": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "calls": counts[0], "points": counts[1]})
    json.dump(results, sys.stdout)


def side(src: Path, todo) -> list[dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--child", str(src)],
                          input=json.dumps(todo), capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seeds", type=seed_range, default="1-8", help="lo-hi, inclusive")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        run_tasks(args.child)
        return 0

    todo = tasks(args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        base = side(Path(tmp) / "src", todo)
    head = side(ROOT / "src", todo)

    differ = 0
    for b, h in zip(base, head):
        if any(b[key] != h[key] for key in ("code", "stdout", "stderr")):
            differ += 1
            print(f"DIFFERS {b['label']}: {' '.join(b['argv'])}")
    for label in dict.fromkeys(r["label"] for r in base):
        tally = [(sum(r["calls"] for r in rs if r["label"] == label),
                  sum(r["points"] for r in rs if r["label"] == label))
                 for rs in (base, head)]
        print(f"{label}: partition_scaled calls/points "
              f"{tally[0][0]}/{tally[0][1]} -> {tally[1][0]}/{tally[1][1]}")
    print(f"{len(todo) - differ} of {len(todo)} outputs byte-identical to {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
