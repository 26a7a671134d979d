"""Compare the output bytes of CLI commands between two revisions.

Runs, once on the sources of a git revision and once on the working
tree, and lists each task whose stdout, stderr or exit code differ:

* every task of the benchmark's ``zeros``, ``ground`` and ``ssh``
  workloads at the given seeds;
* the README's example of every command, with ``--out`` dropped so that
  the table goes to stdout;
* each of these once as CSV and once with ``--format json``;
* ``yanglee --help`` and ``yanglee <command> --help`` for every command
  of the README.

When bytes differ, it prints the largest absolute and relative move of
a numeric field per command and column, the zero coordinates apart from
the residuals and the other columns, and names (``NOT MEASURED``) each
task whose exit code, stderr or table shape differs or whose changed
field is not a finite number on both sides.  It also prints, per seed and for the README examples, how many
``partition_scaled`` calls each side makes and over how many points,
how many correlation matrices ``ssh_correlation_matrix`` builds, how
many matrices the XXZ block kernels solve (the general
``np.linalg.eigvals`` and the Hermitian ``np.linalg.eigvalsh`` of
``hermitian_eigvals``, hooked in numpy, where every revision calls
them), how many ``inverse_iteration`` calls ``ground_state`` makes, at
how many momentum nodes ``ssh.corr_momentum`` is evaluated (the node-doubling
schedule of ``ssh-corr``), and how many ``ssh.corr_asymptotic`` and
``ssh.bessel_k0`` calls each side makes; a side whose sources predate a
layer reads ``n/a`` there.  These counts cover the CSV and the JSON run
of each task.
Run from the root of a checkout:

    python scripts/compare_cli_outputs.py --base HEAD~1 --seeds 1-8

Exit status 0 when every output is byte-identical, 1 otherwise.  BLAS
runs on one thread on both sides.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("zeros", "ground", "ssh")
ZERO_COLUMNS = {"re_delta", "im_delta", "re_analytic", "im_analytic",
                "re_numeric", "im_numeric"}
RESIDUAL_COLUMNS = {"residual"}


def readme_tasks() -> list[list[str]]:
    """argv of each README example."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    out = []
    for line in block.splitlines():
        argv = shlex.split(line)[1:] if line.startswith("yanglee ") else []
        if argv:
            if "--out" in argv:
                i = argv.index("--out")
                del argv[i:i + 2]
            out.append(argv)
    return out


def tasks(seeds: list[int]) -> list[tuple[str, list[str]]]:
    """(label, argv) of each --help, then of each README example and seed task in CSV and JSON."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import tasks_for

    tables = [("readme", argv) for argv in readme_tasks()]
    commands = dict.fromkeys(argv[0] for _, argv in tables)
    helps = [("help", ["--help"])] + [("help", [c, "--help"]) for c in commands]
    for seed in seeds:
        tables += [(f"seed {seed}", list(t.argv))
                   for workload in WORKLOADS for t in tasks_for(workload, seed)]
    return helps + [(label, argv + extra) for label, argv in tables
                    for extra in ([], ["--format", "json"])]


def table(result: dict) -> list[list[str]]:
    """The printed table as rows of fields, the header first."""
    if "--format" not in result["argv"]:
        return list(csv.reader(io.StringIO(result["stdout"])))
    records = json.loads(result["stdout"] or "[]")
    return [list(records[0]), *(list(r.values()) for r in records)] if records else []


def run_tasks(src: str) -> None:
    """Child side: run the tasks read from stdin against ``src``, print JSON results."""
    sys.path.insert(0, src)
    from yanglee import cli, entanglement, ssh, xxz

    counts = {"calls": 0, "points": 0, "corr": 0, "nodes": 0, "asym": 0, "k0": 0,
              "general": 0, "hermitian": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    def counted_matrices(key, fn):
        def call(a):
            counts[key] += a[..., 0, 0].size
            return fn(a)
        return call

    partition_scaled = xxz.partition_scaled
    linalg = xxz.np.linalg
    linalg.eigvals = counted_matrices("general", linalg.eigvals)
    linalg.eigvalsh = counted_matrices("hermitian", linalg.eigvalsh)
    if hasattr(xxz, "inverse_iteration"):
        counts["inverse"] = 0
        xxz.inverse_iteration = counted("inverse", xxz.inverse_iteration)

    def counted_partition(L, J, beta, aniso):
        counts["calls"] += 1
        counts["points"] += xxz.np.size(aniso)
        return partition_scaled(L, J, beta, aniso)

    corr_momentum = ssh.corr_momentum

    def counted_nodes(p, k, channel):
        counts["nodes"] += xxz.np.size(k)
        return corr_momentum(p, k, channel)

    xxz.partition_scaled = counted_partition
    entanglement.ssh_correlation_matrix = counted("corr", entanglement.ssh_correlation_matrix)
    ssh.corr_momentum = counted_nodes
    ssh.corr_asymptotic = counted("asym", ssh.corr_asymptotic)
    ssh.bessel_k0 = counted("k0", ssh.bessel_k0)
    results = []
    for label, argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        counts.update(dict.fromkeys(counts, 0))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        results.append({"label": label, "argv": argv, "code": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue(), **counts})
    json.dump(results, sys.stdout)


def side(src: Path, todo) -> list[dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--child", str(src)],
                          input=json.dumps(todo), capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout)


def numeric_moves(base: list[dict], head: list[dict]):
    """({(command, column): (largest |a - b|, largest relative move)}, [odd tasks]).

    A task is odd when it prints no table (``--help``), its exit code or
    stderr differs, its tables differ in shape, or a changed field is not
    a finite number on both sides.
    """
    moves: dict[tuple[str, str], tuple[float, float]] = {}
    odd: dict[str, None] = {}  # ordered set of command lines
    for b, h in zip(base, head):
        if b["stdout"] == h["stdout"] and b["code"] == h["code"] and b["stderr"] == h["stderr"]:
            continue
        if "--help" in b["argv"] or b["code"] != h["code"] or b["stderr"] != h["stderr"]:
            odd[" ".join(b["argv"])] = None
            continue
        tables = [table(r) for r in (b, h)]
        if (not tables[0]
                or [len(row) for row in tables[0]] != [len(row) for row in tables[1]]):
            odd[" ".join(b["argv"])] = None
            continue
        for row_b, row_h in zip(*tables):
            for column, x, y in zip(tables[0][0], row_b, row_h):
                if x == y:
                    continue
                try:
                    fx, fy = float(x), float(y)
                except ValueError:
                    fx = fy = math.nan
                step = abs(fx - fy)
                if not math.isfinite(step):  # text, or a nan or inf on one side
                    odd[" ".join(b["argv"])] = None
                    continue
                key = (b["argv"][0], column)
                old = moves.get(key, (0.0, 0.0))
                moves[key] = (max(old[0], step),
                              max(old[1], step / max(abs(fx), abs(fy)) if step else 0.0))
    return moves, list(odd)


def report_moves(base: list[dict], head: list[dict]) -> None:
    moves, odd = numeric_moves(base, head)
    groups = (("zero coordinates", lambda c: c in ZERO_COLUMNS),
              ("residuals", lambda c: c in RESIDUAL_COLUMNS),
              ("other columns", lambda c: c not in ZERO_COLUMNS | RESIDUAL_COLUMNS))
    for title, member in groups:
        keys = sorted(k for k in moves if member(k[1]))
        if keys:
            print(f"largest moves, {title} (absolute, relative):")
        for command, column in keys:
            step, rel = moves[command, column]
            print(f"  {command} {column}: {step:.3g}, {rel:.3g}")
    for line in odd:
        print(f"NOT MEASURED: {line}")


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
    report_moves(base, head)
    keys = ("calls", "points", "corr", "general", "hermitian", "inverse", "nodes",
            "asym", "k0")
    for label in dict.fromkeys(r["label"] for r in base):
        tally = [{key: (sum(r[key] for r in rs if r["label"] == label)
                        if key in rs[0] else "n/a") for key in keys} for rs in (base, head)]
        print(f"{label}: partition_scaled calls/points "
              f"{tally[0]['calls']}/{tally[0]['points']} -> "
              f"{tally[1]['calls']}/{tally[1]['points']}; correlation matrices "
              f"{tally[0]['corr']} -> {tally[1]['corr']}; block eigensolves "
              f"general/Hermitian {tally[0]['general']}/{tally[0]['hermitian']} -> "
              f"{tally[1]['general']}/{tally[1]['hermitian']}; "
              f"inverse iterations {tally[0]['inverse']} -> {tally[1]['inverse']}; "
              f"corr_momentum nodes {tally[0]['nodes']} -> {tally[1]['nodes']}; "
              f"corr_asymptotic/bessel_k0 calls {tally[0]['asym']}/{tally[0]['k0']} -> "
              f"{tally[1]['asym']}/{tally[1]['k0']}")
    print(f"{len(todo) - differ} of {len(todo)} outputs byte-identical to {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
