"""Benchmark of the yanglee CLI: three closed-loop workloads, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload zeros|ground|ssh --seed N \
        --seconds S --trace 0|1

A pass runs the workload's task list (README CLI invocations, see
workloads.py) one task after another through ``yanglee.cli.run(argv)``
in this process.  After each task a fixed probe (``Probe``) gauges the
machine's current speed; a pass's task time divided by the mean probe
unit, times the unit's reference time, is its normalized time.  Passes
repeat while the next one is expected to end within ``--seconds``; there
is always at least one.  Every task's output is checked by oracle.py
after the timed region, and later passes must reproduce the first pass
byte for byte.

``--trace 0`` reports the end-to-end metrics of the untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (recorder.py), the tracing overhead
and the import split; spans are written to perfbench-out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS before numpy loads: one thread keeps timings steady on a
# small shared machine, and the count is recorded with the results.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import ctypes
import io
import json
import platform
import resource
import signal
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench-out"
SETUP_SAMPLES = 5
IMPORT_SPLIT_SAMPLES = 3
PROBE_INTERVAL_S = 0.12  # one probe unit (about 12 ms) per interval: ~10 % of a pass
PROBE_REF_S = 0.010  # one probe unit on a 2-vCPU Xeon (KVM) host in a fast phase
COMMAND_METRICS = ("xxz-zeros", "xxz-verify-zeros", "xxz-ee",
                   "ssh-corr", "ssh-ee", "ssh-chi")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("zeros", "ground", "ssh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(samples: int) -> list[float]:
    """Seconds to import yanglee.cli in fresh interpreters (after one warm-up)."""
    code = ("import time; t = time.perf_counter(); import yanglee.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for i in range(samples + 1):
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:
            out.append(float(done.stdout.strip()))
    return out


def measure_import_split(samples: int) -> dict[str, float]:
    """Median self time of each package's modules under -X importtime."""
    per_sample = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import yanglee.cli"], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        totals = dict.fromkeys(("numpy", "scipy", "mpmath", "yanglee"), 0.0)
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            package = fields[2].strip().split(".")[0]
            if package in totals:
                totals[package] += int(fields[0]) * 1e-6
        per_sample.append(totals)
    return {k: statistics.median(s[k] for s in per_sample) for k in per_sample[0]}


def blas_threads() -> str:
    """Thread counts reported by the OpenBLAS libraries bundled with numpy and scipy."""
    import numpy as np

    site = Path(np.__file__).resolve().parent.parent
    found = []
    paths = [p for d in ("numpy.libs", "scipy.libs") for p in sorted(site.glob(d + "/*openblas*.so*"))]
    for path in paths:
        lib = ctypes.CDLL(str(path))  # already loaded: same handle, same state
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                found.append(f"{Path(path).name}:{getter()}")
                break
    return ",".join(found) or "unknown"


def environment(seed: int) -> dict[str, str]:
    import numpy as np
    import scipy

    def blas_name(config) -> str:
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"

    return {
        "nproc": str(os.cpu_count()),
        "affinity": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_name(np.show_config(mode="dicts")),
        "scipy_blas": blas_name(scipy.show_config(mode="dicts")),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_loaded": blas_threads(),
        "seed": str(seed),
        "load": "one process, closed loop, one client",
    }


class Probe:
    """Fixed work that does not touch yanglee, to gauge the machine's speed.

    On a shared host the speed of identical work drifts by tens of percent
    over seconds to minutes.  While a pass runs, a SIGALRM timer runs one
    probe unit every ``PROBE_INTERVAL_S``, inside whatever Python code is
    executing then (after the current C call returns).  A unit mixes what
    the program spends its time on: an interpreter loop over a dict, small
    numpy array operations and one LAPACK eigvals call.  Task times
    exclude the units run inside them; dividing a pass's task time by the
    mean unit time removes most of the drift.
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg

        self._np, self._eigvals = np, scipy.linalg.eigvals
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.intervals: list[tuple[float, float]] = []  # (start, end) of each unit
        self._busy = False

    def unit(self) -> None:
        np = self._np
        t0 = time.perf_counter()
        table, acc = {}, 0
        for i in range(20000):
            acc += (i * i) % 7
            table[i & 511] = acc
        z = 0j
        for i in range(300):
            z += np.exp(1j * np.linspace(0.0, 1.0, 32) * i).sum()
        self._eigvals(self._matrix)
        self.intervals.append((t0, time.perf_counter()))

    def _on_alarm(self, signum, frame):
        if not self._busy:  # a late alarm must not nest inside a unit
            self._busy = True
            try:
                self.unit()
            finally:
                self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Run units on a timer for the duration of the block."""
        self.unit()  # every pass gets at least one unit
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, t0: float, t1: float, first: int = 0) -> float:
        """Probe time spent in [t0, t1), looking at units from index ``first``."""
        return sum(b - a for a, b in self.intervals[first:] if t0 <= a < t1)

    @property
    def unit_s(self) -> float:
        return sum(b - a for a, b in self.intervals) / len(self.intervals)


@dataclass
class TaskRun:
    rc: int | None
    text: str
    error: str
    seconds: float
    captured: dict


@dataclass
class Pass:
    runs: list[TaskRun]
    probe: Probe
    recorder: object = None  # recorder.Recorder of a traced pass

    @property
    def seconds(self) -> float:
        """Time spent in the tasks of this pass."""
        return sum(r.seconds for r in self.runs)

    @property
    def norm_seconds(self) -> float:
        """Task time at the reference machine speed."""
        return self.seconds * PROBE_REF_S / self.probe.unit_s


def run_pass(cli, tasks, recorder=None) -> Pass:
    from recorder import captured, instrumented

    sink: dict = {}
    runs = []
    probe = Probe()
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(instrumented(recorder))
        stack.enter_context(captured(sink))
        stack.enter_context(probe.sampling())
        for i, task in enumerate(tasks):
            if recorder is not None:
                recorder.task = i
            sink.clear()
            out, err = io.StringIO(), io.StringIO()
            first_unit = len(probe.intervals)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.run(task.argv)
            except Exception:  # a crash is a failed task, not a failed benchmark
                rc = None
                err.write(traceback.format_exc())
            t1 = time.perf_counter()
            seconds = t1 - t0 - probe.within(t0, t1, first_unit)
            runs.append(TaskRun(rc, out.getvalue(), err.getvalue(), seconds, dict(sink)))
    return Pass(runs, probe, recorder)


def check_passes(tasks, passes, visible) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages); the first pass is checked by the oracle."""
    from oracle import check

    first = passes[0].runs
    verdict = []
    for task, run in zip(tasks, first):
        if run.rc != 0:
            problems = [f"exit {run.rc}: {run.error.strip()[-300:]}"]
        else:
            try:
                problems = check(task.argv, run.text, run.captured, visible)
            except Exception:  # an unreadable output is a wrong output
                problems = ["oracle error: " + traceback.format_exc(limit=2)]
        verdict.append(problems)
    attempted = failed = 0
    messages = []
    for p in passes:
        for i, (task, run) in enumerate(zip(tasks, p.runs)):
            attempted += 1
            problems = verdict[i]
            if p is not passes[0] and (run.rc != 0 or run.text != first[i].text):
                problems = problems + ["output differs from the first pass"]
            if problems:
                failed += 1
                messages.append(f"task {i} {' '.join(task.argv)}: {'; '.join(problems)}")
    return attempted, failed, messages


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "yanglee" / "cli.py").is_file():
        print(f"error: no yanglee sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = measure_setup(SETUP_SAMPLES)
    import_split = measure_import_split(IMPORT_SPLIT_SAMPLES) if args.trace else {}

    from yanglee import cli  # after the fresh-interpreter timings
    import oracle
    from recorder import Recorder, layer_metrics
    from workloads import tasks_for

    env = environment(args.seed)
    for key, value in env.items():
        print(f"# env {key}: {value}")
    tasks = tasks_for(args.workload, args.seed)

    kinds = (False, True) if args.trace else (False,)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        use_recorder = kinds[len(passes) % len(kinds)]
        passes.append(run_pass(cli, tasks, Recorder() if use_recorder else None))
        if len(passes) == 1:  # later passes only add retained results
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(passes) >= len(kinds):
            elapsed = time.perf_counter() - start
            typical = elapsed / len(passes)
            if elapsed + typical > args.seconds:
                break

    visible = oracle.Visibility()
    attempted, failed, messages = check_passes(tasks, passes, visible)
    for msg in messages:
        print("# FAILED " + msg)
    for case in visible.per_case:
        print("# pairing L={} beta={:g}: {} analytic, {} distinct partners, "
              "worst distance {:.3e}".format(*case))

    plain = [p for p in passes if p.recorder is None]
    traced = [p for p in passes if p.recorder is not None]
    run_s = statistics.median(p.seconds for p in plain)
    run_norm_s = statistics.median(p.norm_seconds for p in plain)
    command_s = {
        command.replace("-", "_"): statistics.median(
            sum(r.seconds for t, r in zip(tasks, p.runs) if t.command == command)
            for p in plain)
        for command in COMMAND_METRICS}

    print(f"# workload {args.workload}: {len(tasks)} tasks per pass, "
          f"{len(passes)} passes (t = traced), task seconds / probe unit ms: "
          + ", ".join(f"{p.seconds:.3f}/{1e3 * p.probe.unit_s:.2f}"
                      f"{'t' if p.recorder else ''}" for p in passes))
    if args.trace:
        layers = [layer_metrics(p.recorder, p.probe.intervals) for p in traced]
        metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        for command, seconds in command_s.items():
            metrics[f"cmd.{command}.s"] = (seconds, "s")
        for package, seconds in import_split.items():
            metrics[f"import.{package}_s"] = (seconds, "s")
        metrics["trace.overhead_frac"] = (
            statistics.median(p.norm_seconds for p in traced) / run_norm_s - 1.0, "ratio")
        metrics["run.wall_s"] = (run_s, "s")
        metrics["probe.unit_s"] = (statistics.median(p.probe.unit_s for p in plain), "s")
        metrics["xxz.pairing.distinct_frac"] = (visible.distinct_frac, "ratio")
        metrics["xxz.pairing.worst_dist_b100"] = (visible.worst_distance_beta100,
                                                  "dimensionless")
        OUT_DIR.mkdir(exist_ok=True)
        traced[0].recorder.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz",
                                 traced[0].probe.intervals)
    else:
        print(f"run_s = {run_s:.6f} s (task time, not normalized)")
        metrics = {
            "run_norm_s": (run_norm_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        for command, seconds in command_s.items():
            if seconds:
                print(f"{command}_s = {seconds:.6f} s")
    print(f"failed_frac = {failed / attempted:.6f} (failed {failed} of {attempted} tasks)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
