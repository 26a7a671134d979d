"""Span recorder for the traced benchmark run.

The recorder lives outside the package.  It wraps the public functions of
each layer in the namespace where their callers look them up, so the
program runs unchanged and every wrapped call becomes one span: name,
start, end, parent span and task id.  Spans stay in memory until the run
ends.  Counts that belong to a layer (matrix dimensions cubed, quadrature
panels, Newton residual evaluations, ...) are taken at the same
boundaries.

Layer names, the functions each one wraps, and the end-to-end metric each
should move are listed in README.md next to this file.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import gzip
import inspect
import itertools
import time
from collections import Counter, defaultdict

import scipy.linalg
from yanglee import cli, entanglement, ssh, xxz


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self.counts: Counter = Counter()
        self.task = -1
        self._stack: list[int] = []

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recorded as span ``name``.

        ``before(args, kwargs)`` may return replacement arguments (to count
        calls of a callback); ``after(args, kwargs, result)`` reads the
        result.  Neither is timed inside the span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def counted(self, key, fn):
        """``fn`` with a call counter and no span, for very hot callbacks."""
        counts = self.counts

        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return call

    def write(self, path, probes=()) -> None:
        """Spans as gzipped CSV; probe units follow as rows named "probe"."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_s", "end_s", "parent", "task"])
            out.writerows(self.spans)
            out.writerows(["probe", a, b, -1, -1] for a, b in probes)

    def summary(self, excluded=()) -> dict:
        """Per span name: calls, total time (outermost spans) and self time.

        ``excluded`` holds sorted, disjoint (start, end) intervals of work
        that is not the program's (probe units run from a signal handler);
        each lies wholly inside or wholly outside any span, and its time is
        taken out of every span that contains it.
        """
        starts = [a for a, _ in excluded]
        before = list(itertools.accumulate((b - a for a, b in excluded), initial=0.0))

        def duration(t0, t1):
            return t1 - t0 - (before[bisect.bisect_left(starts, t1)]
                              - before[bisect.bisect_left(starts, t0)])

        n = len(self.spans)
        own = [duration(t0, t1) for _, t0, t1, _, _ in self.spans]
        child_time = [0.0] * n
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += own[i]
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += own[i] - child_time[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:  # no enclosing span of the same name
                row["s"] += own[i]
        return out


class _Namespace:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


def _n3(key, counts):
    def before(args, kwargs):
        counts[key] += len(args[0]) ** 3
        return args, kwargs
    return before


def _targets(rec: Recorder) -> list[tuple[object, str, object]]:
    c = rec.counts

    def quad_before(args, kwargs):
        f = rec.counted("quad.panels", args[0])
        return (f,) + tuple(args[1:]), kwargs

    def quad_after(args, kwargs, res):
        c["quad.kept"] += res.panels

    def newton_before(args, kwargs):
        return (rec.counted("newton.f_evals", args[0]),) + tuple(args[1:]), kwargs

    def poly_before(args, kwargs):
        c["poly.degree_sum"] += args[0].degree
        return args, kwargs

    locate_signature = inspect.signature(xxz.locate_zeros_numeric)

    def locate_after(args, kwargs, locus):
        bound = locate_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        grid_n = bound.arguments["grid_n"]
        c["xxz.grid_points"] += grid_n * grid_n
        c["xxz.zeros.found"] += len(locus.zeros)
        c["xxz.zeros.dropped"] += len(locus.dropped)

    def verify_after(args, kwargs, pairing):
        distinct: list[complex] = []
        for z in pairing.numeric:
            if all(abs(z - d) > 1e-8 for d in distinct):
                distinct.append(z)
        c["xxz.zeros.found"] += len(distinct)

    dispersion = ssh.dispersion

    def bisection_dispersion(*args, **kwargs):
        if rec.current() == "ssh.root_count":
            c["ssh.dispersion.calls"] += 1
        return dispersion(*args, **kwargs)

    w = rec.wrap
    linalg = _Namespace(scipy.linalg, eigvals=w(
        "xxz.sector_eig", scipy.linalg.eigvals,
        before=_n3("xxz.sector_eig.n3", c)))
    return [
        (cli, "run", w("cli", cli.run)),
        # xxz
        (xxz, "scipy", _Namespace(xxz.scipy, linalg=linalg)),
        (xxz, "magnon_sector", w("xxz.sector_build", xxz.magnon_sector)),
        (xxz, "build_sector_hamiltonian",
         w("xxz.sector_build", xxz.build_sector_hamiltonian)),
        (xxz, "dense_eig", w("eig", xxz.dense_eig, before=_n3("eig.n3", c))),
        (xxz, "full_spectrum", w("xxz.full_spectrum", xxz.full_spectrum)),
        (xxz, "ground_state", w("xxz.ground_state", xxz.ground_state)),
        (xxz, "partition_scaled", w("xxz.partition", xxz.partition_scaled)),
        (xxz, "locate_zeros_numeric",
         w("xxz.locate_zeros", xxz.locate_zeros_numeric, after=locate_after)),
        (xxz, "verify_analytic_zeros",
         w("xxz.verify_zeros", xxz.verify_analytic_zeros, after=verify_after)),
        (xxz, "analytic_zeros", w("xxz.analytic_zeros", xxz.analytic_zeros)),
        (xxz, "roots_of_polynomial",
         w("poly", xxz.roots_of_polynomial, before=poly_before)),
        (xxz, "solve_bethe_roots", w("xxz.bethe", xxz.solve_bethe_roots)),
        (xxz, "newton_system", w("newton", xxz.newton_system, before=newton_before)),
        # entanglement
        (entanglement, "dense_eig", w("ent.gamma_eig", entanglement.dense_eig,
                                      before=_n3("ent.gamma_eig.n3", c))),
        (entanglement, "ssh_correlation_matrix",
         w("ent.corr_matrix", entanglement.ssh_correlation_matrix)),
        (entanglement, "ee_from_correlation",
         w("ent.entropy_sum", entanglement.ee_from_correlation)),
        (entanglement, "state_ee", w("ent.state_ee", entanglement.state_ee)),
        # ssh
        (ssh, "adaptive_integrate", w("quad", ssh.adaptive_integrate,
                                      before=quad_before, after=quad_after)),
        (ssh, "bessel_k0", w("k0", ssh.bessel_k0)),
        (ssh, "corr_momentum", w("ssh.corr_momentum", ssh.corr_momentum)),
        (ssh, "corr_real", w("ssh.corr_real", ssh.corr_real)),
        (ssh, "corr_asymptotic", w("ssh.corr_asymptotic", ssh.corr_asymptotic)),
        (ssh, "yang_lee_root_count", w("ssh.root_count", ssh.yang_lee_root_count)),
        (ssh, "chi_count", w("ssh.chi_count", ssh.chi_count)),
        (ssh, "zeros_region_scan", w("ssh.zeros_scan", ssh.zeros_region_scan)),
        (ssh, "dispersion", bisection_dispersion),
    ]


@contextlib.contextmanager
def patched(targets):
    """Set ``obj.attr = value`` for each target; restore on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, value in targets:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def instrumented(rec: Recorder):
    return patched(_targets(rec))


def captured(sink: dict):
    """Keep the return values that the oracle checks but the CLI does not print.

    ``xxz-ee`` prints entropies, not the ground state they come from, and
    ``ssh-chi`` prints the count, not the mode momenta.  ``sink`` maps the
    wrapped function name to the last result; the caller clears it per task.
    """
    def keep(name, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink[name] = out
            return out
        return call

    return patched([
        (xxz, "ground_state", keep("ground_state", xxz.ground_state)),
        (ssh, "yang_lee_root_count",
         keep("yang_lee_root_count", ssh.yang_lee_root_count)),
    ])


def layer_metrics(rec: Recorder, excluded=()) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass as {name: (value, unit)}.

    ``excluded``: intervals of probe work to take out of span times.
    """
    s = rec.summary(excluded)
    c = rec.counts

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def total(name):
        return s[name]["s"] if name in s else 0.0

    def self_time(name):
        return s[name]["self_s"] if name in s else 0.0

    partitions = calls("xxz.partition")
    found = c["xxz.zeros.found"]
    panels = c["quad.panels"]
    out = {
        "xxz.sector_build.calls": (calls("xxz.sector_build"), "count"),
        "xxz.sector_build.s": (total("xxz.sector_build"), "s"),
        "xxz.sector_eig.calls": (calls("xxz.sector_eig"), "count"),
        "xxz.sector_eig.s": (total("xxz.sector_eig"), "s"),
        "xxz.sector_eig.n3": (c["xxz.sector_eig.n3"], "count"),
        "xxz.partition.calls": (partitions, "count"),
        "xxz.partition.s": (total("xxz.partition"), "s"),
        "xxz.polish.evals": (partitions - c["xxz.grid_points"], "count"),
        "xxz.zeros.found": (found, "count"),
        "xxz.zeros.dropped": (c["xxz.zeros.dropped"], "count"),
        "xxz.evals_per_zero": (partitions / found if found else 0.0, "ratio"),
        "xxz.ground_state.calls": (calls("xxz.ground_state"), "count"),
        "xxz.ground_state.s": (total("xxz.ground_state"), "s"),
        "xxz.full_spectrum.calls": (calls("xxz.full_spectrum"), "count"),
        "xxz.full_spectrum.s": (total("xxz.full_spectrum"), "s"),
        "eig.calls": (calls("eig"), "count"),
        "eig.s": (total("eig"), "s"),
        "eig.n3": (c["eig.n3"], "count"),
        "ent.corr_matrix.calls": (calls("ent.corr_matrix"), "count"),
        "ent.corr_matrix.s": (total("ent.corr_matrix"), "s"),
        "ent.gamma_eig.s": (total("ent.gamma_eig"), "s"),
        "ent.gamma_eig.n3": (c["ent.gamma_eig.n3"], "count"),
        "ent.entropy_sum.self_s": (self_time("ent.entropy_sum"), "s"),
        "ent.state_ee.calls": (calls("ent.state_ee"), "count"),
        "ent.state_ee.s": (total("ent.state_ee"), "s"),
        "quad.calls": (calls("quad"), "count"),
        "quad.s": (total("quad"), "s"),
        "quad.self_s": (self_time("quad"), "s"),
        "quad.panels": (panels, "count"),
        "quad.kept_frac": (c["quad.kept"] / panels if panels else 0.0, "ratio"),
        "ssh.corr_momentum.s": (total("ssh.corr_momentum"), "s"),
        "k0.calls": (calls("k0"), "count"),
        "k0.s": (total("k0"), "s"),
        "ssh.root_count.calls": (calls("ssh.root_count"), "count"),
        "ssh.root_count.s": (total("ssh.root_count"), "s"),
        "ssh.dispersion.calls": (c["ssh.dispersion.calls"], "count"),
        "ssh.chi_count.calls": (calls("ssh.chi_count"), "count"),
        "ssh.chi_count.s": (total("ssh.chi_count"), "s"),
        "poly.calls": (calls("poly"), "count"),
        "poly.s": (total("poly"), "s"),
        "poly.degree_sum": (c["poly.degree_sum"], "count"),
        "newton.calls": (calls("newton"), "count"),
        "newton.f_evals": (c["newton.f_evals"], "count"),
        "newton.s": (total("newton"), "s"),
        "cli.self_s": (self_time("cli"), "s"),
        "trace.spans": (len(rec.spans), "count"),
    }
    return out
