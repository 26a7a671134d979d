"""Batch command-line front end.

Every subcommand runs one scan or verification, writes a CSV table (or
JSON with --format json) to --out (stdout by default), and optionally a
JSON run manifest to --manifest.  No command draws random numbers, so
output is deterministic for fixed flags.  An empty list flag is a usage
error.  Each command's columns and their print formats are declared
once, in ``_TABLES``; ``yanglee --help`` lists the columns.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from functools import cache

import numpy as np
import scipy

from . import __version__, entanglement, ssh, xxz
from .errors import DomainError, YangLeeError


def _nonempty(values: list, text: str) -> list:
    if not values:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    """Comma list ("10,20,30") or range ("10:80:5", inclusive ends, step >= 1)."""
    try:
        if ":" not in text:
            return _nonempty([int(t) for t in text.split(",") if t], text)
        parts = [int(t) for t in text.split(":")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None
    if len(parts) == 2:
        parts.append(1)
    if len(parts) != 3 or parts[2] < 1:
        raise argparse.ArgumentTypeError(
            f"range must be lo:hi or lo:hi:step with step >= 1: {text!r}")
    lo, hi, step = parts
    return _nonempty(list(range(lo, hi + 1, step)), text)


def _float_list(text: str) -> list[float]:
    """Comma list of numbers ("-0.02,-0.05")."""
    try:
        return _nonempty([float(t) for t in text.split(",") if t], text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from None


# Each command's table: a bare column prints as %.12g, name:d as %d
# (integers and 0/1 flags) and name:s as %s (plain text, never quoted).
_TABLES = {
    "ssh-zeros-scan": "w_minus_v T has_zeros:d chi:d",
    "ssh-chi": "u v w beta chi:d formula ratio",
    "ssh-corr": "x:d re_corr im_corr re_asym im_asym abs_ratio",
    "ssh-ee": "l_a:d re_s im_s",
    "xxz-poly": "exponent:d coefficient:d",
    "xxz-zeros": "re_delta im_delta provenance:s residual",
    "xxz-verify-zeros": "j:d re_analytic im_analytic re_numeric im_numeric distance residual",
    "xxz-bethe": "j:d re_zeta im_zeta",
    "xxz-ee": "l_a:d entropy log_sin_chord",
    "xxz-gap": "L:d re_delta gap_ed gap_predicted rel_err",
    "xxz-susceptibility": "abs_delta chi sigma_fit",
}
_BATCH_ROWS = 1024


def _columns(command: str) -> tuple[list[str], list[str]]:
    """The names and '%' conversions of the command's table columns."""
    fields = [f.partition(":") for f in _TABLES[command].split()]
    return [name for name, _, _ in fields], ["%" + (kind or ".12g") for _, _, kind in fields]


def _write_table(command, rows, out_path, fmt):
    names, specs = _columns(command)
    if fmt == "csv":
        line = ",".join(specs) + "\n"
        rows = iter(rows)

        def batches():
            yield ",".join(names) + "\n"
            # one '%' per batch keeps the argument tuple and format string
            # small; each batch is written before the next is formatted
            while batch := list(itertools.islice(rows, _BATCH_ROWS)):
                yield (line * len(batch)) % tuple(itertools.chain.from_iterable(batch))

        pieces = batches()
    else:
        records = [{name: spec % v for name, spec, v in zip(names, specs, row)}
                   for row in rows]
        pieces = [json.dumps(records, indent=1) + "\n"]
    if out_path in (None, "-"):
        sys.stdout.writelines(pieces)
        return []
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
    return [out_path]


def _write_manifest(path, command, args, outputs, wall_time):
    if path is None:
        return
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "out", "manifest", "command")}
    manifest = {
        "command": command,
        "parameters": params,
        "versions": (f"yanglee {__version__}; numpy {np.__version__}; "
                     f"scipy {scipy.__version__}; "
                     f"python {sys.version.split()[0]}"),
        "outputs": outputs,
        "wall_time": wall_time,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


# --- subcommand bodies: each takes args, returns the rows of its table ---


def _cmd_ssh_zeros_scan(args):
    if not all(map(math.isfinite, (args.wv_min, args.wv_max, args.t_min, args.t_max))):
        raise DomainError("scan window bounds must be finite")
    ssh._check_scan_cells(args.wv_steps * args.t_steps)  # before the axes are allocated
    wv = np.linspace(args.wv_min, args.wv_max, args.wv_steps)
    ts = np.linspace(args.t_min, args.t_max, args.t_steps)
    chi = ssh.zeros_region_scan(args.u, wv, ts).chi
    wv_list = wv.tolist()
    # rows as a generator: the table writer formats them a batch at a time
    return ((d, t, int(c > 0), c)
            for t, row in zip(ts.tolist(), chi) for d, c in zip(wv_list, row.tolist()))


def _cmd_ssh_chi(args):
    p = ssh.SSHParams(u=args.u, v=args.v, w=args.w)
    zero_set = ssh.yang_lee_root_count(p, args.beta)
    gap2 = args.u ** 2 - (args.v - args.w) ** 2
    formula = args.beta * math.sqrt(gap2) / (2.0 * math.pi) if gap2 > 0 else 0.0
    ratio = zero_set.chi / formula if formula > 0 else float("nan")
    return [(args.u, args.v, args.w, args.beta, zero_set.chi, formula, ratio)]


def _cmd_ssh_corr(args):
    p = ssh.SSHParams(u=args.u, v=args.v, w=args.w)
    row = ssh.corr_row(p, args.x_max, args.channel, tol=args.tol)
    try:
        asym = ssh.corr_asymptotic(p, range(1, args.x_max + 1), args.channel)
    except YangLeeError:  # u = 0, or no correlation length
        asym = np.full(args.x_max, complex(math.nan, math.nan))
    # a ratio means something only where the asymptote exceeds the row's
    # absolute accuracy; below it C sits at its rounding floor
    return [(x, c.real, c.imag, a.real, a.imag,
             abs(c / a) if abs(a) > args.tol else math.nan)
            for x, (c, a) in enumerate(zip(row.tolist(), asym.tolist()), start=1)]


def _cmd_ssh_ee(args):
    p = ssh.SSHParams(u=args.u, v=args.v, w=args.w)
    entropies = entanglement.ssh_entropies(p, args.cells, args.subsystems,
                                           filling=args.filling)
    return [(la, s.real, s.imag) for la, s in zip(args.subsystems, entropies)]


def _cmd_xxz_poly(args):
    return xxz.zero_polynomial_terms(args.L)


def _cmd_xxz_zeros(args):
    # the numeric search first: its L cap is checked before the analytic
    # zeros build a companion matrix of degree L^2/4
    numeric = xxz.locate_zeros_numeric(args.L, args.beta, args.J,
                                       (args.re_min, args.re_max),
                                       (args.im_min, args.im_max),
                                       grid_n=args.grid_n)
    rows = [(z.real, z.imag, "numeric", r) for z, r in zip(numeric.zeros, numeric.residuals)]
    if args.analytic:
        rows[:0] = [(z.real, z.imag, "analytic", math.nan) for z in xxz.analytic_zeros(
            args.L, args.beta, args.J, n_window=range(args.n_min, args.n_max + 1))]
    return rows


def _cmd_xxz_verify_zeros(args):
    pairing = xxz.verify_analytic_zeros(args.L, args.beta, args.J)
    return [(j, a.real, a.imag, n.real, n.imag, abs(n - a), r)
            for j, (a, n, r) in enumerate(zip(pairing.analytic, pairing.numeric,
                                              pairing.residuals))]


def _cmd_xxz_bethe(args):
    zeta = xxz.solve_bethe_roots(args.L, args.M)
    quadratic = np.sum(zeta ** 2) + args.M * (args.M - 1) / (args.L - 1)
    print(f"# sum rules: |sum zeta| = {float(abs(np.sum(zeta))):.3e}, "
          f"|sum zeta^2 + M(M-1)/(L-1)| = {float(abs(quadratic)):.3e}",
          file=sys.stderr)
    return [(j, z.real, z.imag) for j, z in enumerate(zeta)]


def _cmd_xxz_ee(args):
    _, _, psi = xxz.ground_state(args.L, args.J, complex(args.delta_re, args.delta_im))
    rows = []
    for cut in range(1, args.L):
        s = entanglement.state_ee(psi, args.L, cut)
        rows.append((cut, s, math.log(math.sin(math.pi * cut / args.L))))
    return rows


def _cmd_xxz_gap(args):
    if args.delta_re >= 0:
        # the prediction is the gapless-side level spacing, -J Re delta / (L - 1)
        # at even L and twice that at odd L
        raise DomainError("xxz-gap compares the gapless side: needs Re delta < 0")
    rows = []
    for length in args.L_list:
        gap = xxz.ed_gap(length, args.J, args.delta_re)
        pred = xxz.multiplet_gap(length, args.J, args.delta_re)
        rows.append((length, args.delta_re, gap, pred, abs(gap - pred) / pred))
    return rows


def _cmd_xxz_susceptibility(args):
    scan = xxz.susceptibility_scaling(args.L, args.J, args.deltas)
    return [(m, c, scan.sigma_fit) for m, c in scan.table]


# --- parser ------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand, built once per process.

    Parsing reads the tree without changing it: each ``parse_args`` call
    starts from a fresh namespace and converts string defaults anew.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="CSV/JSON path (default stdout)")
    common.add_argument("--manifest", default=None, help="JSON run manifest path")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    # no prefix matching: a removed option must not resolve to another
    # (--h would otherwise mean --help)
    parser = argparse.ArgumentParser(
        prog="yanglee", allow_abbrev=False,
        description=("Partition-function zeros, correlations and entanglement "
                     "scaling for two one-dimensional lattice models"),
        epilog="\n".join(f"  {name:<20}{','.join(_columns(name)[0])}"
                         for name in _TABLES),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, func, parents=(), **kwargs):
        subparser = sub.add_parser(name, parents=[common, *parents],
                                   allow_abbrev=False, **kwargs)
        subparser.set_defaults(func=func)
        return subparser

    s = add_parser("ssh-zeros-scan", _cmd_ssh_zeros_scan,
                   help="zero-presence table over (w-v, T)")
    s.add_argument("--u", type=float, default=1.0)
    s.add_argument("--wv-min", type=float, default=-2.0)
    s.add_argument("--wv-max", type=float, default=2.0)
    s.add_argument("--wv-steps", type=_positive_int, default=200)
    s.add_argument("--t-min", type=float, default=0.005)
    s.add_argument("--t-max", type=float, default=0.5)
    s.add_argument("--t-steps", type=_positive_int, default=50)

    model = argparse.ArgumentParser(add_help=False)
    for flag in ("--u", "--v", "--w"):
        model.add_argument(flag, type=float, required=True)

    s = add_parser("ssh-chi", _cmd_ssh_chi, parents=[model],
                   help="zero count vs the closed-form density")
    s.add_argument("--beta", type=float, required=True)

    s = add_parser("ssh-corr", _cmd_ssh_corr, parents=[model],
                   help="gapped T=0 correlator vs its asymptotic")
    s.add_argument("--channel", choices=("AA", "AB", "BA", "BB"), default="AA")
    s.add_argument("--x-max", type=int, default=40)
    s.add_argument("--tol", type=float, default=1e-9,
                   help="absolute tolerance of the correlator row")

    s = add_parser("ssh-ee", _cmd_ssh_ee, parents=[model],
                   help="subsystem entropy scaling (free fermions)")
    s.add_argument("--cells", type=int, default=400)
    s.add_argument("--subsystems", type=_int_list, default="10:80:5",
                   help="comma list or lo:hi:step")
    s.add_argument("--filling", choices=("im_neg", "im_pos"), default="im_neg")

    s = add_parser("xxz-poly", _cmd_xxz_poly,
                   help="multiplet zero polynomial coefficients")
    s.add_argument("--L", type=int, required=True)

    s = add_parser("xxz-zeros", _cmd_xxz_zeros,
                   help="partition-function zeros in a window")
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--J", type=float, default=1.0)
    s.add_argument("--re-min", type=float, default=0.9)
    s.add_argument("--re-max", type=float, default=1.1)
    s.add_argument("--im-min", type=float, default=0.0)
    s.add_argument("--im-max", type=float, default=0.2)
    s.add_argument("--grid-n", type=int, default=80)
    s.add_argument("--analytic", action="store_true",
                   help="also emit the closed-form zeros")
    s.add_argument("--n-min", type=int, default=0)
    s.add_argument("--n-max", type=int, default=0)

    s = add_parser("xxz-verify-zeros", _cmd_xxz_verify_zeros,
                   help="pair closed-form zeros with polished ED zeros")
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--J", type=float, default=1.0)

    s = add_parser("xxz-bethe", _cmd_xxz_bethe,
                   help="reduced Bethe roots of the multiplet, 1 <= M <= L/2")
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--M", type=int, required=True)

    s = add_parser("xxz-ee", _cmd_xxz_ee,
                   help="Schmidt entropy of the right ground state")
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--J", type=float, default=1.0)
    s.add_argument("--delta-re", type=float, required=True)
    s.add_argument("--delta-im", type=float, default=0.0)

    s = add_parser("xxz-gap", _cmd_xxz_gap,
                   help="ED level spacing vs the multiplet formula")
    s.add_argument("--L-list", type=_int_list, default="6,8,10")
    s.add_argument("--delta-re", type=float, default=-0.05)
    s.add_argument("--J", type=float, default=1.0)

    s = add_parser("xxz-susceptibility", _cmd_xxz_susceptibility,
                   help="field response on the gapless side")
    s.add_argument("--L", type=int, default=12)
    s.add_argument("--J", type=float, default=1.0)
    s.add_argument("--deltas", type=_float_list, default="-0.02,-0.05,-0.1")

    return parser


def run(argv) -> int:
    """Entry point; returns 0 on success, 1 on usage error, 2 on numerical failure."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    start = time.perf_counter()
    try:
        rows = args.func(args)
    except YangLeeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    outputs = _write_table(args.command, rows, args.out, args.format)
    wall = time.perf_counter() - start
    _write_manifest(args.manifest, args.command, args, outputs, wall)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
