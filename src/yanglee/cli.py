"""Batch command-line front end.

Every subcommand runs one scan or verification, writes a CSV table (or
JSON with --format json) to --out (stdout by default), and optionally a
JSON run manifest to --manifest.  Output is deterministic for fixed
flags and seed; --threads only affects wall time.

Column schemas:
  ssh-zeros-scan      w_minus_v,T,has_zeros,chi
  ssh-chi             u,v,w,beta,chi,formula,ratio
  ssh-corr            x,re_corr,im_corr,re_asym,im_asym,abs_ratio
  ssh-ee              l_a,re_s,im_s
  xxz-poly            exponent,coefficient
  xxz-zeros           re_delta,im_delta,provenance,residual
  xxz-verify-zeros    j,re_analytic,im_analytic,re_numeric,im_numeric,distance,residual
  xxz-bethe           j,re_zeta,im_zeta
  xxz-ee              l_a,entropy,log_sin_chord
  xxz-gap             L,re_delta,gap_ed,gap_predicted,rel_err
  xxz-susceptibility  abs_delta,chi,sigma_fit
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy

from . import __version__, entanglement, ssh, xxz
from .errors import YangLeeError


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _parse_int_list(text: str) -> list[int]:
    """Comma list ("10,20,30") or range ("10:80:5", inclusive ends)."""
    if ":" in text:
        parts = [int(t) for t in text.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise ValueError("range must be lo:hi or lo:hi:step")
        return list(range(lo, hi + 1, step))
    return [int(t) for t in text.split(",") if t]


def _parse_float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _mapper(threads: int):
    if threads <= 1:
        return map, None
    pool = ThreadPoolExecutor(max_workers=threads)
    return pool.map, pool


def _write_table(header, rows, out_path, fmt):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    else:
        records = [dict(zip(header, [_fmt(v) for v in row])) for row in rows]
        text = json.dumps(records, indent=1) + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
        return []
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return [out_path]


def _write_manifest(path, command, args, seed, outputs, wall_time):
    if path is None:
        return
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "out", "manifest", "command")
              and not callable(v)}
    manifest = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "versions": (f"yanglee {__version__}; numpy {np.__version__}; "
                     f"scipy {scipy.__version__}; "
                     f"python {sys.version.split()[0]}"),
        "outputs": outputs,
        "wall_time": wall_time,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


# --- subcommand bodies: each takes (args, run_map), returns (header, rows) ---


def _cmd_ssh_zeros_scan(args, _run_map):
    wv = np.linspace(args.wv_min, args.wv_max, args.wv_steps)
    ts = np.linspace(args.t_min, args.t_max, args.t_steps)
    scan = ssh.zeros_region_scan(args.u, wv, ts)
    rows = []
    for it, t in enumerate(scan.temperatures):
        for iw, d in enumerate(scan.wv_values):
            rows.append((d, t, bool(scan.has_zeros[it, iw]),
                         int(scan.chi[it, iw])))
    return ["w_minus_v", "T", "has_zeros", "chi"], rows


def _cmd_ssh_chi(args, _run_map):
    p = ssh.SSHParams(u=args.u, v=args.v, w=args.w)
    zero_set = ssh.yang_lee_root_count(p, args.beta)
    gap2 = args.u ** 2 - (args.v - args.w) ** 2
    formula = args.beta * math.sqrt(gap2) / (2.0 * math.pi) if gap2 > 0 else 0.0
    ratio = zero_set.chi / formula if formula > 0 else float("nan")
    return (["u", "v", "w", "beta", "chi", "formula", "ratio"],
            [(args.u, args.v, args.w, args.beta, zero_set.chi, formula, ratio)])


def _cmd_ssh_corr(args, _run_map):
    p = ssh.SSHParams(u=args.u, v=args.v, w=args.w)
    tol = args.tol if args.tol is not None else 1e-9
    row = ssh.corr_row(p, args.x_max, args.channel, tol=tol)
    rows = []
    for x, c in enumerate(row.tolist(), start=1):
        try:
            a = ssh.corr_asymptotic(p, float(x), args.channel)
            ratio = abs(c / a)
        except YangLeeError:
            a, ratio = complex("nan"), float("nan")
        rows.append((x, c.real, c.imag, a.real, a.imag, ratio))
    return ["x", "re_corr", "im_corr", "re_asym", "im_asym", "abs_ratio"], rows


def _cmd_ssh_ee(args, run_map):
    p = ssh.SSHParams(u=args.u, v=args.v, w=args.w)
    sizes = _parse_int_list(args.subsystems)

    def one(la: int):
        c = entanglement.ssh_correlation_matrix(p, args.cells, la,
                                                filling=args.filling)
        r = entanglement.ee_from_correlation(c)
        return (la, r.entropy.real, r.entropy.imag)

    rows = list(run_map(one, sizes))
    return ["l_a", "re_s", "im_s"], rows


def _cmd_xxz_poly(args, _run_map):
    poly = xxz.zero_polynomial(args.L)
    rows = [(m, int(round(c.real)))
            for m, c in enumerate(poly.coeffs) if c != 0]
    return ["exponent", "coefficient"], rows


def _cmd_xxz_zeros(args, run_map):
    rows = []
    if args.analytic:
        locus = xxz.analytic_zeros(args.L, args.beta, args.J,
                                   n_window=range(args.n_min, args.n_max + 1))
        for z, r in zip(locus.zeros, locus.residuals):
            rows.append((z.real, z.imag, "analytic", r))
    numeric = xxz.locate_zeros_numeric(
        args.L, args.beta, args.J,
        (args.re_min, args.re_max), (args.im_min, args.im_max),
        grid_n=args.grid_n,
        map_threads=run_map if run_map is not map else None)
    for z, r in zip(numeric.zeros, numeric.residuals):
        rows.append((z.real, z.imag, "numeric", r))
    return ["re_delta", "im_delta", "provenance", "residual"], rows


def _cmd_xxz_verify_zeros(args, _run_map):
    pairing = xxz.verify_analytic_zeros(args.L, args.beta, args.J)
    rows = []
    for j, (a, n, d, r) in enumerate(zip(pairing.analytic, pairing.numeric,
                                         pairing.distances, pairing.residuals)):
        rows.append((j, a.real, a.imag, n.real, n.imag, d, r))
    return (["j", "re_analytic", "im_analytic", "re_numeric", "im_numeric",
             "distance", "residual"], rows)


def _cmd_xxz_bethe(args, _run_map):
    roots = xxz.solve_bethe_roots(args.L, args.M, seed=args.seed)
    print(f"# sum rules: |sum zeta| = {roots.sum_rule_linear:.3e}, "
          f"|sum zeta^2 + M(M-1)/(L-1)| = {roots.sum_rule_quadratic:.3e}",
          file=sys.stderr)
    rows = [(j, z.real, z.imag) for j, z in enumerate(roots.zeta)]
    return ["j", "re_zeta", "im_zeta"], rows


def _cmd_xxz_ee(args, _run_map):
    p = xxz.XXZParams(J=args.J, delta_aniso=complex(args.delta_re, args.delta_im),
                      L=args.L)
    _, _, psi = xxz.ground_state(p)
    rows = []
    for cut in range(1, args.L):
        s = entanglement.state_ee(psi, args.L, cut)
        rows.append((cut, s, math.log(math.sin(math.pi * cut / args.L))))
    return ["l_a", "entropy", "log_sin_chord"], rows


def _cmd_xxz_gap(args, _run_map):
    rows = []
    for length in _parse_int_list(args.L_list):
        gap = xxz.ed_gap(length, args.J, args.delta_re)
        pred = xxz.magnon_energy_and_gap(length, length // 2, args.J,
                                         args.delta_re).gap_gapless
        rows.append((length, args.delta_re, gap, pred, abs(gap - pred) / pred))
    return ["L", "re_delta", "gap_ed", "gap_predicted", "rel_err"], rows


def _cmd_xxz_susceptibility(args, _run_map):
    deltas = _parse_float_list(args.deltas)
    scan = xxz.susceptibility_scaling(args.L, args.J, deltas, h=args.h)
    rows = [(m, c, scan.sigma_fit) for m, c in scan.table]
    return ["abs_delta", "chi", "sigma_fit"], rows


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="CSV/JSON path (default stdout)")
    common.add_argument("--manifest", default=None, help="JSON run manifest path")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=float, default=None,
                        help="override the default numerical tolerance")
    parser = argparse.ArgumentParser(
        prog="yanglee",
        description=("Partition-function zeros, correlations and entanglement "
                     "scaling for two one-dimensional lattice models"),
        epilog=__doc__.split("Column schemas:")[1] if __doc__ else None,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, func, **kwargs):
        subparser = sub.add_parser(name, parents=[common], **kwargs)
        subparser.set_defaults(func=func)
        return subparser

    s = add_parser("ssh-zeros-scan", _cmd_ssh_zeros_scan,
                   help="zero-presence table over (w-v, T)")
    s.add_argument("--u", type=float, default=1.0)
    s.add_argument("--wv-min", type=float, default=-2.0)
    s.add_argument("--wv-max", type=float, default=2.0)
    s.add_argument("--wv-steps", type=int, default=200)
    s.add_argument("--t-min", type=float, default=0.005)
    s.add_argument("--t-max", type=float, default=0.5)
    s.add_argument("--t-steps", type=int, default=50)

    s = add_parser("ssh-chi", _cmd_ssh_chi,
                   help="zero count vs the closed-form density")
    s.add_argument("--u", type=float, required=True)
    s.add_argument("--v", type=float, required=True)
    s.add_argument("--w", type=float, required=True)
    s.add_argument("--beta", type=float, required=True)

    s = add_parser("ssh-corr", _cmd_ssh_corr,
                   help="gapped T=0 correlator vs its asymptotic")
    s.add_argument("--u", type=float, required=True)
    s.add_argument("--v", type=float, required=True)
    s.add_argument("--w", type=float, required=True)
    s.add_argument("--channel", choices=("AA", "AB", "BA", "BB"), default="AA")
    s.add_argument("--x-max", type=int, default=40)

    s = add_parser("ssh-ee", _cmd_ssh_ee,
                   help="subsystem entropy scaling (free fermions)")
    s.add_argument("--u", type=float, required=True)
    s.add_argument("--v", type=float, required=True)
    s.add_argument("--w", type=float, required=True)
    s.add_argument("--cells", type=int, default=400)
    s.add_argument("--subsystems", default="10:80:5",
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
                   help="reduced Bethe roots of the multiplet")
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
    s.add_argument("--L-list", default="6,8,10")
    s.add_argument("--delta-re", type=float, default=-0.05)
    s.add_argument("--J", type=float, default=1.0)

    s = add_parser("xxz-susceptibility", _cmd_xxz_susceptibility,
                   help="field response on the gapless side")
    s.add_argument("--L", type=int, default=12)
    s.add_argument("--J", type=float, default=1.0)
    s.add_argument("--deltas", default="-0.02,-0.05,-0.1")
    s.add_argument("--h", type=float, default=1e-4)

    return parser


def run(argv) -> int:
    """Entry point; returns 0 on success, 1 on usage error, 2 on numerical failure."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    start = time.perf_counter()
    run_map, pool = _mapper(args.threads)
    try:
        header, rows = args.func(args, run_map)
    except YangLeeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    finally:
        if pool is not None:
            pool.shutdown()
    outputs = _write_table(header, rows, args.out, args.format)
    wall = time.perf_counter() - start
    _write_manifest(args.manifest, args.command, args, args.seed, outputs, wall)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
