"""Independent checks of each task's output, run outside the timed region.

None of these checks calls the code it verifies.  XXZ results are checked
against a full-space Hamiltonian assembled from ``scipy.sparse`` Kronecker
products (no magnon sectors); SSH correlators against
``scipy.integrate.quad`` over the filled-band projector; zero counts and
mode momenta against the closed form cos k_n = (u^2 - t_n^2 - v^2 - w^2) /
(2 v w) with t_n = (2n+1) pi / beta.  Each check returns a list of
problems; an empty list means the output is correct.

Known defects are measured, not gated: pairing distances above the
first-order targets, duplicate numeric partners and dropped candidates
show up as values in ``Visibility``, never as failures.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy import integrate

from yanglee.cli import build_parser

ZERO_RESIDUAL_TOL = 1e-7  # |exp(beta min Re E) Z| at a reported zero
POLY_RESIDUAL_TOL = 1e-7  # |sum_M z^{M(L-M)}| at a reported analytic zero
EIGEN_RESIDUAL_TOL = 1e-7  # |H psi - E psi| / (max(|E|, 1) |psi|)
ENTROPY_TOL = 1e-8
CORR_TOL = 1e-8  # corr_real integrates to 1e-9 absolute, divided by 2 pi
SSH_EE_TOL = 1e-7
BETHE_LINEAR_TOL = 1e-10  # acceptance criterion 7
BETHE_QUADRATIC_TOL = 1e-9
GAP_TOL = 1e-9


@dataclass
class Visibility:
    """Known weaknesses reported as numbers (zero-pairing quality)."""

    analytic: int = 0
    distinct_partners: int = 0
    worst_distance_beta100: float = 0.0
    per_case: list = field(default_factory=list)  # (L, beta, analytic, distinct, worst)

    @property
    def distinct_frac(self) -> float:
        return self.distinct_partners / self.analytic if self.analytic else 0.0


def table(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


# --- XXZ: full-space Hamiltonian ---------------------------------------------


@lru_cache(maxsize=None)
def xxz_parts(length: int, j_ex: float = 1.0):
    """(A, D) with H(Delta) = A + Delta D on all 2^L states.

    Site i is bit i of the basis index and a set bit is a flipped spin.
    The bond sum runs literally over i = 0..L-1 with i+1 taken mod L.
    """
    s_plus = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    s_minus = s_plus.T.tocsr()
    s_z = sp.csr_matrix(np.diag([0.5, -0.5]))

    def site(op, i):
        return sp.kron(sp.identity(2 ** (length - 1 - i)),
                       sp.kron(op, sp.identity(2 ** i)), format="csr")

    dim = 2 ** length
    hop = sp.csr_matrix((dim, dim))
    zz = sp.csr_matrix((dim, dim))
    for i in range(length):
        j = (i + 1) % length
        hop = hop + 0.5 * (site(s_plus, i) @ site(s_minus, j)
                           + site(s_minus, i) @ site(s_plus, j))
        zz = zz + site(s_z, i) @ site(s_z, j)
    return (-j_ex * hop).tocsr(), (-j_ex * zz).tocsr()


def scaled_partition(length: int, beta: float, delta_aniso: complex) -> complex:
    """exp(beta min Re E) Z from the dense full-space spectrum."""
    a, d = xxz_parts(length)
    energies = np.linalg.eigvals((a + delta_aniso * d).toarray())
    return complex(np.exp(-beta * (energies - energies.real.min())).sum())


def multiplet_polynomial(length: int, z: complex) -> complex:
    return sum(z ** (m * (length - m)) for m in range(length + 1))


def _check_numeric_zero(length, beta, delta_aniso, problems, label):
    res = abs(scaled_partition(length, beta, delta_aniso))
    if not res <= ZERO_RESIDUAL_TOL:
        problems.append(f"{label} zero {delta_aniso:.9g}: |Z| = {res:.2e}")


def _check_analytic_zero(length, beta, delta_aniso, problems):
    z = np.exp(-beta * (delta_aniso - 1.0) / (length - 1))
    res = abs(multiplet_polynomial(length, z))
    if not res <= POLY_RESIDUAL_TOL:
        problems.append(f"analytic zero {delta_aniso:.9g}: |p(z)| = {res:.2e}")


def check_xxz_zeros(args, rows, captured):
    problems: list[str] = []
    analytic = [r for r in rows if r["provenance"] == "analytic"]
    numeric = [r for r in rows if r["provenance"] == "numeric"]
    if args.analytic:
        expected = (args.L * args.L // 4) * (args.n_max - args.n_min + 1)
        if len(analytic) != expected:
            problems.append(f"{len(analytic)} analytic zeros, expected {expected}")
        for r in analytic:  # z is the same for every branch n
            delta = complex(float(r["re_delta"]), float(r["im_delta"]))
            _check_analytic_zero(args.L, args.beta, delta, problems)
    for r in numeric:
        delta = complex(float(r["re_delta"]), float(r["im_delta"]))
        _check_numeric_zero(args.L, args.beta, delta, problems, "numeric")
    return problems


def check_xxz_verify_zeros(args, rows, captured, visible: Visibility):
    problems: list[str] = []
    degree = args.L * args.L // 4
    if len(rows) != degree:
        problems.append(f"{len(rows)} pairs, expected {degree}")
    distinct: list[complex] = []
    worst = 0.0
    for r in rows:
        a = complex(float(r["re_analytic"]), float(r["im_analytic"]))
        n = complex(float(r["re_numeric"]), float(r["im_numeric"]))
        dist = float(r["distance"])
        if abs(dist - abs(n - a)) > 1e-9:
            problems.append(f"distance column {dist} != |numeric - analytic|")
        worst = max(worst, abs(n - a))
        _check_analytic_zero(args.L, args.beta, a, problems)
        if all(abs(n - d) > 1e-8 for d in distinct):
            distinct.append(n)
            _check_numeric_zero(args.L, args.beta, n, problems, "paired")
    visible.analytic += len(rows)
    visible.distinct_partners += len(distinct)
    if args.beta == 100.0:
        visible.worst_distance_beta100 = max(visible.worst_distance_beta100, worst)
    visible.per_case.append((args.L, args.beta, len(rows), len(distinct), worst))
    return problems


def check_xxz_poly(args, rows, captured):
    expected: dict[int, int] = {}
    for m in range(args.L + 1):
        expected[m * (args.L - m)] = expected.get(m * (args.L - m), 0) + 1
    got = {int(r["exponent"]): int(r["coefficient"]) for r in rows}
    return [] if got == expected else [f"coefficients {got} != {expected}"]


def check_xxz_bethe(args, rows, captured):
    zeta = np.array([complex(float(r["re_zeta"]), float(r["im_zeta"])) for r in rows])
    problems = []
    if zeta.size != args.M:
        problems.append(f"{zeta.size} roots, expected M = {args.M}")
    linear = abs(zeta.sum())
    quadratic = abs((zeta ** 2).sum() + args.M * (args.M - 1) / (args.L - 1))
    if not linear <= BETHE_LINEAR_TOL:
        problems.append(f"|sum zeta| = {linear:.2e}")
    if not quadratic <= BETHE_QUADRATIC_TOL:
        problems.append(f"|sum zeta^2 + M(M-1)/(L-1)| = {quadratic:.2e}")
    return problems


def schmidt_entropy(psi: np.ndarray, length: int, cut: int) -> float:
    """Entropy of sites [0, cut) from the reduced density matrix."""
    mat = psi.reshape(2 ** (length - cut), 2 ** cut)  # columns: sites < cut
    rho = mat.T @ mat.conj() if cut <= length - cut else mat @ mat.conj().T
    probs = np.linalg.eigvalsh(rho)
    probs = probs[probs > 1e-18]
    return float(-np.sum(probs * np.log(probs)))


def check_xxz_ee(args, rows, captured):
    problems = []
    length = args.L
    delta = complex(args.delta_re, args.delta_im)
    m, energy, psi = captured["ground_state"]
    a, d = xxz_parts(length, args.J)
    norm = np.linalg.norm(psi)
    res = np.linalg.norm((a + delta * d) @ psi - energy * psi) / (max(abs(energy), 1.0) * norm)
    if not res <= EIGEN_RESIDUAL_TOL:
        problems.append(f"eigen-residual {res:.2e}")
    support = np.nonzero(np.abs(psi) > 1e-12 * norm)[0]
    if np.any(np.array([bin(int(i)).count("1") for i in support]) != m):
        problems.append(f"ground state leaves the M = {m} sector")
    entropy = {int(r["l_a"]): float(r["entropy"]) for r in rows}
    if sorted(entropy) != list(range(1, length)):
        problems.append("missing cuts")
        return problems
    unit = psi / norm
    for cut, s in entropy.items():
        if abs(s - entropy[length - cut]) > ENTROPY_TOL:
            problems.append(f"S({cut}) != S({length - cut})")
        ref = schmidt_entropy(unit, length, cut)
        if abs(s - ref) > ENTROPY_TOL:
            problems.append(f"S({cut}) = {s} but the state gives {ref}")
    return problems


def check_xxz_gap(args, rows, captured):
    problems = []
    for r in rows:
        length = int(r["L"])
        a, d = xxz_parts(length, args.J)
        levels = np.linalg.eigvalsh((a + (1.0 + args.delta_re) * d).toarray())
        gap = float(levels[levels > levels[0] + 1e-12][0] - levels[0])
        if abs(float(r["gap_ed"]) - gap) > GAP_TOL:
            problems.append(f"L={length}: gap {r['gap_ed']} != {gap}")
        predicted = -args.J * args.delta_re / (length - 1)
        if abs(float(r["gap_predicted"]) - predicted) > 1e-12:
            problems.append(f"L={length}: predicted gap {r['gap_predicted']}")
    return problems


# --- SSH ---------------------------------------------------------------------


def _bloch(u, v, w, k):
    off = v + w * np.exp(-1j * k)
    return np.array([[1j * u, off], [np.conj(off), -1j * u]])


def filled_projector(u, v, w, k) -> np.ndarray:
    """Projector on the -E band, E = sqrt(-det H_k) with Re E > 0."""
    h = _bloch(u, v, w, k)
    e = np.sqrt(complex(-np.linalg.det(h)))
    if e.real < 0:
        e = -e
    return (e * np.eye(2) - h) / (2.0 * e)


def quad_correlator(u, v, w, x, channel) -> complex:
    """(1/2 pi) int P(k)_{ba} exp(i k x) dk for channel "ab"."""
    a, b = ("AB".index(channel[0]), "AB".index(channel[1]))

    def part(k, real):
        val = filled_projector(u, v, w, k)[b, a]
        return val.real if real else val.imag

    out = 0j
    for real, coef in ((True, 1.0), (False, 1j)):
        cos = integrate.quad(part, -math.pi, math.pi, args=(real,), weight="cos",
                             wvar=x, limit=400, epsabs=1e-13)[0]
        sin = integrate.quad(part, -math.pi, math.pi, args=(real,), weight="sin",
                             wvar=x, limit=400, epsabs=1e-13)[0]
        out += coef * (cos + 1j * sin)
    return out / (2.0 * math.pi)


def check_ssh_corr(args, rows, captured):
    problems = []
    if [int(r["x"]) for r in rows] != list(range(1, args.x_max + 1)):
        return ["distances do not run over 1..x_max"]
    for x in sorted({1, args.x_max // 4, args.x_max}):
        r = rows[x - 1]
        got = complex(float(r["re_corr"]), float(r["im_corr"]))
        ref = quad_correlator(args.u, args.v, args.w, x, args.channel)
        if abs(got - ref) > CORR_TOL:
            problems.append(f"C({x}) = {got:.6g}, quad gives {ref:.6g}")
    return problems


def mode_cosines(u, v, w, beta) -> list[tuple[int, float]]:
    """(n, cos k_n) for every mode zero with n >= 0, by the closed form."""
    out = []
    n = 0
    while True:
        t = (2 * n + 1) * math.pi / beta
        if t * t > u * u - (v - w) ** 2:  # cos k_n < -1 from here on
            return out
        c = (u * u - t * t - v * v - w * w) / (2.0 * v * w)
        if c <= 1.0:
            out.append((n, c))
        n += 1


def check_ssh_chi(args, rows, captured):
    problems = []
    (row,) = rows
    modes = mode_cosines(args.u, args.v, args.w, args.beta)
    if int(row["chi"]) != len(modes):
        problems.append(f"chi {row['chi']} != closed-form count {len(modes)}")
    gap2 = args.u ** 2 - (args.v - args.w) ** 2
    formula = args.beta * math.sqrt(gap2) / (2.0 * math.pi) if gap2 > 0 else 0.0
    if abs(float(row["formula"]) - formula) > 1e-9 * max(1.0, formula):
        problems.append(f"formula {row['formula']} != {formula}")
    entries = captured["yang_lee_root_count"].entries
    if [n for _, n in entries] != [n for n, _ in modes]:
        problems.append("mode indices differ from the closed form")
    else:
        worst = max((abs(math.cos(k) - c) for (k, _), (_, c) in zip(entries, modes)),
                    default=0.0)
        if worst > 1e-9:
            problems.append(f"mode momenta off the closed form by {worst:.2e} in cos k")
    return problems


def check_ssh_zeros_scan(args, rows, captured):
    wv = np.array([float(r["w_minus_v"]) for r in rows])
    temp = np.array([float(r["T"]) for r in rows])
    chi = np.array([int(r["chi"]) for r in rows])
    has = np.array([r["has_zeros"] == "1" for r in rows])
    if wv.size != args.wv_steps * args.t_steps:
        return [f"{wv.size} rows, expected {args.wv_steps * args.t_steps}"]
    v = np.where(wv >= 0, 1.0, 1.0 - wv)  # params_from_detuning embedding
    w = np.where(wv >= 0, 1.0 + wv, 1.0)
    beta = 1.0 / temp
    n_max = int(math.ceil(beta.max() * args.u / math.pi))  # t_n <= u is necessary
    t = (2 * np.arange(n_max + 1)[None, :] + 1) * math.pi / beta[:, None]
    c = (args.u ** 2 - t * t - (v * v + w * w)[:, None]) / (2.0 * (v * w)[:, None])
    ref = np.sum((c >= -1.0) & (c <= 1.0), axis=1)
    problems = []
    bad = int(np.sum(ref != chi))
    if bad:
        problems.append(f"{bad} cells differ from the closed-form count")
    if np.any(has != (chi > 0)):
        problems.append("has_zeros disagrees with chi")
    return problems


def _binary_entropy(x: np.ndarray) -> complex:
    total = 0j
    for sign in (1.0, -1.0):
        q = 0.5 * (1.0 + sign * x)
        q = q[np.abs(q) >= 1e-14]
        total -= np.sum(q * np.log(q))
    return complex(total)


def ssh_entropy(u, v, w, cells, la, filling) -> complex:
    """Subsystem entropy from numpy eigenpairs of the stacked Bloch matrices."""
    c_e = (u * u - v * v - w * w) / (2.0 * v * w)
    offset = 0.5
    if -1.0 <= c_e < 1.0:
        k_e = math.acos(c_e)
        grid = 2.0 * math.pi * (np.arange(cells) + 0.5) / cells
        if np.min(np.minimum(np.abs(grid - k_e), np.abs(grid - (2 * math.pi - k_e)))) <= 1e-8:
            offset = 0.75
    k = 2.0 * math.pi * (np.arange(cells) + offset) / cells
    off = v + w * np.exp(-1j * k)
    h = np.empty((cells, 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 0, 1] = 1j * u, off
    h[:, 1, 0], h[:, 1, 1] = np.conj(off), -1j * u
    lam, right = np.linalg.eig(h)
    left = np.linalg.inv(right)
    on_arc = np.abs(lam.real).max(axis=1) < 1e-12
    sign = -1.0 if filling == "im_neg" else 1.0
    pick = np.where(on_arc, np.argmax(sign * lam.imag, axis=1),
                    np.argmin(lam.real, axis=1))
    rows = np.arange(cells)
    proj = right[rows, :, pick][:, :, None] * left[rows, pick, :][:, None, :]
    dists = np.arange(-(la - 1), la)
    g = np.einsum("dk,kab->dab", np.exp(1j * np.outer(dists, k)), proj) / cells
    corr = np.empty((2 * la, 2 * la), dtype=complex)
    for i in range(la):
        for j in range(la):
            corr[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = g[i - j + la - 1]
    gamma = np.eye(2 * la) - 2.0 * corr
    return _binary_entropy(np.linalg.eigvals(gamma))


def check_ssh_ee(args, rows, captured):
    problems = []
    sizes = [int(r["l_a"]) for r in rows]
    for i in sorted({0, len(rows) // 2, len(rows) - 1}):
        r = rows[i]
        got = complex(float(r["re_s"]), float(r["im_s"]))
        ref = ssh_entropy(args.u, args.v, args.w, args.cells, sizes[i], args.filling)
        if abs(got - ref) > SSH_EE_TOL:
            problems.append(f"S({sizes[i]}) = {got:.9g}, expected {ref:.9g}")
    return problems


CHECKS = {
    "xxz-zeros": check_xxz_zeros,
    "xxz-poly": check_xxz_poly,
    "xxz-bethe": check_xxz_bethe,
    "xxz-ee": check_xxz_ee,
    "xxz-gap": check_xxz_gap,
    "ssh-corr": check_ssh_corr,
    "ssh-chi": check_ssh_chi,
    "ssh-zeros-scan": check_ssh_zeros_scan,
    "ssh-ee": check_ssh_ee,
}

_PARSER = build_parser()


def check(argv, text: str, captured: dict, visible: Visibility) -> list[str]:
    """Problems with one task's CSV output (empty when it is correct)."""
    args = _PARSER.parse_args(list(argv))
    rows = table(text)
    if not rows:
        return ["empty output"]
    if args.command == "xxz-verify-zeros":
        return check_xxz_verify_zeros(args, rows, captured, visible)
    return CHECKS[args.command](args, rows, captured)
