"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured numbers.
Two sub-checks are known to fail and are asserted as stated anyway;
README.md ("Known failing checks") documents the measurements:

  * criterion 5: at beta = 100, L = 6 the worst one-to-one pairing
    distance is 1.79e-2 (a cluster of three near-degenerate zeros
    distorts at second order; no one-to-one pairing gets below 9.4e-3),
    above the asserted 5e-3;
  * criterion 6: the same cluster puts numeric zeros up to 1.5e-2 away
    from the first-order line, above the asserted 1e-3 spread.
"""

import math
import time

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from yanglee import entanglement, ssh, xxz
from yanglee.cli import run as cli_run


def _report(name: str, checks) -> None:
    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{desc} [{'ok' if flag else 'FAIL'}]"
                       for desc, flag in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_zero_region_boundary():
    start = time.perf_counter()
    wv = np.linspace(-2.0, 2.0, 200)
    cell = wv[1] - wv[0]
    # full-size scan once for the runtime budget
    ssh.zeros_region_scan(1.0, wv, np.linspace(0.005, 0.1, 50))
    offsets = {}
    for beta in (10.0, 50.0, 200.0):
        scan = ssh.zeros_region_scan(1.0, wv, np.array([1.0 / beta]))
        _, lo, hi = scan.boundary[0]
        offsets[beta] = max(abs(hi - 1.0), abs(lo + 1.0))
    # mode n = 0 (t_0 = pi T) puts the region edge at |w - v| = sqrt(u^2 - pi^2 T^2);
    # each window spans the T = 0 offset on either side of it in 4,000
    # points, so the formula's edge falls midway between two of them
    worst_cells = 0.0
    for u in (1.0, 0.7):
        for temp in np.geomspace(0.1, 0.001, 5):
            edge = math.sqrt(u * u - (math.pi * temp) ** 2)
            for sign in (1.0, -1.0):
                window = sign * edge + np.linspace(edge - u, u - edge, 4000)
                _, lo, hi = ssh.zeros_region_scan(u, window, np.array([temp])).boundary[0]
                last = hi if sign > 0 else lo
                worst_cells = max(worst_cells,
                                  abs(last - sign * edge) / (window[1] - window[0]))
    elapsed = time.perf_counter() - start
    checks = [
        ("offsets shrink with beta",
         offsets[10.0] >= offsets[50.0] >= offsets[200.0]),
        (f"beta=200 offset {offsets[200.0]:.4f} <= 2 cells",
         offsets[200.0] <= 2.0 * cell),
        (f"edge vs sqrt(u^2 - pi^2 T^2) for T = 0.1..0.001: {worst_cells:.2f} <= 1 cell",
         worst_cells <= 1.0),
        (f"runtime {elapsed:.1f}s <= 60s", elapsed <= 60.0),
    ]
    _report("criterion 1 (zero-region boundary)", checks)


def test_criterion_2_root_count_density():
    p = ssh.SSHParams(1.0, 1.0, 1.0)
    checks = []
    for beta in (50.0, 100.0, 400.0):
        chi = ssh.chi_count(p, beta)
        dev = abs(chi / beta - 1.0 / (2.0 * math.pi))
        checks.append((f"beta={beta:.0f}: |chi/beta - 1/2pi| = {dev:.2e} <= 1/beta",
                       dev <= 1.0 / beta))
    _report("criterion 2 (root-count density)", checks)


def test_criterion_3_correlation_asymptotics():
    start = time.perf_counter()
    deltas = [0.02, 0.05, 0.1]
    samples = ssh.collect_correlation_samples(1.0, 1.0, deltas)
    worst_ratio_dev = 0.0
    for s in samples:
        for x, value in zip(s.xs, s.values):
            if x < 3.0 * s.xi_closed:
                continue
            asym = ssh.corr_asymptotic(s.params, float(x), "AA")
            worst_ratio_dev = max(worst_ratio_dev, abs(value / asym - 1.0))
    fit = ssh.fit_exponents(samples)
    elapsed = time.perf_counter() - start
    checks = [
        (f"ratio dev {worst_ratio_dev:.4f} <= 0.02 on [3 xi, 6 xi]",
         worst_ratio_dev <= 0.02),
        (f"decay power {fit.decay_power:.3f} within -0.50 +- 0.05",
         abs(fit.decay_power + 0.5) <= 0.05),
        (f"eta {fit.eta:.3f} = 3/2", abs(fit.eta - 1.5) <= 0.05),
        # v = u + w + delta gives cosh(1/xi) = 1 + (2 u delta + delta^2)/(2 v w)
        # (ssh.correlation_length), so xi ~ delta^(-1/2) for u > 0; the
        # Hermitian SSH value nu = 1 holds only at u = 0
        (f"nu {fit.nu:.3f} within 0.50 +- 0.05", abs(fit.nu - 0.5) <= 0.05),
        (f"runtime {elapsed:.1f}s <= 120s", elapsed <= 120.0),
    ]
    _report("criterion 3 (correlation asymptotics)", checks)


def test_criterion_4_entanglement_transition():
    start = time.perf_counter()
    sizes = [10, 13, 16, 20, 25, 32, 40, 50, 64, 80]
    broken = entanglement.ee_scaling_fit(ssh.SSHParams(1.0, 1.0, 1.0), 400,
                                         sizes, filling="im_neg")
    gapped = entanglement.ee_scaling_fit(ssh.SSHParams(1.0, 2.5, 1.0), 400,
                                         sizes, filling="im_neg")
    elapsed = time.perf_counter() - start
    checks = [
        (f"broken-phase slope {broken.slope:.4f} within 1/6 +- 0.05 "
         f"(filling={broken.filling})",
         abs(broken.slope - 1.0 / 6.0) <= 0.05),
        ("broken phase classified SubareaLaw",
         broken.classification == "SubareaLaw"),
        (f"gapped slope |{gapped.slope:.2e}| <= 0.05",
         abs(gapped.slope) <= 0.05),
        ("gapped phase classified AreaLaw", gapped.classification == "AreaLaw"),
        (f"runtime {elapsed:.1f}s <= 120s", elapsed <= 120.0),
    ]
    _report("criterion 4 (entanglement transition)", checks)


def test_criterion_5_zero_map_vs_ed():
    start = time.perf_counter()
    floor = 1e-10  # pairing distances at machine precision count as converged
    eps = {}
    for length in range(2, 9):
        for beta in (25.0, 50.0, 100.0):
            eps[(length, beta)] = xxz.verify_analytic_zeros(length, beta).max_distance
    checks = []
    for length in range(2, 9):
        seq = [eps[(length, b)] for b in (25.0, 50.0, 100.0)]
        ok = all(nxt <= floor or prev / nxt >= 1.8
                 for prev, nxt in zip(seq, seq[1:]))
        checks.append(
            (f"L={length}: eps {seq[0]:.1e} -> {seq[1]:.1e} -> {seq[2]:.1e} "
             f"shrink >= 1.8x", ok))
    worst_small = max(eps[(length, 100.0)] for length in range(2, 7))
    elapsed = time.perf_counter() - start
    checks.append((f"beta=100: max eps {worst_small:.2e} <= 5e-3 for L <= 6",
                   worst_small <= 5e-3))
    checks.append((f"runtime {elapsed:.1f}s <= 300s", elapsed <= 300.0))
    _report("criterion 5 (analytic zeros vs ED)", checks)


def test_criterion_6_zero_line():
    start = time.perf_counter()
    length, beta, j_ex = 6, 100.0, 1.0
    numeric = xxz.locate_zeros_numeric(length, beta, j_ex, (0.9, 1.1),
                                       (0.0, 0.2), grid_n=80)
    analytic = xxz.analytic_zeros(length, beta, j_ex, n_window=(0, 1))
    spread = 0.0
    for z in numeric.zeros:
        partner = min(analytic, key=lambda a: abs(a - z))
        spread = max(spread, abs(z.real - partner.real))
    g = xxz.zero_density(length, beta, j_ex)
    density = len(numeric.zeros) / 0.2
    elapsed = time.perf_counter() - start
    checks = [
        (f"{len(numeric.zeros)} zeros found", len(numeric.zeros) >= 5),
        (f"line spread {spread:.2e} <= 1e-3", spread <= 1e-3),
        (f"zero density {density:.2f} vs g = {g:.2f} within 10%",
         abs(density - g) / g <= 0.10),
        (f"runtime {elapsed:.1f}s <= 300s", elapsed <= 300.0),
    ]
    _report("criterion 6 (zero line)", checks)


def test_criterion_7_bethe_sum_rules():
    start = time.perf_counter()
    checks = []
    worst_linear = 0.0
    worst_quadratic = 0.0
    for length in range(2, 13):
        for m in range(1, length // 2 + 1):
            roots = xxz.solve_bethe_roots(length, m)
            worst_linear = max(worst_linear, roots.sum_rule_linear)
            worst_quadratic = max(worst_quadratic, roots.sum_rule_quadratic)
    elapsed = time.perf_counter() - start
    checks = [
        (f"|sum zeta| worst {worst_linear:.1e} <= 1e-10",
         worst_linear <= 1e-10),
        (f"|sum zeta^2 + M(M-1)/(L-1)| worst {worst_quadratic:.1e} <= 1e-9",
         worst_quadratic <= 1e-9),
        (f"runtime {elapsed:.1f}s", elapsed <= 60.0),
    ]
    _report("criterion 7 (Bethe sum rules)", checks)


def test_criterion_8_first_order_exactness():
    start = time.perf_counter()
    h_step = 1e-4
    worst = 0.0
    for length in range(2, 11):
        for m in range(length + 1):
            sector = xxz.magnon_sector(length, m)
            lo_hi = []
            for d in (h_step, -h_step):
                mat = xxz.build_sector_hamiltonian(sector, 1.0, 1.0 + d)
                lo_hi.append(scipy.linalg.eigvals(mat).real.min())
            slope = (lo_hi[0] - lo_hi[1]) / (2.0 * h_step) + length / 4.0
            target = m * (length - m) / (length - 1)
            err = abs(slope - target) / (abs(target) if target else 1.0)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    checks = [
        (f"worst relative derivative error {worst:.1e} <= 1e-6", worst <= 1e-6),
        (f"runtime {elapsed:.1f}s <= 120s", elapsed <= 120.0),
    ]
    _report("criterion 8 (first-order exactness)", checks)


def test_criterion_9_gap_scaling():
    start = time.perf_counter()
    checks = []
    errs = {}
    for length in (6, 8, 10):
        gap = xxz.ed_gap(length, 1.0, -0.05)
        predicted = 0.05 / (length - 1)
        errs[length] = abs(gap - predicted) / predicted
        checks.append(
            (f"L={length}: gap {gap:.5f} vs {predicted:.5f} "
             f"({errs[length]:.1%} <= 15%)", errs[length] <= 0.15))
    # error shrinks with |delta|
    small = abs(xxz.ed_gap(6, 1.0, -0.02) - 0.02 / 5.0) / (0.02 / 5.0)
    checks.append((f"L=6 error decreases with |delta| ({small:.2%} < "
                   f"{errs[6]:.2%})", small < errs[6]))
    elapsed = time.perf_counter() - start
    checks.append((f"runtime {elapsed:.1f}s <= 120s", elapsed <= 120.0))
    _report("criterion 9 (gap scaling)", checks)


def test_criterion_10_xxz_entanglement():
    start = time.perf_counter()
    _, _, psi = xxz.ground_state(12, 1.0, 0.99 + 0.01j)
    cuts = np.arange(1, 12)
    entropies = np.array([entanglement.state_ee(psi, 12, int(c)) for c in cuts])
    chord = np.log(np.sin(math.pi * cuts / 12.0))
    slope, intercept = np.polyfit(chord, entropies, 1)
    fitted = intercept + slope * chord
    ss_res = float(np.sum((entropies - fitted) ** 2))
    ss_tot = float(np.sum((entropies - entropies.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    _, _, psi_gapped = xxz.ground_state(12, 1.0, 1.05)
    s_gapped = entanglement.state_ee(psi_gapped, 12, 6)
    elapsed = time.perf_counter() - start
    checks = [
        (f"chord-log fit slope b = {slope:.3f} > 0", slope > 0.0),
        (f"fit R^2 = {r2:.4f} >= 0.95", r2 >= 0.95),
        (f"product ground state entropy {s_gapped:.1e} <= 1e-10",
         s_gapped <= 1e-10),
        (f"runtime {elapsed:.1f}s <= 180s", elapsed <= 180.0),
    ]
    _report("criterion 10 (interacting-chain entanglement)", checks)


def test_criterion_11_property_suite(tmp_path):
    start = time.perf_counter()
    checks = []

    # Fock-trace oracle for the single-mode partition factor
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        p = ssh.SSHParams(*rng.uniform(0.1, 2.0, 3))
        k = rng.uniform(-math.pi, math.pi)
        beta = rng.uniform(0.2, 4.0)
        h = ssh.bloch_hamiltonian(p, k)
        fock = np.zeros((4, 4), dtype=complex)
        fock[1:3, 1:3] = h
        fock[3, 3] = h[0, 0] + h[1, 1]
        values, vectors = scipy.linalg.eig(fock)
        assert (np.max(np.linalg.norm(fock @ vectors - vectors * values, axis=0))
                <= 1e-10 * np.linalg.norm(fock))
        z_fock = np.exp(-beta * values[np.lexsort((values.imag, values.real))]).sum()
        z_mode = ssh.mode_partition_factor(p, k, beta)
        worst = max(worst, abs(z_fock - z_mode) / abs(z_mode))
    checks.append((f"Fock-trace oracle rel dev {worst:.1e} <= 1e-12",
                   worst <= 1e-12))

    # sector completeness
    vals = np.concatenate([v for _, v in xxz.full_spectrum(7, 1.0, 1.1 + 0.2j)])
    trace = sum(np.trace(xxz.build_sector_hamiltonian(xxz.magnon_sector(7, m), 1.0, 1.1 + 0.2j))
                for m in range(8))
    checks.append(("sector completeness (2^L states, trace match)",
                   vals.size == 128 and abs(vals.sum() - trace) < 1e-8))

    # spin-flip symmetry
    spectra = dict(xxz.full_spectrum(8, 1.0, 0.8 + 0.3j))
    flip = max(np.max(np.abs(spectra[m] - spectra[8 - m])) for m in range(9))
    checks.append((f"spin-flip symmetry dev {flip:.1e} <= 1e-10", flip <= 1e-10))
    # full_spectrum builds M > L/2 from M < L/2, so the line above is 0 by
    # construction; the plain M sectors measure the symmetry it assumes
    oracle = [scipy.linalg.eigvals(xxz.build_sector_hamiltonian(
        xxz.magnon_sector(8, m), 1.0, 0.8 + 0.3j)) for m in range(9)]

    def matched_dev(a, b):
        cost = np.abs(np.subtract.outer(a, b))
        return cost[linear_sum_assignment(cost)].max()

    oracle_flip = max(matched_dev(oracle[m], oracle[8 - m]) for m in range(9))
    folded = max(matched_dev(spectra[m], oracle[m]) for m in range(9))
    checks.append((f"oracle sectors M vs L-M dev {oracle_flip:.1e}, folded vs "
                   f"oracle dev {folded:.1e} <= 1e-10",
                   max(oracle_flip, folded) <= 1e-10))

    # Hermitian-limit reality
    vals = np.concatenate([v for _, v in xxz.full_spectrum(8, 1.0, 1.4)])
    checks.append((f"Hermitian limit max |Im E| {np.max(np.abs(vals.imag)):.1e}",
                   np.max(np.abs(vals.imag)) <= 1e-10))

    # polynomial coefficient structure
    structure_ok = True
    for length in range(2, 13):
        poly = xxz.zero_polynomial(length)
        lead = 1.0 if length % 2 == 0 else 2.0
        structure_ok &= poly.coeffs[0] == 2.0 and poly.coeffs[-1] == lead
    checks.append(("polynomial structure a0=2, aN=1 (even L) / 2 (odd L)",
                   structure_ok))

    # CSV determinism through the CLI
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    args = ["ssh-chi", "--u", "1", "--v", "1.2", "--w", "0.8", "--beta", "70"]
    cli_run(args + ["--out", str(out1)])
    cli_run(args + ["--out", str(out2)])
    checks.append(("CSV determinism", out1.read_bytes() == out2.read_bytes()))

    elapsed = time.perf_counter() - start
    checks.append((f"runtime {elapsed:.1f}s <= 120s", elapsed <= 120.0))
    _report("criterion 11 (property suite)", checks)
