"""Run recorded mutations of the program against the tests meant to catch them.

Each entry of ``MUTANTS`` names one deliberate fault: a source file, a
text that occurs in it exactly once, the text that replaces it, and the
test files (or single tests, as pytest node ids) that must fail under
it.  For each entry the script extracts a git revision (``git
archive``) into a temporary directory, applies that one change there,
and runs only the listed tests, one after another, each stopping
at its first failure.  It reports the mutant as

* ``caught`` when a listed test fails (it names the first failing
  test);
* ``missed`` when every listed test passes;
* ``STALE`` when the old text does not occur exactly once: the code it
  mutated has changed, and the entry must follow it.

A missed mutant is answered by a new test, never by dropping the entry.
Run from the root of a checkout:

    python scripts/mutants.py --rev HEAD

Exit status 0 when every mutant is caught, 1 otherwise.  BLAS runs on
one thread.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("block diagonal: Delta d overwrites A's own diagonal instead of adding to it",
           "src/yanglee/xxz.py",
           "h.reshape(aniso.shape + (count, n * n))[..., :: n + 1] += (",
           "h.reshape(aniso.shape + (count, n * n))[..., :: n + 1] = (",
           ("tests/test_xxz.py",)),
    Mutant("momentum state: e^(+ikr) in place of e^(-ikr)",
           "src/yanglee/xxz.py",
           "phase = np.exp(-2j * math.pi * q * r / L)",
           "phase = np.exp(2j * math.pi * q * r / L)",
           ("tests/test_xxz.py",)),
    Mutant("Weyl bound: min d and max d swapped",
           "src/yanglee/xxz.py",
           "(lo if re_aniso > 1.0 else hi)",
           "(hi if re_aniso > 1.0 else lo)",
           ("tests/test_xxz.py",)),
    Mutant("block route: every point takes the general kernel",
           "src/yanglee/xxz.py",
           "((real, hermitian_eigvals), (~real, np.linalg.eigvals))",
           "((real, np.linalg.eigvals), (~real, np.linalg.eigvals))",
           ("tests/test_xxz.py",)),
    Mutant("block route: the real and complex points swapped",
           "src/yanglee/xxz.py",
           "((real, hermitian_eigvals), (~real, np.linalg.eigvals))",
           "((~real, hermitian_eigvals), (real, np.linalg.eigvals))",
           ("tests/test_xxz.py",)),
    Mutant("ground state: the Bendixson filter dropped at complex Delta",
           "src/yanglee/xxz.py",
           "if aniso.imag:  # Bendixson",
           "if False:  # Bendixson",
           ("tests/test_xxz.py",)),
    Mutant("ground state: the first block solved twice",
           "src/yanglee/xxz.py",
           "pick = (cheap <= top) & ~lead",
           "pick = cheap <= top",
           ("tests/test_xxz.py",)),
    Mutant("ground state: the winner-to-block lookup off by one",
           "src/yanglee/xxz.py",
           'np.searchsorted(blocks.first, win, side="right")) - 1',
           'np.searchsorted(blocks.first, win, side="left")) - 1',
           ("tests/test_xxz.py",)),
    Mutant("real Schur form: the second member of a pair not conjugated",
           "src/yanglee/numerics/eig.py",
           "values[top + 1] = values[top].conj()",
           "values[top + 1] = values[top]",
           ("tests/test_eig.py",)),
    Mutant("K0: the exponentially scaled k0e in place of k0",
           "src/yanglee/ssh.py",
           "scipy.special.k0(x)",
           "scipy.special.k0e(x)",
           ("tests/test_bessel.py", "tests/test_ssh.py")),
    Mutant("mode partition factor: cosh(w) in place of cosh(w / 2)",
           "src/yanglee/ssh.py",
           "np.cosh(0.5 * w)",
           "np.cosh(w)",
           ("tests/test_ssh.py", "tests/test_acceptance.py")),
    Mutant("mode range: the step that raises n_hi never runs",
           "src/yanglee/ssh.py",
           "hi += step",
           "break",
           ("tests/test_ssh.py",)),
    Mutant("RR projector: P^dag P in place of P P^dag",
           "src/yanglee/ssh.py",
           "pp = lr @ lr.conj().swapaxes(-1, -2)",
           "pp = lr.conj().swapaxes(-1, -2) @ lr",
           ("tests/test_ssh.py", "tests/test_entanglement.py")),
    Mutant("subsystem correlation matrix: the transposed gather",
           "src/yanglee/entanglement.py",
           "cell[:, None] - cell[None, :]",
           "cell[None, :] - cell[:, None]",
           ("tests/test_entanglement.py",)),
    Mutant("Bethe Jacobian: the sign of the off-diagonal flipped",
           "src/yanglee/xxz.py",
           "2.0 * (t ** 2 - 1.0)[:, None] * inv",
           "2.0 * (1.0 - t ** 2)[:, None] * inv",
           ("tests/test_xxz.py",)),
    Mutant("Bethe Jacobian: (1 + t_l^2) for (1 - t_l^2) on the diagonal",
           "src/yanglee/xxz.py",
           "inv @ (1.0 - t ** 2)",
           "inv @ (1.0 + t ** 2)",
           ("tests/test_xxz.py",)),
    Mutant("Bethe nodes: the odd symmetrization dropped",
           "src/yanglee/xxz.py",
           "t = 0.5 * (t - t[::-1])",
           "t = t",
           ("tests/test_xxz.py", "tests/test_acceptance.py")),
    Mutant("Bethe M cap: the comparison off by one",
           "src/yanglee/xxz.py",
           "if M > _BETHE_MAX_M:",
           "if M >= _BETHE_MAX_M:",
           ("tests/test_cli.py",)),
    Mutant("secant: a non-finite step is taken instead of stopping",
           "src/yanglee/xxz.py",
           "if not (np.isfinite(c.real) and np.isfinite(c.imag)):",
           "if False:",
           ("tests/test_xxz.py",)),
    Mutant("secant: the last iterate returned after 60 steps, converged or not",
           "src/yanglee/xxz.py",
           "return (b, abs(fb)) if abs(fb) < 1e-8 else None",
           "return (b, abs(fb))",
           ("tests/test_xxz.py",)),
    Mutant("zero search: an unconverged candidate is not reported as dropped",
           "src/yanglee/xxz.py",
           "dropped.append(1.0 + center)",
           "pass",
           ("tests/test_xxz.py",)),
    Mutant("zero search: duplicates only within 1e-9, not 1e-6",
           "src/yanglee/xxz.py",
           "if any(abs(value - z) < 1e-6 for z in zeros):",
           "if any(abs(value - z) < 1e-9 for z in zeros):",
           ("tests/test_xxz.py",)),
    Mutant("mode range: the step that lowers n_lo never runs",
           "src/yanglee/ssh.py",
           "lo -= step",
           "break",
           ("tests/test_ssh.py",)),
    Mutant("polynomial roots: coincident starting points not split",
           "src/yanglee/numerics/polynomials.py",
           "while np.any(np.abs(z[:i] - z[i]) == 0.0):",
           "while False:",
           ("tests/test_polynomials.py",)),
    Mutant("eigen gate: the certificate error drops the residual it rejects",
           "src/yanglee/numerics/eig.py",
           "residual=residual)",
           "residual=None)",
           ("tests/test_eig.py",)),
    Mutant("K0 asymptote: y kappa in place of y / xi",
           "src/yanglee/ssh.py",
           "return amp * bessel_k0(y / xi)",
           "return amp * bessel_k0(y * kappa)",
           ("tests/test_ssh.py",)),
    Mutant("zero-mode cap: 2^22 + 1 modes admitted",
           "src/yanglee/ssh.py",
           "if n_hi - n_lo >= _SIZE_CAP:",
           "if n_hi - n_lo > _SIZE_CAP:",
           ("tests/test_cli.py",)),
    Mutant("entropy cell cap: 2^20 cells refused",
           "src/yanglee/entanglement.py",
           "if cells > _MAX_CELLS:",
           "if cells >= _MAX_CELLS:",
           ("tests/test_cli.py",)),
    Mutant("polynomial term cap: 2^21 + 1 terms admitted",
           "src/yanglee/xxz.py",
           "if L // 2 >= _TABLE_CAP:",
           "if L // 2 > _TABLE_CAP:",
           ("tests/test_cli.py",)),
    Mutant("analytic zero cap: 2^21 zeros refused",
           "src/yanglee/xxz.py",
           ") > _TABLE_CAP:",
           ") >= _TABLE_CAP:",
           ("tests/test_cli.py",)),
    Mutant("entropy subsystem cap: 2^10 subsystem cells refused",
           "src/yanglee/entanglement.py",
           "if subsystem_cells > _MAX_SUBSYSTEM_CELLS:",
           "if subsystem_cells >= _MAX_SUBSYSTEM_CELLS:",
           ("tests/test_cli.py",)),
    Mutant("polynomial: a non-finite coefficient accepted",
           "src/yanglee/numerics/polynomials.py",
           "if not np.all(np.isfinite(c)):",
           "if False:",
           ("tests/test_polynomials.py",)),
    Mutant("polynomial roots: an overflowing monic normalization accepted",
           "src/yanglee/numerics/polynomials.py",
           "if not np.all(np.isfinite(monic)):",
           "if False:",
           ("tests/test_polynomials.py",)),
    Mutant("block solve: a non-finite Delta reaches the kernels",
           "src/yanglee/xxz.py",
           "if not np.isfinite(aniso).all():",
           "if False:",
           ("tests/test_xxz.py",)),
    Mutant("partition sum: a beta that is not finite and positive accepted",
           "src/yanglee/xxz.py",
           "    _check_beta(beta)\n    vals = blocks.eigvals(aniso)",
           "    vals = blocks.eigvals(aniso)",
           ("tests/test_xxz.py",)),
    Mutant("polynomial roots: Aberth keeps the iterate of least absolute residual",
           "src/yanglee/numerics/polynomials.py",
           "err = np.max(_backward_error(high, z))",
           "err = np.max(np.abs(np.polyval(high, z)))",
           ("tests/test_polynomials.py",)),
    Mutant("polynomial roots: no reversed evaluation where the backward error overflows",
           "src/yanglee/numerics/polynomials.py",
           "far = ~np.isfinite(size)",
           "far = np.zeros(size.shape, dtype=bool)",
           ("tests/test_polynomials.py",)),
    Mutant("analytic zeros: a real root keeps its rounding-level Im z",
           "src/yanglee/xxz.py",
           "roots.imag[np.abs(roots.imag) < ",
           "roots.imag[np.abs(roots.imag) < 0 * ",
           ("tests/test_xxz.py",)),
    Mutant("multiplet gap: the odd-L doubling dropped",
           "src/yanglee/xxz.py",
           "-J * delta_re * (1 + L % 2) / (L - 1)",
           "-J * delta_re * 1 / (L - 1)",
           ("tests/test_xxz.py",)),
    Mutant("entropy input: a non-square C passes the check",
           "src/yanglee/entanglement.py",
           "if c.ndim != 2 or c.shape[0] != c.shape[1]:",
           "if c.ndim != 2:",
           ("tests/test_entanglement.py",)),
    Mutant("verify-zeros table: the distance column |numeric + analytic|",
           "src/yanglee/cli.py",
           "abs(n - a)",
           "abs(n + a)",
           ("tests/test_cli.py",)),
    Mutant("Bethe stderr: the quadratic sum rule subtracts M(M-1)/(L-1)",
           "src/yanglee/cli.py",
           " + args.M * (args.M - 1)",
           " - args.M * (args.M - 1)",
           ("tests/test_cli.py",)),
    Mutant("projector: an unknown filling falls through to im_neg",
           "src/yanglee/ssh.py",
           "    if filling not in _FILLINGS:",
           "    if False:",
           ("tests/test_entanglement.py",)),
    Mutant("analytic zeros: +Log z in place of -Log z",
           "src/yanglee/xxz.py",
           "delta = -scale * cmath.log(z)",
           "delta = scale * cmath.log(z)",
           ("tests/test_xxz.py::test_scaled_zeros_tend_to_the_zeros_of_erf",)),
    Mutant("momentum state: the orbit weight sqrt(R_a) dropped",
           "src/yanglee/xxz.py",
           "amp * np.sqrt(period) / L * phase",
           "amp / L * phase",
           ("tests/test_acceptance.py::test_criterion_10_ground_state_is_the_dicke_multiplet",)),
    Mutant("entropy sum: occupations within 1e-6 of 0 or 1 dropped",
           "src/yanglee/entanglement.py",
           "_DEGENERACY_EPS = 1e-14",
           "_DEGENERACY_EPS = 1e-6",
           ("tests/test_entanglement.py::test_hermitian_critical_point_has_central_charge_one",)),
]


def run_mutant(rev: str, mutant: Mutant) -> str:
    """The report line of one mutant, applied to a fresh copy of ``rev``."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        source = Path(tmp) / mutant.path
        text = source.read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            return f"STALE   {mutant.name}: old text found {found} times in {mutant.path}"
        source.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        for test in mutant.tests:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                                   "-p", "no:cacheprovider", test],
                                  cwd=tmp, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                failed = [line.split()[1] for line in proc.stdout.splitlines()
                          if line.startswith(("FAILED ", "ERROR "))]
                return f"caught  {mutant.name}: {(failed or [test])[0]} fails"
    return f"missed  {mutant.name}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="git revision (or tree) to mutate")
    args = parser.parse_args()
    lines = []
    for mutant in MUTANTS:
        lines.append(run_mutant(args.rev, mutant))
        print(lines[-1], flush=True)
    caught = sum(line.startswith("caught") for line in lines)
    print(f"{caught} of {len(MUTANTS)} mutants caught at {args.rev}")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
