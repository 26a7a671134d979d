"""Spin-1/2 XXZ chain at complex anisotropy.

    H = -J sum_{i=1..L} (S^x_i S^x_{i+1} + S^y_i S^y_{i+1}
                         + Delta S^z_i S^z_{i+1})

with J > 0, periodic boundaries, and the bond sum running literally over
i = 1..L (for L = 2 the single bond is counted twice; that convention is
what makes the first-order multiplet energies below exact at L = 2).
Total S^z is conserved, so the Hamiltonian blocks by the number M of
flipped spins (magnons); translation commutes with H for every complex
Delta, so each sector blocks further by lattice momentum k.  Spin flip
maps (M, k) to (L - M, k) and reflection maps (M, k) to (M, -k), both for
every complex Delta, so only the blocks with M <= L/2 and 0 <= k <= pi
are built, and each of their eigenvalues counts once for every block it
stands for.  Inside a block, reflection still commutes with H at k = 0
and k = pi, and spin inversion at M = L/2; their eigenspaces split those
blocks further.  The spectra, partition sums and ground states, each a
function of (L, J, Delta), come from these sub-blocks, built once per
(L, J) as A + Delta diag(d) and solved only by ``SectorBlocks.eigvals``,
which also refuses a non-finite Delta.  The ground state solves only the
blocks whose Bendixson bound (Acta Math. 25, 359 (1902)) can reach the
lowest level: every eigenvalue of a block H has Re E >=
lambda_min((H + H^dagger)/2), the least level of the same block at the
real anisotropy Re Delta (see ``ground_state``).  The M sectors in the
plain spin basis remain as the reference they are tested against.

Near the ferromagnetic point Delta = 1 the (L+1)-fold degenerate ground
multiplet splits at first order in delta = Delta - 1 as

    E_M = E_0 + J delta M (L - M) / (L - 1),      E_0 = -J L Delta / 4.

Their spacing on the gapless side, delta < 0, is ``multiplet_gap``.
Resumming the multiplet Boltzmann weights with z = exp(-beta J delta /
(L - 1)) turns the zero condition of the partition function into the
polynomial equation sum_{M=0}^L z^{M(L-M)} = 0, so the zeros of Z lie at

    Delta_j = 1 - (L - 1) Log(z_j) / (beta J) + i (L - 1) 2 pi n / (beta J)

for the polynomial roots z_j and n integer (``analytic_zeros``, a list; a
real negative z_j, which every odd degree has, lies on the upper side of
the cut of Log).  The first-order energies follow from an algebraic
reduction of the Bethe equations,

    L zeta_j = 2 sum_{l != j} (1 + zeta_l zeta_j) / (zeta_l - zeta_j),

whose root set obeys the sum rules sum zeta = 0 and
sum zeta^2 = -M(M-1)/(L-1).  The roots have a closed form: P(x) =
prod_j (x - zeta_j) solves the system exactly when

    (1 + x^2) P'' + (L - 2M + 2) x P' - M (L - M + 1) P = 0,

and x = i t turns this into Gegenbauer's equation for C_M^(lambda)(t)
with lambda = (L - 2M + 1)/2.  For 1 <= M <= L/2, lambda >= 1/2, so the
t_j are real, simple and inside (-1, 1), and zeta_j = i t_j.  The t_j
are the eigenvalues of the Golub-Welsch Jacobi matrix of C^(lambda)
(Math. Comp. 23, 221 (1969)); the larger M follow by spin flip,
E_M = E_{L-M}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations
from typing import Callable, Generator, Optional

import numpy as np
import scipy  # scipy.linalg loads on first use, not at import

from .errors import CertificateError, DomainError, YangLeeError
from .numerics.eig import hermitian_eigvals, inverse_iteration
from .numerics.polynomials import ComplexPolynomial, roots_of_polynomial

# perfbench's span recorder patches these names; nothing calls them; ROADMAP item 1b removes them.
dense_eig = None
newton_system = None


def _check_chain(L: int, J: float = 1.0) -> None:
    """DomainError unless the exchange J is finite and > 0 and L >= 2."""
    if not (math.isfinite(J) and J > 0):
        raise DomainError(f"J must be positive and finite, got {J}")
    if L < 2:
        raise DomainError(f"L must be at least 2, got {L}")


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta > 0):
        raise DomainError(f"beta must be positive and finite, got {beta}")


@dataclass
class MagnonSector:
    """Basis of the fixed-M block; bit i of a basis word flips site i."""

    L: int
    M: int
    basis: np.ndarray  # sorted ascending, dtype int64
    index: dict = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.basis.size


def magnon_sector(L: int, M: int) -> MagnonSector:
    if not 0 <= M <= L:
        raise DomainError("need 0 <= M <= L")
    words = sorted(sum(1 << b for b in bits)
                   for bits in combinations(range(L), M))
    basis = np.array(words, dtype=np.int64)
    return MagnonSector(L=L, M=M, basis=basis,
                        index={w: i for i, w in enumerate(words)})


def build_sector_hamiltonian(sector: MagnonSector, J: float, aniso: complex) -> np.ndarray:
    """Dense block of H in the M-magnon sector of a chain of sector.L sites."""
    L, delta = sector.L, complex(aniso)
    dim = sector.dimension
    h = np.zeros((dim, dim), dtype=complex)
    bonds = [(i, (i + 1) % L) for i in range(L)]
    for col, word in enumerate(sector.basis):
        word = int(word)
        diag = 0.0
        for a, b in bonds:
            same = ((word >> a) & 1) == ((word >> b) & 1)
            diag += 0.25 if same else -0.25
            if not same:
                flipped = word ^ ((1 << a) | (1 << b))
                h[sector.index[flipped], col] += -0.5 * J
        h[col, col] += -J * delta * diag
    return h


@dataclass(frozen=True, eq=False)
class SectorBlocks:
    """The distinct symmetry blocks of H(Delta) = A + Delta diag(d), stacked by block size.

    Only M <= L/2 and q <= L/2 (k = 2 pi q / L) are built: spin flip gives
    (L - M, k) and reflection (M, -k) the same spectrum at every complex
    Delta.  The (M, k) blocks with k in {0, pi} are split further by
    reflection parity and those with M = L/2 by spin inversion.
    ``stacks[i] = (A, d, m, q, words, coefs)``: A has shape (count, n,
    n), d (count, n), m and q (count,) hold the magnon number and the
    momentum index of each of the count blocks, and basis state j of
    block b is sum_t ``coefs[b, j, t]`` |``words[b, j, t]``, k> over
    momentum states (see ``sector_blocks``); blocks are numbered in column
    order.  For every column that ``eigvals`` returns, ``magnons`` gives
    its M, ``repeats`` the number of k-blocks of that sector it stands
    for (2 for 0 < q < L/2, else 1) and ``weights`` the number of the 2^L
    levels it stands for (``repeats``, doubled for M < L/2).  A sub-block
    has the M, repeats and weights of the (M, k) block it was split from.
    """

    stacks: tuple[tuple[np.ndarray, ...], ...]
    magnons: np.ndarray
    repeats: np.ndarray
    weights: np.ndarray
    first: np.ndarray  # the first column of each block
    place: np.ndarray  # (stack, index in the stack) of each block

    def eigvals(self, aniso, pick: Optional[np.ndarray] = None) -> np.ndarray:
        """The distinct eigenvalues at each anisotropy: shape aniso.shape + (columns,).

        The only solve of a block.  ``pick``, a boolean mask over the
        blocks, solves those alone; the other blocks' columns hold inf.
        The kernel is read from Delta.  At a real anisotropy every block
        is Hermitian (A is, and d is real): those points take one
        ``hermitian_eigvals`` call per block size, ascending per block.
        The other points take one ``np.linalg.eigvals`` call per block
        size, in LAPACK's order; that route is not gated (a batched
        certificate for it is still open).  Each point's values depend on
        its blocks alone, so they are those of the scalar call.
        DomainError, before any solve, for a non-finite anisotropy.
        """
        aniso = np.asarray(aniso, dtype=complex)
        if not np.isfinite(aniso).all():
            bad = aniso[~np.isfinite(aniso)][0]
            raise DomainError(f"anisotropy Delta must be finite, got {complex(bad)}")
        real = aniso.imag == 0
        out = np.empty(aniso.shape + self.magnons.shape, dtype=complex)
        for mask, solve in ((real, hermitian_eigvals), (~real, np.linalg.eigvals)):
            points = aniso[mask]
            if points.size and pick is None:
                out[mask] = np.concatenate(
                    [solve(_block_matrices(a, d, points)).reshape(points.size, -1)
                     for a, d, *_ in self.stacks], axis=-1)
            elif points.size:
                out[mask] = self._picked(solve, points, pick)
        return out

    def _picked(self, solve: Callable, points: np.ndarray, pick: np.ndarray) -> np.ndarray:
        """``solve``'s values of the picked blocks, (points, columns); inf in the other columns."""
        vals = np.full((points.size, self.magnons.size), np.inf, dtype=complex)
        stack, index = self.place[pick].T
        for s in np.unique(stack):  # only the stacks that hold a picked block
            a, d, *_ = self.stacks[s]
            i = index[stack == s]
            cols = (self.first[pick][stack == s, None] + np.arange(d.shape[-1])).ravel()
            vals[:, cols] = solve(_block_matrices(a[i], d[i], points)).reshape(points.size, -1)
        return vals

    def block(self, b: int) -> tuple[np.ndarray, ...]:
        """(A, d, q, words, coefs) of block b, in column order (see ``stacks``)."""
        s, i = self.place[b]
        a, d, _, q, words, coefs = self.stacks[s]
        return a[i], d[i], q[i], words[i], coefs[i]

    @cached_property
    def bounds(self) -> tuple[np.ndarray, ...]:
        """Per block, in column order: (floor, d_min, d_max, a_norm, d_norm).

        floor = lambda_min(A + diag(d)) is the block's first level in
        ``eigvals(1.0)``; then the extremes of d, |A|_F and |d|.  Computed
        once, on first use: only ground states read them.
        """
        floor = self.eigvals(1.0)[self.first].real
        parts = [(d.min(axis=1), d.max(axis=1), np.linalg.norm(a, axis=(1, 2)),
                  np.linalg.norm(d, axis=1)) for a, d, *_ in self.stacks]
        out = (floor, *map(np.concatenate, zip(*parts)))
        for arr in out:
            arr.setflags(write=False)
        return out

    def weyl_bounds(self, re_aniso: float) -> np.ndarray:
        """Per block, a lower bound on Re E over the block at Re Delta = re_aniso.

        Bendixson bounds Re E below by lambda_min(A + Re Delta D), and Weyl's
        inequality bounds that by the floor plus lambda_min((Re Delta - 1) D):
        (Re Delta - 1) min d for Re Delta > 1, (Re Delta - 1) max d otherwise.
        """
        floor, lo, hi, _, _ = self.bounds
        return floor + (re_aniso - 1.0) * (lo if re_aniso > 1.0 else hi)


def _block_matrices(a: np.ndarray, d: np.ndarray, aniso: np.ndarray) -> np.ndarray:
    """A + Delta diag(d) for every block and anisotropy: aniso.shape + a.shape."""
    count, n, _ = a.shape
    h = np.empty(aniso.shape + a.shape, dtype=complex)
    h[...] = a
    # A has a diagonal of its own: add Delta d to it
    h.reshape(aniso.shape + (count, n * n))[..., :: n + 1] += (
        aniso[..., None, None] * d)
    return h


# One in-process benchmark pass of ground states uses five (L, J) keys
# (L = 10, 11, 12 and the gap scan's 6, 8, 10); a single CLI run uses at
# most three.  Eight keys keep all of them for in-process callers (tests,
# the benchmark, notebooks); the blocks of every L <= 12 take 1.7 MB
# together, one L = 14 set alone 12 MB (array bytes, bounds included).
@lru_cache(maxsize=8)
def sector_blocks(L: int, J: float) -> SectorBlocks:
    """Symmetry blocks of the sectors M, q <= L/2 (Sandvik, arXiv:1101.3281, sec. 4).

    T shifts every spin one site along the chain.  Each translation orbit
    is represented by its least word a, of period R_a; the state
    |a, k> = R_a^(-1/2) sum_{r < R_a} e^(-ikr) T^r |a> exists when k R_a
    is a multiple of 2 pi.  The zz energy d is the same on the whole
    orbit, so it stays diagonal.  A hop from a to c = T^(-l) b, with b the
    representative of c, adds -J/2 e^(-ikl) sqrt(R_a / R_b) to
    <b, k|A|a, k>.  Such a hop can land in a's own orbit, so A carries a
    diagonal of its own.

    Reflection P (site i to L - 1 - i) maps |a, k> to |b, -k> up to a
    phase, so it commutes with H inside the k = 0 and k = pi blocks; spin
    inversion Z commutes with T and maps the M = L/2 sector to itself.
    Either one, and their product, maps |a, k> to e^(-ikl) |b, k>, with
    T^l g a = b; ``_split`` turns those index maps into the sub-block
    bases (sec. 4.2-4.3).  The zz energy is the same on a and on its
    image, so every sub-block keeps the form A + Delta diag(d).
    """
    _check_chain(L, J)
    if L > 14:
        raise DomainError("dense diagonalization capped at L = 14")
    n = 1 << L
    words = np.arange(n, dtype=np.int64)
    rot = [words]  # rot[r] = T^r applied to every word
    for _ in range(L - 1):
        rot.append(((rot[-1] << 1) | (rot[-1] >> (L - 1))) & (n - 1))
    rot = np.array(rot)
    rep = rot.min(axis=0)
    shift = rot.argmin(axis=0)  # T^shift(c) = rep(c)
    back = rot[1:] == words
    period = np.where(back.any(axis=0), back.argmax(axis=0) + 1, L)
    bits = (words[:, None] >> np.arange(L)) & 1
    bond = bits != np.roll(bits, -1, axis=1)  # bond i joins sites i and i+1
    zz = -0.25 * J * (L - 2 * bond.sum(axis=1))
    magnons = bits.sum(axis=1)
    mirror = (bits[:, ::-1] << np.arange(L)).sum(axis=1)  # P: site i -> L - 1 - i
    flip = words ^ (n - 1)  # Z: every spin inverted

    reps = words[rep == words]
    src, site = np.nonzero(bond[reps])
    a = reps[src]
    c = a ^ ((1 << site) | (1 << ((site + 1) % L)))
    b, hop_shift = rep[c], shift[c]
    hop_scale = -0.5 * J * np.sqrt(period[a] / period[b])

    by_size: dict[int, list] = {}
    for m in range(L // 2 + 1):
        for q in range(L // 2 + 1):  # k = 2 pi q / L
            mine = reps[(magnons[reps] == m) & (q * period[reps] % L == 0)]
            if mine.size == 0:
                continue
            pos = np.full(n, -1)
            pos[mine] = np.arange(mine.size)
            hop = (pos[a] >= 0) & (pos[b] >= 0)
            block = np.zeros((mine.size, mine.size), dtype=complex)
            np.add.at(block, (pos[b[hop]], pos[a[hop]]),
                      hop_scale[hop] * np.exp(-2j * math.pi * q * hop_shift[hop] / L))
            images = [g[mine] for g, on in ((mirror, 2 * q % L == 0), (flip, 2 * m == L)) if on]
            maps = [(pos[rep[g]], np.exp(-2j * math.pi * q * shift[g] / L)) for g in images]
            for sub, keep, w, cf in _split(block, maps):
                by_size.setdefault(keep.size, []).append(
                    (sub, zz[mine[keep]], m, q, mine[w], cf))
    stacks = tuple(tuple(np.array(x) for x in zip(*by_size[size])) for size in sorted(by_size))
    column_magnons = np.concatenate([np.repeat(m, d.shape[-1]) for _, d, m, *_ in stacks])
    column_q = np.concatenate([np.repeat(q, d.shape[-1]) for _, d, _, q, *_ in stacks])
    repeats = np.where((column_q > 0) & (2 * column_q < L), 2, 1)
    weights = (repeats * np.where(2 * column_magnons < L, 2, 1)).astype(float)
    place = np.array([(s, i) for s, (_, d, *_) in enumerate(stacks) for i in range(len(d))])
    sizes = np.array([stacks[s][1].shape[-1] for s, _ in place])
    first = np.cumsum(sizes) - sizes
    for arr in (*chain(*stacks), column_magnons, repeats, weights, first, place):
        arr.setflags(write=False)
    return SectorBlocks(stacks=stacks, magnons=column_magnons, repeats=repeats,
                        weights=weights, first=first, place=place)


def _split(block: np.ndarray, maps: list) -> Generator:
    """(sub-block, kept states, words, coefs) for each joint eigenspace of ``maps``.

    Each map (idx, phase) is an involution g that commutes with the block
    and sends basis state i to phase[i] times state idx[i].  The products
    of the maps form an abelian group G of at most 4 elements; for each
    character chi of G, the columns sum_{h in G} chi(h) h|i> span the
    eigenspace.  They are nonzero for either all or none of an orbit and
    parallel within it, so the orbit's least state i stands for it; its
    column, normalized, is a basis state of the sub-block.  ``words``
    (n_sub, 4) indexes the block states each basis state combines and
    ``coefs`` their amplitudes, zero-padded to 4.
    """
    size = block.shape[0]
    group = [(np.arange(size), np.ones(size, dtype=complex), ())]  # (idx, phase, maps used)
    for j, (idx, phase) in enumerate(maps):
        group += [(idx[i], ph * phase[i], used + (j,)) for i, ph, used in group]
    least = np.min([i for i, _, _ in group], axis=0)
    for signs in np.ndindex(*(2,) * len(maps)):  # chi(g_j) = (-1)^signs[j]
        chi = [(-1.0) ** sum(signs[j] for j in used) for _, _, used in group]
        u = np.zeros((size, size), dtype=complex)
        for (i, ph, _), x in zip(group, chi):
            np.add.at(u, (i, np.arange(size)), x * ph)
        norm = np.linalg.norm(u, axis=0)
        keep = np.flatnonzero((least == np.arange(size)) & (norm > 0.5))
        if keep.size:
            w = np.zeros((keep.size, 4), dtype=np.int64)
            cf = np.zeros((keep.size, 4), dtype=complex)
            for t, ((i, ph, _), x) in enumerate(zip(group, chi)):
                w[:, t], cf[:, t] = i[keep], x * ph[keep] / norm[keep]
            # <v_a|block|v_b> from the at most 4 x 4 entries each pair combines
            sub = sum(cf[:, s, None].conj() * block[np.ix_(w[:, s], w[:, t])] * cf[:, t]
                      for s in range(len(group)) for t in range(len(group)))
            yield (sub if maps else block), keep, w, cf


def full_spectrum(L: int, J: float, aniso: complex) -> list[tuple[int, np.ndarray]]:
    """All 2^L eigenvalues, sector by sector, each block sorted by (Re, Im).

    Each sector's spectrum is the union of its blocks: sector M reads
    the built sector min(M, L - M) and repeats the values of every block
    whose q also stands for -q.
    """
    blocks = sector_blocks(L, J)
    vals = blocks.eigvals(aniso)
    out = []
    for m in range(L + 1):
        mine = blocks.magnons == min(m, L - m)
        sector_vals = np.repeat(vals[mine], blocks.repeats[mine])
        out.append((m, sector_vals[np.lexsort((sector_vals.imag, sector_vals.real))]))
    return out


def ground_state(L: int, J: float, aniso: complex) -> tuple[int, complex, np.ndarray]:
    """(sector M, energy, normalized right eigenvector over the 2^L basis).

    The winning level is picked from the eigenvalues of the symmetry
    blocks alone.  Each sector's candidate is its least eigenvalue by
    (Re, Im) over all of its blocks; a later M replaces the best so far
    only when its real part is lower by more than 1e-12, so degeneracies
    resolve to the smaller magnon number and the all-up product state
    represents the ferromagnetic doublet on the gapped side.  Only the
    blocks of ``sector_blocks`` are searched, M <= L/2 and q <= L/2: spin
    flip and reflection repeat their spectra, so a larger M never wins.

    Only the blocks that can hold the winning level are solved, each by
    ``SectorBlocks.eigvals`` with a pick.  Every eigenvalue of a block
    H = A + Delta D has Re E >= lb, the least level of its Hermitian part
    A + Re Delta D, the block at Re Delta (Bendixson, Acta Math. 25, 359
    (1902)); ``SectorBlocks.weyl_bounds`` bounds lb with no eigensolve.
    The block of least Weyl bound is solved first; its least Re E is m.
    The others with Weyl bound <= m + margin are solved, at complex Delta
    only those whose lb from ``eigvals(Re Delta)`` is <= m + margin too
    (at real Delta lb would be the spectrum itself), with margin
    = 1e-9 max(1, max(|A|_F + |Delta| |d|)) >= 1e-9 max |H|_F.  The margin
    exceeds the 1e-12 hysteresis chain over the at most L/2 + 1 candidates
    and the rounding of the solvers and of the floors: ``eigh`` moves a
    bound by about n eps |H|, and a computed eigenvalue is exact for some
    H + E with |E| about n eps |H|, so by Bendixson on H + E it cannot
    fall below lb by more than that.  A skipped block's computed levels
    thus all lie more than the chain above m, so they could neither win
    nor change a sector's candidate where it matters: the selection and
    its values are those of a search of every block, to the bit.

    The energy is the winning eigenvalue itself.  Its vector comes from
    ``inverse_iteration`` on the winning block at that eigenvalue: one LU,
    gated on |H v - E v| / |H|_F <= 1e-10, which also certifies E as an
    eigenvalue of the block.  The vector, a symmetric momentum eigenstate,
    is expanded into the spin basis.  When the winning level is
    degenerate across blocks of one M, the state is the eigenstate of the
    first such block, the one whose computed eigenvalue sorts first, not a
    mixture of the blocks; of a pair k, -k it is always the +q block,
    q <= L/2, since only that one is built.
    """
    blocks = sector_blocks(L, J)
    aniso = np.asarray(aniso, dtype=complex)
    with np.errstate(invalid="ignore"):  # a non-finite Delta is refused by the solve below
        cheap = blocks.weyl_bounds(float(aniso.real))
    lead = np.arange(cheap.size) == cheap.argmin()
    vals = blocks.eigvals(aniso, lead)
    _, _, _, a_norm, d_norm = blocks.bounds
    margin = 1e-9 * max(1.0, (a_norm + abs(aniso) * d_norm).max())
    top = vals.real.min() + margin
    pick = (cheap <= top) & ~lead
    if aniso.imag:  # Bendixson: the least level of the block at Re Delta
        pick &= blocks.eigvals(aniso.real, pick)[blocks.first].real <= top
    rest = blocks.eigvals(aniso, pick)
    vals = np.where(np.isinf(rest), vals, rest)  # the lead block's columns are inf in rest
    mags = blocks.magnons
    order = np.lexsort((vals.imag, vals.real, mags))
    candidates = order[np.diff(mags[order], prepend=-1) != 0]  # per M, M ascending
    win = candidates[0]
    for c in candidates[1:]:
        if vals[c].real < vals[win].real - 1e-12:
            win = c
    a, d, q, words, coefs = blocks.block(int(np.searchsorted(blocks.first, win, side="right")) - 1)
    vec = inverse_iteration(_block_matrices(a[None], d[None], aniso)[0], vals[win])
    psi = _momentum_state(L, words, coefs, q, vec)
    psi /= np.linalg.norm(psi)
    return int(mags[win]), complex(vals[win]), psi


def _momentum_state(L: int, words: np.ndarray, coefs: np.ndarray, q: int,
                    vec: np.ndarray) -> np.ndarray:
    """sum_j vec_j |j> over the 2^L spin basis for one block of ``sector_blocks``.

    Basis state j of the block is sum_t coefs[j, t] |words[j, t], k>,
    k = 2 pi q / L, with the representatives a = words[j, t] and
    |a, k> = sqrt(R_a) / L sum_{r < L} e^(-ikr) T^r |a>, the momentum
    state of that construction, so the sign of the phase matches its hops.
    """
    words, amp = words.ravel(), (vec[:, None] * coefs).ravel()
    r = np.arange(L)[:, None]
    orbit = ((words << r) | (words >> (L - r))) & ((1 << L) - 1)  # T^r |a>
    back = orbit[1:] == words
    period = np.where(back.any(axis=0), back.argmax(axis=0) + 1, L)
    phase = np.exp(-2j * math.pi * q * r / L)
    psi = np.zeros(1 << L, dtype=complex)
    np.add.at(psi, orbit, amp * np.sqrt(period) / L * phase)
    return psi


def partition_scaled(L: int, J: float, beta: float,
                     aniso: complex | np.ndarray) -> complex | np.ndarray:
    """exp(beta * min Re E) * Z(Delta); the natural zero-finding residual.

    Every Boltzmann term has modulus <= 1 after the shift, so |result|
    is already normalized by the dominant eigen-weight.  Each distinct
    eigenvalue of ``sector_blocks`` enters with its multiplicity.  A
    scalar anisotropy ``aniso`` = Delta gives a complex; an array of them
    gives an array of the same shape, evaluated in one batch, whose
    every entry has the bits of the scalar call at that Delta.
    DomainError unless beta is finite and > 0.
    """
    blocks = sector_blocks(L, J)
    _check_beta(beta)
    vals = blocks.eigvals(aniso)
    shift = vals.real.min(axis=-1)
    terms = np.exp(-beta * (vals - shift[..., None]))
    # one 1-D dot per point: a batched matrix-vector product sums in
    # another order, so a point's bits would depend on its batch
    total = np.array([row @ blocks.weights for row in terms.reshape(-1, terms.shape[-1])],
                     dtype=complex).reshape(shift.shape)
    return complex(total) if total.ndim == 0 else total


# --- zero structure around the ferromagnetic point -------------------------

# Polynomial terms or analytic zeros in one table.  At the cap (2 vCPU)
# xxz-poly takes 1.0 s and peaks at 240 MB RSS, xxz-zeros --analytic at
# L = 4 takes 3.7 s and peaks at 441 MB.
_TABLE_CAP = 1 << 21


def zero_polynomial_terms(L: int) -> list[tuple[int, int]]:
    """The nonzero terms (exponent, coefficient) of sum_{M=0}^{L} z^{M(L-M)}.

    M and L - M share the exponent M(L - M), which rises with M up to
    L/2: coefficient 2 for M < L/2 and 1 at M = L/2 (even L).  The last
    exponent is the degree, floor(L^2/4).  DomainError above 2^21 terms.
    """
    _check_chain(L)
    if L // 2 >= _TABLE_CAP:
        raise DomainError(f"{L // 2 + 1} polynomial terms exceed the cap of {_TABLE_CAP}")
    return [(m * (L - m), 1 if 2 * m == L else 2) for m in range(L // 2 + 1)]


def zero_polynomial(L: int) -> ComplexPolynomial:
    """sum_{M=0}^{L} z^{M(L-M)} as an explicit coefficient list."""
    terms = zero_polynomial_terms(L)
    coeffs = np.zeros(terms[-1][0] + 1, dtype=complex)
    for exponent, c in terms:
        coeffs[exponent] = c
    return ComplexPolynomial(coeffs)


@dataclass
class ZeroLocus:
    """Zeros of Z found by ``locate_zeros_numeric``, with their residuals."""

    zeros: list[complex]  # Delta values
    residuals: list[float]
    dropped: list[complex]


def analytic_zeros(L: int, beta: float, J: float = 1.0,
                   n_window=(0,)) -> list[complex]:
    """First-order zeros Delta_j = 1 - (L-1) Log(z_j)/(beta J) + i(L-1)2 pi n/(beta J).

    z_j are the roots of ``zero_polynomial(L)``; z is the Boltzmann
    weight per unit of the multiplet exponent M(L-M), so its logarithm
    enters with a minus sign.  A real negative z_j takes the upper side of
    Log's cut: its n = 0 zero has Im Delta = -pi (L-1)/(beta J).
    DomainError, before any work, above 2^21 zeros.
    """
    _check_chain(L, J)
    _check_beta(beta)
    if (count := len(n_window) * (L * L // 4)) > _TABLE_CAP:
        raise DomainError(f"{count} analytic zeros exceed the cap of {_TABLE_CAP}")
    roots = roots_of_polynomial(zero_polynomial(L))
    # real coefficients: a real root's Im z is rounding of either sign, and on
    # the negative axis that sign would pick the side of cmath.log's cut
    roots.imag[np.abs(roots.imag) < 4 * roots.size * np.finfo(float).eps * np.abs(roots)] = 0.0
    zeros = []
    scale = (L - 1) / (beta * J)
    for n in n_window:
        for z in roots:
            delta = -scale * cmath.log(z) + 1j * scale * 2.0 * math.pi * n
            zeros.append(1.0 + delta)
    return zeros


def _secant_refine(z0: complex, step: complex, deflate: tuple[complex, ...] = ()
                   ) -> Generator[complex, complex, Optional[tuple[complex, float]]]:
    """Secant iteration for a zero of f, started at z0 and z0 + step.

    A generator: it yields each point z and is sent f(z) there (see
    ``_drive``).  It returns (root, |f(root)|) or None.  With ``deflate``
    the iteration runs on f(z) / prod_k (z - r_k), which steers it away
    from the known zeros r_k; convergence is still judged on the
    undeflated |f(z)| < 1e-8, together with a step |b - a| < 1e-11, within
    60 steps.
    """
    def g(z, value):
        return value / np.prod([z - r for r in deflate]) if deflate else value

    a, b = z0, z0 + step
    ga = g(a, (yield a))
    fb = yield b
    gb = g(b, fb)
    for _ in range(60):
        if gb == ga:
            return None
        c = b - gb * (b - a) / (gb - ga)
        if not (np.isfinite(c.real) and np.isfinite(c.imag)):
            return None
        a, ga, b = b, gb, c
        fb = yield b
        gb = g(b, fb)
        if abs(b - a) < 1e-11 and abs(fb) < 1e-8:
            return b, abs(fb)
    return (b, abs(fb)) if abs(fb) < 1e-8 else None


def _drive(f: Callable[[np.ndarray], np.ndarray], iterations: list) -> list:
    """Run ``_secant_refine`` generators in lockstep; their return values, in order.

    Each step sends every running iteration its value from one call of f
    over all of their points.  The arithmetic stays per iteration, in
    Python complex, so a result does not depend on what else runs beside
    it as long as f(points)[i] does not depend on the other points.
    """
    results: list = [None] * len(iterations)
    points = {k: next(it) for k, it in enumerate(iterations)}
    while points:
        values = f(np.array(list(points.values())))
        for k, value in zip(list(points), values):
            try:
                points[k] = iterations[k].send(complex(value))
            except StopIteration as stop:
                results[k] = stop.value
                del points[k]
    return results


def _winding_cells(f: Callable[[np.ndarray], np.ndarray], res: np.ndarray,
                   ims: np.ndarray) -> list[tuple[int, int]]:
    """The plaquettes (i, j) of the lattice res x ims around which arg f winds by >= pi.

    A plaquette's winding is the sum of the wrapped phase steps around
    its four corners.  Windings telescope: the steps along an edge shared
    by two rectangles cancel, so a rectangle's boundary winding is the
    sum of its plaquettes'.  Starting from the whole window, every
    rectangle with |W| >= pi is split at the lattice midpoint of its
    longer side, and only the new lattice points on the cut are
    evaluated, one level at a time in batches of at most ``res.size``
    points.  When no plaquette winds negatively (f entire and the
    lattice fine enough), this returns the cells a scan of every
    plaquette flags, sorted by (i, j).
    """
    phase = np.empty((res.size, ims.size))

    def evaluate(points: list[tuple[int, int]]) -> None:
        for start in range(0, len(points), res.size):
            i, j = np.array(points[start:start + res.size]).T
            phase[i, j] = np.angle(f(res[i] + 1j * ims[j]))

    def boundary(i0, i1, j0, j1):  # counterclockwise, closed
        return ([(i, j0) for i in range(i0, i1)] + [(i1, j) for j in range(j0, j1)]
                + [(i, j1) for i in range(i1, i0, -1)]
                + [(i0, j) for j in range(j1, j0 - 1, -1)])

    def winds(rect) -> bool:
        i, j = np.array(boundary(*rect)).T
        steps = (np.diff(phase[i, j]) + math.pi) % (2.0 * math.pi) - math.pi
        return abs(steps.sum()) >= math.pi

    window = (0, res.size - 1, 0, ims.size - 1)
    evaluate(boundary(*window)[:-1])
    rects, cells = [window], []
    while rects:
        cut: list[tuple[int, int]] = []
        split = []
        for i0, i1, j0, j1 in filter(winds, rects):
            if i1 - i0 == 1 and j1 - j0 == 1:
                cells.append((i0, j0))
            elif i1 - i0 >= j1 - j0:
                m = (i0 + i1) // 2
                split += [(i0, m, j0, j1), (m, i1, j0, j1)]
                cut += [(m, j) for j in range(j0 + 1, j1)]
            else:
                m = (j0 + j1) // 2
                split += [(i0, i1, j0, m), (i0, i1, m, j1)]
                cut += [(i, m) for i in range(i0 + 1, i1)]
        evaluate(cut)
        rects = split
    return sorted(cells)


def locate_zeros_numeric(L: int, beta: float, J: float,
                         re_window: tuple[float, float],
                         im_window: tuple[float, float],
                         grid_n: int) -> ZeroLocus:
    """Zeros of Z on a rectangle of the complex Delta plane.

    The window carries a grid_n x grid_n lattice.  Candidate cells are
    the lattice plaquettes around which the phase of the scaled partition
    sum winds by at least pi (Z is entire in Delta, so a 2 pi winding
    flags an enclosed zero).  They are found by bisecting the window on
    boundary windings (Delves & Lyness, Math. Comp. 21, 543 (1967); see
    ``_winding_cells``), so Z is evaluated only on the cuts through
    rectangles that hold a zero, in batches of at most grid_n points,
    not at all grid_n^2 lattice points.  Each candidate is polished by
    secant iteration from its cell's center; all candidates advance in
    lockstep, one ``partition_scaled`` call per step.  Roots within 1e-6
    of one found from an earlier cell, in (i, j) order, are dropped as
    duplicates; non-convergent candidates are reported in ``dropped``.
    The residual of a zero is the |Z| of its last secant step.
    """
    if L > 10:
        raise DomainError("grid search capped at L = 10")
    _check_beta(beta)
    if not 2 <= grid_n <= 4096:  # the grid_n^2 phase lattice takes 128 MiB at the cap
        raise DomainError(f"grid_n must lie in 2..4096, got {grid_n}")
    re0, re1 = re_window
    im0, im1 = im_window
    if not all(map(math.isfinite, (re0, re1, im0, im1))):
        raise DomainError("windows must be finite")
    if not (re0 < re1 and im0 < im1):
        raise DomainError("windows must be nonempty intervals")
    res = np.linspace(re0, re1, grid_n)
    ims = np.linspace(im0, im1, grid_n)
    cells = _winding_cells(lambda aniso: partition_scaled(L, J, beta, aniso), res, ims)
    centers = [complex(0.5 * (res[i] + res[i + 1]) - 1.0, 0.5 * (ims[j] + ims[j + 1]))
               for i, j in cells]
    steps = [0.1 * complex(res[i + 1] - res[i], ims[j + 1] - ims[j]) for i, j in cells]
    polished = _drive(lambda d: partition_scaled(L, J, beta, 1.0 + d),
                      [_secant_refine(c, s) for c, s in zip(centers, steps)])

    zeros: list[complex] = []
    residuals: list[float] = []
    dropped: list[complex] = []
    for center, result in zip(centers, polished):
        if result is None:
            dropped.append(1.0 + center)
            continue
        root, residual = result
        value = 1.0 + root
        if any(abs(value - z) < 1e-6 for z in zeros):
            continue
        zeros.append(value)
        residuals.append(residual)
    order = np.lexsort((np.array([z.real for z in zeros]),
                        np.array([z.imag for z in zeros]))) if zeros else []
    zeros = [zeros[i] for i in order]
    residuals = [residuals[i] for i in order]
    return ZeroLocus(zeros=zeros, residuals=residuals, dropped=dropped)


@dataclass
class ZeroPairing:
    """One-to-one pairing of analytic zeros with distinct partition zeros.

    ``analytic[j]`` is paired with ``numeric[j]``; no two entries of
    ``numeric`` lie within 1e-8 of each other.  ``distances[j]`` is
    |numeric[j] - analytic[j]| and ``residuals[j]`` the scaled |Z| at
    ``numeric[j]``.
    """

    analytic: list[complex]
    numeric: list[complex]
    distances: list[float]
    residuals: list[float]

    @property
    def max_distance(self) -> float:
        return max(self.distances)


def verify_analytic_zeros(L: int, beta: float, J: float = 1.0) -> ZeroPairing:
    """Pair every n = 0 analytic zero one-to-one with a polished partition zero.

    Each analytic zero seeds a secant iteration on the scaled partition
    sum; the seeds advance in lockstep, one ``partition_scaled`` call per
    step.  Taking the seeds in order, when a root lands within 1e-8 of a
    root already kept, that seed alone is polished again on Z deflated
    by all roots kept so far, Z(delta) / prod_k (delta - r_k), and the
    result must still satisfy |Z| <= 1e-8 undeflated.  The residual of a
    root is the |Z| of its last secant step.  The distinct roots are then
    assigned to the analytic zeros by minimum total distance
    (``scipy.optimize.linear_sum_assignment``), one row per analytic
    zero.  The paired distance measures the first-order truncation error,
    which shrinks as beta grows.  Raises ``YangLeeError`` when a seed
    yields no distinct partner.
    """
    sector_blocks(L, J)  # checks L <= 14 and J before np.roots meets degree L^2/4
    analytic = analytic_zeros(L, beta, J)

    def f(d):
        return partition_scaled(L, J, beta, 1.0 + d)

    step = 1e-4 * (1.0 + 1j)
    first = _drive(f, [_secant_refine(z - 1.0, step) for z in analytic])
    roots: list[complex] = []  # delta = Delta - 1
    residuals: list[float] = []
    for z, result in zip(analytic, first):
        if result is not None and _near_any(result[0], roots):
            result = _drive(f, [_secant_refine(z - 1.0, step, deflate=tuple(roots))])[0]
        if result is None or _near_any(result[0], roots):
            raise YangLeeError(f"no distinct partition zero near {z} "
                               f"(L={L}, beta={beta})")
        roots.append(result[0])
        residuals.append(result[1])
    # imported here: scipy.optimize adds about 0.3 s to every CLI start
    from scipy.optimize import linear_sum_assignment

    values = [1.0 + r for r in roots]
    _, cols = linear_sum_assignment(
        np.abs(np.subtract.outer(analytic, values)))
    numeric = [values[c] for c in cols]
    return ZeroPairing(analytic=analytic, numeric=numeric,
                       distances=[abs(n - z) for n, z in zip(numeric, analytic)],
                       residuals=[residuals[c] for c in cols])


def _near_any(z: complex, others: list[complex]) -> bool:
    return any(abs(z - o) <= 1e-8 for o in others)


# --- first-order Bethe reduction -------------------------------------------


@dataclass
class BetheRootSet:
    """Roots zeta_j of L zeta_j = 2 sum_{l != j} (1 + zeta_l zeta_j)/(zeta_l - zeta_j)."""

    L: int
    M: int
    zeta: np.ndarray

    @property
    def sum_rule_linear(self) -> float:
        return float(abs(np.sum(self.zeta)))

    @property
    def sum_rule_quadratic(self) -> float:
        target = -self.M * (self.M - 1) / (self.L - 1)
        return float(abs(np.sum(self.zeta ** 2) - target))


def _bethe_terms(t: np.ndarray) -> np.ndarray:
    """frac[j, l] = (1 - t_l t_j) / (t_l - t_j), 0 on the diagonal.

    With zeta = i t the Bethe residual is f_j = i g_j, g_j = L t_j +
    2 sum_l frac[j, l], so the whole system is real.
    """
    diff = t[None, :] - t[:, None]  # diff[j, l] = t_l - t_j
    np.fill_diagonal(diff, 1.0)
    frac = 1.0 - t[:, None] * t[None, :]
    frac /= diff
    np.fill_diagonal(frac, 0.0)
    return frac


def _bethe_jacobian(L: int, t: np.ndarray) -> np.ndarray:
    """dg_j/dt_l of the real Bethe residual g (see ``_bethe_terms``).

    L + 2 sum_{l != j} (1 - t_l^2)/(t_l - t_j)^2 on the diagonal and
    2 (t_j^2 - 1)/(t_l - t_j)^2 off it.
    """
    inv = t[None, :] - t[:, None]
    np.fill_diagonal(inv, 1.0)
    inv **= -2.0
    np.fill_diagonal(inv, 0.0)
    jac = 2.0 * (t ** 2 - 1.0)[:, None] * inv
    jac[np.diag_indices(t.size)] = L + 2.0 * (inv @ (1.0 - t ** 2))
    return jac


# Largest M of a Bethe solve.  Each M x M float64 array takes 128 MiB at the
# cap; there xxz-bethe takes 0.9 s and peaks at 440 MB RSS, or 3.8 s and
# 580 MB when it takes a Newton step (L = 1e5; 2 vCPU, BLAS on 1 thread).
_BETHE_MAX_M = 4096
# Newton steps on nodes that miss the gate; over L = 2..300 one step suffices.
_BETHE_NEWTON_STEPS = 4


def solve_bethe_roots(L: int, M: int) -> BetheRootSet:
    """Roots of the reduced Bethe system for 1 <= M <= L/2, Im zeta ascending.

    zeta_j = i t_j with t_j the zeros of the Gegenbauer polynomial
    C_M^(lambda), lambda = (L - 2M + 1)/2 (see the module docstring),
    taken as the eigenvalues of the symmetric tridiagonal Jacobi matrix
    with zero diagonal and off-diagonal
    b_n = sqrt(n (n + 2 lambda - 1) / ((n + lambda)(n + lambda - 1))) / 2.
    They are certified on the real residual g = Im f (``_bethe_terms``)
    by a bound relative to the term scale
    S = max_j (L |t_j| + 2 sum_l |(1 - t_l t_j)/(t_l - t_j)|),
    taken once from the nodes: max_j |g_j| <= (M + 8) eps S, the order
    of the rounding error of evaluating g_j (M terms, each a product, a
    difference and a quotient).  An absolute bound fails at large L M,
    where that rounding floor itself grows past it.  Nodes that miss the
    bound are polished by undamped Newton steps with the closed-form
    Jacobian; ``CertificateError`` (carrying the last iterate and its
    residual) is raised when the step cap is reached or a step is
    singular or non-finite.  Raises ``DomainError`` for M above 4096.
    """
    if not 1 <= M <= L // 2:
        raise DomainError("need 1 <= M <= L/2 (E_M = E_{L-M} covers the rest)")
    if M > _BETHE_MAX_M:
        raise DomainError(f"M = {M} exceeds the Bethe solve's cap of {_BETHE_MAX_M}")
    lam = (L - 2 * M + 1) / 2.0
    n = np.arange(1, M)
    b = 0.5 * np.sqrt(n * (n + 2.0 * lam - 1.0) / ((n + lam) * (n + lam - 1.0)))
    t = scipy.linalg.eigvalsh_tridiagonal(np.zeros(M), b)
    t = 0.5 * (t - t[::-1])  # the exact set is odd: sum t = 0
    frac = _bethe_terms(t)
    tol = (M + 8) * np.finfo(float).eps * float(
        np.max(L * np.abs(t) + 2.0 * np.abs(frac).sum(axis=1)))
    for steps in range(_BETHE_NEWTON_STEPS + 1):
        g = L * t + 2.0 * frac.sum(axis=1)
        residual = float(np.max(np.abs(g)))
        if residual <= tol and math.isfinite(residual):  # coincident nodes make tol inf
            stop = None
            break
        if steps == _BETHE_NEWTON_STEPS:
            stop = f"{steps} Newton steps"
            break
        try:
            step = np.linalg.solve(_bethe_jacobian(L, t), g)
        except np.linalg.LinAlgError:
            stop = "a singular Jacobian"
            break
        if not np.all(np.isfinite(step)):
            stop = "a non-finite Newton step"
            break
        t = t - step
        frac = _bethe_terms(t)
    zeta = np.zeros(M, dtype=complex)  # Re stays +0.0; 1j * t would give -0.0
    zeta.imag = t
    if stop is not None:
        raise CertificateError(
            f"Bethe roots at L = {L}, M = {M}: residual {residual:.3e} above the "
            f"gate {tol:.3e} after {stop}", best=zeta, residual=residual)
    return BetheRootSet(L=L, M=M, zeta=zeta)


# --- energies, gaps, densities, response ------------------------------------


def multiplet_gap(L: int, J: float, delta_re: float) -> float:
    """First-order gap on the gapless side, Re delta < 0, of Delta = 1 + delta.

    With E_M = E_0 + J delta M (L - M) / (L - 1) the lowest level is
    M = L/2 at even L, and the next one M = L/2 -+ 1 lies
    -J Re delta / (L - 1) above it; at odd L the lowest two,
    M = (L -+ 1)/2, are degenerate, and the next, M = (L -+ 3)/2, lies
    twice as far up.  The sign of delta_re is the caller's to check.
    """
    _check_chain(L, J)
    if not math.isfinite(delta_re):
        raise DomainError(f"delta must be finite, got {delta_re}")
    return -J * delta_re * (1 + L % 2) / (L - 1)


def ed_gap(L: int, J: float, delta_re: float) -> float:
    """Spacing of the two lowest distinct real levels at Delta = 1 + delta_re.

    Levels within 1e-12 of the lowest count as degenerate with it.
    """
    re = np.sort(np.concatenate([v for _, v in full_spectrum(L, J, 1.0 + delta_re)]).real)
    above = re[re > re[0] + 1e-12]
    return float(above[0] - re[0])


def zero_density(L: int, beta: float, J: float = 1.0) -> float:
    """Zeros per unit imaginary anisotropy along the locus: beta J N / (2 pi (L-1))."""
    _check_chain(L, J)
    _check_beta(beta)
    return beta * J * (L * L // 4) / (2.0 * math.pi * (L - 1))  # degree floor(L^2/4)


@dataclass
class SusceptibilityScan:
    sigma_fit: float
    table: list[tuple[float, float]]  # (|delta|, chi)


def susceptibility_scaling(L: int, J: float, delta_res) -> SusceptibilityScan:
    """Zero-field susceptibility on the gapless side and its exponent.

    A field h couples as -h S^z_total.  E_M is quadratic in M, so
    minimizing E_M - h (L/2 - M) over continuous M gives
    M* = L/2 + h (L - 1) / (2 J delta) exactly, and the per-site response
    chi = 2 (L/2 - M*) / (L h) = -(L - 1) / (L J delta) holds at every h.
    The log-log slope of chi against |delta| is the fitted exponent.
    """
    _check_chain(L, J)
    deltas = np.asarray(delta_res, dtype=float)
    if not np.all(np.isfinite(deltas) & (deltas < 0)):
        raise DomainError("susceptibility scan needs finite Re delta < 0 (gapless)")
    mags = np.abs(deltas)
    chis = -(L - 1) / (L * J * deltas)
    if np.unique(mags).size < 2:
        raise DomainError("the exponent fit needs at least two distinct |delta|")
    sigma = -float(np.polyfit(np.log(mags), np.log(chis), 1)[0])
    return SusceptibilityScan(sigma_fit=sigma, table=list(zip(mags.tolist(), chis.tolist())))
