"""General N-emitter, M-point effective model and S-matrix evaluator.

Every pairwise sum extends the nested four-term structure to arbitrary
coupling-point layouts: for emitters j, l with points p, q at positions x,

    Gamma_jl(f) = sum_pq sqrt(kappa_jp*kappa_lq) * cos(2*pi*f*|x_jp - x_lq|/v)
    J_jl(f)     = 1/2 * sum_pq sqrt(kappa_jp*kappa_lq) * sin(2*pi*f*|x_jp - x_lq|/v)

The j == l terms reproduce the giant decay rate and Lamb shift of the
single-ensemble closed form. Phase reference frequencies: each emitter's
own resonance for diagonals, the pair's mean resonance for off-diagonals
(a modeling choice for detuned pairs; it reduces to the published
degenerate case exactly). The evaluator also offers fully probe-frequency
self-consistent evaluation, which is the convention under which a
lossless system scatters unitarily.

The engine works on all P coupling points at once, flattened in emitter
order with an owner index:

- At the reference frequencies (`build_effective`, and `s_matrix` under
  'resonance' and 'mixed') it forms the P x P arrays
  sqrt(kappa_p*kappa_q) * sin and * cos of the point-pair phases once and
  sums them over the blocks of the P x N membership matrix E:
  J = 1/2 * E^T S E and Gamma = E^T C E.
- Under 'probe' J depends on f. With a_p = sqrt(kappa_p)*exp(i*k*(x_p - x_0)),
  x_0 the first coupling point along the guide and k = 2*pi*f/v,
  sin(k*|x_p - x_q|) * sqrt(kappa_p*kappa_q) = sgn(x_p - x_q) * Im(a_p * conj(a_q)),
  so J_jl = Im(sum_{p in j} a_p * C_l(x_p)) - 1/2 * Im(A_j * conj(A_l)), where
  C_l(x) is the sum of conj(a_q) over the points of l left of x (a prefix
  sum along the guide) and A_j the sum of a_p over j. As conj(A_l) = u_l,
  the drive of l (below), the last term is sum_{p in j} Im(a_p * (-u_l/2)):
  prefix sums that start at -u_l/2 give J itself in one pass along the
  guide, vectorized over frequency and emitters, O(P*N) per frequency
  instead of O(P^2) of trigonometry. -J, Gamma + beta and the detuning go
  straight into a buffer holding f - H (Gamma the products of the drives'
  real and imaginary parts, two entry by entry up to _MAX_ELIMINATION_N,
  one (N x 2)(2 x N) product per frequency above), which batched calls
  solve; the block is turned into S21 and reflection before the next is
  assembled. Up to the limit the buffer holds the whole block; above it a
  sub-block, filled from the block's prefix sums and solved in turn, so f - H
  is never held for the block beside them. _BLOCK_BYTES is the one memory
  budget: s_matrix sizes the blocks from it once per call, for every path
  (_block_rows counts what a block holds per frequency), so no buffer
  grows with the grid, and no 'probe' frequency's arithmetic depends on
  the blocking. The f - H and prefix-sum buffers are one workspace,
  allocated once per call and refilled block by block, so its pages fault
  in once per call, not once per block: the allocator unmaps arrays this
  large when freed.
- Under 'probe' and 'mixed' the drives, and under 'probe' the a_p, need
  the phasors sqrt(kappa_p)*exp(-i*2*pi*f_m*d_p/v) on every grid frequency
  f_m = f_0 + m*df. With b = isqrt(nf) and m = a*b + c each is a coarse
  factor at the grid point f_(a*b), which carries the weight sqrt(kappa_p),
  times a fine one at c*df: about 2*sqrt(nf) exponentials per point instead of nf,
  formed once per call as one row per point, and one complex product per
  entry, as accurate as one exponential per entry. Under 'probe' each
  block forms its columns of that table, P rows along its frequencies, and
  adds each emitter's rows for its drives u_j = sum_{p in j}
  sqrt(kappa_p)*exp(-i*k*d_p); the a_p are the conjugates of the same
  entries, so Gamma and the drives share every exponential. At every N the
  rows add in point order, one vectorized add per point rank over the
  emitters that have a point of that rank, entry by entry, so frequency m's
  drives depend on m alone, not on the blocking; no array spans the grid
  and the points or emitters. 'mixed' forms the drives of each block of
  its pole residues, as N rows, and never forms the P x nf table:
  u[j, a*b + c] = sum_{p in j} coarse[p, a] * fine[p, c] is one
  (n_a x M) by (M x b) matrix product per emitter over the block's coarse
  columns, batched over the emitters with the same number M of points;
  each entry has the bits it has in the product over the whole grid.
- A frequency-independent H is complex symmetric, so its eigenvectors r_k
  satisfy r_k^T r_l = 0 for k != l and
  (f - H)^-1 = sum_k r_k r_k^T / ((f - lambda_k) * r_k^T r_k).
  `s_matrix` diagonalizes H - f0 (f0 the mean resonance, which keeps
  detuning coordinates) once and sums the pole residues: O(N^3 + nf*N^2)
  instead of O(nf*N^3), plus one step of iterative refinement that keeps
  the error at the level of the solve. The eig runs once; the expansion
  works in eigen-coordinates on N rows along each block of frequencies, so
  each product is one N x N matrix times an N x nb array and S21 and the
  reflection contract there, with no solution transformed back. The BLAS
  kernel treats the last columns of a product apart, so these bits follow
  the block size, by rounding alone. Near an exceptional point
  r_k^T r_k -> 0 and the residues lose their accuracy; there, and whenever
  the eigenvectors are not mutually orthogonal in this sense (a
  degenerate eigenvalue), it falls back to the batched solve, in the same
  blocks of frequencies.
- The batched solve of 'probe' and of that fallback is an elimination along
  the frequency axis up to _MAX_ELIMINATION_N emitters: LAPACK pays a fixed
  cost per small matrix, and its bits follow the OpenBLAS kernel. Larger N
  go to np.linalg.solve. The phasors, drives and a_p are rows along the
  block's frequencies at every N, and so, up to the limit, is every entry
  of f - H and every prefix sum: each numpy call runs along the frequency
  axis and the elimination reads the rows as they are. Above it f - H and
  the prefix sums stay frequency-major, the block LAPACK takes; there each
  call already runs over N x N entries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import GsesimWarning, ModelError, Spectrum, TWO_PI, _finite_phase

# The pole-residue expansion is used only when every eigenvector r_k of H
# (unit 2-norm) has |r_k^T r_k| >= _MIN_PAIRING and the bilinear Gram
# matrix R^T R is diagonal to within _MAX_CROSS_PAIRING. Near an
# exceptional point r_k^T r_k -> 0 and the eigenvectors are too
# ill-conditioned for the expansion; in a degenerate eigenspace eig returns
# a basis that is not orthogonal under r^T r, and the expansion is wrong.
_MIN_PAIRING = 1e-2
_MAX_CROSS_PAIRING = 1e-10

# The module's one memory budget: s_matrix sizes every block of frequencies
# from it once per call (_block_rows), for the 'probe' solve, the pole
# residues of 'resonance' and 'mixed' and their fallback alike. Per
# frequency a block counts the rows of the drives and of the coupling points
# (phasors and a_p under 'probe'), which also cover the N rows of the pole
# residues and of the 'mixed' drives, and the prefix sums; up to
# _MAX_ELIMINATION_N also f - H and Gamma's temporary, so that at 2001 points
# every block of N <= 4 emitters with up to 8 points each is the whole grid.
# Above the limit _solve fills f - H and hands it to LAPACK in sub-blocks of
# a quarter of the budget, and a block counts no fewer bytes per frequency
# than f - H, 16*N^2, which keeps the prefix-sum loop at the block size its
# speed was measured at (smaller blocks were slower). So a call holds about
# 1.25 budgets at most besides its grid-length arrays: traced,
# 4.6 MiB for 'probe' at N = 32 x 4 on 2001 points, and under 'resonance'
# and 'mixed' 1.6 and 2.4 MiB at N = 32 x 4 on 20 001 points.
_BLOCK_BYTES = 4 << 20

# _solve eliminates along the frequency axis up to this many emitters and
# calls LAPACK above it; the layout of each block switches with it. Per
# matrix at 2001 frequencies, with rows swapped at about half of them, the
# elimination is 1.6x (N = 4) to 15x (N = 1) faster, level to 1.5x faster
# at N = 5, and up to 1.8x slower at N = 8. The whole 'probe' assembly in
# rows along the frequencies was 22-58 % slower at N = 8 to 64.
_MAX_ELIMINATION_N = 4

# 'resonance' and 'mixed' emit PassivityWarning when |S21|^2 + |S11|^2
# exceeds 1 + _PASSIVITY_TOL anywhere on the grid: rounding alone stays
# below it, lossless 'probe' layouts meet 1 to about 1e-12
_PASSIVITY_TOL = 1e-10


class MarkovWarning(GsesimWarning):
    """Propagation delay is not negligible against the linewidths."""


class PassivityWarning(GsesimWarning):
    """A lossy layout scatters more power than it receives somewhere on the grid."""


@dataclass(frozen=True)
class EffectiveModel:
    """Frequency-resolved effective non-Hermitian model of a topology.

    diag:     complex self-energies f_j + shift_j - i*(rad_j + beta_j), Hz
    coupling: symmetric matrix J_jl - i*Gamma_jl with zero diagonal, Hz
    drive:    complex port-1 drive amplitude per emitter
    """

    diag: np.ndarray = field(repr=False)
    coupling: np.ndarray = field(repr=False)
    drive: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not np.allclose(self.coupling, self.coupling.T):
            raise ModelError("coupling matrix must be symmetric")
        if np.any(self.diag.imag > 1e-12 * np.abs(self.diag.real)):
            raise ModelError("diagonal imaginary parts must be non-positive")

    @property
    def hamiltonian(self):
        return np.diag(self.diag) + self.coupling


def _check_markov(pts, speed):
    """Warn when the delay across the layout times the widest linewidth
    2*sum(kappa_p) + beta exceeds 0.1.

    np.add.reduceat sums an emitter's rates as k_0 + (k_1 + ... + k_m), the
    tail pairwise from nine points on, not left to right: from three points
    the last bit can differ, which moves the decision only within ulps of 0.1.
    """
    span = pts.x.max() - pts.x.min()
    if span / speed * (2.0 * pts.emitter_sums(pts.kappa) + pts.beta).max() > 0.1:
        warnings.warn(
            "propagation delay times linewidth exceeds 0.1; the Markovian "
            "effective model is outside its validity regime",
            MarkovWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class _Points:
    """All coupling points of a topology, flattened in emitter order."""

    x: np.ndarray  # positions, m
    kappa: np.ndarray  # per-point radiative rates, Hz
    owner: np.ndarray  # emitter index of each point
    starts: np.ndarray  # index of each emitter's first point
    sizes: np.ndarray  # number of points of each emitter
    f_res: np.ndarray  # per emitter
    beta: np.ndarray  # per emitter

    @classmethod
    def of(cls, t):
        ems = t.emitters
        sizes = [len(em.positions) for em in ems]
        return cls(
            np.array([x for em in ems for x in em.positions]),
            np.array([k for em in ems for k in em.kappa_points]),
            np.repeat(np.arange(len(ems)), sizes),
            np.cumsum([0] + sizes[:-1]),
            np.array(sizes),
            np.array([em.f_res for em in ems]),
            np.array([em.beta for em in ems]),
        )

    def emitter_sums(self, a, axis=-1):
        """Sum per-point values over each emitter's points (contraction with E)."""
        return np.add.reduceat(a, self.starts, axis=axis)

    def drives(self, speed):
        """Port-1 drive sum_p sqrt(kappa_p)*exp(-i*2*pi*f_res*x_p/v) of every
        emitter, each at its own resonance (N,)."""
        theta = _finite_phase(TWO_PI * (self.f_res[self.owner] * self.x) / speed)
        return self.emitter_sums(np.sqrt(self.kappa) * np.exp(-1j * theta))


def _phase_factors(grid, d, weights, speed):
    """Factors of weights*exp(-i*2*pi*f_m*d/v) on a uniform grid, one row per distance.

    Column m = a*b + c of the grid, b = isqrt(nf), is coarse[:, a] * fine[:, c]:
    coarse holds weights times the ceil(nf/b) grid points f_(a*b), taken from
    grid.frequencies, and fine b columns at c*df.
    """
    nf = grid.n_points
    b = math.isqrt(nf)
    df = (grid.f_stop - grid.f_start) / (nf - 1)
    coarse = _finite_phase(TWO_PI * (d[:, None] * grid.frequencies[::b]) / speed)
    fine = _finite_phase(TWO_PI * (d[:, None] * (np.arange(b) * df)) / speed)
    return np.exp(-1j * coarse) * weights[:, None], np.exp(-1j * fine)


def _phasors(coarse, fine, start, stop):
    """Grid columns start:stop of weights*exp(-i*2*pi*f_m*d/v) from its factors,
    as rows along the frequencies, shape (d.size, stop - start)."""
    b = fine.shape[1]
    first = start // b
    table = (coarse[:, first : (stop - 1) // b + 1, None] * fine[:, None]).reshape(fine.shape[0], -1)
    return table[:, start - first * b : stop - first * b]


def _grid_drives(pts, coarse, fine, start, stop):
    """Drives u[j, m] = sum_{p in j} sqrt(kappa_p)*exp(-i*2*pi*f_m*d_p/v) on the grid
    columns start:stop (N, stop - start), for 'mixed'.

    With the factors of _phase_factors weighted by sqrt(kappa_p), u[j, a*b + c]
    is the (a, c) entry of the product of coarse[p, a] and fine[p, c] over
    j's points: one batched matmul per point count over the coarse columns
    the block spans, no P x nf table. It takes two columns at least: numpy
    hands a one-row product to gemv, whose bits differ from gemm's, and
    with two or more each entry then has the bits of the whole-grid product.
    """
    b = fine.shape[1]
    first = min(start // b, coarse.shape[1] - 2)
    coarse = coarse[:, first : max((stop - 1) // b + 1, first + 2)]
    lo = start - first * b
    u = np.empty((pts.sizes.size, stop - start), dtype=complex)
    for m in set(pts.sizes.tolist()):  # np.unique would import numpy.ma, 1.6 MB of RSS
        js = np.flatnonzero(pts.sizes == m)
        idx = pts.starts[js, None] + np.arange(m)  # points of each emitter with m of them
        prod = np.matmul(coarse[idx].transpose(0, 2, 1), fine[idx])
        # a slice scatters three times faster than an index array
        cols = js if js.size < pts.sizes.size else slice(None)
        u[cols] = prod.reshape(js.size, -1)[:, lo : lo + stop - start]
    return u


def _assemble(pts, speed, lamb_sign):
    """H - diag(f_res) at the reference frequencies.

    Diagonal blocks are evaluated at f_res_j, off-diagonal blocks at the
    pair's mean resonance; lamb_sign=-1 flips the diagonal Lamb shift.
    """
    def block_sums(s):
        # blocks (j, l) and (l, j) of the symmetric s differ only in summation
        # order; averaging them makes H exactly complex symmetric, which the
        # pole-residue expansion relies on
        b = pts.emitter_sums(pts.emitter_sums(s, axis=0), axis=1)
        return 0.5 * (b + b.T)

    f_pt = pts.f_res[pts.owner]
    f_ref = 0.5 * (f_pt[:, None] + f_pt[None, :])
    phi = _finite_phase(TWO_PI * (f_ref * np.abs(pts.x[:, None] - pts.x[None, :])) / speed)
    root = np.sqrt(pts.kappa[:, None] * pts.kappa)
    j = 0.5 * block_sums(root * np.sin(phi))
    gamma = block_sums(root * np.cos(phi))
    j.reshape(-1)[:: j.shape[0] + 1] *= lamb_sign
    gamma.reshape(-1)[:: j.shape[0] + 1] += pts.beta
    hrel = j - 1j * gamma
    if not np.isfinite(hrel).all():
        raise ModelError("effective Hamiltonian is not finite: a coupling rate is too large")
    return hrel


def build_effective(t, waveguide):
    """Effective model of a topology, with the single-GSE sign of the Lamb shift.

    The diagonal of emitter j is evaluated at f_res_j and the (j, l)
    coupling at (f_res_j + f_res_l)/2.
    """
    pts = _Points.of(t)
    with np.errstate(over="ignore", invalid="ignore"):
        hrel = _assemble(pts, waveguide.speed, 1)
        drive = pts.drives(waveguide.speed)
        _check_markov(pts, waveguide.speed)
    coupling = hrel.copy()
    coupling.reshape(-1)[:: drive.size + 1] = 0.0
    return EffectiveModel(pts.f_res + np.diagonal(hrel), coupling, drive)


@dataclass(frozen=True)
class SMatrixResult:
    """Transmission spectrum plus the co-computed reflection channel.

    path:        "pole-residues" or "solve", the way (f - H)^-1 was applied
    min_pairing: min_k |r_k^T r_k| over the unit eigenvectors of H under
                 'resonance' and 'mixed' (below _MIN_PAIRING the expansion
                 is not trusted); None under 'probe', where H depends on f
    """

    transmission: Spectrum
    reflection: np.ndarray = field(repr=False)
    path: str
    min_pairing: float | None


def _probe_resolvent(pts, f, factors, step, sub):
    """resolvent(sl) for _solve: the drives u at the grid rows sl, (N, nb),
    and fill(ss), which writes f*I - H at the rows ss of that block, at most
    sub of them, into the call's buffer and returns it (_f_minus_h).

    Each block forms its table of sqrt(kappa_p)*exp(-i*k*d_p) once, one row
    along its frequencies per point, from factors, the _phase_factors of the
    distances from the first point in emitter order weighted by
    sqrt(kappa_p). The sums of each emitter's rows are its drives, added in
    point order at every N, one vectorized add per point rank, and the
    conjugate rows, taken in order along the guide, the a_p of the
    prefix-sum identity of the module docstring, whose prefix sums start at
    -u_l/2 to give J itself. The dissipative sums factor through the drives,
    Gamma_jl = Re(u_j * conj(u_l)) = Re u_j * Re u_l + Im u_j * Im u_l, two
    products entry by entry up to the limit and one (N x 2)(2 x N) product
    per frequency above. Taking both from the exponentials of the drives
    keeps the anti-Hermitian part exactly consistent with the in/out
    coupling, so lossless topologies scatter unitarily to machine precision
    even near decoupling points where the resolvent amplifies rounding.
    step and sub are the block and sub-block sizes the caller took from
    _block_rows and passes to _solve too: the prefix-sum buffers hold step
    frequencies, the f - H buffer sub, and they are
    refilled block by block in the memory order of a, each entry one row
    along the frequencies up to the limit, frequency-major above. There the
    drives are copied once per block into one contiguous (N x 2) matrix of
    real and imaginary parts per frequency, which starts the prefix sums
    and feeds Gamma's products without a strided read, and fill writes -J
    from the prefix sums one sub-block at a time.
    """
    n = pts.f_res.size
    rows_major = n <= _MAX_ELIMINATION_N
    order = np.argsort(pts.x)
    # rank k >= 1: the emitters with a (k+1)-th point, a slice below the
    # smallest point count, where every emitter has one, and those points
    low = pts.sizes.min()
    ranks = [(js, pts.starts[js] + k) for k in range(1, pts.sizes.max())
             for js in [slice(None) if k < low else np.flatnonzero(pts.sizes > k)]]
    # one workspace per call: f - H for sub frequencies, then the prefix sums
    # and their state for step. As one allocation it is the largest chunk
    # glibc unmaps, and glibc then keeps up to twice its size of free heap:
    # as three buffers, it returned the heap after each 'probe' call of the
    # multipoint-scatter benchmark, the calls after it faulted their pages in
    # again, and the median task ran 11 % slower
    work = np.empty(2 * n * n * sub + n * n * step + 2 * n * step)
    fh = work[: 2 * n * n * sub].view(complex)
    sums_buf = work[2 * n * n * sub : 2 * n * n * sub + n * n * step]
    left_buf = work[2 * n * n * sub + n * n * step :]

    def resolvent(sl):
        nb = sl.stop - sl.start
        ph = _phasors(*factors, sl.start, sl.stop)
        u = ph[pts.starts]
        for js, idx in ranks:  # each emitter's rows added to its first in point order, rank by rank
            u[js] += ph[idx]
        # a_p = sqrt(kappa_p)*exp(i*k*(x_p - x_0)) as (re, im) rows in order along the
        # guide; rebinding ph frees the emitter-order table before a_pts is allocated
        ph = ph[order]
        a_pts = np.empty((order.size, 2, nb))
        a_pts[:, 0] = ph.real
        np.negative(ph.imag, out=a_pts[:, 1])
        del ph
        # (Im, Re) of C_l: -u_l/2 plus conj(a_q) summed over the points q of l
        # passed so far, and sums[j, l] = Im(sum_{p in j} a_p * C_l(x_p)) = J_jl,
        # both as (lead, N, nb) views, frequency-major in memory above the limit
        shape = (n, nb) if rows_major else (nb, n)
        left = left_buf[: 2 * n * nb].reshape(2, *shape)
        sums = sums_buf[: n * n * nb].reshape(n, *shape)
        # (Re, Im) of the drives in left's memory order: rows along the
        # frequencies up to the limit, one contiguous (N x 2) matrix per
        # frequency above it, from which Gamma's products read too
        uf = u.view(float).reshape(n, nb, 2)
        if not rows_major:
            uf = np.ascontiguousarray(uf.transpose(1, 0, 2))
        np.multiply(uf[..., 1], -0.5, out=left[0])
        np.multiply(uf[..., 0], -0.5, out=left[1])
        if not rows_major:
            left, sums = left.transpose(0, 2, 1), sums.transpose(0, 2, 1)
        sums.fill(0.0)
        for a_p, j in zip(a_pts, pts.owner[order]):
            sums[j] += np.einsum("kf,klf->lf", a_p, left)
            left[0, j] -= a_p[1]
            left[1, j] += a_p[0]

        def fill(ss):
            # -J, Gamma and the detuning at the block's frequencies ss, each
            # ufunc call in a's memory order
            a = _f_minus_h(fh, n, ss.stop - ss.start)
            np.negative(sums[..., ss].transpose(2, 0, 1), out=a.transpose(2, 0, 1).real)
            if rows_major:
                re, im = u.real[:, ss], u.imag[:, ss]
                np.multiply(re[:, None], re, out=a.imag)
                a.imag += im[:, None] * im
            else:
                np.matmul(uf[ss], uf[ss].transpose(0, 2, 1), out=a.transpose(2, 0, 1).imag)
            np.einsum("iif->if", a)[...] += (f[sl][ss] - pts.f_res[:, None]) + 1j * pts.beta[:, None]
            return a

        return u, fill

    return resolvent


def _scattering(u, w, gw):
    """S21 and reflection from gw = (f*I - H)^-1 w, all three summed over their first axis."""
    s21 = 1.0 - 1j * np.einsum("j...,j...->...", u, gw)
    refl = -1j * np.einsum("j...,j...->...", w, gw)
    if not (np.isfinite(s21).all() and np.isfinite(refl).all()):
        raise ModelError("singular resolvent on the frequency grid")
    return s21, refl


def _fixed_resolvent(hrel, f, f_res, drives, sub):
    """resolvent(sl) for _solve with a frequency-independent hrel = H - diag(f_res).

    drives(sl) gives the drives at the grid rows sl, (N, 1) or (N, nb).
    """
    n = f_res.size
    buf = np.empty(n * n * sub, dtype=complex)

    def resolvent(sl):
        def fill(ss):
            a = _f_minus_h(buf, n, ss.stop - ss.start)
            a[...] = -hrel[:, :, None]
            np.einsum("iif->if", a)[...] += f[sl][ss] - f_res[:, None]
            return a

        return np.broadcast_to(drives(sl), (n, sl.stop - sl.start)), fill

    return resolvent


def _f_minus_h(buf, n, nb):
    """f - H for nb frequencies in buf as (N, N, nb): each entry one
    contiguous row up to _MAX_ELIMINATION_N, as _eliminate reads it, and
    frequency-major above, the layout LAPACK takes."""
    if n <= _MAX_ELIMINATION_N:
        return buf[: n * n * nb].reshape(n, n, nb)
    return buf[: n * n * nb].reshape(nb, n, n).transpose(1, 2, 0)


def _block_rows(nf, n, points=0):
    """Frequencies per block and per sub-block of f - H, so that the bytes
    per frequency a block counts fill at most _BLOCK_BYTES (see there): the
    rows of the drives and of the `points` coupling points, 32*(N + points),
    which also cover the (N,) rows of the pole residues, and the prefix
    sums, 8*N^2; up to _MAX_ELIMINATION_N also f - H and Gamma's temporary,
    24*N^2, and a sub-block is the block. Above it a block counts no fewer
    than 16*N^2 bytes, which keeps the prefix-sum loop, whose block size
    sets its speed, where it was measured, and a sub-block of f - H fills a
    quarter of the budget. s_matrix calls it once per evaluation, for every
    block."""
    per_frequency = 8 * n * n + 32 * (n + points)
    if n <= _MAX_ELIMINATION_N:
        per_frequency += 24 * n * n
    step = min(nf, max(1, _BLOCK_BYTES // max(per_frequency, 16 * n * n)))
    return step, step if n <= _MAX_ELIMINATION_N else min(step, max(1, _BLOCK_BYTES // (64 * n * n)))


def _eliminate(a, w):
    """a^-1 w for a block a (N, N, nb) and w (N, nb), by Gaussian elimination
    with partial pivoting vectorized along the frequency axis; returns (N, nb).

    Each entry a[i, j] is one (nb,) row, which the elimination overwrites in
    place; w stays as it is. Every step is a ufunc call on same-length 1-D
    arrays: frequency f's arithmetic depends on f alone, whatever the
    blocking, and no BLAS kernel is involved. The pivot of each column is
    its entry of largest modulus at each frequency; rows swap only at the
    frequencies that need it. A zero or overflowing pivot leaves non-finite
    values, which _scattering rejects.
    """
    n = w.shape[0]
    rows = [[*a[i], w[i].copy()] for i in range(n)]  # row i: entries (i, 0..N-1), then w_i
    with np.errstate(all="ignore"):
        for k in range(n - 1):
            rk = rows[k]
            best = np.abs(rk[k])
            for ri in rows[k + 1 :]:
                mag = np.abs(ri[k])
                take = mag > best
                if take.any():
                    for j in range(k, n + 1):
                        rk[j], ri[j] = np.where(take, ri[j], rk[j]), np.where(take, rk[j], ri[j])
                    best = np.maximum(best, mag)
            for ri in rows[k + 1 :]:
                m = ri[k] / rk[k]
                for j in range(k + 1, n + 1):
                    ri[j] -= m * rk[j]
        x = [None] * n
        for i in reversed(range(n)):
            s = rows[i][n]
            for j in range(i + 1, n):
                s -= rows[i][j] * x[j]
            x[i] = s / rows[i][i]
    return np.stack(x)


def _blocks(nf, step, scatter):
    """S21 and reflection on nf frequencies from scatter(sl), the pair on the
    grid rows sl, called block by block of step; one block is returned as is."""
    if step >= nf:
        return scatter(slice(0, nf))
    s21, refl = np.empty(nf, dtype=complex), np.empty(nf, dtype=complex)
    for start in range(0, nf, step):
        sl = slice(start, min(start + step, nf))
        s21[sl], refl[sl] = scatter(sl)
    return s21, refl


def _solve(resolvent, nf, step, sub):
    """Scattering on nf frequencies by batched solves, in blocks of step.

    resolvent(sl) returns the drives u at the frequencies sl of the grid,
    (N, nb), and fill(ss), which writes f*I - H at the frequencies ss of
    that block, at most sub of them, and returns it (_f_minus_h);
    w = conj(u). Each block is solved and scattered before the next: by
    _eliminate up to _MAX_ELIMINATION_N emitters, where a sub-block is the
    whole block, and by LAPACK above, sub-block by sub-block. LAPACK solves
    each matrix on its own, so the sub-blocks leave every bit as one call
    on the block would.
    """
    def scatter(sl):
        nb = sl.stop - sl.start
        u, fill = resolvent(sl)
        w = np.conj(u)
        n = u.shape[0]
        if n <= _MAX_ELIMINATION_N:
            return _scattering(u, w, _eliminate(fill(slice(0, nb)), w))
        gw = np.empty((nb, n), dtype=complex)
        for start in range(0, nb, sub):
            ss = slice(start, min(start + sub, nb))
            try:
                gw[ss] = np.linalg.solve(fill(ss).transpose(2, 0, 1), w[:, ss].T[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise ModelError("singular resolvent on the frequency grid") from exc
        return _scattering(u, w, gw.T)

    return _blocks(nf, step, scatter)


def _pole_residues(hrel, detuning, z, drives, step):
    """Scattering from the eigenexpansion of H - f0 = hrel + diag(detuning).

    z = f - f0 on the grid, detuning = f_res - f0 and drives(sl) the drives
    u at the grid rows sl, (N, 1) or (N, nb). With the unit eigenvectors as
    the columns of R, (f - H)^-1 w = R q with q = R^T w / den,
    den_k = (z - lambda_k) * r_k^T r_k. The eigendecomposition is accurate
    relative to the norm of H, which the spread of the resonances
    dominates; one step of iterative refinement in exact detuning
    coordinates (z - detuning is f - f_res to the last bit) adds
    t = R^T (w - (z - detuning)*(R q) + hrel R q) / den, which brings the
    error down to the solve's. S21 = 1 - i (R^T u).(q + t) and the
    reflection is -i (R^T w).(q + t). The eig and the pairing check run
    once; the expansion runs in blocks of step frequencies, each array of
    it N rows along the block. Returns the minimum |r_k^T r_k| and the
    scattering, or None in its place when the expansion is not accurate
    (see _MIN_PAIRING). A pole on the grid leaves non-finite values under
    the caller's np.errstate, which _scattering rejects.
    """
    n = detuning.size
    h = hrel.copy()
    h.reshape(-1)[:: n + 1] += detuning
    lam, r = np.linalg.eig(h)
    gram = r.T @ r
    pairing = gram.diagonal().copy()
    gram.reshape(-1)[:: n + 1] = 0.0
    min_pairing = float(np.abs(pairing).min())
    if min_pairing < _MIN_PAIRING or np.abs(gram).max() > _MAX_CROSS_PAIRING:
        return min_pairing, None

    def scatter(sl):
        u = drives(sl)
        den = z[sl] - lam[:, None]
        den *= pairing[:, None]
        rw = r.T @ np.conj(u)
        gw = r @ (rw / den)
        res = hrel @ gw
        gw *= z[sl] - detuning[:, None]
        res -= gw
        del gw
        res += np.conj(u)  # the residual w - (f - H) R q
        qt = r.T @ res  # q + t = R^T (w + residual) / den
        del res
        qt += rw
        qt /= den
        return _scattering(r.T @ u, rw, qt)

    return min_pairing, _blocks(z.size, step, scatter)


def s_matrix(t, waveguide, grid, convention="resonance"):
    """Transmission and reflection of a topology on a frequency grid.

    convention:
      'resonance'  drive phases at each emitter's resonance, model built
                   once at the reference frequencies (reduces exactly to
                   the single-GSE closed form for one emitter);
      'probe'      every phase at the probe frequency, model rebuilt per
                   grid point (unitary when all beta vanish);
      'mixed'      probe-frequency drive phases over the resonance-built
                   model with the printed diagonal shift sign (reduces
                   exactly to the nested matrix transmission).

    Only 'probe' is passive with intrinsic loss (|S21|^2 + |S11|^2 <= 1).
    'resonance' and 'mixed' take the dissipative rates at the mean
    resonance but the drives at each emitter's resonance or at the probe
    frequency, so the in/out coupling no longer matches the decay and
    lossy layouts can exceed 1 (up to 1.65 under 'resonance' and 1.87
    under 'mixed' on random interleaved layouts of 32 emitters). When
    |S21|^2 + |S11|^2 exceeds 1 + 1e-10 anywhere on the grid, they emit
    one PassivityWarning. 'probe' and 'mixed' are reciprocal: the layout
    mirrored along the guide (x -> L - x) has the same S21. 'resonance'
    breaks that above one emitter, as each drive takes the phase at its own
    emitter's resonance.

    A resolvent that is singular somewhere on the grid raises ModelError.
    The result records whether the pole-residue expansion or the batched
    solve produced it.
    """
    if convention not in ("resonance", "probe", "mixed"):
        raise ModelError(f"unknown convention {convention!r}")
    pts = _Points.of(t)
    v = waveguide.speed
    f = grid.frequencies
    n = pts.f_res.size
    path, min_pairing = "solve", None
    # one errstate for the whole evaluation: every non-finite value it lets
    # through ends in one of the ModelError checks
    with np.errstate(all="ignore"):
        if convention == "resonance":
            hrel, u = _assemble(pts, v, 1), pts.drives(v).reshape(-1, 1)
            drives = lambda sl: u
        else:
            # one phase common to every drive cancels from S21 and enters the
            # reflection twice: drives taken from the first point keep the
            # phases between points exact however far the layout sits from 0,
            # where 2*pi*f*x/v rounds to 1e-11 rad at 50 m
            x0 = pts.x.min()
            refl_phase = _finite_phase(2 * (TWO_PI * (f * x0) / v))
            factors = _phase_factors(grid, pts.x - x0, np.sqrt(pts.kappa), v)
            if convention == "mixed":
                hrel = _assemble(pts, v, -1)
                drives = lambda sl: _grid_drives(pts, *factors, sl.start, sl.stop)
        # only once the model is formed: a run that cannot form it fails with one message
        _check_markov(pts, v)

        step, sub = _block_rows(f.size, n, pts.x.size)
        if convention == "probe":
            s21, refl = _solve(_probe_resolvent(pts, f, factors, step, sub), f.size, step, sub)
        else:
            # detuning coordinates: f - f0 and f_res - f0 are exact, so nothing
            # rounds against the GHz scale
            f0 = pts.f_res.mean()
            min_pairing, result = _pole_residues(hrel, pts.f_res - f0, f - f0, drives, step)
            if result is None:
                result = _solve(_fixed_resolvent(hrel, f, pts.f_res, drives, sub), f.size, step, sub)
            else:
                path = "pole-residues"
            s21, refl = result
        if convention != "resonance":
            refl = refl * np.exp(1j * refl_phase)
        gain = convention != "probe" and (np.abs(s21) ** 2 + np.abs(refl) ** 2).max() > 1.0 + _PASSIVITY_TOL
    if gain:
        # a constant message, so the warnings registry reports it once per call site
        warnings.warn(
            "|S21|^2 + |S11|^2 exceeds 1 on the grid: this convention takes the "
            "decay rates and the drives at different frequencies, so the "
            "lossy model is not passive; use convention='probe'",
            PassivityWarning,
            stacklevel=2,
        )
    return SMatrixResult(Spectrum(grid, s21), refl, path, min_pairing)
