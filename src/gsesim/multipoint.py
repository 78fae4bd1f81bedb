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
  sum along the guide) and A_j the sum of a_p over j. The last term is
  antisymmetric in (j, l) while J is symmetric, so J is the symmetric part
  of the first. One pass along the guide accumulates it, vectorized over
  frequency and emitters: O(P*N) per frequency instead of O(P^2) of
  trigonometry. -J, Gamma + beta and the detuning go straight into a
  buffer holding f - H for one block of frequencies (Gamma a few
  frequencies at a time), which one batched call solves and turns into S21
  and reflection before the next block is assembled. A block holds as many
  frequencies as fit in _BLOCK_BYTES, so no buffer grows with the grid,
  and no frequency's arithmetic depends on the blocking. The f - H and
  prefix-sum buffers are allocated once per call and refilled block by
  block, so their pages fault in once per call, not once per block: the
  allocator unmaps arrays this large when they are freed.
- Under 'probe' and 'mixed' the drives, and under 'probe' the a_p, need
  exp(-i*2*pi*f_m*d/v) on every grid frequency f_m = f_0 + m*df. With
  b = isqrt(nf) and m = a*b + c this is a coarse factor at f_0 + a*b*df
  times a fine one at c*df: about 2*sqrt(nf) exponentials per distance
  instead of nf, formed once per call, and one complex product per entry,
  as accurate as one exponential per entry. Under 'probe' each block of
  frequencies forms its own rows of that table, scales them by
  sqrt(kappa_p) and sums each emitter's columns for its drives
  u_j = sum_{p in j} sqrt(kappa_p)*exp(-i*k*d_p); the a_p are the
  conjugates of the same entries, so Gamma and the drives share every
  exponential. The sums run along each row, so row m depends on m alone
  and no frequency's drives depend on the blocking; no array spans the
  grid and the points or emitters. 'mixed' needs the drives on the whole
  grid for its pole residues and never forms the nf x P table:
  u[a*b + c, j] = sum_{p in j} (sqrt(kappa_p)*coarse[a, p]) * fine[c, p]
  is one (n_a x M) by (M x b) matrix product per emitter, batched over the
  emitters with the same number M of points.
- A frequency-independent H is complex symmetric, so its eigenvectors r_k
  satisfy r_k^T r_l = 0 for k != l and
  (f - H)^-1 = sum_k r_k r_k^T / ((f - lambda_k) * r_k^T r_k).
  `s_matrix` diagonalizes H - f0 (f0 the mean resonance, which keeps
  detuning coordinates) once and sums the pole residues: O(N^3 + nf*N^2)
  instead of O(nf*N^3), plus one step of iterative refinement that keeps
  the error at the level of the solve. Near an exceptional point
  r_k^T r_k -> 0 and the residues lose their accuracy; there, and whenever
  the eigenvectors are not mutually orthogonal in this sense (a
  degenerate eigenvalue), it falls back to the batched solve, in the same
  blocks of frequencies.
- The batched solve of 'probe' and of that fallback is an elimination along
  the frequency axis up to _MAX_ELIMINATION_N emitters: LAPACK pays a fixed
  cost per small matrix, and its bits follow the OpenBLAS kernel. Larger N
  go to np.linalg.solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import ModelError, Spectrum, TWO_PI, _finite_phase

# The pole-residue expansion is used only when every eigenvector r_k of H
# (unit 2-norm) has |r_k^T r_k| >= _MIN_PAIRING and the bilinear Gram
# matrix R^T R is diagonal to within _MAX_CROSS_PAIRING. Near an
# exceptional point r_k^T r_k -> 0 and the eigenvectors are too
# ill-conditioned for the expansion; in a degenerate eigenspace eig returns
# a basis that is not orthogonal under r^T r, and the expansion is wrong.
_MIN_PAIRING = 1e-2
_MAX_CROSS_PAIRING = 1e-10

# Bytes of f - H held at once by the batched solve: a block holds
# max(1, _BLOCK_BYTES // (16 * N^2)) frequencies. The probe assembly's own
# temporaries per block are a fraction of this.
_BLOCK_BYTES = 4 << 20

# _solve eliminates along the frequency axis up to this many emitters and
# calls LAPACK above it. Per matrix at 2001 frequencies, with rows swapped
# at about half of them, the elimination is 1.6x (N = 4) to 15x (N = 1)
# faster, level to 1.5x faster at N = 5, and up to 1.8x slower at N = 8.
_MAX_ELIMINATION_N = 4

# 'resonance' and 'mixed' emit PassivityWarning when |S21|^2 + |S11|^2
# exceeds 1 + _PASSIVITY_TOL anywhere on the grid: rounding alone stays
# below it, lossless 'probe' layouts meet 1 to about 1e-12
_PASSIVITY_TOL = 1e-10


class MarkovWarning(UserWarning):
    """Propagation delay is not negligible against the linewidths."""


class PassivityWarning(UserWarning):
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


def _check_markov(t, waveguide):
    positions = [x for em in t.emitters for x in em.positions]
    span = max(positions) - min(positions)
    linewidths = [
        sum(em.kappa_points) * 2.0 + em.beta for em in t.emitters
    ]
    if span / waveguide.speed * max(linewidths) > 0.1:
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
            np.array([em.f_res for em in ems]),
            np.array([em.beta for em in ems]),
        )

    def emitter_sums(self, a, axis=-1):
        """Sum per-point values over each emitter's points (contraction with E)."""
        return np.add.reduceat(a, self.starts, axis=axis)

    def drives(self, speed):
        """Port-1 drive sum_p sqrt(kappa_p)*exp(-i*2*pi*f_res*x_p/v) of every
        emitter, each at its own resonance (N,)."""
        with np.errstate(over="ignore", invalid="ignore"):
            theta = _finite_phase(TWO_PI * (self.f_res[self.owner] * self.x) / speed)
        return self.emitter_sums(np.sqrt(self.kappa) * np.exp(-1j * theta))


def _phase_factors(grid, d, speed):
    """Coarse and fine factors of exp(-i*2*pi*f_m*d/v) on a uniform grid.

    Row m = a*b + c of the grid, b = isqrt(nf), is coarse[a] * fine[c]:
    coarse holds ceil(nf/b) rows at f_0 + (a*b)*df, formed as np.linspace
    forms the grid, and fine b rows at c*df; both have d.size columns.
    """
    nf = grid.n_points
    b = math.isqrt(nf)
    df = (grid.f_stop - grid.f_start) / (nf - 1)
    a = np.arange(-(-nf // b))
    with np.errstate(over="ignore", invalid="ignore"):
        coarse = _finite_phase(TWO_PI * (((a * b) * df + grid.f_start)[:, None] * d) / speed)
        fine = _finite_phase(TWO_PI * ((np.arange(b) * df)[:, None] * d) / speed)
    return np.exp(-1j * coarse), np.exp(-1j * fine)


def _phasors(coarse, fine, start, stop):
    """Grid rows start:stop of exp(-i*2*pi*f_m*d/v) from its factors, shape
    (stop - start, d.size)."""
    b = fine.shape[0]
    first = start // b
    table = (coarse[first : (stop - 1) // b + 1, None] * fine).reshape(-1, fine.shape[1])
    return table[start - first * b : stop - first * b]


def _grid_drives(pts, coarse, fine, nf):
    """Drives u[m, j] = sum_{p in j} sqrt(kappa_p)*exp(-i*2*pi*f_m*d_p/v) on the grid (nf, N),
    for the pole residues under 'mixed'.

    With the factors of _phase_factors, u[a*b + c, j] is the (a, c) entry of
    the product of (sqrt(kappa_p)*coarse[a, p]) and fine[c, p] over j's
    points: one batched matmul per point count, no nf x P table.
    """
    sizes = np.diff(pts.starts, append=pts.x.size)
    scaled = (coarse * np.sqrt(pts.kappa)).T
    fine = fine.T
    u = np.empty((nf, sizes.size), dtype=complex)
    for m in set(sizes.tolist()):  # np.unique would import numpy.ma, 1.6 MB of RSS
        js = np.flatnonzero(sizes == m)
        idx = pts.starts[js, None] + np.arange(m)  # points of each emitter with m of them
        prod = np.matmul(scaled[idx].transpose(0, 2, 1), fine[idx])
        # a slice scatters three times faster than an index array
        cols = js if js.size < sizes.size else slice(None)
        u[:, cols] = prod.reshape(js.size, -1)[:, :nf].T
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
    with np.errstate(over="ignore", invalid="ignore"):
        f_ref = 0.5 * (f_pt[:, None] + f_pt[None, :])
        phi = _finite_phase(TWO_PI * (f_ref * np.abs(pts.x[:, None] - pts.x[None, :])) / speed)
        root = np.sqrt(np.outer(pts.kappa, pts.kappa))
        j = 0.5 * block_sums(root * np.sin(phi))
        gamma = block_sums(root * np.cos(phi))
        j[np.diag_indices_from(j)] *= lamb_sign
        hrel = j - 1j * (gamma + np.diag(pts.beta))
    if not np.all(np.isfinite(hrel)):
        raise ModelError("effective Hamiltonian is not finite: a coupling rate is too large")
    return hrel


def build_effective(t, waveguide):
    """Effective model of a topology, with the single-GSE sign of the Lamb shift.

    The diagonal of emitter j is evaluated at f_res_j and the (j, l)
    coupling at (f_res_j + f_res_l)/2.
    """
    pts = _Points.of(t)
    hrel = _assemble(pts, waveguide.speed, 1)
    coupling = hrel.copy()
    np.fill_diagonal(coupling, 0.0)
    drive = pts.drives(waveguide.speed)
    _check_markov(t, waveguide)
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


def _probe_resolvent(pts, f, factors, step):
    """resolvent(sl, a) for _solve: writes f*I - H at the grid rows sl into a
    and returns the drives u there, shape (sl.stop - sl.start, N).

    Each block forms its rows of sqrt(kappa_p)*exp(-i*k*d_p) once: the sums
    over each emitter's points are its drives, and the conjugates, taken in
    order along the guide, the a_p of the prefix-sum identity of the module
    docstring that gives J. The dissipative sums factor through the drives,
    Gamma_jl = Re(u_j * conj(u_l)). Taking both from the very exponentials
    of the drives keeps the anti-Hermitian part exactly consistent with the
    in/out coupling, so lossless topologies scatter unitarily to machine
    precision even near decoupling points where the resolvent amplifies
    rounding. factors are _phase_factors of the distances from the first
    point, in emitter order. The prefix-sum buffers hold step frequencies
    and are refilled block by block.
    """
    n = pts.f_res.size
    order = np.argsort(pts.x)
    root = np.sqrt(pts.kappa)
    owners = pts.owner[order]
    sums_buf = np.empty(n * step * n)
    left_buf = np.empty(2 * step * n)

    def resolvent(sl, a):
        nb = a.shape[0]
        ph = _phasors(*factors, sl.start, sl.stop)
        ph.real *= root
        ph.imag *= root
        u = pts.emitter_sums(ph, axis=1)
        # a_p = sqrt(kappa_p)*exp(i*k*(x_p - x_0)) as (re, im) rows, points
        # in order along the guide; rebinding ph frees the emitter-order
        # table before a_pts is allocated
        ph = ph[:, order].T
        a_pts = np.empty((order.size, 2, nb))
        a_pts[:, 0] = ph.real
        np.negative(ph.imag, out=a_pts[:, 1])
        del ph
        # (Im, Re) of C_l: conj(a_q) summed over the points q of l passed so far
        left = left_buf[: 2 * nb * n].reshape(2, nb, n)
        sums = sums_buf[: n * nb * n].reshape(n, nb, n)  # sums[j, :, l] = Im(sum_{p in j} a_p * C_l(x_p))
        left.fill(0.0)
        sums.fill(0.0)
        for a_p, j in zip(a_pts, owners):
            sums[j] += np.einsum("kf,kfl->fl", a_p, left)
            left[0, :, j] -= a_p[1]
            left[1, :, j] += a_p[0]

        np.add(sums.transpose(1, 0, 2), sums.transpose(1, 2, 0), out=a.real)
        a.real *= -0.5
        ur, ui = u.real, u.imag
        np.multiply(ur[:, :, None], ur[:, None, :], out=a.imag)
        k = max(1, 32768 // (n * n))  # frequencies per chunk: 256 KiB of temporary, not nb*N*N
        for i in range(0, nb, k):
            a.imag[i : i + k] += ui[i : i + k, :, None] * ui[i : i + k, None, :]
        np.einsum("fii->fi", a)[...] += (f[sl, None] - pts.f_res) + 1j * pts.beta
        return u

    return resolvent


def _scattering(u, w, gw):
    """S21 and reflection from gw = (f*I - H)^-1 w at every frequency."""
    s21 = 1.0 - 1j * np.einsum("...j,...j->...", u, gw)
    refl = -1j * np.einsum("...j,...j->...", w, gw)
    if not (np.all(np.isfinite(s21)) and np.all(np.isfinite(refl))):
        raise ModelError("singular resolvent on the frequency grid")
    return s21, refl


def _fixed_resolvent(hrel, f, f_res, u):
    """resolvent(sl, a) for _solve with a frequency-independent hrel = H - diag(f_res).

    It writes f*I - H at the grid rows sl into a and returns the rows sl of
    the drives u, given as (N,) or on the whole grid (nf, N).
    """
    u = np.broadcast_to(u, (f.size, f_res.size))

    def resolvent(sl, a):
        a[:] = -hrel
        np.einsum("fii->fi", a)[...] += f[sl, None] - f_res
        return u[sl]

    return resolvent


def _block_rows(nf, n):
    """Frequencies per block: f - H of one block fills at most _BLOCK_BYTES."""
    return min(nf, max(1, _BLOCK_BYTES // (16 * n * n)))


def _eliminate(a, w):
    """a^-1 w for a block a (nb, N, N) and w (nb, N), by Gaussian elimination
    with partial pivoting vectorized along the frequency axis.

    Each entry of the system is one contiguous (nb,) copy, so every step is
    a ufunc call on same-length 1-D arrays: frequency f's arithmetic depends
    on f alone, whatever the blocking, and no BLAS kernel is involved. The
    pivot of each column is its entry of largest modulus at each frequency;
    rows swap only at the frequencies that need it. A zero or overflowing
    pivot leaves non-finite values, which _scattering rejects.
    """
    n = w.shape[1]
    at = a.transpose(1, 2, 0).copy()
    rows = [[*at[i], w[:, i].copy()] for i in range(n)]  # row i: entries (i, 0..N-1), then w_i
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
    return np.stack(x, axis=1)


def _solve(resolvent, nf, n):
    """Scattering on nf frequencies by batched solves, one block at a time.

    resolvent(sl, a) writes f*I - H at the frequencies sl of the grid into
    a and returns the drives u there, (sl.stop - sl.start, N); w = conj(u).
    One buffer of at most one block holds f - H, and each block is solved
    and scattered before the next: by _eliminate up to _MAX_ELIMINATION_N
    emitters, by LAPACK above.
    """
    step = _block_rows(nf, n)
    buf = np.empty(step * n * n, dtype=complex)
    s21, refl = np.empty(nf, dtype=complex), np.empty(nf, dtype=complex)
    for start in range(0, nf, step):
        sl = slice(start, min(start + step, nf))
        a = buf[: (sl.stop - start) * n * n].reshape(-1, n, n)
        u = resolvent(sl, a)
        w = np.conj(u)
        if n <= _MAX_ELIMINATION_N:
            gw = _eliminate(a, w)
        else:
            try:
                gw = np.linalg.solve(a, w[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise ModelError("singular resolvent on the frequency grid") from exc
        s21[sl], refl[sl] = _scattering(u, w, gw)
    return s21, refl


def _pole_residues(hrel, detuning, z, u):
    """Scattering from the eigenexpansion of H - f0 = hrel + diag(detuning).

    z = f - f0 on the grid and detuning = f_res - f0. Returns the minimum
    |r_k^T r_k| and the scattering, or None in its place when the expansion
    is not accurate (see _MIN_PAIRING); raises ModelError when a grid point
    sits exactly on a pole.
    """
    w = np.conj(u)
    lam, r = np.linalg.eig(hrel + np.diag(detuning))
    gram = r.T @ r
    pairing = np.diagonal(gram).copy()
    np.fill_diagonal(gram, 0.0)
    min_pairing = float(np.min(np.abs(pairing)))
    if min_pairing < _MIN_PAIRING or np.max(np.abs(gram)) > _MAX_CROSS_PAIRING:
        return min_pairing, None
    den = (z[:, None] - lam) * pairing
    if np.any(den == 0):
        raise ModelError("singular resolvent on the frequency grid")

    def resolve(b):
        return ((b @ r) / den) @ r.T

    gw = resolve(w)
    # The eigendecomposition is accurate relative to the norm of H, which
    # the spread of the resonances dominates. One step of iterative
    # refinement against f - H in exact detuning coordinates (z - detuning
    # is f - f_res to the last bit) brings the error down to the solve's.
    gw += resolve(w - (z[:, None] - detuning) * gw + gw @ hrel)
    return min_pairing, _scattering(u, w, gw)


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
    one PassivityWarning.

    A resolvent that is singular somewhere on the grid raises ModelError.
    The result records whether the pole-residue expansion or the batched
    solve produced it.
    """
    if convention not in ("resonance", "probe", "mixed"):
        raise ModelError(f"unknown convention {convention!r}")
    pts = _Points.of(t)
    v = waveguide.speed
    f = grid.frequencies

    if convention == "resonance":
        hrel, u = _assemble(pts, v, 1), pts.drives(v)
    else:
        # one phase common to every drive cancels from S21 and enters the
        # reflection twice: drives taken from the first point keep the
        # phases between points exact however far the layout sits from 0,
        # where 2*pi*f*x/v rounds to 1e-11 rad at 50 m
        x0 = pts.x.min()
        with np.errstate(over="ignore", invalid="ignore"):
            d = pts.x - x0
            refl_phase = _finite_phase(2 * (TWO_PI * (f * x0) / v))
        factors = _phase_factors(grid, d, v)
        if convention == "mixed":
            hrel, u = _assemble(pts, v, -1), _grid_drives(pts, *factors, f.size)
    # only once the model is formed: a run that cannot form it fails with one message
    _check_markov(t, waveguide)

    n = pts.f_res.size
    path, min_pairing = "solve", None
    if convention == "probe":
        resolvent = _probe_resolvent(pts, f, factors, _block_rows(f.size, n))
        s21, refl = _solve(resolvent, f.size, n)
    else:
        # detuning coordinates: f - f0 and f_res - f0 are exact, so nothing
        # rounds against the GHz scale
        f0 = pts.f_res.mean()
        min_pairing, result = _pole_residues(hrel, pts.f_res - f0, f - f0, u)
        if result is None:
            result = _solve(_fixed_resolvent(hrel, f, pts.f_res, u), f.size, n)
        else:
            path = "pole-residues"
        s21, refl = result
    if convention != "resonance":
        refl = refl * np.exp(1j * refl_phase)
    if convention != "probe" and np.max(np.abs(s21) ** 2 + np.abs(refl) ** 2) > 1.0 + _PASSIVITY_TOL:
        # a constant message, so the warnings registry reports it once per call site
        warnings.warn(
            "|S21|^2 + |S11|^2 exceeds 1 on the grid: this convention takes the "
            "decay rates and the drives at different frequencies, so the "
            "lossy model is not passive; use convention='probe'",
            PassivityWarning,
            stacklevel=2,
        )
    return SMatrixResult(Spectrum(grid, s21), refl, path, min_pairing)
