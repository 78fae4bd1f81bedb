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

`pair_sums` and `drive_vector` evaluate these sums for one pair or one
emitter and are the reference the engine is tested against. The engine
itself works on all P coupling points at once, flattened in emitter order
with an owner index:

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
  buffer holding f - H for one block of frequencies, which one batched
  call solves before the next block is assembled. A block holds as many
  frequencies as fit in _BLOCK_BYTES, so these buffers do not grow with
  the grid; every frequency's arithmetic is independent of the blocking.
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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import ModelError, Spectrum

TWO_PI = 2.0 * math.pi

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


class MarkovWarning(UserWarning):
    """Propagation delay is not negligible against the linewidths."""


def pair_sums(pos_j, kap_j, pos_l, kap_l, f, speed):
    """Pairwise coupling sums (J_jl, Gamma_jl) at frequencies f.

    Vectorized over f; returns arrays shaped like f (scalars for scalar f).
    """
    dx = np.abs(np.subtract.outer(np.asarray(pos_j), np.asarray(pos_l)))
    root = np.sqrt(np.outer(kap_j, kap_l))
    phi = TWO_PI * np.multiply.outer(np.asarray(f, dtype=float), dx) / speed
    j = 0.5 * np.sum(root * np.sin(phi), axis=(-2, -1))
    gamma = np.sum(root * np.cos(phi), axis=(-2, -1))
    return j, gamma


def drive_vector(emitter, f, speed):
    """Port-1 drive amplitude sum_p sqrt(kappa_p)*exp(-i*2*pi*f*x_p/v).

    Vectorized over f. The port-2 in-coupling amplitude is its conjugate.
    """
    theta = TWO_PI * np.multiply.outer(np.asarray(f, dtype=float), np.asarray(emitter.positions)) / speed
    return np.sum(np.sqrt(emitter.kappa_points) * np.exp(-1j * theta), axis=-1)


@dataclass(frozen=True)
class EffectiveModel:
    """Frequency-resolved effective non-Hermitian model of a topology.

    diag:     complex self-energies f_j + shift_j - i*(rad_j + beta_j), Hz
    coupling: symmetric matrix J_jl - i*Gamma_jl with zero diagonal, Hz
    drive:    complex port-1 drive amplitude per emitter
    """

    n: int
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

    def drives(self, f, speed, origin=0.0):
        """drive_vector of every emitter; f is per point (P,) or a column (nf, 1).

        Positions are taken from origin, which multiplies every amplitude
        by exp(i*2*pi*f*origin/v).
        """
        theta = TWO_PI * (f * (self.x - origin)) / speed
        return self.emitter_sums(np.sqrt(self.kappa) * np.exp(-1j * theta))


def _assemble(pts, speed, lamb_sign, at_f):
    """H - diag(f_res) at the reference frequencies, and the drive there.

    Diagonal blocks are evaluated at f_res_j, off-diagonal blocks at the
    pair's mean resonance, or every block at at_f when given.
    """
    f_pt = pts.f_res[pts.owner] if at_f is None else np.full(pts.x.size, float(at_f))
    f_ref = 0.5 * (f_pt[:, None] + f_pt[None, :])
    phi = TWO_PI * (f_ref * np.abs(pts.x[:, None] - pts.x[None, :])) / speed
    root = np.sqrt(np.outer(pts.kappa, pts.kappa))

    def block_sums(s):
        # blocks (j, l) and (l, j) of the symmetric s differ only in summation
        # order; averaging them makes H exactly complex symmetric, which the
        # pole-residue expansion relies on
        b = pts.emitter_sums(pts.emitter_sums(s, axis=0), axis=1)
        return 0.5 * (b + b.T)

    j = 0.5 * block_sums(root * np.sin(phi))
    gamma = block_sums(root * np.cos(phi))
    j[np.diag_indices_from(j)] *= lamb_sign
    hrel = j - 1j * (gamma + np.diag(pts.beta))
    return hrel, pts.drives(f_pt, speed)


def build_effective(t, waveguide, lamb_sign=1, at_f=None):
    """Effective model of a topology.

    With at_f=None the diagonal of emitter j is evaluated at f_res_j and
    the (j, l) coupling at (f_res_j + f_res_l)/2; passing at_f evaluates
    every phase at that single frequency. lamb_sign=-1 flips the diagonal
    Lamb shift to the sign printed in the nested matrix transmission.
    """
    _check_markov(t, waveguide)
    pts = _Points.of(t)
    hrel, drive = _assemble(pts, waveguide.speed, lamb_sign, at_f)
    coupling = hrel.copy()
    np.fill_diagonal(coupling, 0.0)
    return EffectiveModel(len(pts.f_res), pts.f_res + np.diagonal(hrel), coupling, drive)


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


def _probe_resolvent(pts, f, speed, u):
    """f*I - H at the probe frequencies f, shape (nf, N, N).

    The couplings J come from the prefix-sum identity of the module
    docstring; the dissipative sums factor through the drive amplitudes,
    Gamma_jl = Re(u_j * conj(u_l)). Rebuilding them from the very
    exponentials used in the drive keeps the anti-Hermitian part exactly
    consistent with the in/out coupling, so lossless topologies scatter
    unitarily to machine precision even near decoupling points where the
    resolvent amplifies rounding.
    """
    n = pts.f_res.size
    order = np.argsort(pts.x)
    k = TWO_PI * f / speed
    # a_p at every frequency as (re, im) rows, points in order along the guide
    a_pts = np.sqrt(pts.kappa[order, None]) * np.exp(1j * np.multiply.outer(pts.x[order] - pts.x[order[0]], k))
    a_pts = np.stack([a_pts.real, a_pts.imag], axis=1)
    # (Im, Re) of C_l: conj(a_q) summed over the points q of l passed so far
    left = np.zeros((2, f.size, n))
    sums = np.zeros((n, f.size, n))  # sums[j, :, l] = Im(sum_{p in j} a_p * C_l(x_p))
    for a_p, j in zip(a_pts, pts.owner[order]):
        sums[j] += np.einsum("kf,kfl->fl", a_p, left)
        left[0, :, j] -= a_p[1]
        left[1, :, j] += a_p[0]

    a = np.empty((f.size, n, n), dtype=complex)
    np.add(sums.transpose(1, 0, 2), sums.transpose(1, 2, 0), out=a.real)
    a.real *= -0.5
    ur, ui = u.real, u.imag
    np.multiply(ur[:, :, None], ur[:, None, :], out=a.imag)
    a.imag += ui[:, :, None] * ui[:, None, :]
    np.einsum("fii->fi", a)[...] += (f[:, None] - pts.f_res) + 1j * pts.beta
    return a


def _scattering(u, w, gw):
    """S21 and reflection from gw = (f*I - H)^-1 w at every frequency."""
    s21 = 1.0 - 1j * np.einsum("...j,...j->...", u, gw)
    refl = -1j * np.einsum("...j,...j->...", w, gw)
    if not (np.all(np.isfinite(s21)) and np.all(np.isfinite(refl))):
        raise ModelError("singular resolvent on the frequency grid")
    return s21, refl


def _shifted(hrel, detuning):
    """f*I - H for a frequency-independent hrel = H - diag(f_res).

    detuning = f - f_res, shape (nf, N); returns shape (nf, N, N).
    """
    a = np.empty(detuning.shape[:1] + hrel.shape, dtype=complex)
    a[:] = -hrel
    np.einsum("fii->fi", a)[...] += detuning
    return a


def _solve(resolvent, nf, u, w):
    """Scattering on nf frequencies by batched solves, one block at a time.

    resolvent(sl) returns f*I - H at the frequencies sl of the grid; w is
    (N,) or (nf, N). Each block is solved before the next is assembled.
    """
    n = w.shape[-1]
    step = max(1, _BLOCK_BYTES // (16 * n * n))
    gw = np.empty((nf, n), dtype=complex)
    for start in range(0, nf, step):
        sl = slice(start, start + step)
        rhs = np.broadcast_to(w, (nf, n))[sl, :, None]
        try:
            # no name holds the block, so it is freed before the next one
            gw[sl] = np.linalg.solve(resolvent(sl), rhs)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise ModelError("singular resolvent on the frequency grid") from exc
    return _scattering(u, w, gw)


def _pole_residues(hrel, detuning, z, u, w):
    """Scattering from the eigenexpansion of H - f0 = hrel + diag(detuning).

    z = f - f0 on the grid and detuning = f_res - f0. Returns the minimum
    |r_k^T r_k| and the scattering, or None in its place when the expansion
    is not accurate (see _MIN_PAIRING); raises ModelError when a grid point
    sits exactly on a pole.
    """
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
    under 'mixed' on random interleaved layouts of 32 emitters). Nothing
    warns when that happens.

    A resolvent that is singular somewhere on the grid raises ModelError.
    The result records whether the pole-residue expansion or the batched
    solve produced it.
    """
    if convention not in ("resonance", "probe", "mixed"):
        raise ModelError(f"unknown convention {convention!r}")
    _check_markov(t, waveguide)
    pts = _Points.of(t)
    v = waveguide.speed
    f = grid.frequencies

    if convention == "resonance":
        hrel, u = _assemble(pts, v, 1, None)
    else:
        # one phase common to every drive cancels from S21 and enters the
        # reflection twice: drives taken from the first point keep the
        # phases between points exact however far the layout sits from 0,
        # where 2*pi*f*x/v rounds to 1e-11 rad at 50 m
        x0 = pts.x.min()
        u = pts.drives(f[:, None], v, x0)
    w = np.conj(u)

    path, min_pairing = "solve", None
    if convention == "probe":
        s21, refl = _solve(lambda sl: _probe_resolvent(pts, f[sl], v, u[sl]), f.size, u, w)
    else:
        if convention == "mixed":
            hrel, _ = _assemble(pts, v, -1, None)
        # detuning coordinates: f - f0 and f_res - f0 are exact, so nothing
        # rounds against the GHz scale
        f0 = pts.f_res.mean()
        min_pairing, result = _pole_residues(hrel, pts.f_res - f0, f - f0, u, w)
        if result is None:
            result = _solve(lambda sl: _shifted(hrel, f[sl, None] - pts.f_res), f.size, u, w)
        else:
            path = "pole-residues"
        s21, refl = result
    if convention != "resonance":
        refl = refl * np.exp(2j * (TWO_PI * (f * x0) / v))
    return SMatrixResult(Spectrum(grid, s21), refl, path, min_pairing)
