"""Per-pair and per-emitter sums of the N-emitter model, one term at a time.

The reference that `gsesim.multipoint`'s flattened engine is tested against.
"""

import numpy as np

from gsesim.core import TWO_PI


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
