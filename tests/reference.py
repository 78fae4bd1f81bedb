"""Reference implementations that the library is tested against.

`pair_sums` and `drive_vector` are the per-pair and per-emitter sums of the
N-emitter model, one term at a time: the reference for
`gsesim.multipoint`'s flattened engine. `_write_table` is the row-by-row CSV
writer that `gsesim.io._write_table` must match byte for byte.
"""

import itertools

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


def _column_text(column):
    # repr of a Python float is the shortest string that round-trips the
    # double; a scalar column repeats one value down the block
    values = np.asarray(column, dtype=float)
    if values.ndim == 0:
        return itertools.repeat(repr(float(values)))
    return map(repr, values.tolist())


def _write_table(path, header, blocks):
    """Write a CSV table block by block; each block is a sequence of columns.

    Lines end with CRLF, as csv.writer's default dialect does. Only one
    block is formatted at a time, so a map is never held as text in full.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            rows = zip(*(_column_text(c) for c in columns))
            fh.write("".join(",".join(row) + "\r\n" for row in rows))
