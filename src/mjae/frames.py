"""Node-wise SE(3)-equivariant orthonormal frames.

Each atom gets a right-handed orthonormal basis built from its position and
the center of mass of its neighborhood:

    e1 = (x_i - xbar_i) / ||.||
    e2 = (xbar_i x x_i) / ||.||
    e3 = e1 x e2

Cross products make the frame rotation equivariant and reflection
anti-equivariant. A frame is a (3, 3) array whose rows are e1, e2, e3; the 3D
score head lifts invariant scalar triples to equivariant vectors with it.
"""

from __future__ import annotations

import numpy as np

DEGENERACY_EPS = 1e-8
DEFAULT_CUTOFF = 5.0

_CANONICAL = np.eye(3)


def _cross_rows(a, b):
    """``np.cross`` of the rows of two (..., 3) arrays, from the same products
    and differences, without its axis moves."""
    out = np.empty_like(a)
    for k, (p, q) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(a[..., p], b[..., q], out=out[..., k])
        out[..., k] -= a[..., q] * b[..., p]
    return out


def molecule_frames(positions):
    """Per-atom frames as an (n, 3, 3) array, rows e1, e2, e3 of each atom's
    basis; the neighborhood is all other atoms within ``DEFAULT_CUTOFF``
    (falling back to all other atoms when the cutoff ball is empty). A stack
    (k, n, 3) of k molecules of n atoms gives their frames, (k, n, 3, 3),
    each bit for bit the frames of that molecule alone.

    The neighborhood center is distance weighted (exp(-d)). An unweighted
    mean over "all other atoms" of a zero-CoM cloud is exactly proportional
    to the atom position, which makes the cross-product axis vanish for every
    atom of any molecule smaller than the cutoff; the smooth weighting keeps
    the construction equivariant while breaking that proportionality.

    An atom whose axis e1 or e2 vanishes (it sits at its neighborhood
    center, or is collinear with it through the origin) deterministically
    gets the canonical axes. The weights of a row are scaled by exp(d_min)
    of that row's nearest neighbor, which leaves the center unchanged but
    keeps the largest weight at 1, so spread-out positions cannot underflow
    every weight to 0.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[-2]
    if n == 1:
        return np.broadcast_to(_CANONICAL, positions.shape[:-1] + (3, 3)).copy()
    dists = np.linalg.norm(positions[..., :, None, :] - positions[..., None, :, :], axis=-1)
    off_diagonal = ~np.eye(n, dtype=bool)
    mask = (dists <= DEFAULT_CUTOFF) & off_diagonal
    mask |= ~mask.any(axis=-1, keepdims=True) & off_diagonal  # an empty ball: all others
    d_min = np.where(mask, dists, np.inf).min(axis=-1, keepdims=True)
    weights = np.exp(d_min - dists, out=np.zeros_like(dists), where=mask)
    center = (weights @ positions) / weights.sum(axis=-1, keepdims=True)

    e1 = positions - center
    e2 = _cross_rows(center, positions)
    norm1 = np.linalg.norm(e1, axis=-1, keepdims=True)
    norm2 = np.linalg.norm(e2, axis=-1, keepdims=True)
    # canonical axes when either axis vanishes (a NaN norm is not
    # degenerate, so non-finite input stays non-finite)
    usable = ~((norm1 < DEGENERACY_EPS) | (norm2 < DEGENERACY_EPS))
    e1 = np.divide(e1, norm1, out=np.zeros_like(e1), where=usable)
    e2 = np.divide(e2, norm2, out=np.zeros_like(e2), where=usable)
    basis = np.stack([e1, e2, _cross_rows(e1, e2)], axis=-2)
    basis[~usable[..., 0]] = _CANONICAL
    return basis
