"""Node-wise SE(3)-equivariant orthonormal frames and tensorization.

Each atom gets a right-handed orthonormal basis built from its position and
the center of mass of its neighborhood:

    e1 = (x_i - xbar_i) / ||.||
    e2 = (xbar_i x x_i) / ||.||
    e3 = e1 x e2

Cross products make the frame rotation equivariant and reflection
anti-equivariant. Invariant scalar triples are lifted to equivariant vectors
by ``tensorize``. A global frame (averaged node frames, re-orthonormalized)
supports the SE(3)-invariant cold 3D perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEGENERACY_EPS = 1e-8
DEFAULT_CUTOFF = 5.0

_CANONICAL = np.eye(3)


@dataclass(frozen=True)
class Frame:
    """Orthonormal basis (e1, e2, e3); rows of ``matrix`` are the axes."""

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray

    @property
    def matrix(self):
        return np.stack([self.e1, self.e2, self.e3])


def _normalize(v):
    norm = np.linalg.norm(v)
    if norm < DEGENERACY_EPS:
        return None
    return v / norm


def local_frame(x_i, neighbors, weights=None):
    """Frame at ``x_i`` from the (optionally weighted) neighbor center.

    Degenerate configurations (x_i at the neighborhood center, or x_i
    collinear with it through the origin) deterministically fall back to the
    canonical axes.
    """
    neighbors = np.asarray(neighbors, dtype=np.float64)
    if neighbors.ndim != 2 or neighbors.shape[0] == 0:
        raise ValueError("local_frame requires at least one neighbor")
    x_i = np.asarray(x_i, dtype=np.float64)
    if weights is None:
        center = neighbors.mean(axis=0)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        center = (weights[:, None] * neighbors).sum(axis=0) / weights.sum()
    e1 = _normalize(x_i - center)
    e2 = _normalize(np.cross(center, x_i))
    if e1 is None or e2 is None:
        return Frame(*_CANONICAL)
    e3 = np.cross(e1, e2)
    return Frame(e1, e2, e3)


def molecule_frames(positions, cutoff=DEFAULT_CUTOFF):
    """Per-atom frames; the neighborhood is all other atoms within ``cutoff``
    (falling back to all other atoms when the cutoff ball is empty).

    The neighborhood center is distance weighted (exp(-d)). An unweighted
    mean over "all other atoms" of a zero-CoM cloud is exactly proportional
    to the atom position, which makes the cross-product axis vanish for every
    atom of any molecule smaller than the cutoff; the smooth weighting keeps
    the construction equivariant while breaking that proportionality.

    Each atom's frame is the one ``local_frame`` builds from its neighbors
    and weights, computed for all atoms at once. The weights of a row are
    scaled by exp(d_min) of that row's nearest neighbor, which leaves the
    center unchanged but keeps the largest weight at 1, so spread-out
    positions cannot underflow every weight to 0.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if n == 1:
        return [Frame(*_CANONICAL)]
    dists = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=-1)
    off_diagonal = ~np.eye(n, dtype=bool)
    mask = (dists <= cutoff) & off_diagonal
    empty = ~mask.any(axis=1)
    mask[empty] = off_diagonal[empty]
    d_min = np.where(mask, dists, np.inf).min(axis=1, keepdims=True)
    weights = np.exp(d_min - dists, out=np.zeros_like(dists), where=mask)
    center = (weights @ positions) / weights.sum(axis=1, keepdims=True)

    e1 = positions - center
    e2 = np.cross(center, positions)
    norm1 = np.linalg.norm(e1, axis=1, keepdims=True)
    norm2 = np.linalg.norm(e2, axis=1, keepdims=True)
    # same fallback as local_frame: canonical axes when either axis vanishes
    # (a NaN norm is not degenerate, so non-finite input stays non-finite)
    usable = ~((norm1 < DEGENERACY_EPS) | (norm2 < DEGENERACY_EPS))
    e1 = np.divide(e1, norm1, out=np.zeros_like(e1), where=usable)
    e2 = np.divide(e2, norm2, out=np.zeros_like(e2), where=usable)
    basis = np.stack([e1, e2, np.cross(e1, e2)], axis=1)
    basis[~usable[:, 0]] = _CANONICAL
    return [Frame(*axes) for axes in basis]


def global_frame(frames):
    """Columnwise mean of node frames, Gram-Schmidt re-orthonormalized.

    Axes whose mean is degenerate (or becomes degenerate after projection)
    are completed from the canonical axes, so the output is always a valid
    right-handed orthonormal frame.
    """
    if not frames:
        raise ValueError("global_frame requires a non-empty list")
    mean = np.mean([f.matrix for f in frames], axis=0)
    basis = []
    for k in range(3):
        v = mean[k].copy()
        for b in basis:
            v -= (v @ b) * b
        u = _normalize(v)
        if u is None:
            # complete from canonical axes
            for cand in _CANONICAL:
                w = cand.copy()
                for b in basis:
                    w -= (w @ b) * b
                u = _normalize(w)
                if u is not None:
                    break
        basis.append(u)
    e1, e2, e3 = basis
    # enforce right-handedness
    if np.dot(np.cross(e1, e2), e3) < 0:
        e3 = -e3
    return Frame(e1, e2, e3)


def tensorize(h, frame):
    """Lift three invariant scalars to the equivariant vector sum h_k e_k."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (3,):
        raise ValueError(f"tensorize expects 3 scalars, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("tensorize: non-finite coefficients")
    return h[0] * frame.e1 + h[1] * frame.e2 + h[2] * frame.e3
