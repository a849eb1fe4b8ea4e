"""Forward trajectory augmentation.

Continuous branch: closed-form joint Gaussian perturbation of (P, H, E) under
one shared noise schedule, plus the conditional score targets -z / beta(t).
Position noise is projected onto the zero center-of-mass subspace and edge
noise is symmetrized, so perturbed states stay inside the same gauge and
symmetry class as the data.

Discrete branch: the absorbing-state Markov chain on categorical tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .molgraph import FEATURE_WIDTH, N_BOND_CATEGORIES, DenseTensors
from .schedule import alpha_beta


@dataclass(frozen=True)
class TrajectorySample:
    """One forward-perturbed molecule with its conditional score targets."""

    xt: DenseTensors
    score_target: dict   # per-component -z / beta(t)


def project_zero_com(z):
    """Project per-atom 3-vectors onto the zero center-of-mass subspace."""
    return z - z.mean(axis=0, keepdims=True)


def symmetrize_edge_noise(z):
    """Mirror the strict upper triangle and zero the diagonal of (n, n, e) noise."""
    n = z.shape[0]
    upper = np.triu(np.ones((n, n)), k=1)[:, :, None]
    sym = z * upper + np.swapaxes(z, 0, 1) * np.swapaxes(upper, 0, 1)
    return sym


def gauge_noise(n, rng):
    """Standard normal noise on the (P, H, E) of an n-atom molecule inside the
    data gauge: zero-CoM P, free H, symmetric zero-diagonal E, drawn from
    ``rng`` in that order."""
    return DenseTensors(P=project_zero_com(rng.standard_normal((n, 3))),
                        H=rng.standard_normal((n, FEATURE_WIDTH)),
                        E=symmetrize_edge_noise(rng.standard_normal((n, n, N_BOND_CATEGORIES))))


def perturb_continuous(x0, t, rng, schedule):
    """Closed-form forward perturbation x_t = alpha(t) x0 + beta(t) z of every
    component under the one NoiseSchedule ``schedule``.

    Rejects t where beta(t) = 0 (undefined score target); with the default
    VP schedule this means t must be positive.
    """
    a, b = alpha_beta(schedule, t)
    if b <= 0.0:
        raise ValueError(f"beta(t)=0 at t={t}: score target undefined")

    z = gauge_noise(x0.n, rng)
    xt = DenseTensors(P=a * x0.P + b * z.P, H=a * x0.H + b * z.H, E=a * x0.E + b * z.E)
    return TrajectorySample(xt=xt, score_target={c: -getattr(z, c) / b for c in "PHE"})


def sample_time(rng, t_min):
    """Draw t ~ Uniform[t_min, 1) (``rng.uniform`` draws from [0, 1)); t_min
    avoids the beta -> 0 blow-up."""
    return t_min + (1.0 - t_min) * rng.uniform()


def perturb_absorbing(tokens, t_step, mask_betas, rng):
    """Absorbing-state chain: each token flips to the mask state independently.

    The mask state is an implicit extra vocabulary slot (index = max token
    vocabulary). After ``t_step`` steps with per-step flip rates ``mask_betas``
    the total mask probability is 1 - prod(1 - beta_k); masked stays masked.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    mask_betas = np.asarray(mask_betas, dtype=np.float64)
    if t_step > len(mask_betas):
        raise ValueError(f"t_step {t_step} exceeds schedule length {len(mask_betas)}")
    mask_state = int(tokens.max(initial=0)) + 1
    out = tokens.copy()
    for k in range(t_step):
        flips = rng.uniform(size=out.shape) < mask_betas[k]
        out[flips] = mask_state
    return out
