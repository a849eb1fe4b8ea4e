"""Reverse-time generation and categorical quantization.

The reverse family dy = [f(t) y - (1 + lam^2)/2 g^2(t) s(y, t)] dt
+ lam g(t) dB shares its marginals across lam (lam = 0 is the
probability-flow ODE, lam = 1 the reverse SDE). Generation integrates it with
Euler-Maruyama from the prior down to a small terminal time, with one noise
schedule for P, H and E, then argmax-quantizes the one-hot channels back into
a molecule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .molgraph import (CHARGES, ELEMENTS, DenseTensors, N_BOND_CATEGORIES,
                       feature_width, make_graph)
from .network import detach_params, forward
from .schedule import HORIZON, alpha_beta, drift_diffusion
from .trajectory import project_zero_com, symmetrize_edge_noise


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 1000
    lam: float = 0.0        # 0 = probability-flow ODE, 1 = reverse SDE
    n_atoms: int = 8
    seed: int = 0
    t_end: float = 1e-3

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")


def reverse_step(state, t, dt, scores, schedule, lam, rng):
    """One Euler-Maruyama step of the reverse family on all three components,
    which share the drift and diffusion of ``schedule`` at ``t``.

    Position noise stays zero-CoM, edge noise stays symmetric, so the state
    remains inside the data gauge throughout the integration.
    """
    for comp in ("P", "H", "E"):
        if not np.all(np.isfinite(scores[comp])):
            raise FloatingPointError(f"non-finite {comp} score at t={t:.4f}")
    f, g = drift_diffusion(schedule, t)

    def step(y, score, noise):
        drift = f * y - 0.5 * (1.0 + lam * lam) * g * g * score
        return y - drift * dt + lam * g * np.sqrt(dt) * noise

    z_p = project_zero_com(rng.standard_normal(state.P.shape)) if lam > 0 else 0.0
    z_h = rng.standard_normal(state.H.shape) if lam > 0 else 0.0
    z_e = symmetrize_edge_noise(rng.standard_normal(state.E.shape)) if lam > 0 else 0.0
    new = DenseTensors(P=step(state.P, scores["P"], z_p), H=step(state.H, scores["H"], z_h),
                       E=step(state.E, scores["E"], z_e))
    if not all(np.all(np.isfinite(x)) for x in (new.P, new.H, new.E)):
        raise FloatingPointError(f"non-finite state after reverse step at t={t:.4f}")
    return new


def prior_sample(n_atoms, schedule, rng):
    """Terminal-time prior: N(0, beta(T)^2) per component, gauge-projected."""
    scale = alpha_beta(schedule, HORIZON)[1]
    p = scale * project_zero_com(rng.standard_normal((n_atoms, 3)))
    h = scale * rng.standard_normal((n_atoms, feature_width()))
    e = scale * symmetrize_edge_noise(
        rng.standard_normal((n_atoms, n_atoms, N_BOND_CATEGORIES)))
    return DenseTensors(P=p, H=h, E=e)


def generate_one(params, net_cfg, schedule, cfg, rng):
    """Integrate one reverse path from the prior and quantize.

    The clean-conditioner branch receives the evolving state itself (the only
    structure available at generation time).
    """
    state = prior_sample(cfg.n_atoms, schedule, rng)
    dt = (HORIZON - cfg.t_end) / cfg.steps
    for k in range(cfg.steps):
        t = HORIZON - k * dt
        scale = 1.0 / alpha_beta(schedule, t)[1]
        out = forward(params, net_cfg, [state], [state], [t])[0]
        scores = {c: out[f"score_{c}"].data * scale for c in ("P", "H", "E")}
        state = reverse_step(state, t, dt, scores, schedule, cfg.lam, rng)
    return quantize(state)


def generate(params, net_cfg, schedule, cfg, count):
    """Generate ``count`` molecules under the NoiseSchedule ``schedule``; one
    child rng stream per sample index."""
    params = detach_params(params)
    out = []
    for i in range(count):
        rng = np.random.default_rng([cfg.seed, i])
        out.append(generate_one(params, net_cfg, schedule, cfg, rng))
    return out


def quantize(tensors):
    """Argmax the one-hot channels back into a MoleculeGraph.

    E is symmetrized by averaging before the argmax; ties break toward the
    lower category index (numpy argmax convention). Positions pass through
    after zero-centering.
    """
    h = np.asarray(tensors.H, dtype=np.float64)
    n = h.shape[0]
    atom_types = h[:, :len(ELEMENTS)].argmax(axis=1)
    charge_slots = h[:, len(ELEMENTS):len(ELEMENTS) + len(CHARGES)].argmax(axis=1)
    charges = np.array([CHARGES[s] for s in charge_slots])
    e = 0.5 * (tensors.E + np.swapaxes(tensors.E, 0, 1))
    bonds = e.argmax(axis=2)
    np.fill_diagonal(bonds, 0)
    return make_graph(atom_types, charges, bonds, tensors.P)


def reverse_paths_1d(schedule, score_fn, lam, steps, n_paths, rng, t_end=1e-3,
                     x_init=None):
    """Vectorized scalar reverse integration with an externally supplied score.

    Used by the analytic Ornstein-Uhlenbeck toys: ``score_fn(x, t)`` is the
    exact marginal score, and the terminal samples should match the data law
    for every lam (the marginal-preservation property).
    """
    if x_init is None:
        x = alpha_beta(schedule, HORIZON)[1] * rng.standard_normal(n_paths)
    else:
        x = np.array(x_init, dtype=np.float64)
    dt = (HORIZON - t_end) / steps
    for k in range(steps):
        t = HORIZON - k * dt
        f, g = drift_diffusion(schedule, t)
        drift = f * x - 0.5 * (1.0 + lam * lam) * g * g * score_fn(x, t)
        x = x - drift * dt
        if lam > 0:
            x = x + lam * g * np.sqrt(dt) * rng.standard_normal(n_paths)
    return x
