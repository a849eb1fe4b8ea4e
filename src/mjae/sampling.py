"""Reverse-time generation and categorical quantization.

The reverse family dy = [f(t) y - (1 + lam^2)/2 g^2(t) s(y, t)] dt
+ lam g(t) dB shares its marginals across lam (lam = 0 is the
probability-flow ODE, lam = 1 the reverse SDE). Generation integrates it with
Euler-Maruyama from the prior down to a small terminal time, with one noise
schedule for P, H and E, then argmax-quantizes the one-hot channels back into
a molecule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .molgraph import CHARGES, ELEMENTS, DenseTensors, make_graph
from .network import detach_params, forward, self_paired_groups
from .schedule import HORIZON, alpha_beta, drift_diffusion
from .trajectory import gauge_noise


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 1000
    lam: float = 0.0        # 0 = probability-flow ODE, 1 = reverse SDE
    n_atoms: int = 8
    seed: int = 0
    t_end: float = 1e-3

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"SamplerConfig.steps must be >= 1, got {self.steps}")
        if self.n_atoms < 1:
            raise ValueError(f"SamplerConfig.n_atoms must be >= 1, got {self.n_atoms}")
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ValueError(f"SamplerConfig.lam must be finite and >= 0, got {self.lam}")
        if not 0 < self.t_end < HORIZON:
            raise ValueError(f"SamplerConfig.t_end must be in (0, {HORIZON}), got {self.t_end}")


def euler_maruyama(y, score, f, g, lam, dt, noise):
    """One Euler-Maruyama update of the reverse family at drift ``f`` and
    diffusion ``g``: y - (f y - (1 + lam^2)/2 g^2 s) dt + lam g sqrt(dt) z."""
    drift = f * y - 0.5 * (1.0 + lam * lam) * g * g * score
    return y - drift * dt + lam * g * np.sqrt(dt) * noise


def time_grid(t_end, steps):
    """(t, dt) of each of ``steps`` uniform steps from HORIZON down to ``t_end``."""
    dt = (HORIZON - t_end) / steps
    return [(HORIZON - k * dt, dt) for k in range(steps)]


def reverse_step(state, t, dt, scores, schedule, lam, rngs):
    """One Euler-Maruyama step of the reverse family on all three components
    of a group of paths, which share the drift and diffusion of ``schedule``
    at ``t``.

    ``state`` and ``scores`` hold the group as stacks, (k, n, 3), (k, n, h)
    and (k, n, n, e); ``rngs`` maps each path's sample index to its own
    stream, in path order. Each path draws its gauge noise from its stream,
    so its bits do not depend on the other paths of its group. Position noise
    stays zero-CoM, edge noise stays symmetric, so the state remains inside
    the data gauge throughout the integration. A non-finite score or new
    state raises ``FloatingPointError`` naming the first sample that holds it.
    """
    for comp in "PHE":
        _check_finite(scores[comp], rngs, f"{comp} score", t)
    f, g = drift_diffusion(schedule, t)
    if lam > 0:
        n = state.P.shape[1]  # atoms per path; state.n would read the path count
        z = _stack([gauge_noise(n, rng) for rng in rngs.values()])
    else:
        z = DenseTensors(H=0.0, E=0.0, P=0.0)
    new = DenseTensors(**{c: euler_maruyama(getattr(state, c), scores[c], f, g, lam, dt,
                                            getattr(z, c)) for c in "PHE"})
    for comp in "PHE":
        _check_finite(getattr(new, comp), rngs, f"{comp} state", t)
    return new


def _check_finite(stack, rngs, what, t):
    """Raise naming the sample of the first path of ``stack`` that is not finite."""
    finite = np.isfinite(stack).reshape(len(rngs), -1).all(axis=1)
    if not finite.all():
        raise FloatingPointError(f"non-finite {what} of sample {list(rngs)[finite.argmin()]} "
                                 f"at t={t:.4f}")


def _stack(paths):
    """One DenseTensors of (k, ...) stacks of the components of ``paths``."""
    return DenseTensors(**{c: np.stack([getattr(m, c) for m in paths]) for c in "PHE"})


def _paths(state):
    """Each path of a stacked group ``state`` as its own DenseTensors of views."""
    return [DenseTensors(H=h, E=e, P=p) for h, e, p in zip(state.H, state.E, state.P)]


def prior_sample(n_atoms, schedule, rng):
    """Terminal-time prior: N(0, beta(T)^2) per component, gauge-projected."""
    scale = alpha_beta(schedule, HORIZON)[1]
    z = gauge_noise(n_atoms, rng)
    return DenseTensors(P=scale * z.P, H=scale * z.H, E=scale * z.E)


def generate(params, net_cfg, schedule, cfg, count):
    """Generate ``count`` molecules under the NoiseSchedule ``schedule``; one
    child rng stream per sample index.

    Each state is also its own clean conditioner (the only structure
    available at generation time), so a path holds 2 n^2 pair rows. The
    reverse paths advance in ``self_paired_groups``, so what the integration
    holds does not grow with ``count``. A group's state is one stack per
    component; each step of a group is one ``forward`` of its paths, whose
    score rows reshape into the stacks, then one ``reverse_step`` of the
    group, each path drawing its noise from its own stream.
    """
    params = detach_params(params)
    molecules = []
    for group in self_paired_groups([cfg.n_atoms] * count):
        rngs = {i: np.random.default_rng([cfg.seed, i]) for i in range(count)[group]}
        state = _stack([prior_sample(cfg.n_atoms, schedule, rng) for rng in rngs.values()])
        for t, dt in time_grid(cfg.t_end, cfg.steps):
            paths = _paths(state)
            record = forward(params, net_cfg, paths, paths, [t] * len(paths))
            scale = 1.0 / alpha_beta(schedule, t)[1]
            scores = {c: record[f"score_{c}"].data.reshape(getattr(state, c).shape) * scale
                      for c in "PHE"}
            state = reverse_step(state, t, dt, scores, schedule, cfg.lam, rngs)
        molecules += [quantize(path) for path in _paths(state)]
    return molecules


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
    for t, dt in time_grid(t_end, steps):
        f, g = drift_diffusion(schedule, t)
        x = euler_maruyama(x, score_fn(x, t), f, g, lam, dt,
                           rng.standard_normal(n_paths) if lam > 0 else 0.0)
    return x
