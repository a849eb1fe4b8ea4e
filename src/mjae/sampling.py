"""Reverse-time generation and categorical quantization.

The reverse family dy = [f(t) y - (1 + lam^2)/2 g^2(t) s(y, t)] dt
+ lam g(t) dB shares its marginals across lam (lam = 0 is the
probability-flow ODE, lam = 1 the reverse SDE). ``integrate`` runs it with
Euler-Maruyama from the prior down to a small terminal time, given a
``noise()`` closure (the prior is beta(T) times its first draw) and a
``score_fn(state, t)`` closure. ``generate`` passes the network's score and
each path's gauge noise, under one schedule for P, H and E, then
argmax-quantizes the one-hot channels back into a molecule;
``reverse_paths_1d`` passes an exact scalar score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .molgraph import CHARGES, ELEMENTS, MAX_ATOMS, DenseTensors, make_graph
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
        if not 1 <= self.n_atoms <= MAX_ATOMS:
            raise ValueError(f"SamplerConfig.n_atoms must be in [1, {MAX_ATOMS}], "
                             f"got {self.n_atoms}")
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


def integrate(noise, score_fn, schedule, lam, steps, t_end, names):
    """The state at ``t_end`` after ``steps`` reverse steps from the prior.

    A state maps each component to a (k, ...) stack of k paths; ``noise()``
    draws one standard normal state, ``score_fn(state, t)`` returns one score
    per component and ``names[i]`` names path i in errors. The prior is
    beta(T) times the first draw; each step at lam > 0 draws once more.
    """
    scale = alpha_beta(schedule, HORIZON)[1]
    state = {c: scale * z for c, z in noise().items()}
    for t, dt in time_grid(t_end, steps):
        state = reverse_step(state, t, dt, score_fn(state, t), schedule, lam, noise, names)
    return state


def reverse_step(state, t, dt, scores, schedule, lam, noise, names):
    """One Euler-Maruyama step of the reverse family on every component of
    ``state``, which share the drift and diffusion of ``schedule`` at ``t``.

    Draws ``noise()`` only at lam > 0. A non-finite score or new state
    raises ``FloatingPointError`` naming, through ``names``, the first path
    that holds it.
    """
    for c in state:
        _check_finite(scores[c], names, f"{c} score", t)
    f, g = drift_diffusion(schedule, t)
    z = noise() if lam > 0 else dict.fromkeys(state, 0.0)
    new = {c: euler_maruyama(state[c], scores[c], f, g, lam, dt, z[c]) for c in state}
    for c in new:
        _check_finite(new[c], names, f"{c} state", t)
    return new


def _check_finite(stack, names, what, t):
    """Raise naming the first path of ``stack`` that is not finite."""
    finite = np.isfinite(stack).reshape(len(names), -1).all(axis=1)
    if not finite.all():
        raise FloatingPointError(f"non-finite {what} of sample {names[finite.argmin()]} "
                                 f"at t={t:.4f}")


def _paths(state):
    """Each path of a stacked group ``state`` as its own DenseTensors of views."""
    return [DenseTensors(H=h, E=e, P=p) for h, e, p in zip(state["H"], state["E"], state["P"])]


def generate(params, net_cfg, schedule, cfg, count):
    """Generate ``count`` molecules under the NoiseSchedule ``schedule``; one
    child rng stream per sample index.

    Each state is also its own clean conditioner (the only structure
    available at generation time), so a path holds 2 n^2 pair rows. The
    reverse paths advance in ``self_paired_groups``, so what the integration
    holds does not grow with ``count``. Each group is one ``integrate``: a
    score is one ``forward`` of the group, its rows reshaped into the stacks
    times 1/beta(t); the noise stacks each path's gauge noise drawn from its
    own stream, so a path's bits do not depend on its group. Gauge noise is
    zero-CoM in P and symmetric in E, so the state stays in the data gauge.
    """
    params = detach_params(params)

    def score(state, t):
        paths = _paths(state)
        record = forward(params, net_cfg, paths, paths, [t] * len(paths))
        scale = 1.0 / alpha_beta(schedule, t)[1]
        return {c: record[f"score_{c}"].data.reshape(state[c].shape) * scale for c in "PHE"}

    molecules = []
    for group in self_paired_groups([cfg.n_atoms] * count):
        names = range(count)[group]
        rngs = [np.random.default_rng([cfg.seed, i]) for i in names]

        def noise():
            draws = [gauge_noise(cfg.n_atoms, rng) for rng in rngs]
            return {c: np.stack([getattr(z, c) for z in draws]) for c in "PHE"}

        state = integrate(noise, score, schedule, cfg.lam, cfg.steps, cfg.t_end, names)
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


def reverse_paths_1d(schedule, score_fn, lam, steps, n_paths, rng):
    """Vectorized scalar reverse integration to t = 1e-3 with a given score.

    Used by the analytic Ornstein-Uhlenbeck toys: ``score_fn(x, t)`` is the
    exact marginal score, and the terminal samples should match the data law
    for every lam (the marginal-preservation property).
    """
    state = integrate(lambda: {"x": rng.standard_normal(n_paths)},
                      lambda s, t: {"x": score_fn(s["x"], t)},
                      schedule, lam, steps, 1e-3, range(n_paths))
    return state["x"]
