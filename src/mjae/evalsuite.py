"""Verification harness and downstream metrics.

Symmetry reports (rotation / permutation / reflection residuals of the three
heads and the embedding), the analytic 1D Gaussian score-recovery toy, desk
generation metrics (validity, uniqueness, categorical total variation), and
the frozen-embedding ridge-regression probe.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict
from itertools import chain, islice

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .frames import molecule_frames
from .molgraph import (DenseTensors, ELEMENTS, N_BOND_CATEGORIES, permute,
                       to_dense, validate_valence)
from .network import (detach_params, forward, fourier_embed, latents, per_molecule,
                      self_paired_groups)
from .schedule import alpha_beta
from .training import adam_step, cosine_lr, init_adam_state


def random_rotation(rng):
    """Haar-ish random proper rotation via QR with positive diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@dataclass(frozen=True)
class SymmetryReport:
    rotation_equivariance_3d: float
    rotation_invariance_2d: float
    rotation_invariance_h: float
    rotation_invariance_embedding: float
    permutation_residual: float
    reflection_coefficient_residual: float
    reflection_axis_pattern_ok: bool
    per_molecule: list

    def as_dict(self):
        return asdict(self)


# the residuals of each molecule, in the order of their SymmetryReport fields
_RESIDUALS = ("rotation_3d", "rotation_2d", "rotation_h", "rotation_embedding",
              "permutation", "reflection")
_PER_MOLECULE = ("rotation_3d", "rotation_2d", "permutation", "reflection")


def _fold(worst, key, *residuals):
    """``worst[key]`` raised to the largest |entry| of ``residuals``; a NaN
    anywhere makes it NaN (``np.max`` keeps it, Python's ``max`` may not)."""
    worst[key] = float(np.max([worst[key], *(np.abs(r).max() for r in residuals)]))


def _rotate(dense, r):
    return DenseTensors(H=dense.H, E=dense.E, P=dense.P @ r.T)


def symmetry_report(params, net_cfg, probe_set, n_rotations=20,
                    n_permutations=20, seed=0):
    """Max symmetry residuals of the full model over a probe set, at t = 0.5.

    Equivariance / invariance is architectural, so a random-init model should
    already pass; residuals are float round-off only. Each probe molecule's
    views (itself, its rotations, its permutations and its point reflection)
    advance in ``self_paired_groups``: a view is built when its group runs,
    and each group's residuals are folded into the running worst values,
    which keep a NaN, before its outputs are dropped.
    """
    params = detach_params(params)
    rng = np.random.default_rng(seed)
    reports = []
    total = dict.fromkeys(_RESIDUALS, 0.0)
    pattern_ok = True
    for graph in probe_set:
        dense = to_dense(graph)
        rotations = [random_rotation(rng) for _ in range(n_rotations)]
        perms = [rng.permutation(graph.n) for _ in range(n_permutations)]
        views = chain([dense], (_rotate(dense, r) for r in rotations),  # built lazily
                      (to_dense(permute(graph, perm)) for perm in perms),
                      [DenseTensors(H=dense.H, E=dense.E, P=-dense.P)])
        worst = dict.fromkeys(_RESIDUALS, 0.0)
        for group in self_paired_groups([graph.n] * (n_rotations + n_permutations + 2)):
            batch = list(islice(views, group.stop - group.start))
            outs = per_molecule(forward(params, net_cfg, batch, batch, [0.5] * len(batch)))
            if group.start == 0:
                base = outs[0]
            for k, got in zip(range(group.start, group.stop), outs):
                if 0 < k <= n_rotations:
                    r = rotations[k - 1]
                    _fold(worst, "rotation_3d", got["score_P"] - base["score_P"] @ r.T)
                    _fold(worst, "rotation_2d", got["score_E"] - base["score_E"])
                    _fold(worst, "rotation_h", got["score_H"] - base["score_H"])
                    _fold(worst, "rotation_embedding", got["projection"] - base["projection"])
                elif n_rotations < k <= n_rotations + n_permutations:
                    perm = perms[k - 1 - n_rotations]
                    _fold(worst, "permutation", got["score_P"] - base["score_P"][perm],
                          got["score_H"] - base["score_H"][perm],
                          got["score_E"] - base["score_E"][np.ix_(perm, perm)],
                          got["projection"] - base["projection"])
                elif k > 0:  # the point reflection, the last view
                    residual, ok = _reflection_check(dense, base, got)
                    _fold(worst, "reflection", residual)
                    pattern_ok = pattern_ok and ok
        reports.append({"n": graph.n, **{key: worst[key] for key in _PER_MOLECULE}})
        for key, value in worst.items():
            _fold(total, key, value)

    return SymmetryReport(*total.values(), bool(pattern_ok), reports)


def _reflection_check(dense, base_out, refl_out):
    """Point reflection P -> -P: the frame axes map (e1, e2, e3) ->
    (-e1, e2, -e3) while the invariant coefficients are unchanged, so the e2
    component of the 3D score survives the reflection and e1/e3 flip.

    ``base_out`` and ``refl_out`` are the ``per_molecule`` forward outputs of
    ``dense`` and of its reflection."""
    base_frames = molecule_frames(dense.P)
    refl_frames = molecule_frames(-dense.P)
    coeffs = base_out["coeffs_P"]  # invariant
    # predicted reflected field: e1/e3 components flip, e2 survives
    raw = (-coeffs[:, :1] * base_frames[:, 0] + coeffs[:, 1:2] * base_frames[:, 1]
           - coeffs[:, 2:] * base_frames[:, 2])
    predicted = raw - raw.mean(axis=0, keepdims=True)
    got = refl_out["score_P"]
    worst = np.max([np.abs(refl_frames[:, 0] + base_frames[:, 0]).max(),  # keeps a NaN
                    np.abs(refl_frames[:, 1] - base_frames[:, 1]).max(),
                    np.abs(refl_frames[:, 2] + base_frames[:, 2]).max(),
                    np.abs(got - predicted).max()])
    # negative control: a plain sign flip would miss the surviving e2 part
    plain = np.abs(got + base_out["score_P"]).max()
    e2_mag = np.abs(coeffs[:, 1]).max()
    pattern_ok = bool(plain > 1e-8 or e2_mag < 1e-10)
    return float(worst), pattern_ok


# -- analytic Gaussian score toy -----------------------------------------

def gaussian_marginal_score(x, t, mu, sigma, schedule):
    """Closed-form marginal score of N(mu, sigma^2) data under the schedule."""
    a, b = alpha_beta(schedule, t)
    var = a * a * sigma * sigma + b * b
    return -(x - a * mu) / var


def gaussian_score_toy(schedule, train_steps=4000, seed=0):
    """Train a small MLP score net on 1D N(1, 1) data and compare against the
    analytic marginal score on the grid x in mu +/- 2 std(t).

    Returns (max normalized error over the eval times 0.1, 0.5 and 0.9,
    per-time dict); the error at each t is max|pred - true| / max|true| over
    the grid.
    """
    mu, sigma, hidden, d_time = 1.0, 1.0, 64, 16  # data N(mu, sigma^2); MLP, time widths
    batch, lr, t_min = 512, 2e-3, 1e-3
    rng = np.random.default_rng(seed)
    params = {
        "w1": Tensor(rng.standard_normal((1 + d_time, hidden)) / np.sqrt(1 + d_time),
                     requires_grad=True),
        "b1": Tensor(np.zeros(hidden), requires_grad=True),
        "w2": Tensor(rng.standard_normal((hidden, hidden)) / np.sqrt(hidden),
                     requires_grad=True),
        "b2": Tensor(np.zeros(hidden), requires_grad=True),
        "w3": Tensor(np.zeros((hidden, 1)), requires_grad=True),
        "b3": Tensor(np.zeros(1), requires_grad=True),
    }
    state = init_adam_state(params)

    def net(x, t_arr):
        emb = fourier_embed(t_arr, d_time)
        inp = Tensor(np.concatenate([x[:, None], emb], axis=1))
        h = ad.silu(ad.linear(inp, params["w1"], params["b1"]))
        h = ad.silu(ad.linear(h, params["w2"], params["b2"]))
        return ad.linear(h, params["w3"], params["b3"])

    for step in range(train_steps):
        x0 = mu + sigma * rng.standard_normal(batch)
        t_arr = t_min + (1.0 - t_min) * rng.uniform(size=batch)
        a, b = alpha_beta(schedule, t_arr)
        z = rng.standard_normal(batch)
        xt = a * x0 + b * z
        target = (-z / b)[:, None]
        weight = (b ** 2)[:, None]
        pred = net(xt, t_arr)
        diff = ad.sub(pred, Tensor(target))
        loss = ad.mean(ad.mul(Tensor(weight), ad.square(diff)))
        ad.backward(loss)
        grads = {k: p.grad for k, p in params.items()}
        for p in params.values():
            p.grad = None
        # cosine decay tames the Monte Carlo wander of the late steps
        adam_step(params, grads, state, cosine_lr(lr, step, train_steps))

    per_time = {}
    for t in (0.1, 0.5, 0.9):
        a, b = alpha_beta(schedule, t)
        std = np.sqrt(a * a * sigma * sigma + b * b)
        grid = np.linspace(a * mu - 2 * std, a * mu + 2 * std, 81)
        truth = gaussian_marginal_score(grid, t, mu, sigma, schedule)
        pred = net(grid, np.full(grid.shape, t)).data[:, 0]
        per_time[t] = float(np.abs(pred - truth).max() / np.abs(truth).max())
    return max(per_time.values()), per_time


# -- generation metrics --------------------------------------------------

def canonical_hash(graph):
    """Cheap permutation-invariant hash: sorted atom descriptors plus sorted
    typed-edge list. Sound on small desk corpora, not full canonization."""
    atoms = sorted(
        (int(graph.atom_types[i]), int(graph.charges[i]),
         tuple(sorted(int(b) for b in graph.bonds[i] if b)))
        for i in range(graph.n))
    edges = sorted(
        (min(int(graph.atom_types[i]), int(graph.atom_types[j])),
         max(int(graph.atom_types[i]), int(graph.atom_types[j])),
         int(graph.bonds[i, j]))
        for i in range(graph.n) for j in range(i + 1, graph.n)
        if graph.bonds[i, j])
    blob = json.dumps([atoms, edges]).encode()
    return hashlib.sha256(blob).hexdigest()


def _frequencies(arrays, categories):
    """Share of each of ``categories`` categories among the entries of the
    integer ``arrays``."""
    counts = np.bincount(np.concatenate(arrays), minlength=categories)
    return counts / counts.sum()


def total_variation(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def generation_metrics(samples, reference):
    """Validity, uniqueness, and categorical total-variation distances."""
    if not samples or not reference:
        raise ValueError("empty sample or reference set")
    for name, graphs in (("sample", samples), ("reference", reference)):
        if all(g.n < 2 for g in graphs):
            raise ValueError(f"the {name} set holds no atom pair, so its bond "
                             "frequencies are undefined")
    validity = float(np.mean([validate_valence(g)[0] for g in samples]))
    unique = len({canonical_hash(g) for g in samples}) / len(samples)

    def tv(values, categories):
        return total_variation(*(_frequencies([values(g) for g in graphs], categories)
                                 for graphs in (samples, reference)))

    return {
        "validity": validity,
        "unique": float(unique),
        "atom_tv": tv(lambda g: g.atom_types, len(ELEMENTS)),
        "bond_tv": tv(lambda g: g.bonds[np.triu_indices(g.n, k=1)], N_BOND_CATEGORIES),
        "n_samples": len(samples),
    }


# -- linear probe --------------------------------------------------------

def radius_of_gyration(graph):
    """Deterministic geometric label: rms distance from the center of mass."""
    return float(np.sqrt((graph.positions ** 2).sum(axis=1).mean()))


def pooled_embeddings(params, net_cfg, graphs):
    """Frozen mean-pooled latent per molecule (self-paired, at t = 0.5), from
    the latent stage of ``forward`` alone: no heads are built.

    The molecules advance in ``self_paired_groups`` and only each group's
    pooled rows are kept, so what the probe holds does not grow with the
    probe set beyond those rows.
    """
    params = detach_params(params)
    pooled = np.empty((len(graphs), net_cfg.latent))
    for group in self_paired_groups([g.n for g in graphs]):
        dense = [to_dense(g) for g in graphs[group]]
        pooled[group] = latents(params, net_cfg, dense, dense,
                                [0.5] * len(dense))["latent"].pooled.data
    return pooled


def ridge_probe_mse(features, labels, seeds):
    """Ridge (1e-3) regression probe MSE on 20% held out, mean over split seeds.
    A split must leave at least 2 training molecules, so at least 3 are needed."""
    labels = np.asarray(labels, dtype=np.float64)
    n = len(labels)
    n_test = max(1, int(round(0.2 * n)))
    if n - n_test < 2:
        raise ValueError(f"the probe needs at least 3 molecules, got {n}")
    if labels.std() < 1e-12:
        raise ValueError("degenerate constant labels")
    mses = []
    for seed in seeds:
        order = np.random.default_rng(seed).permutation(n)
        test, train = order[:n_test], order[n_test:]
        x_tr, y_tr = features[train], labels[train]
        x_mu, y_mu = x_tr.mean(axis=0), y_tr.mean()
        xc = x_tr - x_mu
        w = np.linalg.solve(xc.T @ xc + 1e-3 * np.eye(xc.shape[1]), xc.T @ (y_tr - y_mu))
        pred = (features[test] - x_mu) @ w + y_mu
        mses.append(float(((pred - labels[test]) ** 2).mean()))
    return float(np.mean(mses))


def linear_probe(params, net_cfg, graphs, labels, seeds=(0, 1, 2, 3, 4)):
    """Probe MSE of the given model's frozen embeddings on the labeled set."""
    feats = pooled_embeddings(params, net_cfg, graphs)
    return ridge_probe_mse(feats, labels, seeds)
