"""Twin-encoder score network.

Two distance-featurized invariant message-passing encoders (one for the clean
conditioner, one for the noisy input) produce node features f0 and ft. Each
encoder runs a whole list of molecules as one ragged batch: atom rows are
stacked and messages pass within each molecule's block of atom pairs. A
row-wise MLP fuses [Emd(t) | f0 | ft] into 3D node features, an edge MLP of
[Emd(t) | E0 | Et] produces a weighted adjacency W, and a dense residual GCN
over (nodes, W) yields the latent representation. Three heads decode it:

* 3D head: invariant scalars tensorized with per-node equivariant frames,
  zero-CoM projected -> SE(3)-equivariant position score;
* 2D head: multi-head attention maps, pairwise node features, and the raw
  per-edge channels -> per-edge MLP, symmetrized -> invariant bond score;
* H head: row-wise MLP -> invariant atom-feature score.

A separate projection head maps the mean-pooled latent to a unit-norm
embedding for the contrastive objective. Everything is built from the
autodiff primitives so the whole model trains with reverse mode.

``forward`` is the one entry point of training, sampling and eval: it takes a
batch of (conditioner, input, time) triples and owns every encoding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .frames import DEFAULT_CUTOFF, molecule_frames
from .molgraph import N_BOND_CATEGORIES, feature_width


@dataclass(frozen=True)
class NetworkConfig:
    latent: int = 128          # L, node feature width
    rounds: int = 3            # message-passing rounds per encoder
    n_rbf: int = 16
    gcn_layers: int = 3
    heads: int = 4
    head_dim: int = 32
    d_time: int = 64           # Fourier embedding width (even)
    d_contrast: int = 64       # projection head output width
    hidden: int = 64           # head MLP hidden width
    edge_hidden: int = 32

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 1:
                raise ValueError(f"NetworkConfig.{name} must be >= 1, got {value}")
        if self.d_time % 2:
            raise ValueError(f"NetworkConfig.d_time must be even, got {self.d_time}")

    @property
    def h_width(self):
        return feature_width()

    @property
    def e_width(self):
        return N_BOND_CATEGORIES


@dataclass(frozen=True)
class LatentRepresentation:
    node_h: Tensor   # (n, L) invariant node features
    pooled: Tensor   # (L,) mean-pooled graph embedding


@functools.lru_cache(maxsize=32)
def fourier_frequencies(d_time):
    """Fixed geometric frequency ladder for the time embedding.

    Built once per width and shared by every caller, so it is read-only.
    """
    freqs = np.geomspace(1.0, 128.0, d_time // 2)
    freqs.flags.writeable = False
    return freqs


def fourier_embed(t, d_time):
    """[sin(2 pi f_k t), cos(2 pi f_k t)] over the fixed frequency ladder.

    ``t`` is a float, giving shape (d_time,), or an array of times, giving
    one embedding row per time: shape ``t.shape + (d_time,)``.
    """
    phase = np.multiply.outer(t, 2.0 * np.pi * fourier_frequencies(d_time))
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=-1)


# -- parameters ----------------------------------------------------------

def _dense_init(rng, fan_in, fan_out):
    return rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)


def init_params(cfg, rng):
    """Named parameter map; shapes are fixed by the config."""
    p = {}

    def dense(name, fan_in, fan_out):
        p[f"{name}.w"] = _dense_init(rng, fan_in, fan_out)
        p[f"{name}.b"] = np.zeros(fan_out)

    for branch in ("enc_clean", "enc_noisy"):
        p[f"{branch}.embed"] = _dense_init(rng, cfg.h_width, cfg.latent)
        for k in range(cfg.rounds):
            p[f"{branch}.r{k}.filter"] = _dense_init(rng, cfg.n_rbf, cfg.latent)
            p[f"{branch}.r{k}.msg"] = _dense_init(rng, cfg.latent, cfg.latent)
            dense(f"{branch}.r{k}.upd", 2 * cfg.latent, cfg.latent)

    dense("fuse.l1", cfg.d_time + 2 * cfg.latent, cfg.latent)
    dense("fuse.l2", cfg.latent, cfg.latent)
    dense("edge.l1", cfg.d_time + 2 * cfg.e_width, cfg.edge_hidden)
    dense("edge.l2", cfg.edge_hidden, 1)
    for layer in range(cfg.gcn_layers):
        dense(f"gcn.l{layer}", cfg.latent, cfg.latent)
    for head in range(cfg.heads):
        p[f"att.h{head}.q"] = _dense_init(rng, cfg.latent, cfg.head_dim)
        p[f"att.h{head}.k"] = _dense_init(rng, cfg.latent, cfg.head_dim)
    dense("head2d.l1", cfg.heads + 2 * cfg.latent + 2 * cfg.e_width, cfg.edge_hidden)
    dense("head2d.l2", cfg.edge_hidden, cfg.e_width)
    dense("head3d.l1", cfg.latent, cfg.hidden)
    dense("head3d.l2", cfg.hidden, 3)
    dense("headh.l1", cfg.latent, cfg.hidden)
    dense("headh.l2", cfg.hidden, cfg.h_width)
    dense("proj.l1", cfg.latent, cfg.hidden)
    dense("proj.l2", cfg.hidden, cfg.d_contrast)

    return {name: Tensor(v, requires_grad=True) for name, v in p.items()}


def detach_params(params):
    """Gradient-free view of the parameters (shared buffers) for inference."""
    return {k: Tensor(v.data) for k, v in params.items()}


def _mlp2(x, params, prefix, act=ad.silu):
    h = act(ad.linear(x, params[f"{prefix}.l1.w"], params[f"{prefix}.l1.b"]))
    return ad.linear(h, params[f"{prefix}.l2.w"], params[f"{prefix}.l2.b"])


# -- encoder -------------------------------------------------------------

def rbf_features(positions, cfg):
    """Smooth radial basis expansion of pairwise distances within the cutoff:
    one row per ordered atom pair (i, j), in row-major (i, j) order."""
    n = positions.shape[0]
    d = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=-1)
    centers = np.linspace(0.0, DEFAULT_CUTOFF, cfg.n_rbf)
    gamma = (cfg.n_rbf / DEFAULT_CUTOFF) ** 2
    rbf = np.exp(-gamma * (d[:, :, None] - centers[None, None, :]) ** 2)
    envelope = 0.5 * (np.cos(np.pi * np.clip(d / DEFAULT_CUTOFF, 0.0, 1.0)) + 1.0)
    np.fill_diagonal(envelope, 0.0)
    return (rbf * envelope[:, :, None]).reshape(n * n, cfg.n_rbf)


def encode(mols, params, cfg, branch, rbf):
    """Invariant node features of each DenseTensors in ``mols`` from
    distance-featurized message passing: one (n_b, L) Tensor per molecule.

    ``rbf`` holds each molecule's ``rbf_features`` rows. The molecules run as
    one ragged batch, so each round is a few GEMMs over all atoms and pairs.
    """
    sizes = [m.n for m in mols]
    pair_rbf = Tensor(np.concatenate(rbf))  # (sum n_b^2, n_rbf) constant
    h = ad.matmul(Tensor(np.concatenate([m.H for m in mols])), params[f"{branch}.embed"])
    for k in range(cfg.rounds):
        filt = ad.matmul(pair_rbf, params[f"{branch}.r{k}.filter"])
        x = ad.matmul(h, params[f"{branch}.r{k}.msg"])
        msgs = ad.ragged_message(filt, x, sizes)
        upd = ad.linear(ad.concat([h, msgs], axis=1), params[f"{branch}.r{k}.upd.w"],
                        params[f"{branch}.r{k}.upd.b"])
        h = ad.add(h, ad.silu(upd))
    bounds = np.cumsum([0] + sizes)
    return [h[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


# -- fusion --------------------------------------------------------------

def fuse(f0, ft, emb, params, cfg):
    """Row-wise MLP of [Emd(t) | f0 | ft] -> 3D node representation."""
    if f0.shape[0] != ft.shape[0]:
        raise ad.ShapeError(f"fuse: branch sizes differ ({f0.shape[0]} vs {ft.shape[0]})")
    emb_rows = Tensor(np.broadcast_to(emb, (f0.shape[0], cfg.d_time)))
    return _mlp2(ad.concat([emb_rows, f0, ft], axis=1), params, "fuse")


def edge_condition(e0, et, emb, params, cfg):
    """Weighted adjacency from the per-edge MLP of [Emd(t) | E0 | Et].

    Symmetrized by averaging with the transpose; zero diagonal.
    """
    if e0.shape != et.shape:
        raise ad.ShapeError(f"edge_condition: shapes differ ({e0.shape} vs {et.shape})")
    n = e0.shape[0]
    flat = np.concatenate([
        np.broadcast_to(emb, (n * n, cfg.d_time)),
        e0.reshape(n * n, cfg.e_width),
        et.reshape(n * n, cfg.e_width),
    ], axis=1)
    w = ad.reshape(_mlp2(Tensor(flat), params, "edge"), (n, n))
    w = ad.mul(ad.add(w, ad.transpose(w)), Tensor(0.5 * (1.0 - np.eye(n))))
    return w


def fuse_gcn(node, w, params, cfg):
    """Dense residual GCN: h <- h + silu(norm(W) h theta + b), then mean pool.

    norm(W) is the symmetric degree normalization with degrees from |W| (+1
    self weight) so it stays defined for signed adjacencies.
    """
    n = node.shape[0]
    deg = ad.add(ad.sum_(ad.abs_(w), axis=1), Tensor(np.ones(n)))
    dinv = ad.div(Tensor(1.0), ad.sqrt(deg))
    w_norm = ad.mul(ad.mul(w, ad.reshape(dinv, (n, 1))), ad.reshape(dinv, (1, n)))
    h = node
    for layer in range(cfg.gcn_layers):
        mixed = ad.linear(ad.matmul(w_norm, h), params[f"gcn.l{layer}.w"],
                          params[f"gcn.l{layer}.b"])
        h = ad.add(h, ad.silu(mixed))
    return LatentRepresentation(node_h=h, pooled=ad.mean(h, axis=0))


# -- heads ---------------------------------------------------------------

def score_3d(latent, basis, params):
    """Equivariant position score: per-node MLP coefficients tensorized with
    that node's frame (``basis``, (n, 3, 3) rows e1..e3), projected to the
    zero-CoM subspace."""
    coeffs = _mlp2(latent.node_h, params, "head3d")  # (n, 3) invariant scalars
    n = coeffs.shape[0]
    # field_n = sum_k c_nk e_nk
    field = ad.sum_(ad.mul(ad.reshape(coeffs, (n, 3, 1)), Tensor(basis)), axis=1)
    return ad.sub(field, ad.mean(field, axis=0))


def score_2d(latent, params, cfg, e0, et):
    """Invariant edge score: multi-head attention maps, symmetric pairwise
    node features, and the raw per-edge channels of the conditioner and noisy
    edge tensors -> per-edge MLP, symmetric with zero diagonal."""
    h = latent.node_h
    n = h.shape[0]
    scale = 1.0 / np.sqrt(cfg.head_dim)
    maps = []
    for head in range(cfg.heads):
        q = ad.matmul(h, params[f"att.h{head}.q"])
        k = ad.matmul(h, params[f"att.h{head}.k"])
        att = ad.softmax(ad.mul(ad.matmul(q, ad.transpose(k)), Tensor(scale)), axis=-1)
        maps.append(ad.reshape(att, (n * n, 1)))
    hi = ad.reshape(h, (n, 1, cfg.latent))
    hj = ad.reshape(h, (1, n, cfg.latent))
    pair_prod = ad.reshape(ad.mul(hi, hj), (n * n, cfg.latent))
    raw = Tensor(np.concatenate([
        np.asarray(e0, dtype=np.float64).reshape(n * n, cfg.e_width),
        np.asarray(et, dtype=np.float64).reshape(n * n, cfg.e_width),
    ], axis=1))
    # l1 reads rows [maps | h_i + h_j | h_i * h_j | raw]; its pair-sum block is
    # (h_i + h_j) W_s = u_i + u_j with u = h W_s, so no (n^2, L) sum is built
    w1 = params["head2d.l1.w"]
    sum_rows = slice(cfg.heads, cfg.heads + cfg.latent)
    other_rows = np.r_[0:cfg.heads, cfg.heads + cfg.latent:w1.shape[0]]
    u = ad.matmul(h, w1[sum_rows])
    pair_sum = ad.add(ad.reshape(u, (n, 1, cfg.edge_hidden)),
                      ad.reshape(u, (1, n, cfg.edge_hidden)))
    pre = ad.add(ad.linear(ad.concat(maps + [pair_prod, raw], axis=1), w1[other_rows],
                           params["head2d.l1.b"]),
                 ad.reshape(pair_sum, (n * n, cfg.edge_hidden)))
    edge = ad.linear(ad.silu(pre), params["head2d.l2.w"], params["head2d.l2.b"])  # (n*n, e)
    mirror = np.arange(n * n).reshape(n, n).T.reshape(n * n)
    sym = ad.mul(ad.add(edge, edge[mirror]), Tensor(0.5 * (1.0 - np.eye(n)).reshape(n * n, 1)))
    return ad.reshape(sym, (n, n, cfg.e_width))


def score_h(latent, params):
    """Invariant atom-feature score (row-wise MLP on the latent)."""
    return _mlp2(latent.node_h, params, "headh")


def project(latent, params, cfg):
    """Contrastive projection: 2-layer MLP on the pooled latent, unit norm."""
    x = ad.reshape(latent.pooled, (1, cfg.latent))
    out = _mlp2(x, params, "proj")
    norm = ad.sqrt(ad.add(ad.sum_(ad.square(out)), Tensor(1e-12)))
    return ad.reshape(ad.div(out, norm), (cfg.d_contrast,))


# -- full forward --------------------------------------------------------

# Pair rows (sum of n^2 over conditioners, inputs and anchors) one detached
# forward encodes at once; each row costs a few KB of working arrays across
# encoders and heads.
MAX_PAIR_ROWS = 1 << 14


def forward(params, cfg, conds, inputs, times, anchors=None):
    """Run the full pipeline on a batch of (conditioner, input, time) triples.

    Returns one dict per triple: the latent, its unit-norm projection and the
    three O(1) score heads on the input (callers scale them by 1/beta(t), a
    noise-prediction parametrization well-conditioned near t = 0). With
    ``anchors``, each dict also holds ``"anchor"``, the projection of the
    latent of (conditioner, anchor, time): the molecule's contrastive view.

    The clean branch encodes all conditioners in one pass and the noisy branch
    all inputs and anchors in another. Pair features are computed once per
    distinct positions array and the time embedding once per triple. On
    detached parameters a batch of more than ``MAX_PAIR_ROWS`` pair rows runs
    as its two halves, so callers hand over their whole set and the working
    arrays of one call stay bounded. On trainable parameters the batch runs
    whole: every half's tape would live until backward, so halving would not
    lower the peak.
    """
    views = [*inputs, *(anchors or [])]
    if (len(conds) > 1 and sum(m.n * m.n for m in [*conds, *views]) > MAX_PAIR_ROWS
            and not any(p.requires_grad for p in params.values())):
        h = len(conds) // 2
        return (forward(params, cfg, conds[:h], inputs[:h], times[:h], anchors and anchors[:h])
                + forward(params, cfg, conds[h:], inputs[h:], times[h:], anchors and anchors[h:]))
    positions = {id(m.P): m.P for m in [*conds, *views]}  # each distinct array once
    rbf = {key: rbf_features(p, cfg) for key, p in positions.items()}
    f0 = encode(conds, params, cfg, "enc_clean", [rbf[id(m.P)] for m in conds])
    ft = encode(views, params, cfg, "enc_noisy", [rbf[id(m.P)] for m in views])
    outs = []
    for i, (cond, xt, t) in enumerate(zip(conds, inputs, times)):
        emb = fourier_embed(t, cfg.d_time)
        latent = _latent(f0[i], ft[i], cond, xt, emb, params, cfg)
        out = {"latent": latent, "projection": project(latent, params, cfg),
               "score_P": score_3d(latent, molecule_frames(xt.P), params),
               "score_E": score_2d(latent, params, cfg, cond.E, xt.E),
               "score_H": score_h(latent, params)}
        if anchors:
            anchor = _latent(f0[i], ft[len(inputs) + i], cond, anchors[i], emb, params, cfg)
            out["anchor"] = project(anchor, params, cfg)
        outs.append(out)
    return outs


def _latent(f0, ft, x0, xt, emb, params, cfg):
    """Latent of one molecule from its clean and noisy branch encodings."""
    node = fuse(f0, ft, emb, params, cfg)
    return fuse_gcn(node, edge_condition(x0.E, xt.E, emb, params, cfg), params, cfg)
