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
batch of (conditioner, input, time) triples, owns every encoding and runs
every stage after the encoders once over the whole batch. Atom rows and pair
rows (n^2 per molecule) of all molecules are stacked, and each GEMM and
reduction makes one stacked numpy call per run of equal-size molecules
(``autodiff``'s block primitives). Frames and pair features likewise take a
(k, n, 3) stack of positions. Each stacked call repeats, molecule by
molecule, the call a forward of that molecule alone makes, so a molecule's
outputs are bit for bit those of a forward of it alone. Callers bound their
own batches: sampling, eval and the probe advance in ``self_paired_groups``,
and a training batch runs whole.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import groupby

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
    node_h: Tensor   # (N, L) invariant node features, atom rows of all molecules
    pooled: Tensor   # (B, L) mean-pooled graph embedding of each molecule
    sizes: tuple     # atoms per molecule


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


def param_shapes(cfg):
    """Name -> shape of every parameter the config fixes, in the order
    ``init_params`` draws them: (fan_in, fan_out) for a matrix, (fan_out,)
    for the bias of a dense layer."""
    shapes = {}

    def dense(name, fan_in, fan_out):
        shapes[f"{name}.w"] = (fan_in, fan_out)
        shapes[f"{name}.b"] = (fan_out,)

    for branch in ("enc_clean", "enc_noisy"):
        shapes[f"{branch}.embed"] = (cfg.h_width, cfg.latent)
        for k in range(cfg.rounds):
            shapes[f"{branch}.r{k}.filter"] = (cfg.n_rbf, cfg.latent)
            shapes[f"{branch}.r{k}.msg"] = (cfg.latent, cfg.latent)
            dense(f"{branch}.r{k}.upd", 2 * cfg.latent, cfg.latent)

    dense("fuse.l1", cfg.d_time + 2 * cfg.latent, cfg.latent)
    dense("fuse.l2", cfg.latent, cfg.latent)
    dense("edge.l1", cfg.d_time + 2 * cfg.e_width, cfg.edge_hidden)
    dense("edge.l2", cfg.edge_hidden, 1)
    for layer in range(cfg.gcn_layers):
        dense(f"gcn.l{layer}", cfg.latent, cfg.latent)
    for head in range(cfg.heads):
        shapes[f"att.h{head}.q"] = (cfg.latent, cfg.head_dim)
        shapes[f"att.h{head}.k"] = (cfg.latent, cfg.head_dim)
    dense("head2d.l1", cfg.heads + 2 * cfg.latent + 2 * cfg.e_width, cfg.edge_hidden)
    dense("head2d.l2", cfg.edge_hidden, cfg.e_width)
    dense("head3d.l1", cfg.latent, cfg.hidden)
    dense("head3d.l2", cfg.hidden, 3)
    dense("headh.l1", cfg.latent, cfg.hidden)
    dense("headh.l2", cfg.hidden, cfg.h_width)
    dense("proj.l1", cfg.latent, cfg.hidden)
    dense("proj.l2", cfg.hidden, cfg.d_contrast)
    return shapes


def init_params(cfg, rng):
    """Named parameter map of ``param_shapes(cfg)``: each matrix is drawn from
    ``rng`` in that order, each bias is zero."""
    return {name: Tensor(_dense_init(rng, *shape) if len(shape) == 2 else np.zeros(shape),
                         requires_grad=True)
            for name, shape in param_shapes(cfg).items()}


def detach_params(params):
    """Gradient-free view of the parameters (shared buffers) for inference."""
    return {k: Tensor(v.data) for k, v in params.items()}


def _mlp2(x, params, prefix, rows=None, act=ad.silu):
    h = act(ad.linear(x, params[f"{prefix}.l1.w"], params[f"{prefix}.l1.b"], rows))
    return ad.linear(h, params[f"{prefix}.l2.w"], params[f"{prefix}.l2.b"], rows)


# -- encoder -------------------------------------------------------------

def rbf_features(positions, cfg):
    """Smooth radial basis expansion of pairwise distances within the cutoff:
    one row per ordered atom pair (i, j), in row-major (i, j) order. A stack
    (k, n, 3) of k molecules of n atoms gives each molecule's rows,
    (k, n^2, n_rbf), bit for bit those of that molecule alone."""
    n = positions.shape[-2]
    d = np.linalg.norm(positions[..., :, None, :] - positions[..., None, :, :], axis=-1)
    centers = np.linspace(0.0, DEFAULT_CUTOFF, cfg.n_rbf)
    gamma = (cfg.n_rbf / DEFAULT_CUTOFF) ** 2
    rbf = np.exp(-gamma * (d[..., None] - centers) ** 2)
    envelope = 0.5 * (np.cos(np.pi * np.clip(d / DEFAULT_CUTOFF, 0.0, 1.0)) + 1.0)
    envelope[..., range(n), range(n)] = 0.0
    return (rbf * envelope[..., None]).reshape(positions.shape[:-2] + (n * n, cfg.n_rbf))


def encode(mols, params, cfg, branch, rbf):
    """Invariant node features of the DenseTensors in ``mols`` from
    distance-featurized message passing: their atom rows, (N, L).

    ``rbf`` holds each molecule's ``rbf_features`` rows. The molecules run as
    one ragged batch: each round is a few tape nodes over all atoms and pairs,
    inside which every molecule's GEMMs run as its own block.
    """
    sizes = [m.n for m in mols]
    pair_rbf = Tensor(np.concatenate(rbf))  # (sum n_b^2, n_rbf) constant
    h = ad.matmul(Tensor(np.concatenate([m.H for m in mols])), params[f"{branch}.embed"], sizes)
    for k in range(cfg.rounds):
        x = ad.matmul(h, params[f"{branch}.r{k}.msg"], sizes)
        msgs = ad.ragged_message(pair_rbf, x, sizes, params[f"{branch}.r{k}.filter"])
        upd = ad.linear(ad.concat([h, msgs], axis=1), params[f"{branch}.r{k}.upd.w"],
                        params[f"{branch}.r{k}.upd.b"], sizes)
        h = ad.add(h, ad.silu(upd))
    return h


# -- fusion --------------------------------------------------------------

def _pair_rows(sizes):
    """Atom rows i and j of each pair row (i, j) of molecules of ``sizes``
    atoms, and the pair row of (j, i)."""
    sizes = np.asarray(sizes)
    rows = sizes * sizes
    mol = np.repeat(np.arange(len(sizes)), rows)  # molecule of each pair row
    atom0 = (np.cumsum(sizes) - sizes)[mol]        # its first atom row
    row0 = (np.cumsum(rows) - rows)[mol]           # and first pair row
    n = sizes[mol]
    i, j = np.divmod(np.arange(len(mol)) - row0, n)
    return atom0 + i, atom0 + j, row0 + j * n + i


def _symmetrize(values, pairs):
    """(v_ij + v_ji) / 2 off the diagonal and 0 on it, for pair rows (P, ...)
    indexed by ``pairs``, their ``_pair_rows``."""
    i, j, mirror = pairs
    return ad.mul(ad.add(values, values[mirror]), Tensor(np.where(i == j, 0.0, 0.5)[:, None]))


def _pair_channels(mols):
    """Bond channels of each molecule's atom pairs as pair rows, (P, e)."""
    return np.concatenate([np.asarray(m.E, dtype=np.float64).reshape(m.n * m.n, -1)
                           for m in mols])


def fuse(f0, ft, emb, params, sizes):
    """Row-wise MLP of [Emd(t) | f0 | ft] -> 3D node representation, over the
    atom rows of molecules of ``sizes`` atoms; ``emb`` holds each molecule's
    time embedding."""
    if f0.shape[0] != ft.shape[0]:
        raise ad.ShapeError(f"fuse: branch sizes differ ({f0.shape[0]} vs {ft.shape[0]})")
    emb_rows = Tensor(np.repeat(emb, sizes, axis=0))
    return _mlp2(ad.concat([emb_rows, f0, ft], axis=1), params, "fuse", sizes)


def edge_condition(e0, et, emb, params, sizes, pairs):
    """Weighted adjacency from the per-edge MLP of [Emd(t) | E0 | Et], as one
    value per pair row of molecules of ``sizes`` atoms, (P, 1).

    ``e0`` and ``et`` are the pair rows (P, e) of the bond channels, and
    ``pairs`` their ``_pair_rows(sizes)``. Symmetrized by averaging with the
    transpose; zero diagonal.
    """
    if e0.shape != et.shape:
        raise ad.ShapeError(f"edge_condition: shapes differ ({e0.shape} vs {et.shape})")
    rows = [n * n for n in sizes]
    flat = np.concatenate([np.repeat(emb, rows, axis=0), e0, et], axis=1)
    return _symmetrize(_mlp2(Tensor(flat), params, "edge", rows), pairs)


def fuse_gcn(node, w, params, cfg, sizes, pairs):
    """Dense residual GCN: h <- h + silu(norm(W) h theta + b), then mean pool,
    on each molecule's atom rows of ``node`` and pair rows of ``w`` (indexed
    by ``pairs``, their ``_pair_rows(sizes)``).

    norm(W) is the symmetric degree normalization with degrees from |W| (+1
    self weight) so it stays defined for signed adjacencies.
    """
    # deg_i = sum_j |w_ij| + 1: the message of |W| over all-ones atom rows
    deg = ad.add(ad.ragged_message(ad.abs_(w), Tensor(np.ones((node.shape[0], 1))), sizes),
                 Tensor(1.0))
    dinv = ad.div(Tensor(1.0), ad.sqrt(deg))
    i, j, _ = pairs
    w_norm = ad.mul(ad.mul(w, dinv[i]), dinv[j])
    h = node
    for layer in range(cfg.gcn_layers):
        mixed = ad.linear(ad.pair_matmul(w_norm, h, sizes), params[f"gcn.l{layer}.w"],
                          params[f"gcn.l{layer}.b"], sizes)
        h = ad.add(h, ad.silu(mixed))
    return LatentRepresentation(node_h=h, pooled=ad.block_mean(h, sizes), sizes=tuple(sizes))


# -- heads ---------------------------------------------------------------

def score_3d(coeffs, basis, sizes):
    """Equivariant position score: each node's invariant head3d coefficients
    (N, 3) tensorized with its frame (``basis``, (N, 3, 3) rows e1..e3),
    projected to each molecule's zero-CoM subspace."""
    n = coeffs.shape[0]
    # field_n = sum_k c_nk e_nk
    field = ad.sum_(ad.mul(ad.reshape(coeffs, (n, 3, 1)), Tensor(basis)), axis=1)
    centre = ad.block_mean(field, sizes)
    return ad.sub(field, centre[np.repeat(np.arange(len(sizes)), sizes)])


def score_2d(latent, params, cfg, e0, et, pairs):
    """Invariant edge score: multi-head attention maps, symmetric pairwise
    node features, and the raw per-edge channels of the conditioner and noisy
    edge tensors (pair rows (P, e), indexed by ``pairs``, their
    ``_pair_rows``) -> per-edge MLP, symmetric with zero diagonal: pair rows
    (P, e)."""
    h, sizes = latent.node_h, latent.sizes
    rows = [n * n for n in sizes]
    scale = 1.0 / np.sqrt(cfg.head_dim)
    maps = []
    for head in range(cfg.heads):
        q = ad.matmul(h, params[f"att.h{head}.q"], sizes)
        k = ad.matmul(h, params[f"att.h{head}.k"], sizes)
        maps.append(ad.pair_softmax(ad.mul(ad.pair_inner(q, k, sizes), Tensor(scale)), sizes))
    pair_prod = ad.pair_outer(h, sizes, np.multiply)
    raw = Tensor(np.concatenate([e0, et], axis=1))
    # l1 reads rows [maps | h_i + h_j | h_i * h_j | raw]; its pair-sum block is
    # (h_i + h_j) W_s = u_i + u_j with u = h W_s, so no (P, L) sum is built
    w1 = params["head2d.l1.w"]
    sum_rows = slice(cfg.heads, cfg.heads + cfg.latent)
    other_rows = np.r_[0:cfg.heads, cfg.heads + cfg.latent:w1.shape[0]]
    u = ad.matmul(h, w1[sum_rows], sizes)
    pre = ad.add(ad.linear(ad.concat(maps + [pair_prod, raw], axis=1), w1[other_rows],
                           params["head2d.l1.b"], rows),
                 ad.pair_outer(u, sizes, np.add))
    edge = ad.linear(ad.silu(pre), params["head2d.l2.w"], params["head2d.l2.b"], rows)
    return _symmetrize(edge, pairs)


def score_h(latent, params):
    """Invariant atom-feature score (row-wise MLP on the latent)."""
    return _mlp2(latent.node_h, params, "headh", latent.sizes)


def project(pooled, params):
    """Contrastive projection: 2-layer MLP on each pooled latent row (B, L),
    unit norm: (B, d_contrast)."""
    out = _mlp2(pooled, params, "proj", [1] * pooled.shape[0])
    norm = ad.sqrt(ad.add(ad.sum_(ad.square(out), axis=1), Tensor(1e-12)))
    return ad.div(out, ad.reshape(norm, (pooled.shape[0], 1)))


# -- full forward --------------------------------------------------------

# Pair rows (sum of n^2 over conditioners and inputs) one group of
# ``self_paired_groups`` encodes at once; each row costs a few KB of working
# arrays across encoders and heads.
MAX_PAIR_ROWS = 1 << 14


def self_paired_groups(sizes):
    """Consecutive slices of molecules of ``sizes`` atoms, each as many as one
    self-paired call (a molecule as its own conditioner, 2 n^2 pair rows)
    holds within ``MAX_PAIR_ROWS``, and at least one molecule."""
    start = rows = 0
    for end, n in enumerate(sizes):
        if end > start and rows + 2 * n * n > MAX_PAIR_ROWS:
            yield slice(start, end)
            start, rows = end, 0
        rows += 2 * n * n
    if len(sizes) > start:
        yield slice(start, len(sizes))


def latents(params, cfg, conds, inputs, times, anchors=None):
    """Latent stage of ``forward``: the record ``{"latent", "pairs"}`` of the
    (conditioner, input, time) triples (``"pairs"`` is the ``_pair_rows``
    index of their pair rows), plus ``"anchor_pooled"``, the pooled latent
    rows of the (conditioner, anchor, time) triples, with ``anchors``.

    The clean branch encodes all conditioners in one pass and the noisy branch
    all inputs and anchors in another. Pair features are computed once per
    distinct positions array, in one call per atom count, and the times are
    embedded in one call. Fuse, edge MLP and GCN then run once over the input
    and anchor views together, on one pair-row index of the views; the inputs
    come first, so their index is its first rows.
    """
    sizes = [m.n for m in inputs]
    if [m.n for m in conds] != sizes or (anchors and [m.n for m in anchors] != sizes):
        raise ad.ShapeError("forward: conditioner, input and anchor sizes differ")
    views = [*inputs, *(anchors or [])]
    distinct = {id(m.P): m.P for m in [*conds, *views]}.values()  # each array once
    rbf = {}
    for _, run in groupby(sorted(distinct, key=len), key=len):  # one run per atom count
        run = list(run)
        rbf.update(zip(map(id, run), rbf_features(np.stack(run), cfg)))
    f0 = encode(conds, params, cfg, "enc_clean", [rbf[id(m.P)] for m in conds])
    ft = encode(views, params, cfg, "enc_noisy", [rbf[id(m.P)] for m in views])
    copies = len(views) // len(inputs)   # the conditioner pairs with each view
    emb = np.tile(fourier_embed(np.asarray(times, dtype=np.float64), cfg.d_time), (copies, 1))
    view_sizes = sizes * copies
    pairs = _pair_rows(view_sizes)
    node = fuse(ad.concat([f0] * copies), ft, emb, params, view_sizes)
    w = edge_condition(_pair_channels(conds * copies), _pair_channels(views), emb, params,
                       view_sizes, pairs)
    latent = fuse_gcn(node, w, params, cfg, view_sizes, pairs)
    if not anchors:
        return {"latent": latent, "pairs": pairs}
    atoms, b, rows = sum(sizes), len(sizes), sum(n * n for n in sizes)
    return {"latent": LatentRepresentation(latent.node_h[:atoms], latent.pooled[:b], tuple(sizes)),
            "anchor_pooled": latent.pooled[b:], "pairs": tuple(a[:rows] for a in pairs)}


def heads(record, params, cfg, conds, inputs):
    """Heads stage of ``forward``: the ``latents`` record of the triples of
    ``conds`` and ``inputs`` with their projections (and anchor projections),
    head3d coefficients and the three score heads on the input."""
    latent = record["latent"]
    out = {"latent": latent, "projection": project(latent.pooled, params)}
    if "anchor_pooled" in record:
        out["anchor"] = project(record["anchor_pooled"], params)
    coeffs = _mlp2(latent.node_h, params, "head3d", latent.sizes)  # (N, 3) invariant
    runs = [np.stack(list(run)) for _, run in groupby([m.P for m in inputs], key=len)]
    basis = np.concatenate([molecule_frames(run).reshape(run.shape[0] * run.shape[1], 3, 3)
                            for run in runs])  # one call per run of equal-size inputs
    out["coeffs_P"] = coeffs
    out["score_P"] = score_3d(coeffs, basis, latent.sizes)
    out["score_E"] = score_2d(latent, params, cfg, _pair_channels(conds), _pair_channels(inputs),
                              record["pairs"])
    out["score_H"] = score_h(latent, params)
    return out


def forward(params, cfg, conds, inputs, times, anchors=None):
    """Run the full pipeline on a batch of (conditioner, input, time) triples.

    Returns one record of the whole batch (split it with ``per_molecule``):
    the ``"latent"`` (with the atoms per triple, ``sizes``), the unit-norm
    ``"projection"`` rows, the head3d coefficients ``"coeffs_P"`` and the
    three O(1) score heads on the input, ``"score_P"`` and ``"score_H"`` as
    atom rows and ``"score_E"`` as pair rows (callers scale them by 1/beta(t),
    a noise-prediction parametrization well-conditioned near t = 0). With
    ``anchors``, it also holds ``"anchor"``, the projections of the latents of
    (conditioner, anchor, time): each molecule's contrastive view.

    The batch runs whole, so callers bound their own batches: detached
    callers advance in ``self_paired_groups``, and a training batch runs
    whole, since the tapes of its parts would all live until backward.
    """
    return heads(latents(params, cfg, conds, inputs, times, anchors), params, cfg,
                 conds, inputs)


def per_molecule(record):
    """One dict of arrays per triple of a ``forward`` record: its
    ``"node_h"`` and score rows (``"score_E"`` as an (n, n, e) block) and its
    pooled, projection and anchor vectors."""
    latent = record["latent"]
    atom_rows = {"node_h": latent.node_h, "coeffs_P": record["coeffs_P"],
                 "score_P": record["score_P"], "score_H": record["score_H"]}
    vectors = {"pooled": latent.pooled, "projection": record["projection"]}
    if "anchor" in record:
        vectors["anchor"] = record["anchor"]
    mols, atom, pair = [], 0, 0
    for b, n in enumerate(latent.sizes):
        mol = {key: rows.data[atom:atom + n] for key, rows in atom_rows.items()}
        mol.update({key: rows.data[b] for key, rows in vectors.items()})
        mol["score_E"] = record["score_E"].data[pair:pair + n * n].reshape(n, n, -1)
        mols.append(mol)
        atom, pair = atom + n, pair + n * n
    return mols
