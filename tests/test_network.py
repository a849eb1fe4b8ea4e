import numpy as np
import pytest

from conftest import random_molecule, small_net_config, toy_corpus
from mjae import autodiff as ad
from mjae import network
from mjae.autodiff import Tensor
from mjae.evalsuite import random_rotation
from mjae.molgraph import (DenseTensors, ELEMENT_INDEX, ELEMENTS, N_BOND_CATEGORIES,
                           feature_width, make_graph, permute, to_dense)
from mjae.network import (LatentRepresentation, NetworkConfig, detach_params,
                          edge_condition, encode, forward, fourier_embed,
                          fourier_frequencies, fuse, fuse_gcn, init_params,
                          project, rbf_features, score_2d, score_3d, score_h)
from mjae.frames import molecule_frames


@pytest.fixture
def cfg():
    return small_net_config()


@pytest.fixture
def params(cfg):
    return init_params(cfg, np.random.default_rng(0))


def _dense(rng, n_heavy=2):
    return to_dense(random_molecule(rng, n_heavy))


@pytest.mark.parametrize("field, value, message", [
    ("latent", 0, "NetworkConfig.latent must be >= 1, got 0"),
    ("heads", -2, "NetworkConfig.heads must be >= 1, got -2"),
    ("d_time", 7, "NetworkConfig.d_time must be even, got 7"),
])
def test_network_config_names_an_unusable_field(field, value, message):
    with pytest.raises(ValueError, match=message):
        NetworkConfig(**{field: value})


# -- time embedding -------------------------------------------------------

def test_fourier_t0():
    emb = fourier_embed(0.0, 16)
    assert np.all(emb[:8] == 0.0)
    assert np.all(emb[8:] == 1.0)


def test_fourier_array_matches_stacked_scalars():
    t = np.concatenate([[0.0, 1.0], np.random.default_rng(5).uniform(size=515)])
    for d in (8, 16, 64):
        emb = fourier_embed(t, d)
        assert emb.shape == (t.size, d)
        assert np.array_equal(emb, np.stack([fourier_embed(float(x), d) for x in t]))
    assert fourier_embed(t.reshape(11, 47), 16).shape == (11, 47, 16)


def test_fourier_ladder_is_shared_and_read_only():
    freqs = fourier_frequencies(16)
    assert fourier_frequencies(16) is freqs
    assert np.array_equal(freqs, np.geomspace(1.0, 128.0, 8))
    with pytest.raises(ValueError):
        freqs[0] = 2.0


def test_fourier_lipschitz():
    d = 16
    c = 2.0 * np.pi * fourier_frequencies(d).max() * np.sqrt(d)
    grid = np.linspace(0.0, 1.0, 400)
    embs = np.stack([fourier_embed(t, d) for t in grid])
    for i in range(0, 400, 37):
        for j in range(i + 1, 400, 53):
            dist = np.linalg.norm(embs[i] - embs[j])
            assert dist <= c * abs(grid[i] - grid[j]) + 1e-12


def test_fourier_no_collisions_on_grid():
    grid = np.linspace(1e-3, 1.0, 1000)
    embs = np.stack([fourier_embed(t, 16) for t in grid])
    # adjacent points are the closest pair for a smooth embedding
    diffs = np.linalg.norm(np.diff(embs, axis=0), axis=1)
    assert diffs.min() > 0.0
    sample = embs[::50]
    d2 = ((sample[:, None, :] - sample[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    assert d2.min() > 0.0


# -- encoder --------------------------------------------------------------

def _encode(mols, params, cfg, branch):
    return encode(mols, params, cfg, branch, [rbf_features(m.P, cfg) for m in mols])


def test_encode_rigid_motion_invariance(cfg, params, rng):
    dense = _dense(rng)
    base = _encode([dense], params, cfg, "enc_clean")[0].data
    for _ in range(5):
        r = random_rotation(rng)
        moved = DenseTensors(H=dense.H, E=dense.E, P=dense.P @ r.T + rng.standard_normal(3))
        got = _encode([moved], params, cfg, "enc_clean")[0].data
        assert np.abs(got - base).max() < 1e-5


def test_encode_permutation_equivariance(cfg, params, rng):
    g = random_molecule(rng, 2)
    perm = rng.permutation(g.n)
    base = _encode([to_dense(g)], params, cfg, "enc_clean")[0].data
    got = _encode([to_dense(permute(g, perm))], params, cfg, "enc_clean")[0].data
    assert np.abs(got - base[perm]).max() < 1e-9


def test_encode_symmetric_molecule_identical_features(cfg, params):
    # linear CO2: the two oxygens have identical neighborhoods
    types = [ELEMENT_INDEX["C"], ELEMENT_INDEX["O"], ELEMENT_INDEX["O"]]
    bonds = np.zeros((3, 3), dtype=int)
    bonds[0, 1] = bonds[1, 0] = 2
    bonds[0, 2] = bonds[2, 0] = 2
    pos = [[0.0, 0, 0], [1.16, 0, 0], [-1.16, 0, 0]]
    g = make_graph(types, [0, 0, 0], bonds, pos)
    f = _encode([to_dense(g)], params, cfg, "enc_clean")[0].data
    assert np.abs(f[1] - f[2]).max() < 1e-6


def _molecule_of(rng, n):
    """DenseTensors of n atoms: random types, one-hot H, and positions in a
    2.4-wide cube, so every pair is within the cutoff."""
    H = np.zeros((n, feature_width()))
    H[np.arange(n), rng.integers(0, len(ELEMENTS), size=n)] = 1.0
    H[:, len(ELEMENTS)] = 1.0
    return DenseTensors(H=H, E=np.zeros((n, n, N_BOND_CATEGORIES)),
                        P=rng.uniform(-1.2, 1.2, size=(n, 3)))


def test_batched_encode_matches_molecules_alone(cfg, params, rng):
    """One ragged pass over molecules of 1, 2, 5 and 14 atoms gives each
    molecule's features and gradients as encoding it alone does."""
    mols = [_molecule_of(rng, n) for n in (1, 2, 5, 14)]
    weights = [rng.standard_normal((m.n, cfg.latent)) for m in mols]

    def grads_of(groups):
        leaves = {k: Tensor(v.data, requires_grad=True) for k, v in params.items()}
        feats = [f for group in groups for f in _encode(group, leaves, cfg, "enc_noisy")]
        loss = ad.sum_(ad.mul(feats[0], Tensor(weights[0])))
        for f, w in zip(feats[1:], weights[1:]):
            loss = ad.add(loss, ad.sum_(ad.mul(f, Tensor(w))))
        ad.backward(loss)
        return [f.data for f in feats], {k: v.grad for k, v in leaves.items()
                                         if v.grad is not None}

    batched, batched_grads = grads_of([mols])
    alone, alone_grads = grads_of([[m] for m in mols])
    for got, ref in zip(batched, alone):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert set(batched_grads) == set(alone_grads)
    assert all(k.startswith("enc_noisy.") for k in batched_grads)
    for name, ref in alone_grads.items():
        assert np.linalg.norm(batched_grads[name] - ref) <= 1e-12 * np.linalg.norm(ref), name


# -- fusion ---------------------------------------------------------------

def test_fuse_zero_weights(cfg, params, rng):
    dense = _dense(rng)
    f = _encode([dense], params, cfg, "enc_clean")[0]
    zeroed = {k: Tensor(np.zeros_like(v.data)) for k, v in params.items()}
    out = fuse(f, f, fourier_embed(0.3, cfg.d_time), zeroed, cfg)
    assert np.all(out.data == 0.0)


def test_fuse_sensitive_to_clean_branch(cfg, params, rng):
    dense = _dense(rng)
    f0 = _encode([dense], params, cfg, "enc_clean")[0]
    ft = _encode([dense], params, cfg, "enc_noisy")[0]
    emb = fourier_embed(0.3, cfg.d_time)
    base = fuse(f0, ft, emb, params, cfg).data
    shuffled = Tensor(f0.data[::-1].copy())
    other = fuse(shuffled, ft, emb, params, cfg).data
    assert np.abs(base - other).max() > 0.0


def test_fuse_size_mismatch(cfg, params):
    a = Tensor(np.zeros((3, cfg.latent)))
    b = Tensor(np.zeros((4, cfg.latent)))
    with pytest.raises(ad.ShapeError, match="fuse"):
        fuse(a, b, fourier_embed(0.1, cfg.d_time), params, cfg)


def test_edge_condition_symmetry_and_permutation(cfg, params, rng):
    g = random_molecule(rng, 2)
    dense = to_dense(g)
    emb = fourier_embed(0.4, cfg.d_time)
    w = edge_condition(dense.E, dense.E, emb, params, cfg).data
    assert np.array_equal(w, w.T)
    assert np.all(np.diag(w) == 0.0)
    perm = rng.permutation(g.n)
    pe = to_dense(permute(g, perm)).E
    wp = edge_condition(pe, pe, emb, params, cfg).data
    assert np.abs(wp - w[np.ix_(perm, perm)]).max() < 1e-9


def test_edge_condition_zero_weights(cfg, params, rng):
    dense = _dense(rng)
    zeroed = {k: Tensor(np.zeros_like(v.data)) for k, v in params.items()}
    w = edge_condition(dense.E, dense.E, fourier_embed(0.2, cfg.d_time), zeroed, cfg)
    assert np.all(w.data == 0.0)


def test_fuse_gcn_zero_adjacency_residual_path(cfg, params, rng):
    n = 4
    node = Tensor(rng.standard_normal((n, cfg.latent)))
    w = Tensor(np.zeros((n, n)))
    latent = fuse_gcn(node, w, params, cfg)
    # W = 0: each layer adds silu(bias) rows only
    expect = node.data.copy()
    for layer in range(cfg.gcn_layers):
        b = params[f"gcn.l{layer}.b"].data
        expect = expect + b / (1.0 + np.exp(-b))
    assert np.abs(latent.node_h.data - expect).max() < 1e-12
    assert np.abs(latent.pooled.data - latent.node_h.data.mean(axis=0)).max() < 1e-12


def test_fuse_gcn_closed_form_single_layer(rng):
    cfg = NetworkConfig(latent=6, rounds=1, n_rbf=4, gcn_layers=1, heads=1,
                        head_dim=4, d_time=4, d_contrast=4, hidden=8, edge_hidden=4)
    params = init_params(cfg, rng)
    n = 5
    h = rng.standard_normal((n, cfg.latent))
    w = rng.standard_normal((n, n))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    got = fuse_gcn(Tensor(h), Tensor(w), params, cfg).node_h.data
    # independent numpy replication
    deg = np.abs(w).sum(axis=1) + 1.0
    dinv = 1.0 / np.sqrt(deg)
    wn = w * dinv[:, None] * dinv[None, :]
    pre = wn @ h @ params["gcn.l0.w"].data + params["gcn.l0.b"].data
    expect = h + pre / (1.0 + np.exp(-pre))
    assert np.abs(got - expect).max() < 1e-10


# -- heads ----------------------------------------------------------------

def _latent(cfg, params, dense, t=0.5):
    return forward(params, cfg, [dense], [dense], [t])[0]["latent"]


def test_score_3d_zero_head_weights(cfg, params, rng):
    dense = _dense(rng)
    latent = _latent(cfg, params, dense)
    frames = molecule_frames(dense.P)
    zeroed = dict(params)
    for k in ("head3d.l1.w", "head3d.l1.b", "head3d.l2.w", "head3d.l2.b"):
        zeroed[k] = Tensor(np.zeros_like(params[k].data))
    assert np.all(score_3d(latent, frames, zeroed).data == 0.0)


def test_score_3d_zero_com(cfg, params, rng):
    dense = _dense(rng)
    latent = _latent(cfg, params, dense)
    frames = molecule_frames(dense.P)
    field = score_3d(latent, frames, params).data
    assert np.abs(field.mean(axis=0)).max() < 1e-12


def test_score_2d_symmetric_zero_diag(cfg, params, rng):
    dense = _dense(rng)
    latent = _latent(cfg, params, dense)
    out = score_2d(latent, params, cfg, dense.E, dense.E).data
    assert np.array_equal(out, np.swapaxes(out, 0, 1))
    n = out.shape[0]
    assert np.all(out[np.arange(n), np.arange(n)] == 0.0)


def test_score_h_zero_weights(cfg, params, rng):
    dense = _dense(rng)
    latent = _latent(cfg, params, dense)
    zeroed = dict(params)
    for k in ("headh.l1.w", "headh.l1.b", "headh.l2.w", "headh.l2.b"):
        zeroed[k] = Tensor(np.zeros_like(params[k].data))
    assert np.all(score_h(latent, zeroed).data == 0.0)


def test_project_unit_norm(cfg, params, rng):
    dense = _dense(rng)
    latent = _latent(cfg, params, dense)
    emb = project(latent, params, cfg).data
    assert abs(np.linalg.norm(emb) - 1.0) < 1e-6


def test_project_distinct_molecules(cfg, params):
    embs = []
    for g in toy_corpus(count=10, seed=5):
        latent = _latent(cfg, params, to_dense(g))
        embs.append(project(latent, params, cfg).data)
    embs = np.stack(embs)
    d2 = ((embs[:, None, :] - embs[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    assert d2.min() > 0.0


# -- full forward ---------------------------------------------------------

def test_forward_symmetries(cfg, params, rng):
    dense = _dense(rng, n_heavy=3)
    base = forward(params, cfg, [dense], [dense], [0.5])[0]
    for _ in range(5):
        r = random_rotation(rng)
        moved = DenseTensors(H=dense.H, E=dense.E, P=dense.P @ r.T)
        got = forward(params, cfg, [moved], [moved], [0.5])[0]
        assert np.abs(got["score_P"].data - base["score_P"].data @ r.T).max() < 1e-4
        assert np.abs(got["score_E"].data - base["score_E"].data).max() < 1e-5
        assert np.abs(got["score_H"].data - base["score_H"].data).max() < 1e-5
        assert np.abs(got["projection"].data - base["projection"].data).max() < 1e-5


def test_forward_gradients_flow_to_all_heads(cfg, params, rng):
    dense = _dense(rng)
    out = forward(params, cfg, [dense], [dense], [0.5])[0]
    loss = ad.add(ad.sum_(ad.square(out["score_P"])),
                  ad.add(ad.sum_(ad.square(out["score_E"])),
                         ad.add(ad.sum_(ad.square(out["score_H"])),
                                ad.sum_(ad.square(out["projection"])))))
    ad.backward(loss)
    touched = [k for k, p in params.items() if p.grad is not None
               and np.abs(p.grad).max() > 0]
    for prefix in ("enc_clean", "enc_noisy", "fuse", "edge", "gcn", "att",
                   "head2d", "head3d", "headh", "proj"):
        assert any(k.startswith(prefix) for k in touched), prefix


def test_batched_forward_matches_molecules_alone(cfg, params, rng, monkeypatch):
    """One forward over triples of 1, 2, 5 and 14 atoms gives each triple's
    outputs, anchor view and gradients as a forward of that triple alone. Over
    a pair-row budget, a forward on detached parameters splits in halves with
    the same outputs; one on trainable parameters runs whole."""
    conds = [_molecule_of(rng, n) for n in (1, 2, 5, 14)]
    inputs = [DenseTensors(H=m.H + 0.3 * rng.standard_normal(m.H.shape),
                           E=m.E + 0.3 * rng.standard_normal(m.E.shape),
                           P=m.P + 0.2 * rng.standard_normal(m.P.shape)) for m in conds]
    times = [0.1, 0.4, 0.7, 0.95]
    keys = ("projection", "anchor", "score_P", "score_E", "score_H")

    def run(groups, trainable=True):
        leaves = {k: Tensor(v.data, requires_grad=trainable) for k, v in params.items()}
        outs = [out for idx in groups for out in forward(
            leaves, cfg, [conds[i] for i in idx], [inputs[i] for i in idx],
            [times[i] for i in idx], anchors=[conds[i] for i in idx])]
        values = [{k: out[k].data for k in keys} | {"latent": out["latent"].node_h.data}
                  for out in outs]
        if not trainable:
            return values, None
        # a fixed random linear functional of every output (the projections
        # have unit norm, so their squares would have no gradient)
        terms = [ad.sum_(ad.mul(out[k], Tensor(np.random.default_rng([i, j]).standard_normal(
            out[k].shape)))) for i, out in enumerate(outs) for j, k in enumerate(keys)]
        loss = terms[0]
        for term in terms[1:]:
            loss = ad.add(loss, term)
        ad.backward(loss)
        return values, {k: v.grad for k, v in leaves.items() if v.grad is not None}

    batched, batched_grads = run([range(4)])
    alone, alone_grads = run([[i] for i in range(4)])
    for got, ref in zip(batched, alone, strict=True):
        for k in ref:
            assert np.linalg.norm(got[k] - ref[k]) <= 1e-12 * np.linalg.norm(ref[k]), k
    assert set(batched_grads) == set(alone_grads) == set(params)
    for name, ref in alone_grads.items():
        assert np.linalg.norm(batched_grads[name] - ref) <= 1e-12 * np.linalg.norm(ref), name

    # 3 n^2 pair rows per triple (conditioner, input, anchor) against a budget
    # of 150: the detached batch halves, then its second half halves again
    encoded, real_encode = [], network.encode
    monkeypatch.setattr(network, "MAX_PAIR_ROWS", 150)
    monkeypatch.setattr(network, "encode", lambda mols, *rest: encoded.append(
        [m.n for m in mols]) or real_encode(mols, *rest))
    split, _ = run([range(4)], trainable=False)
    # the calls over budget hold the views of one molecule only
    assert encoded == [[1, 2], [1, 2, 1, 2], [5], [5, 5], [14], [14, 14]]
    for got, ref in zip(split, batched, strict=True):
        for k in ref:
            assert np.linalg.norm(got[k] - ref[k]) <= 1e-12 * np.linalg.norm(ref[k]), k
    # every half's tape would live until backward, so a trainable batch runs whole
    encoded.clear()
    whole, whole_grads = run([range(4)])
    assert encoded == [[1, 2, 5, 14], [1, 2, 5, 14] * 2]
    for got, ref in zip(whole, batched, strict=True):
        for k in ref:
            assert np.array_equal(got[k], ref[k]), k
    assert all(np.array_equal(whole_grads[k], v) for k, v in batched_grads.items())


def test_detach_params(cfg, params):
    frozen = detach_params(params)
    assert all(not v.requires_grad for v in frozen.values())
    assert all(frozen[k].data is params[k].data for k in params)
