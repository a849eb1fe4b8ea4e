import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_molecule, small_net_config, toy_corpus
from mjae import autodiff as ad
from mjae import network
from mjae.autodiff import Tensor
from mjae.evalsuite import random_rotation
from mjae.molgraph import (DenseTensors, ELEMENT_INDEX, ELEMENTS, FEATURE_WIDTH,
                           MAX_COORDINATE, N_BOND_CATEGORIES, make_graph, parse_molecule,
                           permute, to_dense)
from mjae.network import (NetworkConfig, detach_params, edge_condition, encode, forward,
                          fourier_embed, fourier_frequencies, fuse, fuse_gcn, init_params,
                          per_molecule, project, rbf_features, score_2d, score_3d, score_h)
from mjae.frames import molecule_frames
from mjae.schedule import NoiseSchedule
from mjae.trajectory import perturb_continuous
from mjae.training import TrainConfig, training_step


# positions (n, 3) whose stacks must not mix molecules: n = 1 and n = 2, a
# line through the origin (every frame falls back to the canonical axes), and
# an atom with no neighbor within the cutoff
_STACK_CLOUDS = {
    "one atom": np.array([[0.3, -0.2, 0.1]]),
    "two atoms": np.array([[0.0, 0.0, 0.7], [0.1, 0.2, -0.7]]),
    "collinear": np.array([[-2.0, 0, 0], [-0.5, 0, 0], [1.0, 0, 0], [1.5, 0, 0]]),
    "empty cutoff ball": np.array([[0.0, 0, 0], [1.0, 0.2, 0], [0.3, 1.1, 0.4],
                                   [9.0, -1.0, 2.0]]),
}

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
    """``encode``'s atom rows, split into one Tensor per molecule."""
    h = encode(mols, params, cfg, branch, [rbf_features(m.P, cfg) for m in mols])
    bounds = np.cumsum([0] + [m.n for m in mols])
    return [h[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


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
    H = np.zeros((n, FEATURE_WIDTH))
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

def _emb(t, cfg):
    """The time embedding of one molecule, as the one row ``fuse`` and
    ``edge_condition`` take per molecule."""
    return fourier_embed(np.array([t]), cfg.d_time)


def _pair_rows(e):
    """An (n, n, e) edge tensor as its n^2 pair rows."""
    return e.reshape(-1, e.shape[-1])


def test_fuse_zero_weights(cfg, params, rng):
    dense = _dense(rng)
    f = _encode([dense], params, cfg, "enc_clean")[0]
    zeroed = {k: Tensor(np.zeros_like(v.data)) for k, v in params.items()}
    out = fuse(f, f, _emb(0.3, cfg), zeroed, [dense.n])
    assert np.all(out.data == 0.0)


def test_fuse_sensitive_to_clean_branch(cfg, params, rng):
    dense = _dense(rng)
    f0 = _encode([dense], params, cfg, "enc_clean")[0]
    ft = _encode([dense], params, cfg, "enc_noisy")[0]
    emb = _emb(0.3, cfg)
    base = fuse(f0, ft, emb, params, [dense.n]).data
    shuffled = Tensor(f0.data[::-1].copy())
    other = fuse(shuffled, ft, emb, params, [dense.n]).data
    assert np.abs(base - other).max() > 0.0


def test_fuse_size_mismatch(cfg, params):
    a = Tensor(np.zeros((3, cfg.latent)))
    b = Tensor(np.zeros((4, cfg.latent)))
    with pytest.raises(ad.ShapeError, match="fuse"):
        fuse(a, b, _emb(0.1, cfg), params, [3])


def test_edge_condition_symmetry_and_permutation(cfg, params, rng):
    g = random_molecule(rng, 2)
    e = _pair_rows(to_dense(g).E)
    emb = _emb(0.4, cfg)
    pairs = network._pair_rows([g.n])
    w = edge_condition(e, e, emb, params, [g.n], pairs).data.reshape(g.n, g.n)
    assert np.array_equal(w, w.T)
    assert np.all(np.diag(w) == 0.0)
    perm = rng.permutation(g.n)
    pe = _pair_rows(to_dense(permute(g, perm)).E)
    wp = edge_condition(pe, pe, emb, params, [g.n], pairs).data.reshape(g.n, g.n)
    assert np.abs(wp - w[np.ix_(perm, perm)]).max() < 1e-9


def test_edge_condition_zero_weights(cfg, params, rng):
    dense = _dense(rng)
    zeroed = {k: Tensor(np.zeros_like(v.data)) for k, v in params.items()}
    e = _pair_rows(dense.E)
    w = edge_condition(e, e, _emb(0.2, cfg), zeroed, [dense.n], network._pair_rows([dense.n]))
    assert np.all(w.data == 0.0)


def test_fuse_gcn_zero_adjacency_residual_path(cfg, params, rng):
    n = 4
    node = Tensor(rng.standard_normal((n, cfg.latent)))
    w = Tensor(np.zeros((n * n, 1)))
    latent = fuse_gcn(node, w, params, cfg, [n], network._pair_rows([n]))
    # W = 0: each layer adds silu(bias) rows only
    expect = node.data.copy()
    for layer in range(cfg.gcn_layers):
        b = params[f"gcn.l{layer}.b"].data
        expect = expect + b / (1.0 + np.exp(-b))
    assert np.abs(latent.node_h.data - expect).max() < 1e-12
    assert np.abs(latent.pooled.data[0] - latent.node_h.data.mean(axis=0)).max() < 1e-12


def test_fuse_gcn_closed_form_single_layer(rng):
    cfg = NetworkConfig(latent=6, rounds=1, n_rbf=4, gcn_layers=1, heads=1,
                        head_dim=4, d_time=4, d_contrast=4, hidden=8, edge_hidden=4)
    params = init_params(cfg, rng)
    n = 5
    h = rng.standard_normal((n, cfg.latent))
    w = rng.standard_normal((n, n))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    got = fuse_gcn(Tensor(h), Tensor(w.reshape(n * n, 1)), params, cfg, [n],
                   network._pair_rows([n])).node_h.data
    # independent numpy replication
    deg = np.abs(w).sum(axis=1) + 1.0
    dinv = 1.0 / np.sqrt(deg)
    wn = w * dinv[:, None] * dinv[None, :]
    pre = wn @ h @ params["gcn.l0.w"].data + params["gcn.l0.b"].data
    expect = h + pre / (1.0 + np.exp(-pre))
    assert np.abs(got - expect).max() < 1e-10


# -- heads ----------------------------------------------------------------

def _latent(cfg, params, dense, t=0.5):
    return forward(params, cfg, [dense], [dense], [t])["latent"]


def test_score_3d_zero_head_weights(cfg, params, rng):
    dense = _dense(rng)
    zeroed = dict(params)
    for k in ("head3d.l1.w", "head3d.l1.b", "head3d.l2.w", "head3d.l2.b"):
        zeroed[k] = Tensor(np.zeros_like(params[k].data))
    out = forward(zeroed, cfg, [dense], [dense], [0.5])
    assert np.all(out["coeffs_P"].data == 0.0)
    assert np.all(out["score_P"].data == 0.0)


def test_score_3d_zero_com(rng):
    """Each molecule's 3D score has zero mean over its own atoms."""
    mols = [_molecule_of(rng, n) for n in (1, 3, 6)]
    coeffs = Tensor(rng.standard_normal((10, 3)))
    basis = np.concatenate([molecule_frames(m.P) for m in mols])
    field = score_3d(coeffs, basis, [1, 3, 6]).data
    for rows in (slice(0, 1), slice(1, 4), slice(4, 10)):
        assert np.abs(field[rows].mean(axis=0)).max() < 1e-12


def test_score_2d_symmetric_zero_diag(cfg, params, rng):
    dense = _dense(rng)
    latent = _latent(cfg, params, dense)
    e = _pair_rows(dense.E)
    n = dense.n
    out = score_2d(latent, params, cfg, e, e, network._pair_rows([n])).data.reshape(n, n, -1)
    assert np.array_equal(out, np.swapaxes(out, 0, 1))
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
    emb = project(latent.pooled, params).data[0]
    assert abs(np.linalg.norm(emb) - 1.0) < 1e-6


def test_project_distinct_molecules(cfg, params):
    embs = []
    for g in toy_corpus(count=10, seed=5):
        latent = _latent(cfg, params, to_dense(g))
        embs.append(project(latent.pooled, params).data[0])
    embs = np.stack(embs)
    d2 = ((embs[:, None, :] - embs[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    assert d2.min() > 0.0


# -- full forward ---------------------------------------------------------

def test_forward_symmetries(cfg, params, rng):
    dense = _dense(rng, n_heavy=3)
    base = per_molecule(forward(params, cfg, [dense], [dense], [0.5]))[0]
    for _ in range(5):
        r = random_rotation(rng)
        moved = DenseTensors(H=dense.H, E=dense.E, P=dense.P @ r.T)
        got = per_molecule(forward(params, cfg, [moved], [moved], [0.5]))[0]
        assert np.abs(got["score_P"] - base["score_P"] @ r.T).max() < 1e-4
        assert np.abs(got["score_E"] - base["score_E"]).max() < 1e-5
        assert np.abs(got["score_H"] - base["score_H"]).max() < 1e-5
        assert np.abs(got["projection"] - base["projection"]).max() < 1e-5


def test_forward_gradients_flow_to_all_heads(cfg, params, rng):
    dense = _dense(rng)
    out = forward(params, cfg, [dense], [dense], [0.5])
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


def _noisy(rng, m):
    return DenseTensors(H=m.H + 0.3 * rng.standard_normal(m.H.shape),
                        E=m.E + 0.3 * rng.standard_normal(m.E.shape),
                        P=m.P + 0.2 * rng.standard_normal(m.P.shape))


def test_batched_forward_matches_molecules_alone(cfg, params, rng):
    """One forward over triples of 1, 2, 5 and 14 atoms gives each triple's
    outputs and anchor view bit for bit, and its gradients, as a forward of
    that triple alone."""
    conds = [_molecule_of(rng, n) for n in (1, 2, 5, 14)]
    inputs = [_noisy(rng, m) for m in conds]
    times = [0.1, 0.4, 0.7, 0.95]
    keys = ("projection", "anchor", "score_P", "score_E", "score_H")

    def run(groups):
        leaves = {k: Tensor(v.data, requires_grad=True) for k, v in params.items()}
        records = [forward(leaves, cfg, [conds[i] for i in idx], [inputs[i] for i in idx],
                           [times[i] for i in idx], anchors=[conds[i] for i in idx])
                   for idx in groups]
        values = [mol for record in records for mol in per_molecule(record)]
        # a fixed random linear functional of every output of each molecule
        # (the projections have unit norm, so their squares would have no
        # gradient)
        terms = []
        for idx, record in zip(groups, records):
            mols = per_molecule(record)
            for j, k in enumerate(keys):
                weights = np.concatenate([
                    np.random.default_rng([i, j]).standard_normal(mol[k].shape).reshape(
                        -1, record[k].shape[1]) for i, mol in zip(idx, mols)])
                terms.append(ad.sum_(ad.mul(record[k], Tensor(weights))))
        loss = terms[0]
        for term in terms[1:]:
            loss = ad.add(loss, term)
        ad.backward(loss)
        return values, {k: v.grad for k, v in leaves.items() if v.grad is not None}

    batched, batched_grads = run([range(4)])
    alone, alone_grads = run([[i] for i in range(4)])
    for got, ref in zip(batched, alone, strict=True):
        assert got.keys() == ref.keys()
        for k in ref:
            assert np.array_equal(got[k], ref[k]), k
    assert set(batched_grads) == set(alone_grads) == set(params)
    for name, ref in alone_grads.items():
        assert np.linalg.norm(batched_grads[name] - ref) <= 1e-12 * np.linalg.norm(ref), name


def test_detached_forward_records_nothing_and_matches_trainable(rng, monkeypatch):
    """On one mixed-size batch, a forward of detached parameters never
    reaches the tape's recording point and gives, key by key, the bits of a
    forward of trainable parameters."""
    cfg = NetworkConfig()
    conds = [_molecule_of(rng, n) for n in (1, 2, 5, 5, 14)]
    inputs = [_noisy(rng, m) for m in conds]
    times = [0.05, 0.3, 0.5, 0.5, 0.9]
    params = init_params(cfg, np.random.default_rng(4))
    taped = forward(params, cfg, conds, inputs, times, anchors=conds)
    recorded, make = [], ad._make
    monkeypatch.setattr(ad, "_make", lambda *args: recorded.append(args[2]) or make(*args))
    detached = forward(detach_params(params), cfg, conds, inputs, times, anchors=conds)
    assert recorded == []
    assert taped.keys() == detached.keys()
    assert taped["latent"].sizes == detached["latent"].sizes == (1, 2, 5, 5, 14)
    pairs = [(key, taped[key], detached[key]) for key in taped if key != "latent"]
    pairs += [(f"latent.{key}", getattr(taped["latent"], key), getattr(detached["latent"], key))
              for key in ("node_h", "pooled")]
    for key, got, ref in pairs:
        assert got.requires_grad and not ref.requires_grad and ref._parents == (), key
        assert got.shape == ref.shape, key
        assert np.array_equal(got.data.view(np.uint64), ref.data.view(np.uint64)), key


def _training_step_tape(monkeypatch):
    """(op, parents) of every node of a default-net training step's tape:
    those reachable from the loss through parents that need gradients, the
    loss and the parameters included, as ``backward`` receives them (it cuts
    each node from its parents); and the parameters."""
    batch = [to_dense(g) for g in toy_corpus(count=8, seed=5)]
    net_cfg = NetworkConfig()
    params = init_params(net_cfg, np.random.default_rng(3))
    tapes, real_backward = [], ad.backward

    def spy(loss):
        seen, stack = {id(loss): loss}, [loss]
        while stack:
            for parent, _ in stack.pop()._parents:
                if parent.requires_grad and id(parent) not in seen:
                    seen[id(parent)] = parent
                    stack.append(parent)
        tapes.append([(node._op, [parent for parent, _ in node._parents])
                      for node in seen.values()])
        real_backward(loss)

    monkeypatch.setattr(ad, "backward", spy)
    training_step(params, net_cfg, TrainConfig(self_cond_prob=0.5), batch,
                  [np.random.default_rng([7, i]) for i in range(len(batch))])
    assert len(tapes) == 1
    return tapes[0], params


def test_training_step_records_228_tape_nodes(monkeypatch):
    """A default-net training step's tape holds 228 nodes. It held 241 before
    ``score_2d`` built its pair rows h_i * h_j and u_i + u_j with
    ``pair_outer``: the four gather nodes ``h[i]``, ``h[j]``, ``u[i]`` and
    ``u[j]`` went, and one ``pair_outer`` node each took the place of the
    ``mul`` and the ``add`` that read them (237). It then lost the second
    projection: the anchor rows' own ``project`` (two ``linear``, a
    ``silu``, ``square``, ``sum``, ``add``, ``sqrt``, ``reshape`` and
    ``div``) and the slices of the pooled rows into input and anchor rows,
    while the one ``project`` of both gained the slices of its output."""
    tape, _ = _training_step_tape(monkeypatch)
    assert len(tape) == 228


def test_training_step_projects_once(monkeypatch):
    """The projection head runs once per training step, over the input and
    anchor rows together: one ``linear`` node reads each projection weight."""
    tape, params = _training_step_tape(monkeypatch)
    for name in ("proj.l1.w", "proj.l2.w"):
        readers = [op for op, parents in tape
                   if op == "linear" and any(p is params[name] for p in parents)]
        assert len(readers) == 1, name


def _one_molecule_heads(params, cfg, f0, ft, cond, xt, anchor_ft, anchor, t):
    """Fuse, edge MLP, GCN, heads and projection of one (conditioner, input,
    time) triple and of its anchor view, from their encoder rows, written
    molecule by molecule with the plain primitives: the reference for the
    batched pass of ``forward``."""
    n, d = cond.n, cfg.d_time
    emb = fourier_embed(t, d)

    def mlp2(x, prefix):
        h = ad.silu(ad.linear(x, params[f"{prefix}.l1.w"], params[f"{prefix}.l1.b"]))
        return ad.linear(h, params[f"{prefix}.l2.w"], params[f"{prefix}.l2.b"])

    def latent(ft, xt):
        node = mlp2(ad.concat([Tensor(np.broadcast_to(emb, (n, d))), f0, ft], axis=1), "fuse")
        flat = np.concatenate([np.broadcast_to(emb, (n * n, d)), cond.E.reshape(n * n, -1),
                               xt.E.reshape(n * n, -1)], axis=1)
        w = ad.reshape(mlp2(Tensor(flat), "edge"), (n, n))
        w = ad.mul(ad.add(w, ad.transpose(w)), Tensor(0.5 * (1.0 - np.eye(n))))
        deg = ad.add(ad.sum_(ad.abs_(w), axis=1), Tensor(np.ones(n)))
        dinv = ad.div(Tensor(1.0), ad.sqrt(deg))
        w_norm = ad.mul(ad.mul(w, ad.reshape(dinv, (n, 1))), ad.reshape(dinv, (1, n)))
        h = node
        for layer in range(cfg.gcn_layers):
            mixed = ad.linear(ad.matmul(w_norm, h), params[f"gcn.l{layer}.w"],
                              params[f"gcn.l{layer}.b"])
            h = ad.add(h, ad.silu(mixed))
        return h, ad.mean(h, axis=0)

    def project(pooled):
        out = mlp2(ad.reshape(pooled, (1, cfg.latent)), "proj")
        norm = ad.sqrt(ad.add(ad.sum_(ad.square(out)), Tensor(1e-12)))
        return ad.reshape(ad.div(out, norm), (cfg.d_contrast,))

    h, pooled = latent(ft, xt)
    coeffs = mlp2(h, "head3d")
    field = ad.sum_(ad.mul(ad.reshape(coeffs, (n, 3, 1)), Tensor(molecule_frames(xt.P))), axis=1)
    maps = []
    for head in range(cfg.heads):
        q = ad.matmul(h, params[f"att.h{head}.q"])
        k = ad.matmul(h, params[f"att.h{head}.k"])
        att = ad.softmax(ad.mul(ad.matmul(q, ad.transpose(k)),
                                Tensor(1.0 / np.sqrt(cfg.head_dim))))
        maps.append(ad.reshape(att, (n * n, 1)))
    pair_prod = ad.reshape(ad.mul(ad.reshape(h, (n, 1, cfg.latent)),
                                  ad.reshape(h, (1, n, cfg.latent))), (n * n, cfg.latent))
    raw = Tensor(np.concatenate([cond.E.reshape(n * n, -1), xt.E.reshape(n * n, -1)], axis=1))
    w1 = params["head2d.l1.w"]
    sum_rows = slice(cfg.heads, cfg.heads + cfg.latent)
    other_rows = np.r_[0:cfg.heads, cfg.heads + cfg.latent:w1.shape[0]]
    u = ad.matmul(h, w1[sum_rows])
    pair_sum = ad.add(ad.reshape(u, (n, 1, cfg.edge_hidden)),
                      ad.reshape(u, (1, n, cfg.edge_hidden)))
    pre = ad.add(ad.linear(ad.concat(maps + [pair_prod, raw], axis=1), w1[other_rows],
                           params["head2d.l1.b"]),
                 ad.reshape(pair_sum, (n * n, cfg.edge_hidden)))
    edge = ad.linear(ad.silu(pre), params["head2d.l2.w"], params["head2d.l2.b"])
    mirror = np.arange(n * n).reshape(n, n).T.reshape(n * n)
    sym = ad.mul(ad.add(edge, edge[mirror]), Tensor(0.5 * (1.0 - np.eye(n)).reshape(n * n, 1)))
    return {"node_h": h.data, "pooled": pooled.data, "projection": project(pooled).data,
            "anchor": project(latent(anchor_ft, anchor)[1]).data, "coeffs_P": coeffs.data,
            "score_P": ad.sub(field, ad.mean(field, axis=0)).data,
            "score_E": ad.reshape(sym, (n, n, N_BOND_CATEGORIES)).data,
            "score_H": mlp2(h, "headh").data}


@pytest.mark.parametrize("net", ["default", "small"])
@pytest.mark.parametrize("trainable", [False, True])
def test_batched_heads_match_one_molecule_reference(net, trainable, rng):
    """After the encoders, ``forward`` runs one batched pass over molecules of
    1, 2, 5, 14 and 64 atoms; each molecule's latent, pooled vector,
    projection, anchor and scores equal bit for bit the same layers run on
    that molecule alone."""
    cfg = NetworkConfig() if net == "default" else small_net_config()
    params = init_params(cfg, np.random.default_rng(11))
    if not trainable:
        params = detach_params(params)
    conds = [_molecule_of(rng, n) for n in (1, 2, 5, 14, 64)]
    inputs = [_noisy(rng, m) for m in conds]
    times = list(rng.uniform(0.01, 1.0, size=len(conds)))
    record = forward(params, cfg, conds, inputs, times, anchors=conds)

    # the encoder rows forward hands to the batched pass
    f0 = _encode(conds, params, cfg, "enc_clean")
    ft = _encode(inputs + conds, params, cfg, "enc_noisy")
    for b, got in enumerate(per_molecule(record)):
        ref = _one_molecule_heads(params, cfg, f0[b], ft[b], conds[b], inputs[b],
                                  ft[len(conds) + b], conds[b], times[b])
        assert got.keys() == ref.keys()
        for k in ref:
            assert np.array_equal(got[k], ref[k]), (conds[b].n, k)


_COORDINATE = st.one_of(st.sampled_from([MAX_COORDINATE, -MAX_COORDINATE, 0.3 * MAX_COORDINATE,
                                         0.0, 1.0, 5e-324]),
                        st.floats(-MAX_COORDINATE, MAX_COORDINATE))


@st.composite
def _parser_records(draw):
    """JSON records the parser accepts: 1 to 5 atoms, each at one of a few
    shared points (so atoms may coincide) with coordinates up to the bound,
    or at the default origin when its 'xyz' is left out."""
    points = draw(st.lists(st.lists(_COORDINATE, min_size=3, max_size=3),
                           min_size=1, max_size=4))
    atoms = []
    for _ in range(draw(st.integers(1, 5))):
        atom = {"el": draw(st.sampled_from(ELEMENTS))}
        if draw(st.booleans()):
            atom["xyz"] = draw(st.sampled_from(points))
        atoms.append(atom)
    return json.dumps({"atoms": atoms})


_FINITE_NET = small_net_config()
_FINITE_PARAMS = detach_params(init_params(_FINITE_NET, np.random.default_rng(0)))


@settings(max_examples=100, deadline=None)
@given(_parser_records(), st.sampled_from(["VP", "VE"]), st.floats(1e-3, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_forward_is_finite_on_every_parser_accepted_molecule(record, kind, t, seed):
    """Perturbation and every ``forward`` record stay finite on any molecule
    the parser accepts, as the clean conditioner and the noisy input."""
    x0 = to_dense(parse_molecule(record))
    sample = perturb_continuous(x0, t, np.random.default_rng(seed), NoiseSchedule(kind=kind))
    assert all(np.isfinite(v).all() for v in (sample.xt.P, *sample.score_target.values()))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        out = per_molecule(forward(_FINITE_PARAMS, _FINITE_NET, [x0], [sample.xt], [t],
                                   anchors=[x0]))[0]
    for key, value in out.items():
        assert np.isfinite(value).all(), key


def test_detach_params(cfg, params):
    frozen = detach_params(params)
    assert all(not v.requires_grad for v in frozen.values())
    assert all(frozen[k].data is params[k].data for k in params)


def test_self_paired_groups_fill_the_budget(monkeypatch):
    """Consecutive molecules share a group while their 2 n^2 pair rows fit
    the budget, a group may fill it exactly, and a molecule over it runs
    alone."""
    monkeypatch.setattr(network, "MAX_PAIR_ROWS", 100)
    sizes = [5, 5, 6, 3, 10, 1, 2]
    assert [sizes[g] for g in network.self_paired_groups(sizes)] == [
        [5, 5], [6, 3], [10], [1, 2]]
    assert list(network.self_paired_groups([])) == []


@pytest.mark.parametrize("name", list(_STACK_CLOUDS))
def test_stacked_frames_and_pair_features_match_each_molecule(name, cfg, rng):
    """A stack (k, n, 3) of molecules of n atoms gives each molecule's frames
    and pair features bit for bit as that molecule alone does, also when the
    stack mixes degenerate and regular molecules."""
    base = _STACK_CLOUDS[name]
    stack = np.stack([base, base @ random_rotation(rng).T,
                      base + 0.01 * rng.standard_normal(base.shape), -base])
    k, n, _ = stack.shape
    frames, rbf = molecule_frames(stack), rbf_features(stack, cfg)
    assert frames.shape == (k, n, 3, 3) and rbf.shape == (k, n * n, cfg.n_rbf)
    for i, positions in enumerate(stack):
        for got, alone in ((frames[i], molecule_frames(positions)),
                           (rbf[i], rbf_features(positions, cfg))):
            assert np.array_equal(got.view(np.uint64), alone.view(np.uint64)), (name, i)
