import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (random_molecule, small_net_config, toy_corpus,
                      water_graph)
from mjae import evalsuite, network
from mjae.evalsuite import (canonical_hash, gaussian_marginal_score,
                            generation_metrics, linear_probe,
                            pooled_embeddings, radius_of_gyration,
                            random_rotation, ridge_probe_mse, symmetry_report,
                            total_variation)
from mjae.molgraph import make_graph, permute
from mjae.network import init_params
from mjae.schedule import NoiseSchedule, alpha_beta

VP = NoiseSchedule(kind="VP")


def test_random_rotation_is_proper(rng):
    for _ in range(20):
        r = random_rotation(rng)
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_symmetry_report_random_init(rng, monkeypatch):
    cfg = small_net_config()
    params = init_params(cfg, rng)
    probes = toy_corpus(count=3, seed=2)
    views, real_forward = [], evalsuite.forward
    monkeypatch.setattr(evalsuite, "forward", lambda p, c, conds, *rest: views.append(
        len(conds)) or real_forward(p, c, conds, *rest))
    rep = symmetry_report(params, cfg, probes, n_rotations=5,
                          n_permutations=5)
    # one group per small probe: the molecule, 5 rotations, 5 permutations,
    # reflection
    assert views == [12] * 3
    assert rep.rotation_equivariance_3d < 1e-4
    assert rep.rotation_invariance_2d < 1e-5
    assert rep.rotation_invariance_h < 1e-5
    assert rep.rotation_invariance_embedding < 1e-5
    assert rep.permutation_residual < 1e-6
    assert rep.reflection_coefficient_residual < 1e-5
    assert rep.reflection_axis_pattern_ok
    assert len(rep.per_molecule) == 3
    assert isinstance(rep.as_dict(), dict)


def _bits(value):
    """``value`` with every float replaced by its uint64 view."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return int(np.float64(value).view(np.uint64))
    return value


def test_symmetry_report_groups_keep_each_views_bits(rng, monkeypatch):
    """A probe's views advance in ``self_paired_groups``; a view's residuals
    do not depend on its group, so a budget that splits the views gives the
    same report bit for bit."""
    cfg = small_net_config()
    params = init_params(cfg, rng)
    probes = [water_graph(), *toy_corpus(count=3, seed=2)]
    whole = symmetry_report(params, cfg, probes, n_rotations=5, n_permutations=5)
    views, real_forward = [], evalsuite.forward
    monkeypatch.setattr(evalsuite, "forward", lambda p, c, conds, *rest: views.append(
        len(conds)) or real_forward(p, c, conds, *rest))
    monkeypatch.setattr(network, "MAX_PAIR_ROWS", 200)
    split = symmetry_report(params, cfg, probes, n_rotations=5, n_permutations=5)
    assert sum(views) == 12 * len(probes) and len(views) > 2 * len(probes)
    assert _bits(split.as_dict()) == _bits(whole.as_dict())


def test_symmetry_report_working_set_does_not_grow_with_views():
    """Each group's outputs are dropped once its residuals are folded: on a
    ~50-atom probe the peak grows by under 1 MB from 12 to 42 views."""
    cfg = network.NetworkConfig()
    params = init_params(cfg, np.random.default_rng(0))
    probe = random_molecule(np.random.default_rng(0), n_heavy=24)
    assert probe.n == 50
    peaks = {}
    for count in (5, 20):
        tracemalloc.start()
        symmetry_report(params, cfg, [probe], n_rotations=count, n_permutations=count)
        peaks[count] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[20] - peaks[5] < 1 << 20


def test_symmetry_report_keeps_a_nan_residual(rng, monkeypatch):
    """A NaN in one rotation view's 3D score makes that molecule's
    ``rotation_3d`` and the headline residual NaN, whatever comes after it."""
    cfg = small_net_config()
    params = init_params(cfg, rng)
    probes = toy_corpus(count=2, seed=2)
    calls, real_forward = [], evalsuite.forward

    def nan_in_first_rotation(p, c, conds, *rest):
        record = real_forward(p, c, conds, *rest)
        if not calls:  # the first probe's views: view 1 is its first rotation
            record["score_P"].data[conds[0].n, 0] = np.nan
        calls.append(len(conds))
        return record

    monkeypatch.setattr(evalsuite, "forward", nan_in_first_rotation)
    rep = symmetry_report(params, cfg, probes, n_rotations=5, n_permutations=5)
    assert calls == [12, 12]
    assert np.isnan(rep.per_molecule[0]["rotation_3d"])
    assert np.isnan(rep.rotation_equivariance_3d)
    assert np.isfinite(rep.per_molecule[1]["rotation_3d"])
    assert all(type(v) is float for mol in rep.per_molecule for k, v in mol.items()
               if k != "n")


def test_symmetry_report_sabotage_negative_control(rng, monkeypatch):
    # identity frames everywhere must destroy 3D equivariance
    cfg = small_net_config()
    params = init_params(cfg, rng)

    def broken_frames(positions, cutoff=5.0):
        return np.broadcast_to(np.eye(3), positions.shape[:-1] + (3, 3)).copy()

    monkeypatch.setattr(network, "molecule_frames", broken_frames)
    rep = symmetry_report(params, cfg, toy_corpus(count=2, seed=4),
                          n_rotations=5, n_permutations=2)
    assert rep.rotation_equivariance_3d > 1e-2


# -- analytic Gaussian score ----------------------------------------------

def test_gaussian_score_unit_variance_exact():
    # mu=0, sigma=1, VP: the marginal is a unit Gaussian for every t,
    # so the score is exactly -x
    x = np.linspace(-2.0, 2.0, 9)
    for t in (0.1, 0.5, 1.0):
        assert np.abs(gaussian_marginal_score(x, t, 0.0, 1.0, VP) + x).max() < 1e-12


def test_gaussian_score_prior_dominated_limit():
    # with sigma << beta/alpha the score tends to -x / beta^2
    sigma, t = 1e-3, 0.9
    a, b = alpha_beta(VP, t)
    x = np.linspace(-1.0, 1.0, 11)
    exact = gaussian_marginal_score(x, t, 0.0, sigma, VP)
    approx = -x / (b * b)
    assert np.abs(exact - approx).max() <= 0.1 * np.abs(exact).max()


# -- canonical hash and metrics ------------------------------------------

def test_canonical_hash_permutation_invariant(rng):
    g = random_molecule(rng, 3)
    perm = rng.permutation(g.n)
    assert canonical_hash(g) == canonical_hash(permute(g, perm))


def test_canonical_hash_no_collisions_on_distinct_set():
    # 20 pairwise-distinct heavy-atom chains (distinct multisets of C/N/O)
    from itertools import combinations_with_replacement
    chains = list(combinations_with_replacement("CNO", 1)) + \
        list(combinations_with_replacement("CNO", 2)) + \
        list(combinations_with_replacement("CNO", 3))
    graphs = [_chain_molecule(chain) for chain in chains[:20]]
    hashes = [canonical_hash(g) for g in graphs]
    assert len(set(hashes)) == len(graphs)


def _chain_molecule(symbols):
    from mjae.molgraph import ELEMENT_INDEX
    valence = {"C": 4, "N": 3, "O": 2}
    types = [ELEMENT_INDEX[s] for s in symbols]
    pos = [np.array([1.5 * i, 0.1 * i, 0.0]) for i in range(len(symbols))]
    edges = [(i, i + 1) for i in range(len(symbols) - 1)]
    for i, s in enumerate(symbols):
        used = sum(1 for a, b in edges if i in (a, b))
        for k in range(valence[s] - used):
            j = len(types)
            types.append(ELEMENT_INDEX["H"])
            pos.append(pos[i] + [0.3 + 0.2 * k, 1.0, 0.4 * k])
            edges.append((i, j))
    n = len(types)
    bonds = np.zeros((n, n), dtype=int)
    for a, b in edges:
        bonds[a, b] = bonds[b, a] = 1
    return make_graph(types, [0] * n, bonds, np.stack(pos))


def test_total_variation():
    assert total_variation([1, 0], [0, 1]) == 1.0
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0


def test_generation_metrics_identity():
    graphs = toy_corpus(count=20, seed=1)
    m = generation_metrics(graphs, graphs)
    assert m["atom_tv"] == 0.0 and m["bond_tv"] == 0.0
    assert m["validity"] == 1.0  # builder output is valence-valid
    assert m["n_samples"] == 20


def test_generation_metrics_all_identical():
    w = water_graph()
    m = generation_metrics([w] * 10, [w])
    assert m["unique"] == 0.1
    assert m["validity"] == 1.0


def test_generation_metrics_disjoint_support():
    # hydrogen-only vs fluorine-only molecules: disjoint atom categories
    h2 = make_graph([1, 1], [0, 0], [[0, 1], [1, 0]], np.array([[0.0, 0, 0], [0.74, 0, 0]]))
    f_atoms = make_graph([5, 5], [0, 0], np.zeros((2, 2), dtype=int),
                         np.array([[0.0, 0, 0], [1.4, 0, 0]]))
    m = generation_metrics([h2], [f_atoms])
    assert m["atom_tv"] == 1.0


def test_generation_metrics_empty():
    with pytest.raises(ValueError):
        generation_metrics([], [water_graph()])


@pytest.mark.parametrize("side", ["sample", "reference"])
def test_generation_metrics_names_a_set_without_atom_pairs(side):
    """Bond frequencies over no atom pair are 0 / 0: the set is named before
    any division, and numpy warns of nothing."""
    lone = [make_graph([1], [0], np.zeros((1, 1), dtype=int), np.zeros((1, 3)))] * 2
    sets = {"sample": [water_graph()], "reference": [water_graph()], side: lone}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"the {side} set holds no atom pair"):
            generation_metrics(sets["sample"], sets["reference"])


# -- probe ----------------------------------------------------------------

def test_radius_of_gyration():
    pos = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    g = make_graph([1, 1], [0, 0], np.zeros((2, 2), dtype=int), pos)
    assert abs(radius_of_gyration(g) - 1.0) < 1e-12


def test_pooled_embeddings_shape(rng):
    cfg = small_net_config()
    params = init_params(cfg, rng)
    graphs = toy_corpus(count=4, seed=6)
    feats = pooled_embeddings(params, cfg, graphs)
    assert feats.shape == (4, cfg.latent)


def test_pooled_embeddings_groups_keep_each_molecules_bits(rng, monkeypatch):
    """Molecules advance in groups within the pair-row budget; a molecule's
    pooled row does not depend on its group."""
    cfg = small_net_config()
    params = init_params(cfg, rng)
    graphs = toy_corpus(count=9, seed=6)
    whole = pooled_embeddings(params, cfg, graphs)
    calls, real_latents = [], evalsuite.latents
    monkeypatch.setattr(evalsuite, "latents",
                        lambda *a: calls.append(len(a[2])) or real_latents(*a))
    monkeypatch.setattr(network, "MAX_PAIR_ROWS", 2 * 14 ** 2)
    assert np.array_equal(pooled_embeddings(params, cfg, graphs), whole)
    assert sum(calls) == len(graphs) and len(calls) > 3


def test_probe_working_set_does_not_grow_with_probe_set():
    """Only each group's pooled rows are kept: from 200 to 800 molecules the
    peak grows by at most twice the extra pooled rows' bytes."""
    cfg = network.NetworkConfig()
    params = init_params(cfg, np.random.default_rng(0))
    peaks = {}
    for count in (200, 800):
        graphs = toy_corpus(count=count, seed=5)
        tracemalloc.start()
        pooled_embeddings(params, cfg, graphs)
        peaks[count] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[800] - peaks[200] <= 2 * 600 * cfg.latent * 8


def test_ridge_probe_degenerate_labels(rng):
    feats = rng.standard_normal((10, 4))
    with pytest.raises(ValueError, match="degenerate"):
        ridge_probe_mse(feats, np.ones(10), seeds=(0,))


@pytest.mark.parametrize("n", [1, 2])
def test_ridge_probe_needs_three_molecules(rng, n):
    """A 20% split of fewer than 3 molecules leaves fewer than 2 to fit on."""
    with pytest.raises(ValueError, match=f"at least 3 molecules, got {n}"):
        ridge_probe_mse(rng.standard_normal((n, 4)), rng.standard_normal(n), seeds=(0,))
    assert np.isfinite(ridge_probe_mse(rng.standard_normal((3, 4)), [0.0, 1.0, 3.0],
                                       seeds=(0, 1)))


def test_ridge_probe_random_labels_baseline(rng):
    # random features vs random labels: probe MSE is at the label-variance
    # scale (no signal)
    feats = rng.standard_normal((200, 8))
    labels = rng.standard_normal(200)
    mse = ridge_probe_mse(feats, labels, seeds=(0, 1, 2))
    var = labels.var()
    assert 0.3 * var < mse < 3.0 * var


def test_ridge_probe_linear_signal(rng):
    # perfectly linear labels are recovered almost exactly
    feats = rng.standard_normal((100, 6))
    w = rng.standard_normal(6)
    labels = feats @ w + 0.5
    mse = ridge_probe_mse(feats, labels, seeds=(0, 1))
    assert mse < 1e-4 * labels.var()


def test_linear_probe_runs(rng):
    cfg = small_net_config()
    params = init_params(cfg, rng)
    graphs = toy_corpus(count=10, seed=8)
    labels = [radius_of_gyration(g) for g in graphs]
    mse = linear_probe(params, cfg, graphs, labels, seeds=(0, 1))
    assert np.isfinite(mse) and mse >= 0.0
