"""Acceptance battery: ten end-to-end criteria, one test each.

Every test prints a single [PASS]/[FAIL] line with the measured quantity, the
tolerance, and the elapsed wall time, then asserts. Oracles are independent of
the package's internal selftest: finite differences use the conftest oracle,
Monte Carlo bounds are computed inline, and closed forms are spelled out here.
"""

import time
from itertools import combinations_with_replacement

import numpy as np

from conftest import fd_grad, small_net_config, toy_corpus, water_graph
from test_autodiff import CASES
from mjae import autodiff as ad
from mjae.autodiff import Tensor
from mjae.evalsuite import (canonical_hash, gaussian_marginal_score,
                            gaussian_score_toy, generation_metrics,
                            linear_probe, radius_of_gyration, symmetry_report)
from mjae.loss import verify_decomposition
from mjae.molgraph import ELEMENT_INDEX, make_graph, to_dense
from mjae.network import NetworkConfig, init_params
from mjae.sampling import SamplerConfig, generate, reverse_paths_1d
from mjae.schedule import NoiseSchedule, alpha_beta
from mjae.trajectory import perturb_absorbing, perturb_continuous
from mjae.training import TrainConfig, train

VP = NoiseSchedule(kind="VP")


def _finish(label, ok, detail, elapsed, budget):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok and elapsed < budget, f"{label}: {detail} ({elapsed:.1f}s / {budget:.0f}s)"


def test_criterion_01_decomposition_identity():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        theta = rng.standard_normal((5, 5))
        i, j = rng.integers(5), rng.integers(5)
        _, _, residual = verify_decomposition(theta, int(i), int(j))
        worst = max(worst, residual)
    _finish("criterion 1 (decomposition identity)", worst < 1e-10,
            f"max residual {worst:.2e} over 100 random 5x5 tables (tol 1e-10)",
            time.time() - t0, 10)


def test_criterion_02_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0

    def check(builder, x0):
        nonlocal worst
        x = Tensor(x0.copy(), requires_grad=True)
        ad.backward(builder(x))
        numeric = fd_grad(lambda a: float(builder(Tensor(a)).data), x0.copy())
        scale = max(np.abs(numeric).max(), 1.0)
        worst = max(worst, np.abs(x.grad - numeric).max() / scale)

    def smooth(shape):
        base = rng.standard_normal(shape)
        return base + 0.25 * np.sign(base)

    for name in sorted(CASES):
        for _ in range(50):
            c = rng.standard_normal((3, 4))
            check(lambda x, c=c, name=name: CASES[name](x, c), smooth((3, 4)))
    w = rng.standard_normal((4, 2))
    for _ in range(50):
        check(lambda x, w=w: ad.sum_(ad.square(ad.matmul(x, Tensor(w)))),
              rng.standard_normal((3, 4)))
        other = rng.standard_normal((2, 4))
        check(lambda x, o=other: ad.sum_(ad.square(ad.concat([x, Tensor(o)], axis=0))),
              rng.standard_normal((3, 4)))

    # 3-layer composite network
    x_in = rng.standard_normal((5, 4))
    w2 = rng.standard_normal((8, 8)) / np.sqrt(8)
    w3 = rng.standard_normal((8, 1)) / np.sqrt(8)

    def composite(w1t):
        h = ad.silu(ad.matmul(Tensor(x_in), w1t))
        h = ad.silu(ad.matmul(h, Tensor(w2)))
        return ad.mean(ad.square(ad.matmul(h, Tensor(w3))))

    for _ in range(50):
        check(composite, rng.standard_normal((4, 8)) / 2.0)

    _finish("criterion 2 (gradient correctness)", worst < 1e-6,
            f"worst relative error {worst:.2e} over all primitives + composite, "
            f"50 probes each (tol 1e-6)", time.time() - t0, 60)


def test_criterion_03_se3_contracts():
    t0 = time.time()
    probes = toy_corpus(count=10, seed=1)
    cfg = NetworkConfig()
    params = init_params(cfg, np.random.default_rng(3))
    rep = symmetry_report(params, cfg, probes, n_rotations=20,
                          n_permutations=20)
    ok = (rep.rotation_equivariance_3d < 1e-4
          and rep.rotation_invariance_2d < 1e-5
          and rep.rotation_invariance_h < 1e-5
          and rep.permutation_residual < 1e-6
          and rep.reflection_axis_pattern_ok)
    _finish("criterion 3 (SE(3) contracts)", ok,
            f"3d={rep.rotation_equivariance_3d:.2e} (tol 1e-4), "
            f"2d={rep.rotation_invariance_2d:.2e} h={rep.rotation_invariance_h:.2e} "
            f"(tol 1e-5), perm={rep.permutation_residual:.2e} (tol 1e-6), "
            f"reflection pattern ok={rep.reflection_axis_pattern_ok}",
            time.time() - t0, 60)


def test_criterion_04_forward_trajectory():
    t0 = time.time()
    rng = np.random.default_rng(4)

    # conditional score targets vs finite-difference log-density gradients
    worst_fd = 0.0
    for graph in toy_corpus(count=3, seed=2):
        x0 = to_dense(graph)
        for t in (0.2, 0.6, 0.9):
            sample = perturb_continuous(x0, t, rng, VP)
            a, b = alpha_beta(VP, t)
            h = 1e-5
            for comp, clean in (("P", x0.P), ("H", x0.H), ("E", x0.E)):
                xt = getattr(sample.xt, comp)
                mean = a * clean
                fd = (-0.5 * ((xt + h - mean) ** 2) + 0.5 * ((xt - h - mean) ** 2)) / (b * b * 2 * h)
                worst_fd = max(worst_fd, np.abs(fd - sample.score_target[comp]).max())

    # VP identity on a 1000-point grid
    grid = np.linspace(1e-6, 1.0, 1000)
    worst_vp = max(abs(a * a + b * b - 1.0)
                   for a, b in (alpha_beta(VP, t) for t in grid))

    # absorbing-chain mask fraction, 1e5 tokens
    n = 100_000
    betas = [0.1] * 10
    out = perturb_absorbing(np.zeros(n, dtype=int), 10, betas, rng)
    p = 1.0 - np.prod([1.0 - b for b in betas])
    frac = float((out == 1).mean())
    sigma3 = 3.0 * np.sqrt(p * (1 - p) / n)

    ok = worst_fd < 1e-6 and worst_vp < 1e-12 and abs(frac - p) < sigma3
    _finish("criterion 4 (forward trajectory)", ok,
            f"score-target FD {worst_fd:.2e} (tol 1e-6), VP identity {worst_vp:.2e} "
            f"(tol 1e-12), mask fraction |{frac:.4f}-{p:.4f}| < {sigma3:.4f}",
            time.time() - t0, 60)


def test_criterion_05_analytic_score_recovery():
    t0 = time.time()
    err, per_time = gaussian_score_toy(VP, seed=0)
    elapsed = time.time() - t0
    _finish("criterion 5 (analytic score recovery)", err < 0.10,
            f"max relative error {err:.3f} over t={sorted(per_time)} (tol 0.10)",
            elapsed, 120)


def test_criterion_06_marginal_preservation():
    t0 = time.time()
    mu, sigma = 0.0, 0.8
    n = 10_000
    se_mean = 3.0 * sigma / np.sqrt(n)
    se_var = 3.0 * sigma * sigma * np.sqrt(2.0 / (n - 1))
    details = []
    ok = True
    for i, lam in enumerate((0.0, 0.5, 1.0)):
        rng = np.random.default_rng([0, i])
        x = reverse_paths_1d(
            VP, lambda x_, t_: gaussian_marginal_score(x_, t_, mu, sigma, VP),
            lam, 2000, n, rng)
        m, v = float(x.mean()), float(x.var())
        ok = ok and abs(m - mu) < se_mean and abs(v - sigma * sigma) < se_var
        details.append(f"lam={lam}: mean {m:+.4f} var {v:.4f}")
    _finish("criterion 6 (marginal preservation)", ok,
            f"{'; '.join(details)} vs N({mu}, {sigma**2:.2f}), "
            f"3-sigma tols {se_mean:.4f}/{se_var:.4f}", time.time() - t0, 300)


def test_criterion_07_training_sanity():
    t0 = time.time()
    data = toy_corpus(count=20, seed=0)
    net = NetworkConfig(latent=96, rounds=3, n_rbf=16, gcn_layers=3, heads=4,
                        head_dim=24, d_time=32, d_contrast=32, hidden=96,
                        edge_hidden=48)
    cfg = TrainConfig(epochs=50, batch_size=2, lr=1e-2, lr_schedule="cosine",
                      seed=0, lambda1=1.0, lambda2=0.01)
    _, hist1 = train(data, cfg, net)
    _, hist2 = train(data, cfg, net)
    ratio = hist1[-1]["total"] / hist1[0]["total"]
    finite = all(np.isfinite(h["total"]) for h in hist1)
    ok = ratio < 0.5 and finite and hist1 == hist2
    _finish("criterion 7 (training sanity)", ok,
            f"final/first = {hist1[-1]['total']:.4f}/{hist1[0]['total']:.4f} = "
            f"{ratio:.3f} (tol 0.5), finite={finite}, "
            f"bitwise-identical reruns={hist1 == hist2}", time.time() - t0, 600)


def test_criterion_08_overfit_one_generation():
    t0 = time.time()
    water = water_graph()
    target = canonical_hash(water)
    net = NetworkConfig(latent=64, rounds=3, n_rbf=16, gcn_layers=3, heads=4,
                        head_dim=16, d_time=32, d_contrast=32, hidden=64,
                        edge_hidden=32)
    cfg = TrainConfig(epochs=600, batch_size=4, lr=3e-3, lr_schedule="cosine",
                      seed=0, self_cond_prob=0.5)
    params, _ = train([water] * 16, cfg, net)
    sampler = SamplerConfig(steps=300, lam=0.0, n_atoms=3, seed=0, t_end=0.01)
    samples = generate(params, net, cfg.schedule, sampler, 50)
    hits = sum(canonical_hash(g) == target for g in samples)
    _finish("criterion 8 (overfit-one generation)", hits >= 40,
            f"exact bond-graph match in {hits}/50 samples (need >= 40)",
            time.time() - t0, 600)


def test_criterion_09_ablation_direction():
    t0 = time.time()
    data = toy_corpus(count=40, seed=0)
    labels = [radius_of_gyration(g) for g in data]
    net = NetworkConfig(latent=32, rounds=2, n_rbf=8, gcn_layers=2, heads=2,
                        head_dim=8, d_time=16, d_contrast=16, hidden=32,
                        edge_hidden=16)

    def probe_mse(lambda2):
        cfg = TrainConfig(epochs=200, batch_size=4, lr=2e-3, lr_schedule="cosine",
                          seed=0, lambda2=lambda2)
        params, _ = train(data, cfg, net)
        return linear_probe(params, net, data, labels)

    mse_small = probe_mse(0.01)
    mse_large = probe_mse(1.0)
    mse_random = linear_probe(init_params(net, np.random.default_rng(0)),
                              net, data, labels)
    ok = mse_small <= mse_large and mse_small <= mse_random
    _finish("criterion 9 (ablation direction)", ok,
            f"5-seed probe MSE: lambda2=0.01 {mse_small:.4f} <= lambda2=1 "
            f"{mse_large:.4f} and <= random-init {mse_random:.4f}",
            time.time() - t0, 900)


def _chain_molecule(symbols):
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


def test_criterion_10_metrics_plumbing():
    t0 = time.time()
    chains = list(combinations_with_replacement("CNO", 1)) + \
        list(combinations_with_replacement("CNO", 2)) + \
        list(combinations_with_replacement("CNO", 3))
    distinct = [_chain_molecule(c) for c in chains[:16]]
    fixture = distinct + [distinct[0]] * 4  # 20 molecules, 16 distinct by hand

    identity = generation_metrics(fixture, fixture)
    ok = (identity["atom_tv"] == 0.0 and identity["bond_tv"] == 0.0
          and identity["validity"] == 1.0      # every chain is valence-exact
          and identity["unique"] == 16 / 20    # 4 duplicates of the first chain
          and identity["n_samples"] == 20)
    _finish("criterion 10 (metrics plumbing)", ok,
            f"samples=reference: atom_tv={identity['atom_tv']} "
            f"bond_tv={identity['bond_tv']} validity={identity['validity']} "
            f"unique={identity['unique']} (hand counts: 1.0 and 0.8)",
            time.time() - t0, 10)
