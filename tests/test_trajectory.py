import numpy as np
import pytest

from conftest import random_molecule, small_net_config, water_graph
from mjae import sampling
from mjae.molgraph import FEATURE_WIDTH, N_BOND_CATEGORIES, DenseTensors, permute, to_dense
from mjae.network import init_params
from mjae.schedule import NoiseSchedule, alpha_beta
from mjae.trajectory import (gauge_noise, perturb_absorbing, perturb_continuous,
                             project_zero_com, sample_time,
                             symmetrize_edge_noise)

VP = NoiseSchedule(kind="VP")
VE = NoiseSchedule(kind="VE")


class FakeRng:
    """Deterministic stand-in supplying preset noise draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        draw = np.asarray(self.draws.pop(0), dtype=np.float64)
        return np.broadcast_to(draw, shape).copy()


class RecordingRng:
    """A numpy Generator that records the shape of each standard normal draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(tuple(shape))
        return self.rng.standard_normal(shape)


def test_gauge_noise_is_drawn_in_one_order_everywhere(monkeypatch):
    """Perturbation draws P, H and E noise of an n-atom molecule in that
    order. ``generate``'s integration draws it once for the prior and once
    per step at lam > 0, and only for the prior on the ODE (lam = 0)."""
    x0 = to_dense(water_graph())
    n = x0.n
    shapes = [(n, 3), (n, FEATURE_WIDTH), (n, n, N_BOND_CATEGORIES)]
    rec = RecordingRng(0)
    perturb_continuous(x0, 0.5, rec, VP)
    assert rec.shapes == shapes
    net_cfg = small_net_config()
    params = init_params(net_cfg, np.random.default_rng(0))
    steps = 2
    for lam, draws in ((0.5, 1 + steps), (0.0, 1)):
        rec = RecordingRng(0)
        monkeypatch.setattr(sampling, "gauge_noise", lambda n_atoms, _: gauge_noise(n_atoms, rec))
        sampling.generate(params, net_cfg, VP, sampling.SamplerConfig(steps=steps, lam=lam,
                                                                      n_atoms=n), 1)
        assert rec.shapes == shapes * draws, lam


def test_project_zero_com(rng):
    z = rng.standard_normal((6, 3))
    assert np.allclose(project_zero_com(z).mean(axis=0), 0.0, atol=1e-12)


def test_symmetrize_edge_noise(rng):
    z = rng.standard_normal((5, 5, 4))
    s = symmetrize_edge_noise(z)
    assert np.allclose(s, np.swapaxes(s, 0, 1))
    assert np.all(s[np.arange(5), np.arange(5)] == 0.0)
    iu = np.triu_indices(5, k=1)
    assert np.allclose(s[iu], z[iu])


def test_perturb_algebra():
    x0 = to_dense(water_graph())
    t = 0.37
    sample = perturb_continuous(x0, t, np.random.default_rng(0), VP)
    noise = gauge_noise(x0.n, np.random.default_rng(0))  # the draw the perturbation made
    a, b = alpha_beta(VP, t)
    for comp, clean in (("P", x0.P), ("H", x0.H), ("E", x0.E)):
        z = getattr(noise, comp)
        got = getattr(sample.xt, comp)
        assert np.allclose(got, a * clean + b * z, atol=1e-12)
        assert np.allclose(sample.score_target[comp], -z / b, atol=1e-12)
    assert np.allclose(sample.xt.P.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(sample.xt.E, np.swapaxes(sample.xt.E, 0, 1))


def test_scalar_substitution():
    # alpha=0.5, beta=0.5, x0=1, z=2 -> xt=1.5, target=-4 (plain algebra,
    # checked through the same expressions the sampler uses)
    a, b, x0, z = 0.5, 0.5, 1.0, 2.0
    xt = a * x0 + b * z
    assert xt == 1.5
    assert -z / b == -4.0


def test_small_t_limit_with_zero_noise():
    x0 = to_dense(water_graph())
    zeros = FakeRng([np.zeros_like(x0.P), np.zeros_like(x0.H), np.zeros_like(x0.E)])
    sample = perturb_continuous(x0, 1e-6, zeros, VP)
    assert np.allclose(sample.xt.P, x0.P, atol=1e-6)
    assert np.allclose(sample.xt.H, x0.H, atol=1e-6)


def test_score_target_matches_log_density_gradient(rng):
    # independent oracle: central finite difference of log N(x_t; a x0, b^2)
    x0 = to_dense(water_graph())
    t = 0.6
    sample = perturb_continuous(x0, t, rng, VP)
    a, b = alpha_beta(VP, t)

    def logp(x, mean):
        return -0.5 * ((x - mean) ** 2) / (b * b)

    h = 1e-5
    for comp, clean in (("H", x0.H), ("E", x0.E)):
        xt = getattr(sample.xt, comp)
        mean = a * clean
        fd = (logp(xt + h, mean) - logp(xt - h, mean)) / (2 * h)
        assert np.abs(fd - sample.score_target[comp]).max() < 1e-6


def test_t_zero_rejected_for_vp(rng):
    x0 = to_dense(water_graph())
    with pytest.raises(ValueError, match="score target undefined"):
        perturb_continuous(x0, 0.0, rng, VP)
    # VE has beta(0) = sigma_min > 0, so t=0 is fine there
    sample = perturb_continuous(x0, 0.0, rng, VE)
    assert np.isfinite(sample.score_target["P"]).all()


def test_rotation_equivariance_with_matched_noise(rng):
    from mjae.evalsuite import random_rotation
    x0 = to_dense(random_molecule(rng, 3))
    t = 0.5
    for _ in range(20):
        r = random_rotation(rng)
        z_p = rng.standard_normal(x0.P.shape)
        z_h = rng.standard_normal(x0.H.shape)
        z_e = rng.standard_normal(x0.E.shape)
        plain = perturb_continuous(x0, t, FakeRng([z_p, z_h, z_e]), VP)
        rotated_x0 = DenseTensors(H=x0.H, E=x0.E, P=x0.P @ r.T)
        rot = perturb_continuous(rotated_x0, t,
                                 FakeRng([z_p @ r.T, z_h, z_e]), VP)
        assert np.abs(rot.xt.P - plain.xt.P @ r.T).max() < 1e-6
        # H and E components are decoupled from the pose
        assert np.abs(rot.xt.H - plain.xt.H).max() == 0.0
        assert np.abs(rot.xt.E - plain.xt.E).max() == 0.0


def test_permutation_equivariance(rng):
    g = random_molecule(rng, 3)
    x0 = to_dense(g)
    perm = rng.permutation(g.n)
    z_p = rng.standard_normal(x0.P.shape)
    z_h = rng.standard_normal(x0.H.shape)
    # feed symmetric edge noise so the permuted draw stays in the same class
    z_e = symmetrize_edge_noise(rng.standard_normal(x0.E.shape))
    plain = perturb_continuous(x0, 0.4, FakeRng([z_p, z_h, z_e]), VP)
    permuted = perturb_continuous(
        to_dense(permute(g, perm)), 0.4,
        FakeRng([z_p[perm], z_h[perm], z_e[np.ix_(perm, perm)]]), VP)
    assert np.abs(permuted.xt.P - plain.xt.P[perm]).max() < 1e-9
    assert np.abs(permuted.xt.H - plain.xt.H[perm]).max() < 1e-9
    assert np.abs(permuted.xt.E - plain.xt.E[np.ix_(perm, perm)]).max() < 1e-9


def test_sample_time_range(rng):
    for t_min in (1e-3, 0.25):
        ts = [sample_time(rng, t_min) for _ in range(1000)]
        assert all(t_min < t <= 1.0 for t in ts)


# -- discrete chains ------------------------------------------------------

def test_absorbing_limits(rng):
    tokens = np.array([0, 1, 2, 3])
    out = perturb_absorbing(tokens, 1, [1.0], rng)
    assert np.all(out == 4)
    out = perturb_absorbing(tokens, 3, [0.0, 0.0, 0.0], rng)
    assert np.array_equal(out, tokens)
    with pytest.raises(ValueError, match="exceeds schedule length"):
        perturb_absorbing(tokens, 5, [0.1] * 3, rng)


def test_absorbing_mask_fraction_monte_carlo(rng):
    n = 100_000
    tokens = np.zeros(n, dtype=int)
    out = perturb_absorbing(tokens, 10, [0.1] * 10, rng)
    p = 1.0 - 0.9 ** 10
    frac = (out == 1).mean()
    assert abs(frac - p) < 3.0 * np.sqrt(p * (1 - p) / n)
