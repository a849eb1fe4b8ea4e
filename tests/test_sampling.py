import tracemalloc

import numpy as np
import pytest

from conftest import small_net_config, toy_corpus, water_graph
from mjae import network, sampling
from mjae.autodiff import Tensor
from mjae.evalsuite import gaussian_marginal_score, random_rotation
from mjae.molgraph import (DenseTensors, N_BOND_CATEGORIES, feature_width,
                           to_dense)
from mjae.network import init_params
from mjae.sampling import (SamplerConfig, generate, integrate, quantize, reverse_paths_1d,
                           reverse_step)
from mjae.schedule import NoiseSchedule, alpha_beta, drift_diffusion
from mjae.trajectory import gauge_noise

VP = NoiseSchedule(kind="VP")
VE = NoiseSchedule(kind="VE")


def _state(rng, n=4, k=1):
    """A group of k random n-atom paths, stacked per component."""
    return {"P": rng.standard_normal((k, n, 3)),
            "H": rng.standard_normal((k, n, feature_width())),
            "E": rng.standard_normal((k, n, n, N_BOND_CATEGORIES))}


def _noise(seeds, n=4):
    """A group's ``noise``: each path's gauge noise from its own stream, stacked."""
    rngs = [np.random.default_rng(s) for s in seeds]

    def noise():
        draws = [gauge_noise(n, r) for r in rngs]
        return {c: np.stack([getattr(z, c) for z in draws]) for c in "PHE"}
    return noise


def _scores(rng, state):
    return {c: rng.standard_normal(v.shape) for c, v in state.items()}


def test_config_validation():
    for name, bad in (("steps", 0), ("n_atoms", 0), ("lam", -0.5), ("lam", np.nan), ("lam", np.inf),
                      ("t_end", 0.0), ("t_end", 1.0), ("t_end", -0.5), ("t_end", np.nan)):
        with pytest.raises(ValueError, match=f"SamplerConfig.{name} must be"):
            SamplerConfig(**{name: bad})


def test_reverse_step_ode_deterministic(rng):
    state = _state(rng)
    scores = _scores(rng, state)
    a = reverse_step(state, 0.5, 1e-3, scores, VP, 0.0, _noise([0]), [0])
    b = reverse_step(state, 0.5, 1e-3, scores, VP, 0.0, _noise([99]), [0])
    for comp in ("P", "H", "E"):
        assert np.array_equal(a[comp], b[comp])


def test_reverse_step_zero_score_ve(rng):
    state = _state(rng)
    zeros = {c: np.zeros_like(v) for c, v in state.items()}
    # lam=0, VE (f=0), zero score: the state is a fixed point
    out = reverse_step(state, 0.5, 1e-3, zeros, VE, 0.0, _noise([0]), [0])
    assert np.array_equal(out["H"], state["H"])
    # lam=1: pure noise injection of magnitude lam g sqrt(dt)
    g = drift_diffusion(VE, 0.5)[1]
    dt = 1e-3
    draws = [reverse_step(state, 0.5, dt, zeros, VE, 1.0, _noise([s]), [0])["H"] - state["H"]
             for s in range(200)]
    std = np.std(np.stack(draws))
    assert abs(std - g * np.sqrt(dt)) < 0.1 * g * np.sqrt(dt)


def test_reverse_step_rejects_nonfinite(rng):
    state = _state(rng)
    scores = _scores(rng, state)
    scores["P"][0, 0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="P score"):
        reverse_step(state, 0.5, 1e-3, scores, VP, 0.0, _noise([0]), [0])


def test_reverse_step_names_the_nonfinite_sample(rng):
    """A non-finite score or new state in one path of a group names that
    path by its entry in ``names``."""
    state = _state(rng, k=3)
    names = range(3, 6)
    scores = _scores(rng, state)
    scores["H"][1, 2, 0] = np.nan
    with pytest.raises(FloatingPointError, match=r"^non-finite H score of sample 4 at t=0\.5000$"):
        reverse_step(state, 0.5, 1e-3, scores, VP, 0.0, _noise(names), names)
    scores = _scores(rng, state)
    state["E"][2, 0, 1, 0] = np.inf
    with pytest.raises(FloatingPointError, match=r"^non-finite E state of sample 5 at t=0\.5000$"):
        reverse_step(state, 0.5, 1e-3, scores, VP, 1.0, _noise(names), names)


def test_reverse_step_gauge_preserved(rng):
    state = _state(rng, n=5)
    state["P"][0] -= state["P"][0].mean(axis=0)
    scores = _scores(rng, state)
    scores["P"][0] -= scores["P"][0].mean(axis=0)
    out = reverse_step(state, 0.7, 1e-3, scores, VP, 1.0, _noise([0], n=5), [0])
    assert np.abs(out["P"][0].mean(axis=0)).max() < 1e-9


def test_reverse_step_rotation_equivariance(rng):
    state = _state(rng)
    scores = _scores(rng, state)
    base = reverse_step(state, 0.5, 1e-3, scores, VP, 0.0, _noise([0]), [0])
    r = random_rotation(rng)
    rot_state = dict(state, P=state["P"] @ r.T)
    rot_scores = dict(scores, P=scores["P"] @ r.T)
    got = reverse_step(rot_state, 0.5, 1e-3, rot_scores, VP, 0.0, _noise([0]), [0])
    assert np.abs(got["P"] - base["P"] @ r.T).max() < 1e-9


def test_prior_sample_gauge():
    """The prior, the state of the first step, is beta(T) times the first
    draw of ``noise``: per path zero-CoM P and symmetric E."""
    seen = []

    def score(state, t):
        seen.append(state)
        return {c: np.zeros_like(v) for c, v in state.items()}

    integrate(_noise([0, 1], n=6), score, VP, 0.0, 1, 1e-3, range(2))
    prior = seen[0]
    assert prior["H"].shape == (2, 6, feature_width())
    assert np.abs(prior["P"].mean(axis=1)).max() < 1e-12
    assert np.array_equal(prior["E"], np.swapaxes(prior["E"], 1, 2))
    first = gauge_noise(6, np.random.default_rng(1))
    scale = alpha_beta(VP, 1.0)[1]
    for c in "PHE":
        assert np.array_equal(prior[c][1], scale * getattr(first, c))


# -- quantize -------------------------------------------------------------

def test_quantize_round_trip():
    for g in toy_corpus(count=5, seed=7):
        back = quantize(to_dense(g))
        assert np.array_equal(back.bonds, g.bonds)
        assert np.array_equal(back.atom_types, g.atom_types)


def test_quantize_tie_break_lower_index():
    d = to_dense(water_graph())
    e = np.zeros_like(d.E)
    e[..., 1] = 0.5
    e[..., 3] = 0.5   # tie between categories 1 and 3 -> 1 wins
    g = quantize(DenseTensors(H=d.H, E=e, P=d.P))
    off_diag = ~np.eye(g.n, dtype=bool)
    assert np.all(g.bonds[off_diag] == 1)


def test_quantize_constant_shift_invariance(rng):
    d = to_dense(water_graph())
    shifted = DenseTensors(H=d.H + 3.7, E=d.E - 1.2, P=d.P)
    a, b = quantize(d), quantize(shifted)
    assert np.array_equal(a.atom_types, b.atom_types)
    assert np.array_equal(a.charges, b.charges)
    assert np.array_equal(a.bonds, b.bonds)


# -- generation -----------------------------------------------------------

def test_generate_deterministic_and_valid(rng):
    net_cfg = small_net_config()
    params = init_params(net_cfg, rng)
    cfg = SamplerConfig(steps=5, lam=0.0, n_atoms=4, seed=3)
    a = generate(params, net_cfg, VP, cfg, 2)
    b = generate(params, net_cfg, VP, cfg, 2)
    for ga, gb in zip(a, b):
        assert np.array_equal(ga.bonds, gb.bonds)
        assert np.allclose(ga.positions, gb.positions)
        # structural invariants hold for every output
        assert np.all(ga.bonds == ga.bonds.T)
        assert np.all(np.diag(ga.bonds) == 0)
        assert np.all(ga.bonds < N_BOND_CATEGORIES)
        assert np.allclose(ga.positions.mean(axis=0), 0.0, atol=1e-9)


@pytest.mark.parametrize("schedule", [VP, VE])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_generate_advances_paths_together_bitwise(schedule, lam, rng, monkeypatch):
    """One forward of all paths per step, or of each group of paths under a
    smaller pair-row budget, leaves each path bit for bit as the
    one-path-per-forward loop below, on that path's own rng stream."""
    net_cfg = small_net_config()
    params = init_params(net_cfg, rng)
    cfg = SamplerConfig(steps=4, lam=lam, n_atoms=4, seed=7)
    reference = []
    for i in range(3):
        noise = _noise([[cfg.seed, i]], cfg.n_atoms)
        state = {c: alpha_beta(schedule, 1.0)[1] * z for c, z in noise().items()}
        dt = (1.0 - cfg.t_end) / cfg.steps
        for k in range(cfg.steps):
            t = 1.0 - k * dt
            path = DenseTensors(P=state["P"][0], H=state["H"][0], E=state["E"][0])
            out = network.per_molecule(network.forward(params, net_cfg, [path], [path], [t]))[0]
            scale = 1.0 / alpha_beta(schedule, t)[1]
            scores = {c: out[f"score_{c}"][None] * scale for c in ("P", "H", "E")}
            state = reverse_step(state, t, dt, scores, schedule, lam, noise, [i])
        reference.append(DenseTensors(P=state["P"][0], H=state["H"][0], E=state["E"][0]))

    finals, batch_sizes = [], []
    real_forward = sampling.forward
    monkeypatch.setattr(sampling, "quantize", lambda state: finals.append(state) or state)
    monkeypatch.setattr(sampling, "forward", lambda p, c, conds, *rest: batch_sizes.append(
        len(conds)) or real_forward(p, c, conds, *rest))
    generate(params, net_cfg, schedule, cfg, 3)
    assert batch_sizes == [3] * cfg.steps
    # a budget of 2 paths (2 n^2 pair rows each) runs paths 0-1, then path 2
    monkeypatch.setattr(network, "MAX_PAIR_ROWS", 2 * 2 * cfg.n_atoms ** 2 + 1)
    generate(params, net_cfg, schedule, cfg, 3)
    assert batch_sizes[cfg.steps:] == [2] * cfg.steps + [1] * cfg.steps
    assert len(finals) == 6
    for got, ref in zip(finals, reference * 2, strict=True):
        for comp in ("P", "H", "E"):
            assert np.array_equal(getattr(got, comp), getattr(ref, comp)), comp


def test_generate_names_the_sample_with_a_nonfinite_score(rng, monkeypatch):
    """A NaN in one path's score rows of a 3-path group stops generate with
    an error naming that path by its sample index, here in the second group."""
    net_cfg = small_net_config()
    params = init_params(net_cfg, rng)
    cfg = SamplerConfig(steps=3, n_atoms=4, seed=5)
    monkeypatch.setattr(network, "MAX_PAIR_ROWS", 3 * 2 * cfg.n_atoms ** 2)
    real_forward, groups = sampling.forward, []

    def poisoned(p, c, conds, *rest):
        record = real_forward(p, c, conds, *rest)
        groups.append(len(conds))
        if len(groups) == cfg.steps + 2:  # second step of paths 3-5: path 4's rows
            record["score_P"].data[cfg.n_atoms:2 * cfg.n_atoms, 1] = np.nan
        return record

    monkeypatch.setattr(sampling, "forward", poisoned)
    t = sampling.time_grid(cfg.t_end, cfg.steps)[1][0]
    with pytest.raises(FloatingPointError, match=f"^non-finite P score of sample 4 at t={t:.4f}$"):
        generate(params, net_cfg, VP, cfg, 6)
    assert groups == [3] * (cfg.steps + 2)


def test_generate_working_set_does_not_grow_with_count(rng, monkeypatch):
    """Paths advance in groups of as many as one forward holds within the
    pair-row budget, so what generate allocates beyond the molecules it
    returns is the same for 4 paths as for 32."""
    net_cfg = small_net_config()
    params = init_params(net_cfg, rng)
    cfg = SamplerConfig(steps=2, n_atoms=16, seed=3)
    monkeypatch.setattr(network, "MAX_PAIR_ROWS", 2 * 2 * cfg.n_atoms ** 2)
    held = {}
    for count in (4, 32):
        tracemalloc.start()
        molecules = generate(params, net_cfg, VP, cfg, count)
        returned, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(molecules) == count
        held[count] = peak - returned
    assert held[32] < 1.25 * held[4]


def test_generate_pair_features_once_per_nfe(rng, monkeypatch):
    """The state is both conditioner and input, so both encoders share one
    set of pair features per network evaluation: each path's positions are
    featurized once per step, the paths of a group in one stacked call."""
    net_cfg = small_net_config()
    params = init_params(net_cfg, rng)
    cfg = SamplerConfig(steps=5, lam=0.0, n_atoms=4, seed=3)
    stacks = []
    original = network.rbf_features
    monkeypatch.setattr(network, "rbf_features",
                        lambda positions, c: stacks.append(positions) or original(positions, c))
    generate(params, net_cfg, VP, cfg, 2)
    assert [p.shape for p in stacks] == [(2, cfg.n_atoms, 3)] * cfg.steps


@pytest.mark.parametrize("schedule", [VP, VE])
def test_generate_scales_heads_by_inverse_beta(schedule, rng, monkeypatch):
    """Each network evaluation hands the reverse step the O(1) heads times
    1/beta(t) of the schedule (the noise-prediction parametrization): the
    group's stacked scores are the record's score rows times 1/beta(t)."""
    net_cfg = small_net_config()
    params = init_params(net_cfg, rng)
    outs, steps = [], []
    real_forward, real_step = sampling.forward, sampling.reverse_step

    def spy_forward(*args, **kwargs):
        outs.append(real_forward(*args, **kwargs))
        return outs[-1]

    def spy_step(state, t, dt, scores, *rest):
        inv_beta = 1.0 / alpha_beta(schedule, t)[1]
        assert state["P"].shape == (2, 3, 3)
        for comp in ("P", "H", "E"):
            rows = outs[-1][f"score_{comp}"].data
            assert scores[comp].shape == state[comp].shape
            assert np.array_equal(scores[comp].reshape(rows.shape), rows * inv_beta)
        steps.append(t)
        return real_step(state, t, dt, scores, *rest)

    monkeypatch.setattr(sampling, "forward", spy_forward)
    monkeypatch.setattr(sampling, "reverse_step", spy_step)
    generate(params, net_cfg, schedule, SamplerConfig(steps=4, n_atoms=3, seed=1), 2)
    assert len(steps) == len(outs) == 4


# -- exact-score oracle on generate's own loop ------------------------------

ORACLE_SIGMA = 0.5


@pytest.mark.parametrize("schedule", [VP, NoiseSchedule(kind="VE", sigma_min=0.5, sigma_max=5.0)],
                         ids=["VP", "VE"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_generate_ends_in_the_data_law_under_the_exact_score(schedule, lam, monkeypatch):
    """``generate``'s own loop (prior, gauge noise, 1/beta(t) scaling, reverse
    steps), fed beta(t) times the exact marginal score of Gaussian data
    N(0, sigma^2) in each component's gauge, ends in that data's law at
    t_end: P zero-CoM isotropic, H i.i.d., E symmetric with a zero diagonal.

    The free coordinates (P in an orthonormal basis of its zero-CoM
    subspace, all of H, E above the diagonal) match the law's mean 0 and
    variance alpha^2 sigma^2 + beta^2 within 3 Monte-Carlo standard errors;
    the gauge coordinates (P's centre of mass, E's diagonal and its
    antisymmetric part) stay 0. The VE schedule spans sigma 0.5..5, so its
    prior N(0, 25) is within 1% of the true marginal at t = 1. At 300 Euler
    steps the probability-flow ODE's own bias on VE, about 3% of the
    variance, is half the 3-standard-error band of E's variance.
    """
    n, count = 12, 16
    cfg = SamplerConfig(steps=300, lam=lam, n_atoms=n, seed=3)
    finals = []

    def exact_scores(params, net_cfg, conds, inputs, times):
        """A forward record of the scores' rows: atom rows of P and H, pair rows of E."""
        return {f"score_{c}": Tensor(np.concatenate([
                    alpha_beta(schedule, t)[1] * gaussian_marginal_score(
                        getattr(x, c), t, 0.0, ORACLE_SIGMA, schedule).reshape(-1, width)
                    for x, t in zip(inputs, times)]))
                for c, width in (("P", 3), ("H", feature_width()), ("E", N_BOND_CATEGORIES))}

    monkeypatch.setattr(sampling, "forward", exact_scores)
    monkeypatch.setattr(sampling, "quantize", lambda state: finals.append(state) or state)
    generate({}, None, schedule, cfg, count)

    a, b = alpha_beta(schedule, cfg.t_end)
    var = a * a * ORACLE_SIGMA ** 2 + b * b
    basis = np.linalg.qr(np.eye(n) - 1.0 / n)[0][:, :n - 1]  # spans the zero-CoM subspace
    upper = np.triu_indices(n, k=1)
    free = {"P": [basis.T @ s.P for s in finals], "H": [s.H for s in finals],
            "E": [s.E[upper] for s in finals]}
    for comp, values in free.items():
        x = np.ravel(values)
        assert abs(x.mean()) < 3 * np.sqrt(var / x.size), comp
        assert abs((x * x).mean() - var) < 3 * var * np.sqrt(2 / x.size), comp
    for s in finals:
        assert np.abs(s.P.mean(axis=0)).max() < 1e-12
        assert np.array_equal(s.E, np.swapaxes(s.E, 0, 1))
        assert not s.E[np.arange(n), np.arange(n)].any()


# -- analytic OU toy ------------------------------------------------------

def test_ou_marginal_preservation_quick(rng):
    mu0, sigma0 = 0.6, 0.9

    def score(x, t):
        a, b = alpha_beta(VP, t)
        return -(x - a * mu0) / (a * a * sigma0 * sigma0 + b * b)

    n = 4000
    for lam in (0.0, 0.5, 1.0):
        x = reverse_paths_1d(VP, score, lam, steps=400, n_paths=n,
                             rng=np.random.default_rng(5))
        assert abs(x.mean() - mu0) < 3.0 * sigma0 / np.sqrt(n) + 0.02
        assert abs(x.std() - sigma0) < 3.0 * sigma0 / np.sqrt(2 * n) + 0.02


def test_reverse_paths_1d_names_a_nonfinite_score():
    """The scalar toy runs the same finiteness check as generate: a score
    that turns NaN on one path at one step names that path and step."""
    t_bad = sampling.time_grid(1e-3, 5)[2][0]

    def score(x, t):
        s = -x
        if t == t_bad:
            s[7] = np.nan
        return s

    message = f"^non-finite x score of sample 7 at t={t_bad:.4f}$"
    with pytest.raises(FloatingPointError, match=message):
        reverse_paths_1d(VP, score, 0.5, steps=5, n_paths=10, rng=np.random.default_rng(0))
