import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mjae.schedule import HORIZON, NoiseSchedule, alpha_beta, drift_diffusion

VP = NoiseSchedule(kind="VP", beta_min=0.1, beta_max=10.0)
VE = NoiseSchedule(kind="VE", sigma_min=0.01, sigma_max=1.0)


def test_vp_t0_identity():
    a, b = alpha_beta(VP, 0.0)
    assert a == 1.0 and b == 0.0


def test_vp_identity_on_grid():
    for t in np.linspace(0.0, HORIZON, 1000):
        a, b = alpha_beta(VP, t)
        assert abs(a * a + b * b - 1.0) < 1e-12


def test_ve_endpoints():
    assert alpha_beta(VE, 0.0) == (1.0, 0.01)
    a, b = alpha_beta(VE, 1.0)
    assert a == 1.0 and abs(b - 1.0) < 1e-12


def test_monotonicity():
    for sched in (VP, VE):
        grid = np.linspace(0.0, HORIZON, 1000)
        alphas, betas = zip(*(alpha_beta(sched, t) for t in grid))
        assert all(a1 >= a2 for a1, a2 in zip(alphas, alphas[1:]))
        assert all(b1 <= b2 for b1, b2 in zip(betas, betas[1:]))


def test_ve_no_drift():
    for t in (0.0, 0.3, 1.0):
        f, _ = drift_diffusion(VE, t)
        assert f == 0.0


def test_vp_coefficients_closed_form():
    for t in (0.0, 0.25, 0.8):
        rate = 0.1 + (10.0 - 0.1) * t
        f, g = drift_diffusion(VP, t)
        assert abs(f + 0.5 * rate) < 1e-12
        assert abs(g - np.sqrt(rate)) < 1e-12


@pytest.mark.parametrize("sched", [VP, VE])
def test_drift_consistency_with_alpha(sched):
    # d(alpha)/dt = f(t) alpha(t), central finite differences
    h = 1e-6
    for t in (0.1, 0.5, 0.9):
        da = (alpha_beta(sched, t + h)[0] - alpha_beta(sched, t - h)[0]) / (2 * h)
        f, _ = drift_diffusion(sched, t)
        assert abs(da - f * alpha_beta(sched, t)[0]) < 1e-6


@pytest.mark.parametrize("sched", [VP, VE])
def test_euler_maruyama_matches_marginals(sched):
    # simulate dx = f x dt + g dw from x0 and compare against (alpha, beta)
    rng = np.random.default_rng(42)
    n_paths, steps = 10_000, 1000
    x0 = 2.0
    x = np.full(n_paths, x0)
    dt = HORIZON / steps
    for k in range(steps):
        t = k * dt
        f, g = drift_diffusion(sched, t)
        x = x + f * x * dt + g * np.sqrt(dt) * rng.standard_normal(n_paths)
    a, b = alpha_beta(sched, HORIZON)
    mean_tol = 3.0 * b / np.sqrt(n_paths) + 5e-2   # MC 3 sigma + O(dt) bias
    assert abs(x.mean() - a * x0) < mean_tol
    std_tol = 3.0 * b / np.sqrt(2.0 * n_paths) + 5e-2
    assert abs(x.std() - b) < std_tol


def test_time_domain_errors():
    with pytest.raises(ValueError):
        alpha_beta(VP, -0.1)
    with pytest.raises(ValueError):
        drift_diffusion(VE, 1.5)


@pytest.mark.parametrize("sched", [VP, VE])
def test_array_times_match_scalar_calls(sched):
    grid = np.concatenate([np.linspace(0.0, HORIZON, 257),
                           np.random.default_rng(3).uniform(size=64)])
    alphas, betas = alpha_beta(sched, grid)
    assert alphas.shape == betas.shape == grid.shape
    for t, a, b in zip(grid, alphas, betas):
        a_ref, b_ref = alpha_beta(sched, float(t))
        assert abs(a - a_ref) <= 1e-15 * abs(a_ref)
        assert abs(b - b_ref) <= 1e-15 * abs(b_ref)
    a2, b2 = alpha_beta(sched, grid.reshape(-1, 1))
    assert a2.shape == b2.shape == (grid.size, 1)


@pytest.mark.parametrize("bad", [np.array([0.2, -1e-9]), np.array([0.5, 1.0 + 1e-9]),
                                 np.array([np.nan, 0.5]), np.array([[0.1], [np.inf]]),
                                 float("nan")])
def test_array_and_nan_time_domain_errors(bad):
    for sched in (VP, VE):
        with pytest.raises(ValueError, match="outside"):
            alpha_beta(sched, bad)


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseSchedule(kind="cosine")
    with pytest.raises(ValueError):
        NoiseSchedule(kind="VP", beta_min=2.0, beta_max=1.0)
    with pytest.raises(ValueError):
        NoiseSchedule(kind="VE", sigma_min=0.0)
    for name in ("beta_min", "beta_max", "sigma_min", "sigma_max"):
        with pytest.raises(ValueError, match=f"NoiseSchedule.{name} must be finite"):
            NoiseSchedule(**{name: np.inf})


def test_vp_needs_a_positive_rate():
    # all-zero rates give beta(t) = 0 at every t: no noise, no score target
    with pytest.raises(ValueError, match="NoiseSchedule.beta_max must be > 0 for VP"):
        NoiseSchedule(kind="VP", beta_min=0.0, beta_max=0.0)
    NoiseSchedule(kind="VP", beta_min=0.0, beta_max=1e-3)
    NoiseSchedule(kind="VE", beta_min=0.0, beta_max=0.0)  # VE reads no rate


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_vp_identity_property(t):
    a, b = alpha_beta(VP, t)
    assert abs(a * a + b * b - 1.0) < 1e-12
    assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0
