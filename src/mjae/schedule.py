"""Noise schedules for the closed-form forward perturbation x_t = a(t) x0 + b(t) z.

Two families on the dimensionless horizon [0, 1]:

* VP (variance preserving): linear rate beta_rate(t) = beta_min + (beta_max -
  beta_min) t, alpha(t) = exp(-0.5 * int_0^t beta_rate), beta(t) =
  sqrt(1 - alpha^2); alpha^2 + beta^2 = 1 holds identically.
* VE (variance exploding): alpha(t) = 1, beta(t) geometric from sigma_min to
  sigma_max.

``drift_diffusion`` gives SDE coefficients (f, g) with dx = f(t) x dt +
g(t) dw whose marginals reproduce (alpha, beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HORIZON = 1.0


@dataclass(frozen=True)
class NoiseSchedule:
    kind: str = "VP"              # "VP" or "VE"
    beta_min: float = 0.1         # VP rate bounds (paper's beta range)
    beta_max: float = 10.0
    sigma_min: float = 0.01       # VE noise bounds
    sigma_max: float = 1.0

    def __post_init__(self):
        if self.kind not in ("VP", "VE"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in ("beta_min", "beta_max", "sigma_min", "sigma_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"NoiseSchedule.{name} must be finite, got {getattr(self, name)}")
        if self.kind == "VP" and not 0 <= self.beta_min <= self.beta_max:
            raise ValueError("require 0 <= beta_min <= beta_max")
        if self.kind == "VP" and not self.beta_max > 0:
            raise ValueError("NoiseSchedule.beta_max must be > 0 for VP (else beta(t) = 0 "
                             f"for every t and no score target is defined), got {self.beta_max}")
        if self.kind == "VE" and not 0 < self.sigma_min <= self.sigma_max:
            raise ValueError("require 0 < sigma_min <= sigma_max")


def _check_time(t):
    """Raise unless every time in ``t`` (a float or an array) lies in
    [0, HORIZON]; NaN lies outside."""
    inside = (t >= 0.0) & (t <= HORIZON)
    # a float gives a plain bool; np.all would cost microseconds even then
    if inside is not True and not np.all(inside):
        raise ValueError(f"time {np.asarray(t)[~np.asarray(inside)].flat[0]} "
                         f"outside [0, {HORIZON}]")


def alpha_beta(schedule, t):
    """Marginal coefficients (alpha(t), beta(t)) of the forward perturbation.

    ``t`` is a float or an array of times; each coefficient has its shape.
    """
    _check_time(t)
    if schedule.kind == "VP":
        integral = schedule.beta_min * t + 0.5 * (schedule.beta_max - schedule.beta_min) * t * t
        alpha = np.exp(-0.5 * integral)
        return alpha, np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha))
    ratio = schedule.sigma_max / schedule.sigma_min
    return np.ones_like(t)[()], schedule.sigma_min * ratio ** t


def drift_diffusion(schedule, t):
    """SDE coefficients (f, g): dx = f(t) x dt + g(t) dw matching alpha_beta.

    VP: f = -beta_rate/2, g = sqrt(beta_rate). VE: f = 0, g = d(beta^2)/dt
    under the square root, i.e. beta(t) sqrt(2 ln(sigma_max/sigma_min)).
    """
    _check_time(t)
    if schedule.kind == "VP":
        rate = schedule.beta_min + (schedule.beta_max - schedule.beta_min) * t
        return -0.5 * rate, math.sqrt(rate)
    log_ratio = math.log(schedule.sigma_max / schedule.sigma_min)
    _, beta = alpha_beta(schedule, t)
    return 0.0, beta * math.sqrt(2.0 * log_ratio)
