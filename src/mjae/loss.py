"""Training objectives: denoising score matching, trajectory-contrastive
regularization, their weighted combination, and the finite-state
gradient-decomposition verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .schedule import alpha_beta

COMPONENTS = ("P", "H", "E")


@dataclass(frozen=True)
class LossReport:
    l_sc: float
    l_co: float
    total: float
    per_component: dict  # P/H/E breakdown of the score-matching term


def score_matching_loss(pred, target, weight, sizes):
    """Weighted MSE between predicted and conditional scores of a batch of
    molecules of ``sizes`` atoms.

    ``pred`` maps component -> Tensor and ``target`` component -> array, each
    stacking the molecules' rows: one per atom for P and H, one per atom pair
    (i, j) for E. A molecule's term is its ``weight`` entry times the sum
    over components of the mean squared error over its rows; the loss is the
    mean of the molecules' terms. Returns (scalar Tensor, per-component float dict
    of the molecules' mean terms)."""
    weight = Tensor(weight)
    rows = {"P": sizes, "H": sizes, "E": [n * n for n in sizes]}
    total = None
    breakdown = {}
    for comp in COMPONENTS:
        p = pred[comp]
        tgt = np.asarray(target[comp])
        if p.shape != tgt.shape:
            raise ad.ShapeError(
                f"score_matching_loss[{comp}]: pred {p.shape} vs target {tgt.shape}")
        mse = ad.block_mean(ad.square(ad.sub(p, Tensor(tgt))), rows[comp], axis=None)
        breakdown[comp] = float((mse.data * weight.data).mean())
        total = mse if total is None else ad.add(total, mse)
    return ad.mean(ad.mul(total, weight)), breakdown


def contrastive_loss(anchors, positives, tau):
    """In-batch InfoNCE on squared embedding distances.

    ``anchors``/``positives`` are (b, d) Tensors of unit-norm embedding rows
    for x0 and the matching x_t. Similarity is -||a_i - p_j||^2 / tau^2; each
    anchor is contrasted against its own positive and the other positives.
    """
    b = anchors.shape[0]
    if b < 2:
        raise ValueError("contrastive loss needs batch size >= 2 for negatives")
    if positives.shape != anchors.shape:
        raise ad.ShapeError(f"contrastive_loss: anchors {anchors.shape} vs "
                            f"positives {positives.shape}")
    # ||a_i - p_j||^2 = |a_i|^2 + |p_j|^2 - 2 a_i . p_j
    a2 = ad.reshape(ad.sum_(ad.square(anchors), axis=1), (b, 1))
    p2 = ad.sum_(ad.square(positives), axis=1)
    cross = ad.matmul(anchors, ad.transpose(positives))
    dist2 = ad.add(ad.sub(a2, ad.mul(Tensor(2.0), cross)), p2)
    logits = ad.mul(dist2, Tensor(-1.0 / (tau * tau)))
    probs = ad.softmax(logits)
    diag = ad.reshape(probs, (b * b,))[np.arange(b) * (b + 1)]
    return ad.mul(Tensor(-1.0), ad.mean(ad.log(diag)))


def anneal_tau(tau0, schedule, t):
    """Monotone temperature annealing tau(t) = tau0 * (0.5 + beta(t))."""
    return tau0 * (0.5 + alpha_beta(schedule, t)[1])


def combine(l_sc, l_co, lambda1, lambda2, per_component):
    """The taped total lambda1 * l_sc + lambda2 * l_co and its LossReport,
    whose total is read off the tape. A non-finite term raises ValueError."""
    sc, co = float(l_sc.data), float(l_co.data)
    if not (np.isfinite(sc) and np.isfinite(co)):
        raise ValueError("non-finite loss term")
    total = ad.add(ad.mul(Tensor(lambda1), l_sc), ad.mul(Tensor(lambda2), l_co))
    return total, LossReport(l_sc=sc, l_co=co, total=float(total.data),
                             per_component=dict(per_component))


def verify_decomposition(theta, x0_idx, xt_idx):
    """Joint-likelihood gradient decomposition check on a finite-state toy.

    ``theta`` parameterizes a joint table p(x0, xt) = softmax(theta) over
    n0 x nt states. For the observed pair, returns (grad of log p(x0, xt),
    grad of log q(x0) + grad of log f(xt | x0), max abs residual); the two
    gradients agree identically by the chain rule log p = log q + log f.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2:
        raise ValueError("theta must be a 2-D table")
    flat = theta.reshape(-1)
    shifted = flat - flat.max()
    p = np.exp(shifted) / np.exp(shifted).sum()
    p = p.reshape(theta.shape)
    if not np.all(np.isfinite(p)):
        raise ValueError("non-normalizable table")

    # d log p(x0, xt) / d theta_ab = 1[(a,b)=(x0,xt)] - p_ab
    grad_joint = -p.copy()
    grad_joint[x0_idx, xt_idx] += 1.0

    q = p.sum(axis=1)                       # marginal over xt
    # d log q(x0) / d theta_ab = 1[a=x0] p_ab / q_x0 - p_ab
    grad_marginal = -p.copy()
    grad_marginal[x0_idx, :] += p[x0_idx, :] / q[x0_idx]

    # d log f(xt|x0) / d theta_ab = 1[(a,b)=(x0,xt)] - 1[a=x0] p_ab / q_x0
    grad_conditional = np.zeros_like(p)
    grad_conditional[x0_idx, :] -= p[x0_idx, :] / q[x0_idx]
    grad_conditional[x0_idx, xt_idx] += 1.0

    residual = np.abs(grad_joint - (grad_marginal + grad_conditional)).max()
    return grad_joint, grad_marginal + grad_conditional, residual
