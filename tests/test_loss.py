import numpy as np
import pytest

from conftest import fd_grad, small_net_config, toy_corpus
from mjae import autodiff as ad
from mjae import network, training
from mjae.autodiff import Tensor
from mjae.loss import (COMPONENTS, anneal_tau, combine, contrastive_loss,
                       score_matching_loss, total_loss, verify_decomposition)
from mjae.molgraph import DenseTensors, to_dense
from mjae.network import init_params, per_molecule
from mjae.schedule import NoiseSchedule, alpha_beta

VP = NoiseSchedule(kind="VP")
VE = NoiseSchedule(kind="VE")


def _weight(t):
    """The likelihood weighting beta(t)^2 that training_step applies."""
    return alpha_beta(VP, t)[1] ** 2


def _pred_target(rng, offset=0.0):
    """Prediction and target rows of one 4-atom molecule (E as 16 pair rows)."""
    shapes = {"P": (4, 3), "H": (4, 9), "E": (16, 5)}
    target = {c: rng.standard_normal(shapes[c]) for c in COMPONENTS}
    pred = {c: Tensor(target[c] + offset) for c in COMPONENTS}
    return pred, target


def test_time_weight(monkeypatch):
    # training_step scales the heads by 1/beta(t) and weights the
    # score-matching term by beta(t)^2, both from the config's one schedule,
    # in one score_matching_loss call over the batch
    batches, seen = [], []
    real_forward = network.forward

    def spy_forward(params, cfg, conds, inputs, times, **kw):
        out = real_forward(params, cfg, conds, inputs, times, **kw)
        batches.append((out, times))
        return out

    def spy_loss(pred, target, weight, sizes):
        seen.append({"pred": pred, "weight": weight, "sizes": sizes})
        return score_matching_loss(pred, target, weight, sizes)

    monkeypatch.setattr(training, "forward", spy_forward)
    monkeypatch.setattr(training.losses, "score_matching_loss", spy_loss)
    net_cfg = small_net_config()
    params = init_params(net_cfg, np.random.default_rng(0))
    batch = [to_dense(g) for g in toy_corpus(count=3, seed=5)]
    for schedule in (VP, VE):
        batches.clear()
        seen.clear()
        rngs = [np.random.default_rng([9, i]) for i in range(3)]
        cfg = training.TrainConfig(batch_size=3, schedule=schedule)
        training.training_step(params, net_cfg, cfg, batch, rngs)
        assert len(batches) == 1 and len(seen) == 1
        out, times = batches[0]
        call = seen[0]
        assert tuple(call["sizes"]) == tuple(m.n for m in batch)
        assert len(call["weight"]) == 3
        pred = per_molecule({**out, **{f"score_{c}": call["pred"][c] for c in COMPONENTS}})
        for mol, heads, t, weight in zip(pred, per_molecule(out), times, call["weight"]):
            beta = alpha_beta(schedule, t)[1]
            for comp in COMPONENTS:
                assert np.array_equal(mol[f"score_{comp}"],
                                      heads[f"score_{comp}"] * (1.0 / beta))
            assert weight == beta ** 2


def test_score_matching_zero_at_target(rng):
    pred, target = _pred_target(rng)
    loss, breakdown = score_matching_loss(pred, target, _weight(0.5), [4])
    assert float(loss.data) == 0.0
    assert all(v == 0.0 for v in breakdown.values())


def test_score_matching_constant_offset(rng):
    c = 0.7
    pred, target = _pred_target(rng, offset=c)
    w = _weight(0.3)
    loss, breakdown = score_matching_loss(pred, target, w, [4])
    for comp in COMPONENTS:
        assert abs(breakdown[comp] - w * c * c) < 1e-12
    assert abs(float(loss.data) - sum(breakdown.values())) < 1e-12


def test_score_matching_pred_zero_second_moment(rng):
    pred, target = _pred_target(rng)
    zero_pred = {c: Tensor(np.zeros_like(target[c])) for c in COMPONENTS}
    w = _weight(0.6)
    loss, _ = score_matching_loss(zero_pred, target, w, [4])
    expect = sum(w * (target[c] ** 2).mean() for c in COMPONENTS)
    assert abs(float(loss.data) - expect) < 1e-12


def test_score_matching_shape_mismatch(rng):
    pred, target = _pred_target(rng)
    pred["H"] = Tensor(np.zeros((2, 2)))
    with pytest.raises(ad.ShapeError, match="H"):
        score_matching_loss(pred, target, _weight(0.5), [4])


# -- contrastive ----------------------------------------------------------

def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return Tensor(v / np.linalg.norm(v))


def _rows(vectors):
    """Embedding vectors as the (b, d) rows contrastive_loss takes."""
    return ad.concat([ad.reshape(v, (1, v.shape[0])) for v in vectors], axis=0)


def test_contrastive_identical_embeddings_log_b():
    for b in (2, 3, 5):
        e = _unit(np.ones(4))
        loss = contrastive_loss(_rows([e] * b), _rows([e] * b), tau=0.5)
        assert abs(float(loss.data) - np.log(b)) < 1e-12


def test_contrastive_saturation():
    # positive at distance 0, negative antipodal, tiny tau: loss -> 0
    a = _unit([1.0, 0.0])
    b = _unit([-1.0, 0.0])
    loss = contrastive_loss(_rows([a, b]), _rows([a, b]), tau=0.1)
    assert float(loss.data) < 1e-10


def test_contrastive_needs_negatives():
    e = _unit(np.ones(3))
    with pytest.raises(ValueError, match=">= 2"):
        contrastive_loss(_rows([e]), _rows([e]), tau=0.5)


def test_contrastive_nonnegative(rng):
    anchors = [_unit(rng.standard_normal(6)) for _ in range(4)]
    positives = [_unit(rng.standard_normal(6)) for _ in range(4)]
    assert float(contrastive_loss(_rows(anchors), _rows(positives), tau=0.7).data) >= 0.0


def test_contrastive_gradient_pulls_positive_closer(rng):
    # one gradient-descent step on a 2-point toy strictly decreases the
    # anchor-positive distance
    a_raw = np.array([1.0, 0.2, 0.0])
    p_raw = np.array([-0.3, 1.0, 0.4])
    other = rng.standard_normal(3)

    def build(p_data):
        anchors = [_unit(a_raw), _unit(other)]
        pt = Tensor(p_data, requires_grad=True)
        norm = ad.sqrt(ad.sum_(ad.square(pt)))
        positives = [ad.div(pt, norm),
                     _unit(other)]
        return pt, contrastive_loss(_rows(anchors), _rows(positives), tau=0.5)

    pt, loss = build(p_raw.copy())
    ad.backward(loss)
    stepped = p_raw - 0.1 * pt.grad
    def dist(p):
        pu = p / np.linalg.norm(p)
        return np.linalg.norm(a_raw / np.linalg.norm(a_raw) - pu)
    assert dist(stepped) < dist(p_raw)


def test_contrastive_gradient_matches_fd(rng):
    a0 = rng.standard_normal((3, 4))
    p0 = rng.standard_normal((3, 4))

    def loss_of(p_data):
        anchors = [_unit(a0[i]) for i in range(3)]
        positives = [Tensor(p_data[i]) for i in range(3)]
        return contrastive_loss(_rows(anchors), _rows(positives), tau=0.6)

    leaves = [Tensor(p0[i].copy(), requires_grad=True) for i in range(3)]
    loss = contrastive_loss(_rows([_unit(a0[i]) for i in range(3)]), _rows(leaves), tau=0.6)
    ad.backward(loss)
    got = np.stack([l.grad for l in leaves])
    numeric = fd_grad(lambda p: float(loss_of(p).data), p0.copy())
    assert np.abs(got - numeric).max() < 1e-6


def test_anneal_tau_monotone():
    taus = [anneal_tau(0.5, VP, t) for t in np.linspace(1e-3, 1.0, 50)]
    assert all(t1 <= t2 for t1, t2 in zip(taus, taus[1:]))
    assert abs(taus[-1] - 0.5 * (0.5 + alpha_beta(VP, 1.0)[1])) < 1e-12


# -- combination ----------------------------------------------------------

def test_total_loss_contract():
    rep = total_loss(2.0, 3.0, lambda1=1.0, lambda2=0.0)
    assert rep.total == rep.l_sc == 2.0
    rep = total_loss(2.0, 3.0)  # defaults lambda1=1, lambda2=0.01
    assert abs(rep.total - (2.0 + 0.03)) < 1e-12
    assert total_loss(2.0, 3.0, 0.0, 0.0).total == 0.0
    with pytest.raises(ValueError):
        total_loss(1.0, 1.0, lambda1=-0.1)
    with pytest.raises(ValueError):
        total_loss(np.inf, 1.0)


def test_combine_is_tape_aware():
    a = Tensor(np.array(2.0), requires_grad=True)
    b = Tensor(np.array(3.0), requires_grad=True)
    out = combine(a, b, 1.0, 0.01)
    ad.backward(out)
    assert abs(float(a.grad) - 1.0) < 1e-12
    assert abs(float(b.grad) - 0.01) < 1e-12


# -- decomposition identity ----------------------------------------------

def test_decomposition_uniform_table_exact_zero():
    theta = np.zeros((2, 2))
    _, _, residual = verify_decomposition(theta, 0, 1)
    assert residual == 0.0


def test_decomposition_random_tables():
    for seed in range(100):
        r = np.random.default_rng(seed)
        theta = r.standard_normal((5, 5))
        _, _, residual = verify_decomposition(theta, int(r.integers(5)), int(r.integers(5)))
        assert residual < 1e-10


def test_decomposition_joint_gradient_matches_fd(rng):
    theta = rng.standard_normal((4, 4))
    x0, xt = 1, 2
    grad_joint, grad_sum, _ = verify_decomposition(theta, x0, xt)

    def log_joint(th):
        flat = th.reshape(-1)
        shifted = flat - flat.max()
        p = np.exp(shifted) / np.exp(shifted).sum()
        return float(np.log(p.reshape(th.shape)[x0, xt]))

    numeric = fd_grad(log_joint, theta.copy())
    assert np.abs(grad_joint - numeric).max() < 1e-8
    assert np.abs(grad_sum - numeric).max() < 1e-8


def test_decomposition_rejects_bad_table():
    with pytest.raises(ValueError):
        verify_decomposition(np.zeros(4), 0, 0)
