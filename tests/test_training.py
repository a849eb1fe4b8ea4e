import json
import os
import struct
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import json_values, small_net_config, toy_corpus, write_raw_checkpoint
from mjae import autodiff as ad
from mjae import loss as losses
from mjae import evalsuite, network, training
from mjae.autodiff import Tensor
from mjae.molgraph import to_dense
from mjae.network import NetworkConfig, init_params
from mjae.schedule import NoiseSchedule, alpha_beta
from mjae.training import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, GRAD_CLIP, CheckpointError,
                           TrainConfig, adam_step,
                           build_schedules, check_shapes, clip_gradients, cosine_lr,
                           init_adam_state, load_checkpoint, save_checkpoint,
                           train, training_step)
from mjae.trajectory import perturb_continuous, sample_time


def test_config_validation():
    with pytest.raises(ValueError, match="learning rate"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="batch size"):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError, match="lr_schedule"):
        TrainConfig(lr_schedule="linear")
    for name, bad in (("lr", np.nan), ("lr", np.inf), ("lambda1", -1.0), ("lambda2", np.inf),
                      ("tau0", 0.0), ("t_min", 0.0), ("t_min", 1.0), ("t_min", np.nan),
                      ("self_cond_prob", -0.1), ("self_cond_prob", 2.0)):
        with pytest.raises(ValueError, match=f"TrainConfig.{name} must be"):
            TrainConfig(**{name: bad})
    TrainConfig(lambda1=0.0, lambda2=0.0, self_cond_prob=1.0)


def test_build_schedules():
    cfg = TrainConfig(schedule=NoiseSchedule(kind="VE"))
    assert build_schedules(cfg) is cfg.schedule


# -- adam -----------------------------------------------------------------

def _toy_params(rng):
    return {"w": Tensor(rng.standard_normal((2, 2)), requires_grad=True)}


def test_adam_zero_gradients(rng):
    params = _toy_params(rng)
    before = params["w"].data.copy()
    state = init_adam_state(params)
    adam_step(params, {"w": np.zeros((2, 2))}, state, lr=0.1)
    assert np.array_equal(params["w"].data, before)
    assert state["step"] == 1


def test_adam_first_step_magnitude(rng):
    params = _toy_params(rng)
    before = params["w"].data.copy()
    state = init_adam_state(params)
    g = np.full((2, 2), 3.0)
    adam_step(params, {"w": g}, state, lr=1e-2)
    # bias-corrected first step is a sign step of magnitude ~ lr
    update = before - params["w"].data
    assert np.abs(update - 1e-2 * np.sign(g)).max() < 1e-6


def test_adam_quadratic_bowl():
    theta = {"x": Tensor(np.array(1.0), requires_grad=True)}
    state = init_adam_state(theta)
    for _ in range(500):
        adam_step(theta, {"x": 2.0 * theta["x"].data}, state, lr=1e-2)
    assert abs(float(theta["x"].data)) < 1e-3


def test_adam_rejects_nan_gradient(rng):
    params = _toy_params(rng)
    before = params["w"].data.copy()
    state = init_adam_state(params)
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(params, {"w": np.full((2, 2), np.nan)}, state, lr=0.1)
    assert np.array_equal(params["w"].data, before)
    assert state["step"] == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_rejects_one_nonfinite_entry_by_name(bad, rng):
    """One non-finite entry of the second tensor rejects the whole step,
    naming that tensor; no parameter or optimizer state changes."""
    params = {"a": Tensor(rng.standard_normal(3), requires_grad=True),
              "b": Tensor(rng.standard_normal((2, 2)), requires_grad=True)}
    state = init_adam_state(params)
    adam_step(params, {k: rng.standard_normal(p.shape) for k, p in params.items()}, state,
              lr=0.1)
    before = {k: p.data.copy() for k, p in params.items()}
    moments = {k: (state["m"][k].copy(), state["v"][k].copy()) for k in params}
    g_b = rng.standard_normal((2, 2))
    g_b[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite gradient for 'b'"):
        adam_step(params, {"a": rng.standard_normal(3), "b": g_b}, state, lr=0.1)
    assert state["step"] == 1
    for k, p in params.items():
        assert np.array_equal(p.data, before[k])
        assert np.array_equal(state["m"][k], moments[k][0])
        assert np.array_equal(state["v"][k], moments[k][1])


def test_adam_applies_finite_gradient_whose_sum_overflows(rng):
    """Finite entries whose sum overflows to inf are a valid gradient: the
    step is applied, bit for bit as the out-of-place formula."""
    params = {"w": Tensor(rng.standard_normal(2), requires_grad=True)}
    ref = params["w"].data.copy()
    g = np.array([1e308, 1e308])
    state = init_adam_state(params)
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    with np.errstate(over="ignore"):
        assert not np.isfinite(g.sum())
        adam_step(params, {"w": g}, state, lr)
        m = (1.0 - b1) * g
        v = (1.0 - b2) * g * g
        ref = ref - lr * (m / (1.0 - b1)) / (np.sqrt(v / (1.0 - b2)) + eps)
    assert state["step"] == 1
    assert np.array_equal(state["m"]["w"], m) and np.array_equal(state["v"]["w"], v)
    assert np.array_equal(params["w"].data, ref)


def test_adam_matches_textbook_formula_bitwise(rng):
    """Twelve in-place steps against the out-of-place formula, written out."""
    shapes = {"w": (3, 4), "b": (4,), "s": ()}
    params = {k: Tensor(rng.standard_normal(s), requires_grad=True)
              for k, s in shapes.items()}
    ref = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    state = init_adam_state(params)
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    for step in range(1, 13):
        grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
        adam_step(params, grads, state, lr)
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            ref[k] = ref[k] - lr * (m[k] / (1.0 - b1 ** step)) / (
                np.sqrt(v[k] / (1.0 - b2 ** step)) + eps)
            assert np.array_equal(params[k].data, ref[k])
            assert np.array_equal(state["m"][k], m[k])
            assert np.array_equal(state["v"][k], v[k])
    assert state["step"] == 12


def test_clip_gradients():
    assert GRAD_CLIP == 10.0
    grads = {"a": np.array([30.0, 40.0])}
    clipped, norm = clip_gradients(grads)
    assert abs(norm - 50.0) < 1e-12
    assert abs(np.linalg.norm(clipped["a"]) - GRAD_CLIP) < 1e-12
    below = {"a": np.array([3.0, 4.0])}
    same, norm = clip_gradients(below)
    assert abs(norm - 5.0) < 1e-12
    assert np.array_equal(same["a"], below["a"])


# -- training loop --------------------------------------------------------

def _quick_cfg(**kw):
    base = dict(epochs=2, batch_size=4, lr=5e-4, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_smoke_and_determinism():
    data = toy_corpus(count=6, seed=11)
    net = small_net_config()
    _, hist1 = train(data, _quick_cfg(), net)
    _, hist2 = train(data, _quick_cfg(), net)
    assert len(hist1) == 2
    assert all(np.isfinite(h["total"]) for h in hist1)
    assert hist1 == hist2  # bitwise-identical loss history


def test_train_seed_changes_history():
    data = toy_corpus(count=6, seed=11)
    net = small_net_config()
    _, h0 = train(data, _quick_cfg(seed=0), net)
    _, h1 = train(data, _quick_cfg(seed=1), net)
    assert h0 != h1


def test_train_lambda_grid_completes():
    data = toy_corpus(count=4, seed=3)
    net = small_net_config()
    for lam2 in (0.0, 0.01, 1.0):
        _, hist = train(data, _quick_cfg(epochs=1, lambda2=lam2), net)
        assert np.isfinite(hist[0]["total"])


def test_train_cosine_schedule_changes_history():
    data = toy_corpus(count=6, seed=11)
    net = small_net_config()
    _, const = train(data, _quick_cfg(), net)
    _, cos = train(data, _quick_cfg(lr_schedule="cosine"), net)
    assert const != cos


@pytest.mark.parametrize("count, batch_size, epochs, steps", [
    (6, 4, 3, 6),   # a final batch of 2 runs every epoch
    (5, 4, 3, 3),   # a final batch of 1 is skipped
    (3, 4, 2, 2),   # one partial batch per epoch
    (8, 4, 2, 4),   # batches divide the corpus evenly
])
def test_cosine_lr_spans_the_batches_train_runs(monkeypatch, count, batch_size,
                                                epochs, steps):
    lrs = []

    def spy(params, grads, state, lr):
        lrs.append(lr)
        return adam_step(params, grads, state, lr)

    monkeypatch.setattr(training, "adam_step", spy)
    cfg = _quick_cfg(epochs=epochs, batch_size=batch_size, lr_schedule="cosine")
    train(toy_corpus(count=count, seed=11), cfg, small_net_config())
    assert len(lrs) == steps
    assert lrs[0] == cfg.lr
    assert all(a > b for a, b in zip(lrs, lrs[1:]))
    assert min(lrs) > 0.1 * cfg.lr  # the floor is only reached after the run
    # each step's lr is the shared cosine rule's, bit for bit
    assert [lr.hex() for lr in lrs] == [cosine_lr(cfg.lr, step, steps).hex()
                                        for step in range(steps)]


def test_score_toy_lr_is_the_shared_cosine_rule(monkeypatch):
    """``gaussian_score_toy`` steps with ``cosine_lr`` of its own step count,
    bit for bit, at a count (24) where the rounding of pi * step / total and
    pi * (step / total) differs."""
    lrs = []

    def spy(params, grads, state, lr):
        lrs.append(lr)
        return adam_step(params, grads, state, lr)

    monkeypatch.setattr(evalsuite, "adam_step", spy)
    evalsuite.gaussian_score_toy(NoiseSchedule(), train_steps=24)
    assert [lr.hex() for lr in lrs] == [cosine_lr(lrs[0], step, 24).hex()
                                        for step in range(24)]


def test_train_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        train([], _quick_cfg(), small_net_config())


def test_train_one_molecule_is_value_error():
    with pytest.raises(ValueError, match="1 molecule"):
        train(toy_corpus(count=1, seed=2), _quick_cfg(), small_net_config())


def test_train_epoch_of_rejected_steps_is_runtime_error(monkeypatch):
    def reject(*args, **kwargs):
        raise ValueError("adam_step: non-finite gradient for 'x'; step rejected")

    monkeypatch.setattr(training, "adam_step", reject)
    with pytest.raises(RuntimeError, match="epoch 0"):
        train(toy_corpus(count=4, seed=2), _quick_cfg(), small_net_config())


def test_params_stay_finite_after_training():
    data = toy_corpus(count=4, seed=9)
    params, _ = train(data, _quick_cfg(), small_net_config())
    assert all(np.all(np.isfinite(p.data)) for p in params.values())


@pytest.mark.parametrize("reject_every_second", [False, True])
def test_train_holds_one_steps_gradients_at_a_time(monkeypatch, reject_every_second):
    """Once Adam has applied or rejected a step's gradients, ``train`` lets
    go of them: when step k + 1 starts, every gradient array step k returned
    is dead, across epochs too."""
    refs, alive_at_start = [], []   # weakrefs to each step's gradient arrays
    real_step, real_adam = training.training_step, training.adam_step

    def step(*args):
        alive_at_start.append([ref() is not None for ref in refs[-1]] if refs else [])
        report, grads = real_step(*args)
        refs.append([weakref.ref(g) for g in grads.values()])
        return report, grads

    def adam(params, grads, state, lr):
        if reject_every_second and len(refs) % 2 == 0:
            raise ValueError("adam_step: non-finite gradient for 'x'; step rejected")
        return real_adam(params, grads, state, lr)

    monkeypatch.setattr(training, "training_step", step)
    monkeypatch.setattr(training, "adam_step", adam)
    train(toy_corpus(count=8, seed=9), _quick_cfg(batch_size=2), small_net_config())
    assert len(refs) == 8 and all(refs)
    assert alive_at_start[0] == [] and not any(any(a) for a in alive_at_start)



def _two_forward_step(params, net_cfg, cfg, batch, rngs):
    """``training_step`` written with one ``forward`` of one molecule per
    view: the heads on (conditioner, x_t, t) and the anchor from a second full
    forward on (conditioner, x_0, t), which encodes the conditioner again."""
    sc_terms, breakdowns, anchors, positives, times = [], [], [], [], []
    for x0, rng in zip(batch, rngs):
        t = sample_time(rng, cfg.t_min)
        times.append(t)
        sample = perturb_continuous(x0, t, rng, cfg.schedule)
        cond = sample.xt if rng.uniform() < cfg.self_cond_prob else x0
        beta = alpha_beta(cfg.schedule, t)[1]
        out = network.forward(params, net_cfg, [cond], [sample.xt], [t])
        pred = {c: ad.mul(out[f"score_{c}"], Tensor(1.0 / beta)) for c in ("P", "H", "E")}
        target = {c: v.reshape(-1, v.shape[-1]) for c, v in sample.score_target.items()}
        term, breakdown = losses.score_matching_loss(pred, target, beta ** 2, [x0.n])
        sc_terms.append(term)
        breakdowns.append(breakdown)
        positives.append(out["projection"])
        anchors.append(network.forward(params, net_cfg, [cond], [x0], [t])["projection"])
    l_sc = sc_terms[0]
    for term in sc_terms[1:]:
        l_sc = ad.add(l_sc, term)
    l_sc = ad.div(l_sc, Tensor(float(len(batch))))
    tau = losses.anneal_tau(cfg.tau0, cfg.schedule, float(np.mean(times)))
    l_co = losses.contrastive_loss(ad.concat(anchors), ad.concat(positives), tau)
    total = ad.add(ad.mul(Tensor(cfg.lambda1), l_sc), ad.mul(Tensor(cfg.lambda2), l_co))
    ad.backward(total)
    grads = {k: p.grad for k, p in params.items()}
    for p in params.values():
        p.grad = None
    return float(total.data), grads


def _spy(monkeypatch, name, record):
    """Replace ``network.name`` by a wrapper that calls ``record(*args)`` first."""
    original = getattr(network, name)

    def wrapper(*args, **kwargs):
        record(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(network, name, wrapper)


@pytest.mark.parametrize("self_cond_prob", [0.0, 1.0])
def test_training_step_encodes_conditioner_once(self_cond_prob, monkeypatch):
    """One clean-branch encoding per molecule serves the heads pass and the
    anchor pass; loss and gradients match two full forwards per molecule."""
    net_cfg = small_net_config()
    cfg = _quick_cfg(self_cond_prob=self_cond_prob)
    batch = [to_dense(g) for g in toy_corpus(count=4, seed=5)]
    params = init_params(net_cfg, np.random.default_rng(3))

    def rngs():
        return [np.random.default_rng([7, i]) for i in range(len(batch))]

    ref_total, ref_grads = _two_forward_step(params, net_cfg, cfg, batch, rngs())
    encoded = []   # one branch name per molecule encoded
    _spy(monkeypatch, "encode",
         lambda mols, p, c, branch, *rest: encoded.extend([branch] * len(mols)))
    report, grads = training_step(params, net_cfg, cfg, batch, rngs())

    assert encoded.count("enc_clean") == len(batch)
    assert encoded.count("enc_noisy") == 2 * len(batch)
    assert abs(report.total - ref_total) <= 1e-12 * abs(ref_total)
    assert set(grads) == set(ref_grads)
    for name, ref in ref_grads.items():
        assert np.linalg.norm(grads[name] - ref) <= 1e-12 * np.linalg.norm(ref), name


def test_forward_builds_its_pair_row_index_once(monkeypatch):
    """A forward builds the pair-row index and the pair-channel rows of its
    molecules once: a detached forward (no anchors) of one size list, and a
    training step of the size list of its inputs and anchors, whose first
    rows index the inputs and serve the 2D head."""
    batch = [to_dense(g) for g in toy_corpus(count=8, seed=5)]
    sizes = [m.n for m in batch]
    net_cfg = small_net_config()
    params = init_params(net_cfg, np.random.default_rng(3))
    built, channels = [], []
    _spy(monkeypatch, "_pair_rows", lambda s: built.append(list(s)))
    _spy(monkeypatch, "_pair_channels", lambda mols: channels.append(len(mols)))
    network.forward(network.detach_params(params), net_cfg, batch, batch, [0.5] * len(batch))
    assert built == [sizes] and channels == [8, 8]
    built.clear()
    channels.clear()
    training_step(params, net_cfg, _quick_cfg(), batch,
                  [np.random.default_rng([7, i]) for i in range(len(batch))])
    assert built == [sizes * 2] and channels == [16, 16]


@pytest.mark.parametrize("self_cond_prob", [0.0, 0.5, 1.0])
def test_training_step_pair_features_once_per_positions(self_cond_prob, monkeypatch):
    """An 8-molecule step is one encoding pass per branch, pair features once
    per positions array (x_0 and x_t of each molecule, in stacks of equal
    atom counts) and one time embedding per molecule."""
    batch = [to_dense(g) for g in toy_corpus(count=8, seed=5)]
    net_cfg = small_net_config()
    params = init_params(net_cfg, np.random.default_rng(3))
    seen, encodes, embeds = [], [], []
    _spy(monkeypatch, "rbf_features", lambda stack, c: seen.extend(stack))
    _spy(monkeypatch, "encode", lambda *args: encodes.append(args[3]))
    _spy(monkeypatch, "fourier_embed", lambda t, d: embeds.extend(np.ravel(t)))
    samples = []
    real_perturb = training.perturb_continuous
    monkeypatch.setattr(training, "perturb_continuous",
                        lambda *args: samples.append(real_perturb(*args)) or samples[-1])
    training_step(params, net_cfg, _quick_cfg(self_cond_prob=self_cond_prob), batch,
                  [np.random.default_rng([7, i]) for i in range(len(batch))])
    positions = [m.P for m in batch] + [s.xt.P for s in samples]
    assert sorted(p.tobytes() for p in seen) == sorted(p.tobytes() for p in positions)
    assert encodes == ["enc_clean", "enc_noisy"]
    assert len(embeds) == len(batch)


def test_training_step_tape_stores_no_pair_row_filter(monkeypatch):
    """The encoder filters are built inside ``ragged_message``: no matmul
    node of a training step's tape has pair rows, and each encoder round's
    filter weight feeds one message node of each branch."""
    batch = [to_dense(g) for g in toy_corpus(count=8, seed=5)]
    net_cfg = small_net_config()
    params = init_params(net_cfg, np.random.default_rng(3))
    nodes = []   # (op, rows, ids of parents) of each tape node
    real_backward = ad.backward

    def spy(loss):
        seen, stack = {id(loss)}, [loss]
        while stack:
            node = stack.pop()
            nodes.append((node._op, node.shape[:1], {id(p) for p, _ in node._parents}))
            for parent, _ in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        real_backward(loss)

    monkeypatch.setattr(ad, "backward", spy)
    training_step(params, net_cfg, _quick_cfg(), batch,
                  [np.random.default_rng([7, i]) for i in range(len(batch))])
    pairs = sum(m.n ** 2 for m in batch)
    assert not [n for n in nodes if n[0] == "matmul" and n[1][0] in (pairs, 2 * pairs)]
    for name, p in params.items():
        if name.endswith(".filter"):
            assert [op for op, _, parents in nodes if id(p) in parents] == ["ragged_message"]


# -- checkpoints ----------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, rng):
    cfg = small_net_config()
    params = init_params(cfg, rng)
    state = init_adam_state(params)
    state["step"] = 7
    state["m"] = {k: np.random.default_rng(1).standard_normal(v.shape)
                  for k, v in state["m"].items()}
    path = str(tmp_path / "ck.bin")
    save_checkpoint(params, state, path, meta={"note": "x"})
    params2, state2, meta = load_checkpoint(path)
    assert meta == {"note": "x"}
    assert state2["step"] == 7
    for k in params:
        assert np.array_equal(params2[k].data, params[k].data)
    for k in state["m"]:
        assert np.array_equal(state2["m"][k], state["m"][k])
    check_shapes(params2, cfg)


def test_load_checkpoint_copies_the_body_once(tmp_path):
    """Loading a default-net checkpoint reads each tensor straight into its
    own array, which stays writable for the in-place Adam update; the file
    is never held in one piece."""
    params = init_params(NetworkConfig(), np.random.default_rng(0))
    path = str(tmp_path / "ck.bin")
    save_checkpoint(params, init_adam_state(params), path, meta={})
    tracemalloc.start()
    try:
        loaded, state, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * os.path.getsize(path)
    assert all(t.data.flags.writeable for t in loaded.values())
    assert all(m.flags.writeable for m in state["m"].values())


def test_save_checkpoint_bytes_are_the_documented_layout(tmp_path, rng):
    """Magic, version, header length, JSON header, then each tensor's
    little-endian float64 buffer in header order."""
    params = init_params(small_net_config(), rng)
    state = init_adam_state(params)
    state["step"] = 5
    state["m"] = {k: rng.standard_normal(v.shape) for k, v in state["m"].items()}
    path = tmp_path / "ck.bin"
    save_checkpoint(params, state, str(path), meta={"note": "x"})
    tensors = ([(f"param/{k}", v.data) for k, v in params.items()]
               + [(f"adam_m/{k}", v) for k, v in state["m"].items()]
               + [(f"adam_v/{k}", v) for k, v in state["v"].items()])
    entries, body = [], b""
    for name, arr in tensors:
        entries.append({"name": name, "shape": list(arr.shape), "dtype": "float64",
                        "offset": len(body)})
        body += arr.astype("<f8").tobytes()
    raw = write_raw_checkpoint(tmp_path / "raw.ck", {"tensors": entries, "adam_step": 5,
                                                     "meta": {"note": "x"}}, body)
    assert path.read_bytes() == open(raw, "rb").read()


def test_interrupted_save_keeps_the_previous_checkpoint(tmp_path, rng, monkeypatch):
    """A save that fails part-way through its tensors leaves the previous
    checkpoint's bytes in place, loadable, and no temporary file."""
    cfg = small_net_config()
    params = init_params(cfg, rng)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(params, init_adam_state(params), path, meta={})
    before = open(path, "rb").read()

    class FullDisk:
        """A file whose third array write stores half its bytes, then fails."""

        def __init__(self, fh):
            self.fh, self.arrays = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, data):
            if isinstance(data, np.ndarray):
                self.arrays += 1
                if self.arrays == 3:
                    self.fh.write(data.reshape(-1).view(np.uint8)[:data.nbytes // 2])
                    raise OSError(28, "No space left on device")
            return self.fh.write(data)

    newer = init_params(cfg, np.random.default_rng(1))
    with monkeypatch.context() as m:
        m.setattr(training, "open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(newer, init_adam_state(newer), path, meta={})
    assert os.listdir(tmp_path) == ["ck.bin"]
    assert open(path, "rb").read() == before
    loaded, _, _ = load_checkpoint(path)
    assert all(np.array_equal(loaded[k].data, params[k].data) for k in params)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(path))


def test_checkpoint_bad_version(tmp_path, rng):
    cfg = small_net_config()
    params = init_params(cfg, rng)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(params, init_adam_state(params), path, meta={})
    blob = bytearray(open(path, "rb").read())
    blob[8] = 99
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path, rng):
    cfg = small_net_config()
    params = init_params(cfg, rng)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(params, init_adam_state(params), path, meta={})
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


GOOD_ENTRY = {"name": "param/w", "shape": [2], "offset": 0}


def test_raw_checkpoint_header_loads(tmp_path):
    # positive control for the malformed cases below
    path = write_raw_checkpoint(tmp_path / "ok.ck", {"tensors": [GOOD_ENTRY], "adam_step": 3},
                                np.arange(2.0).tobytes())
    params, state, meta = load_checkpoint(path)
    assert np.array_equal(params["w"].data, [0.0, 1.0])
    assert state["step"] == 3 and meta == {}


@pytest.mark.parametrize("header, message", [
    ([GOOD_ENTRY], "'tensors'"),
    ("tensors", "'tensors'"),
    ({"adam_step": 0}, "'tensors'"),
    ({"tensors": {"param/w": GOOD_ENTRY}, "adam_step": 0}, "'tensors' is not a list"),
    ({"tensors": [GOOD_ENTRY]}, "'adam_step'"),
    ({"tensors": ["param/w"], "adam_step": 0}, "'name'"),
    ({"tensors": [{"shape": [2], "offset": 0}], "adam_step": 0}, "'name'"),
    ({"tensors": [{"name": "param/w", "offset": 0}], "adam_step": 0}, "'shape'"),
    ({"tensors": [{"name": "param/w", "shape": [2]}], "adam_step": 0}, "'offset'"),
    ({"tensors": [GOOD_ENTRY | {"shape": "2"}], "adam_step": 0}, "malformed"),
    ({"tensors": [GOOD_ENTRY | {"shape": [2 ** 40, 2 ** 40]}], "adam_step": 0}, "truncated"),
    ({"tensors": [GOOD_ENTRY | {"shape": [-2]}], "adam_step": 0}, "malformed"),
    ({"tensors": [GOOD_ENTRY | {"offset": "0"}], "adam_step": 0}, "malformed"),
    ({"tensors": [GOOD_ENTRY | {"name": 7}], "adam_step": 0}, "malformed"),
    ({"tensors": [GOOD_ENTRY | {"shape": [True]}], "adam_step": 0}, "malformed"),
    ({"tensors": [GOOD_ENTRY | {"offset": True}], "adam_step": 0}, "malformed"),
    ({"tensors": [GOOD_ENTRY | {"shape": [0, 2 ** 63]}], "adam_step": 0}, "has shape"),
])
def test_checkpoint_malformed_header_is_checkpoint_error(tmp_path, header, message):
    path = write_raw_checkpoint(tmp_path / "bad.ck", header, np.arange(2.0).tobytes())
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("hlen_extra, header, message", [
    (2 ** 40, {"tensors": [], "adam_step": 0}, "corrupt checkpoint header"),
    (2 ** 64 - 1, None, "corrupt checkpoint header"),
    (0, {"tensors": [GOOD_ENTRY | {"shape": [2 ** 20]}], "adam_step": 0}, "truncated"),
    (0, {"tensors": [GOOD_ENTRY | {"offset": 2 ** 40}], "adam_step": 0}, "truncated"),
])
def test_extent_past_eof_allocates_nothing(tmp_path, hlen_extra, header, message):
    """A header length or tensor extent that runs past the end of the file is
    a CheckpointError raised before any buffer of that size exists."""
    raw = json.dumps(header).encode() if header is not None else b""
    hlen = len(raw) + hlen_extra
    path = tmp_path / "bad.ck"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
                     + struct.pack("<Q", hlen) + raw + np.arange(2.0).tobytes())
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_checkpoint_shape_mismatch_names_tensor(tmp_path, rng):
    cfg = small_net_config()
    params = init_params(cfg, rng)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(params, init_adam_state(params), path, meta={})
    params2, _, _ = load_checkpoint(path)
    other = NetworkConfig(latent=8, rounds=1, n_rbf=8, gcn_layers=1, heads=2,
                          head_dim=8, d_time=8, d_contrast=8, hidden=16,
                          edge_hidden=8)
    with pytest.raises(CheckpointError, match="enc_clean.embed"):
        check_shapes(params2, other)


def test_check_shapes_draws_no_parameters(rng, monkeypatch):
    """check_shapes reads the shape table; it never draws a parameter set."""
    cfg = small_net_config()
    params = init_params(cfg, rng)

    def refuse(*args, **kwargs):
        raise AssertionError("check_shapes drew a parameter set")

    monkeypatch.setattr(training, "init_params", refuse)
    monkeypatch.setattr(network, "init_params", refuse)
    check_shapes(params, cfg)


def test_checkpoint_missing_tensor(rng):
    cfg = small_net_config()
    params = init_params(cfg, rng)
    del params["proj.l2.b"]
    with pytest.raises(CheckpointError, match="missing"):
        check_shapes(params, cfg)


_ENTRIES = st.lists(st.one_of(st.fixed_dictionaries({
    "name": st.sampled_from(["param/w", "adam_m/w", "adam_v/w", 7]),
    "shape": st.one_of(st.lists(st.sampled_from([0, 1, 2, True, -1, 2 ** 63]), max_size=3),
                       json_values(2)),
    "offset": st.sampled_from([0, 8, 16, -8, True, "0", None]),
}), json_values(2)), max_size=3)
_HEADERS = st.fixed_dictionaries({"tensors": _ENTRIES, "adam_step": json_values(2)},
                                 optional={"meta": json_values(4)})


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_HEADERS, st.binary(max_size=48)),
                 st.tuples(json_values(), st.binary(max_size=16)), st.binary(max_size=64)))
def test_only_checkpoint_error_escapes_load_checkpoint(case):
    """A file that starts like a checkpoint, then holds any header and body
    (or any bytes at all), loads or raises CheckpointError."""
    fd, path = tempfile.mkstemp(suffix=".ck")
    os.close(fd)
    try:
        if isinstance(case, bytes):
            with open(path, "wb") as fh:
                fh.write(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + case)
        else:
            write_raw_checkpoint(path, *case)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
    finally:
        os.remove(path)
