"""Optimizer, training loop, and checkpoint round-trip.

The loop is the combined objective end to end: sample a batch, draw one time
per molecule, perturb, run one batched twin-branch forward, take the weighted
score-matching + contrastive loss, reverse-mode backward, clipped Adam step.
Everything is driven by one root seed so a (seed, dataset, config) triple
fully determines the loss history.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import loss as losses
from .molgraph import to_dense
from .network import forward, init_params, param_shapes
from .schedule import NoiseSchedule, alpha_beta
from .trajectory import perturb_continuous, sample_time

CHECKPOINT_MAGIC = b"MJAECKPT"
CHECKPOINT_VERSION = 1
GRAD_CLIP = 10.0           # global gradient norm cap before each Adam step
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
DIVERGENCE_LIMIT = 1e6     # a total loss above this stops training


class CheckpointError(ValueError):
    """Unreadable, truncated, or mismatched checkpoint file."""


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 8
    lr: float = 1e-4
    seed: int = 0
    lambda1: float = 1.0
    lambda2: float = 0.01
    schedule: NoiseSchedule = field(default_factory=NoiseSchedule)
    t_min: float = 1e-3
    tau0: float = 0.5
    lr_schedule: str = "constant"   # "constant" or "cosine"
    self_cond_prob: float = 0.0    # fraction of steps conditioning on x_t itself

    def __post_init__(self):
        for name, ok, want in (("lr", self.lr > 0, "a finite learning rate > 0"),
                               ("lambda1", self.lambda1 >= 0, "finite and >= 0"),
                               ("lambda2", self.lambda2 >= 0, "finite and >= 0"),
                               ("tau0", self.tau0 > 0, "finite and > 0"),
                               ("t_min", 0 < self.t_min < 1, "in (0, 1)"),
                               ("self_cond_prob", 0 <= self.self_cond_prob <= 1, "in [0, 1]")):
            value = getattr(self, name)
            if not (ok and math.isfinite(value)):
                raise ValueError(f"TrainConfig.{name} must be {want}, got {value}")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2 (contrastive negatives)")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ValueError("lr_schedule must be 'constant' or 'cosine'")


def build_schedules(cfg):
    """The one NoiseSchedule that P, H and E share."""
    return cfg.schedule


# -- optimizer -----------------------------------------------------------

def init_adam_state(params):
    return {
        "step": 0,
        "m": {k: np.zeros_like(v.data) for k, v in params.items()},
        "v": {k: np.zeros_like(v.data) for k, v in params.items()},
    }


def adam_step(params, grads, state, lr):
    """Standard bias-corrected Adam update of ``params`` and ``state``, in place,
    with ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    A non-finite gradient rejects the whole step (params and state untouched)
    with a diagnostic naming the tensor. A tensor's entries are checked one by
    one only when their sum is not finite: a NaN or inf entry makes it so, and
    finite entries whose sum overflows pass the entrywise check.
    """
    with np.errstate(over="ignore"):  # finite entries may sum beyond the float range
        for name, g in grads.items():
            if not math.isfinite(g.sum()) and not np.all(np.isfinite(g)):
                raise ValueError(f"adam_step: non-finite gradient for {name!r}; step rejected")
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, g in grads.items():
        # m = beta1 m + (1 - beta1) g; v = beta2 v + (1 - beta2) g g;
        # p -= lr (m / bc1) / (sqrt(v / bc2) + eps), each step rounded as written
        m, v = state["m"][name], state["v"][name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        denom = np.sqrt(v / bc2)
        denom += ADAM_EPS
        update = m / bc1
        update *= lr
        update /= denom
        params[name].data -= update


def cosine_lr(lr, step, total):
    """The learning rate after ``step`` of ``total`` steps on the cosine
    schedule: ``lr`` at step 0, decaying towards 0.1 ``lr`` at ``total``."""
    return lr * (0.1 + 0.45 * (1.0 + np.cos(np.pi * (step / total))))


def clip_gradients(grads):
    """Scale all gradients so the global norm is at most ``GRAD_CLIP``."""
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > GRAD_CLIP:
        scale = GRAD_CLIP / total
        grads = {k: g * scale for k, g in grads.items()}
    return grads, total


# -- training loop -------------------------------------------------------

def training_step(params, net_cfg, cfg, batch, rngs):
    """One optimizer-ready pass over a batch of DenseTensors.

    Returns (loss report, gradient map). ``rngs`` supplies one independent
    stream per molecule so results do not depend on scheduling order. Each
    molecule is perturbed to x_t, then one batched ``forward`` of (conditioner,
    x_t, t) triples with x_0 as the contrastive anchor gives the heads and both
    projections. The heads are scaled by 1/beta(t) and the score-matching term
    is weighted by beta(t)^2 (likelihood weighting), both from ``cfg.schedule``.
    """
    schedule = cfg.schedule
    times, samples, conds = [], [], []
    for x0, rng in zip(batch, rngs):
        t = sample_time(rng, cfg.t_min)
        times.append(t)
        samples.append(perturb_continuous(x0, t, rng, schedule))
        conds.append(samples[-1].xt if rng.uniform() < cfg.self_cond_prob else x0)
    out = forward(params, net_cfg, conds, [s.xt for s in samples], times, anchors=batch)

    sizes = out["latent"].sizes
    betas = [alpha_beta(schedule, t)[1] for t in times]
    rows = {"P": sizes, "H": sizes, "E": [n * n for n in sizes]}
    pred = {c: ad.mul(out[f"score_{c}"],
                      ad.Tensor(np.repeat([1.0 / b for b in betas], rows[c])[:, None]))
            for c in losses.COMPONENTS}
    target = {c: np.concatenate([s.score_target[c].reshape(-1, s.score_target[c].shape[-1])
                                 for s in samples]) for c in losses.COMPONENTS}
    l_sc, breakdown = losses.score_matching_loss(pred, target, [b ** 2 for b in betas], sizes)
    tau = losses.anneal_tau(cfg.tau0, schedule, float(np.mean(times)))
    l_co = losses.contrastive_loss(out["anchor"], out["projection"], tau)
    total, report = losses.combine(l_sc, l_co, cfg.lambda1, cfg.lambda2, breakdown)
    ad.backward(total)
    grads = {k: p.grad for k, p in params.items() if p.grad is not None}
    for p in params.values():
        p.grad = None
    return report, grads


def train(dataset, cfg, net_cfg, params=None, on_epoch=None):
    """Train on a list of MoleculeGraph; returns (params, epoch history).

    History entries carry the epoch means of the total/score/contrastive
    losses. A dataset of fewer than 2 molecules raises ``ValueError``.
    Divergence (total loss beyond DIVERGENCE_LIMIT) and an epoch whose
    every step was rejected raise ``RuntimeError``.
    """
    if not dataset:
        raise ValueError("empty dataset")
    if len(dataset) < 2:
        raise ValueError("dataset has 1 molecule; training needs at least 2 "
                         "(contrastive negatives)")
    dense = [to_dense(g) for g in dataset]
    root = np.random.default_rng(cfg.seed)
    if params is None:
        params = init_params(net_cfg, root)
    state = init_adam_state(params)
    history = []
    # every full batch, and a final partial one of at least 2 molecules
    steps_per_epoch = len(dense) // cfg.batch_size + (len(dense) % cfg.batch_size >= 2)
    total_steps = cfg.epochs * steps_per_epoch
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 1000 + epoch]).permutation(len(dense))
        reports = []
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if len(idx) < 2:
                continue
            batch = [dense[i] for i in idx]
            rngs = [np.random.default_rng([cfg.seed, epoch, start, int(i)]) for i in idx]
            report, grads = training_step(params, net_cfg, cfg, batch, rngs)
            if report.total > DIVERGENCE_LIMIT:
                raise RuntimeError(
                    f"training diverged at epoch {epoch}: total loss {report.total:g}")
            grads, _ = clip_gradients(grads)
            cur_lr = (cosine_lr(cfg.lr, state["step"], total_steps)
                      if cfg.lr_schedule == "cosine" else cfg.lr)
            try:
                adam_step(params, grads, state, cur_lr)
            except ValueError:
                continue  # rejected step; parameters unchanged
            finally:
                del grads  # the next step's forward and backward run without it
            reports.append(report)
        if not reports:
            raise RuntimeError(f"every step of epoch {epoch} was rejected "
                               "(non-finite gradients)")
        history.append({
            "epoch": epoch,
            "total": float(np.mean([r.total for r in reports])),
            "l_sc": float(np.mean([r.l_sc for r in reports])),
            "l_co": float(np.mean([r.l_co for r in reports])),
        })
        if on_epoch is not None:
            on_epoch(epoch, history[-1])
    return params, history


# -- checkpoints ---------------------------------------------------------

@contextlib.contextmanager
def replacing(path, mode="wb"):
    """A file opened on ``path + ".tmp"`` that replaces ``path`` when the
    block completes. If the block raises, ``path`` keeps its old contents and
    the temporary file is removed."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(params, state, path, meta):
    """Binary checkpoint: magic, version, JSON header, raw little-endian buffers.
    Each array's own buffer is written to a temporary file, which then replaces
    ``path``, so an interrupted save leaves the previous checkpoint intact."""
    tensors = {f"param/{k}": v.data for k, v in params.items()}
    tensors.update({f"adam_m/{k}": v for k, v in state["m"].items()})
    tensors.update({f"adam_v/{k}": v for k, v in state["v"].items()})
    tensors = {name: np.ascontiguousarray(arr, dtype="<f8") for name, arr in tensors.items()}
    entries = []
    offset = 0
    for name, arr in tensors.items():
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": "float64", "offset": offset})
        offset += arr.nbytes
    header = json.dumps({"tensors": entries, "adam_step": state["step"],
                         "meta": meta}).encode()
    with replacing(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for arr in tensors.values():
            fh.write(arr)


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (params, adam state, meta). Every
    extent is checked against the file's size before anything is allocated,
    and each tensor is read straight into its own array."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(20)
        if len(preamble) < 20 or preamble[:8] != CHECKPOINT_MAGIC:
            raise CheckpointError("bad checkpoint magic")
        (version,) = struct.unpack("<I", preamble[8:12])
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<Q", preamble[12:20])
        body_start = 20 + hlen
        if body_start > file_size:
            raise CheckpointError(f"corrupt checkpoint header: its length {hlen} "
                                  f"runs past the end of the {file_size}-byte file")
        try:
            header = json.loads(fh.read(hlen))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise CheckpointError(f"corrupt checkpoint header: {e}") from e
        tensors = {}
        for name, shape, offset in _tensor_entries(header):
            size = math.prod(shape) * 8
            # a zero-size tensor reads nothing, wherever its offset points
            if size and body_start + offset + size > file_size:
                raise CheckpointError(f"truncated checkpoint at tensor {name!r}")
            try:
                arr = np.empty(shape, dtype="<f8")
            except ValueError as e:  # e.g. a zero-size shape with a dimension numpy cannot hold
                raise CheckpointError(f"checkpoint tensor {name!r} has shape {shape}: {e}") from e
            # a uint8 view of the flat array: memoryview.cast refuses zero-size shapes
            fh.seek(body_start + offset)
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != size:
                raise CheckpointError(f"truncated checkpoint at tensor {name!r}")
            tensors[name] = arr
    params = {k[len("param/"):]: ad.Tensor(v, requires_grad=True)
              for k, v in tensors.items() if k.startswith("param/")}
    state = {
        "step": _header_field(header, "adam_step", "header"),
        "m": {k[len("adam_m/"):]: v for k, v in tensors.items() if k.startswith("adam_m/")},
        "v": {k[len("adam_v/"):]: v for k, v in tensors.items() if k.startswith("adam_v/")},
    }
    return params, state, header.get("meta", {})


def _header_field(mapping, key, where):
    """``mapping[key]``, or a CheckpointError naming the key when the checkpoint
    ``where`` is not an object or lacks it."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise CheckpointError(f"checkpoint {where} has no {key!r}")
    return mapping[key]


def _tensor_entries(header):
    """(name, shape, offset) of each tensor the header lists, type-checked."""
    entries = _header_field(header, "tensors", "header")
    if not isinstance(entries, list):
        raise CheckpointError("checkpoint header 'tensors' is not a list")
    for entry in entries:
        name, shape, offset = (_header_field(entry, key, "tensor entry")
                               for key in ("name", "shape", "offset"))
        if not (isinstance(name, str) and type(offset) is int and offset >= 0
                and isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise CheckpointError(f"malformed checkpoint tensor entry {entry!r}")
        yield name, shape, offset


def check_shapes(params, net_cfg):
    """Validate loaded parameters against a config; names the first mismatch."""
    reference = param_shapes(net_cfg)
    for name, shape in reference.items():
        if name not in params:
            raise CheckpointError(f"checkpoint missing tensor {name!r}")
        if params[name].shape != shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {params[name].shape}, "
                f"config expects {shape}")
    extra = set(params) - set(reference)
    if extra:
        raise CheckpointError(f"checkpoint has unexpected tensors {sorted(extra)}")
