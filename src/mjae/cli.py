"""Operator-facing command surface.

Subcommands: ingest, pretrain, sample, eval, probe, selftest. A flat
key=value config file (default path from MJAE_CONFIG) supplies defaults;
flags override. Network and noise-schedule flags exist on pretrain only: its
checkpoint stores both configs, and sample, eval and probe read them back.
Every completed run that writes a file writes a JSON manifest next to it;
eval and probe print their report and write a file only with --report, and
selftest writes its manifest only with --manifest. Every file a command
writes (dataset, checkpoint, samples, loss log, report, manifest) is written
to a temporary file that then replaces the target, so a failed command leaves
the previous file in place and no partial one.
Each command that reads a JSONL file prints its malformed lines to stderr.
A command fails by raising; ``main`` alone prints its ``error:`` line and picks
the exit code: 0 success, 1 runtime failure, 2 usage error (``UsageError``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .evalsuite import (generation_metrics, linear_probe, radius_of_gyration,
                        symmetry_report)
from .molgraph import ParseError, parse_molecule, serialize_molecule
from .network import NetworkConfig, init_params
from .sampling import SamplerConfig, generate
from .schedule import NoiseSchedule
from .selftest import run_selftest
from .training import (CheckpointError, TrainConfig, check_shapes, init_adam_state,
                       load_checkpoint, replacing, save_checkpoint, train)


class UsageError(ValueError):
    """A flag value that no config accepts, or a flag combination with nothing
    to do; ``main`` exits 2 on it."""


def load_config_file(path):
    """Flat key=value config; blank lines and # comments ignored."""
    cfg = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def strict_json(obj, what):
    """``obj`` as indented JSON. A NaN or infinity, which JSON cannot hold, is
    a ValueError that names where it sits, raised before any file is opened."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError(f"{what} holds {_nonfinite(obj)}, which JSON cannot hold") from None


def _nonfinite(obj, path=""):
    """``"<path> = <value>"`` of the first NaN or infinity in ``obj``."""
    if isinstance(obj, dict):
        found = (_nonfinite(v, f"{path}.{k}" if path else k) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        found = (_nonfinite(v, f"{path}[{i}]") for i, v in enumerate(obj))
    else:
        return f"{path} = {obj}" if isinstance(obj, float) and not np.isfinite(obj) else None
    return next(filter(None, found), None)


def write_text(path, text):
    """Write the whole of ``text`` to ``path`` through a temporary file that
    replaces it; if the write fails, ``path`` keeps its old contents."""
    with replacing(path, "w") as fh:
        fh.write(text)


def write_manifest(out_path, args, inputs, outputs, started):
    """Atomic run manifest: what ran (the command, flags and seed of ``args``),
    on what, producing what."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    snapshot = {k: v for k, v in vars(args).items()
                if isinstance(v, (str, int, float, bool, list, dict, type(None)))}
    manifest = {
        "command": args.command,
        "config": snapshot,
        "seed": getattr(args, "seed", None),
        "build": __version__,
        "input_hashes": {p: _file_hash(p) for p in inputs if os.path.exists(p)},
        "outputs": outputs,
        "wall_time_s": round(time.time() - started, 3),
        # ru_maxrss counts KB on Linux and bytes on macOS
        "peak_rss_mb": round(usage.ru_maxrss
                             / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0), 1),
        "minor_faults": usage.ru_minflt,
    }
    write_text(out_path, strict_json(manifest, "manifest"))


def read_dataset(path):
    """Parse a JSONL dataset; returns (graphs, diagnostics with line numbers)."""
    graphs = []
    diagnostics = []
    # bytes that are not UTF-8 pass the read as lone surrogates, so each line
    # is decoded, and rejected, on its own
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                graphs.append(parse_molecule(line.encode("utf-8", "surrogateescape")
                                             .decode("utf-8")))
            except (ParseError, UnicodeDecodeError) as e:
                diagnostics.append(f"line {lineno}: {e}")
    return graphs, diagnostics


def _read_reporting(path):
    """``read_dataset`` that prints each rejected line to stderr."""
    graphs, diagnostics = read_dataset(path)
    for d in diagnostics:
        print(f"rejected: {d}", file=sys.stderr)
    return graphs, diagnostics


def _train_config(args):
    sched = NoiseSchedule(
        kind=args.schedule_kind, beta_min=args.beta_min, beta_max=args.beta_max,
        sigma_min=args.sigma_min, sigma_max=args.sigma_max)
    return TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        seed=args.seed, lambda1=args.lambda1, lambda2=args.lambda2,
        schedule=sched, t_min=args.t_min, tau0=args.tau0,
        self_cond_prob=args.self_cond_prob, lr_schedule=args.lr_schedule)


def _net_config(args):
    return NetworkConfig(latent=args.latent, rounds=args.rounds,
                         gcn_layers=args.gcn_layers, d_time=args.d_time,
                         d_contrast=args.d_contrast)


# -- subcommands ---------------------------------------------------------

def cmd_ingest(args):
    started = time.time()
    graphs, diagnostics = _read_reporting(args.input)
    if not graphs:
        raise ValueError("no valid records")
    write_text(args.output, "".join(serialize_molecule(g) + "\n" for g in graphs))
    print(f"ingested {len(graphs)} molecules, rejected {len(diagnostics)}")
    write_manifest(args.output + ".manifest.json", args, [args.input], [args.output],
                   started)
    return 0


def cmd_pretrain(args):
    started = time.time()
    try:
        cfg, net_cfg = _train_config(args), _net_config(args)
    except ValueError as e:  # a flag value no config accepts
        raise UsageError(e) from None
    graphs, _ = _read_reporting(args.dataset)
    if not graphs:
        raise ValueError("no valid records in dataset")
    if len(graphs) > 1 and len(graphs) % cfg.batch_size == 1:
        print(f"note: {len(graphs)} molecules in batches of {cfg.batch_size} leave a "
              "final batch of 1 molecule, which training skips every epoch "
              "(the contrastive loss needs 2)", file=sys.stderr)

    def log_epoch(epoch, entry):
        print(f"epoch {epoch:4d}  total {entry['total']:.4f}  "
              f"sc {entry['l_sc']:.4f}  co {entry['l_co']:.4f}")

    params, history = train(graphs, cfg, net_cfg, on_epoch=log_epoch)
    save_checkpoint(params, init_adam_state(params), args.out,
                    meta={"net": asdict(net_cfg), "schedule": asdict(cfg.schedule),
                          "epochs": cfg.epochs})
    if args.loss_log:
        write_text(args.loss_log, strict_json(history, "loss log"))
    write_manifest(args.out + ".manifest.json", args, [args.dataset], [args.out], started)
    return 0


# Settings that were once config fields, with the one value every checkpoint
# written before their removal stores; any other value is refused.
RETIRED_META = {"net": {"share_encoders": False, "cutoff": 5.0}}


def _meta_config(meta, key, cls):
    """``cls`` built from the checkpoint's ``meta[key]``, which must name every
    field of ``cls`` with a value of the field's type."""
    values = meta.get(key) if isinstance(meta, dict) else None
    if not isinstance(values, dict):
        raise CheckpointError(f"checkpoint meta has no {key!r} config")
    values = dict(values)
    for name, only in RETIRED_META.get(key, {}).items():
        if name in values:
            value = values.pop(name)
            if type(value) is not type(only) or value != only:
                raise CheckpointError(f"checkpoint meta {key}.{name} is {value!r}; "
                                      f"this retired setting must be {only!r}")
    unknown = set(values) - {f.name for f in fields(cls)}
    if unknown:
        raise CheckpointError(f"checkpoint meta {key!r} has unknown keys {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in values:
            raise CheckpointError(f"checkpoint meta {key!r} has no {f.name!r}")
        value, want = values[f.name], type(f.default)
        if not (type(value) is want or (want is float and type(value) is int)):
            raise CheckpointError(f"checkpoint meta {key}.{f.name} is {value!r}, "
                                  f"expected {want.__name__}")
    return cls(**values)


def _load_model(path):
    """Parameters, network config and meta of a checkpoint; the network config
    is the one stored with it and must match its tensors."""
    params, _, meta = load_checkpoint(path)
    net_cfg = _meta_config(meta, "net", NetworkConfig)
    check_shapes(params, net_cfg)
    return params, net_cfg, meta


def cmd_sample(args):
    started = time.time()
    try:
        cfg = SamplerConfig(steps=args.steps, lam=args.lam, n_atoms=args.n_atoms,
                            seed=args.seed, t_end=args.t_min)
    except ValueError as e:  # a flag value no config accepts
        raise UsageError(e) from None
    params, net_cfg, meta = _load_model(args.checkpoint)
    schedule = _meta_config(meta, "schedule", NoiseSchedule)
    graphs = generate(params, net_cfg, schedule, cfg, args.count)
    write_text(args.out, "".join(serialize_molecule(g) + "\n" for g in graphs))
    print(f"wrote {len(graphs)} samples to {args.out}")
    write_manifest(args.out + ".manifest.json", args, [args.checkpoint], [args.out],
                   started)
    return 0


def cmd_eval(args):
    started = time.time()
    for given, missing in (("samples", "reference"), ("reference", "samples")):
        if getattr(args, given) and not getattr(args, missing):
            raise UsageError(f"--{given} needs --{missing} for the generation metrics")
    report = {}
    params, net_cfg, _ = _load_model(args.checkpoint)
    if args.probe_set:
        probes, _ = _read_reporting(args.probe_set)
        if not probes:
            raise ValueError("no valid records in probe set")
        rep = symmetry_report(params, net_cfg, probes[:args.max_probes],
                              n_rotations=args.n_rotations, seed=args.seed)
        report["symmetry"] = rep.as_dict()
    if args.samples and args.reference:
        samples, _ = _read_reporting(args.samples)
        reference, _ = _read_reporting(args.reference)
        report["generation"] = generation_metrics(samples, reference)
    if not report:
        raise UsageError("nothing to evaluate (need --probe-set or --samples/--reference)")
    _emit_report(report, args, [args.checkpoint], started)
    return 0


def cmd_probe(args):
    started = time.time()
    graphs, _ = _read_reporting(args.dataset)
    if not graphs:
        raise ValueError("no valid records in dataset")
    labels = [radius_of_gyration(g) for g in graphs]
    seeds = tuple(range(args.probe_seeds))
    params, net_cfg, _ = _load_model(args.checkpoint)
    pretrained = linear_probe(params, net_cfg, graphs, labels, seeds)
    rand_params = init_params(net_cfg, np.random.default_rng(args.seed))
    random_init = linear_probe(rand_params, net_cfg, graphs, labels, seeds)
    report = {"pretrained_mse": pretrained, "random_init_mse": random_init,
              "label": "radius_of_gyration", "seeds": list(seeds)}
    print(f"probe MSE  pretrained {pretrained:.5f}  random-init {random_init:.5f}")
    _emit_report(report, args, [args.checkpoint, args.dataset], started)
    return 0


def cmd_selftest(args):
    started = time.time()
    ok = run_selftest()
    if args.manifest:
        write_manifest(args.manifest, args, [], [args.manifest], started)
    return 0 if ok else 1


def _emit_report(report, args, inputs, started):
    """Print ``report``; with ``--report``, write it first and its manifest after."""
    text = strict_json(report, "report")
    if args.report:
        write_text(args.report, text)
    print(text)
    if args.report:
        write_manifest(args.report + ".manifest.json", args, inputs, [args.report], started)


# -- parser --------------------------------------------------------------

def positive_int(text):
    """argparse type of a count or width: an integer >= 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def build_parser(defaults):
    """The argument parser; ``defaults`` maps config keys to raw strings,
    which each flag's ``type`` converts as if given on the command line. A
    key that no flag reads is a usage error (exit 2)."""
    parser = argparse.ArgumentParser(prog="mjae",
                                     description="Joint 2D/3D molecular trajectory "
                                                 "pretraining, generation, and evaluation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    read = set()

    def conf(p, flag, key, default, kind=float, **kw):
        """``flag``, whose default is config ``key``'s raw string (which
        ``kind`` converts as if given on the command line), else ``default``."""
        read.add(key)
        p.add_argument(flag, type=kind, default=defaults.get(key, default), **kw)

    def common(p):
        conf(p, "--seed", "seed", 0, int)

    p = sub.add_parser("ingest", help="validate and normalize a JSONL dataset")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("pretrain", help="train the score network")
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    conf(p, "--epochs", "train.epochs", TrainConfig.epochs, positive_int)
    conf(p, "--batch-size", "train.batch_size", TrainConfig.batch_size, positive_int)
    conf(p, "--lr", "train.lr", TrainConfig.lr)
    conf(p, "--self-cond-prob", "train.self_cond_prob", TrainConfig.self_cond_prob)
    conf(p, "--lr-schedule", "train.lr_schedule", TrainConfig.lr_schedule, str,
         choices=("constant", "cosine"))
    p.add_argument("--loss-log", default=None)
    conf(p, "--schedule-kind", "schedule.kind", NoiseSchedule.kind, str)
    conf(p, "--beta-min", "schedule.beta_min", NoiseSchedule.beta_min)
    conf(p, "--beta-max", "schedule.beta_max", NoiseSchedule.beta_max)
    conf(p, "--sigma-min", "schedule.sigma_min", NoiseSchedule.sigma_min)
    conf(p, "--sigma-max", "schedule.sigma_max", NoiseSchedule.sigma_max)
    conf(p, "--t-min", "trajectory.t_min", TrainConfig.t_min)
    conf(p, "--latent", "net.latent", NetworkConfig.latent, positive_int)
    conf(p, "--rounds", "net.rounds", NetworkConfig.rounds, positive_int)
    conf(p, "--gcn-layers", "net.gcn_layers", NetworkConfig.gcn_layers, positive_int)
    conf(p, "--d-time", "net.d_time", NetworkConfig.d_time, positive_int)
    conf(p, "--d-contrast", "net.d_contrast", NetworkConfig.d_contrast, positive_int)
    conf(p, "--lambda1", "loss.lambda1", TrainConfig.lambda1)
    conf(p, "--lambda2", "loss.lambda2", TrainConfig.lambda2)
    conf(p, "--tau0", "loss.tau0", TrainConfig.tau0)
    common(p)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("sample", help="generate molecules from a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=positive_int, default=10)
    p.add_argument("--n-atoms", type=positive_int, default=SamplerConfig.n_atoms)
    p.add_argument("--lam", type=float, default=SamplerConfig.lam)
    conf(p, "--steps", "schedule.steps", SamplerConfig.steps, positive_int)
    conf(p, "--t-min", "trajectory.t_min", SamplerConfig.t_end)
    common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("eval", help="symmetry report and generation metrics")
    p.add_argument("checkpoint")
    p.add_argument("--probe-set", default=None)
    p.add_argument("--samples", default=None)
    p.add_argument("--reference", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--n-rotations", type=positive_int, default=20)
    p.add_argument("--max-probes", type=positive_int, default=10)
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("probe", help="frozen-embedding linear probe")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("--probe-seeds", type=positive_int, default=5)
    p.add_argument("--report", default=None)
    common(p)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("selftest", help="run the built-in verification battery")
    p.add_argument("--manifest", default=None)
    p.set_defaults(fn=cmd_selftest)

    unknown = sorted(set(defaults) - read)
    if unknown:
        parser.error(f"config key {unknown[0]!r} is not read by any flag")
    return parser


def _env_config():
    """The config file ``MJAE_CONFIG`` names, or no defaults; a file that
    cannot be read or parsed is a ``UsageError``."""
    path = os.environ.get("MJAE_CONFIG")
    if not path:
        return {}
    try:
        return load_config_file(path)
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read config {path}: {e}") from None


def main(argv=None):
    try:
        args = build_parser(_env_config()).parse_args(argv)
        return args.fn(args)
    except (OSError, ValueError, RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
