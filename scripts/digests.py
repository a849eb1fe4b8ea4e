"""Print one SHA-256 per output of a fixed run matrix, as sorted JSON.

Two trees give the same outputs bit for bit when this script prints the same
JSON on both, within one numpy/BLAS build:

    git worktree add ../parent HEAD^
    python3 scripts/digests.py ../parent > parent.json
    python3 scripts/digests.py > head.json
    diff parent.json head.json

ROOT (default: the tree holding this script) names the tree whose
``src/mjae`` is imported. Inputs come from this script's own
``make_toy_corpus.random_molecule``, so both trees see the same inputs. The
matrix, each output keyed by its settings:

* ``generate`` on a tiny net: VP and VE, lam 0, 0.7 and 1, count 1 and 3
  (4 atoms), and 60 paths of 12 atoms, which advance in two groups; each
  key hashes the molecules and the final states handed to ``quantize``;
* ``reverse_paths_1d`` on the exact Gaussian score: lam 0, 0.5 and 1;
* ``gaussian_score_toy`` (acceptance criterion 5) at 16 and 24 train steps:
  VP and VE, one key hashing the error and the per-time errors and one the
  trained parameters, as the last ``adam_step`` leaves them;
* ``train`` history and parameters on a tiny net: VP and VE,
  ``self_cond_prob`` 0 and 0.5; and on VP at 0, the tiny net at latent
  width 1, at latent and edge hidden width 1 (width-1 pair rows on both
  sides of ``score_2d``), on 8 molecules of one atom count (each batch one
  run of k = 4, so every block primitive's stacked backward), the tiny net
  on the cosine lr and the default net;
* the CLI smoke flow, ``cli.main`` in a temporary directory: ``ingest`` of
  12 toy molecules and one malformed line, a VE ``pretrain`` with
  ``--loss-log``, ``sample`` at lam 0 and 1, ``eval --report``, ``probe
  --report`` and ``selftest``; one key per file written (manifests left out:
  they hold wall time and memory) and one for ``selftest``'s stdout.

Usage:
    python3 scripts/digests.py [ROOT]
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", default=str(HERE.parent),
                    help="tree whose src/mjae is imported (default: this checkout)")
    return ap.parse_args(argv)


def digest(*values):
    """SHA-256 of ``values``: arrays by dtype, shape and bytes, floats by their
    exact hex, containers element by element (dicts in key order)."""
    import numpy as np

    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, bytes):
            h.update(f"bytes {len(v)}".encode())
            h.update(v)
        elif isinstance(v, np.ndarray):
            h.update(f"array {v.dtype.str} {v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, dict):
            h.update(f"dict {len(v)}".encode())
            for k in sorted(v):
                feed(str(k))
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            h.update(f"list {len(v)}".encode())
            for x in v:
                feed(x)
        elif isinstance(v, (float, np.floating)):
            h.update(f"float {float(v).hex()}".encode())
        elif isinstance(v, (int, str, np.integer)):
            h.update(f"{type(v).__name__} {v}".encode())
        else:
            raise TypeError(f"digest: cannot hash {type(v).__name__}")

    for v in values:
        feed(v)
    return h.hexdigest()


def cli_smoke(random_molecule):
    """SHA-256 of each file the CLI smoke flow writes, manifests left out, and
    of ``selftest``'s stdout."""
    import numpy as np

    from mjae import cli
    from mjae.molgraph import serialize_molecule

    out = {}
    with tempfile.TemporaryDirectory() as work:
        def path(name):
            return os.path.join(work, name)

        rng = np.random.default_rng(12)
        with open(path("raw.jsonl"), "w") as fh:
            for _ in range(12):
                fh.write(serialize_molecule(random_molecule(rng, int(rng.integers(2, 5)))) + "\n")
            fh.write('{"atoms": [1]}\n')
        ck, clean = path("model.ck"), path("clean.jsonl")
        small = ["--epochs", "1", "--batch-size", "4", "--latent", "12", "--rounds", "1",
                 "--gcn-layers", "1", "--d-time", "8", "--d-contrast", "8"]
        for argv in (["ingest", path("raw.jsonl"), clean],
                     ["pretrain", clean, "--out", ck, *small, "--schedule-kind", "VE",
                      "--loss-log", path("loss.json")],
                     ["sample", ck, "--out", path("ode.jsonl"), "--steps", "5", "--count", "3"],
                     ["sample", ck, "--out", path("sde.jsonl"), "--steps", "5", "--count", "3",
                      "--lam", "1"],
                     ["eval", ck, "--probe-set", clean, "--samples", path("ode.jsonl"),
                      "--reference", clean, "--n-rotations", "2", "--max-probes", "2",
                      "--report", path("eval.json")],
                     ["probe", ck, clean, "--probe-seeds", "2", "--report", path("probe.json")],
                     ["selftest"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code != 0:
                sys.exit(f"digests: mjae {argv[0]} exited {code}:\n{stderr.getvalue()}")
        out["cli/selftest/stdout"] = digest(stdout.getvalue())  # selftest ran last
        for name in sorted(os.listdir(work)):
            if not name.endswith(".manifest.json"):
                with open(path(name), "rb") as fh:
                    out[f"cli/{name}"] = digest(fh.read())
    return out


def main(argv=None):
    args = parse_args(argv)
    src = Path(args.root).resolve() / "src"
    if not (src / "mjae" / "__init__.py").is_file():
        sys.exit(f"digests: no mjae package under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    os.environ.pop("MJAE_CONFIG", None)   # the CLI flow reads no config file

    import numpy as np

    import mjae
    from make_toy_corpus import random_molecule
    from mjae import evalsuite
    from mjae.evalsuite import gaussian_marginal_score, gaussian_score_toy
    from mjae.network import NetworkConfig, init_params
    from mjae import sampling
    from mjae.sampling import SamplerConfig, reverse_paths_1d
    from mjae.schedule import NoiseSchedule
    from mjae.training import TrainConfig, train

    if Path(mjae.__file__).resolve().parent != src / "mjae":
        sys.exit(f"digests: imported mjae from {mjae.__file__}, not from {src}")

    schedules = {"VP": NoiseSchedule(kind="VP"), "VE": NoiseSchedule(kind="VE")}
    tiny = NetworkConfig(latent=16, rounds=1, n_rbf=8, gcn_layers=1, heads=2, head_dim=8,
                         d_time=8, d_contrast=8, hidden=16, edge_hidden=8)
    out = {}

    # quantize drops the bits of H and E, so each path's final state is
    # hashed too, as generate hands it to quantize
    finals, quantize = [], sampling.quantize
    sampling.quantize = lambda state: finals.append((state.H, state.E, state.P)) or quantize(state)

    def generate(key, *args):
        finals.clear()
        graphs = sampling.generate(params, tiny, *args)
        out[key] = digest(finals, [(g.atom_types, g.charges, g.bonds, g.positions)
                                   for g in graphs])

    params = init_params(tiny, np.random.default_rng(0))
    for kind, schedule in schedules.items():
        for lam in (0.0, 0.7, 1.0):
            for count in (1, 3):
                generate(f"generate/{kind}/lam={lam}/count={count}", schedule,
                         SamplerConfig(steps=6, lam=lam, n_atoms=4, seed=11), count)
    # 60 paths of 12 atoms advance in two groups (56 + 4) of self-paired forwards
    generate("generate/VP/lam=1.0/count=60/n_atoms=12", schedules["VP"],
             SamplerConfig(steps=3, lam=1.0, n_atoms=12, seed=5), 60)

    for i, lam in enumerate((0.0, 0.5, 1.0)):
        vp = schedules["VP"]
        x = reverse_paths_1d(vp, lambda x_, t_: gaussian_marginal_score(x_, t_, 1.0, 0.5, vp),
                             lam, 200, 1000, np.random.default_rng([0, i]))
        out[f"reverse_paths_1d/lam={lam}"] = digest(x)

    # the toy's error rounds away small changes, so its trained parameters
    # are hashed too, as its last adam_step leaves them
    toy_params, adam_step = [], evalsuite.adam_step
    evalsuite.adam_step = lambda params, *args: toy_params.append(params) or adam_step(
        params, *args)
    # at 16 steps pi * step / 16 rounds as pi * (step / 16) does; at 24 it does not
    for kind, schedule in schedules.items():
        for steps in (16, 24):
            key = f"gaussian_score_toy/{kind}/train_steps={steps}"
            out[key] = digest(*gaussian_score_toy(schedule, train_steps=steps))
            out[f"{key}/params"] = digest({k: v.data for k, v in toy_params[-1].items()})

    rng = np.random.default_rng(401)
    corpus = [random_molecule(rng, int(rng.integers(2, 5))) for _ in range(12)]
    # 8 molecules of one atom count: every batch of 4 is one run of k = 4
    rng = np.random.default_rng(402)
    drawn = [random_molecule(rng, 3) for _ in range(40)]
    equal = [m for m in drawn if m.n == drawn[0].n][:8]
    if len(equal) != 8:
        sys.exit(f"digests: {len(equal)} of 40 molecules share an atom count, not 8")

    def train_run(kind, name, net, data, suffix="", **settings):
        cfg = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=3, schedule=schedules[kind],
                          **settings)
        trained, history = train(data, cfg, net)
        key = f"train/{kind}/self_cond_prob={cfg.self_cond_prob}/net={name}{suffix}"
        out[f"{key}/history"] = digest(history)
        out[f"{key}/params"] = digest({k: v.data for k, v in trained.items()})

    for kind in schedules:
        for p in (0.0, 0.5):
            train_run(kind, "tiny", tiny, corpus, self_cond_prob=p)
    train_run("VP", "latent1", dataclasses.replace(tiny, latent=1), corpus)
    train_run("VP", "latent1_edge_hidden1", dataclasses.replace(tiny, latent=1, edge_hidden=1),
              corpus)
    train_run("VP", "tiny", tiny, equal, "/corpus=equal_size")
    train_run("VP", "tiny", tiny, corpus, "/lr_schedule=cosine", lr_schedule="cosine")
    train_run("VP", "default", NetworkConfig(), corpus[:8])

    out.update(cli_smoke(random_molecule))
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
