"""Overfit-one-molecule sanity experiment.

Trains the score network on a single repeated template molecule, then runs
the deterministic reverse ODE sampler and reports how often the exact bond
graph (permutation-invariant canonical hash) is regenerated.

Usage:
    python3 scripts/overfit_one.py --epochs 600 --samples 50
"""

import argparse
import sys
import time

import numpy as np

from mjae.evalsuite import canonical_hash
from mjae.molgraph import ELEMENT_INDEX, make_graph, parse_molecule
from mjae.network import NetworkConfig
from mjae.sampling import SamplerConfig, generate
from mjae.training import TrainConfig, train


def water():
    types = [ELEMENT_INDEX["O"], ELEMENT_INDEX["H"], ELEMENT_INDEX["H"]]
    bonds = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    pos = np.array([[0.0, 0.0, 0.0], [0.96, 0.0, 0.0], [-0.24, 0.93, 0.0]])
    return make_graph(types, [0, 0, 0], bonds, pos - pos.mean(axis=0))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--template", default=None,
                    help="JSONL file whose first record is the template "
                         "(default: water)")
    ap.add_argument("--epochs", type=int, default=600)
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    if args.template:
        with open(args.template) as fh:
            template = parse_molecule(fh.readline())
    else:
        template = water()
    target = canonical_hash(template)

    net = NetworkConfig(latent=64, rounds=3, n_rbf=16, gcn_layers=3, heads=4,
                        head_dim=16, d_time=32, d_contrast=32, hidden=64,
                        edge_hidden=32)
    cfg = TrainConfig(epochs=args.epochs, batch_size=4, lr=3e-3,
                      lr_schedule="cosine", seed=args.seed, self_cond_prob=0.5)
    t0 = time.time()
    params, history = train([template] * 16, cfg, net)
    print(f"trained {args.epochs} epochs in {time.time() - t0:.0f}s, "
          f"final loss {history[-1]['total']:.4f}")

    sampler = SamplerConfig(steps=args.steps, lam=0.0, n_atoms=template.n,
                            seed=args.seed, t_end=0.01)
    samples = generate(params, net, cfg.schedule, sampler, args.samples)
    hits = sum(canonical_hash(g) == target for g in samples)
    print(f"exact bond-graph match: {hits}/{args.samples} "
          f"({100.0 * hits / args.samples:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
