"""Shared fixtures: toy molecules, corpora, and an independent
finite-difference oracle used by the gradient tests."""

import json
import struct

import numpy as np
import pytest

from mjae.molgraph import ELEMENT_INDEX, MoleculeGraph, make_graph

WATER_RECORD = (
    '{"atoms":[{"el":"O","q":0,"xyz":[0.0,0.0,0.119]},'
    '{"el":"H","q":0,"xyz":[0.0,0.763,-0.477]},'
    '{"el":"H","q":0,"xyz":[0.0,-0.763,-0.477]}],'
    '"bonds":[[0,1,1],[0,2,1]]}')

# full valence of the heavy atoms used by the random builder
_HEAVY_VALENCE = {"C": 4, "N": 3, "O": 2}


def water_graph():
    bonds = np.zeros((3, 3), dtype=int)
    bonds[0, 1] = bonds[1, 0] = 1
    bonds[0, 2] = bonds[2, 0] = 1
    pos = [[0.0, 0.0, 0.119], [0.0, 0.763, -0.477], [0.0, -0.763, -0.477]]
    types = [ELEMENT_INDEX["O"], ELEMENT_INDEX["H"], ELEMENT_INDEX["H"]]
    return make_graph(types, [0, 0, 0], bonds, pos)


def methane_graph():
    n = 5
    bonds = np.zeros((n, n), dtype=int)
    for h in range(1, n):
        bonds[0, h] = bonds[h, 0] = 1
    pos = np.array([
        [0.0, 0.0, 0.0],
        [0.629, 0.629, 0.629],
        [-0.629, -0.629, 0.629],
        [-0.629, 0.629, -0.629],
        [0.629, -0.629, -0.629],
    ])
    types = [ELEMENT_INDEX["C"]] + [ELEMENT_INDEX["H"]] * 4
    return make_graph(types, [0] * n, bonds, pos)


def random_molecule(rng, n_heavy=3):
    """Valence-valid random molecule: a single-bond heavy-atom chain with
    hydrogens filling the remaining valence, at jittered 3D positions."""
    symbols = [str(rng.choice(["C", "N", "O"])) for _ in range(n_heavy)]
    types = [ELEMENT_INDEX[s] for s in symbols]
    pos = [np.array([1.5 * i, 0.0, 0.0]) + 0.35 * rng.standard_normal(3)
           for i in range(n_heavy)]
    edges = [(i, i + 1) for i in range(n_heavy - 1)]
    for i, sym in enumerate(symbols):
        used = sum(1 for a, b in edges if i in (a, b))
        for _ in range(_HEAVY_VALENCE[sym] - used):
            h_idx = len(types)
            types.append(ELEMENT_INDEX["H"])
            direction = rng.standard_normal(3)
            pos.append(pos[i] + 1.05 * direction / np.linalg.norm(direction))
            edges.append((i, h_idx))
    n = len(types)
    bonds = np.zeros((n, n), dtype=int)
    for a, b in edges:
        bonds[a, b] = bonds[b, a] = 1
    return make_graph(types, [0] * n, bonds, np.stack(pos))


def toy_corpus(count=20, seed=0):
    rng = np.random.default_rng(seed)
    return [random_molecule(rng, n_heavy=int(rng.integers(2, 5)))
            for _ in range(count)]


def fd_grad(fn, x, step=1e-5):
    """Central finite differences of a scalar function of an array.

    Deliberately independent of the package's own selftest helpers so the
    gradient tests have their own oracle.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def write_raw_checkpoint(path, header, body=b""):
    """A checkpoint file with the given JSON header, for malformed-input tests."""
    from mjae.training import CHECKPOINT_MAGIC, CHECKPOINT_VERSION
    raw = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
                 + struct.pack("<Q", len(raw)) + raw + body)
    return str(path)


def small_net_config():
    from mjae.network import NetworkConfig
    return NetworkConfig(latent=16, rounds=1, n_rbf=8, gcn_layers=1, heads=2,
                         head_dim=8, d_time=8, d_contrast=8, hidden=16,
                         edge_hidden=8)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def water():
    return water_graph()


@pytest.fixture
def methane():
    return methane_graph()


@pytest.fixture
def small_cfg():
    return small_net_config()


def json_values(max_leaves=8):
    """Hypothesis strategy for any JSON value, with unbounded integers and
    non-finite floats (which ``json`` writes as NaN and Infinity)."""
    from hypothesis import strategies as st
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids,
                                                                  max_size=3),
        max_leaves=max_leaves)
