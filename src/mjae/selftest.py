"""Built-in verification battery behind the ``selftest`` CLI command.

Runs the cheap, deterministic checks: finite-state gradient decomposition,
finite-difference gradient checks for every autodiff primitive and a
composite network, schedule identities, forward-trajectory score targets,
and the architectural symmetry report on a random-init model.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .evalsuite import symmetry_report
from .loss import verify_decomposition
from .molgraph import make_graph
from .network import NetworkConfig, init_params
from .schedule import NoiseSchedule, alpha_beta


def finite_difference(fn, x):
    """Central finite-difference gradient, step 1e-5, of scalar ``fn`` at ``x``."""
    step = 1e-5
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
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def _primitive_cases(rng):
    """(name, builder) pairs; builder maps an input Tensor to a scalar loss."""
    w = rng.standard_normal((4, 3))
    c1 = rng.standard_normal((4, 4))
    c2 = rng.standard_normal((4, 4))
    c3 = rng.standard_normal((4, 4))
    c4 = 2.0 + rng.uniform(size=(4, 4))
    b = rng.standard_normal(3)
    f = rng.standard_normal((10, 4))
    # molecules of 1, 2 and 4 atoms: 7 atom rows and 21 pair rows
    sizes = (1, 2, 4)
    atoms = rng.standard_normal((7, 4))
    pairs = rng.standard_normal((21, 1))

    def reduce(t):
        return ad.sum_(ad.mul(t, t))

    def spread(x, shape):
        """The 16 entries of x over an array of ``shape``, each used once or more."""
        return ad.reshape(ad.reshape(x, (16,))[np.arange(int(np.prod(shape))) % 16], shape)

    return [
        ("add", lambda x: reduce(ad.add(x, Tensor(c1)))),
        ("sub", lambda x: reduce(ad.sub(Tensor(c2), x))),
        ("mul", lambda x: reduce(ad.mul(x, Tensor(c3)))),
        ("div", lambda x: reduce(ad.div(x, Tensor(c4)))),
        ("matmul", lambda x: reduce(ad.matmul(x, Tensor(w)))),
        ("concat", lambda x: reduce(ad.concat([x, ad.mul(x, Tensor(2.0))], axis=0))),
        ("slice", lambda x: reduce(x[1:3, :2])),
        ("slice fancy", lambda x: reduce(x[np.array([0, 2, 0])])),
        ("reshape", lambda x: reduce(ad.reshape(x, (2, 8)))),
        ("transpose", lambda x: reduce(ad.transpose(x))),
        ("sum", lambda x: ad.square(ad.sum_(x))),
        ("mean", lambda x: reduce(ad.mean(x, axis=0))),
        ("silu", lambda x: reduce(ad.silu(x))),
        ("softmax", lambda x: reduce(ad.softmax(x))),
        ("log", lambda x: reduce(ad.log(ad.add(ad.square(x), Tensor(1.0))))),
        ("square", lambda x: reduce(ad.square(x))),
        ("sqrt", lambda x: reduce(ad.sqrt(ad.add(ad.square(x), Tensor(0.5))))),
        ("abs", lambda x: reduce(ad.abs_(x))),
        ("linear", lambda x: reduce(ad.linear(x, Tensor(w), Tensor(b)))),
        ("linear weight", lambda x: reduce(ad.linear(Tensor(c1), x, ad.mean(x, axis=0)))),
        # one 4-atom molecule whose 4 pair rows of atom i are copies of x[i]
        ("ragged_message filt", lambda x: reduce(ad.ragged_message(
            ad.reshape(ad.concat([x] * 4, axis=1), (16, 4)), Tensor(c2), (4,)))),
        # molecules of 1 and 3 atoms: 4 atoms, 10 pair rows
        ("ragged_message x", lambda x: reduce(ad.ragged_message(Tensor(f), x, (1, 3)))),
        ("linear blocks", lambda x: reduce(ad.linear(spread(x, (7, 4)), Tensor(w), Tensor(b),
                                                     sizes))),
        ("linear blocks weight", lambda x: reduce(ad.linear(Tensor(atoms), x, ad.mean(x, axis=0),
                                                            sizes))),
        ("matmul blocks", lambda x: reduce(ad.matmul(spread(x, (7, 4)), Tensor(w), sizes))),
        ("pair_matmul w", lambda x: reduce(ad.pair_matmul(spread(x, (21, 1)), Tensor(atoms),
                                                          sizes))),
        ("pair_matmul x", lambda x: reduce(ad.pair_matmul(Tensor(pairs), spread(x, (7, 4)),
                                                          sizes))),
        ("pair_inner q", lambda x: reduce(ad.pair_inner(spread(x, (7, 4)), Tensor(atoms), sizes))),
        ("pair_inner k", lambda x: reduce(ad.pair_inner(Tensor(atoms), spread(x, (7, 4)), sizes))),
        ("pair_softmax", lambda x: reduce(ad.pair_softmax(spread(x, (21, 1)), sizes))),
        ("ragged_message row sums", lambda x: reduce(ad.ragged_message(
            spread(x, (21, 1)), Tensor(np.ones((7, 1))), sizes))),
        ("block_mean rows", lambda x: reduce(ad.block_mean(spread(x, (7, 4)), sizes))),
        ("block_mean all", lambda x: reduce(ad.block_mean(spread(x, (7, 4)), sizes, axis=None))),
        # the filter f @ x of molecules of 1 and 3 atoms, built per run
        ("ragged_message w", lambda x: reduce(ad.ragged_message(Tensor(f), Tensor(c2), (1, 3), x))),
        ("pair_outer multiply", lambda x: reduce(ad.pair_outer(spread(x, (7, 4)), sizes,
                                                                np.multiply))),
        ("pair_outer add", lambda x: reduce(ad.pair_outer(spread(x, (7, 4)), sizes, np.add))),
    ]


def gradcheck_primitive(builder, rng):
    """Worst error of reverse mode against central differences at 5 points."""
    worst = 0.0
    for _ in range(5):
        base = rng.standard_normal((4, 4))
        base += 0.2 * np.sign(base)  # keep abs away from its kink
        x = Tensor(base.copy(), requires_grad=True)
        loss = builder(x)
        ad.backward(loss)
        analytic = x.grad

        def value(arr):
            return float(builder(Tensor(arr.copy())).data)

        numeric = finite_difference(value, base.copy())
        scale = max(np.abs(numeric).max(), 1.0)
        worst = max(worst, np.abs(analytic - numeric).max() / scale)
    return worst


def run_selftest():
    """Run the whole battery and print one line per check; True if all pass."""
    results = []
    rng = np.random.default_rng(42)

    worst = 0.0
    for seed in range(100):
        r = np.random.default_rng(seed)
        theta = r.standard_normal((5, 5))
        _, _, res = verify_decomposition(theta, int(r.integers(5)), int(r.integers(5)))
        worst = max(worst, res)
    results.append(("gradient-decomposition identity", worst < 1e-10, f"max residual {worst:.2e}"))

    worst_name, worst_err = "", 0.0
    for name, builder in _primitive_cases(rng):
        err = gradcheck_primitive(builder, rng)
        if err > worst_err:
            worst_name, worst_err = name, err
    results.append(("primitive gradient checks", worst_err < 1e-6,
                    f"worst {worst_name}: {worst_err:.2e}"))

    sched = NoiseSchedule(kind="VP")
    grid = np.linspace(0.0, 1.0, 1000)
    vp_res = max(abs(sum(x * x for x in alpha_beta(sched, t)) - 1.0) for t in grid)
    alphas = [alpha_beta(sched, t)[0] for t in grid]
    betas = [alpha_beta(sched, t)[1] for t in grid]
    mono = all(a1 >= a2 - 1e-12 for a1, a2 in zip(alphas, alphas[1:])) and \
        all(b1 <= b2 + 1e-12 for b1, b2 in zip(betas, betas[1:]))
    results.append(("schedule identities", vp_res < 1e-12 and mono,
                    f"VP residual {vp_res:.2e}, monotone={mono}"))

    cfg = NetworkConfig()
    params = init_params(cfg, np.random.default_rng(7))
    probes = [_probe_molecule(np.random.default_rng(s)) for s in range(3)]
    rep = symmetry_report(params, cfg, probes, n_rotations=5, n_permutations=5)
    sym_ok = (rep.rotation_equivariance_3d < 1e-4
              and rep.rotation_invariance_2d < 1e-5
              and rep.rotation_invariance_h < 1e-5
              and rep.permutation_residual < 1e-6
              and rep.reflection_coefficient_residual < 1e-5)
    results.append(("symmetry report", sym_ok,
                    f"3d={rep.rotation_equivariance_3d:.1e} "
                    f"2d={rep.rotation_invariance_2d:.1e} "
                    f"perm={rep.permutation_residual:.1e}"))

    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all(ok for _, ok, _ in results)


def _probe_molecule(rng):
    """A 6-atom chain at random positions."""
    n = 6
    types = rng.integers(1, 6, size=n)
    bonds = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        bonds[i, i + 1] = bonds[i + 1, i] = 1
    pos = rng.standard_normal((n, 3)) * 1.5
    return make_graph(types, np.zeros(n, dtype=int), bonds, pos)
