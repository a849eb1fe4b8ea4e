import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import fd_grad
from mjae import autodiff as ad
from mjae.autodiff import ShapeError, TapeError, Tensor
from mjae.network import _pair_rows


def _same_bits(a, b):
    """Equal shapes and bits (unlike ``np.array_equal``, -0.0 is not 0.0)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_matmul_shape_rule():
    out = ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))))
    assert out.shape == (2, 4)


def test_shape_errors_name_primitive():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))
    with pytest.raises(ShapeError, match="reshape"):
        ad.reshape(Tensor(np.ones(6)), (4, 4))
    with pytest.raises(ShapeError, match="concat"):
        ad.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)


def test_rank_cap():
    with pytest.raises(ShapeError, match="rank"):
        Tensor(np.zeros((2, 2, 2, 2, 2)))


def test_softmax_rows_normalized(rng):
    out = ad.softmax(Tensor(rng.standard_normal((5, 7))))
    assert np.abs(out.data.sum(axis=1) - 1.0).max() < 1e-12


def test_sum_square_gradient_exact(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    ad.backward(ad.sum_(ad.square(x)))
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_sum_gradient_ones(rng):
    x = Tensor(rng.standard_normal(6), requires_grad=True)
    ad.backward(ad.sum_(x))
    assert np.array_equal(x.grad, np.ones(6))


def test_backward_contracts(rng):
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    loss = ad.sum_(ad.square(x))
    ad.backward(loss)
    with pytest.raises(TapeError, match="consumed"):
        ad.backward(loss)
    with pytest.raises(TapeError, match="scalar"):
        ad.backward(ad.square(Tensor(np.ones(3), requires_grad=True)))
    with pytest.raises(TypeError):
        ad.backward(np.ones(1))


def test_failed_backward_consumes_the_tape(rng):
    """A gradient function that raises leaves a half-walked tape, which a
    second ``backward`` refuses."""
    x = Tensor(rng.standard_normal(3), requires_grad=True)

    def boom(g):
        raise FloatingPointError("boom")

    loss = ad.sum_(Tensor(x.data * 2.0, requires_grad=True, _parents=((x, boom),)))
    with pytest.raises(FloatingPointError):
        ad.backward(loss)
    with pytest.raises(TapeError, match="consumed"):
        ad.backward(loss)


def test_backward_frees_interior_arrays_before_the_leaves(rng):
    """An interior array is freed once its last consumer's gradient is
    formed: by the time backward reaches the node under it, the silu output
    is gone."""
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    alive = []

    def probe(g):
        gc.collect()
        alive.append(ref() is not None)
        return g

    under = Tensor(x.data + 1.0, requires_grad=True, _parents=((x, probe),))
    act = ad.silu(under)
    ref = weakref.ref(act.data)
    loss = ad.sum_(ad.square(act))
    del act, under
    ad.backward(loss)
    assert alive == [False]
    assert np.all(np.isfinite(x.grad))


def test_grad_accumulates_over_reuse(rng):
    x = Tensor(np.array(3.0), requires_grad=True)
    # y = x * x via two references to the same leaf
    ad.backward(ad.mul(x, x))
    assert abs(float(x.grad) - 6.0) < 1e-12


def test_broadcast_unbroadcast(rng):
    # a binary primitive broadcasts its operands; backward sums each
    # operand's gradient back to that operand's shape
    x = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    z = Tensor(rng.standard_normal(4), requires_grad=True)
    ad.backward(ad.sum_(ad.mul(ad.mul(x, y), z)))
    assert x.grad.shape == (1, 4) and z.grad.shape == (4,)
    assert np.allclose(x.grad, (y.data * z.data).sum(axis=0, keepdims=True))
    assert np.allclose(y.grad, x.data * z.data)
    assert np.allclose(z.grad, (x.data * y.data).sum(axis=0))


# -- finite-difference gradient checks ------------------------------------

def _check(builder, x0, tol=1e-6):
    """Compare autodiff gradients against the conftest FD oracle."""
    x = Tensor(x0.copy(), requires_grad=True)
    ad.backward(builder(x))
    numeric = fd_grad(lambda a: float(builder(Tensor(a)).data), x0.copy())
    scale = max(np.abs(numeric).max(), 1.0)
    assert np.abs(x.grad - numeric).max() / scale < tol


def _smooth(rng, shape):
    # keep probes away from the abs kink
    base = rng.standard_normal(shape)
    return base + 0.25 * np.sign(base)


CASES = {
    "add": lambda x, c: ad.sum_(ad.square(ad.add(x, Tensor(c)))),
    "sub": lambda x, c: ad.sum_(ad.square(ad.sub(Tensor(c), x))),
    "mul": lambda x, c: ad.sum_(ad.mul(x, Tensor(c))),
    "div": lambda x, c: ad.sum_(ad.div(Tensor(c), ad.add(ad.square(x), Tensor(1.0)))),
    "log": lambda x, c: ad.sum_(ad.log(ad.add(ad.square(x), Tensor(1.0)))),
    "square": lambda x, c: ad.sum_(ad.square(x)),
    "sqrt": lambda x, c: ad.sum_(ad.sqrt(ad.add(ad.square(x), Tensor(1.0)))),
    "abs": lambda x, c: ad.sum_(ad.abs_(x)),
    "silu": lambda x, c: ad.sum_(ad.silu(x)),
    "softmax": lambda x, c: ad.sum_(ad.mul(ad.softmax(x), Tensor(c))),
    "mean": lambda x, c: ad.mean(ad.square(x)),
    "sum_axis": lambda x, c: ad.sum_(ad.square(ad.sum_(x, axis=0))),
    "mean_axis": lambda x, c: ad.sum_(ad.square(ad.mean(x, axis=1))),
    "reshape": lambda x, c: ad.sum_(ad.square(ad.reshape(x, (x.data.size,)))),
    "transpose": lambda x, c: ad.sum_(ad.mul(ad.transpose(x), Tensor(c.T))),
    "slice": lambda x, c: ad.sum_(ad.square(x[1:, :2])),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_primitive_gradients(name, rng):
    for probe in range(5):
        x0 = _smooth(rng, (3, 4))
        c = rng.standard_normal((3, 4))
        _check(lambda x, c=c: CASES[name](x, c), x0)


def test_silu_gradient_at_extreme_inputs():
    # the sigmoid inside silu must not overflow far out in either tail
    x0 = np.array([[-800.0, -400.0, -40.0, -5.0],
                   [-0.3, 0.0, 0.3, 5.0],
                   [40.0, 400.0, 700.0, 800.0]])
    with np.errstate(over="raise"):
        _check(lambda x: ad.sum_(ad.silu(x)), x0)
        out = ad.silu(Tensor(x0)).data
    assert np.all(np.isfinite(out))
    # tanh rounds the far negative tail of the sigmoid to 0: absolute accuracy
    assert np.allclose(out, x0 / (1.0 + np.exp(-np.clip(x0, -700, 700))), rtol=1e-12, atol=1e-12)


def test_slice_gradient_basic_and_fancy_indices(rng):
    """A basic index is written back, a fancy one accumulated: a row that a
    fancy index picks twice gets both contributions."""
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    ad.backward(ad.add(ad.sum_(x[1:3, 0]), ad.sum_(x[np.array([0, 2, 0])])))
    expect = np.zeros((4, 3))
    expect[1:3, 0] = 1.0
    expect[0] += 2.0
    expect[2] += 1.0
    assert np.array_equal(x.grad, expect)
    _check(lambda t: ad.sum_(ad.square(t[2])), rng.standard_normal((3, 4)))
    _check(lambda t: ad.sum_(ad.square(t[np.array([2, 0, 2])])), rng.standard_normal((3, 4)))
    # repeated rows of a (P, 1) column and of 128-wide rows, a 1-D tensor and
    # a diagonal pick sum in np.add.at's order, bit for bit
    for shape, idx in (((40, 1), rng.integers(0, 40, 300)),
                       ((40, 128), rng.integers(0, 40, 300)),
                       ((40,), rng.integers(0, 40, 300)),
                       ((6, 6), (np.arange(6), np.arange(6)))):
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        out = x[idx]
        g = rng.standard_normal(out.shape)
        g.flat[0] = -0.0
        ad.backward(ad.sum_(ad.mul(out, Tensor(g))))
        expect = np.zeros(shape)
        np.add.at(expect, idx, g)
        assert _same_bits(x.grad, expect)


def test_linear_gradients_of_each_operand(rng):
    x0 = rng.standard_normal((5, 4))
    w0 = rng.standard_normal((4, 3))
    b0 = rng.standard_normal(3)
    out = ad.linear(Tensor(x0), Tensor(w0), Tensor(b0)).data
    assert np.array_equal(out, x0 @ w0 + b0)
    _check(lambda x: ad.sum_(ad.square(ad.linear(x, Tensor(w0), Tensor(b0)))), x0)
    _check(lambda w: ad.sum_(ad.square(ad.linear(Tensor(x0), w, Tensor(b0)))), w0)
    _check(lambda b: ad.sum_(ad.square(ad.linear(Tensor(x0), Tensor(w0), b))), b0)
    with pytest.raises(ShapeError, match="linear"):
        ad.linear(Tensor(x0), Tensor(w0), Tensor(np.zeros(4)))


def _ragged_reference(filt, x, sizes):
    """msgs_i = sum_j filt_ij x_j molecule by molecule, from dense blocks."""
    out, row, atom = [], 0, 0
    for n in sizes:
        block = filt[row:row + n * n].reshape(n, n, -1)
        out.append((block * x[atom:atom + n][None, :, :]).sum(axis=1))
        row += n * n
        atom += n
    return np.concatenate(out)


def test_ragged_message_matches_dense_blocks_and_fd(rng):
    sizes = (1, 3, 2)
    filt0 = rng.standard_normal((sum(n * n for n in sizes), 4))
    x0 = rng.standard_normal((sum(sizes), 4))
    out = ad.ragged_message(Tensor(filt0), Tensor(x0), sizes).data
    assert np.allclose(out, _ragged_reference(filt0, x0, sizes), rtol=1e-13, atol=1e-13)
    weights = Tensor(rng.standard_normal(x0.shape))

    def loss(filt, x):
        return ad.sum_(ad.mul(ad.ragged_message(filt, x, sizes), weights))

    _check(lambda f: loss(f, Tensor(x0)), filt0)   # filt need not be symmetric
    _check(lambda x: loss(Tensor(filt0), x), x0)
    with pytest.raises(ShapeError, match="ragged_message"):
        ad.ragged_message(Tensor(filt0[1:]), Tensor(x0), sizes)
    with pytest.raises(ShapeError, match="ragged_message"):
        ad.ragged_message(Tensor(filt0), Tensor(x0), (2, 2, 2))


@pytest.mark.parametrize("width", [1, 6, 128])
def test_ragged_message_bitwise_to_block_products(width, rng):
    """Forward and both gradients equal, bit for bit, the block products
    summed by numpy's reduction, on molecules of 1, 2, 9 and 33 atoms. The
    x gradient of column 0 and of the 1-atom molecule sums terms that are all
    -0.0, and column 1 sums -0.0 and +0.0 terms: the sign of such a zero
    sum is compared too."""
    sizes = (1, 2, 9, 33)
    filt0 = rng.standard_normal((sum(n * n for n in sizes), width))
    g = rng.standard_normal((sum(sizes), width))
    filt0[:, 0] = np.abs(filt0[:, 0])
    g[:, 0] = -0.0
    g[0] = np.copysign(0.0, -filt0[0])
    if width > 1:
        g[:, 1] = rng.choice([-0.0, 0.0], size=g.shape[0])
    filt = Tensor(filt0, requires_grad=True)
    x = Tensor(rng.standard_normal(g.shape), requires_grad=True)
    out = ad.ragged_message(filt, x, sizes)
    ad.backward(ad.sum_(ad.mul(out, Tensor(g))))
    msgs, dfilt, dx, atom, row = [], [], [], 0, 0
    for n in sizes:
        block = filt.data[row:row + n * n].reshape(n, n, width)
        xs, gs = x.data[atom:atom + n], g[atom:atom + n]
        msgs.append((block * np.expand_dims(xs, 0)).sum(axis=1))
        dfilt.append((gs[:, None] * xs).reshape(-1, width))
        dx.append((block * np.expand_dims(gs, 1)).sum(axis=0))
        atom, row = atom + n, row + n * n
    assert _same_bits(out.data, np.concatenate(msgs))
    assert _same_bits(filt.grad, np.concatenate(dfilt))
    assert _same_bits(x.grad, np.concatenate(dx))


@pytest.mark.parametrize("width", [1, 2, 128])
def test_ragged_message_weight_matches_stored_filter(width, rng):
    """With a weight, the filter built per run inside the node gives, bit for
    bit, the forward and the feature, x and weight gradients of a stored
    ``matmul`` filter, on runs of k > 1 and of lone atoms, signed zeros
    included."""
    sizes = (1, 1, 3, 3, 3, 2, 5, 5, 1, 4)
    pairs = [n * n for n in sizes]
    feats0 = rng.standard_normal((sum(pairs), 6))
    feats0[::7] = -0.0
    x0 = rng.standard_normal((sum(sizes), width))
    w0 = rng.standard_normal((6, width))
    g = rng.standard_normal(x0.shape)
    g[::3] = -0.0

    def run(build):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (feats0, x0, w0)]
        out = build(*leaves)
        ad.backward(ad.sum_(ad.mul(out, Tensor(g))))
        return [out.data] + [leaf.grad for leaf in leaves]

    fused = run(lambda f, x, w: ad.ragged_message(f, x, sizes, w))
    stored = run(lambda f, x, w: ad.ragged_message(ad.matmul(f, w, pairs), x, sizes))
    for name, a, b in zip(("out", "feats", "x", "w"), fused, stored):
        assert _same_bits(a, b), name
    with pytest.raises(ShapeError, match="ragged_message"):
        ad.ragged_message(Tensor(feats0), Tensor(x0), sizes, Tensor(w0[1:]))
    with pytest.raises(ShapeError, match="ragged_message"):
        ad.ragged_message(Tensor(feats0), Tensor(x0[:, :1]), sizes, Tensor(np.ones((6, 2))))


def test_block_primitives_make_each_molecules_own_call(rng):
    """Each block primitive's output is, block by block, the numpy call one
    molecule alone makes, so a molecule's bits do not depend on its
    batch-mates; blocks that do not cover the rows are a ShapeError."""
    sizes = (1, 3, 2)
    atoms = [slice(0, 1), slice(1, 4), slice(4, 6)]
    pairs = [slice(0, 1), slice(1, 10), slice(10, 14)]
    x = rng.standard_normal((6, 5))
    k = rng.standard_normal((6, 5))
    w = rng.standard_normal((5, 3))
    b = rng.standard_normal(3)
    p = rng.standard_normal((14, 1))
    blocks = list(zip(sizes, atoms, pairs))
    cases = [
        (ad.linear(Tensor(x), Tensor(w), Tensor(b), sizes),
         [x[a] @ w + b for _, a, _ in blocks]),
        (ad.matmul(Tensor(x), Tensor(w), sizes), [x[a] @ w for _, a, _ in blocks]),
        (ad.pair_matmul(Tensor(p), Tensor(x), sizes),
         [p[q].reshape(n, n) @ x[a] for n, a, q in blocks]),
        (ad.pair_inner(Tensor(x), Tensor(k), sizes),
         [(x[a] @ k[a].T).reshape(-1, 1) for _, a, _ in blocks]),
        (ad.pair_softmax(Tensor(p), sizes),
         [ad.softmax(Tensor(p[q].reshape(n, n)), axis=-1).data.reshape(-1, 1)
          for n, _, q in blocks]),
        (ad.ragged_message(Tensor(p), Tensor(np.ones((6, 1))), sizes),
         [p[q].reshape(n, n).sum(axis=1).reshape(-1, 1) for n, _, q in blocks]),
        (ad.block_mean(Tensor(x), sizes), [x[a].mean(axis=0)[None] for _, a, _ in blocks]),
        (ad.block_mean(Tensor(x), sizes, axis=None), [[x[a].mean()] for _, a, _ in blocks]),
    ]
    for got, parts in cases:
        assert np.array_equal(got.data, np.concatenate(parts))
    for build, name in ((lambda: ad.linear(Tensor(x), Tensor(w), Tensor(b), (1, 3)), "linear"),
                        (lambda: ad.matmul(Tensor(x), Tensor(w), (7,)), "matmul"),
                        (lambda: ad.pair_matmul(Tensor(p[1:]), Tensor(x), sizes), "pair_matmul"),
                        (lambda: ad.pair_inner(Tensor(x), Tensor(k), (2, 3)), "pair_inner"),
                        (lambda: ad.pair_softmax(Tensor(p.ravel()), sizes), "pair_softmax"),
                        (lambda: ad.block_mean(Tensor(x), (1, 2)), "block_mean")):
        with pytest.raises(ShapeError, match=name):
            build()


# (name, operand kinds, output kind, build(*operands, sizes)) of each block
# primitive; kinds: "atoms" (N, width), "pairs" (P, width), "values" (P, 1),
# "weight" (width, 3) and "bias" (3,) shared by all molecules; output kinds
# also "means", one row, and "mean", one value per molecule.
_BLOCK_CASES = [
    ("linear", ("atoms", "weight", "bias"), "atoms", ad.linear),
    ("matmul", ("atoms", "weight"), "atoms", ad.matmul),
    ("matmul pair rows", ("pairs", "weight"), "pairs",
     lambda x, w, sizes: ad.matmul(x, w, [n * n for n in sizes])),
    ("pair_matmul", ("values", "atoms"), "atoms", ad.pair_matmul),
    ("pair_inner", ("atoms", "atoms"), "values", ad.pair_inner),
    ("pair_softmax", ("values",), "values", ad.pair_softmax),
    ("ragged_message", ("pairs", "atoms"), "atoms", ad.ragged_message),
    ("pair_outer multiply", ("atoms",), "pairs",
     lambda x, sizes: ad.pair_outer(x, sizes, np.multiply)),
    ("pair_outer add", ("atoms",), "pairs", lambda x, sizes: ad.pair_outer(x, sizes, np.add)),
    ("block_mean rows", ("atoms",), "means", ad.block_mean),
    ("block_mean all", ("atoms",), "mean", lambda a, sizes: ad.block_mean(a, sizes, axis=None)),
    ("block_mean pair rows", ("pairs",), "mean",
     lambda a, sizes: ad.block_mean(a, [n * n for n in sizes], axis=None)),
]


def _kind_shape(kind, sizes, width):
    return {"atoms": (sum(sizes), width), "pairs": (sum(n * n for n in sizes), width),
            "values": (sum(n * n for n in sizes), 1), "weight": (width, 3),
            "bias": (3,)}[kind]


def _molecule_rows(kind, sizes, b):
    """Molecule ``b``'s rows of an array of ``kind``; None for shared operands."""
    if kind in ("weight", "bias"):
        return None
    if kind == "atoms":
        return slice(sum(sizes[:b]), sum(sizes[:b + 1]))
    if kind in ("pairs", "values"):
        return slice(sum(n * n for n in sizes[:b]), sum(n * n for n in sizes[:b + 1]))
    return slice(b, b + 1)


@pytest.mark.parametrize("width", [1, 4, 32])
@pytest.mark.parametrize("case", _BLOCK_CASES, ids=[c[0] for c in _BLOCK_CASES])
def test_block_primitives_on_runs_match_each_molecule_alone(case, width, rng):
    """Consecutive molecules of one size form a run, which makes one stacked
    numpy call. Each molecule's output rows and the gradient rows of its own
    operands are still, bit for bit, those of the primitive on that molecule
    alone, signed zeros included; shared weights are whole-batch operands."""
    name, kinds, out_kind, build = case
    sizes = (3, 3, 3, 1, 1, 2, 5, 5)

    def run(arrays, sizes, cotangent):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = build(*leaves, sizes)
        g = cotangent(out.shape)
        ad.backward(ad.sum_(ad.mul(out, Tensor(g))))
        return out.data, [leaf.grad for leaf in leaves], g

    def random_cotangent(shape):
        g = rng.standard_normal(shape)
        g.reshape(-1)[::5] = -0.0
        if len(shape) == 2 and shape[1] > 1:
            g[:, 1] = -0.0   # gradient sums of -0.0 terms keep their sign
        return g

    arrays = [rng.standard_normal(_kind_shape(kind, sizes, width)) for kind in kinds]
    for a in arrays:
        a.reshape(-1)[::7] = -0.0
    out, grads, cotangent = run(arrays, sizes, random_cotangent)
    for b, n in enumerate(sizes):
        own = [a if _molecule_rows(kind, sizes, b) is None else a[_molecule_rows(kind, sizes, b)]
               for a, kind in zip(arrays, kinds)]
        rows = _molecule_rows(out_kind, sizes, b)
        alone, alone_grads, _ = run(own, (n,), lambda shape: cotangent[rows])
        assert _same_bits(out[rows], alone), (name, b)
        for kind, grad, grad_alone in zip(kinds, grads, alone_grads):
            if _molecule_rows(kind, sizes, b) is not None:
                assert _same_bits(grad[_molecule_rows(kind, sizes, b)], grad_alone), (name, b, kind)


def test_ragged_message_row_sums_and_gradient_bitwise(rng):
    """A message over all-ones atom rows is each molecule's row sum of its
    (n, n) pair block, bit for bit, and its pair-value gradient repeats g_i
    over the row's n pairs, signed zeros included."""
    sizes = (1, 3, 2, 17)
    p = rng.standard_normal((sum(n * n for n in sizes), 1))
    p[::5] = -0.0
    g = rng.standard_normal((sum(sizes), 1))
    g[::3] = -0.0
    w = Tensor(p, requires_grad=True)
    out = ad.ragged_message(w, Tensor(np.ones((sum(sizes), 1))), sizes)
    ad.backward(ad.sum_(ad.mul(out, Tensor(g))))
    rows, grads, atom, row = [], [], 0, 0
    for n in sizes:
        rows.append(p[row:row + n * n].reshape(n, n).sum(axis=1).reshape(-1, 1))
        grads.append(np.repeat(g[atom:atom + n], n, axis=0))
        atom, row = atom + n, row + n * n
    assert _same_bits(out.data, np.concatenate(rows))
    assert _same_bits(w.grad, np.concatenate(grads))


# size lists of runs of k > 1 and of 1-atom molecules; 8 atoms and more is
# where numpy sums a contiguous width-1 axis pairwise
_PAIR_OUTER_SIZES = st.lists(
    st.tuples(st.sampled_from([1, 2, 3, 4, 8, 9, 13, 17]), st.integers(1, 3)),
    min_size=1, max_size=5).map(lambda runs: [n for n, k in runs for _ in range(k)])


@settings(max_examples=8, deadline=None)
@given(sizes=_PAIR_OUTER_SIZES, seed=st.integers(0, 10_000))
@example(sizes=[1, 1, 3, 3, 3, 2, 9, 9, 1, 17], seed=0)
@pytest.mark.parametrize("width", [1, 2, 8, 32, 128])
@pytest.mark.parametrize("op", [np.multiply, np.add], ids=["multiply", "add"])
def test_pair_outer_bitwise_to_gather(op, width, sizes, seed):
    """``pair_outer`` gives, bit for bit, the forward and the gradient of
    ``op`` of the gathered rows ``x[i]`` and ``x[j]``, signed zeros included,
    whether its gradient arrives contiguous or as a column slice of a wider
    array, and when every gradient entry is -0.0."""
    r = np.random.default_rng(seed)
    i, j, _ = _pair_rows(sizes)
    x0 = r.standard_normal((sum(sizes), width))
    x0.reshape(-1)[::7] = -0.0
    g_random = r.standard_normal((len(i), width))
    g_random.reshape(-1)[::5] = -0.0
    g_other = r.standard_normal((len(i), 3))
    gather = ad.mul if op is np.multiply else ad.add

    def run(build, g, sliced):
        x = Tensor(x0.copy(), requires_grad=True)
        out = build(x)
        if sliced:  # the gradient reaches out as out's columns of a wider one
            out_wide = ad.concat([out, Tensor(np.zeros(g_other.shape))], axis=1)
            ad.backward(ad.sum_(ad.mul(out_wide, Tensor(np.concatenate([g, g_other], axis=1)))))
        else:
            ad.backward(ad.sum_(ad.mul(out, Tensor(g))))
        return out.data, x.grad

    for g in (g_random, np.full_like(g_random, -0.0)):
        for sliced in (False, True):
            got = run(lambda x: ad.pair_outer(x, sizes, op), g, sliced)
            ref = run(lambda x: gather(x[i], x[j]), g, sliced)
            assert _same_bits(got[0], ref[0]), sliced
            assert _same_bits(got[1], ref[1]), sliced


def test_pair_outer_takes_multiply_or_add():
    with pytest.raises(ValueError, match="pair_outer"):
        ad.pair_outer(Tensor(np.ones((2, 1))), (2,), np.subtract)


def test_matmul_gradient(rng):
    w = rng.standard_normal((4, 2))
    _check(lambda x: ad.sum_(ad.square(ad.matmul(x, Tensor(w)))), rng.standard_normal((3, 4)))


def test_concat_gradient(rng):
    other = rng.standard_normal((2, 4))
    _check(lambda x: ad.sum_(ad.square(ad.concat([x, Tensor(other)], axis=0))),
           rng.standard_normal((3, 4)))


def test_composite_mlp_gradient(rng):
    """3-layer composite network against finite differences."""
    w1 = rng.standard_normal((4, 8)) / 2.0
    w2 = rng.standard_normal((8, 8)) / np.sqrt(8)
    w3 = rng.standard_normal((8, 1)) / np.sqrt(8)
    x = rng.standard_normal((5, 4))

    def net(w1t):
        h = ad.silu(ad.matmul(Tensor(x), w1t))
        h = ad.silu(ad.matmul(h, Tensor(w2)))
        return ad.mean(ad.square(ad.matmul(h, Tensor(w3))))

    for _ in range(5):
        _check(net, rng.standard_normal((4, 8)) / 2.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mul_add_chain_gradients_property(seed):
    r = np.random.default_rng(seed)
    a = r.standard_normal((2, 3))
    b = r.standard_normal((2, 3))
    x = Tensor(a.copy(), requires_grad=True)
    ad.backward(ad.sum_(ad.mul(ad.add(x, Tensor(b)), x)))
    # d/dx sum((x+b)x) = 2x + b
    assert np.abs(x.grad - (2 * a + b)).max() < 1e-10


_SIZES = (2, 2, 3)   # 7 atom rows, 17 pair rows

# (name, op named by its ShapeError, call on operand tensors, operand shapes,
# mismatched operand shapes or None for a primitive that takes any shape)
_DETACHED_CASES = [
    ("add", "add", ad.add, [(3, 4), (4,)], [(3, 4), (3,)]),
    ("sub", "sub", ad.sub, [(3, 4), (3, 1)], [(3, 4), (2, 1)]),
    ("mul", "mul", ad.mul, [(3, 4), ()], [(3, 4), (5,)]),
    ("div", "div", ad.div, [(3, 4), (3, 4)], [(3, 4), (4, 3)]),
    ("matmul", "matmul", ad.matmul, [(3, 4), (4, 2)], [(3, 4), (3, 2)]),
    ("matmul rows", "matmul", lambda a, b: ad.matmul(a, b, _SIZES), [(7, 4), (4, 2)],
     [(6, 4), (4, 2)]),
    ("linear", "linear", ad.linear, [(3, 4), (4, 2), (2,)], [(3, 4), (4, 2), (3,)]),
    ("linear rows", "linear", lambda x, w, b: ad.linear(x, w, b, _SIZES),
     [(7, 4), (4, 2), (2,)], [(8, 4), (4, 2), (2,)]),
    ("pair_matmul", "pair_matmul", lambda w, x: ad.pair_matmul(w, x, _SIZES),
     [(17, 1), (7, 3)], [(16, 1), (7, 3)]),
    ("pair_inner", "pair_inner", lambda q, k: ad.pair_inner(q, k, _SIZES),
     [(7, 3), (7, 3)], [(7, 3), (7, 2)]),
    ("ragged_message", "ragged_message", lambda f, x: ad.ragged_message(f, x, _SIZES),
     [(17, 3), (7, 3)], [(17, 3), (6, 3)]),
    ("pair_outer multiply", "pair_outer", lambda x: ad.pair_outer(x, _SIZES, np.multiply),
     [(7, 3)], [(6, 3)]),
    ("pair_outer add", "pair_outer", lambda x: ad.pair_outer(x, _SIZES, np.add),
     [(7, 3)], [(8, 3)]),
    ("ragged_message w", "ragged_message", lambda f, x, w: ad.ragged_message(f, x, _SIZES, w),
     [(17, 2), (7, 3), (2, 3)], [(17, 2), (7, 3), (3, 3)]),
    ("log", "log", ad.log, [(3, 4)], None),
    ("square", "square", ad.square, [(3, 4)], None),
    ("sqrt", "sqrt", ad.sqrt, [(3, 4)], None),
    ("abs", "abs", ad.abs_, [(3, 4)], None),
    ("silu", "silu", ad.silu, [(3, 4)], None),
    ("softmax", "softmax", ad.softmax, [(3, 4)], None),
    ("pair_softmax", "pair_softmax", lambda a: ad.pair_softmax(a, _SIZES), [(17, 1)],
     [(16, 1)]),
    ("sum", "sum", lambda a: ad.sum_(a, axis=0), [(3, 4)], None),
    ("mean", "mean", lambda a: ad.mean(a, axis=1), [(3, 4)], None),
    ("block_mean", "block_mean", lambda a: ad.block_mean(a, _SIZES), [(7, 3)], [(6, 3)]),
    ("block_mean all", "block_mean", lambda a: ad.block_mean(a, _SIZES, axis=None),
     [(7, 3)], [(8, 3)]),
    ("concat", "concat", lambda a, b: ad.concat([a, b], axis=1), [(3, 4), (3, 2)],
     [(3, 4), (2, 2)]),
    ("slice basic", "slice", lambda a: a[1:, 2], [(3, 4)], None),
    ("slice fancy", "slice", lambda a: a[np.array([2, 0, 2])], [(3, 4)], None),
    ("reshape", "reshape", lambda a: ad.reshape(a, (4, 3)), [(3, 4)], [(3, 5)]),
    ("transpose", "transpose", ad.transpose, [(3, 4)], [(4,)]),
]


def test_no_grad_path_is_cheap(monkeypatch):
    """A primitive whose operands all need no gradient records nothing: it
    never reaches the tape's recording point and returns a bare tensor with
    no parents. It still checks its shapes first. With any one operand that
    needs a gradient, it records one node of the same bits."""
    recorded, make = [], ad._make
    monkeypatch.setattr(ad, "_make", lambda *args: recorded.append(args[2]) or make(*args))
    rng = np.random.default_rng(0)
    for name, op, call, shapes, bad_shapes in _DETACHED_CASES:
        arrays = [rng.uniform(0.5, 2.0, shape) for shape in shapes]
        out = call(*[Tensor(a) for a in arrays])
        assert not out.requires_grad and out._parents == () and recorded == [], name
        ad.backward(ad.sum_(out))  # no-op, but legal
        if bad_shapes is not None:
            with pytest.raises(ShapeError, match=op):
                call(*[Tensor(np.ones(shape)) for shape in bad_shapes])
        assert recorded == [], name

        for i in range(len(arrays)):
            taped = call(*[Tensor(a, requires_grad=j == i) for j, a in enumerate(arrays)])
            assert taped.requires_grad and _same_bits(taped.data, out.data), (name, i)
        assert recorded == [op] * len(arrays), name
        recorded.clear()


def _shared_weight_loss(w_for, xs):
    """Scalar loss on one tape in which weight j is the right operand of
    len(xs[j]) matmuls and the left operand of an add. ``w_for(j)`` gives the
    tensor for weight j at each use. Uses of different weights interleave, and
    every second matmul's left operand is the previous matmul's output, so
    rows differ in count and some depend on the weight itself."""
    terms = []
    hs = [None] * len(xs)
    for use in range(max(len(x) for x in xs)):
        for j, x in enumerate(xs):
            if use < len(x):
                left = Tensor(x[use]) if use % 2 == 0 else hs[j]
                hs[j] = ad.silu(ad.matmul(left, w_for(j)))
                terms.append(ad.sum_(ad.square(hs[j])))
    for j in range(len(xs)):
        terms.append(ad.sum_(ad.square(ad.add(w_for(j), Tensor(0.1 * j)))))
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    return loss


def test_weight_shared_by_several_matmuls(rng):
    """Weights feeding 1, 2 and 5 matmuls plus an add: the stacked weight
    gradient matches per-use accumulation and central finite differences."""
    counts = (1, 2, 5)
    xs = [[rng.standard_normal((int(rng.integers(1, 6)), 4)) for _ in range(k)]
          for k in counts]
    w0 = [rng.standard_normal((4, 4)) / 2.0 for _ in counts]

    shared = [Tensor(w.copy(), requires_grad=True) for w in w0]
    ad.backward(_shared_weight_loss(lambda j: shared[j], xs))

    # reference: a fresh leaf per use, so each takes the immediate a.T @ g
    copies = [[] for _ in counts]

    def fresh(j):
        copies[j].append(Tensor(w0[j].copy(), requires_grad=True))
        return copies[j][-1]

    ad.backward(_shared_weight_loss(fresh, xs))

    for j, k in enumerate(counts):
        assert len(copies[j]) == k + 1
        per_use = copies[j][0].grad.copy()
        for leaf in copies[j][1:]:
            per_use += leaf.grad
        assert np.linalg.norm(shared[j].grad - per_use) <= 1e-12 * np.linalg.norm(per_use)

        def loss_of(wj, j=j):
            ws = [Tensor(w) for w in w0]
            ws[j] = Tensor(wj)
            return float(_shared_weight_loss(lambda i: ws[i], xs).data)

        fd = fd_grad(loss_of, w0[j].copy())
        assert np.abs(shared[j].grad - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())
