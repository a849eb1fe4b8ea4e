"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps a numpy array and, when gradients are requested, links back
to its parents so that ``backward`` can replay the chain rule. The recorded
graph is single-use: ``backward`` cuts each node from its parents as it walks
the tape, and a second call raises. A node whose operands need no gradient
records nothing: it is a bare ``Tensor`` with no parents and no gradient
functions. Dense tensors of rank <= 4 only; no GPU, no higher-order derivatives.

Three primitives fuse what the network does most often into one tape node:
``linear`` (matmul plus bias), ``ragged_message`` (the per-pair message sum
of a batch of molecules, each pairing only its own atoms) and ``pair_outer``
(each pair row's product or sum of its two atoms' rows, with no gather).

A batch of molecules is stored as stacked rows: atom rows (one per atom) and
pair rows (n^2 per molecule, its ordered pairs (i, j) in row-major order).
The block primitives (``linear`` and ``matmul`` with ``rows``, ``pair_*``,
``ragged_message``, ``block_mean``) make one numpy call per run: a maximal
stretch of consecutive molecules of one size, whose rows are a free
(k, n, ...) view. Stacked ``matmul`` makes, for each of the k molecules, the
BLAS call the molecule alone makes, and a reduction along the same axis keeps
its order, so a molecule's bits, forward and backward, do not depend on its
batch-mates; a run of one molecule is exactly that molecule's own call.
"""

from __future__ import annotations

import functools
import math
from itertools import groupby

import numpy as np


class ShapeError(ValueError):
    """Shape mismatch in a primitive; message names the offending primitive."""


class TapeError(RuntimeError):
    """Misuse of the differentiation tape (non-scalar loss, reused tape)."""


class Tensor:
    """Dense n-d array participating in a differentiation tape.

    ``_parents`` holds ``(parent, grad_fn)`` pairs where ``grad_fn`` maps the
    output gradient to this parent's gradient contribution. Leaves created
    with ``requires_grad=True`` accumulate into ``.grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_op", "_consumed")

    def __init__(self, data, requires_grad=False, _parents=(), _op="leaf"):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 4:
            raise ShapeError(f"{_op}: rank {arr.ndim} > 4 unsupported")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(_parents)
        self._op = _op
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r})"

    def __getitem__(self, idx):
        return slice_(self, idx)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


def _needs_grad(*operands):
    """Whether a node of ``operands`` (``None`` for an absent one) goes on the
    tape: when one of them needs a gradient. Otherwise the primitive returns
    its output as a bare ``Tensor`` and builds no gradient function."""
    for t in operands:
        if t is not None and t.requires_grad:
            return True
    return False


def _make(data, parents, op):
    """Record a node: ``op``'s output with its ``(parent, grad_fn)`` pairs."""
    return Tensor(data, requires_grad=True, _parents=parents, _op=op)


# -- elementwise binary primitives --------------------------------------

def _binary(a, b, op, fwd, da, db):
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = fwd(a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} vs {b.shape}") from e
    if not _needs_grad(a, b):
        return Tensor(out, _op=op)
    return _make(out, ((a, _operand_grad(da, a, b, a.shape, out.shape)),
                       (b, _operand_grad(db, a, b, b.shape, out.shape))), op)


def _operand_grad(d, a, b, shape, out_shape):
    """Gradient of one operand of a binary primitive, summed back to the
    operand's ``shape`` only when the primitive broadcast it."""
    if shape == out_shape:
        return lambda g: d(g, a.data, b.data)
    return lambda g: _unbroadcast(d(g, a.data, b.data), shape)


def add(a, b):
    return _binary(a, b, "add", np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, "sub", np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, "mul", np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _binary(a, b, "div", np.divide,
                   lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y))


class _RightOperandGrad:
    """Gradient of a matmul's right operand, ``a.T @ g``. ``backward`` stacks
    the ``(a, g)`` rows of every use of one leaf weight into a single GEMM."""

    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def __call__(self, g):
        return self.a.T @ g


@functools.lru_cache(maxsize=8)
def _run_slices(sizes):
    """The runs of the tuple ``sizes`` (see ``_runs``) and the atom and pair
    rows they cover. A forward hands its few size lists to many primitives,
    so the last few are kept."""
    runs, atom, pair = [], 0, 0
    for n, run in groupby(sizes):
        k = len(list(run))
        runs.append((k, n, slice(atom, atom + k * n), slice(pair, pair + k * n * n)))
        atom, pair = atom + k * n, pair + k * n * n
    return tuple(runs), atom, pair


def _runs(sizes, rows, op, pairs=None):
    """(k, n, atom rows, pair rows) of each run of ``sizes``: a maximal stretch
    of k consecutive blocks of n rows, its slice of the ``rows`` rows that the
    blocks must cover and its slice of the pair rows (n^2 per block), which
    must cover ``pairs`` when given. A run's rows reshape freely to (k, n, ...)."""
    runs, atom, pair = _run_slices(tuple(sizes))
    if atom != rows:
        raise ShapeError(f"{op}: blocks of {list(sizes)} rows do not cover {rows} rows")
    if pairs is not None and pair != pairs:
        raise ShapeError(f"{op}: molecules of {list(sizes)} atoms do not cover {pairs} pair rows")
    return runs


def _gemm(x, w, b, rows, op):
    """The tape node of ``x @ w`` (plus ``b`` when given); with ``rows``, x runs
    as blocks of that many rows, one GEMM each, made by one stacked matmul per
    run of equal blocks. The weight gradient is a ``_RightOperandGrad`` over
    all rows, so ``backward`` stacks it with the weight's other uses."""
    if rows is None:
        out = x.data @ w.data
    else:
        width, cols = w.shape
        out = np.empty((x.shape[0], cols))
        for k, n, block, _ in _runs(rows, x.shape[0], op):
            np.matmul(x.data[block].reshape(k, n, width), w.data,
                      out=out[block].reshape(k, n, cols))
    if b is not None:
        out += b.data
    if not _needs_grad(x, w, b):
        return Tensor(out, _op=op)
    parents = [(x, lambda g: g @ w.data.T), (w, _RightOperandGrad(x.data))]
    if b is not None:
        parents.append((b, lambda g: g.sum(axis=0)))
    return _make(out, tuple(parents), op)


def matmul(a, b, rows=None):
    """``a @ b``; with ``rows``, a runs as blocks of that many rows, one GEMM each."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    return _gemm(a, b, None, rows, "matmul")


def linear(x, w, b, rows=None):
    """``x @ w + b`` for a row batch ``x`` (m, k), weight ``w`` (k, n) and
    bias ``b`` (n,), as one tape node; with ``rows``, x runs as blocks of that
    many rows, one GEMM each."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise ShapeError(f"linear: incompatible shapes {x.shape} @ {w.shape} + {b.shape}")
    return _gemm(x, w, b, rows, "linear")


def _check_pair_values(a, op):
    if a.data.ndim != 2 or a.shape[1] != 1:
        raise ShapeError(f"{op}: pair values {a.shape} are not one column of pair rows")


def _block_times_rows(values, rows, runs, transpose):
    """Each molecule's (n, n) block of pair ``values`` (or its transpose) @ its
    atom ``rows``: atom rows."""
    out, width = np.empty_like(rows), rows.shape[1]
    for k, n, atoms, pairs in runs:
        block = values[pairs].reshape(k, n, n)
        np.matmul(block.swapaxes(1, 2) if transpose else block,
                  rows[atoms].reshape(k, n, width), out=out[atoms].reshape(k, n, width))
    return out


def _rows_times_rows(a, b, runs):
    """Each molecule's ``a @ b.T`` of its atom rows, as pair rows (P, 1)."""
    out, width = np.empty((sum(k * n * n for k, n, _, _ in runs), 1)), a.shape[1]
    for k, n, atoms, pairs in runs:
        np.matmul(a[atoms].reshape(k, n, width), b[atoms].reshape(k, n, width).swapaxes(1, 2),
                  out=out[pairs].reshape(k, n, n))
    return out


def pair_matmul(w, x, sizes):
    """``W @ x`` per molecule, where W is the molecule's (n, n) block of pair
    values: ``w`` (P, 1) stacks each molecule's pair rows and ``x`` (N, L) its
    atom rows."""
    w, x = as_tensor(w), as_tensor(x)
    _check_pair_values(w, "pair_matmul")
    if x.data.ndim != 2:
        raise ShapeError(f"pair_matmul: atom rows {x.shape} are not a matrix")
    runs = _runs(sizes, x.shape[0], "pair_matmul", w.shape[0])
    out = _block_times_rows(w.data, x.data, runs, False)
    if not _needs_grad(w, x):
        return Tensor(out, _op="pair_matmul")
    return _make(out, ((w, lambda g: _rows_times_rows(g, x.data, runs)),
                       (x, lambda g: _block_times_rows(w.data, g, runs, True))), "pair_matmul")


def pair_inner(q, k, sizes):
    """Pair values ``q_i . k_j`` of each molecule's atoms, its ``q @ k.T``
    block, as pair rows (P, 1); ``q`` and ``k`` (N, d) are atom rows."""
    q, k = as_tensor(q), as_tensor(k)
    if q.data.ndim != 2 or q.shape != k.shape:
        raise ShapeError(f"pair_inner: atom rows {q.shape} and {k.shape}")
    runs = _runs(sizes, q.shape[0], "pair_inner")
    out = _rows_times_rows(q.data, k.data, runs)
    if not _needs_grad(q, k):
        return Tensor(out, _op="pair_inner")
    return _make(out, ((q, lambda g: _block_times_rows(g, k.data, runs, False)),
                       (k, lambda g: _block_times_rows(g, q.data, runs, True))), "pair_inner")


def _pair_side_sums(g, x, runs, op, side):
    """One side's gradient of ``pair_outer``, as atom rows: row a sums over
    the pair rows whose atom ``side`` (0 for i, 1 for j) is a, in pair-row
    order from +0.0, as ``np.bincount`` over a gather's positions adds them.
    A term is g_ij, times the other side's atom row for ``np.multiply``.

    At width L > 1, einsum and a reduction over the (k, n, n, L) block add
    along the summed axis in order. At width 1 that axis is the innermost,
    which numpy sums pairwise, so the terms are first copied into C order
    as (k, summed, kept, 1), which numpy reduces row after row."""
    grad, width = np.empty_like(x), x.shape[1]
    for k, n, atoms, pairs in runs:
        block, rows = g[pairs].reshape(k, n, n, width), x[atoms].reshape(k, n, width)
        sums = grad[atoms].reshape(k, n, width)
        if width > 1 and op is np.multiply:
            np.einsum("kijl,kjl->kil" if side == 0 else "kijl,kil->kjl", block, rows, out=sums)
        elif width > 1:
            np.add.reduce(block, axis=2 - side, initial=0.0, out=sums)
        else:
            block = block.swapaxes(1, 2) if side == 0 else block
            terms = block * rows[:, :, None] if op is np.multiply else block
            np.add.reduce(np.ascontiguousarray(terms), axis=1, initial=0.0, out=sums)
    return grad


def pair_outer(x, sizes, op):
    """Pair rows ``op(x_i, x_j)`` (P, L) of each molecule's atom rows ``x``
    (N, L), for ``op`` ``np.multiply`` or ``np.add``: the rows of
    ``op(x[i], x[j])`` with i and j the atoms of each pair row, written per
    run by broadcasting without gathering either side. Backward records one
    gradient per side, each summed straight into atom rows in the order a
    gathered side's gradient is, so the bits are those of the gather."""
    x = as_tensor(x)
    if op not in (np.multiply, np.add):
        raise ValueError(f"pair_outer: op must be np.multiply or np.add, got {op!r}")
    if x.data.ndim != 2:
        raise ShapeError(f"pair_outer: atom rows {x.shape} are not a matrix")
    runs, width = _runs(sizes, x.shape[0], "pair_outer"), x.shape[1]
    out = np.empty((sum(k * n * n for k, n, _, _ in runs), width))
    for k, n, atoms, pairs in runs:
        rows = x.data[atoms].reshape(k, n, width)
        op(rows[:, :, None], rows[:, None], out=out[pairs].reshape(k, n, n, width))
    if not x.requires_grad:
        return Tensor(out, _op="pair_outer")
    return _make(out, ((x, lambda g: _pair_side_sums(g, x.data, runs, op, 0)),
                       (x, lambda g: _pair_side_sums(g, x.data, runs, op, 1))), "pair_outer")


def ragged_message(filt, x, sizes, w=None):
    """Per-atom message sum ``msgs_i = sum_j filt_ij x_j`` of a batch of molecules.

    ``x`` (N, L) stacks the atoms of molecules of ``sizes`` atoms in order, and
    ``filt`` (P, L) stacks each molecule's n^2 pair rows (i, j) in row-major
    order. Each molecule's rows form an (n, n, L) block summed over j; the ``x``
    gradient sums the same block over i: ``dx_j = sum_i filt_ij g_i``.

    With a weight ``w`` (r, L), ``filt`` (P, r) holds pair features and the
    filter is ``filt @ w``, made per run as the stacked GEMM ``matmul`` with
    pair-row blocks makes. The filter is never stored: forward builds each
    run's block and drops it, the ``x`` gradient builds it again, and the
    ``w`` gradient is ``filt.T @ dfilt``.

    At width L > 1, einsum adds the terms over j in order from +0.0, as the
    reduction of the (k, n, n, L) product does, without building it. At
    width 1 j is the contiguous axis, which numpy sums pairwise, so the
    product is summed instead.
    """
    filt, x = as_tensor(filt), as_tensor(x)
    w = None if w is None else as_tensor(w)
    filter_shape = filt.shape if w is None else filt.shape[:1] + w.shape[1:]
    runs, atom_rows, pair_rows = _run_slices(tuple(sizes))
    if (filt.data.ndim != 2 or x.data.ndim != 2 or filter_shape[1:] != x.shape[1:]
            or (w is not None and (w.data.ndim != 2 or w.shape[0] != filt.shape[1]))
            or (filt.shape[0], x.shape[0]) != (pair_rows, atom_rows)):
        weight = "" if w is None else f" and w {w.shape}"
        raise ShapeError(f"ragged_message: filt {filt.shape}{weight} and x {x.shape} do not "
                         f"match molecules of {list(sizes)} atoms")
    feats, width = filt.shape[1], x.shape[1]

    def block(k, n, pairs):  # a run's (k, n, n, L) filter
        if w is None:
            return filt.data[pairs].reshape(k, n, n, width)
        return np.matmul(filt.data[pairs].reshape(k, n * n, feats), w.data).reshape(k, n, n, width)

    out = np.empty_like(x.data)
    for k, n, atoms, pairs in runs:
        rows, sums = x.data[atoms].reshape(k, n, width), out[atoms].reshape(k, n, width)
        if width > 1:
            np.einsum("kijl,kjl->kil", block(k, n, pairs), rows, out=sums)
        else:
            (block(k, n, pairs) * rows.reshape(k, 1, n, width)).sum(axis=2, out=sums)
    if not _needs_grad(filt, x, w):
        return Tensor(out, _op="ragged_message")

    def dfilt(g):  # dfilt_ij = g_i x_j
        grad = np.empty((filt.shape[0], width))
        for k, n, atoms, pairs in runs:
            np.multiply(g[atoms].reshape(k, n, 1, width), x.data[atoms].reshape(k, 1, n, width),
                        out=grad[pairs].reshape(k, n, n, width))
        return grad

    def dx(g):  # einsum sums over i in order from +0.0, as numpy's reduction does
        grad = np.empty_like(x.data)
        for k, n, atoms, pairs in runs:
            np.einsum("kijl,kil->kjl", block(k, n, pairs), g[atoms].reshape(k, n, width),
                      out=grad[atoms].reshape(k, n, width))
        return grad

    if w is None:
        return _make(out, ((filt, dfilt), (x, dx)), "ragged_message")
    return _make(out, ((filt, lambda g: dfilt(g) @ w.data.T), (x, dx),
                       (w, lambda g: filt.data.T @ dfilt(g))), "ragged_message")


# -- elementwise unary primitives ---------------------------------------

def _unary(a, op, fwd, dfn):
    a = as_tensor(a)
    out = fwd(a.data)
    if not a.requires_grad:
        return Tensor(out, _op=op)
    return _make(out, ((a, lambda g: dfn(g, a.data, out)),), op)


def log(a):
    return _unary(a, "log", np.log, lambda g, x, y: g / x)


def square(a):
    return _unary(a, "square", np.square, lambda g, x, y: 2.0 * g * x)


def sqrt(a):
    return _unary(a, "sqrt", np.sqrt, lambda g, x, y: 0.5 * g / y)


def abs_(a):
    return _unary(a, "abs", np.abs, lambda g, x, y: g * np.sign(x))


def silu(a):
    """x * sigmoid(x). The sigmoid is 0.5 (1 + tanh(x / 2)), which cannot
    overflow, and backward reuses it: d/dx = s + x s (1 - s)."""
    a = as_tensor(a)
    s = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    out = a.data * s
    if not a.requires_grad:
        return Tensor(out, _op="silu")
    return _make(out, ((a, lambda g: g * (s + out * (1.0 - s))),), "silu")


def _softmax(a, axis):
    shifted = a - a.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(g, out, axis):
    return out * (g - (g * out).sum(axis=axis, keepdims=True))


def softmax(a, axis=-1):
    """Numerically stable softmax along ``axis`` (row-wise for matrices)."""
    a = as_tensor(a)
    out = _softmax(a.data, axis)
    if not a.requires_grad:
        return Tensor(out, _op="softmax")
    return _make(out, ((a, lambda g: _softmax_grad(g, out, axis)),), "softmax")


def pair_softmax(a, sizes):
    """Softmax over j of each molecule's (n, n) block of pair values (P, 1)."""
    a = as_tensor(a)
    _check_pair_values(a, "pair_softmax")
    runs = _runs(sizes, sum(sizes), "pair_softmax", a.shape[0])
    out = np.concatenate([_softmax(a.data[pairs].reshape(k, n, n), -1).reshape(k * n * n, 1)
                          for k, n, _, pairs in runs])
    if not a.requires_grad:
        return Tensor(out, _op="pair_softmax")

    def grad(g):
        return np.concatenate([
            _softmax_grad(g[pairs].reshape(k, n, n), out[pairs].reshape(k, n, n), -1)
            .reshape(k * n * n, 1) for k, n, _, pairs in runs])

    return _make(out, ((a, grad),), "pair_softmax")


# -- reductions and shape primitives ------------------------------------

def _spread(g, shape, axis):
    """The gradient of a sum over ``axis`` of an array of ``shape``: ``g``
    repeated along the summed axes."""
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def sum_(a, axis=None):
    a = as_tensor(a)
    out = a.data.sum(axis=axis)
    if not a.requires_grad:
        return Tensor(out, _op="sum")
    return _make(out, ((a, lambda g: _spread(g, a.shape, axis)),), "sum")


def mean(a, axis=None):
    a = as_tensor(a)
    out = a.data.mean(axis=axis)
    if not a.requires_grad:
        return Tensor(out, _op="mean")
    n = a.data.size if axis is None else a.shape[axis]
    return _make(out, ((a, lambda g: _spread(g / n, a.shape, axis)),), "mean")


def block_mean(a, rows, axis=0):
    """Mean of each block of ``rows`` consecutive rows of ``a``, stacked: over
    the block's rows (``axis=0``), one row per block, or over all of its
    elements (``axis=None``), one value per block."""
    a = as_tensor(a)
    width = math.prod(a.shape[1:])  # elements per row
    runs = _runs(rows, a.shape[0], "block_mean")
    # a run's blocks as (k, n, width), or as (k, n * width) to average all elements
    out = np.concatenate([
        a.data[block].reshape((k, n, width) if axis == 0 else (k, n * width)).mean(axis=1)
        for k, n, block, _ in runs])
    if axis == 0:
        out = out.reshape((len(out),) + a.shape[1:])
    if not a.requires_grad:
        return Tensor(out, _op="block_mean")

    def grad(g):
        g, parts, mol = g.reshape(len(g), width if axis == 0 else 1), [], 0
        for k, n, _, _ in runs:
            share = g[mol:mol + k] / (n if axis == 0 else n * width)
            parts.append(np.broadcast_to(share[:, None], (k, n, width)).reshape(k * n, width))
            mol += k
        return np.concatenate(parts).reshape(a.shape)

    return _make(out, ((a, grad),), "block_mean")


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]}") from e
    if not _needs_grad(*tensors):
        return Tensor(out, _op="concat")
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def _grad_fn(i):
        def _grad(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            return g[tuple(sl)]
        return _grad

    parents = tuple((t, _grad_fn(i)) for i, t in enumerate(tensors))
    return _make(out, parents, "concat")


def _is_basic_index(idx):
    """True for an index of ints and slices, which selects each element at
    most once; numpy calls this basic indexing."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(i, (int, np.integer, slice)) for i in parts)


def slice_(a, idx):
    """``a[idx]``. Backward writes a basic (int and slice) index into a zero
    buffer by assignment; a fancy index, which may repeat elements, sums each
    element's contributions in index order with ``np.bincount`` over the flat
    positions it picks."""
    a = as_tensor(a)
    out = a.data[idx]
    if not a.requires_grad:
        return Tensor(out, _op="slice")
    basic = _is_basic_index(idx)

    def _grad(g):
        if not basic:
            pos = np.arange(a.data.size).reshape(a.shape)[idx]
            return np.bincount(pos.ravel(), weights=g.ravel(),
                               minlength=a.data.size).reshape(a.shape)
        full = np.zeros_like(a.data)
        full[idx] = g
        return full

    return _make(out, ((a, _grad),), "slice")


def reshape(a, shape):
    a = as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: {a.shape} -> {shape}") from e
    if not a.requires_grad:
        return Tensor(out, _op="reshape")
    return _make(out, ((a, lambda g: g.reshape(a.shape)),), "reshape")


def transpose(a):
    """Swap the last two axes."""
    a = as_tensor(a)
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: rank {a.data.ndim} < 2")
    out = a.data.swapaxes(-1, -2)
    if not a.requires_grad:
        return Tensor(out, _op="transpose")
    return _make(out, ((a, lambda g: g.swapaxes(-1, -2)),), "transpose")


# -- backward ------------------------------------------------------------

def _stacked_weight_grad(uses):
    """sum_i a_i.T @ g_i over the (a_i, g_i) pairs, as one GEMM on stacked rows."""
    a_rows, g_rows = zip(*uses)
    return np.concatenate(a_rows).T @ np.concatenate(g_rows)


def backward(loss):
    """Populate ``.grad`` on every reachable leaf, consuming the tape.

    ``loss`` must be scalar. The recorded graph is consumed; calling
    ``backward`` twice on the same loss raises ``TapeError``, also when the
    first call raised part-way.

    Nodes are popped in topological order and each is cut from its parents
    before their contributions are formed, so an interior array (a node's
    data and what its gradient functions hold) is freed once its last
    consumer's gradient is formed, not when the walk ends.

    A leaf that is the right operand of k > 1 matmuls (a weight shared by
    several rows, rounds or molecules) gets one ``concat(a).T @ concat(g)``
    when the k-th use's gradient arrives, instead of k products and k - 1
    additions; its rows are freed at once.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise TapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._consumed:
        raise TapeError("backward: tape already consumed")
    loss._consumed = True
    if not loss.requires_grad:
        return

    order = []
    visited = set()
    matmul_uses = {}  # id(leaf) -> matmuls taking it as right operand
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            for parent, grad_fn in node._parents:
                if (type(grad_fn) is _RightOperandGrad and parent.requires_grad
                        and not parent._parents):
                    matmul_uses[id(parent)] = matmul_uses.get(id(parent), 0) + 1
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    grads = {id(loss): np.ones_like(loss.data)}
    rows = {}  # id(leaf) -> [(a, g)] of its matmul uses seen so far
    while order:
        node = order.pop()
        parents, node._parents = node._parents, ()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if not parents:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, grad_fn in parents:
            if not parent.requires_grad:
                continue
            key = id(parent)
            if type(grad_fn) is _RightOperandGrad and matmul_uses.get(key, 0) > 1:
                rows.setdefault(key, []).append((grad_fn.a, g))
                if len(rows[key]) < matmul_uses[key]:
                    continue
                contrib = _stacked_weight_grad(rows.pop(key))
            else:
                contrib = grad_fn(g)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib
