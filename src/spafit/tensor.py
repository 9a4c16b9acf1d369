"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` is a value (``data``) and a graph node. Every operation returns
a new ``Tensor`` whose node keeps its operands' nodes and a closure computing
the local vector-Jacobian product; a node never holds a value. Each closure
captures only the arrays that a gradient of a grad-requiring operand reads
(linear's input view for a trained weight or LoRA ``down``, attention's
scores and the q/k/v heads the trained operands' gradients read, layer
norm's ``xhat``, gelu's derivative, dropout's bool keep-mask, and so on), so
an output that its consumers only route a gradient through (a residual add,
a layer norm's or dropout's input, an attention output, an embedding gather,
a frozen layer's input) is freed once the caller drops its ``Tensor``, while
the graph lives on.

``backward`` walks the DAG once in reverse topological order and
accumulates gradients additively into every node that requires them, so
fan-out is handled by plain addition. It consumes the graph as it goes:
each interior node lets go of its operands and its closure (and with them
the arrays the closure saved) as soon as its own closure has run, so a
second backward through the graph, or through a new op over one of its
nodes, raises ``GraphError``. Leaves keep their gradients; a leaf whose
``_on_grad`` slot holds a callable has it called when the pass finds the
leaf and again once the pass has completed the leaf's gradient
(``spafit.optim`` updates parameters there).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, GraphError, InputError, ShapeError, _check_int

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
LAYER_NORM_EPS = 1e-12
_grad_enabled = True


class _Node:
    """What a backward pass reads of a tensor: its gradient slot, whether it
    requires one, its operands' nodes and its closure; never its value.
    ``_on_grad``, on a leaf, is called by a backward pass that reaches the
    leaf: with False before any closure runs, and with True once the pass
    has completed the leaf's gradient."""

    __slots__ = ("grad", "requires_grad", "_parents", "_backward_fn", "_on_grad")

    def __init__(self, requires_grad: bool, parents: tuple["_Node", ...],
                 backward_fn: Callable[[np.ndarray], None] | None):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn
        self._on_grad: Callable[[bool], None] | None = None

    def _accumulate(self, g: np.ndarray) -> None:
        # Kept without a copy: ``g`` may also be another node's gradient, so
        # no gradient array is ever written in place; a later contribution
        # makes a new sum.
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad = self.grad + g


def _node_attribute(name: str, doc: str) -> property:
    """A ``Tensor`` property that reads and writes its node's ``name``."""
    return property(lambda t: getattr(t._node, name),
                    lambda t, value: setattr(t._node, name, value), doc=doc)


class Tensor:
    """A float64 array and its graph node.

    ``requires_grad`` marks leaves that should collect gradients; interior
    nodes inherit it from their parents. ``grad`` stays ``None`` until a
    backward pass deposits something, and accumulates across passes until
    cleared. Treat a ``grad`` array as read-only: it may be shared with
    another tensor. ``grad``, ``requires_grad`` and ``_backward_fn`` are the
    node's; ``parents`` are the operands' nodes.
    """

    __slots__ = ("data", "_node")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple[_Node, ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node(requires_grad, parents, backward_fn)

    grad = _node_attribute("grad", "The accumulated gradient, or None.")
    requires_grad = _node_attribute("requires_grad", "Whether backward fills ``grad``.")
    _backward_fn = _node_attribute("_backward_fn", "The node's closure.")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- gradient plumbing -------------------------------------------------

    def backward(self) -> None:
        backward(self)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)


@contextmanager
def no_grad():
    """Build no graph inside the block: every op returns a bare constant. The
    previous state comes back on exit, so blocks nest and survive errors."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


def _builds_node(*parents: Tensor) -> bool:
    """Whether an op over ``parents`` builds a graph node: grad is enabled
    and some parent needs a gradient. ``_result`` decides by it, and so does
    every op that prepares state only its backward reads."""
    return _grad_enabled and any([p._node.requires_grad for p in parents])


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """A tensor over a new graph node that keeps the parents' nodes and
    ``backward_fn``, or a bare constant when ``_builds_node`` says no, so
    such subgraphs keep neither their operands nor their closures alive."""
    if _builds_node(*parents):
        return Tensor(data, requires_grad=True, parents=tuple([p._node for p in parents]),
                      backward_fn=backward_fn)
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``, inverting numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- arithmetic -------------------------------------------------------------
#
# Each backward closure binds what it reads as default arguments: its
# operands' nodes (``an`` for ``a``'s), never an operand ``Tensor``, and
# only the arrays and sizes it uses. Its signature is then the record of
# what the node keeps, and the binding costs one tuple where free variables
# would cost a cell object each; every object a graph keeps adds to the
# garbage collector's work in a training step. An array that only a frozen
# operand's gradient would read is bound as None: which operands need a
# gradient is settled when the op runs, so memory follows the plan.


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward_fn(g, an=a._node, bn=b._node, a_shape=a.data.shape, b_shape=b.data.shape):
        if an.requires_grad:
            an._accumulate(_unbroadcast(g, a_shape))
        if bn.requires_grad:
            bn._accumulate(_unbroadcast(g, b_shape))

    return _result(a.data + b.data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    # Each operand's gradient reads the other's value.
    def backward_fn(g, an=a._node, bn=b._node, a_shape=a.data.shape, b_shape=b.data.shape,
                    ad=a.data if b.requires_grad else None,
                    bd=b.data if a.requires_grad else None):
        if an.requires_grad:
            an._accumulate(_unbroadcast(g * bd, a_shape))
        if bn.requires_grad:
            bn._accumulate(_unbroadcast(g * ad, b_shape))

    return _result(a.data * b.data, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    def backward_fn(g, an=a._node, c=c):
        an._accumulate(g * c)

    return _result(a.data * c, (a,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy-style batch broadcasting over leading dims."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs 2-D+ operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")

    # Each operand's gradient reads the other's value.
    def backward_fn(g, an=a._node, bn=b._node, a_shape=a.data.shape, b_shape=b.data.shape,
                    ad=a.data if b.requires_grad else None,
                    bd=b.data if a.requires_grad else None):
        if an.requires_grad:
            an._accumulate(_unbroadcast(g @ np.swapaxes(bd, -1, -2), a_shape))
        if bn.requires_grad:
            bn._accumulate(_unbroadcast(np.swapaxes(ad, -1, -2) @ g, b_shape))

    return _result(a.data @ b.data, (a, b), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor, down: Tensor | None = None,
           up: Tensor | None = None, scaling: float = 1.0) -> Tensor:
    """Dense layer ``x @ w.T + b`` over the last axis of ``x``, plus
    ``scaling * (x @ down.T) @ up.T`` when a low-rank pair is given.

    Both passes run on ``x`` flattened to 2-D ``[N, in]``: the weight
    gradient ``g2.T @ x2`` comes out in ``w``'s own ``[out, in]`` layout, and
    the low-rank path stays inside its rank-r bottleneck ``h = x2 @ down.T``.

    The node holds the input view ``x2`` only when ``w`` or ``down`` needs a
    gradient, since only their gradients read it; ``h`` only when ``up``
    does; ``w`` and ``down`` only for ``x``'s gradient; and ``up`` only for
    ``x``'s or ``down``'s. So a layer whose weight and ``down`` are frozen
    (a bias-only layer, or a frozen layer under a trained one) lets its
    input go as soon as nothing else reads it.
    """
    n_out, n_in = w.data.shape
    x_shape = x.data.shape
    if x_shape[-1] != n_in or b.data.shape != (n_out,):
        raise ShapeError(f"linear shapes disagree: x {x_shape}, w {w.data.shape}, "
                         f"b {b.data.shape}")
    if down is not None or up is not None:
        d_shape = None if down is None else down.data.shape
        u_shape = None if up is None else up.data.shape
        if (d_shape is None or u_shape is None or len(d_shape) != 2 or d_shape[1] != n_in
                or u_shape != (n_out, d_shape[0])):
            raise ShapeError(f"linear low-rank pair must be down [r, {n_in}] and up "
                             f"[{n_out}, r], got down {d_shape}, up {u_shape}")
    x2 = x.data.reshape(-1, n_in)
    y2 = x2 @ w.data.T
    y2 += b.data
    parents = (x, w, b)
    x_grad = x.requires_grad
    reads_input = w.requires_grad
    lora = None  # the pair's nodes, the arrays its gradients read, and the scaling
    if down is not None:
        h = x2 @ down.data.T
        y2 += (h @ up.data.T) * scaling
        parents += (down, up)
        reads_input = reads_input or down.requires_grad
        lora = (down._node, up._node, down.data if x_grad else None,
                up.data if x_grad or down.requires_grad else None,
                h if up.requires_grad else None, scaling)

    def backward_fn(g, xn=x._node, wn=w._node, bn=b._node, n_out=n_out,
                    wd=w.data if x_grad else None, x2=x2 if reads_input else None,
                    x_shape=x_shape, lora=lora):
        g2 = g.reshape(-1, n_out)
        if lora is not None:
            dn, un, dd, ud, h, scaling = lora
            if xn.requires_grad or dn.requires_grad:
                gh = (g2 @ ud) * scaling
        if xn.requires_grad:
            gx = g2 @ wd
            if lora is not None:
                gx += gh @ dd
            xn._accumulate(gx.reshape(x_shape))
        if wn.requires_grad:
            wn._accumulate(g2.T @ x2)
        if bn.requires_grad:
            bn._accumulate(g2.sum(axis=0))
        if lora is not None and dn.requires_grad:
            dn._accumulate(gh.T @ x2)
        if lora is not None and un.requires_grad:
            un._accumulate((g2.T @ h) * scaling)

    return _result(y2.reshape(x_shape[:-1] + (n_out,)), parents, backward_fn)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes; with no argument, swap the last two."""
    if axes is None:
        axes = list(range(a.data.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
    axes = tuple(axes)

    def backward_fn(g, an=a._node, inverse=tuple(np.argsort(axes))):
        an._accumulate(np.transpose(g, inverse))

    return _result(np.transpose(a.data, axes), (a,), backward_fn)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    def backward_fn(g, an=a._node, old=a.data.shape):
        an._accumulate(g.reshape(old))

    return _result(a.data.reshape(tuple(shape)), (a,), backward_fn)


def tensor_sum(a: Tensor) -> Tensor:
    def backward_fn(g, an=a._node, shape=a.data.shape):
        an._accumulate(np.full(shape, float(g)))

    return _result(np.asarray(a.data.sum()), (a,), backward_fn)


# -- neural-net operations ---------------------------------------------------


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, computed with max-subtraction."""
    if x.data.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty last axis, got {x.data.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g, xn=x._node, s=s):  # its output: the gradient reads it
        inner = (g * s).sum(axis=-1, keepdims=True)
        xn._accumulate(s * (g - inner))

    return _result(s, (x,), backward_fn)


# ``_max_by_columns`` picks the loop when each key column spans at least
# this many rows per key and the scores hold at most this many values, so no
# axis of more than 45 keys loops. Measured on one core (Xeon, 2 MiB L2,
# numpy 2.4.6), the loop is ahead everywhere in that window (1.03x at 45 keys
# on 1,440 rows, 4.3x on attention's [64, 4, 11, 11] scores) and behind
# outside it (0.35x at 11 keys on 64 rows, 0.44x at 32 keys on 16,384 rows,
# 0.25x at 128 keys on 2,048 rows).
_LOOP_ROWS_PER_KEY = 32
_LOOP_MAX_SCORES = 2 ** 16


def _max_by_columns(rows: int, keys: int) -> bool:
    """Whether ``_row_max`` loops over the key columns of ``rows`` rows of
    ``keys`` keys rather than calling numpy's reduce."""
    return _LOOP_ROWS_PER_KEY * keys <= rows <= _LOOP_MAX_SCORES // keys


def _row_max(s: np.ndarray) -> np.ndarray:
    """The maximum of each row of ``s`` over its non-empty last axis,
    keeping that axis. numpy's reduce pays about 50 ns of set-up per row; the
    loop pays about 1 us per key, each call spanning every row, but its
    strided passes re-read each cache line once per key. A max is exact in
    any order, so the two routes differ only in the sign of a zero maximum,
    which ``exp(s - max)`` erases, and of a NaN: numpy's reduce may return a
    row's NaN with the other sign bit, so such a row is NaN on both routes,
    not always with the same sign."""
    keys = s.shape[-1]
    if not _max_by_columns(s.size // keys, keys):
        return s.max(axis=-1, keepdims=True)
    m = s[..., :1].copy()
    for j in range(1, keys):
        np.maximum(m, s[..., j:j + 1], out=m)
    return m


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of ``[batch, q_len, hidden]``
    query projections over ``[batch, seq, hidden]`` key and value
    projections: split the heads, ``softmax((q_h @ k_h.T) / sqrt(hd)) @ v_h``
    per head, merge the heads. ``q_len`` may differ from ``seq``.

    One node in place of the reshape/transpose/matmul/scale/softmax chain,
    with the same numpy operations on the same operand layouts but the row
    max (below), whose value is the same, so value and gradients are
    bit-identical to that chain at every head size (NaN signs aside, see
    ``_row_max``). The forward works in place in its scores buffer and
    writes the head merge straight into its output. The softmax's row max
    is a loop of ``np.maximum`` over the key columns, one call per key
    across every batch, head and query row, where there are at least 32
    rows per key and at most 2^16 scores (so never past 45 keys), because
    numpy's reduce pays more set-up per short row than its comparisons
    cost: 138 us against the loop's 32 us on ``[64, 4, 11, 11]`` scores.
    Elsewhere it is numpy's reduce.
    """
    q_shape, kv_shape = q.data.shape, k.data.shape
    if (len(q_shape) != 3 or len(kv_shape) != 3 or v.data.shape != kv_shape
            or q_shape[0] != kv_shape[0] or q_shape[2] != kv_shape[2]):
        raise ShapeError(f"attention needs 3-D q, k, v with equal batch and hidden sizes "
                         f"and equal k, v, got {q_shape}, {kv_shape}, {v.data.shape}")
    batch, q_len, hidden = q_shape
    if kv_shape[1] < 1:
        raise ShapeError(f"attention needs at least one key position, got k {kv_shape}")
    num_heads = _check_int(num_heads, "attention num_heads", ShapeError)
    if num_heads < 1 or hidden % num_heads != 0:
        raise ShapeError(f"attention hidden size {hidden} not divisible by "
                         f"num_heads {num_heads}")
    hd = hidden // num_heads
    c = 1.0 / math.sqrt(hd)

    def split_heads(t: np.ndarray) -> np.ndarray:
        return np.transpose(t.reshape(t.shape[:2] + (num_heads, hd)), (0, 2, 1, 3))

    qh, kh, vh = split_heads(q.data), split_heads(k.data), split_heads(v.data)
    kt = np.transpose(kh, (0, 1, 3, 2))
    s = qh @ kt
    s *= c
    s -= _row_max(s)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    merged = np.empty((batch, q_len, num_heads, hd))
    np.matmul(s, vh, out=np.transpose(merged, (0, 2, 1, 3)))

    # The probabilities ``s`` serve every gradient; ``vh`` serves q's and k's
    # (through the scores' gradient), ``kt`` q's and ``qh`` k's.
    q_grad, k_grad = q.requires_grad, k.requires_grad

    def backward_fn(g, qn=q._node, kn=k._node, vn=v._node, s=s, c=c,
                    qh=qh if k_grad else None, kt=kt if q_grad else None,
                    vh=vh if q_grad or k_grad else None,
                    split=(batch, q_len, num_heads, hd), q_shape=q_shape, kv_shape=kv_shape):
        gh = np.transpose(g.reshape(split), (0, 2, 1, 3))
        if qn.requires_grad or kn.requires_grad:
            gs = gh @ np.swapaxes(vh, -1, -2)
            gs = (s * (gs - (gs * s).sum(axis=-1, keepdims=True))) * c
            if qn.requires_grad:
                gq = gs @ np.swapaxes(kt, -1, -2)
                qn._accumulate(np.transpose(gq, (0, 2, 1, 3)).reshape(q_shape))
            if kn.requires_grad:
                gkt = np.swapaxes(qh, -1, -2) @ gs
                kn._accumulate(np.transpose(gkt, (0, 3, 1, 2)).reshape(kv_shape))
        if vn.requires_grad:
            gv = np.swapaxes(s, -1, -2) @ gh
            vn._accumulate(np.transpose(gv, (0, 2, 1, 3)).reshape(kv_shape))

    return _result(merged.reshape(q_shape), (q, k, v), backward_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Variance is the biased (population) estimate over the last axis, and
    ``LAYER_NORM_EPS`` is added to it before the square root.
    """
    d = x.data.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm over an empty last axis")
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} do not match feature dim {d}")
    # ``np.var``'s own steps (row sum / d, centre, square, row sum / d), with
    # the centred rows kept for ``xhat`` and the squares' buffer reused for
    # the output, so each row's mean is reduced once.
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
    data = np.square(xhat)
    inv_std = data.sum(axis=-1, keepdims=True) / d
    inv_std += LAYER_NORM_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    np.multiply(xhat, gamma.data, out=data)
    data += beta.data

    # ``xhat`` serves gamma's gradient and x's; ``gamma`` and ``inv_std``
    # serve x's alone. beta's reads only ``g``.
    x_grad = x.requires_grad

    def backward_fn(g, xn=x._node, gn=gamma._node, bn=beta._node, d=d,
                    gd=gamma.data if x_grad else None,
                    xhat=xhat if x_grad or gamma.requires_grad else None,
                    inv_std=inv_std if x_grad else None):
        if gn.requires_grad:
            gn._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bn.requires_grad:
            bn._accumulate(g.reshape(-1, d).sum(axis=0))
        if xn.requires_grad:
            # dxhat - mean(dxhat) - xhat * mean(dxhat * xhat), scaled by inv_std
            dxhat = g * gd
            proj = dxhat * xhat
            proj_mean = proj.sum(axis=-1, keepdims=True) / d
            np.multiply(xhat, proj_mean, out=proj)
            dxhat -= dxhat.sum(axis=-1, keepdims=True) / d
            dxhat -= proj
            dxhat *= inv_std
            xn._accumulate(dxhat)

    return _result(data, (x, gamma, beta), backward_fn)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF (erf form).

    erf is taken of |x| / sqrt(2) and the sign of ``x`` is copied back onto
    it. SciPy's (Cephes) erf computes a negative argument as ``-erf(-x)``, so
    erf is odd bit for bit, and ``|x| * _INV_SQRT2 == |x * _INV_SQRT2|``
    exactly: the cdf has the same bits as ``erf(x * _INV_SQRT2)`` would give
    for every non-NaN input, signed zeros, subnormals and infinities included
    (at a NaN only the cdf's sign can differ, and both outputs carry x's NaN).
    It is faster because that sign test is a branch in SciPy's per-element
    loop which zero-mean pre-activations take each way about half the time;
    on |x| it always goes the same way.

    When the call builds a node, the forward also computes the derivative
    ``cdf + x * exp(-x^2 / 2) / sqrt(2 pi)`` and the node holds that one
    array, neither ``x`` nor the cdf; backward multiplies it by ``g``. A
    call that builds no node (under ``no_grad``, or on a frozen input) does
    no extra work.
    """
    xd = x.data
    cdf = np.abs(xd)
    cdf *= _INV_SQRT2
    erf(cdf, out=cdf)
    np.copysign(cdf, xd, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if not _builds_node(x):
        return Tensor(np.multiply(cdf, xd, out=cdf))
    d = xd * -0.5
    d *= xd
    np.exp(d, out=d)
    d *= _INV_SQRT_2PI
    d *= xd
    d += cdf

    def backward_fn(g, xn=x._node, d=d):  # a new array: ``d`` is never written
        xn._accumulate(d * g)

    # the output takes the cdf's buffer once the derivative has read it
    return _result(np.multiply(cdf, xd, out=cdf), (x,), backward_fn)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def backward_fn(g, xn=x._node, t=t):  # its output: the gradient reads it
        xn._accumulate(g * (1.0 - t * t))

    return _result(t, (x,), backward_fn)


def dropout(x: Tensor, p: float, mode: str, rng: np.random.Generator | None = None,
            draw_shape: tuple[int, ...] | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale survivors by 1/(1-p).

    Eval mode (and p == 0) is the identity. The mask comes from ``rng`` so a
    fixed seed reproduces it bit-exactly. With ``draw_shape`` the uniforms
    are drawn at that larger shape and the mask keeps its leading corner of
    ``x``'s shape, so a tensor cut from a wider one gets the mask values, and
    leaves the generator in the state, that the wider one would. The node
    saves the bool keep-mask; backward rebuilds the scaled mask from it.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must satisfy 0 <= p < 1, got {p}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise InputError("train-mode dropout requires a seeded generator")
    shape = x.data.shape
    if draw_shape is not None and (len(draw_shape) != len(shape)
                                   or any(d < n for d, n in zip(draw_shape, shape))):
        raise ShapeError(f"dropout draw shape {draw_shape} does not cover {shape}")
    draws = rng.random(shape if draw_shape is None else draw_shape)
    if draws.shape != shape:
        draws = draws[tuple(slice(n) for n in shape)]
    keep = draws >= p
    gain = 1.0 / (1.0 - p)  # keep * gain has the bits of keep / (1 - p)

    def backward_fn(g, xn=x._node, keep=keep, gain=gain):  # the gradient reads the mask
        dx = keep * gain
        dx *= g
        xn._accumulate(dx)

    data = keep * gain
    data *= x.data
    return _result(data, (x,), backward_fn)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` by integer id; grads scatter-add back. An id
    outside ``[0, rows)``, or ids that are not integers, raise
    ``InputError``: numpy would read a negative id from the end."""
    ids = np.asarray(ids)
    rows = table.data.shape[0]
    if ids.dtype.kind not in "iu":
        raise InputError(f"embedding ids must be an integer array, got {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise InputError(f"embedding ids must lie in [0, {rows}), got range "
                         f"[{ids.min()}, {ids.max()}]")

    # The ids: the scatter-add reads them.
    def backward_fn(g, tn=table._node, ids=ids, shape=table.data.shape):
        # one flat bin per table entry; bincount adds each bin's weights in
        # row order from 0.0, as ``np.add.at`` would, and is faster
        rows, d = shape
        bins = (ids.astype(np.intp).reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        tn._accumulate(np.bincount(bins, weights=g.reshape(-1),
                                   minlength=rows * d).reshape(shape))

    return _result(table.data[ids], (table,), backward_fn)


def _select_position(x: Tensor, index) -> Tensor:
    if x.data.ndim != 3:
        raise ShapeError(f"position selection expects a 3-D tensor, got {x.data.shape}")

    def backward_fn(g, xn=x._node, index=index, shape=x.data.shape):  # sizes only
        acc = np.zeros(shape)
        acc[:, index] = g
        xn._accumulate(acc)

    return _result(x.data[:, index], (x,), backward_fn)


def first_token(x: Tensor) -> Tensor:
    """Select position 0 of a [batch, seq, features] tensor: [batch, features]."""
    return _select_position(x, 0)


def first_position(x: Tensor) -> Tensor:
    """Position 0 of a [batch, seq, features] tensor, kept as [batch, 1, features]."""
    return _select_position(x, slice(0, 1))


# -- losses ------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of [batch, classes] logits vs int labels."""
    labels = np.asarray(labels)
    n, c = logits.data.shape
    if n == 0:
        raise InputError("cross_entropy needs at least one example, got an empty batch")
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.dtype.kind not in "iu":
        raise InputError(f"labels must be an integer array, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= c:
        raise InputError(f"labels must lie in [0, {c}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    picked = shifted[np.arange(n), labels]
    probs = np.exp(shifted, out=shifted)
    sums = probs.sum(axis=1, keepdims=True)
    data = np.asarray((np.log(sums[:, 0]) - picked).mean())
    probs /= sums

    # The probabilities and labels: the gradient is probs minus one-hot.
    def backward_fn(g, ln=logits._node, probs=probs, labels=labels):
        n = len(labels)
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        d *= float(g)
        d /= n
        ln._accumulate(d)

    return _result(data, (logits,), backward_fn)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.data.shape:
        raise ShapeError(f"target shape {target.shape} does not match "
                         f"prediction {pred.data.shape}")
    diff = pred.data - target

    def backward_fn(g, pn=pred._node, diff=diff):  # the residual: the gradient reads it
        pn._accumulate(float(g) * 2.0 * diff / diff.size)

    return _result(np.asarray((diff * diff).mean()), (pred,), backward_fn)


# -- backward pass -----------------------------------------------------------


_CONSUMED = ("backward already ran through this graph and freed it; "
             "build the graph again with a new forward")


def _consumed(g: np.ndarray) -> None:
    """The closure of every interior node that a backward pass has run through."""
    raise GraphError(_CONSUMED)


def _topo_order(root: _Node) -> list[_Node]:
    """Iterative post-order over the subgraph that requires gradients; raises
    ``GraphError`` on a node an earlier backward consumed. A node's leaf
    operands are visited after its interior ones, so each leaf lands just
    before the first node that reaches it: in reverse, right after the last
    closure that adds to its gradient."""
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward_fn is _consumed:
            raise GraphError(_CONSUMED)
        seen.add(id(node))
        stack.append((node, True))
        interior = []
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                if p._parents:
                    interior.append((p, False))
                else:
                    stack.append((p, False))
        stack += interior
    return order


def backward(loss: Tensor) -> None:
    """Populate gradients of every grad-requiring leaf reachable from ``loss``.

    ``loss`` must be a scalar. The graph is consumed: nodes are taken in
    reverse topological order, and once a node's closure has run the node
    drops its parents, its gradient and its closure, which a stub raising
    ``GraphError`` replaces; so the arrays the closure saved are freed
    before the pass reaches the node's operands. A second backward through
    any consumed node raises ``GraphError`` before a closure runs. Leaves
    are left as they are, and their gradients accumulate until explicitly
    cleared; a leaf passed as ``loss`` gains ones like any other route. A
    leaf's ``_on_grad`` hook is called with False once the pass has found
    the leaf, before any closure runs, and with True right after the last
    closure that adds to its gradient.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    root = loss._node
    if not root.requires_grad:
        return
    order = _topo_order(root)
    for node in order:
        if node._on_grad is not None:
            node._on_grad(False)
    root._accumulate(np.ones_like(loss.data))
    while order:
        node = order.pop()
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
        if node._parents:  # interior: free it; leaves keep their grads
            node.grad = None
            node._parents = ()
            node._backward_fn = _consumed
        elif node._on_grad is not None:
            node._on_grad(True)
