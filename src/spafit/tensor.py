"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation returns a new ``Tensor`` that remembers its operands and a
closure computing the local vector-Jacobian product. ``backward`` walks the
resulting DAG once in reverse topological order and accumulates gradients
additively into every node that requires them, so fan-out is handled by
plain addition.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import GraphError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
LAYER_NORM_EPS = 1e-12


class Tensor:
    """A float64 array plus an optional gradient slot.

    ``requires_grad`` marks leaves that should collect gradients; interior
    nodes inherit it from their parents. ``grad`` stays ``None`` until a
    backward pass deposits something, and accumulates across passes until
    cleared.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- gradient plumbing -------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # A C-ordered copy: ``g`` may alias another node's gradient or be
            # a transposed view, and the optimizer runs faster on C order.
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def backward(self) -> None:
        backward(self)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """A graph node, or a bare constant when no parent needs a gradient, so
    frozen subgraphs keep neither their operands nor their closures alive."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn)
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


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _result(data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _result(data, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    def backward_fn(g):
        a._accumulate(g * c)

    return _result(a.data * c, (a,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy-style batch broadcasting over leading dims."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs 2-D+ operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _result(data, (a, b), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor, down: Tensor | None = None,
           up: Tensor | None = None, scaling: float = 1.0) -> Tensor:
    """Dense layer ``x @ w.T + b`` over the last axis of ``x``, plus
    ``scaling * (x @ down.T) @ up.T`` when a low-rank pair is given.

    Both passes run on ``x`` flattened to 2-D ``[N, in]``: the weight
    gradient ``g2.T @ x2`` comes out in ``w``'s own ``[out, in]`` layout, and
    the low-rank path stays inside its rank-r bottleneck ``h = x2 @ down.T``.
    """
    n_out, n_in = w.data.shape
    if x.data.shape[-1] != n_in or b.data.shape != (n_out,):
        raise ShapeError(f"linear shapes disagree: x {x.data.shape}, w {w.data.shape}, "
                         f"b {b.data.shape}")
    x2 = x.data.reshape(-1, n_in)
    y2 = x2 @ w.data.T
    y2 += b.data
    parents = (x, w, b)
    if down is not None:
        h = x2 @ down.data.T
        y2 += (h @ up.data.T) * scaling
        parents += (down, up)

    def backward_fn(g):
        g2 = g.reshape(-1, n_out)
        if down is not None:
            gh = (g2 @ up.data) * scaling
        if x.requires_grad:
            gx = g2 @ w.data
            if down is not None:
                gx += gh @ down.data
            x._accumulate(gx.reshape(x.data.shape))
        if w.requires_grad:
            w._accumulate(g2.T @ x2)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=0))
        if down is not None and down.requires_grad:
            down._accumulate(gh.T @ x2)
        if down is not None and up.requires_grad:
            up._accumulate((g2.T @ h) * scaling)

    return _result(y2.reshape(x.data.shape[:-1] + (n_out,)), parents, backward_fn)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes; with no argument, swap the last two."""
    if axes is None:
        axes = list(range(a.data.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward_fn(g):
        a._accumulate(np.transpose(g, inverse))

    return _result(np.transpose(a.data, axes), (a,), backward_fn)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.data.shape

    def backward_fn(g):
        a._accumulate(g.reshape(old))

    return _result(a.data.reshape(shape), (a,), backward_fn)


def tensor_sum(a: Tensor) -> Tensor:
    def backward_fn(g):
        a._accumulate(np.full_like(a.data, float(g)))

    return _result(np.asarray(a.data.sum()), (a,), backward_fn)


# -- neural-net operations ---------------------------------------------------


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, computed with max-subtraction."""
    if x.data.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty last axis, got {x.data.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        x._accumulate(s * (g - inner))

    return _result(s, (x,), backward_fn)


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
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mu) * inv_std
    data = gamma.data * xhat + beta.data

    def backward_fn(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv_std * term)

    return _result(data, (x, gamma, beta), backward_fn)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF (erf form)."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))

    def backward_fn(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        x._accumulate(g * (cdf + x.data * pdf))

    return _result(x.data * cdf, (x,), backward_fn)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def backward_fn(g):
        x._accumulate(g * (1.0 - t * t))

    return _result(t, (x,), backward_fn)


def dropout(x: Tensor, p: float, mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale survivors by 1/(1-p).

    Eval mode (and p == 0) is the identity. The mask comes from ``rng`` so a
    fixed seed reproduces it bit-exactly.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must satisfy 0 <= p < 1, got {p}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout requires a seeded generator")
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def backward_fn(g):
        x._accumulate(g * mask)

    return _result(x.data * mask, (x,), backward_fn)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` by integer id; grads scatter-add back."""
    ids = np.asarray(ids)
    data = table.data[ids]

    def backward_fn(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        table._accumulate(acc)

    return _result(data, (table,), backward_fn)


def first_token(x: Tensor) -> Tensor:
    """Select position 0 of a [batch, seq, features] tensor."""
    if x.data.ndim != 3:
        raise ShapeError(f"first_token expects a 3-D tensor, got {x.data.shape}")

    def backward_fn(g):
        acc = np.zeros_like(x.data)
        acc[:, 0, :] = g
        x._accumulate(acc)

    return _result(x.data[:, 0, :], (x,), backward_fn)


# -- losses ------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of [batch, classes] logits vs int labels."""
    labels = np.asarray(labels)
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    lse = np.log(exps.sum(axis=1))
    picked = shifted[np.arange(n), labels]
    data = np.asarray((lse - picked).mean())
    probs = exps / exps.sum(axis=1, keepdims=True)

    def backward_fn(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        logits._accumulate(float(g) * d / n)

    return _result(data, (logits,), backward_fn)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.data.shape:
        raise ShapeError(f"target shape {target.shape} does not match "
                         f"prediction {pred.data.shape}")
    diff = pred.data - target
    n = diff.size

    def backward_fn(g):
        pred._accumulate(float(g) * 2.0 * diff / n)

    return _result(np.asarray((diff * diff).mean()), (pred,), backward_fn)


# -- backward pass -----------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over the subgraph that requires gradients."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate gradients of every grad-requiring leaf reachable from ``loss``.

    ``loss`` must be a scalar. Interior gradients are discarded after use;
    leaf gradients accumulate until explicitly cleared.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
        if node._parents:
            node.grad = None  # free interior grads; leaves keep theirs
