"""AdamW with decoupled weight decay over an explicit trainable-parameter map.

Only the tensors handed to the optimizer ever move, so freeze masks are
enforced by construction: frozen parameters are simply never registered.
Weight decay applies uniformly to every registered parameter, biases
included, and the learning rate is constant (no warmup or schedule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .errors import ConfigError, OptimizerError, _check_int
from .tensor import Tensor

# Best-performing learning rates: PEFT plans prefer the larger one, full
# fine-tuning the smaller.
DEFAULT_LR_PEFT = 6e-5
DEFAULT_LR_FULL_FT = 2e-5

# Scalars per update block, and the most a bucket of several tensors holds: a
# step runs the whole update on one block before the next. Small enough that
# a block and the step's scratch stay below glibc's mmap threshold (see
# ``spafit.heap``) and in cache; large enough that a desk-size model's
# trainables take a few buckets.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class TrainConfig:
    # None: each trained plan's default rate (see ``harness.default_learning_rate``).
    learning_rate: float | None = None
    batch_size: int = 16
    epochs: int = 10
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate is not None and not (
                math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")
        if not (0 <= self.betas[0] < 1 and 0 <= self.betas[1] < 1):
            raise ConfigError(f"betas must lie in [0, 1), got {self.betas}")
        for name in ("batch_size", "epochs", "seed"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, ConfigError))
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"train seed must be >= 0, got {self.seed}")


class AdamW:
    """Bias-corrected AdamW restricted to the given named tensors.

    The constructor packs the tensors, in ``params`` order, into buckets: runs
    of consecutive tensors of at most ``_BLOCK`` scalars in all, each held in
    one contiguous array (a larger tensor forms a bucket alone and keeps its
    own array). Every parameter's ``.data`` becomes a view into its bucket,
    and the moments are one array per bucket. An update runs on each bucket
    in place, in blocks of at most ``_BLOCK`` scalars, with two block-sized
    scratch arrays. Write into a registered ``.data`` in place; rebinding it
    detaches the parameter, and a step rejects that.

    ``backward_step(loss)`` runs the backward of ``loss`` and updates each
    bucket as soon as the pass has completed that bucket's gradients, then
    drops them, so a training step never holds a full set of gradients.
    ``step()`` updates from gradients set any other way: by
    ``loss.backward()`` or by hand.
    """

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        if cfg.learning_rate is None:
            raise ConfigError("AdamW needs a learning rate; train_run resolves "
                              "the plan's default")
        owner: dict[int, str] = {}
        for name, t in params.items():
            if id(t) in owner:
                raise OptimizerError(f"trainable parameters {owner[id(t)]!r} and "
                                     f"{name!r} are the same tensor")
            owner[id(t)] = name
        self.params = dict(params)
        self.cfg = cfg
        self.step_count = 0
        # Per-parameter views of the moments, by name.
        self.first: dict[str, np.ndarray] = {}
        self.second: dict[str, np.ndarray] = {}
        # Per bucket: its (name, tensor, view) members, then the parameter,
        # first-moment and second-moment arrays, flat.
        self._buckets: list[tuple[list[tuple[str, Tensor, np.ndarray]],
                                  np.ndarray, np.ndarray, np.ndarray]] = []
        run: list[tuple[str, Tensor]] = []
        size = 0
        for name, t in self.params.items():
            if run and size + t.data.size > _BLOCK:
                self._pack(run)
                run, size = [], 0
            run.append((name, t))
            size += t.data.size
        if run:
            self._pack(run)
        block = min(max((p.size for _, p, _, _ in self._buckets), default=0), _BLOCK)
        self._scratch = (np.empty(block), np.empty(block))
        # While a step is open: per bucket, how many members still lack
        # their final gradient (0 once the bucket is updated).
        self._left: list[int] | None = None
        # During backward_step's pass, until its first complete gradient:
        # the parameters the pass has found.
        self._found: set[str] | None = None

    def _pack(self, run: list[tuple[str, Tensor]]) -> None:
        """Make ``run`` one bucket: each tensor's data and moments become views
        of three flat arrays. A lone tensor keeps its own array."""
        if len(run) == 1:
            t = run[0][1]
            t.data = np.require(t.data, np.float64, ("C", "W"))
            p = t.data.reshape(-1)
        else:
            p = np.concatenate([t.data.reshape(-1) for _, t in run])
        m, v = np.zeros_like(p), np.zeros_like(p)
        members = []
        offset = 0
        for name, t in run:
            shape, end = t.data.shape, offset + t.data.size
            t.data = p[offset:end].reshape(shape)
            self.first[name] = m[offset:end].reshape(shape)
            self.second[name] = v[offset:end].reshape(shape)
            members.append((name, t, t.data))
            offset = end
        self._buckets.append((members, p, m, v))

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def _check_bound(self) -> None:
        for members, _, _, _ in self._buckets:
            for name, param, view in members:
                if param.data is not view:
                    raise OptimizerError(f"trainable parameter {name!r} was rebound "
                                         "after registration; write into .data in place")

    def _open(self) -> None:
        self._left = [len(members) for members, _, _, _ in self._buckets]

    def backward_step(self, loss: Tensor) -> None:
        """``loss.backward()`` then ``step()``, with the same values, but each
        bucket is updated inside the pass once its gradients are complete, and
        its gradients are dropped then. A parameter rebound after
        registration, or one ``loss`` does not reach, raises
        ``OptimizerError`` before any parameter moves (for the latter, from
        inside the pass, once some closures have run); if the pass itself
        fails, the buckets it completed have moved."""
        self._check_bound()
        self._open()
        self._found = set()
        for i, (members, _, _, _) in enumerate(self._buckets):
            for name, param, _ in members:
                param._node._on_grad = partial(self._on_grad, i, name)
        try:
            T.backward(loss)
            if self._found is not None:  # the pass completed no gradient
                self._check_found()
        except BaseException:
            self._left = self._found = None
            raise
        finally:
            for t in self.params.values():
                t._node._on_grad = None
        self.step()

    def _on_grad(self, i: int, name: str, complete: bool) -> None:
        """The hook on parameter ``name`` of bucket ``i``. Once every member
        of the bucket has its final gradient, update the bucket and drop its
        gradients."""
        if not complete:
            self._found.add(name)
            return
        if self._found is not None:  # the first complete gradient: nothing has moved
            self._check_found()
        self._left[i] -= 1
        if self._left[i] == 0:
            self._update(i)
            for _, param, _ in self._buckets[i][0]:
                param.grad = None

    def _check_found(self) -> None:
        found, self._found = self._found, None
        for name in self.params:
            if name not in found:
                raise OptimizerError(f"the loss does not reach trainable parameter {name!r}")

    def step(self) -> None:
        """One update from the gradients currently held by the parameters;
        inside ``backward_step``, only of the buckets its pass left."""
        if self._left is None:
            self._check_bound()
            for name, param in self.params.items():
                if param.grad is None:
                    raise OptimizerError(f"missing gradient on trainable parameter {name!r}")
            self._open()
        for i, left in enumerate(self._left):
            if left:
                self._update(i)
        self._left = None
        self.step_count += 1

    def _update(self, i: int) -> None:
        cfg = self.cfg
        b1, b2 = cfg.betas
        t = self.step_count + 1  # the open step
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        block1, block2 = self._scratch
        members, p, m, v = self._buckets[i]
        n = p.size
        if len(members) == 1:
            g = members[0][1].grad.reshape(-1)
        else:
            g = np.concatenate([param.grad.reshape(-1) for _, param, _ in members],
                               out=block1[:n])
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            gb, pb, mb, vb = g[lo:hi], p[lo:hi], m[lo:hi], v[lo:hi]
            s1, s2 = block1[:hi - lo], block2[:hi - lo]
            # In place, in the per-tensor expression order, so every value
            # is bit-identical to m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
            # p = p - lr*((m/bias1) / (sqrt(v/bias2) + eps) + wd*p).
            mb *= b1
            np.multiply(gb, 1.0 - b1, out=s2)
            mb += s2
            vb *= b2
            np.multiply(gb, 1.0 - b2, out=s2)
            s2 *= gb
            vb += s2
            np.divide(vb, bias2, out=s1)  # gb is dead from here on
            np.sqrt(s1, out=s1)
            s1 += cfg.eps
            np.divide(mb, bias1, out=s2)
            s2 /= s1
            np.multiply(pb, cfg.weight_decay, out=s1)
            s1 += s2
            s1 *= cfg.learning_rate
            pb -= s1
