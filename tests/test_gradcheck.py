"""Analytic gradients vs central finite differences.

The oracle perturbs every input element by +/-h and differences a scalar
projection of the output; the autodiff path never sees the perturbed
values, so the two routes are independent. The fused and in-place ops are
also checked bit for bit against the plain expressions they replaced.
"""

import math

import numpy as np
import pytest

import spafit.tensor as T
from spafit.harness import train_run
from spafit.model import ModelConfig, build_model, encoder_layer_forward
from spafit.optim import TrainConfig
from spafit.plan import attach_lora, compile_plan, parse_plan_spec
from spafit.tasks import TaskSpec, generate_task
from spafit.tensor import Tensor

from test_plan import STANDARD_PLANS

H = 1e-5
RTOL = 1e-6
ATOL = 1e-8


def finite_difference_grad(fn, values: list[np.ndarray], wrt: int) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(values)`` wrt one input."""
    base = [v.copy() for v in values]
    grad = np.zeros_like(base[wrt])
    flat = grad.reshape(-1)
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            perturbed = [v.copy() for v in base]
            perturbed[wrt].reshape(-1)[i] += sign * H
            flat[i] += sign * fn(perturbed)
    return grad / (2.0 * H)


def check_gradients(fn_tensors, arrays: list[np.ndarray], frozen: tuple[int, ...] = ()):
    """Compare autodiff and finite-difference gradients for every input;
    inputs listed in ``frozen`` must instead receive no gradient."""
    tensors = [Tensor(a.copy(), requires_grad=i not in frozen)
               for i, a in enumerate(arrays)]
    loss = fn_tensors(tensors)
    loss.backward()

    def scalar_fn(vals):
        return float(fn_tensors([Tensor(v) for v in vals]).data)

    for i, t in enumerate(tensors):
        if i in frozen:
            assert t.grad is None, f"frozen input {i} received a gradient"
            continue
        numeric = finite_difference_grad(scalar_fn, arrays, wrt=i)
        np.testing.assert_allclose(t.grad, numeric, rtol=RTOL, atol=ATOL,
                                   err_msg=f"input {i}")


def weighted_sum(out: Tensor, weights: np.ndarray) -> Tensor:
    return T.tensor_sum(T.mul(out, Tensor(weights)))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def test_matmul_gradients(rng):
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    w = rng.standard_normal((3, 2))
    check_gradients(lambda ts: weighted_sum(T.matmul(ts[0], ts[1]), w), [a, b])


def test_add_broadcast_gradients(rng):
    """[3, 1] + [3, 4]: the size-1 operand's gradient sums over its axis."""
    a, b = rng.standard_normal((3, 1)), rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4))
    check_gradients(lambda ts: weighted_sum(T.add(ts[0], ts[1]), w), [a, b])


LINEAR_CASES = [(x_shape, lora, frozen)
                for x_shape in ((5, 3), (2, 4, 3))
                for lora in (False, True)
                for frozen in (None, 0, 1, 2) + ((3, 4) if lora else ())]


def _linear_arrays(rng, x_shape, lora):
    arrays = [rng.standard_normal(x_shape), rng.standard_normal((4, 3)),
              rng.standard_normal(4)]
    if lora:
        arrays += [rng.standard_normal((2, 3)), rng.standard_normal((4, 2))]
    return arrays


@pytest.mark.parametrize("x_shape,lora,frozen", LINEAR_CASES)
def test_linear_gradients(rng, x_shape, lora, frozen):
    """Inputs x, w, b (and the pair down, up), one of them frozen in turn."""
    arrays = _linear_arrays(rng, x_shape, lora)
    w = rng.standard_normal(x_shape[:-1] + (4,))
    check_gradients(lambda ts: weighted_sum(T.linear(*ts, scaling=1.5), w), arrays,
                    frozen=() if frozen is None else (frozen,))


@pytest.mark.parametrize("x_shape", [(5, 3), (2, 4, 3)])
def test_linear_matches_primitive_chain(rng, x_shape):
    """The fused op equals x @ w.T + b + ((x @ down.T) @ up.T) * s built from
    matmul, transpose, add and scale, in value and every gradient."""
    arrays = _linear_arrays(rng, x_shape, lora=True)
    w = rng.standard_normal(x_shape[:-1] + (4,))

    def chain(x, wt, b, down, up):
        y = T.matmul(x, T.transpose(wt)) + b
        return y + T.matmul(T.matmul(x, T.transpose(down)), T.transpose(up)) * 1.5

    runs = []
    for fn in (lambda ts: T.linear(*ts, scaling=1.5), lambda ts: chain(*ts)):
        ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(ts)
        weighted_sum(out, w).backward()
        runs.append([out.data] + [t.grad for t in ts])
    for fused, primitive in zip(*runs):
        np.testing.assert_allclose(fused, primitive, rtol=0, atol=1e-12)


def test_gelu_gradients(rng):
    x = rng.standard_normal((4, 5))
    w = rng.standard_normal((4, 5))
    check_gradients(lambda ts: weighted_sum(T.gelu(ts[0]), w), [x])


def test_tanh_gradients(rng):
    x = rng.standard_normal((3, 3))
    w = rng.standard_normal((3, 3))
    check_gradients(lambda ts: weighted_sum(T.tanh(ts[0]), w), [x])


def test_softmax_gradients(rng):
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((4, 6))
    check_gradients(lambda ts: weighted_sum(T.softmax(ts[0]), w), [x])


def test_layer_norm_gradients(rng):
    x = rng.standard_normal((5, 8))
    gamma = rng.standard_normal(8)
    beta = rng.standard_normal(8)
    w = rng.standard_normal((5, 8))
    check_gradients(
        lambda ts: weighted_sum(T.layer_norm(ts[0], ts[1], ts[2]), w),
        [x, gamma, beta])


def test_embedding_gradients(rng):
    table = rng.standard_normal((7, 4))
    ids = np.array([[0, 3, 3], [6, 1, 0]])
    w = rng.standard_normal((2, 3, 4))
    check_gradients(lambda ts: weighted_sum(T.embedding(ts[0], ids), w), [table])


def test_cross_entropy_gradients(rng):
    logits = rng.standard_normal((6, 4))
    labels = np.array([0, 1, 2, 3, 1, 2])
    check_gradients(lambda ts: T.cross_entropy(ts[0], labels), [logits])


def test_softmax_attention_block_gradients(rng):
    """Scaled dot-product attention assembled from the primitive ops."""
    q = rng.standard_normal((2, 3, 4))
    k = rng.standard_normal((2, 3, 4))
    v = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((2, 3, 4))

    def attention(ts):
        scores = T.matmul(ts[0], T.transpose(ts[1])) * 0.5
        return weighted_sum(T.matmul(T.softmax(scores), ts[2]), w)

    check_gradients(attention, [q, k, v])


@pytest.mark.parametrize("frozen", [None, 0, 1, 2])
def test_attention_gradients(rng, frozen):
    """Two heads; q, k and v all trainable, then each one frozen in turn."""
    arrays = [rng.standard_normal((2, 3, 4)) for _ in range(3)]
    w = rng.standard_normal((2, 3, 4))
    check_gradients(lambda ts: weighted_sum(T.attention(*ts, num_heads=2), w), arrays,
                    frozen=() if frozen is None else (frozen,))


def primitive_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """The 13-node chain ``attention`` replaced in the encoder: head split,
    score, scale, softmax, context and head merge from the primitive ops;
    ``q`` may be shorter than ``k`` and ``v``."""
    batch, q_len, hidden = q.shape
    hd = hidden // num_heads

    def split_heads(t: Tensor) -> Tensor:
        return T.transpose(T.reshape(t, (batch, t.shape[1], num_heads, hd)), (0, 2, 1, 3))

    q, k, v = split_heads(q), split_heads(k), split_heads(v)
    scores = T.matmul(q, T.transpose(k)) * (1.0 / math.sqrt(hd))
    probs = T.softmax(scores)
    context = T.matmul(probs, v)
    return T.reshape(T.transpose(context, (0, 2, 1, 3)), (batch, q_len, hidden))


# q's shape, the key count, and whether ``_row_max`` loops over the key
# columns of the batch * 2 heads * q_len score rows.
ATTENTION_CASES = [
    ((2, 5, 8), 5, False),
    ((2, 5, 12), 5, False),
    ((2, 1, 12), 5, False),
    ((2, 3, 12), 5, False),
    ((16, 5, 12), 5, True),     # 160 rows of 5 keys: the fewest that loop
    ((80, 1, 12), 5, True),     # one query per example, as in the cut last layer
    ((16, 11, 8), 11, True),
    ((20, 40, 12), 40, True),   # 64,000 scores
    ((520, 8, 12), 8, False),   # 66,560 scores: over the cap
    ((24, 46, 12), 46, False),  # past the longest key axis that loops
    ((2, 2, 2), 5, False),      # one dimension per head, fewer queries than keys
    ((40, 2, 2), 5, True),
]


@pytest.mark.parametrize("shape, keys, loops", ATTENTION_CASES, ids=[
    f"q{'x'.join(map(str, shape))}-k{keys}-{'loop' if loops else 'reduce'}"
    for shape, keys, loops in ATTENTION_CASES])
def test_attention_matches_primitive_chain_bitwise(rng, shape, keys, loops):
    """Two heads; at hidden 12 the scale 1/sqrt(6) is inexact, so the order
    of scale and softmax backward shows in the bits. ``shape`` is q's; k and
    v hold ``keys`` positions, so queries of length 1 and 3 attend to more
    keys, as position 0 alone does in the last layer. ``primitive_attention``
    takes its row max from ``T.softmax``, numpy's reduce, on either route."""
    assert T._max_by_columns(shape[0] * 2 * shape[1], keys) is loops
    kv_shape = (shape[0], keys, shape[2])
    arrays = [rng.standard_normal(s) for s in (shape, kv_shape, kv_shape)]
    w = rng.standard_normal(shape)
    runs = []
    for fn in (T.attention, primitive_attention):
        ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*ts, 2)
        weighted_sum(out, w).backward()
        runs.append([out.data] + [t.grad for t in ts])
    assert runs[0][0].shape == shape
    for fused, primitive in zip(*runs):
        np.testing.assert_array_equal(fused, primitive)


def assert_same_bits_but_nan_signs(a: np.ndarray, b: np.ndarray) -> None:
    """Equal bits at every number, zero signs included, and NaN at the same
    places; numpy's max reduce may return a row's NaN with the other sign
    bit, so the sign of a NaN is not compared."""
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
    np.testing.assert_array_equal(np.where(np.isnan(a), np.nan, a).view(np.uint64),
                                  np.where(np.isnan(b), np.nan, b).view(np.uint64))


@pytest.mark.parametrize("batch, q_len, loops", [(4, 20, True), (2, 3, False)])
def test_attention_special_scores_match_primitive_chain_bitwise(rng, batch, q_len, loops):
    """Each score is ``q0 * k0 + 0.3 * 0`` over two dimensions per head, so
    keys of +-inf and NaN against queries of either sign and 0 give rows
    holding +inf, -inf, NaN or a zero maximum; the output and all three
    gradients match the primitive chain bit for bit, NaN signs aside."""
    assert T._max_by_columns(batch * 2 * q_len, 5) is loops
    pool = np.array([[np.inf, 0.5, -1.0, 2.0, 0.25], [-np.inf, 0.5, -1.0, 2.0, 0.25],
                     [np.nan, 1.0, -0.5, 0.75, -2.0], [0.0, -1.0, -2.0, -0.5, -3.0]])
    k = np.zeros((batch, 5, 2, 2))
    k[..., 0] = np.stack([pool[[(2 * b) % 4, (2 * b + 1) % 4]].T for b in range(batch)])
    q = np.full((batch, q_len, 2, 2), 0.3)
    q[..., 0] = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0], size=(batch, q_len, 2))
    q, k = q.reshape(batch, q_len, 4), k.reshape(batch, 5, 4)
    v = rng.standard_normal(k.shape)
    w = rng.standard_normal(q.shape)
    runs = []
    with np.errstate(all="ignore"):
        scores = np.einsum("bihd,bjhd->bhij", q.reshape(batch, q_len, 2, 2),
                           k.reshape(batch, 5, 2, 2))
        row_max = scores.max(axis=-1)
        for fn in (T.attention, primitive_attention):
            ts = [Tensor(a.copy(), requires_grad=True) for a in (q, k, v)]
            out = fn(*ts, 2)
            weighted_sum(out, w).backward()
            runs.append([out.data] + [t.grad for t in ts])
    assert np.isposinf(scores).any() and np.isneginf(scores).any() and np.isnan(scores).any()
    assert (row_max == 0).any() and np.isposinf(row_max).any()
    assert np.isnan(runs[0][0]).any() and np.isfinite(runs[0][0]).any()
    for fused, primitive in zip(*runs):
        assert_same_bits_but_nan_signs(fused, primitive)


@pytest.mark.parametrize("rows, keys, loops",
                         [(160, 5, True), (4, 5, False), (2048, 32, True), (64, 64, False)])
def test_row_max_shift_matches_numpy_max_bitwise(rng, rows, keys, loops):
    """``exp(s - max)`` has the same bits with either route's maximum, NaN
    signs aside, on rows whose maximum is +0 or -0 (the routes may return
    either zero) or that hold +-inf or NaNs of either sign."""
    assert T._max_by_columns(rows, keys) is loops
    s = -rng.random((rows, keys)) - 1.0
    nan, negative_nan = np.nan, np.copysign(np.nan, -1.0)
    for r, row in enumerate(s):
        i, j = rng.choice(keys, 2, replace=False)
        row[i], row[j] = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (np.inf, 1.0),
                          (-np.inf, 1.0), (nan, 0.0), (negative_nan, 0.0), (nan, negative_nan),
                          (np.inf, -np.inf)][r % 9]
    with np.errstate(all="ignore"):
        looped = np.exp(s - T._row_max(s))
        reduced = np.exp(s - s.max(axis=-1, keepdims=True))
    assert_same_bits_but_nan_signs(looped, reduced)


def reference_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """``layer_norm`` as ``np.mean``/``np.var`` and whole-array expressions."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + T.LAYER_NORM_EPS)
    xhat = (x.data - mu) * inv_std
    d = x.data.shape[-1]

    def backward_fn(g):
        if gamma.requires_grad:
            gamma._node._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            beta._node._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._node._accumulate(inv_std * term)

    return T._result(gamma.data * xhat + beta.data, (x, gamma, beta), backward_fn)


def reference_gelu(x: Tensor) -> Tensor:
    cdf = 0.5 * (1.0 + T.erf(x.data * T._INV_SQRT2))

    def backward_fn(g):
        pdf = np.exp(-0.5 * x.data * x.data) * T._INV_SQRT_2PI
        x._node._accumulate(g * (cdf + x.data * pdf))

    return T._result(x.data * cdf, (x,), backward_fn)


def reference_dropout(x: Tensor, p: float, mode: str,
                      rng: np.random.Generator | None = None,
                      draw_shape: tuple[int, ...] | None = None) -> Tensor:
    if mode == "eval" or p == 0.0:
        return x
    draws = rng.random(x.data.shape if draw_shape is None else draw_shape)
    mask = (draws[tuple(slice(n) for n in x.data.shape)] >= p) / (1.0 - p)

    def backward_fn(g):
        x._node._accumulate(g * mask)

    return T._result(x.data * mask, (x,), backward_fn)


def reference_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    n = logits.data.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    lse = np.log(exps.sum(axis=1))
    picked = shifted[np.arange(n), labels]
    probs = exps / exps.sum(axis=1, keepdims=True)

    def backward_fn(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        logits._node._accumulate(float(g) * d / n)

    return T._result(np.asarray((lse - picked).mean()), (logits,), backward_fn)


ROW_SHAPES = [(16, 11, 32), (64, 11, 32), (16, 8, 256), (5, 7), (3, 4, 33), (1, 32)]
# x only, gamma and beta only, all three
LAYER_NORM_GRADS = [(True, False, False), (False, True, True), (True, True, True)]


def _row_op_cases(rng, shape):
    """``(op name, call, arrays, requires_grad)`` for each rewritten op on
    ``shape``: ``call(op, tensors)`` applies the op, or its reference, to
    tensors made from ``arrays`` with those ``requires_grad`` flags."""
    d = shape[-1]
    x = 3.0 * rng.standard_normal(shape) + 1.0
    labels = rng.integers(0, d, size=x.size // d)
    affine = [rng.standard_normal(d), rng.standard_normal(d)]
    cases = [("layer_norm", lambda op, ts: op(*ts), [x] + affine, flags)
             for flags in LAYER_NORM_GRADS]
    cases += [
        ("gelu", lambda op, ts: op(ts[0]), [x], (True,)),
        ("dropout", lambda op, ts: op(ts[0], 0.1, "train", np.random.default_rng(5)),
         [x], (True,)),
        ("cross_entropy", lambda op, ts: op(T.reshape(ts[0], (-1, d)), labels), [x], (True,)),
    ]
    return cases


REFERENCES = {"layer_norm": reference_layer_norm, "gelu": reference_gelu,
              "dropout": reference_dropout, "cross_entropy": reference_cross_entropy}


@pytest.mark.parametrize("shape", ROW_SHAPES)
def test_row_ops_match_reference_bitwise(rng, shape):
    """Value and every input gradient of each in-place row-wise op equal the
    plain expressions', with and without a gradient on each input."""
    w = rng.standard_normal(shape)
    for name, call, arrays, flags in _row_op_cases(rng, shape):
        runs = []
        for op in (getattr(T, name), REFERENCES[name]):
            ts = [Tensor(a.copy(), requires_grad=f) for a, f in zip(arrays, flags)]
            out = call(op, ts)
            # an upstream gradient other than ones
            loss = T.scale(out, 0.7) if out.data.ndim == 0 else weighted_sum(out, w)
            loss.backward()
            runs.append([out.data] + [t.grad for t in ts])
        for i, (new, old) in enumerate(zip(*runs)):
            if old is None:
                assert new is None, (name, flags, i)
            else:
                np.testing.assert_array_equal(new, old, err_msg=f"{name} {flags} {i}")


@pytest.mark.parametrize("shape", [(16, 11, 32), (5, 7)])
def test_row_op_backward_leaves_saved_state_intact(rng, shape):
    """A backward pass run twice on one node deposits twice the first result
    and changes neither the node's value nor the upstream gradient, so no
    in-place pass overwrites something a later pass reads."""
    for name, call, arrays, flags in _row_op_cases(rng, shape):
        ts = [Tensor(a.copy(), requires_grad=f) for a, f in zip(arrays, flags)]
        out = call(getattr(T, name), ts)
        g = rng.standard_normal(out.data.shape)
        value, upstream = out.data.copy(), g.copy()
        out._backward_fn(g)
        first = [None if t.grad is None else t.grad.copy() for t in out._node._parents]
        out._backward_fn(g)
        for t, grad in zip(out._node._parents, first):
            if t.requires_grad:
                np.testing.assert_array_equal(t.grad, grad + grad, err_msg=f"{name} {flags}")
            else:
                assert t.grad is None, (name, flags)
        np.testing.assert_array_equal(out.data, value, err_msg=name)
        np.testing.assert_array_equal(g, upstream, err_msg=name)


DESK_CFG = ModelConfig(num_layers=4, hidden_size=32, num_heads=4, ffn_size=64,
                       vocab_size=40, max_positions=16, lora_rank=8, lora_alpha=16,
                       dropout_p=0.1)


def desk_training_run(spec: str):
    """16 train steps at the README demo dims, with dropout: the epoch losses
    and every parameter and factor at the end."""
    task = TaskSpec(kind="pair_classification", vocab_size=40, seq_len=11,
                    train_size=256, val_size=1, seed=0)
    train, val = generate_task(task)
    plan = compile_plan(parse_plan_spec(spec), DESK_CFG)
    store = attach_lora(build_model(DESK_CFG, seed=0), plan, seed=0)
    result = train_run(store, plan, task, train, val,
                       TrainConfig(learning_rate=2e-3, epochs=1, seed=1))
    params = store.params | store.factors()
    return result.epoch_losses, {name: t.data for name, t in params.items()}


def assert_same_training(new, old):
    assert new[0] == old[0]
    assert new[1].keys() == old[1].keys()
    for name, data in new[1].items():
        np.testing.assert_array_equal(data, old[1][name], err_msg=name)


def test_desk_training_matches_primitive_chain_bitwise(monkeypatch):
    """The stratified plan ends on the same bits whichever attention the
    encoder runs."""
    fused = desk_training_run("spafit:N1=1,N2=2,mode=II")
    monkeypatch.setattr(T, "attention", primitive_attention)
    assert_same_training(fused, desk_training_run("spafit:N1=1,N2=2,mode=II"))


@pytest.mark.parametrize("spec", STANDARD_PLANS)
def test_desk_training_matches_reference_row_ops_bitwise(monkeypatch, spec):
    """Every standard plan ends on the same bits with the plain expressions
    in place of the in-place layer norm, GELU, dropout and cross-entropy."""
    in_place = desk_training_run(spec)
    for name, reference in REFERENCES.items():
        monkeypatch.setattr(T, name, reference)
    assert_same_training(in_place, desk_training_run(spec))


def test_two_layer_mlp_gradients(rng):
    """Random 2-layer MLP: the classic whole-pipeline check."""
    x = rng.standard_normal((4, 6))
    w1, b1 = rng.standard_normal((8, 6)), rng.standard_normal(8)
    w2, b2 = rng.standard_normal((3, 8)), rng.standard_normal(3)
    w = rng.standard_normal((4, 3))

    def mlp(ts):
        h = T.gelu(T.add(T.matmul(ts[0], T.transpose(ts[1])), ts[2]))
        out = T.add(T.matmul(h, T.transpose(ts[3])), ts[4])
        return weighted_sum(out, w)

    check_gradients(mlp, [x, w1, b1, w2, b2])


def test_full_encoder_layer_gradients(rng):
    """Every parameter of one encoder layer, plus the input, vs the oracle."""
    cfg = ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=12,
                      vocab_size=11, max_positions=8, lora_rank=2, lora_alpha=4,
                      dropout_p=0.0)
    store = build_model(cfg, seed=3)
    # nudge LayerNorm affines off their 1/0 init so their gradients are generic
    nudge = np.random.default_rng(77)
    for path, t in store.params.items():
        if "LayerNorm" in path:
            t.data = t.data + 0.1 * nudge.standard_normal(t.data.shape)

    x = rng.standard_normal((2, 3, 8))
    w = rng.standard_normal((2, 3, 8))
    layer_paths = [p for p in store.params if p.startswith("encoder.layer.0.")]
    arrays = [x] + [store.params[p].data for p in layer_paths]

    def layer(ts):
        for path, t in zip(layer_paths, ts[1:]):
            store.params[path] = t
        out = encoder_layer_forward(store, 0, ts[0], mode="eval")
        return weighted_sum(out, w)

    check_gradients(layer, arrays)
