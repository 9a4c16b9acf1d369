"""Analytic gradients vs central finite differences.

The oracle perturbs every input element by +/-h and differences a scalar
projection of the output; the autodiff path never sees the perturbed
values, so the two routes are independent.
"""

import numpy as np
import pytest

import spafit.tensor as T
from spafit.model import ModelConfig, build_model, encoder_layer_forward
from spafit.tensor import Tensor

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
    layer_paths = [p for p in store.paths() if p.startswith("encoder.layer.0.")]
    arrays = [x] + [store.params[p].data for p in layer_paths]

    def layer(ts):
        for path, t in zip(layer_paths, ts[1:]):
            store.params[path] = t
        out = encoder_layer_forward(store, 0, ts[0], mode="eval")
        return weighted_sum(out, w)

    check_gradients(layer, arrays)
