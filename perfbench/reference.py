"""Plain-numpy oracles for the benchmark's correctness checks.

``forward`` recomputes eval-mode logits of a spafit store from its raw
arrays without touching ``spafit.tensor``: embeddings, post-LN encoder
layers with exact (erf) GELU, the tanh pooler and the classifier, with the
LoRA path added as ``scaling * (x @ A.T) @ B.T``. ``directional_fd_check``
compares an autodiff gradient with a central finite difference of the
reference loss along one random direction.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

LAYER_NORM_EPS = 1e-12


def store_arrays(store) -> tuple[dict, dict]:
    """Copies of a store's base arrays and LoRA factors, keyed by path."""
    params = {path: t.data.copy() for path, t in store.params.items()}
    lora = {target: (pair.down.data.copy(), pair.up.data.copy(), pair.scaling)
            for target, pair in store.lora.items()}
    return params, lora


def _layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gamma * ((x - mu) / np.sqrt(var + LAYER_NORM_EPS)) + beta


def _linear(params, lora, prefix, x):
    y = x @ params[f"{prefix}.weight"].T + params[f"{prefix}.bias"]
    factors = lora.get(f"{prefix}.weight")
    if factors is not None:
        down, up, scaling = factors
        y = y + ((x @ down.T) @ up.T) * scaling
    return y


def forward(params: dict, lora: dict, config, tokens: np.ndarray,
            types: np.ndarray) -> np.ndarray:
    """Eval-mode logits [batch, num_labels] (dropout is the identity)."""
    batch, seq = tokens.shape
    x = (params["embeddings.word_embeddings.weight"][tokens]
         + params["embeddings.position_embeddings.weight"][np.arange(seq)][None]
         + params["embeddings.token_type_embeddings.weight"][types])
    x = _layer_norm(x, params["embeddings.LayerNorm.weight"],
                    params["embeddings.LayerNorm.bias"])
    heads = config.num_heads
    hd = config.hidden_size // heads
    for i in range(config.num_layers):
        base = f"encoder.layer.{i}"

        def split(t):
            return t.reshape(batch, seq, heads, hd).transpose(0, 2, 1, 3)

        q = split(_linear(params, lora, f"{base}.attention.self.query", x))
        k = split(_linear(params, lora, f"{base}.attention.self.key", x))
        v = split(_linear(params, lora, f"{base}.attention.self.value", x))
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(hd)
        scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = scores / scores.sum(axis=-1, keepdims=True)
        context = (probs @ v).transpose(0, 2, 1, 3).reshape(batch, seq, -1)
        attn = _linear(params, lora, f"{base}.attention.output.dense", context)
        x = _layer_norm(attn + x, params[f"{base}.attention.output.LayerNorm.weight"],
                        params[f"{base}.attention.output.LayerNorm.bias"])
        h = _linear(params, lora, f"{base}.intermediate.dense", x)
        h = h * 0.5 * (1.0 + erf(h / math.sqrt(2.0)))
        out = _linear(params, lora, f"{base}.output.dense", h)
        x = _layer_norm(out + x, params[f"{base}.output.LayerNorm.weight"],
                        params[f"{base}.output.LayerNorm.bias"])
    pooled = np.tanh(_linear(params, lora, "pooler.dense", x[:, 0, :]))
    return _linear(params, lora, "classifier", pooled)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float((lse - shifted[np.arange(len(labels)), labels]).mean())


def _perturbed(params, lora, direction, step):
    """Arrays moved by ``step * direction``; direction keys name trainables
    (base paths, or ``{target}.lora_A`` / ``{target}.lora_B``)."""
    params = dict(params)
    lora = dict(lora)
    for name, u in direction.items():
        if name.endswith((".lora_A", ".lora_B")):
            target = name.rsplit(".", 1)[0]
            down, up, scaling = lora[target]
            if name.endswith(".lora_A"):
                down = down + step * u
            else:
                up = up + step * u
            lora[target] = (down, up, scaling)
        else:
            params[name] = params[name] + step * u
    return params, lora


def directional_fd_check(params, lora, config, tokens, types, labels,
                         grads: dict, rng: np.random.Generator,
                         eps: float = 1e-4) -> tuple[float, float]:
    """(autodiff, finite-difference) derivative of the reference loss along
    a random unit direction over the tensors named in ``grads``."""
    direction = {name: rng.standard_normal(g.shape) for name, g in grads.items()}
    norm = math.sqrt(sum(float((u * u).sum()) for u in direction.values()))
    direction = {name: u / norm for name, u in direction.items()}
    autodiff = sum(float((grads[name] * u).sum()) for name, u in direction.items())
    plus = cross_entropy(forward(*_perturbed(params, lora, direction, eps),
                                 config, tokens, types), labels)
    minus = cross_entropy(forward(*_perturbed(params, lora, direction, -eps),
                                  config, tokens, types), labels)
    return autodiff, (plus - minus) / (2.0 * eps)
