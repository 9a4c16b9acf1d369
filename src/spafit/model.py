"""Transformer encoder over a named parameter store.

Parameters live in a flat ``ParamStore`` keyed by dotted paths mirroring the
classic BERT layout (``encoder.layer.{i}.attention.self.query.weight`` and
friends, with 0-based layer indices in paths). Each encoder layer runs the
sub-layer chain: self-attention -> dropout -> dense + residual + LayerNorm ->
dropout -> GELU feed-forward -> dense + residual + LayerNorm -> dropout.

Named float64 tensors are stored in one binary container. Layout: 4-byte
magic, 1 version byte, uint32 little-endian header length, UTF-8 JSON header,
then the raw row-major little-endian float64 payloads in header order. The
same container carries full checkpoints and adapter files (distinguished by
the header ``kind``), so round trips are byte-exact.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from collections.abc import Iterator, Mapping
from dataclasses import asdict, dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import tensor as T
from .errors import (
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    InputError,
    ShapeError,
    _check_int,
    _check_real,
)
from .tensor import Tensor

INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    """Architecture dimensions plus the low-rank adapter hyperparameters."""

    num_layers: int
    hidden_size: int
    num_heads: int
    ffn_size: int
    vocab_size: int
    max_positions: int
    type_vocab_size: int = 2
    num_labels: int = 2
    lora_rank: int = 8
    lora_alpha: int = 16
    dropout_p: float = 0.1

    def __post_init__(self):
        for name in ("num_layers", "hidden_size", "num_heads", "ffn_size", "vocab_size",
                     "max_positions", "type_vocab_size", "num_labels",
                     "lora_rank", "lora_alpha"):
            value = _check_int(getattr(self, name), name, ConfigError)
            least = 0 if name == "num_layers" else 1
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, value)
        if self.hidden_size % self.num_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}")
        if self.lora_rank > min(self.hidden_size, self.ffn_size):
            raise ConfigError(
                f"lora_rank {self.lora_rank} exceeds min(hidden_size, ffn_size) "
                f"= {min(self.hidden_size, self.ffn_size)}")
        # Stored as a plain float: equal configs share one compiled plan, and
        # a fresh run's checkpoint header is written from the plan's config.
        object.__setattr__(self, "dropout_p",
                           _check_real(self.dropout_p, "dropout_p", ConfigError))
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")


LAYER_SUBPATHS: tuple[tuple[str, str], ...] = (
    # (sub-path, shape kind); shape kinds resolved against the config
    ("attention.self.query.weight", "dxd"),
    ("attention.self.query.bias", "d"),
    ("attention.self.key.weight", "dxd"),
    ("attention.self.key.bias", "d"),
    ("attention.self.value.weight", "dxd"),
    ("attention.self.value.bias", "d"),
    ("attention.output.dense.weight", "dxd"),
    ("attention.output.dense.bias", "d"),
    ("attention.output.LayerNorm.weight", "d"),
    ("attention.output.LayerNorm.bias", "d"),
    ("intermediate.dense.weight", "fxd"),
    ("intermediate.dense.bias", "f"),
    ("output.dense.weight", "dxf"),
    ("output.dense.bias", "d"),
    ("output.LayerNorm.weight", "d"),
    ("output.LayerNorm.bias", "d"),
)


def iter_param_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every canonical parameter path with its shape, in layout order, one at
    a time: a reader can name a file's first missing tensor without listing
    all the layers its header claims."""
    d, f = config.hidden_size, config.ffn_size
    kinds = {"dxd": (d, d), "fxd": (f, d), "dxf": (d, f), "d": (d,), "f": (f,)}
    yield "embeddings.word_embeddings.weight", (config.vocab_size, d)
    yield "embeddings.position_embeddings.weight", (config.max_positions, d)
    yield "embeddings.token_type_embeddings.weight", (config.type_vocab_size, d)
    yield "embeddings.LayerNorm.weight", (d,)
    yield "embeddings.LayerNorm.bias", (d,)
    for i in range(config.num_layers):
        for sub, kind in LAYER_SUBPATHS:
            yield f"encoder.layer.{i}.{sub}", kinds[kind]
    yield "pooler.dense.weight", (d, d)
    yield "pooler.dense.bias", (d,)
    yield "classifier.weight", (config.num_labels, d)
    yield "classifier.bias", (config.num_labels,)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Ordered map of every canonical parameter path to its shape."""
    return dict(iter_param_shapes(config))


def total_parameter_count(config: ModelConfig) -> int:
    """Base-model size from shapes alone, without materializing any tensors:
    every parameter except the task head, which is the classifier alone (the
    pooler counts as part of the base model)."""
    return sum(int(np.prod(shape)) for path, shape in param_shapes(config).items()
               if not path.startswith("classifier."))


def layer_number(path: str) -> int | None:
    """1-based encoder layer number of a path, or None outside the stack."""
    if not path.startswith("encoder.layer."):
        return None
    return int(path.split(".")[2]) + 1


def is_head_path(path: str) -> bool:
    return path.startswith(("pooler.", "classifier."))


@dataclass
class LoraPair:
    """Low-rank factors (B, A) attached to one frozen 2-D weight.

    The effective weight delta is ``scaling * B @ A`` with ``scaling`` the
    config's ``lora_alpha / lora_rank``; B starts at zero so a freshly
    attached pair leaves the forward pass unchanged.
    """

    down: Tensor  # A, [rank, in_features]
    up: Tensor    # B, [out_features, rank]
    scaling: float


def factor_names(target: str) -> tuple[str, str]:
    """Container names of the (A, B) low-rank factors attached to ``target``."""
    return f"{target}.lora_A", f"{target}.lora_B"


class ParamStore:
    """Named parameters and attached LoRA pairs. A tensor trains when its
    grad flag is set; a plan's statuses live in the plan alone."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.lora: dict[str, LoraPair] = {}
        # Values of base tensors before an adapter swap first overwrote them.
        self.swapped_base: dict[str, np.ndarray] = {}

    def factors(self) -> dict[str, Tensor]:
        """Attached low-rank factors by container name, in attachment order."""
        out: dict[str, Tensor] = {}
        for target, pair in self.lora.items():
            a_name, b_name = factor_names(target)
            out[a_name], out[b_name] = pair.down, pair.up
        return out

    def trainable_parameters(self) -> dict[str, Tensor]:
        """Tensors the optimizer may move, and so everything an adapter owns,
        by container name in deterministic path order."""
        out = {path: t for path, t in self.params.items() if t.requires_grad}
        return out | self.factors()

    def clone(self) -> "ParamStore":
        dup = ParamStore(self.config)
        for path, t in self.params.items():
            dup.params[path] = Tensor(t.data.copy(), requires_grad=t.requires_grad)
        dup.swapped_base = {path: data.copy() for path, data in self.swapped_base.items()}
        for target, pair in self.lora.items():
            dup.lora[target] = LoraPair(
                down=Tensor(pair.down.data.copy(), requires_grad=pair.down.requires_grad),
                up=Tensor(pair.up.data.copy(), requires_grad=pair.up.requires_grad),
                scaling=pair.scaling)
        return dup


def truncated_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float) -> np.ndarray:
    """Normal draws with |z| > 2 resampled, then scaled by ``std``."""
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > 2.0)
    while idx.size:  # redraw in C order, then re-check only the redrawn entries
        flat[idx] = rng.standard_normal(idx.size)
        idx = idx[np.abs(flat[idx]) > 2.0]
    x *= std
    return x


def build_model(config: ModelConfig, seed: int) -> ParamStore:
    """Materialize a fresh store: truncated-normal weights (std 0.02),
    LayerNorm weights 1, all biases 0. Same seed, same bits."""
    rng = np.random.default_rng(seed)
    store = ParamStore(config)
    for path, shape in param_shapes(config).items():
        if path.endswith("LayerNorm.weight"):
            data = np.ones(shape)
        elif path.endswith(".bias"):
            data = np.zeros(shape)
        else:
            data = truncated_normal(rng, shape, INIT_STD)
        store.params[path] = Tensor(data, requires_grad=True)
    return store


# -- forward pass ------------------------------------------------------------


def _linear(store: ParamStore, prefix: str, x: Tensor) -> Tensor:
    """x @ W^T + b, adding the scaled low-rank path when one is attached."""
    w = store.params[f"{prefix}.weight"]
    b = store.params[f"{prefix}.bias"]
    pair = store.lora.get(f"{prefix}.weight")
    if pair is None:
        return T.linear(x, w, b)
    return T.linear(x, w, b, pair.down, pair.up, pair.scaling)


def _self_attention(store: ParamStore, layer: int, x: Tensor, context: Tensor) -> Tensor:
    base = f"encoder.layer.{layer}.attention.self"
    q = _linear(store, f"{base}.query", x)
    k = _linear(store, f"{base}.key", context)
    v = _linear(store, f"{base}.value", context)
    return T.attention(q, k, v, store.config.num_heads)


def encoder_layer_forward(store: ParamStore, layer: int, x: Tensor, mode: str = "eval",
                          rng: np.random.Generator | None = None,
                          context: Tensor | None = None) -> Tensor:
    """One encoder layer over the query and residual stream ``x``
    ([batch, q_len, hidden], ``q_len`` >= 1), with keys and values from every
    position of ``context`` ([batch, seq, hidden], ``seq`` >= ``q_len``; None
    means ``x``); the output has ``x``'s shape, and ``layer`` is a 0-based
    index below ``num_layers``. Each train-mode dropout draws its mask at
    ``context``'s shape and keeps ``x``'s leading positions, so a cut ``x``
    consumes the generator as a full-width one does."""
    cfg = store.config
    context = x if context is None else context
    if x.data.ndim != 3 or x.data.shape[-1] != cfg.hidden_size:
        raise ShapeError(f"encoder layer expects [batch, seq, {cfg.hidden_size}], "
                         f"got {x.data.shape}")
    batch, q_len = x.data.shape[:2]
    if q_len == 0:
        raise InputError(f"encoder layer needs at least one position, got {x.data.shape}")
    draw = context.data.shape
    if len(draw) != 3 or draw[0] != batch or draw[1] < q_len or draw[2] != cfg.hidden_size:
        raise ShapeError(f"encoder layer context must be [{batch}, >= {q_len}, "
                         f"{cfg.hidden_size}], got {draw}")
    layer = _check_int(layer, "layer index", InputError)
    if not 0 <= layer < cfg.num_layers:
        raise InputError(f"layer index must lie in [0, {cfg.num_layers}), got {layer}")
    p = cfg.dropout_p
    base = f"encoder.layer.{layer}"

    attn = _self_attention(store, layer, x, context)
    attn = T.dropout(attn, p, mode, rng, draw)
    attn = _linear(store, f"{base}.attention.output.dense", attn)
    x = T.layer_norm(attn + x,
                     store.params[f"{base}.attention.output.LayerNorm.weight"],
                     store.params[f"{base}.attention.output.LayerNorm.bias"])
    x = T.dropout(x, p, mode, rng, draw)

    hidden = T.gelu(_linear(store, f"{base}.intermediate.dense", x))
    out = _linear(store, f"{base}.output.dense", hidden)
    x = T.layer_norm(out + x,
                     store.params[f"{base}.output.LayerNorm.weight"],
                     store.params[f"{base}.output.LayerNorm.bias"])
    return T.dropout(x, p, mode, rng, draw)


def model_forward(store: ParamStore, token_ids: np.ndarray, type_ids: np.ndarray,
                  mode: str = "eval", rng: np.random.Generator | None = None) -> Tensor:
    """Embeddings -> encoder stack -> pooled first token -> task head logits.

    ``token_ids`` and ``type_ids`` are non-empty [batch, seq] integer arrays;
    the returned logits are [batch, num_labels]. In both modes the last
    layer computes position 0 alone, the one position the head reads; its
    keys and values still come from every position.
    """
    cfg = store.config
    token_ids = np.asarray(token_ids)
    type_ids = np.asarray(type_ids)
    if token_ids.ndim != 2:
        raise InputError(f"token_ids must be [batch, seq], got shape {token_ids.shape}")
    if type_ids.shape != token_ids.shape:
        raise InputError(f"type_ids shape {type_ids.shape} does not match "
                         f"token_ids {token_ids.shape}")
    if token_ids.dtype.kind not in "iu" or type_ids.dtype.kind not in "iu":
        raise InputError(f"token_ids and type_ids must be integer arrays, got "
                         f"{token_ids.dtype} and {type_ids.dtype}")
    batch, seq = token_ids.shape
    if batch == 0 or seq == 0:
        raise InputError(f"token_ids must hold at least one example and one position, "
                         f"got shape {token_ids.shape}")
    if seq > cfg.max_positions:
        raise InputError(f"sequence length {seq} exceeds max_positions {cfg.max_positions}")
    if token_ids.min() < 0 or token_ids.max() >= cfg.vocab_size:
        raise InputError(f"token id out of range [0, {cfg.vocab_size}): "
                         f"saw {int(token_ids.min())}..{int(token_ids.max())}")
    if type_ids.min() < 0 or type_ids.max() >= cfg.type_vocab_size:
        raise InputError(f"type id out of range [0, {cfg.type_vocab_size})")

    words = T.embedding(store.params["embeddings.word_embeddings.weight"], token_ids)
    positions = T.embedding(store.params["embeddings.position_embeddings.weight"],
                            np.broadcast_to(np.arange(seq), (batch, seq)))
    types = T.embedding(store.params["embeddings.token_type_embeddings.weight"], type_ids)
    x = T.layer_norm(words + positions + types,
                     store.params["embeddings.LayerNorm.weight"],
                     store.params["embeddings.LayerNorm.bias"])
    x = T.dropout(x, cfg.dropout_p, mode, rng)

    last = cfg.num_layers - 1
    for layer in range(cfg.num_layers):
        # Only position 0 reaches the head, so the last layer's queries,
        # residual stream and feed-forward run there alone; its keys and
        # values still come from every position.
        query = T.first_position(x) if layer == last else x
        x = encoder_layer_forward(store, layer, query, mode, rng, context=x)

    pooled = T.tanh(_linear(store, "pooler.dense", T.first_token(x)))
    return _linear(store, "classifier", pooled)


# -- tensor container ----------------------------------------------------------

MAGIC = b"SPFC"
FORMAT_VERSION = 1


def write_container(path: str | Path, kind: str, config: ModelConfig,
                    tensors: dict[str, np.ndarray],
                    plan_spec: str | None = None) -> None:
    """Write a container to ``path``, replacing any file there only once every
    byte is written: the bytes go to a fresh sibling, which then takes
    ``path``'s name, and a failed write removes the sibling and leaves the old
    file whole. Nothing is fsynced, so a machine crash can still lose the new
    file. An I/O error names ``path``."""
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": asdict(config),
        "plan_spec": plan_spec,
        "tensors": [{"name": name, "shape": list(arr.shape), "dtype": "<f8"}
                    for name, arr in tensors.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    # "xb" never opens an existing file, and the umask sets the new one's mode.
    partial = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(partial, "xb") as fh:
            fh.write(MAGIC)
            fh.write(bytes([FORMAT_VERSION]))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for arr in tensors.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(partial, path)
    except OSError as exc:
        raise OSError(f"{path}: cannot write: {exc}") from exc
    finally:  # after the replace, there is no sibling left to remove
        partial.unlink(missing_ok=True)


def read_container(path: str | Path) -> tuple[Mapping, dict[str, np.ndarray]]:
    """Parse a container; returns (header, tensors by name). The header is
    read-only: reads of the same header bytes share one parsed copy, and
    each tensor is an owned array copied from this read's bytes."""
    raw = Path(path).read_bytes()
    if len(raw) < 9 or raw[:4] != MAGIC:
        raise CheckpointFormatError(f"{path}: bad container magic {raw[:4]!r}")
    version = raw[4]
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})")
    (header_len,) = struct.unpack("<I", raw[5:9])
    if len(raw) < 9 + header_len:
        raise CheckpointTruncatedError(f"{path}: header truncated")
    try:
        header, layout = _parse_header(raw[9:9 + header_len])
    except CheckpointFormatError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc.__cause__

    tensors: dict[str, np.ndarray] = {}
    offset = 9 + header_len
    for name, shape, count in layout:
        if offset + count * 8 > len(raw):
            raise CheckpointTruncatedError(f"{path}: payload for {name!r} truncated")
        # one copy, straight out of the file's bytes into an owned array
        tensors[name] = np.ndarray(shape, "<f8", raw, offset).copy()
        offset += count * 8
    if offset != len(raw):
        raise CheckpointFormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return header, tensors


# Distinct header byte strings whose parsed form stays cached: an adapter swap
# re-reads its file, and a server of up to this many adapters parses each
# header once.
_HEADER_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_HEADER_CACHE_SIZE)
def _parse_header(blob: bytes) -> tuple[Mapping, tuple[tuple[str, tuple[int, ...], int], ...]]:
    """The header in ``blob``, frozen, and its tensor layout as
    ``((name, shape, element count), ...)`` in payload order, checked against
    the schema. Errors name no file; ``read_container`` adds it. A raised
    error is not cached, so a bad header is checked again on every read."""
    try:
        header = json.loads(blob.decode("utf-8"))
        frozen = _frozen(header)
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, deep nesting
        raise CheckpointFormatError(f"header is not UTF-8 JSON ({exc})") from exc
    if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
        raise CheckpointFormatError("header is not an object with a tensors list")
    if not isinstance(header.get("plan_spec"), (str, type(None))):
        raise CheckpointFormatError(f"plan spec {header['plan_spec']!r} is not a string")

    layout: dict[str, tuple[str, tuple[int, ...], int]] = {}
    for entry in header["tensors"]:
        name, shape = _entry_name_and_shape(entry)
        if name in layout:
            raise CheckpointFormatError(f"tensor {name!r} declared twice")
        layout[name] = (name, shape, math.prod(shape))
    return frozen, tuple(layout.values())


def _frozen(value):
    """A parsed JSON value with every object read-only and every list a tuple."""
    if isinstance(value, dict):
        return MappingProxyType({key: _frozen(item) for key, item in value.items()})
    if isinstance(value, list):
        return tuple(_frozen(item) for item in value)
    return value


def _entry_name_and_shape(entry) -> tuple[str, tuple[int, ...]]:
    """Name and shape of one header tensor entry, checked against the schema:
    a string name, a list of non-negative ints, and the one dtype ``<f8``."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise CheckpointFormatError(f"tensor entry {entry!r} has no string name")
    name, shape = entry["name"], entry.get("shape")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise CheckpointFormatError(
            f"tensor {name!r} shape {shape!r} is not a list of non-negative ints")
    if entry.get("dtype") != "<f8":
        raise CheckpointFormatError(f"unsupported dtype {entry.get('dtype')!r}")
    return name, tuple(shape)
