"""Binary container for named float64 tensors.

Layout: 4-byte magic, 1 version byte, uint32 little-endian header length,
UTF-8 JSON header, then the raw row-major little-endian float64 payloads in
header order. The same container carries full checkpoints and adapter files
(distinguished by the header ``kind``), so round trips are byte-exact.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import (
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    PlanError,
    UnknownTensorError,
)
from .model import ModelConfig, ParamStore, param_shapes
from .tensor import Tensor

MAGIC = b"SPFC"
FORMAT_VERSION = 1


def write_container(path: str | Path, kind: str, config: ModelConfig,
                    tensors: dict[str, np.ndarray],
                    plan_spec: str | None = None) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": asdict(config),
        "plan_spec": plan_spec,
        "tensors": [{"name": name, "shape": list(arr.shape), "dtype": "<f8"}
                    for name, arr in tensors.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([FORMAT_VERSION]))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a container; returns (header, tensors by name)."""
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
        header = json.loads(raw[9:9 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, deep nesting
        raise CheckpointFormatError(f"{path}: header is not UTF-8 JSON ({exc})") from exc
    if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
        raise CheckpointFormatError(f"{path}: header is not an object with a tensors list")
    if not isinstance(header.get("plan_spec"), (str, type(None))):
        raise CheckpointFormatError(
            f"{path}: plan spec {header['plan_spec']!r} is not a string")

    tensors: dict[str, np.ndarray] = {}
    offset = 9 + header_len
    for entry in header["tensors"]:
        name, shape = _entry_name_and_shape(path, entry)
        if name in tensors:
            raise CheckpointFormatError(f"{path}: tensor {name!r} declared twice")
        nbytes = math.prod(shape) * 8
        chunk = raw[offset:offset + nbytes]
        if len(chunk) < nbytes:
            raise CheckpointTruncatedError(f"{path}: payload for {name!r} truncated")
        tensors[name] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise CheckpointFormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return header, tensors


def _entry_name_and_shape(path, entry) -> tuple[str, tuple[int, ...]]:
    """Name and shape of one header tensor entry, checked against the schema:
    a string name, a list of non-negative ints, and the one dtype ``<f8``."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise CheckpointFormatError(f"{path}: tensor entry {entry!r} has no string name")
    name, shape = entry["name"], entry.get("shape")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise CheckpointFormatError(
            f"{path}: tensor {name!r} shape {shape!r} is not a list of non-negative ints")
    if entry.get("dtype") != "<f8":
        raise CheckpointFormatError(f"{path}: unsupported dtype {entry.get('dtype')!r}")
    return name, tuple(shape)


def config_from_header(header: dict) -> ModelConfig:
    config = header.get("config")
    try:
        return ModelConfig(**config)
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"container config {config!r} is invalid: {exc}") from exc


def check_tensors(path: str | Path, tensors: dict[str, np.ndarray],
                  expected_shapes: dict[str, tuple[int, ...]]) -> None:
    """Reject by name any tensor beyond ``expected_shapes``, any missing
    tensor, and any tensor whose shape differs from its expected one."""
    for name in tensors:
        if name not in expected_shapes:
            raise UnknownTensorError(f"{path}: unknown tensor {name!r}")
    for name, shape in expected_shapes.items():
        if name not in tensors:
            raise UnknownTensorError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointFormatError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                f"expected {shape}")


def save_checkpoint(store, path: str | Path, plan_spec: str | None = None) -> None:
    """Write every base tensor plus any attached LoRA factors. The loader
    attaches factors from ``plan_spec``, so the spec's factors must be
    exactly the store's."""
    from .plan import compile_plan, factor_shapes, parse_plan_spec

    expected = (factor_shapes(compile_plan(parse_plan_spec(plan_spec), store.config))
                if plan_spec else {})
    factors = store.factors()
    if {name: t.data.shape for name, t in factors.items()} != expected:
        raise PlanError(f"plan spec {plan_spec!r} does not match the low-rank "
                        "pairs attached to the store")
    tensors = {name: t.data for name, t in (store.params | factors).items()}
    write_container(path, "checkpoint", store.config, tensors, plan_spec)


def load_checkpoint(path: str | Path):
    """Rebuild a ParamStore; see ``load_checkpoint_with_plan``."""
    return load_checkpoint_with_plan(path)[0]


def load_checkpoint_with_plan(path: str | Path):
    """Rebuild a ParamStore (and its plan attachment, if recorded).

    Strict: the file must contain exactly the base paths implied by its own
    config, plus factor tensors for the recorded plan's targets. Anything
    extra, missing or misshapen is rejected by name.
    """
    from .plan import attach_factors, factor_shapes, recorded_plan

    header, tensors = read_container(path)
    if header.get("kind") != "checkpoint":
        raise CheckpointFormatError(f"{path}: container kind {header.get('kind')!r} "
                                    "is not a checkpoint")
    config = config_from_header(header)
    base_shapes = param_shapes(config)
    plan = None
    if header.get("plan_spec"):
        plan = recorded_plan(path, header["plan_spec"], config)
    check_tensors(path, tensors,
                  base_shapes | (factor_shapes(plan) if plan is not None else {}))

    store = ParamStore(config)
    for name in base_shapes:
        store.params[name] = Tensor(tensors[name], requires_grad=True)
    if plan is not None:
        attach_factors(store, plan, tensors)
    return store, plan
