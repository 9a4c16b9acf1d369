"""Sectioned key=value run manifests.

A manifest is the single source of configuration for a CLI invocation:
``[model]``, ``[plan]``, ``[train]``, ``[task]``, and ``[outputs]`` sections
with one ``key = value`` pair per line. Unknown sections or keys are
rejected, and the three seeds (model, train, task) are mandatory so no run
ever depends on the wall clock.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .errors import ManifestError
from .model import ModelConfig
from .optim import TrainConfig
from .plan import PlanSpec, parse_plan_spec
from .tasks import TaskSpec

_MODEL_KEYS = {
    "num_layers": int, "hidden_size": int, "num_heads": int, "ffn_size": int,
    "vocab_size": int, "max_positions": int, "type_vocab_size": int,
    "lora_rank": int, "lora_alpha": int, "dropout_p": float, "seed": int,
}
_PLAN_KEYS = {"spec": str}
_TRAIN_KEYS = {
    "learning_rate": float, "batch_size": int, "epochs": int,
    "weight_decay": float, "beta1": float, "beta2": float, "eps": float,
    "seed": int,
}
_TASK_KEYS = {
    "kind": str, "vocab_size": int, "seq_len": int, "train_size": int,
    "val_size": int, "num_labels": int, "noise_std": float, "metric": str,
    "seed": int,
}
_OUTPUT_KEYS = {"out_dir": str}

_SECTIONS = {
    "model": _MODEL_KEYS,
    "plan": _PLAN_KEYS,
    "train": _TRAIN_KEYS,
    "task": _TASK_KEYS,
    "outputs": _OUTPUT_KEYS,
}

_REQUIRED = {
    "model": {"num_layers", "hidden_size", "num_heads", "ffn_size",
              "vocab_size", "max_positions", "seed"},
    "plan": {"spec"},
    "train": {"seed"},
    "task": {"kind", "vocab_size", "seq_len", "train_size", "val_size", "seed"},
    "outputs": set(),
}


@dataclass
class RunManifest:
    """A validated manifest. ``train_config.learning_rate`` is None when
    neither the file nor an override sets it; each trained plan then trains
    at its own default rate."""

    model_config: ModelConfig
    model_seed: int
    plan_spec: PlanSpec
    train_config: TrainConfig
    task_spec: TaskSpec
    out_dir: Path


def _parse_sections(path: str | Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ManifestError(f"{path}: {exc}") from exc

    sections: dict[str, dict[str, str]] = {}
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ManifestError(f"{path}: unknown section [{name}]")
        schema = _SECTIONS[name]
        values = dict(parser.items(name))
        for key in values:
            if key not in schema:
                raise ManifestError(f"{path}: unknown key {key!r} in [{name}]")
        sections[name] = values
    for name, required in _REQUIRED.items():
        if required and name not in sections:
            raise ManifestError(f"{path}: missing section [{name}]")
        missing = required - set(sections.get(name, {}))
        if missing:
            raise ManifestError(
                f"{path}: [{name}] is missing required keys {sorted(missing)}")
    return sections


def _convert(section: str, values: dict[str, str]) -> dict:
    schema = _SECTIONS[section]
    out = {}
    for key, raw in values.items():
        try:
            out[key] = schema[key](raw)
        except ValueError as exc:
            raise ManifestError(
                f"[{section}] {key}={raw!r} is not a valid {schema[key].__name__}") from exc
    return out


def load_manifest(path: str | Path, overrides: dict | None = None) -> RunManifest:
    """Parse and validate a manifest; ``overrides`` wins over file values.

    Recognized override keys: spec, seed (train seed), learning_rate,
    batch_size, epochs, out_dir; any other key is ignored. An unset learning
    rate stays None, so each trained plan uses its own default.
    """
    overrides = overrides or {}
    sections = _parse_sections(path)

    model = _convert("model", sections["model"])
    model_seed = model.pop("seed")
    if model_seed < 0:
        raise ManifestError(f"model seed must be >= 0, got {model_seed}")

    plan_text = overrides.get("spec") or sections["plan"]["spec"]
    plan_spec = parse_plan_spec(plan_text)

    task_spec = TaskSpec(**_convert("task", sections["task"]))

    train_raw = _convert("train", sections.get("train", {}))
    betas = (train_raw.pop("beta1", 0.9), train_raw.pop("beta2", 0.999))
    for key in ("learning_rate", "batch_size", "epochs"):
        if overrides.get(key) is not None:
            train_raw[key] = overrides[key]
    train_raw.setdefault("learning_rate", None)
    if overrides.get("seed") is not None:
        train_raw["seed"] = overrides["seed"]
    try:
        train_config = TrainConfig(betas=betas, **train_raw)
        model_config = ModelConfig(num_labels=task_spec.model_num_labels, **model)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc

    out_dir = Path(overrides.get("out_dir")
                   or sections.get("outputs", {}).get("out_dir", "runs"))
    return RunManifest(model_config=model_config, model_seed=model_seed,
                       plan_spec=plan_spec, train_config=train_config,
                       task_spec=task_spec, out_dir=out_dir)
