"""Sectioned key=value run manifests.

A manifest is the single source of configuration for a CLI invocation:
``[model]``, ``[plan]``, ``[train]``, ``[task]``, and ``[outputs]`` sections
with one ``key = value`` pair per line. Unknown sections or keys are
rejected. ``[model]``, ``[train]`` and ``[task]`` take the fields of
``ModelConfig`` (less ``num_labels``, set by the task), ``TrainConfig`` (with
``betas`` as ``beta1`` and ``beta2``, a missing one taking its
``TrainConfig`` default) and ``TaskSpec``; the three seeds are mandatory so
no run ever depends on the wall clock. An override may set ``spec``,
``out_dir`` or any ``[train]`` key. An error in a value the file sets
starts with the file's path; one in an override does not.
"""

from __future__ import annotations

import configparser
import types
import typing
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .errors import ManifestError, PlanError, TaskSpecError
from .model import ModelConfig
from .optim import TrainConfig
from .plan import PlanSpec, parse_plan_spec
from .tasks import SINGLE_CLASSIFICATION, TaskSpec


def _schema(cls, drop="", spell=None) -> tuple[dict[str, type], set[str]]:
    """Each key with its converter, and the required keys, of the section
    setting dataclass ``cls``: its fields but ``drop`` (required if without a
    default), a ``spell`` field as one key per tuple member, a required ``seed``."""
    hints, spell = typing.get_type_hints(cls), spell or {}
    keys, required = {"seed": int}, {"seed"}
    for field in fields(cls):
        if field.name == drop:
            continue
        hint = hints[field.name]
        kinds = typing.get_args(hint) if field.name in spell else (hint,)
        for name, kind in zip(spell.get(field.name, (field.name,)), kinds, strict=True):
            if typing.get_origin(kind) in (typing.Union, types.UnionType):  # its non-None member
                kind = typing.Union[tuple(t for t in typing.get_args(kind) if t is not type(None))]
            if kind not in (int, float, str):
                raise TypeError(f"{cls.__name__}.{field.name}: no manifest spelling for {kind}")
            keys[name] = kind
            if field.default is MISSING and field.default_factory is MISSING:
                required.add(name)
    return keys, required


# Section -> (key -> converter, required keys).
_SECTIONS = {
    "model": _schema(ModelConfig, drop="num_labels"),
    "plan": ({"spec": str}, {"spec"}),
    "train": _schema(TrainConfig, spell={"betas": ("beta1", "beta2")}),
    "task": _schema(TaskSpec),
    "outputs": ({"out_dir": str}, set()),
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
        sections[name] = values = dict(parser.items(name))
        for key in values:
            if key not in _SECTIONS[name][0]:
                raise ManifestError(f"{path}: unknown key {key!r} in [{name}]")
    for name, (_, required) in _SECTIONS.items():
        if required and name not in sections:
            raise ManifestError(f"{path}: missing section [{name}]")
        missing = required - set(sections.get(name, {}))
        if missing:
            raise ManifestError(
                f"{path}: [{name}] is missing required keys {sorted(missing)}")
    return sections


def _convert(section: str, values: dict[str, str]) -> dict:
    schema = _SECTIONS[section][0]
    out = {}
    for key, raw in values.items():
        try:
            out[key] = schema[key](raw)
        except ValueError as exc:
            raise ManifestError(
                f"[{section}] {key}={raw!r} is not a valid {schema[key].__name__}") from exc
    return out


# Keys an override may set: the plan spec, the output directory and every
# ``[train]`` key.
_OVERRIDE_KEYS = ("spec", "out_dir", *_SECTIONS["train"][0])


def _settle(values: dict, plan_spec: PlanSpec | None, train_config: TrainConfig,
            out_dir: str | None) -> tuple[PlanSpec, TrainConfig, str]:
    """``plan_spec``, ``train_config`` and ``out_dir`` with the keys of
    ``values`` set and checked: ``spec``, ``out_dir`` and ``[train]`` keys,
    where ``beta1`` and ``beta2`` each set one member of ``betas``."""
    values = dict(values)
    if "spec" in values:
        plan_spec = parse_plan_spec(values.pop("spec"))
    if "out_dir" in values:
        out_dir = values.pop("out_dir")
        if not out_dir:
            raise ManifestError("out_dir must not be empty")
    betas = (values.pop("beta1", train_config.betas[0]),
             values.pop("beta2", train_config.betas[1]))
    try:
        train_config = replace(train_config, betas=betas, **values)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    return plan_spec, train_config, out_dir


def load_manifest(path: str | Path, overrides: dict | None = None) -> RunManifest:
    """Parse and validate a manifest; ``overrides`` wins over file values.

    Recognized override keys: spec, out_dir and every ``[train]`` key (seed
    is the train seed); any other key is ignored. An override that is not
    None is used, even an empty one, and the file value it replaces must
    read as its type but is not otherwise checked. An error in a value the
    file sets starts with the file's path; one in an override does not. An
    unset learning rate stays None, so each trained plan uses its own
    default.
    """
    overrides = overrides or {}
    overrides = {key: overrides[key] for key in _OVERRIDE_KEYS
                 if overrides.get(key) is not None}
    sections = _parse_sections(path)
    try:
        model = _convert("model", sections["model"])
        model_seed = model.pop("seed")
        if model_seed < 0:
            raise ManifestError(f"model seed must be >= 0, got {model_seed}")
        task_spec = TaskSpec(**_convert("task", sections["task"]))
        try:
            model_config = ModelConfig(num_labels=task_spec.model_num_labels, **model)
        except ValueError as exc:
            raise ManifestError(str(exc)) from exc
        # The model must embed every token id and position the task generates;
        # checked here, before any data is generated or any model built.
        if task_spec.vocab_size > model_config.vocab_size:
            raise ManifestError(
                f"[task] vocab_size {task_spec.vocab_size} exceeds [model] vocab_size "
                f"{model_config.vocab_size}: the model cannot embed the task's token ids")
        if task_spec.seq_len > model_config.max_positions:
            raise ManifestError(
                f"[task] seq_len {task_spec.seq_len} exceeds [model] max_positions "
                f"{model_config.max_positions}: the model cannot embed the task's positions")
        if task_spec.kind != SINGLE_CLASSIFICATION and model_config.type_vocab_size < 2:
            raise ManifestError(
                f"[model] type_vocab_size {model_config.type_vocab_size} is below 2: a pair "
                f"task's second segment has type id 1")
        given = {"spec": sections["plan"]["spec"],
                 "out_dir": sections.get("outputs", {}).get("out_dir", "runs"),
                 **_convert("train", sections.get("train", {}))}
        settled = _settle({key: value for key, value in given.items() if key not in overrides},
                          None, TrainConfig(), None)
    except (ManifestError, TaskSpecError, PlanError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    plan_spec, train_config, out_dir = _settle(overrides, *settled)
    return RunManifest(model_config=model_config, model_seed=model_seed,
                       plan_spec=plan_spec, train_config=train_config,
                       task_spec=task_spec, out_dir=Path(out_dir))
