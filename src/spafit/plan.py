"""Fine-tune plan compilation, low-rank adapter attachment, and audits.

A plan assigns exactly one status to every parameter path. One rule covers
every parameter-efficient kind: each encoder layer falls in a group, and
the group fixes the status of each of its parameters.

  Group 1   everything frozen
  Group 2   bias vectors of every sub-layer tunable
  Group 3   LoRA on the attention projections (mode I: query/key/value;
            mode II: also the attention output dense); under the stratified
            kind, also tunable biases in the intermediate and output
            sub-layers

The stratified kind splits the 1-based layers at the boundaries N1 and N2:
layers 1..N1 in group 1, N1+1..N2 in group 2, N2+1..L in group 3. The
baselines are the rule applied to every layer: BitFit puts every layer in
group 2, full LoRA every layer in group 3.

The pooler and task head stay tunable under every kind; embeddings train
only under full fine-tuning.

Checkpoints and adapters are read by one reader, ``read_file``, and written
by one writer, ``write_file``, against one layout rule, ``file_layout``: an
adapter holds the tensors its plan trains, a checkpoint every base tensor
plus its plan's factors.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .errors import (
    CheckpointFormatError,
    CompatibilityError,
    PlanError,
    UnknownTensorError,
    _check_int,
)
from .model import (
    INIT_STD,
    LAYER_SUBPATHS,
    LoraPair,
    ModelConfig,
    ParamStore,
    factor_names,
    is_head_path,
    iter_param_shapes,
    layer_number,
    param_shapes,
    read_container,
    total_parameter_count,
    write_container,
)
from .tensor import Tensor

_LORA_SUBPATHS_I = ("attention.self.query.weight",
                    "attention.self.key.weight",
                    "attention.self.value.weight")
_LORA_SUBPATHS_II = _LORA_SUBPATHS_I + ("attention.output.dense.weight",)

# Biases a stratified plan adapts in group-3 layers: the feed-forward
# sub-layers only; the attention sub-layer biases stay frozen there.
_GROUP3_BIAS_SUBPATHS = ("intermediate.dense.bias",
                         "output.dense.bias",
                         "output.LayerNorm.bias")


class ParamStatus(enum.Enum):
    """Fine-tune status of one named parameter.

    LORA_AUGMENTED freezes the base matrix itself; its attached low-rank
    factors carry the trainable degrees of freedom. BIAS_TUNABLE is restricted
    to 1-D bias vectors; TUNABLE trains the tensor directly regardless of
    shape (task head, pooler, and everything under full fine-tuning).
    """

    FROZEN = "frozen"
    BIAS_TUNABLE = "bias_tunable"
    LORA_AUGMENTED = "lora_augmented"
    TUNABLE = "tunable"


TRAINABLE_STATUSES = (ParamStatus.TUNABLE, ParamStatus.BIAS_TUNABLE)


class PlanKind(enum.Enum):
    FULL_FT = "fullft"
    FULL_BITFIT = "fullbitfit"
    FULL_LORA_I = "fulllora-I"
    FULL_LORA_II = "fulllora-II"
    SPAFIT = "spafit"


class Group3Mode(enum.Enum):
    FT_I = "I"
    FT_II = "II"


# Every plan spec ``parse_plan_spec`` reads, for its error and the CLI's help.
PLAN_SPEC_GRAMMAR = " | ".join(
    f"{kind.value}:N1=<i>,N2=<j>,mode=<{'|'.join(mode.value for mode in Group3Mode)}>"
    if kind is PlanKind.SPAFIT else kind.value for kind in PlanKind)


@dataclass(frozen=True)
class PlanSpec:
    """Which fine-tuning recipe to compile; stratified kinds carry N1/N2."""

    kind: PlanKind
    n1: int | None = None
    n2: int | None = None
    group3_mode: Group3Mode | None = None

    def __post_init__(self):
        if self.kind is PlanKind.SPAFIT:
            if self.n1 is None or self.n2 is None or self.group3_mode is None:
                raise PlanError("stratified plans need N1, N2, and mode")
            _check_int(self.n1, "N1", PlanError)
            _check_int(self.n2, "N2", PlanError)
            if self.n1 < 0 or self.n1 > self.n2:
                raise PlanError(f"need 0 <= N1 <= N2, got N1={self.n1} N2={self.n2}")
        elif self.n1 is not None or self.n2 is not None or self.group3_mode is not None:
            raise PlanError(f"{self.kind.value} takes no N1/N2/mode arguments")

    def __str__(self) -> str:
        if self.kind is PlanKind.SPAFIT:
            return f"spafit:N1={self.n1},N2={self.n2},mode={self.group3_mode.value}"
        return self.kind.value


_SPAFIT_RE = re.compile(
    r"^spafit:n1=(\d+),n2=(\d+),mode=(i|ii)$", re.IGNORECASE)

_KIND_ALIASES = {kind.value.lower(): kind for kind in PlanKind
                 if kind is not PlanKind.SPAFIT}


def parse_plan_spec(text: str) -> PlanSpec:
    """Parse a textual plan spec, e.g. ``spafit:N1=8,N2=12,mode=II``."""
    s = text.strip()
    kind = _KIND_ALIASES.get(s.lower())
    if kind is not None:
        return PlanSpec(kind)
    m = _SPAFIT_RE.match(s)
    if m:
        mode = Group3Mode.FT_II if m.group(3).upper() == "II" else Group3Mode.FT_I
        try:
            n1, n2 = int(m.group(1)), int(m.group(2))
        except ValueError as exc:  # past Python's integer string conversion limit
            raise PlanError(f"plan spec layer count too long: {exc}") from exc
        return PlanSpec(PlanKind.SPAFIT, n1, n2, mode)
    raise PlanError(f"unrecognized plan spec {text!r}; expected one of {PLAN_SPEC_GRAMMAR}")


@dataclass(frozen=True)
class FinetunePlan:
    """Compiled per-path status assignment for one model configuration, with
    the layout it implies. Read-only: ``compile_plan`` shares one plan among
    all its callers with equal arguments."""

    spec: PlanSpec
    config: ModelConfig
    assignments: Mapping[str, ParamStatus]
    # Low-rank target paths, in path order.
    lora_targets: tuple[str, ...]
    # Container name -> shape of each low-rank factor: (r, in) for A, (out, r) for B.
    factors: Mapping[str, tuple[int, int]]
    # Container name -> shape of each tensor the plan trains, base paths in path
    # order then ``factors``: what ``ParamStore.trainable_parameters`` yields
    # and an adapter holds.
    trainable: Mapping[str, tuple[int, ...]]

    def group_of_layer(self, layer_num: int) -> int:
        """1-based group of a 1-based encoder layer (stratified kinds only)."""
        if self.spec.kind is not PlanKind.SPAFIT:
            raise PlanError(f"{self.spec} has no layer groups")
        layer_num = _check_int(layer_num, "layer number", PlanError)
        if not 1 <= layer_num <= self.config.num_layers:
            raise PlanError(f"layer {layer_num} is outside the "
                            f"{self.config.num_layers}-layer stack (layers count from 1)")
        return _layer_group(self.spec, layer_num)


def _layer_group(spec: PlanSpec, layer_num: int) -> int:
    """1-based group of a 1-based encoder layer under a parameter-efficient
    spec: the stratified kind splits the stack at N1 and N2, BitFit puts
    every layer in group 2 and full LoRA every layer in group 3."""
    if spec.kind is PlanKind.SPAFIT:
        return 1 if layer_num <= spec.n1 else 2 if layer_num <= spec.n2 else 3
    return 2 if spec.kind is PlanKind.FULL_BITFIT else 3


def _check_fits(spec: PlanSpec, config: ModelConfig) -> None:
    """Raise ``PlanError`` if ``spec``'s group boundaries pass ``config``'s stack."""
    if spec.kind is PlanKind.SPAFIT and spec.n2 > config.num_layers:
        raise PlanError(f"N2={spec.n2} exceeds the {config.num_layers}-layer stack")


@functools.cache
def compile_plan(spec: PlanSpec, config: ModelConfig) -> FinetunePlan:
    """Assign a status to every parameter path of ``config`` under ``spec``
    and derive the layout it implies. Equal arguments return the plan
    compiled first."""
    _check_fits(spec, config)

    mode_ii = spec.kind is PlanKind.FULL_LORA_II or spec.group3_mode is Group3Mode.FT_II
    lora_subs = _LORA_SUBPATHS_II if mode_ii else _LORA_SUBPATHS_I
    group3_biases = _GROUP3_BIAS_SUBPATHS if spec.kind is PlanKind.SPAFIT else ()
    r = config.lora_rank
    assignments: dict[str, ParamStatus] = {}
    targets: list[str] = []
    factors: dict[str, tuple[int, int]] = {}
    trained: dict[str, tuple[int, ...]] = {}

    for path, shape in param_shapes(config).items():
        layer = layer_number(path)
        if spec.kind is PlanKind.FULL_FT or is_head_path(path):
            status = ParamStatus.TUNABLE
        elif layer is None:  # embeddings stay frozen under every PEFT kind
            status = ParamStatus.FROZEN
        else:
            group, sub = _layer_group(spec, layer), path.split(".", 3)[3]
            if group == 3 and sub in lora_subs:
                status = ParamStatus.LORA_AUGMENTED
            elif group == 2 and sub.endswith(".bias") or group == 3 and sub in group3_biases:
                status = ParamStatus.BIAS_TUNABLE
            else:  # all of group 1, and what groups 2 and 3 leave untouched
                status = ParamStatus.FROZEN
        assignments[path] = status
        if status is ParamStatus.LORA_AUGMENTED:
            targets.append(path)
            a_name, b_name = factor_names(path)
            factors[a_name], factors[b_name] = (r, shape[1]), (shape[0], r)
        elif status in TRAINABLE_STATUSES:
            trained[path] = shape

    return FinetunePlan(spec, config, MappingProxyType(assignments), tuple(targets),
                        MappingProxyType(factors), MappingProxyType(trained | factors))


# -- attachment and merging ----------------------------------------------------


def attach_lora(store: ParamStore, plan: FinetunePlan, seed: int) -> ParamStore:
    """Realize ``plan`` on ``store``: set grad flags and attach factor pairs.

    Down factors (A) are seeded Gaussian with std 0.02; up factors (B) start
    at zero, so the forward pass is bit-identical to the base model until
    training moves them. Returns the mutated store.
    """
    rng = np.random.default_rng(seed)
    factors: dict[str, np.ndarray] = {}
    for target in plan.lora_targets:
        a_name, b_name = factor_names(target)
        factors[a_name] = rng.standard_normal(plan.factors[a_name]) * INIT_STD
        factors[b_name] = np.zeros(plan.factors[b_name])
    attach_factors(store, plan, factors)
    return store


def attach_factors(store: ParamStore, plan: FinetunePlan,
                   factors: dict[str, np.ndarray]) -> None:
    """Set every path's grad flag from ``plan`` and attach its factor pairs,
    taking their arrays from ``factors`` by container name. A path trains if
    and only if ``plan.trainable`` holds it. The store is checked before it
    changes: it must hold every path the plan assigns, each trained bias
    1-D and each low-rank target 2-D."""
    if plan.config != store.config:
        raise PlanError("plan was compiled for a different model configuration")
    params = store.params
    if not params.keys() >= plan.assignments.keys():
        missing = next(path for path in plan.assignments if path not in params)
        raise PlanError(f"plan path {missing!r} missing from store")
    for path in plan.trainable:
        if plan.assignments.get(path) is ParamStatus.BIAS_TUNABLE \
                and params[path].data.ndim != 1:
            raise PlanError(f"{path!r} is not a 1-D bias vector")
    for path in plan.lora_targets:
        if params[path].data.ndim != 2:
            raise PlanError(f"low-rank target {path!r} is not a 2-D matrix")

    store.lora.clear()
    for path in plan.assignments:
        params[path].requires_grad = path in plan.trainable
    scaling = store.config.lora_alpha / store.config.lora_rank
    for target in plan.lora_targets:
        a_name, b_name = factor_names(target)
        store.lora[target] = LoraPair(
            down=Tensor(factors[a_name], requires_grad=True),
            up=Tensor(factors[b_name], requires_grad=True),
            scaling=scaling)


def lora_delta(pair: LoraPair) -> np.ndarray:
    """Effective weight update of one pair: scaling * B @ A."""
    return pair.scaling * (pair.up.data @ pair.down.data)


def merge_lora(store: ParamStore) -> ParamStore:
    """Fold every attached pair into its base weight; returns a plain store.

    The input store is left untouched. Merging a store with no attached
    pairs is an error.
    """
    if not store.lora:
        raise PlanError("no low-rank pairs attached; nothing to merge")
    merged = store.clone()
    for target, pair in store.lora.items():
        merged.params[target].data = merged.params[target].data + lora_delta(pair)
        merged.params[target].requires_grad = False
    merged.lora.clear()
    return merged


# -- trainable-parameter audits -------------------------------------------------


def count_trainable(plan: FinetunePlan, config: ModelConfig,
                    include_head: bool = True) -> int:
    """Exact trainable count by enumerating ``plan.trainable``.

    Low-rank targets contribute their factors; their frozen base matrices
    contribute nothing. ``config`` must be the one ``plan`` was compiled for.
    """
    if config != plan.config:
        raise PlanError("plan was compiled for a different model configuration")
    return sum(math.prod(shape) for name, shape in plan.trainable.items()
               if include_head or not is_head_path(name))


def closed_form_count(spec: PlanSpec, config: ModelConfig,
                      include_head: bool = True) -> int:
    """Trainable count from arithmetic alone; must equal the enumeration,
    and refuses the specs ``compile_plan`` refuses."""
    _check_fits(spec, config)
    d, f, L, r = (config.hidden_size, config.ffn_size,
                  config.num_layers, config.lora_rank)
    head = (d * d + d) + (config.num_labels * d + config.num_labels) \
        if include_head else 0
    layer_biases = 7 * d + f
    full_layer = 4 * d * d + 2 * d * f + 9 * d + f
    embeddings = (config.vocab_size + config.max_positions
                  + config.type_vocab_size) * d + 2 * d
    lora_i, lora_ii = 3 * r * 2 * d, 4 * r * 2 * d

    if spec.kind is PlanKind.FULL_FT:
        return embeddings + L * full_layer + head
    if spec.kind is PlanKind.FULL_BITFIT:
        return L * layer_biases + head
    if spec.kind is PlanKind.FULL_LORA_I:
        return L * lora_i + head
    if spec.kind is PlanKind.FULL_LORA_II:
        return L * lora_ii + head
    group2 = (spec.n2 - spec.n1) * layer_biases
    per_layer_lora = lora_ii if spec.group3_mode is Group3Mode.FT_II else lora_i
    group3 = (L - spec.n2) * (per_layer_lora + f + 2 * d)
    return group2 + group3 + head


def published_convention_count(plan: FinetunePlan) -> int:
    """Trainable count under the convention the reference table evidently used.

    Full fine-tuning reports the whole base model minus the classifier (the
    pooler included); every parameter-efficient kind reports the encoder-side
    trainables only (pooler and classifier both excluded).
    """
    if plan.spec.kind is PlanKind.FULL_FT:
        return total_parameter_count(plan.config)
    return count_trainable(plan, plan.config, include_head=False)


# Params (M) reported for BERT-large-cased in the reference comparison. Our
# own bias/stratified counts do not reconcile with several of these entries
# (the bias-only figure matches biases + embeddings + pooler, suggesting a
# different freezing convention); audits print both and flag the difference.
PUBLISHED_COUNTS_M: dict[str, float] = {
    "fullft": 333.58,
    "fullbitfit": 31.52,
    "fulllora-I": 9.44,
    "fulllora-II": 12.59,
    "spafit:N1=8,N2=12,mode=I": 4.44,
    "spafit:N1=8,N2=12,mode=II": 5.88,
    "spafit:N1=8,N2=16,mode=II": 3.81,
    "spafit:N1=4,N2=9,mode=I": 5.65,
    "spafit:N1=4,N2=9,mode=II": 7.49,
    "spafit:N1=4,N2=14,mode=II": 4.89,
}

_REFERENCE_DIMS = dict(num_layers=24, hidden_size=1024, num_heads=16,
                       ffn_size=4096, vocab_size=28996, max_positions=512,
                       type_vocab_size=2, lora_rank=64, lora_alpha=128)


def published_reference_m(spec: PlanSpec, config: ModelConfig) -> float | None:
    """Published Params (M) for this spec, if the config matches the
    reference BERT-large dimensions; None otherwise."""
    for key, value in _REFERENCE_DIMS.items():
        if getattr(config, key) != value:
            return None
    return PUBLISHED_COUNTS_M.get(str(spec))


# -- checkpoint and adapter files -------------------------------------------------


def file_layout(kind: str, config: ModelConfig,
                plan: FinetunePlan | None) -> Mapping[str, tuple[int, ...]]:
    """Container name -> shape of each tensor a file of ``kind`` holds, in
    file order: an adapter holds what ``plan`` trains, a checkpoint every
    base tensor of ``config`` plus the factors ``plan`` attaches."""
    if kind == "adapter":
        return plan.trainable
    return param_shapes(config) | ({} if plan is None else plan.factors)


def read_file(path, kind: str, target: ModelConfig | None = None
              ) -> tuple[ModelConfig, FinetunePlan | None, dict]:
    """The config, recorded plan and tensors of a file of ``kind``. The
    header is checked against its target before anything is built from it:
    the config must equal ``target`` if one is given, and a checkpoint must
    hold at least the tensors of its config's base layout. A header records
    a plan iff its ``plan_spec`` is a string, which must parse and fit the
    file's config; an adapter must record one. Every tensor must be
    ``file_layout``'s: any extra, missing or misshapen one is named."""
    header, tensors = read_container(path)
    if header.get("kind") != kind:
        error, noun = ((CompatibilityError, "an adapter") if kind == "adapter"
                       else (CheckpointFormatError, "a checkpoint"))
        raise error(f"{path}: container kind {header.get('kind')!r} is not {noun}")
    fields = header.get("config")
    try:
        config = ModelConfig(**fields)
    except (TypeError, ValueError) as exc:
        shown = dict(fields) if isinstance(fields, Mapping) else fields
        raise CheckpointFormatError(
            f"{path}: container config {shown!r} is invalid: {exc}") from exc
    if target is not None and config != target:
        raise CompatibilityError(f"{path}: {kind} built for {config} cannot attach to a "
                                 f"store configured {target}")
    if kind == "checkpoint" and len(tensors) < len(param_shapes(replace(
            config, num_layers=0))) + config.num_layers * len(LAYER_SUBPATHS):
        # Found within the first len(tensors) + 1 paths, however many layers
        # the header claims.
        missing = next(name for name, _ in iter_param_shapes(config) if name not in tensors)
        raise UnknownTensorError(f"{path}: missing tensor {missing!r}")
    spec = header.get("plan_spec")
    if spec is None and kind == "adapter":
        raise CheckpointFormatError(f"{path}: adapter records no plan spec")
    try:
        plan = None if spec is None else compile_plan(parse_plan_spec(spec), config)
    except PlanError as exc:
        raise CheckpointFormatError(f"{path}: recorded plan spec is invalid: {exc}") from exc

    layout = file_layout(kind, config, plan)
    for name in tensors:
        if name not in layout:
            raise UnknownTensorError(f"{path}: unknown tensor {name!r}")
    for name, shape in layout.items():
        if name not in tensors:
            raise UnknownTensorError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointFormatError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                f"expected {shape}")
    return config, plan, tensors


def write_file(path, kind: str, store: ParamStore, plan: FinetunePlan | None) -> None:
    """Write the store's tensors a file of ``kind`` holds, in ``file_layout``
    order, with ``plan``'s spec. Nothing is written unless ``plan`` was
    compiled for the store's config and those tensors match the layout."""
    held, tensors = (("trainable tensors", store.trainable_parameters())
                     if kind == "adapter" else ("tensors", store.params | store.factors()))
    spec = None if plan is None else str(plan.spec)
    layout = file_layout(kind, store.config, plan)
    if (plan is not None and plan.config != store.config) \
            or {name: t.data.shape for name, t in tensors.items()} != layout:
        raise PlanError(f"the store's {held} are not those the {kind} layout of "
                        f"plan spec {spec!r} at the store's config holds")
    write_container(path, kind, store.config,
                    {name: tensors[name].data for name in layout}, spec)


def export_adapter(store: ParamStore, plan: FinetunePlan, path) -> None:
    """Write the plan spec plus every trainable value to an adapter file."""
    write_file(path, "adapter", store, plan)


def swap_adapter(store: ParamStore, adapter_path) -> FinetunePlan:
    """Retarget ``store`` to the task captured in an adapter file.

    The file, whose config must be the store's, is checked before the store
    changes. Each tensor any swap has overwritten is written once, with this
    adapter's value or the base value it held before its first swap, so the
    store ends as that base plus this adapter. Returns the plan now
    governing the store.
    """
    _, plan, tensors = read_file(adapter_path, "adapter", store.config)
    attach_factors(store, plan, tensors)
    for path in plan.trainable:
        if path in store.params and path not in store.swapped_base:
            store.swapped_base[path] = store.params[path].data.copy()
    for path, base in store.swapped_base.items():
        store.params[path].data[...] = tensors.get(path, base)
    return plan
