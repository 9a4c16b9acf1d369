"""Stratified parameter-efficient fine-tuning on a minimal autodiff encoder."""

from .heap import fix_thresholds

fix_thresholds()

from .errors import (
    CheckpointError,
    CompatibilityError,
    ConfigError,
    GraphError,
    InputError,
    ManifestError,
    OptimizerError,
    PlanError,
    ShapeError,
    SpafitError,
    TaskSpecError,
    TrainingDivergedError,
)
from .model import (
    LoraPair,
    ModelConfig,
    ParamStore,
    build_model,
    encoder_layer_forward,
    model_forward,
    param_shapes,
)
from .checkpoint import load_checkpoint_with_plan, save_checkpoint
from .plan import (
    FinetunePlan,
    Group3Mode,
    ParamStatus,
    PlanKind,
    PlanSpec,
    attach_lora,
    closed_form_count,
    compile_plan,
    count_trainable,
    export_adapter,
    lora_delta,
    merge_lora,
    parse_plan_spec,
    swap_adapter,
)
from .optim import AdamW, TrainConfig
from .metrics import accuracy, f1_binary, matthews_corr, pearson_corr
from .tasks import DatasetRecord, TaskSpec, generate_task
from .harness import ComparisonTable, RunResult, compare_configs, evaluate, train_run
from .tensor import Tensor, backward, no_grad

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "CheckpointError",
    "CompatibilityError",
    "ComparisonTable",
    "ConfigError",
    "DatasetRecord",
    "FinetunePlan",
    "GraphError",
    "Group3Mode",
    "InputError",
    "LoraPair",
    "ManifestError",
    "ModelConfig",
    "OptimizerError",
    "ParamStatus",
    "ParamStore",
    "PlanError",
    "PlanKind",
    "PlanSpec",
    "RunResult",
    "ShapeError",
    "SpafitError",
    "TaskSpec",
    "TaskSpecError",
    "Tensor",
    "TrainConfig",
    "TrainingDivergedError",
    "accuracy",
    "attach_lora",
    "backward",
    "build_model",
    "closed_form_count",
    "compare_configs",
    "compile_plan",
    "count_trainable",
    "encoder_layer_forward",
    "evaluate",
    "export_adapter",
    "f1_binary",
    "generate_task",
    "load_checkpoint_with_plan",
    "lora_delta",
    "matthews_corr",
    "merge_lora",
    "model_forward",
    "no_grad",
    "param_shapes",
    "parse_plan_spec",
    "pearson_corr",
    "save_checkpoint",
    "swap_adapter",
    "train_run",
]
