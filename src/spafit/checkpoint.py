"""Full checkpoints: every base tensor of a ``ParamStore`` plus the LoRA
factors of the plan it records, in the tensor container of ``spafit.model``.
"""

from __future__ import annotations

from pathlib import Path

from .errors import CheckpointFormatError, PlanError
from .model import (
    ParamStore,
    check_tensors,
    config_from_header,
    param_shapes,
    read_container,
    write_container,
)
from .plan import FinetunePlan, attach_factors, recorded_plan
from .tensor import Tensor


def save_checkpoint(store, path: str | Path, plan: FinetunePlan | None = None) -> None:
    """Write every base tensor plus the LoRA factors ``plan`` attaches, and
    record the plan's spec. The loader expects the base tensors its config
    implies and attaches factors from that spec, so ``plan`` must be compiled
    for the store's config and the store must hold exactly those tensors, in
    those shapes; otherwise nothing is written."""
    spec = None if plan is None else str(plan.spec)
    tensors = {name: t.data for name, t in (store.params | store.factors()).items()}
    expected = param_shapes(store.config) | ({} if plan is None else plan.factors)
    if {name: arr.shape for name, arr in tensors.items()} != expected \
            or (plan is not None and plan.config != store.config):
        raise PlanError(f"plan spec {spec!r} and the store's config do not "
                        "match the tensors the store holds")
    write_container(path, "checkpoint", store.config, tensors, spec)


def load_checkpoint_with_plan(path: str | Path):
    """Rebuild a ParamStore (and its plan attachment, if recorded).

    Strict: the file must contain exactly the base paths implied by its own
    config, plus factor tensors for the recorded plan's targets. Anything
    extra, missing or misshapen is rejected by name.
    """
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
                  base_shapes | (plan.factors if plan is not None else {}))

    store = ParamStore(config)
    for name in base_shapes:
        store.params[name] = Tensor(tensors[name], requires_grad=True)
    if plan is not None:
        attach_factors(store, plan, tensors)
    return store, plan
