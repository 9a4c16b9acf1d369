"""Full checkpoints: every base tensor of a ``ParamStore`` plus the LoRA
factors of the plan it records. They are read and written by the one file
reader and writer of ``spafit.plan``, which adapters share; the container
functions of ``spafit.model`` are re-exported here.
"""

from __future__ import annotations

from pathlib import Path

from .model import ParamStore, param_shapes, read_container, write_container
from .plan import FinetunePlan, attach_factors, read_file, write_file
from .tensor import Tensor

__all__ = ["load_checkpoint_with_plan", "read_container", "save_checkpoint", "write_container"]


def save_checkpoint(store, path: str | Path, plan: FinetunePlan | None = None) -> None:
    """Write every base tensor plus the LoRA factors ``plan`` attaches, and
    record the plan's spec (a store with pairs needs a plan)."""
    write_file(path, "checkpoint", store, plan)


def load_checkpoint_with_plan(path: str | Path):
    """Rebuild a ParamStore (and its plan attachment, if recorded).

    Strict: the file must contain exactly the base paths implied by its own
    config, plus factor tensors for the recorded plan's targets. Anything
    extra, missing or misshapen is rejected by name.
    """
    config, plan, tensors = read_file(path, "checkpoint")
    store = ParamStore(config)
    for name in param_shapes(config):
        store.params[name] = Tensor(tensors[name], requires_grad=True)
    if plan is not None:
        attach_factors(store, plan, tensors)
    return store, plan
