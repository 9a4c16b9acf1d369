"""Fixtures shared across test files."""

import numpy as np
import pytest

import spafit.tensor as T
from spafit.model import ModelConfig, build_model, model_forward
from spafit.plan import attach_lora, compile_plan, parse_plan_spec
from spafit.tasks import TaskSpec, encode_batch, generate_task, labels_array

# The README demo dims, one train-mode batch of 16.
DESK_MODEL = ModelConfig(num_layers=4, hidden_size=32, num_heads=4, ffn_size=64,
                         vocab_size=40, max_positions=16, lora_rank=8, lora_alpha=16,
                         dropout_p=0.1)
DESK_TASK = TaskSpec(kind="pair_classification", vocab_size=40, seq_len=11,
                     train_size=16, val_size=1, seed=0)

_FILE_MANIFEST = """\
[model]
num_layers = 1
hidden_size = 8
num_heads = 2
ffn_size = 16
vocab_size = 30
max_positions = 16
seed = 0

[plan]
spec = fullbitfit

[train]
seed = 0

[task]
kind = pair_classification
vocab_size = 30
seq_len = 9
train_size = 8
val_size = 4
seed = 0

[outputs]
out_dir = {out_dir}
"""


@pytest.fixture
def cli_manifest(tmp_path):
    """A valid manifest for CLI commands that take their model from --model."""
    path = tmp_path / "files.manifest"
    path.write_text(_FILE_MANIFEST.format(out_dir=tmp_path / "out"))
    return path


@pytest.fixture(scope="session")
def desk_loss():
    """Builds ``(store, loss)``: a fresh desk-size store under a plan spec and
    its cross-entropy on one seeded train-mode batch, graph still attached."""
    records, _ = generate_task(DESK_TASK)
    tokens, types = encode_batch(DESK_TASK, records)
    labels = labels_array(DESK_TASK, records)

    def build(spec: str):
        store = build_model(DESK_MODEL, seed=0)
        attach_lora(store, compile_plan(parse_plan_spec(spec), DESK_MODEL), seed=0)
        logits = model_forward(store, tokens, types, mode="train",
                               rng=np.random.default_rng(0))
        return store, T.cross_entropy(logits, labels)

    return build
