"""Fixtures shared across test files."""

import pytest

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
