"""Manifest parsing and the command-line surface, including exit codes."""

import json

import pytest

import spafit.cli as cli
from spafit import errors
from spafit.cli import main
from spafit.errors import ManifestError
from spafit.manifest import load_manifest

MANIFEST = """\
[model]
num_layers = 2
hidden_size = 16
num_heads = 2
ffn_size = 32
vocab_size = 40
max_positions = 16
lora_rank = 4
lora_alpha = 8
dropout_p = 0.1
seed = 3

[plan]
spec = spafit:N1=0,N2=1,mode=II

[train]
learning_rate = 2e-3
batch_size = 16
epochs = 2
seed = 9

[task]
kind = pair_classification
vocab_size = 40
seq_len = 9
train_size = 120
val_size = 60
seed = 5

[outputs]
out_dir = {out_dir}
"""

BERT_LARGE_MANIFEST = """\
[model]
num_layers = 24
hidden_size = 1024
num_heads = 16
ffn_size = 4096
vocab_size = 28996
max_positions = 512
type_vocab_size = 2
lora_rank = 64
lora_alpha = 128
seed = 0

[plan]
spec = spafit:N1=8,N2=12,mode=II

[train]
seed = 0

[task]
kind = pair_classification
vocab_size = 40
seq_len = 9
train_size = 10
val_size = 5
seed = 0
"""


@pytest.fixture
def manifest_path(tmp_path):
    path = tmp_path / "run.manifest"
    path.write_text(MANIFEST.format(out_dir=tmp_path / "out"))
    return path


@pytest.fixture
def bert_manifest_path(tmp_path):
    path = tmp_path / "bert.manifest"
    path.write_text(BERT_LARGE_MANIFEST)
    return path


class TestManifest:
    def test_load_and_fields(self, manifest_path, tmp_path):
        m = load_manifest(manifest_path)
        assert m.model_config.num_layers == 2
        assert m.model_seed == 3
        assert str(m.plan_spec) == "spafit:N1=0,N2=1,mode=II"
        assert m.train_config.learning_rate == 2e-3
        assert m.task_spec.kind == "pair_classification"
        assert m.out_dir == tmp_path / "out"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text(MANIFEST.format(out_dir=tmp_path) + "\nturbo = yes\n")
        with pytest.raises(ManifestError, match="turbo"):
            load_manifest(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text(MANIFEST.format(out_dir=tmp_path) + "\n[extras]\nx = 1\n")
        with pytest.raises(ManifestError, match="extras"):
            load_manifest(path)

    def test_missing_seed_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text(MANIFEST.format(out_dir=tmp_path).replace("seed = 9\n", ""))
        with pytest.raises(ManifestError, match="seed"):
            load_manifest(path)

    def test_overrides_win(self, manifest_path):
        m = load_manifest(manifest_path, {"spec": "fullbitfit", "seed": 77,
                                          "learning_rate": 1e-4, "epochs": 1})
        assert str(m.plan_spec) == "fullbitfit"
        assert m.train_config.seed == 77
        assert m.train_config.learning_rate == 1e-4
        assert m.train_config.epochs == 1

    def test_default_lr_depends_on_plan_kind(self, tmp_path):
        text = MANIFEST.format(out_dir=tmp_path).replace(
            "learning_rate = 2e-3\n", "")
        path = tmp_path / "nolr.manifest"
        path.write_text(text)
        assert load_manifest(path).train_config.learning_rate == 6e-5
        assert load_manifest(path, {"spec": "fullft"}).train_config.learning_rate == 2e-5

    def test_model_num_labels_follows_task(self, tmp_path):
        text = MANIFEST.format(out_dir=tmp_path).replace(
            "kind = pair_classification", "kind = pair_regression")
        path = tmp_path / "reg.manifest"
        path.write_text(text)
        assert load_manifest(path).model_config.num_labels == 1


class TestPlanCommand:
    def test_group_sizes_printed(self, bert_manifest_path, capsys):
        assert main(["plan", "--manifest", str(bert_manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "group sizes: 8/4/12" in out
        assert "layer 9: group 2" in out
        assert "layer 13: group 3" in out

    def test_linear_probing_note(self, bert_manifest_path, capsys):
        code = main(["plan", "--manifest", str(bert_manifest_path),
                     "--spec", "spafit:N1=24,N2=24,mode=I"])
        assert code == 0
        out = capsys.readouterr().out
        assert "group sizes: 24/0/0" in out
        assert "linear probing" in out
        assert "trainable (encoder side): 0" in out

    def test_malformed_spec_exits_2(self, manifest_path, capsys):
        assert main(["plan", "--manifest", str(manifest_path),
                     "--spec", "spafit:bogus"]) == 2
        assert "error" in capsys.readouterr().err


class TestAuditCommand:
    def test_reference_counts_shown(self, bert_manifest_path, capsys):
        assert main(["audit", "--manifest", str(bert_manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "9,437,184" in out
        assert "12,582,912" in out
        assert "333,579,264" in out
        assert "matches published" in out
        assert "differs from published" in out  # the bias-only row

    def test_toy_dims_have_no_published_reference(self, manifest_path, capsys):
        assert main(["audit", "--manifest", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "published" in out
        assert "matches published" not in out


class TestTrainEvalRoundTrip:
    def test_train_then_eval_metric_consistency(self, manifest_path, tmp_path, capsys):
        assert main(["train", "--manifest", str(manifest_path)]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        capsys.readouterr()
        assert main(["eval", "--manifest", str(manifest_path)]) == 0
        evaluated = json.loads(capsys.readouterr().out)
        assert evaluated["metric_value"] == result["metric_value"]
        assert evaluated["metric_name"] == result["metric_name"]

    def test_missing_checkpoint_exits_5(self, manifest_path, capsys):
        assert main(["eval", "--manifest", str(manifest_path),
                     "--model", "/nonexistent/model.ckpt"]) == 5


class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_exits_4(self, manifest_path, capsys):
        code = main(["train", "--manifest", str(manifest_path),
                     "--spec", "fullft", "--lr", "1e9"])
        assert code == 4
        assert "non-finite loss" in capsys.readouterr().err


class TestNonFiniteValues:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("section, line", [
        ("train", "learning_rate = nan"), ("train", "learning_rate = inf"),
        ("train", "weight_decay = nan"), ("train", "eps = 0"),
        ("task", "noise_std = nan"),
    ])
    def test_train_exits_2_before_training(self, tmp_path, capsys, section, line):
        text = MANIFEST.format(out_dir=tmp_path / "out").replace("learning_rate = 2e-3\n", "")
        path = tmp_path / "bad.manifest"
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        assert main(["train", "--manifest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


def _spafit_error_types():
    return [cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.SpafitError)
            and cls is not errors.SpafitError]


def _documented_exit_code(cls) -> int:
    if issubclass(cls, errors.CompatibilityError):
        return 3
    if issubclass(cls, errors.TrainingDivergedError):
        return 4
    if issubclass(cls, errors.CheckpointError):
        return 5
    return 2


class TestErrorExitCodes:
    @pytest.mark.parametrize("cls", _spafit_error_types(), ids=lambda cls: cls.__name__)
    def test_every_error_type_maps_to_its_documented_code(self, manifest_path,
                                                           monkeypatch, capsys, cls):
        exc = cls(1, float("nan")) if cls is errors.TrainingDivergedError else cls("boom")

        def raise_it(args):
            raise exc

        monkeypatch.setattr(cli, "_load", raise_it)
        assert main(["plan", "--manifest", str(manifest_path)]) == _documented_exit_code(cls)
        assert capsys.readouterr().err.startswith("error: ")


class TestCompareCommand:
    def test_csv_rows_and_file(self, manifest_path, tmp_path, capsys):
        code = main(["compare", "--manifest", str(manifest_path),
                     "--spec", "fullbitfit", "--spec", "fulllora-I",
                     "--spec", "spafit:N1=0,N2=1,mode=I", "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "plan,trainable_params,metric,value,best_peft"
        assert len(lines) == 4
        saved = (tmp_path / "out" / "comparison.csv").read_text()
        assert saved == out


class TestAdapterCommands:
    def test_export_swap_round_trip_preserves_metric(self, manifest_path,
                                                     tmp_path, capsys):
        assert main(["train", "--manifest", str(manifest_path)]) == 0
        capsys.readouterr()
        assert main(["eval", "--manifest", str(manifest_path)]) == 0
        before = json.loads(capsys.readouterr().out)

        adapter = tmp_path / "a.adapter"
        assert main(["export-adapter", "--manifest", str(manifest_path),
                     "--adapter", str(adapter)]) == 0
        swapped = tmp_path / "swapped.ckpt"
        assert main(["swap-adapter", "--manifest", str(manifest_path),
                     "--adapter", str(adapter), "--out-model", str(swapped)]) == 0
        capsys.readouterr()
        assert main(["eval", "--manifest", str(manifest_path),
                     "--model", str(swapped)]) == 0
        after = json.loads(capsys.readouterr().out)
        assert after == before

    def test_incompatible_adapter_exits_3(self, manifest_path, tmp_path, capsys):
        assert main(["train", "--manifest", str(manifest_path)]) == 0

        other_manifest = tmp_path / "other.manifest"
        other_manifest.write_text(
            MANIFEST.format(out_dir=tmp_path / "other_out")
            .replace("lora_rank = 4", "lora_rank = 8"))
        assert main(["train", "--manifest", str(other_manifest),
                     "--epochs", "0"]) == 0
        adapter = tmp_path / "other.adapter"
        assert main(["export-adapter", "--manifest", str(other_manifest),
                     "--adapter", str(adapter)]) == 0

        code = main(["swap-adapter", "--manifest", str(manifest_path),
                     "--adapter", str(adapter)])
        assert code == 3
