"""Manifest parsing and the command-line surface, including exit codes."""

import argparse
import csv
import json

import numpy as np
import pytest

import spafit.cli as cli
import spafit.harness as harness
from spafit import errors
from spafit.checkpoint import load_checkpoint_with_plan, read_container, save_checkpoint
from spafit.cli import main
from spafit.errors import ManifestError, SpafitError
from spafit.manifest import load_manifest
from spafit.model import build_model
from spafit.plan import attach_lora, compile_plan

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


def _set_keys(text: str, section: str, lines: str) -> str:
    """``text`` with each ``key = value`` of ``lines`` set in ``[section]``,
    replacing the key's line where the section already has one."""
    head, _, rest = text.partition(f"[{section}]\n")
    body, sep, tail = rest.partition("\n[")
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in body.splitlines() if line.split("=")[0].strip() not in keys]
    return f"{head}[{section}]\n" + "\n".join([*lines.splitlines(), *kept]) + sep + tail


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

    def test_non_utf8_manifest_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_bytes(MANIFEST.format(out_dir=tmp_path).encode().replace(
            b"seed = 3", b"seed = \xff3"))
        with pytest.raises(ManifestError, match="utf-8"):
            load_manifest(path)

    def test_overrides_win(self, manifest_path):
        m = load_manifest(manifest_path, {"spec": "fullbitfit", "seed": 77,
                                          "learning_rate": 1e-4, "epochs": 1})
        assert str(m.plan_spec) == "fullbitfit"
        assert m.train_config.seed == 77
        assert m.train_config.learning_rate == 1e-4
        assert m.train_config.epochs == 1

    def test_default_lr_depends_on_plan_kind(self, tmp_path, capsys):
        path = tmp_path / "nolr.manifest"
        path.write_text(MANIFEST.format(out_dir=tmp_path / "out").replace(
            "learning_rate = 2e-3\n", ""))
        for flags, rate in (([], 6e-5), (["--spec", "fullft"], 2e-5)):
            assert main(["train", "--manifest", str(path), "--epochs", "0", *flags]) == 0
            result = json.loads((tmp_path / "out" / "result.json").read_text())
            assert result["hyperparameters"]["learning_rate"] == rate

    def test_model_num_labels_follows_task(self, tmp_path):
        text = MANIFEST.format(out_dir=tmp_path).replace(
            "kind = pair_classification", "kind = pair_regression")
        path = tmp_path / "reg.manifest"
        path.write_text(text)
        assert load_manifest(path).model_config.num_labels == 1


def _manifest_mutations(raw: bytes, seed: int, count: int):
    """Seeded byte flips, truncations, and line deletions or duplications."""
    rng = np.random.default_rng(seed)
    lines = raw.splitlines(keepends=True)
    for _ in range(count):
        kind = rng.integers(4)
        if kind == 0:
            data = bytearray(raw)
            data[int(rng.integers(len(raw)))] ^= int(rng.integers(1, 256))
            yield bytes(data)
        elif kind == 1:
            yield raw[:int(rng.integers(len(raw)))]
        else:
            edited = list(lines)
            i = int(rng.integers(len(lines)))
            if kind == 2:
                del edited[i]
            else:
                edited.insert(i, lines[i])
            yield b"".join(edited)


def test_seeded_manifest_fuzz_raises_only_spafit_errors(tmp_path, capsys):
    """Every mutated manifest either loads or raises a ``SpafitError``;
    through ``plan`` it ends in 0 or the usage code 2."""
    raw = MANIFEST.format(out_dir=tmp_path / "out").encode()
    path = tmp_path / "fuzz.manifest"
    outcomes = {"loaded": 0, "rejected": 0}
    for i, mutated in enumerate(_manifest_mutations(raw, seed=0, count=200)):
        path.write_bytes(mutated)
        try:
            load_manifest(path)
            outcomes["loaded"] += 1
        except SpafitError:
            outcomes["rejected"] += 1
        if i % 20 == 0:
            assert main(["plan", "--manifest", str(path)]) in (0, 2)
    assert min(outcomes.values()) > 0, outcomes
    assert not (tmp_path / "out").exists()


# The flags each command takes besides --manifest: exactly those it reads.
COMMAND_FLAGS = {
    "plan": {"--spec"},
    "audit": {"--spec"},
    "train": {"--spec", "--seed", "--lr", "--batch", "--epochs", "--out"},
    "eval": {"--out", "--model"},
    "compare": {"--spec", "--seed", "--lr", "--batch", "--epochs", "--out"},
    "export-adapter": {"--spec", "--out", "--model", "--adapter"},
    "swap-adapter": {"--out", "--model", "--adapter", "--out-model"},
}
OVERRIDE_FLAGS = ("--spec", "--seed", "--lr", "--batch", "--epochs", "--out")
REMOVED_FLAGS = [(command, flag) for command, flags in COMMAND_FLAGS.items()
                 for flag in OVERRIDE_FLAGS if flag not in flags]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestFlagSurface:
    def test_each_command_declares_only_the_flags_it_reads(self):
        declared = {
            name: [opt for action in sub._actions for opt in action.option_strings
                   if opt not in ("-h", "--help")]
            for name, sub in _subparsers().items()}
        assert {name: set(opts) for name, opts in declared.items()} == \
            {name: flags | {"--manifest"} for name, flags in COMMAND_FLAGS.items()}
        assert sum(len(opts) for opts in declared.values()) == 31
        assert len(REMOVED_FLAGS) == 24

    @pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                             ids=[f"{c}{f}" for c, f in REMOVED_FLAGS])
    def test_flag_a_command_does_not_read_is_a_usage_error(self, cli_manifest, tmp_path,
                                                           capsys, command, flag):
        argv = [command, "--manifest", str(cli_manifest), flag, "1"]
        if command == "swap-adapter":
            argv += ["--adapter", str(tmp_path / "missing.adapter")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_override_flags_reach_the_manifest(self, manifest_path, tmp_path):
        args = cli.build_parser().parse_args([
            "train", "--manifest", str(manifest_path), "--spec", "fullft", "--seed", "4",
            "--lr", "0.5", "--batch", "3", "--epochs", "7", "--out", str(tmp_path / "o")])
        m = cli._load(args)
        assert str(m.plan_spec) == "fullft"
        assert (m.train_config.seed, m.train_config.learning_rate,
                m.train_config.batch_size, m.train_config.epochs) == (4, 0.5, 3, 7)
        assert m.out_dir == tmp_path / "o"

    def test_empty_spec_flag_is_used(self, manifest_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "train_run", _refuse_to_train)
        assert main(["train", "--manifest", str(manifest_path), "--spec", ""]) == 2
        assert capsys.readouterr().err.startswith("error: unrecognized plan spec ''")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, line", [(["--out", ""], None), ([], "out_dir =")],
                             ids=["flag", "manifest"])
    def test_empty_out_dir_exits_2(self, tmp_path, capsys, monkeypatch, flags, line):
        path = tmp_path / "run.manifest"
        text = MANIFEST.format(out_dir=tmp_path / "out")
        path.write_text(text if line is None else _set_keys(text, "outputs", line))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "generate_task", _refuse_to_generate)
        with pytest.raises(ManifestError, match="out_dir"):
            load_manifest(path, {"out_dir": "" if flags else None})
        assert main(["train", "--manifest", str(path), *flags]) == 2
        assert capsys.readouterr().err == "error: out_dir must not be empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.manifest"]

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--model"), ("export-adapter", "--adapter"), ("swap-adapter", "--out-model")])
    def test_empty_path_flag_exits_2(self, manifest_path, tmp_path, capsys, command, flag):
        """An empty path is a usage error naming the flag, not the flag's
        default: eval does not read <out>/model.ckpt, export-adapter does not
        write <out>/adapter.bin, swap-adapter does not overwrite its input."""
        out = tmp_path / "out"
        adapter = tmp_path / "a.adapter"
        assert main(["train", "--manifest", str(manifest_path), "--epochs", "0"]) == 0
        assert main(["export-adapter", "--manifest", str(manifest_path),
                     "--adapter", str(adapter)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        argv = [command, "--manifest", str(manifest_path), flag, ""]
        if command == "swap-adapter":
            argv += ["--adapter", str(adapter)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must not be empty" in captured.err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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

    def test_eval_against_a_different_head_exits_2(self, tmp_path, capsys):
        """A regression checkpoint (one output) against a 3-label task."""
        regression, three_labels = tmp_path / "reg.manifest", tmp_path / "three.manifest"
        text = MANIFEST.format(out_dir=tmp_path / "out")
        regression.write_text(_set_keys(text, "task", "kind = pair_regression"))
        three_labels.write_text(_set_keys(
            text, "task", "kind = single_sentence_classification\nnum_labels = 3"))
        assert main(["train", "--manifest", str(regression), "--epochs", "0"]) == 0
        capsys.readouterr()
        assert main(["eval", "--manifest", str(three_labels)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: model head has 1 outputs but the "
                                "single_sentence_classification task needs 3\n")

    def test_missing_checkpoint_exits_5(self, manifest_path, capsys):
        assert main(["eval", "--manifest", str(manifest_path),
                     "--model", "/nonexistent/model.ckpt"]) == 5


class TestDivergence:
    # No test here ignores RuntimeWarning: ``main`` runs each command with
    # numpy's floating-point warnings off, so a diverged run reports itself
    # in its one ``error:`` line alone.
    def test_divergent_training_exits_4(self, manifest_path, capsys):
        code = main(["train", "--manifest", str(manifest_path),
                     "--spec", "fullft", "--lr", "1e9"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("kind", ["pair_classification", "pair_regression"])
    def test_one_diverged_update_exits_4_without_a_score(self, tmp_path, capsys, kind):
        """One step at rate 1e300: its loss was finite, and the weights it
        leaves (near 1e300) are too, but no validation logit is. Neither
        command scores the run or writes anything."""
        path = tmp_path / "diverged.manifest"
        text = _set_keys(MANIFEST.format(out_dir=tmp_path / "out"), "train",
                         "learning_rate = 1e300\nepochs = 1")
        path.write_text(_set_keys(text, "task", f"kind = {kind}\ntrain_size = 8"))
        for command in (["train"], ["compare", "--spec", "spafit:N1=0,N2=1,mode=II"]):
            assert main([*command, "--manifest", str(path)]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: non-finite model output")
            assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_eval_of_a_checkpoint_with_non_finite_outputs_exits_4(self, manifest_path,
                                                                   tmp_path, capsys):
        """Finite weights whose logits overflow: eval prints no metric."""
        assert main(["train", "--manifest", str(manifest_path), "--epochs", "0"]) == 0
        ckpt = tmp_path / "out" / "model.ckpt"
        store, plan = load_checkpoint_with_plan(ckpt)
        store.params["pooler.dense.weight"].data[...] = 1e300
        store.params["classifier.weight"].data[...] = 1e308
        save_checkpoint(store, ckpt, plan)
        capsys.readouterr()
        assert main(["eval", "--manifest", str(manifest_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: non-finite model output")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("kind", ["pair_classification", "pair_regression"])
    def test_healthy_commands_raise_no_floating_point_error(self, tmp_path, kind):
        """``main`` silences overflow and invalid values; the commands it runs
        meet neither on a healthy run, nor a division by zero."""
        path = tmp_path / "run.manifest"
        path.write_text(_set_keys(MANIFEST.format(out_dir=tmp_path / "out"), "task",
                                  f"kind = {kind}"))
        for command in (["train"], ["eval"], ["compare", "--spec", "fulllora-II"]):
            args = cli.build_parser().parse_args([*command, "--manifest", str(path)])
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                assert args.fn(args, cli._load(args)) == 0


def _refuse_to_train(*args, **kwargs):
    raise AssertionError("train_run entered")


class TestNonFiniteValues:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("section, line", [
        ("train", "learning_rate = nan"), ("train", "learning_rate = inf"),
        ("train", "weight_decay = nan"), ("train", "eps = 0"),
        ("task", "noise_std = nan"),
        ("task", "metric = f2"),
        ("task", "metric = pearson"),
        ("task", "kind = pair_regression\nmetric = accuracy"),
        ("task", "kind = single_sentence_classification\nnum_labels = 3\nmetric = f1"),
        ("model", "seed = -1"), ("train", "seed = -1"), ("task", "seed = -1"),
        *[("task", f"kind = pair_regression\nnum_labels = {n}") for n in (-1, 0, 1, 3)],
    ])
    def test_train_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                           section, line):
        path = tmp_path / "bad.manifest"
        path.write_text(_set_keys(MANIFEST.format(out_dir=tmp_path / "out"), section, line))
        with pytest.raises(SpafitError):
            load_manifest(path)
        monkeypatch.setattr(harness, "train_run", _refuse_to_train)
        assert main(["train", "--manifest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exits_2(self, manifest_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "train_run", _refuse_to_train)
        assert main(["train", "--manifest", str(manifest_path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: train seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()


def _refuse_to_generate(*args, **kwargs):
    raise AssertionError("generate_task entered")


class TestModelFitsTask:
    """A task the model cannot embed is a manifest error, raised before any
    data is generated."""

    @pytest.mark.parametrize("section, line, keys", [
        ("task", "vocab_size = 1000000000000", ("[task] vocab_size", "[model] vocab_size")),
        ("task", "vocab_size = 100000000000000000000",
         ("[task] vocab_size", "[model] vocab_size")),
        ("task", "vocab_size = 400", ("[task] vocab_size", "[model] vocab_size")),
        ("task", "seq_len = 17", ("[task] seq_len", "[model] max_positions")),
        ("model", "max_positions = 8", ("[task] seq_len", "[model] max_positions")),
        ("model", "type_vocab_size = 1", ("[model] type_vocab_size", "pair task")),
    ])
    def test_train_exits_2_before_generating_data(self, tmp_path, capsys, monkeypatch,
                                                  section, line, keys):
        path = tmp_path / "misfit.manifest"
        path.write_text(_set_keys(MANIFEST.format(out_dir=tmp_path / "out"), section, line))
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert all(key in str(info.value) for key in keys), info.value
        monkeypatch.setattr(cli, "generate_task", _refuse_to_generate)
        monkeypatch.setattr(harness, "train_run", _refuse_to_train)
        assert main(["train", "--manifest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("val_size", [1, 2])
    def test_small_regression_split_exits_2_before_generating_data(
            self, tmp_path, capsys, monkeypatch, val_size):
        """Pearson correlation needs three validation records to mean
        anything; fewer are refused when the manifest loads, not after
        training."""
        path = tmp_path / "small.manifest"
        path.write_text(_set_keys(MANIFEST.format(out_dir=tmp_path / "out"), "task",
                                  f"kind = pair_regression\nval_size = {val_size}"))
        monkeypatch.setattr(cli, "generate_task", _refuse_to_generate)
        monkeypatch.setattr(harness, "train_run", _refuse_to_train)
        assert main(["train", "--manifest", str(path)]) == 2
        assert "val_size >= 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_regression_split_with_one_validation_score_exits_2_before_building(
            self, tmp_path, capsys, monkeypatch):
        """All three validation scores of this split are 1.25, so its
        correlation is undefined: refused once the data is generated, before
        a model is built or trained."""
        path = tmp_path / "flat.manifest"
        path.write_text(_set_keys(MANIFEST.format(out_dir=tmp_path / "out"), "task",
                                  "kind = pair_regression\nseq_len = 11\ntrain_size = 200\n"
                                  "val_size = 3\nnoise_std = 0.0\nseed = 93"))
        monkeypatch.setattr(harness, "build_model",
                            lambda *args: pytest.fail("build_model entered"))
        monkeypatch.setattr(harness, "train_run", _refuse_to_train)
        assert main(["train", "--manifest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "correlation is undefined" in err
        assert not (tmp_path / "out" / "model.ckpt").exists()

    def test_task_filling_the_model_exactly_loads(self, tmp_path):
        path = tmp_path / "edge.manifest"
        path.write_text(_set_keys(MANIFEST.format(out_dir=tmp_path / "out"), "task",
                                  "seq_len = 16"))
        m = load_manifest(path)
        assert m.task_spec.vocab_size == m.model_config.vocab_size
        assert m.task_spec.seq_len == m.model_config.max_positions


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
        assert lines[0] == "plan,trainable_params,learning_rate,metric,value,best_peft"
        assert len(lines) == 4
        saved = (tmp_path / "out" / "comparison.csv").read_text()
        assert saved == out

    @staticmethod
    def _rates(path):
        with open(path, newline="") as fh:
            return {row["plan"]: float(row["learning_rate"]) for row in csv.DictReader(fh)}

    @pytest.mark.parametrize("flags, rate", [([], 2e-3), (["--lr", "5e-4"], 5e-4)])
    def test_given_rate_applies_to_every_row(self, manifest_path, tmp_path, capsys,
                                             flags, rate):
        assert main(["compare", "--manifest", str(manifest_path), "--spec", "fullft",
                     "--spec", "fullbitfit", "--epochs", "0", *flags]) == 0
        rates = self._rates(tmp_path / "out" / "comparison.csv")
        assert rates == {"fullft": rate, "fullbitfit": rate}

    def test_each_row_trains_at_its_own_default(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "nolr.manifest"
        path.write_text(MANIFEST.format(out_dir=tmp_path / "out").replace(
            "learning_rate = 2e-3\n", ""))
        trained = []

        class Recording(harness.AdamW):
            def __init__(self, params, cfg):
                trained.append(cfg.learning_rate)
                super().__init__(params, cfg)

        monkeypatch.setattr(harness, "AdamW", Recording)
        specs = ["fullft", "spafit:N1=0,N2=1,mode=II", "fullbitfit"]
        assert main(["compare", "--manifest", str(path), "--epochs", "1",
                     *[arg for spec in specs for arg in ("--spec", spec)]]) == 0
        assert trained == [2e-5, 6e-5, 6e-5]
        assert self._rates(tmp_path / "out" / "comparison.csv") == dict(zip(specs, trained))

    def test_unfit_spec_exits_2_before_any_row_trains(self, manifest_path, tmp_path,
                                                       capsys, monkeypatch):
        """Every spec is compiled before the first row trains, so a spec the
        2-layer model cannot take stops the command before fullft trains."""
        monkeypatch.setattr(harness, "train_run", _refuse_to_train)
        assert main(["compare", "--manifest", str(manifest_path), "--spec", "fullft",
                     "--spec", "spafit:N1=1,N2=9,mode=II"]) == 2
        assert "N2=9" in capsys.readouterr().err
        assert not (tmp_path / "out" / "comparison.csv").exists()


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

    def test_export_from_a_checkpoint_without_a_plan(self, manifest_path, tmp_path):
        """A base checkpoint records no plan: export-adapter compiles the
        manifest's spec and draws its factors from the model seed."""
        m = load_manifest(manifest_path)
        base = build_model(m.model_config, seed=m.model_seed)
        ckpt, adapter = tmp_path / "base.ckpt", tmp_path / "a.adapter"
        save_checkpoint(base, ckpt)
        assert main(["export-adapter", "--manifest", str(manifest_path),
                     "--model", str(ckpt), "--adapter", str(adapter)]) == 0
        plan = compile_plan(m.plan_spec, m.model_config)
        expected = attach_lora(base, plan, seed=m.model_seed).trainable_parameters()
        header, tensors = read_container(adapter)
        assert header["plan_spec"] == str(plan.spec)
        assert list(tensors) == list(expected)
        for name, arr in tensors.items():
            np.testing.assert_array_equal(arr, expected[name].data)

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
