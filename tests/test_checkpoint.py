"""Checkpoint container: byte-exact round trips and strict load validation."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from spafit.checkpoint import (
    load_checkpoint_with_plan,
    read_container,
    save_checkpoint,
    write_container,
)
from spafit.cli import main
from spafit.errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    CompatibilityError,
    PlanError,
    UnknownTensorError,
)
from spafit.manifest import load_manifest
from spafit.model import FORMAT_VERSION, MAGIC, ModelConfig, build_model
from spafit.plan import (
    attach_lora,
    compile_plan,
    export_adapter,
    parse_plan_spec,
    swap_adapter,
)

CFG = ModelConfig(num_layers=2, hidden_size=8, num_heads=2, ffn_size=16,
                  vocab_size=20, max_positions=12, lora_rank=2, lora_alpha=4)


@pytest.fixture
def store():
    return build_model(CFG, seed=5)


def test_round_trip_bit_exact(store, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    loaded, plan = load_checkpoint_with_plan(path)
    assert plan is None and loaded.config == CFG
    assert list(loaded.params) == list(store.params)
    for p in store.params:
        np.testing.assert_array_equal(loaded.params[p].data, store.params[p].data)


def test_round_trip_with_attached_plan(store, tmp_path):
    plan = compile_plan(parse_plan_spec("spafit:N1=0,N2=1,mode=II"), CFG)
    attach_lora(store, plan, seed=9)
    store.lora["encoder.layer.1.attention.self.query.weight"].up.data[:] = 0.5
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path, plan)
    loaded, loaded_plan = load_checkpoint_with_plan(path)
    assert loaded_plan is plan
    assert set(loaded.lora) == set(store.lora)
    for target, pair in store.lora.items():
        np.testing.assert_array_equal(loaded.lora[target].down.data, pair.down.data)
        np.testing.assert_array_equal(loaded.lora[target].up.data, pair.up.data)
    assert {n: t.requires_grad for n, t in (loaded.params | loaded.factors()).items()} \
        == {n: t.requires_grad for n, t in (store.params | store.factors()).items()}


def test_saving_pairs_without_plan_spec_rejected(store, tmp_path):
    """The loader attaches factors from the plan spec, so a file holding
    factors without one could not be read back; nothing is written."""
    attach_lora(store, compile_plan(parse_plan_spec("fulllora-I"), CFG), seed=9)
    path = tmp_path / "model.ckpt"
    with pytest.raises(PlanError, match="plan spec"):
        save_checkpoint(store, path)
    assert not path.exists()


@pytest.mark.parametrize("attached, saved, config", [
    ("fulllora-I", "fullbitfit", CFG), ("fulllora-I", "fulllora-II", CFG),
    ("fullbitfit", "fulllora-I", CFG),
    ("fullbitfit", "spafit:N1=0,N2=9,mode=I", replace(CFG, num_layers=9))])
def test_plan_spec_not_matching_pairs_rejected(store, tmp_path, attached, saved, config):
    """The loader attaches exactly the factors ``saved`` names at the
    store's config, so a file whose factors differ, or whose plan does not
    fit that config, could not be read back; nothing is written."""
    attach_lora(store, compile_plan(parse_plan_spec(attached), CFG), seed=9)
    path = tmp_path / "model.ckpt"
    with pytest.raises(PlanError, match="plan spec"):
        save_checkpoint(store, path, compile_plan(parse_plan_spec(saved), config))
    assert not path.exists()


@pytest.mark.parametrize("path, value", [
    ("classifier.bias", None), ("pooler.dense.bias", np.zeros(9))])
def test_store_not_matching_its_config_rejected(store, tmp_path, path, value):
    """The loader expects exactly the base tensors the config implies, so a
    store missing one, or holding one misshapen, is not written."""
    if value is None:
        del store.params[path]
    else:
        store.params[path].data = value
    out = tmp_path / "model.ckpt"
    with pytest.raises(PlanError, match="plan spec None"):
        save_checkpoint(store, out)
    assert not out.exists()


def test_corrupt_magic_rejected(store, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint_with_plan(path)


def test_version_mismatch_rejected(store, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    raw = bytearray(path.read_bytes())
    raw[4] = FORMAT_VERSION + 1
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint_with_plan(path)


def test_truncated_payload_rejected(store, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 16])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint_with_plan(path)


def test_extra_unknown_tensor_rejected_by_name(store, tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {p: t.data for p, t in store.params.items()}
    tensors["mystery.weight"] = np.zeros(3)
    write_container(path, "checkpoint", CFG, tensors)
    with pytest.raises(UnknownTensorError, match="mystery.weight"):
        load_checkpoint_with_plan(path)


def test_missing_tensor_rejected_by_name(store, tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {p: t.data for p, t in store.params.items()}
    tensors.pop("pooler.dense.bias")
    write_container(path, "checkpoint", CFG, tensors)
    with pytest.raises(UnknownTensorError, match="pooler.dense.bias"):
        load_checkpoint_with_plan(path)


def test_wrong_shape_rejected(store, tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {p: t.data for p, t in store.params.items()}
    tensors["pooler.dense.bias"] = np.zeros(9)
    write_container(path, "checkpoint", CFG, tensors)
    with pytest.raises(CheckpointFormatError, match="shape"):
        load_checkpoint_with_plan(path)


def test_trailing_garbage_rejected(store, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint_with_plan(path)


def test_payloads_little_endian_row_major(tmp_path):
    path = tmp_path / "t.ckpt"
    arr = np.arange(6.0).reshape(2, 3)
    write_container(path, "checkpoint", CFG, {"a": arr})
    header, tensors = read_container(path)
    assert header["format_version"] == FORMAT_VERSION
    np.testing.assert_array_equal(tensors["a"], arr)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert raw[-48:] == arr.astype("<f8").tobytes()


def test_read_arrays_are_owned_writeable_and_c_contiguous(store, tmp_path):
    """AdamW and adapter swaps write loaded arrays in place, so each must be
    its own C-ordered, writeable buffer, not a view of the file's bytes."""
    path = tmp_path / "t.ckpt"
    written = {p: t.data for p, t in store.params.items()}
    written |= {"scalar": np.asarray(2.5), "empty": np.zeros((0, 3)),
                "column": np.arange(4.0).reshape(4, 1)}
    write_container(path, "checkpoint", CFG, written)
    _, tensors = read_container(path)
    assert list(tensors) == list(written)
    for name, arr in tensors.items():
        assert arr.dtype == np.float64, name
        assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata, name
        assert arr.base is None, name
        np.testing.assert_array_equal(arr, written[name])
    tensors["column"] += 1.0
    np.testing.assert_array_equal(tensors["column"], np.arange(1.0, 5.0).reshape(4, 1))
    _, again = read_container(path)
    np.testing.assert_array_equal(again["column"], written["column"])


def _edit(change):
    """A header mutation that edits the parsed JSON object in place."""
    def mutate(header):
        change(header)
        return json.dumps(header).encode("utf-8")
    return mutate


def _set_config(**fields):
    return _edit(lambda h: h["config"].update(fields))


# Each returns the new header bytes for a valid parsed header.
HEADER_MUTATIONS = {
    "not_utf8": lambda h: b"\xff" + json.dumps(h).encode("utf-8"),
    "not_json": lambda h: json.dumps(h).encode("utf-8")[:-1],
    "not_an_object": lambda h: json.dumps([h]).encode("utf-8"),
    "no_tensors_key": _edit(lambda h: h.pop("tensors")),
    "tensors_not_a_list": _edit(lambda h: h.update(tensors={})),
    "entry_not_an_object": _edit(lambda h: h["tensors"].__setitem__(0, "w")),
    "entry_without_name": _edit(lambda h: h["tensors"][0].pop("name")),
    "name_not_a_string": _edit(lambda h: h["tensors"][0].update(name=7)),
    "duplicate_name": _edit(lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"])),
    "shape_not_a_list": _edit(lambda h: h["tensors"][0].update(shape="8")),
    "negative_dimension": _edit(
        lambda h: h["tensors"][0].update(shape=[-n for n in h["tensors"][0]["shape"]])),
    "float_dimension": _edit(
        lambda h: h["tensors"][0].update(shape=[float(n) for n in h["tensors"][0]["shape"]])),
    "wrong_dtype": _edit(lambda h: h["tensors"][0].update(dtype="<f4")),
    "no_config": _edit(lambda h: h.pop("config")),
    "config_not_an_object": _edit(lambda h: h.update(config=[8])),
    "config_unknown_field": _set_config(depth=2),
    "config_invalid_value": _set_config(hidden_size=7),
    "config_float_dimension": _set_config(hidden_size=8.0),
    "config_string_dimension": _set_config(hidden_size="8"),
    "no_plan_spec": _edit(lambda h: h.pop("plan_spec")),
    "plan_spec_not_a_string": _edit(lambda h: h.update(plan_spec=5)),
    "plan_spec_unparsable": _edit(lambda h: h.update(plan_spec="spafit:bogus")),
    "plan_spec_exceeds_stack": _edit(lambda h: h.update(plan_spec="spafit:N1=0,N2=9,mode=II")),
    "plan_spec_huge_int": _edit(
        lambda h: h.update(plan_spec="spafit:N1=" + "1" * 5000 + ",N2=2,mode=II")),
}


def _rewrite_header(path, mutate):
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[5:9])
    blob = mutate(json.loads(raw[9:9 + length]))
    path.write_bytes(raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + length:])


@pytest.mark.parametrize("kind", ["checkpoint", "adapter"])
@pytest.mark.parametrize("mutation", sorted(HEADER_MUTATIONS))
def test_header_mutation_rejected(store, tmp_path, cli_manifest, kind, mutation):
    plan = compile_plan(parse_plan_spec("spafit:N1=0,N2=1,mode=II"), CFG)
    attach_lora(store, plan, seed=9)
    ckpt, adapter = tmp_path / "model.ckpt", tmp_path / "task.adapter"
    save_checkpoint(store, ckpt, plan)
    export_adapter(store, plan, adapter)

    if kind == "checkpoint":
        _rewrite_header(ckpt, HEADER_MUTATIONS[mutation])
        with pytest.raises(CheckpointError):
            load_checkpoint_with_plan(ckpt)
        argv = ["eval", "--model", str(ckpt)]
    else:
        _rewrite_header(adapter, HEADER_MUTATIONS[mutation])
        with pytest.raises(CheckpointError):
            swap_adapter(store, adapter)
        argv = ["swap-adapter", "--model", str(ckpt), "--adapter", str(adapter)]
    assert main(argv + ["--manifest", str(cli_manifest)]) == 5


def _corruptions(raw: bytes, header_end: int, seed: int, count: int):
    """Seeded byte flips, truncations and insertions of ``raw``; half of them
    land in the magic, version, length and header bytes."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        data = bytearray(raw)
        pos = int(rng.integers(header_end if rng.random() < 0.5 else len(raw)))
        kind = rng.integers(3)
        if kind == 0:
            data[pos] ^= int(rng.integers(1, 256))
        elif kind == 1:
            del data[pos:]
        else:
            data[pos:pos] = rng.bytes(int(rng.integers(1, 9)))
        yield bytes(data)


def test_seeded_container_fuzz_raises_only_spafit_errors(tmp_path, cli_manifest):
    """Every corrupted checkpoint either loads or raises a ``CheckpointError``,
    every corrupted adapter a ``CheckpointError`` or ``CompatibilityError``;
    through the CLI it ends in a documented exit code."""
    cfg = load_manifest(cli_manifest).model_config
    store = build_model(cfg, seed=5)
    plan = compile_plan(parse_plan_spec("spafit:N1=0,N2=1,mode=II"), cfg)
    attach_lora(store, plan, seed=9)
    ckpt, adapter = tmp_path / "model.ckpt", tmp_path / "task.adapter"
    save_checkpoint(store, ckpt, plan)
    export_adapter(store, plan, adapter)
    bad = tmp_path / "bad.bin"

    outcomes = {"loaded": 0, "rejected": 0}
    for seed, (source, load, rejections) in enumerate([
            (ckpt, load_checkpoint_with_plan, CheckpointError),
            (adapter, lambda path: swap_adapter(store.clone(), path),
             (CheckpointError, CompatibilityError))]):
        raw = source.read_bytes()
        header_end = 9 + struct.unpack("<I", raw[5:9])[0]
        for corrupted in _corruptions(raw, header_end, seed, count=150):
            bad.write_bytes(corrupted)
            try:
                load(bad)
                outcomes["loaded"] += 1
            except rejections:
                outcomes["rejected"] += 1
    assert min(outcomes.values()) > 0, outcomes

    raw = ckpt.read_bytes()
    for corrupted in (raw[:-8], raw[:4] + b"\x00" + raw[5:], raw[:20] + b"{" + raw[20:]):
        bad.write_bytes(corrupted)
        assert main(["eval", "--manifest", str(cli_manifest), "--model", str(bad)]) == 5
