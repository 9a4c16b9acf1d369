"""Checkpoint container: byte-exact round trips and strict load validation."""

import errno
import json
import stat
import struct
from dataclasses import replace

import numpy as np
import pytest

import spafit.model as model_module
import spafit.plan as plan_module
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


def _header_bytes(path) -> bytes:
    raw = path.read_bytes()
    return raw[:9 + struct.unpack("<I", raw[5:9])[0]]


def test_two_reads_of_one_file_decode_its_header_once(store, tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    decoded = []

    def loads_spy(text, real=json.loads):
        decoded.append(text)
        return real(text)

    monkeypatch.setattr(json, "loads", loads_spy)
    model_module._parse_header.cache_clear()
    first, _ = read_container(path)
    second, _ = read_container(path)
    assert len(decoded) == 1
    assert second is first


def test_read_header_is_read_only(store, tmp_path):
    """Every read of the same header bytes shares one parsed header."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    header, _ = read_container(path)
    assert header["config"]["hidden_size"] == CFG.hidden_size
    assert isinstance(header["tensors"], tuple)
    assert isinstance(header["tensors"][0]["shape"], tuple)
    with pytest.raises(TypeError):
        header["kind"] = "adapter"
    with pytest.raises(TypeError):
        header["config"]["hidden_size"] = 4
    with pytest.raises(TypeError):
        header["tensors"][0]["name"] = "other"


def test_swap_serves_a_payload_rewritten_under_the_same_header(store, tmp_path):
    """A cached header settles the layout, never the values: each swap reads
    its payload from the file as it is now."""
    plan = compile_plan(parse_plan_spec("spafit:N1=0,N2=1,mode=II"), CFG)
    attach_lora(store, plan, seed=9)
    path = tmp_path / "task.adapter"
    export_adapter(store, plan, path)
    serving = build_model(CFG, seed=5)
    swap_adapter(serving, path)

    header, tensors = read_container(path)
    before = _header_bytes(path)
    rewritten = {name: arr + 1.5 for name, arr in tensors.items()}
    write_container(path, "adapter", CFG, rewritten, plan_spec=header["plan_spec"])
    assert _header_bytes(path) == before
    swap_adapter(serving, path)
    served = serving.params | serving.factors()
    for name, arr in rewritten.items():
        np.testing.assert_array_equal(served[name].data, arr, err_msg=name)


def test_corrupt_header_at_a_read_path_names_the_path_on_each_read(store, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    good = path.read_bytes()
    read_container(path)
    path.write_bytes(good[:9] + b"[" + good[10:])  # byte 9 opens the header's object
    for _ in range(2):
        with pytest.raises(CheckpointFormatError) as info:
            read_container(path)
        assert str(info.value).startswith(f"{path}: header is not UTF-8 JSON (")
        assert isinstance(info.value.__cause__, json.JSONDecodeError)
    path.write_bytes(good)
    assert read_container(path)[0]["kind"] == "checkpoint"


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
    "plan_spec_empty": _edit(lambda h: h.update(plan_spec="")),
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
def test_header_mutation_rejected(store, tmp_path, cli_manifest, capsys, kind, mutation):
    """Each bad header raises a ``CheckpointError`` that starts with the
    file's path, and the CLI prints it as its one ``error:`` line."""
    plan = compile_plan(parse_plan_spec("spafit:N1=0,N2=1,mode=II"), CFG)
    attach_lora(store, plan, seed=9)
    ckpt, adapter = tmp_path / "model.ckpt", tmp_path / "task.adapter"
    save_checkpoint(store, ckpt, plan)
    export_adapter(store, plan, adapter)

    if kind == "checkpoint":
        bad = ckpt
        _rewrite_header(ckpt, HEADER_MUTATIONS[mutation])
        with pytest.raises(CheckpointError) as caught:
            load_checkpoint_with_plan(ckpt)
        argv = ["eval", "--model", str(ckpt)]
    else:
        bad = adapter
        _rewrite_header(adapter, HEADER_MUTATIONS[mutation])
        with pytest.raises(CheckpointError) as caught:
            swap_adapter(store, adapter)
        argv = ["swap-adapter", "--model", str(ckpt), "--adapter", str(adapter)]
    assert str(caught.value).startswith(f"{bad}: ")
    capsys.readouterr()
    assert main(argv + ["--manifest", str(cli_manifest)]) == 5
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(bad) in lines[0]


@pytest.mark.parametrize("kind, code", [("checkpoint", 5), ("adapter", 3)])
def test_header_claiming_a_huge_stack_rejected_before_any_plan_or_layout(
        store, tmp_path, cli_manifest, capsys, monkeypatch, kind, code):
    """A header whose ``num_layers`` is 10^9 is checked against its target
    first: a checkpoint holds too few tensors for its config's base layout,
    an adapter's config is not the store's. Neither compiles a plan nor lists
    a layout for that config, and the reader draws no more base paths than
    the file holds tensors, plus one."""
    plan = compile_plan(parse_plan_spec("spafit:N1=0,N2=1,mode=II"), CFG)
    attach_lora(store, plan, seed=9)
    ckpt, adapter = tmp_path / "model.ckpt", tmp_path / "task.adapter"
    save_checkpoint(store, ckpt, plan)
    export_adapter(store, plan, adapter)
    bad = tmp_path / f"huge.{kind}"
    bad.write_bytes((ckpt if kind == "checkpoint" else adapter).read_bytes())
    _rewrite_header(bad, _set_config(num_layers=10**9))
    held = len(read_container(bad)[1])

    def refuse_the_huge_config(real):
        def call(*args):
            if any(getattr(arg, "num_layers", 0) == 10**9 for arg in args):
                raise AssertionError(f"{real.__name__} called for the header's config")
            return real(*args)
        return call

    drawn = []

    def counted(config):
        for item in model_module.iter_param_shapes(config):
            drawn.append(item)
            yield item

    for name in ("compile_plan", "param_shapes"):
        monkeypatch.setattr(plan_module, name,
                            refuse_the_huge_config(getattr(plan_module, name)))
    monkeypatch.setattr(plan_module, "iter_param_shapes", counted, raising=False)

    if kind == "checkpoint":
        with pytest.raises(UnknownTensorError, match="missing tensor") as caught:
            load_checkpoint_with_plan(bad)
        argv = ["eval", "--model", str(bad)]
    else:
        with pytest.raises(CompatibilityError, match="cannot attach") as caught:
            swap_adapter(store, bad)
        argv = ["swap-adapter", "--model", str(ckpt), "--adapter", str(bad)]
    assert str(caught.value).startswith(f"{bad}: ")
    assert len(drawn) <= held + 1
    before = ckpt.read_bytes()
    capsys.readouterr()
    assert main(argv + ["--manifest", str(cli_manifest)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: ")
    assert ckpt.read_bytes() == before


def test_empty_plan_spec_in_a_plain_checkpoint_rejected(store, tmp_path, cli_manifest):
    """A header records a plan iff its spec is a string, so ``""`` is an
    invalid spec, not the absence of one, even where the tensors are
    exactly the base tensors a plan-less checkpoint holds."""
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(store, ckpt)
    _rewrite_header(ckpt, _edit(lambda h: h.update(plan_spec="")))
    with pytest.raises(CheckpointFormatError, match="recorded plan spec is invalid"):
        load_checkpoint_with_plan(ckpt)
    argv = ["eval", "--model", str(ckpt), "--manifest", str(cli_manifest)]
    assert main(argv) == 5


class _FailingFile:
    """A binary file that takes ``limit`` bytes, then raises ``error``."""

    def __init__(self, fh, limit: int, error: BaseException):
        self.fh, self.room, self.error = fh, limit, error

    def write(self, data: bytes) -> int:
        if len(data) > self.room:
            self.fh.write(data[:self.room])
            raise self.error
        self.room -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


@pytest.mark.parametrize("error", [OSError(errno.EFBIG, "File too large"),
                                   KeyboardInterrupt()])
@pytest.mark.parametrize("kind", ["checkpoint", "adapter"])
def test_failed_write_leaves_the_old_file_whole(store, tmp_path, monkeypatch, kind, error):
    """A write that fails partway through the payload removes its partial
    file and leaves the file it was to replace byte for byte as it was; an
    I/O error names that file."""
    plan = compile_plan(parse_plan_spec("spafit:N1=0,N2=1,mode=II"), CFG)
    attach_lora(store, plan, seed=9)
    path = tmp_path / f"model.{kind}"
    write = (lambda: save_checkpoint(store, path, plan)) if kind == "checkpoint" \
        else (lambda: export_adapter(store, plan, path))
    write()
    old = path.read_bytes()
    store.params["classifier.bias"].data += 1.0

    payload_start = len(_header_bytes(path))
    monkeypatch.setattr(
        model_module, "open", raising=False,
        value=lambda name, mode: _FailingFile(open(name, mode), payload_start + 20, error))
    with pytest.raises(type(error)) as info:
        write()
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    if isinstance(error, OSError):
        assert str(info.value).startswith(f"{path}: cannot write: ")
        assert info.value.__cause__ is error

    monkeypatch.undo()
    write()
    assert path.read_bytes() != old
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_written_file_takes_its_mode_from_the_umask(store, tmp_path):
    """The file is created as ``open`` creates one, not with a private mode."""
    reference, path = tmp_path / "reference", tmp_path / "model.ckpt"
    reference.write_bytes(b"")
    save_checkpoint(store, path)
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


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
