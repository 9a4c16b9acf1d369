"""Command-line entry point.

Subcommands: plan, audit, train, eval, compare, export-adapter, swap-adapter.
Every command is driven by a manifest file and takes only the override
flags it reads; each flag's destination is its ``load_manifest`` override
key (``spec``, ``out_dir`` or a ``[train]`` key). Data goes to stdout,
diagnostics to stderr: an error is one ``error:`` line, which starts with
the manifest's path when a value the file sets is at fault. Exit codes
(``_EXIT_CODES``): 0 success, 2 bad usage or malformed spec/manifest,
3 incompatible adapter, 4 training divergence (a non-finite loss or logit),
5 I/O or container failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint_with_plan, save_checkpoint
from .errors import CheckpointError, CompatibilityError, TrainingDivergedError
from .harness import compare_configs, evaluate, train_fresh
from .manifest import RunManifest, load_manifest
from .model import total_parameter_count
from .optim import DEFAULT_LR_FULL_FT, DEFAULT_LR_PEFT, TrainConfig
from .plan import (
    PLAN_SPEC_GRAMMAR,
    PlanKind,
    attach_lora,
    compile_plan,
    count_trainable,
    export_adapter,
    parse_plan_spec,
    published_convention_count,
    published_reference_m,
    swap_adapter,
)
from .tasks import generate_task

# Each error's exit code: the first entry whose types it is an instance of.
# Every other ``SpafitError`` is a ``ValueError``.
_EXIT_CODES = ((CompatibilityError, 3), (TrainingDivergedError, 4),
               ((OSError, CheckpointError), 5), (ValueError, 2))

# Published figures agree with ours up to display rounding; anything beyond
# two hundredths of a million is a real convention difference.
_PUBLISHED_TOLERANCE_M = 0.02


def _load(args) -> RunManifest:
    return load_manifest(args.manifest, vars(args))


def _path(text: str) -> Path:
    """A path flag's value. An empty one is a usage error, not a request for
    the flag's default."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return Path(text)


def _checkpoint_path(args, m: RunManifest) -> Path:
    return m.out_dir / "model.ckpt" if args.model is None else args.model


def cmd_plan(args, m: RunManifest) -> int:
    plan = compile_plan(m.plan_spec, m.model_config)
    cfg = m.model_config
    print(f"plan: {plan.spec}")
    if plan.spec.kind is PlanKind.SPAFIT:
        n1, n2, L = plan.spec.n1, plan.spec.n2, cfg.num_layers
        print(f"group sizes: {n1}/{n2 - n1}/{L - n2}")
        for layer in range(1, L + 1):
            print(f"  layer {layer}: group {plan.group_of_layer(layer)}")
    by_status: dict[str, int] = {}
    for status in plan.assignments.values():
        by_status[status.value] = by_status.get(status.value, 0) + 1
    for status, count in sorted(by_status.items()):
        print(f"paths {status}: {count}")
    encoder_trainable = count_trainable(plan, cfg, include_head=False)
    with_head = count_trainable(plan, cfg, include_head=True)
    print(f"trainable (encoder side): {encoder_trainable:,}")
    print(f"trainable (with pooler+head): {with_head:,}")
    if encoder_trainable == 0:
        print("note: zero trainable encoder parameters (linear probing)")
    return 0


def cmd_audit(args, m: RunManifest) -> int:
    cfg = m.model_config
    spec_texts = args.specs or ["fullft", "fullbitfit", "fulllora-I",
                               "fulllora-II", str(m.plan_spec)]
    print(f"{'plan':34s} {'exact':>14s} {'millions':>9s} {'published':>10s}  note")
    for text in spec_texts:
        spec = parse_plan_spec(text)
        plan = compile_plan(spec, cfg)
        exact = published_convention_count(plan)
        millions = exact / 1e6
        published = published_reference_m(spec, cfg)
        if published is None:
            note = ""
            shown = "-"
        elif abs(millions - published) <= _PUBLISHED_TOLERANCE_M:
            note = "matches published"
            shown = f"{published:.2f}"
        else:
            note = ("differs from published figure; the reference counting "
                    "convention is not fully reconcilable")
            shown = f"{published:.2f}"
        print(f"{str(spec):34s} {exact:>14,d} {millions:>9.2f} {shown:>10s}  {note}")
    total = total_parameter_count(cfg)
    print(f"{'total model (task head excluded)':34s} {total:>14,d} {total / 1e6:>9.2f}")
    return 0


def cmd_train(args, m: RunManifest) -> int:
    started = time.perf_counter()
    plan = compile_plan(m.plan_spec, m.model_config)
    train_records, val_records = generate_task(m.task_spec)
    store, result = train_fresh(plan, m.model_seed, m.task_spec, train_records,
                                val_records, m.train_config)
    m.out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = m.out_dir / "model.ckpt"
    save_checkpoint(store, ckpt, plan)
    result_text = json.dumps(dataclasses.asdict(result), indent=2)
    (m.out_dir / "result.json").write_text(result_text)
    print(result_text)
    print(f"checkpoint: {ckpt} ({time.perf_counter() - started:.1f} s)", file=sys.stderr)
    return 0


def cmd_eval(args, m: RunManifest) -> int:
    store, _ = load_checkpoint_with_plan(_checkpoint_path(args, m))
    _, val_records = generate_task(m.task_spec)
    name, value = evaluate(store, m.task_spec, val_records)
    print(json.dumps({"metric_name": name, "metric_value": value}))
    return 0


def cmd_compare(args, m: RunManifest) -> int:
    specs = [parse_plan_spec(text) for text in args.specs]
    table = compare_configs(specs, m.model_config, m.task_spec, m.train_config,
                            m.model_seed)
    csv_text = table.to_csv()
    print(csv_text, end="")
    m.out_dir.mkdir(parents=True, exist_ok=True)
    (m.out_dir / "comparison.csv").write_text(csv_text)
    print(f"wrote {m.out_dir / 'comparison.csv'}", file=sys.stderr)
    return 0


def cmd_export_adapter(args, m: RunManifest) -> int:
    store, plan = load_checkpoint_with_plan(_checkpoint_path(args, m))
    if plan is None:
        plan = compile_plan(m.plan_spec, store.config)
        attach_lora(store, plan, seed=m.model_seed)
    out = m.out_dir / "adapter.bin" if args.adapter is None else args.adapter
    export_adapter(store, plan, out)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def cmd_swap_adapter(args, m: RunManifest) -> int:
    ckpt = _checkpoint_path(args, m)
    store, _ = load_checkpoint_with_plan(ckpt)
    plan = swap_adapter(store, args.adapter)
    out = ckpt if args.out_model is None else args.out_model
    save_checkpoint(store, out, plan)
    print(f"wrote {out}", file=sys.stderr)
    return 0


# Flags shared between commands. An override flag's destination is its
# ``load_manifest`` override key, so the parsed namespace is the override map.
_FLAGS = {
    "--spec": dict(help="override the manifest plan spec"),
    "--seed": dict(type=int, help="override the train seed"),
    "--lr": dict(dest="learning_rate", metavar="LR", type=float,
                 help="override the learning rate"),
    "--batch": dict(dest="batch_size", metavar="BATCH", type=int,
                    help="override the batch size"),
    "--epochs": dict(type=int, help="override the epoch count"),
    "--out": dict(dest="out_dir", metavar="OUT", help="override the output directory"),
    "--model": dict(type=_path, help="checkpoint path (default <out>/model.ckpt)"),
}


def build_parser() -> argparse.ArgumentParser:
    defaults = TrainConfig()
    parser = argparse.ArgumentParser(
        prog="spafit",
        description="Stratified parameter-efficient fine-tuning toolkit.",
        epilog=(
            f"Plan specs: {PLAN_SPEC_GRAMMAR}. Learning rate defaults to "
            f"{DEFAULT_LR_PEFT:g} for PEFT plans and {DEFAULT_LR_FULL_FT:g} for "
            f"full fine-tuning; batch size defaults to {defaults.batch_size} "
            f"(8 available for memory-constrained runs); {defaults.epochs} epochs, "
            f"AdamW weight decay {defaults.weight_decay:g}, betas {defaults.betas}, "
            f"eps {defaults.eps:g}. Manifest seeds are mandatory."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *flags):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--manifest", required=True, help="run manifest path")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    command("plan", cmd_plan, "print the per-layer status partition", "--spec")
    command("audit", cmd_audit, "print trainable-parameter counts").add_argument(
        "--spec", dest="specs", metavar="SPEC", action="append",
        help="plan spec to audit (repeatable; default: standard set)")
    command("train", cmd_train, "train under the manifest plan",
            "--spec", "--seed", "--lr", "--batch", "--epochs", "--out")
    command("eval", cmd_eval, "evaluate a trained checkpoint", "--out", "--model")
    command("compare", cmd_compare, "train several plans and emit a CSV table",
            "--seed", "--lr", "--batch", "--epochs", "--out").add_argument(
        "--spec", dest="specs", metavar="SPEC", action="append", required=True,
        help="plan spec to include (repeat for each row)")
    p = command("export-adapter", cmd_export_adapter,
                "write trainable values to an adapter file", "--spec", "--out", "--model")
    p.add_argument("--adapter", type=_path,
                   help="adapter output path (default <out>/adapter.bin)")
    p = command("swap-adapter", cmd_swap_adapter,
                "retarget a checkpoint to an adapter's task", "--out", "--model")
    p.add_argument("--adapter", type=_path, required=True, help="adapter file to swap in")
    p.add_argument("--out-model", type=_path,
                   help="output checkpoint (default: overwrite input)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Overflow in a diverged run is reported by the finite checks of
        # ``train_run`` and ``predict`` as one error line, not as warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args, _load(args))
    except (ValueError, OSError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
