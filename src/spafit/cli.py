"""Command-line entry point.

Subcommands: plan, audit, train, eval, compare, export-adapter, swap-adapter.
Every command is driven by a manifest file; a handful of flags (--spec,
--seed, --lr, --batch, --epochs, --out) override manifest values. Data goes
to stdout, diagnostics to stderr. Exit codes: 0 success, 2 bad usage or
malformed spec/manifest, 3 incompatible adapter, 4 training divergence,
5 I/O or container failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checkpoint import load_checkpoint_with_plan, save_checkpoint
from .errors import CheckpointError, CompatibilityError, TrainingDivergedError
from .harness import compare_configs, evaluate, train_run
from .manifest import RunManifest, load_manifest
from .model import build_model, total_parameter_count
from .plan import (
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

EXIT_USAGE = 2
EXIT_INCOMPATIBLE = 3
EXIT_DIVERGED = 4
EXIT_IO = 5

# Published figures agree with ours up to display rounding; anything beyond
# two hundredths of a million is a real convention difference.
_PUBLISHED_TOLERANCE_M = 0.02


def _load(args) -> RunManifest:
    overrides = {
        "spec": getattr(args, "spec", None),
        "seed": getattr(args, "seed", None),
        "learning_rate": getattr(args, "lr", None),
        "batch_size": getattr(args, "batch", None),
        "epochs": getattr(args, "epochs", None),
        "out_dir": getattr(args, "out", None),
    }
    if isinstance(overrides["spec"], list):  # commands taking many specs
        overrides["spec"] = None
    return load_manifest(args.manifest, overrides)


def cmd_plan(args) -> int:
    m = _load(args)
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


def cmd_audit(args) -> int:
    m = _load(args)
    cfg = m.model_config
    spec_texts = args.spec or ["fullft", "fullbitfit", "fulllora-I",
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


def cmd_train(args) -> int:
    m = _load(args)
    store = build_model(m.model_config, m.model_seed)
    plan = compile_plan(m.plan_spec, m.model_config)
    attach_lora(store, plan, seed=m.model_seed)
    train_records, val_records = generate_task(m.task_spec)
    result = train_run(store, plan, m.task_spec, train_records, val_records,
                       m.train_config, m.metric)
    m.out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = m.out_dir / "model.ckpt"
    save_checkpoint(store, ckpt, plan_spec=str(plan.spec))
    (m.out_dir / "result.json").write_text(json.dumps(result.to_dict(), indent=2))
    print(json.dumps(result.to_dict(), indent=2))
    print(f"checkpoint: {ckpt}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    m = _load(args)
    ckpt = Path(args.model) if args.model else m.out_dir / "model.ckpt"
    store, _ = load_checkpoint_with_plan(ckpt)
    _, val_records = generate_task(m.task_spec)
    name, value = evaluate(store, m.task_spec, val_records, m.metric)
    print(json.dumps({"metric_name": name, "metric_value": value}))
    return 0


def cmd_compare(args) -> int:
    m = _load(args)
    specs = [parse_plan_spec(text) for text in args.spec]
    table = compare_configs(specs, m.model_config, m.task_spec, m.train_config,
                            m.model_seed, metric=m.metric)
    csv_text = table.to_csv()
    print(csv_text, end="")
    m.out_dir.mkdir(parents=True, exist_ok=True)
    (m.out_dir / "comparison.csv").write_text(csv_text)
    print(f"wrote {m.out_dir / 'comparison.csv'}", file=sys.stderr)
    return 0


def cmd_export_adapter(args) -> int:
    m = _load(args)
    ckpt = Path(args.model) if args.model else m.out_dir / "model.ckpt"
    store, plan = load_checkpoint_with_plan(ckpt)
    if plan is None:
        plan = compile_plan(m.plan_spec, store.config)
        attach_lora(store, plan, seed=m.model_seed)
    out = Path(args.adapter) if args.adapter else m.out_dir / "adapter.bin"
    export_adapter(store, plan, out)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def cmd_swap_adapter(args) -> int:
    m = _load(args)
    ckpt = Path(args.model) if args.model else m.out_dir / "model.ckpt"
    store, _ = load_checkpoint_with_plan(ckpt)
    plan = swap_adapter(store, args.adapter)
    out = Path(args.out_model) if args.out_model else ckpt
    save_checkpoint(store, out, plan_spec=str(plan.spec))
    print(f"wrote {out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spafit",
        description="Stratified parameter-efficient fine-tuning toolkit.",
        epilog=(
            "Plan specs: fullft | fullbitfit | fulllora-I | fulllora-II | "
            "spafit:N1=<i>,N2=<j>,mode=<I|II>. Learning rate defaults to "
            f"6e-05 for PEFT plans and 2e-05 for full fine-tuning "
            "(grid: 2e-3, 6e-3, 2e-5, 6e-5); batch size defaults to 16 "
            "(8 available for memory-constrained runs); 10 epochs, AdamW "
            "weight decay 0.01, betas (0.9, 0.999), eps 1e-8. Manifest "
            "seeds are mandatory."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_single=True):
        p.add_argument("--manifest", required=True, help="run manifest path")
        if spec_single:
            p.add_argument("--spec", help="override the manifest plan spec")
        p.add_argument("--seed", type=int, help="override the train seed")
        p.add_argument("--lr", type=float, help="override the learning rate")
        p.add_argument("--batch", type=int, help="override the batch size")
        p.add_argument("--epochs", type=int, help="override the epoch count")
        p.add_argument("--out", help="override the output directory")

    p = sub.add_parser("plan", help="print the per-layer status partition")
    common(p)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("audit", help="print trainable-parameter counts")
    common(p, spec_single=False)
    p.add_argument("--spec", action="append",
                   help="plan spec to audit (repeatable; default: standard set)")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("train", help="train under the manifest plan")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained checkpoint")
    common(p)
    p.add_argument("--model", help="checkpoint path (default <out>/model.ckpt)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="train several plans and emit a CSV table")
    common(p, spec_single=False)
    p.add_argument("--spec", action="append", required=True,
                   help="plan spec to include (repeat for each row)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("export-adapter", help="write trainable values to an adapter file")
    common(p)
    p.add_argument("--model", help="checkpoint path (default <out>/model.ckpt)")
    p.add_argument("--adapter", help="adapter output path (default <out>/adapter.bin)")
    p.set_defaults(fn=cmd_export_adapter)

    p = sub.add_parser("swap-adapter", help="retarget a checkpoint to an adapter's task")
    common(p)
    p.add_argument("--model", help="checkpoint path (default <out>/model.ckpt)")
    p.add_argument("--adapter", required=True, help="adapter file to swap in")
    p.add_argument("--out-model", help="output checkpoint (default: overwrite input)")
    p.set_defaults(fn=cmd_swap_adapter)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # every other SpafitError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
