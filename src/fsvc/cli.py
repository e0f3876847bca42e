"""Command-line interface: gen, splits, train, eval, selftest."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .core import FormatError, FsvcError, load_manifest, rebase_manifest, save_manifest
from .harness import build_splits, evaluate, write_report
from .protocols import (
    METHODS,
    MethodConfig,
    load_checkpoint,
    save_checkpoint,
    train_model,
)
from .synthdata import (
    MANIFEST_NAME,
    PRETRAIN_MANIFEST_NAME,
    GeneratorSpec,
    gen_benchmark,
)


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.spec).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{args.spec}: not valid spec JSON: {exc}") from exc
    spec = GeneratorSpec.from_dict(doc)
    out = Path(args.out)
    gen_benchmark(spec, out)
    print(out / MANIFEST_NAME)
    if spec.pretrain_classes > 0:
        print(out / PRETRAIN_MANIFEST_NAME)
    return 0


def cmd_splits(args: argparse.Namespace) -> int:
    try:
        counts = [int(x) for x in args.classes.split(",")]
    except ValueError:
        counts = []
    if len(counts) != 3:
        raise FsvcError(f"--classes wants train,val,test counts, got {args.classes!r}")
    manifest = load_manifest(args.manifest)
    result = build_splits(manifest, *counts, cap=args.cap, seed=args.seed)
    out = Path(args.out)
    result = rebase_manifest(result, out.parent)
    save_manifest(result, out)
    print(out)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    pretrain_manifest = None
    if args.pretrain_manifest:
        pretrain_manifest = load_manifest(args.pretrain_manifest)
    # every MethodConfig field that a flag set; the parser's dests are the
    # field names, and None means the flag was not given
    set_by_flags = {
        f.name: getattr(args, f.name)
        for f in fields(MethodConfig)
        if getattr(args, f.name, None) is not None
    }
    cfg = MethodConfig(**set_by_flags)
    model = train_model(manifest, cfg, pretrain_manifest=pretrain_manifest)
    save_checkpoint(model, args.out)
    print(f"{args.out} fingerprint={model.fingerprint}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model = load_checkpoint(args.ckpt)
    manifest = load_manifest(args.manifest)
    cfg = replace(
        model.config, n_way=args.way, k_shot=args.shot, seed=args.seed
    )
    report = evaluate(model, cfg, manifest, n_episodes=args.episodes)
    write_report(report, args.report, fmt=args.format)
    print(
        f"{report.method} {report.n_way}-way {report.k_shot}-shot: "
        f"{100 * report.mean_accuracy:.4f} +/- "
        f"{100 * report.ci95_halfwidth:.4f} "
        f"({report.episodes} episodes)"
    )
    print(f"wall_time={report.wall_time:.2f}s", file=sys.stderr)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return run_selftest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsvc",
        description=(
            "Few-shot video classification over frame-level feature "
            "sequences: synthetic benchmarks, training, and episodic "
            "evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic benchmark")
    p.add_argument("--spec", required=True, help="generator spec JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("splits", help="repartition a manifest into splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--classes", required=True, help="train,val,test class counts")
    p.add_argument("--cap", type=int, default=None, help="max train videos per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output manifest path")
    p.set_defaults(func=cmd_splits)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--manifest", required=True)
    p.add_argument("--init", choices=("scratch", "pretrained"), default="scratch")
    p.add_argument("--pretrain-manifest", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--way", type=int, default=None, dest="n_way")
    p.add_argument("--shot", type=int, default=None, dest="k_shot")
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--lr-base", type=float, default=None)
    p.add_argument("--lr-adapt", type=float, default=None)
    p.add_argument("--finetune-iters", type=int, default=None, dest="iters_adapt")
    p.add_argument("--dropout", type=float, default=None, dest="dropout_p")
    p.add_argument("--embed-dim", type=int, default=None)
    p.add_argument("--dtw-normalize", action="store_const", const=True, default=None)
    p.add_argument("--train-steps", type=int, default=None)
    p.add_argument("--episodes-per-epoch", type=int, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--val-episodes", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint over episodes")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--way", type=int, default=5)
    p.add_argument("--shot", type=int, default=1)
    p.add_argument("--episodes", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True, help="report output path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run built-in correctness checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FsvcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
