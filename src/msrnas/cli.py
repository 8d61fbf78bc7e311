"""Command-line interface: search, derive, eval, ranks.

Exit code 0 on success; on failure, one machine-parsable line
``error[<category>]: <message>`` goes to stderr and the exit code is 1.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ArgumentError, MsrnasError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msrnas",
        description="Minimum-stable-rank architecture search at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="train the supernet and snapshot rank tables")
    p_search.add_argument("--config", required=True, help="run config file")
    p_search.add_argument("--out", default=None, help="override run.output_dir")

    p_derive = sub.add_parser("derive", help="derive a genotype from a search run")
    p_derive.add_argument("--run", required=True, help="search run directory")
    p_derive.add_argument("--epoch", type=int, default=None,
                          help="use this epoch's rank table (default: policy)")
    p_derive.add_argument("--mode", choices=("min", "max"), default=None,
                          help="selection mode (default: from run config)")
    p_derive.add_argument("--out", default=None, help="genotype output path")

    p_eval = sub.add_parser("eval", help="train a derived architecture from scratch")
    p_eval.add_argument("--genotype", required=True, help="genotype JSON file")
    p_eval.add_argument("--config", required=True, help="run config file")
    p_eval.add_argument("--out", default=None, help="override run.output_dir")

    p_ranks = sub.add_parser("ranks", help="dump per-conv ranks for a checkpoint")
    p_ranks.add_argument("--checkpoint", required=True, help="checkpoint file")
    p_ranks.add_argument("--out", default=None,
                         help="write report here instead of stdout")
    return parser


def _cmd_search(args) -> int:
    from .config import load_run_config
    from .train import run_search

    cfg = load_run_config(args.config)
    result = run_search(cfg, out_dir=args.out)
    last = result.metrics.records[-1] if result.metrics.records else None
    if last is not None:
        print(f"search done: {len(result.metrics.records)} epochs, "
              f"final val_loss={last.val_loss:.4f} -> {result.run_dir.root}")
    else:
        print(f"search done: initialization snapshot only -> {result.run_dir.root}")
    return 0


def _cmd_derive(args) -> int:
    import os

    from .config import load_run_config
    from .derive import SelectionMode, derive_genotype
    from .train import RunDir, choose_epoch, load_epoch_table

    config_path = RunDir(args.run).config_path
    if not os.path.exists(config_path):
        raise ArgumentError(f"{args.run} is not a search run (no config.txt)")
    cfg = load_run_config(config_path)
    mode = SelectionMode(args.mode) if args.mode else cfg["derive.mode"]
    epoch = choose_epoch(args.run, args.epoch, cfg["derive.epoch_policy"])
    table = load_epoch_table(args.run, epoch)
    genotype = derive_genotype(table, mode=mode)
    out_path = args.out or os.path.join(args.run, f"genotype_{mode.value}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(genotype.to_json_str())
    print(f"derived {mode.value}-mode genotype from epoch {epoch} -> {out_path}")
    return 0


def _cmd_eval(args) -> int:
    from .config import load_run_config
    from .derive import Genotype
    from .errors import FormatError
    from .train import run_eval

    cfg = load_run_config(args.config)
    try:
        with open(args.genotype, "r", encoding="utf-8") as fh:
            genotype = Genotype.from_json_str(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read genotype {args.genotype}: {exc}") from exc
    result = run_eval(cfg, genotype, out_dir=args.out)
    print(f"eval done: test_loss={result.test_loss:.4f} "
          f"test_error={result.test_error:.4f} -> {result.run_dir.root}")
    return 0


def _cmd_ranks(args) -> int:
    from .checkpoint import load_checkpoint
    from .supernet import conv_rank_report

    net, epoch = load_checkpoint(args.checkpoint)
    report = conv_rank_report(net, epoch=epoch)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"rank report -> {args.out}")
    else:
        sys.stdout.write(report)
    return 0


_COMMANDS = {
    "search": _cmd_search,
    "derive": _cmd_derive,
    "eval": _cmd_eval,
    "ranks": _cmd_ranks,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except MsrnasError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
