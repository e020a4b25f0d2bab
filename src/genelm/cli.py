"""Command-line entry point binding the pipelines together.

One binary, subcommand style. Every subcommand accepts --config FILE with
flat key=value lines whose keys match the long flag names; explicit flags
win over the file. The accepted configuration is echoed back as a sorted,
re-parseable key=value listing at run start.

Exit codes: 0 success, 1 numeric failure (training divergence), 2 usage or
data errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from . import downstream as D
from . import evaluator as E
from . import genome_io as G
from . import tokenizer as T
from . import trainer as TR
from .atomic import atomic_write
from .errors import GenelmError, TrainingDivergedError
from .model import ModelConfig

PROG = "genelm"


class _Fmt(argparse.ArgumentDefaultsHelpFormatter):
    def __init__(self, prog):
        super().__init__(prog, width=100)


def _echo_config(args: argparse.Namespace) -> None:
    skip = {"func", "config"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if isinstance(value, list):
            value = " ".join(map(str, value))
        print(f"{key.replace('_', '-')}={value}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse once to find --config, turn its key=value lines into new
    defaults on the chosen subparser, then parse again so explicit flags
    win. A required flag may come from the file instead."""
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    required = [a for p in subparsers.values() for a in p._actions if a.required]
    for action in required:  # the first pass only looks for --config
        action.required = False
    try:
        args = parser.parse_args(argv)
    finally:
        for action in required:
            action.required = True
    path = getattr(args, "config", None)
    if not path:
        return parser.parse_args(argv)
    sub = subparsers[args.command]
    overrides = {}
    # undecodable bytes become lone surrogates, which isascii() rejects below
    with open(path, encoding="ascii", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line.isascii():
                raise GenelmError(f"{path}:{lineno}: non-ASCII byte in {line!r}")
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                parser.error(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            overrides[key.strip().replace("-", "_")] = value.strip()
    known = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, value in overrides.items():
        action = known.get(key)
        if action is None:
            parser.error(f"{path}: unknown configuration key {key!r}")
        # list-valued flags split on whitespace, as on the command line
        many = action.nargs in ("*", "+")
        values = value.split() if many else [value]
        if action.nargs == "+" and not values:
            parser.error(f"{path}: {key!r} needs at least one value")
        try:
            values = [action.type(v) if action.type else v for v in values]
        except (TypeError, ValueError) as exc:
            parser.error(f"{path}: bad value for {key!r}: {exc}")
        bad = [v for v in values if action.choices and v not in action.choices]
        if bad:
            parser.error(f"{path}: {key!r} must be one of {list(action.choices)}, "
                         f"got {bad[0]!r}")
        defaults[key] = values if many else values[0]
        action.required = False
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _naming(names: dict[str, str], fn, **kwargs):
    """fn(**kwargs), whose ValueError names each keyword as the command line
    spells it, names[keyword], else the keyword's long flag; names may also
    map a name that fn passes on (a config field) to the flag that sets it."""
    try:
        return fn(**kwargs)
    except ValueError as exc:
        flags = {**{k: "--" + k.replace("_", "-") for k in kwargs}, **names}
        message = re.sub(r"\b(" + "|".join(flags) + r")\b", lambda m: flags[m[0]], str(exc))
        raise GenelmError(message) from None


def _parse_synthetic(spec_parts: list[str], seed: int) -> G.FastaRecord:
    spec = {"markov_order": "0", "sharpness": "0", "seed": str(seed)}
    names = {}  # errors name each typed key as "--synthetic key"; --seed's seed as --seed
    for part in spec_parts:
        if "=" not in part:
            raise GenelmError(f"--synthetic takes key=value pairs, got {part!r}")
        key, value = part.split("=", 1)
        key = key.replace("-", "_")
        spec[key] = value
        names[key] = f"--synthetic {key}"
    if "length" not in spec:
        raise GenelmError("--synthetic needs length=<bp>")
    kinds = {"seed": int, "length": int, "markov_order": int, "sharpness": float}
    values = {}
    for key, value in spec.items():
        if key not in kinds:
            raise GenelmError(f"--synthetic has no key {key!r}")
        try:
            values[key] = kinds[key](value)
        except ValueError:
            raise GenelmError(f"--synthetic {key} must be "
                              f"{'an integer' if kinds[key] is int else 'a number'}, "
                              f"got {value!r}") from None
    return _naming(names, G.generate_synthetic_genome, **values)


def _load_records(args) -> list[G.FastaRecord]:
    if (args.fasta is None) == (args.synthetic is None):
        raise GenelmError("choose exactly one input: --fasta or --synthetic")
    if args.fasta:
        return G.parse_fasta(args.fasta)
    return [_parse_synthetic(args.synthetic, args.seed)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_prepare(args) -> int:
    records = _load_records(args)
    windows = G.extract_windows(records, args.window_len, args.max_ambiguous_fraction)
    if args.eval_holdout:
        train, evalset = G.split_by_source(windows, args.eval_holdout.split(","))
    else:
        train, evalset = G.split_train_eval(windows, args.eval_fraction, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, split in (("train.tokens", train), ("eval.tokens", evalset)):
        # an empty split still records its window length, which read_shard requires
        ids = T.encode_windows(split.windows).reshape(-1, windows.window_len)
        T.write_shard(os.path.join(args.out_dir, name), ids)
    stats = windows.source_stats
    lines = [
        f"window_len={windows.window_len}",
        f"total_bp_read={stats.total_bp_read}",
        f"windows_kept={stats.windows_kept}",
        f"windows_dropped_ambiguous={stats.windows_dropped_ambiguous}",
        f"train_windows={len(train)}",
        f"eval_windows={len(evalset)}",
        f"seed={args.seed}",
    ]
    with atomic_write(os.path.join(args.out_dir, "stats.txt")) as f:
        f.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


def _model_config(args) -> ModelConfig:
    return _naming({"max_seq_len": "--context-len"}, ModelConfig,
                   hidden=args.hidden, n_layers=args.n_layers, n_heads=args.n_heads,
                   ffn_dim=args.ffn_dim, max_seq_len=args.context_len,
                   rope_base=args.rope_base)


def _train_config(args) -> TR.TrainConfig:
    return _naming({}, TR.TrainConfig, batch_size=args.batch_size, lr_peak=args.lr_peak,
                   lr_min=args.lr_min, warmup_iters=args.warmup_iters,
                   total_iters=args.total_iters, seed=args.seed,
                   weight_decay=args.weight_decay)


def cmd_train(args) -> int:
    data = T.read_shard(args.shards)
    cfg = _model_config(args)
    tcfg = _train_config(args)
    start = TR.load_checkpoint(args.init_from) if args.init_from else None
    os.makedirs(args.out_dir, exist_ok=True)
    ckpt, rows = TR.train_stage(
        cfg, tcfg, data, start=start, data_seed=args.seed,
        init_seed=args.seed, log_path=os.path.join(args.out_dir, "metrics.jsonl"))
    TR.save_checkpoint(ckpt, os.path.join(args.out_dir, "checkpoint.bin"))
    print(f"final_loss={rows[-1]['loss']:.6f} final_ppl={rows[-1]['ppl']:.6f}"
          if rows else "(no steps)")
    return 0


def cmd_extend(args) -> int:
    ckpt = TR.load_checkpoint(args.checkpoint)
    data = T.read_shard(args.shards)
    os.makedirs(args.out_dir, exist_ok=True)
    out, rows = TR.extend_context(
        ckpt, args.new_context_len, args.new_rope_base, _train_config(args), data,
        log_path=os.path.join(args.out_dir, "metrics.jsonl"))
    TR.save_checkpoint(out, os.path.join(args.out_dir, "checkpoint.bin"))
    tail = f"final_loss={rows[-1]['loss']:.6f}" if rows else "(no steps)"
    print(f"rope_base={out.model_config.rope_base:g} {tail}")
    return 0


def cmd_eval_ppl(args) -> int:
    if args.max_sequences is not None and args.max_sequences < 1:
        raise GenelmError(f"--max-sequences must be >= 1, got {args.max_sequences}")
    ckpt = TR.load_checkpoint(args.checkpoint)
    model = ckpt.build_model()
    data = T.read_shard(args.shards)
    row = E.report_row(os.path.basename(args.checkpoint), data.shape[1], model,
                       data[:args.max_sequences])
    print(f"ppl={row.ppl:.6f} mean_nll={row.mean_nll:.6f} recon_acc={row.recon_acc:.6f} "
          f"n_sequences={row.n_sequences}")
    if args.out:
        E.PerplexityReport([row]).write_jsonl(args.out)
    return 0


def cmd_sweep(args) -> int:
    models = []
    for path in args.checkpoints:
        ckpt = TR.load_checkpoint(path)
        models.append((os.path.splitext(os.path.basename(path))[0],
                       ckpt.build_model()))
    records = _load_records(args)
    try:
        lengths = [int(x) for x in args.lengths.split(",")]
    except ValueError:
        raise GenelmError(f"--lengths takes comma-separated integers, "
                          f"got {args.lengths!r}") from None
    report = E.length_sweep(models, records, lengths,
                            max_sequences=args.max_sequences)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "sweep.csv")
    report.write_csv(csv_path)
    report.write_jsonl(os.path.join(args.out_dir, "sweep.jsonl"))
    with open(csv_path, encoding="ascii") as f:
        print(f.read(), end="")
    return 0


def cmd_embed(args) -> int:
    ckpt = TR.load_checkpoint(args.checkpoint)
    model = ckpt.build_model()
    ds = D.load_labeled_dataset(args.dataset)
    # the model checks the layer before its first op
    X = _naming({}, functools.partial(D.embed_dataset, model, ds.sequences,
                                      pooling=args.pooling), layer=args.layer)
    # np.save's rule: a name without the .npy suffix gets it appended
    out = args.out if args.out.endswith(".npy") else args.out + ".npy"
    with atomic_write(out, "wb") as f:
        np.save(f, X)
    print(f"embeddings={X.shape[0]}x{X.shape[1]} pooling={args.pooling} out={out}")
    return 0


def cmd_probe(args) -> int:
    _naming({}, TR.TrainConfig, seed=args.seed)  # train_probe's rule, before any file
    ckpt = TR.load_checkpoint(args.checkpoint)
    model = ckpt.build_model()
    train_ds = D.load_labeled_dataset(args.train_dataset)
    test_ds = D.load_labeled_dataset(args.test_dataset)
    Xtr = D.embed_dataset(model, train_ds.sequences, pooling=args.pooling)
    Xte = D.embed_dataset(model, test_ds.sequences, pooling=args.pooling)
    record = D.train_probe(Xtr, train_ds.targets, Xte, test_ds.targets,
                           n_classes=train_ds.n_classes, seed=args.seed)
    record["task"] = train_ds.task_kind
    D.write_metrics(record, args.out)
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_finetune(args) -> int:
    if args.epochs < 1:
        raise GenelmError(f"--epochs must be >= 1, got {args.epochs}")

    def config(steps_per_epoch: int) -> TR.TrainConfig:
        return _naming({"lr_peak": "--lr"}, TR.finetune_config,
                       total_iters=args.epochs * steps_per_epoch, batch_size=args.batch_size,
                       lr=args.lr, schedule=args.schedule, seed=args.seed)

    config(1)  # a bad flag exits before any file is read
    ckpt = TR.load_checkpoint(args.checkpoint)
    train_ds = D.load_labeled_dataset(args.train_dataset)
    test_ds = D.load_labeled_dataset(args.test_dataset)
    cfg = config(max(1, -(-len(train_ds) // args.batch_size)))
    metrics, finetuned = D.finetune_classify(ckpt, train_ds, test_ds, mode=args.mode,
                                             config=cfg, head_seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    D.write_metrics(metrics, os.path.join(args.out_dir, "metrics.json"))
    TR.save_checkpoint(finetuned, os.path.join(args.out_dir, "finetuned.bin"))
    print(json.dumps(metrics, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="flat key=value file; explicit flags win")
    p.add_argument("--seed", type=int, default=0, help="master seed")


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fasta", default=None, help="FASTA path (.gz ok)")
    p.add_argument("--synthetic", nargs="*", default=None, metavar="KEY=VALUE",
                   help="synthetic genome spec: length=N [markov_order=K] "
                        "[sharpness=S] [seed=N]")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    d = ModelConfig()
    p.add_argument("--hidden", type=int, default=d.hidden, help="model width")
    p.add_argument("--n-layers", type=int, default=d.n_layers, help="decoder blocks")
    p.add_argument("--n-heads", type=int, default=d.n_heads, help="attention heads")
    p.add_argument("--ffn-dim", type=int, default=d.ffn_dim, help="feed-forward width")
    p.add_argument("--context-len", type=int, default=d.max_seq_len, help="training context")
    p.add_argument("--rope-base", type=float, default=d.rope_base,
                   help="rotary base frequency")


def _add_train_flags(p: argparse.ArgumentParser, d: TR.TrainConfig) -> None:
    p.add_argument("--batch-size", type=int, default=d.batch_size, help="sequences per step")
    p.add_argument("--lr-peak", type=float, default=d.lr_peak, help="post-warmup rate")
    p.add_argument("--lr-min", type=float, default=d.lr_min, help="end-of-decay rate")
    p.add_argument("--warmup-iters", type=int, default=d.warmup_iters,
                   help="linear warmup steps")
    p.add_argument("--total-iters", type=int, default=d.total_iters, help="total steps")
    p.add_argument("--weight-decay", type=float, default=d.weight_decay,
                   help="decoupled weight decay")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG, formatter_class=_Fmt,
        description="Nucleotide language model pipeline: prepare data, train, "
                    "extend context, evaluate, embed, probe, finetune.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", formatter_class=_Fmt,
                       help="window a genome and write train/eval token shards")
    _add_common(p)
    _add_input(p)
    p.add_argument("--window-len", type=int, default=512, help="window size in bp")
    p.add_argument("--max-ambiguous-fraction", type=float, default=G.MAX_AMBIGUOUS_FRACTION,
                   help="drop windows above this non-ACGT fraction")
    p.add_argument("--eval-fraction", type=float, default=0.01,
                   help="fraction of windows held out for eval")
    p.add_argument("--eval-holdout", default=None,
                   help="comma-separated record headers held out for eval "
                        "(source-level split instead of window-level)")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", formatter_class=_Fmt,
                       help="pretrain from scratch or resume from a checkpoint")
    _add_common(p)
    p.add_argument("--shards", required=True, help="train token shard")
    p.add_argument("--init-from", default=None, help="checkpoint to resume")
    _add_model_flags(p)
    _add_train_flags(p, TR.TrainConfig())
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extend", formatter_class=_Fmt,
                       help="continue pretraining at a longer context")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--shards", required=True,
                   help="token shard windowed at >= the new context length")
    p.add_argument("--new-context-len", type=int, required=True,
                   help="context length after extension")
    p.add_argument("--new-rope-base", type=float, default=None,
                   help="rotary base for the stage (default: scale the "
                        "previous base by the squared length ratio)")
    _add_train_flags(p, TR.TrainConfig(batch_size=4, lr_peak=1e-4, lr_min=4e-5,
                                       warmup_iters=20, total_iters=200))
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("eval-ppl", formatter_class=_Fmt,
                       help="perplexity and reconstruction accuracy on a shard")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--shards", required=True, help="token shard file")
    p.add_argument("--max-sequences", type=int, default=None,
                   help="cap on sequences scored per cell")
    p.add_argument("--out", default=None, help="JSONL report path")
    p.set_defaults(func=cmd_eval_ppl)

    p = sub.add_parser("sweep", formatter_class=_Fmt,
                       help="perplexity across checkpoints and eval lengths")
    _add_common(p)
    _add_input(p)
    p.add_argument("--checkpoints", nargs="+", required=True,
                   help="checkpoint files to compare")
    p.add_argument("--lengths", required=True, help="comma-separated, e.g. 64,128")
    p.add_argument("--max-sequences", type=int, default=None,
                   help="cap on sequences scored per cell")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("embed", formatter_class=_Fmt,
                       help="write pooled embeddings for a labeled dataset")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--dataset", required=True, help="labeled TSV file")
    p.add_argument("--pooling", choices=("max", "mean"), default="max",
                   help="token-axis pooling for embeddings")
    p.add_argument("--layer", type=int, default=None,
                   help="pool this block's output instead of the final norm")
    p.add_argument("--out", required=True, help=".npy output path")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("probe", formatter_class=_Fmt,
                       help="linear probe on frozen embeddings")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--train-dataset", required=True, help="labeled TSV, train split")
    p.add_argument("--test-dataset", required=True, help="labeled TSV, test split")
    p.add_argument("--pooling", choices=("max", "mean"), default="max",
                   help="token-axis pooling for embeddings")
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("finetune", formatter_class=_Fmt,
                       help="finetune a classifier head (optionally the backbone)")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--train-dataset", required=True, help="labeled TSV, train split")
    p.add_argument("--test-dataset", required=True, help="labeled TSV, test split")
    p.add_argument("--mode", choices=("all_layers", "head_only"),
                   default="all_layers", help="which parameters train")
    d = TR.finetune_config(1)
    p.add_argument("--epochs", type=int, default=2, help="passes over the train split")
    p.add_argument("--batch-size", type=int, default=d.batch_size, help="sequences per step")
    p.add_argument("--lr", type=float, default=d.lr_peak, help="peak learning rate")
    p.add_argument("--schedule", choices=("linear", "cosine"), default=d.schedule,
                   help="decay shape after warmup")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_finetune)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        _echo_config(args)
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"{PROG}: training diverged: {exc}", file=sys.stderr)
        return 1
    except (GenelmError, ValueError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"{PROG}: error: the run ran out of memory; smaller sizes (model width, "
              "context, batch, genome) need less", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
