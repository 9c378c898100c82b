"""Command-line pipeline: synth, featurize, split, pairs, train, index, query, evaluate.

Exit codes: 0 success, 1 usage error (bad flags or values), 2 data error
(bad input, or a file that cannot be read or written), 3 numeric failure.
The flags of the settings in PairingConfig, TrainConfig and LossConfig are made
from those dataclasses' fields, and an unset flag keeps the field's default.
Every optional flag can also be set in a JSON config file under its dest name;
a key that names no flag of the command is ignored. Settings resolve as flag >
config file > EFP_SEED (seed only) > default, and one global seed derives each
stage's seed by a fixed offset so stages can be rerun independently without
losing reproducibility. Featurizing has no settings: featurize and query --wav
both use the constants of efp.features, so a query is always featurized the
way the cache was.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np

from . import corpus, metrics, net, pairs, wav
from .errors import DataError, NumericError
from .features import DEFAULT_RATE_HZ, FeatureCache, featurize_clip, featurize_manifest
from .index import MEASURES, EmbeddingIndex, build_index, query as index_query
from .net import LossConfig, SiameseModel, TrainConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

STAGE_SEED_OFFSET = {"synth": 0, "split": 1, "pairs": 2, "train": 3}


class UsageError(Exception):
    """Bad flags or argument values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _file_defaults(command: _Parser, data: dict) -> dict:
    """The keys that name the command's optional flags, as flag defaults: the
    text of a string or number, parsed as flag text is, or an on/off bool."""
    defaults = {}
    for action in command._actions:
        key, value = action.dest, data.get(action.dest)
        if key not in data or not action.option_strings or action.required:
            continue
        on_off = action.nargs == 0
        if on_off != isinstance(value, bool) or not isinstance(value, (str, int, float)):
            kind = "true or false" if on_off else "a string or a number"
            raise UsageError(f"{key!r} must be {kind}, got {value!r}")
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"{key!r} must be one of {action.choices}, got {value!r}")
        defaults[key] = value if on_off else str(value)
    return defaults


def _stage_seed(args, stage: str) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("EFP_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"EFP_SEED must be an integer, got {env!r}") from None
    return seed + STAGE_SEED_OFFSET[stage]


def _flags(*classes) -> _Parser:
    """A parent parser with a --field-name flag (dest: the field) per field,
    but for the seed, which derives from --seed."""
    parser = _Parser(add_help=False)
    for cls in classes:
        for f in dataclasses.fields(cls):
            if f.name != "seed":
                parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                                    help=f"default {f.default}")
    return parser


def _config(cls, args, **fixed):
    """cls from the fixed values and the flags that were set; the rest of its
    fields keep the dataclass default."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in fixed]
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    return cls(**given, **fixed)


def _ratios(text: str) -> tuple[float, float, float]:
    try:
        train, val, test = (float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"need three comma-separated numbers, got {text!r}")
    return train, val, test


def cmd_synth(args) -> int:
    if args.classes < 2:
        raise UsageError(f"--classes must be >= 2, got {args.classes}")
    if args.per_class < 6:
        raise UsageError(f"--per-class must be >= 6, got {args.per_class}")
    manifest = corpus.generate_synthetic(args.classes, args.per_class,
                                         _stage_seed(args, "synth"), args.out)
    manifest_path = os.path.join(args.out, "manifest.csv")
    manifest.save(manifest_path)
    print(
        f"wrote {len(manifest)} clips in {len(manifest.class_set)} classes; "
        f"manifest: {manifest_path}"
    )
    return EXIT_OK


def cmd_featurize(args) -> int:
    manifest = corpus.Manifest.load(args.manifest)
    cache, errors = featurize_manifest(manifest.records)
    cache.save(args.out)
    print(f"cached {len(cache)} of {len(manifest)} clips -> {args.out}")
    if errors:
        for line in errors:
            print(f"featurize error: {line}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def cmd_split(args) -> int:
    manifest = corpus.Manifest.load(args.manifest)
    split = corpus.split_manifest(manifest, args.ratios, _stage_seed(args, "split"))
    split.save(args.out)
    counts = " ".join(f"{name}={len(split.subset(name))}" for name in ("train", "val", "test"))
    print(f"split {len(split)} clips -> {counts}; manifest: {args.out}")
    return EXIT_OK


def cmd_pairs(args) -> int:
    pairing = _config(pairs.PairingConfig, args, seed=_stage_seed(args, "pairs"))
    manifest = corpus.Manifest.load(args.manifest)
    records = manifest.subset(args.split)
    if not records:
        raise DataError(f"manifest has no clips in split {args.split!r}; run split first")
    pair_set = pairs.make_pairs(records, pairing)
    pairs.save_pairs(pair_set, args.out)
    n_pos = int(pair_set.y.sum())
    print(f"{args.split} split: {n_pos} positive + {len(pair_set) - n_pos} negative "
          f"pairs -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    pairing = _config(pairs.PairingConfig, args, seed=_stage_seed(args, "pairs"))
    train_cfg = _config(TrainConfig, args, seed=_stage_seed(args, "train"))
    loss_cfg = _config(LossConfig, args)
    manifest = corpus.Manifest.load(args.manifest)
    train_records = manifest.subset("train")
    val_records = manifest.subset("val")
    if not train_records or not val_records:
        raise DataError("manifest lacks train or val clips; run split first")
    train_pairs = pairs.make_pairs(train_records, pairing)
    val_pairs = pairs.make_pairs(val_records, pairing)
    # only the rows of the clips in some pair
    cache = FeatureCache.load(args.cache, train_pairs.ids + val_pairs.ids)
    result = net.train(train_pairs, val_pairs, cache, train_cfg, loss_cfg)
    result.model.save(args.out)
    history_path = args.history or os.path.splitext(args.out)[0] + "_history.csv"
    net.save_history(result.history, history_path)
    best = result.history[result.best_epoch - 1]
    print(
        f"trained {train_cfg.epochs} epochs on {len(train_pairs)} pairs "
        f"({pairing.scheme}); best epoch {result.best_epoch} "
        f"(val loss {best[2]:.6f}); model: {args.out}; history: {history_path}"
    )
    return EXIT_OK


def cmd_index(args) -> int:
    model = SiameseModel.load(args.model)
    if args.manifest is not None:
        manifest = corpus.Manifest.load(args.manifest)
        records = manifest.records if args.split == "all" else manifest.subset(args.split)
        if not records:
            raise DataError(f"manifest has no clips in split {args.split!r}")
        clip_ids = [r.clip_id for r in records]
    else:
        clip_ids = None
    # only the rows of the clips indexed
    cache = FeatureCache.load(args.cache, clip_ids)
    idx = build_index(model, cache, clip_ids)
    idx.save(args.out)
    print(f"indexed {len(idx)} clips ({idx.dim}-d embeddings) -> {args.out}")
    return EXIT_OK


def _query_embedding(args, model: SiameseModel, idx: EmbeddingIndex) -> np.ndarray:
    if (args.wav is None) == (args.clip_id is None):
        raise UsageError("provide exactly one of --wav or --clip-id")
    if args.clip_id is not None:
        return idx.vector(args.clip_id).astype(np.float64)
    # the first clip only; closing the stream copies out no other
    clips = wav.decode_wav(args.wav, DEFAULT_RATE_HZ)
    clip = next(clips, None)
    clips.close()
    if clip is None:
        raise DataError(f"{args.wav}: no full 2-second clip to query with")
    feat = featurize_clip(clip)
    if feat.values.shape[0] != model.input_dim:
        raise DataError(
            f"features have {feat.values.shape[0]} dims but the "
            f"model expects {model.input_dim}"
        )
    return model.embed(feat.values.astype(np.float32))


def cmd_query(args) -> int:
    model = SiameseModel.load(args.model)
    idx = EmbeddingIndex.load(args.index)
    if idx.model_fingerprint != model.fingerprint():
        logger.warning("index was built by a different model than %s", args.model)
    q = _query_embedding(args, model, idx)
    exclude = args.clip_id if (args.exclude_self and args.clip_id) else None
    ranking = index_query(idx, q, args.measure, args.k, exclude)
    print("rank,clip_id,class_label,score")
    for rank, (cid, label, score) in enumerate(ranking, start=1):
        print(f"{rank},{cid},{label},{score!r}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    idx = EmbeddingIndex.load(args.index)
    if args.k_max < 1 or args.headline_k < 1:
        raise UsageError("--k-max and --headline-k must be >= 1")
    measures = MEASURES if args.measure == "both" else [args.measure]
    os.makedirs(args.out_dir, exist_ok=True)
    reports = []
    for measure in measures:
        start = time.perf_counter()
        report = metrics.evaluate_all(
            idx, None, measure, range(1, args.k_max + 1), args.headline_k
        )
        elapsed = time.perf_counter() - start
        logger.info(
            "evaluate %s: %d queries in %.3f s (%.0f queries/s)",
            measure, len(idx), elapsed, len(idx) / elapsed,
        )
        reports.append(report)
        metrics.save_sweep_csv(
            report, os.path.join(args.out_dir, f"mpk_sweep_{measure}.csv")
        )
        metrics.save_per_class_csv(
            report, os.path.join(args.out_dir, f"per_class_{measure}.csv")
        )
        print(
            f"{measure}: MAP={report.map:.4f} MP1={report.mp1:.4f} "
            f"MP{args.headline_k}={report.headline_mpk:.4f} "
            f"({report.n_queries} queries, {report.n_unscorable} unscorable)"
        )
    metrics.save_scalars_csv(reports, os.path.join(args.out_dir, "scalars.csv"))
    print(f"reports written under {args.out_dir}")
    return EXIT_OK


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="global seed (default 0)")
    common.add_argument("--config", default=None, help="JSON config file")
    pairing = _flags(pairs.PairingConfig)

    parser = _Parser(
        prog="efp",
        description="Query-by-example audio retrieval with learned fingerprints.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--per-class", type=int, default=40)
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", parents=[common], help="build the feature cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="feature cache file")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("split", parents=[common], help="assign train/val/test splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ratios", type=_ratios, default=corpus.SPLIT_RATIOS, help="train,val,test")
    p.add_argument("--out", required=True, help="output manifest CSV")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("pairs", parents=[common, pairing], help="export a labeled pair list")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="train")
    p.add_argument("--out", required=True, help="output pairs CSV")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser(
        "train", parents=[common, pairing, _flags(TrainConfig, LossConfig)],
        help="train the twin network",
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True, help="feature cache file")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--history", default=None, help="training-history CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", parents=[common], help="embed clips into an index")
    p.add_argument("--model", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--manifest", default=None, help="restrict to one split of this manifest")
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--out", required=True, help="output index file")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", parents=[common], help="rank the database for one query")
    p.add_argument("--model", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--wav", default=None, help="query WAV file (first 2 s clip is used)")
    p.add_argument("--clip-id", help="query by stored clip")
    p.add_argument("--measure", choices=MEASURES, default="euclidean")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--exclude-self", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("evaluate", parents=[common], help="compute retrieval metrics")
    p.add_argument("--index", required=True)
    p.add_argument("--measure", choices=(*MEASURES, "both"), default="both")
    p.add_argument("--k-max", type=int, default=metrics.DEFAULT_K_VALUES[-1])
    p.add_argument("--headline-k", type=int, default=metrics.DEFAULT_HEADLINE_K)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_evaluate)

    parser.commands = sub.choices
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv, and with --config parse it again with the file's keys as the
    command's flag defaults, so that a flag still wins over the file."""
    parser = build_parser()
    args = parser.parse_args(argv)
    path = args.config
    if path is None:
        return args
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    command = parser.commands[args.command]
    try:
        command.set_defaults(**_file_defaults(command, data))
        return parser.parse_args(argv)
    except UsageError as exc:
        raise UsageError(f"config file {path}: {exc}") from None


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
