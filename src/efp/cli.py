"""Command-line pipeline: synth, featurize, split, pairs, train, index, query, evaluate.

Exit codes: 0 success, 1 usage error (bad flags or values), 2 data error
(bad input, or a file that cannot be read or written), 3 numeric failure.
Settings resolve as flag > config file (JSON) > EFP_SEED (seed only) > default,
and one global seed derives each stage's seed by a fixed offset so stages can
be rerun independently without losing reproducibility.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from . import corpus, metrics, net, pairs, wav
from .errors import DataError, NumericError
from .features import (
    DEFAULT_RATE_HZ,
    FeatConfig,
    FeatureCache,
    StftConfig,
    featurize_clip,
    featurize_manifest,
)
from .index import EmbeddingIndex, build_index, query as index_query
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


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return data


def _cfg(args, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in args.config_data:
        return args.config_data[key]
    return default


def _base_seed(args) -> int:
    value = _cfg(args, "seed", None)
    if value is None:
        env = os.environ.get("EFP_SEED")
        if env is not None:
            try:
                value = int(env)
            except ValueError:
                raise UsageError(f"EFP_SEED must be an integer, got {env!r}") from None
    if value is None:
        return 0
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"seed must be an integer, got {value!r}") from None


def _stage_seed(args, stage: str) -> int:
    return _base_seed(args) + STAGE_SEED_OFFSET[stage]


def _stft_config(args) -> StftConfig:
    return StftConfig(
        fft_size=int(_cfg(args, "fft_size", 1024)),
        window_ms=int(_cfg(args, "window_ms", 64)),
        hop_ms=int(_cfg(args, "hop_ms", 32)),
        window_fn=str(_cfg(args, "window_fn", "hann")),
    )


def _feat_config(args) -> FeatConfig:
    return FeatConfig(
        freq_bins=int(_cfg(args, "freq_bins", 79)),
        time_bins=int(_cfg(args, "time_bins", 171)),
        amplitude_floor=float(_cfg(args, "amplitude_floor", 1e-6)),
    )


def _rate(args) -> int:
    return int(_cfg(args, "rate", DEFAULT_RATE_HZ))


def _pairing_config(args) -> pairs.PairingConfig:
    cap = _cfg(args, "max_negatives_per_clip", None)
    return pairs.PairingConfig(
        scheme=str(_cfg(args, "scheme", "unbalanced")),
        seed=_stage_seed(args, "pairs"),
        max_negatives_per_clip=None if cap is None else int(cap),
    )


def cmd_synth(args) -> int:
    n_classes = int(_cfg(args, "classes", 5))
    per_class = int(_cfg(args, "per_class", 40))
    if n_classes < 2:
        raise UsageError(f"--classes must be >= 2, got {n_classes}")
    if per_class < 6:
        raise UsageError(f"--per-class must be >= 6, got {per_class}")
    manifest = corpus.generate_synthetic(
        n_classes, per_class, _stage_seed(args, "synth"), args.out, rate_hz=_rate(args)
    )
    manifest_path = os.path.join(args.out, "manifest.csv")
    manifest.save(manifest_path)
    print(
        f"wrote {len(manifest)} clips in {len(manifest.class_set)} classes; "
        f"manifest: {manifest_path}"
    )
    return EXIT_OK


def cmd_featurize(args) -> int:
    manifest = corpus.Manifest.load(args.manifest)
    cache, errors = featurize_manifest(
        manifest.records, _stft_config(args), _feat_config(args), rate_hz=_rate(args)
    )
    cache.save(args.out)
    print(f"cached {len(cache)} of {len(manifest)} clips -> {args.out}")
    if errors:
        for line in errors:
            print(f"featurize error: {line}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def cmd_split(args) -> int:
    manifest = corpus.Manifest.load(args.manifest)
    raw = _cfg(args, "ratios", "0.7,0.1,0.2")
    try:
        parts = [float(p) for p in str(raw).split(",")]
    except ValueError:
        raise UsageError(f"--ratios must be three comma-separated numbers, got {raw!r}") from None
    if len(parts) != 3:
        raise UsageError(f"--ratios must have exactly three numbers, got {raw!r}")
    split = corpus.split_manifest(manifest, tuple(parts), _stage_seed(args, "split"))
    split.save(args.out)
    counts = {name: len(split.subset(name)) for name in ("train", "val", "test")}
    print(
        f"split {len(split)} clips -> train={counts['train']} "
        f"val={counts['val']} test={counts['test']}; manifest: {args.out}"
    )
    return EXIT_OK


def cmd_pairs(args) -> int:
    manifest = corpus.Manifest.load(args.manifest)
    records = manifest.subset(args.split)
    if not records:
        raise DataError(f"manifest has no clips in split {args.split!r}; run split first")
    pair_list = pairs.make_pairs(records, _pairing_config(args))
    pairs.save_pairs(pair_list, args.out)
    n_pos = sum(p.label for p in pair_list)
    print(
        f"{args.split} split: {n_pos} positive + {len(pair_list) - n_pos} negative "
        f"pairs -> {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    manifest = corpus.Manifest.load(args.manifest)
    cache = FeatureCache.load(args.cache)
    train_records = manifest.subset("train")
    val_records = manifest.subset("val")
    if not train_records or not val_records:
        raise DataError("manifest lacks train or val clips; run split first")
    pairing = _pairing_config(args)
    train_pairs = pairs.make_pairs(train_records, pairing)
    val_pairs = pairs.make_pairs(val_records, pairing)
    train_cfg = TrainConfig(
        epochs=int(_cfg(args, "epochs", 200)),
        batch_size=int(_cfg(args, "batch_size", 64)),
        learning_rate=float(_cfg(args, "learning_rate", 1e-3)),
        optimizer=str(_cfg(args, "optimizer", "adam")),
        dropout_rate=float(_cfg(args, "dropout", 0.3)),
        seed=_stage_seed(args, "train"),
    )
    loss_cfg = LossConfig(margin=float(_cfg(args, "margin", 1.0)))
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
    cache = FeatureCache.load(args.cache)
    if args.manifest is not None:
        manifest = corpus.Manifest.load(args.manifest)
        records = manifest.records if args.split == "all" else manifest.subset(args.split)
        if not records:
            raise DataError(f"manifest has no clips in split {args.split!r}")
        clip_ids = [r.clip_id for r in records]
    else:
        clip_ids = None
    idx = build_index(model, cache, clip_ids)
    idx.save(args.out)
    print(f"indexed {len(idx)} clips ({idx.dim}-d embeddings) -> {args.out}")
    return EXIT_OK


def _query_embedding(args, model: SiameseModel, idx: EmbeddingIndex) -> np.ndarray:
    if (args.wav is None) == (args.clip_id is None):
        raise UsageError("provide exactly one of --wav or --clip-id")
    if args.clip_id is not None:
        return idx.vector(args.clip_id).astype(np.float64)
    clips = list(wav.decode_wav(args.wav, _rate(args)))
    if not clips:
        raise DataError(f"{args.wav}: no full 2-second clip to query with")
    feat = featurize_clip(clips[0], _stft_config(args), _feat_config(args))
    if feat.values.shape[0] != model.input_dim:
        raise DataError(
            f"feature settings produce {feat.values.shape[0]} dims but the "
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
    ranking = index_query(idx, q, args.measure, int(_cfg(args, "k", 10)), exclude)
    print("rank,clip_id,class_label,score")
    for rank, (cid, label, score) in enumerate(ranking, start=1):
        print(f"{rank},{cid},{label},{score!r}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    idx = EmbeddingIndex.load(args.index)
    k_max = int(_cfg(args, "k_max", 30))
    headline_k = int(_cfg(args, "headline_k", metrics.DEFAULT_HEADLINE_K))
    if k_max < 1 or headline_k < 1:
        raise UsageError("--k-max and --headline-k must be >= 1")
    measures = ["euclidean", "cosine"] if args.measure == "both" else [args.measure]
    os.makedirs(args.out_dir, exist_ok=True)
    reports = []
    for measure in measures:
        start = time.perf_counter()
        report = metrics.evaluate_all(
            idx, None, measure, range(1, k_max + 1), headline_k
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
            f"MP{headline_k}={report.headline_mpk:.4f} "
            f"({report.n_queries} queries, {report.n_unscorable} unscorable)"
        )
    metrics.save_scalars_csv(reports, os.path.join(args.out_dir, "scalars.csv"))
    print(f"reports written under {args.out_dir}")
    return EXIT_OK


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="global seed (default 0)")
    common.add_argument("--config", default=None, help="JSON config file")

    feat_flags = _Parser(add_help=False)
    feat_flags.add_argument("--rate", type=int, default=None, help="sample rate in Hz")
    feat_flags.add_argument("--fft-size", type=int, default=None, dest="fft_size")
    feat_flags.add_argument("--window-ms", type=int, default=None, dest="window_ms")
    feat_flags.add_argument("--hop-ms", type=int, default=None, dest="hop_ms")
    feat_flags.add_argument(
        "--window-fn", choices=("hann", "rectangular"), default=None, dest="window_fn"
    )
    feat_flags.add_argument("--freq-bins", type=int, default=None, dest="freq_bins")
    feat_flags.add_argument("--time-bins", type=int, default=None, dest="time_bins")
    feat_flags.add_argument(
        "--amplitude-floor", type=float, default=None, dest="amplitude_floor"
    )

    pair_flags = _Parser(add_help=False)
    pair_flags.add_argument(
        "--scheme", choices=pairs.SCHEMES, default=None, help="pairing scheme"
    )
    pair_flags.add_argument(
        "--max-negatives-per-clip", type=int, default=None, dest="max_negatives_per_clip"
    )

    parser = _Parser(
        prog="efp",
        description="Query-by-example audio retrieval with learned fingerprints.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--per-class", type=int, default=None, dest="per_class")
    p.add_argument("--rate", type=int, default=None)
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "featurize", parents=[common, feat_flags], help="build the feature cache"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="feature cache file")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("split", parents=[common], help="assign train/val/test splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ratios", default=None, help="train,val,test (default 0.7,0.1,0.2)")
    p.add_argument("--out", required=True, help="output manifest CSV")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser(
        "pairs", parents=[common, pair_flags], help="export a labeled pair list"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="train")
    p.add_argument("--out", required=True, help="output pairs CSV")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser(
        "train", parents=[common, pair_flags], help="train the twin network"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True, help="feature cache file")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.add_argument("--learning-rate", type=float, default=None, dest="learning_rate")
    p.add_argument("--optimizer", choices=("sgd", "adam"), default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
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

    p = sub.add_parser(
        "query", parents=[common, feat_flags], help="rank the database for one query"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--wav", default=None, help="query WAV file (first 2 s clip is used)")
    p.add_argument("--clip-id", default=None, dest="clip_id", help="query by stored clip")
    p.add_argument("--measure", choices=("euclidean", "cosine"), default="euclidean")
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--exclude-self", action="store_true", dest="exclude_self")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("evaluate", parents=[common], help="compute retrieval metrics")
    p.add_argument("--index", required=True)
    p.add_argument("--measure", choices=("euclidean", "cosine", "both"), default="both")
    p.add_argument("--k-max", type=int, default=None, dest="k_max")
    p.add_argument("--headline-k", type=int, default=None, dest="headline_k")
    p.add_argument("--out-dir", default=".", dest="out_dir")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.config_data = _load_config(getattr(args, "config", None))
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
