"""Labeled clip pairs for contrastive training: balanced and unbalanced schemes."""

from __future__ import annotations

import csv
import itertools
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import ClipRecord
from .errors import DataError

logger = logging.getLogger(__name__)

SCHEMES = ("balanced", "unbalanced")


@dataclass(frozen=True)
class PairExample:
    clip_a: str
    clip_b: str
    label: int

    def __post_init__(self):
        if self.clip_a == self.clip_b:
            raise ValueError(f"pair of a clip with itself: {self.clip_a!r}")
        if self.label not in (0, 1):
            raise ValueError(f"pair label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class PairingConfig:
    scheme: str = "unbalanced"
    seed: int = 0
    max_negatives_per_clip: int | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown pairing scheme {self.scheme!r}")
        if self.max_negatives_per_clip is not None and self.max_negatives_per_clip < 1:
            raise ValueError("max_negatives_per_clip must be >= 1 when set")


def _by_class(clips: Iterable[ClipRecord]) -> dict[str, list[str]]:
    grouped: dict[str, list[str]] = {}
    for rec in clips:
        grouped.setdefault(rec.class_label, []).append(rec.clip_id)
    for ids in grouped.values():
        ids.sort()
    return grouped


def positive_pairs(clips: Sequence[ClipRecord]) -> list[PairExample]:
    """All same-class pairs, label 1, each once with clip_a < clip_b."""
    out: list[PairExample] = []
    grouped = _by_class(clips)
    for label in sorted(grouped):
        for a, b in itertools.combinations(grouped[label], 2):
            out.append(PairExample(a, b, 1))
    return out


def _negative_index_pairs(grouped: dict[str, list[str]]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The sorted clip ids and the index pairs (i, j), i < j, of every
    cross-class pair, in canonical (clip_a, clip_b) order."""
    class_of = {cid: k for k, ids in enumerate(grouped.values()) for cid in ids}
    ids = sorted(class_of)
    codes = np.array([class_of[cid] for cid in ids])
    first, second = np.triu_indices(len(ids), 1)
    cross = codes[first] != codes[second]
    return ids, first[cross], second[cross]


def _positives_and_negatives(
    clips: Sequence[ClipRecord], scheme: str
) -> tuple[list[PairExample], tuple[list[str], np.ndarray, np.ndarray]]:
    grouped = _by_class(clips)
    if len(grouped) < 2:
        raise DataError(f"{scheme} pairing needs at least 2 classes")
    return positive_pairs(clips), _negative_index_pairs(grouped)


def _negative_pairs(ids: list[str], first: np.ndarray, second: np.ndarray) -> list[PairExample]:
    return [PairExample(ids[i], ids[j], 0) for i, j in zip(first.tolist(), second.tolist())]


def balanced_pairs(clips: Sequence[ClipRecord], cfg: PairingConfig) -> list[PairExample]:
    """All positives plus an equal number of cross-class negatives.

    The negatives are a seeded uniform draw, without replacement, from the
    unbalanced scheme's negatives, kept in their canonical order. Only the
    drawn ones are built.
    """
    positives, (ids, first, second) = _positives_and_negatives(clips, "balanced")
    if len(first) < len(positives):
        raise DataError(
            f"corpus has only {len(first)} distinct cross-class pairs but "
            f"{len(positives)} positives; cannot balance"
        )
    rng = np.random.default_rng([cfg.seed])
    picks = np.sort(rng.choice(len(first), size=len(positives), replace=False))
    return positives + _negative_pairs(ids, first[picks], second[picks])


def unbalanced_pairs(clips: Sequence[ClipRecord], cfg: PairingConfig) -> list[PairExample]:
    """All positives plus every cross-class pair (optionally capped per anchor).

    With max_negatives_per_clip set, each clip keeps at most that many
    negatives in which it appears on the anchor (clip_a) side, sampled with
    the config seed.
    """
    positives, index_pairs = _positives_and_negatives(clips, "unbalanced")
    negatives = _negative_pairs(*index_pairs)
    cap = cfg.max_negatives_per_clip
    if cap is not None:
        rng = np.random.default_rng([cfg.seed])
        by_anchor: dict[str, list[PairExample]] = {}
        for p in negatives:
            by_anchor.setdefault(p.clip_a, []).append(p)
        negatives = []
        for anchor in sorted(by_anchor):
            group = by_anchor[anchor]
            if len(group) > cap:
                picks = rng.choice(len(group), size=cap, replace=False)
                group = [group[int(i)] for i in sorted(picks)]
            negatives.extend(group)
    return positives + negatives


def make_pairs(clips: Sequence[ClipRecord], cfg: PairingConfig) -> list[PairExample]:
    if cfg.scheme == "balanced":
        return balanced_pairs(clips, cfg)
    return unbalanced_pairs(clips, cfg)


def save_pairs(pairs: Iterable[PairExample], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["clip_a", "clip_b", "label"])
        for p in pairs:
            writer.writerow([p.clip_a, p.clip_b, p.label])


def load_pairs(path) -> list[PairExample]:
    try:
        f = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot open pair list ({exc})") from exc
    with f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header != ["clip_a", "clip_b", "label"]:
                raise DataError(f"{path}: bad pair-list header {header}")
            return [PairExample(row[0], row[1], int(row[2])) for row in reader]
        except (IndexError, ValueError) as exc:  # includes a bad UTF-8 byte
            raise DataError(f"{path}: malformed pair row ({exc})") from exc
