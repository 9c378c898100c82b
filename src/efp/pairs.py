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


def _canonical(a: str, b: str, label: int) -> PairExample:
    return PairExample(min(a, b), max(a, b), label)


def positive_pairs(clips: Sequence[ClipRecord]) -> list[PairExample]:
    """All same-class pairs, label 1, each once with clip_a < clip_b."""
    out: list[PairExample] = []
    grouped = _by_class(clips)
    for label in sorted(grouped):
        for a, b in itertools.combinations(grouped[label], 2):
            out.append(PairExample(a, b, 1))
    return out


def _all_negative_pairs(grouped: dict[str, list[str]]) -> list[PairExample]:
    out: list[PairExample] = []
    labels = sorted(grouped)
    for la, lb in itertools.combinations(labels, 2):
        for a in grouped[la]:
            for b in grouped[lb]:
                out.append(_canonical(a, b, 0))
    out.sort(key=lambda p: (p.clip_a, p.clip_b))
    return out


def balanced_pairs(clips: Sequence[ClipRecord], cfg: PairingConfig) -> list[PairExample]:
    """All positives plus an equal number of seeded random cross-class negatives.

    Negatives are drawn without replacement: each clip in turn is paired
    with a random clip of another class, redrawing on duplicates.
    """
    grouped = _by_class(clips)
    if len(grouped) < 2:
        raise DataError("balanced pairing needs at least 2 classes")
    positives = positive_pairs(clips)
    n_ids = sum(len(v) for v in grouped.values())
    n_cross = (n_ids * (n_ids - 1)) // 2 - len(positives)
    if n_cross < len(positives):
        raise DataError(
            f"corpus has only {n_cross} distinct cross-class pairs but "
            f"{len(positives)} positives; cannot balance"
        )
    rng = np.random.default_rng([cfg.seed])
    all_ids = sorted(cid for ids in grouped.values() for cid in ids)
    label_of = {cid: label for label, ids in grouped.items() for cid in ids}
    others: dict[str, list[str]] = {
        label: sorted(cid for other, ids in grouped.items() if other != label for cid in ids)
        for label in grouped
    }
    chosen: set[tuple[str, str]] = set()
    negatives: list[PairExample] = []
    anchor_cycle = itertools.cycle(all_ids)
    while len(negatives) < len(positives):
        anchor = next(anchor_cycle)
        pool = others[label_of[anchor]]
        for _ in range(1000):
            partner = pool[int(rng.integers(len(pool)))]
            key = (min(anchor, partner), max(anchor, partner))
            if key not in chosen:
                chosen.add(key)
                negatives.append(PairExample(key[0], key[1], 0))
                break
        else:
            # this anchor's partners are all used up; fall back to drawing
            # uniformly from whatever cross-class pairs remain
            remaining = [
                p for p in _all_negative_pairs(grouped)
                if (p.clip_a, p.clip_b) not in chosen
            ]
            take = len(positives) - len(negatives)
            picks = rng.choice(len(remaining), size=take, replace=False)
            for idx in sorted(int(i) for i in picks):
                p = remaining[idx]
                chosen.add((p.clip_a, p.clip_b))
                negatives.append(p)
    return positives + negatives


def unbalanced_pairs(clips: Sequence[ClipRecord], cfg: PairingConfig) -> list[PairExample]:
    """All positives plus every cross-class pair (optionally capped per anchor).

    With max_negatives_per_clip set, each clip keeps at most that many
    negatives in which it appears on the anchor (clip_a) side, sampled with
    the config seed.
    """
    grouped = _by_class(clips)
    if len(grouped) < 2:
        raise DataError("unbalanced pairing needs at least 2 classes")
    positives = positive_pairs(clips)
    negatives = _all_negative_pairs(grouped)
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
