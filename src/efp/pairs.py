"""Labeled clip pairs for contrastive training: balanced and unbalanced schemes.

A ``PairSet`` holds pairs as index arrays: pair k is ``ids[a[k]]`` and
``ids[b[k]]`` with label ``y[k]`` (1: same class). ``ids`` are the sorted ids
of the clips in some pair and no others. The schemes order the pairs (i, j),
i < j, of the sorted clip ids with the positives first, by class label and
then in ``itertools.combinations`` order, then the negatives in (i, j) order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import ClipRecord
from .errors import DataError

SCHEMES = ("balanced", "unbalanced")


@dataclass(frozen=True, eq=False)
class PairSet:
    """Pair k is (``ids[a[k]]``, ``ids[b[k]]``) with label ``y[k]``."""

    ids: list[str]
    a: np.ndarray
    b: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        a, b, y = self.a, self.b, self.y
        if not (a.ndim == 1 and a.shape == b.shape == y.shape and a.dtype.kind in "iu"
                and b.dtype.kind in "iu"):
            raise ValueError("pair arrays must be 1-D and of one length, with integer indices")
        if a.size and not (min(a.min(), b.min()) >= 0 and max(a.max(), b.max()) < len(self.ids)):
            raise ValueError(f"pair index out of range for {len(self.ids)} clip ids")
        if np.any(a == b):
            raise ValueError(f"pair of a clip with itself: {self.ids[a[a == b][0]]!r}")
        if np.any((y != 0) & (y != 1)):
            raise ValueError(f"pair label must be 0 or 1, got {y[(y != 0) & (y != 1)][0]}")

    def __len__(self) -> int:
        return self.y.size

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[str, str, int]]) -> "PairSet":
        """The pairs (clip_a, clip_b, label) of ``rows``, in their order."""
        a, b, y = zip(*rows) if rows else ((), (), ())
        ids, index = np.unique(np.array(a + b, dtype=object), return_inverse=True)
        return cls(ids.tolist(), index[: len(a)], index[len(a) :], np.array(y, dtype=np.int64))


@dataclass(frozen=True)
class PairingConfig:
    scheme: str = "unbalanced"
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown pairing scheme {self.scheme!r}")


def _classes(clips: Sequence[ClipRecord], scheme: str | None = None):
    """The sorted clip ids and the class of each, numbered in label order. A
    named scheme needs 2+ classes."""
    label_of = {rec.clip_id: rec.class_label for rec in clips}
    ids = sorted(label_of)
    classes, codes = np.unique([label_of[c] for c in ids], return_inverse=True)
    if scheme is not None and classes.size < 2:
        raise DataError(f"{scheme} pairing needs at least 2 classes")
    return ids, codes


def _positives(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every same-class index pair (i, j), i < j, class by class in label order;
    row-major order within a class is ``itertools.combinations`` order."""
    first, second = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for k in range(codes.max(initial=-1) + 1):
        members = np.flatnonzero(codes == k)
        i, j = np.triu_indices(members.size, 1)
        first.append(members[i])
        second.append(members[j])
    return np.concatenate(first), np.concatenate(second)


def _all_negatives(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every cross-class index pair (i, j), i < j, in row-major order."""
    first, second = np.triu_indices(codes.size, 1)
    cross = codes[first] != codes[second]
    return first[cross], second[cross]


_NO_PAIRS = (np.empty(0, dtype=np.intp),) * 2


def _pair_set(ids: list[str], positives, negatives=_NO_PAIRS) -> PairSet:
    """The positive index pairs (first, second) over ``ids``, then the
    negative ones, as one ``PairSet`` on the clips used."""
    used = np.zeros(len(ids), dtype=bool)
    for index in (*positives, *negatives):
        used[index] = True
    new_index = np.cumsum(used, dtype=np.int32) - 1
    a, b = (np.concatenate((new_index[p], new_index[n])) for p, n in zip(positives, negatives))
    y = np.zeros(a.size, dtype=np.int8)
    y[: positives[0].size] = 1
    return PairSet([c for c, u in zip(ids, used.tolist()) if u], a, b, y)


def positive_pairs(clips: Sequence[ClipRecord]) -> PairSet:
    """All same-class pairs, label 1, each once with clip_a < clip_b."""
    ids, codes = _classes(clips)
    return _pair_set(ids, _positives(codes))


def balanced_pairs(clips: Sequence[ClipRecord], cfg: PairingConfig) -> PairSet:
    """All positives plus an equal number of cross-class negatives.

    The negatives are a seeded uniform draw, without replacement, from the
    unbalanced scheme's negatives, kept in their canonical order.
    """
    ids, codes = _classes(clips, "balanced")
    positives = _positives(codes)
    first, second = _all_negatives(codes)
    n_pos, n_neg = positives[0].size, first.size
    if n_neg < n_pos:
        raise DataError(f"corpus has only {n_neg} distinct cross-class pairs but "
                        f"{n_pos} positives; cannot balance")
    rng = np.random.default_rng([cfg.seed])
    picks = np.sort(rng.choice(n_neg, size=n_pos, replace=False))
    return _pair_set(ids, positives, (first[picks], second[picks]))


def unbalanced_pairs(clips: Sequence[ClipRecord], cfg: PairingConfig) -> PairSet:
    """All positives plus every cross-class pair; nothing is drawn, so the
    seed in ``cfg`` is not used."""
    ids, codes = _classes(clips, "unbalanced")
    return _pair_set(ids, _positives(codes), _all_negatives(codes))


def make_pairs(clips: Sequence[ClipRecord], cfg: PairingConfig) -> PairSet:
    if cfg.scheme == "balanced":
        return balanced_pairs(clips, cfg)
    return unbalanced_pairs(clips, cfg)


def save_pairs(pairs: PairSet, path) -> None:
    names = np.array(pairs.ids, dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["clip_a", "clip_b", "label"])
        writer.writerows(zip(names[pairs.a], names[pairs.b], pairs.y.tolist()))


def load_pairs(path) -> PairSet:
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
            return PairSet.from_rows([(row[0], row[1], int(row[2])) for row in reader])
        except (IndexError, ValueError, OverflowError) as exc:  # includes a bad UTF-8 byte
            raise DataError(f"{path}: malformed pair row ({exc})") from exc
