"""Retrieval metrics: average precision, first-hit precision, top-K precision."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, UnscorableQuery
from .index import EmbeddingIndex, rank

logger = logging.getLogger(__name__)

DEFAULT_K_VALUES = tuple(range(1, 31))
DEFAULT_HEADLINE_K = 25


@dataclass(frozen=True, eq=False)
class RelevanceList:
    """0/1 relevance of one query's ranked results.

    bits is held as a read-only bool array (any 0/1 sequence is accepted),
    and precision as the read-only curve hits-so-far / rank, computed once.
    m_j is the number of relevant items that exist in the database for this
    query, which can exceed the hits in bits when the ranking was truncated.
    """

    bits: np.ndarray
    m_j: int
    precision: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.dtype != bool and not np.isin(bits, (0, 1)).all():
            raise ValueError("relevance bits must be 0 or 1")
        if self.m_j < 0:
            raise ValueError("m_j must be >= 0")
        bits = bits.astype(bool)
        hits = np.cumsum(bits)
        if len(bits) and hits[-1] > self.m_j:
            raise ValueError(f"{hits[-1]} hits exceed m_j={self.m_j}")
        precision = hits / np.arange(1, len(bits) + 1)
        for name, value in (("bits", bits), ("precision", precision)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def average_precision(rel: RelevanceList) -> float:
    """Mean of precision values taken at each relevant position.

    Requires the ranking to cover the database (all m_j positives present).
    """
    if rel.m_j == 0:
        raise UnscorableQuery("no relevant items exist for this query")
    # a running sum in rank order, as a loop adds; np.sum pairs terms and rounds differently
    terms = np.where(rel.bits, rel.precision, 0.0)
    return float(np.cumsum(terms)[-1]) / rel.m_j if len(terms) else 0.0


def precision_at_first_hit(rel: RelevanceList) -> float:
    """1/rank of the first relevant result."""
    if not rel.bits.any():
        raise UnscorableQuery("no relevant item appears in the ranking")
    return float(rel.precision[rel.bits.argmax()])


def precision_at_k(rel: RelevanceList, k: int) -> float:
    """Fraction of the top k results that are relevant."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not len(rel.bits):
        raise UnscorableQuery("the ranking is empty")
    if k > len(rel.bits):
        logger.warning("k=%d exceeds ranking length %d, clamping", k, len(rel.bits))
        k = len(rel.bits)
    return float(rel.precision[k - 1])


@dataclass(frozen=True)
class EvalReport:
    map: float
    mp1: float
    mpk: dict[int, float]
    per_class_mpk: dict[str, float]
    measure: str
    n_queries: int
    n_unscorable: int
    headline_k: int

    @property
    def headline_mpk(self) -> float:
        return self.mpk[self.headline_k]


def relevance_for_query(index: EmbeddingIndex, clip_id: str, measure: str) -> RelevanceList:
    """Rank the whole database (self excluded) and mark same-class results."""
    row = index.row_of(clip_id)
    if len(index) < 2:
        raise DataError("index contains only the excluded clip")
    order = rank(index, index.matrix[row : row + 1], measure)[0]
    order = order[order != row]
    same = index.label_codes[order] == index.label_codes[row]
    return RelevanceList(bits=same, m_j=int(np.count_nonzero(same)))


def evaluate_all(
    index: EmbeddingIndex,
    query_ids: Sequence[str] | None = None,
    measure: str = "euclidean",
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    headline_k: int = DEFAULT_HEADLINE_K,
) -> EvalReport:
    """Evaluate every query against the index with itself excluded.

    Queries whose class has no other clip in the database are excluded from
    all means and counted in n_unscorable.
    """
    if query_ids is None:
        query_ids = list(index.clip_ids)
    n_classes = len(set(index.labels))
    distinct = len(np.unique(index.matrix, axis=0))
    if distinct < n_classes:
        logger.warning(
            "index has collapsed: %d distinct embeddings for %d classes", distinct, n_classes
        )
    db_size = len(index) - 1
    requested = sorted({int(k) for k in k_values} | {int(headline_k)})
    if requested[0] < 1:
        raise ValueError(f"K values must be >= 1, got {requested[0]}")
    if requested[-1] > db_size:
        logger.warning(
            "K values above the %d searchable clips are clamped to %d", db_size, db_size
        )
    clamped = {k: min(k, db_size) for k in requested}
    aps: list[float] = []
    first_hits: list[float] = []
    per_k: dict[int, list[float]] = {int(k): [] for k in k_values}
    k_rows = [clamped[k] - 1 for k in per_k]
    per_class: dict[str, list[float]] = {}
    n_unscorable = 0
    for cid in query_ids:
        rel = relevance_for_query(index, cid, measure)
        if rel.m_j == 0:
            logger.warning("query %r has no same-class clip in the database, skipping", cid)
            n_unscorable += 1
            continue
        aps.append(average_precision(rel))
        first_hits.append(precision_at_first_hit(rel))
        for k, value in zip(per_k, rel.precision[k_rows].tolist()):
            per_k[k].append(value)
        headline = precision_at_k(rel, clamped[headline_k])
        per_class.setdefault(index.label_of(cid), []).append(headline)
    if not aps:
        raise DataError("no scorable queries: every query's class is a singleton")
    return EvalReport(
        map=float(np.mean(aps)),
        mp1=float(np.mean(first_hits)),
        mpk={k: float(np.mean(v)) for k, v in sorted(per_k.items())},
        per_class_mpk={label: float(np.mean(v)) for label, v in sorted(per_class.items())},
        measure=measure,
        n_queries=len(aps),
        n_unscorable=n_unscorable,
        headline_k=headline_k,
    )


def save_scalars_csv(reports: Sequence[EvalReport], path) -> None:
    """One `metric,measure,value` row per headline number, all measures together."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["metric", "measure", "value"])
        for report in reports:
            writer.writerow(["map", report.measure, repr(report.map)])
            writer.writerow(["mp1", report.measure, repr(report.mp1)])
            writer.writerow(
                [f"mp{report.headline_k}", report.measure, repr(report.headline_mpk)]
            )
            writer.writerow(["n_queries", report.measure, report.n_queries])
            writer.writerow(["n_unscorable", report.measure, report.n_unscorable])


def save_sweep_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["K", "mpk"])
        for k in sorted(report.mpk):
            writer.writerow([k, repr(report.mpk[k])])


def save_per_class_csv(report: EvalReport, path) -> None:
    """Per-class precision at the headline K, best classes first."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["class", "mpk"])
        ordered = sorted(report.per_class_mpk.items(), key=lambda kv: (-kv[1], kv[0]))
        for label, value in ordered:
            writer.writerow([label, repr(value)])
