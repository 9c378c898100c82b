"""Embedding database: exhaustive nearest-neighbor search, two similarity measures."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import binio
from .errors import DataError
from .features import FeatureCache
from .net import SiameseModel

logger = logging.getLogger(__name__)

MEASURES = ("euclidean", "cosine")

INDEX_MAGIC = b"EFPI"
INDEX_VERSION = 1
FINGERPRINT_BYTES = 32

# Query rows per GEMM in knn_all; bounds its (rows x entries) key matrix.
KNN_BLOCK_ROWS = 256
# Rows per embed call in build_index; bounds its standardized float64 rows
# (7 MB at 13509 values a row) at about the speed of one call for all rows.
EMBED_BLOCK_ROWS = 64
# Sorted GEMM keys closer than TIE_SLACK * (dim + 3) * eps * scale may be
# ordered differently by the direct formula (see rank).
TIE_SLACK = 8


@dataclass(frozen=True)
class Ranking:
    """Search result: parallel id/label/score lists, best match first."""

    ids: tuple[str, ...]
    labels: tuple[str, ...]
    scores: tuple[float, ...]
    measure: str

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(zip(self.ids, self.labels, self.scores))


@dataclass
class EmbeddingIndex(binio.LabeledRows):
    """All database clips as float32 embedding rows, plus provenance hash.

    The ranking state (a float64 copy of the rows, their squared norms, each
    clip id's place in sorted order and label_codes, each entry's label as an
    integer) is computed once here; the matrix is not to be changed after
    construction.
    """

    clip_ids: list[str]
    labels: list[str]
    matrix: np.ndarray
    model_fingerprint: bytes
    _rows64: np.ndarray = field(init=False, repr=False, compare=False)
    _sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    _id_rank: np.ndarray = field(init=False, repr=False, compare=False)
    label_codes: np.ndarray = field(init=False, repr=False, compare=False)

    kind = "index"

    def __post_init__(self):
        super().__post_init__()
        if len(self.model_fingerprint) != FINGERPRINT_BYTES:
            raise DataError("model fingerprint must be 32 bytes")
        if self.matrix.size and not np.all(np.isfinite(self.matrix)):
            raise DataError("index contains non-finite embeddings")
        self._rows64 = self.matrix.astype(np.float64)
        self._sq_norms = np.sum(np.square(self._rows64), axis=1)
        self._id_rank = np.empty(len(self.clip_ids), dtype=np.intp)
        self._id_rank[sorted(range(len(self.clip_ids)), key=self.clip_ids.__getitem__)] = (
            np.arange(len(self.clip_ids))
        )
        codes: dict[str, int] = {}
        self.label_codes = np.array(
            [codes.setdefault(label, len(codes)) for label in self.labels], dtype=np.intp
        )

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def save(self, path) -> None:
        with binio.atomic_write(path) as f:
            f.write(INDEX_MAGIC)
            binio.write_u32(f, INDEX_VERSION)
            binio.write_u32(f, self.dim)
            binio.write_u64(f, len(self.clip_ids))
            f.write(self.model_fingerprint)
            binio.write_records(f, self.clip_ids, self.labels, self.matrix)

    @classmethod
    def load(cls, path) -> "EmbeddingIndex":
        with binio.open_artifact(path, INDEX_MAGIC, INDEX_VERSION, cls.kind) as f:
            dim = binio.read_u32(f)
            count = binio.read_u64(f)
            fingerprint = binio.read_exact(f, FINGERPRINT_BYTES)
            records = binio.read_records(f, count, dim, path)
        return cls(*records, fingerprint)


def build_index(
    model: SiameseModel,
    cache: FeatureCache,
    clip_ids: Sequence[str] | None = None,
) -> EmbeddingIndex:
    """Embed the given clips (default: whole cache) in input order,
    ``EMBED_BLOCK_ROWS`` at a time into one float32 matrix."""
    if clip_ids is None:
        clip_ids = list(cache.clip_ids)
    if len(clip_ids) == 0:
        raise DataError("cannot build an index from zero clips")
    rows = [cache.row_of(cid) for cid in clip_ids]
    embeddings = np.empty((len(rows), model.params.layer_dims[-1]), dtype=np.float32)
    # a lone last row joins the block before it: numpy multiplies a single row
    # as a vector, which rounds differently from a row of a matrix product
    starts = range(0, max(len(rows) - 1, 1), EMBED_BLOCK_ROWS)
    for start, stop in zip(starts, [*starts[1:], len(rows)]):
        # float32 as cached; the model widens them while normalizing
        embeddings[start:stop] = model.embed(cache.matrix[rows[start:stop]])
    return EmbeddingIndex(
        clip_ids=list(clip_ids),
        labels=[cache.label_of(cid) for cid in clip_ids],
        matrix=embeddings,
        model_fingerprint=model.fingerprint(),
    )


def _gemm_keys(index: EmbeddingIndex, Q: np.ndarray, measure: str):
    """Sort keys of every entry for each query row (lower is better), from one
    GEMM, and the gap below which two sorted keys count as a near-tie."""
    dots = Q @ index._rows64.T
    q_sq = np.einsum("ij,ij->i", Q, Q)
    if measure == "euclidean":
        # |q - b|^2 = |q|^2 + |b|^2 - 2 q.b, in place; rounding can make it < 0
        keys = dots
        keys *= -2.0
        keys += index._sq_norms
        keys += q_sq[:, None]
        np.maximum(keys, 0.0, out=keys)
        scale = q_sq + index._sq_norms.max()
    elif measure == "cosine":
        denom = np.sqrt(q_sq)[:, None] * np.sqrt(index._sq_norms)
        # cosine with a zero vector on either side is defined as 0
        with np.errstate(divide="ignore", invalid="ignore"):
            keys = np.where(denom > 0, -dots / denom, 0.0)
        scale = np.ones(len(Q))
    else:
        raise ValueError(f"unknown measure {measure!r}")
    # A key and a direct score (squared, for euclidean) each differ from the
    # exact value by at most about (dim + 3) * eps * scale: sums of dim
    # products plus a few roundings. Two keys more than 4 (dim + 3) * eps *
    # scale apart keep their order, untied, under the direct formula;
    # TIE_SLACK doubles that margin.
    return keys, TIE_SLACK * (index.dim + 3) * np.finfo(np.float64).eps * scale


def _direct_scores(index: EmbeddingIndex, q: np.ndarray, rows, measure: str) -> np.ndarray:
    """The reported scores of the given entries: euclidean from float64
    differences; cosine dots from one product with every row, so each one
    rounds the same whichever rows are asked for."""
    if measure == "euclidean":
        return np.sqrt(np.sum(np.square(index._rows64[rows] - q), axis=1))
    q_norm = np.sqrt(np.sum(np.square(q)))
    e_norms = np.sqrt(index._sq_norms[rows])
    dots = (index._rows64 @ q)[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((q_norm > 0) & (e_norms > 0), dots / (e_norms * q_norm), 0.0)


def rank(index: EmbeddingIndex, queries: np.ndarray, measure: str) -> np.ndarray:
    """Row positions of every entry for each query row, best match first.

    Euclidean ranks by ascending distance, cosine by descending similarity,
    exact ties by ascending clip_id. Keys come from the GEMM form; a row whose
    sorted keys hold a near-tie is ranked again on the direct scores, so the
    order is the direct formula's in every row.
    """
    Q = np.asarray(queries, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[1] != index.dim:
        raise ValueError(f"query rows have shape {Q.shape}, index dim is {index.dim}")
    keys, bound = _gemm_keys(index, Q, measure)
    order = np.argsort(keys, axis=1)
    gaps = np.diff(np.take_along_axis(keys, order, axis=1), axis=1)
    # A row with every gap above the bound has no ties, so a plain argsort
    # (a tenth of a lexsort's time on 1,800 keys) orders it as lexsort on
    # (direct score, clip-id rank) would. An exact tie is a gap of 0 and a NaN
    # gap is not above the bound either: both rows are rescored.
    for i in np.flatnonzero(~np.all(gaps > bound[:, None], axis=1)):
        scores = _direct_scores(index, Q[i], slice(None), measure)
        order[i] = np.lexsort((index._id_rank, -scores if measure == "cosine" else scores))
    return order


def _top(
    index: EmbeddingIndex,
    q: np.ndarray,
    order: np.ndarray,
    measure: str,
    k: int,
    exclude_row: int | None,
) -> Ranking:
    """The first k entries of one ranked row, excluded row dropped."""
    if exclude_row is not None:
        order = order[order != exclude_row]
    if len(order) == 0:
        raise DataError("index contains only the excluded clip")
    if k > len(order):
        logger.warning("k=%d exceeds %d searchable clips, clamping", k, len(order))
        k = len(order)
    top = order[:k]
    return Ranking(
        ids=tuple(index.clip_ids[i] for i in top),
        labels=tuple(index.labels[i] for i in top),
        scores=tuple(_direct_scores(index, q, top, measure).tolist()),
        measure=measure,
    )


def query(
    index: EmbeddingIndex,
    q: np.ndarray,
    measure: str = "euclidean",
    k: int = 10,
    exclude: str | None = None,
) -> Ranking:
    """Exhaustive top-k search; ties broken by ascending clip_id.

    Euclidean scores ascend down the list, cosine scores descend. k larger
    than the (possibly excluded-by-one) database is clamped with a warning.
    """
    if len(index) == 0:
        raise DataError("cannot query an empty index")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (index.dim,):
        raise ValueError(f"query embedding has shape {q.shape}, index dim is {index.dim}")
    order = rank(index, q[None, :], measure)[0]
    return _top(index, q, order, measure, k, index._row_of.get(exclude))


def knn_all(
    index: EmbeddingIndex, measure: str = "euclidean", k: int = 10
) -> list[tuple[str, Ranking]]:
    """Query every stored clip against the index with itself excluded."""
    if len(index) < 2:
        raise DataError("knn_all needs an index with at least 2 entries")
    out = []
    for start in range(0, len(index), KNN_BLOCK_ROWS):
        block = index._rows64[start : start + KNN_BLOCK_ROWS]
        for row, (q, order) in enumerate(zip(block, rank(index, block, measure)), start):
            out.append((index.clip_ids[row], _top(index, q, order, measure, k, row)))
    return out
