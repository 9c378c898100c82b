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
class EmbeddingIndex:
    """All database clips as float32 embedding rows, plus provenance hash."""

    clip_ids: list[str]
    labels: list[str]
    matrix: np.ndarray
    model_fingerprint: bytes
    _row_of: dict = field(init=False, repr=False)

    def __post_init__(self):
        if not (len(self.clip_ids) == len(self.labels) == len(self.matrix)):
            raise DataError("index fields disagree on entry count")
        if len(self.model_fingerprint) != FINGERPRINT_BYTES:
            raise DataError("model fingerprint must be 32 bytes")
        if self.matrix.size and not np.all(np.isfinite(self.matrix)):
            raise DataError("index contains non-finite embeddings")
        self._row_of = {cid: i for i, cid in enumerate(self.clip_ids)}
        if len(self._row_of) != len(self.clip_ids):
            raise DataError("duplicate clip_id in index")

    def __len__(self) -> int:
        return len(self.clip_ids)

    def __contains__(self, clip_id: str) -> bool:
        return clip_id in self._row_of

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def embedding_of(self, clip_id: str) -> np.ndarray:
        try:
            return self.matrix[self._row_of[clip_id]]
        except KeyError:
            raise DataError(f"clip {clip_id!r} not in index") from None

    def label_of(self, clip_id: str) -> str:
        return self.labels[self._row_of[clip_id]]

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(INDEX_MAGIC)
            binio.write_u32(f, INDEX_VERSION)
            binio.write_u32(f, self.dim)
            binio.write_u64(f, len(self.clip_ids))
            f.write(self.model_fingerprint)
            for cid, label, row in zip(self.clip_ids, self.labels, self.matrix):
                binio.write_str(f, cid)
                binio.write_str(f, label)
                binio.write_f32_array(f, row)

    @classmethod
    def load(cls, path) -> "EmbeddingIndex":
        try:
            f = open(path, "rb")
        except OSError as exc:
            raise DataError(f"{path}: cannot open index file ({exc})") from exc
        with f:
            binio.expect_magic(f, INDEX_MAGIC, path)
            version = binio.read_u32(f)
            if version != INDEX_VERSION:
                raise DataError(f"{path}: unsupported index version {version}")
            dim = binio.read_u32(f)
            count = binio.read_u64(f)
            fingerprint = binio.read_exact(f, FINGERPRINT_BYTES)
            binio.check_fits(f, count, 8 + 4 * dim, path)
            ids: list[str] = []
            labels: list[str] = []
            matrix = np.empty((count, dim), dtype=np.float32)
            for i in range(count):
                ids.append(binio.read_str(f))
                labels.append(binio.read_str(f))
                matrix[i] = binio.read_f32_array(f, dim)
        return cls(ids, labels, matrix, fingerprint)


def build_index(
    model: SiameseModel,
    cache: FeatureCache,
    clip_ids: Sequence[str] | None = None,
) -> EmbeddingIndex:
    """Embed the given clips (default: whole cache) in input order."""
    if clip_ids is None:
        clip_ids = list(cache.clip_ids)
    # float32 as cached; the model widens them while normalizing
    rows = np.asarray([cache.vector(cid) for cid in clip_ids], dtype=np.float32)
    if len(rows) == 0:
        raise DataError("cannot build an index from zero clips")
    embeddings = model.embed(rows).astype(np.float32)
    labels = [cache.label_of(cid) for cid in clip_ids]
    return EmbeddingIndex(
        clip_ids=list(clip_ids),
        labels=labels,
        matrix=embeddings,
        model_fingerprint=model.fingerprint(),
    )


def _scores(index: EmbeddingIndex, q: np.ndarray, measure: str) -> np.ndarray:
    """Score the query against every entry; float64 math on f32 inputs."""
    M = index.matrix.astype(np.float64)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (index.dim,):
        raise ValueError(f"query embedding has shape {q.shape}, index dim is {index.dim}")
    if measure == "euclidean":
        return np.sqrt(np.sum(np.square(M - q), axis=1))
    if measure == "cosine":
        q_norm = np.sqrt(np.sum(np.square(q)))
        e_norms = np.sqrt(np.sum(np.square(M), axis=1))
        dots = M @ q
        # cosine with a zero vector on either side is defined as 0
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.where((q_norm > 0) & (e_norms > 0), dots / (e_norms * q_norm), 0.0)
        return cos
    raise ValueError(f"unknown measure {measure!r}")


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
    scores = _scores(index, q, measure)
    candidates = [
        (float(scores[i]), index.clip_ids[i], index.labels[i])
        for i in range(len(index))
        if index.clip_ids[i] != exclude
    ]
    if not candidates:
        raise DataError("index contains only the excluded clip")
    if k > len(candidates):
        logger.warning("k=%d exceeds %d searchable clips, clamping", k, len(candidates))
        k = len(candidates)
    descending = measure == "cosine"
    candidates.sort(key=lambda c: (-c[0] if descending else c[0], c[1]))
    top = candidates[:k]
    return Ranking(
        ids=tuple(c[1] for c in top),
        labels=tuple(c[2] for c in top),
        scores=tuple(c[0] for c in top),
        measure=measure,
    )


def knn_all(
    index: EmbeddingIndex, measure: str = "euclidean", k: int = 10
) -> list[tuple[str, Ranking]]:
    """Query every stored clip against the index with itself excluded."""
    if len(index) < 2:
        raise DataError("knn_all needs an index with at least 2 entries")
    out = []
    for cid in index.clip_ids:
        out.append((cid, query(index, index.embedding_of(cid), measure, k, exclude=cid)))
    return out
