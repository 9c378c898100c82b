"""Independent checks of every artifact the efp pipeline writes.

Nothing here imports efp. The binary formats are parsed from their byte
layout, features are recomputed from the WAV bytes, the network's forward
pass is recomputed from the model file, and the retrieval metrics come from
a brute-force ranking. Each ``check_*`` function returns a list of problems;
an empty list means the artifact passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
import struct
import wave
from dataclasses import dataclass

import numpy as np

RATE_HZ = 16000
FFT_SIZE = 1024
WIN_SAMPLES = 1024      # 64 ms at 16 kHz
HOP_SAMPLES = 512       # 32 ms at 16 kHz
FREQ_BINS = 79
TIME_BINS = 171
AMPLITUDE_FLOOR = 1e-6
K_MAX = 30              # `efp evaluate` default --k-max
HEADLINE_K = 25         # `efp evaluate` default --headline-k
SELF_SCORE_MAX = 1e-4   # a stored clip's own WAV must land this close to its row
UNIT_NORM_TOL = 1e-5
EMBED_TOL = 1e-6        # float32 storage of values in [-1, 1]
METRIC_TOL = 1e-9       # same ranking, different summation order
COS_EUC_MAP_TOL = 1e-6  # near-ties may order differently under the two measures


# ---------------------------------------------------------------- parsing


class _Reader:
    def __init__(self, data: bytes, path):
        self.data, self.pos, self.path = data, 0, path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError(f"{self.path}: truncated at byte {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def text(self) -> str:
        (n,) = self.unpack("I")
        return self.take(n).decode("utf-8")

    def f32(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<f4")

    def magic(self, expected: bytes) -> None:
        got = self.take(len(expected))
        if got != expected:
            raise ValueError(f"{self.path}: magic {got!r}, expected {expected!r}")


@dataclass
class LabeledMatrix:
    """Clip ids, class labels and one float32 row per clip."""

    ids: list[str]
    labels: list[str]
    matrix: np.ndarray
    fingerprint: bytes = b""


def _rows(r: _Reader, count: int, dim: int) -> LabeledMatrix:
    ids, labels = [], []
    matrix = np.empty((count, dim), dtype=np.float32)
    for i in range(count):
        ids.append(r.text())
        labels.append(r.text())
        matrix[i] = r.f32(dim)
    if r.pos != len(r.data):
        raise ValueError(f"{r.path}: {len(r.data) - r.pos} trailing bytes")
    return LabeledMatrix(ids, labels, matrix)


def read_cache(path) -> LabeledMatrix:
    """Feature cache: b"EFPF", u32 version 1, u32 freq, u32 time, u64 count, rows."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    r.magic(b"EFPF")
    version, freq, time_bins, count = r.unpack("IIIQ")
    if version != 1 or (freq, time_bins) != (FREQ_BINS, TIME_BINS):
        raise ValueError(f"{path}: version {version}, grid {freq}x{time_bins}")
    return _rows(r, count, freq * time_bins)


def read_index(path) -> LabeledMatrix:
    """Index: b"EFPI", u32 version 1, u32 dim, u64 count, 32-byte fingerprint, rows."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    r.magic(b"EFPI")
    version, dim, count = r.unpack("IIQ")
    if version != 1:
        raise ValueError(f"{path}: index version {version}")
    fingerprint = r.take(32)
    out = _rows(r, count, dim)
    out.fingerprint = fingerprint
    return out


@dataclass
class Model:
    dims: list[int]
    margin: float
    means: np.ndarray
    stds: np.ndarray
    weights: list[np.ndarray]   # (out, in), float64 from the stored float32
    biases: list[np.ndarray]
    sha256: bytes = b""         # of the model file, which an index must name


def read_model(path) -> Model:
    """Model: b"EFPM", u32 version 2, u32 n, n x u32 dims, f64 margin,
    f32 means and stds (dims[0] each), then per layer f32 W (out x in) and b."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    r.magic(b"EFPM")
    version, n = r.unpack("II")
    if version != 2 or not 2 <= n <= 64:
        raise ValueError(f"{path}: version {version}, {n} dims")
    dims = list(r.unpack(f"{n}I"))
    (margin,) = r.unpack("d")
    means = r.f32(dims[0]).astype(np.float64)
    stds = r.f32(dims[0]).astype(np.float64)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(r.f32(fan_out * fan_in).astype(np.float64).reshape(fan_out, fan_in))
        biases.append(r.f32(fan_out).astype(np.float64))
    if r.pos != len(r.data):
        raise ValueError(f"{path}: {len(r.data) - r.pos} trailing bytes")
    return Model(dims, margin, means, stds, weights, biases, hashlib.sha256(r.data).digest())


def embed(model: Model, X: np.ndarray) -> np.ndarray:
    """Standardize, ReLU hidden layers, linear output, rows scaled to unit length."""
    h = (np.asarray(X, dtype=np.float64) - model.means) / model.stds
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ w.T + b, 0.0)
    u = h @ model.weights[-1].T + model.biases[-1]
    norms = np.sqrt(np.sum(u * u, axis=1))
    return u / np.where(norms > 0.0, norms, 1.0)[:, None]


def read_manifest(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def read_scalars(path) -> dict[tuple[str, str], float]:
    with open(path, newline="", encoding="utf-8") as f:
        return {(row["metric"], row["measure"]): float(row["value"]) for row in csv.DictReader(f)}


def read_sweep(path) -> dict[int, float]:
    with open(path, newline="", encoding="utf-8") as f:
        return {int(row["K"]): float(row["mpk"]) for row in csv.DictReader(f)}


def read_ranking_csv(text: str) -> list[tuple[str, float]]:
    """`efp query` stdout: header `rank,clip_id,class_label,score`, then rows."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "rank,clip_id,class_label,score":
        raise ValueError(f"not a ranking: {text[:80]!r}")
    return [(row[1], float(row[3])) for row in csv.reader(lines[1:])]


# ---------------------------------------------------------------- features


def read_wav(path) -> np.ndarray:
    """16-bit PCM mono WAV at RATE_HZ as float64 in [-1, 1)."""
    with wave.open(str(path), "rb") as w:
        if (w.getnchannels(), w.getsampwidth(), w.getframerate()) != (1, 2, RATE_HZ):
            raise ValueError(f"{path}: not 16-bit mono at {RATE_HZ} Hz")
        data = w.readframes(w.getnframes())
    return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0


def _log_bins(n_positions: int, n_out: int) -> np.ndarray:
    """Output bin of positions 1..n: floor(n_out * log(p) / log(n)), top clamped."""
    p = np.arange(1, n_positions + 1, dtype=np.float64)
    return np.minimum((np.log(p) / np.log(n_positions) * n_out).astype(int), n_out - 1)


def _pool_matrix(assign: np.ndarray, n_out: int) -> np.ndarray:
    """(n_out, n_in) matrix taking the mean of the inputs assigned to each
    output; an output with no inputs copies the nearest one that has some,
    the lower one on a tie."""
    onehot = np.zeros((n_out, len(assign)))
    onehot[assign, np.arange(len(assign))] = 1.0
    counts = onehot.sum(axis=1)
    filled = np.flatnonzero(counts)
    nearest = filled[np.argmin(np.abs(np.arange(n_out)[:, None] - filled[None, :]), axis=1)]
    return (onehot / np.maximum(counts, 1.0)[:, None])[nearest]


def features_of(samples: np.ndarray) -> np.ndarray:
    """The 79 x 171 log-spectrogram of the first 2 s, flattened frequency-major."""
    x = samples[: 2 * RATE_HZ]
    n_frames = (len(x) - WIN_SAMPLES) // HOP_SAMPLES + 1
    starts = np.arange(n_frames) * HOP_SAMPLES
    frames = x[starts[:, None] + np.arange(WIN_SAMPLES)]
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WIN_SAMPLES) / (WIN_SAMPLES - 1))
    mag = np.abs(np.fft.rfft(frames * hann, n=FFT_SIZE, axis=1))      # (frames, bins)
    freq_assign = np.concatenate(([0], _log_bins(mag.shape[1] - 1, FREQ_BINS)))
    pf = _pool_matrix(freq_assign, FREQ_BINS)
    pt = _pool_matrix(_log_bins(n_frames, TIME_BINS), TIME_BINS)
    return np.log(pf @ mag.T @ pt.T + AMPLITUDE_FLOOR).reshape(-1)


def check_features(cache: LabeledMatrix, manifest: list[dict], sample_ids) -> list[str]:
    problems = []
    want = {r["clip_id"]: r for r in manifest}
    if sorted(cache.ids) != sorted(want):
        problems.append(f"cache holds {len(cache.ids)} clips, manifest {len(want)}")
    row_of = {cid: i for i, cid in enumerate(cache.ids)}
    for cid in sample_ids:
        if cid not in row_of:
            continue
        rec = want[cid]
        if cache.labels[row_of[cid]] != rec["class_label"]:
            problems.append(f"{cid}: cache label {cache.labels[row_of[cid]]!r}")
        own = features_of(read_wav(rec["source_path"])).astype(np.float32)
        got = cache.matrix[row_of[cid]]
        bad = np.abs(own - got) > np.spacing(np.abs(own))
        if bad.any():
            i = int(np.argmax(bad))
            problems.append(
                f"{cid}: {int(bad.sum())} feature values differ beyond float32 "
                f"rounding, first at {i}: cache {got[i]!r}, recomputed {own[i]!r}"
            )
    return problems


# ---------------------------------------------------------------- pairs, training


def class_sizes(manifest: list[dict], split: str) -> list[int]:
    counts: dict[str, int] = {}
    for r in manifest:
        if r["split"] == split:
            counts[r["class_label"]] = counts.get(r["class_label"], 0) + 1
    return list(counts.values())


def expected_pairs(sizes: list[int], scheme: str) -> tuple[int, int]:
    """(all pairs, negative pairs): every pair for `unbalanced`, the positives
    plus as many negatives for `balanced`."""
    positives = sum(math.comb(n, 2) for n in sizes)
    if scheme == "balanced":
        return 2 * positives, positives
    total = math.comb(sum(sizes), 2)
    return total, total - positives


def trained_pair_count(train_log: str) -> int | None:
    m = re.search(r"trained \d+ epochs on (\d+) pairs", train_log)
    return int(m.group(1)) if m else None


def check_pairs(train_log: str, manifest: list[dict], scheme: str) -> list[str]:
    want, _ = expected_pairs(class_sizes(manifest, "train"), scheme)
    got = trained_pair_count(train_log)
    if got != want:
        return [f"train used {got} pairs, closed form for {scheme} gives {want}"]
    return []


def check_history(path, epochs: int, manifest: list[dict], scheme: str, margin: float) -> list[str]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    problems = []
    if [int(r["epoch"]) for r in rows] != list(range(1, epochs + 1)):
        problems.append(f"history has epochs {[r['epoch'] for r in rows]}, want 1..{epochs}")
    values = [float(r[k]) for r in rows for k in ("train_loss", "val_loss")]
    if not all(math.isfinite(v) for v in values):
        problems.append("history holds a non-finite loss")
    total, negatives = expected_pairs(class_sizes(manifest, "val"), scheme)
    collapsed = negatives / total * 0.5 * margin**2
    if rows and not float(rows[-1]["val_loss"]) < collapsed:
        problems.append(
            f"final val loss {rows[-1]['val_loss']} is not below the collapsed value {collapsed!r}"
        )
    return problems


# ---------------------------------------------------------------- index


def check_index(index: LabeledMatrix, cache: LabeledMatrix, model: Model,
                manifest: list[dict]) -> list[str]:
    problems = []
    test = [r for r in manifest if r["split"] == "test"]
    if index.ids != [r["clip_id"] for r in test]:
        return ["index ids are not the test split in manifest order"]
    if index.labels != [r["class_label"] for r in test]:
        problems.append("index labels differ from the manifest")
    if index.fingerprint != model.sha256:
        problems.append("index fingerprint is not the SHA-256 of the model file")
    norms = np.sqrt(np.sum(index.matrix.astype(np.float64) ** 2, axis=1))
    off = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
    if len(off):
        problems.append(f"{len(off)} index rows are not unit length, e.g. row {off[0]}: {norms[off[0]]!r}")
    row_of = {cid: i for i, cid in enumerate(cache.ids)}
    own = embed(model, cache.matrix[[row_of[cid] for cid in index.ids]])
    err = np.abs(own - index.matrix).max(axis=1)
    off = np.flatnonzero(err > EMBED_TOL)
    if len(off):
        problems.append(
            f"{len(off)} index rows differ from the recomputed forward pass, "
            f"e.g. {index.ids[off[0]]} by {err[off[0]]!r}"
        )
    return problems


# ---------------------------------------------------------------- ranking


def distances(M: np.ndarray, measure: str) -> np.ndarray:
    """All-pairs scores with the arithmetic `efp query` documents: float64 on
    the float32 rows, euclidean |a - b|, cosine a.b / (|a| |b|)."""
    M = M.astype(np.float64)
    n = len(M)
    out = np.empty((n, n))
    if measure == "euclidean":
        # (a - b)^2 == (b - a)^2 bit for bit, so one triangle gives both
        for i in range(n):
            out[i, i:] = np.sqrt(np.sum(np.square(M[i:] - M[i]), axis=1))
            out[i:, i] = out[i, i:]
        return out
    e_norms = np.sqrt(np.sum(np.square(M), axis=1))
    for i in range(n):
        q_norm = np.sqrt(np.sum(np.square(M[i])))
        out[i] = (M @ M[i]) / (e_norms * q_norm)
    return out


@dataclass
class Retrieval:
    map: float
    mp1: float
    mpk: dict[int, float]
    n_queries: int


def retrieval(scores: np.ndarray, labels: list[str], ids: list[str], descending: bool) -> Retrieval:
    """Rank every clip against all others, best score first, ties by clip id."""
    n = len(ids)
    key = -scores if descending else scores.copy()
    np.fill_diagonal(key, np.inf)
    id_rank = np.argsort(np.argsort(np.array(ids)))
    order = np.lexsort((np.broadcast_to(id_rank, key.shape), key), axis=1)[:, : n - 1]
    lab = np.array(labels)
    rel = lab[order] == lab[:, None]
    m = rel.sum(axis=1)
    ok = m > 0
    rel, m = rel[ok], m[ok]
    hits = np.cumsum(rel, axis=1)
    pos = np.arange(1, n)
    ap = np.sum(np.where(rel, hits / pos, 0.0), axis=1) / m
    first = np.argmax(rel, axis=1) + 1
    mpk = {k: float(np.mean(hits[:, min(k, n - 1) - 1] / min(k, n - 1))) for k in range(1, K_MAX + 1)}
    return Retrieval(float(np.mean(ap)), float(np.mean(1.0 / first)), mpk, int(ok.sum()))


def evaluate_index(index: LabeledMatrix) -> dict[str, Retrieval]:
    return {
        "euclidean": retrieval(distances(index.matrix, "euclidean"), index.labels, index.ids, False),
        "cosine": retrieval(distances(index.matrix, "cosine"), index.labels, index.ids, True),
    }


def raw_feature_map(cache: LabeledMatrix, manifest: list[dict]) -> float:
    """Euclidean MAP of the test clips' features, standardized on the train split."""
    row_of = {cid: i for i, cid in enumerate(cache.ids)}
    train = cache.matrix[[row_of[r["clip_id"]] for r in manifest if r["split"] == "train"]]
    test_recs = [r for r in manifest if r["split"] == "test"]
    X = cache.matrix[[row_of[r["clip_id"]] for r in test_recs]].astype(np.float64)
    mean = train.astype(np.float64).mean(axis=0)
    std = train.astype(np.float64).std(axis=0)
    Z = ((X - mean) / np.where(std > 0, std, 1.0)).astype(np.float32)
    sq = np.sum(Z * Z, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T), 0.0).astype(np.float64)
    r = retrieval(d2, [t["class_label"] for t in test_recs], [t["clip_id"] for t in test_recs], False)
    return r.map


def check_evaluate(own: dict[str, Retrieval], scalars: dict, sweeps: dict[str, dict]) -> list[str]:
    problems = []
    for measure, r in own.items():
        for name, want in (("map", r.map), ("mp1", r.mp1), (f"mp{HEADLINE_K}", r.mpk[HEADLINE_K]),
                           ("n_queries", r.n_queries)):
            got = scalars.get((name, measure))
            if got is None or abs(got - want) > METRIC_TOL:
                problems.append(f"{measure} {name}: scalars.csv {got!r}, brute force {want!r}")
        sweep = sweeps[measure]
        if sorted(sweep) != sorted(r.mpk):
            problems.append(f"{measure} sweep has K {sorted(sweep)}")
        else:
            for k, want in r.mpk.items():
                if abs(sweep[k] - want) > METRIC_TOL:
                    problems.append(f"{measure} MP@{k}: sweep {sweep[k]!r}, brute force {want!r}")
                    break
    if abs(own["cosine"].map - own["euclidean"].map) > COS_EUC_MAP_TOL:
        problems.append(f"cosine MAP {own['cosine'].map!r} != euclidean MAP {own['euclidean'].map!r}")
    return problems


def check_query(clip_id: str, ranking: list[tuple[str, float]], k: int) -> list[str]:
    """A stored clip's own WAV must come back first, at distance ~0, scores ascending."""
    if len(ranking) != k:
        return [f"query {clip_id}: {len(ranking)} results, want {k}"]
    problems = []
    top, score = ranking[0]
    if top != clip_id or not 0.0 <= score <= SELF_SCORE_MAX:
        problems.append(f"query {clip_id}: first result {top} at {score!r}")
    scores = [s for _, s in ranking]
    if any(b < a for a, b in zip(scores, scores[1:])):
        problems.append(f"query {clip_id}: scores decrease down the list")
    return problems
