"""Log-spectrogram features and the binary feature cache.

A 2-second clip becomes a 79x171 grid: STFT magnitudes, mean-pooled over
log-spaced frequency bands, remapped onto log-spaced time bins, then
log-compressed and flattened frequency-major into a 13509-dim vector.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import binio, wav
from .errors import DataError
from .wav import PcmClip

logger = logging.getLogger(__name__)

# The one featurization: every clip is decoded at DEFAULT_RATE_HZ, and at that
# rate the 64 ms Hann window is exactly FFT_SIZE samples, so no zero-padding
# occurs. The 79 x 171 grid is the 13509-dim input of the twin network.
DEFAULT_RATE_HZ = 16000
FFT_SIZE = 1024
WINDOW_MS = 64
HOP_MS = 32
FREQ_BINS = 79
TIME_BINS = 171
AMPLITUDE_FLOOR = 1e-6

CACHE_MAGIC = b"EFPF"
CACHE_VERSION = 1


@dataclass(frozen=True)
class LogSpecFeature:
    """Flattened log-spectrogram of one clip, frequency-major."""

    values: np.ndarray


def stft(clip: PcmClip) -> np.ndarray:
    """Complex spectrogram of shape (n_frames, FFT_SIZE//2 + 1).

    Each frame is multiplied by a Hann window of WINDOW_MS at the clip's own
    rate. Frame count is floor((len - win) / hop) + 1; only non-negative
    frequencies are kept.
    """
    win = clip.sample_rate_hz * WINDOW_MS // 1000
    hop = clip.sample_rate_hz * HOP_MS // 1000
    if win < 1 or hop < 1:
        raise ValueError(
            f"window/hop shorter than one sample at {clip.sample_rate_hz} Hz"
        )
    if win > FFT_SIZE:
        raise ValueError(f"window of {win} samples exceeds fft size {FFT_SIZE}")
    samples = np.asarray(clip.samples, dtype=np.float64)
    frames = np.lib.stride_tricks.sliding_window_view(samples, win)[::hop]
    return np.fft.rfft(frames * np.hanning(win), n=FFT_SIZE, axis=1)


def _log_bin_assignments(n_positions: int, n_out: int) -> np.ndarray:
    """Assign 1-based positions 1..n_positions to n_out log-spaced bins."""
    if n_positions < 1:
        raise ValueError("need at least one position")
    if n_positions == 1:
        return np.zeros(1, dtype=np.intp)
    frac = np.log(np.arange(1, n_positions + 1, dtype=np.float64)) / np.log(n_positions)
    return np.minimum((frac * n_out).astype(np.intp), n_out - 1)


def _pooling_matrix(assign: np.ndarray, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_out, len(assign)) 0/1 matrix that sums each position into its
    assigned bin, and each bin's count. A bin that receives no position
    copies the row and count of the nearest filled bin (the lower one when
    two are equally near), so no output is undefined."""
    P = np.zeros((n_out, len(assign)))
    P[assign, np.arange(len(assign))] = 1.0
    counts = P.sum(axis=1)
    filled = np.flatnonzero(counts)
    # argmin takes the first of equal distances, and filled ascends
    nearest = filled[np.argmin(np.abs(np.arange(n_out)[:, np.newaxis] - filled), axis=1)]
    return P[nearest], counts[nearest]


@functools.lru_cache(maxsize=16)
def _pooling_matrices(n_frames: int, n_bins: int, freq_bins: int, time_bins: int):
    """Band sums Sf (freq_bins x n_bins) with counts cf (freq_bins x 1), and
    transposed time sums StT (n_frames x time_bins) with counts ct, for one
    spectrogram shape; all read-only."""
    freq_assign = np.concatenate(([0], _log_bin_assignments(n_bins - 1, freq_bins)))
    Sf, cf = _pooling_matrix(freq_assign, freq_bins)
    St, ct = _pooling_matrix(_log_bin_assignments(n_frames, time_bins), time_bins)
    out = Sf, cf[:, np.newaxis], St.T, ct
    for a in out:
        a.flags.writeable = False
    return out


def log_quantize(spec: np.ndarray) -> LogSpecFeature:
    """Reduce a complex spectrogram to the flat log-magnitude feature vector.

    Frequency bins 1..Nyquist are mean-pooled into FREQ_BINS log-spaced
    bands (DC folded into the first band); frames are remapped onto
    TIME_BINS log-spaced positions the same way. Amplitudes become
    log(magnitude + AMPLITUDE_FLOOR). Each pooling is a product with a 0/1
    matrix followed by a division by the bin counts, which adds and divides
    as a per-bin loop would, up to the order of the sums.
    """
    if spec.size == 0:
        raise DataError("empty spectrogram")
    mag = np.abs(np.asarray(spec))
    Sf, cf, StT, ct = _pooling_matrices(*mag.shape, FREQ_BINS, TIME_BINS)
    values = np.log((Sf @ mag.T) / cf @ StT / ct + AMPLITUDE_FLOOR)
    return LogSpecFeature(values=values.reshape(-1))


def featurize_clip(clip: PcmClip) -> LogSpecFeature:
    """stft followed by log_quantize; pure and deterministic."""
    return log_quantize(stft(clip))


@dataclass
class FeatureCache(binio.LabeledRows):
    """All featurized clips of a corpus, held as one float32 matrix."""

    freq_bins: int
    time_bins: int
    clip_ids: list[str]
    labels: list[str]
    matrix: np.ndarray

    kind = "feature cache"

    @property
    def dim(self) -> int:
        return self.freq_bins * self.time_bins

    def save(self, path) -> None:
        with binio.atomic_write(path) as f:
            f.write(CACHE_MAGIC)
            binio.write_u32(f, CACHE_VERSION)
            binio.write_u32(f, self.freq_bins)
            binio.write_u32(f, self.time_bins)
            binio.write_u64(f, len(self.clip_ids))
            binio.write_records(f, self.clip_ids, self.labels, self.matrix)

    @classmethod
    def load(cls, path, clip_ids: Iterable[str] | None = None) -> "FeatureCache":
        """The cache in ``path``; with ``clip_ids``, only those clips' rows, in
        file order, and a data error if one is missing. The whole file is
        checked either way: its size, and that no clip id repeats."""
        wanted = None if clip_ids is None else set(clip_ids)
        with binio.open_artifact(path, CACHE_MAGIC, CACHE_VERSION, cls.kind) as f:
            freq_bins = binio.read_u32(f)
            time_bins = binio.read_u32(f)
            count = binio.read_u64(f)
            records = binio.read_records(f, count, freq_bins * time_bins, path, wanted)
        return cls(freq_bins, time_bins, *records)


def featurize_manifest(records: Iterable) -> tuple[FeatureCache, list[str]]:
    """Featurize every record (clip_id, source_path, segment_index, class_label).

    Each source file is decoded once. Files that fail to decode are collected
    into the returned error list while the remaining clips are still cached.
    """
    by_path: dict[str, list] = {}
    for rec in records:
        by_path.setdefault(rec.source_path, []).append(rec)
    # one row per record, written in place; the rows of clips that fail are
    # trimmed off the end
    matrix = np.empty((sum(map(len, by_path.values())), FREQ_BINS * TIME_BINS),
                      dtype=np.float32)
    ids: list[str] = []
    labels: list[str] = []
    errors: list[str] = []
    for path in sorted(by_path):
        wanted = {rec.segment_index: rec for rec in by_path[path]}
        try:
            clips = list(wav.decode_wav(path, DEFAULT_RATE_HZ))
        except DataError as exc:
            errors.append(str(exc))
            continue
        for i, clip in enumerate(clips):
            rec = wanted.pop(i, None)
            if rec is None:
                continue
            matrix[len(ids)] = featurize_clip(clip).values
            ids.append(rec.clip_id)
            labels.append(rec.class_label)
        for rec in sorted(wanted.values(), key=lambda r: r.segment_index):
            errors.append(f"{path}: segment {rec.segment_index} not present in decoded audio")
    cache = FeatureCache(FREQ_BINS, TIME_BINS, ids, labels, matrix[: len(ids)])
    return cache, errors
