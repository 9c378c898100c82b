"""Log-spectrogram features and the binary feature cache.

A 2-second clip becomes a 79x171 grid: STFT magnitudes, mean-pooled over
log-spaced frequency bands, remapped onto log-spaced time bins, then
log-compressed and flattened frequency-major into a 13509-dim vector.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import binio, wav
from .errors import DataError
from .wav import PcmClip

logger = logging.getLogger(__name__)

DEFAULT_RATE_HZ = 16000

CACHE_MAGIC = b"EFPF"
CACHE_VERSION = 1


@dataclass(frozen=True)
class StftConfig:
    """Short-time Fourier transform settings.

    At 16 kHz the 64 ms default window is exactly 1024 samples, matching
    fft_size so no zero-padding occurs.
    """

    fft_size: int = 1024
    window_ms: int = 64
    hop_ms: int = 32
    window_fn: str = "hann"

    def __post_init__(self):
        if self.fft_size <= 0 or self.fft_size & (self.fft_size - 1):
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")
        if not 0 < self.hop_ms <= self.window_ms:
            raise ValueError("need 0 < hop_ms <= window_ms")
        if self.window_fn not in ("hann", "rectangular"):
            raise ValueError(f"unknown window_fn {self.window_fn!r}")

    def win_samples(self, rate_hz: int) -> int:
        return rate_hz * self.window_ms // 1000

    def hop_samples(self, rate_hz: int) -> int:
        return rate_hz * self.hop_ms // 1000

    @property
    def n_freq_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True)
class FeatConfig:
    freq_bins: int = 79
    time_bins: int = 171
    amplitude_floor: float = 1e-6

    def __post_init__(self):
        if self.freq_bins < 1 or self.time_bins < 1:
            raise ValueError("freq_bins and time_bins must be positive")
        if self.amplitude_floor <= 0:
            raise ValueError("amplitude_floor must be positive")

    @property
    def dim(self) -> int:
        return self.freq_bins * self.time_bins


@dataclass(frozen=True)
class LogSpecFeature:
    """Flattened log-spectrogram of one clip, frequency-major."""

    values: np.ndarray
    clip_id: str
    class_label: str | None = None


def _window(name: str, length: int) -> np.ndarray:
    if name == "hann":
        return np.hanning(length)
    if name == "rectangular":
        return np.ones(length)
    raise ValueError(f"unknown window_fn {name!r}")


def stft(clip: PcmClip, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Complex spectrogram of shape (n_frames, fft_size//2 + 1).

    Frame count is floor((len - win) / hop) + 1; only non-negative
    frequencies are kept.
    """
    win = cfg.win_samples(clip.sample_rate_hz)
    hop = cfg.hop_samples(clip.sample_rate_hz)
    if win < 1 or hop < 1:
        raise ValueError(
            f"window/hop shorter than one sample at {clip.sample_rate_hz} Hz"
        )
    if win > cfg.fft_size:
        raise ValueError(f"window of {win} samples exceeds fft_size {cfg.fft_size}")
    samples = np.asarray(clip.samples, dtype=np.float64)
    if len(samples) < win:
        raise DataError(f"clip {clip.clip_id!r} is shorter than one analysis window")
    frames = np.lib.stride_tricks.sliding_window_view(samples, win)[::hop]
    return np.fft.rfft(frames * _window(cfg.window_fn, win), n=cfg.fft_size, axis=1)


def _log_bin_assignments(n_positions: int, n_out: int) -> np.ndarray:
    """Assign 1-based positions 1..n_positions to n_out log-spaced bins."""
    if n_positions < 1:
        raise ValueError("need at least one position")
    if n_positions == 1:
        return np.zeros(1, dtype=np.intp)
    frac = np.log(np.arange(1, n_positions + 1, dtype=np.float64)) / np.log(n_positions)
    return np.minimum((frac * n_out).astype(np.intp), n_out - 1)


def _pool_rows(values: np.ndarray, assign: np.ndarray, n_out: int) -> np.ndarray:
    """Mean-pool rows of `values` into n_out bins per `assign`.

    Bins that receive no rows copy the nearest filled bin (lower index wins
    when equidistant), so the output never contains undefined rows.
    """
    sums = np.zeros((n_out, values.shape[1]))
    counts = np.zeros(n_out)
    np.add.at(sums, assign, values)
    np.add.at(counts, assign, 1.0)
    filled = np.flatnonzero(counts > 0)
    out = np.empty_like(sums)
    out[filled] = sums[filled] / counts[filled, np.newaxis]
    for i in np.flatnonzero(counts == 0):
        k = np.searchsorted(filled, i)
        left = filled[k - 1] if k > 0 else None
        right = filled[k] if k < len(filled) else None
        if left is None:
            src = right
        elif right is None or i - left <= right - i:
            src = left
        else:
            src = right
        out[i] = out[src]
    return out


def log_quantize(
    spec: np.ndarray,
    cfg: FeatConfig = FeatConfig(),
    clip_id: str = "",
    class_label: str | None = None,
) -> LogSpecFeature:
    """Reduce a complex spectrogram to the flat log-magnitude feature vector.

    Frequency bins 1..Nyquist are mean-pooled into cfg.freq_bins log-spaced
    bands (DC folded into the first band); frames are remapped onto
    cfg.time_bins log-spaced positions the same way. Amplitudes become
    log(magnitude + amplitude_floor).
    """
    if spec.size == 0:
        raise DataError("empty spectrogram")
    mag = np.abs(np.asarray(spec))
    n_frames, n_bins = mag.shape
    freq_assign = np.concatenate(
        ([0], _log_bin_assignments(n_bins - 1, cfg.freq_bins))
    )
    pooled = _pool_rows(mag.T, freq_assign, cfg.freq_bins)
    time_assign = _log_bin_assignments(n_frames, cfg.time_bins)
    pooled = _pool_rows(pooled.T, time_assign, cfg.time_bins).T
    values = np.log(pooled + cfg.amplitude_floor)
    return LogSpecFeature(values=values.reshape(-1), clip_id=clip_id, class_label=class_label)


def featurize_clip(
    clip: PcmClip,
    stft_cfg: StftConfig = StftConfig(),
    feat_cfg: FeatConfig = FeatConfig(),
    class_label: str | None = None,
) -> LogSpecFeature:
    """stft followed by log_quantize; pure and deterministic."""
    return log_quantize(
        stft(clip, stft_cfg), feat_cfg, clip_id=clip.clip_id, class_label=class_label
    )


@dataclass
class FeatureCache:
    """All featurized clips of a corpus, held as one float32 matrix."""

    freq_bins: int
    time_bins: int
    clip_ids: list[str]
    labels: list[str]
    matrix: np.ndarray
    _row_of: dict = field(init=False, repr=False)

    def __post_init__(self):
        if not (len(self.clip_ids) == len(self.labels) == len(self.matrix)):
            raise DataError("feature cache fields disagree on clip count")
        self._row_of = {cid: i for i, cid in enumerate(self.clip_ids)}
        if len(self._row_of) != len(self.clip_ids):
            raise DataError("duplicate clip_id in feature cache")

    def __len__(self) -> int:
        return len(self.clip_ids)

    def __contains__(self, clip_id: str) -> bool:
        return clip_id in self._row_of

    @property
    def dim(self) -> int:
        return self.freq_bins * self.time_bins

    def vector(self, clip_id: str) -> np.ndarray:
        try:
            return self.matrix[self._row_of[clip_id]]
        except KeyError:
            raise DataError(f"clip {clip_id!r} not in feature cache") from None

    def label_of(self, clip_id: str) -> str:
        return self.labels[self._row_of[clip_id]]

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(CACHE_MAGIC)
            binio.write_u32(f, CACHE_VERSION)
            binio.write_u32(f, self.freq_bins)
            binio.write_u32(f, self.time_bins)
            binio.write_u64(f, len(self.clip_ids))
            for cid, label, row in zip(self.clip_ids, self.labels, self.matrix):
                binio.write_str(f, cid)
                binio.write_str(f, label)
                binio.write_f32_array(f, row)

    @classmethod
    def load(cls, path) -> "FeatureCache":
        try:
            f = open(path, "rb")
        except OSError as exc:
            raise DataError(f"{path}: cannot open feature cache ({exc})") from exc
        with f:
            binio.expect_magic(f, CACHE_MAGIC, path)
            version = binio.read_u32(f)
            if version != CACHE_VERSION:
                raise DataError(f"{path}: unsupported feature cache version {version}")
            freq_bins = binio.read_u32(f)
            time_bins = binio.read_u32(f)
            count = binio.read_u64(f)
            dim = freq_bins * time_bins
            # per row: two string length prefixes and dim float32 values
            binio.check_fits(f, count, 8 + 4 * dim, path)
            ids: list[str] = []
            labels: list[str] = []
            matrix = np.empty((count, dim), dtype=np.float32)
            for i in range(count):
                ids.append(binio.read_str(f))
                labels.append(binio.read_str(f))
                matrix[i] = binio.read_f32_array(f, dim)
        return cls(freq_bins, time_bins, ids, labels, matrix)


def featurize_manifest(
    records: Iterable,
    stft_cfg: StftConfig = StftConfig(),
    feat_cfg: FeatConfig = FeatConfig(),
    rate_hz: int = DEFAULT_RATE_HZ,
) -> tuple[FeatureCache, list[str]]:
    """Featurize every record (clip_id, source_path, segment_index, class_label).

    Each source file is decoded once. Files that fail to decode are collected
    into the returned error list while the remaining clips are still cached.
    """
    by_path: dict[str, list] = {}
    for rec in records:
        by_path.setdefault(rec.source_path, []).append(rec)
    ids: list[str] = []
    labels: list[str] = []
    rows: list[np.ndarray] = []
    errors: list[str] = []
    for path in sorted(by_path):
        wanted = {rec.segment_index: rec for rec in by_path[path]}
        try:
            clips = list(wav.decode_wav(path, rate_hz))
        except DataError as exc:
            errors.append(str(exc))
            continue
        for i, clip in enumerate(clips):
            rec = wanted.pop(i, None)
            if rec is None:
                continue
            feat = featurize_clip(clip, stft_cfg, feat_cfg, class_label=rec.class_label)
            ids.append(rec.clip_id)
            labels.append(rec.class_label)
            rows.append(feat.values.astype(np.float32))
        for rec in sorted(wanted.values(), key=lambda r: r.segment_index):
            errors.append(f"{path}: segment {rec.segment_index} not present in decoded audio")
    matrix = np.asarray(rows, dtype=np.float32).reshape(len(rows), feat_cfg.dim)
    cache = FeatureCache(feat_cfg.freq_bins, feat_cfg.time_bins, ids, labels, matrix)
    return cache, errors
