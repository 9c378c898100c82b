"""WAV decoding: PCM to float, mono mixdown, resampling, 2-second segmentation.

All downstream stages operate on fixed-length 2-second clips; decoding turns an
arbitrary RIFF/WAVE file into a stream of such clips at the target sample rate.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

CLIP_SECONDS = 2

# A header's rate is outside input, and resampling makes len * target / rate
# samples: 640 million from a 1 Hz header over 40,000 at 16 kHz. Audio is
# sampled at 8 kHz or more, so a rate below this floor is a malformed header.
MIN_RATE_HZ = 1000


@dataclass(frozen=True)
class PcmClip:
    """One fixed-length 2-second mono clip, samples in [-1.0, 1.0]."""

    samples: np.ndarray
    sample_rate_hz: int
    clip_id: str

    def __post_init__(self):
        if self.samples.shape != (self.sample_rate_hz * CLIP_SECONDS,):
            raise ValueError(
                f"clip {self.clip_id!r}: expected exactly "
                f"{self.sample_rate_hz * CLIP_SECONDS} samples, got {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"clip {self.clip_id!r}: non-finite samples")


def _to_float(data: np.ndarray) -> np.ndarray:
    """Map integer PCM to float64 in [-1, 1]; pass floats through clipped."""
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    if data.dtype == np.int16:
        return data.astype(np.float64) / 32768.0
    if data.dtype == np.int32:
        # 24-bit PCM is returned by scipy as int32 with data in the high bytes,
        # so a single 2**31 scale covers both 24- and 32-bit containers.
        return data.astype(np.float64) / 2147483648.0
    if data.dtype in (np.float32, np.float64):
        return np.clip(data.astype(np.float64), -1.0, 1.0)
    raise DataError(f"unsupported WAV sample format: {data.dtype}")


def resample_linear(samples: np.ndarray, src_rate: int, dst_rate: int) -> np.ndarray:
    """Resample by linear interpolation, preserving duration within rounding."""
    if src_rate == dst_rate:
        return samples
    n_out = int(round(len(samples) * dst_rate / src_rate))
    if n_out <= 1:
        return samples[:n_out].copy()
    # sample instants in source-index units
    positions = np.arange(n_out, dtype=np.float64) * (src_rate / dst_rate)
    return np.interp(positions, np.arange(len(samples), dtype=np.float64), samples)


def read_wav_mono(path: str | os.PathLike, target_rate_hz: int) -> np.ndarray:
    """Read a WAV file as mono float64 at target_rate_hz.

    Stereo (or more channels) is averaged to mono before resampling.
    Raises DataError for unreadable files, malformed or non-WAV headers, rates
    below ``MIN_RATE_HZ``, unsupported sample formats and zero-length audio.
    """
    # imported here, so that the stages that never read a WAV do not pay for
    # importing scipy
    from scipy.io import wavfile

    try:
        src_rate, data = wavfile.read(os.fspath(path))
    except FileNotFoundError as exc:
        raise DataError(f"{path}: file not found") from exc
    except Exception as exc:
        # the parser reads outside input, and a malformed header can make it
        # raise anything from ValueError to ZeroDivisionError or struct.error
        raise DataError(f"{path}: not a readable PCM WAV file ({exc!r})") from exc
    if src_rate < MIN_RATE_HZ:
        raise DataError(f"{path}: sample rate {src_rate} Hz is below {MIN_RATE_HZ} Hz")
    if data.size == 0:
        raise DataError(f"{path}: zero-length audio")
    samples = _to_float(data)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return resample_linear(samples, src_rate, target_rate_hz)


def segment_clips(
    samples: np.ndarray, rate_hz: int, id_prefix: str
) -> Iterator[PcmClip]:
    """Split mono audio into consecutive non-overlapping 2-second clips.

    A trailing remainder shorter than 2 s is discarded. Clip ids are
    "<id_prefix>#<index>" with index counting from 0.
    """
    clip_len = rate_hz * CLIP_SECONDS
    n_clips = len(samples) // clip_len
    for i in range(n_clips):
        yield PcmClip(
            samples=samples[i * clip_len : (i + 1) * clip_len].copy(),
            sample_rate_hz=rate_hz,
            clip_id=f"{id_prefix}#{i}",
        )


def segment_count(n_samples: int, rate_hz: int) -> int:
    return n_samples // (rate_hz * CLIP_SECONDS)


def decode_wav(path: str | os.PathLike, target_rate_hz: int) -> Iterator[PcmClip]:
    """Decode a WAV file into a stream of 2-second clips at target_rate_hz.

    A file shorter than 2 s yields an empty stream with a warning; it is not
    an error. Format problems raise DataError.
    """
    samples = read_wav_mono(path, target_rate_hz)
    if segment_count(len(samples), target_rate_hz) == 0:
        logger.warning(
            "%s: shorter than %d s after resampling, no clips produced",
            path,
            CLIP_SECONDS,
        )
        return
    yield from segment_clips(samples, target_rate_hz, os.path.basename(os.fspath(path)))
