"""From PCM samples to the flat fingerprint input, one stage at a time."""

import numpy as np

from efp.features import (
    AMPLITUDE_FLOOR,
    DEFAULT_RATE_HZ,
    FFT_SIZE,
    FREQ_BINS,
    HOP_MS,
    TIME_BINS,
    WINDOW_MS,
    featurize_clip,
    log_quantize,
    stft,
)
from efp.wav import PcmClip

RATE = DEFAULT_RATE_HZ

# a synthetic 2-second test tone: 440 Hz with a quieter 3520 Hz overtone
t = np.arange(2 * RATE) / RATE
samples = 0.4 * np.sin(2 * np.pi * 440 * t) + 0.1 * np.sin(2 * np.pi * 3520 * t)
clip = PcmClip(samples=samples, sample_rate_hz=RATE, clip_id="demo/tone#0")

# the settings are constants of efp.features, the same for every clip
spec = stft(clip)
win = RATE * WINDOW_MS // 1000
hop = RATE * HOP_MS // 1000
print(f"window {win} samples, hop {hop} samples, fft size {FFT_SIZE}")
print(f"spectrogram: {spec.shape[0]} frames x {spec.shape[1]} frequency bins")

# the strongest bin should sit on the fundamental
mag = np.abs(spec)
peak = int(mag.mean(axis=0).argmax())
print(f"strongest bin {peak} -> {peak * RATE / FFT_SIZE:.0f} Hz")

# log-spaced pooling on both axes, then a log amplitude scale
feature = log_quantize(spec)
print(f"pooled to {FREQ_BINS} bands x {TIME_BINS} time bins")
print(f"flat vector: {feature.values.shape[0]} values ({FREQ_BINS} x {TIME_BINS})")
print(f"value range: {feature.values.min():.2f} .. {feature.values.max():.2f}")

# silence maps to one constant: the log of the amplitude floor
silent = PcmClip(samples=np.zeros(2 * RATE), sample_rate_hz=RATE,
                 clip_id="demo/silence#0")
flat = featurize_clip(silent)
print(f"silence featurizes to the constant {flat.values[0]:.4f} "
      f"(log {AMPLITUDE_FLOOR}); spread {np.ptp(flat.values):.1e}")
