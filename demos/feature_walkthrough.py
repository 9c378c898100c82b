"""From PCM samples to the flat fingerprint input, one stage at a time."""

import numpy as np

from efp.features import FeatConfig, StftConfig, featurize_clip, log_quantize, stft
from efp.wav import PcmClip

RATE = 16000

# a synthetic 2-second test tone: 440 Hz with a quieter 3520 Hz overtone
t = np.arange(2 * RATE) / RATE
samples = 0.4 * np.sin(2 * np.pi * 440 * t) + 0.1 * np.sin(2 * np.pi * 3520 * t)
clip = PcmClip(samples=samples, sample_rate_hz=RATE, clip_id="demo/tone#0")

stft_cfg = StftConfig()
spec = stft(clip, stft_cfg)
win = stft_cfg.win_samples(RATE)
hop = stft_cfg.hop_samples(RATE)
print(f"window {win} samples, hop {hop} samples, fft size {stft_cfg.fft_size}")
print(f"spectrogram: {spec.shape[0]} frames x {spec.shape[1]} frequency bins")

# the strongest bin should sit on the fundamental
mag = np.abs(spec)
peak = int(mag.mean(axis=0).argmax())
print(f"strongest bin {peak} -> {peak * RATE / stft_cfg.fft_size:.0f} Hz")

# log-spaced pooling on both axes, then a log amplitude scale
feat_cfg = FeatConfig()
feature = log_quantize(spec, feat_cfg)
print(f"pooled to {feat_cfg.freq_bins} bands x {feat_cfg.time_bins} time bins")
print(f"flat vector: {feature.values.shape[0]} values "
      f"({feat_cfg.freq_bins} x {feat_cfg.time_bins})")
print(f"value range: {feature.values.min():.2f} .. {feature.values.max():.2f}")

# silence maps to one constant: the log of the amplitude floor
silent = PcmClip(samples=np.zeros(2 * RATE), sample_rate_hz=RATE,
                 clip_id="demo/silence#0")
flat = featurize_clip(silent, stft_cfg, feat_cfg)
print(f"silence featurizes to the constant {flat.values[0]:.4f} "
      f"(log {feat_cfg.amplitude_floor}); spread {np.ptp(flat.values):.1e}")
