import struct

import numpy as np
import pytest
from scipy.io import wavfile

from efp.wav import PcmClip


def write_wav(path, samples, rate=16000, dtype=np.int16):
    """Write test audio; float input is scaled for integer dtypes."""
    samples = np.asarray(samples)
    if np.issubdtype(dtype, np.integer) and samples.dtype.kind == "f":
        if dtype == np.int16:
            samples = (samples * 32767.0).round().astype(np.int16)
        elif dtype == np.uint8:
            samples = ((samples * 127.0).round() + 128).astype(np.uint8)
        else:
            raise ValueError(f"no scaling rule for {dtype}")
    else:
        samples = samples.astype(dtype)
    wavfile.write(path, rate, samples)
    return path


# (offset, struct format, value) of the header fields each case overwrites,
# at their offsets in the 44-byte header scipy writes for 16-bit PCM:
# channels 22, sample rate 24, bytes per second 28, block align 32, data
# chunk id 36
MALFORMED_HEADERS = {
    "no-data-chunk": [(36, "4s", b"xxxx")],
    "zero-channels": [(22, "<H", 0), (28, "<I", 0), (32, "<H", 0)],
    "zero-rate": [(24, "<I", 0), (28, "<I", 0)],
    # consistent, but resampling 40,000 samples from 1 Hz asks for 640 million
    "one-hertz": [(24, "<I", 1), (28, "<I", 2)],
}


def write_malformed_wav(path, case):
    """40,000 16-bit samples at 16 kHz under one of ``MALFORMED_HEADERS``."""
    write_wav(path, np.full(40000, 0.25))
    raw = bytearray(path.read_bytes())
    assert raw[36:40] == b"data"
    for offset, fmt, value in MALFORMED_HEADERS[case]:
        struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    return path


def make_clip(samples, rate=16000, clip_id="clip"):
    return PcmClip(
        samples=np.asarray(samples, dtype=np.float64), sample_rate_hz=rate, clip_id=clip_id
    )


def sine_clip(freq_hz, rate=16000, amplitude=0.5, clip_id="sine"):
    t = np.arange(2 * rate) / rate
    return make_clip(amplitude * np.sin(2 * np.pi * freq_hz * t), rate, clip_id)


def noise_clip(seed, rate=16000, amplitude=0.1, clip_id="noise"):
    rng = np.random.default_rng(seed)
    return make_clip(amplitude * rng.standard_normal(2 * rate), rate, clip_id)


@pytest.fixture
def tiny_corpus_dir(tmp_path):
    """Two classes, three 2 s files each: low-band vs high-band noise."""
    rng = np.random.default_rng(42)
    for label, (lo, hi) in (("low", (200, 600)), ("high", (3000, 5000))):
        class_dir = tmp_path / "corpus" / label
        class_dir.mkdir(parents=True)
        for i in range(3):
            spectrum = np.fft.rfft(rng.standard_normal(32000))
            freqs = np.fft.rfftfreq(32000, d=1 / 16000)
            spectrum[(freqs < lo) | (freqs > hi)] = 0.0
            samples = np.fft.irfft(spectrum, n=32000)
            samples = 0.3 * samples / np.abs(samples).max()
            write_wav(class_dir / f"{label}_{i}.wav", samples)
    return tmp_path / "corpus"


def fd_checkable_pair(seed, dims, y, margin=1.0):
    """Random net and input pair at a generic point for gradient checks.

    A central difference is only informative where the loss is smooth over
    the finite-difference window. All biases are randomized so that ReLU
    units are a mix of active and inactive, then pairs are redrawn until:
    every hidden pre-activation clears the window around the ReLU kink and
    each hidden layer has an active unit in both branches; both raw output
    rows are clear of zero, where the L2 normalization is singular; and the
    distance is clear of the loss kinks at 0 and at the margin. Dissimilar
    pairs (y=0) must also fall inside the margin, so that the hinge term is
    what gets checked rather than a loss that is flat zero.
    """
    from efp.net import init_params

    rng = np.random.default_rng([seed, 91])
    params = init_params(seed, dims)
    for b in params.biases:
        mag = rng.uniform(0.05, 0.4, size=b.shape)
        b += mag * rng.choice([-1.0, 1.0], size=b.shape)

    def forward(x):
        h = np.asarray(x, dtype=np.float64)
        zs = []
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            z = h @ w.T + b
            zs.append(z)
            h = np.maximum(z, 0.0)
        return zs, h @ params.weights[-1].T + params.biases[-1]

    while True:
        x1 = rng.standard_normal(dims[0])
        x2 = rng.standard_normal(dims[0])
        zs1, u1 = forward(x1)
        zs2, u2 = forward(x2)
        if any(np.abs(z).min() < 1e-3 for z in zs1 + zs2):
            continue
        if any(not (np.any(z1 > 0) and np.any(z2 > 0)) for z1, z2 in zip(zs1, zs2)):
            continue
        n1, n2 = np.linalg.norm(u1), np.linalg.norm(u2)
        if min(n1, n2) < 0.05:
            continue
        d = float(np.linalg.norm(u1 / n1 - u2 / n2))
        if d < 0.05 or abs(d - margin) < 0.05 or (y == 0 and d > margin):
            continue
        return params, x1, x2


def pair_triples(pair_set):
    """The (clip_a, clip_b, label) of each pair of a ``PairSet``, in order."""
    ids = pair_set.ids
    return [(ids[i], ids[j], label)
            for i, j, label in zip(pair_set.a.tolist(), pair_set.b.tolist(), pair_set.y.tolist())]
