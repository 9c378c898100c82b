import numpy as np
import pytest

from efp.corpus import build_manifest
from efp.errors import DataError
from efp.features import (
    FeatConfig,
    FeatureCache,
    StftConfig,
    _pooling_matrices,
    featurize_clip,
    featurize_manifest,
    log_quantize,
    stft,
)
from efp.wav import decode_wav

from conftest import make_clip, noise_clip, sine_clip, write_wav
from oracles import frame_count_oracle, log_quantize_oracle

LOG_FLOOR = np.log(1e-6)


def test_default_shape_61_frames_513_bins():
    spec = stft(noise_clip(0))
    assert spec.shape == (61, 513)
    assert spec.shape[0] == frame_count_oracle(32000, 1024, 512)


def test_frame_count_formula_over_random_lengths():
    rng = np.random.default_rng(123)
    for _ in range(40):
        # PcmClip pins length to 2 x rate, so vary the rate to vary the length
        rate = int(rng.integers(2000, 48001))
        clip = make_clip(rng.standard_normal(2 * rate) * 0.1, rate=rate)
        cfg = StftConfig(fft_size=4096)
        win = cfg.win_samples(rate)
        hop = cfg.hop_samples(rate)
        spec = stft(clip, cfg)
        assert spec.shape[0] == frame_count_oracle(2 * rate, win, hop)
        assert spec.shape[1] == 4096 // 2 + 1


def test_dc_signal_rectangular_window_energy_in_bin_zero():
    clip = make_clip(np.full(32000, 0.5))
    spec = stft(clip, StftConfig(window_fn="rectangular"))
    mag = np.abs(spec)
    assert np.all(mag[:, 0] == pytest.approx(0.5 * 1024))
    assert mag[:, 1:].max() < 1e-9 * mag[:, 0].max()


def test_1khz_sine_peaks_at_bin_64():
    spec = stft(sine_clip(1000.0))
    mag = np.abs(spec)
    assert 1000 / (16000 / 1024) == 64
    assert np.all(np.argmax(mag, axis=1) == 64)


def test_clip_shorter_than_window_rejected():
    cfg = StftConfig(fft_size=65536, window_ms=3000, hop_ms=1000)
    with pytest.raises(DataError):
        stft(noise_clip(1), cfg)


def test_window_larger_than_fft_rejected():
    with pytest.raises(ValueError):
        stft(noise_clip(1), StftConfig(fft_size=512))


def test_silence_gives_constant_log_floor():
    feat = featurize_clip(make_clip(np.zeros(32000)))
    assert feat.values.shape == (13509,)
    assert np.all(feat.values == LOG_FLOOR)


def test_any_clip_gives_13509_finite_values():
    for seed in range(5):
        feat = featurize_clip(noise_clip(seed))
        assert feat.values.shape == (79 * 171,)
        assert np.all(np.isfinite(feat.values))
        assert np.all(feat.values >= LOG_FLOOR)


def test_featurize_deterministic_bitwise():
    clip = noise_clip(7)
    a = featurize_clip(clip)
    b = featurize_clip(clip)
    assert a.values.tobytes() == b.values.tobytes()


def test_scaling_by_ten_bounded_and_order_preserving():
    raw = noise_clip(11, amplitude=0.05)
    quiet = raw.samples * (0.05 / np.abs(raw.samples).max())
    clip = make_clip(quiet, clip_id="quiet")
    loud = make_clip(quiet * 10, clip_id="loud")
    assert np.abs(loud.samples).max() <= 1.0  # no actual clipping occurred
    a = featurize_clip(clip).values
    b = featurize_clip(loud).values
    delta = b - a
    assert np.all(delta >= -1e-12)
    assert np.all(delta <= np.log(10.0) + 1e-12)
    strong = a > LOG_FLOOR + 5.0  # magnitudes far above the floor
    assert strong.sum() > 100
    assert np.array_equal(np.argsort(a[strong]), np.argsort(b[strong]))


def test_log_quantize_hand_case():
    # 3 frames x 5 bins; freq_bins=2 pools {dc,bin1} and {bin2,bin3,bin4};
    # time_bins=2 keeps frame0 and averages frames 1,2
    mag = np.arange(15, dtype=np.float64).reshape(3, 5)
    feat = log_quantize(mag.astype(complex), FeatConfig(freq_bins=2, time_bins=2, amplitude_floor=1e-6))
    grid = feat.values.reshape(2, 2)
    f0 = mag[:, :2].mean(axis=1)
    f1 = mag[:, 2:].mean(axis=1)
    expect = np.log(
        np.array(
            [
                [f0[0], (f0[1] + f0[2]) / 2],
                [f1[0], (f1[1] + f1[2]) / 2],
            ]
        )
        + 1e-6
    )
    assert np.allclose(grid, expect, rtol=0, atol=1e-12)


def test_empty_time_bins_copy_nearest_neighbor():
    # 2 frames into 4 time bins: frames land in bins 0 and 3, bin 1 copies
    # its nearest occupied neighbor on the left, bin 2 the one on the right
    mag = np.array([[1.0, 1.0], [3.0, 3.0]])  # 2 frames x 2 bins
    feat = log_quantize(mag.astype(complex), FeatConfig(freq_bins=1, time_bins=4))
    row = np.exp(feat.values) - 1e-6
    assert row == pytest.approx([1.0, 1.0, 3.0, 3.0])


def test_pooling_matrices_match_the_row_pooling_oracle():
    rng = np.random.default_rng(8)
    cases = [
        (3, 5, 2, 2),  # the hand case
        (2, 2, 1, 4),  # empty time bins between two frames
        (7, 33, 4, 30),  # more time bins than frames
        (6, 9, 20, 3),  # more bands than FFT bins: empty frequency bins too
        (1, 2, 3, 5),  # one frame and one non-DC bin
    ]
    mags = [rng.uniform(0.0, 4.0, (n_frames, n_bins)) for n_frames, n_bins, _, _ in cases]
    # random 2 s clips at the default settings (61 frames into 171 time bins)
    for seed in range(4):
        mags.append(np.abs(stft(noise_clip(seed, amplitude=0.02 + 0.1 * seed))))
        cases.append((61, 513, 79, 171))
    for mag, (_, _, freq_bins, time_bins) in zip(mags, cases):
        Sf, cf, StT, ct = _pooling_matrices(*mag.shape, freq_bins, time_bins)
        want, _ = log_quantize_oracle(mag, freq_bins, time_bins, 1e-6)
        np.testing.assert_allclose((Sf @ mag.T) / cf @ StT / ct, want, rtol=1e-12, atol=0)
    assert not any(a.flags.writeable for a in (Sf, cf, StT, ct))


def test_cached_features_equal_the_row_pooling_oracle_in_float32(tiny_corpus_dir):
    manifest = build_manifest(tiny_corpus_dir)
    cache, errors = featurize_manifest(manifest.records)
    assert errors == []
    for rec in manifest.records:
        clip = list(decode_wav(rec.source_path, 16000))[rec.segment_index]
        _, want = log_quantize_oracle(stft(clip), 79, 171, 1e-6)
        assert np.array_equal(cache.vector(rec.clip_id), want.astype(np.float32))


def test_band_limited_noise_energy_ordering():
    rng = np.random.default_rng(99)
    spectrum = np.fft.rfft(rng.standard_normal(32000))
    freqs = np.fft.rfftfreq(32000, d=1 / 16000)
    spectrum[(freqs < 2000) | (freqs > 4000)] = 0.0
    samples = np.fft.irfft(spectrum, n=32000)
    clip = make_clip(0.3 * samples / np.abs(samples).max())
    grid = featurize_clip(clip).values.reshape(79, 171)
    # map frequency bands back to Hz via the log-spaced assignment rule
    bin_hz = 16000 / 1024
    band_of = np.minimum(
        (np.log(np.arange(1, 513)) / np.log(512) * 79).astype(int), 78
    )
    bins = np.arange(1, 513)
    in_band = lambda lo, hi: sorted(set(band_of[(bins * bin_hz >= lo) & (bins * bin_hz <= hi)]))
    mean_2k4k = grid[in_band(2000, 4000)].mean()
    mean_6k8k = grid[in_band(6000, 8000)].mean()
    assert mean_2k4k > mean_6k8k


def test_stft_config_validation():
    with pytest.raises(ValueError):
        StftConfig(fft_size=1000)
    with pytest.raises(ValueError):
        StftConfig(hop_ms=100, window_ms=64)
    with pytest.raises(ValueError):
        StftConfig(window_fn="hamming")
    with pytest.raises(ValueError):
        FeatConfig(freq_bins=0)
    for floor in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            FeatConfig(amplitude_floor=floor)


def _small_cache():
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((4, 6)).astype(np.float32)
    return FeatureCache(2, 3, ["a", "b", "c", "d"], ["x", "x", "y", ""], matrix)


def test_cache_round_trip_bitwise(tmp_path):
    cache = _small_cache()
    path = tmp_path / "feats.efpf"
    cache.save(path)
    loaded = FeatureCache.load(path)
    assert loaded.clip_ids == cache.clip_ids
    assert loaded.labels == cache.labels
    assert loaded.matrix.tobytes() == cache.matrix.tobytes()
    assert loaded.freq_bins == 2 and loaded.time_bins == 3
    # a second save must produce identical bytes
    path2 = tmp_path / "feats2.efpf"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_cache_rejects_bad_magic_and_truncation(tmp_path):
    cache = _small_cache()
    path = tmp_path / "feats.efpf"
    cache.save(path)
    data = path.read_bytes()
    bad = tmp_path / "bad.efpf"
    bad.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(DataError):
        FeatureCache.load(bad)
    cut = tmp_path / "cut.efpf"
    cut.write_bytes(data[:-10])
    with pytest.raises(DataError):
        FeatureCache.load(cut)
    # sizes the header declares are checked against the file before allocating:
    # u64 count @16, then u32 freq_bins @8 and time_bins @12
    oversized = [data[:16] + (2**40).to_bytes(8, "little") + data[24:]]
    for bins in (2**16, 2**32 - 1):
        oversized.append(data[:8] + bins.to_bytes(4, "little") * 2 + data[16:])
    for i, contents in enumerate(oversized):
        (tmp_path / f"big{i}.efpf").write_bytes(contents)
        with pytest.raises(DataError, match="header declares"):
            FeatureCache.load(tmp_path / f"big{i}.efpf")
    empty = tmp_path / "empty.efpf"
    FeatureCache(2, 3, [], [], np.zeros((0, 6), dtype=np.float32)).save(empty)
    assert len(FeatureCache.load(empty)) == 0


def test_cache_rejects_invalid_utf8_ids(tmp_path):
    path = tmp_path / "feats.efpf"
    _small_cache().save(path)
    data = bytearray(path.read_bytes())
    data[28] = 0xFF  # the first clip id's byte, after its u32 length at 24
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="UTF-8"):
        FeatureCache.load(path)


def test_cache_rejects_duplicate_ids():
    with pytest.raises(DataError):
        FeatureCache(1, 1, ["a", "a"], ["x", "x"], np.zeros((2, 1), dtype=np.float32))


def test_cache_vector_lookup():
    cache = _small_cache()
    assert "a" in cache
    assert cache.vector("c").shape == (6,)
    assert cache.label_of("c") == "y"
    with pytest.raises(DataError):
        cache.vector("nope")
    with pytest.raises(DataError, match="not in feature cache"):
        cache.label_of("nope")
    assert np.array_equal(cache.rows(["d", "a"]), cache.matrix[[3, 0]])
    with pytest.raises(DataError):
        cache.rows(["a", "nope"])


def test_featurize_manifest_partial_failure(tmp_path, tiny_corpus_dir):
    from efp.corpus import build_manifest, ClipRecord

    manifest = build_manifest(tiny_corpus_dir)
    corrupt = tmp_path / "corrupt.wav"
    corrupt.write_bytes(b"not really audio")
    records = list(manifest.records) + [
        ClipRecord("bad/corrupt.wav#0", str(corrupt), 0, "bad")
    ]
    cache, errors = featurize_manifest(records)
    assert len(cache) == len(manifest.records)
    assert len(errors) == 1
    assert "corrupt.wav" in errors[0]


def test_featurize_manifest_full_success(tiny_corpus_dir):
    from efp.corpus import build_manifest

    manifest = build_manifest(tiny_corpus_dir)
    cache, errors = featurize_manifest(manifest.records)
    assert errors == []
    assert len(cache) == len(manifest.records)
    assert set(cache.clip_ids) == {r.clip_id for r in manifest.records}
    assert cache.matrix.dtype == np.float32


def write_cache_file(path, dim, ids, labels, matrix):
    """A cache file with these records as they are, unchecked, so that it
    may repeat an id."""
    from efp import binio
    from efp.features import CACHE_MAGIC, CACHE_VERSION

    with open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        binio.write_u32(f, CACHE_VERSION)
        binio.write_u32(f, dim)
        binio.write_u32(f, 1)
        binio.write_u64(f, len(ids))
        binio.write_records(f, ids, labels, matrix)


def test_cache_load_of_some_clips_keeps_their_rows_in_file_order(tmp_path):
    cache = _small_cache()
    path = tmp_path / "feats.efpf"
    cache.save(path)
    part = FeatureCache.load(path, ["d", "b"])
    assert part.clip_ids == ["b", "d"]
    assert part.labels == ["x", ""]
    assert part.matrix.tobytes() == cache.matrix[[1, 3]].tobytes()
    assert (part.freq_bins, part.time_bins) == (2, 3)
    assert len(FeatureCache.load(path, [])) == 0


def test_cache_load_of_some_clips_checks_the_rows_it_skips(tmp_path):
    """A truncated skipped last row, an id repeated among skipped rows and a
    missing wanted clip are data errors, as they are for a full load."""
    matrix = np.arange(12, dtype=np.float32).reshape(4, 3)
    whole = tmp_path / "whole.efpf"
    write_cache_file(whole, 3, ["a", "b", "c", "d"], ["x"] * 4, matrix)
    cut = tmp_path / "cut.efpf"
    cut.write_bytes(whole.read_bytes()[:-5])  # inside d's floats
    twice = tmp_path / "twice.efpf"
    write_cache_file(twice, 3, ["a", "b", "c", "c"], ["x"] * 4, matrix)
    for path, match in ((cut, "truncated"), (twice, "duplicate clip_id 'c'")):
        for wanted in (None, ["a", "b"]):
            with pytest.raises(DataError, match=match):
                FeatureCache.load(path, wanted)
    with pytest.raises(DataError, match="'e' not in file"):
        FeatureCache.load(whole, ["a", "e"])


def test_featurize_manifest_holds_one_cache_matrix(tmp_path):
    """The rows go straight into the cache's matrix: no list of rows and no
    second copy of them."""
    import tracemalloc

    from efp.corpus import ClipRecord

    rng = np.random.default_rng(6)
    records = []
    for i in range(100):
        path = tmp_path / f"c{i:03d}.wav"
        write_wav(path, 0.1 * rng.standard_normal(32000))
        records.append(ClipRecord(f"c{i:03d}#0", str(path), 0, "x"))
    tracemalloc.start()
    try:
        cache, errors = featurize_manifest(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert errors == [] and len(cache) == 100
    # a clip's decode and STFT transients are about 2 MB; two matrices were 2.1x
    assert peak < 1.5 * cache.matrix.nbytes
