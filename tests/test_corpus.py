import concurrent.futures
import hashlib
import logging
import math
import os
import threading
import wave
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from efp import corpus
from efp.corpus import (
    CHORD_NOTES,
    ClipRecord,
    Manifest,
    build_manifest,
    generate_synthetic,
    split_manifest,
)
from efp.errors import DataError

from conftest import write_wav
from oracles import synth_clip_oracle


def fake_manifest(files_per_class, segments_per_file=1):
    """Fabricate a manifest without touching the filesystem."""
    records = []
    for label, n_files in files_per_class.items():
        for f in range(n_files):
            path = f"/corpus/{label}/{label}_{f:03d}.wav"
            for s in range(segments_per_file):
                records.append(
                    ClipRecord(
                        clip_id=f"{label}/{label}_{f:03d}.wav#{s}",
                        source_path=path,
                        segment_index=s,
                        class_label=label,
                    )
                )
    return Manifest(records=tuple(records))


def split_counts(m, label):
    files = {}
    for r in m.records:
        if r.class_label == label:
            files[r.source_path] = r.split
    out = {"train": 0, "val": 0, "test": 0}
    for split in files.values():
        out[split] += 1
    return out


def test_build_manifest_segments_and_order(tmp_path):
    rng = np.random.default_rng(0)
    for label in ("alpha", "beta"):
        d = tmp_path / label
        d.mkdir()
        write_wav(d / "long.wav", 0.1 * rng.standard_normal(6 * 16000))
    m = build_manifest(tmp_path)
    assert len(m) == 6
    assert m.class_set == ["alpha", "beta"]
    alpha = [r for r in m.records if r.class_label == "alpha"]
    assert [r.clip_id for r in alpha] == [
        "alpha/long.wav#0",
        "alpha/long.wav#1",
        "alpha/long.wav#2",
    ]
    assert [r.segment_index for r in alpha] == [0, 1, 2]
    ids = [r.clip_id for r in m.records]
    assert ids == sorted(ids)


def test_build_manifest_no_class_dirs(tmp_path):
    with pytest.raises(DataError):
        build_manifest(tmp_path)
    write_wav(tmp_path / "stray.wav", np.zeros(32000))
    with pytest.raises(DataError):
        build_manifest(tmp_path)


def test_build_manifest_drops_class_of_short_files(tmp_path, caplog):
    rng = np.random.default_rng(1)
    good = tmp_path / "good"
    good.mkdir()
    write_wav(good / "a.wav", 0.1 * rng.standard_normal(2 * 16000))
    bad = tmp_path / "bad"
    bad.mkdir()
    write_wav(bad / "short.wav", 0.1 * rng.standard_normal(16000))
    with caplog.at_level(logging.WARNING):
        m = build_manifest(tmp_path)
    assert m.class_set == ["good"]
    assert any("bad" in rec.message for rec in caplog.records)


def test_build_manifest_skips_unreadable_file(tmp_path, caplog):
    d = tmp_path / "only"
    d.mkdir()
    write_wav(d / "ok.wav", 0.1 * np.random.default_rng(2).standard_normal(32000))
    (d / "junk.wav").write_bytes(b"not audio at all")
    with caplog.at_level(logging.WARNING):
        m = build_manifest(tmp_path)
    assert [r.clip_id for r in m.records] == ["only/ok.wav#0"]
    assert any("junk.wav" in rec.message for rec in caplog.records)


def test_build_manifest_all_unusable(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    (d / "junk.wav").write_bytes(b"nope")
    with pytest.raises(DataError):
        build_manifest(tmp_path)


def test_split_counts_follow_floor_rule():
    m = fake_manifest({"big": 100})
    s = split_manifest(m, seed=3)
    assert split_counts(s, "big") == {"train": 70, "val": 10, "test": 20}

    m = fake_manifest({"small": 10})
    s = split_manifest(m, seed=3)
    assert split_counts(s, "small") == {"train": 7, "val": 1, "test": 2}


def test_split_rejects_when_any_split_would_be_empty():
    with pytest.raises(DataError):
        split_manifest(fake_manifest({"c": 8}), seed=0)
    with pytest.raises(DataError):
        split_manifest(fake_manifest({"c": 2}), seed=0)


def test_split_ratio_validation():
    m = fake_manifest({"c": 10})
    with pytest.raises(ValueError):
        split_manifest(m, ratios=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        split_manifest(m, ratios=(1.0, 0.0, 0.0))


def test_split_deterministic_and_seed_sensitive():
    m = fake_manifest({"a": 12, "b": 20})
    s1 = split_manifest(m, seed=7)
    s2 = split_manifest(m, seed=7)
    assert s1.records == s2.records
    diffs = 0
    for other_seed in range(8, 14):
        s3 = split_manifest(m, seed=other_seed)
        diffs += int(s3.records != s1.records)
    assert diffs > 0


def test_split_property_random_sizes():
    rng = np.random.default_rng(99)
    for trial in range(40):
        n_files = int(rng.integers(3, 61))
        m = fake_manifest({"c": n_files})
        n_val = math.floor(0.1 * n_files + 1e-9)
        n_test = math.floor(0.2 * n_files + 1e-9)
        n_train = n_files - n_val - n_test
        if min(n_val, n_test, n_train) < 1:
            with pytest.raises(DataError):
                split_manifest(m, seed=trial)
            continue
        s = split_manifest(m, seed=trial)
        assert split_counts(s, "c") == {
            "train": n_train,
            "val": n_val,
            "test": n_test,
        }


def test_split_keeps_segments_of_a_file_together():
    m = fake_manifest({"a": 10, "b": 10}, segments_per_file=4)
    s = split_manifest(m, seed=5)
    by_file = {}
    for r in s.records:
        by_file.setdefault(r.source_path, set()).add(r.split)
    assert all(len(splits) == 1 for splits in by_file.values())
    assert len(s.subset("train")) == 2 * 7 * 4
    assert len(s.subset("val")) == 2 * 1 * 4
    assert len(s.subset("test")) == 2 * 2 * 4


def test_manifest_csv_round_trip(tmp_path):
    m = split_manifest(fake_manifest({"a": 10, "b": 12}, segments_per_file=2), seed=1)
    path = tmp_path / "manifest.csv"
    m.save(path)
    loaded = Manifest.load(path)
    assert loaded.records == m.records


def test_manifest_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("who,what\n1,2\n")
    with pytest.raises(DataError):
        Manifest.load(path)
    with pytest.raises(DataError):
        Manifest.load(tmp_path / "missing.csv")


def test_record_and_manifest_validation():
    with pytest.raises(ValueError):
        ClipRecord("id", "p", 0, "")
    with pytest.raises(ValueError):
        ClipRecord("id", "p", -1, "c")
    with pytest.raises(ValueError):
        ClipRecord("id", "p", 0, "c", split="maybe")
    r = ClipRecord("same", "p", 0, "c")
    with pytest.raises(DataError):
        Manifest(records=(r, r))
    with pytest.raises(ValueError):
        Manifest(records=(r,)).subset("everything")


def test_generate_synthetic_counts_and_manifest_match(tmp_path):
    out = tmp_path / "synth"
    m = generate_synthetic(2, 6, seed=11, out_dir=out)
    assert len(m) == 12
    assert m.class_set == ["class00", "class01"]
    for r in m.records:
        rate, data = wavfile.read(r.source_path)
        assert rate == 16000
        assert data.dtype == np.int16
        assert len(data) == 32000
    rebuilt = build_manifest(out)
    assert rebuilt.records == m.records


def test_generate_synthetic_writes_the_bytes_scipy_writes(tmp_path):
    """The corpus is written with the standard library's wave module, so that
    making it needs no scipy; its files are byte for byte scipy's."""
    import io

    m = generate_synthetic(2, 6, seed=12, out_dir=tmp_path)
    for r in m.records:
        with open(r.source_path, "rb") as f:
            written = f.read()
        rate, data = wavfile.read(io.BytesIO(written))
        again = io.BytesIO()
        wavfile.write(again, rate, data)
        assert again.getvalue() == written


def test_generate_synthetic_argument_validation(tmp_path):
    with pytest.raises(ValueError):
        generate_synthetic(1, 6, seed=0, out_dir=tmp_path)
    with pytest.raises(ValueError):
        generate_synthetic(2, 5, seed=0, out_dir=tmp_path)


def test_generate_synthetic_bitwise_reproducible(tmp_path):
    m1 = generate_synthetic(2, 6, seed=4, out_dir=tmp_path / "one")
    m2 = generate_synthetic(2, 6, seed=4, out_dir=tmp_path / "two")
    for r1, r2 in zip(m1.records, m2.records):
        assert r1.clip_id == r2.clip_id
        h1 = hashlib.sha256(Path(r1.source_path).read_bytes()).hexdigest()
        h2 = hashlib.sha256(Path(r2.source_path).read_bytes()).hexdigest()
        assert h1 == h2


# SHA-256 of generate_synthetic(3, 6, seed=4)'s WAV files, concatenated in
# manifest order, as written by the one-clip-at-a-time writer this corpus
# first came from
SYNTH_3X6_SEED4_SHA256 = "6ed5735898fd6bd28bf0dca2486f9ac71a29dac2d3807a3daca31c574fbf4943"
# the same for generate_synthetic(5, 40, seed=1), the corpus of the benchmark's
# acceptance workload at seed 1, as written by the per-sample sine
SYNTH_5X40_SEED1_SHA256 = "4a2d63a3e54940fc141af2f77aca8f68d02e420dce2bcafb42b14d3f194b2864"


def corpus_sha256(m):
    digest = hashlib.sha256()
    for r in m.records:
        with open(r.source_path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def test_generate_synthetic_bytes_are_pinned(tmp_path):
    """Every check of the pipeline runs on these corpora, so their bytes must
    not change with the code that writes them."""
    m = generate_synthetic(3, 6, seed=4, out_dir=tmp_path)
    assert len(m) == 18
    assert corpus_sha256(m) == SYNTH_3X6_SEED4_SHA256


def test_generate_synthetic_acceptance_corpus_bytes_are_pinned(tmp_path):
    m = generate_synthetic(5, 40, seed=1, out_dir=tmp_path)
    assert len(m) == 200
    assert corpus_sha256(m) == SYNTH_5X40_SEED1_SHA256


@pytest.mark.parametrize("seed", [2, 9])
def test_generate_synthetic_matches_the_per_sample_oracle(tmp_path, seed):
    """Every sample of a 20-class corpus, which deals out all 120 tone slots,
    equals the per-sample sine formula's."""
    m = generate_synthetic(20, 6, seed=seed, out_dir=tmp_path)
    slots = np.geomspace(300.0, 3000.0, 20 * CHORD_NOTES)
    t = np.arange(32000) / 16000
    for r in m.records:
        k = int(r.class_label[-2:])
        i = int(os.path.basename(r.source_path)[-7:-4])
        _, data = wavfile.read(r.source_path)
        np.testing.assert_array_equal(
            data, synth_clip_oracle(seed, k, i, slots[k::20], t), err_msg=r.clip_id)


def test_a_level_near_a_rounding_tie_is_made_with_the_per_sample_sine(tmp_path, monkeypatch):
    """Sample 31613 of clip 88 of class 4 of a 20-class corpus at seed 1015 is
    -3136.4999999988 int16 steps by the per-sample sine and -3136.5000000003
    by the sine table, so only the per-sample sine rounds it to -3136."""
    notes = np.geomspace(300.0, 3000.0, 20 * CHORD_NOTES)[4::20]
    t = np.arange(32000) / 16000
    expected = synth_clip_oracle(1015, 4, 88, notes, t)
    path = str(tmp_path / "clip.wav")
    corpus._write_clips(1015, 4, 88, [path], notes, t, 16000)
    np.testing.assert_array_equal(wavfile.read(path)[1], expected)
    monkeypatch.setattr(corpus, "_TIE_BAND", 0.0)
    corpus._write_clips(1015, 4, 88, [path], notes, t, 16000)
    data = wavfile.read(path)[1]
    assert np.flatnonzero(data != expected).tolist() == [31613]
    assert (data[31613], expected[31613]) == (-3137, -3136)


@pytest.mark.parametrize("source, cpus", [
    ("affinity", 1), ("affinity", 3), ("cpu_count", 3)])
def test_generate_synthetic_bytes_do_not_depend_on_the_cpu_count(
        tmp_path, monkeypatch, source, cpus):
    pools = []

    class SpyPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
    if source == "affinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    threads_before = threading.active_count()
    m = generate_synthetic(3, 6, seed=4, out_dir=tmp_path)
    assert pools == [cpus]
    assert threading.active_count() == threads_before
    assert corpus_sha256(m) == SYNTH_3X6_SEED4_SHA256
    assert not list(tmp_path.rglob("*.tmp"))


def test_generate_synthetic_failed_write_leaves_no_partial_wav(tmp_path, monkeypatch):
    real_writeframes = wave.Wave_write.writeframes

    def failing_writeframes(self, data):
        if os.path.basename(self._file.name).startswith("class01_003.wav"):
            real_writeframes(self, data[: len(data) // 2])
            raise OSError("disk full")
        real_writeframes(self, data)

    monkeypatch.setattr(wave.Wave_write, "writeframes", failing_writeframes)
    threads_before = threading.active_count()
    with pytest.raises(DataError, match="class01_003.wav: cannot write WAV.*disk full"):
        generate_synthetic(3, 6, seed=4, out_dir=tmp_path)
    assert threading.active_count() == threads_before
    assert not (tmp_path / "class01" / "class01_003.wav").exists()
    assert not list(tmp_path.rglob("*.tmp"))


def test_generate_synthetic_chord_marks_each_class(tmp_path):
    m = generate_synthetic(3, 6, seed=8, out_dir=tmp_path)
    slots = np.geomspace(300.0, 3000.0, 3 * CHORD_NOTES)

    def power_near(samples, f0):
        power = np.abs(np.fft.rfft(samples)) ** 2
        freqs = np.fft.rfftfreq(len(samples), d=1 / 16000)
        return power[np.abs(freqs - f0) <= 4.0].mean()

    # mean power of class k's clips at class j's tone slots; gain varies per
    # clip, so normalize every clip by its total power first
    at_notes = np.zeros((3, 3))
    for r in m.records:
        _, data = wavfile.read(r.source_path)
        x = data.astype(np.float64) / 32768.0
        x /= np.sqrt(np.mean(np.square(x)))
        k = int(r.class_label[-2:])
        for j in range(3):
            at_notes[k, j] += sum(power_near(x, f) for f in slots[j::3]) / 6.0

    for k in range(3):
        for j in range(3):
            if j != k:
                assert at_notes[k, k] > 3.0 * at_notes[j, k], (k, j)
