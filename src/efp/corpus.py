"""Corpus management: manifests, file-level splits, synthetic test data."""

from __future__ import annotations

import csv
import logging
import math
import os
import wave
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import binio, wav
from .errors import DataError
from .features import DEFAULT_RATE_HZ

logger = logging.getLogger(__name__)

SPLITS = ("train", "val", "test", "unassigned")
MANIFEST_HEADER = ["clip_id", "source_path", "segment_index", "class_label", "split"]
CHORD_NOTES = 6
SPLIT_RATIOS = (0.7, 0.1, 0.2)  # train, val, test


@dataclass(frozen=True)
class ClipRecord:
    clip_id: str
    source_path: str
    segment_index: int
    class_label: str
    split: str = "unassigned"

    def __post_init__(self):
        if not self.class_label:
            raise ValueError(f"clip {self.clip_id!r} has an empty class_label")
        if self.segment_index < 0:
            raise ValueError(f"clip {self.clip_id!r} has a negative segment_index")
        if self.split not in SPLITS:
            raise ValueError(f"clip {self.clip_id!r} has unknown split {self.split!r}")


@dataclass(frozen=True)
class Manifest:
    records: tuple[ClipRecord, ...]

    def __post_init__(self):
        ids = {r.clip_id for r in self.records}
        if len(ids) != len(self.records):
            raise DataError("duplicate clip_id in manifest")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def class_set(self) -> list[str]:
        return sorted({r.class_label for r in self.records})

    def subset(self, split: str) -> list[ClipRecord]:
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        return [r for r in self.records if r.split == split]

    def save(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(MANIFEST_HEADER)
            for r in self.records:
                writer.writerow(
                    [r.clip_id, r.source_path, r.segment_index, r.class_label, r.split]
                )

    @classmethod
    def load(cls, path) -> "Manifest":
        try:
            f = open(path, newline="", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"{path}: cannot open manifest ({exc})") from exc
        with f:
            reader = csv.reader(f)
            try:
                header = next(reader, None)
                if header != MANIFEST_HEADER:
                    raise DataError(f"{path}: bad manifest header {header}")
                records = []
                for row in reader:
                    if len(row) != 5:
                        raise DataError(f"{path}: malformed manifest row {row}")
                    records.append(
                        ClipRecord(row[0], row[1], int(row[2]), row[3], row[4])
                    )
            except ValueError as exc:  # a bad integer, field or UTF-8 byte
                raise DataError(f"{path}: {exc}") from exc
        return cls(records=tuple(records))


def build_manifest(root_dir, rate_hz: int = DEFAULT_RATE_HZ) -> Manifest:
    """Scan root_dir (one subdirectory per class) into a manifest.

    Emits one record per 2-second segment, mirroring decode_wav's counting.
    Classes without a single usable segment are dropped with a warning.
    """
    root_dir = os.fspath(root_dir)
    try:
        entries = sorted(os.listdir(root_dir))
    except OSError as exc:
        raise DataError(f"{root_dir}: cannot list directory ({exc})") from exc
    class_dirs = [e for e in entries if os.path.isdir(os.path.join(root_dir, e))]
    if not class_dirs:
        raise DataError(f"{root_dir}: no class subdirectories found")
    records: list[ClipRecord] = []
    for label in class_dirs:
        class_records: list[ClipRecord] = []
        class_dir = os.path.join(root_dir, label)
        for name in sorted(os.listdir(class_dir)):
            if not name.lower().endswith(".wav"):
                continue
            path = os.path.join(class_dir, name)
            try:
                samples = wav.read_wav_mono(path, rate_hz)
            except DataError as exc:
                logger.warning("skipping %s: %s", path, exc)
                continue
            n_segments = wav.segment_count(len(samples), rate_hz)
            if n_segments == 0:
                logger.warning("skipping %s: shorter than one 2 s segment", path)
            for i in range(n_segments):
                class_records.append(
                    ClipRecord(
                        clip_id=f"{label}/{name}#{i}",
                        source_path=path,
                        segment_index=i,
                        class_label=label,
                    )
                )
        if class_records:
            records.extend(class_records)
        else:
            logger.warning("class %r has no usable clips, dropping it", label)
    if not records:
        raise DataError(f"{root_dir}: no usable audio in any class directory")
    records.sort(key=lambda r: (r.class_label, r.source_path, r.segment_index))
    return Manifest(records=tuple(records))


def split_manifest(
    m: Manifest,
    ratios: tuple[float, float, float] = SPLIT_RATIOS,
    seed: int = 0,
) -> Manifest:
    """Assign train/val/test per class at the source-file level.

    All segments of one file land in the same split so near-duplicate
    segments can never leak across splits. Counts per class follow
    val = floor(ratio * files), test = floor(ratio * files), train = rest.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1.0, got {ratios}")
    by_class: dict[str, list[str]] = {}
    for r in m.records:
        by_class.setdefault(r.class_label, [])
        if r.source_path not in by_class[r.class_label]:
            by_class[r.class_label].append(r.source_path)
    split_of_file: dict[tuple[str, str], str] = {}
    for label in sorted(by_class):
        files = sorted(by_class[label])
        if len(files) < 3:
            raise DataError(f"class {label!r} has {len(files)} source files, need >= 3")
        n_val = math.floor(ratios[1] * len(files) + 1e-9)
        n_test = math.floor(ratios[2] * len(files) + 1e-9)
        n_train = len(files) - n_val - n_test
        if n_val < 1 or n_test < 1 or n_train < 1:
            raise DataError(
                f"class {label!r}: {len(files)} files split {n_train}/{n_val}/{n_test}; "
                "every split needs at least one file"
            )
        rng = np.random.default_rng([seed, zlib.crc32(label.encode("utf-8"))])
        for i, j in enumerate(rng.permutation(len(files))):
            split = "val" if i < n_val else "test" if i < n_val + n_test else "train"
            split_of_file[(label, files[j])] = split
    new_records = tuple(
        replace(r, split=split_of_file[(r.class_label, r.source_path)])
        for r in m.records
    )
    return Manifest(records=new_records)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_clips(seed: int, k: int, first: int, paths: list[str], notes: np.ndarray,
                 t: np.ndarray, rate_hz: int) -> None:
    """Write clips ``first``, ``first + 1``, ... of class ``k`` to ``paths``;
    one pool job.

    The chord's sine argument without the phases is the same for every clip
    of a class, so it is made once per job; each clip adds its phases into
    one scratch buffer. That is the float arithmetic of
    ``np.sqrt(2.0) * np.sin(2.0 * np.pi * notes[:, None] * t + phases[:, None])``,
    in the same order, so every sample is the same bit for bit.
    """
    ramp = 2.0 * np.pi * notes[:, None] * t
    buf = np.empty_like(ramp)
    for i, path in enumerate(paths, first):
        rng = np.random.default_rng([seed, k, i])
        bed = rng.standard_normal(len(t))
        bed /= _rms(bed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=notes.shape)
        np.add(ramp, phases[:, None], out=buf)
        np.sin(buf, out=buf)
        buf *= np.sqrt(2.0)
        mix = bed + 0.35 * np.sum(buf, axis=0)
        mix *= 0.05 * 10.0 ** (rng.uniform(-9.0, 9.0) / 20.0)
        samples = np.clip(mix, -1.0, 1.0)
        try:
            # 16-bit PCM mono, the bytes scipy.io.wavfile.write gives
            with binio.atomic_write(path) as f, wave.open(f, "wb") as out:
                out.setnchannels(1)
                out.setsampwidth(2)
                out.setframerate(rate_hz)
                out.writeframes((samples * 32767.0).round().astype("<i2").tobytes())
        except OSError as exc:
            raise DataError(f"{path}: cannot write WAV ({exc})") from exc


def generate_synthetic(
    n_classes: int,
    clips_per_class: int,
    seed: int,
    out_dir,
    rate_hz: int = DEFAULT_RATE_HZ,
) -> Manifest:
    """Write a deterministic synthetic corpus of 2 s WAV files.

    Every clip is a fresh white-noise bed scaled by a large random per-clip
    gain (within +/-9 dB), so raw levels and spectra look alike across
    classes. Class identity is a fixed six-note chord mixed under the bed:
    the available log-spaced tone slots are dealt round-robin, so class k
    owns slots k, k+n, k+2n and so on. The chord's spectral footprint is
    deterministic while the bed and gain vary, which keeps the corpus
    separable but makes naive distance-in-feature-space comparisons noisy.

    The clips are written by a pool of one thread per CPU this process may
    run on, in runs of consecutive clips of one class. Each clip draws from
    its own generator, seeded ``[seed, k, i]``, so the files do not depend on
    the number of threads. Every thread has ended when this returns or
    raises; after a failed clip the runs not yet started are dropped.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if clips_per_class < 6:
        raise ValueError(f"need at least 6 clips per class, got {clips_per_class}")
    # imported here, so that the stages that make no corpus do not load
    # concurrent.futures and threading
    from concurrent.futures import ThreadPoolExecutor

    out_dir = os.fspath(out_dir)
    slots = np.geomspace(300.0, 3000.0, n_classes * CHORD_NOTES)
    t = np.arange(rate_hz * wav.CLIP_SECONDS) / rate_hz
    workers = _usable_cpus()
    run = -(-clips_per_class // workers)  # each class in about one run per thread
    records: list[ClipRecord] = []
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        jobs = []
        for k in range(n_classes):
            label = f"class{k:02d}"
            class_dir = os.path.join(out_dir, label)
            try:
                os.makedirs(class_dir, exist_ok=True)
            except OSError as exc:
                raise DataError(f"{class_dir}: cannot create output directory ({exc})") from exc
            paths = []
            for i in range(clips_per_class):
                name = f"{label}_{i:03d}.wav"
                paths.append(os.path.join(class_dir, name))
                records.append(
                    ClipRecord(
                        clip_id=f"{label}/{name}#0",
                        source_path=paths[-1],
                        segment_index=0,
                        class_label=label,
                    )
                )
            for first in range(0, clips_per_class, run):
                jobs.append(pool.submit(
                    _write_clips, seed, k, first, paths[first : first + run],
                    slots[k::n_classes], t, rate_hz,
                ))
        for job in jobs:
            job.result()
    finally:
        pool.shutdown(cancel_futures=True)
    records.sort(key=lambda r: (r.class_label, r.source_path, r.segment_index))
    return Manifest(records=tuple(records))
