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


def build_manifest(root_dir) -> Manifest:
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
                samples = wav.read_wav_mono(path, DEFAULT_RATE_HZ)
            except DataError as exc:
                logger.warning("skipping %s: %s", path, exc)
                continue
            n_segments = wav.segment_count(len(samples), DEFAULT_RATE_HZ)
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


# The table sum and the per-sample sine differ by under 6e-8 of an int16 step:
# half an ulp of a sine argument below 2**16, times six notes, 0.35 * sqrt(2),
# the largest gain and 32767. So only a level this close to a rounding tie
# can round differently; a clip with one is made the per-sample way.
_TIE_BAND = 2.5e-7


def _levels(bed: np.ndarray, chord: np.ndarray, gain: float) -> np.ndarray:
    """A clip's samples in int16 steps, before rounding."""
    mix = bed + 0.35 * chord
    mix *= gain
    return np.clip(mix, -1.0, 1.0) * 32767.0


def _write_clips(seed: int, k: int, first: int, paths: list[str], notes: np.ndarray,
                 t: np.ndarray) -> None:
    """Write clips ``first``, ``first + 1``, ... of class ``k`` to ``paths``;
    one pool job.

    The chord of a clip is ``sqrt(2) * sin(2 pi f t + phase)`` summed over the
    class's notes ``f``. By angle addition that is ``sin(2 pi f t) * sqrt(2)
    cos(phase) + cos(2 pi f t) * sqrt(2) sin(phase)``, so the job takes the
    sine and cosine of ``2 pi f t`` once, as one 12-row table, and a clip's
    chord is its 12 coefficients summed against that table (``einsum``, which
    uses no BLAS, so the sum does not depend on a thread count). The samples
    differ from the per-sample sine's only far below an int16 step; a clip
    with a level within ``_TIE_BAND`` of a rounding tie is made with the
    per-sample sine, so every clip's bytes are the per-sample formula's.
    """
    ramp = 2.0 * np.pi * notes[:, None] * t
    table = np.concatenate([np.sin(ramp), np.cos(ramp)])
    for i, path in enumerate(paths, first):
        rng = np.random.default_rng([seed, k, i])
        bed = rng.standard_normal(len(t))
        bed /= _rms(bed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=notes.shape)
        gain = 0.05 * 10.0 ** (rng.uniform(-9.0, 9.0) / 20.0)
        coef = np.sqrt(2.0) * np.concatenate([np.cos(phases), np.sin(phases)])
        levels = _levels(bed, np.einsum("j,jt->t", coef, table), gain)
        if np.any(np.abs(levels - np.floor(levels) - 0.5) < _TIE_BAND):
            chord = np.sum(np.sqrt(2.0) * np.sin(ramp + phases[:, None]), axis=0)
            levels = _levels(bed, chord, gain)
        try:
            # 16-bit PCM mono, the bytes scipy.io.wavfile.write gives
            with binio.atomic_write(path) as f, wave.open(f, "wb") as out:
                out.setnchannels(1)
                out.setsampwidth(2)
                out.setframerate(DEFAULT_RATE_HZ)
                out.writeframes(levels.round().astype("<i2").tobytes())
        except OSError as exc:
            raise DataError(f"{path}: cannot write WAV ({exc})") from exc


def generate_synthetic(n_classes: int, clips_per_class: int, seed: int, out_dir) -> Manifest:
    """Write a deterministic synthetic corpus of 2 s WAV files at
    DEFAULT_RATE_HZ.

    Every clip is a fresh white-noise bed scaled by a large random per-clip
    gain (within +/-9 dB), so raw levels and spectra look alike across
    classes. Class identity is a fixed six-note chord mixed under the bed:
    the available log-spaced tone slots are dealt round-robin, so class k
    owns slots k, k+n, k+2n and so on. The chord's spectral footprint is
    deterministic while the bed and gain vary, which keeps the corpus
    separable but makes naive distance-in-feature-space comparisons noisy.

    The clips are written by a pool of one thread per CPU this process may
    run on, in runs of consecutive clips of one class: a whole class while
    every thread can have as many, and each class left over cut into about
    one run per thread. A run takes the sine and cosine of its class's notes
    once, and each clip's chord is a sum of that table's rows
    (``_write_clips``); the WAV bytes are those of a sine taken at every
    sample. Each clip draws from its own generator, seeded
    ``[seed, k, i]``, so the files do not depend on the number of threads.
    Every thread has ended when this returns or raises; after a failed clip
    the runs not yet started are dropped.
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
    t = np.arange(DEFAULT_RATE_HZ * wav.CLIP_SECONDS) / DEFAULT_RATE_HZ
    workers = _usable_cpus()
    # the first classes go whole, one run each, so that each of their tables
    # is made once, as many to every thread; the classes left over are cut
    # into about one run per thread
    whole = n_classes - n_classes % workers
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
            run = clips_per_class if k < whole else -(-clips_per_class // workers)
            for first in range(0, clips_per_class, run):
                jobs.append(pool.submit(_write_clips, seed, k, first, paths[first : first + run],
                                        slots[k::n_classes], t))
        for job in jobs:
            job.result()
    finally:
        pool.shutdown(cancel_futures=True)
    records.sort(key=lambda r: (r.class_label, r.source_path, r.segment_index))
    return Manifest(records=tuple(records))
