"""Little-endian primitives shared by the binary artifact formats."""

from __future__ import annotations

import os
import struct
import sys
from typing import BinaryIO

import numpy as np

from .errors import DataError


def read_exact(f: BinaryIO, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise DataError(f"truncated file: wanted {n} bytes, got {len(data)}")
    return data


def expect_magic(f: BinaryIO, magic: bytes, path) -> None:
    got = f.read(len(magic))
    if got != magic:
        raise DataError(f"{path}: bad magic {got!r}, expected {magic!r}")


def check_fits(f: BinaryIO, count: int, item_bytes: int, path) -> None:
    """Raise DataError unless ``count`` items of at least ``item_bytes`` bytes
    each fit in the rest of the file, and one item fits in an array. Loaders
    call this with the sizes a header declares, before allocating them."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count * item_bytes > left or item_bytes > sys.maxsize:
        raise DataError(
            f"{path}: header declares {count} x {item_bytes} bytes, "
            f"but only {left} bytes follow"
        )


def write_u32(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<I", value))


def read_u32(f: BinaryIO) -> int:
    return struct.unpack("<I", read_exact(f, 4))[0]


def write_u64(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<Q", value))


def read_u64(f: BinaryIO) -> int:
    return struct.unpack("<Q", read_exact(f, 8))[0]


def write_f64(f: BinaryIO, value: float) -> None:
    f.write(struct.pack("<d", value))


def read_f64(f: BinaryIO) -> float:
    return struct.unpack("<d", read_exact(f, 8))[0]


def write_str(f: BinaryIO, s: str) -> None:
    data = s.encode("utf-8")
    write_u32(f, len(data))
    f.write(data)


def read_str(f: BinaryIO) -> str:
    n = read_u32(f)
    return read_exact(f, n).decode("utf-8")


def write_f32_array(f: BinaryIO, a: np.ndarray) -> None:
    f.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def read_f32_array(f: BinaryIO, count: int) -> np.ndarray:
    return np.frombuffer(read_exact(f, 4 * count), dtype="<f4").copy()
