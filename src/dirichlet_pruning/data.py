"""MNIST IDX ingestion and minibatch plumbing.

IDX is the classic big-endian format: 4-byte magic (0x00000803 for u8 image
tensors, 0x00000801 for u8 label vectors), one 4-byte big-endian size per
dimension, then raw bytes. Gzipped files are accepted transparently.
"""

from __future__ import annotations

import gzip
import os
import struct

import numpy as np

from .errors import FormatError

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801


def _read_bytes(path) -> bytearray:
    """The file's bytes, gunzipped if it is gzipped, in one writable buffer,
    so the array parsed from it is a writable view and the data is held once."""
    with open(path, "rb") as f:
        size, gzipped = os.fstat(f.fileno()).st_size, f.read(2) == b"\x1f\x8b"
        if gzipped:  # a gzip file ends with its data's size mod 2**32 (RFC 1952)
            f.seek(max(0, size - 4))
            size = int.from_bytes(f.read(4), "little")
    raw, filled = bytearray(size), 0
    with (gzip.open if gzipped else open)(path, "rb") as f:
        with memoryview(raw) as view:  # in 64 KiB pieces: gzip copies no more
            while n := f.readinto(view[filled:filled + 2 ** 16]):
                filled += n
        del raw[filled:]
        raw += f.read()  # the rest of a file bigger than its size said
    return raw


def _parse_idx(raw: bytearray, magic: int, ndim: int, what: str) -> np.ndarray:
    if len(raw) < 4:
        raise FormatError(f"{what}: truncated at byte {len(raw)}, magic missing")
    (got,) = struct.unpack(">I", raw[:4])
    if got != magic:
        raise FormatError(f"{what}: bad magic 0x{got:08x} at byte 0, "
                          f"expected 0x{magic:08x}")
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise FormatError(f"{what}: truncated at byte {len(raw)}, "
                          f"dimension header runs to {header_end}")
    dims = struct.unpack(f">{ndim}I", raw[4:header_end])
    count = int(np.prod(dims))
    if len(raw) != header_end + count:
        raise FormatError(f"{what}: expected {count} data bytes after byte "
                          f"{header_end}, file has {len(raw) - header_end}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header_end).reshape(dims)


def load_mnist_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) with x the uint8 (N, 1, H, W) pixels the file stores, a
    writable view of the one buffer the file is read into, and y int64 (N,).

    A pixel stays one byte for the whole run (1/8 of float64); only a batch
    entering the graph is scaled to [0, 1], by ``models.forward``."""
    images = _parse_idx(_read_bytes(images_path), _IMAGE_MAGIC, 3, f"{images_path}")
    labels = _parse_idx(_read_bytes(labels_path), _LABEL_MAGIC, 1, f"{labels_path}")
    if images.shape[0] != labels.shape[0]:
        raise FormatError(f"{images_path}: {images.shape[0]} images but "
                          f"{labels.shape[0]} labels")
    return images[:, None], labels.astype(np.int64)


def train_val_split(x, y, val_fraction: float, rng) -> tuple:
    """(x_train, y_train, x_val, y_val): a shuffled split, validation gets
    the first round(val_fraction * N) shuffled rows.

    Shuffles x and y in place and returns views of them, so every row is
    held once. A non-C-contiguous x is copied once first; y is shuffled
    where it lies. The rows, the labels and every later draw of ``rng`` are
    those of the fancy-index split ``x[rng.permutation(N)]``:
    ``rng.shuffle`` on one item per row makes the same swaps as the
    permutation, and y replays them from the same generator state.
    """
    n = x.shape[0]
    n_val = int(round(val_fraction * n))
    x = np.ascontiguousarray(x)  # so the row view below is x, not a copy
    state = rng.bit_generator.state
    if x.size:  # rows of zero width have nothing to move
        # one void item per row, so shuffle takes its 1-d path, which swaps
        # whole rows in C; its n-d path loops over rows in Python
        rows = x.reshape(n, -1)
        rng.shuffle(rows.view(np.dtype((np.void, rows.shape[1] * x.itemsize)))[:, 0])
        rng.bit_generator.state = state
    rng.shuffle(y)
    return x[n_val:], y[n_val:], x[:n_val], y[:n_val]
