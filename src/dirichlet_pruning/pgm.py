"""Binary (P5) PGM image export for feature-map inspection."""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def to_u8(values: np.ndarray) -> np.ndarray:
    """Min-max normalize a float map to u8; a constant map pins to 0."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return np.zeros(values.shape, dtype=np.uint8)
    return np.round((values - lo) / (hi - lo) * 255.0).astype(np.uint8)


def write_pgm(path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.dtype != np.uint8:
        raise ContractError(f"need a 2-d u8 array, got {pixels.dtype} {pixels.shape}")
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())

