"""Binary (P5) PGM image export for feature-map inspection."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError


def to_u8(values: np.ndarray) -> np.ndarray:
    """Min-max normalize a float map to u8; a constant map pins to 0. A map
    holding a NaN or an infinity has no such scale and raises NumericError."""
    values = np.asarray(values, dtype=np.float64)
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise NumericError(f"the map holds {bad} non-finite values of {values.size}")
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

