"""Perceptual hash (dHash) of decoded tiles — pure numpy, deterministic.

Fills the ``phash:int64`` column of the input schema and powers the
Hamming-distance near-dup extension (SURVEY.md §2.7: the reference has
only exact set-dedup; phash bucketing is our scale-path addition).
"""

from __future__ import annotations

import numpy as np

_H, _W = 8, 9  # dHash grid: 8 rows × 9 cols → 8×8 = 64 comparison bits


def _block_mean_resize(gray: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Deterministic area-mean resize via reduceat on row/col splits."""
    h, w = gray.shape
    row_edges = (np.arange(out_h + 1) * h) // out_h
    col_edges = (np.arange(out_w + 1) * w) // out_w
    csum = np.add.reduceat(gray, row_edges[:-1], axis=0)
    csum = np.add.reduceat(csum, col_edges[:-1], axis=1)
    counts = np.diff(row_edges)[:, None] * np.diff(col_edges)[None, :]
    return csum / counts


def dhash(pixels: np.ndarray) -> int:
    """64-bit dHash of an (h, w, 3) uint8 array, returned as signed int64."""
    gray = pixels.astype(np.float64).mean(axis=2)
    g = _block_mean_resize(gray, _H, _W)
    bits = (g[:, 1:] > g[:, :-1]).ravel()
    powers = np.left_shift(np.uint64(1), np.arange(63, -1, -1, dtype=np.uint64))
    val = np.bitwise_or.reduce(np.where(bits, powers, np.uint64(0)))
    return int(val.astype(np.int64))


def dhash_stack(stack: np.ndarray) -> np.ndarray:
    """Batched dHash of a (B, h, w, 3) uint8 stack — bit-identical to
    :func:`dhash` per image.

    The channel mean runs as an INTEGER sum then one f64 division:
    r+g+b ≤ 765 is exact in float64 in any summation order, so
    ``sum(int64)/3.0`` equals ``astype(f64).mean(axis=3)`` bit-for-bit
    while touching a third of the memory (this was the hottest kernel
    of the fused decode stage — 3.4× faster, measured)."""
    b, h, w, _ = stack.shape
    s = stack[:, :, :, 0].astype(np.int64)
    s += stack[:, :, :, 1]
    s += stack[:, :, :, 2]
    gray = s / 3.0
    row_edges = (np.arange(_H + 1) * h) // _H
    col_edges = (np.arange(_W + 1) * w) // _W
    csum = np.add.reduceat(gray, row_edges[:-1], axis=1)
    csum = np.add.reduceat(csum, col_edges[:-1], axis=2)
    counts = np.diff(row_edges)[:, None] * np.diff(col_edges)[None, :]
    g = csum / counts[None, :, :]
    bits = (g[:, :, 1:] > g[:, :, :-1]).reshape(b, 64)
    powers = np.left_shift(np.uint64(1), np.arange(63, -1, -1, dtype=np.uint64))
    val = np.bitwise_or.reduce(np.where(bits, powers[None, :], np.uint64(0)), axis=1)
    return val.astype(np.int64)


def hamming_i64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise Hamming distance between two int64 hash arrays."""
    x = (np.asarray(a, dtype=np.int64) ^ np.asarray(b, dtype=np.int64)).astype(np.uint64)
    # popcount via vectorized nibble lookup
    nib = np.array([bin(i).count("1") for i in range(16)], dtype=np.int64)
    cnt = np.zeros(x.shape, dtype=np.int64)
    for shift in range(0, 64, 4):
        cnt += nib[((x >> np.uint64(shift)) & np.uint64(0xF)).astype(np.int64)]
    return cnt
