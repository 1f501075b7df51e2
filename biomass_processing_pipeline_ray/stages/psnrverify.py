"""Decode-verify phash near-dup candidate pairs with exact integer MSE.

The north rule's per-row invariant (BASELINE.json input_hint: decoded
pixels allclose, PSNR >= 40 dB for lossy formats) promoted to a
first-class operator: every candidate pair from the banded-Hamming
phash exchange is verified against the actual decoded pixel content.
The MSE numerator is an EXACT integer (sum of squared uint8 channel
differences), and the "PSNR >= 40 dB" predicate is evaluated in pure
integer arithmetic::

    PSNR >= 40  <=>  10 * log10(255^2 / mse) >= 40
                <=>  mse <= 255^2 / 10^4
                <=>  mse_num * 10^4 <= 65025 * n_px

so no libm ``log10`` ever enters the comparison surface and the DuckDB
oracle compares the same integers (hash-exact, not approximate).

Scale shape (the 100 TB story): the pair set is the banded-Hamming
output — duplicate CANDIDATES, a small fraction of the corpus.  Its
``image_id -> (pair, side)`` membership ships ONCE with the map
function, as sorted numpy arrays; candidate tiles are decoded inside
the same filtered ``map_batches`` pass that read them (non-candidate
payload bytes never leave the read task, and candidate pixels enter
exactly ONE exchange, keyed by pair bucket, where the per-pair integer
MSE is computed).
Rows in flight are bounded by 2 x pairs, never by the corpus.  If the
pair set ever outgrew the driver (pathological corpus-wide
duplication), the identical computation decomposes into the two-hop
co-partitioned exchange used by the MinHash verify in
``stages/dedup.py`` (bucket pairs by hash(a) to attach a's pixels,
re-bucket by hash(b) to attach b's); nothing below the map
construction depends on driver materialization.

Reference analogue: the download-and-verify loop of the reference's
blob manager (/root/reference/src/core/blob_manager_v3.py) checks tile
content after transfer; here the verification is pixel-level PSNR per
the BASELINE.json bound.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa

from .zonal import unreserved

_OUT_SCHEMA = pa.schema(
    [
        ("a", pa.string()),
        ("b", pa.string()),
        ("hamming", pa.int64()),
        ("n_px", pa.int64()),
        ("mse_num", pa.int64()),
        ("dup40", pa.int64()),
    ]
)

_MAX_PSNR_SQERR = 65025  # 255^2: PSNR >= 40dB <=> mse_num * 1e4 <= 65025 * n_px


def _decode_candidates(
    batch: pa.Table,
    memb_ids: np.ndarray,
    memb_pair: np.ndarray,
    memb_side: np.ndarray,
    n_buckets: int,
) -> pa.Table:
    """Ray task: decode ONLY pair-member tiles, emit one row per (pair,
    side) membership keyed by pair bucket.  Membership is three parallel
    numpy arrays sorted by image id (zero-copy from the object store), so
    a task binary-searches it instead of rebuilding a lookup table."""
    from ..image import codecs

    ids = batch["image_id"].to_pylist()
    keys = np.asarray(ids, dtype=memb_ids.dtype)
    lo = np.searchsorted(memb_ids, keys, side="left")
    hi = np.searchsorted(memb_ids, keys, side="right")
    hits = np.flatnonzero(hi > lo)
    pidx: list[int] = []
    side: list[int] = []
    ws: list[int] = []
    hs: list[int] = []
    px: list[bytes] = []
    if len(hits):
        bufs = batch["bytes"].to_pylist()
        w_arr = batch["w"].to_numpy()
        h_arr = batch["h"].to_numpy()
        fmts = batch["fmt"].to_pylist()
        for j in hits:
            w, h = int(w_arr[j]), int(h_arr[j])
            dec = codecs.decode(bufs[j], fmts[j], h, w)
            blob = dec.tobytes()
            for m in range(lo[j], hi[j]):
                pidx.append(int(memb_pair[m]))
                side.append(int(memb_side[m]))
                ws.append(w)
                hs.append(h)
                px.append(blob)
    return pa.table(
        {
            "pair_idx": pa.array(pidx, pa.int64()),
            "side": pa.array(side, pa.int64()),
            "w": pa.array(ws, pa.int64()),
            "h": pa.array(hs, pa.int64()),
            "px": pa.array(px, pa.binary()),
            "bucket": pa.array([p % n_buckets for p in pidx], pa.int64()),
        }
    )


def _bucket_mse(g: pd.DataFrame, meta_ref) -> pa.Table:
    """Per-bucket exact integer MSE for every pair in the bucket."""
    import ray

    a_ids, b_ids, hams = ray.get(meta_ref)
    out_a: list[str] = []
    out_b: list[str] = []
    out_h: list[int] = []
    out_n: list[int] = []
    out_m: list[int] = []
    out_d: list[int] = []
    for p, rows in g.groupby("pair_idx", sort=True):
        s0 = rows[rows["side"] == 0]
        s1 = rows[rows["side"] == 1]
        if len(s0) != 1 or len(s1) != 1:  # membership map guarantees 1+1
            continue
        r0, r1 = s0.iloc[0], s1.iloc[0]
        out_a.append(a_ids[p])
        out_b.append(b_ids[p])
        out_h.append(int(hams[p]))
        if (r0["w"], r0["h"]) != (r1["w"], r1["h"]):
            # PSNR is undefined across shapes; banding only guarantees
            # a 16-bit hash band match, not equal dims
            out_n.append(0)
            out_m.append(0)
            out_d.append(0)
            continue
        pa_px = np.frombuffer(r0["px"], dtype=np.uint8).astype(np.int64)
        pb_px = np.frombuffer(r1["px"], dtype=np.uint8).astype(np.int64)
        d = pa_px - pb_px
        mse_num = int(np.dot(d, d))
        n_px = int(pa_px.size)
        out_n.append(n_px)
        out_m.append(mse_num)
        out_d.append(1 if mse_num * 10_000 <= _MAX_PSNR_SQERR * n_px else 0)
    return pa.table(
        {
            "a": pa.array(out_a, pa.string()),
            "b": pa.array(out_b, pa.string()),
            "hamming": pa.array(out_h, pa.int64()),
            "n_px": pa.array(out_n, pa.int64()),
            "mse_num": pa.array(out_m, pa.int64()),
            "dup40": pa.array(out_d, pa.int64()),
        }
    )


def psnr_verify_pairs(tiles_ds, pairs_ds, n_buckets: int = 64):
    """Verify (a, b, hamming) candidate pairs against decoded pixels.

    Returns a Dataset of ``(a, b, hamming, n_px, mse_num, dup40)`` —
    ``dup40`` is the integer-exact "PSNR >= 40 dB" predicate (1 also
    for bit-identical pixels, where PSNR is +inf); pairs with unequal
    dims get ``n_px = mse_num = dup40 = 0``.
    """
    import ray
    import ray.data as rd

    pairs = pairs_ds.to_pandas()  # bounded: dup candidates only
    if len(pairs) == 0:
        return rd.from_arrow(_OUT_SCHEMA.empty_table())
    pairs = pairs.sort_values(["a", "b"]).reset_index(drop=True)
    a_ids = pairs["a"].to_numpy()
    b_ids = pairs["b"].to_numpy()
    hams = pairs["hamming"].to_numpy(np.int64)
    # membership image_id -> (pair, side), one entry per pair side,
    # sorted by (image_id, pair, side)
    n = len(pairs)
    memb_ids = np.concatenate([a_ids, b_ids]).astype(str)
    memb_pair = np.tile(np.arange(n, dtype=np.int64), 2)
    memb_side = np.repeat(np.array([0, 1], np.int64), n)
    order = np.lexsort((memb_side, memb_pair, memb_ids))
    meta_ref = ray.put((a_ids, b_ids, hams))

    # the decode stage feeds the pair-bucket shuffle
    routed = unreserved(tiles_ds).map_batches(
        _decode_candidates,
        fn_kwargs={
            "memb_ids": memb_ids[order],
            "memb_pair": memb_pair[order],
            "memb_side": memb_side[order],
            "n_buckets": n_buckets,
        },
        batch_format="pyarrow",
    )
    return routed.groupby("bucket").map_groups(
        partial(_bucket_mse, meta_ref=meta_ref), batch_format="pandas"
    )
