"""County raster MOSAIC: per-pixel max over overlapping tiles → zonal
stats on the deduplicated pixel surface.

The reference merges multiple Sentinel-2 scenes covering one county
before analysis (bulk tile fetch + per-county cache,
``src/core/blob_manager_v3.py:458-547``; overlapping-scene handling in
the tile-index date pick, ``:408-435``) — the classic mosaicking step
every raster pipeline needs when input scenes overlap.  Our tiles
genuinely overlap: footprints span ~4–8 lon lattice steps while tile
centers sit on the 4096² lattice, so at 60k tiles 27.5k overlapping
pairs share 22.9M pixels (16 % of all pixels), and summing per-tile
stats (the headline zonal) double-counts them.  The mosaic resolves
each ABSOLUTE pixel to the max value across covering tiles (max =
cloud-free composite rule), then aggregates per county.

Exact integer pixel grid: PIX_DEG = 2^-13 divides both georef lattice
steps (LON_STEP = 8·PIX_DEG, LAT_STEP = 11·PIX_DEG), so every tile's
pixel CENTERS land on one shared absolute integer grid:

    ix = 8·kx + 4 − w/2 + c          (c = 0..w−1, west→east)
    iy = 11·ky + 5 + h/2 − r          (r = 0..h−1, north row 0)

with (kx, ky) the georef lattice cell of the tile id.  Both engine and
oracle derive (ix, iy) in pure int64 arithmetic — no float compare
anywhere in the dedup.  County of a pixel is integer too: COUNTY_W =
4096·PIX_DEG and COUNTY_H = 5632·PIX_DEG exactly, so cx = ix // 4096,
cy = iy // 5632.  Pixels OUTSIDE the 8×8 county domain ([0, 32768) ×
[0, 45056)) are excluded (the mosaic covers the domain — unlike the
centroid-clamped tile assignment, a pixel rule must pick a side and
clamping would smear edge tiles into border counties).

Scale shape (owner-computes spatial bucketing, decode-before-shuffle):

1. ``decode_slices`` (stateless ``map_batches``, fused with the read):
   decode each tile ONCE, and for every 2048×2048-pixel bucket its
   footprint intersects emit only the bucket-OWNED sub-rectangle as
   two uint8 blobs (red, nir channels — the minimal exact inputs of
   the value kernel).  Slices are DISJOINT, so nothing is shipped or
   decoded twice; the encoded payload, ids and metadata never enter
   the shuffle at all.  Measured at the 3M-tile ladder this cuts the
   exchange from 20.2 GB of re-sorted payload (165 s in Ray's sort)
   to ~13 GB of channel slices and removes the straddler re-decode.
2. Per-bucket ``map_groups``: v = (nir − red)/(nir + red + 1)
   (bit-identical to ``stages/decode.py``) per slice, scatter-max into
   the bucket's OWN canvas — owner-computes, the same discipline as
   the DBSCAN ghost cells.  Canvas is 2048² float64 = 32 MB, dies in
   the task.
3. Bucket partials (≤ |buckets| × 64 narrow rows) → county rollup via
   lattice-snapped order-free sums.

The ONE spatial exchange is the irreducible cost of mosaicking a
spatially-unordered table; over the geoindex-partitioned store
(partitions already spatial) it disappears entirely.

Value snap: ``snap_binary`` AFTER the max — floor-snap is monotonic, so
snap(max(a, b)) == max(snap(a), snap(b)) and the oracle (global
groupby-max, structurally independent of the bucketing) lands on the
identical county sums.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import georef as G
from ..functions.rounding import round_away, snap_binary
from ..image import codecs
from ..sources.tiles import image_ids_to_int

BUCKET_PX = 2048
DOMAIN_X = G.GRID * 8  # 32768 = COUNTY_NX * 4096 px
DOMAIN_Y = G.GRID * 11  # 45056 = COUNTY_NY * 5632 px
NBX = DOMAIN_X // BUCKET_PX  # 16
NBY = DOMAIN_Y // BUCKET_PX  # 22
CNTY_PX_X = 4096  # COUNTY_W / PIX_DEG
CNTY_PX_Y = 5632  # COUNTY_H / PIX_DEG


def tile_pixel_extent(ids: np.ndarray, ws: np.ndarray, hs: np.ndarray):
    """Absolute integer pixel extent [ix0, ix1] × [iy0, iy1] (inclusive)
    of each tile's pixel-CENTER grid; pure int64 arithmetic."""
    key = G.derive_key(ids)
    kx = (key % G.GRID).astype(np.int64)
    ky = ((key // G.GRID) % G.GRID).astype(np.int64)
    w = ws.astype(np.int64)
    h = hs.astype(np.int64)
    ix0 = 8 * kx + 4 - w // 2
    ix1 = ix0 + w - 1
    iy1 = 11 * ky + 5 + h // 2
    iy0 = iy1 - (h - 1)
    return ix0, ix1, iy0, iy1


def decode_slices(batch: pa.Table) -> pa.Table:
    """map_batches body: decode once, emit one (bucket, abs-origin,
    shape, red-blob, nir-blob) row per bucket-owned sub-rectangle.

    Tiles span ≤ 64 px per axis vs 2048-px buckets, so ≤ 2 buckets per
    axis; slices are disjoint (each pixel goes to exactly its owner
    bucket) and out-of-domain pixels are dropped here."""
    ids = image_ids_to_int(batch["image_id"])
    ws = batch["w"].to_numpy()
    hs = batch["h"].to_numpy()
    ix0s, ix1s, iy0s, iy1s = tile_pixel_extent(ids, ws, hs)
    bufs = batch["bytes"].to_pylist()
    fmts = batch["fmt"].to_pylist()
    o_bucket: list[int] = []
    o_ax: list[int] = []  # abs ix of slice col 0
    o_ay: list[int] = []  # abs iy of slice row 0 (northmost)
    o_w: list[int] = []
    o_h: list[int] = []
    o_red: list[bytes] = []
    o_nir: list[bytes] = []
    for k in range(len(ids)):
        w, h = int(ws[k]), int(hs[k])
        ix0, ix1 = int(ix0s[k]), int(ix1s[k])
        iy0, iy1 = int(iy0s[k]), int(iy1s[k])
        if ix1 < 0 or ix0 >= DOMAIN_X or iy1 < 0 or iy0 >= DOMAIN_Y:
            continue
        px = codecs.decode(bufs[k], fmts[k], h, w)
        red = np.ascontiguousarray(px[:, :, 0])
        nir = np.ascontiguousarray(px[:, :, 2])
        bx_lo = max(ix0, 0) // BUCKET_PX
        bx_hi = min(ix1, DOMAIN_X - 1) // BUCKET_PX
        byr_lo = max(iy0, 0) // BUCKET_PX
        byr_hi = min(iy1, DOMAIN_Y - 1) // BUCKET_PX
        for by in range(byr_lo, byr_hi + 1):
            # rows r with iy = iy1 - r inside [by*B, (by+1)*B) ∩ [0, DY)
            y_hi = min((by + 1) * BUCKET_PX - 1, iy1, DOMAIN_Y - 1)
            y_lo = max(by * BUCKET_PX, iy0, 0)
            r0 = iy1 - y_hi  # northmost row of the slice
            r1 = iy1 - y_lo  # southmost row (inclusive)
            for bx in range(bx_lo, bx_hi + 1):
                x_lo = max(bx * BUCKET_PX, ix0, 0)
                x_hi = min((bx + 1) * BUCKET_PX - 1, ix1, DOMAIN_X - 1)
                c0 = x_lo - ix0
                c1 = x_hi - ix0  # inclusive
                o_bucket.append(by * NBX + bx)
                o_ax.append(x_lo)
                o_ay.append(y_hi)
                o_w.append(c1 - c0 + 1)
                o_h.append(r1 - r0 + 1)
                o_red.append(red[r0 : r1 + 1, c0 : c1 + 1].tobytes())
                o_nir.append(nir[r0 : r1 + 1, c0 : c1 + 1].tobytes())
    return pa.table(
        {
            "bucket": pa.array(o_bucket, pa.int64()),
            "ax": pa.array(o_ax, pa.int32()),
            "ay": pa.array(o_ay, pa.int32()),
            "sw": pa.array(o_w, pa.int32()),
            "sh": pa.array(o_h, pa.int32()),
            "red": pa.array(o_red, pa.binary()),
            "nir": pa.array(o_nir, pa.binary()),
        }
    )


def mosaic_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """map_groups body: scatter-max the bucket's slices into a canvas
    CROPPED to the slices' bounding box (identical result; cost and
    memory ∝ occupied area, so sparse buckets — tiny inputs, domain
    fringes — don't pay the full 2048² fixed cost), reduce to
    per-county partials."""
    axs = df["ax"].to_numpy().astype(np.int64)
    ays = df["ay"].to_numpy().astype(np.int64)
    sws = df["sw"].to_numpy().astype(np.int64)
    shs = df["sh"].to_numpy().astype(np.int64)
    cx0 = int(axs.min())
    cx1 = int((axs + sws - 1).max())
    cy1 = int(ays.max())  # northmost iy
    cy0 = int((ays - shs + 1).min())  # southmost iy
    W = cx1 - cx0 + 1
    H = cy1 - cy0 + 1
    canvas = np.full((H, W), -np.inf, dtype=np.float64)
    reds = df["red"].tolist()
    nirs = df["nir"].tolist()
    for k in range(len(df)):
        sw, sh = int(sws[k]), int(shs[k])
        red = np.frombuffer(reds[k], np.uint8).reshape(sh, sw)
        nir = np.frombuffer(nirs[k], np.uint8).reshape(sh, sw)
        v = (nir.astype(np.float64) - red) / (
            nir.astype(np.float64) + red + 1.0
        )
        # slices are contiguous RECTANGLES on the canvas — a plain 2-D
        # region max, not a scatter (np.maximum.at was the stage's CPU
        # hog: ~10 M px/s unbuffered vs memory-speed region ops)
        r0 = cy1 - int(ays[k])  # slice row 0 (north edge) in canvas rows
        c0 = int(axs[k]) - cx0
        reg = canvas[r0 : r0 + sh, c0 : c0 + sw]
        np.maximum(reg, v, out=reg)
    canvas = canvas.ravel()
    idx = np.flatnonzero(canvas > -np.inf)
    if len(idx) == 0:
        return pd.DataFrame(
            {"county_fips": pd.Series([], dtype=str),
             "n_px": pd.Series([], dtype=np.int64),
             "val_sum": pd.Series([], dtype=np.float64)}
        )
    iy = cy1 - idx // W
    ix = cx0 + idx % W
    code = G.FIPS_BASE + (iy // CNTY_PX_Y) * G.COUNTY_NX + ix // CNTY_PX_X
    vals = snap_binary(canvas[idx])
    g = pd.DataFrame({"c": code, "v": vals}).groupby("c", sort=True)
    agg = g.agg(n_px=("v", "size"), val_sum=("v", "sum")).reset_index()
    return pd.DataFrame(
        {
            "county_fips": agg["c"].astype(np.int64).astype(str).str.zfill(5),
            "n_px": agg["n_px"].to_numpy(np.int64),
            "val_sum": agg["val_sum"].to_numpy(np.float64),
        }
    )


def _push_shuffled_buckets(ds, bucket_fn):
    """decode → slice → per-bucket canvas pass over ``ds``, with the
    bucket exchange on the push-based shuffle.

    Ray runs a plan with the DataContext captured at the ROOT dataset's
    creation (scoping only the groupby construction does not reach the
    sort — measured: the root-scoped form runs the 3M-tile exchange in
    86–99 s vs 182–187 s pull-based / groupby-scoped; sf0.1 unchanged
    ±10 %), so the flag goes on ``ds.context``: the per-dataset copy
    every derived dataset shares.  The process-global context is left
    untouched.  Push-based pipelines map-side merge with reduce — also
    the multi-node-correct choice for the one large exchange here."""
    ds.context.use_push_based_shuffle = True
    return (
        ds.map_batches(decode_slices, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_fn, batch_format="pandas")
    )


def mosaic_zonal(ds):
    """tiles Dataset → 64-row (county_fips, n_px, mosaic_sum)."""
    from .zonal import bucketed_agg

    parts = _push_shuffled_buckets(ds, mosaic_bucket)
    out = bucketed_agg(
        parts,
        ["county_fips"],
        {"n_px": ("n_px", "sum"), "val_sum": ("val_sum", "sum")},
        nb=16,
    )

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "county_fips": b["county_fips"],
                "n_px": pa.array(
                    b["n_px"].to_numpy().astype(np.int64), pa.int64()
                ),
                "mosaic_sum": pa.array(
                    round_away(b["val_sum"].to_numpy(), 6), pa.float64()
                ),
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


def slice_extents(batch: pa.Table) -> pa.Table:
    """Narrow twin of :func:`decode_slices`: bucket-owned sub-rectangle
    EXTENTS only — no decode, no payload (coverage depth needs counts,
    not values), so the exchange is ~40 bytes per slice."""
    ids = image_ids_to_int(batch["image_id"])
    ws = batch["w"].to_numpy()
    hs = batch["h"].to_numpy()
    ix0s, ix1s, iy0s, iy1s = tile_pixel_extent(ids, ws, hs)
    o_bucket: list[int] = []
    o_ax: list[int] = []
    o_ay: list[int] = []
    o_w: list[int] = []
    o_h: list[int] = []
    for k in range(len(ids)):
        ix0, ix1 = int(ix0s[k]), int(ix1s[k])
        iy0, iy1 = int(iy0s[k]), int(iy1s[k])
        if ix1 < 0 or ix0 >= DOMAIN_X or iy1 < 0 or iy0 >= DOMAIN_Y:
            continue
        bx_lo = max(ix0, 0) // BUCKET_PX
        bx_hi = min(ix1, DOMAIN_X - 1) // BUCKET_PX
        by_lo = max(iy0, 0) // BUCKET_PX
        by_hi = min(iy1, DOMAIN_Y - 1) // BUCKET_PX
        for by in range(by_lo, by_hi + 1):
            y_hi = min((by + 1) * BUCKET_PX - 1, iy1, DOMAIN_Y - 1)
            y_lo = max(by * BUCKET_PX, iy0, 0)
            for bx in range(bx_lo, bx_hi + 1):
                x_lo = max(bx * BUCKET_PX, ix0, 0)
                x_hi = min((bx + 1) * BUCKET_PX - 1, ix1, DOMAIN_X - 1)
                o_bucket.append(by * NBX + bx)
                o_ax.append(x_lo)
                o_ay.append(y_hi)
                o_w.append(x_hi - x_lo + 1)
                o_h.append(y_hi - y_lo + 1)
    return pa.table(
        {
            "bucket": pa.array(o_bucket, pa.int64()),
            "ax": pa.array(o_ax, pa.int32()),
            "ay": pa.array(o_ay, pa.int32()),
            "sw": pa.array(o_w, pa.int32()),
            "sh": pa.array(o_h, pa.int32()),
        }
    )


def depth_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """map_groups body: 2-D difference array over the bucket canvas
    CROPPED to the slices' bounding box (identical result; cost ∝
    occupied area) — O(1) per rectangle (4 corner increments) + one
    double cumsum — then per-county coverage-depth band counts
    (1 / 2 / ≥3 tiles)."""
    axs = df["ax"].to_numpy().astype(np.int64)
    ays = df["ay"].to_numpy().astype(np.int64)
    sw = df["sw"].to_numpy().astype(np.int64)
    sh = df["sh"].to_numpy().astype(np.int64)
    cx0 = int(axs.min())
    cy1 = int(ays.max())  # northmost iy (canvas row 0)
    cy0 = int((ays - sh + 1).min())
    W = int((axs + sw - 1).max()) - cx0 + 1
    H = cy1 - cy0 + 1
    diff = np.zeros((H + 1, W + 1), dtype=np.int32)
    c0 = axs - cx0
    r0 = cy1 - ays
    # rows grow southward in canvas space: slice row 0 is its NORTH
    # edge (ay); canvas row index = cy1 − iy
    np.add.at(diff, (r0, c0), 1)
    np.add.at(diff, (r0, c0 + sw), -1)
    np.add.at(diff, (r0 + sh, c0), -1)
    np.add.at(diff, (r0 + sh, c0 + sw), 1)
    cnt = diff.cumsum(axis=0).cumsum(axis=1)[:H, :W]
    # a 2048-px bucket sits inside exactly ONE county column (4096 =
    # 2 buckets) and crosses at most one county ROW boundary (5632 px)
    # — both facts survive cropping (bbox ⊆ bucket) — so the
    # per-county reduce is ≤ 2 contiguous row-slice bincounts:
    # no per-pixel key array, no pandas groupby over canvas pixels
    cx = cx0 // CNTY_PX_X
    segs: list[tuple[int, int, int]] = []  # (cy, r_start, r_stop_excl)
    cy_top = cy1 // CNTY_PX_Y
    cy_bot = cy0 // CNTY_PX_Y
    if cy_top == cy_bot:
        segs.append((cy_top, 0, H))
    else:
        split_iy = cy_top * CNTY_PX_Y  # lowest iy of the upper county
        r_split = cy1 - split_iy + 1
        segs.append((cy_top, 0, r_split))
        segs.append((cy_bot, r_split, H))
    out_c: list[str] = []
    out_b: list[np.ndarray] = []
    for cy, r0, r1 in segs:
        bc = np.bincount(
            np.minimum(cnt[r0:r1, :], 3).ravel(), minlength=4
        ).astype(np.int64)
        if bc[1:].sum() == 0:
            continue
        out_c.append(f"{G.FIPS_BASE + cy * G.COUNTY_NX + cx:05d}")
        out_b.append(bc[1:4])
    if not out_c:
        return pd.DataFrame(
            {"county_fips": pd.Series([], dtype=str),
             "d1": pd.Series([], dtype=np.int64),
             "d2": pd.Series([], dtype=np.int64),
             "d3p": pd.Series([], dtype=np.int64)}
        )
    bands = np.stack(out_b)
    return pd.DataFrame(
        {
            "county_fips": out_c,
            "d1": bands[:, 0],
            "d2": bands[:, 1],
            "d3p": bands[:, 2],
        }
    )


def overlap_depth(ds):
    """tiles Dataset → 64-row (county_fips, d1, d2, d3p) coverage-depth
    histogram: how much of each county's covered surface is seen by
    exactly 1 / 2 / ≥3 tiles — the mosaic's QA dashboard (depth-1 area
    has no redundancy; deep areas waste acquisition).  Same
    owner-computes buckets as the mosaic but the exchange is ~40 B
    slice extents (no decode, no payload) — arithmetic end-to-end.

    The extent rows COALESCE to 32 blocks before the bucket groupby:
    the table is tiny (~12 B/tile), but Ray's sort scales its barrier
    with input-block COUNT, and upstream produces one block per read
    task (measured at the 3M-tile ladder: 733 blocks → 55 s sort wall
    on 75 MB with ~9 s of remote time; 32 blocks → seconds)."""
    from .zonal import bucketed_agg

    parts = (
        ds.map_batches(slice_extents, batch_format="pyarrow")
        .repartition(32)
        .groupby("bucket")
        .map_groups(depth_bucket, batch_format="pandas")
    )
    out = bucketed_agg(
        parts,
        ["county_fips"],
        {"d1": ("d1", "sum"), "d2": ("d2", "sum"), "d3p": ("d3p", "sum")},
        nb=16,
    )

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "county_fips": b["county_fips"],
                "d1": pa.array(b["d1"].to_numpy().astype(np.int64)),
                "d2": pa.array(b["d2"].to_numpy().astype(np.int64)),
                "d3p": pa.array(b["d3p"].to_numpy().astype(np.int64)),
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


def mosaic_mean_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """map_groups body for the MEAN composite: region-add a snapped
    value canvas and a count canvas (both bbox-cropped), per-pixel
    mean = snap(Σ snap(v) / n) — the snapped-lattice sum is exact in
    any accumulation order and the division's operands are identical
    on both sides, so the statistic is bit-reproducible — then
    per-county (n_px, Σ mean) partials."""
    axs = df["ax"].to_numpy().astype(np.int64)
    ays = df["ay"].to_numpy().astype(np.int64)
    sws = df["sw"].to_numpy().astype(np.int64)
    shs = df["sh"].to_numpy().astype(np.int64)
    cx0 = int(axs.min())
    cx1 = int((axs + sws - 1).max())
    cy1 = int(ays.max())
    cy0 = int((ays - shs + 1).min())
    W = cx1 - cx0 + 1
    H = cy1 - cy0 + 1
    sumc = np.zeros((H, W), dtype=np.float64)
    cntc = np.zeros((H, W), dtype=np.int32)
    reds = df["red"].tolist()
    nirs = df["nir"].tolist()
    for k in range(len(df)):
        sw, sh = int(sws[k]), int(shs[k])
        red = np.frombuffer(reds[k], np.uint8).reshape(sh, sw)
        nir = np.frombuffer(nirs[k], np.uint8).reshape(sh, sw)
        v = snap_binary(
            (nir.astype(np.float64) - red)
            / (nir.astype(np.float64) + red + 1.0)
        )
        r0 = cy1 - int(ays[k])
        c0 = int(axs[k]) - cx0
        sumc[r0 : r0 + sh, c0 : c0 + sw] += v
        cntc[r0 : r0 + sh, c0 : c0 + sw] += 1
    cnt = cntc.ravel()
    idx = np.flatnonzero(cnt)
    if len(idx) == 0:
        return pd.DataFrame(
            {"county_fips": pd.Series([], dtype=str),
             "n_px": pd.Series([], dtype=np.int64),
             "val_sum": pd.Series([], dtype=np.float64)}
        )
    mean = snap_binary(sumc.ravel()[idx] / cnt[idx])
    iy = cy1 - idx // W
    ix = cx0 + idx % W
    code = G.FIPS_BASE + (iy // CNTY_PX_Y) * G.COUNTY_NX + ix // CNTY_PX_X
    g = pd.DataFrame({"c": code, "v": mean}).groupby("c", sort=True)
    agg = g.agg(n_px=("v", "size"), val_sum=("v", "sum")).reset_index()
    return pd.DataFrame(
        {
            "county_fips": agg["c"].astype(np.int64).astype(str).str.zfill(5),
            "n_px": agg["n_px"].to_numpy(np.int64),
            "val_sum": agg["val_sum"].to_numpy(np.float64),
        }
    )


def mosaic_mean_zonal(ds):
    """MEAN-composite twin of :func:`mosaic_zonal` (same decode-once
    slice exchange under root-scoped push shuffle, different per-pixel
    reduce: average over covering tiles instead of max — the
    de-seaming rule when overlapping scenes disagree by noise)."""
    from .zonal import bucketed_agg

    parts = _push_shuffled_buckets(ds, mosaic_mean_bucket)
    out = bucketed_agg(
        parts,
        ["county_fips"],
        {"n_px": ("n_px", "sum"), "val_sum": ("val_sum", "sum")},
        nb=16,
    )

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "county_fips": b["county_fips"],
                "n_px": pa.array(
                    b["n_px"].to_numpy().astype(np.int64), pa.int64()
                ),
                "mean_sum": pa.array(
                    round_away(b["val_sum"].to_numpy(), 6), pa.float64()
                ),
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


def mosaic_sweep_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """map_groups body for the FUSED composite sweep: ONE pass over the
    bucket's slices fills max, snapped-sum and count canvases together
    (region ops, bbox-cropped) → per-county (n_px, Σ max, Σ mean)
    partials.  One decode + one exchange + one canvas pass instead of
    two full standalone mosaics."""
    axs = df["ax"].to_numpy().astype(np.int64)
    ays = df["ay"].to_numpy().astype(np.int64)
    sws = df["sw"].to_numpy().astype(np.int64)
    shs = df["sh"].to_numpy().astype(np.int64)
    cx0 = int(axs.min())
    cx1 = int((axs + sws - 1).max())
    cy1 = int(ays.max())
    cy0 = int((ays - shs + 1).min())
    W = cx1 - cx0 + 1
    H = cy1 - cy0 + 1
    maxc = np.full((H, W), -np.inf, dtype=np.float64)
    sumc = np.zeros((H, W), dtype=np.float64)
    cntc = np.zeros((H, W), dtype=np.int32)
    reds = df["red"].tolist()
    nirs = df["nir"].tolist()
    for k in range(len(df)):
        sw, sh = int(sws[k]), int(shs[k])
        red = np.frombuffer(reds[k], np.uint8).reshape(sh, sw)
        nir = np.frombuffer(nirs[k], np.uint8).reshape(sh, sw)
        v = (nir.astype(np.float64) - red) / (
            nir.astype(np.float64) + red + 1.0
        )
        r0 = cy1 - int(ays[k])
        c0 = int(axs[k]) - cx0
        reg = maxc[r0 : r0 + sh, c0 : c0 + sw]
        np.maximum(reg, v, out=reg)
        sumc[r0 : r0 + sh, c0 : c0 + sw] += snap_binary(v)
        cntc[r0 : r0 + sh, c0 : c0 + sw] += 1
    cnt = cntc.ravel()
    idx = np.flatnonzero(cnt)
    if len(idx) == 0:
        return pd.DataFrame(
            {"county_fips": pd.Series([], dtype=str),
             "n_px": pd.Series([], dtype=np.int64),
             "max_sum": pd.Series([], dtype=np.float64),
             "mean_sum": pd.Series([], dtype=np.float64)}
        )
    vmax = snap_binary(maxc.ravel()[idx])
    vmean = snap_binary(sumc.ravel()[idx] / cnt[idx])
    iy = cy1 - idx // W
    ix = cx0 + idx % W
    code = G.FIPS_BASE + (iy // CNTY_PX_Y) * G.COUNTY_NX + ix // CNTY_PX_X
    g = pd.DataFrame({"c": code, "mx": vmax, "mn": vmean}).groupby(
        "c", sort=True
    )
    agg = g.agg(
        n_px=("mx", "size"), max_sum=("mx", "sum"), mean_sum=("mn", "sum")
    ).reset_index()
    return pd.DataFrame(
        {
            "county_fips": agg["c"].astype(np.int64).astype(str).str.zfill(5),
            "n_px": agg["n_px"].to_numpy(np.int64),
            "max_sum": agg["max_sum"].to_numpy(np.float64),
            "mean_sum": agg["mean_sum"].to_numpy(np.float64),
        }
    )


def mosaic_sweep_zonal(ds):
    """FUSED composite sweep: max + mean county mosaics from ONE decode,
    ONE slice exchange, ONE canvas pass — the pixel-side analog of the
    fused-decode curation sweep (two standalone mosaics pay the decode
    and the push-shuffled exchange twice for the same slices)."""
    from .zonal import bucketed_agg

    parts = _push_shuffled_buckets(ds, mosaic_sweep_bucket)
    out = bucketed_agg(
        parts,
        ["county_fips"],
        {
            "n_px": ("n_px", "sum"),
            "max_sum": ("max_sum", "sum"),
            "mean_sum": ("mean_sum", "sum"),
        },
        nb=16,
    )

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "county_fips": b["county_fips"],
                "n_px": pa.array(
                    b["n_px"].to_numpy().astype(np.int64), pa.int64()
                ),
                "mosaic_sum": pa.array(
                    round_away(b["max_sum"].to_numpy(), 6), pa.float64()
                ),
                "mean_sum": pa.array(
                    round_away(b["mean_sum"].to_numpy(), 6), pa.float64()
                ),
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


OVL_BUCKET = 512  # overlap-join bucket edge in px (footprints ≤ 64 px)


PAIR_SCHEMA = pa.schema(
    [(c, pa.int64()) for c in ("a", "b", "ox_px", "oy_px", "shared_px")]
)


def tile_extents(batch: pa.Table) -> pa.Table:
    """(image_id, w, h) → the 5-int extent rows (tid, x0, x1, y0, y1) of
    each tile's FULL (unclipped) footprint."""
    ids = image_ids_to_int(batch["image_id"])
    x0, x1, y0, y1 = tile_pixel_extent(
        ids, batch["w"].to_numpy(), batch["h"].to_numpy()
    )
    cols = {"tid": ids, "x0": x0, "x1": x1, "y0": y0, "y1": y1}
    return pa.table({k: pa.array(v, pa.int64()) for k, v in cols.items()})


def overlap_assign(batch: pa.Table) -> pa.Table:
    """5-int extent rows fanned to every OVL_BUCKET×OVL_BUCKET cell
    they intersect — the co-location exchange of the tile↔tile overlap
    join.  A tile hits ≤ 2 cells per axis (64-px footprints vs 512-px
    cells)."""
    ids = batch["tid"].to_numpy()
    ix0, ix1 = batch["x0"].to_numpy(), batch["x1"].to_numpy()
    iy0, iy1 = batch["y0"].to_numpy(), batch["y1"].to_numpy()
    o_key: list[int] = []
    o_id: list[int] = []
    o: dict[str, list[int]] = {"x0": [], "x1": [], "y0": [], "y1": []}
    for k in range(len(ids)):
        for by in range(int(iy0[k]) // OVL_BUCKET, int(iy1[k]) // OVL_BUCKET + 1):
            for bx in range(
                int(ix0[k]) // OVL_BUCKET, int(ix1[k]) // OVL_BUCKET + 1
            ):
                # +8 offsets keep both components non-negative (tile
                # footprints can start a few px west/south of the
                # domain → bx/by = −1; a negative component breaks the
                # floor-div/mod decode on the other side)
                o_key.append((by + 8) * 100_000 + (bx + 8))
                o_id.append(int(ids[k]))
                o["x0"].append(int(ix0[k]))
                o["x1"].append(int(ix1[k]))
                o["y0"].append(int(iy0[k]))
                o["y1"].append(int(iy1[k]))
    return pa.table(
        {
            "cell": pa.array(o_key, pa.int64()),
            "tid": pa.array(o_id, pa.int64()),
            "x0": pa.array(o["x0"], pa.int64()),
            "x1": pa.array(o["x1"], pa.int64()),
            "y0": pa.array(o["y0"], pa.int64()),
            "y1": pa.array(o["y1"], pa.int64()),
        }
    )


def overlap_pairs_bucket(g: pd.DataFrame) -> pa.Table:
    """map_groups body: x-sorted neighbor sweep inside one cell (sorted
    offsets 1..63 suffice — footprints span ≤ 64 px, so a pair farther
    apart in ix0 order cannot overlap in x), y-interval test, and the
    OWNER rule — a pair counts only in the cell containing its
    intersection's (x_lo, y_lo) corner — so straddling pairs are
    emitted exactly once across cells."""
    cell = int(g["cell"].iloc[0])
    by, bx = cell // 100_000 - 8, cell % 100_000 - 8
    tid = g["tid"].to_numpy()
    x0 = g["x0"].to_numpy()
    x1 = g["x1"].to_numpy()
    y0 = g["y0"].to_numpy()
    y1 = g["y1"].to_numpy()
    order = np.lexsort((tid, x0))
    tid, x0, x1, y0, y1 = tid[order], x0[order], x1[order], y0[order], y1[order]
    out_a, out_b, out_ox, out_oy = [], [], [], []
    n = len(tid)
    for off in range(1, n):
        i = np.arange(n - off)
        j = i + off
        hit_x = x0[j] <= x1[i]
        if not hit_x.any():
            # x0 is sorted: per i, x0[i+off] > x1[i] implies the same
            # for every larger offset — the sweep is density-safe, not
            # capped at a fixed window
            break
        hit = hit_x & (y0[j] <= y1[i]) & (y0[i] <= y1[j])
        hit &= tid[i] != tid[j]  # same tile fanned twice can meet itself
        if not hit.any():
            continue
        ii, jj = i[hit], j[hit]
        ox_lo = np.maximum(x0[ii], x0[jj])
        oy_lo = np.maximum(y0[ii], y0[jj])
        own = (ox_lo // OVL_BUCKET == bx) & (oy_lo // OVL_BUCKET == by)
        ii, jj = ii[own], jj[own]
        if len(ii) == 0:
            continue
        a = np.minimum(tid[ii], tid[jj])
        b = np.maximum(tid[ii], tid[jj])
        out_a.append(a)
        out_b.append(b)
        out_ox.append(
            np.minimum(x1[ii], x1[jj]) - np.maximum(x0[ii], x0[jj]) + 1
        )
        out_oy.append(
            np.minimum(y1[ii], y1[jj]) - np.maximum(y0[ii], y0[jj]) + 1
        )
    if not out_a:
        return PAIR_SCHEMA.empty_table()
    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    ox = np.concatenate(out_ox)
    oy = np.concatenate(out_oy)
    return pa.table(
        {
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            "ox_px": pa.array(ox, pa.int64()),
            "oy_px": pa.array(oy, pa.int64()),
            "shared_px": pa.array(ox * oy, pa.int64()),
        }
    )


def extent_overlap_pairs(ds):
    """All pairs of 5-int extent rows (tid, x0, x1, y0, y1) whose
    footprints intersect, with the intersection dims.  One narrow
    co-location exchange (rows fanned ≤ 4×), per-cell sorted neighbor
    sweep, owner-corner dedup.  The result carries PAIR_SCHEMA even when
    no pair exists."""
    import ray.data as rd

    pairs = (
        ds.map_batches(overlap_assign, batch_format="pyarrow")
        .repartition(32)
        .groupby("cell")
        .map_groups(overlap_pairs_bucket, batch_format="pandas")
    )
    # an empty input runs no group, so the result would have no schema;
    # the typed empty block gives it PAIR_SCHEMA in every case
    return pairs.union(rd.from_arrow(PAIR_SCHEMA.empty_table()))


def tile_overlap_pairs(ds):
    """All tile pairs with intersecting footprints + the intersection
    dims — the 2-D spatial interval self-join (the edge discovery the
    reference's scene-overlap handling implies, and the candidate set
    any stitching/de-seaming pass starts from)."""
    return extent_overlap_pairs(
        ds.map_batches(tile_extents, batch_format="pyarrow")
    )
