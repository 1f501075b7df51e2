"""Decode stage: bytes → pixels → derived scalar columns, then DROP bytes.

Replaces the reference's blob download + rasterio decode + per-parcel
vegetation math (``blob_manager_v3.py:335-374``,
``vegetation_analyzer_v3.py:112-168``).  Output blocks carry only narrow
scalar columns, so every later shuffle (PIP repartition, zonal groupby)
moves no image payload — the design rule for wide binary rows
(SURVEY.md §7.4).

Runs as stateless ``map_batches`` tasks: decode needs no per-worker
state, and zlib/numpy release the GIL-irrelevant (separate processes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import georef as G
from ..image import codecs, phash as _ph
from ..sources.tiles import image_ids_to_int

PIXEL_M = 10.0  # 10 m pixels, like Sentinel-2 bands in the reference


def decode_batch(
    batch: pa.Table,
    clip_ctx=None,
    emit_grad: bool = False,
    emit_thumb: bool = False,
) -> pa.Table:
    """map_batches body: decode, verify phash/shape, derive scalars.

    Per-row work is only the entropy decode (PNG/zlib are inherently
    per-image); the pixel math (dHash verify + NDVI band algebra) is
    vectorized over same-shape stacks — there are O(10) distinct
    (h, w) combos per batch, so each stack is large.

    The band algebra mirrors the reference's NDVI → biomass scaling
    chain (``vegetation_analyzer_v3.py:139-141`` band math ×
    ``forest_analyzer_v3.py:409-427`` per-area scaling): channel 0 acts
    as RED, channel 2 as NIR.

    ``clip_ctx`` (a ``stages.clipzonal.ClipContext``) additionally
    emits the polygon-clip columns ``n_px / n_in / val_sum / clip_ok``
    from the SAME decoded pixels and the SAME per-pixel value array —
    the corpus is entropy-decoded once for both the headline zonal
    scalars and the clip stats (the dominant cost at 100 TB).  Requires
    ``county_fips`` already on the batch (PIP runs before decode in
    ``TileGeoStage``).

    ``emit_grad`` / ``emit_thumb`` extend the same single-decode pass
    with the multimodal outputs (round-3 verdict weak #2: a curation
    job wants zonal + clip + gradient energy + thumbnails from ONE
    entropy decode, not one full decode pass per product):

    - ``grad``: integer total-variation edge energy, bit-identical to
      ``stages.multimodal.gradient_energy`` (int64 channel sum,
      |Δrow| + |Δcol|), vectorized over the same shape stacks.
    - ``thumb_mean`` / ``thumb_phash``: the 16×16 area-mean thumbnail
      stats of ``stages.multimodal.ImageResizeStage`` (same
      ``area_resize`` kernel, same dhash), minus the re-encoded bytes
      nobody downstream consumes here.
    Corrupt rows carry 0 / NaN and are excluded by ``shape_ok``."""
    ids = batch["image_id"]
    bufs = batch["bytes"].to_pylist()
    ws = batch["w"].to_numpy()
    hs = batch["h"].to_numpy()
    fmts = batch["fmt"].to_pylist()
    phashes = batch["phash"].to_numpy()
    n = len(bufs)
    ndvi = np.empty(n, dtype=np.float64)
    biomass = np.empty(n, dtype=np.float64)
    phash_ok = np.empty(n, dtype=bool)
    shape_ok = np.empty(n, dtype=bool)
    pixels: list = [None] * n
    for k in range(n):
        # per-tile error isolation (reference: per-parcel try/except,
        # comprehensive_biomass_processor_v3.py:291-294): a corrupt
        # payload flags the row instead of failing the whole task
        try:
            px = codecs.decode(bufs[k], fmts[k], int(hs[k]), int(ws[k]))
            shape_ok[k] = px.shape == (int(hs[k]), int(ws[k]), 3)
        except Exception:
            px = None
            shape_ok[k] = False
        pixels[k] = px
    vsum = np.zeros(n, dtype=np.float64) if clip_ctx is not None else None
    grad = np.zeros(n, dtype=np.int64) if emit_grad else None
    if emit_thumb:
        thumb_mean = np.full(n, np.nan, dtype=np.float64)
        thumb_phash = np.zeros(n, dtype=np.int64)
    shape_key = hs.astype(np.int64) * 100000 + ws.astype(np.int64)
    for key in np.unique(shape_key):
        sel = np.flatnonzero(shape_key == key)
        good = sel[shape_ok[sel]]
        if len(good) == 0:
            continue
        h0, w0 = pixels[good[0]].shape[:2]
        area_m2 = h0 * w0 * PIXEL_M * PIXEL_M
        # chunk the stack so float64 temporaries (~4 arrays × 8 B/px)
        # stay L3-resident: the pixel math is DRAM-bandwidth-bound when
        # materialized whole, and memory traffic — not FLOPs — limits
        # multi-actor scaling.  Chunking by image keeps results
        # bit-identical (all ops are per-image).
        chunk = max(16, 8_000_000 // (h0 * w0 * 24))
        for lo in range(0, len(good), chunk):
            part = good[lo : lo + chunk]
            stack = np.stack([pixels[k] for k in part])
            phash_ok[part] = _ph.dhash_stack(stack) == phashes[part]
            red = stack[:, :, :, 0].astype(np.float64)
            nir = stack[:, :, :, 2].astype(np.float64)
            v = (nir - red) / (nir + red + 1.0)
            nd = v.mean(axis=(1, 2))
            ndvi[part] = nd
            biomass[part] = (nd + 1.0) * area_m2 * 0.01
            if vsum is not None:
                # full-raster value sum off the SAME v array — for an
                # interior tile the clip mask is all-true, so this IS
                # the masked sum (clip_columns reuses it; boundary
                # tiles get the windowed rasterize there)
                vsum[part] = v.sum(axis=(1, 2))
            if grad is not None:
                # int64 channel sum then TV energy — same integer ops
                # as multimodal.gradient_energy, batched over the stack
                g = stack[:, :, :, 0].astype(np.int64)
                g += stack[:, :, :, 1]
                g += stack[:, :, :, 2]
                grad[part] = np.abs(np.diff(g, axis=1)).sum(
                    axis=(1, 2)
                ) + np.abs(np.diff(g, axis=2)).sum(axis=(1, 2))
    if emit_thumb:
        from .multimodal import area_resize

        for k in np.flatnonzero(shape_ok):
            small = area_resize(pixels[k], 16, 16)
            thumb_mean[k] = float(small.mean())
            thumb_phash[k] = _ph.dhash(small)
    bad = ~shape_ok
    if bad.any():
        ndvi[bad] = np.nan
        biomass[bad] = np.nan
        phash_ok[bad] = False
    # pass through everything except the wide payload columns (drop bytes
    # BEFORE any shuffle), then append the decode-derived scalars
    out = batch.drop_columns(
        [c for c in ("bytes", "w", "h", "fmt") if c in batch.column_names]
    )
    if "tile_int_id" not in out.column_names:
        int_ids = image_ids_to_int(ids)
        out = out.append_column("tile_int_id", pa.array(int_ids, pa.int64()))
        lon, lat = G.derive_lonlat(int_ids)
        out = out.append_column("lon", pa.array(lon))
        out = out.append_column("lat", pa.array(lat))
    out = out.append_column("ndvi", pa.array(ndvi))
    out = out.append_column("biomass", pa.array(biomass))
    out = out.append_column("phash_ok", pa.array(phash_ok))
    out = out.append_column("shape_ok", pa.array(shape_ok))
    if grad is not None:
        out = out.append_column("grad", pa.array(grad, pa.int64()))
    if emit_thumb:
        out = out.append_column("thumb_mean", pa.array(thumb_mean))
        out = out.append_column(
            "thumb_phash", pa.array(thumb_phash, pa.int64())
        )
    if clip_ctx is not None:
        from .clipzonal import clip_columns

        lon = out["lon"].to_numpy()
        lat = out["lat"].to_numpy()
        fips_col = out["county_fips"].to_pylist()
        n_px, n_in, val_sum, clip_ok = clip_columns(
            clip_ctx, pixels, fips_col, lon, lat, hs, ws,
            vsum=vsum, vsum_valid=shape_ok,
        )
        out = out.append_column("n_px", pa.array(n_px))
        out = out.append_column("n_in", pa.array(n_in))
        out = out.append_column("val_sum", pa.array(val_sum))
        out = out.append_column("clip_ok", pa.array(clip_ok))
    return out
