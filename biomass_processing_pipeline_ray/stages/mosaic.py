"""County raster MOSAIC: overlapping tiles resolved on one absolute
pixel grid, then reduced to per-county zonal products — all from ONE
bucket pass.

The reference merges multiple Sentinel-2 scenes covering one county
before analysis (bulk tile fetch + per-county cache,
``src/core/blob_manager_v3.py:458-547``; overlapping-scene handling in
the tile-index date pick, ``:408-435``) — the classic mosaicking step
every raster pipeline needs when input scenes overlap.  Our tiles
genuinely overlap: footprints span ~4–8 lon lattice steps while tile
centers sit on the 4096² lattice, so at 60k tiles 27.5k overlapping
pairs share 22.9M pixels (16 % of all pixels), and summing per-tile
stats (the headline zonal) double-counts them.

:func:`mosaic_zonal` serves any subset of three per-pixel products,
in the spirit of Raptor's one raster⋈vector pass for many zonal
products:

- ``"max"``: the cloud-free composite — each pixel's max value over
  its covering tiles → ``mosaic_sum``;
- ``"mean"``: the de-seaming composite — snap(Σ snap(v) / n) →
  ``mean_sum``;
- ``"depth"``: the coverage-depth histogram — pixels seen by exactly
  1 / 2 / ≥3 tiles → ``d1``, ``d2``, ``d3p`` (no decode at all when
  asked alone).

Every result row also carries ``n_px``, the county's covered pixels.

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

1. :func:`owner_slices` cuts each tile's in-domain footprint into the
   sub-rectangles owned by the 2048×2048-pixel buckets it meets.
   Slices are DISJOINT, so nothing is shipped or decoded twice.
   :func:`decode_slices` (value products) decodes each tile ONCE and
   ships only the red and nir channels of each slice — the minimal
   exact inputs of v = (nir − red)/(nir + red + 1), bit-identical to
   ``stages/decode.py``; the encoded payload, ids and metadata never
   enter the shuffle.  :func:`slice_extents` (depth alone) ships the
   ~40-byte extents only.
2. :func:`composite_bucket`, one ``map_groups`` task per bucket,
   allocates only the canvases the products need, cropped to the
   slices' bounding box: a count canvas (mean, depth), a max canvas
   (max), a snapped-sum canvas (mean).  Slices are rectangles, so
   every fill is a region op.  A bucket lies in ONE county column and
   crosses at most one county-row boundary, so the county reduce runs
   over ≤ 2 canvas row segments — no per-pixel key array, no groupby.
3. Bucket partials (≤ |buckets| × 2 narrow rows) → county rollup
   through the engine's bounded-key combine, ``zonal.county_zonal``.

Value snap: ``snap_binary`` AFTER the max — floor-snap is monotonic, so
snap(max(a, b)) == max(snap(a), snap(b)).  Every summed value lies on
the 2^-20 lattice, so the sums are exact in any order and the oracles
(global groupby over flat pixel keys, structurally independent of the
bucketing) land on the identical county sums.
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

# product → its output columns, in output order after (county_fips, n_px)
PRODUCTS = {
    "max": [("mosaic_sum", pa.float64())],
    "mean": [("mean_sum", pa.float64())],
    "depth": [("d1", pa.int64()), ("d2", pa.int64()), ("d3p", pa.int64())],
}


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


def owner_slices(ix0, ix1, iy0, iy1):
    """Bucket-owned sub-rectangles of each tile's in-domain footprint,
    as arrays (tile row, bucket, x_lo, x_hi, y_lo, y_hi), inclusive,
    in tile order and south→north, west→east within a tile.

    Tiles span ≤ 64 px per axis vs 2048-px buckets, so a tile meets
    ≤ 2 buckets per axis: its first bucket and the next one.  Each
    pixel goes to exactly its owner bucket; out-of-domain pixels (and
    tiles) yield nothing."""
    x0, x1 = np.maximum(ix0, 0), np.minimum(ix1, DOMAIN_X - 1)
    y0, y1 = np.maximum(iy0, 0), np.minimum(iy1, DOMAIN_Y - 1)
    parts = []
    for dy in (0, 1):
        by = y0 // BUCKET_PX + dy
        y_lo = np.maximum(by * BUCKET_PX, y0)
        y_hi = np.minimum((by + 1) * BUCKET_PX - 1, y1)
        for dx in (0, 1):
            bx = x0 // BUCKET_PX + dx
            x_lo = np.maximum(bx * BUCKET_PX, x0)
            x_hi = np.minimum((bx + 1) * BUCKET_PX - 1, x1)
            k = np.flatnonzero((x_lo <= x_hi) & (y_lo <= y_hi))
            parts.append(
                (k, by[k] * NBX + bx[k], x_lo[k], x_hi[k], y_lo[k], y_hi[k])
            )
    cols = [np.concatenate(c) for c in zip(*parts)]
    order = np.argsort(cols[0], kind="stable")
    return [c[order] for c in cols]


def _slices(batch: pa.Table):
    """(tile row, slice column 0, slice row 0, extent table) of every
    owner slice of the batch's tiles; row 0 is the slice's north edge."""
    ids = image_ids_to_int(batch["image_id"])
    ix0, ix1, iy0, iy1 = tile_pixel_extent(
        ids, batch["w"].to_numpy(), batch["h"].to_numpy()
    )
    k, bucket, x_lo, x_hi, y_lo, y_hi = owner_slices(ix0, ix1, iy0, iy1)
    ext = pa.table(
        {
            "bucket": pa.array(bucket, pa.int64()),
            "ax": pa.array(x_lo, pa.int32()),  # abs ix of slice col 0
            "ay": pa.array(y_hi, pa.int32()),  # abs iy of slice row 0
            "sw": pa.array(x_hi - x_lo + 1, pa.int32()),
            "sh": pa.array(y_hi - y_lo + 1, pa.int32()),
        }
    )
    return k, x_lo - ix0[k], iy1[k] - y_hi, ext


def slice_extents(batch: pa.Table) -> pa.Table:
    """map_batches body for depth alone: slice extents only — no
    decode, no payload, ~40 bytes per slice through the exchange."""
    return _slices(batch)[3]


def decode_slices(batch: pa.Table) -> pa.Table:
    """map_batches body for the value products: decode each tile once
    and attach each owner slice's red and nir channels as uint8 blobs."""
    k, c0, r0, ext = _slices(batch)
    bufs = batch["bytes"].to_pylist()
    fmts = batch["fmt"].to_pylist()
    ws = batch["w"].to_pylist()
    hs = batch["h"].to_pylist()
    reds: list[bytes] = []
    nirs: list[bytes] = []
    last = -1
    for t, c, r, w, h in zip(
        k.tolist(), c0.tolist(), r0.tolist(),
        ext["sw"].to_pylist(), ext["sh"].to_pylist(),
    ):
        if t != last:  # a tile's slices are adjacent: decode it once
            px = codecs.decode(bufs[t], fmts[t], hs[t], ws[t])
            red = np.ascontiguousarray(px[:, :, 0])
            nir = np.ascontiguousarray(px[:, :, 2])
            last = t
        reds.append(red[r : r + h, c : c + w].tobytes())
        nirs.append(nir[r : r + h, c : c + w].tobytes())
    return ext.append_column("red", pa.array(reds, pa.binary())).append_column(
        "nir", pa.array(nirs, pa.binary())
    )


def composite_bucket(df: pd.DataFrame, products: tuple[str, ...]) -> pd.DataFrame:
    """map_groups body: fill the canvases ``products`` need from the
    bucket's slices, then reduce each county row segment to one
    partial row (county_fips, n_px, product columns)."""
    ax = df["ax"].to_numpy().astype(np.int64)
    ay = df["ay"].to_numpy().astype(np.int64)
    sw = df["sw"].to_numpy().astype(np.int64)
    sh = df["sh"].to_numpy().astype(np.int64)
    cx0, cy1 = int(ax.min()), int(ay.max())  # canvas row 0 = northmost iy
    cy0 = int((ay - sh + 1).min())
    H, W = cy1 - cy0 + 1, int((ax + sw).max()) - cx0
    r0, c0 = cy1 - ay, ax - cx0
    counted = "mean" in products or "depth" in products
    cnt = np.zeros((H, W), np.int32) if counted else None
    mx = np.full((H, W), -np.inf) if "max" in products else None
    sm = np.zeros((H, W)) if "mean" in products else None
    valued = mx is not None or sm is not None
    if valued:
        reds, nirs = df["red"].tolist(), df["nir"].tolist()
    for k, (r, c, h, w) in enumerate(
        zip(r0.tolist(), c0.tolist(), sh.tolist(), sw.tolist())
    ):
        win = np.s_[r : r + h, c : c + w]
        if counted:
            cnt[win] += 1
        if not valued:
            continue
        red = np.frombuffer(reds[k], np.uint8).reshape(h, w)
        nir = np.frombuffer(nirs[k], np.uint8).reshape(h, w)
        v = (nir.astype(np.float64) - red) / (nir.astype(np.float64) + red + 1.0)
        if mx is not None:
            np.maximum(mx[win], v, out=mx[win])
        if sm is not None:
            sm[win] += snap_binary(v)
    # the canvas lies in one county column (4096 px = 2 buckets) and
    # crosses at most one county-row boundary (5632 px > 2048)
    top, bot = cy1 // CNTY_PX_Y, cy0 // CNTY_PX_Y
    split = cy1 - top * CNTY_PX_Y + 1 if top != bot else H
    rows = []
    for cy, seg in ((bot, np.s_[split:]), (top, np.s_[:split])):
        covered = cnt[seg] > 0 if counted else mx[seg] > -np.inf
        n = int(np.count_nonzero(covered))
        if n == 0:
            continue
        row = [f"{G.FIPS_BASE + cy * G.COUNTY_NX + cx0 // CNTY_PX_X:05d}", n]
        if mx is not None:
            row.append(snap_binary(mx[seg][covered]).sum())
        if sm is not None:
            row.append(snap_binary(sm[seg][covered] / cnt[seg][covered]).sum())
        if "depth" in products:
            d1 = np.count_nonzero(cnt[seg] == 1)
            d2 = np.count_nonzero(cnt[seg] == 2)
            row += [d1, d2, n - d1 - d2]
        rows.append(row)
    cols = ["county_fips", "n_px"] + [c for p in products for c, _ in PRODUCTS[p]]
    return pd.DataFrame(rows, columns=cols)


def mosaic_zonal(ds, products):
    """tiles Dataset → one row per covered county: ``county_fips``,
    ``n_px`` and the columns of each requested product, from one
    decode (if any), one bucket exchange and one canvas pass.
    ``products`` is a non-empty subset of :data:`PRODUCTS`.  An empty
    input gives a typed empty result.

    The exchange depends on whether pixel values travel:

    - decoded slices go through the push-based shuffle, set on
      ``ds.context``.  Ray runs a plan with the DataContext captured at
      the ROOT dataset's creation, so scoping only the groupby does not
      reach the sort (measured: the root-scoped form runs the 3M-tile
      exchange in 86–99 s vs 182–187 s pull-based / groupby-scoped).
      The process-global context is left untouched;
    - extent-only slices coalesce to 32 blocks first: the table is tiny
      (~12 B/tile), but Ray's sort scales its barrier with input-block
      COUNT (3M tiles: 733 blocks → 55 s sort wall on 75 MB; 32 blocks
      → seconds)."""
    from ray.data.context import ShuffleStrategy

    from .zonal import county_zonal

    if not products or set(products) - PRODUCTS.keys():
        raise ValueError(
            f"products must be a non-empty subset of {tuple(PRODUCTS)}, "
            f"not {products!r}"
        )
    products = tuple(p for p in PRODUCTS if p in products)
    schema = pa.schema(
        [("county_fips", pa.string()), ("n_px", pa.int64())]
        + [f for p in products for f in PRODUCTS[p]]
    )
    if "max" in products or "mean" in products:
        ds.context.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
        slices = ds.map_batches(decode_slices, batch_format="pyarrow")
    else:
        slices = ds.map_batches(slice_extents, batch_format="pyarrow")
        slices = slices.repartition(32)
    parts = slices.groupby("bucket").map_groups(
        composite_bucket, fn_kwargs={"products": products}, batch_format="pandas"
    )

    def finalize(c) -> pa.Table:
        cols = [pa.array(c.fips, pa.string())]
        for f in schema.remove(0):
            x = c[f.name]
            if f.type == pa.float64():
                x = round_away(np.asarray(x, np.float64), 6)
            cols.append(pa.array(x, f.type))
        return pa.Table.from_arrays(cols, schema=schema)

    return county_zonal(parts, {c: ("sum", c) for c in schema.names[1:]}, finalize)


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
