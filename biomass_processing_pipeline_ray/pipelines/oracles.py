"""Generated oracle tables for queries DuckDB can't derive from the
input tables alone.

The driver's correctness gate runs our ``oracle_sql()`` strings over the
sf0.01 parquet; for the pixel-decoding flagship the ground truth is the
tile IMAGE content, which SQL cannot decode.  So an INDEPENDENT
single-process reimplementation (the same brute-force oracle strategy as
``tests/test_pipeline.py::_oracle_frame`` — ground-truth pixels from
``make_pixels`` → codec round-trip → per-image float math, no pipeline
stages, no Ray Data operators) writes a small per-tile parquet under
``/tmp``, and the registered SQL aggregates THAT file.  This turns the
rows-only flagship check into a full value-hash check: the engine's
fused decode→PIP→zonal path must reproduce, bit-for-bit after lattice
snapping, what the trivial sequential decoder computes.

The per-tile oracle carries ``(tile_id, ndvi, biomass, phash)``:

- ``ndvi``/``biomass`` power the ``zonal_biomass_px`` D entry;
- ``phash`` (stored uint64 so DuckDB band/xor arithmetic is logical,
  not sign-extending) powers the ``phash_neardup`` D entry — the pair
  finding itself runs in PURE SQL (4 banded equi-joins + bit_count),
  independent of the engine's banded-shuffle implementation.

Generation is chunk-parallel via plain ``ray.remote`` tasks when Ray is
up (each chunk is still the sequential reference implementation), and
falls back to a single-process loop otherwise.  Files are written
atomically (tmp + ``os.replace``) and cached by universe size.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ORACLE_DIR = "/tmp/graft_cache/oracles"


def px_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"px_n{n}_v2.parquet")


def _px_oracle_chunk(ids: np.ndarray) -> pa.Table:
    """Sequential per-tile ground truth for a chunk of tile ids.

    Mirrors the reference's per-parcel decode→NDVI→biomass chain
    (``vegetation_analyzer_v3.py:139-141`` × ``forest_analyzer_v3.py:
    409-427``) with the exact float op order of ``stages/decode.py`` so
    equality is bitwise, not approximate.
    """
    from ..image import codecs, phash as PH
    from ..sources import tiles as T

    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    ndvi = np.empty(n, dtype=np.float64)
    biomass = np.empty(n, dtype=np.float64)
    ph = np.empty(n, dtype=np.uint64)
    for j, i in enumerate(ids):
        px = T.make_pixels(int(i))
        w, h, fidx = T.tile_dims(np.asarray([i], dtype=np.int64))
        fmt = T.FMTS[int(fidx[0])]
        dec = codecs.decode(codecs.encode(px, fmt), fmt, int(h[0]), int(w[0]))
        red = dec[:, :, 0].astype(np.float64)
        nir = dec[:, :, 2].astype(np.float64)
        nd = np.mean((nir - red) / (nir + red + 1.0))
        area_m2 = dec.shape[0] * dec.shape[1] * 10.0 * 10.0
        ndvi[j] = nd
        biomass[j] = (nd + 1.0) * area_m2 * 0.01
        ph[j] = np.uint64(np.int64(PH.dhash(dec)).astype(np.uint64))
    return pa.table(
        {
            "tile_id": pa.array(ids),
            "ndvi": pa.array(ndvi),
            "biomass": pa.array(biomass),
            "phash": pa.array(ph),
        }
    )


def ensure_px_oracle(n: int, chunk: int = 2048) -> str:
    """Generate (once, cached) the per-tile decode oracle parquet."""
    path = px_oracle_path(n)
    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)
    all_ids = np.arange(n, dtype=np.int64)
    chunks = [all_ids[lo : lo + chunk] for lo in range(0, n, chunk)]
    tables: list[pa.Table]
    try:
        import ray

        ray_up = ray.is_initialized()
    except Exception:  # pragma: no cover - ray is a hard dep in practice
        ray_up = False
    if ray_up and len(chunks) > 1:
        import ray

        fn = ray.remote(_px_oracle_chunk)
        tables = ray.get([fn.remote(c) for c in chunks])
    else:
        tables = [_px_oracle_chunk(c) for c in chunks]
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(pa.concat_tables(tables), tmp)
    os.replace(tmp, path)
    return path


def sql_zonal_px(n: int) -> str:
    """DuckDB twin of the flagship: arithmetic county assignment (the
    PIP parity surface already D-checked by ``zonal_biomass``) ×
    oracle-decoded per-tile scalars, lattice-snapped on both sides."""
    from ..functions import georef as G
    from ..functions.rounding import sql_snap

    lon, lat = G.sql_lonlat("tile_id")
    fips = G.sql_county_fips(lon, lat)
    return f"""
    SELECT county_fips, CAST(COUNT(*) AS BIGINT) AS tile_count,
           ROUND(SUM(b), 4) AS biomass_sum,
           ROUND(SUM(b) / COUNT(*), 4) AS biomass_mean,
           ROUND(SUM(nd), 4) AS ndvi_sum,
           ROUND(SUM(nd) / COUNT(*), 4) AS ndvi_mean
    FROM (SELECT {fips} AS county_fips,
                 {sql_snap('ndvi')} AS nd,
                 {sql_snap('biomass')} AS b
          FROM read_parquet('{px_oracle_path(n)}'))
    GROUP BY county_fips
    """


# ---------------------------------------------------------------------------
# simplify oracle: Douglas–Peucker keep-set re-derived with an ITERATIVE
# stack + scalar-math walk (vs the engine's recursive vectorized kernel
# in geo/geoms.py); identical per-candidate float expressions, so the
# discrete keep decisions agree exactly.
# ---------------------------------------------------------------------------

SIMPLIFY_TOL = 0.02


def simplify_oracle_path() -> str:
    return os.path.join(ORACLE_DIR, "simplify_counties_v1.parquet")


def _dp_keep(pts: np.ndarray, tol: float) -> np.ndarray:
    import math

    n = len(pts)
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi <= lo + 1:
            continue
        ax, ay = pts[lo]
        bx, by = pts[hi]
        abx, aby = bx - ax, by - ay
        denom = abx * abx + aby * aby
        best, besti = -1.0, -1
        for i in range(lo + 1, hi):
            sx, sy = pts[i][0] - ax, pts[i][1] - ay
            if denom == 0.0:
                d = math.sqrt(sx * sx + sy * sy)
            else:
                t = (sx * abx + sy * aby) / denom
                t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
                dx, dy = sx - t * abx, sy - t * aby
                d = math.sqrt(dx * dx + dy * dy)
            if d > best:
                best, besti = d, i
        if best > tol:
            keep[besti] = True
            stack.append((lo, besti))
            stack.append((besti, hi))
    return keep


def _shoelace_py(ring: np.ndarray) -> float:
    s = 0.0
    for i in range(len(ring) - 1):
        s += ring[i][0] * ring[i + 1][1] - ring[i + 1][0] * ring[i][1]
    return s * 0.5


def ensure_simplify_oracle(tol: float = SIMPLIFY_TOL) -> str:
    path = simplify_oracle_path()
    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)
    from ..geo.wkb import wkb_to_rings
    from ..sources.counties import detailed_counties

    t = detailed_counties()
    rows = []
    for f, w in zip(t["county_fips"].to_pylist(), t["geometry_wkb"].to_pylist()):
        ring = wkb_to_rings(w)[0]
        pts = ring[:-1]
        keep = _dp_keep(pts, tol)
        out = pts[keep]
        if len(out) < 3:
            out = pts[:3]
        simp = np.vstack([out, out[:1]])
        rows.append(
            (
                f,
                len(pts),
                len(simp) - 1,
                abs(_shoelace_py(ring)),
                abs(_shoelace_py(simp)),
            )
        )
    from ..functions.rounding import round_away

    tbl = pa.table(
        {
            "county_fips": pa.array([r[0] for r in rows], pa.string()),
            "n_vertices": pa.array([r[1] for r in rows], pa.int64()),
            "n_simplified": pa.array([r[2] for r in rows], pa.int64()),
            "area_deg2": pa.array(round_away(np.asarray([r[3] for r in rows]), 9)),
            "area_simplified_deg2": pa.array(
                round_away(np.asarray([r[4] for r in rows]), 9)
            ),
        }
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def sql_county_simplify() -> str:
    return (
        "SELECT county_fips, n_vertices, n_simplified, area_deg2, "
        f"area_simplified_deg2 FROM read_parquet('{simplify_oracle_path()}')"
    )


# ---------------------------------------------------------------------------
# jittered-PIP oracle: the rect-county PIP is mirror-checked by floor
# arithmetic in SQL, which never exercises the real ray-cast.  This
# oracle assigns every tile against the JITTERED (non-axis-aligned
# convex quad) county layer with an independent per-county edge-loop
# crossing test (vs the engine's CSR all-pairs kernel in geo/pip.py),
# using the same crossing expression so boundary points agree bit-wise.
# ---------------------------------------------------------------------------


def pip_jittered_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"pip_jittered_n{n}_v1.parquet")


def ensure_pip_jittered_oracle(n: int) -> str:
    path = pip_jittered_oracle_path(n)
    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)
    from ..functions import georef as G
    from ..geo.wkb import wkb_to_rings
    from ..sources.counties import jittered_counties

    ids = np.arange(n, dtype=np.int64)
    lon, lat = G.derive_lonlat(ids)
    counties = jittered_counties()
    labels = counties["county_fips"].to_pylist()
    wkbs = counties["geometry_wkb"].to_pylist()
    order = np.argsort(np.asarray(labels, dtype=object))
    assigned = np.full(n, "", dtype=object)
    todo = np.ones(n, dtype=bool)
    for src in order:  # ascending fips: first match == lowest label
        if not todo.any():
            break
        ring = wkb_to_rings(wkbs[src])[0]
        bx0, by0 = ring[:, 0].min(), ring[:, 1].min()
        bx1, by1 = ring[:, 0].max(), ring[:, 1].max()
        sel = np.flatnonzero(
            todo & (lon >= bx0) & (lon <= bx1) & (lat >= by0) & (lat <= by1)
        )
        if len(sel) == 0:
            continue
        x, y = lon[sel], lat[sel]
        crossings = np.zeros(len(sel), dtype=np.int64)
        for e in range(len(ring) - 1):
            x0, y0 = ring[e]
            x1, y1 = ring[e + 1]
            spans = (y0 <= y) != (y1 <= y)
            if not spans.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            crossings += spans & (x < xint)
        inside = sel[crossings % 2 == 1]
        assigned[inside] = labels[src]
        todo[inside] = False
    tbl = pa.table(
        {
            "tile_id": pa.array(ids),
            "county_fips": pa.array(assigned.astype(str), pa.string()),
        }
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def sql_pip_jittered(n: int) -> str:
    return (
        "SELECT tile_id, county_fips "
        f"FROM read_parquet('{pip_jittered_oracle_path(n)}')"
    )


# ---------------------------------------------------------------------------
# thumbnail oracle: independent area resize via RESHAPE block means (the
# engine uses reduceat segment sums) — uint8 sums are exact in float64,
# so the two orders agree bit-wise and any real divergence is a bug.
# ---------------------------------------------------------------------------


def thumb_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"thumbs_n{n}_v2.parquet")


def _thumb_oracle_chunk(ids: np.ndarray, out_h: int = 16, out_w: int = 16) -> pa.Table:
    from ..functions.rounding import round_away
    from ..image import codecs, phash as PH
    from ..sources import tiles as T

    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    means = np.empty(n, dtype=np.float64)
    phashes = np.empty(n, dtype=np.int64)
    for k, i in enumerate(ids):
        px = T.make_pixels(int(i))
        w_, h_, fidx = T.tile_dims(np.asarray([i], dtype=np.int64))
        fmt = T.FMTS[int(fidx[0])]
        dec = codecs.decode(codecs.encode(px, fmt), fmt, int(h_[0]), int(w_[0]))
        h, w = dec.shape[:2]
        # tile dims are multiples of 16, so block means come from a pure
        # reshape — a different reduction order than the engine's
        # reduceat, equal because uint8 sums are exact in float64
        small = np.clip(
            np.floor(
                dec.astype(np.float64)
                .reshape(out_h, h // out_h, out_w, w // out_w, 3)
                .mean(axis=(1, 3))
            ),
            0,
            255,
        ).astype(np.uint8)
        means[k] = round_away(np.asarray([small.mean()]), 6)[0]
        phashes[k] = PH.dhash(small)
    return pa.table(
        {
            "image_id": pa.array([f"img{int(i):012d}" for i in ids], pa.string()),
            "thumb_w": pa.array(np.full(n, out_w, dtype=np.int32)),
            "thumb_h": pa.array(np.full(n, out_h, dtype=np.int32)),
            "thumb_mean": pa.array(means),
            "thumb_phash": pa.array(phashes),
        }
    )


def ensure_thumb_oracle(n: int, chunk: int = 2048) -> str:
    path = thumb_oracle_path(n)
    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)
    all_ids = np.arange(n, dtype=np.int64)
    chunks = [all_ids[lo : lo + chunk] for lo in range(0, n, chunk)]
    try:
        import ray

        ray_up = ray.is_initialized()
    except Exception:  # pragma: no cover
        ray_up = False
    if ray_up and len(chunks) > 1:
        import ray

        fn = ray.remote(_thumb_oracle_chunk)
        tables = ray.get([fn.remote(c) for c in chunks])
    else:
        tables = [_thumb_oracle_chunk(c) for c in chunks]
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(pa.concat_tables(tables), tmp)
    os.replace(tmp, path)
    return path


def sql_image_thumbs(n: int) -> str:
    return (
        "SELECT image_id, thumb_w, thumb_h, thumb_mean, thumb_phash "
        f"FROM read_parquet('{thumb_oracle_path(n)}')"
    )


# ---------------------------------------------------------------------------
# polygon-overlap oracle: area(jittered quad ∩ base rect county) by an
# INDEPENDENT construction — candidate vertex set (quad vertices in the
# box, box corners in the quad, all edge×edge crossings) ordered by
# angle, fsum shoelace — vs the engine's Sutherland–Hodgman clipper
# (geo/geoms.clip_ring_to_box).  Agreement is algorithmic.
# ---------------------------------------------------------------------------


def overlap_oracle_path() -> str:
    return os.path.join(ORACLE_DIR, "overlap_v1.parquet")


def _inside_convex(px: float, py: float, ring: np.ndarray) -> bool:
    """Point in (or on) a CCW convex ring — all edge crosses >= -eps."""
    for i in range(len(ring) - 1):
        ax, ay = ring[i]
        bx, by = ring[i + 1]
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < -1e-12:
            return False
    return True


def _seg_crossings(ring: np.ndarray, x0, y0, x1, y1) -> list:
    """All intersection points of ring edges with the 4 box edges."""
    out = []
    for i in range(len(ring) - 1):
        ax, ay = ring[i]
        bx, by = ring[i + 1]
        dx, dy = bx - ax, by - ay
        for xv in (x0, x1):  # vertical box edges
            if dx != 0.0:
                t = (xv - ax) / dx
                if 0.0 <= t <= 1.0:
                    yv = ay + t * dy
                    if y0 - 1e-12 <= yv <= y1 + 1e-12:
                        out.append((xv, min(max(yv, y0), y1)))
        for yh in (y0, y1):  # horizontal box edges
            if dy != 0.0:
                t = (yh - ay) / dy
                if 0.0 <= t <= 1.0:
                    xh = ax + t * dx
                    if x0 - 1e-12 <= xh <= x1 + 1e-12:
                        out.append((min(max(xh, x0), x1), yh))
    return out


def ensure_overlap_oracle() -> str:
    path = overlap_oracle_path()
    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)
    import math

    from ..functions import georef as G
    from ..sources.counties import jittered_counties
    from ..geo import wkb as _wkb

    tbl = jittered_counties()
    fips_col = tbl["county_fips"].to_pylist()
    wkbs = tbl["geometry_wkb"].to_pylist()
    areas = np.empty(len(fips_col), dtype=np.float64)
    for k, (fips, buf) in enumerate(zip(fips_col, wkbs)):
        ring = _wkb.wkb_to_rings(buf)[0]
        code = int(fips) - G.FIPS_BASE
        cy, cx = divmod(code, G.COUNTY_NX)
        x0 = G.LON0 + cx * G.COUNTY_W
        x1 = G.LON0 + (cx + 1) * G.COUNTY_W
        y0 = G.LAT0 + cy * G.COUNTY_H
        y1 = G.LAT0 + (cy + 1) * G.COUNTY_H
        cand: list = []
        for vx, vy in ring[:-1]:
            if x0 - 1e-12 <= vx <= x1 + 1e-12 and y0 - 1e-12 <= vy <= y1 + 1e-12:
                cand.append((min(max(vx, x0), x1), min(max(vy, y0), y1)))
        for bx_, by_ in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
            if _inside_convex(bx_, by_, ring):
                cand.append((bx_, by_))
        cand.extend(_seg_crossings(ring, x0, y0, x1, y1))
        # dedupe with tolerance, order by angle around the mean
        uniq: list = []
        for p in cand:
            if not any(abs(p[0] - q[0]) < 1e-9 and abs(p[1] - q[1]) < 1e-9
                       for q in uniq):
                uniq.append(p)
        if len(uniq) < 3:
            areas[k] = 0.0
            continue
        mx = sum(p[0] for p in uniq) / len(uniq)
        my = sum(p[1] for p in uniq) / len(uniq)
        uniq.sort(key=lambda p: math.atan2(p[1] - my, p[0] - mx))
        terms = [
            uniq[i][0] * uniq[(i + 1) % len(uniq)][1]
            - uniq[(i + 1) % len(uniq)][0] * uniq[i][1]
            for i in range(len(uniq))
        ]
        areas[k] = abs(math.fsum(terms) * 0.5)
    from ..functions.rounding import snap_binary

    out = pa.table(
        {
            "county_fips": pa.array(fips_col, pa.string()),
            "overlap_area": pa.array(snap_binary(areas)),
        }
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(out, tmp)
    os.replace(tmp, path)
    return path


def sql_county_overlap() -> str:
    return (
        "SELECT county_fips, overlap_area "
        f"FROM read_parquet('{overlap_oracle_path()}')"
    )


# ---------------------------------------------------------------------------
# gradient-energy oracle: per-tile integer total-variation edge energy,
# sequential decode + direct slice arithmetic (no Ray, no stages) —
# pure int64, so county rollups need no float lattice at all.
# ---------------------------------------------------------------------------


def grad_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"grad_n{n}_v1.parquet")


def _grad_oracle_chunk(ids: np.ndarray) -> pa.Table:
    from ..image import codecs
    from ..sources import tiles as T

    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    grad = np.empty(n, dtype=np.int64)
    n_px = np.empty(n, dtype=np.int64)
    for k, i in enumerate(ids):
        px = T.make_pixels(int(i))
        w_, h_, fidx = T.tile_dims(np.asarray([i], dtype=np.int64))
        fmt = T.FMTS[int(fidx[0])]
        dec = codecs.decode(codecs.encode(px, fmt), fmt, int(h_[0]), int(w_[0]))
        g = dec.astype(np.int64).sum(axis=2)
        grad[k] = np.abs(g[1:, :] - g[:-1, :]).sum() + np.abs(
            g[:, 1:] - g[:, :-1]
        ).sum()
        n_px[k] = g.shape[0] * g.shape[1]
    return pa.table(
        {
            "tile_id": pa.array(ids),
            "grad": pa.array(grad),
            "n_px": pa.array(n_px),
        }
    )


def ensure_grad_oracle(n: int, chunk: int = 2048) -> str:
    path = grad_oracle_path(n)
    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)
    all_ids = np.arange(n, dtype=np.int64)
    chunks = [all_ids[lo : lo + chunk] for lo in range(0, n, chunk)]
    try:
        import ray

        ray_up = ray.is_initialized()
    except Exception:  # pragma: no cover
        ray_up = False
    if ray_up and len(chunks) > 1:
        import ray

        fn = ray.remote(_grad_oracle_chunk)
        tables = ray.get([fn.remote(c) for c in chunks])
    else:
        tables = [_grad_oracle_chunk(c) for c in chunks]
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(pa.concat_tables(tables), tmp)
    os.replace(tmp, path)
    return path


def sql_county_gradient(n: int) -> str:
    """County rollup of the oracle's per-tile integer gradient energy,
    with the arithmetic county assignment (PIP parity surface D-checked
    by zonal_biomass)."""
    from ..functions import georef as G

    lon, lat = G.sql_lonlat("tile_id")
    fips = G.sql_county_fips(lon, lat)
    return f"""
    SELECT {fips} AS county_fips,
           CAST(COUNT(*) AS BIGINT) AS n_tiles,
           CAST(SUM(grad) AS BIGINT) AS grad_sum,
           CAST(SUM(n_px) AS BIGINT) AS px_sum
    FROM read_parquet('{grad_oracle_path(n)}')
    GROUP BY county_fips
    """


# ---------------------------------------------------------------------------
# clip-zonal oracle: per-tile polygon-clipped masked pixel sums, with an
# INDEPENDENT even-odd rasterizer (per-edge crossing accumulation loop
# vs the engine's all-edges broadcast kernel in image/window.py).
# ---------------------------------------------------------------------------


def clip_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"clip_n{n}_v2.parquet")


def _clip_oracle_chunk(ids: np.ndarray) -> pa.Table:
    from ..functions import georef as G
    from ..image import codecs
    from ..sources import tiles as T

    pix_deg = 1.0 / 8192.0
    ids = np.asarray(ids, dtype=np.int64)
    lon_all, lat_all = G.derive_lonlat(ids)
    cx_all, cy_all = G.derive_county_xy(lon_all, lat_all)
    n = len(ids)
    n_px = np.empty(n, dtype=np.int64)
    n_in = np.empty(n, dtype=np.int64)
    val_sum = np.empty(n, dtype=np.float64)
    for k, i in enumerate(ids):
        px = T.make_pixels(int(i))
        w_, h_, fidx = T.tile_dims(np.asarray([i], dtype=np.int64))
        fmt = T.FMTS[int(fidx[0])]
        dec = codecs.decode(codecs.encode(px, fmt), fmt, int(h_[0]), int(w_[0]))
        h, w = dec.shape[:2]
        red = dec[:, :, 0].astype(np.float64)
        nir = dec[:, :, 2].astype(np.float64)
        v = (nir - red) / (nir + red + 1.0)
        cx, cy = int(cx_all[k]), int(cy_all[k])
        x0 = G.LON0 + cx * G.COUNTY_W
        x1 = G.LON0 + (cx + 1) * G.COUNTY_W
        y0 = G.LAT0 + cy * G.COUNTY_H
        y1 = G.LAT0 + (cy + 1) * G.COUNTY_H
        ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
        half_w = w * pix_deg * 0.5
        half_h = h * pix_deg * 0.5
        min_lon = lon_all[k] - half_w
        max_lon = lon_all[k] + half_w
        min_lat = lat_all[k] - half_h
        max_lat = lat_all[k] + half_h
        dx = (max_lon - min_lon) / w
        dy = (max_lat - min_lat) / h
        pxlon = min_lon + (np.arange(w, dtype=np.float64) + 0.5) * dx
        pxlat = max_lat - (np.arange(h, dtype=np.float64) + 0.5) * dy
        X = np.broadcast_to(pxlon[None, :], (h, w))
        Y = np.broadcast_to(pxlat[:, None], (h, w))
        crossings = np.zeros((h, w), dtype=np.int64)
        for e in range(len(ring) - 1):
            ex0, ey0 = ring[e]
            ex1, ey1 = ring[e + 1]
            straddle = (ey0 > Y) != (ey1 > Y)
            if not straddle.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = ex0 + (Y - ey0) / (ey1 - ey0) * (ex1 - ex0)
            crossings += straddle & (X < xint)
        mask = crossings % 2 == 1
        n_px[k] = h * w
        cnt = int(mask.sum())
        n_in[k] = cnt
        val_sum[k] = float(v[mask].sum()) if cnt else 0.0
    return pa.table(
        {
            "tile_id": pa.array(ids),
            "n_px": pa.array(n_px),
            "n_in": pa.array(n_in),
            "val_sum": pa.array(val_sum),
        }
    )


def ensure_clip_oracle(n: int, chunk: int = 2048) -> str:
    path = clip_oracle_path(n)
    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)
    all_ids = np.arange(n, dtype=np.int64)
    chunks = [all_ids[lo : lo + chunk] for lo in range(0, n, chunk)]
    try:
        import ray

        ray_up = ray.is_initialized()
    except Exception:  # pragma: no cover
        ray_up = False
    if ray_up and len(chunks) > 1:
        import ray

        fn = ray.remote(_clip_oracle_chunk)
        tables = ray.get([fn.remote(c) for c in chunks])
    else:
        tables = [_clip_oracle_chunk(c) for c in chunks]
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(pa.concat_tables(tables), tmp)
    os.replace(tmp, path)
    return path


def sql_county_clip_stats(n: int) -> str:
    from ..functions import georef as G
    from ..functions.rounding import sql_snap

    lon, lat = G.sql_lonlat("tile_id")
    fips = G.sql_county_fips(lon, lat)
    return f"""
    SELECT county_fips, CAST(COUNT(*) AS BIGINT) AS n_tiles,
           CAST(SUM(n_px) AS BIGINT) AS px_total,
           CAST(SUM(n_in) AS BIGINT) AS px_in,
           ROUND(SUM(vs), 6) AS val_sum,
           ROUND(SUM(vs) / SUM(n_in), 6) AS val_mean
    FROM (SELECT {fips} AS county_fips, n_px, n_in,
                 {sql_snap('val_sum')} AS vs
          FROM read_parquet('{clip_oracle_path(n)}'))
    GROUP BY county_fips
    """


# ---------------------------------------------------------------------------
# cell-index oracle: the hex half is independently SQL-checked
# (``hex_index``); the S2 half is re-derived here with a PER-POINT
# RECURSIVE Hilbert encode (bit-at-a-time orientation walk) instead of
# the engine's vectorized 4-bit lookup-table batching — the two paths
# share only the published S2 constants (kPosToIJ / kPosToOrientation).
# ---------------------------------------------------------------------------


def cell_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"cells_n{n}_v1.parquet")


def _s2_cells_independent(lon: np.ndarray, lat: np.ndarray, level: int) -> np.ndarray:
    from ..geo.s2 import _POS_TO_IJ, _POS_TO_ORIENT

    ij_to_pos = [[r.index(v) for v in range(4)] for r in _POS_TO_IJ]
    lonr = np.deg2rad(np.asarray(lon, dtype=np.float64))
    latr = np.deg2rad(np.asarray(lat, dtype=np.float64))
    cl = np.cos(latr)
    xs, ys, zs = cl * np.cos(lonr), cl * np.sin(lonr), np.sin(latr)
    out = np.empty(len(xs), dtype=np.uint64)
    lsb = 1 << (2 * (30 - level))
    for p in range(len(xs)):
        x, y, z = float(xs[p]), float(ys[p]), float(zs[p])
        ax, ay, az = abs(x), abs(y), abs(z)
        if ax >= ay and ax >= az:
            face = 0 if x >= 0 else 3
            u, v = (y / x, z / x) if face == 0 else (z / x, y / x)
        elif ay >= az:
            face = 1 if y >= 0 else 4
            u, v = (-x / y, z / y) if face == 1 else (z / y, -x / y)
        else:
            face = 2 if z >= 0 else 5
            u, v = (-x / z, -y / z) if face == 2 else (-y / z, -x / z)

        def st(w: float) -> float:
            import math

            return (
                0.5 * math.sqrt(1.0 + 3.0 * w)
                if w >= 0
                else 1.0 - 0.5 * math.sqrt(1.0 - 3.0 * w)
            )

        i = min(max(int(np.floor(st(u) * (1 << 30))), 0), (1 << 30) - 1)
        j = min(max(int(np.floor(st(v) * (1 << 30))), 0), (1 << 30) - 1)
        orient = face & 1
        pos = 0
        for k in range(29, -1, -1):
            ij = (((i >> k) & 1) << 1) | ((j >> k) & 1)
            idx = ij_to_pos[orient][ij]
            pos = (pos << 2) | idx
            orient ^= _POS_TO_ORIENT[idx]
        leaf = (face << 61) | (pos << 1) | 1
        out[p] = np.uint64((leaf & ~(lsb - 1)) | lsb if level < 30 else leaf)
    return out


def ensure_cell_oracle(n: int, hex_res: int = 7, s2_level: int = 13) -> str:
    path = cell_oracle_path(n)
    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)
    from ..functions import georef as G
    from ..geo import hexgrid

    ids = np.arange(n, dtype=np.int64)
    lon, lat = G.derive_lonlat(ids)
    tbl = pa.table(
        {
            "tile_id": pa.array(ids),
            # hex is separately hash-checked against pure SQL (hex_index)
            "hex_cell": pa.array(hexgrid.latlng_to_cell(lon, lat, hex_res), pa.int64()),
            "s2_cell": pa.array(_s2_cells_independent(lon, lat, s2_level)),
        }
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def sql_cell_index(n: int) -> str:
    return (
        "SELECT tile_id, hex_cell, s2_cell "
        f"FROM read_parquet('{cell_oracle_path(n)}')"
    )


# ---------------------------------------------------------------------------
# text-dedup oracles: independent pure-Python reimplementations over the
# sf0.01 documents table (the scale the driver's gate runs at).  These
# share only the CONSTANTS with the engine stages (permutation tables,
# moduli — they are parameters of the algorithm); every computation is
# re-derived with Python ints / dict buckets instead of the engine's
# vectorized numpy + banded-shuffle path.
# ---------------------------------------------------------------------------

ORACLE_SF_DIR = "/root/testdata/sf0.01"
_U64 = 1 << 64


def _py_shingles(text: str, k: int = 3) -> list[int]:
    import zlib

    words = text.split()
    if len(words) < k:
        grams = [" ".join(words)] if words else []
    else:
        grams = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    return sorted({zlib.crc32(g.encode("utf-8")) for g in grams})


def _py_minhash_sig(shingles: list[int]) -> list[int]:
    from ..stages.dedup import _MH_A, _MH_B, _MH_P, N_PERM

    if not shingles:
        return [_U64 - 1] * N_PERM
    p = int(_MH_P)
    out = []
    for a, b in zip(_MH_A.tolist(), _MH_B.tolist()):
        # replicate the engine's uint64 wrap-around affine transform
        out.append(min(((h * a + b) % _U64) % p for h in shingles))
    return out


def _py_jaccard(sa: list[int], sb: list[int]) -> float:
    if not sa and not sb:
        return 1.0
    inter = len(set(sa) & set(sb))
    return inter / (len(sa) + len(sb) - inter)


def sql_phash_neardup(n: int, max_hamming: int = 3) -> str:
    """Pure-SQL banded Hamming pair oracle over the decode-oracle
    phash column (uint64 → logical shifts; pigeonhole over 4×16-bit
    bands finds every pair with Hamming ≤ 3)."""
    iid_a = "'img' || lpad(CAST(ta AS VARCHAR), 12, '0')"
    iid_b = "'img' || lpad(CAST(tb AS VARCHAR), 12, '0')"
    band_joins = "\n      UNION\n".join(
        f"""      SELECT x.tile_id AS ta, y.tile_id AS tb
      FROM h x JOIN h y
        ON ((x.phash >> {16 * b}) & 65535) = ((y.phash >> {16 * b}) & 65535)
       AND x.tile_id < y.tile_id"""
        for b in range(4)
    )
    return f"""
    WITH h AS (SELECT tile_id, phash FROM read_parquet('{px_oracle_path(n)}')),
    cand AS (
{band_joins}
    )
    SELECT {iid_a} AS a, {iid_b} AS b,
           CAST(bit_count(xor(ha.phash, hb.phash)) AS BIGINT) AS hamming
    FROM cand JOIN h ha ON ha.tile_id = cand.ta
              JOIN h hb ON hb.tile_id = cand.tb
    WHERE bit_count(xor(ha.phash, hb.phash)) <= {max_hamming}
    """


# ---------------------------------------------------------------------------
# full-n kNN+IDW oracle: BRUTE-FORCE O(n²) distances in chunked numpy —
# independent of both the engine's grid-bucketed index (geo/knn.py
# GridKNN ring walk) and the sharded halo fan-out (stages/knn_sharded).
# The O(n²) SQL join form is infeasible at n=60k (3.6e9 pair rows), but
# the same mathematics as a chunked dense distance matrix is a ~seconds
# one-time pass, cached as a per-tile parquet the registered SQL reads.
# Reference semantics: the radius-capped FIA neighbor join,
# database_config_v3.py:104-114.
# ---------------------------------------------------------------------------


def knn_idw_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"knn_idw_n{n}_v1.parquet")


def _knn_idw_chunk(lo: int, hi: int, n: int, k: int) -> pa.Table:
    """Brute-force kNN+IDW for query ids [lo, hi) against all n tiles.

    Float parity with ``stages/knn_sharded._solve_shard``: identical
    expressions in identical order — d2 = dx*dx + dy*dy, neighbor order
    (d2, id) ascending, w = 1/(sqrt(d2) + 0.01), idw = Σwv/Σw over the
    k neighbors, half-away rounding to 6 — so equality is bitwise."""
    from ..functions import georef as G
    from ..functions.rounding import round_away
    from ..stages.knn_sharded import IDW_EPS

    all_ids = np.arange(n, dtype=np.int64)
    x, y = G.derive_lonlat(all_ids)
    values = G.derive_value(all_ids)
    q = np.arange(lo, hi, dtype=np.int64)
    dx = x[None, :] - x[q][:, None]
    dy = y[None, :] - y[q][:, None]
    d2 = dx * dx + dy * dy
    d2[np.arange(len(q)), q] = np.inf  # exclude self by id
    # pad absorbs (d2) ties at the k-boundary: the georef lattice is
    # exact binary, so mirrored offsets (and hash-collided duplicate
    # positions) produce EXACT float ties that argpartition may split
    # arbitrarily — candidates are re-ordered by (d2, id) and a
    # boundary-tie check falls back to a full row sort when the tie
    # group could extend past the pad window
    pad = min(k + 64, n - 1)
    part = np.argpartition(d2, pad - 1, axis=1)[:, :pad]
    idw = np.empty(len(q), dtype=np.float64)
    for r in range(len(q)):
        cand = part[r]
        cd2 = d2[r, cand]
        order = np.lexsort((all_ids[cand], cd2))
        sel = cand[order]
        if pad < n - 1 and cd2[order[k - 1]] == cd2[order[-1]]:
            full = np.lexsort((all_ids, d2[r]))  # rare: tie past pad
            sel = full
        nbr = sel[:k]
        d = np.sqrt(d2[r, nbr])
        wgt = 1.0 / (d + IDW_EPS)
        val = values[nbr]
        idw[r] = (wgt * val).sum() / wgt.sum()
    return pa.table(
        {
            "tile_id": pa.array(q),
            "knn_idw_value": pa.array(round_away(idw, 6)),
        }
    )


def ensure_knn_idw_oracle(n: int, k: int = 8, chunk: int = 16) -> str:
    """Generate (once, cached) the full-n brute-force kNN+IDW parquet —
    chunk-parallel via plain ``ray.remote`` when Ray is up (each chunk
    is still the sequential brute-force reference).

    ``chunk`` keeps each task's dense distance matrix small
    (16 × 60k × 8 B ≈ 7.7 MB): multi-MB fresh allocations in many
    concurrent workers page-fault-storm on this host class (see
    geo/knn.py ``_QUERY_BLOCK`` note)."""
    path = knn_idw_oracle_path(n)
    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    try:
        import ray

        ray_up = ray.is_initialized()
    except Exception:  # pragma: no cover
        ray_up = False
    if ray_up and len(bounds) > 1:
        import ray

        fn = ray.remote(_knn_idw_chunk)
        tables = ray.get([fn.remote(lo, hi, n, k) for lo, hi in bounds])
    else:
        tables = [_knn_idw_chunk(lo, hi, n, k) for lo, hi in bounds]
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(pa.concat_tables(tables), tmp)
    os.replace(tmp, path)
    return path


def sql_knn_idw_full(n: int) -> str:
    return (
        "SELECT tile_id, knn_idw_value "
        f"FROM read_parquet('{knn_idw_oracle_path(n)}')"
    )


# ---------------------------------------------------------------------------
# PSNR pair-verification oracle: candidate pairs re-derived with a
# SEQUENTIAL dict-of-buckets band walk (vs the engine's coarse-group
# shuffle exchange), pixels re-decoded by the sequential reference path
# (ground-truth make_pixels -> codec round-trip, same as the px oracle),
# and the MSE numerator computed as an exact integer so the registered
# SQL's "PSNR >= 40 dB" predicate (mse_num * 1e4 <= 65025 * n_px) is
# integer arithmetic on both sides.  North-rule bound: BASELINE.json
# input_hint "decoded-pixel allclose (PSNR>=40dB for lossy)".
# ---------------------------------------------------------------------------


def psnr_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"psnr_pairs_n{n}_v1.parquet")


def ensure_psnr_oracle(n: int, max_hamming: int = 3) -> str:
    path = psnr_oracle_path(n)
    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)
    from ..image import codecs
    from ..sources import tiles as T

    t = pq.read_table(ensure_px_oracle(n), columns=["tile_id", "phash"])
    tid = t["tile_id"].to_numpy()
    ph = t["phash"].to_numpy().astype(np.uint64)
    cand: set[tuple[int, int]] = set()
    for b in range(4):
        buckets: dict[int, list[int]] = {}
        band = ((ph >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
        for idx, v in enumerate(band):
            buckets.setdefault(int(v), []).append(idx)
        for lst in buckets.values():
            for x in range(len(lst)):
                for y in range(x + 1, len(lst)):
                    cand.add((lst[x], lst[y]))
    pairs = []
    for i, j in cand:
        hd = int(bin(int(ph[i]) ^ int(ph[j])).count("1"))
        if hd <= max_hamming:
            pairs.append((int(tid[i]), int(tid[j]), hd))
    pairs.sort()
    dec_cache: dict[int, np.ndarray] = {}

    def dec_of(i: int) -> np.ndarray:
        if i not in dec_cache:
            w, h, fidx = T.tile_dims(np.asarray([i], dtype=np.int64))
            fmt = T.FMTS[int(fidx[0])]
            dec_cache[i] = codecs.decode(
                codecs.encode(T.make_pixels(i), fmt), fmt, int(h[0]), int(w[0])
            )
        return dec_cache[i]

    rows = []
    for i, j, hd in pairs:
        da, db = dec_of(i), dec_of(j)
        if da.shape != db.shape:
            rows.append((i, j, hd, 0, 0))
            continue
        d = da.astype(np.int64).ravel() - db.astype(np.int64).ravel()
        rows.append((i, j, hd, int(d.size), int(np.dot(d, d))))
    tbl = pa.table(
        {
            "a": pa.array([f"img{r[0]:012d}" for r in rows], pa.string()),
            "b": pa.array([f"img{r[1]:012d}" for r in rows], pa.string()),
            "hamming": pa.array([r[2] for r in rows], pa.int64()),
            "n_px": pa.array([r[3] for r in rows], pa.int64()),
            "mse_num": pa.array([r[4] for r in rows], pa.int64()),
        }
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def sql_psnr_pairs(n: int) -> str:
    return f"""
    SELECT a, b, hamming, n_px, mse_num,
           CAST(CASE WHEN n_px > 0 AND mse_num * 10000 <= 65025 * n_px
                THEN 1 ELSE 0 END AS BIGINT) AS dup40
    FROM read_parquet('{psnr_oracle_path(n)}')
    """


# -- DBSCAN oracle ------------------------------------------------------------

def dbscan_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"dbscan_n{n}_v1.parquet")


def ensure_dbscan_oracle(n: int, chunk: int = 512) -> str:
    """Sequential brute-force DBSCAN mirror of stages/dbscan.py: same
    eps rule / minpts / deterministic labels (cluster = min core id of
    the component, border joins the min in-range core cluster, noise
    -1), computed with chunked all-pairs distances + union-find
    instead of the grid/CC machinery."""
    from ..functions import georef as G
    from ..stages.dbscan import MINPTS, dbscan_eps

    path = dbscan_oracle_path(n)
    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)

    ids = np.arange(n, dtype=np.int64)
    x, y = G.derive_lonlat(ids)
    eps = dbscan_eps(n, G.LON_SPAN * G.LAT_SPAN)
    eps2 = eps * eps

    cnt = np.zeros(n, dtype=np.int64)
    for s in range(0, n, chunk):
        d2 = (x[s : s + chunk, None] - x[None, :]) ** 2 + (
            y[s : s + chunk, None] - y[None, :]
        ) ** 2
        cnt[s : s + chunk] = (d2 <= eps2).sum(axis=1)
    core = cnt >= MINPTS
    ci = np.flatnonzero(core)
    cx_, cy_ = x[ci], y[ci]

    parent = np.arange(n, dtype=np.int64)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return int(i)

    for s in range(0, len(ci), chunk):
        d2 = (cx_[s : s + chunk, None] - cx_[None, :]) ** 2 + (
            cy_[s : s + chunk, None] - cy_[None, :]
        ) ** 2
        ii, jj = np.nonzero(d2 <= eps2)
        for a, b in zip(ii, jj):
            ga, gb = int(ci[s + a]), int(ci[b])
            if ga < gb:
                ra, rb = find(ga), find(gb)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    lbl = np.full(n, -1, dtype=np.int64)
    rmin: dict[int, int] = {}
    for i in ci:
        r = find(int(i))
        rmin[r] = min(rmin.get(r, int(i)), int(i))
    for i in ci:
        lbl[i] = rmin[find(int(i))]

    bi = np.flatnonzero(~core)
    for s in range(0, len(bi), chunk):
        sel = bi[s : s + chunk]
        d2 = (x[sel, None] - cx_[None, :]) ** 2 + (
            y[sel, None] - cy_[None, :]
        ) ** 2
        inr = d2 <= eps2
        for r in range(len(sel)):
            js = np.flatnonzero(inr[r])
            if len(js):
                lbl[sel[r]] = lbl[ci[js]].min()

    tbl = pa.table(
        {
            "tile_id": pa.array(ids, pa.int64()),
            "cluster": pa.array(lbl, pa.int64()),
        }
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def sql_tile_dbscan(n: int) -> str:
    return (
        "SELECT tile_id, cluster "
        f"FROM read_parquet('{dbscan_oracle_path(n)}')"
    )


# ---------------------------------------------------------------------------
# per-county convex hull (gift-wrapping mirror of stages/hull.py)
# ---------------------------------------------------------------------------


def hull_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"hull_n{n}_v1.parquet")


def ensure_hull_oracle(n: int) -> str:
    """Sequential per-county convex hull by Jarvis gift wrapping — an
    algorithm the engine does NOT use (stages/hull.py runs Andrew's
    monotone chain over distributed min/max-per-x-column partials), so
    vertex sets, orientation and metrics are cross-checked between two
    independent formulations.

    One reduction is shared because it is a plain geometric fact, not an
    implementation choice: a point that is not the y-extreme of its
    x-column lies on the open segment between those extremes and can
    never be a strict hull vertex, so wrapping the ≤ 2·x-span extreme
    points equals wrapping all points.

    Metrics are computed by the documented canonical expression (CCW
    vertex array starting at the lexicographic minimum; integer
    shoelace; ``np.sum(np.hypot(...))`` over that fixed order) so the
    float perimeter is bit-identical on both sides.
    """
    from ..functions import georef as G
    from ..functions.rounding import round_away

    path = hull_oracle_path(n)
    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)

    ids = np.arange(n, dtype=np.int64)
    key = G.derive_key(ids)
    kx = (key % G.GRID).astype(np.int64)
    ky = ((key // G.GRID) % G.GRID).astype(np.int64)
    lon, lat = G.derive_lonlat(ids)
    cx, cy = G.derive_county_xy(lon, lat)
    fips = G.county_fips_from_xy(cx, cy)

    def wrap(pts: np.ndarray) -> np.ndarray:
        m = len(pts)
        if m <= 2:
            return pts
        start = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
        hull = [start]
        cur = start
        while True:
            cand = -1
            for j in range(m):
                if j == cur:
                    continue
                if cand < 0:
                    cand = j
                    continue
                ax = pts[cand, 0] - pts[cur, 0]
                ay = pts[cand, 1] - pts[cur, 1]
                bx = pts[j, 0] - pts[cur, 0]
                by = pts[j, 1] - pts[cur, 1]
                cross = ax * by - ay * bx
                if cross < 0 or (
                    cross == 0 and bx * bx + by * by > ax * ax + ay * ay
                ):
                    cand = j
            if cand == start or cand < 0:
                break
            hull.append(cand)
            cur = cand
        return pts[np.array(hull, dtype=np.int64)]

    out_f, out_k, out_a, out_p = [], [], [], []
    for f in np.unique(fips):
        sel = fips == f
        x, y = kx[sel], ky[sel]
        # per-x-column y-extremes (see docstring), then gift-wrap
        order = np.lexsort((y, x))
        xs, ys = x[order], y[order]
        starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
        ends = np.r_[starts[1:], len(xs)] - 1
        cand = np.unique(
            np.concatenate(
                [
                    np.stack([xs[starts], ys[starts]], 1),
                    np.stack([xs[ends], ys[ends]], 1),
                ]
            ),
            axis=0,
        ).astype(np.int64)
        hull = wrap(cand)
        k = len(hull)
        if k < 2:
            area2, perim = 0, 0.0
        else:
            hx, hy = hull[:, 0], hull[:, 1]
            xn, yn = np.roll(hx, -1), np.roll(hy, -1)
            area2 = int(np.sum(hx * yn - xn * hy)) if k >= 3 else 0
            perim = float(
                np.sum(
                    np.hypot((xn - hx) * G.LON_STEP, (yn - hy) * G.LAT_STEP)
                )
            )
        out_f.append(str(f))
        out_k.append(k)
        out_a.append(area2)
        out_p.append(float(round_away(np.float64(perim), 9)))

    tbl = pa.table(
        {
            "county_fips": pa.array(out_f, pa.string()),
            "n_vertices": pa.array(out_k, pa.int64()),
            "area2_cells": pa.array(out_a, pa.int64()),
            "perim_deg": pa.array(out_p, pa.float64()),
        }
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def sql_county_hull(n: int) -> str:
    return (
        "SELECT county_fips, n_vertices, area2_cells, perim_deg "
        f"FROM read_parquet('{hull_oracle_path(n)}')"
    )


# ---------------------------------------------------------------------------
# mosaic oracle: per-ABSOLUTE-pixel max over overlapping tiles, reduced
# to county (n_px, snapped value sum).  Structurally independent of the
# engine's owner-computes bucketing (stages/mosaic.py): this path emits
# every in-domain pixel as a (key, val) row, takes a groupby-max over
# the flat key space (banded by key % 16, so memory stays bounded —
# _banded_pixel_oracle), and only then assigns counties — no spatial
# buckets, no canvas.  Grid spec (ix = 8kx+4-w/2+c,
# iy = 11ky+5+h/2-r, county = (ix//4096, iy//5632), domain
# [0,32768)x[0,45056)) mirrors the docstring contract in
# stages/mosaic.py; reference analog: Sentinel scene mosaicking via the
# per-county tile cache (src/core/blob_manager_v3.py:458-547).
# ---------------------------------------------------------------------------

_MOSAIC_DX = 32768  # county domain width in pixels
_MOSAIC_DY = 45056


def mosaic_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"mosaic_n{n}_v1.parquet")


def _mosaic_oracle_chunk(ids: np.ndarray) -> pa.Table:
    """(key = iy * 32768 + ix, val) rows for every in-domain pixel of
    the chunk's tiles, pre-reduced by a LOCAL groupby-max."""
    import pandas as pd

    from ..functions import georef as G
    from ..image import codecs
    from ..sources import tiles as T

    ids = np.asarray(ids, dtype=np.int64)
    keys_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    for i in ids:
        px = T.make_pixels(int(i))
        w_, h_, fidx = T.tile_dims(np.asarray([i], dtype=np.int64))
        w, h = int(w_[0]), int(h_[0])
        fmt = T.FMTS[int(fidx[0])]
        dec = codecs.decode(codecs.encode(px, fmt), fmt, h, w)
        red = dec[:, :, 0].astype(np.float64)
        nir = dec[:, :, 2].astype(np.float64)
        v = (nir - red) / (nir + red + 1.0)
        key = G.derive_key(np.asarray([i], dtype=np.int64))[0]
        kx = int(key % G.GRID)
        ky = int((key // G.GRID) % G.GRID)
        ix = 8 * kx + 4 - w // 2 + np.arange(w, dtype=np.int64)
        iy = 11 * ky + 5 + h // 2 - np.arange(h, dtype=np.int64)
        cm = (ix >= 0) & (ix < _MOSAIC_DX)
        rm = (iy >= 0) & (iy < _MOSAIC_DY)
        if not (cm.any() and rm.any()):
            continue
        kk = iy[rm, None] * _MOSAIC_DX + ix[None, cm]
        keys_parts.append(kk.ravel())
        vals_parts.append(v[np.ix_(rm, cm)].ravel())
    if not keys_parts:
        return pa.table(
            {"key": pa.array([], pa.int64()), "val": pa.array([], pa.float64())}
        )
    df = pd.DataFrame(
        {"key": np.concatenate(keys_parts), "val": np.concatenate(vals_parts)}
    )
    g = df.groupby("key", sort=False)["val"].max().reset_index()
    return pa.table(
        {
            "key": pa.array(g["key"].to_numpy(np.int64)),
            "val": pa.array(g["val"].to_numpy(np.float64)),
        }
    )


_PIXEL_BANDS = 16


def _banded_pixel_oracle(path, n, chunk, chunk_fn, band_reduce, columns):
    """Shared builder of the per-pixel mosaic oracles, in bounded memory.

    ``chunk_fn(ids)`` emits (key, values...) rows for the pixels of an
    id chunk, pre-reduced within the chunk; it runs as plain Ray tasks
    when a session is up.  As chunks arrive their rows are split into
    bands by ``key % _PIXEL_BANDS``.  A pixel lands in exactly one band,
    so ``band_reduce(rows)`` — the oracle's own flat-key groupby and
    per-pixel math, ending in per-county partials keyed ``c`` — sees
    all of a pixel's rows while only one band is grouped at a time.
    The partials are integer counts and 2^-20-lattice value sums, so
    adding them up is exact.  ``columns(county_sums)`` gives the
    oracle's columns after ``county_fips``; the table is written
    atomically to ``path``."""
    import pandas as pd

    if os.path.exists(path):
        return path
    os.makedirs(ORACLE_DIR, exist_ok=True)
    all_ids = np.arange(n, dtype=np.int64)
    chunks = [all_ids[lo : lo + chunk] for lo in range(0, n, chunk)]
    bands: list[list] = [[] for _ in range(_PIXEL_BANDS)]

    def split(tbl: pa.Table) -> None:
        df = tbl.to_pandas()
        band = df["key"].to_numpy() % _PIXEL_BANDS
        for b in range(_PIXEL_BANDS):
            bands[b].append(df[band == b])

    try:
        import ray

        ray_up = ray.is_initialized()
    except Exception:  # pragma: no cover
        ray_up = False
    if ray_up and len(chunks) > 1:
        fn = ray.remote(chunk_fn)
        pending = [fn.remote(c) for c in chunks]
        while pending:
            done, pending = ray.wait(pending, num_returns=1)
            split(ray.get(done[0]))
    else:
        for c in chunks:
            split(chunk_fn(c))
    partials = []
    for b in range(_PIXEL_BANDS):
        rows = pd.concat(bands[b], ignore_index=True)
        bands[b] = []
        if len(rows):
            partials.append(band_reduce(rows))
        del rows
    sums = pd.concat(partials).groupby("c", sort=True).sum().reset_index()
    tbl = pa.table(
        {
            "county_fips": pa.array(
                [f"{int(c):05d}" for c in sums["c"]], pa.string()
            ),
            **columns(sums),
        }
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def _pixel_county(key: np.ndarray) -> np.ndarray:
    """County code of flat pixel keys ``iy * 32768 + ix``."""
    from ..functions import georef as G

    iy, ix = key // _MOSAIC_DX, key % _MOSAIC_DX
    return G.FIPS_BASE + (iy // 5632) * G.COUNTY_NX + ix // 4096


def _county_value_sums(key: np.ndarray, vals: np.ndarray):
    """Per-county (n_px, val_sum) of one value per distinct pixel."""
    import pandas as pd

    return (
        pd.DataFrame({"c": _pixel_county(key), "v": vals})
        .groupby("c", sort=True)
        .agg(n_px=("v", "size"), val_sum=("v", "sum"))
        .reset_index()
    )


def _value_columns(name: str):
    """(n_px, ``name``) oracle columns from per-county value sums."""
    from ..functions.rounding import round_away

    return lambda s: {
        "n_px": pa.array(s["n_px"].to_numpy(np.int64)),
        name: pa.array(
            round_away(s["val_sum"].to_numpy(np.float64), 6), pa.float64()
        ),
    }


def _mosaic_band(df):
    from ..functions.rounding import snap_binary

    g = df.groupby("key", sort=False)["val"].max()
    return _county_value_sums(
        g.index.to_numpy(np.int64), snap_binary(g.to_numpy(np.float64))
    )


def ensure_mosaic_oracle(n: int, chunk: int = 2048) -> str:
    """Generate (once, cached) the 64-row county mosaic oracle."""
    return _banded_pixel_oracle(
        mosaic_oracle_path(n),
        n,
        chunk,
        _mosaic_oracle_chunk,
        _mosaic_band,
        _value_columns("mosaic_sum"),
    )


def sql_county_mosaic(n: int) -> str:
    return (
        "SELECT county_fips, n_px, mosaic_sum "
        f"FROM read_parquet('{mosaic_oracle_path(n)}')"
    )


# ---------------------------------------------------------------------------
# coverage-depth oracle: per-absolute-pixel covering-tile COUNT, banded
# (1 / 2 / ≥3) per county.  Structurally independent of the engine's
# count-canvas bucketing (stages/mosaic.composite_bucket): this path
# emits every in-domain pixel key and takes one groupby-count over the
# flat key space (banded by key, _banded_pixel_oracle).
# Pure arithmetic — no decode.
# ---------------------------------------------------------------------------


def depth_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"depth_n{n}_v1.parquet")


def _depth_oracle_chunk(ids: np.ndarray) -> pa.Table:
    import pandas as pd

    from ..functions import georef as G
    from ..sources import tiles as T

    ids = np.asarray(ids, dtype=np.int64)
    w_, h_, _ = T.tile_dims(ids)
    key = G.derive_key(ids)
    kx = (key % G.GRID).astype(np.int64)
    ky = ((key // G.GRID) % G.GRID).astype(np.int64)
    w = w_.astype(np.int64)
    h = h_.astype(np.int64)
    ix0 = 8 * kx + 4 - w // 2
    iy1 = 11 * ky + 5 + h // 2
    parts: list[np.ndarray] = []
    for j in range(len(ids)):
        ix = ix0[j] + np.arange(w[j], dtype=np.int64)
        iy = iy1[j] - np.arange(h[j], dtype=np.int64)
        ix = ix[(ix >= 0) & (ix < _MOSAIC_DX)]
        iy = iy[(iy >= 0) & (iy < _MOSAIC_DY)]
        if len(ix) == 0 or len(iy) == 0:
            continue
        parts.append((iy[:, None] * _MOSAIC_DX + ix[None, :]).ravel())
    if not parts:
        return pa.table(
            {"key": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
        )
    df = pd.DataFrame({"key": np.concatenate(parts)})
    g = df.groupby("key", sort=False).size().reset_index(name="cnt")
    return pa.table(
        {
            "key": pa.array(g["key"].to_numpy(np.int64)),
            "cnt": pa.array(g["cnt"].to_numpy(np.int64)),
        }
    )


def _depth_band(df):
    import pandas as pd

    g = df.groupby("key", sort=False)["cnt"].sum()
    band = np.minimum(g.to_numpy(np.int64), 3)
    return (
        pd.DataFrame(
            {
                "c": _pixel_county(g.index.to_numpy(np.int64)),
                "b": band,
                "one": np.ones(len(band), np.int64),
            }
        )
        .groupby(["c", "b"], sort=True)["one"]
        .sum()
        .unstack(fill_value=0)
        .reindex(columns=[1, 2, 3], fill_value=0)
        .reset_index()
    )


def ensure_depth_oracle(n: int, chunk: int = 4096) -> str:
    return _banded_pixel_oracle(
        depth_oracle_path(n),
        n,
        chunk,
        _depth_oracle_chunk,
        _depth_band,
        lambda s: {
            "d1": pa.array(s[1].to_numpy(np.int64)),
            "d2": pa.array(s[2].to_numpy(np.int64)),
            "d3p": pa.array(s[3].to_numpy(np.int64)),
        },
    )


def sql_overlap_depth(n: int) -> str:
    return (
        "SELECT county_fips, d1, d2, d3p "
        f"FROM read_parquet('{depth_oracle_path(n)}')"
    )


# ---------------------------------------------------------------------------
# MEAN-composite mosaic oracle: per-pixel (Σ snap(v), count) via global
# groupby over flat pixel keys, mean = snap(S/n), county (n_px, Σ mean).
# ---------------------------------------------------------------------------


def mosaic_mean_oracle_path(n: int) -> str:
    return os.path.join(ORACLE_DIR, f"mosaic_mean_n{n}_v1.parquet")


def _mosaic_mean_chunk(ids: np.ndarray) -> pa.Table:
    import pandas as pd

    from ..functions import georef as G
    from ..functions.rounding import snap_binary
    from ..image import codecs
    from ..sources import tiles as T

    ids = np.asarray(ids, dtype=np.int64)
    keys_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    for i in ids:
        px = T.make_pixels(int(i))
        w_, h_, fidx = T.tile_dims(np.asarray([i], dtype=np.int64))
        w, h = int(w_[0]), int(h_[0])
        fmt = T.FMTS[int(fidx[0])]
        dec = codecs.decode(codecs.encode(px, fmt), fmt, h, w)
        red = dec[:, :, 0].astype(np.float64)
        nir = dec[:, :, 2].astype(np.float64)
        v = snap_binary((nir - red) / (nir + red + 1.0))
        key = G.derive_key(np.asarray([i], dtype=np.int64))[0]
        kx = int(key % G.GRID)
        ky = int((key // G.GRID) % G.GRID)
        ix = 8 * kx + 4 - w // 2 + np.arange(w, dtype=np.int64)
        iy = 11 * ky + 5 + h // 2 - np.arange(h, dtype=np.int64)
        cm = (ix >= 0) & (ix < _MOSAIC_DX)
        rm = (iy >= 0) & (iy < _MOSAIC_DY)
        if not (cm.any() and rm.any()):
            continue
        kk = iy[rm, None] * _MOSAIC_DX + ix[None, cm]
        keys_parts.append(kk.ravel())
        vals_parts.append(v[np.ix_(rm, cm)].ravel())
    if not keys_parts:
        return pa.table(
            {
                "key": pa.array([], pa.int64()),
                "s": pa.array([], pa.float64()),
                "n": pa.array([], pa.int64()),
            }
        )
    df = pd.DataFrame(
        {"key": np.concatenate(keys_parts), "v": np.concatenate(vals_parts)}
    )
    g = df.groupby("key", sort=False)["v"].agg(["sum", "size"]).reset_index()
    return pa.table(
        {
            "key": pa.array(g["key"].to_numpy(np.int64)),
            "s": pa.array(g["sum"].to_numpy(np.float64)),
            "n": pa.array(g["size"].to_numpy(np.int64)),
        }
    )


def _mosaic_mean_band(df):
    from ..functions.rounding import snap_binary

    g = df.groupby("key", sort=False).agg(s=("s", "sum"), n=("n", "sum"))
    mean = snap_binary(g["s"].to_numpy(np.float64) / g["n"].to_numpy(np.float64))
    return _county_value_sums(g.index.to_numpy(np.int64), mean)


def ensure_mosaic_mean_oracle(n: int, chunk: int = 2048) -> str:
    return _banded_pixel_oracle(
        mosaic_mean_oracle_path(n),
        n,
        chunk,
        _mosaic_mean_chunk,
        _mosaic_mean_band,
        _value_columns("mean_sum"),
    )


def sql_county_mosaic_mean(n: int) -> str:
    return (
        "SELECT county_fips, n_px, mean_sum "
        f"FROM read_parquet('{mosaic_mean_oracle_path(n)}')"
    )
