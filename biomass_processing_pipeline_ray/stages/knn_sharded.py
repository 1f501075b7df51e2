"""Block-sharded kNN: local indexes over blocks of cells with a one-cell
halo — the 10¹²-row path.

The broadcast :class:`~.knn_stitch.KNNStitcher` holds EVERY tile
centroid in each actor; that is fine to ~10⁷ rows and impossible at the
10¹²-row design point.  This stage shards the kNN spatially instead
(SURVEY.md §7.4 "actor state size"):

1. **Cells and shards.**  The georef domain is cut into square lon/lat
   cells of side ``cell_deg`` (tiles outside the domain count in its
   edge cells), and each shard is an ``m × m`` block of those cells.
   ``m`` is the largest side that still leaves at least 2 shards per
   cluster CPU (:func:`_shard_side`).
2. **Fan-out** (the map side of :func:`~.exchange.exchange`): each
   tile emits one row (narrow columns only — id, lon, lat, value, home
   flag) into every distinct shard that holds its own cell or one of its
   8 neighbour cells.  Only tiles in a block's border cells reach more
   than one shard: at 0.5° and ``m = 4`` the 30k-tile universe fans out
   to ~1.7 rows per tile, where one shard per cell (``m = 1``) sends
   ~7.8.
3. **Solve** (its reduce side): the shard id is the partition, so each
   shard's rows go straight to one reduce task, with no sample or sort.
   That task builds ONE local :class:`~..geo.knn.GridKNN` over the
   shard's rows (home ∪ halo) in numpy and answers its home queries.

Halo contract: every home query sees the full 3×3 cell block around its
own cell, and every tile outside that block is at least ``cell_deg``
away, so an answer whose k-th neighbour is closer than ``cell_deg`` is
exact — the same radius-cap contract as the reference's
``ST_DWithin(…, 0.1°) LIMIT 50`` join (``database_config_v3.py:104-114``).
The solve checks it for every home query and raises ``ValueError`` when
it fails, except in a shard whose block plus halo covers the whole
domain: that shard holds every tile, so its answer is exact for any k.
The registry queries (``q_knn_idw_sharded[_capped]``) rely on that below
a measured universe size, where one cell covers the whole domain.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..functions import georef as G
from ..functions.rounding import round_away
from ..geo.knn import GridKNN
from .exchange import exchange

IDW_EPS = 0.01
RESULT_SCHEMA = pa.schema([("tile_id", pa.int64()), ("knn_idw_value", pa.float64())])


def _cell_grid(cell_deg: float) -> tuple[int, int]:
    """(columns, rows) of ``cell_deg`` cells over the georef domain."""
    return math.ceil(G.LON_SPAN / cell_deg), math.ceil(G.LAT_SPAN / cell_deg)


def _shard_side(cell_deg: float, cpus: int) -> int:
    """Largest block side m whose m × m blocks still number at least 2
    per CPU over the cell grid (e.g. 0.5° cells, 2 CPUs: 88 cells → 4)."""
    ncx, ncy = _cell_grid(cell_deg)
    return max(1, math.isqrt(ncx * ncy // (2 * max(cpus, 1))))


def _fan_out(batch: pa.Table, cell_deg: float, m: int) -> pa.Table:
    """Each tile → one row per distinct shard holding its cell or one of
    its 8 neighbours; ``is_home`` marks the shard of its own cell."""
    ncx, ncy = _cell_grid(cell_deg)
    nby = -(-ncy // m)
    ids = batch["tile_int_id"].to_numpy()
    lon = batch["lon"].to_numpy()
    lat = batch["lat"].to_numpy()
    val = batch["value"].to_numpy()
    # tiles outside the domain fall into its edge cells: clipping moves
    # no two cells apart, so the 3×3 block still holds every tile
    # closer than cell_deg
    cx = np.clip(np.floor((lon - G.LON0) / cell_deg), 0, ncx - 1).astype(np.int64)
    cy = np.clip(np.floor((lat - G.LAT0) / cell_deg), 0, ncy - 1).astype(np.int64)
    offs = np.arange(-1, 2)
    sx = np.clip(cx[:, None] + offs, 0, ncx - 1) // m
    sy = np.clip(cy[:, None] + offs, 0, ncy - 1) // m
    shards = (sx[:, :, None] * nby + sy[:, None, :]).reshape(len(ids), 9)
    shards.sort(axis=1)
    first = np.ones(shards.shape, dtype=bool)
    first[:, 1:] = shards[:, 1:] != shards[:, :-1]
    row = np.nonzero(first)[0]
    shard = shards[first]
    home = (cx // m) * nby + cy // m
    return pa.table(
        {
            "shard": pa.array(shard),
            "tile_int_id": pa.array(ids[row]),
            "lon": pa.array(lon[row]),
            "lat": pa.array(lat[row]),
            "value": pa.array(val[row]),
            "is_home": pa.array(shard == home[row]),
        }
    )


def _holds_domain(shard: int, cell_deg: float, m: int) -> bool:
    """Does this shard's block plus its one-cell halo cover every cell?"""
    ncx, ncy = _cell_grid(cell_deg)
    bx, by = divmod(int(shard), -(-ncy // m))
    return bx * m <= 1 and (bx + 1) * m >= ncx - 1 and by * m <= 1 and (by + 1) * m >= ncy - 1


def _solve_shard(g: dict, k: int, round_idw: int | None, cell_deg: float, m: int) -> dict:
    home = g["is_home"]
    if not home.any():
        return {"tile_id": np.empty(0, dtype=np.int64), "knn_idw_value": np.empty(0)}
    # the fan-out sends a tile to a shard at most once
    index = GridKNN(g["lon"], g["lat"], g["tile_int_id"])
    values = g["value"]
    qids = g["tile_int_id"][home]
    idx, d2 = index.query(g["lon"][home], g["lat"][home], qids, k)
    kth = np.sqrt(d2.max(axis=1, initial=0.0))
    if not (kth < cell_deg).all() and not _holds_domain(g["shard"][0], cell_deg, m):
        raise ValueError(
            f"knn_idw_sharded: cell_deg={cell_deg} breaks the halo contract, "
            f"the largest k-th neighbour distance in a shard is {kth.max():.6g}° (k={k})"
        )
    valid = idx >= 0
    safe = np.clip(idx, 0, None)
    d = np.sqrt(d2)
    wgt = np.where(valid, 1.0 / (d + IDW_EPS), 0.0)
    val = np.where(valid, values[safe], 0.0)
    denom = wgt.sum(axis=1)
    idw = np.divide(
        (wgt * val).sum(axis=1), denom, out=np.zeros(len(qids)), where=denom > 0
    )
    if round_idw is not None:
        idw = round_away(idw, round_idw)
    return {"tile_id": qids.astype(np.int64), "knn_idw_value": idw}


def knn_idw_sharded(ds, k: int = 8, cell_deg: float = 0.5, round_idw: int | None = 6):
    """(tile_id, knn_idw_value) via block-sharded local kNN.

    ``ds`` must carry ``tile_int_id, lon, lat, value`` columns; raises
    ``ValueError`` if ``cell_deg`` is too small for the k-th neighbour
    distances of ``ds`` (module docstring).  The result is typed even
    when ``ds`` has no rows."""
    import ray

    m = _shard_side(cell_deg, int(ray.cluster_resources().get("CPU", 1)))
    ncx, ncy = _cell_grid(cell_deg)

    def solve(g: pa.Table) -> pa.Table:
        cols = {c: g[c].to_numpy() for c in g.column_names}
        return pa.table(_solve_shard(cols, k, round_idw, cell_deg, m))

    return exchange(
        ds,
        lambda b: _fan_out(b, cell_deg, m),
        "shard",
        lambda shard: shard,
        -(-ncx // m) * -(-ncy // m),
        solve,
        RESULT_SCHEMA,
    )
