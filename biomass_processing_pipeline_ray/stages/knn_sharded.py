"""Sharded kNN: per-cell local indexes with halo — the 10¹²-row path.

The broadcast :class:`~.knn_stitch.KNNStitcher` holds EVERY tile
centroid in each actor; that is fine to ~10⁷ rows and impossible at the
10¹²-row design point.  This stage shards the kNN by a coarse spatial
cell (SURVEY.md §7.4 "actor state size"):

1. **Fan-out** (`flat_map`-shaped ``map_batches``): each tile emits one
   row into its home cell and 8 halo rows into the neighboring cells
   (narrow columns only — id, lon, lat, value, home flag).  9× row
   amplification of ~40-byte rows is the documented halo cost.
2. **Co-partition** ``groupby(cell)``: each group builds a LOCAL
   :class:`~..geo.knn.GridKNN` over its candidates (home ∪ halo) and
   answers its own home queries.

Halo contract: a tile's answer is exact when its true k-th neighbor is
closer than ``cell_deg``, because every tile outside the 3×3 cell block
around its home cell is at least ``cell_deg`` away — the same
radius-cap contract as the reference's ``ST_DWithin(…, 0.1°) LIMIT 50``
join (``database_config_v3.py:104-114``).  Nothing checks it at run
time; the caller sizes ``cell_deg`` so that it holds.  The registry
queries (``q_knn_idw_sharded[_capped]``) derive it from the universe
size: below a measured size one cell covers the whole domain, so one
group holds every tile and the answer is exact for any k.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import georef as G
from ..functions.rounding import round_away
from ..geo.knn import GridKNN

IDW_EPS = 0.01


def _fan_out(batch: pa.Table, cell_deg: float) -> pa.Table:
    """Each tile → 1 home row + 8 halo rows into neighbor cells."""
    ids = batch["tile_int_id"].to_numpy()
    lon = batch["lon"].to_numpy()
    lat = batch["lat"].to_numpy()
    val = batch["value"].to_numpy()
    cx = np.floor((lon - G.LON0) / cell_deg).astype(np.int64)
    cy = np.floor((lat - G.LAT0) / cell_deg).astype(np.int64)
    n = len(ids)
    offs = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]
    cells, home = [], []
    for dx, dy in offs:
        # alias-free composite key: y occupies the low 32 bits with a
        # +2^31 bias, so negative neighbor coordinates (e.g. cy-1 at the
        # domain edge) can never collide with another column's cells
        cells.append((cx + dx) * (1 << 32) + (cy + dy + (1 << 31)))
        home.append(np.full(n, dx == 0 and dy == 0))
    return pa.table(
        {
            "cell": pa.array(np.concatenate(cells)),
            "tile_int_id": pa.array(np.tile(ids, 9)),
            "lon": pa.array(np.tile(lon, 9)),
            "lat": pa.array(np.tile(lat, 9)),
            "value": pa.array(np.tile(val, 9)),
            "is_home": pa.array(np.concatenate(home)),
        }
    )


def _solve_cell(g: pd.DataFrame, k: int, round_idw: int | None) -> pd.DataFrame:
    q = g[g["is_home"]]
    if len(q) == 0:
        return pd.DataFrame(
            {
                "tile_id": pd.Series([], dtype=np.int64),
                "knn_idw_value": pd.Series([], dtype=np.float64),
            }
        )
    # the fan-out sends a tile to 9 distinct cells: no tile twice here
    index = GridKNN(
        g["lon"].to_numpy(), g["lat"].to_numpy(), g["tile_int_id"].to_numpy()
    )
    values = g["value"].to_numpy()
    idx, d2 = index.query(
        q["lon"].to_numpy(), q["lat"].to_numpy(), q["tile_int_id"].to_numpy(), k
    )
    valid = idx >= 0
    safe = np.clip(idx, 0, None)
    d = np.sqrt(d2)
    wgt = np.where(valid, 1.0 / (d + IDW_EPS), 0.0)
    val = np.where(valid, values[safe], 0.0)
    denom = wgt.sum(axis=1)
    idw = np.divide(
        (wgt * val).sum(axis=1), denom, out=np.zeros(len(q)), where=denom > 0
    )
    if round_idw is not None:
        idw = round_away(idw, round_idw)
    return pd.DataFrame(
        {
            "tile_id": q["tile_int_id"].to_numpy().astype(np.int64),
            "knn_idw_value": idw,
        }
    )


def knn_idw_sharded(ds, k: int = 8, cell_deg: float = 0.5, round_idw: int | None = 6):
    """(tile_id, knn_idw_value) via cell-sharded local kNN.

    ``ds`` must carry ``tile_int_id, lon, lat, value`` columns."""
    fanned = ds.map_batches(
        lambda b: _fan_out(b, cell_deg), batch_format="pyarrow"
    )
    return fanned.groupby("cell").map_groups(
        lambda g: _solve_cell(g, k, round_idw), batch_format="pandas"
    )
