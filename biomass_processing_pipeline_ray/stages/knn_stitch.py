"""kNN stitch stage: per tile, the k nearest neighbor tiles + IDW value.

Semantics from the reference's FIA radius join + inverse-distance
weighting (J2/G4): ``ORDER BY distance LIMIT k``
(``database_config_v3.py:112-113``) and weight ``1/(d + 0.01)``
(``forest_analyzer_v3.py:194-243``).  Neighbor order is the documented
deterministic total order (distance², id) so IDW sums are reproducible
(SURVEY.md §7.4).

The centroid side is materialized once on the driver (narrow columns:
int id, lon, lat, value — no image payload), its
:class:`~..geo.knn.GridKNN` is built once there, and the built
:class:`KNNStitcher` is broadcast to every ``map_batches`` task through
the object store (numpy arrays: zero-copy deserialization, no rebuild).

Scale path (10^12 tiles): ``stages/knn_sharded`` shards the tiles by
square lon/lat cell blocks with a one-cell halo — each task's index
then holds only a block-local neighborhood, which is exactly the
reference's radius-capped semantics (0.1°, LIMIT 50).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.rounding import round_away
from ..geo.knn import GridKNN

IDW_EPS = 0.01  # reference: forest_analyzer_v3.py:218 weight = 1/(d+0.01)


class KNNStitcher:
    def __init__(
        self,
        centroids_ref=None,
        centroids: dict | None = None,
        k: int = 8,
        round_idw: int | None = 6,
    ):
        if centroids is None:
            import ray

            centroids = ray.get(centroids_ref)
        self.index = GridKNN(centroids["lon"], centroids["lat"], centroids["id"])
        self.values = np.asarray(centroids["value"], dtype=np.float64)
        self.k = k
        self.round_idw = round_idw

    def __call__(self, batch: pa.Table) -> pa.Table:
        qx = batch["lon"].to_numpy()
        qy = batch["lat"].to_numpy()
        qids = batch["tile_int_id"].to_numpy()
        idx, d2 = self.index.query(qx, qy, qids, self.k)
        valid = idx >= 0
        safe_idx = np.clip(idx, 0, None)
        nbr_ids = self.index.ids[safe_idx]
        # IDW over the (distance, id)-ordered neighbor list
        d = np.sqrt(d2)  # inf padding stays inf
        wgt = np.where(valid, 1.0 / (d + IDW_EPS), 0.0)
        val = np.where(valid, self.values[safe_idx], 0.0)
        denom = wgt.sum(axis=1)
        idw = np.divide(
            (wgt * val).sum(axis=1),
            denom,
            out=np.zeros(len(qx)),
            where=denom > 0,
        )
        if self.round_idw is not None:
            idw = round_away(idw, self.round_idw)
        knn_strs = [
            ",".join(str(int(i)) for i in nbr_ids[r][valid[r]]) for r in range(len(qx))
        ]
        batch = batch.append_column("knn_ids", pa.array(knn_strs, pa.string()))
        return batch.append_column("knn_idw_value", pa.array(idw, pa.float64()))


def centroid_sidecar(lon, lat, ids, values) -> dict:
    """Narrow dict the kNN index is built from (on the driver, once)."""
    return {
        "lon": np.asarray(lon, dtype=np.float64),
        "lat": np.asarray(lat, dtype=np.float64),
        "id": np.asarray(ids, dtype=np.int64),
        "value": np.asarray(values, dtype=np.float64),
    }
