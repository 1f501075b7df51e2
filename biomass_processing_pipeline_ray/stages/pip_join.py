"""PIP join stage: tile centroid ∈ county polygon → county_fips column.

The broadcast-hash spatial join replacing the reference's PostGIS
``ST_Intersects`` join (J1, ``database_config_v3.py:82-92``) and the
GeoPandas STRtree path (``optimized_county_processor_v3.py:173-176``).

The county layer is tiny (3,143 polygons nationally) so it is
built into a :class:`~..geo.pip.PolygonSet` ONCE on the driver, and the
built :class:`PIPJoiner` is broadcast to every ``map_batches`` task
through the object store — no per-task rebuild, no long-lived actor, no
shuffle of the big side.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geo.pip import PolygonSet


def build_polygon_set(counties: pa.Table) -> PolygonSet:
    return PolygonSet(
        counties["county_fips"].to_pylist(),
        counties["geometry_wkb"].to_pylist(),
    )


class PIPJoiner:
    """Per-batch kernel adding ``county_fips`` ('' = outside)."""

    def __init__(self, counties_ref=None, counties: pa.Table | None = None):
        if counties is None:
            import ray

            counties = ray.get(counties_ref)
        self.pset = build_polygon_set(counties)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy()
        lat = batch["lat"].to_numpy()
        labels = self.pset.locate_labels(lon, lat)
        return batch.append_column(
            "county_fips", pa.array(labels.astype(str), pa.string())
        )
