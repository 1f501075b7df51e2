"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pixel pipeline (tiles → decode → cells →
PIP → kNN → zonal biomass per county) at sf0.001 scale.  ``queries()``
exposes the tile engine's registry; ``oracle_sql()`` gives the DuckDB
twin of each entry at sf0.01.  Ray is initialised by the driver before
this module is imported — nothing here calls ``ray.init``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from biomass_processing_pipeline_ray.pipelines.queries import build_queries

_SF0001 = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pixel zonal-biomass pipeline at sf0.001 (6k tiles)."""
    from biomass_processing_pipeline_ray.pipelines.queries import q_zonal_biomass_px

    return q_zonal_biomass_px(_SF0001)


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: fn for name, (fn, _sql) in build_queries().items()}


def oracle_sql() -> dict[str, str]:
    from biomass_processing_pipeline_ray.pipelines.queries import (
        ensure_generated_oracles,
    )

    # materialize the /tmp oracle parquets some SQL strings read —
    # independent single-process reimplementations (pipelines/oracles.py)
    ensure_generated_oracles()
    return {
        name: sql for name, (_fn, sql) in build_queries().items() if sql is not None
    }
