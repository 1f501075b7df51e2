"""Flagship pipeline: tiles → georef → PIP → decode → cells → kNN →
zonal biomass.

End-to-end Ray-Data expression of the reference's county workflow
(``comprehensive_biomass_processor_v3.process_county_comprehensive``,
SURVEY.md §3.2), restructured for a streaming engine:

1. **One fused task stage** (:class:`TileGeoStage`, plus the
   read-fused :class:`TileGeoStageFused` for path inputs) runs the
   whole per-tile chain: georef (id → lon/lat, cheap arithmetic), PIP
   zone assignment (broadcast STRtree-analog), salt, resume filter,
   image decode + phash verify, hex/S2 encode, kNN IDW stitch.  The
   multi-GB image payload never crosses an operator boundary — decoded
   and dropped in the same process that PIP-labeled it.  The stage is
   built once on the driver and broadcast to plain Ray tasks: no job
   waits for an actor pool to start, and a finished job holds no CPU.
2. **Georef + PIP run BEFORE decode**: a tile's county is knowable
   from its id alone, so resume is a pre-decode filter (completed
   (county, salt) sub-partitions never decode again) — the reference
   instead paid county setup before every run (381 s of its 398 s
   benchmark, ``FULL_COUNTY_TEST_RESULTS.md:24-36``).
3. **Zonal aggregation** either through the engine's bounded-key
   combine, ``stages/zonal.county_zonal`` (bench/queries), or as the
   checkpointed path: salted
   ``(county_fips, salt)`` groups each writing an atomic partition +
   lineage record through the one sink, ``state.ckptwrite`` (north-rule
   skew key; a hot county becomes n_salts parallel tasks).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import georef as G
from ..sources.counties import rect_counties
from ..sources.tiles import read_tiles
from ..stages.cells import CellEncoder
from ..stages.decode import decode_batch
from ..stages.knn_stitch import KNNStitcher, centroid_sidecar
from ..stages.pip_join import PIPJoiner
from ..stages.zonal import zonal_aggregate
from ..state.checkpoint import CheckpointStore
from ..state.ckptwrite import checkpointed_partition_write, partition_id


def _georef_pip_stage(batch: pa.Table) -> pa.Table:
    """Cheap pre-decode georeferencing (id → lon/lat) for the PIP join."""
    from ..sources.tiles import image_ids_to_int

    ids = image_ids_to_int(batch["image_id"])
    lon, lat = G.derive_lonlat(ids)
    batch = batch.append_column("tile_int_id", pa.array(ids, pa.int64()))
    batch = batch.append_column("lon", pa.array(lon))
    return batch.append_column("lat", pa.array(lat))


class TileGeoStage:
    """The per-batch kernel composing georef → PIP → resume-filter →
    decode → cells → kNN over each Arrow batch.

    A single stage (instead of a PIP stage feeding a decode/kNN stage)
    keeps the wide image payload OUT of the object store between stages
    — the ``bytes`` column is decoded and dropped inside the same
    process that PIP-labeled it — and leaves the streaming executor
    only two CPU-hungry operators (read, this) to balance.  State
    (PolygonSet, GridKNN, cell encoder; reference A1–A3 analogs,
    SURVEY.md §2.3) is built once from the broadcast refs;
    ``build_assignments`` hands the built instance to ``map_batches``,
    which runs it as plain tasks.
    """

    def __init__(
        self,
        counties_ref,
        centroids_ref=None,
        k: int = 8,
        hex_res: int = 7,
        s2_level: int = 13,
        skip_partitions: frozenset | None = None,
        n_salts: int = 1,
        emit_clip: bool = False,
        emit_grad: bool = False,
        emit_thumb: bool = False,
        encode_cells: bool = True,
        stitch_knn: bool = True,
    ):
        self.emit_grad = emit_grad
        self.emit_thumb = emit_thumb
        self.pip = PIPJoiner(counties_ref=counties_ref)
        self.knn = (
            KNNStitcher(centroids_ref=centroids_ref, k=k)
            if stitch_knn and centroids_ref is not None
            else None
        )
        self.cells = CellEncoder(hex_res, s2_level) if encode_cells else None
        self.skip_parts = sorted(skip_partitions) if skip_partitions else None
        self.n_salts = max(1, int(n_salts))
        if emit_clip:
            import ray

            from ..stages.clipzonal import ClipContext

            # clip state parses the SAME broadcast counties table the
            # PIP joiner uses
            self.clip_ctx = ClipContext(ray.get(counties_ref))
        else:
            self.clip_ctx = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = _georef_pip_stage(batch)
        batch = self.pip(batch)
        # salt: deterministic sub-partition key defusing county-size skew
        # (north rule): a hot county becomes n_salts parallel groups
        salt = batch["tile_int_id"].to_numpy() % self.n_salts
        batch = batch.append_column("salt", pa.array(salt, pa.int64()))
        if self.skip_parts:
            part = partition_id(batch["county_fips"], batch["salt"])
            batch = batch.filter(
                pc.invert(pc.is_in(part, pa.array(self.skip_parts)))
            )
        batch = decode_batch(
            batch,
            clip_ctx=self.clip_ctx,
            emit_grad=self.emit_grad,
            emit_thumb=self.emit_thumb,
        )
        if self.cells is not None:
            batch = self.cells(batch)
        if self.knn is not None:
            batch = self.knn(batch)
        return batch


class TileGeoStageFused(TileGeoStage):
    """TileGeoStage with the parquet read fused into it.

    Input rows are FILE PATHS (``rd.from_items``); each task reads its
    file with pyarrow and runs the per-tile chain.  The multi-GB image
    payload never enters the object store at all (file → task heap →
    dropped after decode), and the executor schedules exactly one
    operator — no read-vs-map resource split.  Per-file task
    granularity keeps retries and backpressure (a failed file re-reads
    only itself)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        tables = [pq.read_table(p) for p in batch["item"].to_pylist()]
        return super().__call__(
            pa.concat_tables(tables) if len(tables) > 1 else tables[0]
        )


def _parquet_files(path: str) -> list[str]:
    import os

    return sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )


def build_assignments(
    tiles,
    counties: pa.Table | None = None,
    n_tiles: int | None = None,
    k: int = 8,
    hex_res: int = 7,
    s2_level: int = 13,
    skip_partitions: set[str] | None = None,
    n_salts: int = 1,
    emit_clip: bool = False,
    emit_grad: bool = False,
    emit_thumb: bool = False,
    encode_cells: bool = True,
    stitch_knn: bool = True,
):
    """Dataset of per-tile join-output rows (the reference's J1+J2+G3/G4).

    ``tiles`` is a Dataset or a path.  ``n_tiles`` sizes the broadcast
    kNN sidecar (derived arithmetically — no data pass needed).  A
    parquet directory goes through the fused-read stage (see
    :class:`TileGeoStageFused`); a Dataset or any other path through
    ``read_tiles``.  ``skip_partitions``: ids of completed partitions
    (``state.ckptwrite.partition_id``), filtered out before decode.
    """
    import os

    import ray

    paths: list[str] | None = None
    if isinstance(tiles, str):
        if os.path.isdir(tiles) and not tiles.endswith(".lance"):
            paths = _parquet_files(tiles)
        if paths is None:
            tiles = read_tiles(tiles)
    if counties is None:
        counties = rect_counties()
    if n_tiles is None:
        if paths is not None:
            import pyarrow.parquet as _pq

            n_tiles = sum(_pq.read_metadata(p).num_rows for p in paths)
        else:
            n_tiles = tiles.count()

    ncpus = int(ray.cluster_resources().get("CPU", 4))
    # batch size caps block count (map_batches bundles input blocks up
    # to batch_size): keep ≥4 batches per CPU in flight so the tasks
    # can use the whole machine even at test scale
    bs = int(np.clip(n_tiles // (ncpus * 4), 512, 8192))

    counties_ref = ray.put(counties)
    if stitch_knn:
        all_ids = np.arange(n_tiles, dtype=np.int64)
        lon, lat = G.derive_lonlat(all_ids)
        sidecar_ref = ray.put(
            centroid_sidecar(lon, lat, all_ids, G.derive_value(all_ids))
        )
    else:
        sidecar_ref = None

    # the stage (PolygonSet, GridKNN, clip rings) is built ONCE here;
    # Ray Data ships the built callable to every task through the
    # object store, so a task pays deserialization, never a rebuild
    kwargs = {
        "counties_ref": counties_ref,
        "centroids_ref": sidecar_ref,
        "k": k,
        "hex_res": hex_res,
        "s2_level": s2_level,
        "skip_partitions": (
            frozenset(skip_partitions) if skip_partitions else None
        ),
        "n_salts": n_salts,
        "emit_clip": emit_clip,
        "emit_grad": emit_grad,
        "emit_thumb": emit_thumb,
        "encode_cells": encode_cells,
        "stitch_knn": stitch_knn,
    }
    if paths is not None:
        import ray.data as rd

        return rd.from_items(paths).map_batches(
            TileGeoStageFused(**kwargs),
            batch_format="pyarrow",
            batch_size=1,  # one file per task: retry/backpressure unit
        )
    return tiles.map_batches(
        TileGeoStage(**kwargs), batch_format="pyarrow", batch_size=bs
    )


def biomass_zonal(tiles, counties=None, n_tiles=None, snap_sums: bool = False, **kw):
    """Fast path: assignments → ``zonal_aggregate`` Dataset.

    Corrupt tiles (``shape_ok == False``, NaN ndvi/biomass from decode
    error-isolation) are filtered BEFORE aggregation so a single bad
    payload cannot NaN-poison its county's sums; ``tile_count`` counts
    valid tiles only.  Tiles outside every county (``county_fips ==
    ""``) are dropped too — the same contract as the checkpointed path.

    The combine sums ndvi/biomass snapped to the 2^-20 lattice, so
    parallel partial sums equal a sequential oracle sum bit-wise (the
    correctness-gate float parity rule, see functions/rounding.py).
    ``snap_sums`` is accepted for older callers and has no effect.
    """
    ds = build_assignments(tiles, counties, n_tiles, **kw)

    def valid_rows(b: pa.Table) -> pa.Table:
        keep = pc.not_equal(b["county_fips"], "")
        if "shape_ok" in b.column_names:
            keep = pc.and_(keep, b["shape_ok"])
        return b.filter(keep)

    ds = ds.map_batches(valid_rows, batch_format="pyarrow")
    return zonal_aggregate(ds, sum_cols=("biomass", "ndvi"))


def _zonal_summary(t: pa.Table) -> dict:
    """One partition's checkpointed zonal sums.  Corrupt tiles (decode
    error-isolation → ``shape_ok=False``, NaN scalars) are archived in
    the partition parquet but excluded here: counts AND sums cover
    valid tiles only, as on the fast path.  Sums are unsnapped."""
    ok = t["shape_ok"].to_numpy()
    return {
        "tile_count": int(ok.sum()),
        "biomass_sum": float(t["biomass"].to_numpy()[ok].sum()),
        "ndvi_sum": float(t["ndvi"].to_numpy()[ok].sum()),
    }


def biomass_zonal_checkpointed(
    tiles,
    out_dir: str,
    counties: pa.Table | None = None,
    n_tiles: int | None = None,
    resume: bool = True,
    n_salts: int = 4,
    **kw,
) -> pd.DataFrame:
    """Checkpointed path: salted per-county partition writes + lineage.

    The write groupby runs on ``(county_fips, salt)`` with ``salt =
    tile_id % n_salts`` — the north rule's salted shuffle key: a county
    holding 30 % of all tiles becomes ``n_salts`` parallel groups
    instead of one straggler task.  Each sub-partition writes its
    parquet (``county_fips=X/part-{salt}.parquet``) and lineage record
    atomically; resume filters completed ``(county, salt)`` pairs out
    BEFORE decode, so a mid-run kill recomputes only missing
    sub-partitions and the final frame is identical to an uninterrupted
    run (FIXTURES.md §5; kill test in tests/test_kill_resume.py).
    """
    done = CheckpointStore(out_dir).completed() if resume else None
    ds = build_assignments(
        tiles, counties, n_tiles, skip_partitions=done, n_salts=n_salts, **kw
    )
    out = checkpointed_partition_write(
        ds, out_dir, "county_fips", _zonal_summary, ["image_id"], resume
    )
    out["ndvi_mean"] = out["ndvi_sum"] / out["tile_count"]
    return out.drop(columns=["ndvi_sum"])
