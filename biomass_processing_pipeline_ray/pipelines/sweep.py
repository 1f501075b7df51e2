"""Checkpointed curation sweep — the resumable form of the fused
single-decode pipeline (``queries.curation_sweep``).

ONE entropy decode of every payload produces all curation products
(zonal ndvi/biomass, polygon-clip pixel stats, integer gradient energy,
thumbnail stats), written as salted per-county parquet partitions with
per-partition lineage records through the checkpointed sink
(``state.ckptwrite``, reference parity:
``src/core/checkpoint_manager_v1.py``): a mid-run kill recomputes only
missing (county, salt) sub-partitions and the merged frame is identical
to an uninterrupted run.  At 100 TB this is THE curation job shape —
decode once, fan every product out of that pass, resume by partition.

The per-county products are defined once, here: :func:`curation_sums`
sums a batch per county and :func:`curation_finalize` rounds the merged
sums.  Each checkpointed partition is summed with ``curation_sums``;
the fast registry path (``queries.q_curation_sweep``) merges the
``curation_partial`` of each of its batches with ``SUM_COLS`` as
``stages/zonal.county_zonal`` sum products.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.rounding import round_away, snap_binary
from ..state.checkpoint import CheckpointStore
from ..state.ckptwrite import checkpointed_partition_write
from .biomass import build_assignments

SUM_COLS = (
    "tile_count", "biomass_sum", "ndvi_sum", "px_total", "px_in",
    "val_sum", "grad_sum", "thumb_mean_sum", "thumb_ph16_sum",
)


def curation_sums(b: pa.Table) -> pa.Table:
    """Per-county curation sums of a batch of decoded tiles, one row per
    ``county_fips`` in it.  Corrupt tiles (``shape_ok == False``) count
    nowhere.  Float sums are of lattice-snapped values, so any split of
    the tiles into batches sums to the same bits."""
    ok = b["shape_ok"].to_numpy(zero_copy_only=False)
    fips = np.asarray(b["county_fips"].to_pylist(), dtype=object).astype(str)
    uniq, inv = np.unique(fips, return_inverse=True)
    m = len(uniq)
    clip_ok = ok & b["clip_ok"].to_numpy(zero_copy_only=False)

    def fsum(vals: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return np.bincount(inv[mask], weights=vals[mask], minlength=m)

    def isum(vals: np.ndarray, mask: np.ndarray) -> np.ndarray:
        acc = np.zeros(m, dtype=np.int64)
        np.add.at(acc, inv[mask], vals[mask])
        return acc

    tm = snap_binary(round_away(b["thumb_mean"].to_numpy(), 6))
    ph16 = b["thumb_phash"].to_numpy() & np.int64(0xFFFF)
    return pa.table(
        {
            "county_fips": pa.array(uniq, pa.string()),
            "tile_count": pa.array(isum(np.ones(len(b), np.int64), ok)),
            "biomass_sum": pa.array(fsum(snap_binary(b["biomass"].to_numpy()), ok)),
            "ndvi_sum": pa.array(fsum(snap_binary(b["ndvi"].to_numpy()), ok)),
            "px_total": pa.array(isum(b["n_px"].to_numpy(), clip_ok)),
            "px_in": pa.array(isum(b["n_in"].to_numpy(), clip_ok)),
            "val_sum": pa.array(fsum(snap_binary(b["val_sum"].to_numpy()), clip_ok)),
            "grad_sum": pa.array(isum(b["grad"].to_numpy(), ok)),
            "thumb_mean_sum": pa.array(fsum(tm, ok)),
            "thumb_ph16_sum": pa.array(isum(ph16, ok)),
        }
    )


def partition_sums(t: pa.Table) -> dict:
    """One checkpoint partition's :func:`curation_sums` (it holds one
    county) as Python scalars; a zero-row partition sums to typed
    zeros."""
    s = curation_sums(t).drop_columns(["county_fips"])
    return {c: s[c].to_numpy().sum().item() for c in s.column_names}


def curation_partial(b: pa.Table) -> pa.Table:
    """Fast-path partial: :func:`curation_sums` of the tiles that fall
    in a county (``county_fips != ""``), as on the checkpointed path."""
    return curation_sums(b.filter(pc.not_equal(b["county_fips"], "")))


def curation_finalize(fips, sums) -> pa.Table:
    """Merged per-county sums → the ``curation_sweep`` column contract.
    ``fips`` holds the counties and ``sums[c]`` each ``SUM_COLS``
    column (a DataFrame or a ``county_zonal`` state)."""

    def ints(c: str) -> pa.Array:
        return pa.array(sums[c], pa.int64())

    def floats(c: str) -> np.ndarray:
        return np.asarray(sums[c], np.float64)

    cnt = floats("tile_count")
    return pa.table(
        {
            "county_fips": pa.array(fips, pa.string()),
            "tile_count": ints("tile_count"),
            "biomass_sum": pa.array(round_away(floats("biomass_sum"), 4)),
            "ndvi_mean": pa.array(round_away(floats("ndvi_sum") / cnt, 4)),
            "px_total": ints("px_total"),
            "px_in": ints("px_in"),
            "val_sum": pa.array(round_away(floats("val_sum"), 6)),
            "grad_sum": ints("grad_sum"),
            "thumb_mean_sum": pa.array(round_away(floats("thumb_mean_sum"), 6)),
            "thumb_ph16_sum": ints("thumb_ph16_sum"),
        }
    )


def curation_sweep_checkpointed(
    tiles,
    out_dir: str,
    n_tiles: int | None = None,
    resume: bool = True,
    n_salts: int = 4,
    **kw,
) -> pd.DataFrame:
    """Fused-decode curation products per county, checkpointed.

    Returns one row per county with the ``queries.curation_sweep``
    column contract (tile_count, biomass_sum, ndvi_mean, px_total,
    px_in, val_sum, grad_sum, thumb_mean_sum, thumb_ph16_sum).  All
    float sums are lattice-snapped before accumulation, so the merge of
    recovered + fresh sub-partition summaries is order-free and a
    resumed run reproduces the uninterrupted frame bit-for-bit.
    """
    done = CheckpointStore(out_dir).completed() if resume else None
    ds = build_assignments(
        tiles,
        n_tiles=n_tiles,
        skip_partitions=done,
        n_salts=n_salts,
        emit_clip=True,
        emit_grad=True,
        emit_thumb=True,
        encode_cells=False,
        stitch_knn=False,
        **kw,
    )
    sums = checkpointed_partition_write(
        ds,
        out_dir,
        "county_fips",
        partition_sums,
        ["image_id"],
        resume,
    )
    return curation_finalize(sums["county_fips"], sums).to_pandas()
