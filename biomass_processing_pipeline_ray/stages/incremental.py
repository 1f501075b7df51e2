"""Incremental (delta) aggregation — merge persisted aggregate state
with new arrivals, never rescanning the base.

Incremental-view-maintenance shape: a grouped aggregate over a 100 TB
base is computed ONCE, its per-group state (sums + counts — any
commutative mergeable partial composes the same way) persists as
parquet, and each delta batch folds in at O(|delta| + |state|) — the
cost the reference pays by re-running whole counties through the
pipeline on re-ingest (``production_processor_v3.py`` delete +
re-insert upsert).

Float parity: state and delta sums are lattice-snapped partials
(functions/rounding.py), so base-then-delta summation equals one-shot
whole-table summation bit-exactly in any merge order.

State lifecycle: written once per (input, params) version token under
an atomic ``_SUCCESS`` marker (stale-cache rule from the round-2
advice: the token participates in the path); a rerun reuses it, a
changed input or parameterization builds a fresh state directory.
"""

from __future__ import annotations

import os

import pyarrow as pa


def write_state(agg_ds, state_dir: str) -> str:
    """Persist an aggregated dataset as the reusable state (atomic:
    parquet + ``_SUCCESS``; a concurrent/failed writer leaves no
    half-state because readers key on the marker)."""
    marker = os.path.join(state_dir, "_SUCCESS")
    if os.path.exists(marker):
        return state_dir
    tmp = state_dir + ".building"
    import shutil

    shutil.rmtree(tmp, ignore_errors=True)
    agg_ds.write_parquet(tmp)
    shutil.rmtree(state_dir, ignore_errors=True)
    os.replace(tmp, state_dir)
    with open(marker, "w", encoding="utf-8") as f:
        f.write("ok")
    return state_dir


def merge_with_state(state_dir: str, delta_partials, keys: list[str],
                     sum_cols: list[str]):
    """Fold delta partials into the persisted state: one union + one
    bounded grouped sum (group cardinality rows, not table rows)."""
    import ray.data
    from ray.data.aggregate import Sum

    from .zonal import combine_partials

    cols = list(keys) + list(sum_cols)
    state = ray.data.read_parquet(state_dir, columns=cols)

    def project(b: pa.Table) -> pa.Table:
        # metadata-free so the union's shuffle-concat schema dedup keeps
        # its fast path (pandas footer dicts are unhashable)
        return b.select(cols).replace_schema_metadata(None)

    merged = state.map_batches(project, batch_format="pyarrow").union(
        delta_partials.map_batches(project, batch_format="pyarrow")
    )
    return combine_partials(merged, keys, [Sum(c, alias_name=c) for c in sum_cols])
