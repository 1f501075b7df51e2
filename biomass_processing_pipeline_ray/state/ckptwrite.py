"""The checkpointed sink: salted per-key partition writes, lineage, resume.

The one implementation of the resumable-output protocol (reference
analog: the ``processing_checkpoints`` upsert+resume protocol,
``database_manager_v3.py:529-614``).  ``biomass_zonal_checkpointed``,
``curation_sweep_checkpointed`` and any other job write through it:

    sums = checkpointed_partition_write(
        ds, out_dir, key="county_fips", summarize=zonal_summary,
        sort_by=["image_id"],
    )

Contract (kill-tested in tests/test_kill_resume.py):

- ``ds`` carries the ``key`` column and an integer ``salt`` column (the
  north-rule skew defuser: a hot key becomes one group per salt; the
  caller derives it deterministically, e.g. ``id % n_salts``, so the
  salt is stable under resume).
- partition id = :func:`partition_id` ``(key, salt)`` = ``<key>_s<salt>``;
  each partition writes an idempotent parquet
  (``<key>=<v>/part-<salt>.parquet``) and then its atomic lineage
  marker holding the partition's summary — markers are the resume
  source of truth.
- a completed partition is SKIPPED on re-run and its summary recovered
  from lineage, so re-running after a kill recomputes only missing
  partitions and returns the identical frame.  Callers should ALSO
  push the skip upstream with ``CheckpointStore(out_dir).completed()``
  (the tile pipelines filter completed partitions before decode).
- rows whose key is ``""`` (outside every zone) are never written.
- ``_MANIFEST.json`` records how many partitions this run wrote and
  how many it recovered.
"""

from __future__ import annotations

import time

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.zonal import unreserved
from .checkpoint import CheckpointStore

# Arrow type of a summary value, by its Python type
_ARROW = {str: pa.string(), int: pa.int64(), float: pa.float64(), bool: pa.bool_()}


def partition_id(key, salt):
    """``<key>_s<salt>`` for one partition, or element-wise for Arrow
    arrays (the pre-decode resume filter)."""
    if isinstance(key, (pa.Array, pa.ChunkedArray)):
        return pc.binary_join_element_wise(key, pc.cast(salt, pa.string()), "_s")
    return f"{key}_s{int(salt)}"


def checkpointed_partition_write(
    ds,
    out_dir: str,
    key: str,
    summarize,
    sort_by: list[str] | None = None,
    resume: bool = True,
) -> pd.DataFrame:
    """Write ``ds`` as checkpointed ``(key, salt)`` partitions; return
    the per-key sums of the partition summaries (fresh + recovered),
    one row per key, sorted by key and deterministic under resume.

    ``summarize(table) -> dict``: a partition's sums as Python ``int`` /
    ``float`` values (called on every ``(key, salt)`` group, also the
    ones that are not written).  ``sort_by``: within-partition order
    before writing.  Summary columns are int64 / float64 by the Python
    type of each value.  When every row falls outside every zone the
    frame has zero rows but the summary's columns and types.  An input
    with no rows at all runs no group: its frame takes those columns
    and types from ``summarize`` of a zero-row table of ``ds``'s
    schema, which must return typed zero sums.  The write groupby is a
    barrier ``ds`` feeds, so ``ds`` runs ``stages.zonal.unreserved``.
    """
    ds = unreserved(ds)
    store = CheckpointStore(out_dir, key_name=key)
    done = store.completed() if resume else set()

    def write_subpart(tbl: pa.Table) -> pa.Table:
        kval = str(tbl[key][0].as_py())
        salt = int(tbl["salt"][0].as_py())
        part = partition_id(kval, salt)
        t0 = time.time()
        if sort_by:
            tbl = tbl.sort_by([(c, "ascending") for c in sort_by])
        summary = {key: kval, "salt": salt, **summarize(tbl)}
        # a group outside every zone, or one an earlier run completed
        # (the upstream filter should have dropped it), is not written;
        # its row still comes back, because to_pandas() drops the
        # columns of a Dataset with no rows
        written = kval != "" and part not in done
        if written:
            store.write_partition(
                part,
                tbl,
                {
                    "rows": tbl.num_rows,
                    "summary": summary,
                    "metrics": {"write_sec": time.time() - t0},
                    "stage": "checkpointed_partition_write",
                },
                subdir=kval,
                filename=f"part-{salt}.parquet",
            )
        row = {**summary, "written": written}
        return pa.table({c: pa.array([v], _ARROW[type(v)]) for c, v in row.items()})

    fresh = (
        ds.groupby([key, "salt"])
        .map_groups(write_subpart, batch_format="pyarrow")
        .to_pandas()
    )
    if len(fresh):
        fresh = fresh[fresh.pop("written")]
    recs = [store.lineage(p) for p in sorted(done)]
    recovered = pd.DataFrame([r["summary"] for r in recs if r and "summary" in r])
    if fresh.columns.empty and recovered.empty:
        # no group ran and nothing was recovered: the input has no rows
        zero = summarize(ds.schema().base_schema.empty_table())
        fresh = pa.schema(
            [(key, pa.string()), ("salt", pa.int64())]
            + [(c, _ARROW[type(v)]) for c, v in zero.items()]
        ).empty_table().to_pandas()
    # an empty frame joins no concat: it has no columns, or dtypes that
    # must not decide the merged ones
    subs = pd.concat([f for f in (fresh, recovered) if len(f)] or [fresh])
    # deterministic merge order (key, salt) so full == resumed bit-wise
    subs = subs.sort_values([key, "salt"], kind="mergesort")
    cols = [c for c in subs.columns if c not in (key, "salt")]
    out = subs.groupby(key, as_index=False)[cols].sum()
    store.finalize_manifest(written=len(fresh), recovered=len(recovered))
    return out
