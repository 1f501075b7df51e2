"""Checkpoint store: per-partition lineage + metrics, resumable output.

Replaces the reference's ``processing_checkpoints`` Postgres table
(upsert per batch, ``database_manager_v3.py:529-614``; resume read
``comprehensive_biomass_processor_v3.py:139-149``) with an
object-store-friendly layout the north rule asks for:

    out_dir/
      county_fips=17001/part-*.parquet      (the data, one dir per zone)
      _lineage/17001.json                   (atomic completion marker:
                                             lineage record + metrics)
      _MANIFEST.json                        (driver-written summary,
                                             NOT consulted by resume)

Concurrency design: partition writers run in parallel Ray workers, so
the completion marker must be a single atomic, per-partition file — the
lineage json, written (temp file with a unique name + ``os.replace``)
AFTER the partition's parquet lands.  ``completed()`` scans the lineage
dir; there is no shared read-modify-write anywhere in the worker path
(a shared manifest updated per partition would lose updates under
concurrency).  Deleting a partition's lineage file invalidates exactly
that partition — the next run recomputes it idempotently.
"""

from __future__ import annotations

import json
import os
import time


class CheckpointStore:
    def __init__(self, out_dir: str, key_name: str = "county_fips"):
        self.out_dir = out_dir
        # hive-style data-dir key (``<key_name>=<value>/``); the
        # county layout is the default; the sink (state/ckptwrite.py)
        # passes its partition key name
        self.key_name = key_name
        self.lineage_dir = os.path.join(out_dir, "_lineage")
        os.makedirs(self.lineage_dir, exist_ok=True)
        self.manifest_path = os.path.join(out_dir, "_MANIFEST.json")

    def _atomic_write(self, path: str, payload: dict) -> None:
        tmp = f"{path}.tmp.{os.getpid()}.{time.monotonic_ns()}"
        with open(tmp, "w") as f:
            json.dump(payload, f)
        os.replace(tmp, path)

    # -- completion markers (source of truth: lineage dir) -------------------

    def completed(self) -> set[str]:
        if not os.path.isdir(self.lineage_dir):
            return set()
        return {
            name[:-5]
            for name in os.listdir(self.lineage_dir)
            if name.endswith(".json")
        }

    def mark_complete(self, partition: str, lineage: dict) -> None:
        """Atomically record a partition's lineage — the completion marker."""
        lineage = dict(lineage, partition=partition, completed_at=time.time())
        self._atomic_write(
            os.path.join(self.lineage_dir, f"{partition}.json"), lineage
        )

    def invalidate(self, partition: str) -> None:
        """Force recompute of one partition on the next run."""
        try:
            os.remove(os.path.join(self.lineage_dir, f"{partition}.json"))
        except FileNotFoundError:
            pass

    def lineage(self, partition: str) -> dict | None:
        lpath = os.path.join(self.lineage_dir, f"{partition}.json")
        if not os.path.exists(lpath):
            return None
        with open(lpath) as f:
            return json.load(f)

    def pending(self, partitions: list[str]) -> list[str]:
        done = self.completed()
        return [p for p in partitions if p not in done]

    # -- driver-side summary (never read by resume) --------------------------

    def finalize_manifest(self, written: int, recovered: int) -> None:
        """``written``/``recovered``: partitions this run wrote / took
        from an earlier run's lineage."""
        self._atomic_write(
            self.manifest_path,
            {
                "completed": sorted(self.completed()),
                "written": written,
                "recovered": recovered,
                "updated_at": time.time(),
            },
        )

    # -- partitioned data ----------------------------------------------------

    def partition_dir(self, partition: str) -> str:
        return os.path.join(self.out_dir, f"{self.key_name}={partition}")

    def write_partition(
        self,
        partition: str,
        table,
        lineage: dict,
        subdir: str | None = None,
        filename: str = "part-0.parquet",
    ) -> None:
        """Write one (sub-)partition's parquet atomically, then mark
        complete.  ``partition`` is the lineage key (e.g. ``17001_s2``);
        ``subdir`` the data directory key (e.g. ``17001``)."""
        import pyarrow.parquet as pq

        pdir = self.partition_dir(subdir if subdir is not None else partition)
        os.makedirs(pdir, exist_ok=True)
        tmp = os.path.join(
            pdir, f".{filename}.tmp.{os.getpid()}.{time.monotonic_ns()}"
        )
        pq.write_table(table, tmp)
        os.replace(tmp, os.path.join(pdir, filename))
        self.mark_complete(partition, lineage)
