"""FIXTURES.md §5 — hard-kill mid-run, restart, byte-identical output.

A subprocess runs the checkpointed pipeline on a 1-CPU session (one tile
task at a time); the parent SIGKILLs its whole process group once the
first county partitions are committed, then resumes in-process and
compares against an uninterrupted run.  (If the child happens to finish before the kill the
resume is a no-op and the equality assertion still holds.)
"""

import os
import signal
import subprocess
import sys
import time

import pandas as pd
import pytest

CHILD = """
import ray, os
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from biomass_processing_pipeline_ray.pipelines.biomass import biomass_zonal_checkpointed
biomass_zonal_checkpointed(os.environ["TILES"], os.environ["OUT"],
                           n_tiles=int(os.environ["NT"]))
ray.shutdown()
"""


def test_kill_mid_run_then_resume(ray_session, tiles_small, tmp_path):
    from biomass_processing_pipeline_ray.pipelines.biomass import (
        biomass_zonal_checkpointed,
    )

    out_full = str(tmp_path / "full")
    full = biomass_zonal_checkpointed(tiles_small, out_full, n_tiles=1000)

    out_kill = str(tmp_path / "killed")
    lineage_dir = os.path.join(out_kill, "_lineage")
    env = dict(
        os.environ,
        TILES=tiles_small,
        OUT=out_kill,
        NT="1000",
        PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD], env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # wait for the first committed partitions (they commit a few ms
    # apart), then hard-kill the session
    deadline = time.time() + 240
    while time.time() < deadline and proc.poll() is None:
        if os.path.isdir(lineage_dir) and len(os.listdir(lineage_dir)) >= 3:
            break
        time.sleep(0.01)
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)

    n_before = len(os.listdir(lineage_dir)) if os.path.isdir(lineage_dir) else 0
    resumed = biomass_zonal_checkpointed(tiles_small, out_kill, n_tiles=1000)
    assert n_before <= 64  # sanity: the kill left a partial (or full) run
    pd.testing.assert_frame_equal(
        full.reset_index(drop=True), resumed.reset_index(drop=True)
    )


def test_generic_checkpointed_write_resume(ray_session, tmp_path):
    """state/ckptwrite.checkpointed_partition_write: the sink the tile
    pipelines write through, on an arbitrary dataset and key (events by
    event_type here) — full run, resumed run, and invalidated-partition
    run must all return the identical summary frame, recomputing only
    what was invalidated."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from biomass_processing_pipeline_ray.state.checkpoint import CheckpointStore
    from biomass_processing_pipeline_ray.state.ckptwrite import (
        checkpointed_partition_write,
    )

    n = 3000
    rng = np.random.default_rng(5)
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "event_type": pa.array(
                np.array(["click", "view", "buy"])[rng.integers(0, 3, n)]
            ),
            "value": pa.array(np.round(rng.random(n), 6)),
            "salt": pa.array(np.arange(n, dtype=np.int64) % 2),
        }
    )

    def summarize(t):
        return {"row_count": t.num_rows, "value_sum": float(t["value"].to_numpy().sum())}

    def run(out):
        return checkpointed_partition_write(
            rd.from_arrow(tbl),
            out,
            key="event_type",
            summarize=summarize,
            sort_by=["event_id"],
        )

    out_dir = str(tmp_path / "ck")
    store = CheckpointStore(out_dir, key_name="event_type")
    full = run(out_dir)
    assert set(full.event_type) == {"click", "view", "buy"}
    assert int(full.row_count.sum()) == n
    assert len(store.completed()) == 6  # 3 types × 2 salts

    # resume: nothing recomputes, identical frame
    resumed = run(out_dir)
    pd.testing.assert_frame_equal(full, resumed)

    # invalidate one partition: only it recomputes; identical frame
    store.invalidate("view_s1")
    assert len(store.completed()) == 5
    again = run(out_dir)
    pd.testing.assert_frame_equal(full, again)
    assert len(store.completed()) == 6
    # data layout: hive dirs keyed by the partition column
    assert os.path.isdir(os.path.join(out_dir, "event_type=view"))
    assert os.path.exists(
        os.path.join(out_dir, "event_type=view", "part-1.parquet")
    )


SWEEP_CHILD = """
import ray, os
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from biomass_processing_pipeline_ray.pipelines.sweep import curation_sweep_checkpointed
curation_sweep_checkpointed(os.environ["TILES"], os.environ["OUT"],
                            n_tiles=int(os.environ["NT"]))
ray.shutdown()
"""


def test_sweep_kill_mid_run_then_resume(ray_session, tiles_small, tmp_path):
    """Hard-kill the checkpointed curation sweep mid-run; the resumed
    frame must equal an uninterrupted run bit-for-bit (FIXTURES.md §5
    contract, applied to the fused-decode job)."""
    import os
    import signal
    import subprocess
    import sys
    import time

    import pandas as pd

    from biomass_processing_pipeline_ray.pipelines.sweep import (
        curation_sweep_checkpointed,
    )

    out_full = str(tmp_path / "sweep_full")
    full = curation_sweep_checkpointed(tiles_small, out_full, n_tiles=1000)

    out_kill = str(tmp_path / "sweep_killed")
    lineage_dir = os.path.join(out_kill, "_lineage")
    env = dict(
        os.environ,
        TILES=tiles_small,
        OUT=out_kill,
        NT="1000",
        PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", SWEEP_CHILD], env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 240
    while time.time() < deadline and proc.poll() is None:
        if os.path.isdir(lineage_dir) and len(os.listdir(lineage_dir)) >= 3:
            break
        time.sleep(0.01)
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)

    resumed = curation_sweep_checkpointed(tiles_small, out_kill, n_tiles=1000)
    pd.testing.assert_frame_equal(
        full.reset_index(drop=True), resumed.reset_index(drop=True)
    )
