"""Cluster entrypoints under ``jobs/``, run as subprocesses the way
``ray job submit`` runs them, against the test session's cluster."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_job(ray_session, script: str, *args: str) -> dict:
    env = dict(
        os.environ,
        RAY_ADDRESS=ray_session.get_runtime_context().gcs_address,
        PYTHONPATH=REPO,
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "jobs", script), *args],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    # Ray Data logs INFO lines to stdout too; the summary is the JSON line
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    return json.loads(lines[-1])


def _overlapping_tiles(path: str) -> str:
    """A two-file tile table whose footprints overlap: tiles whose
    (ix0, iy1) share a 16-px cell overlap (every footprint spans ≥ 32
    px per axis), plus 300 unselected ids."""
    import numpy as np
    import pyarrow.parquet as pq

    from biomass_processing_pipeline_ray.sources.tiles import gen_tiles_batch, tile_dims
    from biomass_processing_pipeline_ray.stages.mosaic import tile_pixel_extent

    cand = np.arange(120_000, dtype=np.int64)
    w, h, _ = tile_dims(cand)
    ix0, _, _, iy1 = tile_pixel_extent(cand, w, h)
    _, inv, cnt = np.unique(
        (ix0 // 16) * 1_000_000 + iy1 // 16, return_inverse=True, return_counts=True
    )
    shared = np.isin(inv, np.flatnonzero(cnt > 1)[:100])  # 100 whole cells
    ids = np.union1d(cand[shared], np.arange(300))
    os.makedirs(path)
    for k, part in enumerate(np.array_split(ids, 2)):
        pq.write_table(gen_tiles_batch(part), os.path.join(path, f"part-{k}.parquet"))
    return path


def test_run_mosaic_matches_separate_passes(ray_session, tmp_path):
    """run_mosaic's one ("max", "depth") pass prints the totals of, and
    writes the frames of, separate ("max",) and ("depth",) passes."""
    import pandas as pd
    import pyarrow.parquet as pq

    from biomass_processing_pipeline_ray.sources.tiles import read_tiles
    from biomass_processing_pipeline_ray.stages.mosaic import mosaic_zonal

    tiles = _overlapping_tiles(str(tmp_path / "tiles"))
    out = str(tmp_path / "mosout")
    got = _run_job(ray_session, "run_mosaic.py", "--tiles", tiles, "--out", out)

    def frame(ds) -> pd.DataFrame:
        return ds.to_pandas().sort_values("county_fips").reset_index(drop=True)

    mx = frame(
        mosaic_zonal(
            read_tiles(tiles, columns=["image_id", "bytes", "w", "h", "fmt"]),
            ("max",),
        )
    )
    dp = frame(
        mosaic_zonal(
            read_tiles(tiles, columns=["image_id", "w", "h"]), ("depth",)
        ).drop_columns(["n_px"])
    )
    d1, d2, d3p = (int(dp[c].sum()) for c in ("d1", "d2", "d3p"))
    assert d2 + d3p > 0, "fixture exercises no overlap"
    assert {k: got[k] for k in got if not k.endswith("_sec")} == {
        "counties": len(mx),
        "mosaic_px": int(mx["n_px"].sum()),
        "depth1_px": d1,
        "depth2_px": d2,
        "depth3p_px": d3p,
        "redundant_frac": round((d2 + d3p) / max(1, d1 + d2 + d3p), 4),
    }
    assert {"mosaic_sec", "depth_sec"} <= set(got)
    pd.testing.assert_frame_equal(frame(pq.read_table(os.path.join(out, "mosaic"))), mx)
    pd.testing.assert_frame_equal(frame(pq.read_table(os.path.join(out, "depth"))), dp)
