"""Cluster entrypoint for the county mosaic + coverage-depth pair —
the scene-merge QA job (``ray job submit`` shape, like run_zonal):

    ray job submit --working-dir . -- \\
        python jobs/run_mosaic.py --tiles /data/tiles --out /data/mosaic_out

Runs the per-pixel-max county mosaic and the coverage-depth histogram
as ONE ``mosaic_zonal(ds, ("max", "depth"))`` pass (decode-once slice
shipping, owner-computes bucket canvases, push-based shuffle), writes
the two 64-row frames as parquet under --out/mosaic and --out/depth
(temp-dir + atomic swap; a re-run REPLACES the previous output), and
prints a one-line JSON summary.  ``mosaic_sec`` times the shared pass
plus the mosaic write; ``depth_sec`` times the depth write alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _swap_write(ds, out: str) -> None:
    tmp = f"{out}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(tmp)
    old = f"{out}.old.{os.getpid()}"
    if os.path.exists(out):
        os.replace(out, old)
    os.replace(tmp, out)
    shutil.rmtree(old, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tiles", required=True, help="tile table dir (parquet/lance)")
    ap.add_argument("--out", required=True, help="output dir (mosaic/ + depth/)")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False)  # cluster: address from env

    from biomass_processing_pipeline_ray.sources.tiles import read_tiles
    from biomass_processing_pipeline_ray.stages.mosaic import mosaic_zonal

    os.makedirs(args.out, exist_ok=True)
    t0 = time.time()
    both = mosaic_zonal(
        read_tiles(args.tiles, columns=["image_id", "bytes", "w", "h", "fmt"]),
        ("max", "depth"),
    ).materialize()
    mos = both.select_columns(["county_fips", "n_px", "mosaic_sum"])
    _swap_write(mos, os.path.join(args.out, "mosaic"))
    t1 = time.time()
    dep = both.select_columns(["county_fips", "d1", "d2", "d3p"])
    _swap_write(dep, os.path.join(args.out, "depth"))
    t2 = time.time()

    import pyarrow.parquet as pq

    m = pq.read_table(os.path.join(args.out, "mosaic"))
    d = pq.read_table(os.path.join(args.out, "depth"))
    d1 = sum(d["d1"].to_pylist())
    d2 = sum(d["d2"].to_pylist())
    d3p = sum(d["d3p"].to_pylist())
    print(
        json.dumps(
            {
                "counties": m.num_rows,
                "mosaic_px": int(sum(m["n_px"].to_pylist())),
                "depth1_px": int(d1),
                "depth2_px": int(d2),
                "depth3p_px": int(d3p),
                "redundant_frac": round((d2 + d3p) / max(1, d1 + d2 + d3p), 4),
                "mosaic_sec": round(t1 - t0, 2),
                "depth_sec": round(t2 - t1, 2),
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
