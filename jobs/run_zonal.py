"""Cluster entrypoint for the flagship zonal pipeline — the shape the
north rule launches with ``ray job submit``:

    ray job submit --working-dir . -- \\
        python jobs/run_zonal.py --tiles /data/tiles --out /data/zonal_out

On a cluster the driver connects to the existing Ray session; standalone
it starts a local one.  Resume is on by default: completed
(county, salt) sub-partitions are skipped before decode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# `python jobs/run_zonal.py` puts jobs/ (not the repo root) on sys.path;
# `ray job submit --working-dir .` handles workers, this handles the driver
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tiles", required=True, help="tile table dir (parquet/lance)")
    ap.add_argument("--out", required=True, help="checkpointed output dir")
    ap.add_argument("--n-tiles", type=int, default=None)
    ap.add_argument("--n-salts", type=int, default=4)
    ap.add_argument("--k", type=int, default=8)
    ap.add_argument("--no-resume", action="store_true")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False)  # cluster: address from env

    from biomass_processing_pipeline_ray.pipelines.biomass import (
        biomass_zonal_checkpointed,
    )

    t0 = time.time()
    df = biomass_zonal_checkpointed(
        args.tiles,
        args.out,
        n_tiles=args.n_tiles,
        resume=not args.no_resume,
        n_salts=args.n_salts,
        k=args.k,
    )
    wall = time.time() - t0
    with open(os.path.join(args.out, "_MANIFEST.json")) as f:
        manifest = json.load(f)
    print(
        json.dumps(
            {
                "counties": int(len(df)),
                "partitions_written": manifest["written"],
                "partitions_recovered": manifest["recovered"],
                "tiles": int(df.tile_count.sum()),
                "biomass_total": float(df.biomass_sum.sum()),
                "wall_sec": round(wall, 2),
                "out": args.out,
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
