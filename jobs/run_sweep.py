"""Cluster entrypoint for the checkpointed curation sweep — one fused
entropy decode producing every curation product (zonal ndvi/biomass,
clip pixel stats, gradient energy, thumbnail stats), written as salted
per-county parquet partitions with lineage.  The shape the north rule
launches with ``ray job submit``:

    ray job submit --working-dir . -- \\
        python jobs/run_sweep.py --tiles /data/tiles --out /data/sweep_out

Resume is on by default: completed (county, salt) sub-partitions are
skipped BEFORE decode, so a restarted job pays only for missing work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tiles", required=True, help="tile table dir (parquet/lance)")
    ap.add_argument("--out", required=True, help="checkpointed output dir")
    ap.add_argument("--n-tiles", type=int, default=None)
    ap.add_argument("--n-salts", type=int, default=4)
    ap.add_argument("--no-resume", action="store_true")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False)  # cluster: address from env

    from biomass_processing_pipeline_ray.pipelines.sweep import (
        curation_sweep_checkpointed,
    )

    t0 = time.time()
    df = curation_sweep_checkpointed(
        args.tiles,
        args.out,
        n_tiles=args.n_tiles,
        resume=not args.no_resume,
        n_salts=args.n_salts,
    )
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
                "grad_total": int(df.grad_sum.sum()),
                "wall_sec": round(time.time() - t0, 2),
                "out": args.out,
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
