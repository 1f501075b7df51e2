"""Benchmark harness — the driver's per-round feedback loop.

Default mode: runs the headline pixel pipeline (tiles → decode → cells →
PIP → kNN → zonal biomass) plus a representative query set over
``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1).  The FINAL stdout line
is a compact JSON record (headline + a query subset + pointer to
``BENCH_FULL.json`` holding every per-query timing) sized to survive the
driver's bounded tail capture; the complete record is printed on an
earlier line and written to the file.  Fixture generation (cached under
/tmp) is excluded from timings.

``RAY_GRAFT_CPUS`` sets the session's ``num_cpus`` (default: the cores
this process may run on).
"""

from __future__ import annotations

import json
import os
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))

BENCH_QUERIES = [
    "zonal_biomass",
    "pip_assign",
    "hex_index",
    "knn_idw",
    "knn_idw_sharded",
    "county_fmt_hist",
    "pip_assign_jittered",
    "phash_neardup",
    "county_clip_stats",
    "image_thumbs",
    "county_quantiles",
    "hex_ring_smooth",
    "county_fmt_rollup",
    "county_gradient",
    "curation_sweep",
    "cell_pyramid",
    "county_top3_tiles",
    "psnr_verify_pairs",
    "cell_compact",
    "county_corr",
    "county_fmt_cube",
    "county_regression",
    "tile_dbscan",
    "county_gini",
    "county_hull",
    "county_mad",
    "county_coverage",
    "county_mosaic",
    "county_winsorized",
    "county_overlap_depth",
    "county_mosaic_mean",
    "county_mosaic_sweep",
]

# Names whose timings ride in the compact FINAL stdout line (the driver
# captures only a bounded tail of stdout, so the final line must stay
# small — BENCH_r04 lost its headline to a >2 KB line).  The full
# per-query dict goes to --queries-out (default BENCH_FULL.json, kept
# in the repo) and is also printed as an earlier, non-final line.
HEADLINE_QUERY_SUBSET = [
    "zonal_biomass",
    "pip_assign",
    "knn_idw_sharded",
    "county_clip_stats",
    "curation_sweep",
    "phash_neardup",
    "hex_ring_smooth",
]


def _consume(res) -> int:
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, (pd.DataFrame, pa.Table)):
        return len(res)
    return res.count()


def run_headline(sf_dir: str, trials: int = 2) -> tuple[float, int, int]:
    """(seconds, n_tiles, out_rows) for the flagship pixel pipeline.

    Takes the MIN of ``trials`` consecutive runs — the sandbox host has
    bursty noisy-neighbor contention (identical runs vary up to 2×) and
    min is the noise-robust estimator of the machine's true capability.
    """
    from biomass_processing_pipeline_ray.pipelines.queries import (
        q_zonal_biomass_px,
        tiles_path,
        universe_n,
    )

    tiles_path(sf_dir)  # generate/caches outside the timed section
    best, rows = float("inf"), 0
    for _ in range(trials):
        t0 = time.time()
        rows = _consume(q_zonal_biomass_px(sf_dir))
        best = min(best, time.time() - t0)
    return best, universe_n(sf_dir), rows


def bench(sf_dir: str, num_cpus: int, headline_only: bool = False) -> dict:
    import logging

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    # Silence the known-benign "RefBundle with a different schema …
    # new schema: ." warning: Ray's sort/groupby emits EMPTY blocks for
    # shuffle partitions that received no rows (e.g. 64 county groups
    # over 32+ sort partitions), and those blocks carry no schema.  It
    # is Ray-internal — reproducible with a 5-line rd.range + groupby
    # snippet, independent of UDFs (all group callbacks here already
    # return typed Arrow in every branch) — and drowns the bench tail.
    # A Filter (not setLevel — Ray re-applies its logging config per
    # dataset execution) on exactly this one message.
    class _DropEmptySchemaWarning(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            return "different schema" not in record.getMessage()

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_DropEmptySchemaWarning())
    from biomass_processing_pipeline_ray.pipelines.queries import build_queries, sf_of

    headline_sec, n_tiles, _ = run_headline(
        sf_dir, trials=int(os.environ.get("GRAFT_TRIALS", "3"))
    )
    out = {
        "metric": "headline pixel zonal pipeline wall-clock (sf dir)",
        "value": round(headline_sec, 3),
        "unit": "sec",
        "tiles_per_sec": round(n_tiles / headline_sec, 1),
        "counties_per_min": round(64 / headline_sec * 60.0, 1),
        "queries": {},
        "sf": sf_of(sf_dir),
        "num_cpus": num_cpus,
    }
    if not headline_only:
        import gc

        registry = build_queries()
        for name in BENCH_QUERIES:
            fn = registry[name][0]
            t0 = time.time()
            _consume(fn(sf_dir))
            out["queries"][name] = round(time.time() - t0, 3)
            # Ray Data execution plans hold ObjectRefs in reference
            # cycles; without an explicit collect the object store
            # keeps prior queries' blocks alive and late-ordered
            # entries pay spill churn (measured 2-4x inflation on the
            # tail of the list vs the same queries run solo).
            gc.collect()
    ray.shutdown()
    return out


def _emit(out: dict) -> None:
    """Print the result so the driver's bounded tail capture can parse
    the FINAL line.  Full per-query timings: earlier line + file; final
    line: headline + a small query subset + pointer to the file."""
    full_line = json.dumps(out)
    if len(full_line) < 1500 or not out.get("queries"):
        print(full_line)
        return
    print(full_line)  # complete record for humans / logs (non-final)
    qfile = os.environ.get("GRAFT_QUERIES_OUT", "BENCH_FULL.json")
    try:
        with open(qfile, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
    except OSError:
        qfile = None
    q = out["queries"]
    compact = {
        **{k: v for k, v in out.items() if k != "queries"},
        "queries": {n: q[n] for n in HEADLINE_QUERY_SUBSET if n in q},
        "n_queries": len(q),
        "queries_total_sec": round(sum(q.values()), 1),
        "queries_file": qfile,
    }
    print(json.dumps(compact))


if __name__ == "__main__":
    _emit(bench(SF_DIR, NUM_CPUS, "--headline-only" in sys.argv))
