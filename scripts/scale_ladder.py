"""5× scale ladder for the heavy non-headline tile pipelines.

Every ladder query reads only the tile universe, so the 5× twin needs
no data of its own: ``universe_n`` derives the tile count from the sf
dir's name and ``tiles_path`` regenerates / reuses the cached
deterministic 3,000,000-tile fixture
(``/tmp/graft_cache/tiles_n3000000_s42_v2``) for ``sf0.5``.

Runs each ladder query at sf0.1 and at sf0.5 in FRESH Ray subprocesses
(one CPU per core this process may run on), interleaved (A, B, A, B —
sequential levels sample different host-noise windows), takes min-of-2
per level, and reports per-input-row throughput plus the per-row 5×
degradation ratio (target ≤ ~1.3×).

Usage:
    python scripts/scale_ladder.py                # full ladder
    python scripts/scale_ladder.py phash_neardup  # subset
    python scripts/scale_ladder.py --child <query> <sf_dir>  # internal
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

LADDER_DIR = "/tmp/ladder/sf0.5"

LADDER = [
    "phash_neardup",
    "image_thumbs",
    "curation_sweep",
    # the 4-level explode + high-cardinality agg (payload-free)
    "cell_pyramid",
    # grid DBSCAN over the arithmetic tile universe (eps shrinks as
    # 1/sqrt(n), so per-cell density — and the dense-block work per
    # point — stays constant by construction)
    "tile_dbscan",
    # the 5x universe is 5x denser on the same pixel domain, so overlap
    # (the work the per-pixel max resolves) GROWS superlinearly while
    # the scatter-max stays canvas-bounded per bucket
    "county_mosaic",
    # the no-decode extent shuffle + per-bucket difference arrays; 5x
    # tiles → 5x rectangles on the same canvas area
    "county_overlap_depth",
]


def child(query: str, sf_dir: str) -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=len(os.sched_getaffinity(0)),
        include_dashboard=False,
        logging_level="ERROR",
    )
    from biomass_processing_pipeline_ray.pipelines.queries import build_queries

    from biomass_processing_pipeline_ray.pipelines.queries import tiles_path

    tiles_path(sf_dir)  # fixture generation/caching excluded from timing
    fn = build_queries()[query][0]
    # time BUILD + CONSUME together: several pipelines run eager phases
    # inside fn() itself (connected-components rounds, canvas passes) —
    # timing only the final consume under-measures them
    t0 = time.time()
    res = fn(sf_dir)
    n_out = res.count() if hasattr(res, "count") and not hasattr(res, "iloc") else len(res)
    dt = time.time() - t0
    print(json.dumps({"query": query, "sf_dir": sf_dir, "sec": dt, "rows": int(n_out)}))
    ray.shutdown()


def run_child(query: str, sf_dir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=REPO)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", query, sf_dir],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=3600,
    )
    line = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if not line:
        raise RuntimeError(f"{query}@{sf_dir} failed:\n{out.stderr[-2000:]}")
    return json.loads(line[-1])


def main(names: list[str]) -> None:
    from biomass_processing_pipeline_ray.pipelines.queries import universe_n

    small = "/root/testdata/sf0.1"
    n_small, n_big = universe_n(small), universe_n(LADDER_DIR)
    results = {}
    for q in names:
        runs = {small: [], LADDER_DIR: []}
        for trial in range(2):  # interleaved A,B,A,B
            for sf in (small, LADDER_DIR):
                r = run_child(q, sf)
                runs[sf].append(r["sec"])
                print(f"  {q} @ {os.path.basename(sf)} trial{trial}: "
                      f"{r['sec']:.1f}s rows_out={r['rows']}", flush=True)
        t_small = min(runs[small])
        t_big = min(runs[LADDER_DIR])
        ratio = (t_big / t_small) / (n_big / n_small)
        results[q] = {
            "rows_small": n_small,
            "rows_big": n_big,
            "sec_small": round(t_small, 2),
            "sec_big": round(t_big, 2),
            "rows_per_sec_small": round(n_small / t_small, 1),
            "rows_per_sec_big": round(n_big / t_big, 1),
            "per_row_degradation_5x": round(ratio, 3),
        }
        print(json.dumps({q: results[q]}), flush=True)
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        child(sys.argv[2], sys.argv[3])
    else:
        main(sys.argv[1:] or list(LADDER))
