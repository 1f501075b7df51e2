"""Local emulation of the driver's correctness gate.

Runs every registry entry at the given sf_dir, runs its DuckDB twin
built for that sf_dir's universe, sorts columns by name and rows by all
columns, and compares values exactly (floats bitwise; report max abs
diff on mismatch).  ``tests/test_oracles.py`` runs the same comparison
at sf0.001.  Usage:

    python scripts/verify_queries.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def compare(name: str, got: pd.DataFrame, exp: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(got.columns) != sorted(exp.columns):
        return [f"columns differ: {sorted(got.columns)} vs {sorted(exp.columns)}"]
    g, e = canon(got), canon(exp)
    if len(g) != len(e):
        return [f"row count: {len(g)} vs {len(e)}"]
    for c in g.columns:
        gv, ev = g[c].to_numpy(), e[c].to_numpy()
        if gv.dtype.kind == "f" or ev.dtype.kind == "f":
            gv = gv.astype(np.float64)
            ev = ev.astype(np.float64)
            eq = (gv == ev) | (np.isnan(gv) & np.isnan(ev))
            if not eq.all():
                bad = ~eq
                problems.append(
                    f"col {c}: {bad.sum()}/{len(gv)} mismatch, "
                    f"max abs diff {np.max(np.abs(gv[bad] - ev[bad])):.3e}"
                )
        else:
            if not (gv.astype(str) == ev.astype(str)).all():
                n = (gv.astype(str) != ev.astype(str)).sum()
                problems.append(f"col {c}: {n}/{len(gv)} mismatch (non-float)")
    return problems


def main() -> int:
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
                 include_dashboard=False, logging_level="ERROR")

    from biomass_processing_pipeline_ray.pipelines.queries import (
        build_queries,
        ensure_generated_oracles,
        to_df,
    )

    ensure_generated_oracles(sf_dir)
    con = duckdb.connect()
    failures = 0
    for name, (fn, sql) in build_queries(sf_dir).items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_df(fn(sf_dir))
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL  {name}: engine raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        dt = time.time() - t0
        exp = con.sql(sql).df()
        problems = compare(name, got, exp)
        if problems:
            failures += 1
            print(f"FAIL  {name} ({dt:.1f}s): " + "; ".join(problems))
        else:
            print(f"ok    {name}: rows={len(got)} ({dt:.1f}s, hash-equal)")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
