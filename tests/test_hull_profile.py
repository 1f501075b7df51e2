"""Tests for the distributed convex hull, the grouped MAD finalize
over ``county_zonal`` and the table profiler — each against an
independent in-test numpy/pandas oracle."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data

    return ray.data


def _ref_hull(pts: np.ndarray) -> np.ndarray:
    """Test-local gift-wrapping reference (independent of the stage's
    monotone chain AND of pipelines/oracles.py)."""
    pts = np.unique(pts, axis=0).astype(np.int64)
    m = len(pts)
    if m <= 2:
        return pts
    start = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
    hull, cur = [start], start
    while True:
        cand = -1
        for j in range(m):
            if j == cur:
                continue
            if cand < 0:
                cand = j
                continue
            a = pts[cand] - pts[cur]
            b = pts[j] - pts[cur]
            cr = a[0] * b[1] - a[1] * b[0]
            if cr < 0 or (cr == 0 and b @ b > a @ a):
                cand = j
        if cand == start:
            break
        hull.append(cand)
        cur = cand
    return pts[hull]


def test_monotone_chain_matches_wrap_and_invariants():
    from biomass_processing_pipeline_ray.stages.hull import (
        hull_metrics,
        monotone_chain,
    )

    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(1, 120))
        pts = np.unique(
            rng.integers(0, 40, size=(n, 2)).astype(np.int64), axis=0
        )
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
        hull = monotone_chain(pts)
        ref = _ref_hull(pts)
        assert hull.shape == ref.shape, trial
        assert (hull == ref).all(), trial
        k, area2, perim = hull_metrics(hull, 1.0, 1.0)
        if k >= 3:
            assert area2 > 0  # CCW orientation
            # every input point inside or on the hull
            x, y = hull[:, 0], hull[:, 1]
            xn, yn = np.roll(x, -1), np.roll(y, -1)
            for px, py in pts:
                cross = (xn - x) * (py - y) - (yn - y) * (px - x)
                assert (cross >= 0).all()


def test_grouped_hull_distributed(rd, ray_session):
    """grouped_hull over many partitions == per-group reference hull
    (partial min/max-per-column reduction must lose no vertex)."""
    from biomass_processing_pipeline_ray.stages.hull import grouped_hull

    rng = np.random.default_rng(3)
    frames = []
    for g, n in (("a", 400), ("b", 37), ("c", 3)):
        frames.append(
            pd.DataFrame(
                {
                    "g": g,
                    "kx": rng.integers(0, 200, n).astype(np.int64),
                    "ky": rng.integers(0, 150, n).astype(np.int64),
                }
            )
        )
    df = pd.concat(frames, ignore_index=True)
    got = (
        grouped_hull(
            rd.from_pandas(df).repartition(7), "g", 0.5, 0.25,
            lambda p: float(p),
        )
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    for _, r in got.iterrows():
        sub = df[df["g"] == r["g"]]
        ref = _ref_hull(sub[["kx", "ky"]].to_numpy())
        k = len(ref)
        assert r["n_vertices"] == k
        if k >= 3:
            x, y = ref[:, 0], ref[:, 1]
            xn, yn = np.roll(x, -1), np.roll(y, -1)
            assert r["area2_cells"] == int(np.sum(x * yn - xn * y))
            perim = float(np.sum(np.hypot((xn - x) * 0.5, (yn - y) * 0.25)))
            assert r["perim_deg"] == perim


def test_grouped_mad_vs_numpy(rd, ray_session):
    from biomass_processing_pipeline_ray.pipelines.queries import _mad, to_df
    from biomass_processing_pipeline_ray.stages.zonal import county_zonal

    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 9, 3000).astype(np.int64).astype(str),
            "v": rng.integers(0, 10_000, 3000).astype(np.int64),
        }
    )
    ds = rd.from_pandas(df.rename(columns={"k": "county_fips"})).repartition(6)
    got = (
        to_df(county_zonal(ds, {"vq": ("hist", "v")}, _mad))
        .rename(columns={"county_fips": "k"})
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert len(got) == df["k"].nunique()
    for _, r in got.iterrows():
        x = np.sort(df.loc[df["k"] == r["k"], "v"].to_numpy())
        med = x[(len(x) - 1) // 2]
        dev = np.sort(np.abs(x - med))
        assert r["n"] == len(x)
        assert r["med"] == med
        assert r["mad"] == dev[(len(dev) - 1) // 2]


def test_profile_table_vs_pandas(rd, ray_session):
    from biomass_processing_pipeline_ray.stages.profile import profile_table

    rng = np.random.default_rng(2)
    n = 2500
    num = rng.integers(0, 200, n).astype(np.float64)
    num[rng.random(n) < 0.1] = np.nan
    cat = np.array(["aa", "bb", "cc", "dd"])[rng.integers(0, 4, n)].astype(
        object
    )
    cat[rng.random(n) < 0.05] = None
    df = pd.DataFrame({"x": num, "s": cat})
    got = (
        profile_table(rd.from_pandas(df).repartition(6), ["x"], ["s"])
        .to_pandas()
        .set_index("col_name")
    )
    assert got.loc["x", "n_rows"] == n
    assert got.loc["x", "n_null"] == int(np.isnan(num).sum())
    assert got.loc["x", "n_distinct"] == len(np.unique(num[~np.isnan(num)]))
    assert got.loc["x", "min_num"] == np.nanmin(num)
    assert got.loc["x", "max_num"] == np.nanmax(num)
    assert got.loc["s", "n_null"] == int(pd.isna(cat).sum())
    assert got.loc["s", "n_distinct"] == 4
    assert got.loc["s", "min_str"] == "aa"
    assert got.loc["s", "max_str"] == "dd"

