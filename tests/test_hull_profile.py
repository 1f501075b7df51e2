"""Tests for the round-4 late operators: distributed convex hull,
grouped MAD, per-key z-score outliers, and the table profiler —
each against an independent in-test numpy/pandas oracle."""

import numpy as np
import pandas as pd
import pyarrow as pa
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


def test_zscore_outliers_vs_pandas(rd, ray_session):
    from biomass_processing_pipeline_ray.stages.analytic import (
        grouped_zscore_outliers,
    )

    rng = np.random.default_rng(9)
    n = 4000
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 50, n).astype(np.int64),
            "vq": rng.integers(0, 500, n).astype(np.int64),
        }
    )
    # plant extreme spikes for a few users
    df.loc[df.index[:20], "vq"] = 50_000
    df["coarse"] = df["user_id"] % 8
    got = (
        grouped_zscore_outliers(rd.from_pandas(df).repartition(5))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )

    g = df.groupby("user_id")["vq"]
    stats = pd.DataFrame(
        {"n": g.size(), "sx": g.sum(), "sxx": g.apply(lambda s: (s**2).sum())}
    )
    j = df.join(stats, on="user_id")
    lhs = (j["n"] * j["vq"] - j["sx"]) ** 2
    rhs = 9 * (j["n"] * j["sxx"] - j["sx"] ** 2)
    exp = j[(j["n"] >= 8) & (lhs > rhs)].sort_values("event_id")
    assert got["event_id"].tolist() == exp["event_id"].tolist()
    assert (got["n_user"].to_numpy() == exp["n"].to_numpy()).all()
    assert len(got) >= 20  # the planted spikes are caught


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


def test_hourly_gapfill_vs_pandas(rd, ray_session):
    from biomass_processing_pipeline_ray.stages.analytic import hourly_gapfill

    rng = np.random.default_rng(13)
    n = 3000
    base = np.datetime64("2024-03-01", "us")
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 40, n).astype(np.int64),
            "ts": base
            + rng.integers(0, 200 * 3600, n).astype(np.int64) * 1_000_000,
        }
    )
    got = (
        hourly_gapfill(rd.from_pandas(df).repartition(5))
        .to_pandas()
        .sort_values(["user_id", "h"])
        .reset_index(drop=True)
    )

    hour = df["ts"].astype("int64") // 3_600_000_000
    ref_rows = []
    for u, g in df.assign(h=hour).groupby("user_id"):
        counts = g.groupby("h").size()
        cum = 0
        for h in range(int(g["h"].min()), int(g["h"].max()) + 1):
            c = int(counts.get(h, 0))
            cum += c
            ref_rows.append((u, h, c, cum))
    ref = pd.DataFrame(
        ref_rows, columns=["user_id", "h", "n_events", "cum_events"]
    )
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)
    assert len(got) > n  # genuine expansion: gaps materialized
    assert (got["n_events"] == 0).any()
