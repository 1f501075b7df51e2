"""Grouped order-statistic finalizes over ``county_zonal`` vs numpy and
textbook oracles: exact lower quantiles, the Gini coefficient and the
winsorized mean (with ties and groups too small to clip).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data

    return ray.data


def test_grouped_quantiles_vs_numpy(rd):
    """Element-selection quantiles == numpy quantile(method='lower')."""
    from biomass_processing_pipeline_ray.pipelines.queries import to_df
    from biomass_processing_pipeline_ray.stages.zonal import county_zonal

    rng = np.random.default_rng(17)
    n = 3000
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 23, n).astype(np.int64).astype(str),
            "x": rng.uniform(-5, 5, n),
        }
    )
    qs = {"p25": 0.25, "p90": 0.9}

    def finalize(c):
        out = {"g": pa.array(c.fips, pa.string()), "n": pa.array(c.n, pa.int64())}
        for name, q in qs.items():
            rank = np.floor(q * (c.n - 1)).astype(np.int64)
            out[name] = pa.array(c["x"].select(rank), pa.float64())
        return pa.table(out)

    ds = rd.from_pandas(df.rename(columns={"g": "county_fips"}))
    got = (
        to_df(county_zonal(ds, {"x": ("hist", "x")}, finalize))
        .sort_values("g")
        .reset_index(drop=True)
    )
    for _, row in got.iterrows():
        vals = df.loc[df["g"] == row["g"], "x"].to_numpy()
        assert row["n"] == len(vals)
        assert row["p25"] == np.quantile(vals, 0.25, method="lower")
        assert row["p90"] == np.quantile(vals, 0.9, method="lower")


def test_grouped_gini_matches_textbook(rd, ray_session):
    """The Gini finalize over ``county_zonal``'s histogram == the
    textbook sorted-rank formula
    G = (2·Σ i·x_(i) − (n+1)·Σx) / (n·Σx), on a tie-heavy fixture with
    a perfectly equal group (G = 0) and a maximally concentrated one."""
    import pyarrow as pa

    from biomass_processing_pipeline_ray.pipelines.queries import _gini, to_df
    from biomass_processing_pipeline_ray.stages.zonal import county_zonal

    rng = np.random.default_rng(11)
    rows = []
    for _ in range(500):  # skewed with heavy ties
        rows.append(("a", int(rng.integers(0, 12) ** 3)))
    rows += [("b", 7)] * 40              # all equal -> 0
    rows += [("c", 0)] * 99 + [("c", 100)]  # one holder -> (n-1)/n
    tbl = pa.table(
        {
            "county_fips": pa.array([r[0] for r in rows], pa.string()),
            "vq": pa.array([r[1] for r in rows], pa.int64()),
        }
    )
    ds = rd.from_arrow(tbl).repartition(8)
    got = (
        to_df(county_zonal(ds, {"vq": ("hist", "vq")}, _gini))
        .rename(columns={"county_fips": "g"})
        .sort_values("g")
        .reset_index(drop=True)
    )
    df = pd.DataFrame(rows, columns=["g", "vq"])
    for _, r in got.iterrows():
        x = np.sort(df.loc[df["g"] == r["g"], "vq"].to_numpy())
        n = len(x)
        exp = (2 * np.sum(np.arange(1, n + 1) * x) - (n + 1) * x.sum()) / (
            n * x.sum()
        )
        assert r["n_tiles"] == n
        assert abs(r["gini"] - exp) < 1e-6, (r["g"], r["gini"], exp)
    assert got.loc[got["g"] == "b", "gini"].iloc[0] == 0.0
    assert abs(got.loc[got["g"] == "c", "gini"].iloc[0] - 0.99) < 1e-9


def test_grouped_winsorized_ties_and_small_groups(rd, ray_session):
    """Rank-range trimming over ``county_zonal``'s histogram must be
    tie-invariant and total for tiny groups (t = 0 when n*5//100 == 0
    → trim == plain sum, cuts = min/max elements)."""
    from biomass_processing_pipeline_ray.pipelines.queries import to_df
    from biomass_processing_pipeline_ray.stages.zonal import county_zonal

    vals = {
        "a": [5, 1, 1, 1, 9, 9, 9, 2, 2, 2] * 4,  # n=40, t=2, heavy ties
        "b": [7, 3, 11],  # n=3, t=0
        "c": [4],  # n=1, t=0
    }
    rows_k, rows_v = [], []
    for k, vs in vals.items():
        rows_k += [k] * len(vs)
        rows_v += vs
    tbl = pa.table(
        {
            "county_fips": pa.array(rows_k, pa.string()),
            "v": pa.array(np.asarray(rows_v, np.int64)),
        }
    )

    def finalize(c):
        h, n = c["v"], c.n
        t = n * 5 // 100
        lo, hi = h.select(t), h.select(n - 1 - t)
        trim = h.smallest_sum(n - t) - h.smallest_sum(t)
        cols = {"k": c.fips, "n": n, "lo_cut": lo, "hi_cut": hi,
                "trim_sum": trim, "win_sum": trim + t * (lo + hi)}
        return pa.table({k: pa.array(v, pa.string() if k == "k" else pa.int64())
                         for k, v in cols.items()})

    got = (
        to_df(county_zonal(rd.from_arrow(tbl), {"v": ("hist", "v")}, finalize))
        .sort_values("k")
        .reset_index(drop=True)
    )
    for k, vs in vals.items():
        s = np.sort(np.asarray(vs, np.int64))
        n = len(s)
        t = n * 5 // 100
        row = got[got["k"] == k].iloc[0]
        assert row["n"] == n
        assert row["lo_cut"] == s[t] and row["hi_cut"] == s[n - 1 - t]
        assert row["trim_sum"] == s[t : n - t].sum()
        assert row["win_sum"] == s[t : n - t].sum() + t * (s[t] + s[n - 1 - t])

