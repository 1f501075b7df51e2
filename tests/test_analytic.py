"""Analytic-operator tests vs pandas/numpy oracles.

Covers stages/analytic.py: per-key window functions (row_number/lag),
rolling aggregates, exact grouped quantiles, and the Misra–Gries
heavy-hitter pass (sketch invariants + end-to-end exactness on a
skewed distribution).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data

    return ray.data


def _events(n=2000, n_users=37, seed=11):
    rng = np.random.default_rng(seed)
    base = np.datetime64("2024-03-01", "us")
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, n_users, n).astype(np.int64),
            # coarse ts with deliberate ties so (ts, event_id) tiebreak matters
            "ts": base + rng.integers(0, 500, n).astype(np.int64) * 1_000_000,
            "value": rng.uniform(0, 100, n),
        }
    )


def test_ranked_events_vs_pandas(rd):
    """row_number + lag gap == pandas groupby cumcount/diff oracle."""
    from biomass_processing_pipeline_ray.stages.analytic import ranked_events

    ev = _events()
    got = (
        ranked_events(rd.from_pandas(ev), n_coarse=8)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    df = ev.sort_values(["user_id", "ts", "event_id"]).copy()
    df["rn"] = df.groupby("user_id").cumcount() + 1
    ts_us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    gap = pd.Series(ts_us, index=df.index).groupby(df["user_id"]).diff()
    df["gap_us"] = gap.fillna(-1).astype(np.int64)
    exp = df.sort_values("event_id").reset_index(drop=True)
    assert (got["event_id"].to_numpy() == exp["event_id"].to_numpy()).all()
    assert (got["rn"].to_numpy() == exp["rn"].to_numpy()).all()
    assert (got["gap_us"].to_numpy() == exp["gap_us"].to_numpy()).all()


def test_rolling_events_vs_pandas(rd):
    """Cumsum-difference rolling sum == pandas rolling(window) oracle
    bit-for-bit on lattice-snapped values."""
    from biomass_processing_pipeline_ray.functions.rounding import snap_binary
    from biomass_processing_pipeline_ray.stages.analytic import rolling_events

    ev = _events(seed=13)
    got = (
        rolling_events(rd.from_pandas(ev), window=4, n_coarse=8)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    df = ev.sort_values(["user_id", "ts", "event_id"]).copy()
    df["v"] = snap_binary(df["value"].to_numpy())
    roll = df.groupby("user_id")["v"].rolling(4, min_periods=1)
    df["roll_sum"] = roll.sum().reset_index(level=0, drop=True)
    df["roll_n"] = roll.count().reset_index(level=0, drop=True).astype(np.int64)
    exp = df.sort_values("event_id").reset_index(drop=True)
    # snapped inputs on the 2^-20 lattice sum exactly in any order
    assert (got["roll_sum"].to_numpy() == exp["roll_sum"].to_numpy()).all()
    assert (got["roll_n"].to_numpy() == exp["roll_n"].to_numpy()).all()


def test_ema_events_vs_sequential(rd):
    """Distributed power-of-two EMA == a per-user SEQUENTIAL Python
    loop (sort desc, accumulate sv * 2^-rank) bit-for-bit."""
    from biomass_processing_pipeline_ray.functions.rounding import snap_binary
    from biomass_processing_pipeline_ray.stages.analytic import ema_events

    k = 16
    ev = _events(seed=29)
    got = (
        ema_events(rd.from_pandas(ev), k=k, n_coarse=8)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    df = ev.copy()
    df["sv"] = snap_binary(df["value"].to_numpy())
    exp_rows = []
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"], ascending=False).head(k)
        ema = 0.0
        for rank, sv in enumerate(g["sv"].to_numpy(), start=1):
            ema += sv * 2.0 ** (k - rank)
        exp_rows.append((uid, ema / 2.0**k, min(len(g), k)))
    exp = pd.DataFrame(exp_rows, columns=["user_id", "ema", "n_used"])
    assert (got["user_id"].to_numpy() == exp["user_id"].to_numpy()).all()
    assert (got["ema"].to_numpy() == exp["ema"].to_numpy()).all()
    assert (got["n_used"].to_numpy() == exp["n_used"].to_numpy()).all()


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


def test_approx_grouped_quantiles_error_bound(rd):
    """Histogram-sketch quantiles land within (hi-lo)/nbins of the
    exact element-selection quantile for every group and q — including
    a heavily skewed group and a near-constant group."""
    from biomass_processing_pipeline_ray.stages.analytic import (
        approx_grouped_quantiles,
    )

    rng = np.random.default_rng(23)
    frames = [
        pd.DataFrame({"g": "uniform", "x": rng.uniform(0, 10, 4000)}),
        pd.DataFrame({"g": "skewed", "x": rng.exponential(0.5, 4000)}),
        pd.DataFrame({"g": "constant", "x": np.full(500, 3.25)}),
        pd.DataFrame({"g": "tiny", "x": np.array([1.0, 9.0])}),
    ]
    df = pd.concat(frames, ignore_index=True)
    lo, hi, nbins = 0.0, 10.0, 2048
    got = (
        approx_grouped_quantiles(
            rd.from_pandas(df).repartition(6),
            "g",
            "x",
            {"p50": 0.5, "p95": 0.95},
            lo,
            hi,
            nbins=nbins,
        )
        .to_pandas()
        .set_index("g")
    )
    width = (hi - lo) / nbins
    for g, sub in df.groupby("g"):
        vals = np.clip(sub["x"].to_numpy(), lo, hi)  # sketch clamps
        assert got.loc[g, "n"] == len(vals)
        for name, q in (("p50", 0.5), ("p95", 0.95)):
            exact = np.quantile(vals, q, method="lower")
            assert abs(got.loc[g, name] - exact) <= width + 1e-12, (g, name)


def test_mg_compress_invariants():
    """Per-batch summary: weight ≤ true count, deficit ≤ returned err,
    and err ≤ n/(capacity+1)."""
    from biomass_processing_pipeline_ray.stages.analytic import mg_compress

    rng = np.random.default_rng(3)
    # zipf-ish skew: a few hot keys over a long tail
    keys = np.r_[
        np.repeat(np.int64(7), 500),
        np.repeat(np.int64(11), 300),
        rng.integers(100, 5000, 4000),
    ].astype(np.int64)
    rng.shuffle(keys)
    capacity = 64
    uniq, w, err = mg_compress(keys, capacity)
    assert len(uniq) <= capacity
    true = pd.Series(keys).value_counts()
    for k, wt in zip(uniq, w):
        assert wt <= true[k]
    # total decrement mass bound
    assert err <= len(keys) / (capacity + 1) * capacity + len(keys)
    deficit = sum(true[k] - wt for k, wt in zip(uniq, w))
    assert deficit <= err
    # no-compression regime returns exact counts
    small = np.array([1, 1, 2, 3, 3, 3], dtype=np.int64)
    u2, w2, e2 = mg_compress(small, 10)
    assert e2 == 0 and dict(zip(u2, w2)) == {1: 2, 2: 1, 3: 3}


def test_heavy_hitters_exact_on_skew(rd):
    """End-to-end: MG candidates + exact recount == exact groupby
    threshold on an adversarially skewed distribution (hot keys just
    above AND just below the threshold)."""
    from biomass_processing_pipeline_ray.stages.analytic import heavy_hitters

    rng = np.random.default_rng(29)
    n = 12800  # threshold at phi_denom=128 is exactly 100
    keys = np.r_[
        np.repeat(np.int64(1), 150),  # clear hitter
        np.repeat(np.int64(2), 101),  # just above
        np.repeat(np.int64(3), 100),  # exactly at threshold -> excluded (>)
        np.repeat(np.int64(4), 99),  # just below
        rng.integers(1000, 9000, 12350),
    ].astype(np.int64)
    rng.shuffle(keys)
    ds = rd.from_pandas(pd.DataFrame({"user_id": keys})).repartition(8)
    got = (
        heavy_hitters(ds, "user_id", phi_denom=128, capacity=256)
        .to_pandas()
        .sort_values("hh_key")
        .reset_index(drop=True)
    )
    vc = pd.Series(keys).value_counts()
    exp = vc[vc > n / 128].sort_index()
    assert list(got["hh_key"]) == list(exp.index)
    assert list(got["cnt"]) == list(exp.to_numpy())
    assert 1 in set(got["hh_key"]) and 2 in set(got["hh_key"])
    assert 3 not in set(got["hh_key"]) and 4 not in set(got["hh_key"])


def test_heavy_hitters_capacity_guard(rd):
    from biomass_processing_pipeline_ray.stages.analytic import heavy_hitters

    ds = rd.from_pandas(pd.DataFrame({"user_id": np.arange(10, dtype=np.int64)}))
    with pytest.raises(ValueError):
        heavy_hitters(ds, "user_id", phi_denom=128, capacity=64)


def test_grouped_percent_rank_matches_pandas(rd, ray_session):
    """Range-bucketed two-pass percent_rank == pandas rank formula,
    partition-invariant, exact under heavy ties."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from biomass_processing_pipeline_ray.stages.analytic import grouped_percent_rank

    rng = np.random.default_rng(13)
    n = 5000
    df = pd.DataFrame(
        {
            "rid": np.arange(n, dtype=np.int64),
            "grp": rng.choice(["a", "b", "c"], size=n),
            # quantized values force cross-bucket ties
            "v": np.round(rng.normal(size=n) * 5) / 2.0,
        }
    )
    exp = df.copy()
    rk = exp.groupby("grp")["v"].rank(method="min")
    cnt = exp.groupby("grp")["v"].transform("size")
    exp["pct_rank"] = np.where(
        cnt > 1, (rk - 1.0).to_numpy() / (cnt - 1.0).to_numpy(np.float64), 0.0
    )
    for parts in (2, 9):
        ds = rd.from_pandas(df).repartition(parts)
        got = (
            grouped_percent_rank(ds, "grp", "v", ["rid", "grp", "v"], n_buckets=16)
            .to_pandas()
            .sort_values("rid")
            .reset_index(drop=True)
        )
        assert np.array_equal(
            got["pct_rank"].to_numpy(), exp.sort_values("rid")["pct_rank"].to_numpy()
        )


def test_funnel_events_vs_sequential(rd):
    """Reduceat-cascade funnel == per-user sequential scan oracle."""
    from biomass_processing_pipeline_ray.stages.analytic import funnel_events

    rng = np.random.default_rng(83)
    n, n_users = 3000, 50
    base = np.datetime64("2024-05-01", "us")
    ev = pd.DataFrame(
        {
            "user_id": rng.integers(0, n_users, n).astype(np.int64),
            "ts": base + rng.integers(0, 10**6, n).astype(np.int64),
            "event_type": rng.choice(
                ["view", "click", "purchase", "error", "signup"], n
            ),
        }
    )
    got = (
        funnel_events(rd.from_pandas(ev), steps=["view", "click", "purchase"],
                      n_coarse=8)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )

    def oracle(g):
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        et = g["event_type"].to_numpy()
        gate, stage = -1, 0
        for step in ("view", "click", "purchase"):
            m = (et == step) & (ts > gate)
            if not m.any():
                break
            gate = ts[m].min()
            stage += 1
        return stage

    exp = ev.groupby("user_id").apply(oracle, include_groups=False)
    assert (got["user_id"].to_numpy() == exp.index.to_numpy()).all()
    assert (got["stage"].to_numpy() == exp.to_numpy()).all()
    assert got["stage"].max() == 3 and got["stage"].min() >= 0


def test_longest_streak_vs_sequential(rd):
    """Run-length gaps-and-islands == per-user sequential scan, with
    timestamp ties broken by event_id on both sides."""
    from biomass_processing_pipeline_ray.stages.analytic import longest_streak

    ev = _events(seed=97).assign(
        event_type=lambda d: np.random.default_rng(5).choice(
            ["a", "b"], len(d)
        )
    )
    got = (
        longest_streak(rd.from_pandas(ev), n_coarse=8)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )

    def oracle(g):
        g = g.sort_values(["ts", "event_id"])
        et = g["event_type"].to_numpy()
        best = cur = 1
        for i in range(1, len(et)):
            cur = cur + 1 if et[i] == et[i - 1] else 1
            best = max(best, cur)
        return best

    exp = ev.groupby("user_id").apply(oracle, include_groups=False)
    assert (got["user_id"].to_numpy() == exp.index.to_numpy()).all()
    assert (got["max_streak"].to_numpy() == exp.to_numpy()).all()
    assert got["max_streak"].max() >= 3  # fixture actually has streaks


def test_global_ntile_vs_duckdb(rd):
    """global_ntile equals DuckDB's NTILE over a tie-heavy column with
    a total-order tiebreaker, for tile counts that do and don't divide
    the row count."""
    import duckdb

    from biomass_processing_pipeline_ray.stages.analytic import global_ntile

    rng = np.random.default_rng(13)
    n = 1000
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            # ~20 distinct values -> heavy ties across bucket borders
            "value": np.round(rng.random(n) * 10, 0) + 0.25,
        }
    )
    ds = rd.from_pandas(df).repartition(9)
    con = duckdb.connect()
    con.register("t", df)
    for tiles in (7, 8):
        got = (
            global_ntile(ds, "value", "event_id", tiles=tiles, lo=0.0,
                         hi=16.0, nbins=32)
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        exp = con.execute(
            f"SELECT event_id, CAST(NTILE({tiles}) OVER "
            "(ORDER BY value, event_id) AS BIGINT) AS tile FROM t "
            "ORDER BY event_id"
        ).df()
        pd.testing.assert_frame_equal(got, exp.astype({"tile": np.int64}))


def test_grouped_auc_matches_pairwise_definition(rd, ray_session):
    """grouped_auc == the brute-force pairwise AUC definition
    (P(score_pos > score_neg) + 0.5·P(==)) on a tie-heavy synthetic
    fixture, including a perfect group, an inverted group, and a
    dropped single-class group."""
    import pyarrow as pa

    from biomass_processing_pipeline_ray.stages.analytic import grouped_auc

    rng = np.random.default_rng(7)
    rows = []
    # group a: noisy signal with heavy ties (scores in a tiny int set)
    for _ in range(400):
        pos = int(rng.random() < 0.4)
        sq = int(rng.integers(0, 8)) + (3 if pos else 0)
        rows.append(("a", sq, pos))
    # group b: perfectly separated -> AUC 1.0
    rows += [("b", 10, 1)] * 20 + [("b", 5, 0)] * 30
    # group c: perfectly inverted -> AUC 0.0
    rows += [("c", 1, 1)] * 10 + [("c", 9, 0)] * 10
    # group d: single class -> dropped
    rows += [("d", 3, 1)] * 5
    tbl = pa.table(
        {
            "g": pa.array([r[0] for r in rows], pa.string()),
            "sq": pa.array([r[1] for r in rows], pa.int64()),
            "pos": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    ds = rd.from_arrow(tbl).repartition(8)
    got = (
        grouped_auc(ds, "g", "sq", "pos", lo=-16, hi=32, nbins=16)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert list(got["g"]) == ["a", "b", "c"]

    df = pd.DataFrame(rows, columns=["g", "sq", "pos"])
    for _, r in got.iterrows():
        sub = df[df["g"] == r["g"]]
        sp = sub.loc[sub["pos"] == 1, "sq"].to_numpy()
        sn = sub.loc[sub["pos"] == 0, "sq"].to_numpy()
        cmp = sp[:, None] - sn[None, :]
        exp = ((cmp > 0).sum() + 0.5 * (cmp == 0).sum()) / (len(sp) * len(sn))
        assert r["n_pos"] == len(sp) and r["n_neg"] == len(sn)
        assert abs(r["auc"] - exp) < 1e-6, (r["g"], r["auc"], exp)
    assert got.loc[got["g"] == "b", "auc"].iloc[0] == 1.0
    assert got.loc[got["g"] == "c", "auc"].iloc[0] == 0.0


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


def test_token_bucket_burst_and_refill(rd, ray_session):
    """Crafted single-user stream: burst of 4 drains the bucket, the
    5th (immediate) drops, refill readmits exactly on the cost
    boundary, cap clips long idle accrual, and dropped events do not
    touch state."""
    from biomass_processing_pipeline_ray.stages.analytic import token_bucket

    cost, cap = 10, 40
    # times: burst 0,1,2,3 (kept, tokens 30,21,13,6... recompute below),
    # 4 drops; 20 readmits; 21 drops; 1000 (cap-clipped) keeps; 1001 keeps
    ts = [0, 1, 2, 3, 4, 20, 21, 1000, 1001, 1002, 1003, 1004]
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(len(ts), dtype=np.int64)),
            "ts": pa.array(
                np.asarray(ts, np.int64), pa.timestamp("us")
            ),
            "user_id": pa.array(np.full(len(ts), 7, np.int64)),
            "event_type": pa.array(["x"] * len(ts), pa.string()),
        }
    )
    got = (
        token_bucket(rd.from_arrow(tbl), cost_us=cost, cap_us=cap)
        .to_pandas()
        .sort_values("ts_us")
        .reset_index(drop=True)
    )
    # sequential reference
    tok, prev = cap - cost, 0
    exp = [(0, tok)]
    for t in ts[1:]:
        avail = min(cap, tok + (t - prev))
        if avail >= cost:
            tok, prev = avail - cost, t
            exp.append((t, tok))
    assert list(zip(got["ts_us"], got["tokens_left"])) == exp
    # structure asserts: the burst kept exactly 4, immediate 5th dropped
    kept_ts = got["ts_us"].tolist()
    assert kept_ts[:4] == [0, 1, 2, 3] and 4 not in kept_ts
    # idle accrual is cap-clipped: after t=1000 the burst size is again 4
    assert {1000, 1001, 1002, 1003}.issubset(set(kept_ts))
    assert 1004 not in kept_ts
