"""``stages/zonal.county_zonal`` and the registry entries built on it.

- one call requesting every product kind equals one call per kind, on a
  skewed input (one county holds 90 % of the rows) and on an empty one;
- the per-county entries, and three entries that used to raise on tiny
  universes, keep their columns and types at n=1 and n=7
  (``universe_n`` reads only the sf dir's basename).
"""

import os

import numpy as np
import pyarrow as pa
import pytest

PRODUCTS = {
    "sx": ("sum", "x"),
    "sf": ("sum", "f"),
    "mn": ("min", "f"),
    "mx": ("max", "x"),
    "hx": ("hist", "x"),
    "hs": ("hist", "s"),
    "top": ("top", 4, "f", "id"),
}


def _skewed(n=4000, seed=3) -> pa.Table:
    rng = np.random.default_rng(seed)
    hot = rng.random(n) < 0.9
    fips = np.where(hot, "17001", rng.choice(["17003", "17005", "17007"], n))
    return pa.table(
        {
            "county_fips": pa.array(fips, pa.string()),
            "x": pa.array(rng.integers(-50, 50, n), pa.int64()),
            "f": pa.array(rng.integers(0, 300, n) / 7.0),
            "s": pa.array(rng.choice(["png", "jpeg", "raw"], n), pa.string()),
            "id": pa.array(rng.permutation(n), pa.int64()),
        }
    )


def _dump(products):
    """finalize writing every product's merged state as text."""

    def finalize(c):
        cols = {"county_fips": list(c.fips), "n": [int(v) for v in c.n]}
        for name, (kind, *_) in products.items():
            st = c[name]
            if kind in ("hist", "top"):
                a, b = st[0].tolist(), st[1].tolist()
                cols[name] = [
                    repr(list(zip(a[s : s + k], b[s : s + k])))
                    for s, k in zip(st.start, st.size)
                ]
            else:
                cols[name] = [repr(v) for v in np.asarray(st).tolist()]
        return pa.table(
            {k: pa.array(v, pa.int64() if k == "n" else pa.string())
             for k, v in cols.items()}
        )

    return finalize


@pytest.mark.parametrize("rows", [4000, 0])
def test_one_call_equals_single_kind_calls(ray_session, rows):
    import ray.data as rd

    from biomass_processing_pipeline_ray.pipelines.queries import to_df
    from biomass_processing_pipeline_ray.stages.zonal import county_zonal

    ds = rd.from_arrow(_skewed().slice(0, rows)).repartition(8)
    every = county_zonal(ds, PRODUCTS, _dump(PRODUCTS))
    assert every.schema().names == ["county_fips", "n", *PRODUCTS]
    every = to_df(every).sort_values("county_fips").reset_index(drop=True)
    assert len(every) == (4 if rows else 0)
    for name, spec in PRODUCTS.items():
        one = county_zonal(ds, {name: spec}, _dump({name: spec}))
        one = to_df(one).sort_values("county_fips").reset_index(drop=True)
        assert one.equals(every[["county_fips", "n", name]]), name
    if rows:
        assert every["n"].max() > 0.85 * rows


EDGE_ENTRIES = [
    "county_corr",
    "county_regression",
    "county_gini",
    "county_mad",
    "county_winsorized",
    "county_quantiles",
    "county_coverage",
    "county_edge_stats",
    "county_bounds",
    "county_top3_tiles",
    "county_fmt_hist",
    "county_fmt_cube",
    "county_fmt_pivot",
    "county_fmt_rollup",
    "county_shannon",
    "county_dominant_fmt",
    "caption_pair_jaccard",
    "bbox_search_indexed",
    "bbox_search_lifecycle",
]


def _columns(df):
    return [(c, str(t)) for c, t in df.dtypes.items()]


@pytest.mark.parametrize("name", EDGE_ENTRIES)
def test_tiny_universe_keeps_schema(ray_session, tmp_path, name):
    from biomass_processing_pipeline_ray.pipelines import queries as Q

    fn = getattr(Q, f"q_{name}")
    sf0001 = os.path.join(os.path.dirname(Q.ORACLE_SF_DIR), "sf0.001")
    expected = _columns(Q.to_df(fn(sf0001)))
    for sf in ("sf0.0000002", "sf0.0000012"):  # n = 1, n = 7
        got = Q.to_df(fn(str(tmp_path / sf)))
        assert _columns(got) == expected, (sf, _columns(got))
