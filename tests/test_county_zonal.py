"""``stages/zonal.county_zonal`` and the registry entries built on it.

- one call requesting every product kind equals one call per kind, on a
  skewed input (one county holds 90 % of the rows) and on an empty one,
  and keyed by a string (``fmt``) and an int64 (``cell``) column at 7,
  1 and 0 rows;
- the Dataset it returns plans with the global execution settings,
  not with those of its input;
- the per-county entries, the other entries on ``county_zonal`` and
  three entries that used to raise on tiny universes keep their
  columns and types at n=1 and n=7 (``universe_n`` reads only the sf
  dir's basename).
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
            "fmt": pa.array(rng.choice(["png", "jpeg", "raw"], n), pa.string()),
            "cell": pa.array(rng.integers(-3, 3, n), pa.int64()),
        }
    )


KEY_TYPE = {"county_fips": pa.string(), "fmt": pa.string(), "cell": pa.int64()}


def _dump(products, key="county_fips"):
    """finalize writing every product's merged state as text."""

    def finalize(c):
        cols = {key: list(c.fips), "n": [int(v) for v in c.n]}
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
        types = {key: KEY_TYPE[key], "n": pa.int64()}
        return pa.table(
            {k: pa.array(v, types.get(k, pa.string())) for k, v in cols.items()}
        )

    return finalize


@pytest.mark.parametrize(
    "rows,key",
    [
        pytest.param(4000, "county_fips", id="4000"),
        pytest.param(0, "county_fips", id="0"),
        *(
            pytest.param(rows, key, id=f"{key}-{rows}")
            for key in ("fmt", "cell")
            for rows in (7, 1, 0)
        ),
    ],
)
def test_one_call_equals_single_kind_calls(ray_session, rows, key):
    import ray.data as rd

    from biomass_processing_pipeline_ray.pipelines.queries import to_df
    from biomass_processing_pipeline_ray.stages.zonal import county_zonal

    tbl = _skewed().slice(0, rows)
    ds = rd.from_arrow(tbl).repartition(8)
    every = county_zonal(ds, PRODUCTS, _dump(PRODUCTS, key), key=key)
    assert every.schema().names == [key, "n", *PRODUCTS]
    assert every.schema().types[0] == KEY_TYPE[key]
    every = to_df(every).sort_values(key).reset_index(drop=True)
    assert sorted(every[key]) == sorted(set(tbl[key].to_pylist()))
    assert every["n"].sum() == rows
    for name, spec in PRODUCTS.items():
        one = county_zonal(ds, {name: spec}, _dump({name: spec}, key), key=key)
        one = to_df(one).sort_values(key).reset_index(drop=True)
        assert one.equals(every[[key, "n", name]]), name
    if rows and key == "county_fips":
        assert len(every) == 4
        assert every["n"].max() > 0.85 * rows


def test_output_plan_is_local(ray_session):
    """The input runs unreserved, but the returned Dataset does not share
    the input's context: a plan derived from it reads the global
    ``op_resource_reservation_enabled``."""
    import ray.data as rd
    from ray.data import DataContext

    from biomass_processing_pipeline_ray.stages.zonal import county_zonal

    tbl = _skewed(40)
    src = rd.from_arrow(tbl)
    out = county_zonal(src, {"sx": ("sum", "x")}, _dump({"sx": ("sum", "x")}))
    derived = out.map_batches(lambda b: b, batch_format="pyarrow")
    assert src.context.op_resource_reservation_enabled is False
    assert out.context is not src.context
    assert derived.context is not src.context
    assert derived.context.op_resource_reservation_enabled is (
        DataContext.get_current().op_resource_reservation_enabled
    )
    assert derived.count() == len(set(tbl["county_fips"].to_pylist()))


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
    "zonal_biomass",
    "county_top10",
    "tile_meta_stats",
    "caption_cell_stats",
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
