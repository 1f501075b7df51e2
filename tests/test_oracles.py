"""Every registry entry against its DuckDB twin at sf0.001.

Each twin is built for the sf0.001 universe (6k tiles) and compared
with ``scripts/verify_queries.py``'s exact comparison: columns by name,
rows sorted by all columns, floats bitwise.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

SF = "/root/testdata/sf0.001"

ENTRIES = [
    "tiles_hash_sample",
    "county_fmt_pivot",
    "caption_pair_jaccard",
    "curation_sweep",
    "cell_pyramid",
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
    "zonal_biomass_px",
    "knn_idw_sharded",
    "bbox_search_lifecycle",
    "phash_neardup",
    "county_geo_stats",
    "hex_index",
    "county_fmt_hist",
    "county_bounds",
    "tile_meta_stats",
    "county_shannon",
    "county_dominant_fmt",
    "knn_idw_sharded_capped",
    "pip_assign",
    "zonal_biomass",
    "county_top10",
    "pip_assign_jittered",
    "cell_index",
    "county_edge_stats",
    "knn_idw",
    "knn_edges",
    "county_quantiles",
    "county_top3_tiles",
    "county_fmt_rollup",
    "image_dup_clusters",
    "county_gradient",
    "caption_cell_stats",
    "hex_ring_smooth",
    "county_overlap",
    "county_simplify",
    "utm_project",
    "bbox_search_indexed",
    "county_clip_stats",
    "image_thumbs",
    "county_mosaic",
    "county_winsorized",
    "county_overlap_depth",
    "county_mosaic_mean",
    "county_mosaic_sweep",
    "tile_overlap_pairs",
]


@pytest.fixture(scope="module")
def registry(ray_session):
    from biomass_processing_pipeline_ray.pipelines.queries import (
        build_queries,
        ensure_generated_oracles,
    )

    ensure_generated_oracles(SF)
    return build_queries(SF)


def test_registry_is_the_tile_engine(registry):
    assert list(registry) == ENTRIES


@pytest.mark.parametrize("name", ENTRIES)
def test_entry_matches_oracle(registry, name):
    import duckdb
    from verify_queries import compare

    from biomass_processing_pipeline_ray.pipelines.queries import to_df

    fn, sql = registry[name]
    got = to_df(fn(SF))
    con = duckdb.connect()
    exp = con.sql(sql).df()
    assert compare(name, got, exp) == []
