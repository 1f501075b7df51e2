import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from biomass_processing_pipeline_ray.functions import georef as G
from biomass_processing_pipeline_ray.image import codecs
from biomass_processing_pipeline_ray.sources import tiles as T


def _oracle_frame(n):
    """Brute-force per-tile expectations (independent of the Ray stages)."""
    ids = np.arange(n, dtype=np.int64)
    lon, lat = G.derive_lonlat(ids)
    cx, cy = G.derive_county_xy(lon, lat)
    fips = G.county_fips_from_xy(cx, cy)
    ndvi = np.empty(n)
    biomass = np.empty(n)
    for i in range(n):
        px = T.make_pixels(i)
        dims = T.tile_dims(np.asarray([i]))
        fmt = T.FMTS[int(dims[2][0])]
        # decode through the codec so lossy tiles use decoded pixels
        dec = codecs.decode(codecs.encode(px, fmt), fmt, px.shape[0], px.shape[1])
        red = dec[:, :, 0].astype(np.float64)
        nir = dec[:, :, 2].astype(np.float64)
        ndvi[i] = np.mean((nir - red) / (nir + red + 1.0))
        area_m2 = dec.shape[0] * dec.shape[1] * 10.0 * 10.0
        biomass[i] = (ndvi[i] + 1.0) * area_m2 * 0.01
    return pd.DataFrame(
        {
            "tile_int_id": ids,
            "lon": lon,
            "lat": lat,
            "county_fips": fips.astype(str),
            "ndvi": ndvi,
            "biomass": biomass,
        }
    )


def test_fixture_row_invariants(ray_session, tiles_small):
    """FIXTURES.md §4: pixel fidelity, caption equality, shape, phash."""
    from biomass_processing_pipeline_ray.image import phash as PH

    tbl = pq.read_table(tiles_small)
    df = tbl.to_pandas().sort_values("image_id").reset_index(drop=True)
    assert len(df) == 1000
    for i in (0, 1, 17, 500, 999):
        row = df.iloc[i]
        iid = int(row.image_id[3:])
        dec = codecs.decode(row["bytes"], row.fmt, row.h, row.w)
        orig = T.make_pixels(iid)
        assert dec.shape == (row.h, row.w, 3)
        if row.fmt in ("png", "raw"):
            assert np.array_equal(dec, orig)
        else:
            assert codecs.psnr(orig, dec) >= 40.0
        assert PH.dhash(dec) == row.phash
        assert row.caption.startswith(f"synthetic tile {row.image_id} ")


def test_assignments_match_oracle(ray_session, tiles_small):
    from biomass_processing_pipeline_ray.pipelines.biomass import build_assignments

    ds = build_assignments(tiles_small, n_tiles=1000)
    got = ds.to_pandas().sort_values("tile_int_id").reset_index(drop=True)
    exp = _oracle_frame(1000)
    assert len(got) == 1000
    assert np.array_equal(got.county_fips.to_numpy(), exp.county_fips.to_numpy())
    assert np.allclose(got.ndvi, exp.ndvi, rtol=0, atol=0)  # exact: same decode
    assert np.allclose(got.biomass, exp.biomass, rtol=0, atol=0)
    assert got.phash_ok.all() and got.shape_ok.all()
    # captions pass through byte-equal
    assert got.caption.iloc[5] == f"synthetic tile {got.image_id.iloc[5]} at lon {got.lon.iloc[5]:.4f} lat {got.lat.iloc[5]:.4f}"
    # kNN spot-check vs brute force on derived centroids
    ids = np.arange(1000, dtype=np.int64)
    lon, lat = G.derive_lonlat(ids)
    for i in (3, 77, 500):
        dx = lon - lon[i]
        dy = lat - lat[i]
        d2 = dx * dx + dy * dy
        d2[i] = np.inf
        sel = np.lexsort((ids, d2))[:8]
        expect = ",".join(str(s) for s in sel)
        assert got.knn_ids.iloc[i] == expect


def test_zonal_matches_pandas_groupby(ray_session, tiles_small):
    from biomass_processing_pipeline_ray.pipelines.biomass import biomass_zonal

    got = (
        biomass_zonal(tiles_small, n_tiles=1000)
        .to_pandas()
        .sort_values("county_fips")
        .reset_index(drop=True)
    )
    from biomass_processing_pipeline_ray.functions.rounding import (
        round_away,
        snap_binary,
    )

    # the combine sums lattice-snapped values, so the sums are exact in
    # any order and the rounded outputs equal the reference bit-wise
    exp = _oracle_frame(1000)
    exp = exp.assign(biomass=snap_binary(exp.biomass), ndvi=snap_binary(exp.ndvi))
    g = exp.groupby("county_fips").agg(
        tile_count=("biomass", "size"),
        biomass_sum=("biomass", "sum"),
        ndvi_sum=("ndvi", "sum"),
    ).reset_index()
    assert np.array_equal(got.county_fips.to_numpy(), g.county_fips.to_numpy())
    assert np.array_equal(got.tile_count.to_numpy(), g.tile_count.to_numpy())
    # zonal output rounds sums/means to 4 decimals (round-half-away)
    assert np.array_equal(got.biomass_sum, round_away(g.biomass_sum, 4))
    assert np.array_equal(got.ndvi_mean, round_away(g.ndvi_sum / g.tile_count, 4))


def test_checkpoint_resume(ray_session, tiles_small, tmp_path):
    """FIXTURES.md §5: two-phase run == uninterrupted run, no recompute."""
    import os

    from biomass_processing_pipeline_ray.pipelines.biomass import (
        biomass_zonal_checkpointed,
    )
    from biomass_processing_pipeline_ray.state.checkpoint import CheckpointStore

    out_a = str(tmp_path / "full")
    full = biomass_zonal_checkpointed(tiles_small, out_a, n_tiles=1000)

    # interrupted run: pre-mark half the counties as done by running a full
    # pass, then deleting the other half's manifest entries
    out_b = str(tmp_path / "twophase")
    biomass_zonal_checkpointed(tiles_small, out_b, n_tiles=1000)
    store = CheckpointStore(out_b)
    done = sorted(store.completed())
    half = done[: len(done) // 2]
    for fips in done[len(done) // 2 :]:
        store.invalidate(fips)
    mtimes_before = {
        f: os.path.getmtime(os.path.join(store.lineage_dir, f"{f}.json")) for f in half
    }
    resumed = biomass_zonal_checkpointed(tiles_small, out_b, n_tiles=1000, resume=True)
    # completed counties were not recomputed (lineage untouched)
    for f in half:
        assert os.path.getmtime(os.path.join(store.lineage_dir, f"{f}.json")) == mtimes_before[f]
    pd.testing.assert_frame_equal(
        full.reset_index(drop=True), resumed.reset_index(drop=True)
    )


def test_corrupt_tiles_do_not_poison_zonal(ray_session, tmp_path):
    """A corrupt payload (NaN ndvi/biomass) must not NaN an entire
    county: both zonal paths exclude flagged rows and agree exactly."""
    import pyarrow as pa

    from biomass_processing_pipeline_ray.pipelines.biomass import (
        biomass_zonal,
        biomass_zonal_checkpointed,
    )
    from biomass_processing_pipeline_ray.sources import tiles as T2

    n = 200
    tbl = T2.gen_tiles_batch(np.arange(n))
    bufs = tbl["bytes"].to_pylist()
    corrupt = {7, 42, 141}
    for i in corrupt:
        bufs[i] = b"\x00garbage"
    tbl = tbl.set_column(
        tbl.column_names.index("bytes"), "bytes", pa.array(bufs, pa.binary())
    )
    fix_dir = tmp_path / "corrupt_tiles"
    fix_dir.mkdir()
    pq.write_table(tbl, str(fix_dir / "part-0.parquet"))

    fast = (
        biomass_zonal(str(fix_dir), n_tiles=n)
        .to_pandas()
        .sort_values("county_fips")
        .reset_index(drop=True)
    )
    assert int(fast.tile_count.sum()) == n - len(corrupt)
    assert np.isfinite(fast.biomass_sum).all() and np.isfinite(fast.ndvi_mean).all()

    ckpt = biomass_zonal_checkpointed(
        str(fix_dir), str(tmp_path / "ckpt"), n_tiles=n
    ).reset_index(drop=True)
    assert int(ckpt.tile_count.sum()) == n - len(corrupt)
    assert np.isfinite(ckpt.biomass_sum).all() and np.isfinite(ckpt.ndvi_mean).all()
    # the two paths agree on counts and (to rounding) on sums/means
    assert np.array_equal(fast.county_fips.to_numpy(), ckpt.county_fips.to_numpy())
    assert np.array_equal(fast.tile_count.to_numpy(), ckpt.tile_count.to_numpy())
    assert np.allclose(fast.biomass_sum, ckpt.biomass_sum, atol=1e-4)
    assert np.allclose(fast.ndvi_mean, ckpt.ndvi_mean, atol=1e-4)


def _one_county_layer(lon0, lat0):
    """County "99999": one rectangle the size of the tile domain with
    its south-west corner at (lon0, lat0)."""
    import pyarrow as pa

    from biomass_processing_pipeline_ray.geo import wkb as W

    lon1, lat1 = lon0 + G.LON_SPAN, lat0 + G.LAT_SPAN
    return pa.table(
        {
            "county_fips": pa.array(["99999"], pa.string()),
            "geometry_wkb": pa.array(
                [W.rect_wkb(lon0, lat0, lon1, lat1)], pa.binary()
            ),
            "min_lon": [lon0],
            "min_lat": [lat0],
            "max_lon": [lon1],
            "max_lat": [lat1],
            "area_m2": [1.0],
        }
    )


def test_skewed_county_salted_writes(ray_session, tiles_small, tmp_path):
    """North-rule skew handling: ONE county holding 100% of tiles is
    split into n_salts parallel sub-partitions, output stays exact."""
    from biomass_processing_pipeline_ray.pipelines.biomass import (
        biomass_zonal_checkpointed,
    )
    from biomass_processing_pipeline_ray.state.checkpoint import CheckpointStore

    one_county = _one_county_layer(G.LON0, G.LAT0)
    out = str(tmp_path / "skew")
    df = biomass_zonal_checkpointed(
        tiles_small, out, counties=one_county, n_tiles=1000, n_salts=4
    )
    assert len(df) == 1 and df.county_fips.iloc[0] == "99999"
    assert int(df.tile_count.iloc[0]) == 1000
    # the hot county was written as 4 parallel salted sub-partitions
    store = CheckpointStore(out)
    assert store.completed() == {f"99999_s{s}" for s in range(4)}
    exp = _oracle_frame(1000)
    # partial sums merge in deterministic (county, salt) order
    by_salt = exp.assign(salt=exp.tile_int_id % 4).sort_values("tile_int_id")
    exp_sum = sum(
        by_salt[by_salt.salt == s].biomass.sum() for s in range(4)
    )
    assert abs(df.biomass_sum.iloc[0] - exp_sum) < 1e-6


def test_county_layer_far_from_every_tile(ray_session, tiles_small, tmp_path):
    """A county layer that no tile falls in: both checkpointed pipelines
    return a typed zero-row frame (the columns and dtypes of a normal
    run) and write no partition, a resume returns the same frame, and
    the fast path returns a zero-row Dataset typed like a normal run's."""
    import json
    import os

    from biomass_processing_pipeline_ray.pipelines.biomass import (
        biomass_zonal,
        biomass_zonal_checkpointed,
    )
    from biomass_processing_pipeline_ray.pipelines.sweep import (
        curation_sweep_checkpointed,
    )
    from biomass_processing_pipeline_ray.state.checkpoint import CheckpointStore

    far = _one_county_layer(G.LON0 + 10 * G.LON_SPAN, G.LAT0)
    for fn in (biomass_zonal_checkpointed, curation_sweep_checkpointed):
        normal = fn(tiles_small, str(tmp_path / f"{fn.__name__}_normal"), n_tiles=1000)
        out = str(tmp_path / fn.__name__)
        empty = fn(tiles_small, out, counties=far, n_tiles=1000)
        assert len(empty) == 0
        assert list(empty.columns) == list(normal.columns)
        assert empty.dtypes.equals(normal.dtypes)
        assert CheckpointStore(out).completed() == set()
        with open(os.path.join(out, "_MANIFEST.json")) as f:
            assert json.load(f)["written"] == 0
        assert not [d for d in os.listdir(out) if d.startswith("county_fips=")]
        again = fn(tiles_small, out, counties=far, n_tiles=1000)
        assert again.equals(empty)

    from biomass_processing_pipeline_ray.pipelines.queries import to_df

    normal = to_df(biomass_zonal(tiles_small, n_tiles=1000))
    fast = to_df(biomass_zonal(tiles_small, counties=far, n_tiles=1000))
    assert len(fast) == 0
    assert list(fast.columns) == list(normal.columns)
    assert fast.dtypes.equals(normal.dtypes)


def test_zero_row_tiles_input(ray_session, tiles_small, tmp_path):
    """A tiles dir holding one zero-row parquet: no group reaches the
    checkpointed sink, yet both checkpointed pipelines return a typed
    zero-row frame (the columns and dtypes of a normal run) and write
    no partition."""
    import glob
    import os

    from biomass_processing_pipeline_ray.pipelines.biomass import (
        biomass_zonal_checkpointed,
    )
    from biomass_processing_pipeline_ray.pipelines.sweep import (
        curation_sweep_checkpointed,
    )
    from biomass_processing_pipeline_ray.state.checkpoint import CheckpointStore

    src = sorted(glob.glob(os.path.join(tiles_small, "*.parquet")))[0]
    tiles = tmp_path / "tiles_empty"
    tiles.mkdir()
    pq.write_table(pq.read_schema(src).empty_table(), str(tiles / "part-0.parquet"))
    for fn in (biomass_zonal_checkpointed, curation_sweep_checkpointed):
        normal = fn(tiles_small, str(tmp_path / f"{fn.__name__}_normal"), n_tiles=1000)
        out = str(tmp_path / fn.__name__)
        empty = fn(str(tiles), out, n_tiles=1000)
        assert len(empty) == 0
        assert list(empty.columns) == list(normal.columns)
        assert empty.dtypes.equals(normal.dtypes)
        assert CheckpointStore(out).completed() == set()


def test_combines_decide_reservation_on_their_input(ray_session, tiles_small, tmp_path):
    """The combine switches Ray Data's per-operator reservation off on
    its own input: the input of a ``county_zonal`` call runs without it,
    the Datasets ``biomass_zonal`` and ``county_zonal`` return start
    their plans from the global setting, and the process-global
    ``DataContext`` is the same after them and after the checkpointed
    job."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data import DataContext

    from biomass_processing_pipeline_ray.pipelines.biomass import (
        biomass_zonal,
        biomass_zonal_checkpointed,
    )
    from biomass_processing_pipeline_ray.stages.zonal import county_zonal

    ctx = DataContext.get_current()
    before = dict(vars(ctx))

    def finalize(c):
        return pa.table({"county_fips": pa.array(c.fips, pa.string()),
                         "x": pa.array(c["x"], pa.int64())})

    tbl = pa.table({"county_fips": ["17001", "17003", "17001"], "x": [1, 2, 3]})
    src = rd.from_arrow(tbl)
    for ds in (
        biomass_zonal(tiles_small, n_tiles=1000),
        county_zonal(src, {"x": ("sum", "x")}, finalize),
    ):
        assert ds.context.op_resource_reservation_enabled is True
        assert ds.count() > 0
        assert DataContext.get_current() is ctx and vars(ctx) == before
    assert src.context.op_resource_reservation_enabled is False
    biomass_zonal_checkpointed(tiles_small, str(tmp_path / "out"), n_tiles=1000)
    assert DataContext.get_current() is ctx and vars(ctx) == before
    assert ctx.op_resource_reservation_enabled


def test_resume_filter_shares_partition_ids(ray_session, tiles_small, tmp_path):
    """The pre-decode resume filter and the store name partitions the
    same way: with some partitions invalidated, exactly the tiles of
    those partitions get past the filter, and the resumed run's
    manifest counts them as written and the rest as recovered."""
    import json
    import os

    from biomass_processing_pipeline_ray.pipelines.biomass import (
        biomass_zonal_checkpointed,
        build_assignments,
    )
    from biomass_processing_pipeline_ray.state.checkpoint import CheckpointStore

    def manifest():
        with open(os.path.join(out, "_MANIFEST.json")) as f:
            m = json.load(f)
        return m["written"], m["recovered"]

    out = str(tmp_path / "filter")
    biomass_zonal_checkpointed(tiles_small, out, n_tiles=1000, n_salts=4)
    store = CheckpointStore(out)
    parts = sorted(store.completed())
    assert manifest() == (len(parts), 0)
    stale = parts[::5]
    expect = sum(store.lineage(p)["rows"] for p in stale)
    for p in stale:
        store.invalidate(p)
    ds = build_assignments(
        tiles_small, skip_partitions=store.completed(), n_salts=4, n_tiles=1000
    )
    assert 0 < expect < 1000
    assert ds.count() == expect
    biomass_zonal_checkpointed(tiles_small, out, n_tiles=1000, n_salts=4)
    assert manifest() == (len(stale), len(parts) - len(stale))


def test_per_county_wall_clock_beats_reference(ray_session, tiles_small):
    """The reference's headline benchmark is ONE county in 6.6 minutes
    (396 s; reference run_full_county_test.py / BASELINE.md).  The
    north rule asks for that number reproduced as a per-county
    wall-clock test: here the full 64-county flagship (decode → cells
    → PIP → kNN → zonal) over the t1 fixture must average far under
    the reference's per-county budget.  The 60 s/county bound is
    ~400× looser than the measured ~0.05 s/county so scheduler noise
    can never flake it, while still sitting 6.6× under the
    reference's 396 s."""
    import time

    from biomass_processing_pipeline_ray.pipelines.biomass import biomass_zonal

    t0 = time.time()
    df = biomass_zonal(tiles_small, n_tiles=1000).to_pandas()
    wall = time.time() - t0
    n_counties = len(df)
    assert n_counties == 64
    per_county = wall / n_counties
    assert per_county < 60.0, f"{per_county:.2f}s/county vs reference 396s"


ONE_CPU_CHILD = """
import os, ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from biomass_processing_pipeline_ray.pipelines.biomass import biomass_zonal
from biomass_processing_pipeline_ray.pipelines.queries import q_pip_assign_jittered
n = q_pip_assign_jittered(f"sf{4096 / 6e6:.12f}").count()
df = biomass_zonal(os.environ["TILES"]).to_pandas()
print(n, len(df), int(df.tile_count.sum()))
ray.shutdown()
"""


def test_one_cpu_session_finishes(ray_session, tiles_small):
    """A 1-CPU session runs the PIP join over an ``rd.range`` universe
    and the fast zonal job to the end: no stage may hold the only CPU
    while the tasks feeding it wait for one."""
    import os
    import signal
    import subprocess
    import sys

    from biomass_processing_pipeline_ray.pipelines.biomass import biomass_zonal

    expect = biomass_zonal(tiles_small).to_pandas()
    env = dict(
        os.environ,
        TILES=tiles_small,
        PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", ONE_CPU_CHILD], env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        raise AssertionError("1-CPU session did not finish within 60 s")
    assert proc.returncode == 0
    n, counties, tiles = map(int, out.split()[-3:])
    assert (n, counties, tiles) == (4096, 64, int(expect.tile_count.sum()))


def test_finished_job_holds_no_cpu(ray_session, tiles_small):
    """Once a job's result is in the calling process, every session CPU
    is free again, even while no garbage collection runs."""
    import gc
    import time

    from biomass_processing_pipeline_ray.pipelines.biomass import biomass_zonal

    ray = ray_session
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            biomass_zonal(tiles_small).to_pandas()
        total = ray.cluster_resources()["CPU"]
        deadline = time.time() + 5
        while time.time() < deadline:
            if ray.available_resources().get("CPU", 0) == total:
                break
            time.sleep(0.1)
        assert ray.available_resources().get("CPU", 0) == total
    finally:
        gc.enable()
