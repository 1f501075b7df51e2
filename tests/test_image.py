import numpy as np
import pytest

from biomass_processing_pipeline_ray.image import codecs, phash


@pytest.fixture
def rd(ray_session):
    import ray.data

    return ray.data


def test_raw_png_lossless(rng):
    px = rng.integers(0, 256, (40, 56, 3), dtype=np.uint8)
    for fmt in ("raw", "png"):
        buf = codecs.encode(px, fmt)
        dec = codecs.decode(buf, fmt, 40, 56)
        assert np.array_equal(px, dec), fmt


def test_jpeg_standin_psnr_bound(rng):
    """North-rule bound: lossy decode PSNR ≥ 40 dB."""
    for _ in range(5):
        px = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
        buf = codecs.encode(px, "jpeg")
        dec = codecs.decode(buf, "jpeg", 64, 64)
        assert codecs.psnr(px, dec) >= 40.0


def test_jpeg_decode_deterministic(rng):
    px = rng.integers(0, 256, (32, 48, 3), dtype=np.uint8)
    buf = codecs.encode(px, "jpeg")
    d1 = codecs.decode(buf, "jpeg", 32, 48)
    d2 = codecs.decode(buf, "jpeg", 32, 48)
    assert np.array_equal(d1, d2)


def test_png_unfilter_paths(rng):
    """Decoder handles filtered PNGs (Up/Sub/Paeth), not just filter 0."""
    import struct
    import zlib

    px = rng.integers(0, 256, (6, 5, 3), dtype=np.uint8)
    h, w = 6, 5
    # build a PNG with per-row filters 0,1,2,3,4,0 by brute-force encoding
    rows = []
    prev = np.zeros(w * 3, np.int16)
    filters = [0, 1, 2, 3, 4, 0]
    for r, f in enumerate(filters):
        cur = px[r].reshape(-1).astype(np.int16)
        enc = np.zeros(w * 3, np.int16)
        for x in range(w * 3):
            a = int(cur[x - 3]) if x >= 3 else 0
            b = int(prev[x])
            c = int(prev[x - 3]) if x >= 3 else 0
            if f == 0:
                enc[x] = cur[x]
            elif f == 1:
                enc[x] = (cur[x] - a) % 256
            elif f == 2:
                enc[x] = (cur[x] - b) % 256
            elif f == 3:
                enc[x] = (cur[x] - ((a + b) >> 1)) % 256
            else:
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
                enc[x] = (cur[x] - pred) % 256
        rows.append(bytes([f]) + enc.astype(np.uint8).tobytes())
        prev = cur
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    png = (
        b"\x89PNG\r\n\x1a\n"
        + codecs._chunk(b"IHDR", ihdr)
        + codecs._chunk(b"IDAT", zlib.compress(b"".join(rows)))
        + codecs._chunk(b"IEND", b"")
    )
    dec = codecs.decode_png(png)
    assert np.array_equal(dec, px)


def test_phash_stable_and_sensitive(rng):
    px = rng.integers(0, 256, (48, 48, 3), dtype=np.uint8)
    h1 = phash.dhash(px)
    assert h1 == phash.dhash(px.copy())
    # small perturbation → small hamming distance; different image → large
    other = rng.integers(0, 256, (48, 48, 3), dtype=np.uint8)
    near = px.copy()
    near[0, 0] = 255 - near[0, 0]
    d_near = phash.hamming_i64(np.array([h1]), np.array([phash.dhash(near)]))[0]
    d_far = phash.hamming_i64(np.array([h1]), np.array([phash.dhash(other)]))[0]
    assert d_near <= 4
    assert d_far > 10


def test_mosaic_zonal_overlap_and_bucket_straddle(rd, ray_session):
    """County mosaic vs a test-local brute force on a hand-picked tile
    set containing (a) genuinely overlapping footprints and (b) tiles
    straddling 2048-px bucket boundaries — the owner-computes rule must
    neither drop nor double-count straddled pixels, and the per-pixel
    max must differ from a naive per-tile sum."""
    import pandas as pd
    import pyarrow as pa

    from biomass_processing_pipeline_ray.functions import georef as G
    from biomass_processing_pipeline_ray.functions.rounding import (
        round_away,
        snap_binary,
    )
    from biomass_processing_pipeline_ray.sources.tiles import (
        gen_tiles_batch,
        tile_dims,
    )
    from biomass_processing_pipeline_ray.stages.mosaic import (
        BUCKET_PX,
        decode_slices,
        mosaic_zonal,
        tile_pixel_extent,
    )

    # scan a candidate id range for overlap pairs + bucket straddlers
    cand = np.arange(0, 120_000, dtype=np.int64)
    w_, h_, _ = tile_dims(cand)
    ix0, ix1, iy0, iy1 = tile_pixel_extent(cand, w_, h_)
    # footprint-interval sweep: sort by ix0, test the next 64 sorted
    # neighbors for x-interval AND y-interval intersection (footprints
    # span ≤ 64 px, so farther neighbors cannot overlap in x)
    order = np.argsort(ix0, kind="stable")
    a0, a1 = ix0[order], ix1[order]
    b0, b1 = iy0[order], iy1[order]
    pick = set()
    for off in range(1, 64):
        i = np.arange(len(cand) - off)
        k = i + off
        hit = (a0[k] <= a1[i]) & ~((b1[k] < b0[i]) | (b0[k] > b1[i]))
        for j in np.flatnonzero(hit)[:2]:
            pick.add(int(cand[order[j]]))
            pick.add(int(cand[order[j + off]]))
        if len(pick) >= 16:
            break
    assert len(pick) >= 2, "fixture id space lost its overlap pairs"
    # bucket straddlers: footprint crosses a 2048-px line in x and in y
    sx = np.flatnonzero(ix0 // BUCKET_PX != ix1 // BUCKET_PX)[:4]
    sy = np.flatnonzero(iy0 // BUCKET_PX != iy1 // BUCKET_PX)[:4]
    assert len(sx) and len(sy)
    pick.update(int(i) for i in cand[sx])
    pick.update(int(i) for i in cand[sy])
    pick.update(range(64))  # filler spread
    ids = np.asarray(sorted(pick), dtype=np.int64)
    tbl = gen_tiles_batch(ids)

    # straddlers really fan out to >1 bucket, and slices are disjoint:
    # total slice pixels == total in-domain pixels (nothing shipped twice)
    fan = decode_slices(tbl)
    assert len(fan) > len(ids)  # at least one tile emitted ≥ 2 slices
    n_slice_px = int(
        (fan["sw"].to_numpy().astype(np.int64) * fan["sh"].to_numpy()).sum()
    )

    got = (
        mosaic_zonal(rd.from_arrow(tbl), ("max",))
        .to_pandas()
        .sort_values("county_fips")
        .reset_index(drop=True)
    )

    # brute force: global per-pixel dict-max, then county reduce
    from biomass_processing_pipeline_ray.image import codecs as C
    from biomass_processing_pipeline_ray.sources.tiles import FMTS, make_pixels

    best: dict[int, float] = {}
    n_total_px = 0
    for i in ids:
        w0, h0, fidx = tile_dims(np.asarray([i], dtype=np.int64))
        w0, h0 = int(w0[0]), int(h0[0])
        fmt = FMTS[int(fidx[0])]
        dec = C.decode(C.encode(make_pixels(int(i)), fmt), fmt, h0, w0)
        v = (dec[:, :, 2].astype(np.float64) - dec[:, :, 0]) / (
            dec[:, :, 2].astype(np.float64) + dec[:, :, 0] + 1.0
        )
        x0, x1, y0, y1 = tile_pixel_extent(
            np.asarray([i], np.int64),
            np.asarray([w0], np.int64),
            np.asarray([h0], np.int64),
        )
        ix = int(x0[0]) + np.arange(w0, dtype=np.int64)
        iy = int(y1[0]) - np.arange(h0, dtype=np.int64)
        for r in range(h0):
            if not (0 <= iy[r] < 45056):
                continue
            for c in range(w0):
                if not (0 <= ix[c] < 32768):
                    continue
                kk = int(iy[r]) * 32768 + int(ix[c])
                n_total_px += 1
                val = float(v[r, c])
                if kk not in best or val > best[kk]:
                    best[kk] = val
    assert n_total_px > len(best), "no pixel overlap exercised"
    assert n_slice_px == n_total_px  # disjoint slice cover of in-domain px
    keys = np.fromiter(best.keys(), np.int64, len(best))
    vals = snap_binary(np.fromiter(best.values(), np.float64, len(best)))
    code = G.FIPS_BASE + (keys // 32768 // 5632) * G.COUNTY_NX + (
        keys % 32768
    ) // 4096
    exp = (
        pd.DataFrame({"c": code, "v": vals})
        .groupby("c", sort=True)
        .agg(n_px=("v", "size"), val_sum=("v", "sum"))
        .reset_index()
    )
    exp = pd.DataFrame(
        {
            "county_fips": exp["c"].astype(np.int64).astype(str).str.zfill(5),
            "n_px": exp["n_px"].astype(np.int64),
            "mosaic_sum": round_away(exp["val_sum"].to_numpy(), 6),
        }
    ).sort_values("county_fips").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_overlap_depth_vs_bruteforce(rd, ray_session):
    """Difference-array depth banding vs a literal per-pixel dict count
    on a tile set with real overlaps and bucket straddlers."""
    import pandas as pd
    import pyarrow as pa

    from biomass_processing_pipeline_ray.functions import georef as G
    from biomass_processing_pipeline_ray.sources.tiles import (
        gen_tiles_batch,
        tile_dims,
    )
    from biomass_processing_pipeline_ray.stages.mosaic import (
        mosaic_zonal,
        tile_pixel_extent,
    )

    cand = np.arange(0, 120_000, dtype=np.int64)
    w_, h_, _ = tile_dims(cand)
    ix0, ix1, iy0, iy1 = tile_pixel_extent(cand, w_, h_)
    order = np.argsort(ix0, kind="stable")
    a0, a1 = ix0[order], ix1[order]
    b0, b1 = iy0[order], iy1[order]
    pick = set(range(48))
    for off in range(1, 64):
        i = np.arange(len(cand) - off)
        k = i + off
        hit = (a0[k] <= a1[i]) & ~((b1[k] < b0[i]) | (b0[k] > b1[i]))
        for j in np.flatnonzero(hit)[:3]:
            pick.add(int(cand[order[j]]))
            pick.add(int(cand[order[j + off]]))
        if len(pick) >= 72:
            break
    ids = np.asarray(sorted(pick), dtype=np.int64)
    tbl = gen_tiles_batch(ids)
    got = (
        mosaic_zonal(rd.from_arrow(tbl), ("depth",))
        .drop_columns(["n_px"])
        .to_pandas()
        .sort_values("county_fips")
        .reset_index(drop=True)
    )

    cnt: dict[int, int] = {}
    for i in ids:
        w0, h0, _ = tile_dims(np.asarray([i], dtype=np.int64))
        x0, _, _, y1 = tile_pixel_extent(
            np.asarray([i], np.int64),
            w0.astype(np.int64),
            h0.astype(np.int64),
        )
        for r in range(int(h0[0])):
            iy = int(y1[0]) - r
            if not (0 <= iy < 45056):
                continue
            for c in range(int(w0[0])):
                ix = int(x0[0]) + c
                if not (0 <= ix < 32768):
                    continue
                kk = iy * 32768 + ix
                cnt[kk] = cnt.get(kk, 0) + 1
    keys = np.fromiter(cnt.keys(), np.int64, len(cnt))
    depth = np.fromiter(cnt.values(), np.int64, len(cnt))
    assert (depth >= 2).any(), "no overlap depth exercised"
    code = G.FIPS_BASE + (keys // 32768 // 5632) * G.COUNTY_NX + (
        keys % 32768
    ) // 4096
    band = np.minimum(depth, 3)
    exp = (
        pd.DataFrame({"c": code, "b": band, "one": 1})
        .groupby(["c", "b"])["one"]
        .sum()
        .unstack(fill_value=0)
        .reindex(columns=[1, 2, 3], fill_value=0)
        .reset_index()
    )
    exp = pd.DataFrame(
        {
            "county_fips": exp["c"].astype(np.int64).astype(str).str.zfill(5),
            "d1": exp[1].astype(np.int64),
            "d2": exp[2].astype(np.int64),
            "d3p": exp[3].astype(np.int64),
        }
    ).sort_values("county_fips").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_mosaic_mean_vs_bruteforce(rd, ray_session):
    """Mean composite vs a literal per-pixel (Σ snap(v), n) dict on a
    small overlapping tile set — checks the snapped-sum exactness and
    the shared-operand division rule."""
    import pandas as pd
    import pyarrow as pa

    from biomass_processing_pipeline_ray.functions import georef as G
    from biomass_processing_pipeline_ray.functions.rounding import (
        round_away,
        snap_binary,
    )
    from biomass_processing_pipeline_ray.image import codecs as C
    from biomass_processing_pipeline_ray.sources.tiles import (
        FMTS,
        gen_tiles_batch,
        make_pixels,
        tile_dims,
    )
    from biomass_processing_pipeline_ray.stages.mosaic import (
        mosaic_zonal,
        tile_pixel_extent,
    )

    cand = np.arange(0, 120_000, dtype=np.int64)
    w_, h_, _ = tile_dims(cand)
    ix0, ix1, iy0, iy1 = tile_pixel_extent(cand, w_, h_)
    order = np.argsort(ix0, kind="stable")
    a0, a1 = ix0[order], ix1[order]
    b0, b1 = iy0[order], iy1[order]
    pick = set(range(32))
    for off in range(1, 64):
        i = np.arange(len(cand) - off)
        k = i + off
        hit = (a0[k] <= a1[i]) & ~((b1[k] < b0[i]) | (b0[k] > b1[i]))
        for j in np.flatnonzero(hit)[:2]:
            pick.add(int(cand[order[j]]))
            pick.add(int(cand[order[j + off]]))
        if len(pick) >= 44:
            break
    ids = np.asarray(sorted(pick), dtype=np.int64)
    tbl = gen_tiles_batch(ids)
    got = (
        mosaic_zonal(rd.from_arrow(tbl), ("mean",))
        .to_pandas()
        .sort_values("county_fips")
        .reset_index(drop=True)
    )

    acc: dict[int, tuple[float, int]] = {}
    for i in ids:
        w0, h0, fidx = tile_dims(np.asarray([i], dtype=np.int64))
        w0, h0 = int(w0[0]), int(h0[0])
        fmt = FMTS[int(fidx[0])]
        dec = C.decode(C.encode(make_pixels(int(i)), fmt), fmt, h0, w0)
        v = snap_binary(
            (dec[:, :, 2].astype(np.float64) - dec[:, :, 0])
            / (dec[:, :, 2].astype(np.float64) + dec[:, :, 0] + 1.0)
        )
        x0, _, _, y1 = tile_pixel_extent(
            np.asarray([i], np.int64),
            np.asarray([w0], np.int64),
            np.asarray([h0], np.int64),
        )
        for r in range(h0):
            iy = int(y1[0]) - r
            if not (0 <= iy < 45056):
                continue
            for c in range(w0):
                ix = int(x0[0]) + c
                if not (0 <= ix < 32768):
                    continue
                kk = iy * 32768 + ix
                s, n = acc.get(kk, (0.0, 0))
                acc[kk] = (s + float(v[r, c]), n + 1)
    assert any(n > 1 for _, n in acc.values()), "no overlap exercised"
    keys = np.fromiter(acc.keys(), np.int64, len(acc))
    mean = snap_binary(
        np.fromiter((s for s, _ in acc.values()), np.float64, len(acc))
        / np.fromiter((n for _, n in acc.values()), np.float64, len(acc))
    )
    code = G.FIPS_BASE + (keys // 32768 // 5632) * G.COUNTY_NX + (
        keys % 32768
    ) // 4096
    exp = (
        pd.DataFrame({"c": code, "v": mean})
        .groupby("c", sort=True)
        .agg(n_px=("v", "size"), val_sum=("v", "sum"))
        .reset_index()
    )
    exp = pd.DataFrame(
        {
            "county_fips": exp["c"].astype(np.int64).astype(str).str.zfill(5),
            "n_px": exp["n_px"].astype(np.int64),
            "mean_sum": round_away(exp["val_sum"].to_numpy(), 6),
        }
    ).sort_values("county_fips").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_overlap_pairs_dense_window_and_negative_cells(rd, ray_session):
    """The per-cell sweep must be density-safe (more co-window tiles
    than any fixed offset cap) and the owner rule must survive
    negative extents (cells west/south of the domain).  Brute force
    O(n²) over a crafted 5-int extent table driven end-to-end through
    the assign/exchange/sweep/dedup pipeline; a sparse table yields a
    typed empty result."""
    import pyarrow as pa

    from biomass_processing_pipeline_ray.stages.mosaic import (
        OVL_BUCKET,
        extent_overlap_pairs,
    )

    rng = np.random.default_rng(11)
    # 100 near-coincident footprints inside one cell: every pair
    # overlaps, so x-sorted partners sit up to 99 offsets apart
    n_dense, n_scatter = 100, 400
    x0 = np.concatenate(
        [100 + rng.integers(0, 8, n_dense), rng.integers(-80, 1100, n_scatter)]
    )
    y0 = np.concatenate(
        [100 + rng.integers(0, 8, n_dense), rng.integers(-80, 1100, n_scatter)]
    )
    n = len(x0)
    x1 = x0 + rng.integers(8, 65, n) - 1
    y1 = y0 + rng.integers(8, 65, n) - 1
    tid = rng.permutation(n).astype(np.int64) * 7 + 3

    hit = (
        (x0[None, :] <= x1[:, None])
        & (x0[:, None] <= x1[None, :])
        & (y0[None, :] <= y1[:, None])
        & (y0[:, None] <= y1[None, :])
    )
    exp = {}
    for i, j in zip(*np.nonzero(np.triu(hit, k=1))):
        a, b = sorted((int(tid[i]), int(tid[j])))
        ox = min(x1[i], x1[j]) - max(x0[i], x0[j]) + 1
        oy = min(y1[i], y1[j]) - max(y0[i], y0[j]) + 1
        owner = (max(x0[i], x0[j]) // OVL_BUCKET, max(y0[i], y0[j]) // OVL_BUCKET)
        exp[(a, b)] = (int(ox * oy), owner)
    dense = set(tid[:n_dense].tolist())
    assert sum(a in dense and b in dense for a, b in exp) == n_dense * (n_dense - 1) // 2
    assert any(min(owner) < 0 for _, owner in exp.values())

    tbl = pa.table(
        {
            "tid": pa.array(tid),
            "x0": pa.array(x0, pa.int64()),
            "x1": pa.array(x1, pa.int64()),
            "y0": pa.array(y0, pa.int64()),
            "y1": pa.array(y1, pa.int64()),
        }
    )
    got = extent_overlap_pairs(rd.from_arrow(tbl)).to_pandas()
    assert got[["a", "b"]].duplicated().sum() == 0  # owner dedup exact
    assert dict(zip(zip(got["a"], got["b"]), got["shared_px"])) == {
        k: v[0] for k, v in exp.items()
    }

    far = tbl.take([int(np.argmin(x0 + y0)), int(np.argmax(x0 + y0))])
    for sparse in (far, tbl.slice(0, 0)):
        empty = extent_overlap_pairs(rd.from_arrow(sparse))
        assert empty.count() == 0
        assert empty.schema().names == ["a", "b", "ox_px", "oy_px", "shared_px"]


def test_mosaic_kernels_leave_global_context(rd, ray_session):
    """The value-product mosaics put the push-based shuffle on their
    input's own DataContext: the exchange runs push-based (its
    SortMerge stage shows in the stats) and the process-global context
    that later queries inherit is left as it was."""
    from ray.data import DataContext

    from biomass_processing_pipeline_ray.sources.tiles import gen_tiles_batch
    from biomass_processing_pipeline_ray.stages.mosaic import mosaic_zonal

    tbl = gen_tiles_batch(np.arange(64, dtype=np.int64))
    ctx = DataContext.get_current()
    before = ctx.use_push_based_shuffle
    strategy = ctx.shuffle_strategy
    for products in (("max",), ("mean",), ("max", "mean"), ("max", "depth")):
        out = mosaic_zonal(rd.from_arrow(tbl), products).materialize()
        assert DataContext.get_current() is ctx
        assert ctx.use_push_based_shuffle == before
        assert ctx.shuffle_strategy == strategy
        assert "SortMerge" in out.stats()


@pytest.mark.parametrize(
    "products",
    [("max",), ("mean",), ("max", "mean"), ("depth",)],
    ids="+".join,
)
def test_mosaic_zonal_empty_input_is_typed(rd, ray_session, products):
    """An empty tile table gives zero rows and a schema with every
    output column typed: county_fips string, n_px int64, and the
    products' columns."""
    import pyarrow as pa

    from biomass_processing_pipeline_ray.sources.tiles import gen_tiles_batch
    from biomass_processing_pipeline_ray.stages.mosaic import mosaic_zonal

    empty = rd.from_arrow(gen_tiles_batch(np.arange(4, dtype=np.int64)).slice(0, 0))
    out = mosaic_zonal(empty, products)
    assert out.count() == 0
    cols = {
        "max": {"mosaic_sum": pa.float64()},
        "mean": {"mean_sum": pa.float64()},
        "depth": {"d1": pa.int64(), "d2": pa.int64(), "d3p": pa.int64()},
    }
    want = {"county_fips": pa.string(), "n_px": pa.int64()}
    for p in products:
        want.update(cols[p])
    schema = out.schema()
    assert schema is not None
    assert dict(zip(schema.names, schema.types)) == want
