import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biomass_processing_pipeline_ray.geo import knn, pip, wkb
from biomass_processing_pipeline_ray.sources.counties import jittered_counties, rect_counties


def _brute_pip(px, py, rings_by_label):
    """Independent per-point even-odd oracle (pure python loops)."""
    out = []
    for x, y in zip(px, py):
        best = None
        for label, rings in rings_by_label.items():
            crossings = 0
            for ring in rings:
                for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]):
                    if (y0 <= y) != (y1 <= y):
                        xint = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
                        if x < xint:
                            crossings += 1
            if crossings % 2 == 1 and (best is None or label < best):
                best = label
        out.append(best if best is not None else "")
    return np.asarray(out, dtype=object)


def test_pip_matches_bruteforce_jittered(rng):
    counties = jittered_counties()
    pset = pip.PolygonSet(
        counties["county_fips"].to_pylist(), counties["geometry_wkb"].to_pylist()
    )
    px = rng.uniform(-91.5, -87.5, 2000)
    py = rng.uniform(37.0, 42.5, 2000)
    got = pset.locate_labels(px, py)
    rings_by_label = {
        f: wkb.wkb_to_rings(w)
        for f, w in zip(
            counties["county_fips"].to_pylist(), counties["geometry_wkb"].to_pylist()
        )
    }
    expect = _brute_pip(px, py, rings_by_label)
    assert np.array_equal(got.astype(str), expect.astype(str))
    # jittered grid still partitions the domain: everything is assigned
    assert np.all(got != "")


def test_pip_rect_matches_floor_arithmetic(rng):
    from biomass_processing_pipeline_ray.functions import georef as G

    counties = rect_counties()
    pset = pip.PolygonSet(
        counties["county_fips"].to_pylist(), counties["geometry_wkb"].to_pylist()
    )
    ids = rng.integers(0, 10**9, 3000)
    lon, lat = G.derive_lonlat(ids)
    got = pset.locate_labels(lon, lat)
    cx, cy = G.derive_county_xy(lon, lat)
    expect = G.county_fips_from_xy(cx, cy)
    assert np.array_equal(got.astype(str), expect.astype(str))


def test_pip_boundary_tie_lowest_fips():
    pset = pip.PolygonSet(
        ["00002", "00001"],
        [wkb.rect_wkb(0, 0, 1, 1), wkb.rect_wkb(1, 0, 2, 1)],
    )
    # x=1.0 lies on the shared edge → lowest fips wins
    got = pset.locate_labels(np.array([1.0]), np.array([0.5]))
    assert got[0] == "00001"


def test_knn_exact_vs_bruteforce(rng):
    n = 3000
    x = rng.uniform(0, 1, n)
    y = rng.uniform(0, 1, n)
    ids = rng.permutation(n).astype(np.int64)
    g = knn.GridKNN(x, y, ids)
    k = 8
    idx, d2 = g.query(x, y, ids, k)
    for i in rng.integers(0, n, 120):
        dx = x - x[i]
        dy = y - y[i]
        dd = dx * dx + dy * dy
        dd[i] = np.inf
        sel = np.lexsort((ids, dd))[:k]
        assert np.array_equal(sel, idx[i]), i


def test_knn_clustered_skew(rng):
    """Heavy clustering (one hot bucket) still returns exact results."""
    n = 1500
    x = np.concatenate([rng.uniform(0, 0.01, n // 2), rng.uniform(0, 1, n // 2)])
    y = np.concatenate([rng.uniform(0, 0.01, n // 2), rng.uniform(0, 1, n // 2)])
    ids = np.arange(n, dtype=np.int64)
    g = knn.GridKNN(x, y, ids)
    idx, _ = g.query(x[:50], y[:50], ids[:50], 5)
    for i in range(50):
        dx = x - x[i]
        dy = y - y[i]
        dd = dx * dx + dy * dy
        dd[i] = np.inf
        sel = np.lexsort((ids, dd))[:5]
        assert np.array_equal(sel, idx[i])


def _brute_knn(x, y, ids, qx, qy, qids, k):
    """Row-by-row (d2, id) order over every point: lexsort((ids, d2))[:k]."""
    idx = np.full((len(qx), k), -1, dtype=np.int64)
    out = np.full((len(qx), k), np.inf)
    for r in range(len(qx)):
        dx = x - qx[r]
        dy = y - qy[r]
        d2 = dx * dx + dy * dy
        d2[ids == qids[r]] = np.inf
        sel = np.lexsort((ids, d2))[:k]
        sel = sel[np.isfinite(d2[sel])]
        idx[r, : len(sel)] = sel
        out[r, : len(sel)] = d2[sel]
    return idx, out


def test_knn_fallbacks_of_all_query_blocks_walk_once(monkeypatch):
    """Queries the 3×3 fast path leaves unanswered in different query
    blocks take ONE ring walk together, and still the exact answer."""
    rng = np.random.default_rng(11)
    x, y = rng.uniform(0, 0.01, (2, 1500))
    x = np.concatenate([x, [1.0, 0.0, 1.0, 0.5]])  # 4 far corners: the walk
    y = np.concatenate([y, [0.0, 1.0, 1.0, 1.0]])
    ids = rng.permutation(len(x)).astype(np.int64)
    q = rng.permutation(len(x))  # corners land in different query blocks
    assert len(set(np.flatnonzero(q >= 1500) // knn._QUERY_BLOCK)) > 1
    g = knn.GridKNN(x, y, ids)
    walks = []
    walk = g._query_ring_walk
    monkeypatch.setattr(g, "_query_ring_walk", lambda *a: walks.append(len(a[0])) or walk(*a))
    idx, d2 = g.query(x[q], y[q], ids[q], 8)
    bidx, bd2 = _brute_knn(x, y, ids, x[q], y[q], ids[q], 8)
    assert np.array_equal(idx, bidx) and np.array_equal(d2, bd2)
    assert len(walks) == 1 and walks[0] >= 4


@pytest.mark.parametrize(
    "x, y, k",
    [
        ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], 2),  # collinear
        ([-90.0, -90.001], [40.0, 40.0], 8),  # 0.001° apart on one latitude
    ],
)
def test_knn_degenerate_layouts(x, y, k):
    """Collinear or near-coincident points get O(n) buckets (a near-zero
    area once sized the grid at ~10^6 columns and the ring walk never
    ended) and still the exact answer."""
    x, y = np.array(x), np.array(y)
    ids = np.arange(len(x), dtype=np.int64)
    g = knn.GridKNN(x, y, ids)
    assert g.nx * g.ny <= 4 * len(x) + 1
    idx, d2 = g.query(x, y, ids, k)
    bidx, bd2 = _brute_knn(x, y, ids, x, y, ids, k)
    assert np.array_equal(idx, bidx) and np.array_equal(d2, bd2)


@st.composite
def _knn_layouts(draw):
    """(kind, x, y, ids, k): point layouts that stress the bucket grid."""
    kind = draw(
        st.sampled_from(
            ("uniform", "clustered", "lattice", "duplicates", "collinear", "sparse")
        )
    )
    if kind == "sparse":
        n = draw(st.integers(60, 200))
        k = draw(st.integers(1, 8))
    else:
        n = draw(st.sampled_from((0, 1, 2, 7)) | st.integers(3, 200))
        k = draw(st.integers(1, min(n + 3, 8)) | st.integers(1, n + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = rng.uniform(0, 1, (2, n))
    if kind == "clustered":
        x[: n // 2] *= 0.01
        y[: n // 2] *= 0.01
    elif kind == "lattice":  # exact distance ties everywhere
        side = int(np.ceil(np.sqrt(n))) or 1
        x, y = (np.arange(n) % side).astype(float), (np.arange(n) // side).astype(float)
    elif kind == "duplicates":  # tie groups larger than the k+16 finalists
        pick = rng.integers(0, draw(st.integers(1, max(n // 4, 1))), n)
        x, y = x[pick], y[pick]
    elif kind == "collinear":
        y = [np.full(n, 0.5), x, 2 * x - 1][draw(st.integers(0, 2))]
        if draw(st.booleans()):
            x, y = y, x
    elif kind == "sparse":  # a dense cluster and 4 far corners: both paths
        x[:-4] *= 0.01
        y[:-4] *= 0.01
        x[-4:], y[-4:] = [1.0, 0.0, 1.0, 0.5], [0.0, 1.0, 1.0, 1.0]
    ids = rng.permutation(n).astype(np.int64) * 3 - n  # unordered, some < 0
    return kind, np.asarray(x, float), np.asarray(y, float), ids, k


@settings(max_examples=150, deadline=None)
@given(_knn_layouts(), st.integers(0, 5))
def test_knn_query_matches_bruteforce(layout, n_extra):
    """Every row of GridKNN.query == brute force, for index points
    (self excluded by id) and for extra query points off the index."""
    kind, x, y, ids, k = layout
    g = knn.GridKNN(x, y, ids)
    assert g.nx * g.ny <= 4 * len(x) + 1
    extra = np.linspace(-0.5, 1.5, n_extra)
    qx, qy = np.concatenate([x, extra]), np.concatenate([y, extra[::-1]])
    qids = np.concatenate([ids, -10**6 - np.arange(n_extra)])
    idx, d2 = g.query(qx, qy, qids, k)
    bidx, bd2 = _brute_knn(x, y, ids, qx, qy, qids, k)
    assert np.array_equal(idx, bidx) and np.array_equal(d2, bd2)
    if kind == "sparse":
        # the corners fail the fast path's bound (k-th ≥ cell) and take
        # the ring walk; the cluster is answered by the 3×3 block
        kth = np.sqrt(bd2[: len(x), k - 1])
        assert (kth[-4:] >= g.cell).all() and (kth[:-4] < g.cell).any()
