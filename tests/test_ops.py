"""Distributed operator tests vs brute-force/pandas oracles.

Covers the operator families added on top of the flagship pipeline:
banded Hamming near-dup, windows (tumbling/sessionize/as-of), ANN
cosine top-k, and text fingerprints.  Small inputs, one shared Ray
session (conftest).
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data

    return ray.data


def test_range_join_vs_pandas_bruteforce(rd):
    """Cumulative-difference range join == per-order boolean-mask oracle."""
    from biomass_processing_pipeline_ray.functions.rounding import snap_binary
    from biomass_processing_pipeline_ray.stages.windows import (
        US_PER_DAY,
        range_join_orders_events,
    )

    rng = np.random.default_rng(5)
    n_o, n_e = 200, 1000
    base = np.datetime64("2024-01-01", "us")
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(n_o, dtype=np.int64),
            "o_custkey": rng.integers(0, 30, n_o),
            "o_orderdate": base + rng.integers(0, 90 * US_PER_DAY, n_o),
        }
    )
    events = pd.DataFrame(
        {
            "event_id": np.arange(n_e, dtype=np.int64),
            "user_id": rng.integers(0, 30, n_e),
            "ts": base + rng.integers(0, 90 * US_PER_DAY, n_e),
            "value": rng.uniform(0, 100, n_e),
        }
    )
    got = (
        range_join_orders_events(rd.from_pandas(orders), rd.from_pandas(events))
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    ev_ts = events["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    sn = snap_binary(events["value"].to_numpy())
    for i in (0, 17, 55, 199):
        o = orders.iloc[i]
        t0 = np.int64(o.o_orderdate.to_datetime64().astype("datetime64[us]").astype(np.int64))
        m = (
            (events["user_id"].to_numpy() == o.o_custkey)
            & (ev_ts >= t0)
            & (ev_ts < t0 + 7 * US_PER_DAY)
        )
        row = got[got.o_orderkey == o.o_orderkey].iloc[0]
        assert int(row.n_events) == int(m.sum())
        assert row.value_sum == pytest.approx(sn[m].sum(), abs=1e-9)


def test_minhash_copartitioned_verify_vs_bruteforce(rd):
    """The broadcast-free two-hop MinHash verify must equal a sequential
    pure-Python LSH+Jaccard reference on planted near-duplicates."""
    from biomass_processing_pipeline_ray.pipelines.oracles import (
        _py_jaccard,
        _py_minhash_sig,
        _py_shingles,
    )
    from biomass_processing_pipeline_ray.stages.dedup import (
        BANDS,
        ROWS_PER_BAND,
        minhash_lsh_pairs,
    )

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(300)]
    texts = [
        " ".join(rng.choice(vocab, size=60).tolist()) for _ in range(40)
    ]
    for j in range(8):  # planted near-dups: small edits of earlier docs
        words = texts[j].split()
        words[3] = "EDITED"
        texts.append(" ".join(words))
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts})

    got = (
        minhash_lsh_pairs(rd.from_pandas(df), rd.from_pandas(df), threshold=0.5)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )

    # sequential reference: dict band buckets + exact Jaccard
    sh = {int(r.doc_id): _py_shingles(r.text) for r in df.itertuples()}
    sigs = {d: _py_minhash_sig(s) for d, s in sh.items()}
    cand = set()
    for b in range(BANDS):
        buckets: dict = {}
        for d, sig in sigs.items():
            buckets.setdefault(
                tuple(sig[b * ROWS_PER_BAND : (b + 1) * ROWS_PER_BAND]), []
            ).append(d)
        for mem in buckets.values():
            mem.sort()
            for i in range(len(mem)):
                for j in range(i + 1, len(mem)):
                    cand.add((mem[i], mem[j]))
    exp = sorted(
        (a, b, _py_jaccard(sh[a], sh[b]))
        for a, b in cand
        if _py_jaccard(sh[a], sh[b]) >= 0.5
    )
    assert len(exp) >= 8  # the planted pairs are found
    assert [tuple(r) for r in got[["a", "b"]].to_numpy()] == [
        (a, b) for a, b, _ in exp
    ]
    assert np.allclose(got["jaccard"].to_numpy(), [j for _, _, j in exp], atol=0)


def test_verify_jaccard_prefilter_equivalence(rd):
    """The Bloom docs-side prefilter in verify_jaccard_pairs is a pure
    pruning: results are bit-identical with prefilter on/off, and an
    empty candidate set yields the typed empty (a, b, jaccard) frame on
    both paths (no schema drift from skipped-empty-bundle map UDFs)."""
    from biomass_processing_pipeline_ray.stages.dedup import (
        verify_jaccard_pairs,
    )

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(200)]
    texts = [
        " ".join(rng.choice(vocab, size=50).tolist()) for _ in range(30)
    ]
    texts[5] = texts[3]  # exact dup pair (3, 5)
    docs = rd.from_pandas(
        pd.DataFrame(
            {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts}
        )
    )
    cand = rd.from_pandas(
        pd.DataFrame(
            {
                "a": np.array([3, 0, 10], dtype=np.int64),
                "b": np.array([5, 1, 11], dtype=np.int64),
            }
        )
    )
    outs = {}
    for pf in (True, False):
        got = (
            verify_jaccard_pairs(cand, docs, threshold=0.5, prefilter=pf)
            .to_pandas()
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )
        outs[pf] = got
    assert outs[True].equals(outs[False])
    assert [tuple(r) for r in outs[True][["a", "b"]].to_numpy()] == [(3, 5)]
    assert outs[True]["jaccard"].iloc[0] == 1.0

    empty = rd.from_pandas(
        pd.DataFrame(
            {
                "a": np.array([], dtype=np.int64),
                "b": np.array([], dtype=np.int64),
            }
        )
    )
    got_ds = verify_jaccard_pairs(empty, docs, threshold=0.5)
    # typed at the Dataset level (to_pandas drops schema on zero rows —
    # the known Ray empty-bundle behavior; consumers guard that)
    sch = got_ds.schema()
    assert sch.names == ["a", "b", "jaccard"]
    assert [str(t) for t in sch.types] == ["int64", "int64", "double"]
    assert got_ds.count() == 0


def test_dedup_against_band_index(rd, tmp_path):
    """Incremental dedup against a materialized band index: delta docs
    find their planted corpus near-dups, the index read is pruned to
    the delta's own band partitions, and the build is idempotent."""
    from biomass_processing_pipeline_ray.pipelines.oracles import (
        _py_jaccard,
        _py_minhash_sig,
        _py_shingles,
    )
    from biomass_processing_pipeline_ray.stages.dedup import (
        BANDS,
        ROWS_PER_BAND,
        build_band_index,
        dedup_against_index,
        minhash_bands_batch,
    )

    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(300)]
    texts = [" ".join(rng.choice(vocab, size=60).tolist()) for _ in range(40)]
    for j in range(6):  # delta docs 40..45 are edits of corpus docs 0..5
        words = texts[j].split()
        words[7] = "EDITED"
        texts.append(" ".join(words))
    ids = np.arange(len(texts), dtype=np.int64)
    df = pd.DataFrame({"doc_id": ids, "text": texts})
    corpus = df[df.doc_id < 40]
    delta = df[df.doc_id >= 40]

    n_parts = 64
    idx = str(tmp_path / "bandidx")
    build_band_index(rd.from_pandas(corpus), idx, n_parts=n_parts)
    mtimes = {
        p: os.path.getmtime(os.path.join(idx, p)) for p in os.listdir(idx)
    }
    build_band_index(rd.from_pandas(corpus), idx, n_parts=n_parts)  # no-op
    assert mtimes == {
        p: os.path.getmtime(os.path.join(idx, p)) for p in os.listdir(idx)
    }

    got = (
        dedup_against_index(
            rd.from_pandas(delta), idx, rd.from_pandas(df),
            threshold=0.5, n_parts=n_parts,
        )
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )

    # sequential reference restricted to delta x corpus band collisions
    sh = {int(r.doc_id): _py_shingles(r.text) for r in df.itertuples()}
    sigs = {d: _py_minhash_sig(s) for d, s in sh.items()}
    cand = set()
    for b in range(BANDS):
        buckets: dict = {}
        for d, sig in sigs.items():
            buckets.setdefault(
                tuple(sig[b * ROWS_PER_BAND : (b + 1) * ROWS_PER_BAND]), []
            ).append(d)
        for mem in buckets.values():
            for d in mem:
                if d >= 40:
                    cand.update((d, c) for c in mem if c < 40)
    exp = sorted(
        (a, b, _py_jaccard(sh[a], sh[b]))
        for a, b in cand
        if _py_jaccard(sh[a], sh[b]) >= 0.5
    )
    assert len(exp) >= 6  # every planted delta edit collides
    assert [tuple(r) for r in got[["a", "b"]].to_numpy()] == [
        (a, b) for a, b, _ in exp
    ]
    assert np.allclose(got["jaccard"].to_numpy(), [j for _, _, j in exp], atol=0)

    # the pruned read is STRICT: a one-doc delta names at most BANDS of
    # the index's band partitions
    one = minhash_bands_batch(
        pa.table({"doc_id": ids[40:41], "text": [texts[40]]})
    )
    touched = set(np.unique(one["band_key"].to_numpy() % n_parts).tolist())
    existing = sum(1 for p in os.listdir(idx) if p.startswith("band_part="))
    assert len(touched) <= BANDS < existing


def test_band_index_append_equivalence(rd, tmp_path):
    """A band index GROWN by append answers bit-identically to one
    built one-shot over the union — the lifecycle equivalence the
    ``minhash_dedup_lifecycle`` oracle relies on."""
    from biomass_processing_pipeline_ray.stages.dedup import (
        append_to_band_index,
        build_band_index,
        dedup_against_index,
    )

    rng = np.random.default_rng(31)
    vocab = [f"w{i}" for i in range(300)]
    texts = [" ".join(rng.choice(vocab, size=60).tolist()) for _ in range(46)]
    for j in (0, 1, 2, 33, 34):  # near-dups of base AND appended docs
        words = texts[j].split()
        words[5] = "EDITED"
        texts.append(" ".join(words))
    ids = np.arange(len(texts), dtype=np.int64)
    df = pd.DataFrame({"doc_id": ids, "text": texts})
    base = df[df.doc_id < 30]
    day1 = df[(df.doc_id >= 30) & (df.doc_id < 46)]
    day2 = df[df.doc_id >= 46]

    grown = str(tmp_path / "grown")
    build_band_index(rd.from_pandas(base), grown, n_parts=32)
    append_to_band_index(rd.from_pandas(day1), grown, n_parts=32, tag="d1")

    oneshot = str(tmp_path / "oneshot")
    build_band_index(
        rd.from_pandas(df[df.doc_id < 46]), oneshot, n_parts=32
    )

    def run(idx):
        return (
            dedup_against_index(
                rd.from_pandas(day2), idx, rd.from_pandas(df),
                threshold=0.5, n_parts=32,
            )
            .to_pandas()
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )

    got_grown, got_one = run(grown), run(oneshot)
    # 4 of the 5 planted pairs: (46, 0) is a genuine LSH band miss at
    # J=0.90 (verified: zero of the 16 bands collide in the sequential
    # reference either) — the engine must mirror the reference, not
    # beat it
    assert len(got_grown) >= 4  # planted cross-day near-dups found
    pd.testing.assert_frame_equal(got_grown, got_one)
    # appended docs ARE reachable: a day-2 pair lands on a day-1 doc
    assert (got_grown["b"] >= 30).any()


def test_band_index_compaction(rd, tmp_path):
    """Compaction keeps the verified pair set identical in EVERY window
    — sources+merged coexisting (pre-GC), and after GC each partition
    is a single file."""
    from biomass_processing_pipeline_ray.stages.dedup import (
        append_to_band_index,
        build_band_index,
        compact_band_index,
        dedup_against_index,
    )

    rng = np.random.default_rng(37)
    vocab = [f"w{i}" for i in range(300)]
    texts = [" ".join(rng.choice(vocab, size=60).tolist()) for _ in range(40)]
    for j in range(4):
        words = texts[j].split()
        words[9] = "EDITED"
        texts.append(" ".join(words))
    ids = np.arange(len(texts), dtype=np.int64)
    df = pd.DataFrame({"doc_id": ids, "text": texts})

    idx = str(tmp_path / "idx")
    build_band_index(rd.from_pandas(df[df.doc_id < 20]), idx, n_parts=8)
    append_to_band_index(
        rd.from_pandas(df[(df.doc_id >= 20) & (df.doc_id < 40)]),
        idx, n_parts=8, tag="d1",
    )

    def run():
        return (
            dedup_against_index(
                rd.from_pandas(df[df.doc_id >= 40]), idx,
                rd.from_pandas(df), threshold=0.5, n_parts=8,
            )
            .to_pandas()
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )

    before = run()
    assert len(before) >= 3
    n_comp = compact_band_index(idx)  # no GC: sources + merged coexist
    assert n_comp > 0
    mid = run()  # duplicate band rows must not change the pair set
    pd.testing.assert_frame_equal(before, mid)
    assert compact_band_index(idx, gc_grace_sec=0.0) == 0  # idempotent
    after = run()
    pd.testing.assert_frame_equal(before, after)
    for entry in os.listdir(idx):
        if entry.startswith("band_part="):
            files = [
                f
                for f in os.listdir(os.path.join(idx, entry))
                if f.endswith(".parquet")
            ]
            assert len(files) == 1, (entry, files)


def test_leakage_safe_split_property(rd, ray_session):
    """The split's defining invariant on real fixture data: every
    near-dup pair lands in ONE split (no train/val contamination),
    every doc is assigned exactly once, and the hash rule yields a
    ~90/10 ratio."""
    from biomass_processing_pipeline_ray.pipelines.queries import (
        q_leakage_safe_split,
        q_minhash_pairs,
    )

    sf = "/root/testdata/sf0.001"
    split = q_leakage_safe_split(sf).to_pandas()
    pairs = q_minhash_pairs(sf).to_pandas()

    assert split["doc_id"].is_unique
    by_id = split.set_index("doc_id")["split"]
    assert len(pairs) > 0  # fixture plants near-dups
    for a, b in pairs[["a", "b"]].itertuples(index=False):
        assert by_id[a] == by_id[b], (a, b)
    # same cluster -> same split, and reps label themselves
    g = split.groupby("cluster_rep")["split"].nunique()
    assert (g == 1).all()
    frac = (split["split"] == "train").mean()
    assert 0.8 < frac < 0.98


def test_ivf_index_append_equivalence(rd, tmp_path, ray_session):
    """An IVF index grown by append (delta assigned with the stored
    centroids) answers top-k bit-identically to a one-shot build over
    the union — the vector-store lifecycle gate."""
    import ray

    from biomass_processing_pipeline_ray.stages.ann import (
        append_to_ivf_index,
        build_ivf_index,
        ivf_topk_from_index,
        kmeans_centroids,
    )

    rng = np.random.default_rng(41)
    n, dim = 400, 16
    vecs = rng.normal(size=(n, dim))
    ids = np.arange(n, dtype=np.int64)

    def ds_of(mask):
        return rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(ids[mask], pa.int64()),
                    "embedding": pa.array(
                        list(vecs[mask]), pa.list_(pa.float64())
                    ),
                }
            )
        )

    cents = kmeans_centroids(vecs[:64], 8)
    qref = ray.put({"qid": ids[:5], "mat": vecs[:5]})

    grown = str(tmp_path / "grown")
    build_ivf_index(ds_of(ids % 5 != 0), grown, cents)
    append_to_ivf_index(ds_of(ids % 5 == 0), grown, tag="d1")
    oneshot = str(tmp_path / "oneshot")
    build_ivf_index(ds_of(ids >= 0), oneshot, cents)

    def run(idx):
        return (
            ivf_topk_from_index(idx, qref, nprobe=3, k=5)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )

    a, b = run(grown), run(oneshot)
    assert len(a) == 25
    pd.testing.assert_frame_equal(a, b)
    # appended vectors ARE reachable from the grown store
    assert (a["vec_id"] % 5 == 0).any()


def test_ivf_index_compaction(rd, tmp_path, ray_session):
    """IVF store compaction keeps top-k identical in EVERY window —
    crucial here because (unlike the band index) a duplicate vector
    WOULD occupy two top-k slots: the manifest swap guarantees a
    reader plans sources-only or merged-only, never both, even while
    tombstoned sources still exist on disk (pre-GC)."""
    import ray

    from biomass_processing_pipeline_ray.stages.ann import (
        append_to_ivf_index,
        build_ivf_index,
        compact_ivf_index,
        gc_ivf_index,
        ivf_topk_from_index,
        kmeans_centroids,
        load_ivf_manifest,
    )

    rng = np.random.default_rng(43)
    n, dim = 400, 16
    vecs = rng.normal(size=(n, dim))
    ids = np.arange(n, dtype=np.int64)

    def ds_of(mask):
        return rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(ids[mask], pa.int64()),
                    "embedding": pa.array(
                        list(vecs[mask]), pa.list_(pa.float64())
                    ),
                }
            )
        )

    cents = kmeans_centroids(vecs[:64], 8)
    qref = ray.put({"qid": ids[:5], "mat": vecs[:5]})
    idx = str(tmp_path / "idx")
    build_ivf_index(ds_of(ids % 5 != 0), idx, cents)
    append_to_ivf_index(ds_of(ids % 5 == 0), idx, tag="d1")

    def run():
        return (
            ivf_topk_from_index(idx, qref, nprobe=3, k=5)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )

    before = run()
    n_comp = compact_ivf_index(idx)  # no GC: sources + merged coexist
    assert n_comp > 0
    # tombstoned source files really are still on disk in this window
    assert any(
        len([f for f in os.listdir(os.path.join(idx, e)) if f.endswith(".parquet")]) > 1
        for e in os.listdir(idx)
        if e.startswith("ivf_cell=")
    )
    mid = run()
    pd.testing.assert_frame_equal(before, mid)
    assert compact_ivf_index(idx) == 0  # idempotent: nothing multi-file
    removed = gc_ivf_index(idx, grace_sec=0.0)
    assert removed > 0
    after = run()
    pd.testing.assert_frame_equal(before, after)
    # post-GC: every manifest-listed cell is a single compact file
    manifest = load_ivf_manifest(idx)
    assert manifest and all(len(fs) == 1 for fs in manifest.values())
    for entry in os.listdir(idx):
        if entry.startswith("ivf_cell="):
            files = [
                f
                for f in os.listdir(os.path.join(idx, entry))
                if f.endswith(".parquet")
            ]
            assert len(files) == 1, (entry, files)


def test_ivf_compaction_refuses_legacy_store(rd, tmp_path, ray_session):
    """A pre-manifest store's readers plan from directory listings and
    WOULD observe duplicate vectors mid-compaction — compact must
    refuse, not corrupt."""
    import pytest as _pytest

    from biomass_processing_pipeline_ray.stages.ann import (
        IVF_MANIFEST,
        build_ivf_index,
        compact_ivf_index,
        kmeans_centroids,
    )

    rng = np.random.default_rng(44)
    vecs = rng.normal(size=(60, 8))
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(60, dtype=np.int64)),
                "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
            }
        )
    )
    idx = str(tmp_path / "legacy")
    build_ivf_index(ds, idx, kmeans_centroids(vecs, 4))
    os.remove(os.path.join(idx, IVF_MANIFEST))  # simulate legacy layout
    with _pytest.raises(ValueError, match="manifest"):
        compact_ivf_index(idx)


def test_banded_hamming_pairs_exact(rd):
    from biomass_processing_pipeline_ray.image.phash import hamming_i64
    from biomass_processing_pipeline_ray.stages.dedup import banded_hamming_pairs

    rng = np.random.default_rng(7)
    base = rng.integers(-(2**62), 2**62, 300, dtype=np.int64)
    ids = [f"x{i:05d}" for i in range(len(base))]
    hashes = list(base)
    for j in range(15):  # plant near-dups at hamming 1..3
        flip = np.uint64(0)
        for b in rng.choice(64, size=(j % 3) + 1, replace=False):
            flip |= np.uint64(1) << np.uint64(b)
        ids.append(f"y{j:05d}")
        hashes.append(np.int64((base[j].astype(np.uint64) ^ flip).astype(np.int64)))
    tbl = pa.table(
        {"image_id": pa.array(ids), "phash": pa.array(np.array(hashes, np.int64))}
    )
    got = banded_hamming_pairs(rd.from_arrow(tbl), "image_id", "phash").to_pandas()
    hs = np.array(hashes)
    ii, jj = np.triu_indices(len(hs), k=1)
    hd = hamming_i64(hs[ii], hs[jj])
    exp = {
        tuple(sorted((ids[a], ids[b]))) for a, b in zip(ii[hd <= 3], jj[hd <= 3])
    }
    assert set(zip(got.a, got.b)) == exp
    assert len(got) == len(exp)  # globally deduped


def _events_frame(n=400, users=20, seed=3):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.integers(0, 10**7, n)) * 1_000_000 + 1_700_000_000_000_000
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": ts.astype("datetime64[us]"),
            "user_id": rng.integers(0, users, n).astype(np.int64),
            "event_type": rng.choice(["a", "b", "c"], n),
            "value": rng.uniform(0, 100, n),
        }
    )


def test_tumbling_aggregate_vs_pandas(rd):
    from biomass_processing_pipeline_ray.functions.rounding import snap_binary
    from biomass_processing_pipeline_ray.stages.windows import tumbling_aggregate

    df = _events_frame()
    got = (
        tumbling_aggregate(rd.from_pandas(df))
        .to_pandas()
        .sort_values(["event_type", "hour_bucket"])
        .reset_index(drop=True)
    )
    exp = df.assign(
        hour_bucket=df.ts.astype("datetime64[us]").astype(np.int64) // 3_600_000_000,
        sval=snap_binary(df.value.to_numpy()),
    )
    exp = (
        exp.groupby(["event_type", "hour_bucket"], as_index=False)
        .agg(n=("sval", "size"), value_sum=("sval", "sum"))
        .sort_values(["event_type", "hour_bucket"])
        .reset_index(drop=True)
    )
    assert np.array_equal(got.n, exp.n)
    assert np.array_equal(got.value_sum, exp.value_sum)  # exact (lattice)


def test_sessionize_vs_pandas(rd):
    from biomass_processing_pipeline_ray.stages.windows import sessionize

    df = _events_frame()
    got = (
        sessionize(rd.from_pandas(df[["event_id", "ts", "user_id"]]))
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )

    def oracle(g):
        ts = np.sort(g.ts.astype("datetime64[us]").astype(np.int64).to_numpy())
        gaps = np.diff(ts) > 1_800_000_000
        return pd.Series({"n_sessions": 1 + int(gaps.sum()), "n_events": len(g)})

    exp = df.groupby("user_id").apply(oracle, include_groups=False).reset_index()
    assert np.array_equal(got.n_sessions, exp.n_sessions)
    assert np.array_equal(got.n_events, exp.n_events)


def test_asof_join_events_orders_vs_merge_asof(rd):
    from biomass_processing_pipeline_ray.stages.windows import asof_join_events_orders

    ev = _events_frame(n=200, users=10)
    rng = np.random.default_rng(5)
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(50, dtype=np.int64),
            "o_custkey": rng.integers(0, 12, 50).astype(np.int64),
            "o_orderdate": (
                rng.integers(0, 10**7, 50) * 1_000_000 + 1_700_000_000_000_000
            ).astype("datetime64[us]"),
            "o_totalprice": rng.uniform(10, 500, 50),
        }
    )
    got = (
        asof_join_events_orders(
            rd.from_pandas(ev[["event_id", "ts", "user_id"]]),
            rd.from_pandas(orders),
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # oracle: for each event the latest order (ts, orderkey) at/before it
    o = orders.sort_values(["o_orderdate", "o_orderkey"])
    exp_key, exp_val = [], []
    for _, e in ev.iterrows():
        cand = o[(o.o_custkey == e.user_id) & (o.o_orderdate <= e.ts)]
        if len(cand):
            exp_key.append(int(cand.o_orderkey.iloc[-1]))
            exp_val.append(float(cand.o_totalprice.iloc[-1]))
        else:
            exp_key.append(-1)
            exp_val.append(np.nan)
    assert np.array_equal(got.last_orderkey.to_numpy(), np.array(exp_key))
    ok = np.array(exp_key) >= 0
    assert np.allclose(
        got.last_totalprice.to_numpy()[ok], np.array(exp_val)[ok], atol=0
    )


def test_cosine_topk_vs_bruteforce(rd, ray_session):
    import ray

    from biomass_processing_pipeline_ray.stages.ann import cosine_topk

    rng = np.random.default_rng(11)
    n, d, k = 200, 16, 5
    emb = rng.normal(size=(n, d))
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(emb)),
        }
    )
    qids = np.arange(3, dtype=np.int64)
    qref = ray.put({"qid": qids, "mat": emb[:3]})
    got = cosine_topk(rd.from_arrow(tbl), qref, k=k).to_pandas()
    norm = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = norm[:3] @ norm.T
    for qi in qids:
        s = sims[qi].copy()
        s[qi] = -np.inf
        order = np.lexsort((np.arange(n), -s))[:k]
        sub = got[got.query_id == qi].sort_values("rank")
        assert np.array_equal(sub.vec_id.to_numpy(), order)


def test_fingerprints_deterministic_and_sensitive():
    from biomass_processing_pipeline_ray.stages.textstages import (
        poly_fingerprint,
        rolling_kgram_hashes,
        winnow_fingerprints,
    )

    t = "the quick brown fox jumps over the lazy dog"
    assert poly_fingerprint(t) == poly_fingerprint(t)
    assert poly_fingerprint(t) != poly_fingerprint(t + "!")
    # winnow fingerprints overlap heavily for a small edit, not for
    # unrelated text
    a = set(winnow_fingerprints(t * 4))
    b = set(winnow_fingerprints((t * 4) + " extra"))
    c = set(winnow_fingerprints("completely different content here entirely"))
    assert len(a & b) / len(a | b) > 0.6
    assert len(a & c) / max(len(a | c), 1) < 0.1
    # rolling hashes: shifting window by one byte matches slice hash
    h = rolling_kgram_hashes("abcdefgh", k=4)
    assert len(h) == 5
    assert h[1] == rolling_kgram_hashes("bcde", k=4)[0]


def test_knn_sharded_equals_broadcast(rd, ray_session):
    """Cell-sharded kNN (halo) == global broadcast stitcher, row-exact."""
    import pyarrow as pa
    import ray

    from biomass_processing_pipeline_ray.functions import georef as G
    from biomass_processing_pipeline_ray.stages.knn_sharded import knn_idw_sharded
    from biomass_processing_pipeline_ray.stages.knn_stitch import (
        KNNStitcher,
        centroid_sidecar,
    )

    n = 3000
    ids = np.arange(n, dtype=np.int64)
    lon, lat = G.derive_lonlat(ids)
    val = G.derive_value(ids)
    tbl = pa.table(
        {
            "tile_int_id": pa.array(ids),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
            "value": pa.array(val),
        }
    )
    sharded = (
        knn_idw_sharded(rd.from_arrow(tbl))
        .to_pandas()
        .sort_values("tile_id")
        .reset_index(drop=True)
    )
    ref = ray.put(centroid_sidecar(lon, lat, ids, val))
    broadcast = (
        rd.from_arrow(tbl)
        .map_batches(
            KNNStitcher,
            fn_constructor_kwargs={"centroids_ref": ref, "k": 8},
            batch_format="pyarrow",
            concurrency=(1, 2),
        )
        .to_pandas()
        .sort_values("tile_int_id")
        .reset_index(drop=True)
    )
    assert len(sharded) == n
    assert np.array_equal(sharded.tile_id.to_numpy(), broadcast.tile_int_id.to_numpy())
    assert np.array_equal(
        sharded.knn_idw_value.to_numpy(), broadcast.knn_idw_value.to_numpy()
    )


@pytest.mark.parametrize(
    "sf_dir, n",
    [("sf0.0000002", 1), ("sf0.0000012", 7), ("sf0.00001", 60), ("sf0.0001", 600)],
)
def test_knn_sharded_entries_exact_on_small_universes(ray_session, sf_dir, n):
    """Both sharded registry entries == the broadcast stitcher on sparse
    universes, where a 0.5° or 2° cell breaks the halo contract."""
    from biomass_processing_pipeline_ray.functions import georef as G
    from biomass_processing_pipeline_ray.pipelines import queries as Q
    from biomass_processing_pipeline_ray.stages.knn_stitch import (
        KNNStitcher,
        centroid_sidecar,
    )

    assert Q.universe_n(sf_dir) == n
    ids = np.arange(n, dtype=np.int64)
    lon, lat = G.derive_lonlat(ids)
    stitch = KNNStitcher(centroids=centroid_sidecar(lon, lat, ids, G.derive_value(ids)))
    ref = stitch(pa.table({"tile_int_id": ids, "lon": lon, "lat": lat}))
    for query in (Q.q_knn_idw_sharded, Q.q_knn_idw_sharded_capped):
        got = Q.to_df(query(sf_dir)).sort_values("tile_id")
        assert np.array_equal(got.tile_id.to_numpy(), ids)
        assert np.array_equal(
            got.knn_idw_value.to_numpy(), ref["knn_idw_value"].to_numpy()
        ), query.__name__


def _knn_universe(n):
    from biomass_processing_pipeline_ray.functions import georef as G

    ids = np.arange(n, dtype=np.int64)
    lon, lat = G.derive_lonlat(ids)
    val = G.derive_value(ids)
    tbl = pa.table({"tile_int_id": ids, "lon": lon, "lat": lat, "value": val})
    return tbl, (lon, lat, ids, val)


def _knn_sharded_local(tbl, cell_deg, m):
    """``knn_idw_sharded``'s fan-out and per-shard solve, in-process:
    (frame sorted by tile_id, fan-out row count)."""
    from biomass_processing_pipeline_ray.stages.knn_sharded import _fan_out, _solve_shard

    fan = _fan_out(tbl, cell_deg, m)
    parts = [
        _solve_shard({c: g[c].to_numpy() for c in g}, 8, 6, cell_deg, m)
        for _, g in fan.to_pandas().groupby("shard")
    ]
    got = pd.DataFrame(
        {c: np.concatenate([p[c] for p in parts]) for c in ("tile_id", "knn_idw_value")}
    )
    return got.sort_values("tile_id").reset_index(drop=True), fan.num_rows


@pytest.mark.parametrize("n", [3000, 30005])
def test_knn_sharded_shard_invariance(n):
    """The block side m moves only the fan-out, never the answer: every
    m equals the broadcast stitcher bit for bit at 0.5°."""
    from biomass_processing_pipeline_ray.functions import georef as G
    from biomass_processing_pipeline_ray.stages.knn_sharded import _cell_grid, _shard_side
    from biomass_processing_pipeline_ray.stages.knn_stitch import (
        KNNStitcher,
        centroid_sidecar,
    )

    tbl, (lon, lat, ids, val) = _knn_universe(n)
    ref = KNNStitcher(centroids=centroid_sidecar(lon, lat, ids, val))(tbl)
    ncx, ncy = _cell_grid(0.5)
    derived = _shard_side(0.5, 2)
    assert derived == 4
    rows = {}
    for m in (1, 2, derived, max(ncx, ncy)):
        got, rows[m] = _knn_sharded_local(tbl, 0.5, m)
        assert np.array_equal(got.tile_id.to_numpy(), ids), m
        assert np.array_equal(
            got.knn_idw_value.to_numpy(), ref["knn_idw_value"].to_numpy()
        ), m
    # one shard per cell: one row per neighbour cell inside the domain,
    # i.e. 9 per tile less the halo cells past the domain's edge
    cx = np.floor((lon - G.LON0) / 0.5).astype(np.int64)
    cy = np.floor((lat - G.LAT0) / 0.5).astype(np.int64)
    per_tile = (3 - (cx == 0) - (cx == ncx - 1)) * (3 - (cy == 0) - (cy == ncy - 1))
    assert rows[1] == per_tile.sum() <= 9 * n
    assert rows[derived] <= 3 * n
    assert rows[max(ncx, ncy)] == n


def test_knn_sharded_rejects_a_broken_halo(rd, ray_session):
    """A cell smaller than the k-th neighbour distance raises instead of
    returning a silently wrong kNN."""
    tbl, _ = _knn_universe(60)
    from biomass_processing_pipeline_ray.stages.knn_sharded import knn_idw_sharded

    with pytest.raises(ValueError, match="cell_deg=0.5 breaks the halo contract"):
        knn_idw_sharded(rd.from_arrow(tbl), cell_deg=0.5).to_pandas()


def test_knn_sharded_empty_input_is_typed(rd, ray_session):
    """A zero-row input gives a zero-row result of the documented schema."""
    from biomass_processing_pipeline_ray.stages.knn_sharded import knn_idw_sharded

    tbl, _ = _knn_universe(0)
    out = knn_idw_sharded(rd.from_arrow(tbl))
    assert out.count() == 0
    assert out.schema().base_schema == pa.schema(
        [("tile_id", pa.int64()), ("knn_idw_value", pa.float64())]
    )


def test_ivf_topk_exact_when_probing_all(rd, ray_session):
    import pyarrow as pa
    import ray

    from biomass_processing_pipeline_ray.stages.ann import cosine_topk, ivf_topk

    rng = np.random.default_rng(13)
    n, d = 400, 16
    emb = rng.normal(size=(n, d))
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(emb)),
        }
    )
    qref = ray.put(
        {"qid": np.arange(4, dtype=np.int64), "mat": emb[:4], "sample": emb[:256]}
    )
    exact = cosine_topk(rd.from_arrow(tbl), qref, k=10).to_pandas()
    # probing every cell must reproduce brute force exactly
    full = ivf_topk(rd.from_arrow(tbl), qref, nlist=8, nprobe=8, k=10).to_pandas()
    key = ["query_id", "rank"]
    pd.testing.assert_frame_equal(
        exact.sort_values(key).reset_index(drop=True),
        full.sort_values(key).reset_index(drop=True),
    )
    # nprobe < nlist: still k results per query, recall sane for random
    # data (candidate fraction ≈ nprobe/nlist)
    approx = ivf_topk(rd.from_arrow(tbl), qref, nlist=8, nprobe=4, k=10).to_pandas()
    assert (approx.groupby("query_id").size() == 10).all()
    hits = pd.merge(exact, approx, on=["query_id", "vec_id"], how="inner")
    recall = len(hits) / len(exact)
    assert recall > 0.3


def test_ivf_indexed_equals_inline(rd, ray_session, tmp_path):
    """The materialized cell-partitioned index path must return exactly
    what the inline assign→filter path returns for the same centroids
    and probe set (the storage-layer pruning changes WHERE candidates
    are read from, never WHICH candidates win)."""
    import pyarrow as pa
    import ray

    from biomass_processing_pipeline_ray.stages.ann import (
        build_ivf_index,
        ivf_topk,
        ivf_topk_from_index,
        kmeans_centroids,
    )

    rng = np.random.default_rng(29)
    n, d = 500, 12
    emb = rng.normal(size=(n, d))
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(emb)),
        }
    )
    qref = ray.put(
        {"qid": np.arange(5, dtype=np.int64), "mat": emb[:5], "sample": emb[:256]}
    )
    inline = ivf_topk(rd.from_arrow(tbl), qref, nlist=8, nprobe=3, k=10).to_pandas()
    cents = kmeans_centroids(emb[:256], 8)
    idx = build_ivf_index(rd.from_arrow(tbl), str(tmp_path / "ivf"), cents)
    indexed = ivf_topk_from_index(idx, qref, nprobe=3, k=10).to_pandas()
    key = ["query_id", "rank"]
    cols = ["query_id", "vec_id", "rank", "cos"]
    pd.testing.assert_frame_equal(
        inline.sort_values(key).reset_index(drop=True)[cols],
        indexed.sort_values(key).reset_index(drop=True)[cols],
    )


def test_text_tokenization_unicode_whitespace_parity():
    """Engine (pandas/Python re) and DuckDB (RE2) must tokenize
    identically even when documents contain non-ASCII whitespace —
    both sides use the explicit ASCII class, never \\s (Python \\s is
    Unicode-wide, RE2's is ASCII-only)."""
    import duckdb
    import pyarrow as pa

    from biomass_processing_pipeline_ray.stages.textstages import (
        sql_text_stats,
        sql_token_counts,
        text_stats_batch,
        token_count_batch,
    )

    texts = ["hello world", "\ta b c ", "", "x  y z", " pad　ded", "end\t"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    eng = token_count_batch(tbl).to_pandas()
    sql = con.execute(sql_token_counts()).df()
    m = eng.merge(sql, on="doc_id", suffixes=("_e", "_s"))
    assert (m.n_ws_tokens_e == m.n_ws_tokens_s).all()
    assert (m.n_bpe_tokens_e == m.n_bpe_tokens_s).all()
    eng2 = text_stats_batch(tbl).to_pandas()
    sql2 = con.execute(sql_text_stats()).df()
    m2 = eng2.merge(sql2, on="doc_id", suffixes=("_e", "_s"))
    for c in ("n_tokens", "n_punct", "n_nonspace", "avg_tok_len"):
        assert (m2[c + "_e"] == m2[c + "_s"]).all(), c


def test_embedding_neardup_hot_label_lsh_guard(rd, ray_session):
    """Above ``exact_cap`` a label group switches to hyperplane-LSH
    bucketing: every reported pair must also be an exact pair
    (precision 1 — candidates are cosine-verified) and recall over the
    banded buckets must stay high for near-duplicate-grade similarity."""
    import pyarrow as pa

    from biomass_processing_pipeline_ray.stages.ann import (
        embedding_neardup_pairs,
    )

    rng = np.random.default_rng(41)
    n, d = 600, 24
    base = rng.normal(size=(n // 2, d))
    # planted near-dups: each base vector plus a small perturbation
    emb = np.vstack([base, base + 0.05 * rng.normal(size=base.shape)])
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(emb)),
            "label": pa.array(np.zeros(n, dtype=np.int32)),
        }
    )
    exact = embedding_neardup_pairs(
        rd.from_arrow(tbl), threshold=0.9, exact_cap=10_000
    ).to_pandas()
    lsh = embedding_neardup_pairs(
        rd.from_arrow(tbl), threshold=0.9, exact_cap=100
    ).to_pandas()
    ekeys = set(zip(exact.a, exact.b))
    lkeys = set(zip(lsh.a, lsh.b))
    assert len(ekeys) >= n // 2  # the planted pairs are found exactly
    assert lkeys <= ekeys  # precision 1: every LSH pair is a true pair
    assert len(lkeys) / len(ekeys) > 0.8  # banded recall


def test_decode_error_isolation(rd):
    """A corrupt payload flags its row; the batch and job survive."""
    from biomass_processing_pipeline_ray.sources.tiles import gen_tiles_batch
    from biomass_processing_pipeline_ray.stages.decode import decode_batch

    tbl = gen_tiles_batch(np.arange(8))
    bufs = tbl["bytes"].to_pylist()
    bufs[3] = b"\x00garbage"          # undecodable
    bufs[5] = bufs[5][: len(bufs[5]) // 2]  # truncated
    tbl = tbl.set_column(
        tbl.column_names.index("bytes"), "bytes", pa.array(bufs, pa.binary())
    )
    out = decode_batch(tbl).to_pandas()
    assert len(out) == 8
    bad = {3, 5}
    for i in range(8):
        if i in bad:
            assert not out.shape_ok.iloc[i] and not out.phash_ok.iloc[i]
            assert np.isnan(out.biomass.iloc[i])
        else:
            assert out.shape_ok.iloc[i] and out.phash_ok.iloc[i]
            assert np.isfinite(out.biomass.iloc[i])


def test_relational_ops_vs_pandas(rd, ray_session):
    """broadcast_join / semi / anti / topk vs plain pandas oracles."""
    from biomass_processing_pipeline_ray.stages.relational import (
        anti_join,
        broadcast_join,
        semi_join,
        topk,
    )

    rng = np.random.default_rng(21)
    big = pd.DataFrame(
        {
            "key": rng.integers(0, 50, 500).astype(np.int64),
            "val": rng.uniform(0, 1, 500),
        }
    )
    small = pd.DataFrame(
        {"key": np.arange(0, 40, dtype=np.int64), "name": [f"n{i}" for i in range(40)]}
    )
    ds = rd.from_pandas(big)
    got = (
        broadcast_join(ds, small, on="key")
        .to_pandas()
        .sort_values(["key", "val"])
        .reset_index(drop=True)
    )
    exp = big.merge(small, on="key").sort_values(["key", "val"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_like=True)

    keys = np.asarray([1, 2, 3, 60], dtype=np.int64)
    got_semi = semi_join(rd.from_pandas(big), keys, "key").to_pandas()
    assert set(got_semi.key) <= {1, 2, 3}
    assert len(got_semi) == int(big.key.isin([1, 2, 3]).sum())
    got_anti = anti_join(rd.from_pandas(big), keys, "key").to_pandas()
    assert len(got_anti) == len(big) - len(got_semi)

    # top-k with duplicates of the sort value: tie column decides
    dup = big.copy()
    dup.loc[:9, "val"] = 0.999  # forced ties
    dup["rid"] = np.arange(len(dup), dtype=np.int64)
    got_k = topk(rd.from_pandas(dup), by="val", k=5, tie_col="rid")
    exp_k = dup.sort_values(["val", "rid"], ascending=[False, True]).head(5)
    assert np.array_equal(got_k.rid.to_numpy(), exp_k.rid.to_numpy())


def test_spatial_store_zone_map_pruning(rd, ray_session, tmp_path):
    """Zone-map pruned reads are exact: for random bboxes, the pruned
    subset contains every row the full scan finds in the box."""
    from biomass_processing_pipeline_ray.functions import georef as G
    from biomass_processing_pipeline_ray.stages.geoindex import (
        read_spatial_store,
        write_spatial_store,
    )

    n = 3000
    ids = np.arange(n, dtype=np.int64)
    lon, lat = G.derive_lonlat(ids)
    tbl = pa.table({"tile_id": pa.array(ids), "lon": pa.array(lon), "lat": pa.array(lat)})
    store = str(tmp_path / "geostore")
    write_spatial_store(rd.from_arrow(tbl), store)

    rng = np.random.default_rng(13)
    for _ in range(5):
        x0 = rng.uniform(G.LON0, G.LON0 + G.LON_SPAN - 0.5)
        y0 = rng.uniform(G.LAT0, G.LAT0 + G.LAT_SPAN - 0.5)
        bbox = (x0, y0, x0 + rng.uniform(0.2, 1.5), y0 + rng.uniform(0.2, 1.5))
        got = read_spatial_store(store, bbox).to_pandas()
        inside = got[
            (got.lon >= bbox[0]) & (got.lon <= bbox[2])
            & (got.lat >= bbox[1]) & (got.lat <= bbox[3])
        ]
        exp = (
            (lon >= bbox[0]) & (lon <= bbox[2]) & (lat >= bbox[1]) & (lat <= bbox[3])
        )
        assert set(inside.tile_id) == set(ids[exp])
        # pruning actually prunes: the store read is a strict subset
        assert len(got) < n


def test_connected_components_vs_bruteforce(rd):
    """Distributed min-label propagation == sequential union-find on a
    random sparse pair graph (chains force multi-round propagation)."""
    from biomass_processing_pipeline_ray.stages.cluster import (
        connected_components,
        with_cluster_sizes,
    )

    rng = np.random.default_rng(7)
    # long chains + random sparse edges over 400 nodes
    chain = np.arange(0, 60, dtype=np.int64)
    edges = [(int(i), int(i + 1)) for i in chain[:-1]]  # one 60-node path
    ra = rng.integers(100, 400, 80)
    rb = rng.integers(100, 400, 80)
    edges += [(int(x), int(y)) for x, y in zip(ra, rb) if x != y]

    # sequential union-find oracle
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    comp: dict[int, list[int]] = {}
    for x in parent:
        comp.setdefault(find(x), []).append(x)
    exp = {}
    for members in comp.values():
        rep = min(members)
        for m in members:
            exp[m] = (rep, len(members))

    tbl = pa.table(
        {
            "a": pa.array([u for u, _ in edges], pa.int64()),
            "b": pa.array([v for _, v in edges], pa.int64()),
        }
    )
    labels = connected_components(rd.from_arrow(tbl), n_buckets=16)
    got = with_cluster_sizes(labels, n_buckets=16).to_pandas()
    assert len(got) == len(exp)
    for _, r in got.iterrows():
        rep, size = exp[int(r["node"])]
        assert int(r["lbl"]) == rep
        assert int(r["cluster_size"]) == size


@pytest.mark.parametrize("impl", ["minlabel", "star"])
@pytest.mark.parametrize("seed", [3, 17, 101, 255, 1024])
def test_connected_components_random_graphs(rd, seed, impl):
    """BOTH distributed CC implementations — min-label rounds with
    shortcut retirement, and the state-bounded alternating star rounds
    — equal sequential union-find across random adversarial graphs:
    chains (high diameter), stars (hub fan-out), cliques
    (duplicate-pair collapse) and sparse noise mixed."""
    from biomass_processing_pipeline_ray.stages.cluster import (
        connected_components,
        connected_components_star,
    )

    cc_fn = connected_components if impl == "minlabel" else connected_components_star

    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    base = 0
    # a chain of random length
    ln = int(rng.integers(20, 80))
    edges += [(base + i, base + i + 1) for i in range(ln - 1)]
    base += ln
    # a star
    k = int(rng.integers(5, 30))
    edges += [(base, base + i) for i in range(1, k)]
    base += k
    # a clique (every pair appears -> heavy duplicate shortcuts)
    c = int(rng.integers(4, 10))
    edges += [
        (base + i, base + j) for i in range(c) for j in range(i + 1, c)
    ]
    base += c
    # sparse random edges over a wider id range
    ra = rng.integers(base, base + 200, 60)
    rb = rng.integers(base, base + 200, 60)
    edges += [(int(x), int(y)) for x, y in zip(ra, rb) if x != y]

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    exp: dict[int, int] = {}
    comp: dict[int, list[int]] = {}
    for x in parent:
        comp.setdefault(find(x), []).append(x)
    for members in comp.values():
        rep = min(members)
        for mm in members:
            exp[mm] = rep

    tbl = pa.table(
        {
            "a": pa.array([u for u, _ in edges], pa.int64()),
            "b": pa.array([v for _, v in edges], pa.int64()),
        }
    )
    got = cc_fn(rd.from_arrow(tbl), n_buckets=8).to_pandas()
    assert len(got) == len(exp)
    got_map = dict(zip(got["node"].astype(int), got["lbl"].astype(int)))
    assert got_map == exp


def test_connected_components_empty_pairs(rd):
    """Both CC paths return the typed empty (node, lbl) contract on an
    empty pair set — the all-noise DBSCAN regime (zero cores) feeds
    exactly this, and pandas drops columns from empty frames."""
    from biomass_processing_pipeline_ray.stages.cluster import (
        connected_components_auto,
        connected_components_broadcast,
        connected_components_star,
    )

    empty = rd.from_arrow(
        pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    )
    for fn in (
        connected_components_broadcast,
        connected_components_auto,
        connected_components_star,
    ):
        got = fn(empty)
        assert got.count() == 0
        assert set(got.schema().names) == {"node", "lbl"}


def test_dbscan_all_noise(rd, ray_session):
    """Subcritical instance (every point isolated): no cores, empty
    core-core graph end-to-end, every point labeled -1 — regression for
    the empty contracted-edge set crashing the broadcast CC."""
    from biomass_processing_pipeline_ray.stages.dbscan import MINPTS, dbscan

    # a sparse lattice: nearest neighbors 1.0 apart, eps far below
    ids = np.arange(100, dtype=np.int64)
    x = (ids % 10).astype(np.float64)
    y = (ids // 10).astype(np.float64)
    ds = rd.from_arrow(pa.table({"pid": ids, "x": x, "y": y})).repartition(4)
    got = dbscan(ds, "pid", eps=0.1, minpts=MINPTS, nb=16).to_pandas()
    assert len(got) == 100
    assert (got["cluster"] == -1).all()


def test_kmv_distinct_sketch(rd):
    """KMV estimate: exact below K, within ~3/sqrt(K) above it, and
    bit-deterministic across runs."""
    from biomass_processing_pipeline_ray.pipelines.queries import (
        KMV_K,
        q_approx_distinct_users,
    )

    # build a miniature events frame through the real query path:
    # instead, exercise the math directly on a synthetic dataset
    import pyarrow as pa_

    rng = np.random.default_rng(3)
    true_small, true_big = 40, 5000
    small = rng.choice(np.arange(true_small, dtype=np.int64), 2000)
    big = rng.choice(np.arange(10_000, 10_000 + true_big, dtype=np.int64), 20000)
    df = pd.DataFrame(
        {
            "event_type": ["small"] * len(small) + ["big"] * len(big),
            "user_id": np.concatenate([small, big]),
        }
    )
    ds = rd.from_pandas(df).repartition(8)

    from biomass_processing_pipeline_ray.functions import georef as G
    from biomass_processing_pipeline_ray.functions.rounding import round_away

    def partial(d: pd.DataFrame) -> pd.DataFrame:
        d = d.copy()
        d["hv"] = G.derive_key(d["user_id"].to_numpy())
        return (
            d.drop_duplicates(["event_type", "hv"])
            .sort_values(["event_type", "hv"], kind="mergesort")
            .groupby("event_type", as_index=False)
            .head(KMV_K)[["event_type", "hv"]]
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        hv = np.unique(g["hv"].to_numpy(np.int64))[:KMV_K]
        kth = np.int64(hv[-1])
        if len(hv) >= KMV_K:
            est = np.float64((KMV_K - 1) * G.MOD32) / np.float64(kth)
        else:
            est = np.float64(len(hv))
        return pd.DataFrame(
            {"event_type": [g["event_type"].iloc[0]], "est": [est]}
        )

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("event_type")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
        .set_index("event_type")["est"]
    )
    assert out["small"] == true_small  # below K: exact distinct-hash count
    assert abs(out["big"] - true_big) / true_big < 3.0 / np.sqrt(KMV_K)


def test_kmeans_batch_shape_invariance(rd):
    """The distributed Lloyd fit is bit-identical regardless of how
    rows are batched/partitioned — the lattice-snap (order-exact sums)
    + BLAS-free dots contract."""
    from biomass_processing_pipeline_ray.stages.kmeans import (
        kmeans_assign,
        kmeans_fit,
    )

    rng = np.random.default_rng(11)
    n, d = 300, 16
    emb = rng.normal(size=(n, d))
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(emb.astype(np.float32))),
        }
    )
    outs = []
    for parts in (1, 7):
        ds = rd.from_arrow(tbl).repartition(parts)
        cents = kmeans_fit(ds, k=5, n_iters=3)
        a = (
            kmeans_assign(rd.from_arrow(tbl), cents)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        outs.append((cents, a))
    (c1, a1), (c2, a2) = outs
    assert np.array_equal(c1, c2)
    assert a1.equals(a2)
    assert a1["centroid"].nunique() > 1


def test_bloom_semi_join_equals_exact(rd, ray_session):
    """Bloom prefilter + exact check == plain semi-join (no false
    negatives by construction; false positives removed)."""
    from biomass_processing_pipeline_ray.stages.relational import (
        BloomPrefilter,
        bloom_build,
        bloom_semi_join,
        semi_join,
    )

    rng = np.random.default_rng(3)
    big_keys = rng.integers(0, 5000, size=20000).astype(np.int64)
    small_keys = np.unique(rng.integers(0, 5000, size=400)).astype(np.int64)
    big = rd.from_arrow(
        pa.table(
            {"k": pa.array(big_keys), "v": pa.array(np.arange(20000, dtype=np.int64))}
        )
    ).repartition(8)
    small = rd.from_arrow(pa.table({"sk": pa.array(small_keys)})).repartition(4)

    got = (
        bloom_semi_join(big, small, "k", "sk")
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    exact = (
        semi_join(
            rd.from_arrow(
                pa.table(
                    {
                        "k": pa.array(big_keys),
                        "v": pa.array(np.arange(20000, dtype=np.int64)),
                    }
                )
            ),
            small_keys,
            "k",
        )
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    assert got.equals(exact)

    # the prefilter alone never drops a true member
    bloom_ref = bloom_build(small, "sk")
    pre = BloomPrefilter(bloom_ref=bloom_ref, col="k")(
        pa.table({"k": pa.array(small_keys)})
    )
    assert len(pre) == len(small_keys)


def test_tfidf_term_explode():
    from biomass_processing_pipeline_ray.stages.textstages import term_tf_batch

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": ["a b a", "", "x\t y \n x"],
        }
    )
    out = term_tf_batch(t).to_pandas()
    assert out.values.tolist() == [[1, "a", 2], [1, "b", 1], [3, "x", 2], [3, "y", 1]]


def test_stratified_sample_deterministic_and_rated(rd, ray_session):
    """Hash sampling is partition-invariant and hits the configured
    per-stratum rates to within binomial noise."""
    from biomass_processing_pipeline_ray.pipelines.queries import (
        _SAMPLE_MOD,
        _SAMPLE_MULT,
        _STRATA_RATES,
        q_stratified_sample,
    )

    out = q_stratified_sample("/root/testdata/sf0.001").to_pandas()
    out2 = q_stratified_sample("/root/testdata/sf0.001").to_pandas()
    key = ["event_id"]
    assert out.sort_values(key).reset_index(drop=True).equals(
        out2.sort_values(key).reset_index(drop=True)
    )
    ids = out["event_id"].to_numpy(np.int64)
    bucket = ((ids * _SAMPLE_MULT) % _SAMPLE_MOD) % 100
    rates = out["event_type"].map(_STRATA_RATES).to_numpy(np.int64)
    assert (bucket < rates).all()


def test_banded_hamming_hot_run_refinement(rd, ray_session):
    """A degenerate band value with > _HOT_RUN members must route
    through the sub-band LSH refinement and still find exactly the
    brute-force pair set."""
    from biomass_processing_pipeline_ray.image.phash import hamming_i64
    from biomass_processing_pipeline_ray.stages.dedup import banded_hamming_pairs

    rng = np.random.default_rng(21)
    n = 1500
    # all hashes share band 0 (low 16 bits) == 0xBEEF: one hot run
    high = rng.integers(0, 1 << 47, size=n).astype(np.int64) << 16
    hashes = high | 0xBEEF
    # plant near-dups: pairs differing in <= 3 bits of the high bands
    for i in range(0, 200, 2):
        flip = np.int64(0)
        for b in rng.choice(np.arange(16, 64), size=int(rng.integers(1, 4)), replace=False):
            flip |= np.int64(1) << np.int64(int(b))
        hashes[i + 1] = hashes[i] ^ flip
    ids = np.arange(n, dtype=np.int64)
    ds = rd.from_arrow(
        pa.table({"iid": pa.array(ids), "h": pa.array(hashes)})
    ).repartition(6)
    got = (
        banded_hamming_pairs(ds, "iid", "h", max_hamming=3, n_coarse=64)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )

    ii, jj = np.triu_indices(n, k=1)
    hd = hamming_i64(hashes[ii], hashes[jj])
    keep = hd <= 3
    exp = (
        pd.DataFrame({"a": ids[ii[keep]], "b": ids[jj[keep]], "hamming": hd[keep]})
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    assert len(exp) >= 100
    assert got.astype(np.int64).equals(exp.astype(np.int64))


def test_pq_topk_partition_invariant_and_sane(rd, ray_session):
    """PQ encode/ADC are batch-local: the distributed top-k is invariant
    to partitioning and achieves decent recall@10 vs brute force on
    clustered synthetic data."""
    import ray

    from biomass_processing_pipeline_ray.stages.ann import cosine_topk, pq_topk

    rng = np.random.default_rng(17)
    n, d = 600, 64
    centers = rng.normal(size=(6, d)) * 3.0
    cluster_of = rng.integers(0, 6, size=n)
    emb = centers[cluster_of] + rng.normal(size=(n, d))
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(emb.astype(np.float64))),
        }
    )
    qref = ray.put(
        {
            "qid": np.arange(8, dtype=np.int64),
            "mat": emb[:8].copy(),
            "sample": emb[:512].copy(),
        }
    )
    outs = []
    for parts in (1, 7):
        ds = rd.from_arrow(tbl).repartition(parts)
        o = (
            pq_topk(ds, qref, m=8, ks=16, k=10)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        outs.append(o)
    assert outs[0].equals(outs[1])

    # fine ranking among same-cluster near-ties is beyond PQ's
    # quantization resolution (expected), but the retrieved neighbors
    # must come from the query's own cluster
    labels = cluster_of
    same = 0
    for q in range(8):
        got = outs[0].loc[outs[0]["query_id"] == q, "vec_id"].to_numpy()
        same += int((labels[got] == labels[q]).sum())
    assert same >= 64  # >= 80% of the 80 retrieved neighbors in-cluster

    # and brute force agrees the data is clustered (sanity of the fixture)
    exact = cosine_topk(rd.from_arrow(tbl), qref, k=10).to_pandas()
    ex_same = 0
    for q in range(8):
        got = exact.loc[exact["query_id"] == q, "vec_id"].to_numpy()
        ex_same += int((labels[got] == labels[q]).sum())
    assert ex_same >= 72


def test_incremental_merge_equals_oneshot(rd, ray_session, tmp_path):
    """Persisted base state + delta partials == one-shot aggregate over
    the whole input, bit-for-bit; a rerun reuses the _SUCCESS state."""
    import pyarrow as pa

    from biomass_processing_pipeline_ray.functions.rounding import snap_binary
    from biomass_processing_pipeline_ray.stages.incremental import (
        merge_with_state,
        write_state,
    )
    from biomass_processing_pipeline_ray.stages.zonal import combine_partials
    from ray.data.aggregate import Sum

    rng = np.random.default_rng(53)
    n = 4000
    key = rng.integers(0, 7, n).astype(np.int64)
    val = snap_binary(rng.uniform(0, 100, n))
    is_delta = np.arange(n) % 10 == 0

    def partials(mask):
        t = pa.table({"k": pa.array(key[mask]), "v": pa.array(val[mask])})

        def prep(df):
            g = df.groupby("k", as_index=False).agg(
                s=("v", "sum"), n_rows=("v", "size")
            )
            g["n_rows"] = g["n_rows"].astype(np.int64)
            return g

        return rd.from_arrow(t).map_batches(prep, batch_format="pandas")

    aggs = [Sum("s", alias_name="s"), Sum("n_rows", alias_name="n_rows")]
    base_agg = combine_partials(partials(~is_delta), ["k"], aggs)
    state_dir = str(tmp_path / "state")
    write_state(base_agg, state_dir)

    merged = (
        merge_with_state(state_dir, partials(is_delta), ["k"], ["s", "n_rows"])
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    oneshot = (
        combine_partials(partials(np.ones(n, bool)), ["k"], aggs)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert (merged["s"].to_numpy() == oneshot["s"].to_numpy()).all()
    assert (merged["n_rows"].to_numpy() == oneshot["n_rows"].to_numpy()).all()

    # rerun hits the _SUCCESS state (no rebuild) and stays identical
    write_state(base_agg, state_dir)
    merged2 = (
        merge_with_state(state_dir, partials(is_delta), ["k"], ["s", "n_rows"])
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert merged2.equals(merged)


def test_grouped_topk_vs_pandas(rd, ray_session):
    """Per-group top-k == pandas row_number oracle, with string group
    keys split across many blocks (per-batch top-k + the county
    exchange must reassemble every group exactly)."""
    from biomass_processing_pipeline_ray.pipelines.queries import to_df
    from biomass_processing_pipeline_ray.stages.zonal import county_zonal

    rng = np.random.default_rng(71)
    n = 5000
    df = pd.DataFrame(
        {
            "g": np.char.add("grp", rng.integers(0, 40, n).astype(str)),
            "id": np.arange(n, dtype=np.int64),
            "v": rng.uniform(0, 100, n),
        }
    )
    # force cross-block groups
    ds = rd.from_pandas(df.rename(columns={"g": "county_fips"})).repartition(16)

    def finalize(c):
        t = c["top"]
        return pa.table(
            {
                "g": pa.array(c.fips[t.county], pa.string()),
                "id": pa.array(t.tie, pa.int64()),
                "v": pa.array(t.by, pa.float64()),
                "rn": pa.array(np.arange(len(t.by)) - t.start[t.county] + 1, pa.int64()),
            }
        )

    got = (
        to_df(county_zonal(ds, {"top": ("top", 5, "v", "id")}, finalize))
        .sort_values(["g", "rn"])
        .reset_index(drop=True)
    )
    exp = df.sort_values(["v", "id"], ascending=[False, True]).copy()
    exp = exp.groupby("g", sort=False).head(5)
    exp["rn"] = exp.groupby("g", sort=False).cumcount() + 1
    exp = exp.sort_values(["g", "rn"]).reset_index(drop=True)
    assert (got["g"].to_numpy() == exp["g"].to_numpy()).all()
    assert (got["id"].to_numpy() == exp["id"].to_numpy()).all()
    assert (got["v"].to_numpy() == exp["v"].to_numpy()).all()
    assert (got["rn"].to_numpy() == exp["rn"].to_numpy()).all()


def test_cooccur_pairs_vs_bruteforce(rd, ray_session):
    """Factorized pair combiner + bucketed count == a dict-of-sets
    brute force, invariant to how docs split across blocks."""
    from itertools import combinations

    import pyarrow as pa

    from biomass_processing_pipeline_ray.stages.textstages import (
        cooccur_pairs_batch,
    )
    from biomass_processing_pipeline_ray.stages.zonal import bucketed_agg

    rng = np.random.default_rng(19)
    vocab = [f"t{i}" for i in range(30)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(2, 12)).tolist())
        for _ in range(120)
    ]
    tbl = pa.table(
        {"doc_id": pa.array(np.arange(120, dtype=np.int64)),
         "text": pa.array(texts)}
    )
    exp: dict = {}
    for t in texts:
        for a, b in combinations(sorted(set(t.split())), 2):
            exp[(a, b)] = exp.get((a, b), 0) + 1

    for nparts in (1, 7):
        ds = rd.from_arrow(tbl).repartition(nparts)
        pairs = ds.map_batches(cooccur_pairs_batch, batch_format="pyarrow")
        got = bucketed_agg(pairs, ["w1", "w2"], {"n": ("n", "sum")}, nb=16).to_pandas()
        gmap = {(r.w1, r.w2): int(r.n) for r in got.itertuples()}
        assert gmap == exp, f"nparts={nparts}"


def test_store_append_and_compact(rd, ray_session, tmp_path):
    """Delta append lands in the right partitions (manifest-planned
    reads see the new rows immediately), and compaction merges every
    multi-file partition to one sorted file with identical query
    results."""
    import os

    import pyarrow.parquet as pq2

    from biomass_processing_pipeline_ray.functions import georef as G
    from biomass_processing_pipeline_ray.stages.geoindex import (
        MANIFEST,
        append_to_store,
        compact_store,
        gc_store,
        read_spatial_store,
        write_spatial_store,
    )

    n = 2000
    ids = np.arange(n, dtype=np.int64)
    lon, lat = G.derive_lonlat(ids)
    tbl = pa.table({"tile_id": pa.array(ids), "lon": pa.array(lon), "lat": pa.array(lat)})
    store = str(tmp_path / "geostore")
    write_spatial_store(rd.from_arrow(tbl), store)

    # delta: 300 more tiles, ids continue the universe
    d_ids = np.arange(n, n + 300, dtype=np.int64)
    d_lon, d_lat = G.derive_lonlat(d_ids)
    delta = pa.table(
        {"tile_id": pa.array(d_ids), "lon": pa.array(d_lon), "lat": pa.array(d_lat)}
    )
    touched = append_to_store(rd.from_arrow(delta), store)
    assert touched  # some partitions were written

    all_lon = np.r_[lon, d_lon]
    all_lat = np.r_[lat, d_lat]
    all_ids = np.r_[ids, d_ids]
    bbox = (G.LON0 + 0.5, G.LAT0 + 0.5, G.LON0 + 2.5, G.LAT0 + 2.5)

    def query():
        got = read_spatial_store(store, bbox).to_pandas()
        return set(
            got[
                (got.lon >= bbox[0]) & (got.lon <= bbox[2])
                & (got.lat >= bbox[1]) & (got.lat <= bbox[3])
            ].tile_id
        )

    exp = (
        (all_lon >= bbox[0]) & (all_lon <= bbox[2])
        & (all_lat >= bbox[1]) & (all_lat <= bbox[3])
    )
    before = query()
    assert before == set(all_ids[exp])  # appended rows are visible

    # appended partitions now hold >1 file; compaction merges them
    m = pq2.read_table(os.path.join(store, MANIFEST)).to_pandas()
    assert (m["files"].str.len() > 1).any()
    # a reader that PLANNED before compaction must keep working after
    # it: the manifest swaps first, replaced sources are tombstoned on
    # disk until gc_store (the round-3 delete-before-swap race)
    old_plan = read_spatial_store(store, bbox)
    n_compacted = compact_store(store)
    assert n_compacted > 0
    old_got = old_plan.to_pandas()  # resolves pre-compaction paths
    assert set(
        old_got[
            (old_got.lon >= bbox[0]) & (old_got.lon <= bbox[2])
            & (old_got.lat >= bbox[1]) & (old_got.lat <= bbox[3])
        ].tile_id
    ) == before
    m2 = pq2.read_table(os.path.join(store, MANIFEST)).to_pandas()
    assert (m2["files"].str.len() == 1).all()
    assert query() == before  # identical results after compaction
    assert compact_store(store) == 0  # idempotent: nothing left to do
    # an append BETWEEN compaction and GC must not re-adopt tombstoned
    # files into the manifest (the dir re-listing excludes the sidecar)
    from biomass_processing_pipeline_ray.stages.geoindex import _load_tombstones

    stones = set(_load_tombstones(store))
    assert stones
    d2_ids = np.arange(n + 300, n + 320, dtype=np.int64)
    d2_lon, d2_lat = G.derive_lonlat(d2_ids)
    append_to_store(
        rd.from_arrow(
            pa.table(
                {
                    "tile_id": pa.array(d2_ids),
                    "lon": pa.array(d2_lon),
                    "lat": pa.array(d2_lat),
                }
            )
        ),
        store,
    )
    m3 = pq2.read_table(os.path.join(store, MANIFEST)).to_pandas()
    manifest_files = {
        f"s2_part={p}/{f}"
        for p, files in zip(m3["s2_part"], m3["files"])
        for f in files
    }
    assert not (manifest_files & stones)
    before = before | set(
        d2_ids[
            (d2_lon >= bbox[0]) & (d2_lon <= bbox[2])
            & (d2_lat >= bbox[1]) & (d2_lat <= bbox[3])
        ]
    )
    assert query() == before  # delta2 visible, tombstones still hidden
    # tombstones within grace survive GC; aged ones unlink
    assert gc_store(store, grace_sec=3600.0) == 0
    n_gc = gc_store(store, grace_sec=0.0)
    assert n_gc > 0
    assert gc_store(store, grace_sec=0.0) == 0  # sidecar drained
    assert query() == before  # post-GC reads unchanged


def test_store_append_creates_new_partitions(rd, ray_session, tmp_path):
    """A delta that lands OUTSIDE the base's spatial extent must create
    brand-new partitions with fresh manifest rows, and a bbox query
    over the new region sees exactly the delta rows."""
    import os

    import pyarrow.parquet as pq2

    from biomass_processing_pipeline_ray.stages.geoindex import (
        MANIFEST,
        append_to_store,
        read_spatial_store,
        write_spatial_store,
    )

    # base: a tight cluster of points near (0.05, 0.05)
    n = 500
    rng = np.random.default_rng(7)
    tbl = pa.table(
        {
            "tile_id": pa.array(np.arange(n, dtype=np.int64)),
            "lon": pa.array(rng.uniform(0.0, 0.1, n)),
            "lat": pa.array(rng.uniform(0.0, 0.1, n)),
        }
    )
    store = str(tmp_path / "store")
    write_spatial_store(rd.from_arrow(tbl), store)
    m0 = pq2.read_table(os.path.join(store, MANIFEST)).to_pandas()

    # delta: far away near (5.05, 5.05) — disjoint S2 cells
    delta = pa.table(
        {
            "tile_id": pa.array(np.arange(n, n + 40, dtype=np.int64)),
            "lon": pa.array(rng.uniform(5.0, 5.1, 40)),
            "lat": pa.array(rng.uniform(5.0, 5.1, 40)),
        }
    )
    touched = append_to_store(rd.from_arrow(delta), store)
    m1 = pq2.read_table(os.path.join(store, MANIFEST)).to_pandas()
    new_parts = set(m1["s2_part"]) - set(m0["s2_part"])
    assert new_parts and set(touched) >= new_parts  # fresh manifest rows

    got = read_spatial_store(store, (4.9, 4.9, 5.2, 5.2)).to_pandas()
    inside = got[(got.lon >= 4.9) & (got.lon <= 5.2) & (got.lat >= 4.9) & (got.lat <= 5.2)]
    assert set(inside.tile_id) == set(range(n, n + 40))
    # and the old region is untouched
    old = read_spatial_store(store, (-0.1, -0.1, 0.2, 0.2)).to_pandas()
    assert set(old.tile_id) >= set(range(n))


def test_cc_broadcast_matches_distributed(rd, ray_session):
    """connected_components_broadcast must be bit-identical to the
    co-partitioned min-label rounds on random sparse pair graphs,
    including chains (diameter stress) and singleton pairs."""
    from biomass_processing_pipeline_ray.stages.cluster import (
        connected_components,
        connected_components_auto,
        connected_components_broadcast,
    )

    rng = np.random.default_rng(7)
    ua = rng.integers(0, 3000, 2500)
    ub = rng.integers(0, 3000, 2500)
    # add a long chain (worst-case diameter for propagation)
    chain = np.arange(5000, 5400)
    ua = np.concatenate([ua, chain[:-1]])
    ub = np.concatenate([ub, chain[1:]])
    pairs = pa.table({"a": pa.array(ua, pa.int64()), "b": pa.array(ub, pa.int64())})

    def canon(ds):
        return (
            ds.to_pandas().sort_values("node").reset_index(drop=True)
        )

    dist = canon(connected_components(rd.from_arrow(pairs)))
    bc = canon(connected_components_broadcast(rd.from_arrow(pairs)))
    auto = canon(connected_components_auto(rd.from_arrow(pairs)))
    assert dist.equals(bc)
    assert dist.equals(auto)
    # sanity: the chain is one component labeled by its min node
    assert (bc[bc.node.isin(chain)].lbl == 5000).all()


def test_curation_sweep_checkpointed_resume(ray_session, tiles_small, tmp_path):
    """The checkpointed fused-decode sweep must (a) resume to a
    bit-identical frame, (b) recompute only invalidated sub-partitions
    to the same result, and (c) agree with the headline checkpointed
    pipeline on the shared biomass/tile-count columns."""
    from biomass_processing_pipeline_ray.pipelines.biomass import (
        biomass_zonal_checkpointed,
    )
    from biomass_processing_pipeline_ray.pipelines.sweep import (
        curation_sweep_checkpointed,
    )

    out = str(tmp_path / "sweep")
    full = curation_sweep_checkpointed(tiles_small, out, n_tiles=1000)
    assert len(full) == 64
    assert int(full.tile_count.sum()) == 1000
    assert (full.px_total >= full.px_in).all()
    assert (full.grad_sum > 0).all()

    again = curation_sweep_checkpointed(tiles_small, out, n_tiles=1000)
    assert full.equals(again)

    import glob
    import os

    victims = sorted(glob.glob(os.path.join(out, "_lineage", "*.json")))[:3]
    for v in victims:
        os.remove(v)
    third = curation_sweep_checkpointed(tiles_small, out, n_tiles=1000)
    assert full.equals(third)

    z = biomass_zonal_checkpointed(
        tiles_small, str(tmp_path / "zonal"), n_tiles=1000
    )
    m = full.merge(z, on="county_fips", suffixes=("_s", "_z"))
    assert (m.tile_count_s == m.tile_count_z).all()
    # sweep snaps + rounds(4); headline summary is unrounded
    assert np.allclose(m.biomass_sum_s, m.biomass_sum_z, atol=5e-5)


def test_tfidf_broadcast_equals_copartitioned(ray_session, monkeypatch):
    """The broadcast-vocabulary fast path must be bit-identical to the
    co-partitioned union-join path (which stays the 10⁹-term design)."""
    import biomass_processing_pipeline_ray.pipelines.queries as Q

    sf = "/root/testdata/sf0.001"
    fast = (
        Q.q_tfidf_top_terms(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(Q, "TFIDF_BCAST_CAP", 0)
    slow = (
        Q.q_tfidf_top_terms(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert fast.equals(slow)
    assert len(fast) == 500


def test_ivfpq_index_full_probe_equals_pq(ray_session, tmp_path):
    """Probing ALL cells of the IVF-PQ code store must reproduce the
    in-memory PQ ADC top-k exactly (same codebooks ⇒ same codes ⇒ same
    scores), proving the encode→write-partitioned→probed-read→ADC
    plumbing loses nothing."""
    import ray

    import biomass_processing_pipeline_ray.pipelines.queries as Q
    from biomass_processing_pipeline_ray.stages.ann import (
        build_ivfpq_index,
        ivfpq_topk_from_index,
        kmeans_centroids,
        pq_topk,
        pq_train,
    )

    sf = "/root/testdata/sf0.001"
    qref = Q._query_vectors(sf)
    queries = ray.get(qref)
    sample = np.asarray(queries["sample"], dtype=np.float64)
    cents = kmeans_centroids(sample, 8)
    books = pq_train(sample, m=8, ks=16)
    idx = str(tmp_path / "ivfpq")
    build_ivfpq_index(
        Q._tbl(sf, "embeddings", ["vec_id", "embedding"]), idx, cents, books
    )
    from_index = (
        ivfpq_topk_from_index(idx, qref, nprobe=8, k=10)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    in_memory = (
        pq_topk(Q._tbl(sf, "embeddings", ["vec_id", "embedding"]), qref,
                m=8, ks=16, k=10)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    cols = ["query_id", "vec_id", "rank", "pq_score"]
    assert from_index[cols].equals(in_memory[cols])


def test_psnr_verify_pairs_vs_bruteforce(rd, ray_session, tiles_small):
    """psnr_verify_pairs == all-pairs sequential decode oracle: same
    pair set (banding is complete for Hamming<=3 by pigeonhole), same
    exact integer MSE, and the integer PSNR>=40dB predicate; planted
    exact copies come back bit-identical (mse_num == 0, dup40 == 1)."""
    from biomass_processing_pipeline_ray.image import codecs, phash as PH
    from biomass_processing_pipeline_ray.sources.tiles import (
        FMTS,
        make_pixels,
        read_tiles,
        tile_dims,
    )
    from biomass_processing_pipeline_ray.stages.dedup import phash_neardup_pairs
    from biomass_processing_pipeline_ray.stages.psnrverify import psnr_verify_pairs

    n = 1000
    pairs = phash_neardup_pairs(
        read_tiles(tiles_small, columns=["image_id", "phash"]), 3, n_rows=n
    )
    tiles = read_tiles(tiles_small, columns=["image_id", "bytes", "w", "h", "fmt"])
    got = (
        psnr_verify_pairs(tiles, pairs)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )

    dec = {}
    ph = np.empty(n, np.uint64)
    for i in range(n):
        w, h, f = tile_dims(np.asarray([i], dtype=np.int64))
        fmt = FMTS[int(f[0])]
        d = codecs.decode(
            codecs.encode(make_pixels(i), fmt), fmt, int(h[0]), int(w[0])
        )
        dec[i] = d
        ph[i] = np.uint64(np.int64(PH.dhash(d)).astype(np.uint64))
    xr = ph[:, None] ^ ph[None, :]
    hm = (
        np.unpackbits(xr.view(np.uint8).reshape(n, n, 8), axis=2)
        .sum(axis=2)
        .astype(np.int64)
    )
    ii, jj = np.nonzero(np.triu(hm <= 3, k=1))
    rows = []
    for i, j in zip(ii.tolist(), jj.tolist()):
        da, db = dec[i], dec[j]
        if da.shape != db.shape:
            rows.append((f"img{i:012d}", f"img{j:012d}", int(hm[i, j]), 0, 0, 0))
            continue
        d = da.astype(np.int64).ravel() - db.astype(np.int64).ravel()
        mse_num, n_px = int(np.dot(d, d)), int(d.size)
        dup40 = int(mse_num * 10_000 <= 65025 * n_px)
        rows.append((f"img{i:012d}", f"img{j:012d}", int(hm[i, j]), n_px, mse_num, dup40))
    exp = (
        pd.DataFrame(rows, columns=["a", "b", "hamming", "n_px", "mse_num", "dup40"])
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    assert got.equals(exp)
    # fixture sanity: planted exact copies exist and verify bit-identical
    exact = got[got["mse_num"] == 0]
    assert len(exact) >= 5 and (exact["dup40"] == 1).all()
    assert (got.loc[got["n_px"] > 0, "hamming"] <= 3).all()


def test_compact_cells_minimal_covering(rd, ray_session):
    """compact_cells == sequential bottom-up CellUnion normalize on
    random points; output is a minimal covering (no complete sibling
    quad survives), disjoint, and conserves tile counts."""
    from biomass_processing_pipeline_ray.geo import s2
    from biomass_processing_pipeline_ray.stages.cells import compact_cells

    rng = np.random.default_rng(11)
    n = 20000
    lon = rng.uniform(-100.0, -99.0, n)
    lat = rng.uniform(40.0, 41.0, n)
    ds = rd.from_arrow(pa.table({"lon": lon, "lat": lat})).repartition(8)
    got = (
        compact_cells(ds, from_level=11, min_level=8)
        .to_pandas()
        .sort_values(["level", "cell"])
        .reset_index(drop=True)
    )

    # sequential reference
    c11 = s2.latlng_to_cell(lon, lat, 11)
    uniq, cnt = np.unique(c11, return_counts=True)
    cur_c, cur_n = uniq, cnt.astype(np.int64)
    rows = []
    for lvl in range(11, 8, -1):
        par = s2.parent(cur_c, lvl - 1)
        up, idx = np.unique(par, return_inverse=True)
        k = np.bincount(idx)
        complete = set(up[k == 4].tolist())
        keep = np.array([p not in complete for p in par])
        for c, m in zip(cur_c[keep], cur_n[keep]):
            rows.append((lvl, int(c), int(m)))
        merged_n = np.zeros(len(up), dtype=np.int64)
        np.add.at(merged_n, idx, cur_n)
        sel = k == 4
        cur_c, cur_n = up[sel], merged_n[sel]
    for c, m in zip(cur_c, cur_n):
        rows.append((8, int(c), int(m)))
    exp = (
        pd.DataFrame(rows, columns=["level", "cell", "n_tiles"])
        .astype({"cell": np.uint64})
        .sort_values(["level", "cell"])
        .reset_index(drop=True)
    )
    assert got.astype({"cell": np.uint64}).equals(exp)
    assert got["n_tiles"].sum() == n  # covering conserves every tile
    # minimality: no 4 surviving same-level siblings share a parent
    for lvl in (11, 10, 9):
        cc = got.loc[got["level"] == lvl, "cell"].to_numpy(np.uint64)
        if len(cc):
            _, k = np.unique(s2.parent(cc, lvl - 1), return_counts=True)
            assert k.max() < 4
    assert (got["level"] == 8).any()  # the dense fixture does compact


def test_max_concurrency_vs_bruteforce(rd, ray_session):
    """Distributed two-pass scan == sequential sweep-line on random
    intervals that deliberately straddle time-bucket boundaries."""
    from biomass_processing_pipeline_ray.stages.windows import max_concurrency

    rng = np.random.default_rng(23)
    n = 5000
    bucket_us = 10_000  # tiny buckets so intervals cross many of them
    start = rng.integers(0, 500_000, n)
    dur = rng.integers(0, 80_000, n)  # includes zero-length intervals
    end = start + dur
    ds = rd.from_arrow(
        pa.table({"start_us": pa.array(start, pa.int64()),
                  "end_us": pa.array(end, pa.int64())})
    ).repartition(16)
    got = max_concurrency(ds, bucket_us=bucket_us)

    # sequential sweep: starts before ends at equal ts
    ts = np.concatenate([start, end])
    dl = np.concatenate([np.ones(n, np.int64), -np.ones(n, np.int64)])
    o = np.lexsort((-dl, ts))
    pr = np.cumsum(dl[o])
    mc = int(pr.max())
    at = int(ts[o][int(np.argmax(pr))])
    assert got["max_concurrency"].iloc[0] == mc
    assert got["at_ts_us"].iloc[0] == at
    assert mc > 1  # fixture sanity: real overlap happened


def test_county_corr_matches_numpy_corrcoef(ray_session):
    """Integer-moment grouped Pearson r == np.corrcoef per county on
    the quantized variables (6-dp agreement; the engine path is
    bit-deterministic, corrcoef is the independent formulation)."""
    from biomass_processing_pipeline_ray.functions import georef as G
    from biomass_processing_pipeline_ray.functions.rounding import round_away
    from biomass_processing_pipeline_ray.pipelines.queries import (
        _CORR_QX,
        _CORR_QY,
        q_county_corr,
    )

    got = q_county_corr("/root/testdata/sf0.001").to_pandas()
    got = got.sort_values("county_fips").reset_index(drop=True)

    ids = np.arange(6000, dtype=np.int64)
    lon, lat = G.derive_lonlat(ids)
    cx, cy = G.derive_county_xy(lon, lat)
    fips = G.county_fips_from_xy(cx, cy)
    x = round_away(G.derive_value(ids) * _CORR_QX, 0)
    y = round_away(G.derive_biomass(ids) * _CORR_QY, 0)
    rows = []
    for f in np.unique(fips):
        m = fips == f
        if x[m].std() == 0 or y[m].std() == 0:
            continue
        rows.append((str(f), int(m.sum()), float(np.corrcoef(x[m], y[m])[0, 1])))
    exp = pd.DataFrame(rows, columns=["county_fips", "n_tiles", "corr_xy"])
    assert list(got["county_fips"]) == list(exp["county_fips"])
    assert (got["n_tiles"].to_numpy() == exp["n_tiles"].to_numpy()).all()
    assert np.allclose(got["corr_xy"], exp["corr_xy"], atol=1e-6)
    assert (got["corr_xy"].abs() <= 1.0).all()


def test_bm25_topk_vs_sequential(rd, ray_session):
    """bm25_topk == sequential Okapi BM25 on a small synthetic corpus
    (same quantization), including tie-break by doc_id."""
    import math

    from biomass_processing_pipeline_ray.functions.rounding import round_away
    from biomass_processing_pipeline_ray.stages.textstages import (
        BM25_B,
        BM25_K1,
        bm25_topk,
    )

    rng = np.random.default_rng(3)
    vocab = ["alpha", "beta", "gamma", "delta", "noise"]
    n = 400
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 40)).tolist())
        for _ in range(n)
    ]
    tbl = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                    "text": pa.array(texts, pa.string())})
    terms = ("alpha", "gamma")
    got = bm25_topk(rd.from_arrow(tbl).repartition(8), terms, k=25)

    dls = np.asarray([len(t.split()) for t in texts], dtype=np.int64)
    avgdl = float(dls.sum()) / float(n)
    dfv = {t: sum(1 for x in texts if t in x.split()) for t in terms}
    idf = {t: math.log((float(n) - float(d) + 0.5) / (float(d) + 0.5) + 1.0)
           for t, d in dfv.items()}
    scores = np.zeros(n, dtype=np.int64)
    for i, t in enumerate(texts):
        tok = t.split()
        for qt in terms:
            tf = float(tok.count(qt))
            if tf == 0:
                continue
            den = tf + BM25_K1 * ((1.0 - BM25_B) + BM25_B * (dls[i] / avgdl))
            c = (idf[qt] * ((tf * (BM25_K1 + 1.0)) / den)) * 1000000.0
            scores[i] += int(round_away(np.asarray([c]), 0)[0])
    order = np.lexsort((np.arange(n), -scores))[:25]
    order = order[scores[order] > 0] if (scores > 0).sum() >= 25 else order
    assert list(got["doc_id"]) == [int(i) for i in order]
    assert list(got["score"]) == [int(scores[i]) for i in order]


def test_transition_counts_vs_pandas(rd, ray_session):
    """Coarse-bucket transition counting equals a sequential pandas
    lag over (user, ts, event_id) order, independent of block layout."""
    from biomass_processing_pipeline_ray.stages.windows import transition_counts

    rng = np.random.default_rng(17)
    n = 5000
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.to_datetime(
                rng.integers(0, 10**9, n), unit="s"
            ),
            "user_id": rng.integers(0, 80, n).astype(np.int64),
            "event_type": rng.choice(list("ABCDE"), n),
        }
    )
    got = (
        transition_counts(rd.from_pandas(df).repartition(13))
        .to_pandas()
        .sort_values(["prev_type", "next_type"])
        .reset_index(drop=True)
    )
    s = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    same = s["user_id"].to_numpy()[1:] == s["user_id"].to_numpy()[:-1]
    exp = (
        pd.DataFrame(
            {
                "prev_type": s["event_type"].to_numpy()[:-1][same],
                "next_type": s["event_type"].to_numpy()[1:][same],
            }
        )
        .groupby(["prev_type", "next_type"], as_index=False)
        .size()
        .rename(columns={"size": "n"})
        .sort_values(["prev_type", "next_type"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.astype({"n": np.int64}), exp.astype({"n": np.int64}))


def test_edit1_pairs_vs_bruteforce(rd, ray_session):
    """Deletion-neighborhood similarity join equals the O(n²) exact
    Levenshtein≤1 definition over variable-length strings (exercising
    substitution AND insert/delete pairs), with no duplicate pairs,
    independent of block layout."""
    from biomass_processing_pipeline_ray.stages.textstages import edit1_pairs

    rng = np.random.default_rng(7)
    alphabet = list("abcd")
    base = ["".join(rng.choice(alphabet, rng.integers(3, 7))) for _ in range(120)]
    vals = sorted(set(base))
    df = pd.DataFrame({"image_id": vals})
    got = (
        edit1_pairs(rd.from_pandas(df).repartition(9), "image_id", nb=16)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    assert not got.duplicated().any()

    def lev(a: str, b: str) -> int:
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    exp_pairs = sorted(
        (a, b)
        for i, a in enumerate(vals)
        for b in vals[i + 1 :]
        if lev(a, b) == 1
    )
    exp = pd.DataFrame(exp_pairs, columns=["id_a", "id_b"])
    assert len(exp) > 20  # fixture actually contains close pairs
    pd.testing.assert_frame_equal(got, exp)


def test_bm25_indexed_equals_scan(rd, ray_session, tmp_path):
    """The materialized term-bucketed inverted index returns the SAME
    top-k as the full-scan bm25_topk (postings per term are complete
    within their bucket, so df/tf/dl are exact), and the pruned read
    touches only the query terms' bucket dirs plus the sentinel
    bucket."""
    from biomass_processing_pipeline_ray.stages.textstages import (
        bm25_topk,
        bm25_topk_indexed,
        build_inverted_index,
        term_bucket,
    )

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(60)] + ["alpha", "gamma"]
    n = 500
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 30)).tolist())
        for _ in range(n)
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )
    docs = rd.from_arrow(tbl).repartition(6)
    terms = ("alpha", "gamma")
    idx = str(tmp_path / "inv_idx")
    build_inverted_index(docs, idx)

    import os

    assert os.path.exists(os.path.join(idx, "_SUCCESS"))
    want = {term_bucket(t) for t in terms} | {term_bucket("")}
    have = {
        int(d.split("=")[1])
        for d in os.listdir(idx)
        if d.startswith("tb=")
    }
    assert want <= have  # the buckets retrieval needs exist

    got_idx = bm25_topk_indexed(idx, terms, k=25)
    got_scan = bm25_topk(docs, terms, k=25)
    pd.testing.assert_frame_equal(
        got_idx.reset_index(drop=True), got_scan.reset_index(drop=True)
    )


def test_merge_upsert_vs_sequential(rd, ray_session):
    """Co-partitioned MERGE equals sequential apply of U/D/I row ops,
    independent of block layout, including keys untouched by the
    delta."""
    from biomass_processing_pipeline_ray.stages.relational import merge_upsert

    rng = np.random.default_rng(19)
    n = 500
    base = pd.DataFrame(
        {
            "k": np.arange(n, dtype=np.int64),
            "grp": rng.integers(0, 5, n).astype(np.int64),
            "x": np.round(rng.random(n) * 100, 2),
        }
    )
    upd = base[base["k"] % 6 == 0].assign(x=lambda d: d["x"] + 1.0, op="U")
    dele = base[base["k"] % 6 == 1].assign(op="D")
    ins = base[base["k"] % 6 == 2].assign(
        k=lambda d: d["k"] + 10_000, op="I"
    )
    delta = pd.concat([upd, dele, ins], ignore_index=True)

    got = (
        merge_upsert(
            rd.from_pandas(base).repartition(7),
            rd.from_pandas(delta).repartition(3),
            key="k",
            nb=16,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )

    gone = set(delta.loc[delta["op"].isin(("U", "D")), "k"])
    exp = pd.concat(
        [
            base[~base["k"].isin(gone)],
            delta.loc[delta["op"].isin(("U", "I")), ["k", "grp", "x"]],
        ],
        ignore_index=True,
    ).sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["k", "grp", "x"]], exp)


def test_county_regression_matches_numpy_polyfit(ray_session):
    """Integer-moment grouped OLS == np.polyfit per county on the
    quantized variables rescaled to real units (6-dp agreement; the
    engine path is bit-deterministic, polyfit's QR solve is the
    independent formulation), and r2 == corr_xy² from the sibling
    query."""
    from biomass_processing_pipeline_ray.functions import georef as G
    from biomass_processing_pipeline_ray.functions.rounding import round_away
    from biomass_processing_pipeline_ray.pipelines.queries import (
        _CORR_QX,
        _CORR_QY,
        q_county_corr,
        q_county_regression,
    )

    got = (
        q_county_regression("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("county_fips")
        .reset_index(drop=True)
    )

    ids = np.arange(6000, dtype=np.int64)
    lon, lat = G.derive_lonlat(ids)
    cx, cy = G.derive_county_xy(lon, lat)
    fips = G.county_fips_from_xy(cx, cy)
    # real-unit variables reconstructed from the exact quantized ints
    x = round_away(G.derive_value(ids) * _CORR_QX, 0) / _CORR_QX
    y = round_away(G.derive_biomass(ids) * _CORR_QY, 0) / _CORR_QY
    rows = []
    for f in np.unique(fips):
        m = fips == f
        if x[m].std() == 0 or y[m].std() == 0:
            continue
        sl, ic = np.polyfit(x[m], y[m], 1)
        rows.append((str(f), int(m.sum()), float(sl), float(ic)))
    exp = pd.DataFrame(rows, columns=["county_fips", "n_tiles", "slope", "intercept"])
    assert list(got["county_fips"]) == list(exp["county_fips"])
    assert (got["n_tiles"].to_numpy() == exp["n_tiles"].to_numpy()).all()
    assert np.allclose(got["slope"], exp["slope"], atol=1e-5)
    assert np.allclose(got["intercept"], exp["intercept"], atol=1e-5)

    corr = (
        q_county_corr("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("county_fips")
        .reset_index(drop=True)
    )
    assert np.allclose(got["r2"], corr["corr_xy"] ** 2, atol=1e-5)
    assert ((got["r2"] >= 0) & (got["r2"] <= 1.0000001)).all()


def test_part_cosine_pairs_matches_pandas(ray_session):
    """part_cosine_pairs == an independent pandas merge formulation of
    binary co-purchase cosine on sf0.001 lineitem."""
    import pyarrow.parquet as pq

    from biomass_processing_pipeline_ray.pipelines.queries import (
        MIN_CO,
        q_part_cosine_pairs,
    )

    got = (
        q_part_cosine_pairs("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values(["part_a", "part_b"])
        .reset_index(drop=True)
    )

    li = pq.read_table(
        "/root/testdata/sf0.001/lineitem.parquet",
        columns=["l_orderkey", "l_partkey"],
    ).to_pandas()
    op = li.drop_duplicates().rename(
        columns={"l_orderkey": "ok", "l_partkey": "pk"}
    )
    deg = op.groupby("pk").size()
    m = op.merge(op, on="ok")
    m = m[m["pk_x"] < m["pk_y"]]
    pr = (
        m.groupby(["pk_x", "pk_y"]).size().reset_index(name="n_co")
    )
    pr = pr[pr["n_co"] >= MIN_CO].reset_index(drop=True)
    pr["cosine"] = pr["n_co"] / np.sqrt(
        deg.loc[pr["pk_x"]].to_numpy() * deg.loc[pr["pk_y"]].to_numpy()
    )
    pr = pr.sort_values(["pk_x", "pk_y"]).reset_index(drop=True)

    assert len(got) == len(pr) and len(got) > 0
    assert (got["part_a"].to_numpy() == pr["pk_x"].to_numpy()).all()
    assert (got["part_b"].to_numpy() == pr["pk_y"].to_numpy()).all()
    assert (got["n_co"].to_numpy() == pr["n_co"].to_numpy()).all()
    assert np.allclose(got["cosine"], pr["cosine"], atol=1e-6)
    assert ((got["cosine"] > 0) & (got["cosine"] <= 1.0)).all()


def test_dbscan_matches_bruteforce(rd, ray_session):
    """Grid-bucketed distributed DBSCAN == brute-force union-find
    DBSCAN with the same deterministic rules (min-id cluster labels,
    min-cluster border assignment, -1 noise) on a blobs+noise fixture
    spanning many grid cells."""
    import pyarrow as pa

    from biomass_processing_pipeline_ray.stages.dbscan import MINPTS, dbscan

    rng = np.random.default_rng(5)
    # planted cross: center sees 6 (core), each arm sees 2 (< minpts)
    # but is within eps of the core center -> guaranteed border points
    cross = np.array(
        [[9.0, 9.0]]
        + [
            [9.0 + 0.24 * np.cos(t), 9.0 + 0.24 * np.sin(t)]
            for t in np.linspace(0, 2 * np.pi, 6)[:-1]
        ]
    )
    pts = [
        rng.normal([2, 3], 0.05, (80, 2)),
        rng.normal([5, 7], 0.05, (70, 2)),
        rng.normal([8, 2], 0.04, (60, 2)),
        rng.uniform([0, 0], [8.5, 8.5], (200, 2)),
        cross,
    ]
    X = np.vstack(pts)
    ids = np.arange(len(X), dtype=np.int64)
    eps = 0.25
    ds = rd.from_arrow(
        pa.table({"pid": ids, "x": X[:, 0], "y": X[:, 1]})
    ).repartition(6)
    got = (
        dbscan(ds, "pid", eps=eps, minpts=MINPTS, nb=16)
        .to_pandas()
        .sort_values("pid")
        .reset_index(drop=True)
    )

    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
    inr = d2 <= eps * eps
    core = inr.sum(1) >= MINPTS
    parent = list(range(len(X)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ci = np.flatnonzero(core)
    for i in ci:
        for j in ci[ci > i]:
            if inr[i, j]:
                a, b = find(i), find(j)
                if a != b:
                    parent[max(a, b)] = min(a, b)
    lbl = np.full(len(X), -1, dtype=np.int64)
    rmin = {}
    for i in ci:
        r = find(i)
        rmin[r] = min(rmin.get(r, i), i)
    for i in ci:
        lbl[i] = rmin[find(i)]
    for i in np.flatnonzero(~core):
        cands = ci[inr[i, ci]]
        if len(cands):
            lbl[i] = min(lbl[c] for c in cands)

    assert len(got) == len(X)
    assert (got["cluster"].to_numpy() == lbl).all()
    # fixture sanity: all three regimes present (3 blobs + the planted
    # cross = 4 clusters; the cross center is a SINGLETON core, so the
    # no-CC-row fallback label path is exercised too)
    assert len(set(lbl[lbl >= 0])) == 4
    assert (lbl == -1).sum() > 0
    assert (~core & (lbl >= 0)).sum() >= 5  # planted borders
    ccenter = len(X) - 6
    assert core[ccenter] and lbl[ccenter] == ccenter
    assert (lbl[ccenter + 1 :] == ccenter).all()


def test_benchmark_decontam_vs_bruteforce(rd, ray_session):
    """The broadcast decontamination scan equals the O(n·m) exact
    definition (distinct word 4-grams shared with the eval shard),
    independent of block layout, with planted overlaps detected and
    clean docs untouched."""
    import ray

    from biomass_processing_pipeline_ray.stages.textstages import (
        DecontamScan,
        eval_gram_rows,
        word_ngram_set,
    )

    rng = np.random.default_rng(11)
    vocab = list("abcdefgh")
    texts = [
        " ".join(rng.choice(vocab, rng.integers(2, 20))) for _ in range(100)
    ]
    # eval shard = every 10th doc; plant verbatim eval excerpts in 3 docs
    texts[13] = texts[0] + " " + texts[13]            # leading overlap
    texts[47] = texts[47] + " " + texts[20]           # trailing overlap
    texts[88] = texts[30]                             # full duplicate
    df = pd.DataFrame({"doc_id": np.arange(100, dtype=np.int64), "text": texts})

    eval_mask = df["doc_id"] % 10 == 0
    ev_grams = frozenset().union(
        *(word_ngram_set(t, 4) for t in df.loc[eval_mask, "text"])
    )
    exp = {
        int(r.doc_id): len(word_ngram_set(r.text, 4) & ev_grams)
        for r in df[~eval_mask].itertuples()
    }

    ds = rd.from_pandas(df).repartition(7)

    def eval_shard(b):
        ids = b["doc_id"].to_numpy()
        return eval_gram_rows(b.filter(pa.array(ids % 10 == 0)), 4)

    got_grams = frozenset(
        r["gram"]
        for r in ds.map_batches(eval_shard, batch_format="pyarrow").take_all()
    )
    assert got_grams == ev_grams

    def corpus_only(b):
        ids = b["doc_id"].to_numpy()
        return b.filter(pa.array(ids % 10 != 0))

    out = (
        ds.map_batches(corpus_only, batch_format="pyarrow")
        .map_batches(
            DecontamScan,
            fn_constructor_kwargs={"grams_ref": ray.put(got_grams), "n": 4},
            batch_format="pyarrow",
            concurrency=(1, 2),
        )
        .to_pandas()
    )
    got = dict(zip(out["doc_id"].astype(int), out["n_hits"].astype(int)))
    assert got == exp
    assert got[13] > 0 and got[47] > 0 and got[88] > 0
    assert (out["contaminated"] == (out["n_hits"] > 0).astype(np.int64)).all()


def test_doc_repetition_vs_bruteforce(rd, ray_session):
    """The repetition signal equals the literal Counter definition per
    document, covers every doc (too-short docs keep trivially), and the
    keep rule is exact-integer."""
    from collections import Counter

    from biomass_processing_pipeline_ray.stages.textstages import repetition_batch

    rng = np.random.default_rng(23)
    vocab = list("abcde")
    texts = [" ".join(rng.choice(vocab, rng.integers(1, 30))) for _ in range(80)]
    texts[7] = "a b " * 20 + "a b"          # pathological repeat: filtered
    texts[11] = "a"                          # too short for bigrams: kept
    df = pd.DataFrame({"doc_id": np.arange(80, dtype=np.int64), "text": texts})

    out = (
        rd.from_pandas(df)
        .repartition(5)
        .map_batches(repetition_batch, batch_format="pyarrow")
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert len(out) == 80
    for r in df.itertuples():
        w = r.text.split(" ")
        c = Counter(zip(w, w[1:]))
        mx, tot = (max(c.values()), len(w) - 1) if len(w) >= 2 else (0, 0)
        assert out.loc[r.doc_id, "top_bigram_count"] == mx
        assert out.loc[r.doc_id, "n_bigrams"] == tot
        assert out.loc[r.doc_id, "keep"] == int(mx * 5 <= tot)
    assert out.loc[7, "keep"] == 0 and out.loc[11, "keep"] == 1


def test_dup_gram_frac_vs_bruteforce(rd, ray_session):
    """The two-shuffle duplicated-gram pipeline equals the O(n²) exact
    definition (distinct word 4-grams appearing in ≥2 documents),
    independent of block layout, with gram-less and empty docs carried
    by the sentinel path."""
    from collections import Counter

    from biomass_processing_pipeline_ray.stages.textstages import (
        dupgram_bucket,
        dupgram_rows,
        word_ngram_set,
    )
    from biomass_processing_pipeline_ray.stages.zonal import bucketed_agg

    rng = np.random.default_rng(7)
    vocab = list("abcdef")
    texts = [
        " ".join(rng.choice(vocab, rng.integers(1, 30))) for _ in range(120)
    ]
    texts[5] = "a b c"                        # 3 words: gram-less
    texts[6] = ""                             # degenerate
    texts[40] = texts[10]                     # full duplicate
    texts[41] = texts[11] + " " + texts[12]   # composite overlap

    sets = [word_ngram_set(t, 4) for t in texts]
    c = Counter(g for s in sets for g in s)   # per-doc distinct → doc count
    exp = {
        i: (len(s), sum(1 for g in s if c[g] >= 2)) for i, s in enumerate(sets)
    }

    df = pd.DataFrame({"doc_id": np.arange(120, dtype=np.int64), "text": texts})
    rows = (
        rd.from_pandas(df)
        .repartition(9)
        .map_batches(lambda b: dupgram_rows(b, 4), batch_format="pyarrow")
        .groupby("bk")
        .map_groups(dupgram_bucket, batch_format="pandas")
    )
    got = (
        bucketed_agg(
            rows,
            ["doc_id"],
            {"n_grams": ("n_grams", "sum"), "dup_grams": ("dup_grams", "sum")},
            nb=16,
        )
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert len(got) == 120
    for i in range(120):
        assert (got.loc[i, "n_grams"], got.loc[i, "dup_grams"]) == exp[i]
    assert exp[40][1] == exp[40][0] > 0       # planted full dup: all grams dup
    assert got.loc[5, "n_grams"] == 0 and got.loc[6, "n_grams"] == 0


def test_unigram_lm_nll_vs_bruteforce(rd, ray_session):
    """The broadcast unigram-LM scorer equals the exact sequential
    definition (Counter + math.log, micro-unit quantized), independent
    of block layout; a planted all-unique-token gibberish doc scores
    the corpus maximum and a planted all-common-token doc the minimum."""
    import math
    from collections import Counter

    import ray

    from biomass_processing_pipeline_ray.functions.rounding import round_away
    from biomass_processing_pipeline_ray.stages.textstages import (
        UnigramLMScorer,
        fit_unigram_units,
    )

    rng = np.random.default_rng(17)
    vocab = list("abcdefgh")
    texts = [
        " ".join(rng.choice(vocab, rng.integers(2, 20))) for _ in range(80)
    ]
    texts[10] = " ".join(f"zq{i}x" for i in range(12))  # all-unique gibberish
    texts[20] = " ".join(["a"] * 15)                     # head-like common run
    df = pd.DataFrame({"doc_id": np.arange(80, dtype=np.int64), "text": texts})

    # sequential oracle
    cnt: Counter = Counter()
    for t in texts:
        cnt.update(t.split(" "))
    n = float(sum(cnt.values()))
    units = {
        w: int(round_away(-math.log(c / n) * 1000000.0, 0))
        for w, c in cnt.items()
    }
    exp = {}
    for i, t in enumerate(texts):
        w = t.split(" ")
        exp[i] = (
            len(w),
            float(round_away(sum(units[x] for x in w) / 1e6 / len(w), 6)),
        )

    ds = rd.from_pandas(df).repartition(7)
    fitted = fit_unigram_units(ds)
    assert dict(zip(fitted.index, fitted.to_numpy())) == units
    out = (
        ds.map_batches(
            UnigramLMScorer,
            fn_constructor_kwargs={"units_ref": ray.put(fitted)},
            batch_format="pyarrow",
            concurrency=(1, 2),
        )
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    got = {
        int(i): (int(r["n_tokens"]), float(r["avg_nll"]))
        for i, r in out.iterrows()
    }
    assert got == exp
    assert out["avg_nll"].idxmax() == 10  # gibberish = rarest tokens
    assert out["avg_nll"].idxmin() == 20  # common-token run = head-like


def test_source_gram_overlap_vs_bruteforce(rd, ray_session):
    """The bucketed source-overlap matrix equals the exact per-source
    distinct-gram-set Jaccard, independent of block layout, including
    a planted near-copy source pair and a disjoint-vocabulary source
    (zero intersection rows present via the size cross-product)."""
    from biomass_processing_pipeline_ray.pipelines.queries import (
        q_source_gram_overlap,
    )
    from biomass_processing_pipeline_ray.stages.textstages import word_ngram_set

    rng = np.random.default_rng(3)
    vocab = list("abcde")
    rows = []
    for i in range(90):
        src = f"s{i % 3}"
        rows.append((i, src, " ".join(rng.choice(vocab, rng.integers(4, 25)))))
    # s3 = verbatim copy of s0's docs (near-copy source)
    rows += [(100 + i, "s3", t) for i, (_, s, t) in enumerate(rows[:30]) if s == "s0"]
    # s4 = disjoint vocabulary → zero overlap with everyone
    rows += [(200 + i, "s4", " ".join(rng.choice(list("xyzw"), 10))) for i in range(5)]
    df = pd.DataFrame(rows, columns=["doc_id", "source", "text"])

    sets: dict[str, set] = {}
    for r in df.itertuples():
        sets.setdefault(r.source, set()).update(word_ngram_set(r.text, 4))
    srcs = sorted(sets)

    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        df.to_parquet(os.path.join(d, "documents.parquet"))
        got = q_source_gram_overlap(d).set_index(["src_a", "src_b"])

    import itertools
    n_pairs = 0
    for a, b in itertools.combinations(srcs, 2):
        inter = len(sets[a] & sets[b])
        row = got.loc[(a, b)]
        assert (row["n_a"], row["n_b"], row["n_common"]) == (
            len(sets[a]), len(sets[b]), inter
        )
        n_pairs += 1
    assert len(got) == n_pairs
    assert got.loc[("s0", "s3"), "n_common"] > 0
    assert (got.loc[("s0", "s3"), "jaccard"] > got["jaccard"].drop(("s0", "s3"))).all()
    assert (got.xs("s4", level="src_b")["n_common"] == 0).all()


def test_dsir_weights_vs_bruteforce(rd, ray_session):
    """The hashed-bucket DSIR scorer equals the exact sequential
    definition (md5-bucket Counters + math.log ratio, micro-unit
    quantized), independent of block layout; a planted doc made of
    target-exclusive tokens scores the maximum and one made of
    raw-exclusive tokens the minimum."""
    import hashlib
    import math
    from collections import Counter

    import ray

    from biomass_processing_pipeline_ray.functions.rounding import round_away
    from biomass_processing_pipeline_ray.stages.textstages import (
        DSIRScorer,
        fit_dsir_units,
    )

    rng = np.random.default_rng(23)
    vocab = list("abcdefgh")
    n_docs = 90
    texts = [
        " ".join(rng.choice(vocab, rng.integers(2, 18))) for _ in range(n_docs)
    ]
    srcs = ["tgt" if i % 3 == 0 else f"raw{i % 2}" for i in range(n_docs)]
    # target-exclusive tokens appear ONLY in target docs → max log-ratio
    texts[0] = "tonly1 tonly2 tonly1 tonly2 tonly1"
    assert srcs[0] == "tgt"
    # raw-exclusive tokens → min log-ratio
    texts[1] = "ronly1 ronly2 ronly1 ronly2 ronly1"
    assert srcs[1] != "tgt"
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n_docs, dtype=np.int64),
            "text": texts,
            "source": srcs,
        }
    )

    # sequential oracle
    h4 = lambda t: hashlib.md5(t.encode()).hexdigest()[:4]  # noqa: E731
    bt: Counter = Counter()
    br: Counter = Counter()
    for t, s in zip(texts, srcs):
        for tok in t.split(" "):
            (bt if s == "tgt" else br)[h4(tok)] += 1
    buckets = sorted(set(bt) | set(br))
    nt, nr, v = float(sum(bt.values())), float(sum(br.values())), float(len(buckets))
    units = {
        b: int(
            round_away(
                (
                    math.log((bt.get(b, 0) + 0.5) / (nt + 0.5 * v))
                    - math.log((br.get(b, 0) + 0.5) / (nr + 0.5 * v))
                )
                * 1000000.0,
                0,
            )
        )
        for b in buckets
    }
    exp = {}
    for i, t in enumerate(texts):
        w = t.split(" ")
        exp[i] = (
            len(w),
            float(round_away(sum(units[h4(x)] for x in w) / 1e6, 6)),
        )

    ds = rd.from_pandas(df).repartition(7)
    fitted = fit_dsir_units(ds, target_source="tgt")
    assert dict(zip(fitted.index, fitted.to_numpy())) == units
    out = (
        ds.drop_columns(["source"])
        .map_batches(
            DSIRScorer,
            fn_constructor_kwargs={"units_ref": ray.put(fitted)},
            batch_format="pyarrow",
            concurrency=(1, 2),
        )
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    got = {
        int(i): (int(r["n_tokens"]), float(r["dsir_w"]))
        for i, r in out.iterrows()
    }
    assert got == exp
    assert out["dsir_w"].idxmax() == 0  # target-exclusive tokens
    assert out["dsir_w"].idxmin() == 1  # raw-exclusive tokens


def test_lexical_batch_vs_bruteforce():
    from biomass_processing_pipeline_ray.stages.textstages import lexical_batch

    texts = [
        "a b a c a b",        # 6 tokens, 3 types
        "",                   # [''] -> 1/1 (string_split parity)
        "x x x x x x x x x",  # 9 tokens, 1 type -> keep=0 (5*1 < 9)
        "u v w x y",          # 5/5 -> keep=1
    ]
    b = pa.table(
        {
            "doc_id": pa.array(np.arange(4, dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    out = lexical_batch(b).to_pandas().set_index("doc_id")
    for i, t in enumerate(texts):
        w = t.split(" ")
        assert out.loc[i, "n_tokens"] == len(w)
        assert out.loc[i, "n_types"] == len(set(w))
        assert out.loc[i, "keep"] == int(len(set(w)) * 5 >= len(w))
    assert out.loc[0, "ttr"] == 0.5
    assert out.loc[1, "ttr"] == 1.0


def test_lexical_sql_parity_duckdb():
    import duckdb

    from biomass_processing_pipeline_ray.stages.textstages import (
        lexical_batch,
        sql_lexical,
    )

    texts = ["a b a", "", "p q p q p q p q p q p q", "lone"]
    b = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    got = lexical_batch(b).to_pandas().sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("documents", b)
    exp = (
        con.sql(sql_lexical("documents"))
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for c in ["n_tokens", "n_types", "keep"]:
        assert got[c].tolist() == exp[c].astype("int64").tolist()
    assert got["ttr"].tolist() == exp["ttr"].astype("float64").tolist()


def test_semdedup_flags_vs_bruteforce(rd, ray_session):
    from biomass_processing_pipeline_ray.stages.ann import (
        _exact_pairs_block,
        semdedup_flags,
    )
    from biomass_processing_pipeline_ray.stages.kmeans import dots, prep_rows

    rng = np.random.default_rng(23)
    n, d, tau = 120, 16, 0.9
    base = rng.normal(size=(n, d))
    # plant near-duplicate runs: rows 10/11/12 jitter row 10, 50/51 jitter 50
    for a, b in [(11, 10), (12, 10), (51, 50)]:
        base[a] = base[b] + rng.normal(scale=1e-3, size=d)
    cents_raw = rng.normal(size=(4, d))
    _, cents = prep_rows(np.zeros(4), cents_raw)

    ids0 = np.arange(n, dtype=np.int64)
    tbl = pa.table(
        {"vec_id": pa.array(ids0), "embedding": pa.array(list(base))}
    )
    got = (
        semdedup_flags(rd.from_arrow(tbl), cents, tau=tau)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )

    # sequential reference: same kernels, same tie rules
    ids, mat = prep_rows(ids0, base)
    sims = dots(mat, cents)
    best = np.argmax(sims, axis=1)
    cos = sims[np.arange(n), best]
    exp_keep = np.zeros(n, dtype=np.int64)
    exp_grp = np.zeros(n, dtype=np.int64)
    for c in range(4):
        idx = np.flatnonzero(best == c)
        if not len(idx):
            continue
        m = len(idx)
        ii, jj = _exact_pairs_block(mat[idx], np.arange(m), tau, 1024)
        parent = list(range(m))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(ii.tolist(), jj.tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        root = np.fromiter((find(i) for i in range(m)), np.int64, count=m)
        exp_grp[idx] = ids[idx][root]
        order = np.argsort(cos[idx], kind="stable")
        seen = set()
        for i in order.tolist():
            r = int(root[i])
            if r not in seen:
                seen.add(r)
                exp_keep[idx[i]] = 1

    assert got["centroid"].to_numpy().tolist() == best.tolist()
    assert got["grp"].to_numpy().tolist() == exp_grp.tolist()
    assert got["keep"].to_numpy().tolist() == exp_keep.tolist()
    # planted dups resolved into one group with exactly one keeper
    g = got.set_index("vec_id")
    assert g.loc[11, "grp"] == g.loc[10, "grp"]
    assert g.loc[12, "grp"] == g.loc[10, "grp"]
    assert g.loc[51, "grp"] == g.loc[50, "grp"]
    trio = got[got["grp"] == g.loc[10, "grp"]]
    assert trio["keep"].sum() == 1
    # the keeper is the least prototypical member (lowest centroid cos)
    kept = trio[trio["keep"] == 1].iloc[0]
    assert kept["cos"] == trio["cos"].min()
    # every group keeps exactly one row
    per_grp = got.groupby("grp")["keep"].sum()
    assert (per_grp == 1).all()


def test_ann_pq_rerank_invariants(ray_session):
    """Two-stage retrieval sanity at sf0.001: exact-cos ranks are
    monotone per query, the query never retrieves itself, and the
    reranked cos for rank 1 is >= the PQ-only top-1's EXACT cos (the
    rerank can only improve the quality of the head)."""
    from biomass_processing_pipeline_ray.pipelines.queries import (
        _RERANK_K,
        q_ann_pq_rerank,
    )

    out = q_ann_pq_rerank("/root/testdata/sf0.001").to_pandas()
    for qid, g in out.groupby("query_id"):
        assert g["rank"].tolist() == list(range(1, _RERANK_K + 1))
        assert (qid != g["vec_id"]).all()
        c = g.sort_values("rank")["cos"].to_numpy()
        assert (np.diff(c) <= 1e-12).all()  # non-increasing
