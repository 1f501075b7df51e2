"""Deduplication family: exact, MinHash-LSH, SimHash, n-gram Jaccard,
phash-Hamming — the scale operators the reference lacks (SURVEY.md §2.7
notes only a Python-set dedup; these are first-class here).

Design per the Ray guide's aggregation-at-scale pattern:

- **exact**: md5(text) added vectorized in ``map_batches`` →
  ``groupby(hash)`` keeps the min-id row.  md5 (not Python ``hash``) so
  DuckDB's ``md5()`` is the oracle.
- **MinHash-LSH**: per-batch shingle → 64-perm minhash (affine
  transforms of a crc32 base hash, vectorized) → explode to
  (band_id, band_key, doc_id) rows → ``groupby`` band buckets →
  candidate pairs → exact Jaccard verify.  Sketches are mergeable; only
  tiny signature rows shuffle.
- **SimHash**: 64-bit sign-sum of token hashes; 4×16-bit band blocking
  for Hamming ≤ 3 candidates.
- **phash-Hamming**: same blocking trick on the image perceptual hash.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa


# -- minhash / LSH ------------------------------------------------------------

N_PERM = 64
BANDS = 16  # 16 bands × 4 rows
ROWS_PER_BAND = N_PERM // BANDS
_MH_P = np.uint64((1 << 61) - 1)
_rng = np.random.Generator(np.random.PCG64(12345))
_MH_A = _rng.integers(1, 1 << 32, N_PERM, dtype=np.uint64)
_MH_B = _rng.integers(0, 1 << 32, N_PERM, dtype=np.uint64)


def shingle_set(text: str, k: int = 3) -> np.ndarray:
    """Word k-gram shingles hashed with crc32 (deterministic)."""
    words = text.split()
    if len(words) < k:
        grams = [" ".join(words)] if words else []
    else:
        grams = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    return np.unique(
        np.asarray([zlib.crc32(g.encode("utf-8")) for g in grams], dtype=np.uint64)
    )


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    if len(shingles) == 0:
        return np.full(N_PERM, np.iinfo(np.uint64).max, dtype=np.uint64)
    # affine transforms in uint64; values < 2^32 so a*h+b < 2^64 safe-ish
    v = (shingles[:, None] * _MH_A[None, :] + _MH_B[None, :]) % _MH_P
    return v.min(axis=0)


def minhash_bands_batch(batch: pa.Table, n_coarse: int = 1024, shingler=None) -> pa.Table:
    """Explode each doc into BANDS (band_key, coarse, doc_id) rows.

    ``band_key`` is the first 8 bytes of md5(band_id ‖ signature chunk)
    as int64 — band identity is folded INTO the key, so downstream
    stages match on a single integer column; ``coarse`` is derived
    vectorized from it (no per-row Python on the exploded hot path)."""
    if shingler is None:
        shingler = shingle_set
    ids = batch["doc_id"].to_numpy()
    texts = batch["text"].to_pylist()
    n = len(texts)
    keys = np.empty((n, BANDS), dtype=np.int64)
    for i, t in enumerate(texts):
        sig = minhash_signature(shingler(t))
        for b in range(BANDS):
            chunk = sig[b * ROWS_PER_BAND : (b + 1) * ROWS_PER_BAND]
            digest = hashlib.md5(bytes([b]) + chunk.tobytes()).digest()
            keys[i, b] = np.frombuffer(digest[:8], dtype=np.int64)[0]
    band_key = keys.ravel()
    return pa.table(
        {
            "doc_id": pa.array(np.repeat(ids, BANDS)),
            "band_key": pa.array(band_key),
            "coarse": pa.array(band_key % n_coarse),
        }
    )


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    return inter / (len(a) + len(b) - inter)


def minhash_lsh_pairs(
    ds, docs_ds, threshold: float = 0.7, n_coarse: int = 256, shingler=None
):
    """Candidate pairs from LSH buckets, verified with exact Jaccard —
    with NO whole-corpus broadcast anywhere.

    Verify is a co-partitioned two-hop join (the 100 TB design):

    1. each candidate pair (a, b) explodes into two (key=doc_id, a, b)
       rows that co-partition WITH the documents table on
       ``doc_id % n_coarse`` — one full-table shuffle attaches each
       side's text via a vectorized in-bucket merge;
    2. the (now tiny) per-side rows regroup on a pair-coarse key and
       each bucket computes exact shingle-set Jaccard with a per-bucket
       doc cache.

    ``docs_ds`` is a second (column-pruned) read of the documents table
    — at scale that is a re-scan, never a driver materialization.
    ``shingler`` picks the dedup flavor: word k-gram (default) or
    :func:`char_shingle_set` for character n-gram Jaccard.
    """
    if shingler is None:
        shingler = shingle_set
    bands = ds.map_batches(
        lambda b: minhash_bands_batch(b, shingler=shingler),
        batch_format="pyarrow",
    )

    def coarse_bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["band_key", "doc_id"])
        m = g.merge(g, on="band_key")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        out = pd.DataFrame(
            {
                "a": m["doc_id_x"].to_numpy(dtype=np.int64, na_value=0),
                "b": m["doc_id_y"].to_numpy(dtype=np.int64, na_value=0),
            }
        )
        return out.drop_duplicates(["a", "b"])

    pairs = bands.groupby("coarse").map_groups(
        coarse_bucket_pairs, batch_format="pandas"
    )
    return verify_jaccard_pairs(pairs, docs_ds, threshold, n_coarse, shingler)


def verify_jaccard_pairs(
    pairs, docs_ds, threshold: float, n_coarse: int = 256, shingler=None,
    prefilter: bool = True,
):
    """Exact-Jaccard verification of candidate (a, b) doc-id pairs via
    the co-partitioned two-hop join (extracted from
    :func:`minhash_lsh_pairs` so index-backed candidate generators —
    :func:`dedup_against_index` — share it verbatim).

    ``prefilter=True`` drops corpus docs that appear in no candidate
    pair BEFORE the text shuffle, via a constant-size Bloom bitmap over
    the pair key set (``relational.bloom_build`` — 1 MiB broadcast
    regardless of pair count, no text broadcast): at 100 TB the corpus
    side is the whole documents table while candidate-pair members are
    a sparse subset, so the hop-1 exchange shrinks from O(corpus text)
    to O(pair-member text).  False positives only admit extra docs that
    the exact inner merge in ``attach_text`` then discards — the result
    is bit-identical (gated by the minhash/ngram pair oracles).  Costs
    one materialize of the (bounded, candidate-sized) pairs dataset,
    which hop 1 consumes a second time anyway."""
    if shingler is None:
        shingler = shingle_set

    if prefilter:
        from .relational import BloomPrefilter, bloom_build

        pairs = pairs.materialize()  # consumed twice: bloom build + hop 1
        if pairs.count() == 0:  # metadata-cheap on materialized data
            import ray.data as rd

            return rd.from_arrow(
                pa.table(
                    {
                        "a": pa.array([], pa.int64()),
                        "b": pa.array([], pa.int64()),
                        "jaccard": pa.array([], pa.float64()),
                    }
                )
            )

        def pair_keys(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "key": pa.array(
                        np.concatenate(
                            [b["a"].to_numpy(), b["b"].to_numpy()]
                        ).astype(np.int64)
                    )
                }
            )

        bloom_ref = bloom_build(
            pairs.map_batches(pair_keys, batch_format="pyarrow"), "key"
        )
        docs_ds = docs_ds.map_batches(
            BloomPrefilter,
            fn_constructor_kwargs={"bloom_ref": bloom_ref, "col": "doc_id"},
            batch_format="pyarrow",
            concurrency=(1, 4),
        )

    # -- verify hop 1: co-partition pair sides with the documents table
    def explode_pairs(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy()
        bb = b["b"].to_numpy()
        key = np.concatenate([a, bb])
        return pa.table(
            {
                "key": pa.array(key),
                "coarse": pa.array(key % n_coarse),
                "a": pa.array(np.concatenate([a, a])),
                "b": pa.array(np.concatenate([bb, bb])),
                "text": pa.array([""] * len(key), pa.string()),
                "is_doc": pa.array(np.zeros(len(key), dtype=np.int8)),
            }
        )

    def tag_docs(b: pa.Table) -> pa.Table:
        n = len(b)
        key = b["doc_id"].to_numpy()
        return pa.table(
            {
                "key": b["doc_id"],
                "coarse": pa.array(key % n_coarse),
                "a": pa.array(np.full(n, -1, dtype=np.int64)),
                "b": pa.array(np.full(n, -1, dtype=np.int64)),
                "text": b["text"],
                "is_doc": pa.array(np.ones(n, dtype=np.int8)),
            }
        )

    unioned = pairs.map_batches(explode_pairs, batch_format="pyarrow").union(
        docs_ds.map_batches(tag_docs, batch_format="pyarrow")
    )

    def attach_text(g: pd.DataFrame) -> pa.Table:
        # typed Arrow output: most coarse groups carry docs but no
        # candidate pairs, and empty pandas blocks with string columns
        # spam Ray's size-estimator warning
        docs = g.loc[g["is_doc"] == 1, ["key", "text"]]
        pr = g.loc[g["is_doc"] == 0, ["key", "a", "b"]].drop_duplicates()
        m = pr.merge(docs, on="key", how="inner")
        return pa.table(
            {
                "a": pa.array(m["a"].to_numpy(dtype=np.int64), pa.int64()),
                "b": pa.array(m["b"].to_numpy(dtype=np.int64), pa.int64()),
                "key": pa.array(m["key"].to_numpy(dtype=np.int64), pa.int64()),
                "text": pa.array(m["text"].tolist(), pa.string()),
            }
        )

    sided = unioned.groupby("coarse").map_groups(attach_text, batch_format="pandas")

    # -- verify hop 2: regroup by pair, exact Jaccard per bucket
    def add_pair_coarse(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy()
        bb = b["b"].to_numpy()
        return b.append_column(
            "pair_coarse", pa.array((a * 1000003 + bb) % n_coarse)
        )

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["key"] == g["a"]]
        right = g[g["key"] == g["b"]]
        m = left.merge(right, on=["a", "b"], suffixes=("_a", "_b"))
        cache: dict[int, np.ndarray] = {}
        out = []
        for a, b, ta, tb in zip(m["a"], m["b"], m["text_a"], m["text_b"]):
            sa = cache.setdefault(int(a), shingler(ta))
            sb = cache.setdefault(int(b), shingler(tb))
            j = jaccard(sa, sb)
            if j >= threshold:
                out.append((int(a), int(b), j))
        df = pd.DataFrame(out, columns=["a", "b", "jaccard"])
        return df.astype({"a": np.int64, "b": np.int64, "jaccard": np.float64})

    # output is already pair-unique — no dedup shuffle needed: every
    # copy of a candidate pair (band collisions across coarse buckets)
    # carries the same key sides, all key=a rows of a pair co-locate in
    # bucket a % n_coarse where attach_text drop_duplicates collapses
    # them (likewise key=b), so the verify merge yields exactly one row
    # per surviving pair.
    return (
        sided.map_batches(add_pair_coarse, batch_format="pyarrow")
        .groupby("pair_coarse")
        .map_groups(verify_bucket, batch_format="pandas")
    )


# -- incremental dedup against a MATERIALIZED band index ----------------------
#
# The corpus-maintenance path: at 100 TB the corpus is deduped once and
# its LSH band rows persist as a hive-partitioned store; each new crawl
# batch (the delta) shingles only ITSELF, derives the band partitions
# its own keys name, and reads ONLY those partitions of the index —
# the corpus text is never re-shingled and the index is never scanned
# whole.  Mirrors the pruned-read design of the IVF/IVF-PQ vector
# stores (`stages/ann.py`) for the dedup family.  (The reference stops
# at per-key result upsert — `result_writer_v3.py`; index-backed
# incremental dedup is part of the beyond-reference corpus toolkit.)


def build_band_index(docs_ds, out_dir: str, n_parts: int = 64, shingler=None) -> str:
    """Materialize the LSH band index of a corpus: (band_key, doc_id)
    rows hive-partitioned by ``band_part = band_key mod n_parts``.
    Idempotent (``_SUCCESS`` marker); the build is one streamed pass —
    shingle → signature → band keys per batch, partitioned write."""
    import os
    import shutil

    marker = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(marker):
        return out_dir

    def rows(b: pa.Table) -> pa.Table:
        t = minhash_bands_batch(b, shingler=shingler)
        bk = t["band_key"].to_numpy()
        return pa.table(
            {
                "band_key": t["band_key"],
                "doc_id": t["doc_id"],
                "band_part": pa.array(bk % n_parts, pa.int64()),
            }
        )

    tmp = f"{out_dir}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    docs_ds.map_batches(rows, batch_format="pyarrow").write_parquet(
        tmp, partition_cols=["band_part"]
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)
    with open(marker, "w"):
        pass
    return out_dir


def append_to_band_index(
    delta_docs, index_dir: str, n_parts: int = 64, shingler=None, tag: str = ""
) -> str:
    """Append a delta batch's band rows into an EXISTING index: rows
    stage to a scratch dir partitioned the same way, then move into
    their partitions under unique names (new partitions are created as
    needed).  Readers are correct throughout — a partition listing sees
    either the old or the old+new file set, both valid band-row sets.

    Idempotent per non-empty ``tag``: destination files are named
    ``delta-{tag}-…`` and any existing files for the same tag are
    unlinked before the new ones move in (replace semantics), so a
    crash between append and the caller's completion marker re-appends
    cleanly instead of doubling the tag's rows.  The replace guarantee
    assumes no compaction ran between the two attempts of the SAME tag
    (a compaction folds the first attempt's rows into a merged file the
    tag sweep cannot see) — callers gate appends with a marker before
    compacting.  With an empty tag the name
    falls back to the pid and re-appending doubles rows (harmless for
    candidate generation, which dedups pairs)."""
    import os
    import shutil

    def rows(b: pa.Table) -> pa.Table:
        t = minhash_bands_batch(b, shingler=shingler)
        bk = t["band_key"].to_numpy()
        return pa.table(
            {
                "band_key": t["band_key"],
                "doc_id": t["doc_id"],
                "band_part": pa.array(bk % n_parts, pa.int64()),
            }
        )

    stage = f"{index_dir}.delta.{os.getpid()}"
    shutil.rmtree(stage, ignore_errors=True)
    delta_docs.map_batches(rows, batch_format="pyarrow").write_parquet(
        stage, partition_cols=["band_part"]
    )
    prefix = f"delta-{tag or os.getpid()}-"
    if tag:
        # crash-retry idempotency: sweep any files a previous attempt
        # of this tag already moved in before placing the new set
        for entry in os.listdir(index_dir):
            if not entry.startswith("band_part="):
                continue
            part_dir = os.path.join(index_dir, entry)
            for f in os.listdir(part_dir):
                if f.startswith(prefix):
                    os.remove(os.path.join(part_dir, f))
    for entry in sorted(os.listdir(stage)):
        if not entry.startswith("band_part="):
            continue
        part_dir = os.path.join(index_dir, entry)
        os.makedirs(part_dir, exist_ok=True)
        for i, f in enumerate(sorted(os.listdir(os.path.join(stage, entry)))):
            if f.endswith(".parquet"):
                os.replace(
                    os.path.join(stage, entry, f),
                    os.path.join(part_dir, f"{prefix}{i}-{f}"),
                )
    shutil.rmtree(stage, ignore_errors=True)
    return index_dir


def compact_band_index(index_dir: str, gc_grace_sec: float | None = None) -> int:
    """Compact each multi-file band partition to one sorted file — the
    LSM maintenance pass after many delta appends.  Returns the number
    of partitions compacted.

    Readers are correct THROUGHOUT without a manifest: merged files
    land under fresh names while the sources stay in place, and a
    reader that lists a partition mid-compaction sees sources, merged,
    or BOTH — duplicate band rows are semantically harmless here
    because candidate generation dedups pairs (``cand`` /
    ``attach_text`` drop_duplicates), so the verified pair set is
    identical in every window.  Sources are recorded in a tombstone
    sidecar and unlinked only by a later call after ``gc_grace_sec``
    (pass 0 to GC immediately).  The IVF vector store deliberately has
    NO such compactor: duplicate vectors WOULD change top-k output, so
    compacting it safely needs the manifest-swap design of
    ``geoindex.compact_store``."""
    import json
    import os
    import time
    import uuid

    import pyarrow.parquet as pq

    stones_path = os.path.join(index_dir, "_tombstones.json")
    stones: dict[str, float] = {}
    if os.path.exists(stones_path):
        with open(stones_path) as f:
            stones = json.load(f)

    # GC tombstoned sources whose grace has elapsed
    now = time.time()
    if gc_grace_sec is not None:
        for rel, ts in list(stones.items()):
            if now - ts >= gc_grace_sec:
                try:
                    os.remove(os.path.join(index_dir, rel))
                except FileNotFoundError:
                    pass
                del stones[rel]

    compacted = 0
    for entry in sorted(os.listdir(index_dir)):
        if not entry.startswith("band_part="):
            continue
        part_dir = os.path.join(index_dir, entry)
        files = [
            f
            for f in sorted(os.listdir(part_dir))
            if f.endswith(".parquet") and f"{entry}/{f}" not in stones
        ]
        if len(files) <= 1:
            continue
        merged = pa.concat_tables(
            [pq.read_table(os.path.join(part_dir, f)) for f in files]
        ).sort_by([("band_key", "ascending"), ("doc_id", "ascending")])
        out_name = f"compact-{uuid.uuid4().hex[:12]}.parquet"
        pq.write_table(merged, os.path.join(part_dir, out_name))
        for f in files:
            stones[f"{entry}/{f}"] = now
        compacted += 1

    tmp = f"{stones_path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(stones, f)
    os.replace(tmp, stones_path)
    return compacted


def dedup_against_index(
    delta_docs,
    index_dir: str,
    docs_ds,
    threshold: float = 0.7,
    n_parts: int = 64,
    n_coarse: int = 256,
    shingler=None,
):
    """Near-dup pairs (a = delta doc, b = indexed corpus doc, jaccard)
    of a DELTA batch against :func:`build_band_index` output.

    Scale shape: the delta's band rows are bounded by the delta (BANDS
    rows/doc); the touched-partition set is bounded by ``n_parts``
    integers on the driver; the index read is PRUNED to exactly those
    partitions; the candidate join co-partitions both sides on
    ``coarse(band_key)`` (one shuffle of delta bands + the pruned index
    slice); verification is the shared broadcast-free two-hop
    :func:`verify_jaccard_pairs`."""
    import os

    import ray.data as rd

    delta_bands = delta_docs.map_batches(
        lambda b: minhash_bands_batch(b, shingler=shingler),
        batch_format="pyarrow",
    ).materialize()  # consumed twice: touched-partition scan + join

    def parts_partial(b: pa.Table) -> pa.Table:
        u = np.unique(b["band_key"].to_numpy() % n_parts)
        return pa.table({"band_part": pa.array(u, pa.int64())})

    # bounded pull: ≤ n_parts ints per block partial
    touched = sorted(
        pd.unique(
            delta_bands.map_batches(parts_partial, batch_format="pyarrow")
            .to_pandas()["band_part"]
        ).tolist()
    )
    paths = []
    for p in touched:
        part_dir = os.path.join(index_dir, f"band_part={p}")
        if os.path.isdir(part_dir):
            paths.extend(
                os.path.join(part_dir, f)
                for f in sorted(os.listdir(part_dir))
                if f.endswith(".parquet")
            )
    if not paths:
        # zero overlap between the delta's band partitions and the
        # index (or an empty delta): no candidates, typed empty result
        return rd.from_arrow(
            pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )
    idx = rd.read_parquet(paths, columns=["band_key", "doc_id"])

    def tag(side: int):
        def f(b: pa.Table) -> pa.Table:
            bk = b["band_key"].to_numpy()
            return pa.table(
                {
                    "band_key": b["band_key"],
                    "doc_id": b["doc_id"],
                    "coarse": pa.array(bk % n_coarse, pa.int64()),
                    "side": pa.array(np.full(len(bk), side, np.int8), pa.int8()),
                }
            )

        return f

    unioned = idx.map_batches(tag(0), batch_format="pyarrow").union(
        delta_bands.map_batches(tag(1), batch_format="pyarrow")
    )

    def cand(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["band_key", "doc_id", "side"])
        d = g[g["side"] == 1]
        c = g[g["side"] == 0]
        m = d.merge(c, on="band_key")
        out = pd.DataFrame(
            {
                "a": m["doc_id_x"].to_numpy(dtype=np.int64, na_value=0),
                "b": m["doc_id_y"].to_numpy(dtype=np.int64, na_value=0),
            }
        )
        out = out[out["a"] != out["b"]]
        return out.drop_duplicates(["a", "b"])

    pairs = unioned.groupby("coarse").map_groups(cand, batch_format="pandas")
    return verify_jaccard_pairs(pairs, docs_ds, threshold, n_coarse, shingler)


# -- banded Hamming near-dup (shared machinery) -------------------------------
#
# Any pair within Hamming distance 3 of a 64-bit hash agrees exactly on
# ≥1 of the 4 16-bit bands (pigeonhole), so band-blocking finds all of
# them.  Scale design: ONE shuffle instead of four — every row explodes
# into 4 (band_id ∥ band_value) keys, keys are folded into COARSE
# buckets (key % n_coarse) so the groupby produces a bounded number of
# groups (per-group Python overhead is the killer for 2^16 tiny
# buckets), and inside each coarse group a single vectorized pandas
# self-merge on the exact band key finds candidates.


def _explode_bands(
    batch: pa.Table, id_col: str, hash_col: str, n_coarse: int
) -> pa.Table:
    # band_key itself is NOT shuffled: it is re-derived in-group from
    # (rhash, band) — the exchange carries one int16 instead of an
    # int64 per exploded row (the sort all-to-all over 4n rows is the
    # dominant cost of the whole operator at 3M tiles)
    u = batch[hash_col].to_numpy().astype(np.uint64)
    n = len(u)
    ids = batch[id_col]
    keys = []
    for b in range(4):
        band = ((u >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
        keys.append(band | (b << 16))
    key_all = np.concatenate(keys)
    id_rep = pa.chunked_array([ids] * 4).combine_chunks()
    hash_rep = np.tile(batch[hash_col].to_numpy(), 4)
    return pa.table(
        {
            "coarse": pa.array(key_all % n_coarse),
            "band": pa.array(
                np.repeat(np.arange(4, dtype=np.int16), n), pa.int16()
            ),
            "rid": id_rep,
            "rhash": pa.array(hash_rep),
        }
    )


def adaptive_n_coarse(n_rows: int | None) -> int:
    """Coarse-group count scaled to input size: ~8k exploded rows per
    group (4 bands × n_rows/2048) keeps per-group Python dispatch well
    amortized — the dominant cost when groups shrink — while group
    count still grows with N for shuffle parallelism; floor 1024 (≫
    cores), cap 2^15 (well below the 4×2^16 distinct exact band keys,
    so each coarse group amortizes many exact buckets)."""
    if n_rows is None:
        return 1024
    return int(np.clip(n_rows // 2048, 1024, 1 << 15))


def _coarse_pairs(g: pd.DataFrame, max_hamming: int) -> pa.Table:
    from ..image.phash import hamming_i64

    # output is a TYPED Arrow table (not pandas): most coarse groups
    # produce ZERO pairs, and empty pandas blocks with object/string
    # columns trip Ray's sampling size-estimator ("cannot call
    # vectorize on size 0 inputs" warning spam)
    #
    # Candidate generation is pure-numpy over factorized int codes:
    # a pandas self-merge on band_key materializes t² object-dtype
    # rows for a hot band value (measured 25 s straggler tasks at
    # 600k tiles — one degenerate band value with thousands of
    # members), while the id strings are only needed for the few
    # Hamming survivors.  Small band runs pair via one vectorized
    # arange/repeat construction; hot runs (> _HOT_RUN rows) pair in
    # bounded row blocks so temporaries stay cache-sized under
    # full-machine concurrency (see BASELINE host lesson).
    id_type = (
        pa.string() if g["rid"].dtype == object else pa.from_numpy_dtype(g["rid"].dtype)
    )
    g = g.drop_duplicates(["band", "rid"])
    codes, uniq = pd.factorize(g["rid"], sort=True)
    h = g["rhash"].to_numpy(np.int64)
    # re-derive the full band key (band idx ‖ 16-bit band value) from
    # the hash — the exchange only carried the int16 band index
    bnd = g["band"].to_numpy(np.int64)
    bk = (
        ((h.astype(np.uint64) >> (np.uint64(16) * bnd.astype(np.uint64)))
         & np.uint64(0xFFFF)).astype(np.int64)
        | (bnd << 16)
    )
    order = np.argsort(bk, kind="stable")
    bk_s, code_s, h_s = bk[order], codes[order], h[order]
    n = len(bk_s)
    starts = np.flatnonzero(np.r_[True, bk_s[1:] != bk_s[:-1]])
    ends = np.r_[starts[1:], n]
    runlen = ends - starts

    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    out_h: list[np.ndarray] = []

    def emit(ii: np.ndarray, jj: np.ndarray) -> None:
        hd = hamming_i64(h_s[ii], h_s[jj])
        keep = hd <= max_hamming
        if not keep.any():
            return
        ii, jj, hd = ii[keep], jj[keep], hd[keep]
        # CANONICAL-BAND emission (round 4): a qualifying pair matches
        # in every band of its (non-empty, by pigeonhole) match set;
        # emit it only from the LOWEST matching band — decidable
        # locally from the xor of the two full hashes — so the global
        # output is unique BY CONSTRUCTION and the downstream
        # cross-group dedup shuffle disappears (it cost more than the
        # main exchange at 3M tiles: ~80 s over 244k pair rows spread
        # across ~1.5k near-empty blocks).
        band_of = (bk_s[ii] >> 16).astype(np.int64)
        xr = (h_s[ii] ^ h_s[jj]).astype(np.uint64)
        first = np.full(len(ii), 4, dtype=np.int64)
        for b in range(3, -1, -1):
            m = ((xr >> np.uint64(16 * b)) & np.uint64(0xFFFF)) == 0
            first[m] = b
        keep2 = first == band_of
        if keep2.any():
            ca, cb = code_s[ii[keep2]], code_s[jj[keep2]]
            lo, hi = np.minimum(ca, cb), np.maximum(ca, cb)
            out_a.append(lo)
            out_b.append(hi)
            out_h.append(hd[keep2])

    _PAIR_CHUNK = 1 << 18  # ≤ 256k pair indices ≈ 4 MB per array:
    # fresh multi-MB temporaries in 32 concurrent workers collapse
    # into page-fault storms on this host class (measured 12–18 s
    # straggler tasks from ~1M-pair groups emitted in one shot;
    # see the BASELINE host lesson) — all pair generation below is
    # chunked to stay cache-sized

    def triangle_runs(rows: np.ndarray, row_ends: np.ndarray,
                      gather: np.ndarray | None = None) -> None:
        # all (i, j) with i < j inside each run: element at sorted
        # position x pairs with the next c[x] positions of its own
        # run; emitted in bounded chunks of the flat pair space.
        # ``gather`` maps local positions to global ones (hot-run
        # sub-banding path).
        c = row_ends - 1 - rows
        csum = np.concatenate([[0], np.cumsum(c)])
        total = int(csum[-1])
        for p0 in range(0, total, _PAIR_CHUNK):
            p1 = min(p0 + _PAIR_CHUNK, total)
            a = int(np.searchsorted(csum, p0, side="right")) - 1
            b = int(np.searchsorted(csum, p1, side="left"))
            rr, cc, cs = rows[a:b], c[a:b], csum[a:b]
            ii = np.repeat(rr, cc)
            jj = np.arange(csum[a], csum[b]) - np.repeat(cs, cc) + ii + 1
            lo = p0 - int(csum[a])
            ii, jj = ii[lo:lo + (p1 - p0)], jj[lo:lo + (p1 - p0)]
            if gather is None:
                emit(ii, jj)
            else:
                emit(gather[ii], gather[jj])

    def blockwise_all_pairs(idx: np.ndarray) -> None:
        # chunked all-pairs over explicit global indices (one run)
        t = len(idx)
        if t > 1:
            triangle_runs(
                np.arange(t), np.full(t, t, dtype=np.int64), gather=idx
            )

    _HOT_RUN = 16  # round 4: 512 -> 64 -> 16.  The vectorized
    # cross-run refinement makes a low threshold affordable; at 3M
    # tiles the AVERAGE 16-bit band run is ~45 rows (3M/65536 per
    # band), so a threshold of 64 still left the quadratic bulk
    # (C(45,2) ~ 990 candidates/run) on the plain triangle path.
    # Break-even vs the lexsort refinement (~8 ops/row) is r ~ 17.
    small = runlen <= _HOT_RUN
    if small.any():
        triangle_runs(
            np.flatnonzero(np.repeat(small, runlen)),
            np.repeat(ends[small], runlen[small]),
        )
    # hot band runs (a degenerate or merely POPULATED band value
    # turns all-pairs into O(t²) — at 3M tiles the 64..512-length
    # runs alone held ~780M of 1.1B candidate pairs, 3.4× per-row
    # degradation vs 600k).  LSH refinement: re-band each hot run
    # by the six 8-bit sub-bands OUTSIDE its hot 16-bit band; ≤
    # max_hamming (≤ 5) differing bits cannot touch all six, so
    # every qualifying pair matches at least one sub-band exactly
    # and expected bucket size drops ~256×.  Duplicate discoveries
    # across sub-bands collapse in the final drop_duplicates.
    # The refinement is VECTORIZED ACROSS RUNS (round 4): one
    # (run, sub-band) lexsort per sb over all hot rows of the
    # group, not a Python loop per run — the loop-per-run version
    # capped the threshold at 512 to amortize its dispatch, which
    # is exactly what let mid-sized runs keep their quadratic
    # cost.  Still-degenerate sub-runs (near-exact duplicate
    # mega-clusters, where the OUTPUT itself is O(t²)) fall back
    # to bounded blockwise all-pairs, and must do so in EVERY
    # sub-band where they occur — a qualifying pair is only
    # guaranteed to match SOME sub-band.
    if (~small).any():
        if max_hamming >= 6:
            # the sub-band guarantee needs ≤ 5 differing bits over
            # the six outside sub-bands; beyond that, pay all-pairs
            for r in np.flatnonzero(~small):
                blockwise_all_pairs(np.arange(int(starts[r]), int(ends[r])))
        else:
            hot_pos = np.flatnonzero(np.repeat(~small, runlen))
            run_of = np.repeat(
                np.arange(len(runlen), dtype=np.int64), runlen
            )[hot_pos]
            hot_band_of = (bk_s[hot_pos] >> 16).astype(np.int64)
            hh = h_s[hot_pos].astype(np.uint64)
            for sb in range(8):
                m = hot_band_of != (sb // 2)
                if not m.any():
                    continue
                sub = ((hh[m] >> np.uint64(8 * sb)) & np.uint64(0xFF)).astype(
                    np.int64
                )
                rid2 = run_of[m]
                idxg = hot_pos[m]
                o2 = np.lexsort((sub, rid2))
                key2 = rid2[o2] * np.int64(256) + sub[o2]
                idx2 = idxg[o2]
                st2 = np.flatnonzero(np.r_[True, key2[1:] != key2[:-1]])
                en2 = np.r_[st2[1:], len(key2)]
                ln2 = en2 - st2
                sm2 = ln2 <= _HOT_RUN
                if sm2.any():
                    triangle_runs(
                        np.flatnonzero(np.repeat(sm2, ln2)),
                        np.repeat(en2[sm2], ln2[sm2]),
                        gather=idx2,
                    )
                for r2 in np.flatnonzero(~sm2):
                    blockwise_all_pairs(idx2[st2[r2]:en2[r2]])

    if not out_a:
        return pa.table(
            {
                "a": pa.array([], id_type),
                "b": pa.array([], id_type),
                "hamming": pa.array([], pa.int64()),
            }
        )
    out = pd.DataFrame(
        {
            "a": np.concatenate(out_a),
            "b": np.concatenate(out_b),
            "hamming": np.concatenate(out_h),
        }
    ).drop_duplicates(["a", "b"])
    uniq_arr = np.asarray(uniq)
    return pa.table(
        {
            "a": pa.array(uniq_arr[out["a"].to_numpy()], id_type),
            "b": pa.array(uniq_arr[out["b"].to_numpy()], id_type),
            "hamming": pa.array(out["hamming"].to_numpy(), pa.int64()),
        }
    )


def banded_hamming_pairs(
    ds, id_col: str, hash_col: str, max_hamming: int = 3, n_coarse: int | None = 1024
):
    """All (a, b, hamming<=max_hamming) pairs via 4×16-bit band blocking."""
    from ..image.phash import hamming_i64

    if n_coarse is None:
        n_coarse = 1024

    exploded = ds.map_batches(
        lambda b: _explode_bands(b, id_col, hash_col, n_coarse),
        batch_format="pyarrow",
    )
    # COALESCE before the sort exchange: the exploded dataset inherits
    # the read's block count (one per input file — 733 blocks of
    # ~600 KB at 3M tiles), and Ray's sort creates #blocks output
    # partitions, i.e. #blocks² shuffle fragments of ~1 KB.  At 3M
    # tiles the operator spent 69 s coordinating ~540k tiny objects
    # while total compute was ~5 s/core.  A no-shuffle repartition to
    # a CPU-scaled block count (≈8 MB blocks) collapses the fragment
    # matrix; n_coarse already scales group sizes independently.
    import ray

    ncpus = int(ray.cluster_resources().get("CPU", 4))
    exploded = exploded.repartition(max(2 * ncpus, 16), shuffle=False)

    from functools import partial

    # no global dedup stage: canonical-band emission inside
    # ``_coarse_pairs`` makes every pair surface from exactly ONE
    # coarse group (the one holding its lowest matching band), so the
    # union of group outputs is already the unique pair set — one
    # shuffle total for the whole operator.
    return exploded.groupby("coarse").map_groups(
        partial(_coarse_pairs, max_hamming=max_hamming), batch_format="pandas"
    )


# -- phash hamming near-dup (images) -----------------------------------------


def phash_neardup_pairs(ds, max_hamming: int = 3, n_rows: int | None = None):
    """Image near-dup pairs by phash Hamming (banded, single shuffle);
    pass ``n_rows`` so coarse-group count scales with the input."""
    return banded_hamming_pairs(
        ds, "image_id", "phash", max_hamming, n_coarse=adaptive_n_coarse(n_rows)
    )
