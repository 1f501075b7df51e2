"""Similarity search over the embedding column (list<float>).

- ``cosine_topk``: brute-force cosine top-k per query — numpy matmul per
  batch against a broadcast query matrix (the baseline the prompt asks
  for).  Exact, deterministic (score desc, id asc).
- ``embedding_neardup_pairs``: near-dup pairs above a cosine threshold,
  co-partitioned by ``label`` (groupby) so each group is a small dense
  matmul — the LSH-bucketed scale path in miniature.

Scale note: at 10^9+ vectors the scale path is IVF — k-means-ish coarse
cells as the partition key (same shuffle skeleton as ``label`` here),
probing n nearest cells per query.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _normalize(mat: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / np.maximum(n, 1e-30)


def embedding_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(ids, dense float64 matrix) from an Arrow list<float> column —
    reads the flat values buffer and reshapes (no per-row to_pylist)."""
    ids = batch["vec_id"].to_numpy()
    col = batch["embedding"]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_fixed_size_list(arr.type):
        width = arr.type.list_size
        flat = arr.values.to_numpy(zero_copy_only=False)
        return ids, flat.reshape(len(arr), width).astype(np.float64)
    if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type):
        offsets = arr.offsets.to_numpy()
        widths = np.diff(offsets)
        if len(widths) and (widths == widths[0]).all():
            flat = arr.values.to_numpy(zero_copy_only=False)
            # offsets may not start at 0 after a slice
            flat = flat[offsets[0] : offsets[-1]]
            return ids, flat.reshape(len(arr), int(widths[0])).astype(np.float64)
    return ids, np.asarray(arr.to_pylist(), dtype=np.float64)


class CosineTopK:
    """Actor: holds the (broadcast) query matrix; per batch one matmul."""

    def __init__(self, queries_ref=None, queries: dict | None = None, k: int = 10):
        if queries is None:
            import ray

            queries = ray.get(queries_ref)
        self.qids = np.asarray(queries["qid"], dtype=np.int64)
        self.qmat = _normalize(np.asarray(queries["mat"], dtype=np.float64))
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = embedding_matrix(batch)
        emb = _normalize(emb)
        sims = self.qmat @ emb.T  # (nq, nbatch)
        qcol, vcol, scol = [], [], []
        for qi in range(len(self.qids)):
            s = sims[qi]
            mask = ids != self.qids[qi]  # exclude the query itself
            qcol.append(np.full(mask.sum(), self.qids[qi], dtype=np.int64))
            vcol.append(ids[mask])
            scol.append(s[mask])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(qcol)),
                "vec_id": pa.array(np.concatenate(vcol)),
                "cos": pa.array(np.concatenate(scol)),
            }
        )


def cosine_topk(ds, queries_ref, k: int = 10):
    """Per-query exact top-k: per-batch partial top-k → final top-k.

    Partial top-k inside map_batches keeps the shuffle tiny (k rows per
    query per batch), then one small groupby finishes.
    """
    class PartialTopK(CosineTopK):
        def __call__(self, batch: pa.Table) -> pa.Table:
            full = super().__call__(batch)
            df = full.to_pandas()
            df = df.sort_values(
                ["query_id", "cos", "vec_id"], ascending=[True, False, True]
            )
            # metadata-free so downstream shuffle concat keeps Ray's
            # schema-dedup fast path (pandas footer is unhashable)
            return pa.Table.from_pandas(
                df.groupby("query_id").head(k), preserve_index=False
            ).replace_schema_metadata(None)

    partial = ds.map_batches(
        PartialTopK,
        fn_constructor_kwargs={"queries_ref": queries_ref, "k": k},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cos", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partial.groupby("query_id").map_groups(final_topk, batch_format="pandas")


# -- IVF (inverted-file) approximate top-k — the 10⁹+-vector scale path ------


def kmeans_centroids(
    sample: np.ndarray, nlist: int, iters: int = 10, seed: int = 7
) -> np.ndarray:
    """Deterministic Lloyd k-means on a driver-side sample (numpy only).

    Coarse quantizer for IVF; at real scale the sample is a
    ``ds.limit(…)`` pull, the assignment pass is distributed below."""
    rng = np.random.Generator(np.random.PCG64(seed))
    sample = _normalize(np.asarray(sample, dtype=np.float64))
    cents = sample[rng.choice(len(sample), size=nlist, replace=False)]
    for _ in range(iters):
        sims = sample @ cents.T
        assign = np.argmax(sims, axis=1)
        for c in range(nlist):
            members = sample[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        cents = _normalize(cents)
    return cents


class IVFAssign:
    """map_batches: adds the nearest-centroid cell id (partition key)."""

    def __init__(self, centroids_ref=None, centroids: np.ndarray | None = None):
        if centroids is None:
            import ray

            centroids = ray.get(centroids_ref)
        self.cents = np.asarray(centroids, dtype=np.float64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = embedding_matrix(batch)
        emb = _normalize(emb)
        cell = np.argmax(emb @ self.cents.T, axis=1).astype(np.int64)
        return batch.append_column("ivf_cell", pa.array(cell))


def ivf_topk(ds, queries_ref, nlist: int = 16, nprobe: int = 4, k: int = 10):
    """Approximate per-query cosine top-k probing ``nprobe`` IVF cells.

    Pipeline: assign every vector to its coarse cell (one matmul per
    batch against broadcast centroids) → keep only vectors whose cell is
    probed by ≥1 query → exact partial top-k per batch → tiny final
    top-k.  With ``nprobe == nlist`` this equals the brute-force
    :func:`cosine_topk` exactly (tested); smaller ``nprobe`` trades
    recall for a ``nprobe/nlist`` candidate-set reduction — at the
    10⁹-vector design point the probed cells are the partition key and
    unprobed partitions are never read.
    """
    import ray

    queries = ray.get(queries_ref)
    sample = np.asarray(queries["sample"], dtype=np.float64)
    cents = kmeans_centroids(sample, nlist)
    cents_ref = ray.put(cents)
    qmat = _normalize(np.asarray(queries["mat"], dtype=np.float64))
    probed = np.unique(
        np.argsort(-(qmat @ cents.T), axis=1)[:, :nprobe].ravel()
    )
    probed_ref = ray.put(probed)

    assigned = ds.map_batches(
        IVFAssign,
        fn_constructor_kwargs={"centroids_ref": cents_ref},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )

    def keep_probed(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cells = ray.get(probed_ref)
        return b.filter(pc.is_in(b["ivf_cell"], pa.array(cells, pa.int64())))

    return cosine_topk(
        assigned.map_batches(keep_probed, batch_format="pyarrow"), queries_ref, k=k
    )


def build_ivf_index(ds, out_dir: str, centroids: np.ndarray) -> str:
    """Materialize the IVF index: vectors written as parquet PARTITIONED
    BY coarse cell (hive dirs ``ivf_cell=N``), centroids stored beside
    them.  At query time only probed partitions are ever READ — the
    10⁹-vector design point where assignment is precomputed and pruning
    happens at the storage layer, not as a post-read filter."""
    import os

    import ray

    marker = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(marker):
        return out_dir
    tmp = f"{out_dir}.tmp.{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    cents_ref = ray.put(np.asarray(centroids, dtype=np.float64))
    assigned = ds.map_batches(
        IVFAssign,
        fn_constructor_kwargs={"centroids_ref": cents_ref},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    assigned.write_parquet(tmp, partition_cols=["ivf_cell"])
    np.save(os.path.join(tmp, "centroids.npy"), np.asarray(centroids))
    write_ivf_manifest(tmp, _list_ivf_cells(tmp))
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("ok")
    try:
        os.rename(tmp, out_dir)
    except OSError:
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
    return out_dir


IVF_MANIFEST = "_MANIFEST.parquet"
IVF_TOMBSTONES = "_tombstones.json"


def _list_ivf_cells(index_dir: str) -> dict[int, list[str]]:
    """(cell -> sorted file names) from a directory listing."""
    import os

    out: dict[int, list[str]] = {}
    for entry in sorted(os.listdir(index_dir)):
        if not entry.startswith("ivf_cell="):
            continue
        cell = int(entry.split("=", 1)[1])
        files = sorted(
            f
            for f in os.listdir(os.path.join(index_dir, entry))
            if f.endswith(".parquet")
        )
        if files:
            out[cell] = files
    return out


def write_ivf_manifest(index_dir: str, cells: dict[int, list[str]]) -> None:
    """Atomic manifest swap (temp + os.replace): readers plan the whole
    scan from this ONE small file, so a mid-compaction reader sees the
    pre-swap file set or the post-swap set, never both — the property
    that makes compacting a store whose duplicate rows WOULD change
    query output (top-k) safe.  Mirrors ``geoindex._refresh_manifest``
    (reference analog: the blob catalog, src/core/blob_manager.py)."""
    import os

    import pyarrow.parquet as papq

    ks = sorted(cells)
    tbl = pa.table(
        {
            "ivf_cell": pa.array(ks, pa.int64()),
            "files": pa.array([cells[c] for c in ks], pa.list_(pa.string())),
        }
    )
    tmp = os.path.join(index_dir, f"{IVF_MANIFEST}.tmp.{os.getpid()}")
    papq.write_table(tbl, tmp)
    os.replace(tmp, os.path.join(index_dir, IVF_MANIFEST))


def load_ivf_manifest(index_dir: str) -> dict[int, list[str]] | None:
    """None for legacy (pre-manifest) stores — readers fall back to a
    directory listing, and ``compact_ivf_index`` refuses them."""
    import os

    import pyarrow.parquet as papq

    path = os.path.join(index_dir, IVF_MANIFEST)
    if not os.path.exists(path):
        return None
    t = papq.read_table(path)
    return {
        int(c): list(fs)
        for c, fs in zip(t["ivf_cell"].to_pylist(), t["files"].to_pylist())
    }


def _ivf_cell_paths(index_dir: str, cells) -> list[str]:
    """Planned file paths for the probed cells: manifest when present
    (one small file read plans the scan), directory listing for legacy
    stores."""
    import os

    manifest = load_ivf_manifest(index_dir)
    paths: list[str] = []
    for c in cells:
        c = int(c)
        if manifest is not None:
            paths.extend(
                os.path.join(index_dir, f"ivf_cell={c}", f)
                for f in manifest.get(c, [])
            )
        else:
            cell_dir = os.path.join(index_dir, f"ivf_cell={c}")
            if os.path.isdir(cell_dir):
                paths.extend(
                    os.path.join(cell_dir, f)
                    for f in sorted(os.listdir(cell_dir))
                    if f.endswith(".parquet")
                )
    return paths


def _load_ivf_tombstones(index_dir: str) -> dict[str, float]:
    import json
    import os

    path = os.path.join(index_dir, IVF_TOMBSTONES)
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def _save_ivf_tombstones(index_dir: str, stones: dict[str, float]) -> None:
    import json
    import os

    path = os.path.join(index_dir, IVF_TOMBSTONES)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(stones, f)
    os.replace(tmp, path)


def append_to_ivf_index(ds, index_dir: str, tag: str = "") -> str:
    """Append a delta batch into an EXISTING IVF index: vectors assign
    to cells with the index's OWN stored centroids (so the grown index
    is content-identical to a one-shot build over the union), stage as
    a partitioned write, and move into their ``ivf_cell=N`` dirs under
    unique names — readers see either the old or old+new file set, both
    valid.  The manifest is swapped AFTER all moves land (a reader
    planning mid-append sees the complete pre-append set).  NOT
    idempotent by itself; callers gate re-runs with a completion marker
    (and rebuild from scratch when the marker is missing)."""
    import os
    import shutil

    import ray

    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    cents_ref = ray.put(np.asarray(cents, dtype=np.float64))
    stage = f"{index_dir}.delta.{os.getpid()}"
    shutil.rmtree(stage, ignore_errors=True)
    ds.map_batches(
        IVFAssign,
        fn_constructor_kwargs={"centroids_ref": cents_ref},
        batch_format="pyarrow",
        concurrency=(1, 4),
    ).write_parquet(stage, partition_cols=["ivf_cell"])
    manifest = load_ivf_manifest(index_dir)
    for entry in sorted(os.listdir(stage)):
        if not entry.startswith("ivf_cell="):
            continue
        cell = int(entry.split("=", 1)[1])
        cell_dir = os.path.join(index_dir, entry)
        os.makedirs(cell_dir, exist_ok=True)
        for i, f in enumerate(sorted(os.listdir(os.path.join(stage, entry)))):
            if f.endswith(".parquet"):
                name = f"delta-{tag or os.getpid()}-{i}-{f}"
                os.replace(
                    os.path.join(stage, entry, f),
                    os.path.join(cell_dir, name),
                )
                if manifest is not None:
                    manifest.setdefault(cell, []).append(name)
    shutil.rmtree(stage, ignore_errors=True)
    if manifest is not None:
        # delta names appended EXPLICITLY (not re-listed) so files a
        # prior compaction tombstoned can never rejoin the manifest
        write_ivf_manifest(index_dir, manifest)
    return index_dir


def compact_ivf_index(index_dir: str, gc_grace_sec: float | None = None) -> int:
    """Merge each multi-file cell of an IVF/IVF-PQ store to one sorted
    file — the LSM maintenance pass after delta appends.  Returns the
    number of cells compacted.

    Unlike the band index (``dedup.compact_band_index``), duplicate
    rows here are NOT harmless: a vector present twice would occupy two
    top-k slots.  So this uses the manifest-swap design of
    ``geoindex.compact_store:300-336``: merged files land under fresh
    names while sources stay in place, the MANIFEST swaps atomically to
    reference only the merged files, and sources become tombstones
    GC'd after ``gc_grace_sec`` (None = leave for a later
    ``gc_ivf_index`` call).  A reader planning from the manifest sees
    sources-only (pre-swap) or merged-only (post-swap) — never both —
    so top-k output is invariant in every compaction window
    (pytest-enforced: tests/test_ops.py mid-compaction equality).
    Refuses legacy stores without a manifest (their readers plan from
    directory listings, which WOULD observe duplicates mid-swap)."""
    import os
    import time
    import uuid

    import pyarrow.parquet as papq

    manifest = load_ivf_manifest(index_dir)
    if manifest is None:
        raise ValueError(
            f"compact_ivf_index: {index_dir} has no {IVF_MANIFEST}; "
            "legacy listing-planned stores cannot be compacted safely — "
            "rebuild the store (build_ivf_index writes a manifest)"
        )
    todo = {c: fs for c, fs in manifest.items() if len(fs) > 1}
    if not todo:
        return 0
    new_manifest = dict(manifest)
    replaced: list[str] = []
    for cell, files in sorted(todo.items()):
        cell_dir = os.path.join(index_dir, f"ivf_cell={cell}")
        merged = pa.concat_tables(
            [papq.read_table(os.path.join(cell_dir, f)) for f in files]
        ).sort_by([("vec_id", "ascending")])
        out_name = f"compact-{uuid.uuid4().hex[:12]}.parquet"
        papq.write_table(merged, os.path.join(cell_dir, out_name))
        new_manifest[cell] = [out_name]
        replaced.extend(f"ivf_cell={cell}/{f}" for f in files)
    # manifest swap FIRST, tombstones after: a crash in between leaves
    # never-GC'd orphans (a space leak), never a dangling reference
    write_ivf_manifest(index_dir, new_manifest)
    now = time.time()
    stones = _load_ivf_tombstones(index_dir)
    stones.update(dict.fromkeys(replaced, now))
    _save_ivf_tombstones(index_dir, stones)
    if gc_grace_sec is not None:
        gc_ivf_index(index_dir, grace_sec=gc_grace_sec)
    return len(todo)


def gc_ivf_index(index_dir: str, grace_sec: float = 0.0) -> int:
    """Unlink tombstoned (compacted-away) files older than
    ``grace_sec``.  Safe any time after every reader that might hold a
    pre-swap plan has finished or re-planned; the manifest stopped
    referencing them at compaction time.  Returns files removed."""
    import os
    import time

    stones = _load_ivf_tombstones(index_dir)
    if not stones:
        return 0
    cutoff = time.time() - grace_sec
    keep: dict[str, float] = {}
    removed = 0
    for rel, ts in stones.items():
        if ts <= cutoff:
            try:
                os.remove(os.path.join(index_dir, rel))
            except FileNotFoundError:  # pragma: no cover
                pass
            removed += 1
        else:
            keep[rel] = ts
    _save_ivf_tombstones(index_dir, keep)
    return removed


def ivf_topk_from_index(index_dir: str, queries_ref, nprobe: int = 4, k: int = 10):
    """Query a materialized IVF index: pick probed cells from the stored
    centroids, then ``read_parquet`` ONLY those partition directories —
    unprobed cells never leave storage."""
    import os

    import ray
    import ray.data as rd

    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    queries = ray.get(queries_ref)
    qmat = _normalize(np.asarray(queries["mat"], dtype=np.float64))
    probed = np.unique(np.argsort(-(qmat @ cents.T), axis=1)[:, :nprobe].ravel())
    paths = _ivf_cell_paths(index_dir, probed)
    ds = rd.read_parquet(paths, columns=["vec_id", "embedding"])
    return cosine_topk(ds, queries_ref, k=k)


def _exact_pairs_block(
    emb: np.ndarray, idx: np.ndarray, threshold: float, row_chunk: int
) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs cosine over the rows ``idx`` of normalized ``emb``, in
    row blocks so a hot group costs O(chunk × n) memory, never n×n.
    Returns LOCAL index pairs (ii, jj) with ii < jj (positions within
    ``idx``)."""
    sub = emb[idx]
    n = len(idx)
    a_out, b_out = [], []
    col_idx = np.arange(n)
    for lo in range(0, n, row_chunk):
        hi = min(lo + row_chunk, n)
        sims = sub[lo:hi] @ sub.T  # (block, n)
        upper = col_idx[None, :] > np.arange(lo, hi)[:, None]
        ii, jj = np.nonzero((sims > threshold) & upper)
        a_out.append(ii + lo)
        b_out.append(jj)
    a = np.concatenate(a_out) if a_out else np.empty(0, dtype=np.int64)
    b = np.concatenate(b_out) if b_out else np.empty(0, dtype=np.int64)
    return a, b


def _hyperplane_buckets(emb: np.ndarray, bits: int, seed: int) -> np.ndarray:
    """Sign pattern of ``bits`` fixed random hyperplanes → one uint64
    bucket key per row (deterministic: seeded generator, dims known)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    planes = rng.standard_normal((emb.shape[1], bits))
    signs = (emb @ planes) >= 0.0
    keys = np.zeros(len(emb), dtype=np.uint64)
    for b in range(bits):
        keys |= signs[:, b].astype(np.uint64) << np.uint64(b)
    return keys


def embedding_neardup_pairs(
    ds,
    threshold: float = 0.3,
    row_chunk: int = 1024,
    exact_cap: int = 8192,
    lsh_bands: int = 8,
):
    """Cosine-similar pairs within the same label group.

    Two regimes per group (the hot-label guard — a label holding a
    large share of all rows must not cost O(n²) compute):

    - ``n ≤ exact_cap``: EXACT all-pairs, computed in row blocks of
      ``row_chunk`` so memory stays O(chunk × n), never n×n.
    - ``n > exact_cap``: random-hyperplane LSH bucketing — ``lsh_bands``
      independent sign-pattern bucketings (bits sized so the expected
      bucket is ~``exact_cap/8`` rows), exact all-pairs only WITHIN a
      bucket, candidates deduped across bands and verified with the
      exact cosine.  Compute drops to O(n · bucket) per band.  This
      path is approximate: a pair is found iff some band assigns both
      rows the same sign pattern — for cos > 0.3 the single-band hit
      rate is (1 − θ/π)^bits, so 8 bands at ~11 bits recover the large
      majority of true pairs while bounding the hot group (the standard
      SimHash-banding recall trade; the exact regime below the cap is
      what the sf fixtures exercise, so gate output is unchanged)."""

    def pairs(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("vec_id")
        ids = g["vec_id"].to_numpy()
        label = g["label"].iloc[0]
        emb = _normalize(np.asarray(list(g["embedding"]), dtype=np.float64))
        n = len(ids)
        if n <= exact_cap:
            ii, jj = _exact_pairs_block(
                emb, np.arange(n), threshold, row_chunk
            )
        else:
            target_bucket = max(64, exact_cap // 8)
            bits = max(1, int(np.ceil(np.log2(max(2, n / target_bucket)))))
            cand_a, cand_b = [], []
            for band in range(lsh_bands):
                keys = _hyperplane_buckets(emb, bits, seed=7919 + band)
                order = np.argsort(keys, kind="stable")
                bounds = np.flatnonzero(np.diff(keys[order])) + 1
                for grp in np.split(order, bounds):
                    if len(grp) < 2:
                        continue
                    la, lb = _exact_pairs_block(
                        emb, grp, threshold, row_chunk
                    )
                    cand_a.append(grp[la])
                    cand_b.append(grp[lb])
            if cand_a:
                ii = np.concatenate(cand_a)
                jj = np.concatenate(cand_b)
                lo = np.minimum(ii, jj)
                hi = np.maximum(ii, jj)
                # dedupe pairs found by multiple bands
                _, first = np.unique(lo * np.int64(n) + hi, return_index=True)
                ii, jj = lo[first], hi[first]
            else:
                ii = jj = np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "label": pa.array(
                    np.full(len(ii), label, dtype=g["label"].dtype)
                ),
                "a": pa.array(ids[ii], pa.int64()),
                "b": pa.array(ids[jj], pa.int64()),
            }
        )

    return ds.groupby("label").map_groups(pairs, batch_format="pandas")


# -- SemDeDup: semantic dedup inside k-means clusters -------------------------
#
# Abbas et al., "SemDeDup: Data-efficient learning at web-scale through
# semantic deduplication" (2023): cluster the embedding space with
# k-means, find cosine-near-duplicate GROUPS only WITHIN each cluster
# (the k-means pass is what kills the corpus-wide all-pairs problem),
# and from every duplicate group keep exactly one representative — the
# member LEAST similar to its cluster centroid (the paper's keeper
# rule: prototypical members are the redundant ones).  At 10¹²-vector
# scale k grows with n so clusters stay bounded (the paper runs 50k
# clusters); the per-cluster work is then exact and embarrassingly
# parallel across clusters — one groupby shuffle total.


def semdedup_flags(ds, cents: np.ndarray, tau: float = 0.3,
                   row_chunk: int = 1024):
    """Per-row SemDeDup verdicts ``(vec_id, centroid, cos, grp, keep)``.

    ``cents`` are pre-fit k-means centroids (``stages/kmeans.kmeans_fit``
    — broadcast once via ``ray.put``).  Stage 1 assigns every row its
    centroid + cosine in one scan (shape-stable ``dots`` kernel, so the
    keeper comparisons below are bit-equal to the sequential oracle);
    stage 2 groups by centroid and, inside each cluster, runs the same
    blocked exact all-pairs kernel as ``embedding_neardup_pairs``
    (O(chunk × n) memory) at threshold ``tau``, resolves duplicate
    groups with an in-group union-find (clusters are bounded — k scales
    with n, see module note), and keeps per group the member with the
    LOWEST centroid cosine (ties → lowest vec_id).  ``grp`` is the
    group's min vec_id (singletons: the row itself, keep=1)."""
    import ray

    from .kmeans import dots, prep_rows  # function-level: kmeans imports ann

    ref = ray.put(np.ascontiguousarray(cents))

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        ids, mat = embedding_matrix(batch)
        ids, mat = prep_rows(ids, mat)
        sims = dots(mat, c)
        best = np.argmax(sims, axis=1)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "centroid": pa.array(best.astype(np.int64)),
                "cos": pa.array(sims[np.arange(len(best)), best]),
                "embedding": pa.array(list(mat)),
            }
        )

    def per_cluster(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("vec_id")
        ids = g["vec_id"].to_numpy(np.int64)
        cos = g["cos"].to_numpy(np.float64)
        emb = np.asarray(list(g["embedding"]), dtype=np.float64)
        n = len(ids)
        ii, jj = _exact_pairs_block(emb, np.arange(n), tau, row_chunk)
        parent = np.arange(n, dtype=np.int64)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(ii.tolist(), jj.tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        root = np.fromiter((find(i) for i in range(n)), np.int64, count=n)
        # keeper per group: lowest (cos-to-centroid, vec_id) — vec_id
        # order is ascending already, so a stable argsort by cos gives
        # the paper's keeper as each group's first-seen member
        order = np.argsort(cos, kind="stable")
        keep = np.zeros(n, dtype=np.int64)
        seen: set = set()
        for i in order.tolist():
            r = int(root[i])
            if r not in seen:
                seen.add(r)
                keep[i] = 1
        from ..functions.rounding import round_away

        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "centroid": pa.array(
                    np.full(n, np.int64(g["centroid"].iloc[0]), np.int64)
                ),
                "cos": pa.array(round_away(cos, 6), pa.float64()),
                "grp": pa.array(ids[root], pa.int64()),
                "keep": pa.array(keep, pa.int64()),
            }
        )

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("centroid")
        .map_groups(per_cluster, batch_format="pandas")
    )


# -- product quantization (PQ) — the memory-compression scale path -----------
#
# At 10⁹+ vectors the raw float matrix does not fit a cluster's RAM;
# PQ stores each vector as m code bytes (here m sub-spaces × ks-entry
# codebooks, 64→8 bytes at m=8) and scores queries against codes via
# asymmetric distance computation (ADC): one small table of
# query·centroid dots per sub-space, then a gather-sum.  Jégou et al.,
# "Product Quantization for Nearest Neighbor Search", TPAMI 2011.
# The codebook trainer and the encode/ADC kernels are shared with the
# sequential oracle (same precedent as kmeans_centroids for IVF — the
# gate checks the DISTRIBUTED plumbing, not the quantizer math).


def pq_train(
    sample: np.ndarray, m: int = 8, ks: int = 16, iters: int = 10, seed: int = 11
) -> np.ndarray:
    """(m, ks, d//m) codebooks: deterministic Lloyd per sub-space on the
    L2-normalized sample (squared-L2 objective; dot-product ADC at
    query time since vectors are normalized)."""
    sample = _normalize(np.asarray(sample, dtype=np.float64))
    n, d = sample.shape
    sub = d // m
    rng = np.random.Generator(np.random.PCG64(seed))
    books = np.empty((m, ks, sub), dtype=np.float64)
    for mi in range(m):
        x = sample[:, mi * sub : (mi + 1) * sub]
        cents = x[rng.choice(n, size=ks, replace=False)].copy()
        for _ in range(iters):
            d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for j in range(ks):
                members = x[assign == j]
                if len(members):
                    cents[j] = members.mean(axis=0)
        books[mi] = cents
    return books


def pq_encode(embn: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, m) int64 codes for L2-NORMALIZED vectors — argmin squared-L2
    per sub-space, first-wins ties (identical formula in engine and
    oracle so codes agree bit-for-bit)."""
    m, ks, sub = books.shape
    codes = np.empty((len(embn), m), dtype=np.int64)
    for mi in range(m):
        x = embn[:, mi * sub : (mi + 1) * sub]
        d2 = ((x[:, None, :] - books[mi][None, :, :]) ** 2).sum(axis=2)
        codes[:, mi] = np.argmin(d2, axis=1)
    return codes


def pq_adc_tables(qmat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(nq, m, ks) tables of query-subvector · codebook-centroid dots."""
    m, ks, sub = books.shape
    t = np.empty((len(qmat), m, ks), dtype=np.float64)
    for mi in range(m):
        t[:, mi, :] = qmat[:, mi * sub : (mi + 1) * sub] @ books[mi].T
    return t


def pq_adc_scores(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """(nq, n) approximate cosine via gather-sum over sub-spaces in
    ascending m order (same summation order in engine and oracle)."""
    nq, m, _ = tables.shape
    scores = np.zeros((nq, len(codes)), dtype=np.float64)
    for mi in range(m):
        scores += tables[:, mi, codes[:, mi]]
    return scores


class PQTopK:
    """Actor: encodes each batch to PQ codes and scores via ADC —
    per-batch partial top-k so the shuffle stays k rows per query."""

    def __init__(self, state_ref=None, k: int = 10):
        import ray

        books, qids, qmat = ray.get(state_ref)
        self.books = books
        self.qids = np.asarray(qids, dtype=np.int64)
        self.tables = pq_adc_tables(qmat, books)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = embedding_matrix(batch)
        embn = _normalize(emb)
        codes = pq_encode(embn, self.books)
        scores = pq_adc_scores(self.tables, codes)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(self.qids)):
            s = scores[qi]
            mask = ids != self.qids[qi]
            cand_ids, cand_s = ids[mask], s[mask]
            sel = np.lexsort((cand_ids, -cand_s))[: self.k]
            out_q.append(np.full(len(sel), self.qids[qi], dtype=np.int64))
            out_v.append(cand_ids[sel])
            out_s.append(cand_s[sel])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "vec_id": pa.array(np.concatenate(out_v)),
                "pq_score": pa.array(np.concatenate(out_s)),
            }
        )


def pq_topk(ds, queries_ref, m: int = 8, ks: int = 16, k: int = 10):
    """Approximate per-query top-k over PQ codes: train codebooks on the
    broadcast hashed sample, encode + ADC-score per batch (vectors never
    leave their batch; only k rows per query per batch shuffle), tiny
    final top-k."""
    import ray

    queries = ray.get(queries_ref)
    books = pq_train(np.asarray(queries["sample"], dtype=np.float64), m=m, ks=ks)
    qmat = _normalize(np.asarray(queries["mat"], dtype=np.float64))
    state_ref = ray.put((books, np.asarray(queries["qid"], dtype=np.int64), qmat))

    partial = ds.map_batches(
        PQTopK,
        fn_constructor_kwargs={"state_ref": state_ref, "k": k},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["pq_score", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partial.groupby("query_id").map_groups(final_topk, batch_format="pandas")


# -- IVF-PQ: coarse-cell-partitioned PQ-code store -----------------------------


class IVFPQEncode:
    """map_batches: coarse cell + PQ codes per vector — the write-side
    kernel of the IVF-PQ store (raw floats never reach the index)."""

    def __init__(self, state_ref=None):
        import ray

        cents, books = ray.get(state_ref)
        self.cents = np.asarray(cents, dtype=np.float64)
        self.books = books

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = embedding_matrix(batch)
        embn = _normalize(emb)
        cell = np.argmax(embn @ self.cents.T, axis=1).astype(np.int64)
        codes = pq_encode(embn, self.books)
        out = {
            "vec_id": pa.array(ids, pa.int64()),
            "ivf_cell": pa.array(cell),
        }
        for mi in range(codes.shape[1]):
            out[f"c{mi}"] = pa.array(codes[:, mi].astype(np.int8), pa.int8())
        return pa.table(out)


def build_ivfpq_index(ds, out_dir: str, centroids: np.ndarray,
                      books: np.ndarray) -> str:
    """Materialize the IVF-PQ index: (vec_id, 8 code bytes) parquet
    partitioned by coarse cell, centroids + codebooks stored beside.
    The 10⁹-vector memory point: 64 float32 → m int8 per vector (32×),
    probed-partitions-only reads, ADC scoring over codes — raw vectors
    are never stored in (or read from) the index at all."""
    import os

    import ray

    marker = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(marker):
        return out_dir
    tmp = f"{out_dir}.tmp.{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    state_ref = ray.put(
        (np.asarray(centroids, dtype=np.float64), np.asarray(books))
    )
    encoded = ds.map_batches(
        IVFPQEncode,
        fn_constructor_kwargs={"state_ref": state_ref},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    encoded.write_parquet(tmp, partition_cols=["ivf_cell"])
    np.save(os.path.join(tmp, "centroids.npy"), np.asarray(centroids))
    np.save(os.path.join(tmp, "books.npy"), np.asarray(books))
    write_ivf_manifest(tmp, _list_ivf_cells(tmp))
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("ok")
    try:
        os.rename(tmp, out_dir)
    except OSError:
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
    return out_dir


class _ADCTopK:
    """Actor: ADC partial top-k over stored PQ codes (no decode)."""

    def __init__(self, state_ref=None, m: int = 8, k: int = 10):
        import ray

        books, qids, qmat = ray.get(state_ref)
        self.m = m
        self.qids = np.asarray(qids, dtype=np.int64)
        self.tables = pq_adc_tables(qmat, books)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy()
        codes = np.stack(
            [
                batch[f"c{mi}"].to_numpy().astype(np.int64)
                for mi in range(self.m)
            ],
            axis=1,
        )
        scores = pq_adc_scores(self.tables, codes)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(self.qids)):
            s = scores[qi]
            mask = ids != self.qids[qi]
            cand_ids, cand_s = ids[mask], s[mask]
            sel = np.lexsort((cand_ids, -cand_s))[: self.k]
            out_q.append(np.full(len(sel), self.qids[qi], dtype=np.int64))
            out_v.append(cand_ids[sel])
            out_s.append(cand_s[sel])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "vec_id": pa.array(np.concatenate(out_v)),
                "pq_score": pa.array(np.concatenate(out_s)),
            }
        )


def ivfpq_topk_from_index(index_dir: str, queries_ref, nprobe: int = 4,
                          k: int = 10):
    """Query the IVF-PQ store: probe cells from the stored centroids,
    read ONLY those partitions' code columns, ADC-score in-batch,
    k-rows-per-query-per-batch shuffle, tiny exact final top-k."""
    import os

    import ray
    import ray.data as rd

    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    books = np.load(os.path.join(index_dir, "books.npy"))
    m = books.shape[0]
    queries = ray.get(queries_ref)
    qmat = _normalize(np.asarray(queries["mat"], dtype=np.float64))
    probed = np.unique(np.argsort(-(qmat @ cents.T), axis=1)[:, :nprobe].ravel())
    paths = _ivf_cell_paths(index_dir, probed)
    cols = ["vec_id"] + [f"c{mi}" for mi in range(m)]
    ds = rd.read_parquet(paths, columns=cols)
    state_ref = ray.put(
        (books, np.asarray(queries["qid"], dtype=np.int64), qmat)
    )
    partial = ds.map_batches(
        _ADCTopK,
        fn_constructor_kwargs={"state_ref": state_ref, "m": m, "k": k},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["pq_score", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partial.groupby("query_id").map_groups(final_topk, batch_format="pandas")
