"""Deterministic corpus sampling & token-shard packing.

Two training-data-export primitives over the documents table:

- ``stratified_sample``: per-stratum deterministic fraction sample
  keyed by a Knuth multiplicative hash, selected WITHOUT a data
  shuffle — a bounded (stratum, key-bin) histogram pins the selection
  threshold, one tiny boundary-bin collection resolves it exactly,
  and a final filter pass emits the sample.  Three narrow column
  scans, zero all-to-all: the shape that survives a 10^12-row corpus
  where a per-stratum sort/top-k shuffle would move 20 % of the data.
- ``shard_packing``: assign documents (in global doc_id order) to
  fixed-token-budget shards by exclusive prefix token offset — the
  "concatenate and split every N tokens" layout of pretraining
  shards.  Distributed prefix sum: per-id-range partials → bounded
  driver cumsum → per-range local cumsum + offset, one shuffle.

Both are exact/deterministic (integer arithmetic end-to-end) and
carry DuckDB SQL twins in pipelines/queries.py.  Beyond-reference
ops: the reference's closest analog is fixed-size county processing
chunks (reference src/pipeline/optimized_county_processor_v3.py),
which is a batching detail there, not a data-layout operator.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .textstages import NONWS_RUN_PY

_KNUTH = np.uint64(2654435761)
_M32 = np.uint64(0xFFFFFFFF)
_BIN_SHIFT = np.uint64(20)  # 4096 histogram bins over the 32-bit key space


def skey_u32(doc_id: np.ndarray) -> np.ndarray:
    """Deterministic 32-bit sample key: (doc_id * 2654435761) mod 2^32.

    uint64 multiply wraps mod 2^64, the mask takes it mod 2^32 — equal
    to the SQL twin's ``(doc_id * 2654435761) % 4294967296`` whenever
    the SQL product fits BIGINT (doc_id < ~4.3e9; holds for the test
    tables — at larger ids the SQL twin, not the engine, is the limit).
    """
    return (doc_id.astype(np.uint64) * _KNUTH) & _M32


def stratified_sample(ds, stratum: str = "source", id_col: str = "doc_id",
                      frac_pct: int = 20, quota_fn=None):
    """keep max(1, floor(n_s * frac_pct / 100)) rows per stratum — the
    rows with the SMALLEST (skey, id) — without shuffling the data.

    ``quota_fn`` (optional): ``dict[stratum, n_s] -> dict[stratum,
    keep_s]`` overrides the default proportional rule — the hook the
    temperature-mixing sampler uses to set quotas ∝ isqrt(n_s) against
    a GLOBAL budget instead of per-stratum fractions.  Quotas are
    clamped to [1, n_s]; everything downstream (histogram walk,
    boundary-bin resolve, final filter) is unchanged.

    Pass 1: bounded (stratum, skey>>20) histogram via per-batch
    partials + one small bucketed aggregate (≤ strata × 4096 rows).
    Driver: per stratum, walk the bin cumsum to the boundary bin b*
    and the residual rank r* inside it.
    Pass 2: collect ONLY boundary-bin rows (expected n_s/4096 per
    stratum) and take the exact r*-th (skey, id) as the inclusive
    threshold; ties broken by the unique id.
    Pass 3: filter — bin < b*, or bin == b* and (skey, id) ≤ threshold.

    At extreme per-stratum skew the boundary bin itself can be large;
    the recursive fix is implemented in ``grouped_top_frac_by_score``
    below (8-bit rounds over the virtual 128-bit key, guaranteed to
    terminate via the unique id half) — this single-level variant keeps
    the simpler 3-pass shape, adequate while 4096 bins hold the
    boundary ≤ ~n_s/4096 rows.
    """
    from .zonal import bucketed_agg

    def hist_partial(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy()
        sk = skey_u32(ids)
        bins = (sk >> _BIN_SHIFT).astype(np.int64)
        df = pd.DataFrame({"s": b[stratum].to_pylist(), "bin": bins})
        g = df.groupby(["s", "bin"], as_index=False).size()
        return pa.table(
            {
                "s": pa.array(g["s"].astype(str), pa.string()),
                "bin": pa.array(g["bin"].to_numpy(np.int64)),
                "cnt": pa.array(g["size"].to_numpy(np.int64)),
            }
        )

    hist = bucketed_agg(
        ds.map_batches(hist_partial, batch_format="pyarrow"),
        ["s", "bin"],
        {"cnt": ("cnt", "sum")},
        nb=64,
    ).to_pandas()

    # driver: boundary bin + residual rank per stratum (bounded state)
    counts = {s: int(g["cnt"].sum()) for s, g in hist.groupby("s")}
    quotas = quota_fn(counts) if quota_fn is not None else {
        s: n_s * frac_pct // 100 for s, n_s in counts.items()
    }
    bounds: dict[str, tuple[int, int]] = {}
    for s, g in hist.groupby("s"):
        g = g.sort_values("bin")
        n_s = counts[s]
        keep = min(n_s, max(1, int(quotas[s])))
        cum = g["cnt"].cumsum().to_numpy()
        i = int(np.searchsorted(cum, keep, side="left"))
        b_star = int(g["bin"].iloc[i])
        before = int(cum[i - 1]) if i else 0
        bounds[s] = (b_star, keep - before)  # rank r* >= 1 inside b*

    def boundary_rows(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy()
        sk = skey_u32(ids)
        bins = (sk >> _BIN_SHIFT).astype(np.int64)
        ss = np.asarray(b[stratum].to_pylist(), dtype=object)
        m = np.zeros(len(ids), dtype=bool)
        for s, (b_star, _) in bounds.items():
            m |= (ss == s) & (bins == b_star)
        return pa.table(
            {
                "s": pa.array(ss[m].astype(str), pa.string()),
                "skey": pa.array(sk[m].astype(np.int64)),
                "id": pa.array(ids[m]),
            }
        )

    edge = ds.map_batches(boundary_rows, batch_format="pyarrow").to_pandas()
    thresh: dict[str, tuple[int, int]] = {}
    for s, (b_star, r) in bounds.items():
        g = edge[edge["s"] == s].sort_values(["skey", "id"])
        row = g.iloc[r - 1]
        thresh[s] = (int(row["skey"]), int(row["id"]))

    def final_filter(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy()
        sk = skey_u32(ids).astype(np.int64)
        bins = sk >> int(_BIN_SHIFT)
        ss = np.asarray(b[stratum].to_pylist(), dtype=object)
        m = np.zeros(len(ids), dtype=bool)
        for s, (b_star, _) in bounds.items():
            tk, ti = thresh[s]
            in_s = ss == s
            m |= in_s & (
                (bins < b_star)
                | ((sk < tk) | ((sk == tk) & (ids <= ti))) & (bins == b_star)
            )
        return pa.table(
            {
                stratum: pa.array(ss[m].astype(str), pa.string()),
                id_col: pa.array(ids[m].astype(np.int64)),
                "skey": pa.array(sk[m]),
            }
        )

    return ds.map_batches(final_filter, batch_format="pyarrow")


def temperature_quotas(counts: dict[str, int], frac_pct: int = 20) -> dict[str, int]:
    """Temperature-sampled source-mixing quotas: keep_s = B · w_s // W
    with w_s = isqrt(n_s) (α = 0.5 in the count^α mixing family — the
    UnifiedSQA/T5-style upweighting of small sources; Raffel et al.
    2020 §3.4.3 examined-proportional-to-size^α mixing) against the
    GLOBAL budget B = floor(N · frac_pct / 100).

    Exact integer arithmetic end-to-end: ``math.isqrt`` on Python ints
    here, ``CAST(FLOOR(SQRT(n)) AS BIGINT)`` in the DuckDB twin —
    equal for any realistic count (float64 sqrt of n < 2^50 only
    crosses an integer boundary at exact squares, where both are
    exact).  Caller (`stratified_sample`) clamps each quota to
    [1, n_s]; the SQL twin mirrors with LEAST/GREATEST."""
    import math

    total = sum(counts.values())
    budget = total * frac_pct // 100
    w = {s: math.isqrt(n) for s, n in counts.items()}
    wsum = max(1, sum(w.values()))
    return {s: budget * w[s] // wsum for s in counts}


def shard_packing(ds, budget: int, id_col: str = "doc_id",
                  text_col: str = "text", n_rows: int | None = None,
                  max_id: int | None = None):
    """Pack documents into fixed-token-budget shards by global doc_id
    order; returns per-shard stats (shard_id, n_docs, tokens, min_doc,
    max_doc).

    shard_id = (exclusive prefix sum of whitespace-token counts in
    doc_id order) // budget — i.e. documents are laid end to end and
    the stream is cut every ``budget`` tokens; a document belongs to
    the shard holding its first token.  Exact distributed prefix sum:

    1. tokenize once into a narrow (id, ntok) table — materialized
       because BOTH passes below consume it (16 B/row, spill-friendly;
       re-running the lineage would re-tokenize the full text twice);
    2. per id-range bucket (bucket = id // width, order-preserving)
       token sums → driver exclusive cumsum over ≤ ~4k buckets;
    3. one groupby(bucket) pass: in-range sort by id, local cumsum +
       range offset → shard ids → per-(bucket, shard) partials;
    4. shards spanning range boundaries merge in a final bucketed
       aggregate over shard_id (cardinality = total_tokens/budget, so
       high-cardinality-safe machinery).
    """
    from .zonal import bucketed_agg

    def tok(b: pa.Table) -> pa.Table:
        s = pd.Series(b[text_col].to_pylist())
        return pa.table(
            {
                "id": b[id_col],
                "ntok": pa.array(
                    s.str.count(NONWS_RUN_PY).to_numpy(np.int64)
                ),
            }
        )

    counts = ds.map_batches(tok, batch_format="pyarrow").materialize()
    if n_rows is None:
        n_rows = counts.count()
    if max_id is None:
        max_id = int(counts.max("id"))
    nb = int(np.clip(n_rows // 1000, 8, 4096))
    width = max(1, (max_id + nb) // nb)

    def range_sums(b: pa.Table) -> pa.Table:
        bk = b["id"].to_numpy() // width
        uniq, inv = np.unique(bk, return_inverse=True)
        return pa.table(
            {
                "bucket": pa.array(uniq.astype(np.int64)),
                "toks": pa.array(
                    np.bincount(
                        inv, weights=b["ntok"].to_numpy(), minlength=len(uniq)
                    ).astype(np.int64)
                ),
            }
        )

    per_range = bucketed_agg(
        counts.map_batches(range_sums, batch_format="pyarrow"),
        ["bucket"],
        {"toks": ("toks", "sum")},
        nb=64,
    ).to_pandas().sort_values("bucket")
    offs = dict(
        zip(
            per_range["bucket"].to_numpy(np.int64),
            np.concatenate([[0], per_range["toks"].cumsum().to_numpy()[:-1]]),
        )
    )

    def add_bucket(b: pa.Table) -> pa.Table:
        return b.append_column(
            "bucket", pa.array((b["id"].to_numpy() // width).astype(np.int64))
        )

    def pack(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("id")
        nt = g["ntok"].to_numpy(np.int64)
        start = int(offs[int(g["bucket"].iloc[0])]) + np.cumsum(nt) - nt
        shard = start // budget
        ids = g["id"].to_numpy(np.int64)
        uniq, inv = np.unique(shard, return_inverse=True)
        return pa.table(
            {
                "shard_id": pa.array(uniq),
                "n_docs": pa.array(
                    np.bincount(inv, minlength=len(uniq)).astype(np.int64)
                ),
                "tokens": pa.array(
                    np.bincount(inv, weights=nt, minlength=len(uniq)).astype(
                        np.int64
                    )
                ),
                "min_doc": pa.array(
                    np.minimum.reduceat(ids, np.flatnonzero(np.r_[1, np.diff(inv)]))
                ),
                "max_doc": pa.array(
                    np.maximum.reduceat(ids, np.flatnonzero(np.r_[1, np.diff(inv)]))
                ),
            }
        )

    partials = (
        counts.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pack, batch_format="pandas")
    )
    return bucketed_agg(
        partials,
        ["shard_id"],
        {
            "n_docs": ("n_docs", "sum"),
            "tokens": ("tokens", "sum"),
            "min_doc": ("min_doc", "min"),
            "max_doc": ("max_doc", "max"),
        },
        nb=256,
    )


# -- exact global top-f% selection without a shuffle --------------------------


def orderable_u64(x: np.ndarray) -> np.ndarray:
    """IEEE-754 order-preserving uint64 key: k(a) < k(b) ⇔ a < b for
    all finite float64 (the standard sign-flip trick)."""
    b = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    flip = np.where(
        (b >> np.uint64(63)) == 1, ~np.uint64(0), np.uint64(1) << np.uint64(63)
    )
    return b ^ flip


def top_frac_by_score(ds, frac_pct: int = 20, id_col: str = "doc_id",
                      score_col: str = "score", descending: bool = True,
                      collect_cap: int = 65536):
    """Keep exactly max(1, ⌊n·f⌋) rows with the best (score, id) — the
    global quality-filter / hard-example-selection primitive — WITHOUT
    sorting or shuffling the data.

    ``ds`` must carry ``id_col`` (int64, unique) and ``score_col``
    (float64).  Selection order is (score DESC|ASC, id ASC), exactly.

    Shape: scores map to order-preserving uint64 keys and recursive
    8-bit-prefix histograms over the virtual 128-bit key (score-key ‖
    id) locate the threshold bucket — bounded 256-count partials per
    round, ≤ 16 rounds worst case (typically 1–2), each one narrow
    scan of a materialized (id, key, score) sidecar.  Because the id
    half of the virtual key is unique, refinement ALWAYS reaches a
    prefix holding ≤ ``collect_cap`` rows — even when millions of rows
    tie on the exact same score — so the boundary collection is
    bounded by construction.  One tiny collection resolves the exact
    k-th (key, id) pair; one filter pass emits the winners.  A global
    sort/top-k shuffle would move f of the corpus; this moves bounded
    histograms plus one boundary bucket.
    """
    from .zonal import bucketed_agg

    def keyed_batch(b: pa.Table) -> pa.Table:
        sc = b[score_col].to_numpy().astype(np.float64)
        k = orderable_u64(sc)
        if descending:
            k = ~k
        return pa.table(
            {
                "id": b[id_col],
                "k": pa.array(k, pa.uint64()),
                "score": pa.array(sc),
            }
        )

    keyed = ds.map_batches(keyed_batch, batch_format="pyarrow").materialize()
    n = keyed.count()
    keep = max(1, n * frac_pct // 100)

    _RB = 8  # bits per refinement round; 128 = 16 rounds, no straddle

    def _prefix_parts(pfx_int: int, bits: int):
        kb = min(bits, 64)
        ib = bits - kb
        pk = np.uint64(pfx_int >> ib) if kb else None
        pi = np.uint64(pfx_int & ((1 << ib) - 1)) if ib else None
        return kb, ib, pk, pi

    def _match(k: np.ndarray, idu: np.ndarray, kb, ib, pk, pi) -> np.ndarray:
        m = np.ones(len(k), dtype=bool)
        if kb:
            m &= (k >> np.uint64(64 - kb)) == pk if kb < 64 else (k == pk)
        if ib:
            m &= (idu >> np.uint64(64 - ib)) == pi
        return m

    pfx_int = 0
    bits = 0
    keep_rem = keep
    while True:
        kb, ib, pk, pi = _prefix_parts(pfx_int, bits)
        lo = 128 - bits - _RB  # this round's bucket bit offset

        def hist_partial(b: pa.Table, kb=kb, ib=ib, pk=pk, pi=pi, lo=lo) -> pa.Table:
            k = b["k"].to_numpy()
            idu = b["id"].to_numpy().astype(np.uint64)
            m = _match(k, idu, kb, ib, pk, pi)
            src = (
                (k[m] >> np.uint64(lo - 64))
                if lo >= 64
                else (idu[m] >> np.uint64(lo))
            )
            bk = (src & np.uint64((1 << _RB) - 1)).astype(np.int64)
            cnt = np.bincount(bk, minlength=1 << _RB)
            nz = np.flatnonzero(cnt)
            return pa.table(
                {
                    "bucket": pa.array(nz.astype(np.int64)),
                    "cnt": pa.array(cnt[nz].astype(np.int64)),
                }
            )

        hist = bucketed_agg(
            keyed.map_batches(hist_partial, batch_format="pyarrow"),
            ["bucket"],
            {"cnt": ("cnt", "sum")},
            nb=16,
        ).to_pandas().sort_values("bucket")
        cum = hist["cnt"].cumsum().to_numpy()
        i = int(np.searchsorted(cum, keep_rem, side="left"))
        b_star = int(hist["bucket"].iloc[i])
        before = int(cum[i - 1]) if i else 0
        in_boundary = int(hist["cnt"].iloc[i])
        keep_rem -= before
        pfx_int = (pfx_int << _RB) | b_star
        bits += _RB
        if in_boundary <= collect_cap or bits >= 128:
            break

    kb, ib, pk, pi = _prefix_parts(pfx_int, bits)

    def boundary_rows(b: pa.Table, kb=kb, ib=ib, pk=pk, pi=pi) -> pa.Table:
        k = b["k"].to_numpy()
        idu = b["id"].to_numpy().astype(np.uint64)
        m = _match(k, idu, kb, ib, pk, pi)
        return pa.table(
            {
                "id": b["id"].filter(pa.array(m)),
                "k": pa.array(k[m], pa.uint64()),
            }
        )

    edge = (
        keyed.map_batches(boundary_rows, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["k", "id"])
    )
    # column-wise extraction: a row-wise .iloc[i] would coerce the
    # mixed uint64/int64 row to float64 and round the 64-bit key
    k_star = edge["k"].to_numpy()[keep_rem - 1]
    id_star = int(edge["id"].to_numpy()[keep_rem - 1])

    def final_filter(b: pa.Table) -> pa.Table:
        k = b["k"].to_numpy()
        ids = b["id"].to_numpy()
        m = (k < k_star) | ((k == k_star) & (ids <= id_star))
        return pa.table(
            {
                id_col: b["id"].filter(pa.array(m)),
                score_col: b["score"].filter(pa.array(m)),
            }
        )

    return keyed.map_batches(final_filter, batch_format="pyarrow")


def grouped_top_frac_by_score(ds, stratum: str = "source",
                              frac_pct: int = 20, id_col: str = "doc_id",
                              score_col: str = "score",
                              descending: bool = True,
                              collect_cap: int = 65536):
    """Per-stratum exact top-f%-by-(score, id) — ``top_frac_by_score``
    with one independent threshold per stratum, still ZERO data
    shuffle.  Every refinement round is ONE narrow scan that advances
    ALL unfinished strata at once (per-stratum 256-count histograms of
    the virtual 128-bit key); strata finish at different depths, one
    collection pass resolves every boundary, one filter emits all
    winners.  The per-source quality-quota primitive of corpus
    curation: keep the best f% of every source, exactly."""
    from .zonal import bucketed_agg

    def keyed_batch(b: pa.Table) -> pa.Table:
        sc = b[score_col].to_numpy().astype(np.float64)
        k = orderable_u64(sc)
        if descending:
            k = ~k
        return pa.table(
            {
                "s": pa.array(
                    np.asarray(b[stratum].to_pylist(), dtype=object).astype(str),
                    pa.string(),
                ),
                "id": b[id_col],
                "k": pa.array(k, pa.uint64()),
                "score": pa.array(sc),
            }
        )

    keyed = ds.map_batches(keyed_batch, batch_format="pyarrow").materialize()
    sizes = bucketed_agg(
        keyed.map_batches(
            lambda b: pa.table(
                {
                    "s": b["s"],
                    "one": pa.array(np.ones(len(b), np.int64)),
                }
            ),
            batch_format="pyarrow",
        ),
        ["s"],
        {"n": ("one", "sum")},
        nb=16,
    ).to_pandas()

    _RB = 8

    def _parts(pfx_int: int, bits: int):
        kb = min(bits, 64)
        ib = bits - kb
        pk = np.uint64(pfx_int >> ib) if kb else None
        pi = np.uint64(pfx_int & ((1 << ib) - 1)) if ib else None
        return kb, ib, pk, pi

    def _match(k, idu, kb, ib, pk, pi):
        m = np.ones(len(k), dtype=bool)
        if kb:
            m &= (k >> np.uint64(64 - kb)) == pk if kb < 64 else (k == pk)
        if ib:
            m &= (idu >> np.uint64(64 - ib)) == pi
        return m

    # per-stratum state: [pfx_int, bits, keep_rem]
    state = {
        str(r["s"]): [0, 0, max(1, int(r["n"]) * frac_pct // 100)]
        for _, r in sizes.iterrows()
    }
    active = set(state)
    while active:
        snap = {
            s: (*_parts(state[s][0], state[s][1]),
                128 - state[s][1] - _RB)
            for s in active
        }

        def hist_partial(b: pa.Table, snap=snap) -> pa.Table:
            ss = np.asarray(b["s"].to_pylist(), dtype=object)
            k = b["k"].to_numpy()
            idu = b["id"].to_numpy().astype(np.uint64)
            out_s, out_b, out_c = [], [], []
            for s, (kb, ib, pk, pi, lo) in snap.items():
                in_s = ss == s
                if not in_s.any():
                    continue
                ks, ids = k[in_s], idu[in_s]
                m = _match(ks, ids, kb, ib, pk, pi)
                src = (
                    (ks[m] >> np.uint64(lo - 64))
                    if lo >= 64
                    else (ids[m] >> np.uint64(lo))
                )
                bk = (src & np.uint64((1 << _RB) - 1)).astype(np.int64)
                cnt = np.bincount(bk, minlength=1 << _RB)
                nz = np.flatnonzero(cnt)
                out_s.append(np.full(len(nz), s, dtype=object))
                out_b.append(nz.astype(np.int64))
                out_c.append(cnt[nz].astype(np.int64))
            if not out_s:
                return pa.table(
                    {
                        "s": pa.array([], pa.string()),
                        "bucket": pa.array([], pa.int64()),
                        "cnt": pa.array([], pa.int64()),
                    }
                )
            return pa.table(
                {
                    "s": pa.array(
                        np.concatenate(out_s).astype(str), pa.string()
                    ),
                    "bucket": pa.array(np.concatenate(out_b)),
                    "cnt": pa.array(np.concatenate(out_c)),
                }
            )

        hist = bucketed_agg(
            keyed.map_batches(hist_partial, batch_format="pyarrow"),
            ["s", "bucket"],
            {"cnt": ("cnt", "sum")},
            nb=16,
        ).to_pandas()
        for s in list(active):
            g = hist[hist["s"] == s].sort_values("bucket")
            cum = g["cnt"].cumsum().to_numpy()
            i = int(np.searchsorted(cum, state[s][2], side="left"))
            b_star = int(g["bucket"].iloc[i])
            before = int(cum[i - 1]) if i else 0
            in_boundary = int(g["cnt"].iloc[i])
            state[s][2] -= before
            state[s][0] = (state[s][0] << _RB) | b_star
            state[s][1] += _RB
            if in_boundary <= collect_cap or state[s][1] >= 128:
                active.discard(s)

    final_parts = {s: _parts(st[0], st[1]) for s, st in state.items()}

    def boundary_rows(b: pa.Table) -> pa.Table:
        ss = np.asarray(b["s"].to_pylist(), dtype=object)
        k = b["k"].to_numpy()
        idu = b["id"].to_numpy().astype(np.uint64)
        m = np.zeros(len(k), dtype=bool)
        for s, (kb, ib, pk, pi) in final_parts.items():
            in_s = ss == s
            if in_s.any():
                sub = _match(k, idu, kb, ib, pk, pi)
                m |= in_s & sub
        return pa.table(
            {
                "s": pa.array(ss[m].astype(str), pa.string()),
                "id": b["id"].filter(pa.array(m)),
                "k": pa.array(k[m], pa.uint64()),
            }
        )

    edge = keyed.map_batches(boundary_rows, batch_format="pyarrow").to_pandas()
    thresh = {}
    for s, st in state.items():
        g = edge[edge["s"] == s].sort_values(["k", "id"])
        thresh[s] = (
            g["k"].to_numpy()[st[2] - 1],
            int(g["id"].to_numpy()[st[2] - 1]),
        )

    def final_filter(b: pa.Table) -> pa.Table:
        ss = np.asarray(b["s"].to_pylist(), dtype=object)
        k = b["k"].to_numpy()
        ids = b["id"].to_numpy()
        m = np.zeros(len(k), dtype=bool)
        for s, (ks, is_) in thresh.items():
            m |= (ss == s) & ((k < ks) | ((k == ks) & (ids <= is_)))
        return pa.table(
            {
                stratum: pa.array(ss[m].astype(str), pa.string()),
                id_col: b["id"].filter(pa.array(m)),
                score_col: b["score"].filter(pa.array(m)),
            }
        )

    return keyed.map_batches(final_filter, batch_format="pyarrow")
