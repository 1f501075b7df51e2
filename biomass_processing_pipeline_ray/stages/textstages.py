"""Text-analysis stages over the ``documents`` table.

Large-scale training-data operators (language-ID heuristic, quality
scoring, token counting, document fingerprinting) expressed as
vectorized ``map_batches`` bodies.  The deterministic parts are
mirrored in DuckDB SQL for the correctness gate; the rolling-hash
fingerprints have no SQL twin (rows-only check + pytest oracle).

All integer-derived divisions are exact float64 on both sides, so no
rounding is needed for hash parity.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

PUNCT_CLASS = "[.,!?;:]"

# ASCII whitespace, written EXPLICITLY on both sides: Python re / pandas
# treat \s (and bare str.split) as UNICODE whitespace while DuckDB
# RE2's \s is ASCII-only, so a document containing e.g. U+00A0 would
# silently break hash parity if either side used \s.  Token counts are
# run counts of non-whitespace ([^ws]+), which also sidesteps the
# TRIM-strips-only-spaces vs str.split edge on leading tabs.
WS_PY = r"[ \t\n\r\f\v]"
NONWS_RUN_PY = r"[^ \t\n\r\f\v]+"
WS_CHARS = " \\t\\n\\r\\f\\v"
WS_SQL = f"[{WS_CHARS}]"
NONWS_RUN_SQL = "[^ \\t\\n\\r\\f\\v]+"


def text_stats_batch(batch: pa.Table) -> pa.Table:
    """token count, punct count, non-space chars, avg token length."""
    s = pd.Series(batch["text"].to_pylist())
    n_tokens = s.str.count(NONWS_RUN_PY).astype(np.int64)
    punct = s.str.count(PUNCT_CLASS).astype(np.int64)
    nonspace = s.str.replace(WS_PY, "", regex=True).str.len().astype(np.int64)
    avg_tok_len = np.where(n_tokens > 0, nonspace / np.maximum(n_tokens, 1), 0.0)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tokens),
            "n_punct": pa.array(punct),
            "n_nonspace": pa.array(nonspace),
            "avg_tok_len": pa.array(avg_tok_len),
        }
    )


def sql_text_stats(table: str = "documents") -> str:
    return f"""
    SELECT doc_id,
           LEN(REGEXP_EXTRACT_ALL(text, '{NONWS_RUN_SQL}')) AS n_tokens,
           LENGTH(REGEXP_REPLACE(text, '[^.,!?;:]', '', 'g')) AS n_punct,
           LENGTH(REGEXP_REPLACE(text, '{WS_SQL}', '', 'g')) AS n_nonspace,
           CASE WHEN LEN(REGEXP_EXTRACT_ALL(text, '{NONWS_RUN_SQL}')) = 0 THEN 0.0
                ELSE CAST(LENGTH(REGEXP_REPLACE(text, '{WS_SQL}', '', 'g')) AS DOUBLE)
                     / LEN(REGEXP_EXTRACT_ALL(text, '{NONWS_RUN_SQL}'))
           END AS avg_tok_len
    FROM {table}
    """


# -- token counting: whitespace + BPE-ish regex -------------------------------

# disjoint alternatives (letter runs / digit runs / single other glyphs),
# so Python re and DuckDB RE2 tokenize identically
BPE_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n\r\f\v]"


def token_count_batch(batch: pa.Table) -> pa.Table:
    """Whitespace tokens + BPE-ish regex tokens per document."""
    s = pd.Series(batch["text"].to_pylist())
    ws = s.str.count(NONWS_RUN_PY).astype(np.int64)
    bpe = s.str.count(BPE_RE).astype(np.int64)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_ws_tokens": pa.array(ws),
            "n_bpe_tokens": pa.array(bpe),
        }
    )


def sql_token_counts(table: str = "documents") -> str:
    return f"""
    SELECT doc_id,
           LEN(REGEXP_EXTRACT_ALL(text, '{NONWS_RUN_SQL}')) AS n_ws_tokens,
           LEN(REGEXP_EXTRACT_ALL(text,
               '[A-Za-z]+|[0-9]+|[^A-Za-z0-9{WS_CHARS}]'))
               AS n_bpe_tokens
    FROM {table}
    """


# -- fingerprints (no SQL twin; pytest oracle) -------------------------------

_FP_P = np.uint64((1 << 31) - 1)
_FP_B = np.uint64(257)
_MAX_LEN = 1 << 16


def _fp_powers(n: int) -> np.ndarray:
    pw = np.empty(n, dtype=np.uint64)
    pw[0] = 1
    for i in range(1, n):
        pw[i] = (pw[i - 1] * _FP_B) % _FP_P
    return pw


_POWERS = _fp_powers(_MAX_LEN)


def poly_fingerprint(text: str) -> int:
    """Polynomial rolling hash of the whole text (Karp–Rabin family)."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    n = len(b)
    if n == 0:
        return 0
    pw = _POWERS[:n][::-1]
    return int((b * pw % _FP_P).sum() % _FP_P)


def rolling_kgram_hashes(text: str, k: int = 8) -> np.ndarray:
    """All k-gram rolling hashes of the byte sequence (vectorized)."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    n = len(b)
    if n < k:
        return np.empty(0, dtype=np.uint64)
    pw = _POWERS[:k][::-1]
    # windowed dot products mod p via cumulative trick
    out = np.empty(n - k + 1, dtype=np.uint64)
    for j in range(k):  # k is small (8): k vectorized adds
        out_j = (b[j : n - k + 1 + j] * pw[j]) % _FP_P
        out = (out + out_j) % _FP_P if j else out_j
    return out


def winnow_fingerprints(text: str, k: int = 8, w: int = 4) -> np.ndarray:
    """Winnowing (Schleimer et al. 2003): min hash per sliding window."""
    h = rolling_kgram_hashes(text, k)
    if len(h) == 0:
        return h
    if len(h) <= w:
        return np.unique(h.min(keepdims=True))
    sw = np.lib.stride_tricks.sliding_window_view(h, w)
    return np.unique(sw.min(axis=1))


# -- TF-IDF term extraction ---------------------------------------------------

def term_tf_batch(batch: pa.Table) -> pa.Table:
    """Explode documents into (doc_id, term, tf) rows — term frequency
    computed fully in-batch (documents are row-atomic, so a doc's terms
    never span batches).  Terms are non-whitespace runs under the same
    explicit-ASCII convention as the token counters, so the DuckDB
    mirror (``regexp_extract_all(text, NONWS_RUN_SQL)`` + unnest) splits
    identically."""
    s = pd.Series(batch["text"].to_pylist())
    ids = np.asarray(batch["doc_id"].to_numpy(), dtype=np.int64)
    toks = s.str.findall(NONWS_RUN_PY)
    lens = toks.str.len().to_numpy()
    flat = [t for lst in toks for t in lst]
    df = pd.DataFrame(
        {"doc_id": np.repeat(ids, lens), "term": np.asarray(flat, dtype=object)}
    )
    tf = df.groupby(["doc_id", "term"], as_index=False).size()
    return pa.table(
        {
            "doc_id": pa.array(tf["doc_id"].to_numpy(np.int64), pa.int64()),
            "term": pa.array(tf["term"].astype(str), pa.string()),
            "tf": pa.array(tf["size"].to_numpy(np.int64), pa.int64()),
        }
    )


def cooccur_pairs_batch(batch: pa.Table) -> pa.Table:
    """Combiner for term co-occurrence mining: documents → partial
    counts of unordered DISTINCT-term pairs (w1 < w2) per batch.

    Pair generation runs over batch-local integer codes (one factorize
    per batch) with per-doc ``triu_indices`` — string objects material-
    ize only once per distinct term at emission, and the in-batch
    groupby means only (pair, partial-count) rows ever shuffle.  Docs
    are row-atomic, so a doc's pairs never span batches; chunked to the
    batch, temporaries stay few-MB (the repo-wide large-temporary
    lesson)."""
    s = pd.Series(batch["text"].to_pylist())
    toks = s.str.findall(NONWS_RUN_PY)
    i_parts: list[np.ndarray] = []
    j_parts: list[np.ndarray] = []
    # one shared vocabulary per batch: factorize the flattened terms
    flat = [t for lst in toks for t in lst]
    codes, vocab = pd.factorize(np.asarray(flat, dtype=object), sort=True)
    lens = toks.str.len().to_numpy().astype(np.int64)
    offs = np.r_[0, np.cumsum(lens)]
    for d in range(len(toks)):
        u = np.unique(codes[offs[d]:offs[d + 1]])
        if len(u) < 2:
            continue
        ii, jj = np.triu_indices(len(u), k=1)
        i_parts.append(u[ii])
        j_parts.append(u[jj])
    if not i_parts:
        return pa.table(
            {
                "w1": pa.array([], pa.string()),
                "w2": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
    a = np.concatenate(i_parts)
    b = np.concatenate(j_parts)
    g = (
        pd.DataFrame({"a": a, "b": b})
        .groupby(["a", "b"], as_index=False)
        .size()
    )
    return pa.table(
        {
            "w1": pa.array(vocab[g["a"].to_numpy()].astype(str), pa.string()),
            "w2": pa.array(vocab[g["b"].to_numpy()].astype(str), pa.string()),
            "n": pa.array(g["size"].to_numpy(np.int64), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# BM25 retrieval scoring (Robertson–Spärck Jones, the Okapi formula with
# the always-positive +1 idf).  Determinism contract: every per-(doc,
# term) contribution is ONE fixed-order double expression — identical in
# the engine and the DuckDB oracle — quantized to integer micro-units
# (ROUND(c * 1e6)), so the per-document SUM is an order-free integer and
# ranking is exact.  ln() parity holds because both sides call the host
# libm (math.log / DuckDB std::log) on bit-identical inputs — the same
# contract the Shannon-entropy query established.
#
# Scale shape: the QUERY terms are the filter — tokenization emits only
# query-term hits (<= |Q| rows per doc) plus one sentinel row per doc
# carrying its length; document frequency over |Q| terms and the global
# (N, total_dl) scalars are bounded driver values; scoring is one map
# with the broadcast idf table; the per-doc sum is one bucketed
# aggregate and the finish is partial-top-k.  The corpus vocabulary is
# never aggregated, shipped, or joined.
# ---------------------------------------------------------------------------

BM25_K1 = 1.2
BM25_B = 0.75


def bm25_hits_batch(batch: pa.Table, terms: tuple[str, ...]) -> pa.Table:
    """(doc_id, dl, term, tf) for query-term hits, plus one sentinel
    row (term='', tf=0) per document carrying its token length."""
    s = pd.Series(batch["text"].to_pylist())
    ids = np.asarray(batch["doc_id"].to_numpy(), dtype=np.int64)
    toks = s.str.findall(NONWS_RUN_PY)
    dl = toks.str.len().to_numpy().astype(np.int64)
    qset = set(terms)
    out_id = list(ids)
    out_dl = list(dl)
    out_term = [""] * len(ids)
    out_tf = [0] * len(ids)
    for j, lst in enumerate(toks):
        cnt: dict[str, int] = {}
        for t in lst:
            if t in qset:
                cnt[t] = cnt.get(t, 0) + 1
        for t, c in cnt.items():
            out_id.append(ids[j])
            out_dl.append(dl[j])
            out_term.append(t)
            out_tf.append(c)
    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "dl": pa.array(out_dl, pa.int64()),
            "term": pa.array(out_term, pa.string()),
            "tf": pa.array(out_tf, pa.int64()),
        }
    )


def bm25_topk(docs, terms: tuple[str, ...], k: int = 50):
    """Top-k documents by BM25 over the fixed query-term set."""
    from functools import partial as _partial

    hits = docs.map_batches(
        _partial(bm25_hits_batch, terms=terms), batch_format="pyarrow"
    ).materialize()

    # global scalars from the sentinel rows (one bounded partial/batch)
    def scal(b: pa.Table) -> pa.Table:
        sent = b.filter(pa.compute.equal(b["term"], ""))
        return pa.table(
            {
                "n": pa.array([len(sent)], pa.int64()),
                "tot": pa.array([int(sent["dl"].to_numpy().sum())], pa.int64()),
            }
        )

    sc = hits.map_batches(scal, batch_format="pyarrow").to_pandas()
    n_docs = int(sc["n"].sum())
    tot_dl = int(sc["tot"].sum())
    avgdl = float(tot_dl) / float(n_docs)
    return _bm25_finish(hits, n_docs, avgdl, k)


def _bm25_finish(hits, n_docs: int, avgdl: float, k: int):
    """Shared BM25 tail: df → idf → integer micro-unit scoring →
    bucketed per-doc sum → partial-top-k.  ``hits`` rows are
    (doc_id, dl, term, tf); sentinel (term='') and zero-tf rows are
    ignored."""
    import math

    import ray

    from .relational import topk as _topk
    from .zonal import bucketed_agg

    # df over |Q| terms (tiny partial aggregate)
    def dfp(b: pa.Table) -> pa.Table:
        t = b.filter(pa.compute.not_equal(b["term"], ""))
        u, c = np.unique(np.asarray(t["term"].to_pylist(), dtype=object), return_counts=True)
        return pa.table(
            {"term": pa.array(u.astype(str), pa.string()),
             "df": pa.array(c.astype(np.int64))}
        )

    dfs = hits.map_batches(dfp, batch_format="pyarrow").to_pandas()
    dfs = dfs.groupby("term", as_index=False)["df"].sum()
    idf = {
        t: math.log(
            (float(n_docs) - float(d) + 0.5) / (float(d) + 0.5) + 1.0
        )
        for t, d in zip(dfs["term"], dfs["df"])
    }
    idf_ref = ray.put(idf)

    def score(b: pa.Table) -> pa.Table:
        t = b.filter(pa.compute.greater(b["tf"], 0))
        terms_col = t["term"].to_pylist()
        tf = t["tf"].to_numpy().astype(np.float64)
        dl_d = t["dl"].to_numpy().astype(np.float64)
        im = ray.get(idf_ref)
        iv = np.asarray([im[x] for x in terms_col], dtype=np.float64)
        denom = tf + BM25_K1 * ((1.0 - BM25_B) + BM25_B * (dl_d / avgdl))
        c = (iv * ((tf * (BM25_K1 + 1.0)) / denom)) * 1000000.0
        from ..functions.rounding import round_away

        q = round_away(c, 0).astype(np.int64)
        return pa.table({"doc_id": t["doc_id"], "q": pa.array(q)})

    scored = hits.map_batches(score, batch_format="pyarrow")
    per_doc = bucketed_agg(scored, ["doc_id"], {"score": ("q", "sum")}, nb=256)
    return _topk(per_doc, "score", k, descending=True, tie_col="doc_id")


# -- materialized inverted index (term-bucket-partitioned postings store) -----
#
# The IR twin of the IVF vector store (stages/ann.build_ivf_index): the
# FULL-vocabulary postings table (term, doc_id, tf, dl) is written ONCE
# as hive-partitioned parquet keyed by tb = crc32(term) % INVIDX_NB, so
# a query for |Q| terms reads at most |Q| partition directories with a
# term-equality filter pushed to the parquet scan — the rest of the
# corpus vocabulary never leaves storage.  One sentinel row per document
# (term='', tf=0) rides in bucket crc32('') carrying the doc length, so
# the corpus scalars (N, total_dl) are recoverable from a single
# partition read and the index is self-contained.  Every posting for a
# term lives in exactly one bucket, so document frequency computed from
# the pruned read is EXACT and indexed retrieval is bit-identical to the
# full-scan bm25_topk.

INVIDX_NB = 64


def term_bucket(t: str, nb: int = INVIDX_NB) -> int:
    """Deterministic term → partition bucket (stable across processes,
    unlike Python's salted hash)."""
    return zlib.crc32(t.encode("utf-8")) % nb


def postings_batch(batch: pa.Table) -> pa.Table:
    """Full-vocabulary postings (doc_id, dl, term, tf, tb) plus one
    sentinel row (term='', tf=0) per document carrying its length."""
    s = pd.Series(batch["text"].to_pylist())
    ids = np.asarray(batch["doc_id"].to_numpy(), dtype=np.int64)
    toks = s.str.findall(NONWS_RUN_PY)
    dl = toks.str.len().to_numpy().astype(np.int64)
    out_id = list(ids)
    out_dl = list(dl)
    out_term = [""] * len(ids)
    out_tf = [0] * len(ids)
    for j, lst in enumerate(toks):
        cnt: dict[str, int] = {}
        for t in lst:
            cnt[t] = cnt.get(t, 0) + 1
        for t, c in cnt.items():
            out_id.append(ids[j])
            out_dl.append(dl[j])
            out_term.append(t)
            out_tf.append(c)
    tb = [term_bucket(t) for t in out_term]
    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "dl": pa.array(out_dl, pa.int64()),
            "term": pa.array(out_term, pa.string()),
            "tf": pa.array(out_tf, pa.int64()),
            "tb": pa.array(tb, pa.int64()),
        }
    )


def build_inverted_index(docs, out_dir: str) -> str:
    """Materialize the postings store (idempotent: _SUCCESS marker,
    tmp-dir + rename so readers never see a half-written index)."""
    import os

    marker = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(marker):
        return out_dir
    tmp = f"{out_dir}.tmp.{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    postings = docs.map_batches(postings_batch, batch_format="pyarrow")
    postings.write_parquet(tmp, partition_cols=["tb"])
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("ok")
    try:
        os.rename(tmp, out_dir)
    except OSError:
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
    return out_dir


def _bucket_paths(index_dir: str, buckets) -> list[str]:
    import os

    paths: list[str] = []
    for b in sorted(set(int(x) for x in buckets)):
        d = os.path.join(index_dir, f"tb={b}")
        if os.path.isdir(d):
            paths.extend(
                os.path.join(d, f)
                for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    return paths


def bm25_topk_indexed(index_dir: str, terms: tuple[str, ...], k: int = 50):
    """Top-k BM25 against the MATERIALIZED inverted index: reads ONLY
    the |Q| term buckets (plus the sentinel bucket for corpus scalars)
    with term filters pushed to the parquet scan; bit-identical to the
    full-scan ``bm25_topk`` because per-term postings are complete
    within their bucket."""
    import pyarrow.compute as pc
    import ray.data as rd

    # corpus scalars from the sentinel partition
    sent = rd.read_parquet(
        _bucket_paths(index_dir, [term_bucket("")]),
        columns=["dl", "term"],
        filter=pc.field("term") == "",
    )

    def scal(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n": pa.array([len(b)], pa.int64()),
                "tot": pa.array([int(b["dl"].to_numpy().sum())], pa.int64()),
            }
        )

    sc = sent.map_batches(scal, batch_format="pyarrow").to_pandas()
    n_docs = int(sc["n"].sum())
    avgdl = float(sc["tot"].sum()) / float(n_docs)

    hits = rd.read_parquet(
        _bucket_paths(index_dir, [term_bucket(t) for t in terms]),
        columns=["doc_id", "dl", "term", "tf"],
        filter=pc.field("term").isin(list(terms)),
    ).materialize()  # ≤ |Q| rows/doc; the finish consumes it twice
    return _bm25_finish(hits, n_docs, avgdl, k)


# -- edit-distance-1 similarity join (deletion neighborhoods) -----------------


def _lev_le1(a: str, b: str) -> bool:
    """Exact Levenshtein(a, b) ≤ 1 for a ≠ b (two-pointer, O(len))."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    if la == lb:
        return a[i + 1:] == b[i + 1:]      # one substitution
    return a[i:] == b[i + 1:]              # one insertion into a


def _del_keys(s: str) -> list[str]:
    """{s} ∪ single-character deletions of s, deduped, order-stable."""
    seen = {s: None}
    for i in range(len(s)):
        seen.setdefault(s[:i] + s[i + 1:], None)
    return list(seen)


def edit1_pairs(ds, col: str, nb: int = 256):
    """All unordered pairs of DISTINCT values of ``col`` within
    Levenshtein distance 1 — the SymSpell deletion-neighborhood
    similarity join (fuzzy key matching / typo clustering at corpus
    scale; the reference has no string-similarity layer).

    Candidate completeness: lev(a, b) ≤ 1 ⟹ the deletion
    neighborhoods D(a) = {a} ∪ deletions(a) and D(b) intersect
    (substitution: both delete the differing position; indel: the
    shorter string IS a deletion of the longer).  So grouping rows by
    every key in D(x) and pairing within key groups finds every true
    pair; candidates are then verified with the exact two-pointer
    check (D-overlap alone admits lev-2 pairs, e.g. "ab"/"ba").

    Scale shape: ONE exchange of (len+1)·n key rows bucketed by key
    hash; group sizes are bounded by the alphabet (strings mapping to
    one deletion key differ only in the reinserted character/position),
    never corpus-sized.  Any lev-1 pair shares EXACTLY ONE deletion key
    (substitution: the common string with the differing position
    removed; indel: the shorter string itself — verified exhaustively
    over all strings of length ≤ 4 on a 3-letter alphabet), so each
    true pair surfaces in exactly one group and the output is unique by
    construction — no cross-group dedup shuffle, no per-pair set
    algebra.  A per-group guard re-derives that canonical key and
    compares it to the group key, which only rejects lev-2 candidates
    that _lev_le1 already filters; it stays as a cheap invariant."""

    def emit_keys(b: pa.Table) -> pa.Table:
        vals = b[col].to_pylist()
        keys, owners = [], []
        for x in vals:
            for k in _del_keys(x):
                keys.append(k)
                owners.append(x)
        bk = (
            pd.util.hash_pandas_object(
                pd.Series(keys, dtype=object), index=False
            ).to_numpy()
            % nb
        ).astype(np.int64)
        return pa.table(
            {
                "k": pa.array(keys, pa.string()),
                "s": pa.array(owners, pa.string()),
                "bk": pa.array(bk),
            }
        )

    def pair_bucket(g: pd.DataFrame) -> pa.Table:
        out_a: list[str] = []
        out_b: list[str] = []
        g = g.drop_duplicates(["k", "s"])
        g = g.sort_values(["k", "s"], kind="mergesort")
        ks = g["k"].to_numpy()
        ss = g["s"].to_numpy()
        starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        ends = np.r_[starts[1:], len(ks)]
        multi = (ends - starts) >= 2  # singleton keys can't pair
        for s0, s1 in zip(starts[multi], ends[multi]):
            members = ss[s0:s1]
            key = ks[s0]
            for i in range(len(members) - 1):
                a = members[i]
                la = len(a)
                for j in range(i + 1, len(members)):
                    b_ = members[j]
                    if not _lev_le1(a, b_):
                        continue
                    if la != len(b_):
                        shared = a if la < len(b_) else b_
                    else:
                        d = next(p for p in range(la) if a[p] != b_[p])
                        shared = a[:d] + a[d + 1 :]
                    if shared == key:
                        out_a.append(a)
                        out_b.append(b_)
        return pa.table(
            {
                "id_a": pa.array(out_a, pa.string()),
                "id_b": pa.array(out_b, pa.string()),
            }
        )

    return (
        ds.map_batches(emit_keys, batch_format="pyarrow")
        .groupby("bk")
        .map_groups(pair_bucket, batch_format="pandas")
    )


# -- benchmark decontamination (eval-set word-n-gram overlap) -----------------
#
# The GPT-3/Llama-style training-data decontamination operator: a small
# held-out eval set's word n-grams are collected once and broadcast; the
# corpus scan is a single zero-shuffle map_batches.  The eval set is O(1)
# with respect to corpus scale (a benchmark has a fixed number of
# questions), so the driver pull of its distinct grams is bounded no
# matter how large the corpus grows — the 100 TB shape is broadcast +
# embarrassingly parallel scan, never a join.


def word_ngram_set(text: str, n: int = 4) -> set:
    """Distinct word n-grams (single-space tokenization, matching
    DuckDB ``string_split(text, ' ')``)."""
    w = text.split(" ")
    if len(w) < n:
        return set()
    return {" ".join(w[i : i + n]) for i in range(len(w) - n + 1)}


def eval_gram_rows(batch: pa.Table, n: int = 4) -> pa.Table:
    """Per-batch DISTINCT word n-grams of the (tiny) eval shard."""
    grams: set = set()
    for t in batch["text"].to_pylist():
        grams |= word_ngram_set(t, n)
    return pa.table({"gram": pa.array(sorted(grams), pa.string())})


class DecontamScan:
    """Actor-pool stage: per document, count DISTINCT word n-grams that
    collide with the broadcast eval-gram set.

    The gram set is fetched once per actor in ``__init__`` (zero-copy
    from the object store for the ray.put'd frozenset), never per
    batch; ``__call__`` is a pure scan — no shuffle, no join."""

    def __init__(self, grams_ref, n: int = 4):
        import ray

        self.grams: frozenset = ray.get(grams_ref)
        self.n = n

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        hits = np.fromiter(
            (len(word_ngram_set(t, self.n) & self.grams) for t in texts),
            dtype=np.int64,
            count=len(texts),
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_hits": pa.array(hits),
                "contaminated": pa.array((hits > 0).astype(np.int64)),
            }
        )


# -- repetition quality signal (Gopher-style) ---------------------------------


def repetition_batch(batch: pa.Table) -> pa.Table:
    """Most-frequent-word-bigram count per document (the Gopher
    'repetitious document' signal, Rae et al. 2021 §A1.1): a doc whose
    top bigram covers too much of the text is boilerplate/spam.  All
    integer outputs — the keep rule (top bigram ≤ 20% of bigrams) is
    evaluated in exact integer arithmetic so the gate hash is
    float-free."""
    from collections import Counter

    texts = batch["text"].to_pylist()
    mx = np.zeros(len(texts), np.int64)
    tot = np.zeros(len(texts), np.int64)
    for k, t in enumerate(texts):
        w = t.split(" ")
        if len(w) < 2:
            continue
        c = Counter(zip(w, w[1:]))
        mx[k] = max(c.values())
        tot[k] = len(w) - 1
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "top_bigram_count": pa.array(mx),
            "n_bigrams": pa.array(tot),
            "keep": pa.array((mx * 5 <= tot).astype(np.int64)),
        }
    )


# -- lexical diversity (type–token ratio, the Gopher §A1.1 family) ------------
#
# TTR = distinct tokens / total tokens per document: the classic
# lexical-diversity quality signal (low TTR ⇒ repetitive boilerplate).
# Complements ``repetition_batch``: that flags ONE dominating bigram,
# TTR catches a document cycling a small vocabulary without any single
# dominant n-gram.  Keep rule in exact integer arithmetic (5·types ≥
# tokens, i.e. TTR ≥ 0.2) so the gate flag is float-free; the ratio
# itself is one exact float64 division rounded like every other
# fraction in the repo (mirrors DuckDB ``ROUND(x, 6)``).


def lexical_batch(batch: pa.Table) -> pa.Table:
    """Per-document token count, distinct-token count, TTR and keep
    flag.  Space-split tokens (same ``text.split(" ")`` contract as the
    gram operators; DuckDB twin ``string_split(text, ' ')`` — both
    sides yield ``['']`` for the empty string, so n_tokens ≥ 1
    always).  Vectorized via one flattened token Series + two grouped
    nunique/size reductions — no per-document Counter loop."""
    from ..functions.rounding import round_away

    ids = np.asarray(batch["doc_id"].to_numpy(), dtype=np.int64)
    toks = [t.split(" ") for t in batch["text"].to_pylist()]
    lens = np.fromiter((len(w) for w in toks), np.int64, count=len(toks))
    flat = pd.DataFrame(
        {
            "d": np.repeat(np.arange(len(toks), dtype=np.int64), lens),
            "w": pd.Series(
                [w for lst in toks for w in lst], dtype=object, copy=False
            ),
        }
    )
    types = np.zeros(len(toks), dtype=np.int64)
    g = flat.groupby("d", sort=False)["w"].nunique()
    types[g.index.to_numpy()] = g.to_numpy()
    ttr = round_away(types / np.maximum(lens, 1), 6)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(lens, pa.int64()),
            "n_types": pa.array(types, pa.int64()),
            "ttr": pa.array(ttr, pa.float64()),
            "keep": pa.array((types * 5 >= lens).astype(np.int64)),
        }
    )


def sql_lexical(table: str = "documents") -> str:
    return f"""
    WITH tok AS (
        SELECT doc_id, UNNEST(string_split(text, ' ')) AS w FROM {table}
    ),
    agg AS (
        SELECT doc_id, COUNT(*) AS n_tokens, COUNT(DISTINCT w) AS n_types
        FROM tok GROUP BY 1
    )
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(n_tokens AS BIGINT) AS n_tokens,
           CAST(n_types AS BIGINT) AS n_types,
           ROUND(n_types * 1.0 / n_tokens, 6) AS ttr,
           CAST(CASE WHEN n_types * 5 >= n_tokens THEN 1 ELSE 0 END
                AS BIGINT) AS keep
    FROM agg
    """


# -- cross-document duplicated-gram fraction (RefinedWeb-style) ---------------
#
# The intra-CORPUS complement of the two signals above: decontam
# compares the corpus against a fixed eval set, repetition_batch looks
# inside one document; this measures, per document, how much of it is
# duplicated SOMEWHERE ELSE in the corpus (Penedo et al. 2023 §4.2
# "dup_ngram_frac"; Rae et al. 2021 §A1.2).  Docs above a fraction
# threshold are near-boilerplate even when no single pairwise near-dup
# match fires.


def dupgram_rows(batch: pa.Table, n: int = 4, nb: int = 256) -> pa.Table:
    """Explode documents into DISTINCT word n-gram rows
    ``(bk, gram, doc_id, real=1)``, plus ONE sentinel row (``real=0``,
    gram = the doc_id's own digits — unique per doc, so sentinels can
    never group across docs) for gram-less documents so every document
    reaches the final aggregate.

    ``bk = hash(gram) % nb`` only PARTITIONS the shuffle; grouping
    inside a bucket is by the gram STRING, so the bucket hash cannot
    merge distinct grams (the ``bucketed_agg`` invariant) and any
    deterministic row hash will do — ``pd.util.hash_pandas_object``
    keeps it vectorized.  Gram construction is a vectorized sliding
    window over the flattened token stream (``Series.str.cat`` of the
    n shifted views, masked where a window would cross a document
    boundary) + one ``drop_duplicates`` for per-doc distinctness —
    no per-gram Python loop.  Documents are row-atomic, hence per-doc
    distinctness is exact in-batch."""
    ids = np.asarray(batch["doc_id"].to_numpy(), dtype=np.int64)
    texts = batch["text"].to_pylist()
    toks = [t.split(" ") for t in texts]
    lens = np.fromiter((len(w) for w in toks), np.int64, count=len(toks))
    sent_ids = ids[lens < n]

    flat = pd.Series(
        [w for lst in toks for w in lst], dtype=object, copy=False
    )
    L = len(flat)
    if L >= n:
        doc_of = np.repeat(ids, lens)
        first = flat.iloc[: L - (n - 1)].reset_index(drop=True)
        rest = [
            flat.iloc[k : L - (n - 1) + k].reset_index(drop=True)
            for k in range(1, n)
        ]
        gram = first.str.cat(rest, sep=" ")
        valid = doc_of[: L - (n - 1)] == doc_of[n - 1 :]
        df = pd.DataFrame(
            {"doc_id": doc_of[: L - (n - 1)][valid], "gram": gram[valid]}
        ).drop_duplicates()
        bk = (
            pd.util.hash_pandas_object(df["gram"], index=False).to_numpy()
            % nb
        ).astype(np.int64)
        gid = df["doc_id"].to_numpy(np.int64)
        gstr = df["gram"].astype(str)
    else:
        bk = gid = np.empty(0, np.int64)
        gstr = pd.Series([], dtype=str)
    return pa.table(
        {
            "bk": pa.array(
                np.concatenate([bk, sent_ids % nb]), pa.int64()
            ),
            "gram": pa.array(
                [*gstr, *(str(int(d)) for d in sent_ids)], pa.string()
            ),
            "doc_id": pa.array(
                np.concatenate([gid, sent_ids]), pa.int64()
            ),
            "real": pa.array(
                np.concatenate(
                    [np.ones(len(gid), np.int64), np.zeros(len(sent_ids), np.int64)]
                ),
                pa.int64(),
            ),
        }
    )


def dupgram_bucket(g: pd.DataFrame) -> pa.Table:
    """Per-bucket kernel: a gram's row count here IS its corpus-wide
    distinct-doc count (per-doc distinct at explode; a gram lives in
    exactly one bucket), so ``count >= 2`` marks it duplicated.  Emits
    per-document PARTIALS (n_grams, dup_grams) — a doc's grams span
    buckets, the doc-keyed sum downstream folds them.  Typed Arrow out
    (the dedup.py empty-bundle pattern)."""
    r = g[g["real"] == 1]
    if len(r):
        cnt = r.groupby("gram")["doc_id"].transform("size").to_numpy(np.int64)
        per = (
            pd.DataFrame(
                {
                    "doc_id": r["doc_id"].to_numpy(np.int64),
                    "n_grams": np.ones(len(r), np.int64),
                    "dup_grams": (cnt >= 2).astype(np.int64),
                }
            )
            .groupby("doc_id", as_index=False)
            .sum()
        )
        pid = per["doc_id"].to_numpy(np.int64)
        png = per["n_grams"].to_numpy(np.int64)
        pdg = per["dup_grams"].to_numpy(np.int64)
    else:
        pid = png = pdg = np.empty(0, np.int64)
    sid = g.loc[g["real"] == 0, "doc_id"].to_numpy(np.int64)
    zeros = np.zeros(len(sid), np.int64)
    return pa.table(
        {
            "doc_id": pa.array(np.concatenate([pid, sid]), pa.int64()),
            "n_grams": pa.array(np.concatenate([png, zeros]), pa.int64()),
            "dup_grams": pa.array(np.concatenate([pdg, zeros]), pa.int64()),
        }
    )


def srcgram_rows(batch: pa.Table, n: int = 4, nb: int = 64) -> pa.Table:
    """Explode documents into batch-distinct ``(bk, gram, source)``
    rows for the cross-source overlap matrix.  Same vectorized
    sliding-window construction as :func:`dupgram_rows`; in-batch
    dedup is volume reduction only — the bucket kernel dedups
    globally (a gram lives in exactly one bucket, so per-bucket
    distinct (gram, source) IS globally distinct)."""
    srcs = np.asarray(batch["source"].to_pylist(), dtype=object)
    texts = batch["text"].to_pylist()
    toks = [t.split(" ") for t in texts]
    lens = np.fromiter((len(w) for w in toks), np.int64, count=len(toks))
    flat = pd.Series(
        [w for lst in toks for w in lst], dtype=object, copy=False
    )
    L = len(flat)
    if L < n:
        return pa.table(
            {
                "bk": pa.array([], pa.int64()),
                "gram": pa.array([], pa.string()),
                "source": pa.array([], pa.string()),
            }
        )
    src_of = np.repeat(srcs, lens)
    first = flat.iloc[: L - (n - 1)].reset_index(drop=True)
    rest = [
        flat.iloc[k : L - (n - 1) + k].reset_index(drop=True)
        for k in range(1, n)
    ]
    gram = first.str.cat(rest, sep=" ")
    valid = src_of[: L - (n - 1)] == src_of[n - 1 :]
    # windows crossing DOC boundaries within one source must not fuse:
    # mask where the window crosses any doc boundary
    doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    valid &= doc_of[: L - (n - 1)] == doc_of[n - 1 :]
    df = pd.DataFrame(
        {"source": src_of[: L - (n - 1)][valid], "gram": gram[valid]}
    ).drop_duplicates()
    bk = (
        pd.util.hash_pandas_object(df["gram"], index=False).to_numpy() % nb
    ).astype(np.int64)
    return pa.table(
        {
            "bk": pa.array(bk, pa.int64()),
            "gram": pa.array(df["gram"].astype(str), pa.string()),
            "source": pa.array(df["source"].astype(str), pa.string()),
        }
    )


def srcgram_bucket(g: pd.DataFrame) -> pa.Table:
    """Per-bucket kernel for the source-overlap matrix: global dedup of
    (gram, source), then per-source size partials (src_b = '' sentinel
    rows) and per-gram source-pair intersection partials via a gram
    self-merge — a gram shared by s sources expands to s² rows with
    s ≤ |sources|, so the expansion is bounded by the (tiny) source
    cardinality, never by corpus size."""
    d = g.drop_duplicates(["gram", "source"])
    sz = d.groupby("source", as_index=False).size()
    m = d.merge(d, on="gram")
    m = m[m["source_x"] < m["source_y"]]
    pc = m.groupby(["source_x", "source_y"], as_index=False).size()
    return pa.table(
        {
            "src_a": pa.array(
                [*pc["source_x"].astype(str), *sz["source"].astype(str)],
                pa.string(),
            ),
            "src_b": pa.array(
                [*pc["source_y"].astype(str), *([""] * len(sz))],
                pa.string(),
            ),
            "n": pa.array(
                np.concatenate(
                    [
                        pc["size"].to_numpy(np.int64),
                        sz["size"].to_numpy(np.int64),
                    ]
                ),
                pa.int64(),
            ),
        }
    )


# -- unigram-LM quality scoring (CCNet-style) ---------------------------------


def unigram_count_rows(batch: pa.Table) -> pa.Table:
    """Per-batch partial unigram counts ``(tok, c)`` — the combiner
    half of the corpus LM fit: one row per DISTINCT in-batch token, so
    the downstream groupby shuffles vocabulary-sized data, never
    corpus-sized.  Tokenization is the pinned gate convention
    (``text.split(' ')`` ≡ DuckDB ``string_split(text, ' ')``)."""
    from collections import Counter

    c: Counter = Counter()
    for t in batch["text"].to_pylist():
        c.update(t.split(" "))
    toks = list(c.keys())
    return pa.table(
        {
            "tok": pa.array(toks, pa.string()),
            "c": pa.array([c[t] for t in toks], pa.int64()),
        }
    )


class UnigramLMScorer:
    """Per-document mean negative log-likelihood under the corpus's own
    unigram LM — the CCNet quality signal (Wenzek et al. 2020 §4.3;
    there a KenLM 5-gram, here the unigram member of the family so the
    DuckDB oracle can mirror it exactly).  Low avg_nll = head-like
    common text, high = gibberish/rare — the standard filter axis.

    Determinism contract (the BM25 pattern): each vocab entry's
    contribution ``-ln(c/N)`` is quantized ONCE to integer micro-units
    (``ROUND(x * 1e6)``, half away from zero, scalar ``math.log`` =
    host libm = DuckDB ``LN``) in the broadcast table; the per-document
    SUM is an order-free int64; only the final mean is a float —
    bit-identical to the oracle's arithmetic.

    The unit table is vocabulary-bounded and fetched once per actor
    (zero-copy ``ray.get`` in ``__init__``); scoring is a zero-shuffle
    scan: split → flat token array → one vectorized hash lookup
    (``pd.Index.get_indexer``) → ``np.add.reduceat`` per-doc sums.
    Replaces the reference's row-at-a-time psycopg2 scans (reference
    src/pipeline/run.py) for corpus quality scoring."""

    def __init__(self, units_ref):
        import ray

        units: pd.Series = ray.get(units_ref)
        self.idx = pd.Index(units.index)
        self.units = units.to_numpy()

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "avg_nll": pa.array([], pa.float64()),
                }
            )
        from ..functions.rounding import round_away

        toks = pd.Series(batch["text"].to_pylist()).str.split(" ")
        lens = toks.str.len().to_numpy().astype(np.int64)  # >= 1 always
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        u = self.units[self.idx.get_indexer(flat)]  # in-vocab by construction
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        sums = np.add.reduceat(u, offsets)
        avg = round_away(sums.astype(np.float64) / 1000000.0 / lens, 6)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(lens, pa.int64()),
                "avg_nll": pa.array(avg, pa.float64()),
            }
        )


def fit_unigram_units(docs) -> pd.Series:
    """Fit the corpus unigram LM and return the micro-unit table
    (``tok -> int64 ROUND(-ln(c/N) * 1e6)``).  The count aggregation is
    distributed (per-batch partial Counters → one vocabulary-sized
    groupby); the pull is vocabulary-bounded — the same ≤2M-term
    broadcast cap as the TF-IDF fast path (the co-partitioned
    giant-vocab alternative lives there)."""
    import math

    from ..functions.rounding import round_away

    cnt = (
        docs.map_batches(unigram_count_rows, batch_format="pyarrow")
        .groupby("tok")
        .sum("c")
        .to_pandas()
    )
    c = cnt["sum(c)"].to_numpy().astype(np.float64)
    n = float(c.sum())
    u = np.fromiter(
        (int(round_away(-math.log(ci / n) * 1000000.0, 0)) for ci in c),
        dtype=np.int64,
        count=len(c),
    )
    return pd.Series(u, index=cnt["tok"].to_numpy())


# -- DSIR importance weighting (hashed-feature log-ratio) ----------------------

DSIR_TARGET_SOURCE = "src0"  # fixed target corpus slice for the gated query


def _md5_bucket4(toks) -> list:
    """Hashed feature bucket: first 4 hex chars of md5 — ≤65,536 buckets
    regardless of vocabulary size (the DSIR hashing trick, Xie et al.
    2023 §2.2), chosen because DuckDB mirrors it exactly as
    ``substr(md5(tok), 1, 4)``.  Callers pass DISTINCT tokens only, so
    the md5 cost is vocabulary-bounded, never corpus-bounded."""
    import hashlib

    return [hashlib.md5(t.encode()).hexdigest()[:4] for t in toks]


def dsir_count_rows(batch: pa.Table, target_source: str) -> pa.Table:
    """Per-batch partial hashed-bucket counts ``(b, ct, cr)`` for the
    target / raw corpus split — the combiner half of the DSIR fit: one
    row per DISTINCT in-batch bucket, so the downstream groupby
    shuffles ≤65,536 rows per batch whatever the corpus size."""
    from collections import Counter

    tok_t: Counter = Counter()
    tok_r: Counter = Counter()
    for text, src in zip(batch["text"].to_pylist(), batch["source"].to_pylist()):
        (tok_t if src == target_source else tok_r).update(text.split(" "))
    bt: Counter = Counter()
    br: Counter = Counter()
    for toks, out in ((tok_t, bt), (tok_r, br)):
        uniq = list(toks.keys())
        for tok, b in zip(uniq, _md5_bucket4(uniq)):
            out[b] += toks[tok]
    bs = sorted(set(bt) | set(br))
    return pa.table(
        {
            "b": pa.array(bs, pa.string()),
            "ct": pa.array([bt.get(b, 0) for b in bs], pa.int64()),
            "cr": pa.array([br.get(b, 0) for b in bs], pa.int64()),
        }
    )


def fit_dsir_units(docs, target_source: str = DSIR_TARGET_SOURCE) -> pd.Series:
    """Fit the DSIR bucket log-ratio table ``b -> int64 micro-units``.

    Bag-of-hashed-unigrams LMs for target and raw with +0.5 Laplace
    smoothing over the v observed buckets; each bucket's weight
    ``ln p_t(b) - ln p_r(b)`` is quantized ONCE to integer micro-units
    (the unigram-LM determinism contract) so per-document sums are
    order-free int64 and the DuckDB twin hashes equal.  The pull is
    bucket-bounded (≤65,536 rows) — a constant, unlike the TF-IDF
    vocabulary broadcast."""
    import math

    from ..functions.rounding import round_away

    cnt = (
        docs.map_batches(
            dsir_count_rows,
            fn_kwargs={"target_source": target_source},
            batch_format="pyarrow",
        )
        .groupby("b")
        .sum(["ct", "cr"])
        .to_pandas()
    )
    ct = cnt["sum(ct)"].to_numpy().astype(np.float64)
    cr = cnt["sum(cr)"].to_numpy().astype(np.float64)
    nt, nr, v = float(ct.sum()), float(cr.sum()), float(len(cnt))
    u = np.fromiter(
        (
            int(
                round_away(
                    (
                        math.log((cti + 0.5) / (nt + 0.5 * v))
                        - math.log((cri + 0.5) / (nr + 0.5 * v))
                    )
                    * 1000000.0,
                    0,
                )
            )
            for cti, cri in zip(ct, cr)
        ),
        dtype=np.int64,
        count=len(cnt),
    )
    return pd.Series(u, index=cnt["b"].to_numpy())


class DSIRScorer:
    """Per-document DSIR importance weight: sum over tokens of the
    hashed-bucket log-ratio ``ln p_target - ln p_raw`` (Xie et al.,
    "Data Selection for Language Models via Importance Resampling",
    NeurIPS 2023) — the standard pick-pretraining-data-that-looks-
    like-the-target primitive, replacing the reference's fixed
    source-table scans (reference src/pipeline/run.py) with a
    selectable corpus.

    Zero-shuffle scoring scan (the UnigramLMScorer shape): the
    bucket-unit table arrives once per actor via ``ray.get``; per
    batch, tokens are factorized so md5 runs only on the batch's
    DISTINCT tokens, then one vectorized index lookup and
    ``np.add.reduceat`` per-doc int64 sums.  Only the final micro→unit
    conversion is float, bit-identical to the oracle's arithmetic."""

    def __init__(self, units_ref):
        import ray

        units: pd.Series = ray.get(units_ref)
        self.idx = pd.Index(units.index)
        self.units = units.to_numpy()

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "dsir_w": pa.array([], pa.float64()),
                }
            )
        from ..functions.rounding import round_away

        toks = pd.Series(batch["text"].to_pylist()).str.split(" ")
        lens = toks.str.len().to_numpy().astype(np.int64)  # >= 1 always
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        codes, uniq = pd.factorize(flat)
        u_uniq = self.units[self.idx.get_indexer(_md5_bucket4(uniq))]
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        sums = np.add.reduceat(u_uniq[codes], offsets)
        w = round_away(sums.astype(np.float64) / 1000000.0, 6)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(lens, pa.int64()),
                "dsir_w": pa.array(w, pa.float64()),
            }
        )


