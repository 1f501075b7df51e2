"""Relational building blocks: broadcast hash join, semi/anti join, top-k.

Join strategy per the Ray guide: the small side (dimension table) is
``ray.put`` ONCE and merged per batch inside ``map_batches`` — no
shuffle of the big side.  The reference's key join J3
(``plt_cn = ANY(...)``, ``database_config_v3.py:117-128``) maps to
exactly this shape.  Big–big joins co-partition via a groupby on the
join key.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


class BroadcastJoiner:
    """map_batches actor merging a broadcast pandas dimension table."""

    def __init__(self, small_ref=None, small: pd.DataFrame | None = None, on=None, how="inner"):
        if small is None:
            import ray

            small = ray.get(small_ref)
        self.small = small
        self.on = on
        self.how = how

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(self.small, on=self.on, how=self.how)


def broadcast_join(ds, small_df: pd.DataFrame, on, how: str = "inner", concurrency=(1, 4)):
    import ray

    ref = ray.put(small_df)
    return ds.map_batches(
        BroadcastJoiner,
        fn_constructor_kwargs={"small_ref": ref, "on": on, "how": how},
        batch_format="pandas",
        concurrency=concurrency,
    )


def semi_join(ds, keys: np.ndarray, col: str):
    """Rows of ds whose col is in the broadcast key set."""
    import ray

    ref = ray.put(np.unique(np.asarray(keys)))

    class Semi:
        def __init__(self):
            self.keys = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            return batch[np.isin(batch[col].to_numpy(), self.keys)]

    return ds.map_batches(Semi, batch_format="pandas", concurrency=(1, 4))


def anti_join(ds, keys: np.ndarray, col: str):
    import ray

    ref = ray.put(np.unique(np.asarray(keys)))

    class Anti:
        def __init__(self):
            self.keys = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            return batch[~np.isin(batch[col].to_numpy(), self.keys)]

    return ds.map_batches(Anti, batch_format="pandas", concurrency=(1, 4))


def topk(ds, by: str, k: int, descending: bool = True, tie_col: str | None = None):
    """Exact global top-k without a full sort: per-batch partial top-k
    (combiner) → tiny driver-side finish."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cols = [by] + ([tie_col] if tie_col else [])
        asc = [not descending] + ([True] if tie_col else [])
        return batch.sort_values(cols, ascending=asc).head(k)

    small = ds.map_batches(partial, batch_format="pandas").to_pandas()
    cols = [by] + ([tie_col] if tie_col else [])
    asc = [not descending] + ([True] if tie_col else [])
    return small.sort_values(cols, ascending=asc).head(k).reset_index(drop=True)


# -- Bloom-filter semi-join prefilter ----------------------------------------
#
# At 100 TB the exact key SET of even a "small" side can be too large to
# broadcast comfortably, and shuffling the big side for an equi-join is
# an all-to-all exchange.  A Bloom bitmap is FIXED SIZE regardless of
# key count: build it distributed (per-batch partial bitmaps, OR-merged
# through a small tree reduce), `ray.put` once, and drop non-matching
# big-side rows inside `map_batches` before any exact work.  False
# positives are then removed by the exact semi-join, so results stay
# exact while the expensive stage sees only survivors.  (Reference
# analog: the `plt_cn = ANY(...)` prefilters, database_config_v3.py:117-128,
# re-expressed as a constant-memory prefilter.)

_BLOOM_C1 = np.uint64(0x9E3779B97F4A7C15)
_BLOOM_C2 = np.uint64(0xBF58476D1CE4E5B9)
_BLOOM_C3 = np.uint64(0xC2B2AE3D27D4EB4F)


def _bloom_positions(keys: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions via splitmix-style double hashing."""
    with np.errstate(over="ignore"):
        x = keys.astype(np.int64).astype(np.uint64)
        h1 = x * _BLOOM_C1
        h1 ^= h1 >> np.uint64(29)
        h1 = h1 * _BLOOM_C2
        h1 ^= h1 >> np.uint64(32)
        h2 = (x * _BLOOM_C3) | np.uint64(1)
        i = np.arange(k, dtype=np.uint64)[None, :]
        return (h1[:, None] + i * h2[:, None]) % np.uint64(m_bits)


def _bloom_words(keys: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    words = np.zeros(m_bits // 64, dtype=np.uint64)
    pos = _bloom_positions(keys, m_bits, k)
    np.bitwise_or.at(words, pos >> 6, np.uint64(1) << (pos & np.uint64(63)))
    return words


def bloom_build(ds, col: str, m_bits: int = 1 << 20, k: int = 4):
    """Distributed Bloom build: per-batch partial bitmaps → tree OR
    (coarse groups) → driver ORs a handful of fixed-size words arrays.
    Returns a ``ray.ObjectRef`` to the final words array."""
    import ray

    def partial(b: pa.Table) -> pa.Table:
        keys = b[col].to_numpy()
        words = _bloom_words(np.asarray(keys, dtype=np.int64), m_bits, k)
        g = int(words[0] % np.uint64(8)) if len(keys) else 0
        return pa.table(
            {"g": pa.array([g], pa.int64()),
             "bm": pa.array([words.tobytes()], pa.binary())}
        )

    def or_group(g: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(m_bits // 64, dtype=np.uint64)
        for buf in g["bm"]:
            acc |= np.frombuffer(buf, dtype=np.uint64)
        return pd.DataFrame({"g": g["g"].iloc[:1], "bm": [acc.tobytes()]})

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(or_group, batch_format="pandas")
        .take_all()
    )
    acc = np.zeros(m_bits // 64, dtype=np.uint64)
    for row in merged:
        acc |= np.frombuffer(row["bm"], dtype=np.uint64)
    return ray.put((acc, m_bits, k))


class BloomPrefilter:
    """map_batches actor: keep rows whose col MIGHT be in the filter
    (no false negatives; false positives removed by the exact join)."""

    def __init__(self, bloom_ref=None, col: str = "key"):
        import ray

        self.words, self.m_bits, self.k = ray.get(bloom_ref)
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch[self.col].to_numpy(), dtype=np.int64)
        if not len(keys):
            return batch
        pos = _bloom_positions(keys, self.m_bits, self.k)
        bits = (self.words[pos >> 6] >> (pos & np.uint64(63))) & np.uint64(1)
        return batch.filter(pa.array(bits.all(axis=1)))


def bloom_semi_join(big, small, big_col: str, small_col: str,
                    m_bits: int = 1 << 20, k: int = 4):
    """Exact semi-join expressed as Bloom prefilter → exact key check.

    The big side is never shuffled; the exact key set is only applied
    to Bloom survivors (and is itself built distributed by the caller's
    small-side pipeline — here via Dataset.unique on the pruned column)."""
    bloom_ref = bloom_build(small, small_col, m_bits=m_bits, k=k)
    survivors = big.map_batches(
        BloomPrefilter,
        fn_constructor_kwargs={"bloom_ref": bloom_ref, "col": big_col},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    keys = np.asarray(sorted(small.unique(small_col)), dtype=np.int64)
    return semi_join(survivors, keys, big_col)


def merge_upsert(base, delta, key: str, op_col: str = "op", nb: int = 64):
    """Distributed MERGE (CDC apply): returns ``base`` with ``delta``'s
    row-level operations applied — 'U' replaces the base row with the
    delta row, 'D' deletes it, 'I' inserts a new row (its key must not
    exist in ``base``; enforced implicitly — an 'I' whose key exists
    would duplicate, exactly like a real MERGE misuse).

    The lakehouse upsert shape: both sides co-partition ONCE on
    hash(key) % nb, and each bucket resolves all its keys with
    vectorized pandas ops (drop U∪D keys from base, append U∪I delta
    rows).  Nothing key-sized is broadcast or driver-materialized, so a
    10⁹-row base with a skewed delta works — a hot delta key inflates
    one bucket by its own size only.  Schema contract: ``delta`` has
    every ``base`` column plus ``op_col``."""
    from ..functions import georef as G

    cols_out = [c for c in base.schema().names]

    def tag(side: int):
        def f(b: pa.Table) -> pa.Table:
            keys = np.asarray(b[key].to_numpy(), dtype=np.int64)
            # canonical column order so both union sides share one schema
            cols = {c: b[c] for c in cols_out}
            cols[op_col] = (
                b[op_col]
                if side == 1
                else pa.array([""] * len(b), pa.string())
            )
            cols["_side"] = pa.array(np.full(len(b), side, dtype=np.int8))
            cols["_mb"] = pa.array(
                (G.derive_key(keys) % nb).astype(np.int64)
            )
            return pa.table(cols)

        return f

    def resolve(g: pd.DataFrame) -> pa.Table:
        d = g[g["_side"] == 1]
        b = g[g["_side"] == 0]
        gone = d.loc[d[op_col].isin(("U", "D")), key].to_numpy()
        keep = b[~b[key].isin(gone)]
        add = d[d[op_col].isin(("U", "I"))]
        out = pd.concat([keep[cols_out], add[cols_out]], ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        base.map_batches(tag(0), batch_format="pyarrow")
        .union(delta.map_batches(tag(1), batch_format="pyarrow"))
        .groupby("_mb")
        .map_groups(resolve, batch_format="pandas")
    )
