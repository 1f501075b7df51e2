"""Stream-shaped operators over the ``events`` log: tumbling windows,
sessionization, as-of join.

Ray Data has no event-time watermarks; per the public guidance these are
expressed as partition-by-key + sort-within-group (the events table is
an ordered, partitioned log).  Reference analog: none (SURVEY.md §2.9 —
the reference's "streaming" is lazy IO), so these are scale-path
additions with DuckDB SQL oracles.

Determinism: ties in ``ts`` order by ``event_id``; window buckets use
integer microsecond arithmetic (no float epoch) on both sides.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

US_PER_HOUR = 3_600_000_000
SESSION_GAP_US = 1_800_000_000  # 30 min


def tumbling_partial(batch: pa.Table, width_us: int = US_PER_HOUR) -> pa.Table:
    """Per-batch partial: (event_type, bucket) → count, value sum.

    Values are snapped to the 2^-20 lattice (see functions/rounding) so
    partial sums merge exactly.
    """
    from ..functions.rounding import snap_binary

    ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    bucket = ts // width_us
    etype = np.asarray(batch["event_type"].to_pylist(), dtype=object)
    val = snap_binary(batch["value"].to_numpy())
    df = pd.DataFrame({"event_type": etype, "hour_bucket": bucket, "value": val})
    g = df.groupby(["event_type", "hour_bucket"], as_index=False).agg(
        n=("value", "size"), value_sum=("value", "sum")
    )
    g["n"] = g["n"].astype(np.int64)
    # strip the b'pandas' footer from_pandas attaches: it makes the
    # schema unhashable (pyarrow 16) and every downstream shuffle
    # concat then skips Ray's schema-dedup fast path
    return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)


def tumbling_aggregate(ds, width_us: int = US_PER_HOUR):
    from ray.data.aggregate import Sum

    partial = ds.map_batches(
        lambda b: tumbling_partial(b, width_us), batch_format="pyarrow"
    )
    from .zonal import combine_partials

    return combine_partials(
        partial,
        ["event_type", "hour_bucket"],
        [Sum("n", alias_name="n"), Sum("value_sum", alias_name="value_sum")],
    )


def _ts_us_col(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """timestamp/date column → int64 microseconds (pyarrow cast chain)."""
    import pyarrow.compute as pc

    return pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())


def sliding_partial(
    batch: pa.Table, width_us: int = US_PER_HOUR, hop_us: int = US_PER_HOUR // 2
) -> pa.Table:
    """Per-batch partial for SLIDING (hopping) windows: each event lands
    in ``width/hop`` windows; the explode happens inside the combiner so
    only (type, window) partial rows ever shuffle.  Window ``w`` covers
    ``[w*hop, w*hop + width)``."""
    from ..functions.rounding import snap_binary

    assert width_us % hop_us == 0
    k = width_us // hop_us
    ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    base = ts // hop_us  # last window whose start is <= ts
    etype = np.asarray(batch["event_type"].to_pylist(), dtype=object)
    val = snap_binary(batch["value"].to_numpy())
    frames = []
    for j in range(k):
        frames.append(
            pd.DataFrame(
                {"event_type": etype, "window_id": base - j, "value": val}
            )
        )
    df = pd.concat(frames, ignore_index=True)
    g = df.groupby(["event_type", "window_id"], as_index=False).agg(
        n=("value", "size"), value_sum=("value", "sum")
    )
    g["n"] = g["n"].astype(np.int64)
    # strip the b'pandas' footer from_pandas attaches: it makes the
    # schema unhashable (pyarrow 16) and every downstream shuffle
    # concat then skips Ray's schema-dedup fast path
    return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)


def sessionize(ds, gap_us: int = SESSION_GAP_US, n_coarse: int = 256):
    """Per-user session counts with a gap rule.

    Scale design: grouping by ``user_id`` directly would dispatch one
    Python callback PER USER (the per-key ``map_groups`` anti-pattern).
    Instead rows co-partition by a COARSE bucket (``user_id % n_coarse``
    — bounded group count), each bucket sorts once by
    ``(user_id, ts, event_id)`` and computes session starts with a
    vectorized diff + user-boundary reset, then a pandas ``groupby``
    (C path) emits one row per user."""

    def prep(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy()
        return pa.table(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "ts_us": _ts_us_col(b["ts"]),
                "coarse": pa.array(uid % n_coarse),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        is_new = np.ones(len(g), dtype=np.int64)
        if len(g) > 1:
            # a session starts at a user boundary OR after a gap
            is_new[1:] = (
                (uid[1:] != uid[:-1]) | ((ts[1:] - ts[:-1]) > gap_us)
            ).astype(np.int64)
        out = pd.DataFrame({"user_id": uid, "is_new": is_new}).groupby(
            "user_id", as_index=False
        ).agg(n_sessions=("is_new", "sum"), n_events=("is_new", "size"))
        # typed Arrow (also when the bucket is empty) — see asof_bucket
        return pa.table(
            {
                "user_id": pa.array(out["user_id"].to_numpy(), pa.int64()),
                "n_sessions": pa.array(
                    out["n_sessions"].to_numpy(), pa.int64()
                ),
                "n_events": pa.array(out["n_events"].to_numpy(), pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(per_bucket, batch_format="pandas")
    )


def _asof_join(left_ds, right_ds, left_cols, right_cols, out_cols, n_coarse: int):
    """Shared coarse-bucketed as-of join skeleton.

    Both-sides-large pattern WITHOUT per-key Python dispatch: tag-union
    the two datasets, co-partition by ``key % n_coarse`` (bounded group
    count — the fix proven on the dedup stages), and resolve ALL keys of
    a bucket with ONE vectorized ``pandas.merge_asof(by="key")``.

    ``left_cols``/``right_cols``: (key, ts, id, payload-or-None) column
    names on each input; ``out_cols``: output names for
    (left_id, key, right_id, payload).  Ties on equal ts resolve to the
    largest right id (sort order + merge_asof backward keeps the last).
    """

    def tag_left(b: pa.Table) -> pa.Table:
        key_c, ts_c, id_c, _ = left_cols
        key = b[key_c].to_numpy()
        n = len(b)
        return pa.table(
            {
                "key": b[key_c],
                "coarse": pa.array(key % n_coarse),
                "side": pa.array(np.zeros(n, dtype=np.int8)),
                "left_id": b[id_c],
                "ts_us": _ts_us_col(b[ts_c]),
                "right_id": pa.array(np.full(n, -1, dtype=np.int64)),
                "payload": pa.array(np.full(n, np.nan)),
            }
        )

    def tag_right(b: pa.Table) -> pa.Table:
        key_c, ts_c, id_c, pay_c = right_cols
        key = b[key_c].to_numpy()
        n = len(b)
        payload = (
            b[pay_c].to_numpy().astype(np.float64)
            if pay_c
            else np.full(n, np.nan)
        )
        return pa.table(
            {
                "key": b[key_c],
                "coarse": pa.array(key % n_coarse),
                "side": pa.array(np.ones(n, dtype=np.int8)),
                "left_id": pa.array(np.full(n, -1, dtype=np.int64)),
                "ts_us": _ts_us_col(b[ts_c]),
                "right_id": b[id_c],
                "payload": pa.array(payload),
            }
        )

    unioned = left_ds.map_batches(tag_left, batch_format="pyarrow").union(
        right_ds.map_batches(tag_right, batch_format="pyarrow")
    )
    lid_out, key_out, rid_out, pay_out = out_cols

    def asof_bucket(g: pd.DataFrame) -> pa.Table:
        # output is a TYPED Arrow table in BOTH branches (the dedup.py
        # coarse_pairs pattern): a group callback that alternates
        # pandas/empty outputs makes Ray log schema-divergence warnings
        # and trips its sampling size-estimator on empty blocks
        left = g[g["side"] == 0]
        right = g[g["side"] == 1]
        if len(left) == 0:
            return pa.table(
                {
                    lid_out: pa.array([], pa.int64()),
                    key_out: pa.array([], pa.int64()),
                    rid_out: pa.array([], pa.int64()),
                    pay_out: pa.array([], pa.float64()),
                }
            )
        left = left.sort_values(["ts_us", "left_id"], kind="mergesort")
        if len(right) == 0:
            rid = np.full(len(left), -1, dtype=np.int64)
            pay = np.full(len(left), np.nan)
        else:
            right = right.sort_values(["ts_us", "right_id"], kind="mergesort")
            m = pd.merge_asof(
                left[["ts_us", "key"]],
                right[["ts_us", "key", "right_id", "payload"]],
                on="ts_us",
                by="key",
                direction="backward",
            )
            rid = m["right_id"].fillna(-1).to_numpy().astype(np.int64)
            pay = m["payload"].to_numpy()
        return pa.table(
            {
                lid_out: pa.array(left["left_id"].to_numpy().astype(np.int64)),
                key_out: pa.array(left["key"].to_numpy().astype(np.int64)),
                rid_out: pa.array(rid),
                pay_out: pa.array(np.where(rid >= 0, pay, np.nan)),
            }
        )

    return unioned.groupby("coarse").map_groups(asof_bucket, batch_format="pandas")


US_PER_DAY = 86_400_000_000


def range_join_orders_events(
    orders_ds, events_ds, window_us: int = 7 * US_PER_DAY, n_coarse: int = 128
):
    """Range (interval) join: per order, count + value-sum of that
    user's events with ``ts ∈ [o_orderdate, o_orderdate + window)``.

    Coarse-bucket co-partition (``key % n_coarse``), then each bucket
    resolves ALL its orders with two vectorized ``merge_asof(by=key)``
    lookups against per-user cumulative counts/sums: events-before-hi
    minus events-before-lo.  Values are lattice-snapped, so cumulative-
    difference equals a direct sum bit-wise (exact float addition).
    """
    from ..functions.rounding import snap_binary

    def tag_orders(b: pa.Table) -> pa.Table:
        key = b["o_custkey"].to_numpy()
        n = len(b)
        return pa.table(
            {
                "key": b["o_custkey"],
                "coarse": pa.array(key % n_coarse),
                "side": pa.array(np.zeros(n, dtype=np.int8)),
                "oid": b["o_orderkey"],
                "ts_us": _ts_us_col(b["o_orderdate"]),
                "value": pa.array(np.zeros(n)),
            }
        )

    def tag_events(b: pa.Table) -> pa.Table:
        key = b["user_id"].to_numpy()
        n = len(b)
        return pa.table(
            {
                "key": b["user_id"],
                "coarse": pa.array(key % n_coarse),
                "side": pa.array(np.ones(n, dtype=np.int8)),
                "oid": pa.array(np.full(n, -1, dtype=np.int64)),
                "ts_us": _ts_us_col(b["ts"]),
                "value": pa.array(snap_binary(b["value"].to_numpy())),
            }
        )

    unioned = orders_ds.map_batches(tag_orders, batch_format="pyarrow").union(
        events_ds.map_batches(tag_events, batch_format="pyarrow")
    )

    def bucket(g: pd.DataFrame) -> pa.Table:
        # typed Arrow in both branches — see asof_bucket note
        orders = g[g["side"] == 0]
        if len(orders) == 0:
            return pa.table(
                {
                    "o_orderkey": pa.array([], pa.int64()),
                    "o_custkey": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "value_sum": pa.array([], pa.float64()),
                }
            )
        ev = g[g["side"] == 1].sort_values(["ts_us", "oid"], kind="mergesort")
        okey = orders["key"].to_numpy()
        oid = orders["oid"].to_numpy()
        ots = orders["ts_us"].to_numpy()
        if len(ev) == 0:
            cnt = np.zeros(len(orders), dtype=np.int64)
            vsum = np.zeros(len(orders), dtype=np.float64)
        else:
            ev = ev.assign(
                cum=ev.groupby("key").cumcount() + 1,
                cumv=ev.groupby("key")["value"].cumsum(),
            )
            right = ev[["ts_us", "key", "cum", "cumv"]]

            def below(bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                left = pd.DataFrame(
                    {"ts_us": bound, "key": okey, "ord": np.arange(len(okey))}
                ).sort_values("ts_us", kind="mergesort")
                m = pd.merge_asof(
                    left,
                    right,
                    on="ts_us",
                    by="key",
                    direction="backward",
                    allow_exact_matches=False,  # strictly ts < bound
                ).sort_values("ord", kind="mergesort")
                return (
                    m["cum"].fillna(0).to_numpy().astype(np.int64),
                    m["cumv"].fillna(0.0).to_numpy(),
                )

            c_hi, v_hi = below(ots + window_us)
            c_lo, v_lo = below(ots)
            cnt = c_hi - c_lo
            vsum = v_hi - v_lo
        return pa.table(
            {
                "o_orderkey": pa.array(oid.astype(np.int64)),
                "o_custkey": pa.array(okey.astype(np.int64)),
                "n_events": pa.array(cnt),
                "value_sum": pa.array(vsum),
            }
        )

    return unioned.groupby("coarse").map_groups(bucket, batch_format="pandas")


def asof_join_events_orders(events_ds, orders_ds, n_coarse: int = 128):
    """For each event: the latest order of that user at/before event time."""
    return _asof_join(
        events_ds,
        orders_ds,
        ("user_id", "ts", "event_id", None),
        ("o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"),
        ("event_id", "user_id", "last_orderkey", "last_totalprice"),
        n_coarse,
    )


# ---------------------------------------------------------------------------
# Sweep-line max concurrency: how many sessions are active at once, and
# when the peak is first reached.  The missing primitive here is a
# GLOBAL ordered prefix sum, which no groupby can express; the
# distributed shape is the classic two-pass scan:
#
#   pass 1 (ONE exchange): +1/-1 interval endpoints co-partition by a
#     fixed time-range bucket; each bucket sorts locally and reports
#     (bucket, total, local_max, ts_at_local_max) — one summary row per
#     bucket, never per event;
#   pass 2 (driver, bounded by #buckets): exclusive prefix offsets over
#     the bucket totals turn each local max into a global candidate;
#     the peak is the max candidate, earliest bucket first.
#
# Endpoint tie rule: at equal timestamps starts count before ends
# (closed intervals — a session is active at its last event).  At 10^12
# events the per-bucket state is the bucket's endpoints and the driver
# state is #buckets summaries, so nothing scales with the corpus.
# Reference analogue: the reference's multi-VM concurrency accounting
# (processing_config_v3.py worker budgeting) — here as a queryable
# operator.
# ---------------------------------------------------------------------------

CONC_BUCKET_US = 3_600_000_000  # 1 h time-range partition


def max_concurrency(intervals, bucket_us: int = CONC_BUCKET_US) -> pd.DataFrame:
    """Peak simultaneous intervals: one row (max_concurrency, at_ts_us)."""

    def deltas(b: pa.Table) -> pa.Table:
        s = b["start_us"].to_numpy()
        e = b["end_us"].to_numpy()
        ts = np.concatenate([s, e])
        d = np.concatenate(
            [np.ones(len(s), np.int64), -np.ones(len(e), np.int64)]
        )
        return pa.table(
            {
                "ts_us": pa.array(ts),
                "delta": pa.array(d),
                "tbucket": pa.array(ts // bucket_us),
            }
        )

    def local_scan(g: pd.DataFrame) -> pa.Table:
        # starts before ends at equal ts: sort by (ts, -delta)
        g = g.sort_values(["ts_us", "delta"], ascending=[True, False],
                          kind="mergesort")
        pr = np.cumsum(g["delta"].to_numpy())
        k = int(np.argmax(pr))  # earliest position of the local max
        return pa.table(
            {
                "tbucket": pa.array([int(g["tbucket"].iloc[0])], pa.int64()),
                "total": pa.array([int(pr[-1])], pa.int64()),
                "local_max": pa.array([int(pr[k])], pa.int64()),
                "ts_at_max": pa.array([int(g["ts_us"].iloc[k])], pa.int64()),
            }
        )

    summaries = (
        intervals.map_batches(deltas, batch_format="pyarrow")
        .groupby("tbucket")
        .map_groups(local_scan, batch_format="pandas")
        .to_pandas()  # bounded: ONE row per time bucket
        .sort_values("tbucket")
        .reset_index(drop=True)
    )
    totals = summaries["total"].to_numpy()
    offsets = np.concatenate([[0], np.cumsum(totals)[:-1]])
    cand = offsets + summaries["local_max"].to_numpy()
    mc = int(cand.max())
    first = int(np.flatnonzero(cand == mc)[0])
    return pd.DataFrame(
        {
            "max_concurrency": np.asarray([mc], np.int64),
            "at_ts_us": np.asarray([int(summaries["ts_at_max"].iloc[first])], np.int64),
        }
    )


def transition_counts(ds, n_coarse: int = 256):
    """Markov transition counts (prev_type → next_type, n) over
    per-user time-ordered event streams — the keyed LAG/adjacency
    primitive (reference has no analog; beyond-reference sequence
    toolkit alongside sessionize/funnel/streaks).

    Scale design: same coarse-bucket dataflow as :func:`sessionize` —
    users co-partition by ``user_id % n_coarse``, each bucket sorts
    once and computes the previous event type with a vectorized shift +
    user-boundary mask, then pre-aggregates counts IN the bucket so the
    final exchange moves at most |types|² rows per bucket
    (combiner-first; the type alphabet is bounded)."""
    from ray.data.aggregate import Sum

    from .zonal import combine_partials

    def prep(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy()
        return pa.table(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "ts_us": _ts_us_col(b["ts"]),
                "event_type": b["event_type"],
                "coarse": pa.array(uid % n_coarse),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        if len(g) > 1:
            same_user = uid[1:] == uid[:-1]
            prev_t = et[:-1][same_user]
            next_t = et[1:][same_user]
        else:
            prev_t = next_t = np.array([], dtype=object)
        out = (
            pd.DataFrame({"prev_type": prev_t, "next_type": next_t})
            .groupby(["prev_type", "next_type"], as_index=False)
            .size()
        )
        return pa.table(
            {
                "prev_type": pa.array(out["prev_type"].astype(str), pa.string()),
                "next_type": pa.array(out["next_type"].astype(str), pa.string()),
                "n": pa.array(out["size"].to_numpy(), pa.int64()),
            }
        )

    partial = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(per_bucket, batch_format="pandas")
    )
    return combine_partials(
        partial, ["prev_type", "next_type"], [Sum("n", alias_name="n")]
    )
