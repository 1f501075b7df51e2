"""Analytic operators beyond the reference: per-key window functions
(row_number / lag), rolling aggregates, sketch quantiles, and a
Misra–Gries heavy-hitter sketch with an exact recount pass.

The reference has no window-function layer (its nearest analogue is the
per-parcel ``ORDER BY distance LIMIT 50`` kNN cap,
``database_config_v3.py:112-113``, and the sorted dominant-crop argmax,
``crop_analyzer_v3.py:85,148``); these operators are first-class members
of a large-scale training-data pipeline (per-source rolling quality
stats, frequency-outlier keys, per-key event ordering).

Scale design shared by all per-key operators here: rows co-partition by
a COARSE bucket (``key % n_coarse`` — bounded group count, the
repo-wide pattern from ``windows.sessionize``), each bucket sorts once
with ``np.lexsort`` and computes every group's answer with vectorized
group-boundary arithmetic — no per-key Python dispatch.

Float parity (functions/rounding.py): every summed double is snapped to
the 2^-20 lattice first, so cumulative-sum differences (engine) equal
windowed re-summation (DuckDB ``SUM() OVER``) bit-exactly in any op
order while magnitudes stay below 2^33.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.rounding import snap_binary
from .windows import _ts_us_col
from .zonal import combine_partials


def _group_offsets(sorted_keys: np.ndarray):
    """(starts, sizes, start_per_row) for a SORTED key array."""
    n = len(sorted_keys)
    if n == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z
    is_start = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    starts = np.flatnonzero(is_start)
    sizes = np.diff(np.r_[starts, n])
    return starts, sizes, np.repeat(starts, sizes)


# ---------------------------------------------------------------------------
# row_number + lag per key
# ---------------------------------------------------------------------------


def ranked_events(ds, n_coarse: int = 256):
    """Per-user ``row_number`` (ordered by ts, event_id) and ``lag``
    gap to the previous event (µs; -1 for the first event of a user).

    Mirrors ``ROW_NUMBER() / LAG() OVER (PARTITION BY user_id ORDER BY
    ts, event_id)``.
    """

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
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid = uid[order], ts[order], eid[order]
        n = len(uid)
        _, _, start_of = _group_offsets(uid)
        pos = np.arange(n, dtype=np.int64)
        rn = pos - start_of + 1
        gap = np.empty(n, dtype=np.int64)
        if n:
            gap[0] = -1
            gap[1:] = ts[1:] - ts[:-1]
        gap[pos == start_of] = -1
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "rn": pa.array(rn, pa.int64()),
                "gap_us": pa.array(gap, pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(per_bucket, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# rolling aggregate per key (ROWS BETWEEN w-1 PRECEDING AND CURRENT ROW)
# ---------------------------------------------------------------------------


def rolling_events(ds, window: int = 4, n_coarse: int = 256):
    """Per-user rolling sum/count of ``value`` over the last ``window``
    events (current + window-1 preceding), ordered by (ts, event_id).

    Engine computes the rolling sum as a cumulative-sum difference; the
    inputs are lattice-snapped so the difference is EXACT and equals
    DuckDB's windowed re-summation bit-for-bit (cumsum magnitude must
    stay < 2^33 per bucket — ≈8.6e9, far above any per-bucket mass
    here; at larger scale raise ``n_coarse`` proportionally).
    """

    def prep(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy()
        return pa.table(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "ts_us": _ts_us_col(b["ts"]),
                "value": pa.array(snap_binary(b["value"].to_numpy())),
                "coarse": pa.array(uid % n_coarse),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        val = g["value"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, val = uid[order], ts[order], eid[order], val[order]
        n = len(uid)
        _, _, start_of = _group_offsets(uid)
        pos = np.arange(n, dtype=np.int64)
        lo = np.maximum(start_of, pos - (window - 1))
        csz = np.r_[0.0, np.cumsum(val)]
        roll_sum = csz[pos + 1] - csz[lo]
        roll_n = pos - lo + 1
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "roll_sum": pa.array(roll_sum, pa.float64()),
                "roll_n": pa.array(roll_n, pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(per_bucket, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# exact exponential time-decay (EMA) per key — power-of-two weights
# ---------------------------------------------------------------------------


def ema_events(ds, k: int = 16, n_coarse: int = 256):
    """Recency-weighted per-user value: the last ``k`` events (ordered
    by ts, event_id descending) weighted ``2^-1, 2^-2, … 2^-k`` — an
    exponential moving average with decay 1/2, truncated at ``k``.

    Float-exact BY CONSTRUCTION (the reason a general-α EMA can't
    hash-match an independent oracle): snapped values are multiples of
    2^-20, every weight is an exact power of two, so each product
    ``sv * 2^(k-rank)`` only shifts the exponent (mantissa untouched),
    every term stays a lattice multiple below 2^33, the sum is
    order-free exact, and the final ``/ 2^k`` is again a pure exponent
    shift.  Engine partial order vs DuckDB window order is irrelevant.

    Scale shape: same coarse-bucket co-partition as the other per-key
    operators (one lexsort per bucket, vectorized rank-from-group-end,
    ``bincount`` per-user sums — no per-key dispatch); only (user, ema)
    rows leave the bucket.
    """

    def prep(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy()
        return pa.table(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "ts_us": _ts_us_col(b["ts"]),
                "value": pa.array(snap_binary(b["value"].to_numpy())),
                "coarse": pa.array(uid % n_coarse),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        val = g["value"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, val = uid[order], val[order]
        n = len(uid)
        starts, sizes, start_of = _group_offsets(uid)
        pos = np.arange(n, dtype=np.int64)
        rank = (start_of + np.repeat(sizes, sizes)) - pos  # 1 = most recent
        keep = rank <= k
        gidx = np.repeat(np.arange(len(starts), dtype=np.int64), sizes)
        terms = val[keep] * np.ldexp(1.0, k - rank[keep])
        sums = np.bincount(gidx[keep], weights=terms, minlength=len(starts))
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "ema": pa.array(np.ldexp(sums, -k), pa.float64()),
                "n_used": pa.array(np.minimum(sizes, k), pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(per_bucket, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# funnel (ordered sequential pattern per key): step k counts only
# strictly after the user's first completion of step k-1
# ---------------------------------------------------------------------------


def funnel_events(ds, steps: list[str], n_coarse: int = 256):
    """Per-user funnel stage: how far each user got through an ORDERED
    step sequence (e.g. view → click → purchase), where step k's first
    occurrence must be strictly later than the user's first completion
    of step k-1.  Returns (user_id, stage) with stage in [0, len(steps)].

    Sequential pattern matching without per-key dispatch: each coarse
    bucket computes every user's cascade with one ``minimum.reduceat``
    per step (min timestamp of step-k rows gated by the previous
    stage's per-user time, broadcast back by ``repeat``) — k passes
    over the bucket, no sort-within-user needed.
    """
    step_of = {s: i for i, s in enumerate(steps)}

    def prep(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy()
        et = b["event_type"].to_pandas()
        step = et.map(step_of).fillna(-1).to_numpy(dtype=np.int64)
        return pa.table(
            {
                "user_id": b["user_id"],
                "ts_us": _ts_us_col(b["ts"]),
                "step": pa.array(step),
                "coarse": pa.array(uid % n_coarse),
            }
        )

    big = np.int64(2**62)

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        step = g["step"].to_numpy()
        order = np.argsort(uid, kind="stable")
        uid, ts, step = uid[order], ts[order], step[order]
        starts, sizes, _ = _group_offsets(uid)
        stage = np.zeros(len(starts), dtype=np.int64)
        prev = np.full(len(starts), -1, dtype=np.int64)  # -1: no gate yet
        for k in range(len(step_of)):
            gate = np.repeat(prev, sizes)
            cand = np.where((step == k) & (ts > gate), ts, big)
            tk = np.minimum.reduceat(cand, starts)
            reached = tk < big
            stage += reached
            prev = np.where(reached, tk, big)  # unreached: gate out later steps
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "stage": pa.array(stage, pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(per_bucket, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# gaps & islands: longest same-value run per key
# ---------------------------------------------------------------------------


def longest_streak(ds, val_col: str = "event_type", n_coarse: int = 256):
    """Per-user longest run of consecutive identical ``val_col`` values
    in (ts, event_id) order — the gaps-and-islands pattern (SQL: double
    row_number difference → island id → max island size).

    One coarse-bucket shuffle; each bucket lexsorts once and computes
    every contained user's answer with run-length arithmetic: a run
    boundary is (user change) OR (value change), run lengths come from
    ``_group_offsets`` over the run ids, and the per-user max reduces
    with ``np.maximum.reduceat`` — no per-key dispatch."""

    def prep(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy()
        return pa.table(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "ts_us": _ts_us_col(b["ts"]),
                "val": b[val_col],
                "coarse": pa.array(uid % n_coarse),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        val = g["val"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, val = uid[order], val[order]
        n = len(uid)
        starts, sizes, _ = _group_offsets(uid)
        new_run = np.r_[True, (uid[1:] != uid[:-1]) | (val[1:] != val[:-1])]
        run_id = np.cumsum(new_run) - 1
        _, run_sizes, _ = _group_offsets(run_id)
        run_len_of_row = np.repeat(run_sizes, run_sizes)
        best = np.maximum.reduceat(run_len_of_row, starts)
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "max_streak": pa.array(best.astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(per_bucket, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# streaming TTL-throttle dedup (keyed sequential state — the Flink
# keyed-ValueState-with-TTL shape, Ray-native)
# ---------------------------------------------------------------------------


def ttl_throttle(ds, ttl_us: int, n_coarse: int = 256):
    """Streaming TTL dedup: scan each ``(user_id, event_type)`` stream
    in (ts, event_id) order and KEEP an event iff its ts is at least
    ``ttl_us`` after the last KEPT event of that key (the key's first
    event is always kept).  This is the rate-limit / alert-throttle /
    dedup-window primitive — unlike sessionization (consecutive-gap
    predicate), the keep decision depends on the last KEPT row, a
    genuinely sequential chain that plain window functions cannot
    express (streaming engines hold it as keyed TTL state).

    Ray-native shape: ONE coarse-bucket shuffle co-partitions keys;
    inside a bucket one lexsort orders every contained stream, then
    the chain walks only the KEPT rows (``searchsorted`` jump from
    each kept row to the next eligible ts) — O(kept · log n) per key,
    never a per-input-row Python loop, and state is one scalar per
    key.  At 10¹² rows the buckets stream through the same
    ``groupby().map_groups`` path as every analytic here."""

    def prep(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy()
        return pa.table(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "event_type": b["event_type"],
                "ts_us": _ts_us_col(b["ts"]),
                "coarse": pa.array(uid % n_coarse),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        # deterministic type codes: np.unique is value-ordered, so the
        # composite key is independent of row arrival order
        codes = np.unique(g["event_type"].to_numpy(), return_inverse=True)[1]
        typ = g["event_type"].to_numpy()
        order = np.lexsort((eid, ts, codes, uid))
        uid, ts, eid, typ = uid[order], ts[order], eid[order], typ[order]
        key = uid * np.int64(len(np.unique(codes)) + 1) + codes[order]
        starts, sizes, _ = _group_offsets(key)
        keep = np.zeros(len(uid), dtype=bool)
        for s, sz in zip(starts, sizes):
            t = ts[s : s + sz]
            i = 0
            while i < sz:
                keep[s + i] = True
                i = int(np.searchsorted(t, t[i] + ttl_us, side="left"))
        k = np.flatnonzero(keep)
        return pa.table(
            {
                "event_id": pa.array(eid[k], pa.int64()),
                "user_id": pa.array(uid[k], pa.int64()),
                "event_type": pa.array(typ[k], pa.string()),
                "ts_us": pa.array(ts[k], pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(per_bucket, batch_format="pandas")
    )


def token_bucket(ds, cost_us: int, cap_us: int, n_coarse: int = 256):
    """Streaming token-bucket rate limiter per ``user_id`` — the
    burst-tolerant generalization of :func:`ttl_throttle` (which is the
    degenerate bucket cost == cap): a user's bucket holds ``cap_us``
    time-units of credit, refills 1 unit per µs of wall time, and each
    KEPT event spends ``cost_us`` — so bursts up to cap/cost events
    pass immediately, then the stream throttles to one per ``cost_us``.

    Like the TTL chain, state changes ONLY on kept rows (dropped events
    neither spend nor reset the refill clock, which accrues in wall
    time), so the per-key walk jumps kept→kept with one searchsorted:
    after a keep at t₀ with leftover L, the next keep is the first
    arrival ≥ t₀ + max(0, cost − L) — exact under same-µs ties because
    the array is (ts, event_id)-sorted and the jump clamps past the
    current row.  O(kept · log n) per key; state is two scalars.

    Emits kept rows + ``tokens_left`` (µs credit after the spend, the
    number a rate-limit dashboard graphs).  Integer µs end-to-end."""

    def prep(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy()
        return pa.table(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "event_type": b["event_type"],
                "ts_us": _ts_us_col(b["ts"]),
                "coarse": pa.array(uid % n_coarse),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        typ = g["event_type"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, typ = uid[order], ts[order], eid[order], typ[order]
        starts, sizes, _ = _group_offsets(uid)
        keep = np.zeros(len(uid), dtype=bool)
        left = np.zeros(len(uid), dtype=np.int64)
        for s, sz in zip(starts, sizes):
            t = ts[s : s + sz]
            i = 0
            tok = cap_us - cost_us  # first event always kept (cap ≥ cost)
            keep[s] = True
            left[s] = tok
            prev = t[0]
            while True:
                need = prev + max(0, cost_us - tok)
                j = int(np.searchsorted(t, need, side="left"))
                if j <= i:
                    j = i + 1
                if j >= sz:
                    break
                tok = min(cap_us, tok + int(t[j] - prev)) - cost_us
                prev = t[j]
                keep[s + j] = True
                left[s + j] = tok
                i = j
        k = np.flatnonzero(keep)
        return pa.table(
            {
                "event_id": pa.array(eid[k], pa.int64()),
                "user_id": pa.array(uid[k], pa.int64()),
                "event_type": pa.array(typ[k].astype(str), pa.string()),
                "ts_us": pa.array(ts[k], pa.int64()),
                "tokens_left": pa.array(left[k], pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(per_bucket, batch_format="pandas")
    )


def approx_grouped_quantiles(
    ds,
    key: str,
    val: str,
    qs: dict[str, float],
    lo: float,
    hi: float,
    nbins: int = 2048,
):
    """Mergeable histogram-sketch quantiles — the bounded-state
    alternative to exact quantiles.

    Exact quantiles (``zonal.county_zonal``'s ``hist`` product) carry
    each group's full value multiset to one place; this variant needs
    O(occupied bins) per (group, batch): each
    batch emits ``(key, bin, cnt)`` partial rows over an equal-width
    grid on the caller-supplied ``[lo, hi]`` value range, partials merge
    by distributive Sum (tiny shuffle — at most groups × nbins rows
    total regardless of input size), and each group's quantile is read
    off the merged CDF vectorized.

    Guarantee: the reported value is the UPPER EDGE of the bin holding
    the rank-``floor(q*(n-1))`` element, so
    ``|approx - exact| ≤ (hi - lo) / nbins``
    for every group and q — distribution-independent.  Values outside
    ``[lo, hi]`` clamp to the boundary bins (their quantile error is
    then bounded by their clamp distance).  Exactness is deliberately
    NOT claimed; the exact variant remains the oracle-checked query.
    """
    from ray.data.aggregate import Sum

    if not hi > lo:
        raise ValueError("need hi > lo")
    width = (np.float64(hi) - np.float64(lo)) / nbins

    def partial(b: pa.Table) -> pa.Table:
        keys = np.asarray(b[key].to_pylist(), dtype=object).astype(str)
        vals = b[val].to_numpy().astype(np.float64)
        bins = np.clip(
            ((vals - lo) / width).astype(np.int64), 0, nbins - 1
        )
        uk, ki = np.unique(keys, return_inverse=True)
        flat = ki.astype(np.int64) * nbins + bins
        uf, cnt = np.unique(flat, return_counts=True)
        return pa.table(
            {
                key: pa.array(uk[(uf // nbins)], pa.string()),
                "bin": pa.array(uf % nbins, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    # key × bin cardinality grows with both group count and bin
    # resolution — bucketed merge
    from .zonal import bucketed_agg

    merged = bucketed_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        [key, "bin"],
        {"cnt": ("cnt", "sum")},
    )

    def add_coarse(b: pa.Table) -> pa.Table:
        import zlib

        ka = np.asarray(b[key].to_pylist(), dtype=object)
        # deterministic across workers (process hash() is salted)
        h = np.fromiter(
            (zlib.crc32(str(k).encode()) & 0xF for k in ka),
            dtype=np.int64,
            count=len(ka),
        )
        return b.append_column("coarse", pa.array(h))

    def finalize(g: pd.DataFrame) -> pa.Table:
        keys = g[key].to_numpy().astype(str)
        order = np.lexsort((g["bin"].to_numpy(), keys))
        keys = keys[order]
        bins = g["bin"].to_numpy()[order]
        cnt = g["cnt"].to_numpy()[order]
        starts, sizes, start_of = _group_offsets(keys)
        csum = np.cumsum(cnt)
        base = np.repeat(csum[starts] - cnt[starts], sizes)
        cdf = csum - base  # within-group running count
        totals = cdf[starts + sizes - 1]
        out: dict[str, pa.Array] = {
            key: pa.array(keys[starts], pa.string()),
            "n": pa.array(totals.astype(np.int64), pa.int64()),
        }
        for name, q in qs.items():
            rank = np.floor(q * (totals - 1)).astype(np.int64) + 1
            # first bin whose running count reaches the rank, per group
            sel = np.empty(len(starts), dtype=np.int64)
            for i, (s, z, r) in enumerate(zip(starts, sizes, rank)):
                sel[i] = s + np.searchsorted(cdf[s : s + z], r)
            out[name] = pa.array(lo + (bins[sel] + 1) * width, pa.float64())
        return pa.table(out)

    # merged output is ≤ groups × nbins rows; co-partition whole groups
    # by a coarse deterministic key hash (repo-wide bucket pattern) so
    # each finalize call sees every bin of its contained groups
    return (
        merged.map_batches(add_coarse, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(finalize, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Misra–Gries heavy hitters + exact recount
# ---------------------------------------------------------------------------

_N_SENTINEL = -1  # carries per-batch row count through the merge
_ERR_SENTINEL = -2  # carries per-batch decrement mass


def mg_compress(keys: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Offline Misra–Gries summary of one batch: ≤ ``capacity`` (key,
    weight) pairs plus the total decrement mass.

    Computed by exact batch counts then uniform subtraction of ``t`` =
    the (capacity+1)-th largest count (the offline-equivalent MG run):
    every surviving weight satisfies ``true - err ≤ weight ≤ true``
    with ``err`` = the returned decrement mass, and summing summaries
    across batches keeps the global bound ``Σerr ≤ n/(capacity+1)``.
    """
    uniq, counts = np.unique(keys, return_counts=True)
    if len(uniq) <= capacity:
        return uniq, counts.astype(np.int64), 0
    t = np.partition(counts, len(counts) - capacity - 1)[len(counts) - capacity - 1]
    keep = counts > t
    dropped = int(counts.sum() - (counts[keep] - t).sum())
    return uniq[keep], (counts[keep] - t).astype(np.int64), dropped


def heavy_hitters(ds, key: str, phi_denom: int = 128, capacity: int = 256):
    """All keys with count > n/``phi_denom``, found by a Misra–Gries
    candidate pass + an exact recount pass (output is EXACT).

    Pass 1 streams one bounded summary per batch (≤ ``capacity`` rows +
    2 sentinel rows carrying the batch size and decrement mass) through
    a tiny groupby-sum.  Because ``capacity ≥ phi_denom``, the global
    MG bound ``Σerr ≤ n/(capacity+1) < n/phi_denom`` guarantees every
    true heavy hitter survives with merged weight > T - Σerr — for ANY
    key distribution, so the candidate rule ``mg > T - Σerr`` has no
    false negatives.  Pass 2 broadcasts the (small) candidate set,
    recounts exactly, and applies the true threshold.  Reference
    analogue: none (G-family extension); the fixed-capacity summary is
    what replaces an unbounded groupby when only frequent keys matter.
    """
    import ray
    from ray.data.aggregate import Sum

    if capacity < phi_denom:
        raise ValueError("capacity must be >= phi_denom for the MG guarantee")

    def partial(b: pa.Table) -> pa.Table:
        keys = b[key].to_numpy()
        uniq, w, err = mg_compress(keys, capacity)
        out_k = np.r_[uniq.astype(np.int64), _N_SENTINEL, _ERR_SENTINEL]
        out_w = np.r_[w, np.int64(len(keys)), np.int64(err)]
        return pa.table(
            {"hh_key": pa.array(out_k, pa.int64()), "mg": pa.array(out_w, pa.int64())}
        )

    # merged summary: distinct keys that were locally frequent in some
    # batch — far smaller than the input but NOT driver-sized at 100 TB
    # (≤ capacity × n_batches keys pre-merge).  Materialize it once (two
    # consumers below), pull only the two sentinel rows to the driver,
    # and apply the candidate rule distributed; the candidate SET is
    # bounded (Σmg ≤ n ⇒ #{mg > T - Σerr} ≤ n/(T-Σerr) ≈ 2·phi_denom),
    # so its take is a bounded pull.
    # the union of locally-frequent keys across batches is
    # high-cardinality (≤ capacity × n_batches distinct pre-merge) —
    # bucketed merge, not the native sort-aggregate
    from .zonal import bucketed_agg

    merged = bucketed_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["hh_key"],
        {"mg": ("mg", "sum")},
    ).materialize()

    def sentinels_only(b: pa.Table) -> pa.Table:
        return b.filter(pa.array(b["hh_key"].to_numpy() < 0))

    sent = merged.map_batches(sentinels_only, batch_format="pyarrow").to_pandas()
    sk, sv = sent["hh_key"].to_numpy(), sent["mg"].to_numpy()
    total = int(sv[sk == _N_SENTINEL].sum())
    err = int(sv[sk == _ERR_SENTINEL].sum())
    thresh = np.float64(total) / np.float64(phi_denom)

    def candidates_only(b: pa.Table) -> pa.Table:
        k = b["hh_key"].to_numpy()
        w = b["mg"].to_numpy()
        return b.filter(pa.array((k >= 0) & (w.astype(np.float64) > thresh - err)))

    cand = (
        merged.map_batches(candidates_only, batch_format="pyarrow")
        .to_pandas()["hh_key"]
        .to_numpy()
    )
    cand_ref = ray.put(cand)

    def recount(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keys = pa.array(ray.get(cand_ref), pa.int64())
        kept = b.filter(pc.is_in(b[key], keys))
        uniq, counts = np.unique(kept[key].to_numpy(), return_counts=True)
        return pa.table(
            {
                "hh_key": pa.array(uniq.astype(np.int64), pa.int64()),
                "cnt": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    exact = combine_partials(
        ds.map_batches(recount, batch_format="pyarrow"),
        ["hh_key"],
        [Sum("cnt", alias_name="cnt")],
    )

    def over_threshold(b: pa.Table) -> pa.Table:
        cnt = b["cnt"].to_numpy()
        return b.filter(pa.array(cnt.astype(np.float64) > thresh))

    return exact.map_batches(over_threshold, batch_format="pyarrow")


def grouped_percent_rank(
    ds, key: str, val: str, out_cols: list[str], n_buckets: int = 256
):
    """Exact ``PERCENT_RANK() OVER (PARTITION BY key ORDER BY val)``
    without collapsing a partition into one task.

    The scale problem with window functions: a naive groupby(key)
    serializes each partition through one worker (a 20 TB partition at
    100 TB scale).  Here ranking distributes over VALUE RANGES instead:

    1. per-key min/max (tiny aggregate, distinct keys bounded by the
       window-partition contract);
    2. rows land in ``n_buckets`` equi-width value ranges per key —
       counts per (key, bucket) form a bounded summary whose running
       sum gives every bucket's global rank offset (all smaller values
       sit in earlier buckets; ties share a bucket because the bucket
       is a pure function of the value);
    3. co-partition by (key, bucket): each group sorts only its own
       range slice, counts strictly-smaller values locally
       (``searchsorted`` left), and adds the offset.

    pct = (rank-1)/(n-1) computed as a single int→double division on
    both sides (bit-identical; 0.0 for single-row partitions).
    """

    def minmax_partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({"k": b[key].to_pylist(), "v": b[val].to_numpy()})
        g = df.groupby("k", as_index=False)["v"].agg(["min", "max"])
        return pa.table(
            {
                "k": pa.array(g["k"].astype(str)),
                "vmin": pa.array(g["min"].to_numpy(np.float64)),
                "vmax": pa.array(g["max"].to_numpy(np.float64)),
            }
        )

    from ray.data.aggregate import Max, Min, Sum

    mm = (
        ds.map_batches(minmax_partial, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Min("vmin", alias_name="vmin"), Max("vmax", alias_name="vmax"))
        .to_pandas()
    )
    lo = dict(zip(mm["k"], mm["vmin"]))
    width = {
        k: (hi - lo[k]) / n_buckets if hi > lo[k] else 1.0
        for k, hi in zip(mm["k"], mm["vmax"])
    }

    def bucket_of(keys: pd.Series, v: np.ndarray) -> np.ndarray:
        l = keys.map(lo).to_numpy(np.float64)
        w = keys.map(width).to_numpy(np.float64)
        return np.clip(((v - l) / w).astype(np.int64), 0, n_buckets - 1)

    def count_partial(b: pa.Table) -> pa.Table:
        keys = pd.Series(b[key].to_pylist())
        bk = bucket_of(keys, b[val].to_numpy().astype(np.float64))
        g = (
            pd.DataFrame({"k": keys, "bk": bk})
            .groupby(["k", "bk"], as_index=False)
            .size()
        )
        return pa.table(
            {
                "k": pa.array(g["k"].astype(str)),
                "bk": pa.array(g["bk"].to_numpy(np.int64)),
                "cnt": pa.array(g["size"].to_numpy(np.int64)),
            }
        )

    counts = (
        combine_partials(
            ds.map_batches(count_partial, batch_format="pyarrow"),
            ["k", "bk"],
            [Sum("cnt", alias_name="cnt")],
        )
        .to_pandas()
        .sort_values(["k", "bk"])
    )
    counts["offset"] = counts.groupby("k")["cnt"].cumsum() - counts["cnt"]
    totals = counts.groupby("k")["cnt"].sum().to_dict()
    # bounded summary (keys × occupied buckets) — ships in the task
    # closure, no per-row data
    offsets = {
        (k, int(b)): int(o)
        for k, b, o in zip(counts["k"], counts["bk"], counts["offset"])
    }

    def add_bucket(b: pa.Table) -> pa.Table:
        keys = pd.Series(b[key].to_pylist())
        bk = bucket_of(keys, b[val].to_numpy().astype(np.float64))
        return b.append_column("_bk", pa.array(bk, pa.int64()))

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        k = str(g[key].iloc[0])
        v = g[val].to_numpy(np.float64)
        sv = np.sort(v, kind="stable")
        smaller = np.searchsorted(sv, v, side="left")
        rank = offsets[(k, int(g["_bk"].iloc[0]))] + smaller + 1
        n = totals[k]
        pct = (
            (rank - 1).astype(np.float64) / np.float64(n - 1)
            if n > 1
            else np.zeros(len(v))
        )
        out = g[out_cols].copy()
        out["pct_rank"] = pct
        return out

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby([key, "_bk"])
        .map_groups(rank_bucket, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# skyline (Pareto frontier)
# ---------------------------------------------------------------------------


def _skyline_mask(price: np.ndarray, date_us: np.ndarray) -> np.ndarray:
    """Boolean keep-mask for the 2-D skyline (maximize ``price``,
    minimize ``date_us``): a row is dominated iff some other row has
    STRICTLY higher price AND STRICTLY smaller date.  O(n log n): sort
    by price desc, take the running min of date over strictly-higher
    price groups (ties in price never dominate each other)."""
    n = len(price)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((date_us, -price))
    p_s, d_s = price[order], date_us[order]
    # running min of date over all STRICTLY higher prices: carry the
    # prefix min forward only across price-group boundaries
    grp_start = np.r_[True, p_s[1:] != p_s[:-1]]
    prefix = np.minimum.accumulate(d_s)
    # min over groups strictly before this row's group
    start_idx = np.flatnonzero(grp_start)
    sizes = np.diff(np.r_[start_idx, n])
    before = np.repeat(start_idx, sizes) - 1  # last row of previous group
    min_before = np.where(before >= 0, prefix[np.maximum(before, 0)], np.iinfo(np.int64).max)
    keep_sorted = d_s <= min_before
    keep = np.zeros(n, dtype=bool)
    keep[order] = keep_sorted
    return keep


def skyline(ds, price_col: str, date_col: str):
    """Distributed 2-D skyline: per-block local skyline (any locally
    dominated row is globally dominated — safe to drop early), shrink
    to one block, exact final pass.

    Scale shape: the expected skyline of n random 2-D points is
    O(log n) rows, so local filtering collapses each block to a
    handful of candidates and the final single-block pass sees only
    (blocks × local-skyline) rows — the classic divide-and-conquer
    skyline.  Nothing corpus-sized ever converges to one task; a
    pathological fully-anti-correlated input (skyline = everything)
    degrades to the input size, which no exact skyline algorithm
    avoids."""

    def local(b: pa.Table) -> pa.Table:
        price = np.asarray(b[price_col].to_numpy(), dtype=np.float64)
        date = _ts_us_col(b[date_col]).to_numpy().astype(np.int64)
        keep = _skyline_mask(price, date)
        idx = np.flatnonzero(keep)
        return b.take(pa.array(idx, pa.int64()))

    return (
        ds.map_batches(local, batch_format="pyarrow")
        .repartition(1)
        .map_batches(local, batch_format="pyarrow", batch_size=None)
    )


def global_ntile(ds, val: str, id_col: str, tiles: int,
                 lo: float, hi: float, nbins: int = 2048):
    """Exact global ``NTILE(tiles) OVER (ORDER BY val, id)`` — the
    equal-frequency binning every feature-bucketization pipeline needs,
    WITHOUT a global sort: the two-pass prefix-scan pattern
    (``grouped_percent_rank`` / ``event_max_concurrency`` family).

    Pass 1 counts rows per equi-width VALUE bucket over [lo, hi]
    (bounded: ≤ nbins partial rows per batch, merged by Sum) and turns
    the bounded count table into per-bucket global offsets on the
    driver.  Pass 2 co-partitions rows by bucket, sorts each bucket by
    (val, id) — a total order, so ties are deterministic — and assigns
    each row its global 0-indexed position = offset[bucket] + local
    position, from which the standard NTILE remainder-to-front rule is
    one vector expression.  Values must lie in [lo, hi] (callers pick
    the domain; out-of-range would break the total order, unlike the
    clamped histogram sketch)."""
    from .zonal import bucketed_agg

    if not hi > lo:
        raise ValueError("need hi > lo")
    width = (np.float64(hi) - np.float64(lo)) / nbins

    def binc(b: pa.Table) -> pa.Table:
        v = b[val].to_numpy().astype(np.float64)
        if len(v) and (v.min() < lo or v.max() > hi):
            raise ValueError(f"{val} outside [{lo}, {hi}]")
        bins = np.clip(((v - lo) / width).astype(np.int64), 0, nbins - 1)
        ub, cnt = np.unique(bins, return_counts=True)
        return pa.table(
            {"bin": pa.array(ub, pa.int64()),
             "cnt": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    counts = bucketed_agg(
        ds.map_batches(binc, batch_format="pyarrow"),
        ["bin"],
        {"cnt": ("cnt", "sum")},
        nb=16,
    ).to_pandas().sort_values("bin")  # bounded: ≤ nbins rows
    n = int(counts["cnt"].sum())
    csum = np.concatenate([[0], np.cumsum(counts["cnt"].to_numpy())[:-1]])
    offset = dict(zip(counts["bin"].astype(int), csum.astype(int)))
    size, rem = n // tiles, n % tiles

    def tag(b: pa.Table) -> pa.Table:
        v = b[val].to_numpy().astype(np.float64)
        bins = np.clip(((v - lo) / width).astype(np.int64), 0, nbins - 1)
        return pa.table(
            {
                id_col: b[id_col],
                val: pa.array(v, pa.float64()),
                "bin": pa.array(bins, pa.int64()),
            }
        )

    def assign(g: pd.DataFrame) -> pa.Table:
        vv = g[val].to_numpy(np.float64)
        ii = g[id_col].to_numpy(np.int64)
        bb = g["bin"].to_numpy(np.int64)
        order = np.lexsort((ii, vv, bb))
        vv, ii, bb = vv[order], ii[order], bb[order]
        starts = np.flatnonzero(np.r_[True, bb[1:] != bb[:-1]])
        base = np.asarray([offset[int(b_)] for b_ in bb[starts]],
                          dtype=np.int64)
        r0 = np.repeat(base - starts, np.diff(np.r_[starts, len(bb)])) + \
            np.arange(len(bb), dtype=np.int64)
        cut = rem * (size + 1)
        tile = np.where(
            r0 < cut,
            r0 // (size + 1) if size + 1 > 0 else 0,
            rem + (r0 - cut) // max(size, 1),
        ).astype(np.int64) + 1
        return pa.table(
            {
                id_col: pa.array(ii, pa.int64()),
                "tile": pa.array(tile, pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("bin")
        .map_groups(assign, batch_format="pandas")
    )


def grouped_auc(ds, grp: str, sq: str, pos: str,
                lo: int, hi: int, nbins: int = 2048):
    """Exact per-group ROC AUC (Mann–Whitney U with midrank tie
    handling) over an integer-quantized score — the classifier-quality
    metric every labeled-data curation pipeline evaluates — WITHOUT a
    global sort, via the ``global_ntile`` two-pass prefix-scan shape.

    ``ds`` carries ``grp`` (string), ``sq`` (int64 quantized score) and
    ``pos`` (int64 0/1 label).  Stage 1 collapses rows to per-(grp, sq)
    tie-group counts (bounded by distinct scores).  Stage 2 counts
    tie-group ROWS per (grp, equi-width score bucket) — bounded ≤
    groups × nbins — and turns them into exclusive per-bucket rank
    offsets on the driver (bucketing clips monotonically, so within-
    bucket sorting preserves the total score order).  Stage 3
    co-partitions tie-groups by (grp, bucket), sorts each bucket once,
    and emits one exact-integer partial per bucket of the doubled
    positive rank sum R2 = Σ n_pos·(2·rank_below + n_tie + 1); the
    bounded per-group merge finishes AUC = (R2 - P·(P+1)) / (2·P·N)
    with both casts in the same order DuckDB evaluates them.  Groups
    without both classes are dropped (AUC undefined).

    Everything driver-side is bounded by groups × nbins; the two heavy
    exchanges are the tie-group aggregation and one bucket groupby —
    no all-to-all sort of the raw rows at any scale.
    """
    from .zonal import bucketed_agg

    if not hi > lo:
        raise ValueError("need hi > lo")
    width = max(1, (hi - lo) // nbins)

    def tie_partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                grp: np.asarray(b[grp].to_pylist(), dtype=object).astype(str),
                sq: b[sq].to_numpy().astype(np.int64),
                pos: b[pos].to_numpy().astype(np.int64),
            }
        )
        r = df.groupby([grp, sq], as_index=False).agg(
            nt=(pos, "size"), np_=(pos, "sum")
        )
        return pa.table(
            {
                grp: pa.array(r[grp].astype(str), pa.string()),
                sq: pa.array(r[sq].to_numpy(np.int64)),
                "nt": pa.array(r["nt"].to_numpy(np.int64)),
                "np_": pa.array(r["np_"].to_numpy(np.int64)),
            }
        )

    ties = bucketed_agg(
        ds.map_batches(tie_partial, batch_format="pyarrow"),
        [grp, sq],
        {"nt": ("nt", "sum"), "np_": ("np_", "sum")},
        nb=64,
    )

    def binc(b: pa.Table) -> pa.Table:
        v = b[sq].to_numpy().astype(np.int64)
        bins = np.clip((v - lo) // width, 0, nbins - 1).astype(np.int64)
        df = pd.DataFrame(
            {
                grp: np.asarray(b[grp].to_pylist(), dtype=object).astype(str),
                "bin": bins,
                "nt": b["nt"].to_numpy().astype(np.int64),
                "np_": b["np_"].to_numpy().astype(np.int64),
            }
        )
        r = df.groupby([grp, "bin"], as_index=False).agg(
            cnt=("nt", "sum"), pcnt=("np_", "sum")
        )
        return pa.table(
            {
                grp: pa.array(r[grp].astype(str), pa.string()),
                "bin": pa.array(r["bin"].to_numpy(np.int64)),
                "cnt": pa.array(r["cnt"].to_numpy(np.int64)),
                "pcnt": pa.array(r["pcnt"].to_numpy(np.int64)),
            }
        )

    # bounded ≤ groups × nbins rows → driver offsets + class totals.
    # The post-ties datasets are all bounded (distinct quantized
    # scores × groups), so coalesce below the key count before each
    # sort-groupby — more splits than populated keys emit schema-less
    # empty padding blocks (the KMV-merge lesson).
    counts = (
        bucketed_agg(
            ties.map_batches(binc, batch_format="pyarrow").repartition(4),
            [grp, "bin"],
            {"cnt": ("cnt", "sum"), "pcnt": ("pcnt", "sum")},
            nb=16,
        )
        .to_pandas()
        .sort_values([grp, "bin"])
    )
    gids = {g_: i for i, g_ in enumerate(sorted(counts[grp].unique()))}
    offset: dict[int, int] = {}
    totals: dict[str, tuple[int, int]] = {}
    for g_, sub in counts.groupby(grp, sort=True):
        cs = np.concatenate([[0], np.cumsum(sub["cnt"].to_numpy())[:-1]])
        for b_, o_ in zip(sub["bin"].to_numpy(), cs):
            offset[gids[g_] * nbins + int(b_)] = int(o_)
        p = int(sub["pcnt"].sum())
        totals[g_] = (p, int(sub["cnt"].sum()) - p)

    def tag(b: pa.Table) -> pa.Table:
        v = b[sq].to_numpy().astype(np.int64)
        bins = np.clip((v - lo) // width, 0, nbins - 1)
        gs = np.asarray(b[grp].to_pylist(), dtype=object).astype(str)
        gb = np.asarray([gids[x] for x in gs], dtype=np.int64) * nbins + bins
        return pa.table(
            {
                grp: pa.array(gs, pa.string()),
                sq: b[sq],
                "nt": b["nt"],
                "np_": b["np_"],
                "gb": pa.array(gb, pa.int64()),
            }
        )

    def rank_partial(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(sq, kind="mergesort")
        nt = g["nt"].to_numpy(np.int64)
        np_ = g["np_"].to_numpy(np.int64)
        base = offset[int(g["gb"].iloc[0])]
        cb = base + np.concatenate([[0], np.cumsum(nt)[:-1]])
        r2 = int(np.sum(np_ * (2 * cb + nt + 1)))
        return pa.table(
            {
                grp: pa.array([str(g[grp].iloc[0])], pa.string()),
                "pr2": pa.array([r2], pa.int64()),
            }
        )

    merged = bucketed_agg(
        ties.map_batches(tag, batch_format="pyarrow")
        .repartition(8)
        .groupby("gb")
        .map_groups(rank_partial, batch_format="pandas")
        .repartition(2),
        [grp],
        {"r2": ("pr2", "sum")},
        nb=4,
    )

    def finalize(b: pa.Table) -> pa.Table:
        gs = np.asarray(b[grp].to_pylist(), dtype=object).astype(str)
        r2 = b["r2"].to_numpy().astype(np.int64)
        p = np.asarray([totals[x][0] for x in gs], dtype=np.int64)
        nn = np.asarray([totals[x][1] for x in gs], dtype=np.int64)
        keep = (p > 0) & (nn > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            auc = (r2 - p * (p + 1)).astype(np.float64) / (
                2 * p * nn
            ).astype(np.float64)
        from ..functions.rounding import round_away

        return pa.table(
            {
                grp: pa.array(gs[keep], pa.string()),
                "n_pos": pa.array(p[keep], pa.int64()),
                "n_neg": pa.array(nn[keep], pa.int64()),
                "auc": pa.array(round_away(auc, 6)[keep], pa.float64()),
            }
        )

    return merged.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# per-key integer-exact z-score outlier detection
# ---------------------------------------------------------------------------


def grouped_zscore_outliers(ds, n_coarse: int = 256, min_n: int = 8,
                            sigmas: int = 3):
    """Per-user 3σ outlier events over the integer-quantized value —
    the data-quality gate (drop / flag anomalous measurements per
    entity) of every curation pipeline, made hash-exact by clearing
    the float from the predicate:

    ``(v − mean)² > σ²·var  ⇔  (n·v − Σx)² > σ²·(n·Σx² − (Σx)²)``

    (population variance; both sides exact int64 — with v < 2^16 and
    per-key n < 2^12 the right side stays < 2^61).  One coarse-bucketed
    shuffle; per-key sums via ``np.add.reduceat`` — no per-row Python.

    Input: (event_id, user_id, vq int64, coarse).  Output: the outlier
    rows (event_id, user_id, n_user, vq).
    """

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        eid = g["event_id"].to_numpy()
        vq = g["vq"].to_numpy()
        order = np.lexsort((eid, uid))
        uid, eid, vq = uid[order], eid[order], vq[order]
        starts, sizes, start_of = _group_offsets(uid)
        gidx = np.repeat(np.arange(len(starts)), sizes)
        sx = np.add.reduceat(vq, starts)
        sxx = np.add.reduceat(vq * vq, starts)
        n = sizes
        lhs = (n[gidx] * vq - sx[gidx]) ** 2
        rhs = sigmas * sigmas * (n[gidx] * sxx[gidx] - sx[gidx] ** 2)
        keep = (n[gidx] >= min_n) & (lhs > rhs)
        return pa.table(
            {
                "event_id": pa.array(eid[keep], pa.int64()),
                "user_id": pa.array(uid[keep], pa.int64()),
                "n_user": pa.array(n[gidx][keep], pa.int64()),
                "vq": pa.array(vq[keep], pa.int64()),
            }
        )

    return ds.groupby("coarse").map_groups(per_bucket, batch_format="pandas")


# ---------------------------------------------------------------------------
# per-key dense time-series expansion (gap fill)
# ---------------------------------------------------------------------------


def hourly_gapfill(ds, n_coarse: int = 256):
    """Per-user DENSE hourly activity series: one row for every hour
    between the user's first and last event — zero-filled gaps plus the
    running cumulative event count.  The row-EXPANSION operator
    (regularize / resample before sequence-model training) none of the
    aggregates cover: output rows ≫ input rows in sparse regimes.

    Engine shape: events collapse to per-(user, hour) counts inside the
    usual coarse user-hash buckets, and the dense series materializes
    VECTORIZED per bucket (``np.repeat`` + offset ``arange`` for the
    hour grid, scatter for the observed counts, segmented cumsum for
    the running total) — no per-user dispatch, no Python row loop.
    Integer-exact throughout, so the gate hash is trivial.

    Scale note: output volume is Σ(user spans), which the coarse
    buckets spread uniformly (hash-partitioned users); a single
    pathological span (one user × 10⁹ hours) would need span-chunking
    inside the bucket — the synthetic and any real activity table are
    orders of magnitude below that.

    Input: (user_id, ts).  Output: (user_id, h, n_events, cum_events).
    """
    HOUR_US = 3_600_000_000

    def prep(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy()
        h = _ts_us_col(b["ts"]).to_numpy() // HOUR_US
        return pa.table(
            {
                "user_id": b["user_id"],
                "h": pa.array(h, pa.int64()),
                "coarse": pa.array(uid % n_coarse),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        h = g["h"].to_numpy()
        order = np.lexsort((h, uid))
        uid, h = uid[order], h[order]
        # collapse to per-(user, hour) counts
        chg = np.r_[True, (uid[1:] != uid[:-1]) | (h[1:] != h[:-1])]
        ps = np.flatnonzero(chg)
        us, hs = uid[ps], h[ps]
        cnt = np.diff(np.r_[ps, len(h)]).astype(np.int64)
        # per-user span
        ustarts, usizes, _ = _group_offsets(us)
        minh, maxh = hs[ustarts], hs[ustarts + usizes - 1]
        span = maxh - minh + 1
        total = int(span.sum())
        seg0 = np.r_[0, np.cumsum(span)[:-1]]  # output offset per user
        out_uid = np.repeat(us[ustarts], span)
        out_h = (
            np.arange(total, dtype=np.int64)
            - np.repeat(seg0, span)
            + np.repeat(minh, span)
        )
        n_events = np.zeros(total, dtype=np.int64)
        iu = np.repeat(np.arange(len(ustarts)), usizes)  # user idx per pair
        n_events[seg0[iu] + (hs - minh[iu])] = cnt
        cs = np.cumsum(n_events)
        base = cs[seg0] - n_events[seg0]
        cum = cs - np.repeat(base, span)
        return pa.table(
            {
                "user_id": pa.array(out_uid, pa.int64()),
                "h": pa.array(out_h, pa.int64()),
                "n_events": pa.array(n_events, pa.int64()),
                "cum_events": pa.array(cum, pa.int64()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(per_bucket, batch_format="pandas")
    )
