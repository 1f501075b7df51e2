"""Distributed connected components over near-dup pair edges.

The corpus-dedup completion step the pair operators feed: MinHash /
SimHash / phash emit EDGES of a sparse similarity graph; cluster
assignment = connected components; keep-one-per-cluster / cluster-size
filters follow.  (The reference stops at per-key upsert dedup of result
rows — `result_writer_v3.py` — pair→cluster resolution is part of the
beyond-reference LLM-corpus toolkit, alongside `stages/dedup.py`.)

Algorithm: min-label propagation to fixpoint,

    label[v]  <-  min(label[v], min over neighbors u of label[u])

expressed so each round costs ONE co-partitioned shuffle.  Round state
is the edge list with source labels attached, plus one self row per
node carrying its current label:

    (src, dst, lbl_src)        for every directed edge
    (v,   v,   lbl_v)          one self row per node

Grouping by ``bucket(dst)`` gives every node v all incoming labels; the
group computes ``new_lbl_v`` and — because the symmetric edge set makes
incoming(v) the mirror of outgoing(v) — emits the NEXT round's state
directly: ``(v, u, new_lbl_v)`` for each incoming ``(u, v, ·)`` plus
the refreshed self row.  No separate labels→edges join ever happens.
Each round also emits SHORTCUT edges ``(new_lbl_v, u)`` (hash-to-min
acceleration, Rastogi et al.): neighbors connect directly to the
current minimum and mirror back to it next round, so min-to-node
distances shrink geometrically — O(log diameter) rounds, not
O(diameter).  Duplicate (src, dst) rows are collapsed in-group, so
state stays O(E + V·rounds).

Scale shape:

- Round state is O(E + V) of the PAIR graph — the corpus is never
  touched; one bucket shuffle per round.
- State MATERIALIZES each round: an iterative fixpoint must checkpoint
  or Dataset lineage re-executes every prior round from scratch.
- Convergence is a `sum("changed")` on the already-materialized round
  output (driver holds one integer); near-dup components have tiny
  diameter so a handful of rounds suffices, with `max_iters` as a
  safety bound.
- Buckets key on `hash(node) % n_buckets` (Knuth multiplicative hash),
  sized to the edge count: group count grows with data for shuffle
  parallelism but stays coarse enough to amortize per-group dispatch —
  skewed components spread across buckets because bucketing keys on
  NODE, not on component.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import georef as G


def _bucket_of(ids: np.ndarray, nb: int) -> np.ndarray:
    return (G.derive_key(np.asarray(ids, dtype=np.int64)) % nb).astype(np.int64)


def _adaptive_buckets(n_edges: int) -> int:
    """~4k state rows per bucket, floor 32, cap 4096 (same sizing logic
    as ``dedup.adaptive_n_coarse``: amortize per-group dispatch, keep
    group count ≫ cores as data grows)."""
    return int(np.clip(n_edges // 4096, 32, 4096))


def connected_components(
    pairs,
    a: str = "a",
    b: str = "b",
    n_buckets: int | None = None,
    max_iters: int = 50,
    on_round=None,
):
    """(node, lbl) per node appearing in ``pairs``; ``lbl`` is the
    minimum node id of the node's connected component.  Nodes in no
    pair are singletons by definition and are not emitted (output stays
    bounded by the pair set)."""

    def init_state(batch: pa.Table) -> pa.Table:
        ua = np.asarray(batch[a].to_numpy(), dtype=np.int64)
        ub = np.asarray(batch[b].to_numpy(), dtype=np.int64)
        # directed both ways + one self row per endpoint mention (the
        # first reduce collapses duplicate self rows)
        src = np.concatenate([ua, ub, ua, ub])
        dst = np.concatenate([ub, ua, ua, ub])
        lbl = src.copy()
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "lbl": pa.array(lbl, pa.int64()),
                "sc": pa.array(np.zeros(len(src), dtype=np.int8), pa.int8()),
            }
        )

    state = pairs.map_batches(init_state, batch_format="pyarrow").materialize()
    nb = n_buckets or _adaptive_buckets(state.count())

    def bucketed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "bk", pa.array(_bucket_of(t["dst"].to_numpy(), nb), pa.int64())
        )

    for _ in range(max_iters):

        def step(g: pd.DataFrame) -> pd.DataFrame:
            src = g["src"].to_numpy(np.int64)
            dst = g["dst"].to_numpy(np.int64)
            lbl = g["lbl"].to_numpy(np.int64)
            sc = g["sc"].to_numpy(np.int8)
            # collapse duplicate (src, dst) rows — init emits duplicate
            # self rows, and shortcut emission can produce the same pair
            # from two source groups — keeping the best label and the
            # strongest kind (original edge beats shortcut)
            order = np.lexsort((src, dst))
            src, dst, lbl, sc = src[order], dst[order], lbl[order], sc[order]
            starts = np.flatnonzero(
                np.r_[True, (dst[1:] != dst[:-1]) | (src[1:] != src[:-1])]
            )
            src, dst = src[starts], dst[starts]
            lbl = np.minimum.reduceat(lbl, starts)
            sc = np.minimum.reduceat(sc, starts)
            is_self = src == dst
            df = pd.DataFrame({"dst": dst, "lbl": lbl})
            new = df.groupby("dst")["lbl"].min()
            old = pd.Series(lbl[is_self], index=dst[is_self])
            changed = new.to_numpy() < old.reindex(new.index).to_numpy()
            # SHORTCUT RETIREMENT — the giant-component state bound.
            # Un-pruned hash-to-min accumulates a shortcut pair to every
            # STALE minimum a node ever heard from; on a high-diameter
            # supercritical DBSCAN instance the round state grew 46M →
            # 165M rows over 19 rounds, the last round costing more than
            # the whole pipeline.  A shortcut row is re-emitted (as its
            # mirror) ONLY while it still serves a purpose:
            #   - its dst is the CURRENT minimum it names (hub keeps its
            #     member list — that is the min-to-all broadcast set,
            #     bounded by component size, i.e. by the output);
            #   - or its src is the current minimum (a member's pointer
            #     to its min, one surviving row per node after dedup);
            #   - or it still carries news (lbl > new(dst)): forwarded
            #     ONE more time as a notify mirror so the stale node
            #     hears the better label, then retired.
            # Equal-label shortcuts between two non-minimum nodes — the
            # ping-pong pairs that caused the growth — drop silently.
            # Connectivity is never pruned (sc=0 originals always
            # mirror), so the fixpoint is untouched; fresh shortcuts
            # re-emit from every group every round, so acceleration
            # survives.  Steady-state size is O(E + V).
            nv = new.reindex(dst).to_numpy(np.int64)
            mir = (~is_self) & (
                (sc == 0) | (dst == nv) | (src == nv) | (lbl > nv)
            )
            # mirror emission: next round's outgoing edges of each node
            # carry its refreshed label (preserves connectivity)
            e_src, e_dst = dst[mir], src[mir]
            e_sc = sc[mir]
            new_lbl = nv[mir]
            # shortcut emission (hash-to-min acceleration): every
            # neighbor u of v also gets a DIRECT edge from v's current
            # minimum, so min-to-node distances shrink geometrically —
            # O(log diameter) rounds instead of O(diameter).  Next
            # round u mirrors it back, so the minimum also hears from u
            # directly ("all-to-min / min-to-all").
            s_keep = (new_lbl != e_src) & (new_lbl != e_dst)
            nodes = new.index.to_numpy(np.int64)
            out = pd.DataFrame(
                {
                    "src": np.concatenate([e_src, new_lbl[s_keep], nodes]),
                    "dst": np.concatenate([e_dst, e_dst[s_keep], nodes]),
                    "lbl": np.concatenate(
                        [new_lbl, new_lbl[s_keep], new.to_numpy(np.int64)]
                    ),
                    "sc": np.concatenate(
                        [
                            e_sc,
                            np.ones(int(s_keep.sum()), dtype=np.int8),
                            np.zeros(len(nodes), dtype=np.int8),
                        ]
                    ),
                    "changed": np.concatenate(
                        [
                            np.zeros(len(e_src) + int(s_keep.sum()), dtype=np.int64),
                            changed.astype(np.int64),
                        ]
                    ),
                }
            )
            # metadata-free typed Arrow: pandas-footer schemas are
            # unhashable and break shuffle-concat schema dedup
            return pa.Table.from_pandas(
                out, preserve_index=False
            ).replace_schema_metadata(None)

        import time as _time

        _t0 = _time.time() if on_round else 0.0
        state = (
            state.map_batches(bucketed, batch_format="pyarrow")
            .groupby("bk")
            .map_groups(step, batch_format="pandas")
            .materialize()
        )
        n_changed = state.sum("changed")
        if on_round:
            on_round(state.count(), int(n_changed), _time.time() - _t0)
        if not n_changed:
            break

    def self_rows(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.equal(t["src"], t["dst"]))
        return pa.table({"node": t["src"], "lbl": t["lbl"]})

    return state.map_batches(self_rows, batch_format="pyarrow")


def with_cluster_sizes(labels, n_buckets: int | None = None):
    """(node, lbl, cluster_size): one bucket shuffle keyed on the
    cluster label — a component lives entirely in one bucket, so the
    size count is local to the group."""
    nb = n_buckets or 1024

    def tag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t["node"],
                "lbl": t["lbl"],
                "bl": pa.array(_bucket_of(t["lbl"].to_numpy(), nb), pa.int64()),
            }
        )

    def sizes(g: pd.DataFrame) -> pd.DataFrame:
        out = g[["node", "lbl"]].copy()
        out["cluster_size"] = (
            g.groupby("lbl")["node"].transform("size").to_numpy(np.int64)
        )
        return out

    return (
        labels.map_batches(tag, batch_format="pyarrow")
        .groupby("bl")
        .map_groups(sizes, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# alternating star rounds (round 4) — the STATE-BOUNDED big-graph path.
#
# The min-label + hash-to-min rounds above are fast on the tiny-diameter
# components near-dup graphs actually have, but on an EXTREME-diameter
# graph (measured: a 10^6-node path + 5M random edges) the shortcut set
# grows superlinearly mid-convergence (30M → 116M state rows by round 9
# even with retirement) — a known hash-to-min property.  Alternating
# large-star / small-star (Kiveris et al., "Connected Components in
# MapReduce and Beyond", SoCC '14) keeps the round state ≤ the CURRENT
# edge multiset (≤ 2|E| rows, shrinking as components contract), groups
# on NODES (degree skew only — a component never concentrates into one
# bucket, unlike pointer-jumping-by-label), and converges in O(log² n)
# worst-case / ~log n observed rounds.  Fixpoint = a star per component
# centered on its minimum node, which IS the output labeling.
# ---------------------------------------------------------------------------


def connected_components_star(
    pairs,
    a: str = "a",
    b: str = "b",
    n_buckets: int | None = None,
    max_iters: int = 200,
    on_round=None,
):
    """Bit-identical output contract to :func:`connected_components`
    (pytest-enforced): (node, lbl = component-min node id), nodes
    appearing in ``pairs`` only."""

    def init_state(batch: pa.Table) -> pa.Table:
        ua = np.asarray(batch[a].to_numpy(), dtype=np.int64)
        ub = np.asarray(batch[b].to_numpy(), dtype=np.int64)
        m = ua != ub
        lo = np.minimum(ua[m], ub[m])
        hi = np.maximum(ua[m], ub[m])
        # canonical (small, large); self pairs contribute isolated
        # nodes, carried separately below
        return pa.table({"u": pa.array(lo, pa.int64()), "v": pa.array(hi, pa.int64())})

    state = pairs.map_batches(init_state, batch_format="pyarrow").materialize()
    n_edges = state.count()
    nb = n_buckets or _adaptive_buckets(max(n_edges, 1))

    def large_star(t: pa.Table) -> pa.Table:
        # explode both directions; group key = the node whose
        # neighborhood we examine
        u = t["u"].to_numpy()
        v = t["v"].to_numpy()
        k = np.concatenate([u, v])
        val = np.concatenate([v, u])
        return pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "val": pa.array(val, pa.int64()),
                "bk": pa.array(_bucket_of(k, nb), pa.int64()),
            }
        )

    def large_reduce(g: pd.DataFrame) -> pa.Table:
        k = g["k"].to_numpy(np.int64)
        val = g["val"].to_numpy(np.int64)
        o = np.lexsort((val, k))
        k, val = k[o], val[o]
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        ends = np.r_[starts[1:], len(k)]
        # m(k) = min(neighborhood ∪ {k}) = min(first val, k) since vals
        # sorted within key
        m = np.minimum(val[starts], k[starts])
        sizes = ends - starts
        m_rep = np.repeat(m, sizes)
        keep = val > np.repeat(k[starts], sizes)  # strictly larger nbrs
        uu, vv = m_rep[keep], val[keep]
        if len(uu) == 0:
            # every key in this bucket had only smaller neighbors (the
            # bucket holds only component maxima — common once a second
            # large pass has contracted the state): typed empty
            return pa.table(
                {"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())}
            )
        # dedup emitted (m, v) pairs within the group
        oo = np.lexsort((vv, uu))
        uu, vv = uu[oo], vv[oo]
        first = np.r_[True, (uu[1:] != uu[:-1]) | (vv[1:] != vv[:-1])]
        return pa.table(
            {
                "u": pa.array(uu[first], pa.int64()),
                "v": pa.array(vv[first], pa.int64()),
            }
        )

    def small_star(t: pa.Table) -> pa.Table:
        # orient to the LARGER endpoint: k = max, val = min
        u = t["u"].to_numpy()  # u < v by construction
        v = t["v"].to_numpy()
        return pa.table(
            {
                "k": pa.array(v, pa.int64()),
                "val": pa.array(u, pa.int64()),
                "bk": pa.array(_bucket_of(v, nb), pa.int64()),
            }
        )

    def small_reduce(g: pd.DataFrame) -> pa.Table:
        k = g["k"].to_numpy(np.int64)
        val = g["val"].to_numpy(np.int64)
        o = np.lexsort((val, k))
        k, val = k[o], val[o]
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        ends = np.r_[starts[1:], len(k)]
        m = val[starts]  # all vals < k, so min(vals ∪ {k}) = first val
        sizes = ends - starts
        m_rep = np.repeat(m, sizes)
        # connect every smaller neighbor (≠ m) AND k itself to m
        keep = val != m_rep
        uu = np.concatenate([m_rep[keep], m])
        vv = np.concatenate([val[keep], k[starts]])
        oo = np.lexsort((vv, uu))
        uu, vv = uu[oo], vv[oo]
        first = np.r_[True, (uu[1:] != uu[:-1]) | (vv[1:] != vv[:-1])]
        return pa.table(
            {
                "u": pa.array(uu[first], pa.int64()),
                "v": pa.array(vv[first], pa.int64()),
            }
        )

    def fingerprint(ds):
        # (count, checksum, checksum2) — star fixpoint detector.  TWO
        # independent order-free 63-bit hashes (different odd
        # multipliers AND a rotation on the second) make an aliasing
        # collision — which would terminate the loop early with wrong
        # labels, silently — negligible in a verifiable way: a false
        # fixpoint needs BOTH sums to collide at the same round.
        def fp(t: pa.Table) -> pa.Table:
            u = t["u"].to_numpy().astype(np.uint64)
            v = t["v"].to_numpy().astype(np.uint64)
            h1 = (u * np.uint64(0x9E3779B97F4A7C15)) ^ (v * np.uint64(0xC2B2AE3D27D4EB4F))
            m = u * np.uint64(0xD6E8FEB86659FD93) + v * np.uint64(0xA3B195354A39B70D)
            h2 = (m << np.uint64(31)) | (m >> np.uint64(33))
            mask = np.uint64((1 << 63) - 1)
            return pa.table(
                {
                    "n": pa.array([len(u)], pa.int64()),
                    "s": pa.array([int(h1.sum(dtype=np.uint64) & mask)], pa.int64()),
                    "s2": pa.array([int(h2.sum(dtype=np.uint64) & mask)], pa.int64()),
                }
            )

        t = ds.map_batches(fp, batch_format="pyarrow")
        return int(t.sum("n") or 0), int(t.sum("s") or 0), int(t.sum("s2") or 0)

    import time as _time

    def large_pass(ds):
        return (
            ds.map_batches(large_star, batch_format="pyarrow")
            .groupby("bk")
            .map_groups(large_reduce, batch_format="pandas")
        )

    prev = None
    converged = n_edges == 0
    for _ in range(max_iters if n_edges else 0):
        _t0 = _time.time()
        # Round = large-star ×2, small-star ×1.  Each star operation
        # individually preserves components and never grows the edge
        # multiset (Kiveris et al., SoCC '14 — correctness holds for
        # ANY large/small schedule reaching the joint fixpoint), and a
        # second large pass is a pointer-jumping contraction: the mins
        # computed by pass 1 are themselves re-attached to THEIR
        # neighborhood mins, so path-shaped components contract ~2
        # levels per round instead of 1 (measured: 42 → ~23 rounds on
        # the 10^6-diameter adversarial instance for ~1.3× wall-clock
        # win; see BASELINE.md).
        state = (
            large_pass(large_pass(state))
            .map_batches(small_star, batch_format="pyarrow")
            .groupby("bk")
            .map_groups(small_reduce, batch_format="pandas")
            .materialize()
        )
        cur = fingerprint(state)
        if on_round:
            on_round(cur[0], -1 if prev is None else int(cur != prev), _time.time() - _t0)
        if cur == prev:
            converged = True
            break
        prev = cur
    if not converged:
        # never return labels from a non-fixpoint state silently
        raise RuntimeError(
            f"connected_components_star: no fixpoint after {max_iters} "
            f"rounds ({n_edges} input edges) — raise max_iters"
        )

    # star fixpoint → labels: every edge is (center=min, leaf); leaves
    # label with the center, centers label themselves.  Self pairs in
    # the input contribute isolated nodes labeling themselves.  One
    # bucketed dedup keyed on node collapses duplicates.
    def star_labels(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy()
        v = t["v"].to_numpy()
        node = np.concatenate([v, u])
        lbl = np.concatenate([u, u])
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "lbl": pa.array(lbl, pa.int64()),
                "bk": pa.array(_bucket_of(node, nb), pa.int64()),
            }
        )

    def self_nodes(batch: pa.Table) -> pa.Table:
        ua = np.asarray(batch[a].to_numpy(), dtype=np.int64)
        ub = np.asarray(batch[b].to_numpy(), dtype=np.int64)
        x = ua[ua == ub]
        return pa.table(
            {
                "node": pa.array(x, pa.int64()),
                "lbl": pa.array(x, pa.int64()),
                "bk": pa.array(_bucket_of(x, nb), pa.int64()),
            }
        )

    def dedup_nodes(g: pd.DataFrame) -> pa.Table:
        node = g["node"].to_numpy(np.int64)
        lbl = g["lbl"].to_numpy(np.int64)
        o = np.lexsort((lbl, node))
        node, lbl = node[o], lbl[o]
        first = np.r_[True, node[1:] != node[:-1]]
        return pa.table(
            {
                "node": pa.array(node[first], pa.int64()),
                "lbl": pa.array(lbl[first], pa.int64()),
            }
        )

    labeled = (
        state.map_batches(star_labels, batch_format="pyarrow")
        .union(pairs.map_batches(self_nodes, batch_format="pyarrow"))
        .groupby("bk")
        .map_groups(dedup_nodes, batch_format="pandas")
    )
    if n_edges == 0:
        # degenerate input (no a≠b pairs): an all-empty map_groups
        # chain loses its schema — materialize the tiny result and
        # return the typed empty contract when nothing survives
        labeled = labeled.materialize()
        if labeled.count() == 0:
            import ray.data as rd

            return rd.from_arrow(
                pa.table(
                    {
                        "node": pa.array([], pa.int64()),
                        "lbl": pa.array([], pa.int64()),
                    }
                )
            )
    return labeled


# ---------------------------------------------------------------------------
# broadcast fast path (round 4): the PAIR graph of a near-dup job is a
# tiny, bounded side product of the corpus (edges ≈ planted dups, ~0.1%
# of rows), so below a cap it is cheaper to pull the edge list once and
# label it vectorized on the driver than to pay one bucket shuffle per
# propagation round.  The co-partitioned rounds above remain the
# 10⁹-edge design.
# ---------------------------------------------------------------------------

CC_BROADCAST_EDGE_CAP = 4_000_000


def _min_label_components(ua: np.ndarray, ub: np.ndarray):
    """Vectorized min-label propagation with pointer jumping over an
    in-memory edge list: O(E) per pass, O(log diameter) passes.
    Labels are component-minimum NODE IDS (nodes sorted ascending, so
    min index == min id).  Returns (nodes, labels)."""
    nodes, inv = np.unique(np.concatenate([ua, ub]), return_inverse=True)
    ea, eb = inv[: len(ua)], inv[len(ua):]
    lbl = np.arange(len(nodes), dtype=np.int64)
    while True:
        new = lbl.copy()
        np.minimum.at(new, ea, lbl[eb])
        np.minimum.at(new, eb, lbl[ea])
        while True:  # pointer jumping: chase labels to their fixpoint
            nxt = new[new]
            if np.array_equal(nxt, new):
                break
            new = nxt
        if np.array_equal(new, lbl):
            return nodes, nodes[lbl]
        lbl = new


def connected_components_broadcast(pairs, a: str = "a", b: str = "b"):
    """Driver-side components for a BOUNDED pair set — bit-identical
    output contract to :func:`connected_components` (pytest-enforced):
    (node, lbl=component-min node id), nodes appearing in pairs only."""
    import ray.data as rd

    df = pairs.select_columns([a, b]).to_pandas()
    if len(df) == 0:
        # empty pair set (e.g. an all-noise DBSCAN instance): pandas
        # drops the columns, so return the typed empty contract directly
        return rd.from_arrow(
            pa.table(
                {"node": pa.array([], pa.int64()), "lbl": pa.array([], pa.int64())}
            )
        )
    nodes, lbl = _min_label_components(
        df[a].to_numpy(np.int64), df[b].to_numpy(np.int64)
    )
    return rd.from_arrow(
        pa.table({"node": pa.array(nodes, pa.int64()), "lbl": pa.array(lbl, pa.int64())})
    )


def connected_components_auto(
    pairs,
    a: str = "a",
    b: str = "b",
    edge_cap: int = CC_BROADCAST_EDGE_CAP,
    **kw,
):
    """Dispatch on the materialized edge count: ≤ ``edge_cap`` edges →
    driver-side vectorized labeling (zero propagation shuffles); above
    it → the state-bounded alternating star rounds (the min-label +
    hash-to-min rounds remain available as
    :func:`connected_components` for tiny-diameter graphs where their
    single shuffle per round wins)."""
    pairs = pairs.materialize()
    if pairs.count() <= edge_cap:
        return connected_components_broadcast(pairs, a, b)
    return connected_components_star(pairs, a, b, **kw)
