"""Iterative graph algorithms over edge Datasets (power iteration).

PageRank-style rank propagation expressed as per-iteration
co-partitioned exchanges — the same union-tag → coarse-bucket →
vectorized in-bucket merge dataflow as ``cluster.connected_components``
(no driver-side adjacency, no broadcast of the rank vector): each
iteration is (1) attach ranks to out-edges by co-bucketing edges on
``src`` with rank rows on ``node``, emitting lattice-snapped
contributions keyed by ``dst``; (2) co-bucket contributions with the
node universe and sum, producing the next rank table.  Rank values are
snapped to the 2^-20 lattice (``functions/rounding.snap_binary``) so
partial sums are order-free exact and the result hash-equals the
sequential DuckDB mirror.

Scale notes: the rank table is node-sized and stays distributed; both
hops shuffle only (edges + nodes) rows per iteration, bucketed by the
same coarse hash so group count stays ≫ cores but bounded.  At a real
10⁹-node graph the bucket count comes from ``cluster._adaptive_buckets``
sizing; iterations are a fixed small constant (power iteration).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import georef as G
from ..functions.rounding import snap_binary
from .cluster import _bucket_of


def _tag(key: np.ndarray, side: int, aux: np.ndarray | None,
         r: np.ndarray | None, nb: int) -> pa.Table:
    n = len(key)
    return pa.table(
        {
            "key": pa.array(key, pa.int64()),
            "side": pa.array(np.full(n, side, dtype=np.int8), pa.int8()),
            "aux": pa.array(
                aux if aux is not None else np.zeros(n, dtype=np.int64), pa.int64()
            ),
            "r": pa.array(
                r if r is not None else np.zeros(n, dtype=np.float64), pa.float64()
            ),
            "bk": pa.array(_bucket_of(key, nb), pa.int64()),
        }
    )


def pagerank(edges, nodes, src: str = "src", dst: str = "dst",
             iters: int = 3, damping: float = 0.85, teleport: float = 0.15,
             out_deg: int = 8, nb: int = 64):
    """(node, rank) after ``iters`` damped power iterations.

    ``edges``: Dataset of (src, dst) with CONSTANT out-degree
    ``out_deg`` per source (the kNN graph shape — each node emits
    exactly k edges), so the per-edge contribution is rank/out_deg with
    no per-node degree join.  ``nodes``: Dataset with a ``node`` int64
    column (the full universe; nodes without in-edges decay to the
    teleport term).  r₀ = 1.0.
    """

    def edge_rows(b: pa.Table) -> pa.Table:
        s = np.asarray(b[src].to_numpy(), dtype=np.int64)
        d = np.asarray(b[dst].to_numpy(), dtype=np.int64)
        return _tag(key=s, side=0, aux=d, r=None, nb=nb)

    def node_rows(b: pa.Table) -> pa.Table:
        k = np.asarray(b["node"].to_numpy(), dtype=np.int64)
        return _tag(key=k, side=1, aux=None, r=None, nb=nb)

    edge_tagged = edges.map_batches(edge_rows, batch_format="pyarrow").materialize()
    node_tagged = nodes.map_batches(node_rows, batch_format="pyarrow").materialize()

    def init_rank(b: pa.Table) -> pa.Table:
        return b.set_column(
            b.schema.get_field_index("r"),
            "r",
            pa.array(np.ones(len(b), dtype=np.float64), pa.float64()),
        )

    ranks = node_tagged.map_batches(init_rank, batch_format="pyarrow")

    # NOTE: ``teleport`` is a separate literal, NOT computed as
    # 1.0 - damping — the float64 results differ in the last bit and the
    # oracle SQL writes the literal; division by out_deg (not
    # multiplication by a reciprocal) likewise mirrors the SQL op.
    deg = float(out_deg)

    for _ in range(iters):
        # hop 1: edges(key=src) ⋈ ranks(key=node) → contributions keyed dst
        def contribute(g: pd.DataFrame) -> pa.Table:
            rmap = g[g["side"] == 1].set_index("key")["r"]
            e = g[g["side"] == 0]
            c = snap_binary(rmap.reindex(e["key"].to_numpy()).to_numpy() / deg)
            dst_ids = e["aux"].to_numpy(np.int64)
            # arrow output: unions with the arrow-blocked node/edge tables
            return pa.table(
                {
                    "key": pa.array(dst_ids, pa.int64()),
                    "side": pa.array(np.zeros(len(e), dtype=np.int8), pa.int8()),
                    "aux": pa.array(np.zeros(len(e), dtype=np.int64), pa.int64()),
                    "r": pa.array(c, pa.float64()),
                    "bk": pa.array(_bucket_of(dst_ids, nb), pa.int64()),
                }
            )

        contribs = (
            edge_tagged.union(ranks)
            .groupby("bk")
            .map_groups(contribute, batch_format="pandas")
        )

        # hop 2: contributions(key=dst) + node universe → next ranks
        def accumulate(g: pd.DataFrame) -> pa.Table:
            nodes_g = g[g["side"] == 1]["key"].to_numpy(np.int64)
            c = g[g["side"] == 0]
            s = (
                c.groupby("key")["r"].sum().reindex(nodes_g).fillna(0.0).to_numpy()
            )
            r_new = snap_binary(teleport + damping * s)
            return pa.table(
                {
                    "key": pa.array(nodes_g, pa.int64()),
                    "side": pa.array(np.ones(len(nodes_g), dtype=np.int8), pa.int8()),
                    "aux": pa.array(np.zeros(len(nodes_g), dtype=np.int64), pa.int64()),
                    "r": pa.array(r_new, pa.float64()),
                    "bk": pa.array(_bucket_of(nodes_g, nb), pa.int64()),
                }
            )

        # materialize each iteration: measured 3-4× FASTER than letting
        # the three iterations chain into one lazy DAG (stacked
        # union+groupby plans re-plan poorly; 17-27 s vs 72 s at n=4000)
        ranks = (
            contribs.union(node_tagged)
            .groupby("bk")
            .map_groups(accumulate, batch_format="pandas")
            .materialize()
        )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["key"], "rank": b["r"]})

    return ranks.map_batches(finish, batch_format="pyarrow")


# broadcast-rank threshold: ids + ranks = 16 B/node, 4M nodes = 64 MB —
# comfortably ray.put-able; beyond this the co-partitioned exchange
# path above is the design (a 10⁹-node rank vector cannot broadcast).
BROADCAST_NODE_LIMIT = 4_000_000


def pagerank_broadcast(edges, node_ids: np.ndarray, src: str = "src",
                       dst: str = "dst", iters: int = 3,
                       damping: float = 0.85, teleport: float = 0.15,
                       out_deg: int = 8, nb: int = 64):
    """Broadcast-rank power iteration — bit-identical to :func:`pagerank`
    (same snapped contributions, same op order), ONE bounded exchange
    per iteration instead of two:

    - the rank vector rides to every edge task via ``ray.put`` (no
      rank-side shuffle for the src join);
    - each edge batch pre-sums snapped contributions per ``dst``
      (combiner — lattice sums are order-free exact), so the single
      grouped aggregate moves ≤ distinct-dst rows per batch;
    - the node-sized aggregate lands on the driver (bounded by the same
      broadcast threshold) where the damping update is one vector op.

    Valid while the rank vector fits ``BROADCAST_NODE_LIMIT``; the
    caller (:func:`pagerank_auto`) switches paths on node count.
    """
    import ray

    from .zonal import bucketed_agg

    node_ids = np.sort(np.asarray(node_ids, dtype=np.int64))
    ids_ref = ray.put(node_ids)
    deg = float(out_deg)
    r = np.ones(len(node_ids), dtype=np.float64)

    edges_only = edges.map_batches(
        lambda b: pa.table(
            {
                "src": pa.array(b[src].to_numpy().astype(np.int64)),
                "dst": pa.array(b[dst].to_numpy().astype(np.int64)),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(iters):
        r_ref = ray.put(r)

        def contribute(b: pa.Table, _r=r_ref) -> pd.DataFrame:
            ids = ray.get(ids_ref)
            rv = ray.get(_r)
            s = b["src"].to_numpy()
            c = snap_binary(rv[np.searchsorted(ids, s)] / deg)
            g = (
                pd.DataFrame({"key": b["dst"].to_numpy(), "c": c})
                .groupby("key", as_index=False)["c"]
                .sum()
            )
            return g

        agg = bucketed_agg(
            edges_only.map_batches(contribute, batch_format="pyarrow"),
            ["key"],
            {"c": ("c", "sum")},
            nb=nb,
        ).to_pandas()
        s = (
            agg.set_index("key")["c"].reindex(node_ids).fillna(0.0).to_numpy()
        )
        r = snap_binary(teleport + damping * s)

    return pd.DataFrame({"node": node_ids, "rank": r})


# ---------------------------------------------------------------------------
# triangle counting (degree-oriented node-iterator)
# ---------------------------------------------------------------------------

_WEDGE_CHUNK = 1 << 18  # bounded pair temporaries (see BASELINE host lesson)


def _pair_bucket(u: np.ndarray, v: np.ndarray, nb: int) -> np.ndarray:
    """Symmetric deterministic bucket for an (u, v) pair — hash each
    endpoint separately and xor, so no combined integer key is needed
    (a ``u * C + v`` key would overflow int64 at 10⁹⁺ node ids)."""
    return ((G.derive_key(u) ^ G.derive_key(v)) % nb).astype(np.int64)


def _empty_edges() -> pa.Table:
    return pa.table(
        {
            "u": pa.array([], pa.int64()),
            "v": pa.array([], pa.int64()),
            "bk": pa.array([], pa.int64()),
        }
    )


def triangle_counts(edges, src: str = "src", dst: str = "dst", nb: int = 64):
    """(node, n_triangles) over the UNDIRECTED closure of a directed
    edge Dataset — each unordered {u, v, w} with all three edges present
    contributes 1 to every member.

    Degree-oriented node-iterator (the MapReduce-classic triangle
    scheme): orient every undirected edge from its lower-(degree, id)
    endpoint to the higher one — then each triangle has exactly ONE
    node with two out-edges (its minimum in that total order), so
    emitting out-neighbor pairs ("wedges") from every node and joining
    them against the edge set counts each triangle exactly once, and no
    node's out-adjacency exceeds O(√m) regardless of how skewed the raw
    degree distribution is (the hub's wedges are generated by its many
    low-degree neighbors, not by the hub).

    Dataflow — four coarse-bucketed exchanges, state never exceeds
    O(edges + wedges), nothing node-sized touches the driver:

    1. canonicalize + dedup pairs        (bucket on symmetric pair hash)
    2. degree count                       (bucketed_agg on node)
    3. attach deg to both endpoints       (two union-tag hops, like
                                           ``pagerank``'s contribute)
    4. wedge emission, chunked            (bucket on src, runs via
                                           repeat/cumsum — no per-node
                                           Python loop)
    5. wedge ⋈ edge on the pair bucket → unnest 3 nodes → bucketed count
    """
    from .zonal import bucketed_agg

    def canon(b: pa.Table) -> pa.Table:
        s = np.asarray(b[src].to_numpy(), dtype=np.int64)
        d = np.asarray(b[dst].to_numpy(), dtype=np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u, v = np.minimum(s, d), np.maximum(s, d)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "bk": pa.array(_pair_bucket(u, v, nb), pa.int64()),
            }
        )

    def dedup_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.drop_duplicates(["u", "v"])
        return pa.table(
            {
                "u": pa.array(g["u"].to_numpy(np.int64), pa.int64()),
                "v": pa.array(g["v"].to_numpy(np.int64), pa.int64()),
                "bk": pa.array(g["bk"].to_numpy(np.int64), pa.int64()),
            }
        )

    und = (
        edges.map_batches(canon, batch_format="pyarrow")
        .groupby("bk")
        .map_groups(dedup_bucket, batch_format="pandas")
        .materialize()  # reused three times (degrees, hop A, closing join)
    )

    def endpoints(b: pa.Table) -> pd.DataFrame:
        u = b["u"].to_numpy()
        v = b["v"].to_numpy()
        return pd.DataFrame(
            {
                "node": np.concatenate([u, v]),
                "one": np.ones(2 * len(u), dtype=np.int64),
            }
        )

    degs = bucketed_agg(
        und.map_batches(endpoints, batch_format="pyarrow"),
        ["node"],
        {"deg": ("one", "sum")},
        nb=max(nb, 64),
    ).materialize()

    # --- attach degrees: union-tag exchange, keyed u then keyed v ------
    def _tagged(key, side, a1, a2) -> pa.Table:
        n = len(key)
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "side": pa.array(np.full(n, side, dtype=np.int8), pa.int8()),
                "a1": pa.array(a1, pa.int64()),
                "a2": pa.array(
                    a2 if a2 is not None else np.zeros(n, dtype=np.int64),
                    pa.int64(),
                ),
                "kb": pa.array(_bucket_of(key, nb), pa.int64()),
            }
        )

    def deg_rows(b: pa.Table) -> pa.Table:
        k = np.asarray(b["node"].to_numpy(), dtype=np.int64)
        return _tagged(k, 1, np.asarray(b["deg"].to_numpy(), dtype=np.int64), None)

    deg_tagged = degs.map_batches(deg_rows, batch_format="pyarrow")

    def edge_by_u(b: pa.Table) -> pa.Table:
        return _tagged(
            np.asarray(b["u"].to_numpy(), dtype=np.int64),
            0,
            np.asarray(b["v"].to_numpy(), dtype=np.int64),
            None,
        )

    def attach_u(g: pd.DataFrame) -> pa.Table:
        dmap = g[g["side"] == 1].set_index("key")["a1"]
        e = g[g["side"] == 0]
        if not len(e):
            return _empty_tri_hop()
        u = e["key"].to_numpy(np.int64)
        v = e["a1"].to_numpy(np.int64)
        du = dmap.reindex(u).to_numpy(np.int64)
        return pa.table(
            {
                "key": pa.array(v, pa.int64()),  # next hop keys on v
                "side": pa.array(np.zeros(len(e), dtype=np.int8), pa.int8()),
                "a1": pa.array(u, pa.int64()),
                "a2": pa.array(du, pa.int64()),
                "kb": pa.array(_bucket_of(v, nb), pa.int64()),
            }
        )

    def _empty_tri_hop() -> pa.Table:
        return pa.table(
            {
                "key": pa.array([], pa.int64()),
                "side": pa.array([], pa.int8()),
                "a1": pa.array([], pa.int64()),
                "a2": pa.array([], pa.int64()),
                "kb": pa.array([], pa.int64()),
            }
        )

    hop_u = (
        und.map_batches(edge_by_u, batch_format="pyarrow")
        .union(deg_tagged)
        .groupby("kb")
        .map_groups(attach_u, batch_format="pandas")
    )

    def orient_and_wedge(g: pd.DataFrame) -> pa.Table:
        dmap = g[g["side"] == 1].set_index("key")["a1"]
        e = g[g["side"] == 0]
        if not len(e):
            return _empty_edges()
        v = e["key"].to_numpy(np.int64)
        u = e["a1"].to_numpy(np.int64)
        du = e["a2"].to_numpy(np.int64)
        dv = dmap.reindex(v).to_numpy(np.int64)
        # orient low (deg, id) → high (deg, id)
        u_first = (du < dv) | ((du == dv) & (u < v))
        s_o = np.where(u_first, u, v)
        d_o = np.where(u_first, v, u)
        return pa.table(
            {
                "u": pa.array(s_o, pa.int64()),
                "v": pa.array(d_o, pa.int64()),
                "bk": pa.array(_bucket_of(s_o, nb), pa.int64()),
            }
        )

    oriented = (
        hop_u.union(deg_tagged)
        .groupby("kb")
        .map_groups(orient_and_wedge, batch_format="pandas")
    )

    def wedges(g: pd.DataFrame) -> pa.Table:
        s = g["u"].to_numpy(np.int64)
        d = g["v"].to_numpy(np.int64)
        order = np.lexsort((d, s))
        s, d = s[order], d[order]
        n = len(s)
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        ends = np.r_[starts[1:], n]
        # pair row x with the next c[x] rows of its own run (sorted, so
        # neighbor pairs come out ordered within the run)
        c = np.repeat(ends, ends - starts) - 1 - np.arange(n)
        csum = np.concatenate([[0], np.cumsum(c)])
        total = int(csum[-1])
        out_a, out_b, out_x = [], [], []
        for p0 in range(0, total, _WEDGE_CHUNK):
            p1 = min(p0 + _WEDGE_CHUNK, total)
            a = int(np.searchsorted(csum, p0, side="right")) - 1
            b = int(np.searchsorted(csum, p1, side="left"))
            rr = np.arange(a, b)
            cc, cs = c[a:b], csum[a:b]
            ii = np.repeat(rr, cc)
            jj = np.arange(csum[a], csum[b]) - np.repeat(cs, cc) + ii + 1
            lo = p0 - int(csum[a])
            ii, jj = ii[lo:lo + (p1 - p0)], jj[lo:lo + (p1 - p0)]
            out_a.append(d[ii])
            out_b.append(d[jj])
            out_x.append(s[ii])
        if not out_a:
            return pa.table(
                {
                    "w1": pa.array([], pa.int64()),
                    "w2": pa.array([], pa.int64()),
                    "apex": pa.array([], pa.int64()),
                    "bk": pa.array([], pa.int64()),
                }
            )
        w1 = np.concatenate(out_a)
        w2 = np.concatenate(out_b)
        apex = np.concatenate(out_x)
        lo_, hi_ = np.minimum(w1, w2), np.maximum(w1, w2)
        return pa.table(
            {
                "w1": pa.array(lo_, pa.int64()),
                "w2": pa.array(hi_, pa.int64()),
                "apex": pa.array(apex, pa.int64()),
                "bk": pa.array(_pair_bucket(lo_, hi_, nb), pa.int64()),
            }
        )

    wedge_ds = oriented.groupby("bk").map_groups(wedges, batch_format="pandas")

    # --- closing join: wedge (w1,w2) must be an edge ---------------------
    def edge_side(b: pa.Table) -> pa.Table:
        n = len(b)
        return pa.table(
            {
                "w1": b["u"],
                "w2": b["v"],
                "apex": pa.array(np.full(n, -1, dtype=np.int64), pa.int64()),
                "bk": b["bk"],
            }
        )

    def close_bucket(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["apex"] < 0][["w1", "w2"]]
        w = g[g["apex"] >= 0]
        if not len(w) or not len(e):
            return pd.DataFrame(
                {"node": np.array([], dtype=np.int64),
                 "one": np.array([], dtype=np.int64)}
            )
        m = w.merge(e.drop_duplicates(), on=["w1", "w2"], how="inner")
        tri_nodes = np.concatenate(
            [m["apex"].to_numpy(np.int64),
             m["w1"].to_numpy(np.int64),
             m["w2"].to_numpy(np.int64)]
        )
        return pd.DataFrame(
            {"node": tri_nodes, "one": np.ones(len(tri_nodes), dtype=np.int64)}
        )

    tri_nodes = (
        und.map_batches(edge_side, batch_format="pyarrow")
        .union(wedge_ds)
        .groupby("bk")
        .map_groups(close_bucket, batch_format="pandas")
    )

    out = bucketed_agg(
        tri_nodes, ["node"], {"n_triangles": ("one", "sum")}, nb=max(nb, 64)
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.array(
                    np.asarray(b["node"].to_numpy(), dtype=np.int64), pa.int64()
                ),
                "n_triangles": pa.array(
                    np.asarray(b["n_triangles"].to_numpy(), dtype=np.int64),
                    pa.int64(),
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# k-core decomposition (iterative peel to fixpoint)
# ---------------------------------------------------------------------------


def _kcore_tag(key: np.ndarray, side: int, other: np.ndarray | None,
               nb: int) -> pa.Table:
    n = len(key)
    return pa.table(
        {
            "key": pa.array(key, pa.int64()),
            "side": pa.array(np.full(n, side, dtype=np.int8), pa.int8()),
            "other": pa.array(
                other if other is not None else np.zeros(n, dtype=np.int64),
                pa.int64(),
            ),
            "kb": pa.array(_bucket_of(key, nb), pa.int64()),
        }
    )


def _kcore_empty() -> pa.Table:
    return pa.table(
        {
            "key": pa.array([], pa.int64()),
            "side": pa.array([], pa.int8()),
            "other": pa.array([], pa.int64()),
            "kb": pa.array([], pa.int64()),
        }
    )


def kcore(edges, k: int, src: str = "src", dst: str = "dst", nb: int = 64,
          max_rounds: int = 64):
    """(node, core_deg) for every node of the k-core of the UNDIRECTED
    closure of ``edges`` — the maximal subgraph where every node keeps
    degree ≥ k — with core_deg its degree inside that subgraph.

    Iterative peel: each round deletes ALL nodes whose current degree
    is < k (and their edges) simultaneously, until a fixpoint.  Per
    round the dataflow is one bucketed degree aggregate plus two
    union-tag co-partitioned hops (drop edges whose u — then whose v —
    is in this round's removed set); only the removed-node rows ride
    the exchange besides the surviving edges, and nothing node-sized
    touches the driver (the per-round stop check is a scalar count).

    Round count is graph-dependent: bounded-degree neighborhood graphs
    (the kNN stitch graph) converge in a handful of rounds; a path
    graph peeled at k=2 is the O(n)-round adversary, which
    ``max_rounds`` guards with a loud failure rather than silent
    truncation."""
    import pyarrow.compute as pc

    from .zonal import bucketed_agg

    # undirected closure, deduped by symmetric pair bucket
    def canon(b: pa.Table) -> pa.Table:
        s = np.asarray(b[src].to_numpy(), dtype=np.int64)
        d = np.asarray(b[dst].to_numpy(), dtype=np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u, v = np.minimum(s, d), np.maximum(s, d)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "bk": pa.array(_pair_bucket(u, v, nb), pa.int64()),
            }
        )

    def dedup_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.drop_duplicates(["u", "v"])
        return pa.table(
            {
                "u": pa.array(g["u"].to_numpy(np.int64), pa.int64()),
                "v": pa.array(g["v"].to_numpy(np.int64), pa.int64()),
                "bk": pa.array(g["bk"].to_numpy(np.int64), pa.int64()),
            }
        )

    und = (
        edges.map_batches(canon, batch_format="pyarrow")
        .groupby("bk")
        .map_groups(dedup_bucket, batch_format="pandas")
        .materialize()
    )
    if und.count() == 0:
        return _empty_kcore_result()

    def endpoints(b: pa.Table) -> pd.DataFrame:
        u = b["u"].to_numpy()
        v = b["v"].to_numpy()
        return pd.DataFrame(
            {
                "node": np.concatenate([u, v]),
                "one": np.ones(2 * len(u), dtype=np.int64),
            }
        )

    def degrees(es):
        return bucketed_agg(
            es.map_batches(endpoints, batch_format="pyarrow"),
            ["node"],
            {"deg": ("one", "sum")},
            nb=max(nb, 64),
        )

    def drop_hop(es, removed, edge_key: str, edge_other: str):
        """One co-partitioned hop: drop edges whose ``edge_key``
        endpoint appears in the removed-node rows."""

        def edge_rows(b: pa.Table) -> pa.Table:
            return _kcore_tag(
                np.asarray(b[edge_key].to_numpy(), dtype=np.int64),
                0,
                np.asarray(b[edge_other].to_numpy(), dtype=np.int64),
                nb,
            )

        def removed_rows(b: pa.Table) -> pa.Table:
            return _kcore_tag(
                np.asarray(b["node"].to_numpy(), dtype=np.int64), 1, None, nb
            )

        def keep(g: pd.DataFrame) -> pa.Table:
            gone = g[g["side"] == 1]["key"].to_numpy(np.int64)
            e = g[g["side"] == 0]
            if not len(e):
                return _kcore_empty()
            kk = e["key"].to_numpy(np.int64)
            oo = e["other"].to_numpy(np.int64)
            m = ~np.isin(kk, gone)
            # re-key the surviving edges on the OTHER endpoint so the
            # next hop (or the degree pass) can group on it directly
            return _kcore_tag(oo[m], 0, kk[m], nb)

        return (
            es.map_batches(edge_rows, batch_format="pyarrow")
            .union(removed.map_batches(removed_rows, batch_format="pyarrow"))
            .groupby("kb")
            .map_groups(keep, batch_format="pandas")
        )

    import ray

    for _ in range(max_rounds):
        deg = degrees(und).materialize()
        removed = deg.map_batches(
            lambda b: b.filter(pc.less(b["deg"], k)).select(["node"]),
            batch_format="pyarrow",
        ).materialize()
        n_removed = removed.count()
        if n_removed == 0:
            out = deg.map_batches(
                lambda b: pa.table(
                    {
                        "node": pa.array(
                            np.asarray(b["node"].to_numpy(), dtype=np.int64),
                            pa.int64(),
                        ),
                        "core_deg": pa.array(
                            np.asarray(b["deg"].to_numpy(), dtype=np.int64),
                            pa.int64(),
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
            return out

        if n_removed <= BROADCAST_NODE_LIMIT:
            # broadcast fast path (pagerank_broadcast precedent): the
            # per-round removed set is bounded — ship it once via
            # ray.put and drop edges with an in-batch isin filter, NO
            # shuffle; block count is preserved so no repartition is
            # needed either.  The exchange path below remains for a
            # removed set too large to broadcast.
            gone_ids = np.sort(
                removed.to_pandas()["node"].to_numpy().astype(np.int64)
            )
            gone_ref = ray.put(gone_ids)

            def drop_bcast(b: pa.Table, _g=gone_ref) -> pa.Table:
                gone = ray.get(_g)
                uu = b["u"].to_numpy()
                vv = b["v"].to_numpy()
                m = ~(np.isin(uu, gone) | np.isin(vv, gone))
                return b.filter(pa.array(m))

            und = und.map_batches(
                drop_bcast, batch_format="pyarrow"
            ).materialize()
            if und.count() == 0:
                return _empty_kcore_result()
            continue

        hop1 = drop_hop(und, removed, "u", "v")   # rows keyed on v

        hop2 = drop_hop(
            hop1.map_batches(
                lambda b: pa.table(
                    {
                        "u": b["other"],
                        "v": b["key"],
                        "bk": b["kb"],
                    }
                ),
                batch_format="pyarrow",
            ),
            removed,
            "v",
            "u",
        )
        und = hop2.map_batches(
            lambda b: pa.table(
                {
                    "u": pa.array(
                        np.asarray(b["key"].to_numpy(), dtype=np.int64), pa.int64()
                    ),
                    "v": pa.array(
                        np.asarray(b["other"].to_numpy(), dtype=np.int64),
                        pa.int64(),
                    ),
                    "bk": pa.array(
                        _pair_bucket(
                            np.asarray(b["key"].to_numpy(), dtype=np.int64),
                            np.asarray(b["other"].to_numpy(), dtype=np.int64),
                            nb,
                        ),
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        # pin the block count: each round's union→shuffle→union→shuffle
        # chain roughly TRIPLES the block count of its input, so without
        # this the task count grows 3^round and per-round wall time
        # explodes (measured 22 s → 65 s → 100+ s per round at 115k
        # edges); a fixed-width repartition before the round barrier
        # keeps every round the same shape
        und = und.repartition(nb).materialize()
        if und.count() == 0:
            return _empty_kcore_result()
    raise RuntimeError(f"kcore did not converge within {max_rounds} rounds")


def _empty_kcore_result() -> pd.DataFrame:
    # a typed empty PANDAS frame, not an empty Dataset: Ray drops the
    # schema when converting an empty Dataset to pandas, which would
    # strip the (node, core_deg) columns downstream.  Mixed return type
    # follows the pagerank_broadcast precedent (bounded result).
    return pd.DataFrame(
        {
            "node": pd.Series([], dtype="int64"),
            "core_deg": pd.Series([], dtype="int64"),
        }
    )
