"""Exact k-nearest-neighbor lookup over tile centroids, grid-bucketed.

Plays the reference's FIA radius join (``ST_DWithin … ORDER BY distance
LIMIT 50``, ``/root/reference/src/config/database_config_v3.py:104-114``)
and the STRtree/sindex nearest lookups
(``optimized_county_processor_v3.py:305-321``): for each tile, the k
nearest *other* tiles with a deterministic (distance², id) total order,
feeding the inverse-distance-weighted stitch
(``forest_analyzer_v3.py:194-243`` semantics: weight = 1/(d+0.01)).

scipy's KD-tree is unavailable; this is a uniform-grid bucket index
sized at ~``target_per_bucket`` points per square bucket of side
``cell``, stored as CSR (points sorted by bucket + per-bucket offsets).
Each query gathers the 3×3 buckets around its own: any point outside
that block is at least ``cell`` from every point of the centre bucket,
so a query whose k-th distance is below ``cell`` is answered exactly.
The rest fall back to one ring walk with the same bound (anything
outside Chebyshev ring R of the query's bucket is ≥ R·cell away), and
when k ≥ n − 1 every query is answered by one (d², id) sort of all
points, so results are EXACT — required for DuckDB-oracle equality.

Each span is floored at a share of the longer one, so collinear or
near-coincident layouts still get O(n) buckets and a bounded walk.

Scale note (10^12 rows): one global GridKNN would not fit.
``stages/knn_sharded`` partitions the tiles into square blocks of
lon/lat cells, each shard a few cells wide plus a one-cell halo, and
runs one GridKNN per shard; it checks that every k-th neighbour is
closer than a cell (the reference's radius cap plays the same role).
"""

from __future__ import annotations

import numpy as np

# fast-path query block size — see GridKNN.query docstring
_QUERY_BLOCK = 512
_NO_ID = np.iinfo(np.int64).max  # id of a padding slot: sorts after every real id


def _expand(lo: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Concatenation of the ranges [lo, lo+cnt), with no Python loop."""
    ends = cnt.cumsum()
    return np.arange(int(ends[-1]) if len(ends) else 0) - np.repeat(ends - cnt - lo, cnt)


class GridKNN:
    def __init__(self, x: np.ndarray, y: np.ndarray, ids: np.ndarray, target_per_bucket: float = 8.0):
        self.x = np.ascontiguousarray(x, dtype=np.float64)
        self.y = np.ascontiguousarray(y, dtype=np.float64)
        self.ids = np.asarray(ids, dtype=np.int64)  # int ids → fast, lexsort-able
        n = len(self.x)
        self.x0, self.y0 = (self.x.min(), self.y.min()) if n else (0.0, 0.0)
        span_x = (self.x.max() - self.x0) if n else 0.0
        span_y = (self.y.max() - self.y0) if n else 0.0
        per = target_per_bucket / max(n, 1)
        floor = max(span_x, span_y) * min(per, 1.0)
        area = max(span_x, floor) * max(span_y, floor)
        self.cell = max(np.sqrt(area * per), 1e-9)
        self.nx = int(span_x / self.cell) + 1
        self.ny = int(span_y / self.cell) + 1
        bx = np.clip(((self.x - self.x0) / self.cell).astype(np.int64), 0, self.nx - 1)
        by = np.clip(((self.y - self.y0) / self.cell).astype(np.int64), 0, self.ny - 1)
        bucket = bx * self.ny + by
        self.order = np.argsort(bucket, kind="stable")
        # bucket b holds points order[start[b]:start[b + 1]]
        self.start = np.zeros(self.nx * self.ny + 1, dtype=np.int64)
        np.cumsum(np.bincount(bucket, minlength=self.nx * self.ny), out=self.start[1:])

    def _ring_members(self, cbx: int, cby: int, ring: int) -> np.ndarray:
        """Point indices in buckets at Chebyshev distance == ring, in
        bucket order; visits only the ring's buckets inside the grid."""
        ylo, yhi = max(cby - ring, 0), min(cby + ring, self.ny - 1)
        # the ring's side columns are one bucket run each; its top and
        # bottom rows add one bucket per inner column
        inner = np.arange(max(cbx - ring + 1, 0), min(cbx + ring, self.nx))
        first = [np.array([gx * self.ny + ylo])
                 for gx in {cbx - ring, cbx + ring} if 0 <= gx < self.nx]
        last = [f + yhi - ylo for f in first]
        for gy in {cby - ring, cby + ring}:
            if 0 <= gy < self.ny and len(inner):
                first.append(inner * self.ny + gy)
                last.append(first[-1])
        if not first:
            return np.empty(0, dtype=np.int64)
        first, last = np.concatenate(first), np.concatenate(last)
        o = np.argsort(first)
        lo = self.start[first[o]]
        return self.order[_expand(lo, self.start[last[o] + 1] - lo)]

    def query(self, qx: np.ndarray, qy: np.ndarray, qids: np.ndarray, k: int):
        """Exact kNN for each query point, excluding the query's own id.

        Returns (neighbor_idx [n,k] int64 into the index arrays, padded
        with -1; d2 [n,k] float64, padded with +inf).  Neighbors are in
        (d2, id) ascending order — the documented deterministic order.

        Strategy: a fully VECTORIZED 3×3-bucket fast path answers every
        query in one batch of numpy ops: gather the 9 buckets around each
        query's own (~9·``target_per_bucket`` candidates) by CSR
        expansion, scatter (d², candidate) into dense padded matrices,
        keep k+16 finalists per row with ``argpartition`` and (d², id)-
        sort only those.  A query is accepted iff its k-th distance is
        below ``cell`` (nothing outside the block is closer) and, when
        the finalist cut dropped candidates, strictly below the cut (an
        exact-tie group cannot span it); the rest take the ring walk.

        Queries run in blocks of ``_QUERY_BLOCK``: the fast path's
        temporaries (candidate arrays + the dense finalist matrices)
        must stay a few MB, because multi-MB fresh allocations in many
        concurrent Ray workers collapse on this class of host (measured
        ~200× on 32-way: large per-call buffers → concurrent page-fault
        storms; blocked: faster than the walk, flat under parallelism).
        The queries every block leaves unaccepted take ONE ring walk
        together, so no bucket is walked once per block.  When k ≥ n − 1
        every point is a neighbour (or the query itself), and each query
        is answered by one (d², id) sort of all points instead.
        """
        qx = np.asarray(qx, dtype=np.float64)
        qy = np.asarray(qy, dtype=np.float64)
        qids = np.asarray(qids, dtype=np.int64)
        if k >= len(self.x) - 1:
            return self._query_all(qx, qy, qids, k)
        n = len(qx)
        out_idx = np.full((n, k), -1, dtype=np.int64)
        out_d2 = np.full((n, k), np.inf, dtype=np.float64)
        walk = [np.empty(0, dtype=np.int64)]
        for i in range(0, n, _QUERY_BLOCK):
            b = slice(i, i + _QUERY_BLOCK)
            ok = self._query_block(qx[b], qy[b], qids[b], k, out_idx[b], out_d2[b])
            walk.append(i + np.flatnonzero(~ok))
        fi = np.concatenate(walk)
        if len(fi):
            out_idx[fi], out_d2[fi] = self._query_ring_walk(qx[fi], qy[fi], qids[fi], k)
        return out_idx, out_d2

    def _query_block(self, qx, qy, qids, k, out_idx, out_d2) -> np.ndarray:
        """The 3×3-bucket fast path for one block of queries: writes the
        answers into ``out_idx`` / ``out_d2`` and returns which of them
        are accepted (exact)."""
        n = len(qx)
        qbx = np.clip(((qx - self.x0) / self.cell).astype(np.int64), 0, self.nx - 1)
        qby = np.clip(((qy - self.y0) / self.cell).astype(np.int64), 0, self.ny - 1)
        offs = np.arange(-1, 2)
        bx = (qbx[:, None] + offs[None, :])[:, :, None]  # (n, 3, 1)
        by = (qby[:, None] + offs[None, :])[:, None, :]  # (n, 1, 3)
        valid = ((bx >= 0) & (bx < self.nx) & (by >= 0) & (by < self.ny)).reshape(n, 9)
        bucket = np.where(valid, (bx * self.ny + by).reshape(n, 9), 0)
        lo = self.start[bucket]
        cnt = np.where(valid, self.start[bucket + 1] - lo, 0)
        counts_q = cnt.sum(axis=1)
        total = int(counts_q.sum())
        accepted = np.zeros(n, dtype=bool)
        if total:
            cand = self.order[_expand(lo.ravel(), cnt.ravel())]
            qidx = np.repeat(np.arange(n), counts_q)
            dx = self.x[cand] - qx[qidx]
            dy = self.y[cand] - qy[qidx]
            d2 = dx * dx + dy * dy
            d2[self.ids[cand] == qids[qidx]] = np.inf  # exclude self by id
            # scatter the query-major candidate runs into dense padded
            # (n, Cmax) matrices; ROW-WISE argpartition keeps k+16
            # finalists per query and only those are (d2, id)-sorted
            cmax = int(counts_q.max())
            col = np.arange(total) - np.repeat(counts_q.cumsum() - counts_q, counts_q)
            D = np.full((n, cmax), np.inf)
            C = np.full((n, cmax), -1, dtype=np.int64)
            D[qidx, col] = d2
            C[qidx, col] = cand
            m = min(k + 16, cmax)
            if m < cmax:
                part = np.argpartition(D, m - 1, axis=1)[:, :m]
                Dp = np.take_along_axis(D, part, axis=1)
                Cp = np.take_along_axis(C, part, axis=1)
            else:
                Dp, Cp = D, C
            Ip = np.where(Cp >= 0, self.ids[Cp], _NO_ID)
            rowsort = np.lexsort((Ip, Dp))  # per-row (d2, id) ascending
            kk = min(k, Dp.shape[1])
            sel = rowsort[:, :kk]
            out_d2[:, :kk] = np.take_along_axis(Dp, sel, axis=1)
            out_idx[:, :kk] = np.take_along_axis(Cp, sel, axis=1)
            out_idx[~np.isfinite(out_d2)] = -1
            kth = out_d2[:, k - 1] if k <= kk else np.full(n, np.inf)
            accepted = np.isfinite(kth) & (np.sqrt(kth) < self.cell)
            if m < cmax:
                cut = np.take_along_axis(Dp, rowsort[:, -1:], axis=1).ravel()
                accepted &= (kth < cut) | (counts_q <= m)
        return accepted

    def _query_all(self, qx, qy, qids, k):
        """Each query's (d², id)-sorted list of all points, in blocks of
        ~2^20 distances: the exact answer for any k, and the cheapest
        one when k ≥ n − 1, where a ring walk would gather every point."""
        n, npts = len(qx), len(self.x)
        out_idx = np.full((n, k), -1, dtype=np.int64)
        out_d2 = np.full((n, k), np.inf, dtype=np.float64)
        kk = min(k, npts)
        # points in id order: a stable sort by d² is then the (d², id) order
        by_id = np.argsort(self.ids, kind="stable")
        px, py, pid = self.x[by_id], self.y[by_id], self.ids[by_id]
        step = max(1, (1 << 20) // max(npts, 1))
        for i in range(0, n if npts else 0, step):
            s = slice(i, i + step)
            dx = px[None, :] - qx[s, None]
            dy = py[None, :] - qy[s, None]
            d2 = dx * dx + dy * dy
            d2[pid[None, :] == qids[s, None]] = np.inf  # exclude self by id
            sel = np.argsort(d2, axis=1, kind="stable")[:, :kk]
            sd2 = np.take_along_axis(d2, sel, axis=1)
            out_idx[s, :kk] = np.where(np.isfinite(sd2), by_id[sel], -1)
            out_d2[s, :kk] = sd2
        return out_idx, out_d2

    def _query_ring_walk(self, qx: np.ndarray, qy: np.ndarray, qids: np.ndarray, k: int):
        """Per-bucket expanding ring walk — the general-case path (and
        the fast path's fallback for sparse neighborhoods)."""
        qx = np.asarray(qx, dtype=np.float64)
        qy = np.asarray(qy, dtype=np.float64)
        n = len(qx)
        out_idx = np.full((n, k), -1, dtype=np.int64)
        out_d2 = np.full((n, k), np.inf, dtype=np.float64)
        qbx = np.clip(((qx - self.x0) / self.cell).astype(np.int64), 0, self.nx - 1)
        qby = np.clip(((qy - self.y0) / self.cell).astype(np.int64), 0, self.ny - 1)
        qbucket = qbx * self.ny + qby
        order = np.argsort(qbucket, kind="stable")
        max_ring = max(self.nx, self.ny)
        i = 0
        while i < n:
            j = i
            b = qbucket[order[i]]
            while j < n and qbucket[order[j]] == b:
                j += 1
            grp = order[i:j]
            i = j
            cbx, cby = int(b // self.ny), int(b % self.ny)
            rings, n_cand = [], 0
            gx_, gy_, gid_ = qx[grp], qy[grp], qids[grp]
            for ring in range(0, max_ring + 2):
                rings.append(self._ring_members(cbx, cby, ring))
                n_cand += len(rings[-1])
                # nothing to decide before k candidates (or every point)
                # are in: for k ≥ n that skips ~max(nx, ny) d² passes
                whole = n_cand == len(self.x)
                if n_cand < k and not whole:
                    continue
                cand = np.concatenate(rings)
                # worst query point in this bucket: distance bound uses
                # ring r ⇒ everything farther is ≥ (ring)·cell away
                bound = ring * self.cell
                cx, cy = self.x[cand], self.y[cand]
                dx = cx[None, :] - gx_[:, None]
                dy = cy[None, :] - gy_[:, None]
                d2 = dx * dx + dy * dy
                # exclude self by id
                self_mask = self.ids[cand][None, :] == gid_[:, None]
                d2 = np.where(self_mask, np.inf, d2)
                if whole or np.all(
                    np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1]) < bound
                ):
                    kk = min(k, d2.shape[1])
                    # total order (d2, id): one row-wise lexsort for the group
                    ids2 = np.broadcast_to(self.ids[cand], d2.shape)
                    sel = np.lexsort((ids2, d2), axis=1)[:, :kk]
                    sd2 = np.take_along_axis(d2, sel, axis=1)
                    out_idx[grp, :kk] = np.where(np.isfinite(sd2), cand[sel], -1)
                    out_d2[grp, :kk] = sd2
                    break
        return out_idx, out_d2
