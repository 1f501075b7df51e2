"""Zonal aggregation: per-county products — the pipeline's last step.

Reference semantics: the county/processing summary G7
(``comprehensive_biomass_processor_v3.py:554-591``,
``optimized_county_processor_v3.py:513-549``) — totals, counts, means.

Scale design (SURVEY.md §7.3): a bare ``groupby(county).aggregate``
shuffles every tile row.  Instead each map task of the exchange
collapses its run of input blocks to ONE partial row per county (the
combiner), and only those partials move.  This also defuses
county-size skew (the reference's McLean-vs-Rich 6× imbalance): a hot
county contributes at most one partial row per map task, not 10^9 tile
rows, so no salting of the final key is needed — the salt is
effectively the map task.

One entry point follows that design, :func:`county_zonal`: many
per-key products as one pass over exact, mergeable partials (in the
spirit of Raptor: one raster⋈vector pass serving many zonal products).
It is the engine's combine for every bounded-key aggregate: keys are
counties, formats or 1° cells.  A product is a ``sum`` (exact int64, or
float64 snapped to the 2^-20 lattice), a ``min`` / ``max``, a ``hist``
(the exact value → count multiset, numeric or string) or a ``top`` (k
rows by one column, ties by another).  The partials meet in one
key-routed exchange (``stages/exchange``): each partial row goes by a
hash of its key straight to one of a few reduce tasks, with no sample
or sort, and a per-query ``finalize`` turns each key's merged state
into its output rows: the headline's counts, sums and means
(:func:`zonal_aggregate`), correlation and regression from integer
moment sums, quantiles / MAD / winsorized means / Gini by element
selection over the sorted histogram, coverage as a distinct count, the
format histogram and everything derived from it, bounds, edge
distances, per-county top-k and the mosaic's county rollup.

:func:`bucketed_agg` is the combine for HIGH-cardinality keys, and
:func:`combine_partials` serves only the off-paper window and
incremental families.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.rounding import round_away, snap_binary

_SUM_COLS = ("biomass", "ndvi")


def _coalesce(partials):
    """Bounded-key partials in a few substantial blocks, for
    :func:`combine_partials`.

    Combiner outputs are one row per key per input block — hundreds to
    hundreds of thousands of near-empty blocks at scale, and Ray's sort
    pays a fixed per-block cost (measured ~50 ms/block: 7+ s of the
    round-2 headline went to aggregating 9k tiny rows; 210 caption
    blocks cost an sf0.01 fmt/cell rollup 8 s against 3.4 s coalesced).
    ``repartition`` without shuffle is a plain split/merge, no
    all-to-all.  Block count scales with the cluster so the exchange
    still parallelizes across nodes; results are unaffected because
    every partial merges exactly in any grouping and order.  Only for
    small-key aggregates — high-cardinality groupbys (dedup pair keys)
    keep their block-parallel layout."""
    import ray

    ncpus = int(ray.cluster_resources().get("CPU", 4))
    return partials.repartition(max(4, ncpus // 4))


def combine_partials(partial, keys, aggs):
    """groupby().aggregate() for BOUNDED-cardinality partials, over
    :func:`_coalesce`'d blocks; float sums must be lattice-snapped.
    The engine's own bounded-key aggregates run on
    :func:`county_zonal`; this serves the off-paper window and
    incremental families."""
    return _coalesce(partial).groupby(keys).aggregate(*aggs)


def bucketed_agg(ds, keys: list[str], aggs: dict[str, tuple[str, str]],
                 nb: int = 1024):
    """Grouped aggregate for HIGH-cardinality keys: coarse hash buckets
    + ONE vectorized in-bucket pandas groupby.

    Ray's native sort-aggregate pays per-distinct-key costs that turn
    pathological beyond ~10⁴ keys (measured: 84 s for a 3-Sum over 37k
    hex cells vs ~2 s through this path).  :func:`county_zonal` is the
    path for BOUNDED-key aggregates.

    ``aggs`` maps output column → (source column, how) with how ∈
    {"sum", "min", "max", "size"}.  Results are grouping-invariant
    (exact int / lattice-float sums, order-free min/max), so the gate
    hashes are unaffected by the bucket layout.  The bucket hash only
    partitions work — any deterministic row hash will do; composite and
    string keys hash via ``pd.util.hash_pandas_object``.
    """

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_bk"] = (
            pd.util.hash_pandas_object(df[keys], index=False).to_numpy() % nb
        ).astype(np.int64)
        return df

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        spec = {out: (src, how) for out, (src, how) in aggs.items()}
        r = g.groupby(keys, as_index=False).agg(**spec)
        for out, (_, how) in aggs.items():
            if how == "size":
                r[out] = r[out].astype(np.int64)
        return r

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("_bk")
        .map_groups(merge, batch_format="pandas")
    )


def unreserved(ds):
    """``ds`` with Ray Data's per-operator resource reservation off.

    For a stage whose consumer is a shuffle barrier (groupby,
    repartition, sort) and the small maps behind it.  Those cannot
    start before the stage ends, yet the reservation holds CPUs for them
    all along: on 4 CPUs it left a per-tile stage a budget of 1.25
    CPUs, one task at a time (and a combine's partial stage ran 2.3–2.6×
    slower at sf0.1).  Applied only where a barrier is owned: on the
    input of :func:`county_zonal`, of the checkpointed sink
    (``state/ckptwrite``) and of ``psnrverify.psnr_verify_pairs``.  The
    setting lives in the context ``ds`` shares with the datasets it was
    derived from and the ones derived from it; the process-global
    ``DataContext`` is left untouched, and so is the Dataset
    :func:`county_zonal` returns, whose plan starts from a copy of it.
    """
    ds.context.op_resource_reservation_enabled = False
    return ds


# ---------------------------------------------------------------------------
# county_zonal: many per-key products from one exchange
# ---------------------------------------------------------------------------


class Hist(NamedTuple):
    """Exact per-county multiset: county ``i``'s distinct values,
    ascending, and their multiplicities are ``value`` and ``count`` in
    ``[start[i], start[i] + size[i])``."""

    value: np.ndarray
    count: np.ndarray
    start: np.ndarray
    size: np.ndarray

    @property
    def county(self) -> np.ndarray:
        """The county index of each entry."""
        return np.repeat(np.arange(len(self.size)), self.size)

    def total(self, x) -> np.ndarray:
        """Per-county sum of an entry-aligned array, in entry order."""
        return np.add.reduceat(x, self.start)

    def select(self, rank) -> np.ndarray:
        """Each county's element at 0-based ascending ``rank``."""
        cum = np.cumsum(self.count)
        before = (cum - self.count)[self.start]
        return self.value[np.searchsorted(cum, before + rank, side="right")]

    def smallest_sum(self, rank) -> np.ndarray:
        """Exact sum of each county's ``rank`` smallest elements."""
        cum = np.concatenate(([0], np.cumsum(self.count)))
        vc = np.concatenate(([0], np.cumsum(self.value * self.count)))
        g = cum[self.start] + rank
        i = np.searchsorted(cum, g, side="right") - 1
        v = np.concatenate((self.value, [0]))
        return vc[i] + (g - cum[i]) * v[i] - vc[self.start]


class Top(NamedTuple):
    """County ``i``'s top rows, ``by`` descending then ``tie``
    ascending, in ``[start[i], start[i] + size[i])``."""

    by: np.ndarray
    tie: np.ndarray
    start: np.ndarray
    size: np.ndarray

    county = Hist.county


@dataclass(frozen=True)
class Counties:
    """The merged state ``finalize`` receives: ``fips``, the key value
    (the county FIPS unless ``county_zonal``'s ``key`` names another
    column), and row count ``n`` of each county, and ``self[name]`` for
    each product — an array with one value per county for ``sum`` /
    ``min`` / ``max``, a :class:`Hist` or a :class:`Top`."""

    fips: np.ndarray
    n: np.ndarray
    products: dict

    def __getitem__(self, name: str):
        return self.products[name]


_REDUCE = {"sum": np.add, "min": np.minimum, "max": np.maximum}
_ARITY = {"sum": 1, "min": 1, "max": 1, "hist": 1, "top": 3}


def _check(products: dict, key: str) -> dict:
    if not products:
        raise ValueError("county_zonal needs at least one product")
    for name, spec in products.items():
        kind, args = spec[0], spec[1:]
        if name in (key, "n") or "." in name:
            raise ValueError(f"product name {name!r} is reserved")
        if _ARITY.get(kind) != len(args):
            raise ValueError(f"bad product {name!r}: {spec!r}")
    return dict(products)


def _lists(owner: np.ndarray, values, m: int, typ) -> pa.ListArray:
    """One list per county from values grouped by ``owner`` county."""
    off = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=m))))
    return pa.ListArray.from_arrays(
        pa.array(off, pa.int32()), pa.array(values, typ)
    )


def _flat(col) -> np.ndarray:
    return pc.list_flatten(col).to_numpy(zero_copy_only=False)


def county_partial(b: pa.Table, products: dict, key: str = "county_fips") -> pa.Table:
    """Combiner: one row per ``key`` value in ``b`` holding that value,
    the row count ``n`` and each product's partial state (list columns
    for ``hist`` and ``top``)."""
    enc = b[key].combine_chunks().dictionary_encode()
    ci = enc.indices.to_numpy().astype(np.int64)
    m = len(enc.dictionary)
    n = np.bincount(ci, minlength=m)
    order = np.argsort(ci, kind="stable")
    start = np.cumsum(n) - n
    cols = {key: enc.dictionary, "n": pa.array(n, pa.int64())}
    for name, (kind, *args) in products.items():
        k, col, tie = args if kind == "top" else (None, args[0], None)
        typ = b.schema.field(col).type
        v = b[col].to_numpy()
        if kind in _REDUCE:
            v = v[order]
            if kind == "sum" and v.dtype.kind == "f":
                v = snap_binary(v)
            cols[name] = pa.array(_REDUCE[kind].reduceat(v, start), typ)
        elif kind == "hist":
            uv, code = np.unique(v, return_inverse=True)
            key, cnt = np.unique(ci * len(uv) + code, return_counts=True)
            owner = key // len(uv)
            cols[name] = _lists(owner, uv[key % len(uv)], m, typ)
            cols[f"{name}.count"] = _lists(owner, cnt, m, pa.int64())
        else:
            t = b[tie].to_numpy()
            o = np.lexsort((t, -v, ci))
            o = o[np.arange(len(o)) - start[ci[o]] < k]
            cols[name] = _lists(ci[o], v[o], m, typ)
            cols[f"{name}.tie"] = _lists(ci[o], t[o], m, b.schema.field(tie).type)
    return pa.table(cols)


def _merge(g: pa.Table, products: dict, key: str) -> Counties:
    """One county's partial rows → its :class:`Counties` state."""
    one = np.zeros(1, np.int64)
    state = {}
    for name, (kind, *args) in products.items():
        if kind in _REDUCE:
            state[name] = _REDUCE[kind].reduce(g[name].to_numpy(), keepdims=True)
        elif kind == "hist":
            uv, inv = np.unique(_flat(g[name]), return_inverse=True)
            cnt = np.zeros(len(uv), np.int64)
            np.add.at(cnt, inv, _flat(g[f"{name}.count"]))
            state[name] = Hist(uv, cnt, one, np.asarray([len(uv)]))
        else:
            by, tie = _flat(g[name]), _flat(g[f"{name}.tie"])
            o = np.lexsort((tie, -by))[: args[0]]
            state[name] = Top(by[o], tie[o], one, np.asarray([len(o)]))
    fips = np.asarray([g[key][0].as_py()], dtype=object)
    return Counties(fips, np.asarray([pc.sum(g["n"]).as_py()], np.int64), state)


def _no_counties(products: dict) -> Counties:
    z, e = np.zeros(0, np.int64), np.zeros(0, object)
    state = {
        name: Hist(e, z, z, z) if kind == "hist"
        else Top(e, e, z, z) if kind == "top"
        else e
        for name, (kind, *_) in products.items()
    }
    return Counties(e, z, state)


def county_zonal(ds, products: dict, finalize, key: str = "county_fips"):
    """Per-county products of ``ds`` from one combine and one exchange
    on ``key`` (a string or integer column; a "county" below is one
    value of it).

    ``products`` maps a name to ``("sum", col)``, ``("min", col)``,
    ``("max", col)``, ``("hist", col)`` or ``("top", k, by, tie)``.
    ``finalize(Counties) -> pa.Table`` runs once per county on its
    merged state and must return the same schema for every state — also
    for the state of zero counties, which types the result: the output
    Dataset has that schema even when ``ds`` has no rows.

    Every product is exact, so the result does not depend on batching
    or exchange order: integer sums are exact, float sums add
    lattice-snapped values (``functions/rounding``), min / max and
    histograms are order-free, and ``top`` orders fully by
    (``by`` desc, ``tie`` asc).  The exchange's map tasks run
    :func:`county_partial` over runs of ``ds``'s blocks and route each
    partial row by a hash of its key to one of ``max(4, CPUs // 4)``
    reduce tasks, which :func:`_merge` and ``finalize`` each key.  The
    exchange is a barrier the stage that produces ``ds`` feeds, so
    ``ds`` runs :func:`unreserved`; the returned Dataset's plan does not
    share that setting."""
    import ray

    from .exchange import exchange, hash_partition

    products = _check(products, key)
    schema = finalize(_no_counties(products)).schema
    nparts = max(4, int(ray.cluster_resources().get("CPU", 4)) // 4)
    return exchange(
        unreserved(ds),
        functools.partial(county_partial, products=products, key=key),
        key,
        functools.partial(hash_partition, num_partitions=nparts),
        nparts,
        lambda g: finalize(_merge(g, products, key)),
        schema,
    )


# ---------------------------------------------------------------------------
# the headline's zonal summary
# ---------------------------------------------------------------------------


def _sums(sum_cols) -> dict:
    return {f"{c}_sum": ("sum", c) for c in sum_cols}


def zonal_partial(batch: pa.Table, sum_cols=_SUM_COLS) -> pa.Table:
    """The headline's combiner: :func:`county_partial` of its sums."""
    return county_partial(batch, _sums(sum_cols))


def zonal_aggregate(ds, sum_cols=_SUM_COLS):
    """The headline's per-county summary of ``ds`` (reference G7): a
    Dataset of ``county_fips``, ``tile_count`` and each column's
    ``{c}_sum`` and ``{c}_mean``, rounded half away from zero to 4
    places.  The sums are of lattice-snapped values."""

    def finalize(c: Counties) -> pa.Table:
        cols = {
            "county_fips": pa.array(c.fips, pa.string()),
            "tile_count": pa.array(c.n, pa.int64()),
        }
        for col in sum_cols:
            s = np.asarray(c[f"{col}_sum"], np.float64)
            cols[f"{col}_sum"] = pa.array(round_away(s, 4))
            cols[f"{col}_mean"] = pa.array(round_away(s / c.n, 4))
        return pa.table(cols)

    return county_zonal(ds, _sums(sum_cols), finalize)
