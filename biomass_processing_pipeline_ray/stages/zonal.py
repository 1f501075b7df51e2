"""Zonal aggregation: per-county products — the pipeline's last step.

Reference semantics: the county/processing summary G7
(``comprehensive_biomass_processor_v3.py:554-591``,
``optimized_county_processor_v3.py:513-549``) — totals, counts, means.

Scale design (SURVEY.md §7.3): a bare ``groupby(county).aggregate``
shuffles every tile row.  Instead each input batch is collapsed to ONE
partial row per county inside ``map_batches`` (the combiner), and only
those partials shuffle.  This also defuses county-size skew (the
reference's McLean-vs-Rich 6× imbalance): a hot county contributes at
most ``num_batches`` partial rows, not 10^9 tile rows, so no salting of
the final key is needed — the salt is effectively the batch id.

Two entry points follow that design:

- :func:`zonal_aggregate` — the headline's count + sum + mean per
  county (:func:`zonal_partial` → :func:`combine_partials`);
- :func:`county_zonal` — every other per-county statistic, as one pass
  over exact, mergeable per-county partials (in the spirit of Raptor:
  one raster⋈vector pass serving many zonal products).  A product is a
  ``sum`` (exact int64, or float64 snapped to the 2^-20 lattice), a
  ``min`` / ``max``, a ``hist`` (the exact value → count multiset,
  numeric or string) or a ``top`` (k rows by one column, ties by
  another).  The partials meet in one exchange on ``county_fips``,
  and a per-query ``finalize`` turns each county's merged state into
  its output rows: correlation and regression from integer moment
  sums, quantiles / MAD / winsorized means / Gini by element selection
  over the sorted histogram, coverage as a distinct count, the format
  histogram and everything derived from it, bounds, edge distances and
  per-county top-k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.rounding import round_away, snap_binary

_SUM_COLS = ("biomass", "ndvi")


def combine_partials(partial, keys, aggs):
    """groupby().aggregate() for BOUNDED-cardinality partials.

    Combiner outputs are one row per key per input block — hundreds to
    hundreds of thousands of near-empty blocks at scale, and Ray's
    sort-aggregate pays a fixed per-block cost (measured ~50 ms/block:
    7+ s of the round-2 headline went to aggregating 9k tiny rows).
    Coalesce the partials into a few substantial blocks first
    (``repartition`` without shuffle = plain split/merge, no all-to-all)
    and aggregate those.  Block count scales with the cluster so the
    AggregateMap still parallelizes across nodes; float parity is
    unaffected because every summed double is lattice-snapped, making
    partial-sum merges exact in any grouping/order (functions/rounding).
    Only for small-key aggregates — high-cardinality groupbys (dedup
    pair keys) keep their block-parallel layout."""
    import ray

    ncpus = int(ray.cluster_resources().get("CPU", 4))
    k = max(4, ncpus // 4)
    return partial.repartition(k).groupby(keys).aggregate(*aggs)


def bucketed_agg(ds, keys: list[str], aggs: dict[str, tuple[str, str]],
                 nb: int = 1024):
    """Grouped aggregate for HIGH-cardinality keys: coarse hash buckets
    + ONE vectorized in-bucket pandas groupby.

    Ray's native sort-aggregate pays per-distinct-key costs that turn
    pathological beyond ~10⁴ keys (measured: 84 s for a 3-Sum over 37k
    hex cells vs ~2 s through this path; 20 s → ~4 s for the
    heavy-hitter summary merge).  `combine_partials` stays the path for
    BOUNDED-key aggregates, where the coalesce + native aggregate is
    simpler and equally fast.

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


def zonal_partial(batch: pa.Table, key: str = "county_fips", sum_cols=_SUM_COLS) -> pa.Table:
    """Combiner: one partial row per county per batch."""
    keys = np.asarray(batch[key].to_pylist(), dtype=object)
    uniq, inv = np.unique(keys.astype(str), return_inverse=True)
    out = {key: pa.array(uniq, pa.string())}
    out["tile_count"] = pa.array(np.bincount(inv, minlength=len(uniq)).astype(np.int64))
    for c in sum_cols:
        vals = batch[c].to_numpy()
        out[f"{c}_sum"] = pa.array(np.bincount(inv, weights=vals, minlength=len(uniq)))
    return pa.table(out)


def zonal_aggregate(
    ds,
    key: str = "county_fips",
    sum_cols=_SUM_COLS,
    mean_round: int | None = 4,
    sum_round: int | None = 4,
):
    """partial-combine → small groupby → finalize means. Returns a Dataset."""
    from ray.data.aggregate import Sum

    partial = ds.map_batches(
        lambda b: zonal_partial(b, key, sum_cols), batch_format="pyarrow"
    )
    aggs = [Sum("tile_count", alias_name="tile_count")]
    for c in sum_cols:
        aggs.append(Sum(f"{c}_sum", alias_name=f"{c}_sum"))
    merged = combine_partials(partial, key, aggs)

    def finalize(batch: pa.Table) -> pa.Table:
        cnt = batch["tile_count"].to_numpy().astype(np.float64)
        cols: dict = {
            key: batch[key],
            "tile_count": batch["tile_count"],
        }
        for c in sum_cols:
            s = batch[f"{c}_sum"].to_numpy()
            cols[f"{c}_sum"] = pa.array(
                s if sum_round is None else round_away(s, sum_round)
            )
            m = s / cnt
            cols[f"{c}_mean"] = pa.array(
                m if mean_round is None else round_away(m, mean_round)
            )
        return pa.table(cols)

    return merged.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# county_zonal: many per-county products from one exchange
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
    """The merged state ``finalize`` receives: ``fips`` and row count
    ``n`` of each county, and ``self[name]`` for each product — an
    array with one value per county for ``sum`` / ``min`` / ``max``, a
    :class:`Hist` or a :class:`Top`."""

    fips: np.ndarray
    n: np.ndarray
    products: dict

    def __getitem__(self, name: str):
        return self.products[name]


_REDUCE = {"sum": np.add, "min": np.minimum, "max": np.maximum}
_ARITY = {"sum": 1, "min": 1, "max": 1, "hist": 1, "top": 3}


def _check(products: dict) -> dict:
    if not products:
        raise ValueError("county_zonal needs at least one product")
    for name, spec in products.items():
        kind, args = spec[0], spec[1:]
        if name in ("county_fips", "n") or "." in name:
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


def county_partial(b: pa.Table, products: dict) -> pa.Table:
    """Combiner: one row per county in ``b`` holding ``county_fips``,
    the row count ``n`` and each product's partial state (list columns
    for ``hist`` and ``top``)."""
    enc = b["county_fips"].combine_chunks().dictionary_encode()
    ci = enc.indices.to_numpy().astype(np.int64)
    m = len(enc.dictionary)
    n = np.bincount(ci, minlength=m)
    order = np.argsort(ci, kind="stable")
    start = np.cumsum(n) - n
    cols = {"county_fips": enc.dictionary, "n": pa.array(n, pa.int64())}
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


def _merge(g: pa.Table, products: dict) -> Counties:
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
    fips = np.asarray([g["county_fips"][0].as_py()], dtype=object)
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


def county_zonal(ds, products: dict, finalize):
    """Per-county products of ``ds`` (which carries ``county_fips``)
    from one combine and one exchange on ``county_fips``.

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
    (``by`` desc, ``tie`` asc)."""
    import ray.data as rd

    products = _check(products)
    schema = finalize(_no_counties(products)).schema

    def merge(g: pa.Table) -> pa.Table:
        return finalize(_merge(g, products)).cast(schema)

    parts = ds.map_batches(
        county_partial, fn_kwargs={"products": products}, batch_format="pyarrow"
    )
    # the per-batch stage feeds the exchange barrier: with Ray Data's
    # per-operator reservation on, it runs one task at a time on a few
    # CPUs (2.3–2.6× slower at sf0.1; see ``pipelines/biomass._unreserved``)
    parts.context.op_resource_reservation_enabled = False
    out = parts.groupby("county_fips").map_groups(merge, batch_format="pyarrow")
    # an empty input runs no group, so the result would have no schema;
    # the typed empty block gives it ``schema`` in every case
    return out.union(rd.from_arrow(schema.empty_table()))
