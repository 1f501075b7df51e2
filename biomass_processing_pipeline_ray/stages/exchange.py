"""Key-routed exchange: each row goes straight from its map task to the
reduce task of its partition.

Ray Data's ``groupby(key).map_groups`` is a sort-based pull shuffle: it
samples the rows, range-partitions them and sorts every partition.  A
site that knows its key → partition map before any row moves needs
none of that (SURVEY.md §7.3, §7.4): the sharded kNN routes by shard id,
the bounded-key combine by a hash of the key.  :func:`exchange` runs
that plan with plain Ray tasks:

- **map** — one task per run of consecutive input blocks (blocks are
  coalesced up to ``_RUN_BYTES``, so a read split into hundreds of
  ~285-row blocks costs a few tasks, not hundreds).  It applies the
  site's map function to the run and splits the result by partition id
  into ``P`` returns;
- **reduce** — one task per partition.  It concatenates its ``P``
  pieces, groups them by key with a stable numpy sort and runs the
  site's reduce once per key.

The result is ``rd.from_arrow_refs`` of the ``P`` reduce outputs, each
cast to the declared schema, so it is typed even when the input has no
rows, and its plan starts from a copy of the global ``DataContext``:
nothing set on the input's context reaches plans derived from the
output.  The input is executed when :func:`exchange` is called, and an
error raised by a map or reduce surfaces there with its own type.  The
output's ``Dataset.stats()`` lists the operators that produced the
input (through Ray 2.49's plan internals), but not the exchange's own
tasks.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa

_RUN_BYTES = 8 << 20  # consecutive input blocks up to this size share a map task


def hash_partition(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    """Partition of each key: a hash that is the same in every process
    (Python's ``hash`` of a string is not), modulo ``num_partitions``."""
    return (pd.util.hash_array(np.asarray(keys)) % np.uint64(num_partitions)).astype(np.int64)


def _concat(tables: list[pa.Table]) -> pa.Table:
    return tables[0] if len(tables) == 1 else pa.concat_tables(tables, promote_options="default")


def _split(fn, route, key: str, num_partitions: int, *blocks):
    """Map task: ``fn`` over the run of blocks, cut into one table per
    partition (a single table when there is one partition)."""
    from ray.data.block import BlockAccessor

    t = fn(_concat([BlockAccessor.for_block(b).to_arrow() for b in blocks]))
    pid = np.asarray(route(t[key].to_numpy(zero_copy_only=False)), dtype=np.int64)
    if len(pid) and not 0 <= pid.min() <= pid.max() < num_partitions:
        raise ValueError(f"route gave partitions outside [0, {num_partitions})")
    order = np.argsort(pid, kind="stable")
    bounds = np.searchsorted(pid[order], np.arange(num_partitions + 1))
    parts = [t.take(order[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return parts[0] if num_partitions == 1 else parts


def _gather(reduce, key: str, schema: pa.Schema, *pieces) -> pa.Table:
    """Reduce task: ``reduce`` once per key of the partition's pieces,
    in key order."""
    t = _concat(pieces) if pieces else schema.empty_table()
    if t.num_rows == 0:
        return schema.empty_table()
    keys = t[key].to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    t, keys = t.take(order), keys[order]
    cut = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1, [len(keys)]))
    return pa.concat_tables(
        [reduce(t.slice(lo, hi - lo)).cast(schema) for lo, hi in zip(cut[:-1], cut[1:])]
    )


@functools.cache
def _tasks():
    import ray

    return ray.remote(_split), ray.remote(_gather)


def exchange(ds, fn, key: str, route, num_partitions: int, reduce, schema: pa.Schema):
    """Group ``fn``'s output rows by ``key`` and ``reduce`` each group.

    ``fn(pa.Table) -> pa.Table`` maps a run of ``ds``'s rows to rows that
    carry ``key``; ``route(keys) -> int array`` sends each key to one of
    ``num_partitions`` partitions, and every row of a key must go to the
    same one.  ``reduce(pa.Table) -> pa.Table`` gets all rows of one key
    and returns rows castable to ``schema``.  Returns a Dataset of
    ``schema`` with one block per partition."""
    import ray.data as rd

    split, gather = _tasks()
    split = split.options(num_returns=num_partitions)
    pieces, run, size = [], [], 0

    def flush():
        parts = split.remote(fn, route, key, num_partitions, *run)
        pieces.append([parts] if num_partitions == 1 else parts)
        run.clear()

    bundles, stats, executor = ds._plan.execute_to_iterator()
    for bundle in bundles:
        for ref, meta in bundle.blocks:
            # a zero-row block may carry no columns at all
            if meta.num_rows == 0:
                continue
            run.append(ref)
            size += meta.size_bytes or 0
            if size >= _RUN_BYTES:
                flush()
                size = 0
    if run:
        flush()
    out = rd.from_arrow_refs(
        [gather.remote(reduce, key, schema, *(p[i] for p in pieces))
         for i in range(num_partitions)]
    )
    # the result's Dataset.stats() lists the operators that produced ds,
    # as a materialized Dataset's does
    out._plan._in_stats.parents.append(executor.get_stats() if executor else stats)
    return out
