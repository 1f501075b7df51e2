"""``stages/exchange.exchange`` against a single-process reference.

For 1, 2, 3 and 7 partitions, string and int keys, random block splits
with empty blocks, keys held by one block only and inputs of zero rows,
the exchange returns exactly the rows a pandas groupby of the mapped
input gives, each key's rows reaching its reduce in input order, and
the output carries the declared schema even when it has no rows.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

SCHEMA = pa.schema([("k", pa.string()), ("n", pa.int64()), ("vs", pa.string())])


@st.composite
def inputs(draw):
    n = draw(st.integers(0, 40))
    as_str = draw(st.booleans())
    keys = draw(st.lists(st.integers(-3, 5), min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    k = pa.array([f"c{x}" for x in keys] if as_str else keys,
                 pa.string() if as_str else pa.int64())
    t = pa.table({"k": k, "v": pa.array(np.arange(n) * 7 % 11, pa.int64())})
    bounds = [0, *cuts, n]
    return [t.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]


@settings(max_examples=25, deadline=None)
@given(inputs(), st.sampled_from([1, 2, 3, 7]), st.sampled_from([0, 200, 8 << 20]))
def test_exchange_matches_single_process(ray_session, blocks, nparts, run_bytes):
    import ray.data as rd

    from biomass_processing_pipeline_ray.stages import exchange as X

    # defined here so that Ray ships them by value to its workers
    def keep_odd(t: pa.Table) -> pa.Table:
        """The map side: drops rows, so some blocks map to nothing."""
        return t.filter(pc.equal(pc.bit_wise_and(t["v"], 1), 1))

    def reduce(g: pa.Table) -> pa.Table:
        """One row per key; ``vs`` records the order the rows came in."""
        vs = g["v"].to_pylist()
        return pa.table({"k": [str(g["k"][0].as_py())], "n": [len(vs)], "vs": [repr(vs)]})

    saved, X._RUN_BYTES = X._RUN_BYTES, run_bytes
    try:
        out = X.exchange(
            rd.from_arrow(blocks),
            keep_odd,
            "k",
            lambda keys: X.hash_partition(keys, nparts),
            nparts,
            reduce,
            SCHEMA,
        )
        assert out.schema().base_schema == SCHEMA
        got = out.to_pandas()
    finally:
        X._RUN_BYTES = saved
    mapped = keep_odd(pa.concat_tables(blocks)).to_pandas()
    ref = (
        pd.DataFrame([reduce(pa.Table.from_pandas(g, preserve_index=False)).to_pylist()[0]
                      for _, g in mapped.groupby("k", sort=False)], columns=SCHEMA.names)
        .astype({"n": np.int64})
    )
    if len(ref) == 0:
        assert len(got) == 0
    else:
        got, ref = (df.sort_values("k").reset_index(drop=True) for df in (got, ref))
        assert got.equals(ref)
