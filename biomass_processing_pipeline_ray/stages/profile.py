"""Table profiler: per-column stats (rows, nulls, exact distinct,
min/max) in one streamed pass — the data-validation operator every
ingest pipeline runs before training (schema drift, null explosions,
cardinality checks).  The reference validates inputs ad hoc
(``/root/reference/src/pipeline/*`` row-count + status prints); this is
the distributed, oracle-checkable generalization.

Shape: every statistic here is derivable from per-(column, value)
counts, so ONE batch pass emits per-batch value-count partials (nulls
as a sentinel row), one bounded shuffle merges them by (column, value),
and a per-column ``map_groups`` folds the distinct-value rows into the
final one-row-per-column profile.  No driver-side pass over values.

Scale note: the merge state is the number of DISTINCT values per
column, not the row count — the right cost for categorical / key
columns.  Columns whose distinct count itself explodes past a worker
(free-text) need a sketch instead; exactness is the point of this
operator.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def profile_table(ds, num_cols: list[str], str_cols: list[str]):
    """Profile ``num_cols`` + ``str_cols`` of ``ds``.  Returns a
    Dataset with one row per column: (col_name, n_rows, n_null,
    n_distinct, min_num, max_num, min_str, max_str) — numeric min/max
    NULL for string columns and vice versa."""
    cols = [(c, True) for c in num_cols] + [(c, False) for c in str_cols]

    def partial(df: pd.DataFrame) -> pa.Table:
        names, strs, nums, nulls, cnts = [], [], [], [], []
        for col, is_num in cols:
            vc = df[col].value_counts(dropna=False)
            vals = vc.index.to_numpy()
            cnt = vc.to_numpy().astype(np.int64)
            isna = pd.isna(vals)
            if is_num:
                v_num = np.where(isna, np.nan, vals.astype(np.float64))
                v_str = np.where(
                    isna, "", v_num.astype(np.float64).astype(str)
                )
            else:
                v_num = np.full(len(vals), np.nan)
                v_str = np.where(isna, "", vals.astype(str))
            names.append(np.full(len(vals), col))
            strs.append(v_str)
            nums.append(v_num)
            nulls.append(isna.astype(np.int64))
            cnts.append(cnt)
        return pa.table(
            {
                "col_name": pa.array(np.concatenate(names), pa.string()),
                "v_str": pa.array(np.concatenate(strs), pa.string()),
                "v_num": pa.array(np.concatenate(nums), pa.float64()),
                "is_null": pa.array(np.concatenate(nulls), pa.int64()),
                "cnt": pa.array(np.concatenate(cnts), pa.int64()),
            }
        )

    from .zonal import bucketed_agg

    # (col, value) keys are high-cardinality (every distinct key /
    # price value) — merge through the coarse-bucket pandas path, not
    # Ray's per-key sort-aggregate (see bucketed_agg rationale).
    merged = bucketed_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["col_name", "v_str"],
        {
            "cnt": ("cnt", "sum"),
            "is_null": ("is_null", "max"),
            "v_num": ("v_num", "max"),
        },
    )

    def per_col(g: pd.DataFrame) -> pa.Table:
        col = g["col_name"].iloc[0]
        is_num = dict(cols)[col]
        nul = g["is_null"].to_numpy().astype(bool)
        cnt = g["cnt"].to_numpy()
        n_rows = int(cnt.sum())
        n_null = int(cnt[nul].sum())
        vs = g["v_str"].to_numpy()[~nul]
        out = {
            "col_name": pa.array([col], pa.string()),
            "n_rows": pa.array([n_rows], pa.int64()),
            "n_null": pa.array([n_null], pa.int64()),
            "n_distinct": pa.array([len(vs)], pa.int64()),
        }
        if is_num:
            vn = g["v_num"].to_numpy()[~nul]
            out["min_num"] = pa.array([float(vn.min())] if len(vn) else [None],
                                      pa.float64())
            out["max_num"] = pa.array([float(vn.max())] if len(vn) else [None],
                                      pa.float64())
            out["min_str"] = pa.array([None], pa.string())
            out["max_str"] = pa.array([None], pa.string())
        else:
            out["min_num"] = pa.array([None], pa.float64())
            out["max_num"] = pa.array([None], pa.float64())
            out["min_str"] = pa.array([str(vs.min())] if len(vs) else [None],
                                      pa.string())
            out["max_str"] = pa.array([str(vs.max())] if len(vs) else [None],
                                      pa.string())
        return pa.table(out)

    return merged.groupby("col_name").map_groups(per_col, batch_format="pandas")
