"""Relational helpers used by the query surface (SURVEY.md §2.5 A1/A5).

The groupby pattern here is always *partial-then-final*: per-batch combine
inside ``map_batches`` (pyarrow ``Table.group_by``) shrinks each batch to one
row per key before the all-to-all ``Dataset.groupby`` — at 100 TB the shuffle
moves partials, not rows.
"""

from __future__ import annotations

import pyarrow as pa

from ray.data.aggregate import Sum


def partial_groupby_sum(
    ds,
    keys: list[str],
    sum_cols: list[str],
    count_alias: str | None = None,
):
    """groupby(keys) with per-batch pre-aggregation.

    Returns a Dataset with columns ``keys + sum_cols (+ count_alias)`` where
    sums keep their input names.
    """

    def partial(batch: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in sum_cols]
        if count_alias:
            aggs.append((keys[0], "count"))
        out = batch.group_by(keys).aggregate(aggs)
        renames = {f"{c}_sum": c for c in sum_cols}
        if count_alias:
            renames[f"{keys[0]}_count"] = count_alias
        return out.rename_columns([renames.get(n, n) for n in out.schema.names])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    aggs = [Sum(c, alias_name=c) for c in sum_cols]
    if count_alias:
        aggs.append(Sum(count_alias, alias_name=count_alias))
    return partials.groupby(keys).aggregate(*aggs)


def rollup_counts(ds, keys: list[str], value_col: str,
                  sum_alias: str = "sum_value",
                  total_label: str = "(all)"):
    """Multi-level GROUP BY ROLLUP in ONE pass over the data: for every
    prefix of ``keys`` (detail → subtotal → grand total) emit count and
    ``sum(value_col)``, with rolled-up key columns holding
    ``total_label`` (the SQL mirror coalesces its ROLLUP NULLs to the
    same label). Shape: the per-batch combiner computes ALL levels
    locally (len(keys)+1 tiny pyarrow group_bys per batch), so the
    shuffle sees one partial row per (level, key-combination, batch) —
    the all-to-all moves O(cardinality × levels), never rows. Keys must
    be non-null (count uses the first key's non-null count per level).

    SQL mirror::

        SELECT coalesce(k1,'(all)') k1, ..., count(*) n_docs,
               sum(v) <sum_alias>
        FROM t GROUP BY ROLLUP (k1, ...)
    """
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum as RSum

    def partial(batch: pa.Table) -> pa.Table:
        outs = []
        for k in range(len(keys), -1, -1):
            lvl = keys[:k]
            if lvl:
                t = batch.group_by(lvl).aggregate(
                    [(value_col, "sum"), (lvl[0], "count")])
                t = t.rename_columns([
                    {f"{value_col}_sum": "s", f"{lvl[0]}_count": "n"}
                    .get(c, c) for c in t.schema.names])
            else:
                t = pa.table({
                    "n": pa.array([batch.num_rows], pa.int64()),
                    "s": pa.array(
                        [pc.sum(batch.column(value_col)).as_py() or 0],
                        pa.int64()),
                })
            for rolled in keys[k:]:
                t = t.append_column(
                    rolled, pa.array([total_label] * t.num_rows))
            outs.append(t.select(keys + ["n", "s"]))
        return pa.concat_tables(outs)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(keys).aggregate(
        RSum("n", alias_name="n_docs"), RSum("s", alias_name=sum_alias))


def cube_counts(ds, keys: list[str], value_col: str,
                sum_alias: str = "sum_value",
                total_label: str = "(all)"):
    """GROUP BY CUBE in ONE pass: every SUBSET of ``keys`` (2^k levels —
    detail, each partial margin, grand total) gets count + ``sum(value_col)``,
    rolled-up key columns holding ``total_label``. Same shape as
    :func:`rollup_counts` (which emits only key PREFIXES): the per-batch
    combiner computes all 2^k tiny pyarrow group_bys locally, so the
    all-to-all shuffle moves O(cardinality × 2^k) partial rows, never data
    rows. ``keys`` must be short (2-4) — that is what CUBE is for.

    SQL mirror::

        SELECT coalesce(k1,'(all)') k1, ..., count(*) n_docs,
               sum(v) <sum_alias>
        FROM t GROUP BY CUBE (k1, ...)
    """
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum as RSum

    nk = len(keys)

    def partial(batch: pa.Table) -> pa.Table:
        outs = []
        for mask in range((1 << nk) - 1, -1, -1):
            lvl = [k for i, k in enumerate(keys) if (mask >> i) & 1]
            if lvl:
                t = batch.group_by(lvl).aggregate(
                    [(value_col, "sum"), (lvl[0], "count")])
                t = t.rename_columns([
                    {f"{value_col}_sum": "s", f"{lvl[0]}_count": "n"}
                    .get(c, c) for c in t.schema.names])
            else:
                t = pa.table({
                    "n": pa.array([batch.num_rows], pa.int64()),
                    "s": pa.array(
                        [pc.sum(batch.column(value_col)).as_py() or 0],
                        pa.int64()),
                })
            for i, rolled in enumerate(keys):
                if not (mask >> i) & 1:
                    t = t.append_column(
                        rolled, pa.array([total_label] * t.num_rows))
            outs.append(t.select(keys + ["n", "s"]))
        return pa.concat_tables(outs)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(keys).aggregate(
        RSum("n", alias_name="n_docs"), RSum("s", alias_name=sum_alias))


def grouped_count_distinct(ds, key: str, value: str,
                           alias: str = "n_distinct"):
    """Exact COUNT(DISTINCT value) per key at scale: per-batch
    ``drop_duplicates`` shrinks each batch to its distinct (key, value)
    pairs, ONE pair-keyed shuffle dedups globally (groupby emits one row
    per pair), and a second tiny per-key count runs inside the same
    map_groups — so the all-to-all moves distinct pairs, never rows, and
    nothing holistic sits on the driver. (The HLL sketch in
    stages/sketches is the approximate one-pass alternative.)"""
    import pandas as pd

    def partial(batch: "pd.DataFrame") -> "pd.DataFrame":
        if key not in batch.columns or not len(batch):
            return pd.DataFrame({key: pd.Series(dtype="object"),
                                 value: pd.Series(dtype="object")})
        return batch[[key, value]].drop_duplicates()

    def count_in_group(g: "pd.DataFrame") -> "pd.DataFrame":
        if key not in g.columns or not len(g):
            return pd.DataFrame({key: pd.Series(dtype="object"),
                                 alias: pd.Series(dtype="int64")})
        return pd.DataFrame({key: [g[key].iloc[0]],
                             alias: [int(g[value].nunique())]})

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby(key).map_groups(count_in_group, batch_format="pandas"))


def pivot_counts(ds, row_key: str, col_key: str, col_values: list):
    """Crosstab / PIVOT with a FIXED column domain: one output row per
    ``row_key`` value, one int64 count column per entry of
    ``col_values`` (plus ``other`` for everything else). The fixed
    domain is what makes pivot scale-safe — the schema is known before
    execution, so this is just the partial-then-final sum shape: each
    batch sums one-hot count columns per row key (vectorized pandas), one
    keyed shuffle moves (rows x batches) partial rows, per-row-key merge
    sums. SQL mirror: ``count(*) FILTER (WHERE col_key = v) AS v`` per
    value and ``FILTER (WHERE col_key NOT IN (...))`` for ``other``, so a
    NULL ``row_key`` is a group of its own and a NULL ``col_key`` row
    counts in no column (its group still appears).

    Ray's sort shuffle cannot order None against strings, so a NULL
    string key crosses it as ``""`` plus a ``_null`` flag column."""
    import pandas as pd

    counts = [str(v) for v in col_values] + ["other"]
    keys = [row_key, "_null"]

    def sums(g: "pd.DataFrame") -> "pd.DataFrame":
        s = g.groupby(keys, as_index=False, dropna=False)[counts].sum()
        for nm in counts:
            s[nm] = s[nm].astype("int64")
        return s

    def empty(cols: list) -> "pd.DataFrame":
        return pd.DataFrame({nm: pd.Series(dtype="int64" if nm in counts else "object")
                             for nm in cols})

    def partial(batch: "pd.DataFrame") -> "pd.DataFrame":
        if row_key not in batch.columns or not len(batch):
            return empty(keys + counts)
        key, col = batch[row_key], batch[col_key]
        null = key.isna()
        out = pd.DataFrame({
            row_key: key.mask(null, "") if key.dtype == object else key,
            "_null": null.to_numpy("int8")})
        for v, nm in zip(col_values, counts):
            out[nm] = (col == v).to_numpy("int64")
        out["other"] = (col.notna() & ~col.isin(col_values)).to_numpy("int64")
        return sums(out)

    def merge(g: "pd.DataFrame") -> "pd.DataFrame":
        if row_key not in g.columns or not len(g):
            return empty([row_key] + counts)
        s = sums(g)
        s[row_key] = s[row_key].mask(s["_null"] == 1, None)
        return s.drop(columns="_null")

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby(keys).map_groups(merge, batch_format="pandas"))
