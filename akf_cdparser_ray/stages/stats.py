"""Grouped statistics operators: exact Pearson correlation, modal value,
ordered string aggregation (SURVEY.md §2.5 — the A1/A5 aggregate family
widened to second-moment and holistic aggregates).

All three follow the repo's partial-then-final discipline: per-batch
combiners shrink each batch to one row per key before anything shuffles,
so at 100 TB the exchange moves O(keys x blocks) partial rows, never data
rows. Float exactness follows invariant #3 (CLAUDE.md): every float the
oracle will hash is derived from EXACT integer sums with the identical
expression tree on both sides, so the hash comparison is bit-for-bit, not
tolerance-based.
"""

from __future__ import annotations

import math
import operator

import numpy as np
import pandas as pd
import pyarrow as pa

_MOMENTS = ["sx", "sy", "sxy", "sxx", "syy"]


def _exact_int_sum(a: np.ndarray) -> int:
    """Overflow-proof exact sum of an int64 array (arbitrary-precision
    result): chunk so every partial int64 sum stays below 2^62, then
    combine the chunk sums as Python ints. Vectorized within chunks —
    the Python loop runs len/step times, not len times."""
    if not len(a):
        return 0
    m = int(np.abs(a).max())
    if m == 0:
        return 0
    step = max(1, (1 << 62) // (m + 1))
    if step >= len(a):
        return int(a.sum())
    return sum(int(a[i:i + step].sum()) for i in range(0, len(a), step))


def _exact_dot(x: np.ndarray, y: np.ndarray) -> int:
    """Exact Σ x·y of two int64 arrays. Products multiply as Python ints:
    int64 products wrap once |x|·|y| reaches 2^63 (|x| ≈ 3.04e9 for x·x)."""
    return sum(map(operator.mul, x.tolist(), y.tolist()))


def grouped_corr(ds, key: str, xcol: str, ycol: str,
                 alias: str = "corr") -> pd.DataFrame:
    """Exact per-group Pearson correlation of two INTEGER columns (cents).

    Shape: per-batch partials carry (n, Σx, Σy, Σxy, Σx², Σy²) per key —
    six numbers, merged associatively, so the driver sees keys x blocks
    rows and the merge is exact arbitrary-precision (the second-moment
    sums exceed int64 at ~1e9 rows; partials store Python ints, the
    chunked combiner in :func:`_exact_int_sum` keeps every vectorized
    int64 partial below 2^62). The final float is computed once per key
    from the exact sums with the same expression tree the SQL oracle
    uses — ``num / (sqrt(d1) * sqrt(d2))`` over HUGEINT sums — so both
    sides round identically from identical integers.

    SQL mirror: sum(x*y) etc. as HUGEINT, then
    ``CAST(n*sxy - sx*sy AS DOUBLE)
      / (sqrt(CAST(n*sxx - sx*sx AS DOUBLE))
         * sqrt(CAST(n*syy - sy*sy AS DOUBLE)))``.
    Groups with zero variance on either side yield NaN (SQL NULL)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cols = {key: [], "n": []} | {c: [] for c in _MOMENTS}
        if key in batch.columns and len(batch):
            for kval, g in batch.groupby(key, sort=False):
                x = g[xcol].to_numpy(np.int64)
                y = g[ycol].to_numpy(np.int64)
                cols[key].append(kval)
                cols["n"].append(len(g))
                cols["sx"].append(_exact_int_sum(x))
                cols["sy"].append(_exact_int_sum(y))
                cols["sxy"].append(_exact_dot(x, y))
                cols["sxx"].append(_exact_dot(x, x))
                cols["syy"].append(_exact_dot(y, y))
        out = pd.DataFrame({key: pd.Series(cols[key], dtype="object"),
                            "n": pd.Series(cols["n"], dtype="int64")})
        for c in _MOMENTS:  # object dtype: Python ints, no silent overflow
            out[c] = pd.Series(cols[c], dtype="object")
        return out

    parts = [b for b in ds.map_batches(partial, batch_format="pandas")
             .iter_batches(batch_format="pandas") if len(b.columns)]
    cand = (pd.concat(parts, ignore_index=True) if parts
            else partial(pd.DataFrame()))
    rows = {key: [], alias: []}
    for kval, g in cand.groupby(key, sort=True):
        n = int(g["n"].sum())
        sx, sy, sxy, sxx, syy = (sum(g[c].tolist()) for c in _MOMENTS)
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        rows[key].append(kval)
        rows[alias].append(
            float(num) / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
            if d1 > 0 and d2 > 0 else float("nan"))
    return pd.DataFrame({key: rows[key],
                         alias: pd.Series(rows[alias], dtype="float64")})


def mode_per_group(ds, key: str, col: str,
                   value_alias: str = "mode_value",
                   count_alias: str = "mode_count"):
    """Modal value per group (most frequent; ties break value-ascending,
    the deterministic rule the SQL mirror's ``row_number() OVER (ORDER BY
    count(*) DESC, value ASC)`` encodes).

    Mode is holistic — no fixed-size sketch is exact — but the standard
    two-level shape makes it scale: per-batch (key, value) counts shrink
    each batch to its distinct pairs, the keyed shuffle moves only those
    partial counts, and the per-key final merge is a vectorized pandas
    groupby-sum + argmax. Per-key distinct-value cardinality must fit a
    worker (same contract as every holistic window here; a counter-capped
    Misra-Gries front end is the escape hatch — see exact_heavy_hitters)."""

    def partial(batch: pa.Table) -> pa.Table:
        out = batch.group_by([key, col]).aggregate([(col, "count")])
        renames = {f"{col}_count": "cnt"}
        return out.rename_columns(
            [renames.get(n, n) for n in out.schema.names])

    def final(g: pd.DataFrame) -> pd.DataFrame:
        if key not in g.columns or not len(g):  # empty shuffle block
            return pd.DataFrame({
                key: pd.Series(dtype="object"),
                value_alias: pd.Series(dtype="int64"),
                count_alias: pd.Series(dtype="int64")})
        s = g.groupby(col, as_index=False)["cnt"].sum()
        s = s.sort_values(["cnt", col], ascending=[False, True],
                          kind="mergesort")
        return pd.DataFrame({key: [g[key].iloc[0]],
                             value_alias: [s[col].iloc[0]],
                             count_alias: [int(s["cnt"].iloc[0])]})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return parts.groupby(key).map_groups(final, batch_format="pandas")


def string_agg_sorted(ds, key: str, col: str, sep: str = "|",
                      alias: str = "agg", count_alias: str = "n"):
    """Ordered string aggregation per group — ``string_agg(col, sep ORDER
    BY col)``. ONE keyed shuffle co-locates each group, then the join is
    a local sort + str.join; the partition-fits-a-worker contract is the
    same one every SQL string_agg implementation has (the output row IS
    the whole group). Emits (key, agg, n) with a deterministic total
    order inside each group."""

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        if key not in g.columns or not len(g):  # empty shuffle block
            return pd.DataFrame({
                key: pd.Series(dtype="int64"),
                alias: pd.Series(dtype="object"),
                count_alias: pd.Series(dtype="int64")})
        vals = sorted(str(v) for v in g[col].tolist())
        return pd.DataFrame({key: [g[key].iloc[0]],
                             alias: [sep.join(vals)],
                             count_alias: [len(vals)]})

    return ds.groupby(key).map_groups(per_group, batch_format="pandas")


def zscore_normalize(ds, key: str, col: str, alias: str = "z",
                     ddof: int = 0):
    """Per-group z-score feature normalization of an INTEGER (cents)
    column: two passes — (1) the per-key exact moment sums of
    :func:`grouped_corr`'s family (n, Σx, Σx², arbitrary precision),
    broadcast driver-side as plain floats derived once per key; (2) a
    stateless vectorized map appends z = (x - mean) / std per row,
    keeping the input columns. The float expression tree matches the SQL
    mirror token-for-token — mean = CAST(sx)/CAST(n), std =
    sqrt(CAST(n*sxx - sx*sx AS DOUBLE) / CAST(n*(n-ddof) AS DOUBLE)) —
    so every z is bit-exact. Zero-variance groups emit NaN. The input is
    consumed twice (moments + normalize): pass a stable source."""
    import ray

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cols = {key: [], "n": [], "sx": [], "sxx": []}
        if key in batch.columns and len(batch):
            for kval, g in batch.groupby(key, sort=False):
                x = g[col].to_numpy(np.int64)
                cols[key].append(kval)
                cols["n"].append(len(g))
                cols["sx"].append(_exact_int_sum(x))
                cols["sxx"].append(_exact_dot(x, x))
        out = pd.DataFrame({key: pd.Series(cols[key], dtype="object"),
                            "n": pd.Series(cols["n"], dtype="int64")})
        for c in ("sx", "sxx"):
            out[c] = pd.Series(cols[c], dtype="object")
        return out

    parts = [b for b in ds.map_batches(partial, batch_format="pandas")
             .iter_batches(batch_format="pandas") if len(b.columns)]
    cand = (pd.concat(parts, ignore_index=True) if parts
            else partial(pd.DataFrame()))
    stats = {}
    for kval, g in cand.groupby(key, sort=True):
        n = int(g["n"].sum())
        sx = sum(g["sx"].tolist())
        sxx = sum(g["sxx"].tolist())
        d = n * sxx - sx * sx
        nd = n - ddof
        mean = float(sx) / float(n)
        std = (math.sqrt(float(d) / float(n * nd))
               if d > 0 and nd > 0 else float("nan"))
        stats[kval] = (mean, std)
    ref = ray.put(stats)

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        st = ray.get(ref)
        if key not in batch.columns or not len(batch):
            return pd.DataFrame({key: pd.Series(dtype="object"),
                                 col: pd.Series(dtype="int64"),
                                 alias: pd.Series(dtype="float64")})
        means = batch[key].map(lambda k: st[k][0]).to_numpy(np.float64)
        stds = batch[key].map(lambda k: st[k][1]).to_numpy(np.float64)
        x = batch[col].to_numpy(np.int64).astype(np.float64)
        return batch.assign(**{alias: (x - means) / stds})

    return ds.map_batches(norm, batch_format="pandas")


def grouped_describe(ds, key: str, col: str) -> pd.DataFrame:
    """One-pass per-group summary — n, min, max, mean, population std —
    from exact integer moment sums (the zscore/corr moment machinery
    plus min/max partials). ONE consuming pass; per-batch partials are
    one row per key; floats derive once per key from exact integers
    with the SQL mirror's expression tree (mean = CAST(sx)/CAST(n),
    std = sqrt(CAST(n*sxx - sx*sx AS DOUBLE) / CAST(n*n AS DOUBLE)))."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cols = {key: [], "n": [], "mn": [], "mx": [], "sx": [], "sxx": []}
        if key in batch.columns and len(batch):
            for kval, g in batch.groupby(key, sort=False):
                x = g[col].to_numpy(np.int64)
                cols[key].append(kval)
                cols["n"].append(len(g))
                cols["mn"].append(int(x.min()))
                cols["mx"].append(int(x.max()))
                cols["sx"].append(_exact_int_sum(x))
                cols["sxx"].append(_exact_dot(x, x))
        out = pd.DataFrame({key: pd.Series(cols[key], dtype="object"),
                            "n": pd.Series(cols["n"], dtype="int64"),
                            "mn": pd.Series(cols["mn"], dtype="int64"),
                            "mx": pd.Series(cols["mx"], dtype="int64")})
        for c in ("sx", "sxx"):
            out[c] = pd.Series(cols[c], dtype="object")
        return out

    parts = [b for b in ds.map_batches(partial, batch_format="pandas")
             .iter_batches(batch_format="pandas") if len(b.columns)]
    cand = (pd.concat(parts, ignore_index=True) if parts
            else partial(pd.DataFrame()))
    rows = {key: [], "n": [], "min_c": [], "max_c": [],
            "mean": [], "std": []}
    for kval, g in cand.groupby(key, sort=True):
        n = int(g["n"].sum())
        sx = sum(g["sx"].tolist())
        sxx = sum(g["sxx"].tolist())
        d = n * sxx - sx * sx
        rows[key].append(kval)
        rows["n"].append(n)
        rows["min_c"].append(int(g["mn"].min()))
        rows["max_c"].append(int(g["mx"].max()))
        rows["mean"].append(float(sx) / float(n))
        rows["std"].append(math.sqrt(float(d) / float(n * n))
                           if d > 0 else 0.0)
    out = pd.DataFrame({key: rows[key]})
    out["n"] = pd.Series(rows["n"], dtype="int64")
    out["min_c"] = pd.Series(rows["min_c"], dtype="int64")
    out["max_c"] = pd.Series(rows["max_c"], dtype="int64")
    out["mean"] = pd.Series(rows["mean"], dtype="float64")
    out["std"] = pd.Series(rows["std"], dtype="float64")
    return out
