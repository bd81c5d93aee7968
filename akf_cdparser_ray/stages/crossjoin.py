"""Distributed exact all-pairs operators (block-nested-loop cross join).

Exact n-gram-Jaccard near-dup is inherently O(N²): the scalable engine path
for near-dup detection is MinHash/LSH banding (stages/dedup_text.py), and
this operator exists as the EXACT kernel those approximations are measured
against (it is the one near-dup operator with a DuckDB oracle). Shape:

  1. a distributed projection pass shrinks every document to its sorted
     distinct shingle list (tiny rows — the corpus text never moves again);
  2. the projection's blocks stay in the object store
     (``Dataset.to_arrow_refs`` — no driver materialization);
  3. a Dataset of (block_i, block_j) index pairs fans the B·(B+1)/2
     block-pair comparisons across the cluster; each task dereferences its
     two blocks zero-copy and emits the pairs that pass the threshold.

The threshold test is integer cross-multiplied (n_inter·100 ≥ pct·n_union)
so the oracle comparison is exact — no float rounding anywhere.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import shard_count


def _key_hash(vals: np.ndarray) -> np.ndarray:
    """uint64 hash of join keys, equal for equal numbers across dtypes:
    pandas merge matches int64 3 with float64 3.0, so every integral
    value in int64 range hashes as that int64, the rest as float64. A
    float64 cast of every key would merge distinct int64 keys above
    2**53 into shared buckets."""
    kind = vals.dtype.kind
    if kind == "i":
        return pd.util.hash_array(vals.astype(np.int64, copy=False))
    if kind == "u":
        whole = vals < np.uint64(1 << 63)
    elif kind == "f":
        whole = ((vals == np.floor(vals)) & (vals >= -2.0 ** 63)
                 & (vals < 2.0 ** 63))
    else:
        return pd.util.hash_array(vals)
    h = pd.util.hash_array(vals.astype(np.float64))
    h[whole] = pd.util.hash_array(vals[whole].astype(np.int64))
    return h


# Rows per block of the all-pairs join. A block-pair task does rows²
# set intersections, so its cost grows with the square of the block:
# 1,024 rows is up to ~1 M intersections per task, while a linear
# exchange's ROWS_PER_SHARD would put a whole 5,000-doc corpus in one
# quadratic task on one CPU.
ROWS_PER_BLOCK = 1024


def _shingle_project(batch: pd.DataFrame, n: int) -> pd.DataFrame:
    """documents batch → (doc_id, shingles) with shingles the sorted
    distinct n-word-grams joined by NUL. Single-space split mirrors the
    DuckDB oracle's string_split(text, ' ') exactly; docs with < n words
    are dropped on both sides."""
    ids, shs = [], []
    for doc_id, text in zip(batch["doc_id"], batch["text"].fillna("")):
        words = str(text).split(" ")
        if len(words) < n:
            continue
        grams = {" ".join(words[i: i + n]) for i in range(len(words) - n + 1)}
        ids.append(int(doc_id))
        shs.append("\x00".join(sorted(grams)))
    return pd.DataFrame({"doc_id": pd.Series(ids, dtype="int64"),
                         "shingles": pd.Series(shs, dtype="object")})


def ngram_jaccard_pairs(docs_ds, *, threshold_pct: int = 50, n: int = 3,
                        num_blocks: int | None = None) -> pd.DataFrame:
    """Exact all-pairs n-gram Jaccard near-dup: (doc_a, doc_b, n_inter,
    n_union) for every pair with n_inter·100 ≥ threshold_pct·n_union.
    ``num_blocks=None`` sizes B from the projected row count,
    ``ceil(rows / ROWS_PER_BLOCK)`` up to 8."""
    import ray
    import ray.data as rd

    sh = docs_ds.map_batches(
        _shingle_project, fn_kwargs={"n": n}, batch_format="pandas"
    ).materialize()
    if num_blocks is None:
        num_blocks = shard_count(sh.count(), cap=8, per_shard=ROWS_PER_BLOCK)
    if sh.num_blocks() != num_blocks:  # B blocks → B·(B+1)/2 compare tasks
        sh = sh.repartition(num_blocks).materialize()
    refs = sh.to_arrow_refs()  # blocks stay in the object store
    nb = len(refs)
    idx_pairs = [{"i": i, "j": j} for i in range(nb) for j in range(i, nb)]

    def compare(batch: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_i, out_u = [], [], [], []
        for i, j in zip(batch["i"], batch["j"]):
            left = ray.get(refs[int(i)]).to_pandas()
            right = left if i == j else ray.get(refs[int(j)]).to_pandas()
            lsets = [(int(d), frozenset(s.split("\x00")))
                     for d, s in zip(left["doc_id"], left["shingles"])]
            rsets = (lsets if i == j else
                     [(int(d), frozenset(s.split("\x00")))
                      for d, s in zip(right["doc_id"], right["shingles"])])
            same_block = i == j
            for da, sa in lsets:
                for db, sb in rsets:
                    # each unordered doc pair appears in exactly one block
                    # pair; doc_ids need NOT be ordered across blocks, so
                    # cross-block pairs are ordered here, and only the
                    # same-block case uses da<db to halve the loop
                    if same_block:
                        if da >= db:
                            continue
                        lo, hi = da, db
                    else:
                        if da == db:
                            continue
                        lo, hi = (da, db) if da < db else (db, da)
                    inter = len(sa & sb)
                    union = len(sa) + len(sb) - inter
                    if inter * 100 >= threshold_pct * union:
                        out_a.append(lo)
                        out_b.append(hi)
                        out_i.append(inter)
                        out_u.append(union)
        return pd.DataFrame({
            "doc_a": pd.Series(out_a, dtype="int64"),
            "doc_b": pd.Series(out_b, dtype="int64"),
            "n_inter": pd.Series(out_i, dtype="int64"),
            "n_union": pd.Series(out_u, dtype="int64"),
        })

    out = (
        rd.from_items(idx_pairs)
        .map_batches(compare, batch_format="pandas", batch_size=1, num_cpus=1)
        .to_pandas()  # verified pairs only — output-sized
    )
    if not len(out.columns):  # no pair passed: all-empty blocks lose columns
        out = compare(pd.DataFrame({"i": [], "j": []}))
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def broadcast_hash_join(large_ds, small_df: pd.DataFrame, key: str):
    """Equi-join: broadcast the small side once (ray.put) and hash-merge it
    inside each batch — the standard skew-proof alternative to an all-to-all
    shuffle join when one side fits in memory."""
    import ray

    small_ref = ray.put(small_df)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        small = ray.get(small_ref) if not isinstance(small_ref, pd.DataFrame) else small_ref
        return batch.merge(small, on=key, how="inner")

    return large_ds.map_batches(merge, batch_format="pandas")


def shuffle_hash_join(left_ds, right_ds, *, left_key: str, right_key: str,
                      num_buckets: int = 32,
                      left_cols: list[str] | None = None,
                      right_cols: list[str] | None = None,
                      how: str = "inner"):
    """Big-×-big equi-join: co-partition BOTH sides on ``hash(key) %
    num_buckets`` (one explicit all-to-all; pandas' deterministic siphash so
    integer-correlated keys don't skew buckets; integral float keys hash as
    int64 so an int64 3 and a float64 3.0 — which pandas merge treats as
    equal — land in the same bucket, see ``_key_hash``), then a local pandas
    hash join inside each bucket group. SQL semantics: null keys never
    match (dropped at tag time). Pass ``left_cols``/``right_cols``
    explicitly to avoid an eager ``schema()`` call on lazy upstream plans
    (a map_batches pipeline would partially execute just to report names).
    Skewed keys: all rows of one key share a bucket — salt the key and
    replicate the smaller side per salt when one key dominates (same recipe
    as the crawl's hot-host splitting).

    ``how="left"`` gives LEFT OUTER semantics: unmatched (or null-key) left
    rows survive with the right columns null — same co-partition shape; the
    only changes are that left null keys are kept (they bucket normally but
    can never match, because right nulls ARE dropped — pandas merge would
    otherwise match NaN to NaN) and each bucket joins ``how="left"``.
    ``how="outer"`` (FULL OUTER) keeps null keys on BOTH sides; per bucket
    the null-key rows are routed AROUND the merge (SQL: NULL matches
    nothing; pandas outer merge would pair NaN with NaN) and appended
    unmatched. Co-partitioning makes per-bucket outer globally correct:
    a key's rows — both sides — live in exactly one bucket."""
    import pandas as pd

    if how not in ("inner", "left", "outer"):
        raise ValueError(f"how={how!r}: only inner/left/outer supported")
    if left_cols is None:
        left_cols = list(left_ds.schema().names)
    if right_cols is None:
        right_cols = list(right_ds.schema().names)

    def _bucket_of(col: pd.Series) -> pd.Series:
        return (_key_hash(col.to_numpy()) % num_buckets).astype("int64")

    def tag(side: int, key: str):
        keep_nulls = how == "outer" or (how == "left" and side == 0)

        def f(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch if keep_nulls else batch[batch[key].notna()]
            out = out.copy()  # null keys never join (right side drops them)
            out["_jk"] = out[key]
            out["_bucket"] = _bucket_of(out[key])
            out["_side"] = side
            return out
        return f

    def join_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # reindex, not .loc: a group block holding rows of only one side
        # lacks the other side's columns entirely
        if "_side" not in group.columns:  # column-less empty shuffle block
            return pd.DataFrame()
        left = group[group["_side"] == 0].reindex(columns=left_cols + ["_jk"])
        right = group[group["_side"] == 1].reindex(columns=right_cols + ["_jk"])
        if how == "outer":
            if left.empty and right.empty:
                return pd.DataFrame()
            lnull, rnull = left[left["_jk"].isna()], right[right["_jk"].isna()]
            out = left[left["_jk"].notna()].merge(
                right[right["_jk"].notna()], on="_jk", how="outer")
            if len(lnull) or len(rnull):
                out = pd.concat([out, lnull, rnull], ignore_index=True)
            return (out.reindex(columns=left_cols + right_cols + ["_jk"])
                    .drop(columns=["_jk"]))
        if left.empty or (right.empty and how == "inner"):
            return pd.DataFrame()
        return left.merge(right, on="_jk", how=how).drop(columns=["_jk"])

    tagged = left_ds.map_batches(tag(0, left_key), batch_format="pandas").union(
        right_ds.map_batches(tag(1, right_key), batch_format="pandas")
    )
    return tagged.groupby("_bucket").map_groups(join_bucket, batch_format="pandas")


def salted_shuffle_join(left_ds, right_ds, *, left_key: str,
                        right_key: str, hot_keys, salt: int = 8,
                        num_buckets: int = 32,
                        left_cols: list[str] | None = None,
                        right_cols: list[str] | None = None):
    """INNER equi-join that survives heavy key skew: the hot-host /
    hot-token recipe the plain shuffle join's docstring prescribes, made
    real. Keys in ``hot_keys`` would put every one of their rows into a
    single bucket of :func:`shuffle_hash_join` (one straggling worker at
    100 TB); here each hot LEFT row gets one of ``salt`` deterministic
    sub-buckets (hash of its row content — no RNG, reproducible on any
    partitioning), and the hot RIGHT rows replicate into ALL ``salt``
    sub-buckets, so a hot key's work spreads across ``salt`` workers
    while the small side's duplication is |hot right rows| x salt.
    Non-hot keys take the normal one-bucket path; output equals the
    unsalted join exactly (row order aside). Inner-only: replicated
    right rows would need unmatched-dedup under left/outer semantics."""
    import numpy as np

    hot = frozenset(hot_keys)
    if left_cols is None:
        left_cols = list(left_ds.schema().names)
    if right_cols is None:
        right_cols = list(right_ds.schema().names)
    total = num_buckets * salt

    def _base_bucket(vals: np.ndarray) -> np.ndarray:
        return (_key_hash(vals) % num_buckets).astype("int64")

    def tag_left(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch[left_key].notna()]
        out = batch.copy()
        out["_jk"] = out[left_key]
        base = _base_bucket(out[left_key].to_numpy())
        # deterministic per-row salt: hash the row's position-free
        # content (all columns), so the same row salts identically on
        # any partitioning
        mix = np.zeros(len(out), dtype=np.uint64)
        for c in left_cols:
            mix ^= pd.util.hash_array(out[c].to_numpy()).astype(np.uint64)
        s = (mix % salt).astype("int64")
        is_hot = out[left_key].isin(hot).to_numpy()
        out["_bucket"] = np.where(is_hot, base * salt + s, base * salt)
        out["_side"] = 0
        return out

    def tag_right(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch[right_key].notna()]
        cold = batch[~batch[right_key].isin(hot)].copy()
        cold["_jk"] = cold[right_key]
        cold["_bucket"] = _base_bucket(cold[right_key].to_numpy()) * salt
        hotr = batch[batch[right_key].isin(hot)]
        reps = []
        if len(hotr):
            base = _base_bucket(hotr[right_key].to_numpy())
            for s in range(salt):  # replicate into every sub-bucket
                r = hotr.copy()
                r["_jk"] = r[right_key]
                r["_bucket"] = base * salt + s
                reps.append(r)
        out = pd.concat([cold] + reps, ignore_index=True)
        out["_side"] = 1
        return out

    def join_bucket(group: pd.DataFrame) -> pd.DataFrame:
        if "_side" not in group.columns:
            return pd.DataFrame()
        left = group[group["_side"] == 0].reindex(
            columns=left_cols + ["_jk"])
        right = group[group["_side"] == 1].reindex(
            columns=right_cols + ["_jk"])
        if left.empty or right.empty:
            return pd.DataFrame()
        return left.merge(right, on="_jk").drop(columns=["_jk"])

    assert total >= 1
    tagged = (left_ds.map_batches(tag_left, batch_format="pandas")
              .union(right_ds.map_batches(tag_right,
                                          batch_format="pandas")))
    return tagged.groupby("_bucket").map_groups(join_bucket,
                                                batch_format="pandas")
