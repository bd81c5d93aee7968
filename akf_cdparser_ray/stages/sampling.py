"""Deterministic sampling / split operators for training-data pipelines.

Every operator here is a pure function of the row KEY (never of RNG
state, row order, or partitioning), so samples are reproducible across
runs, cluster sizes and resumes — the property a 100-TB pipeline needs
so re-running a failed shard yields the same split. The shared hash is
``md5_lower64(key)`` = the little-endian low 8 bytes of md5, chosen
because DuckDB's ``md5_number_lower`` computes the identical value —
each operator has a hash-exact SQL oracle.

- ``split_assign``: train/val/test (arbitrary named ratios) by hash
  bucket — a stateless vectorized ``map_batches`` column add.
- ``hash_sample``: Bernoulli sample at ``rate`` by hash threshold
  (optionally per-stratum) — a stateless filter, no shuffle.
- ``bottom_k_sample``: uniform-without-replacement k-sample as a
  deterministic "bottom-k by hash" — per-block top-k partials then one
  tiny merge, the mergeable form of reservoir sampling.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from .exchange import rank_join, sized

_BUCKETS = 10_000


def md5_lower64(value) -> int:
    """DuckDB ``md5_number_lower``-compatible 64-bit key hash."""
    digest = hashlib.md5(str(value).encode("utf-8")).digest()
    return int.from_bytes(digest[8:], "little")


def _hash_col_md5(values, salt: str = "") -> np.ndarray:
    """Oracle mode: per-row md5 (== DuckDB md5_number_lower, hash-exact
    SQL oracles). The per-row Python loop is the price of that oracle —
    it is the right gate at test scale, and the wrong hot path at 1e9+
    rows (use ``fast`` mode there)."""
    out = np.empty(len(values), dtype=np.uint64)
    enc = salt.encode("utf-8")
    for i, v in enumerate(values):
        d = hashlib.md5(str(v).encode("utf-8") + enc).digest()
        out[i] = int.from_bytes(d[8:], "little")
    return out


def _hash_col_fast(values, salt: str = "") -> np.ndarray:
    """Production mode: vectorized 64-bit hash (``pd.util.hash_array``,
    fixed key — stable across runs, processes and cluster sizes); the
    salt folds in as an XOR constant, preserving uniformity. Same
    determinism/resume contract as md5 mode, NOT DuckDB-reproducible —
    keep md5 mode wherever an SQL oracle must replay the exact buckets."""
    idx = pd.Index(values)
    if idx.dtype.kind in "iuf":
        h = pd.util.hash_array(idx.to_numpy())
    else:
        h = pd.util.hash_array(idx.astype(str).to_numpy(dtype=object),
                               categorize=False)
    if salt:
        h = h ^ np.uint64(md5_lower64(salt))
    return h.astype(np.uint64, copy=False)


_HASHERS = {"md5": _hash_col_md5, "fast": _hash_col_fast}


def _hash_col(values, salt: str = "", hash_mode: str = "md5") -> np.ndarray:
    return _HASHERS[hash_mode](values, salt)


def split_assign(ds, key: str, ratios: dict[str, float] | None = None,
                 salt: str = "", hash_mode: str = "md5"):
    """Add a ``split`` column: named splits by cumulative hash-bucket
    ranges over md5_lower64(key) % 10000 (row order / partitioning never
    matter; same key + salt → same split, forever)."""
    ratios = ratios or {"train": 0.8, "val": 0.1, "test": 0.1}
    assert abs(sum(ratios.values()) - 1.0) < 1e-9, "ratios must sum to 1"
    names = list(ratios)
    bounds = np.cumsum([ratios[n] for n in names]) * _BUCKETS

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        buckets = (_hash_col(batch[key].tolist(), salt, hash_mode)
                   % np.uint64(_BUCKETS))
        idx = np.searchsorted(bounds, buckets, side="right")
        batch["split"] = [names[i] for i in np.minimum(idx, len(names) - 1)]
        return batch

    return ds.map_batches(assign, batch_format="pandas")


def hash_sample(ds, key: str, rate: float, salt: str = "",
                hash_mode: str = "md5"):
    """Deterministic Bernoulli sample: keep rows whose hash bucket falls
    under ``rate`` — a stateless filter (no shuffle, no RNG)."""
    threshold = np.uint64(int(rate * _BUCKETS))

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        buckets = (_hash_col(batch[key].tolist(), salt, hash_mode)
                   % np.uint64(_BUCKETS))
        return batch[buckets < threshold]

    return ds.map_batches(keep, batch_format="pandas")


def stratified_sample_k(ds, group: str, key: str, k: int, salt: str = "",
                        hash_mode: str = "md5"):
    """Exactly ``k`` rows per group (fewer if the group is smaller),
    chosen as the group's bottom-k by key hash — a deterministic
    stratified sample without replacement (per-class eval sets). One
    group-keyed shuffle; within each group the selection is the same
    mergeable bottom-k as :func:`bottom_k_sample`. SQL mirror:
    ``row_number() OVER (PARTITION BY group ORDER BY
    md5_number_lower(key), key) <= k``."""
    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        h = _hash_col(g[key].tolist(), salt, hash_mode)
        return (
            g.assign(_h=h)
            .nsmallest(k, ["_h", key], keep="first")
            .drop(columns=["_h"])
        )

    out = ds.groupby(group).map_groups(per_group, batch_format="pandas")
    return out.sort([group, key])


def bottom_k_sample(ds, key: str, k: int, salt: str = "",
                    hash_mode: str = "md5"):
    """Uniform k-sample without replacement: the k rows with the smallest
    key hash (ties impossible modulo md5 collisions; key ascending as the
    formal tiebreak). Mergeable reservoir shape: each block reduces to its
    own bottom-k, the driver merges k·num_blocks candidate rows — the
    payload never concentrates anywhere."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        h = _hash_col(batch[key].tolist(), salt, hash_mode)
        batch = batch.assign(_h=h)
        return batch.nsmallest(k, ["_h", key], keep="first")

    cand = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = (
        cand.sort_values(["_h", key], ascending=[True, True])
        .head(k)
        .drop(columns=["_h"])
        .reset_index(drop=True)
    )
    return out


def temperature_sample(ds, group: str, key: str, alpha: float = 0.5,
                       salt: str = "", hash_mode: str = "md5"):
    """Temperature-based source rebalancing (the multilingual-corpus
    alpha-sampling trick): source g is kept at rate
    ``r_g = (n_min / n_g) ** (1 - alpha)`` — alpha=1 keeps everything
    (natural mix), alpha=0 downsamples every source to the smallest
    one's size in expectation, values between flatten the mix. The rate
    uses only n_g and the exact integer n_min (deliberately NOT the
    usual sum-normalized n^alpha weights: a cross-group float sum is
    summation-order-dependent, which would break the bit-exact SQL
    mirror; this form is float-identical per group on both engines).

    Shape: one tiny group-count aggregate, then a stateless hash filter
    (no shuffle of the payload; same determinism contract as
    ``hash_sample``). Returns the filtered dataset."""
    import math

    counts = ds.groupby(group).count().to_pandas()
    counts = {r[group]: int(r["count()"]) for _, r in counts.iterrows()}
    n_min = min(counts.values())
    thresholds = {
        g: int(math.floor(((n_min / n) ** (1.0 - alpha)) * _BUCKETS))
        for g, n in counts.items()
    }

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        buckets = (_hash_col(batch[key].tolist(), salt, hash_mode)
                   % np.uint64(_BUCKETS))
        thr = batch[group].map(thresholds).fillna(0).to_numpy(np.uint64)
        return batch[buckets < thr]

    return ds.map_batches(keep, batch_format="pandas")


def weighted_sample_k(ds, key: str, weight: str, k: int, salt: str = "",
                      hash_mode: str = "md5"):
    """Deterministic weighted sample WITHOUT replacement (Efraimidis-
    Spirakis A-ES): each row draws the uniform u = (hash(key)+1)/2^64
    and scores u**(1/weight); the k largest scores are the sample, so a
    row's inclusion odds scale with its weight — the standard primitive
    for weighted training-data mixing, with the RNG replaced by the key
    hash (reproducible across runs, partitionings and resumes, like
    every operator here). Rows with weight <= 0 are excluded.

    Mergeable shape: each block reduces to its own top-k, the driver
    merges k*num_blocks candidates. SQL mirror (hash-exact, same libm
    pow): ORDER BY pow((CAST(md5_number_lower(key||salt) AS DOUBLE)+1)
    / 2^64, 1.0/weight) DESC, key LIMIT k."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch[weight] > 0]
        if not len(batch):
            # typed empty WITH the score column: mixed block schemas (and a
            # KeyError on the driver sort when every block filters empty)
            # otherwise
            return batch.assign(_s=pd.Series(dtype="float64"))
        h = _hash_col(batch[key].tolist(), salt, hash_mode)
        u = (h.astype(np.float64) + 1.0) / 2.0 ** 64
        score = np.power(u, 1.0 / batch[weight].to_numpy(np.float64))
        return (
            batch.assign(_s=score)
            .sort_values(["_s", key], ascending=[False, True])
            .head(k)
        )

    cand = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if "_s" not in cand.columns:
        # every block filtered empty: Ray's to_pandas drops the columns of
        # all-empty pandas blocks — return the (empty) frame as-is
        return cand.reset_index(drop=True)
    return (
        cand.sort_values(["_s", key], ascending=[False, True])
        .head(k)
        .drop(columns=["_s"])
        .reset_index(drop=True)
    )


def epoch_shuffle(ds, key: str = "doc_id", epoch: int = 0,
                  num_shards: int | None = None, hash_mode: str = "md5"):
    """Deterministic per-epoch GLOBAL reshuffle: every row gets its
    position in the permutation ordered by (md5(key||'|ep<epoch>'), key)
    — the reproducible training-epoch shuffle (same key + epoch → same
    position, on any partitioning, any cluster size, after any resume).

    Scale shape — ``exchange.rank_join``, not a sort: hashing is
    embarrassingly parallel; the hash space is RANGE-partitioned by its
    top bits into ``num_shards`` (rounded up to a power of two) sorted
    object-store shards, the driver holds S shard counts (for the global
    offsets) and S ObjectRefs — never a row; each block then computes
    its rows' positions with a ``searchsorted`` probe against its shard.
    No all-to-all sort of the payload, no driver materialization.
    ``num_shards=None`` sizes it from the row count, up to 16
    (``exchange.sized``).

    SQL mirror (hash-exact): ``row_number() OVER (ORDER BY
    md5_number_lower(CAST(key AS VARCHAR) || '|ep<epoch>') ASC, key ASC)
    - 1``. Returns a Dataset of (key, pos)."""
    import math

    salt = f"|ep{epoch}"

    def keyed(batch: pd.DataFrame) -> pd.DataFrame:
        if key not in batch.columns or not len(batch):
            return pd.DataFrame({key: pd.Series(dtype="int64"),
                                 "_k": pd.Series(dtype="uint64")})
        h = _hash_col(batch[key].tolist(), salt, hash_mode)
        return pd.DataFrame({key: batch[key].to_numpy(), "_k": h})

    keyed_ds, S = sized(ds.map_batches(keyed, batch_format="pandas",
                                       batch_size=None), num_shards)
    S = 1 << max(0, int(math.ceil(math.log2(max(1, S)))))
    shift = np.uint64(64 - (S.bit_length() - 1)) if S > 1 else None

    def _shard_of(ks: np.ndarray) -> np.ndarray:
        if S == 1:
            return np.zeros(len(ks), dtype=np.int64)
        return (ks >> shift).astype(np.int64)

    return rank_join(keyed_ds, S, _shard_of, "_k", key, "pos")


def global_ntile(ds, key: str = "doc_id", k: int = 4, epoch: int = 0,
                 num_shards: int | None = None, hash_mode: str = "md5",
                 total: int | None = None):
    """NTILE(k) over the deterministic global hash order — equal-depth
    bucket assignment for train-shard / eval-fold construction, with SQL
    NTILE's exact fill rule (the first ``n % k`` buckets take one extra
    row). Composes :func:`epoch_shuffle`'s range-sharded rank join, so
    there is no distributed sort and no driver materialization; the only
    extra cost over the rank itself is one vectorized arithmetic map.

    ``total`` lets the caller pass a known row count; otherwise it comes
    from ``ds.count()`` BEFORE the rank pass (metadata-only on a plain
    parquet read — on a transformed input, pass ``total`` to avoid a
    second execution).

    SQL mirror (hash-exact): ``ntile(k) OVER (ORDER BY
    md5_number_lower(CAST(key AS VARCHAR) || '|ep<epoch>') ASC, key
    ASC)``. Returns a Dataset of (key, bucket), bucket in 1..k."""
    n = int(total) if total is not None else int(ds.count())
    pos_ds = epoch_shuffle(ds, key=key, epoch=epoch,
                           num_shards=num_shards, hash_mode=hash_mode)
    q, r = divmod(n, k)
    cut = r * (q + 1)
    qd = max(q, 1)  # q==0 (n<k): every pos < cut, the else arm is dead

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        if "pos" not in batch.columns or not len(batch):
            return pd.DataFrame({key: pd.Series(dtype="int64"),
                                 "bucket": pd.Series(dtype="int64")})
        p = batch["pos"].to_numpy(np.int64)
        b = np.where(p < cut, p // (q + 1) + 1, r + (p - cut) // qd + 1)
        return pd.DataFrame({key: batch[key].to_numpy(),
                             "bucket": b.astype(np.int64)})

    return pos_ds.map_batches(bucketize, batch_format="pandas")
