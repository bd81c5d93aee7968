"""Stream-shaped operators over the ordered ``events`` log.

Ray Data has no event-time windows; per the engine design, windows are
``floor(ts)`` keys + partial-then-final aggregation, and the as-of join is a
broadcast ``merge_asof`` per batch (the small side — orders — ships once via
``ray.put``; nothing shuffles).
"""

from __future__ import annotations

import pandas as pd
import ray

from .exchange import exchange, member_mask, shard_lens, sized


def tumbling_window_counts(events_ds, freq: str = "h"):
    """Tumbling-window counts/sums per (window_start, event_type)."""
    import pyarrow as pa

    from .relational import partial_groupby_sum

    def add_window(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "window_start": batch["ts"].dt.floor(freq),
                "event_type": batch["event_type"],
                "value": batch["value"],
            }
        )
        return out

    ds = events_ds.map_batches(add_window, batch_format="pandas")
    out = partial_groupby_sum(ds, ["window_start", "event_type"], ["value"], count_alias="n")
    df = out.to_pandas().rename(columns={"value": "total_value"})
    df["total_value"] = df["total_value"].round(6)
    return df[["window_start", "event_type", "total_value", "n"]]


def asof_join_events_orders(events_ds, orders_df: pd.DataFrame) -> pd.DataFrame:
    """For each event, the latest order of the same customer at or before the
    event timestamp (inner as-of). Returns (event_id, user_id, o_orderdate)."""
    orders_sorted = orders_df.sort_values("o_orderdate").reset_index(drop=True)
    orders_ref = ray.put(orders_sorted)

    def per_batch(batch: pd.DataFrame) -> pd.DataFrame:
        right = ray.get(orders_ref) if isinstance(orders_ref, ray.ObjectRef) else orders_ref
        left = batch[["event_id", "user_id", "ts"]].sort_values("ts").reset_index(drop=True)
        joined = pd.merge_asof(
            left,
            right[["o_custkey", "o_orderdate"]],
            left_on="ts",
            right_on="o_orderdate",
            left_by="user_id",
            right_by="o_custkey",
            direction="backward",
        )
        joined = joined.dropna(subset=["o_orderdate"])
        return joined[["event_id", "user_id", "o_orderdate"]]

    return (
        events_ds.map_batches(per_batch, batch_format="pandas", batch_size=4096)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def topk_per_shard(events_ds, num_shards: int = 4, k: int = 3) -> pd.DataFrame:
    """The frontier-dequeue pattern over events: per-shard priority top-k
    with deterministic tie-breaks (value desc, event_id asc)."""

    def add_shard(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[["event_id", "user_id", "value"]].copy()
        batch["shard"] = (batch["user_id"] % num_shards).astype("int64")
        return batch

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["value", "event_id"], ascending=[False, True]).head(k)
        g = g.copy()
        g["rank"] = range(1, len(g) + 1)
        return g

    out = (
        events_ds.map_batches(add_shard, batch_format="pandas")
        .groupby("shard")
        .map_groups(topk, batch_format="pandas")
        .to_pandas()
    )
    out["value"] = out["value"].round(6)
    return out[["shard", "event_id", "value", "rank"]].sort_values(
        ["shard", "rank"]
    ).reset_index(drop=True)


def anti_join_new_users(events_ds, known_keys) -> pd.DataFrame:
    """Broadcast anti-join: distinct event users not present in the known-key
    set (the URL-seen semi/anti-join pattern with a broadcast small side)."""
    keys_ref = ray.put(frozenset(int(k) for k in known_keys))

    def filt(batch: pd.DataFrame) -> pd.DataFrame:
        known = ray.get(keys_ref) if isinstance(keys_ref, ray.ObjectRef) else keys_ref
        sub = batch[~batch["user_id"].isin(known)]
        return sub[["user_id"]].drop_duplicates()

    out = events_ds.map_batches(filt, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame({"user_id": pd.Series(dtype="int64")})
    return out.drop_duplicates().sort_values("user_id").reset_index(drop=True)


def _split_ids_block(bl, key: str, num_shards: int) -> list:
    """One block → ``num_shards`` sorted-unique int64 slices
    (``ids % num_shards == s``). Factored out so the per-task memory
    contract is unit-testable: a split task touches O(block) rows, a
    merge task only its own shard's slices."""
    import numpy as np

    if not bl.num_rows or key not in bl.schema.names:
        return [np.empty(0, np.int64) for _ in range(num_shards)]
    ids = (bl.column(key).to_numpy(zero_copy_only=False)
           .astype(np.int64, copy=False))
    mod = ids % num_shards
    return [np.unique(ids[mod == s]) for s in range(num_shards)]


def build_id_shards(ids_ds, key: str, num_shards: int | None) -> dict:
    """Hash-partition an integer id column into SORTED per-shard numpy
    arrays pinned in the object store. The driver holds only the
    ObjectRefs — never an id set — and the exchange is the two-hop
    ``exchange.exchange``. Workers later probe a shard zero-copy from
    plasma (``exchange.member_mask``: one shared mapping per node, not a
    per-task Python-set copy).

    Transient memory per task is O(block) then O(total/S), never
    O(total) (a merge that received every block and filtered would OOM
    workers at a 100-TB drop list long before plasma fills).

    ``num_shards=None`` sizes S from the id count, up to 16
    (``exchange.sized``); S is ``len(result)``."""
    import numpy as np

    ids_ds, num_shards = sized(ids_ds, num_shards)

    def merge(*slices):
        arrs = [a for a in slices if len(a)]
        if not arrs:
            return np.empty(0, np.int64)
        return np.unique(np.concatenate(arrs))

    return exchange(ids_ds.to_arrow_refs(), num_shards,
                    lambda bl: _split_ids_block(bl, key, num_shards), merge)


def anti_join_ids(left_ds, ids_ds, key: str = "doc_id",
                  num_shards: int | None = None):
    """Distributed anti-join against an id list that PRESERVES the left
    side's layout (row order AND block boundaries — required upstream of
    batch-layout-sensitive consumers like FFD packing).

    The right side — possibly a large fraction of the corpus, e.g. a
    web-dedup drop list — is hash-partitioned into sorted object-store
    arrays (``build_id_shards``); the left streams through a stateless
    ``map_batches`` probing each shard with ``searchsorted``. No shuffle
    of the left (a groupby-based anti-join would reorder it and move the
    full text payload all-to-all for what is an id-membership test), no
    driver id set, no per-task set copy: 8 bytes/id shared per node via
    plasma, spillable.

    ``ids_ds``: a Dataset with column ``key``; ``num_shards=None``
    sizes the id shards from its row count (``build_id_shards``)."""
    import numpy as np

    shards = build_id_shards(ids_ds, key, num_shards)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        if key not in batch.columns or not len(batch):
            return batch
        ids = batch[key].to_numpy(dtype=np.int64)
        return batch[~member_mask(ids, shards)]

    return left_ds.map_batches(probe, batch_format="pandas",
                               batch_size=None)


def asof_join_partitioned(events_ds, orders_ds, num_shards: int = 8) -> pd.DataFrame:
    """Range/key-partitioned as-of join — the 100-TB path when the right
    side does NOT fit in memory: both sides shuffle once on
    ``key % num_shards`` (events carry only their join projection), then
    each shard group runs a local sorted ``merge_asof``. Equivalent to
    :func:`asof_join_events_orders` (tested), with shuffle volume =
    |events projection| + |orders| instead of a per-task broadcast.

    Hot-key note: a single customer's rows land in one shard; salt the key
    and replicate that customer's orders per salt if one key dominates."""

    def tag_left(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["event_id", "user_id", "ts"]].copy()
        out["shard"] = (out["user_id"] % num_shards).astype("int64")
        out["side"] = 0
        out["o_custkey"] = -1
        out["o_orderdate"] = pd.NaT
        return out

    def tag_right(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "event_id": -1,
            "user_id": -1,
            "ts": pd.NaT,
            "shard": (batch["o_custkey"] % num_shards).astype("int64"),
            "side": 1,
            "o_custkey": batch["o_custkey"],
            "o_orderdate": batch["o_orderdate"],
        })
        return out

    def join_shard(group: pd.DataFrame) -> pd.DataFrame:
        left = group[group["side"] == 0][["event_id", "user_id", "ts"]]
        right = group[group["side"] == 1][["o_custkey", "o_orderdate"]]
        if left.empty or right.empty:
            return pd.DataFrame({
                "event_id": pd.Series(dtype="int64"),
                "user_id": pd.Series(dtype="int64"),
                "o_orderdate": pd.Series(dtype="datetime64[ns]"),
            })
        joined = pd.merge_asof(
            left.sort_values("ts").reset_index(drop=True),
            right.sort_values("o_orderdate").reset_index(drop=True),
            left_on="ts", right_on="o_orderdate",
            left_by="user_id", right_by="o_custkey",
            direction="backward",
        ).dropna(subset=["o_orderdate"])
        return joined[["event_id", "user_id", "o_orderdate"]]

    left_ds = events_ds.map_batches(tag_left, batch_format="pandas")
    right_ds = orders_ds.map_batches(tag_right, batch_format="pandas")
    out = (
        left_ds.union(right_ds)
        .groupby("shard")
        .map_groups(join_shard, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("event_id").reset_index(drop=True)


def sessionize_counts(events_ds, gap_minutes: int = 30) -> pd.DataFrame:
    """Sessionization: per user, events sorted by (ts, event_id) start a new
    session when the gap to the previous event exceeds ``gap_minutes``.
    Hash-partitioned ``groupby(user_id).map_groups`` — each user's timeline
    is processed whole on one worker (the partitioning assumption); output
    is the per-user (n_sessions, n_events) rollup, all-integer so the SQL
    oracle comparison is exact."""

    def per_user(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["ts", "event_id"]).reset_index(drop=True)
        gaps = g["ts"].diff()
        new_sess = (gaps.isna() | (gaps > pd.Timedelta(minutes=gap_minutes))).sum()
        return pd.DataFrame({
            "user_id": [int(g["user_id"].iloc[0])],
            "n_sessions": [int(new_sess)],
            "n_events": [len(g)],
        })

    out = (
        events_ds.groupby("user_id")
        .map_groups(per_user, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("user_id").reset_index(drop=True)


def grouped_median(events_ds, key: str = "event_type", col: str = "value") -> pd.DataFrame:
    """Exact per-group discrete median: ``groupby(key).map_groups`` sorts the
    group and picks index floor(0.5·(n-1)) — DuckDB's quantile_disc rule, so
    the oracle match is bit-exact (the value is an actual data element, not
    an interpolation). Exact quantiles need the whole group on one worker;
    the streaming-scale alternative is a mergeable sketch (t-digest)."""

    def med(group: pd.DataFrame) -> pd.DataFrame:
        vals = group[col].dropna().sort_values().to_numpy()  # quantile ignores NULLs
        idx = int(0.5 * (len(vals) - 1))
        return pd.DataFrame({
            key: [group[key].iloc[0]],
            "median_value": [float(vals[idx]) if len(vals) else None],
            "n": [len(group)],  # count(*) counts all rows, nulls included
        })

    out = events_ds.groupby(key).map_groups(med, batch_format="pandas").to_pandas()
    return out.sort_values(key).reset_index(drop=True)


def interval_join_partitioned(points_ds, anchors_ds, minutes: int = 10,
                              num_shards: int = 8) -> pd.DataFrame:
    """Range (interval) join, co-partitioned on the equi-key: per anchor,
    the count of same-key points with ``anchor_ts <= ts < anchor_ts +
    minutes``. Inputs: ``points_ds`` with (key, ts), ``anchors_ds`` with
    (anchor_id, key, ts). Same scale shape as ``asof_join_partitioned`` —
    both sides shuffle ONCE by key-hash shard, each shard's match runs
    sorted + vectorized (two searchsorted calls per anchor over the key's
    point times; interval hit count = upper_bound − lower_bound, never a
    per-pair nested loop). Only anchors with ≥1 matching point return
    (inner-join semantics → the DuckDB mirror is a plain inequality join)."""
    import numpy as np

    delta = pd.Timedelta(minutes=minutes)

    def tag_left(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["key", "ts"]].copy()
        out["ts"] = out["ts"].astype("datetime64[ns]")
        out["shard"] = (out["key"].to_numpy() % num_shards).astype("int64")
        out["side"] = 0
        out["anchor_id"] = -1
        return out

    def tag_right(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "key": batch["key"],
            "ts": batch["ts"].astype("datetime64[ns]"),
            "shard": (batch["key"].to_numpy() % num_shards).astype("int64"),
            "side": 1,
            "anchor_id": batch["anchor_id"],
        })
        return out

    def join_shard(group: pd.DataFrame) -> pd.DataFrame:
        pts = group[group["side"] == 0]
        anchors = group[group["side"] == 1]
        empty = pd.DataFrame({"anchor_id": pd.Series(dtype="int64"),
                              "n_points": pd.Series(dtype="int64")})
        if pts.empty or anchors.empty:
            return empty
        by_key = {k: g["ts"].sort_values().to_numpy()
                  for k, g in pts.groupby("key", sort=False)}
        out_ids: list[int] = []
        out_ns: list[int] = []
        for key, g in anchors.groupby("key", sort=False):
            times = by_key.get(key)
            if times is None:
                continue
            starts = g["ts"].to_numpy()
            lo = np.searchsorted(times, starts, side="left")
            hi = np.searchsorted(times, starts + np.timedelta64(delta), side="left")
            hit = hi > lo
            out_ids.extend(g["anchor_id"].to_numpy()[hit].tolist())
            out_ns.extend((hi - lo)[hit].tolist())
        if not out_ids:
            return empty
        return pd.DataFrame({"anchor_id": pd.Series(out_ids, dtype="int64"),
                             "n_points": pd.Series(out_ns, dtype="int64")})

    left = points_ds.map_batches(tag_left, batch_format="pandas")
    right = anchors_ds.map_batches(tag_right, batch_format="pandas")
    joined = (
        left.union(right)
        .groupby("shard")
        .map_groups(join_shard, batch_format="pandas")
    )
    # the shuffle can emit column-less empty blocks (empty sort partition)
    # which would poison to_pandas' schema — concat only real frames
    frames = [
        b for b in joined.iter_batches(batch_size=None, batch_format="pandas")
        if len(b.columns)
    ]
    if not frames:
        return pd.DataFrame({"anchor_id": pd.Series(dtype="int64"),
                             "n_points": pd.Series(dtype="int64")})
    df = pd.concat(frames, ignore_index=True)
    return df.sort_values("anchor_id").reset_index(drop=True)


def latest_per_group(ds, group: str, order_cols: list[str],
                     keep_cols: list[str], ascending: bool = False):
    """Grouped argmax ("latest row per key"): for each ``group`` value,
    the single row maximal under ``order_cols`` (descending, left-to-
    right tie-break). The classic mergeable aggregate shape: each batch
    keeps only ITS per-group winner (drop_duplicates after a mergesort),
    so the group-keyed shuffle carries one candidate row per
    (group, batch) — never the events; the final per-group pick is the
    same deterministic comparator, so block layout cannot change the
    result (total order required: make the last order column a unique
    id). ``ascending=True`` flips it into the grouped argmin
    ("first-touch" attribution). SQL mirror: ``row_number() OVER
    (PARTITION BY group ORDER BY order_cols DESC|ASC) = 1``."""
    cols = [group] + [c for c in keep_cols if c != group]

    def _pick(frame: pd.DataFrame) -> pd.DataFrame:
        f = frame.sort_values(
            [group] + order_cols,
            ascending=[True] + [ascending] * len(order_cols),
            kind="mergesort")
        return f.drop_duplicates(group, keep="first")[cols] \
            .reset_index(drop=True)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if group not in batch.columns or not len(batch):
            return pd.DataFrame(columns=cols)
        return _pick(batch)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        if group not in g.columns or not len(g):
            return pd.DataFrame(columns=cols)
        return _pick(g)

    return (ds.map_batches(partial, batch_format="pandas")
              .groupby(group).map_groups(final, batch_format="pandas"))


def rolling_window_stats(ds, group: str = "user_id",
                         order_cols: tuple = ("ts", "event_id"),
                         value: str = "value_c", window: int = 3):
    """Per-key ordered window functions — lag/lead/rolling-sum/row_number
    over each ``group`` partition ordered by ``order_cols`` (last column
    must be a unique id so the order is total). ONE shuffle: the
    group-keyed exchange co-locates each partition, then the per-group
    kernel is pure vectorized pandas (shift / rolling / arange) — the
    idiomatic Ray Data shape for SQL window functions, which assume a
    partition fits one worker (true for per-user event streams; a key
    whose partition can't is a sessionize/salting problem, not a window
    one). SQL mirror: ``lag/lead/sum OVER (PARTITION BY group ORDER BY
    order_cols [ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW])``.

    ``value`` should be an exact integer column (cents) so the rolling
    sum is bit-exact vs the SQL oracle; lag/lead come back float64
    (NaN at partition edges) exactly like a fetched nullable BIGINT."""
    import numpy as np

    out_cols = ["event_id", group, "lag_c", "lead_c", "roll_c", "rn"]

    def per_group(df: pd.DataFrame) -> pd.DataFrame:
        if group not in df.columns or not len(df):  # empty shuffle block
            return pd.DataFrame({
                "event_id": pd.Series(dtype="int64"),
                group: pd.Series(dtype="int64"),
                "lag_c": pd.Series(dtype="float64"),
                "lead_c": pd.Series(dtype="float64"),
                "roll_c": pd.Series(dtype="int64"),
                "rn": pd.Series(dtype="int64"),
            })
        df = df.sort_values(list(order_cols), kind="mergesort")
        v = df[value].reset_index(drop=True)
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(),
            group: df[group].to_numpy(),
            "lag_c": v.shift(1).to_numpy(),
            "lead_c": v.shift(-1).to_numpy(),
            "roll_c": v.rolling(window, min_periods=1).sum()
                       .to_numpy().astype(np.int64),
            "rn": np.arange(1, len(df) + 1, dtype=np.int64),
        })

    return ds.groupby(group).map_groups(per_group, batch_format="pandas")


def semi_join_ids(left_ds, ids_ds, key: str = "doc_id",
                  ids_key: str | None = None,
                  num_shards: int | None = None,
                  bloom_bits_per_key: int = 12):
    """Distributed EXACT semi-join (keep left rows whose ``key`` appears
    in the id set) with a broadcast bloom prefilter — the classic
    bloom-join: instead of shuffling the left side against the ids, every
    probe task first tests its whole batch against ONE compact bit array
    (built distributed: per-shard partial bloom pages OR-merged — OR is
    commutative, so block layout can't change the filter), then verifies
    only the bloom-positive rows against the sorted plasma id shards
    (``build_id_shards``) via searchsorted. Zero false negatives by
    construction; bloom false positives are removed by the exact verify.
    At scale the bloom kills ~all non-matching rows for the cost of one
    broadcast object (~1.5 bytes/id) instead of touching the 8-byte/id
    shard arrays for every row. Layout-preserving like
    :func:`anti_join_ids` (no shuffle or reorder of the left payload);
    ``num_shards=None`` sizes the id shards as there."""
    import numpy as np

    from akf_cdparser_ray.state.filters import BloomFilter

    ids_key = ids_key or key
    shards = build_id_shards(ids_ds, ids_key, num_shards)

    def _mix64(x: "np.ndarray") -> "np.ndarray":
        # splitmix64 finalizer, vectorized with uint64 wraparound
        with np.errstate(over="ignore"):
            x = (x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15))
            x ^= x >> np.uint64(30)
            x *= np.uint64(0xBF58476D1CE4E5B9)
            x ^= x >> np.uint64(27)
            x *= np.uint64(0x94D049BB133111EB)
            x ^= x >> np.uint64(31)
        return x

    capacity = max(1, sum(shard_lens(shards)))

    @ray.remote
    def partial_bloom(arr) -> bytes:
        f = BloomFilter(capacity=capacity, bits_per_entry=bloom_bits_per_key)
        if len(arr):
            f.add_many(_mix64(np.asarray(arr)))
        return f.serialize()

    pages = ray.get([partial_bloom.remote(ref) for ref in shards.values()])
    merged = BloomFilter.deserialize(pages[0])
    for p in pages[1:]:
        merged.bits |= BloomFilter.deserialize(p).bits
    nbits = merged.nbits
    bits_ref = ray.put(merged.bits)
    del merged, pages

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        if key not in batch.columns or not len(batch):
            return batch
        ids = batch[key].to_numpy(dtype=np.int64)
        f = BloomFilter.__new__(BloomFilter)
        f.nbits, f.k, f.count = nbits, 7, 0
        f.bits = ray.get(bits_ref)  # zero-copy plasma read, shared per node
        keep = f.contains_many(_mix64(ids))          # bloom prefilter
        sel = np.flatnonzero(keep)                   # exact verify survivors
        keep[sel] = member_mask(ids[sel], shards)
        return batch[keep]

    return left_ds.map_batches(probe, batch_format="pandas",
                               batch_size=None)


def hopping_window_counts(events_ds, *, size_s: int = 3600,
                          hop_s: int = 900, key: str = "event_type"):
    """Hopping (sliding) window aggregate: every event belongs to
    ``size_s/hop_s`` overlapping windows; emit per (window_start, key)
    event counts. The streaming-window shape Ray Data lacks natively,
    expressed as the vectorized flat-map expansion (each row repeats
    k=size/hop times with hop-aligned starts) + the standard
    partial-then-final keyed sum — the expansion happens INSIDE the
    per-batch combiner, so the shuffle moves per-(window,key) partials,
    never k copies of the rows. SQL mirror (exact, integer epochs):
    cross join unnest(range(k)) with ws = (floor(epoch/hop) - j) * hop.

    Returns a Dataset of (ws_epoch BIGINT, key, n)."""
    import numpy as np

    k = size_s // hop_s
    assert size_s % hop_s == 0, "window size must be a hop multiple"

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if "ts" not in batch.columns or not len(batch):
            return pd.DataFrame({
                "ws_epoch": pd.Series(dtype="int64"),
                key: pd.Series(dtype="object"),
                "n": pd.Series(dtype="int64")})
        # normalize to ns first: parquet timestamp[us] arrives as
        # datetime64[us] but in-memory frames are [ns] — astype(int64)
        # alone would yield unit-dependent epochs
        ep = (batch["ts"].astype("datetime64[ns]").astype("int64")
              .to_numpy() // 1_000_000_000)
        kb = np.floor_divide(ep, hop_s)
        ws = ((np.repeat(kb, k) - np.tile(np.arange(k), len(kb)))
              * hop_s).astype(np.int64)
        kv = np.repeat(batch[key].to_numpy(), k)
        out = (pd.DataFrame({"ws_epoch": ws, key: kv})
               .groupby(["ws_epoch", key], as_index=False, sort=False)
               .size().rename(columns={"size": "n"}))
        out["n"] = out["n"].astype("int64")
        return out

    parts = events_ds.map_batches(partial, batch_format="pandas")

    # final merge: (window, key) cardinality is high, and Ray's own
    # groupby walks groups in Python — hash windows onto a bounded shard
    # count and merge each shard with ONE vectorized pandas groupby (the
    # substring_dedup / lm lesson). All rows of a window land in one
    # shard, so per-shard sums are globally exact.
    num_shards = 64

    def shard(batch: pd.DataFrame) -> pd.DataFrame:
        if "ws_epoch" not in batch.columns or not len(batch):
            return pd.DataFrame({"ws_epoch": pd.Series(dtype="int64"),
                                 key: pd.Series(dtype="object"),
                                 "n": pd.Series(dtype="int64"),
                                 "_sh": pd.Series(dtype="int64")})
        return batch.assign(_sh=(pd.util.hash_array(
            batch["ws_epoch"].to_numpy()) % num_shards).astype("int64"))

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        if "ws_epoch" not in g.columns or not len(g):
            return pd.DataFrame({"ws_epoch": pd.Series(dtype="int64"),
                                 key: pd.Series(dtype="object"),
                                 "n": pd.Series(dtype="int64")})
        out = g.groupby(["ws_epoch", key], as_index=False)["n"].sum()
        out["n"] = out["n"].astype("int64")
        return out

    return (parts.map_batches(shard, batch_format="pandas")
            .groupby("_sh").map_groups(merge, batch_format="pandas"))


def debounce_events(events_ds, gap_s: int = 600):
    """Burst deduplication of an event log: drop an event when the
    PREVIOUS event of the same (user, type) stream is within ``gap_s``
    seconds — the standard log-cleaning / retry-collapse rule, lag-based
    so it is window-expressible (a chained debounce against the last
    KEPT row is iterative and deliberately not this operator).

    ONE user-keyed shuffle; within each user partition the per-type
    previous timestamp is a vectorized ``groupby(type).shift``. All
    comparisons are int64 MICROSECONDS (the SQL mirror uses epoch_us),
    so the boundary case diff == gap is exact on both sides. Returns
    (event_id, user_id, event_type) of the kept events."""
    import numpy as np

    gap_us = int(gap_s) * 1_000_000

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        if "user_id" not in g.columns or not len(g):
            return pd.DataFrame({
                "event_id": pd.Series(dtype="int64"),
                "user_id": pd.Series(dtype="int64"),
                "event_type": pd.Series(dtype="object")})
        g = g.sort_values(["event_type", "ts", "event_id"],
                          kind="mergesort")
        us = (g["ts"].astype("datetime64[ns]").astype("int64")
              // 1_000).to_numpy()
        prev = (pd.Series(us, index=g.index)
                .groupby(g["event_type"]).shift(1))
        keep = prev.isna().to_numpy() | ((us - prev.to_numpy()) > gap_us)
        kept = g[keep]
        return pd.DataFrame({
            "event_id": kept["event_id"].to_numpy(),
            "user_id": kept["user_id"].to_numpy(),
            "event_type": kept["event_type"].to_numpy()})

    return (events_ds.groupby("user_id")
            .map_groups(per_user, batch_format="pandas"))
