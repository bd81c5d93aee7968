"""The one-time two-hop shard exchange and the probes that read its shards.

Several operators partition a Dataset ONCE into ``num_shards`` objects
pinned in the object store, keep only the ObjectRefs on the driver, and
let later tasks ``ray.get`` a shard zero-copy (one shared mapping per
node). The exchange is two remote hops so no task ever holds the whole
input: a per-block SPLIT task emits ``num_shards`` separate objects
(``num_returns``), and each per-shard MERGE task folds only its own 1/S
slices. Transient memory per task is O(block), then O(total/S).

- :func:`exchange` runs the two hops for a site's own split and merge;
  the split decides whether rows go by hash or by range.
- :func:`edge_shards` is the graph edge exchange (pagerank, triangles,
  connected components).
- :func:`member_mask` probes hash-sharded sorted id arrays.
- :func:`rank_join` is the range-sharded rank join behind
  ``export.global_rank`` and ``sampling.epoch_shuffle``.
- :func:`shard_lens` counts shard rows without moving a shard to the
  driver.

Ray's ``repartition(keys=...)`` is not a substitute: a repartitioned
Dataset does not expose per-shard ObjectRefs for later tasks to read.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import ray

EMPTY_EDGES = pd.DataFrame({"src": pd.Series(dtype=np.int64),
                            "dst": pd.Series(dtype=np.int64)})


def exchange(refs, num_shards: int, split, merge) -> dict:
    """Two-hop exchange of the blocks behind ``refs``: one ``split``
    task per block, one ``merge`` task per shard. ``split(block)``
    returns ``num_shards`` parts; ``merge(*parts)`` receives shard s's
    part from every block, in block order. Returns ``{s: ObjectRef}``."""
    S = num_shards

    @ray.remote
    def split_task(block):
        parts = split(block)
        return parts if S > 1 else parts[0]

    merge_task = ray.remote(merge)
    slices = [split_task.options(num_returns=S).remote(r) for r in refs]
    if S == 1:
        slices = [[r] for r in slices]
    return {s: merge_task.remote(*[sl[s] for sl in slices])
            for s in range(S)}


@ray.remote
def _shard_len(shard) -> int:
    return len(shard[0]) if isinstance(shard, tuple) else len(shard)


def shard_lens(shard_refs: dict) -> list[int]:
    """Row count of every shard, in shard order (an array, a frame, or a
    ``(values, keys)`` pair from :func:`rank_join`)."""
    return ray.get([_shard_len.remote(shard_refs[s])
                    for s in range(len(shard_refs))])


def member_mask(values: np.ndarray, shards: dict,
                num_shards: int) -> np.ndarray:
    """True where an int64 value is in its shard ``values % num_shards``
    (numpy's nonnegative modulo). Each shard is a sorted array read
    zero-copy from the object store and probed with ``searchsorted``."""
    hit = np.zeros(len(values), dtype=bool)
    mod = values % num_shards
    for s in np.unique(mod):
        arr = ray.get(shards[int(s)])
        if not len(arr):
            continue
        sel = np.flatnonzero(mod == s)
        pos = np.clip(np.searchsorted(arr, values[sel]), 0, len(arr) - 1)
        hit[sel] = arr[pos] == values[sel]
    return hit


def edge_shards(edges_ds, num_shards: int) -> dict:
    """Edges → per-shard pandas frames keyed by ``src % num_shards``,
    each sorted by (src, dst) and pinned in the object store."""

    def split(bl):
        if not bl.num_rows or "src" not in bl.schema.names:
            return [EMPTY_EDGES] * num_shards
        df = bl.to_pandas()[["src", "dst"]]
        mod = df["src"].to_numpy(dtype=np.int64) % num_shards
        return [df[mod == s].reset_index(drop=True)
                for s in range(num_shards)]

    def merge(*frames):
        frames = [f for f in frames if len(f)]
        if not frames:
            return EMPTY_EDGES
        return (pd.concat(frames, ignore_index=True)
                .sort_values(["src", "dst"], kind="mergesort")
                .reset_index(drop=True))

    return exchange(edges_ds.to_arrow_refs(), num_shards, split, merge)


def rank_join(keyed_ds, S: int, shard_of, sort_col: str, key: str,
              out_col: str):
    """Exact global position of every row of ``keyed_ds`` in the order
    ``(sort_col, key)`` — a rank join, not a sort of the payload.

    ``shard_of(values)`` maps sort values to shard ids in ``[0, S)`` and
    must be monotone, so shard s holds a contiguous range of the order.
    Each shard is sorted once into the object store as a ``(values,
    keys)`` pair, the driver turns the S shard lengths into global
    offsets, and a stateless probe pass finds each row's position with
    ``searchsorted``; equal sort values are ordered by ``key``.

    Returns a Dataset of ``keyed_ds``'s columns without ``sort_col``,
    plus ``out_col`` (int64, 0-based)."""

    def split(bl):
        if not bl.num_rows or sort_col not in bl.schema.names:
            return [(np.empty(0, np.float64), np.empty(0, object))] * S
        v = bl.column(sort_col).to_numpy(zero_copy_only=False)
        k = bl.column(key).to_numpy(zero_copy_only=False)
        sid = shard_of(v)
        masks = (sid == s for s in range(S))
        return [(v[m], k[m]) for m in masks]

    def merge(*slices):
        slices = [p for p in slices if len(p[0])]
        if not slices:
            return np.empty(0, np.float64), np.empty(0, object)
        v = np.concatenate([a for a, _ in slices])
        k = np.concatenate([b for _, b in slices])
        order = np.lexsort((k, v))
        return v[order], k[order]

    shard_refs = exchange(keyed_ds.to_arrow_refs(), S, split, merge)
    offsets = np.concatenate(
        [[0], np.cumsum(shard_lens(shard_refs))[:-1]]).astype(np.int64)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.drop(columns=[sort_col], errors="ignore")
        if not len(batch):
            return out.assign(**{out_col: np.empty(0, np.int64)})
        v = batch[sort_col].to_numpy()
        kv = batch[key].to_numpy()
        sid = shard_of(v)
        pos = np.empty(len(v), dtype=np.int64)
        for s in np.unique(sid):
            vs, ks = ray.get(shard_refs[int(s)])  # plasma, node-shared
            sel = np.flatnonzero(sid == s)
            lo = np.searchsorted(vs, v[sel], side="left")
            hi = np.searchsorted(vs, v[sel], side="right")
            p = lo.astype(np.int64)
            for j in np.flatnonzero(hi - lo > 1):  # value ties: key breaks
                i0, i1 = lo[j], hi[j]
                p[j] = i0 + int(np.searchsorted(ks[i0:i1], kv[sel[j]]))
            pos[sel] = offsets[s] + p
        return out.assign(**{out_col: pos})

    return keyed_ds.map_batches(probe, batch_format="pandas",
                                batch_size=None)
