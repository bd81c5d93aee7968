"""Range-sharded export: balanced, key-clustered training-data output.

Downstream consumers want output sharded so that (a) shards are roughly
equal-sized (one trainer worker per shard), (b) each shard covers a
disjoint key range (pruning + deterministic resharding), and (c) a
killed export resumes per shard. Hash sharding gives (a)+(c) but not
(b); a global sort gives (b) at all-to-all cost. This operator gets all
three with ONE cheap pass: t-digest the key column (constant-size
mergeable sketch per block), cut shard boundaries at the 1/n quantiles,
then route rows by ``searchsorted(boundaries, key)`` in a stateless
map_batches — rows shuffle once into their shard writer, and each shard
lands as a manifest partition (``sources/io`` semantics: atomic replace,
lineage, resume-by-skip)."""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..sources.io import finalize_partition
from .exchange import rank_join
from .sketches import TDigest


def key_boundaries(ds, key: str, n_shards: int, delta: int = 400) -> np.ndarray:
    """n_shards-1 interior quantile cuts of ``key`` via merged per-batch
    t-digests (one sketch row per batch reaches the driver)."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        d = TDigest.of(batch[key].to_numpy(dtype=np.float64), delta)
        return pd.DataFrame({"digest": [d.to_bytes()]})

    parts = ds.map_batches(partial, batch_format="pandas")
    digests = [
        TDigest.from_bytes(blob, delta)
        for b in parts.iter_batches(batch_size=256, batch_format="pandas")
        for blob in b["digest"]
    ]
    merged = TDigest.merge_all(digests, delta)
    qs = [i / n_shards for i in range(1, n_shards)]
    return np.array([merged.quantile(q) for q in qs], dtype=np.float64)


def write_range_shards(ds, root: str, key: str, n_shards: int,
                       delta: int = 400) -> list[dict]:
    """Export ``ds`` as ``n_shards`` manifest partitions, each covering a
    disjoint range of ``key`` with ~equal row counts. Workers write their
    shard fragments; the driver finalizes each partition atomically with
    the covered key range in its lineage."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    bounds = key_boundaries(ds, key, n_shards, delta)

    os.makedirs(root, exist_ok=True)
    tmp = {
        s: tempfile.mkdtemp(dir=root, prefix=f".shard{s:04d}.tmp")
        for s in range(n_shards)
    }

    # per-process batch sequence, keyed by Ray task id. Fragment names are
    # (task id, within-task sequence): UNIQUE across distinct batches (two
    # batches with byte-identical content for a shard — duplicate-heavy or
    # constant keys — still get distinct names; a content digest did not,
    # and the later write silently overwrote the earlier fragment), and
    # STABLE across Ray's process-crash retries (same task id, same batch
    # order → same names, so the retry overwrites its own partial files,
    # never duplicates; application exceptions are not retried by default).
    _task_seq: dict = {}

    def route_and_write(batch: pa.Table) -> pa.Table:
        import ray

        try:
            tid = ray.get_runtime_context().get_task_id() or "local"
        except Exception:
            tid = "local"
        seq = _task_seq.get(tid, 0)
        _task_seq[tid] = seq + 1
        keys = np.asarray(batch.column(key).to_numpy(zero_copy_only=False),
                          dtype=np.float64)
        shard = np.searchsorted(bounds, keys, side="right")
        counts = []
        for s in np.unique(shard):
            part = batch.take(np.flatnonzero(shard == s))
            # NB: TaskID hex is unique in its PREFIX (the suffix is the
            # constant actor/job part) — never truncate from the right
            pq.write_table(part, os.path.join(
                tmp[int(s)], f"part-{tid[:16]}-{seq:05d}.parquet"))
            counts.append((int(s), part.num_rows))
        return pa.table({
            "shard": pa.array([c[0] for c in counts], pa.int64()),
            "rows": pa.array([c[1] for c in counts], pa.int64()),
        })

    stats = ds.map_batches(route_and_write, batch_format="pyarrow").to_pandas()
    per_shard = stats.groupby("shard")["rows"].sum().to_dict()
    out = []
    lo = [-float("inf")] + bounds.tolist()
    hi = bounds.tolist() + [float("inf")]
    for s in range(n_shards):
        rows = int(per_shard.get(s, 0))
        # verify the fragments actually on disk against the routed counts
        # BEFORE the manifest claims them (footer-only metadata reads) —
        # any naming collision / lost write fails loudly here.
        actual = sum(
            pq.read_metadata(os.path.join(tmp[s], f)).num_rows
            for f in os.listdir(tmp[s]) if f.endswith(".parquet")
        )
        if actual != rows:
            raise RuntimeError(
                f"range-shard {s}: fragment rows {actual} != routed {rows} "
                f"(lost or duplicated fragment write)")
        finalize_partition(
            root, f"shard{s:04d}", tmp[s], rows,
            lineage={"key": key, "lo": lo[s], "hi": hi[s]},
        )
        out.append({"shard": s, "rows": rows, "lo": lo[s], "hi": hi[s]})
    return out


def global_rank(ds, col: str, key: str = "doc_id",
                num_shards: int = 16, delta: int = 400):
    """EXACT global rank (distributed argsort) of every row by
    ``(col, key)`` — the curriculum-ordering / percentile-calibration
    primitive. ``exchange.rank_join`` ranged on a VALUE column:
    t-digest quantile cuts give ~balanced shards (approximation affects
    BALANCE only, never correctness — all rows of a value route to one
    shard). No all-to-all sort of the payload, no driver
    materialization.

    SQL mirror (exact): ``row_number() OVER (ORDER BY col, key) - 1``.
    Returns a Dataset of (key, col, rank)."""
    bounds = key_boundaries(ds, col, num_shards, delta)

    def keyed(batch: pd.DataFrame) -> pd.DataFrame:
        if key not in batch.columns or not len(batch):
            return pd.DataFrame({key: pd.Series(dtype="int64"),
                                 col: pd.Series(dtype="int64"),
                                 "_v": pd.Series(dtype="float64")})
        return batch[[key, col]].assign(
            _v=batch[col].to_numpy().astype(np.float64))

    keyed_ds = ds.map_batches(keyed, batch_format="pandas",
                              batch_size=None).materialize()
    return rank_join(keyed_ds, num_shards,
                     lambda v: np.searchsorted(bounds, v, side="right"),
                     "_v", key, "rank")
