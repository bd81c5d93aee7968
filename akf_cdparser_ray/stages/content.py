"""The crawl content body, written once: fetch → keep status-200 pages →
parse → image+caption pairs fragment → link extraction → link split by
owning frontier shard (``url_hash % S``).

Both crawl modes run it on every allowed-URL batch — the wave mode inside
its fused Ray Data task (pipelines/crawl.py), the stream mode inside a
``StreamWorker`` lease (pipelines/stream_crawl.py) — and keep around it
only what differs: how the fragment is named and how the link slices are
offered (fire-and-forget with counted reconciliation vs acked). The
function sends no RPC and touches no crawl state, so it runs without Ray.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .links import extract_links_batch

# the pairs partition columns (crawl fragments and the flagship projection)
PAIRS_COLS = ["image_id", "bytes", "w", "h", "fmt", "caption", "phash", "status"]


def split_links(links: pa.Table, num_shards: int) -> list[tuple]:
    """``(shard, canons, hashes, hosts, depths)`` for every shard owning at
    least one link, in shard order; rows keep their extraction order
    inside a shard (one stable argsort + one take, no per-row indexing)."""
    if not links.num_rows:
        return []
    hashes = links.column("url_hash").to_numpy(zero_copy_only=False)
    shard = (hashes % np.uint64(num_shards)).astype(np.int64)
    order = np.argsort(shard, kind="stable")
    sorted_b = links.take(pa.array(order))
    canons = sorted_b.column("url_canon").to_pylist()
    hosts = sorted_b.column("host").to_pylist()
    depths = sorted_b.column("depth").to_pylist()
    h_sorted = hashes[order]
    s_sorted = shard[order]
    uniq, starts = np.unique(s_sorted, return_index=True)
    ends = np.append(starts[1:], len(s_sorted))
    return [
        (int(s), canons[st:en], h_sorted[st:en].tolist(), hosts[st:en],
         depths[st:en])
        for s, st, en in zip(uniq, starts, ends)
    ]


def run_content(batch: pa.Table, fetch_fn, parse_fn, pairs_path: str,
                num_shards: int) -> tuple[dict, dict, list]:
    """One allowed-URL batch (``url_canon``, ``depth``) through the content
    layers. The pairs fragment goes to ``pairs_path`` (its directory is
    created) only when at least one page returned 200.

    Returns ``(counters, wall_us, link_slices)``: counters ``fetched``,
    ``http_404``, ``parsed_ok``, ``parse_err``, ``pairs_rows``, ``links``;
    integer wall µs per layer ``fetch``, ``parse``, ``write``, ``links``
    (extract + split); and the ``split_links`` slices."""
    t0 = time.perf_counter()
    fetched = fetch_fn(batch)
    t1 = time.perf_counter()
    mask = [s == "200" for s in fetched.column("fetch_status").to_pylist()]
    ok = fetched.filter(pa.array(mask, pa.bool_()))
    parsed = parse_fn(ok)
    t2 = time.perf_counter()
    pairs = parsed.select(PAIRS_COLS)
    if pairs.num_rows:
        os.makedirs(os.path.dirname(pairs_path), exist_ok=True)
        pq.write_table(pairs, pairs_path)
    t3 = time.perf_counter()
    links = extract_links_batch(ok)
    slices = split_links(links, num_shards)
    t4 = time.perf_counter()
    statuses = parsed.column("status").to_pylist()
    n_ok = sum(mask)
    counters = {
        "fetched": n_ok, "http_404": len(mask) - n_ok,
        "parsed_ok": statuses.count("ok"),
        "parse_err": statuses.count("error"),
        "pairs_rows": pairs.num_rows, "links": links.num_rows,
    }
    wall_us = {k: int(dt * 1e6) for k, dt in (
        ("fetch", t1 - t0), ("parse", t2 - t1), ("write", t3 - t2),
        ("links", t4 - t3))}
    return counters, wall_us, slices
