"""Distributed PageRank over a link graph (crawl prioritization).

A crawl engine's frontier wants link-authority signals; PageRank over
the discovered link graph is the classic one (Page et al., 1999). The
execution shape mirrors ``stages/components.connected_components_ds``
(the BSP pattern this repo already trusts at scale):

- **Edges partition ONCE** by ``src % num_shards`` through
  ``exchange.edge_shards`` (the two-hop exchange) into object-store
  frames; the driver keeps ObjectRefs only. Out-degrees are
  shard-local (a src's edges all live in its shard).
- **Ranks live as a Dataset** between iterations, materialized in the
  object store (distributed blocks, never driver memory).
- **Each iteration is two co-partitioned ``groupby(shard).map_groups``
  hops**: hop 1 joins a shard's ranks against its static edge slice
  (fetched by ref inside the UDF) and emits per-edge contribution rows
  addressed to ``dst % num_shards``; hop 2 sums a node's incoming
  contributions and applies the teleport term.

Determinism (golden-stable across block layouts and parallelism): hop
2 sorts each group by (node, src) before summing, so every float fold
happens in a fixed order regardless of message arrival; hop 1 emits
exact per-edge values (no summing). Dangling nodes use the SELF-LOOP
treatment (they keep their own mass: contribution d·rank to
themselves) — total rank stays exactly 1 without a global dangling-
mass scalar, which would otherwise need a layout-sensitive float
reduction on the driver.

Reference has no counterpart (engine-tier operator).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from .exchange import EMPTY_EDGES, edge_shards


def pagerank_ds(edges_ds, iters: int = 10, d: float = 0.85,
                num_shards: int = 8):
    """PageRank over a directed edge Dataset with int64 columns
    ``(src, dst)`` (parallel edges count once per occurrence). Returns a
    Dataset of ``(node, rank)`` over every node appearing as a src or
    dst. ``iters`` fixed power iterations (the crawl-prioritization use
    case wants a stable signal, not convergence detection — diameter-
    bounded graphs converge geometrically in d anyway)."""
    import ray.data as rd

    if isinstance(edges_ds, pd.DataFrame):
        edges_ds = rd.from_pandas(
            [g.reset_index(drop=True) for _, g in edges_ds.groupby(
                edges_ds["src"].to_numpy() % max(1, num_shards),
                sort=True)]
        ) if len(edges_ds) else rd.from_pandas(edges_ds)

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        if "src" not in batch.columns or not len(batch):
            return EMPTY_EDGES
        return pd.DataFrame({
            "src": batch["src"].to_numpy(dtype=np.int64),
            "dst": batch["dst"].to_numpy(dtype=np.int64)})

    edges = edges_ds.map_batches(norm, batch_format="pandas").materialize()
    edge_refs = edge_shards(edges, num_shards)

    # node discovery: every endpoint, deduped inside its own shard
    def endpoints(batch: pd.DataFrame) -> pd.DataFrame:
        if "src" not in batch.columns or not len(batch):
            return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                                 "shard": pd.Series(dtype=np.int64)})
        u = np.unique(np.concatenate([batch["src"].to_numpy(),
                                      batch["dst"].to_numpy()]))
        return pd.DataFrame({"node": u, "shard": u % num_shards})

    def dedupe_nodes(group: pd.DataFrame) -> pd.DataFrame:
        if "node" not in group.columns or not len(group):
            return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                                 "shard": pd.Series(dtype=np.int64)})
        return (group.drop_duplicates("node")
                .sort_values("node", kind="mergesort")
                .reset_index(drop=True))

    nodes = (edges.map_batches(endpoints, batch_format="pandas")
             .groupby("shard").map_groups(dedupe_nodes,
                                          batch_format="pandas")
             .materialize())
    n_nodes = nodes.count()
    if not n_nodes:
        return nodes.map_batches(
            lambda b: pd.DataFrame({"node": pd.Series(dtype=np.int64),
                                    "rank": pd.Series(dtype=np.float64)}),
            batch_format="pandas")
    r0 = 1.0 / n_nodes
    teleport = (1.0 - d) / n_nodes

    def init_ranks(batch: pd.DataFrame) -> pd.DataFrame:
        if "node" not in batch.columns or not len(batch):
            return pd.DataFrame({
                "node": pd.Series(dtype=np.int64),
                "rank": pd.Series(dtype=np.float64),
                "shard": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"node": batch["node"].to_numpy(),
                             "rank": np.full(len(batch), r0),
                             "shard": batch["shard"].to_numpy()})

    ranks = nodes.map_batches(init_ranks, batch_format="pandas",
                              batch_size=None).materialize()

    _MSG_EMPTY = pd.DataFrame({"node": pd.Series(dtype=np.int64),
                               "src": pd.Series(dtype=np.int64),
                               "contrib": pd.Series(dtype=np.float64),
                               "shard": pd.Series(dtype=np.int64)})

    def contribute(group: pd.DataFrame) -> pd.DataFrame:
        """Hop 1: shard ranks × static edge slice → exact per-edge
        contribution rows (plus a zero coverage row per node so hop 2
        sees nodes with no inbound links; dangling nodes self-loop)."""
        if "node" not in group.columns or not len(group):
            return _MSG_EMPTY
        s = int(group["shard"].iloc[0])
        eds = ray.get(edge_refs[s])  # zero-copy object-store read
        nd = group["node"].to_numpy(dtype=np.int64)
        rk = group["rank"].to_numpy(dtype=np.float64)
        order = np.argsort(nd, kind="stable")
        nd, rk = nd[order], rk[order]
        cover = pd.DataFrame({
            "node": nd, "src": np.full(len(nd), -1, dtype=np.int64),
            "contrib": np.zeros(len(nd)), "shard": nd % num_shards})
        if not len(eds):  # whole shard dangling: everyone self-loops
            self_m = pd.DataFrame({
                "node": nd, "src": nd, "contrib": d * rk,
                "shard": nd % num_shards})
            return pd.concat([cover, self_m], ignore_index=True)
        esrc = eds["src"].to_numpy(dtype=np.int64)
        edst = eds["dst"].to_numpy(dtype=np.int64)
        # outdeg per src (shard-local: all of a src's edges live here)
        usrc, counts = np.unique(esrc, return_counts=True)
        pos = np.searchsorted(nd, esrc)
        r_src = rk[pos]
        deg = counts[np.searchsorted(usrc, esrc)]
        msgs = pd.DataFrame({
            "node": edst, "src": esrc,
            "contrib": d * r_src / deg,
            "shard": edst % num_shards})
        # dangling = shard nodes absent from usrc → self-loop
        mask = np.isin(nd, usrc, assume_unique=True, invert=True)
        dang_n, dang_r = nd[mask], rk[mask]
        self_m = pd.DataFrame({
            "node": dang_n, "src": dang_n, "contrib": d * dang_r,
            "shard": dang_n % num_shards})
        return pd.concat([cover, msgs, self_m], ignore_index=True)

    def reduce_sum(group: pd.DataFrame) -> pd.DataFrame:
        """Hop 2: fixed-order (node, src) sum + teleport — bit-stable
        regardless of message arrival or block layout."""
        if "node" not in group.columns or not len(group):
            return pd.DataFrame({
                "node": pd.Series(dtype=np.int64),
                "rank": pd.Series(dtype=np.float64),
                "shard": pd.Series(dtype=np.int64)})
        g = group.sort_values(["node", "src"],
                              kind="mergesort").reset_index(drop=True)
        summed = g.groupby("node", sort=True)["contrib"].sum()
        nd = summed.index.to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "node": nd,
            "rank": teleport + summed.to_numpy(),
            "shard": nd % num_shards})

    for _ in range(iters):
        ranks = (ranks.groupby("shard")
                 .map_groups(contribute, batch_format="pandas")
                 .groupby("shard")
                 .map_groups(reduce_sum, batch_format="pandas")
                 .materialize())

    def strip(batch: pd.DataFrame) -> pd.DataFrame:
        if "node" not in batch.columns or not len(batch):
            return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                                 "rank": pd.Series(dtype=np.float64)})
        return batch[["node", "rank"]]

    return ranks.map_batches(strip, batch_format="pandas",
                             batch_size=None)


def pagerank_reference(edges: pd.DataFrame, iters: int = 10,
                       d: float = 0.85) -> pd.DataFrame:
    """Dense single-machine reference with the identical self-loop
    dangling treatment and summation semantics (tests compare against
    this; it is NOT the scale path)."""
    nodes = np.unique(np.concatenate([edges["src"].to_numpy(),
                                      edges["dst"].to_numpy()])) \
        if len(edges) else np.empty(0, np.int64)
    n = len(nodes)
    if not n:
        return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                             "rank": pd.Series(dtype=np.float64)})
    idx = {v: i for i, v in enumerate(nodes)}
    deg = np.zeros(n, np.int64)
    for s in edges["src"]:
        deg[idx[s]] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        nxt = np.full(n, (1.0 - d) / n)
        for i in range(n):
            if deg[i] == 0:
                nxt[i] += d * r[i]
        for s, t in zip(edges["src"], edges["dst"]):
            nxt[idx[t]] += d * r[idx[s]] / deg[idx[s]]
        r = nxt
    return pd.DataFrame({"node": nodes, "rank": r})


def triangle_count(edges_ds, num_shards: int | None = None) -> pd.DataFrame:
    """Exact global triangle count (node-iterator / forward algorithm,
    Schank & Wagner 2005): orient every edge low->high so each triangle
    a<b<c is counted exactly once — via its edge (a,b) as
    |N+(a) ∩ N+(b)|, N+ = higher-numbered neighbors.

    Shape: the oriented edges exchange ONCE into per-shard sorted
    frames (``exchange.edge_shards``, src % S), each
    shard dedups locally, then S probe tasks each walk THEIR OWN edges:
    N+(u) is shard-local by construction, N+(v) comes from shard
    v % S fetched by ref (plasma, node-shared; held one at a time).
    The driver sees S partial-count scalars. Per-probe cost is the
    textbook O(sum over edges of d(u)+d(v)) via two searchsorted slices
    and one sorted-array intersection per edge.

    ``num_shards=None`` sizes S from the oriented edge count, up to 16
    (``exchange.sized``); an int pins S.

    Returns a one-row DataFrame (n_triangles, n_edges, n_nodes)."""

    def orient(batch: pd.DataFrame) -> pd.DataFrame:
        if "src" not in batch.columns or not len(batch):
            return EMPTY_EDGES
        s = batch["src"].to_numpy(dtype=np.int64)
        d = batch["dst"].to_numpy(dtype=np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        return (pd.DataFrame({"src": u, "dst": v})
                .drop_duplicates(ignore_index=True))

    shards = edge_shards(edges_ds.map_batches(orient,
                                              batch_format="pandas"),
                         num_shards)

    @ray.remote
    def dedup_shard(df):
        # cross-block duplicates survive the exchange; a shard owns all
        # copies of its (u,v), so the local dedup is globally exact
        return (df.drop_duplicates(["src", "dst"])
                .sort_values(["src", "dst"], kind="mergesort")
                .reset_index(drop=True))

    adj = {s: dedup_shard.remote(ref) for s, ref in shards.items()}

    @ray.remote
    def probe(own, adj_refs):
        if not len(own):
            return 0, 0, np.empty(0, np.int64)
        src = own["src"].to_numpy(np.int64)
        dst = own["dst"].to_numpy(np.int64)
        nodes = np.unique(np.concatenate([src, dst]))
        total = 0
        vs = (dst % len(adj_refs)).astype(np.int64)
        for sh in np.unique(vs):
            other = ray.get(adj_refs[int(sh)])  # one shard at a time
            osrc = other["src"].to_numpy(np.int64)
            odst = other["dst"].to_numpy(np.int64)
            for j in np.flatnonzero(vs == sh):
                u, v = src[j], dst[j]
                ulo = np.searchsorted(src, u, side="left")
                uhi = np.searchsorted(src, u, side="right")
                vlo = np.searchsorted(osrc, v, side="left")
                vhi = np.searchsorted(osrc, v, side="right")
                nu = dst[ulo:uhi]       # sorted (frame sorted by src,dst)
                nv = odst[vlo:vhi]
                # sorted-merge intersection count
                total += len(np.intersect1d(nu, nv, assume_unique=True))
        return total, len(own), nodes

    parts = ray.get([probe.remote(adj[s], adj) for s in adj])
    n_tri = sum(p[0] for p in parts)
    n_edges = sum(p[1] for p in parts)
    n_nodes = len(np.unique(np.concatenate(
        [p[2] for p in parts] or [np.empty(0, np.int64)])))
    return pd.DataFrame({"n_triangles": pd.Series([n_tri], dtype="int64"),
                         "n_edges": pd.Series([n_edges], dtype="int64"),
                         "n_nodes": pd.Series([n_nodes], dtype="int64")})
