"""Connected components over an edge list (dedup-cluster resolution).

Near-dup operators (minhash/simhash/embedding/phash) emit PAIRS; turning
pairs into "keep one doc per duplicate cluster" needs the connected
components of the pair graph. This is hash-min label propagation — the
standard mergeable form: every node starts labeled with its own id; each
round, every edge pushes the smaller endpoint label to the other side and
a per-node min-reduce adopts it; fixpoint in O(component diameter)
rounds (dedup clusters are shallow — boilerplate stars converge in 2).

Scale shape per round: the edge list is static and shuffles ONCE up
front by endpoint shard; only the (node, label) table — one row per
node — re-shuffles each round, via the same union + groupby(shard) +
map_groups pattern the interval/as-of joins use. The driver sees one
changed-count per round, never the graph. Deterministic: labels are
min-reduced (commutative/associative), so partitioning and arrival order
cannot change the fixpoint.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import edge_shards


def connected_components(edges_df: pd.DataFrame, num_shards: int = 8,
                         max_rounds: int = 50) -> pd.DataFrame:
    """Components of the undirected graph given by ``edges_df[a, b]``
    (int64 node ids). Returns (node, component) with component = min node
    id in the component, for every node that appears in an edge.

    The label table lives as a pandas frame on the driver between rounds
    ONLY in this reference implementation detail: one row per *distinct
    node appearing in edges* (for dedup clusters that is the candidate
    set, orders of magnitude smaller than the corpus). The per-round
    min-propagation itself is expressed shard-wise so the identical
    map_groups body runs distributed when the node table outgrows one
    machine (see ``connected_components_ds``)."""
    a = edges_df["a"].to_numpy(dtype=np.int64)
    b = edges_df["b"].to_numpy(dtype=np.int64)
    nodes = np.unique(np.concatenate([a, b]))
    ai = np.searchsorted(nodes, a)  # positional endpoint indexes
    bi = np.searchsorted(nodes, b)
    label = nodes.copy()  # label[i] = min known node id in i's component
    for _round in range(max_rounds):
        m = np.minimum(label[ai], label[bi])
        new = label.copy()
        np.minimum.at(new, ai, m)
        np.minimum.at(new, bi, m)
        # pointer-jumping: adopt your label's label (halves tree height;
        # labels are node ids, so their position is searchsorted-able)
        new = new[np.searchsorted(nodes, new)]
        if (new == label).all():
            break
        label = new
    return pd.DataFrame({"node": nodes, "component": label})


def connected_components_ds(edges_ds, num_shards: int = 8,
                            max_rounds: int = 50):
    """Dataset-native hash-min rounds for when the NODE table itself is
    too large for one worker (for dedup-cluster resolution the pandas
    kernel above is the fast path).

    Scale shape — the driver never holds an edge, a node, or a label:

    - Edges partition ONCE: both orientations (dst, src) shard by
      ``src % num_shards`` through ``exchange.edge_shards``; each shard's
      slice is pinned in the object store and the driver keeps only the
      ObjectRefs.
    - (node, label) lives as a Dataset between rounds, materialized in
      the object store (distributed blocks, not driver memory).
    - Each round is one BSP superstep expressed as two co-partitioned
      ``groupby(shard).map_groups`` hops (the interval-join pattern):
      hop 1 joins a shard's labels against its static edge slice
      (fetched by ref inside the UDF — never re-shuffled) and emits
      min-messages addressed to ``dst % num_shards``; hop 2 min-reduces
      messages against the shard's own labels and flags changes.
    - The driver sees ONE scalar per round (``Dataset.sum("changed")``).

    Converges in O(component diameter) rounds (no pointer jumping in the
    distributed variant — dedup clusters are shallow; a diameter above
    ``max_rounds`` raises instead of returning a wrong fixpoint).
    Deterministic: min is commutative/associative, so block layout and
    arrival order cannot change the result.

    Returns a Dataset of (node, component).
    """
    import ray
    import ray.data as rd

    if isinstance(edges_ds, pd.DataFrame):
        edges_ds = rd.from_pandas([
            g.reset_index(drop=True)
            for _, g in edges_ds.groupby(
                edges_ds["a"].to_numpy() % max(1, num_shards), sort=True)
        ]) if len(edges_ds) else rd.from_pandas(edges_ds)

    def orient(batch: pd.DataFrame) -> pd.DataFrame:
        if "a" not in batch.columns or not len(batch):  # column-less empty
            return pd.DataFrame({"dst": pd.Series(dtype=np.int64),
                                 "src": pd.Series(dtype=np.int64)})
        a = batch["a"].to_numpy(dtype=np.int64)
        b = batch["b"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "dst": np.concatenate([a, b]),
            "src": np.concatenate([b, a]),
        })

    oriented = edges_ds.map_batches(orient, batch_format="pandas").materialize()
    edge_refs = edge_shards(oriented, num_shards)

    def init_labels(batch: pd.DataFrame) -> pd.DataFrame:
        u = np.unique(batch["dst"].to_numpy())
        return pd.DataFrame({"node": u, "label": u,
                             "shard": u % num_shards})

    def dedupe_shard(group: pd.DataFrame) -> pd.DataFrame:
        if "node" not in group.columns or not len(group):
            return pd.DataFrame({c: pd.Series(dtype=np.int64)
                                 for c in ("node", "label", "shard")})
        return group.drop_duplicates("node").reset_index(drop=True)

    labels = (
        oriented.map_batches(init_labels, batch_format="pandas")
        .groupby("shard").map_groups(dedupe_shard, batch_format="pandas")
        .materialize()
    )

    def propagate(group: pd.DataFrame) -> pd.DataFrame:
        """Hop 1: this shard's labels × its static edge slice → messages."""
        empty = pd.DataFrame({"node": pd.Series(dtype=np.int64),
                              "label": pd.Series(dtype=np.int64),
                              "kind": pd.Series(dtype=np.int64),
                              "shard": pd.Series(dtype=np.int64)})
        if "node" not in group.columns or not len(group):
            return empty
        s = int(group["shard"].iloc[0])
        eds = ray.get(edge_refs[s])  # zero-copy from the object store
        own = pd.DataFrame({
            "node": group["node"].to_numpy(),
            "label": group["label"].to_numpy(),
            "kind": np.ones(len(group), dtype=np.int64),
            "shard": group["shard"].to_numpy(),
        })
        if not len(eds):
            return own
        lut = pd.Series(group["label"].to_numpy(),
                        index=group["node"].to_numpy())
        dst = eds["dst"].to_numpy()
        msgs = pd.DataFrame({
            "node": dst,
            "label": lut.loc[eds["src"].to_numpy()].to_numpy(),
            "kind": np.zeros(len(eds), dtype=np.int64),
            "shard": dst % num_shards,
        })
        return pd.concat([own, msgs], ignore_index=True)

    def min_reduce(group: pd.DataFrame) -> pd.DataFrame:
        """Hop 2: per-node min over (own label ∪ incoming messages)."""
        if "node" not in group.columns or not len(group):
            return pd.DataFrame({c: pd.Series(dtype=np.int64)
                                 for c in ("node", "label", "shard", "changed")})
        newl = group.groupby("node", sort=True)["label"].min()
        own = (group[group["kind"] == 1].set_index("node")["label"]
               .reindex(newl.index))
        return pd.DataFrame({
            "node": newl.index.to_numpy(),
            "label": newl.to_numpy(),
            "shard": newl.index.to_numpy() % num_shards,
            "changed": (newl.to_numpy() != own.to_numpy()).astype(np.int64),
        })

    for _round in range(max_rounds):
        stepped = (
            labels.groupby("shard").map_groups(propagate, batch_format="pandas")
            .groupby("shard").map_groups(min_reduce, batch_format="pandas")
            .materialize()
        )
        changed = int(stepped.sum("changed") or 0)
        labels = stepped.drop_columns(["changed"])
        if changed == 0:
            return (labels.drop_columns(["shard"])
                    .map_batches(lambda b: b.rename(columns={"label": "component"}),
                                 batch_format="pandas"))
    raise RuntimeError(
        f"connected_components_ds did not converge in {max_rounds} rounds "
        f"(component diameter exceeds max_rounds — raise max_rounds)")


def dedup_keep_set(edges_df: pd.DataFrame) -> pd.DataFrame:
    """From duplicate PAIRS to the drop list: (node, component, keep) —
    keep=True only for the minimum id of each cluster; every other member
    is a duplicate to drop."""
    comp = connected_components(edges_df)
    comp["keep"] = comp["node"] == comp["component"]
    return comp.sort_values("node").reset_index(drop=True)
