"""Edit-distance similarity self-join (PassJoin) — the string-similarity
near-dup modality the minhash/simhash family can't express: ALL pairs of
documents whose key strings are within Levenshtein distance tau, exactly.

Blocking is the partition-based pigeonhole of Li/Deng/Wang/Feng, "PassJoin:
A Partition-based Method for Similarity Joins" (PVLDB 5(3), 2011): split
every string into tau+1 segments; if ed(r, s) <= tau with |r| <= |s|, the
<= tau edit operations of an optimal alignment touch at most tau of r's
tau+1 segments, so some segment survives VERBATIM in s, displaced by at
most the net indel shift before it, i.e. |shift| <= tau. Indexing each
string's segments and probing each string's bounded-window substrings
therefore finds every qualifying pair — a sound filter, not a heuristic;
every candidate is then verified by an exact Levenshtein kernel.

Distribution shape (Ray-Data-first):
- index + probe entries are a ``flat_map``-style per-batch expansion
  (O(tau^2) short keys per string — no quadratic blow-up);
- ONE keyed shuffle co-locates each (length, segment-slot, segment) bucket;
  candidate pairs are generated bucket-locally;
- verification is a vectorized byte-level DP over the pair axis
  (O(P^2) numpy ops of width n_pairs, never a Python loop over pairs),
  byte-level to match DuckDB's byte-based ``levenshtein`` exactly;
- a second tiny shuffle dedups (a, b) pairs found via multiple buckets.

Strings whose key is shorter than 2*tau+1 bytes can't all be segment-
blocked (segments would be empty); they route to one "short" bucket and
verify all-pairs there — bounded, because such strings are <= 2*tau bytes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from akf_cdparser_ray.logquiet import silence_empty_block_schema_warnings


def _seg_bounds(length: int, tau: int) -> list[tuple[int, int]]:
    """Canonical (start, len) partition of a length-``length`` byte string
    into tau+1 segments, lengths differing by at most one (earlier
    segments take the remainder). Index and probe sides MUST agree."""
    k = tau + 1
    q, r = divmod(length, k)
    out, pos = [], 0
    for i in range(k):
        ln = q + (1 if i < r else 0)
        out.append((pos, ln))
        pos += ln
    return out


def lev_batch(pa_bytes: list[bytes], pb_bytes: list[bytes]) -> np.ndarray:
    """Exact byte-level Levenshtein for n pairs at once: classic DP with
    both loops over STRING POSITIONS (<= maxlen^2 iterations) and every
    cell operation vectorized across the pair axis. Per-row answers are
    captured at (len_a, len_b) as the row-i frontier passes len_a."""
    n = len(pa_bytes)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    la = np.array([len(b) for b in pa_bytes], dtype=np.int32)
    lb = np.array([len(b) for b in pb_bytes], dtype=np.int32)
    ma, mb = int(la.max()), int(lb.max())
    A = np.zeros((n, ma), dtype=np.int16)
    B = np.full((n, mb), -1, dtype=np.int16)  # distinct pads never match
    for r, b in enumerate(pa_bytes):
        A[r, :len(b)] = np.frombuffer(b, dtype=np.uint8)
    for r, b in enumerate(pb_bytes):
        B[r, :len(b)] = np.frombuffer(b, dtype=np.uint8)
    res = np.zeros(n, dtype=np.int64)
    prev = np.tile(np.arange(mb + 1, dtype=np.int32), (n, 1))
    res[la == 0] = lb[la == 0]
    rows = np.arange(n)
    for i in range(1, ma + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        ai = A[:, i - 1]
        for j in range(1, mb + 1):
            cost = (ai != B[:, j - 1]).astype(np.int32)
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + cost)
        sel = la == i
        if sel.any():
            res[sel] = cur[rows[sel], lb[sel]]
        prev = cur
    return res


def edit_distance_pairs(ds, key: str = "doc_id", text_col: str = "text",
                        prefix_len: int = 32, tau: int = 2,
                        bucket_cap: int = 10_000,
                        num_shards: int = 64) -> pd.DataFrame:
    """All (a, b, dist) with a < b and byte-Levenshtein(prefix_a,
    prefix_b) <= tau, where prefix = first ``prefix_len`` CHARACTERS of
    ``text_col`` encoded UTF-8 (character slice + byte distance is
    exactly DuckDB's ``substr`` + ``levenshtein`` pairing, so the oracle
    is hash-exact on any input, not just ASCII).

    ``bucket_cap`` guards against a degenerate segment shared by huge
    populations (all-pairs inside one bucket): a bucket larger than the
    cap raises rather than silently scanning quadratically — the same
    contract as minhash_lsh_pairs' banded cap."""

    def expand(batch: pd.DataFrame) -> pd.DataFrame:
        bks, ids, ps, roles = [], [], [], []
        if key in batch.columns and len(batch):
            # a NULL text has no prefix and pairs with nothing (SQL:
            # levenshtein(substr(NULL, ...), ...) is NULL)
            live = batch[batch[text_col].notna()]
            for kid, txt in zip(live[key].tolist(),
                                live[text_col].tolist()):
                p = str(txt)[:prefix_len].encode("utf-8")
                L = len(p)
                ph = p.hex()
                if L <= 2 * tau:  # too short to segment-block soundly:
                    # one bucket, both roles (all-pairs there, verified)
                    bks.extend(["short", "short"])
                    ids.extend([kid, kid])
                    ps.extend([ph, ph])
                    roles.extend(["i", "p"])
                if L >= tau + 1:  # index own segments
                    for i, (st, ln) in enumerate(_seg_bounds(L, tau)):
                        bks.append(f"{L}:{i}:{p[st:st + ln].hex()}")
                        ids.append(kid); ps.append(ph); roles.append("i")
                    # probe every candidate partner length l <= L
                    for l in range(max(tau + 1, L - tau), L + 1):
                        for i, (st, ln) in enumerate(_seg_bounds(l, tau)):
                            lo = max(0, st - tau)
                            hi = min(L - ln, st + tau)
                            for s0 in range(lo, hi + 1):
                                bks.append(
                                    f"{l}:{i}:{p[s0:s0 + ln].hex()}")
                                ids.append(kid); ps.append(ph)
                                roles.append("p")
        out = pd.DataFrame({
            "bk": pd.Series(bks, dtype="object"),
            key: pd.Series(ids, dtype="int64"),
            "p": pd.Series(ps, dtype="object"),
            "role": pd.Series(roles, dtype="object")})
        # bucket keys are near-unique, and Ray's groupby walks groups in
        # PYTHON — route buckets to a bounded shard count instead and do
        # the per-bucket work with ONE vectorized merge per shard (the
        # substring_dedup lesson; measured 57s -> 2s there)
        out["shard"] = (pd.util.hash_array(
            out["bk"].to_numpy(dtype=object)) % num_shards).astype("int64")
        return out

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # most shards yield few pairs: quiet the per-worker empty-column
        # sizing warning (idempotent; workers don't run session entry points)
        silence_empty_block_schema_warnings()
        empty = pd.DataFrame({"a": pd.Series(dtype="int64"),
                              "b": pd.Series(dtype="int64"),
                              "pa": pd.Series(dtype="object"),
                              "pb": pd.Series(dtype="object")})
        if "bk" not in g.columns or not len(g):
            return empty
        sizes = g["bk"].value_counts()
        if int(sizes.iloc[0]) > bucket_cap:
            raise RuntimeError(
                f"editdist bucket {sizes.index[0]!r} holds "
                f"{int(sizes.iloc[0])} entries (> cap {bucket_cap}): a "
                "degenerate shared segment — raise bucket_cap or "
                "lengthen the prefix")
        idx = g[g["role"] == "i"][["bk", key, "p"]]
        prb = g[g["role"] == "p"][["bk", key, "p"]]
        if not len(idx) or not len(prb):
            return empty
        # ALL buckets of the shard in one C-speed hash join
        m = idx.merge(prb, on="bk", suffixes=("_a", "_b"))
        if not len(m):
            return empty
        ida = m[f"{key}_a"].to_numpy()
        idb = m[f"{key}_b"].to_numpy()
        la = m["p_a"].str.len().to_numpy()  # hex len = 2x byte len
        lb = m["p_b"].str.len().to_numpy()
        # indexed side must be the shorter (pigeonhole direction);
        # normalize output order a<b, drop self-pairs and dup directions
        keep = ((la < lb) | ((la == lb) & (ida != idb)))
        ida, idb = ida[keep], idb[keep]
        pa = m["p_a"].to_numpy()[keep]
        pb = m["p_b"].to_numpy()[keep]
        swap = ida > idb
        a = np.where(swap, idb, ida)
        b = np.where(swap, ida, idb)
        pa2 = np.where(swap, pb, pa)
        pb2 = np.where(swap, pa, pb)
        out = pd.DataFrame({"a": a.astype(np.int64),
                            "b": b.astype(np.int64),
                            "pa": pa2, "pb": pb2})
        return out.drop_duplicates(["a", "b"])

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        silence_empty_block_schema_warnings()
        if "a" not in batch.columns or not len(batch):
            return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64"),
                                 "pair": pd.Series(dtype="object"),
                                 "dist": pd.Series(dtype="int64")})
        d = lev_batch([bytes.fromhex(h) for h in batch["pa"]],
                      [bytes.fromhex(h) for h in batch["pb"]])
        ok = d <= tau
        kept = batch[ok]
        return pd.DataFrame({
            "a": kept["a"].to_numpy(),
            "b": kept["b"].to_numpy(),
            "pair": (kept["a"].astype(str) + "|"
                     + kept["b"].astype(str)).to_numpy(),
            "dist": d[ok]})

    def pair_shard(batch: pd.DataFrame) -> pd.DataFrame:
        silence_empty_block_schema_warnings()
        if "pair" not in batch.columns or not len(batch):
            return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64"),
                                 "dist": pd.Series(dtype="int64"),
                                 "ps": pd.Series(dtype="int64")})
        return batch.assign(ps=(pd.util.hash_array(
            batch["pair"].to_numpy(dtype=object)) % num_shards)
            .astype("int64"))[["a", "b", "dist", "ps"]]

    def dedup_shard(g: pd.DataFrame) -> pd.DataFrame:
        silence_empty_block_schema_warnings()
        if "a" not in g.columns or not len(g):
            return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64"),
                                 "dist": pd.Series(dtype="int64")})
        return g.drop_duplicates(["a", "b"])[["a", "b", "dist"]]

    cand = (ds.map_batches(expand, batch_format="pandas")
            .groupby("shard").map_groups(shard_pairs, batch_format="pandas")
            .map_batches(verify, batch_format="pandas"))
    # a pair can surface in buckets of DIFFERENT shards: global dedup is
    # another bounded-shard exchange (same-pair -> same shard), never a
    # per-pair Python group walk
    out = (cand.map_batches(pair_shard, batch_format="pandas")
           .groupby("ps").map_groups(dedup_shard, batch_format="pandas"))
    parts = [b for b in out.iter_batches(batch_format="pandas")
             if len(b.columns)]
    if not parts:
        return pd.DataFrame({"a": pd.Series(dtype="int64"),
                             "b": pd.Series(dtype="int64"),
                             "dist": pd.Series(dtype="int64")})
    return (pd.concat(parts, ignore_index=True)
            .sort_values(["a", "b"]).reset_index(drop=True))
