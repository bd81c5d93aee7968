"""Exact substring-level deduplication (duplicated-span detection).

The operator from "Deduplicating Training Data Makes Language Models
Better" (Lee et al., 2022): find every maximal span of text whose
length-``L`` substrings ALL occur at least twice in the corpus (in
another document or at another position of the same one), so a curation
pipeline can cut boilerplate/licence blocks/templated text instead of
dropping whole documents. The paper builds a suffix array; at Ray Data
scale the equivalent shape is

1. **gram hashing** (``map_batches``, fully vectorized): every batch's
   texts are concatenated into one uint8 buffer and the rolling hash of
   every length-``L`` byte gram is computed with ONE cumsum/cumprod
   pass (position-independent invertible-base polynomial, see
   :func:`_gram_hashes`); grams crossing a document boundary are masked
   out. Per batch we emit PARTIAL ``(hash, count)`` pairs — the
   exchange carries distinct-gram partials, never positions.
2. **dup-set exchange** — ``exchange.exchange``, the two-hop one-time
   exchange (chosen over ``groupby().sum()`` because a 64-bit-hash key
   space has ~one group per row and Ray's aggregate walks groups in
   Python): per-block splits emit ``num_shards`` separate ``(h, n)``
   slices, per-shard merges sum counts over only their own 1/S slices
   (``np.add.at`` over a ``np.unique`` inverse — C speed) and pin the
   SORTED hashes with global count >= 2 in plasma. The driver holds
   ObjectRefs only; peak task memory is O(block) then O(total/S).
3. **span assembly** (``map_batches``): each batch recomputes its gram
   hashes (cheap, deterministic), probes the shards with
   ``exchange.member_mask``, and merges marked gram starts into maximal
   spans — two starts belong to one span when they are ``<= L`` apart
   (their grams overlap or touch). Batch-layout independent: a span depends
   only on the global dup set and the document's own bytes.

Collision caveat (documented, not hidden): the gram hash is a 64-bit
polynomial in wraparound arithmetic — ~2^-64 per-pair collisions on
natural text (none at test scale: verified against an exact-substring
DuckDB oracle), but ADVERSARIAL inputs can engineer collisions
(Thue-Morse-style constructions defeat any base mod 2^64), which would
over-mark a span. Pass a fresh odd ``base`` per run to salt, or byte-
verify spans downstream if the corpus is adversarial.

Texts are treated as UTF-8 BYTES (``L`` is a byte length); on ASCII
corpora byte offsets equal character offsets, which is what the SQL
oracle checks. Reference has no counterpart (engine-tier operator).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import exchange, member_mask

# default multiplier: odd (invertible mod 2^64) FNV-1a prime
_DEFAULT_BASE = 0x100000001B3


def _hash_consts(base: int):
    b = int(base) | 1  # must be odd to invert mod 2^64
    binv = pow(b, -1, 1 << 64)
    return np.uint64(b), np.uint64(binv)


def _gram_hashes(buf: np.ndarray, L: int, base: int) -> np.ndarray:
    """Rolling hashes of every length-``L`` gram of ``buf`` (uint8),
    one vectorized pass. ``h[i]`` depends only on ``buf[i:i+L]`` (the
    position factor cancels): with ``C_i = Σ_{j<i} buf[j]·B⁻ʲ`` and
    ``h_i = B^i·(C_{i+L} − C_i)``, equal grams hash equal anywhere in
    any buffer. All arithmetic wraps mod 2^64 (numpy uint64)."""
    n = len(buf)
    if n < L:
        return np.empty(0, np.uint64)
    b, binv = _hash_consts(base)
    binv_pow = np.empty(n, np.uint64)
    binv_pow[0] = np.uint64(1)
    if n > 1:
        np.cumprod(np.full(n - 1, binv, np.uint64), out=binv_pow[1:])
    c = np.zeros(n + 1, np.uint64)
    np.cumsum(buf.astype(np.uint64) * binv_pow, out=c[1:])
    bpow = np.empty(n - L + 1, np.uint64)
    bpow[0] = np.uint64(1)
    if n - L > 0:
        np.cumprod(np.full(n - L, b, np.uint64), out=bpow[1:])
    return (c[L:] - c[: n - L + 1]) * bpow


def _batch_grams(texts, L: int, base: int):
    """Concatenate a batch's texts and return (hashes, doc_index,
    doc-relative start) for every gram fully inside one document."""
    enc = [t.encode("utf-8") if isinstance(t, str) else bytes(t or b"")
           for t in texts]
    lens = np.fromiter((len(e) for e in enc), np.int64, count=len(enc))
    total = int(lens.sum())
    if total < L:
        z = np.empty(0, np.int64)
        return np.empty(0, np.uint64), z, z
    buf = np.frombuffer(b"".join(enc), dtype=np.uint8)
    h = _gram_hashes(buf, L, base)
    starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
    # gram at global position p belongs to doc d iff it ends inside d:
    # p >= starts[d] and p + L <= starts[d] + lens[d]
    pos = np.arange(len(h), dtype=np.int64)
    doc = np.searchsorted(starts, pos, side="right") - 1
    rel = pos - starts[doc]
    keep = rel + L <= lens[doc]
    return h[keep], doc[keep], rel[keep]


def dup_gram_shards(ds, L: int = 20, text_col: str = "text",
                    num_shards: int = 16,
                    base: int = _DEFAULT_BASE) -> dict:
    """Hash-partitioned SORTED arrays (int64 bit-view) of gram hashes
    whose global occurrence count (across documents AND positions,
    overlaps included) is >= 2, pinned in the object store; the driver
    holds only the per-shard ObjectRefs. ``shard = h % num_shards``
    with numpy's nonnegative modulo — probes must use the same."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if text_col not in batch.columns or not len(batch):
            return pd.DataFrame({"h": pd.Series(dtype="int64"),
                                 "n": pd.Series(dtype="int64")})
        h, _, _ = _batch_grams(batch[text_col].tolist(), L, base)
        u, c = np.unique(h, return_counts=True)
        return pd.DataFrame({"h": u.view(np.int64),
                             "n": c.astype(np.int64)})

    def split(bl):
        if not bl.num_rows or "h" not in bl.schema.names:
            return [(np.empty(0, np.int64), np.empty(0, np.int64))
                    for _ in range(num_shards)]
        hv = (bl.column("h").to_numpy(zero_copy_only=False)
              .astype(np.int64, copy=False))
        nv = (bl.column("n").to_numpy(zero_copy_only=False)
              .astype(np.int64, copy=False))
        mod = hv % num_shards
        return [(hv[mod == s], nv[mod == s]) for s in range(num_shards)]

    def merge(*slices):
        hs = [h for h, _ in slices if len(h)]
        if not hs:
            return np.empty(0, np.int64)
        h_all = np.concatenate(hs)
        n_all = np.concatenate([n for _, n in slices if len(n)])
        u, inv = np.unique(h_all, return_inverse=True)
        tot = np.zeros(len(u), np.int64)
        np.add.at(tot, inv, n_all)
        return u[tot >= 2]  # np.unique output is already sorted

    refs = ds.map_batches(partial, batch_format="pandas").to_arrow_refs()
    return exchange(refs, num_shards, split, merge)


def _merge_islands(doc_m: np.ndarray, rel_m: np.ndarray, L: int):
    """Marked gram starts → maximal spans, vectorized across the batch:
    a new span starts at a document change or a gap > L between starts
    (<= L means the grams overlap or touch)."""
    brk = np.flatnonzero((np.diff(doc_m) != 0) | (np.diff(rel_m) > L))
    s_idx = np.concatenate(([0], brk + 1))
    e_idx = np.concatenate((brk, [len(rel_m) - 1]))
    return s_idx, e_idx


def duplicated_spans(ds, L: int = 20, id_col: str = "doc_id",
                     text_col: str = "text", num_shards: int = 16,
                     base: int = _DEFAULT_BASE, shards: dict | None = None):
    """Maximal duplicated spans per document as a Dataset with columns
    ``(doc_id, span_start, span_end)`` — 0-based byte offsets, end
    exclusive. Pass precomputed ``shards`` (from
    :func:`dup_gram_shards`) to reuse one dup-set exchange across
    several consumers."""
    if shards is None:
        shards = dup_gram_shards(ds, L, text_col, num_shards, base)

    def mark(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            id_col: pd.Series(dtype="int64"),
            "span_start": pd.Series(dtype="int64"),
            "span_end": pd.Series(dtype="int64")})
        if text_col not in batch.columns or not len(batch):
            return empty
        h, doc, rel = _batch_grams(batch[text_col].tolist(), L, base)
        if not len(h):
            return empty
        dup_mask = member_mask(h.view(np.int64), shards, num_shards)
        doc_m, rel_m = doc[dup_mask], rel[dup_mask]
        if not len(doc_m):
            return empty
        s_idx, e_idx = _merge_islands(doc_m, rel_m, L)
        ids = batch[id_col].to_numpy()[doc_m[s_idx]]
        return pd.DataFrame({
            id_col: ids.astype(np.int64),
            "span_start": rel_m[s_idx].astype(np.int64),
            "span_end": (rel_m[e_idx] + L).astype(np.int64)})

    return ds.map_batches(mark, batch_format="pandas")


def scrub_duplicated_spans(ds, L: int = 20, id_col: str = "doc_id",
                           text_col: str = "text", num_shards: int = 16,
                           min_keep: int = 0, base: int = _DEFAULT_BASE,
                           shards: dict | None = None):
    """Cut every duplicated span out of each document (the paper's
    ExactSubstr dedup): returns the input Dataset with ``text_col``
    replaced by the concatenation of its non-duplicated byte ranges and
    a ``dup_bytes`` column counting what was removed. Layout-preserving
    (``batch_size=None`` probe, no shuffle of the text payload).
    Documents whose residue would be shorter than ``min_keep`` bytes
    keep an empty string (``dup_bytes`` stays exact)."""
    if shards is None:
        shards = dup_gram_shards(ds, L, text_col, num_shards, base)

    def scrub(batch: pd.DataFrame) -> pd.DataFrame:
        if text_col not in batch.columns or not len(batch):
            return batch
        texts = batch[text_col].tolist()
        h, doc, rel = _batch_grams(texts, L, base)
        cut: dict[int, list[tuple[int, int]]] = {}
        if len(h):
            dup_mask = member_mask(h.view(np.int64), shards, num_shards)
            doc_m, rel_m = doc[dup_mask], rel[dup_mask]
            if len(doc_m):
                s_idx, e_idx = _merge_islands(doc_m, rel_m, L)
                for d, a, b in zip(doc_m[s_idx], rel_m[s_idx],
                                   rel_m[e_idx] + L):
                    cut.setdefault(int(d), []).append((int(a), int(b)))
        out_txt, out_cnt = [], []
        for i, t in enumerate(texts):
            spans = cut.get(i)
            if not spans:
                out_txt.append(t)
                out_cnt.append(0)
                continue
            raw = t.encode("utf-8")
            kept, prev, removed = [], 0, 0
            for a, b in spans:
                kept.append(raw[prev:a])
                removed += b - a
                prev = b
            kept.append(raw[prev:])
            res = b"".join(kept)
            out_txt.append("" if len(res) < min_keep
                           else res.decode("utf-8", errors="replace"))
            out_cnt.append(removed)
        out = batch.copy()
        out[text_col] = out_txt
        out["dup_bytes"] = pd.Series(out_cnt, dtype="int64",
                                     index=batch.index)
        return out

    return ds.map_batches(scrub, batch_format="pandas", batch_size=None)
