"""Near-duplicate image detection over the pairs table (SURVEY.md §2.7 D3).

Banding a 64-bit perceptual hash into B equal bands guarantees (pigeonhole)
that any pair within Hamming distance B-1 shares at least one band; sharing
any band makes a candidate, verified by exact Hamming distance inside the
band group. The bucket ``groupby`` shuffles only (band, key, image_id, phash)
— never image bytes.

Recall guarantee: only pairs with Hamming <= bands-1 are guaranteed to be
found. Asking for ``max_hamming > bands - 1`` is allowed but partial-recall;
a warning is logged. More bands = better recall but coarser band keys
(64/bands bits), i.e. bigger candidate buckets — pick bands ≈ max_hamming+1.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd

logger = logging.getLogger(__name__)


def _hamming_vec(x: np.ndarray) -> np.ndarray:
    """Popcount of a uint64 array (vectorized via byte-wise unpackbits)."""
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)


def _explode_batch(batch: pd.DataFrame, bands: int) -> pd.DataFrame:
    ph = batch["phash"].to_numpy(dtype=np.uint64)
    width = 64 // bands
    mask = np.uint64((1 << width) - 1)
    n = len(batch)
    out_band, out_key, out_id, out_ph = [], [], [], []
    ids = batch["image_id"].to_numpy()
    for band in range(bands):
        keys = (ph >> np.uint64(band * width)) & mask
        out_band.append(np.full(n, band, dtype=np.int64))
        out_key.append(keys.astype(np.int64))
        out_id.append(ids)
        out_ph.append(ph.view(np.int64))
    return pd.DataFrame({
        "band_id": np.concatenate(out_band),
        "band_key": np.concatenate(out_key),
        "image_id": np.concatenate(out_id),
        "phash": np.concatenate(out_ph),
    })


def phash_neardup_pairs_ds(ds, max_hamming: int = 8, bands: int = 4):
    """Distributed phash near-dup over a Dataset with (image_id, phash).

    explode → ``groupby(band_id, band_key).map_groups(verify)`` →
    cross-band pair dedup via a second ``groupby`` → small sorted result.
    """
    if max_hamming > bands - 1:
        logger.warning(
            "phash_neardup: max_hamming=%d exceeds the banding guarantee "
            "(bands=%d only guarantees recall for Hamming <= %d); pairs "
            "beyond that bound may be missed", max_hamming, bands, bands - 1,
        )

    def verify(group: pd.DataFrame) -> pd.DataFrame:
        items = sorted(set(zip(group["image_id"], group["phash"].astype(np.int64))))
        m = len(items)
        if m < 2:
            return pd.DataFrame({"image_a": pd.Series(dtype="object"),
                                 "image_b": pd.Series(dtype="object"),
                                 "hamming": pd.Series(dtype="int64")})
        ids = [it[0] for it in items]
        ph = np.array([it[1] for it in items], dtype=np.int64).view(np.uint64)
        ia, ib = np.triu_indices(m, k=1)
        d = _hamming_vec(ph[ia] ^ ph[ib])
        keep = d <= max_hamming
        return pd.DataFrame({
            "image_a": [ids[i] for i in ia[keep]],
            "image_b": [ids[j] for j in ib[keep]],
            "hamming": d[keep].astype(np.int64),
        })

    def first_row(group: pd.DataFrame) -> pd.DataFrame:
        return group.head(1)

    out = (
        ds.map_batches(_explode_batch, fn_kwargs={"bands": bands}, batch_format="pandas")
        .groupby(["band_id", "band_key"])
        .map_groups(verify, batch_format="pandas")
        .groupby(["image_a", "image_b"])      # a pair can match in several bands
        .map_groups(first_row, batch_format="pandas")
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame({"image_a": pd.Series(dtype="object"),
                             "image_b": pd.Series(dtype="object"),
                             "hamming": pd.Series(dtype="int64")})
    return out.sort_values(["image_a", "image_b"]).reset_index(drop=True)


def phash_neardup_pairs(df: pd.DataFrame, max_hamming: int = 8, bands: int = 4) -> pd.DataFrame:
    """pandas convenience wrapper — routes through the Dataset path so both
    entry points share the one distributed implementation."""
    import ray.data as rd

    chunk = max(1, len(df) // 8)
    chunks = [df.iloc[i: i + chunk] for i in range(0, len(df), chunk)] or [df]
    return phash_neardup_pairs_ds(rd.from_pandas(chunks), max_hamming=max_hamming, bands=bands)
