"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pages→parse→pairs pipeline on a deterministic
synthetic corpus sized like sf0.001. ``queries()`` exposes each implemented
operator over the driver's parquet tables; ``oracle_sql()`` carries the
DuckDB-equivalent SQL (column names match exactly).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# Deterministic block ordering is part of this engine's contract: the
# batch-layout-sensitive queries (pack_sequences, curate, range_shards,
# approx_quantiles) pin goldens on the block stream, and spill_dataset's
# re-read must map files back to blocks 1:1. Ray's default
# preserve_order=False may emit blocks out of order under load. This is
# driver-side DataContext config, not session ownership (no ray.init).
import ray.data as _rd  # noqa: E402

_rd.DataContext.get_current().execution_options.preserve_order = True

# drop the known-noise warning class (Ray's reduce emitting column-less
# empty pandas blocks) so real schema divergences stay visible
from akf_cdparser_ray.logquiet import (  # noqa: E402
    silence_empty_block_schema_warnings,
)

silence_empty_block_schema_warnings()

SF0001 = "/root/testdata/sf0.001"


def _ship_package_by_value() -> None:
    """Ray workers don't inherit the driver's sys.path; register the whole
    package for cloudpickle by-value so actor classes deserialize anywhere
    (no runtime_env, no install step).

    Set AKF_PICKLE_BY_VALUE=0 to skip when workers can plain-import the
    package (PYTHONPATH/cwd = repo root, as bench.py arranges): by-value
    deserialization of the whole package costs each fresh worker process
    ~0.2 s, which dominates cold-start for fleets of small tasks."""
    if os.environ.get("AKF_PICKLE_BY_VALUE", "1") == "0":
        return
    import importlib
    import pkgutil

    import ray.cloudpickle as cp

    import akf_cdparser_ray

    cp.register_pickle_by_value(akf_cdparser_ray)
    for info in pkgutil.walk_packages(akf_cdparser_ray.__path__, "akf_cdparser_ray."):
        try:
            cp.register_pickle_by_value(importlib.import_module(info.name))
        except ImportError:
            pass


_ship_package_by_value()


def entry() -> Any:
    """Flagship pipeline at sf0.001 scale: synthetic Aktienführer pages →
    task-based parse (per-process cached parser state) → image+caption
    pairs Dataset."""
    from akf_cdparser_ray.pipelines import flagship

    return flagship.pairs_pipeline(n_pages=120, batch_size=16)


# ---------------------------------------------------------------------------
# queries — each callable takes sf_dir, returns Dataset / DataFrame / Table
# ---------------------------------------------------------------------------


def _read(sf_dir: str, name: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, f"{name}.parquet"), columns=columns)


def q_pricing_summary(sf_dir: str):
    """TPC-H-Q1-shaped rollup with partial pre-aggregation (SURVEY §2.5)."""
    import pyarrow.compute as pc

    from akf_cdparser_ray.stages.relational import partial_groupby_sum

    ds = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_shipdate",
        ],
    )
    cutoff = "1998-09-02"

    def prep(batch):
        import pyarrow as pa

        mask = pc.less_equal(batch["l_shipdate"], pa.scalar(cutoff).cast(batch["l_shipdate"].type))
        batch = batch.filter(mask)
        # exact integer-cent arithmetic: per-row rounding of bit-identical
        # doubles, then order-independent int64 sums (float sums are
        # order-dependent and break bit-exact oracle comparison)
        rmode = {"round_mode": "half_towards_infinity"}  # match DuckDB round()
        qty_c = pc.cast(pc.round(pc.multiply(batch["l_quantity"], 100.0), **rmode), pa.int64())
        base_c = pc.cast(pc.round(pc.multiply(batch["l_extendedprice"], 100.0), **rmode), pa.int64())
        disc_c = pc.cast(
            pc.round(
                pc.multiply(
                    pc.multiply(batch["l_extendedprice"], pc.subtract(1.0, batch["l_discount"])),
                    100.0,
                ),
                **rmode,
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty_c": qty_c,
                "base_c": base_c,
                "disc_c": disc_c,
            }
        )

    ds = ds.map_batches(prep, batch_format="pyarrow")
    out = partial_groupby_sum(
        ds,
        ["l_returnflag", "l_linestatus"],
        ["qty_c", "base_c", "disc_c"],
        count_alias="count_order",
    )
    df = out.to_pandas()
    df["sum_qty"] = df.pop("qty_c") / 100.0
    df["sum_base_price"] = df.pop("base_c") / 100.0
    df["sum_disc_price"] = df.pop("disc_c") / 100.0
    return df[
        ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "sum_disc_price", "count_order"]
    ]


def q_exact_dedup(sf_dir: str):
    """Exact dedup: hash-partition by content, keep first doc per text
    (SURVEY §2.7 D2 analogue over the documents table)."""
    from ray.data.aggregate import Min

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.groupby("text").aggregate(Min("doc_id", alias_name="doc_id"))
    return out.select_columns(["doc_id"])


def q_event_counters(sf_dir: str):
    """Per-type crawl-style counters with partial pre-agg (SURVEY §2.5 A5)."""
    from akf_cdparser_ray.stages.relational import partial_groupby_sum

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    out = partial_groupby_sum(ds, ["event_type"], ["value"], count_alias="n")

    import pandas as pd

    df = out.to_pandas().rename(columns={"value": "total_value"})
    return df[["event_type", "total_value", "n"]]


def q_token_counts(sf_dir: str):
    """Token counting (whitespace + BPE-ish regex) over documents."""
    from akf_cdparser_ray.stages.text_analysis import token_count_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(token_count_batch, batch_format="pandas").to_pandas()


def q_quality_scores(sf_dir: str):
    """Quality signals (length / words / alphabetic ratio) over documents."""
    from akf_cdparser_ray.stages.text_analysis import quality_score_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(quality_score_batch, batch_format="pandas").to_pandas()


def q_fingerprints(sf_dir: str):
    """Canonical md5 content fingerprint per document."""
    from akf_cdparser_ray.stages.text_analysis import fingerprint_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(fingerprint_batch, batch_format="pandas").to_pandas()


def q_rolling_fps(sf_dir: str):
    """Winnowing (rolling-hash) fingerprints per document (rows-only:
    deterministic numpy digest, no SQL equivalent)."""
    from akf_cdparser_ray.stages.text_analysis import rolling_fingerprint_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(rolling_fingerprint_batch, batch_format="pandas").to_pandas()


def q_langid(sf_dir: str):
    """Heuristic language ID (rows-only check: no SQL oracle)."""
    from akf_cdparser_ray.stages.text_analysis import langid_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(langid_batch, batch_format="pandas").to_pandas()


def q_minhash_neardup(sf_dir: str):
    """MinHash+LSH near-duplicate pairs, Jaccard-verified (rows-only)."""
    from akf_cdparser_ray.stages.dedup_text import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_lsh_pairs(ds, threshold=0.5)


def q_simhash(sf_dir: str):
    """64-bit SimHash per document (rows-only; deterministic)."""
    from akf_cdparser_ray.stages.dedup_text import simhash_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(simhash_batch, batch_format="pandas").to_pandas()


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs via hyperplane LSH (rows-only)."""
    from akf_cdparser_ray.stages.dedup_text import embedding_neardup_pairs

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    # random synthetic embeddings have no true dups; a low threshold + coarse
    # buckets keeps the check non-trivial at every sf
    return embedding_neardup_pairs(ds, threshold=0.3, nbits=6)


_ANN_QUERY_IDS = [0, 1, 2]


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 for three query vectors (exact baseline)."""
    import pyarrow.parquet as pq

    from akf_cdparser_ray.stages.ann import bruteforce_topk

    # predicate pushdown: only the 3 query rows' row groups leave storage
    emb = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", _ANN_QUERY_IDS)],
    )
    lookup = {
        int(v): e
        for v, e in zip(emb.column("vec_id").to_pylist(), emb.column("embedding").to_pylist())
    }
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return bruteforce_topk(ds, {qid: lookup[qid] for qid in _ANN_QUERY_IDS}, k=10)


def q_ivf_topk(sf_dir: str):
    """IVF approximate top-10 with a TRAINED coarse quantizer: distributed
    k-means (one partial-sum map_batches pass per iteration), each query
    probes its 4 nearest of 16 centroids, exact ranking on the candidate
    union. repartition(8) pins the k-means partial fold order so the
    golden survives parallelism changes (the approx_quantiles convention).
    Rows-only + golden (k-means isn't SQL-expressible)."""
    import pyarrow.parquet as pq

    from akf_cdparser_ray.stages.ann import ivf_topk

    emb = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", _ANN_QUERY_IDS)],
    )
    lookup = {
        int(v): e
        for v, e in zip(emb.column("vec_id").to_pylist(),
                        emb.column("embedding").to_pylist())
    }
    ds = _read(sf_dir, "embeddings",
               columns=["vec_id", "embedding"]).repartition(8)
    return ivf_topk(ds, {qid: lookup[qid] for qid in _ANN_QUERY_IDS},
                    k=10, n_centroids=16, nprobe=4)


def q_knn_join(sf_dir: str):
    """kNN self-join: every vector's top-5 cosine neighbors (blocked matmul
    + distributed top-k merge)."""
    from akf_cdparser_ray.stages.ann import knn_join

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return knn_join(ds, k=5)


def q_window_hourly(sf_dir: str):
    """Tumbling 1h windows per event_type (count + sum)."""
    from akf_cdparser_ray.stages.windows import tumbling_window_counts

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])
    return tumbling_window_counts(ds, freq="h")


def q_asof_join(sf_dir: str):
    """As-of join: latest order per customer at or before each event ts."""
    import pyarrow.parquet as pq

    from akf_cdparser_ray.stages.windows import asof_join_events_orders

    orders = pq.read_table(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_orderdate"]
    ).to_pandas()
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    return asof_join_events_orders(ds, orders)


def q_sessionize(sf_dir: str):
    """Per-user session counts (30-min gap rule) — the classic streaming
    sessionization expressed as a hash-partitioned map_groups."""
    from akf_cdparser_ray.stages.windows import sessionize_counts

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    return sessionize_counts(ds, gap_minutes=30)


def q_grouped_median(sf_dir: str):
    """Exact per-type discrete median of event values (quantile_disc rule)."""
    from akf_cdparser_ray.stages.windows import grouped_median

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    return grouped_median(ds)


def q_topk_per_shard(sf_dir: str):
    """Frontier-dequeue pattern: per-shard priority top-k, deterministic
    tie-breaks (the crawl dequeue expressed relationally)."""
    from akf_cdparser_ray.stages.windows import topk_per_shard

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "value"])
    return topk_per_shard(ds, num_shards=4, k=3)


def q_anti_join(sf_dir: str):
    """URL-seen anti-join pattern: event users unknown to customer keys."""
    import pyarrow.parquet as pq

    from akf_cdparser_ray.stages.windows import anti_join_new_users

    keys = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    ).column("c_custkey").to_pylist()
    # restrict the known set so the anti-join is non-trivial at every sf
    keys = [k for k in keys if k % 3 != 0]
    ds = _read(sf_dir, "events", columns=["user_id"])
    return anti_join_new_users(ds, keys)


def q_host_counts(sf_dir: str):
    """URL canonicalization demo: synthesize URLs from events, canonicalize,
    count per host (matches the SQL mirror string-for-string)."""
    import pandas as pd

    from akf_cdparser_ray.stages.links import canonicalize_urls, hosts_of
    from akf_cdparser_ray.stages.relational import partial_groupby_sum

    ds = _read(sf_dir, "events", columns=["event_id", "user_id"])

    def mk(batch: pd.DataFrame) -> pd.DataFrame:
        raw = (
            "HTTP://Host" + (batch["user_id"] % 7).astype(str)
            + ".example/p/" + batch["event_id"].astype(str) + "/"
        )
        urls = canonicalize_urls(raw)
        return pd.DataFrame({"host": hosts_of(urls), "one": 1})

    out = partial_groupby_sum(ds.map_batches(mk, batch_format="pandas"), ["host"], ["one"])
    df = out.to_pandas().rename(columns={"one": "n"})
    return df[["host", "n"]]


def q_parse_profiles(_sf_dir: str):
    """Flagship parse over deterministic synthetic pages (rows-only check;
    correctness is gated by the golden-fixture pytest suite)."""
    import json

    import pandas as pd

    from akf_cdparser_ray.pipelines import flagship

    rows = (
        flagship.pairs_pipeline(n_pages=40, batch_size=8)
        .select_columns(["image_id", "status", "caption"])  # never pull `bytes` to the driver
        .take_all()
    )
    out = []
    for r in rows:
        cap = json.loads(r["caption"]) if r["caption"] else {}
        sitz = (cap.get("Sitz") or [{}])[0]
        out.append(
            {
                "image_id": r["image_id"],
                "status": r["status"],
                "name": cap.get("name"),
                "city": sitz.get("city"),
                "established_year": cap.get("established_year"),
            }
        )
    return pd.DataFrame(out).sort_values("image_id").reset_index(drop=True)


def q_validate_profiles(_sf_dir: str):
    """Schema validation (SURVEY.md §3.2, ref lib/validator.js) as a
    distributed stage: synthesize → parse (with coverage-by-subtraction
    residue) → ValidateProfiles over the caption JSON. Per-doc valid flag,
    error count and coverage ratio (rows-only check; the validator's
    ajv-v4 semantics are parity-tested in tests/test_profile_parser.py)."""
    import pandas as pd

    from akf_cdparser_ray.pipelines.flagship import pages_dataset, parse_pages
    from akf_cdparser_ray.stages.parse_stage import ValidateProfiles

    parsed = parse_pages(
        pages_dataset(40), batch_size=8, with_residue=True
    )
    rows = (
        parsed.map_batches(ValidateProfiles(), batch_format="pyarrow")
        .select_columns(
            ["image_id", "status", "valid", "validation_errors", "coverage"]
        )  # bytes never reach the driver
        .take_all()
    )
    out = pd.DataFrame(
        {
            "image_id": [r["image_id"] for r in rows],
            "status": [r["status"] for r in rows],
            "valid": [bool(r["valid"]) for r in rows],
            "n_errors": [
                len([e for e in r["validation_errors"].split("; ") if e])
                if r["validation_errors"] else 0
                for r in rows
            ],
            "coverage": [round(float(r["coverage"]), 6) for r in rows],
        }
    )
    return out.sort_values("image_id").reset_index(drop=True)


def q_crawl_smoke(_sf_dir: str):
    """One-wave crawl on a tiny synthetic frontier: dequeue → politeness →
    fetch → parse → dedupe → counters (rows-only check)."""
    import tempfile

    import pandas as pd

    from akf_cdparser_ray.pipelines.crawl import CrawlConfig, CrawlJob
    from akf_cdparser_ray.sources import synth

    seeds = [synth.page_url(synth.gen_profile(i)) for i in (0, 1, 2)]
    cfg = CrawlConfig(
        seeds=seeds, corpus_size=40, out_dir=tempfile.mkdtemp(prefix="crawlq_"),
        num_shards=4, num_politeness_shards=2, dequeue_k=6, max_waves=2,
    )
    job = CrawlJob(cfg)
    summary = job.run()
    job.shutdown()
    return pd.DataFrame(summary["counters"])


def q_crawl_stream(_sf_dir: str):
    """Streaming (non-wave) crawl to drain on a tiny synthetic corpus:
    lease workers → politeness gates → fetch → parse → pairs + immediate
    link enqueue; returns the drained counters (rows-only check — the
    schedule-independence and wave-equivalence invariants are pinned in
    tests/test_stream_crawl.py)."""
    import tempfile

    import pandas as pd

    from akf_cdparser_ray.pipelines.stream_crawl import (
        StreamCrawlConfig, StreamCrawlJob,
    )
    from akf_cdparser_ray.sources import synth

    cfg = StreamCrawlConfig(
        seeds=[synth.page_url_for_idx(i) for i in range(4)],
        corpus_size=120,
        out_dir=tempfile.mkdtemp(prefix="streamq_"),
        num_shards=4, num_politeness_shards=2, num_workers=2,
        lease_urls=16,
        budgets={f"host{k}.example": {"per_wave": 10_000, "burst": 10_000}
                 for k in range(20)},
    )
    job = StreamCrawlJob(cfg)
    summary = job.run()
    job.shutdown()
    # project to the schedule-INDEPENDENT counters (the stream mode's
    # determinism contract) — lease/dequeue/defer counts vary with the
    # schedule and must not enter the golden hash
    c = summary["counters"]
    keys = ["fetched", "http_404", "robots_denied", "parsed_ok",
            "parse_err", "pairs_rows", "links", "links_new"]
    row = {k: c[k] for k in keys}
    row["seen_total"] = summary["seen_total"]
    return pd.DataFrame([row])


def q_phash_neardup(_sf_dir: str):
    """Image near-dup via banded 64-bit phash over a synthetic pairs table
    with planted duplicates (rows-only check)."""
    import numpy as np
    import pandas as pd

    from akf_cdparser_ray.sources import images as im
    from akf_cdparser_ray.sources import synth
    from akf_cdparser_ray.stages.dedup_images import phash_neardup_pairs

    rows = []
    for i in range(24):
        _data, pix = synth.make_image(synth.gen_profile(i))
        rows.append((f"img{i:03d}", im.phash64(pix)))
        if i % 6 == 0:  # plant a near-duplicate
            noisy = pix.copy()
            noisy[::19, ::19] ^= 1
            rows.append((f"img{i:03d}_dup", im.phash64(noisy)))
    df = pd.DataFrame(rows, columns=["image_id", "phash"])
    # bands=8 so the banding guarantee (Hamming <= bands-1) covers max_hamming
    return phash_neardup_pairs(df, max_hamming=6, bands=8)


def q_ngram_jaccard(sf_dir: str):
    """Exact all-pairs 3-gram Jaccard near-dup (block-nested-loop cross
    join; the EXACT kernel the MinHash/LSH approximation targets). Integer
    cross-multiplied threshold — fully hash-exact vs the DuckDB oracle."""
    from akf_cdparser_ray.stages.crossjoin import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, threshold_pct=50, n=3)


def q_join_mktsegment(sf_dir: str):
    """Broadcast-hash equi-join: orders ⋈ customer on custkey, counts per
    (mktsegment, orderstatus) — the engine's skew-proof join shape."""
    import pyarrow.parquet as pq

    from akf_cdparser_ray.stages.crossjoin import broadcast_hash_join
    from akf_cdparser_ray.stages.relational import partial_groupby_sum

    customers = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    ).to_pandas().rename(columns={"c_custkey": "o_custkey"})
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"])
    joined = broadcast_hash_join(orders, customers, key="o_custkey")

    import pandas as pd

    def one(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.assign(n=1)[["c_mktsegment", "o_orderstatus", "n"]]

    out = partial_groupby_sum(
        joined.map_batches(one, batch_format="pandas"),
        ["c_mktsegment", "o_orderstatus"], ["n"],
    )
    df = out.to_pandas()
    return df[["c_mktsegment", "o_orderstatus", "n"]]


def q_audio_features(_sf_dir: str):
    """Audio decode + feature extraction over a deterministic WAV corpus
    (real RIFF/PCM decoder; rows-only — no SQL equivalent for DSP)."""
    import ray.data as rd

    from akf_cdparser_ray.sources import av
    from akf_cdparser_ray.stages.av_ops import AudioFeatures

    clips = rd.from_items(
        [{"audio_id": f"a{i:03d}", "bytes": av.synth_wav(i)} for i in range(32)]
    )
    return clips.map_batches(
        AudioFeatures, batch_format="pyarrow", batch_size=8, concurrency=2
    ).to_pandas().sort_values("audio_id").reset_index(drop=True)


def q_image_features(_sf_dir: str):
    """Chained image stages over the synthetic page scans: decode +
    block-mean resize to 16x16 PNG thumbs (actor pool), then an 8-bin
    RGB color histogram over the THUMB bytes — binary columns flow
    worker-to-worker through the object store; the driver sees only the
    24-dim feature rows (rows-only: no SQL engine decodes images)."""
    import pyarrow as pa
    import ray.data as rd

    from akf_cdparser_ray.sources import synth
    from akf_cdparser_ray.stages.image_ops import ColorHistogram, DecodeResize

    tbl = synth.build_pages_table(64)
    # from_arrow(one table) = ONE block (CLAUDE.md lesson) — slice it so
    # the actor pools actually parallelize
    pages = rd.from_arrow([tbl.slice(i * 16, 16) for i in range(4)])

    def as_pairs(batch: pa.Table) -> pa.Table:
        return pa.table({
            "image_id": batch["image_id"],
            "bytes": batch["thumb"],
            "fmt": pa.array(["png"] * batch.num_rows, pa.string()),
        })

    thumbs = pages.map_batches(
        DecodeResize, fn_constructor_kwargs={"out_w": 16, "out_h": 16},
        batch_format="pyarrow", batch_size=16, concurrency=2,
    ).map_batches(as_pairs, batch_format="pyarrow")
    feats = thumbs.map_batches(
        ColorHistogram, fn_constructor_kwargs={"bins": 8},
        batch_format="pyarrow", batch_size=16, concurrency=2,
    )
    df = feats.to_pandas().sort_values("image_id").reset_index(drop=True)
    # fixed 6-decimal rendering for the golden (float32 -> float64 list)
    df["features"] = df["features"].map(
        lambda v: "|".join(f"{float(x):.6f}" for x in v))
    return df


def q_frame_sample(_sf_dir: str):
    """Video frame sampling: decode every 4th frame of each clip, emit
    per-frame metadata + phash (rows-only)."""
    import ray.data as rd

    from akf_cdparser_ray.sources import av
    from akf_cdparser_ray.stages.av_ops import FrameSample

    clips = rd.from_items(
        [{"video_id": f"v{i:03d}", "bytes": av.synth_framevideo(i)} for i in range(12)]
    )
    return clips.map_batches(
        FrameSample, fn_constructor_kwargs={"every_k": 4},
        batch_format="pyarrow", batch_size=4, concurrency=2,
    ).to_pandas().sort_values(["video_id", "frame_idx"]).reset_index(drop=True)


def q_revenue_by_status(sf_dir: str):
    """Big-x-big shuffle join (lineitem x orders on orderkey, neither side
    broadcast) -> revenue per order status. Integer-cent arithmetic keeps
    the oracle hash-exact (same recipe as pricing_summary)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from akf_cdparser_ray.stages.crossjoin import shuffle_hash_join
    from akf_cdparser_ray.stages.relational import partial_groupby_sum

    lineitem = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def cents(batch: pa.Table) -> pa.Table:
        rmode = {"round_mode": "half_towards_infinity"}
        rev_c = pc.cast(pc.round(pc.multiply(
            pc.multiply(batch["l_extendedprice"], pc.subtract(1.0, batch["l_discount"])),
            100.0), **rmode), pa.int64())
        return pa.table({"l_orderkey": batch["l_orderkey"], "rev_c": rev_c})

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"])
    joined = shuffle_hash_join(
        lineitem.map_batches(cents, batch_format="pyarrow"), orders,
        left_key="l_orderkey", right_key="o_orderkey",
        left_cols=["l_orderkey", "rev_c"],          # explicit: keeps the lazy
        right_cols=["o_orderkey", "o_orderstatus"],  # plan from pre-executing
    )
    out = partial_groupby_sum(
        joined.map_batches(
            lambda b: b[["o_orderstatus", "rev_c"]], batch_format="pandas"
        ),
        ["o_orderstatus"], ["rev_c"], count_alias="n_lineitems",
    )
    df = out.to_pandas()
    df["revenue"] = df.pop("rev_c") / 100.0
    return df[["o_orderstatus", "revenue", "n_lineitems"]]


def q_lse_report(sf_dir: str):
    """Line-segment separator analysis over document lines (rows-only)."""
    import pandas as pd

    from akf_cdparser_ray.stages.lse import separator_report

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def to_lines(batch: pd.DataFrame) -> pd.DataFrame:
        # line_idx = doc_id gives the global first-occurrence order the JS
        # insertion-order rebuild needs (see stages/lse.classify_batch)
        return pd.DataFrame({"line": batch["text"], "line_idx": batch["doc_id"]})

    return separator_report(ds.map_batches(to_lines, batch_format="pandas"))


def q_vocabulary(sf_dir: str):
    """Corpus dictionary: top-100 terms by document frequency with total
    term frequency (in-batch combiner → one small term-keyed groupby)."""
    from akf_cdparser_ray.stages.text_analysis import vocabulary

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return vocabulary(ds, top_k=100)


def q_latest_event(sf_dir: str):
    """Latest event per user (grouped argmax): per-batch winners only
    enter the user-keyed shuffle (stages/windows.latest_per_group);
    total order via (ts DESC, event_id DESC)."""
    from akf_cdparser_ray.stages.windows import latest_per_group

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])
    return latest_per_group(ds, "user_id", ["ts", "event_id"],
                            ["user_id", "event_id", "ts", "event_type"])


def q_cube_counts(sf_dir: str):
    """Single-pass GROUP BY CUBE(lang, source): all four margin levels
    (detail, per-lang, per-source, grand total) of doc counts + char
    sums; per-batch combiner emits every level so the shuffle moves
    O(cardinality×2^k) partials (stages/relational.cube_counts)."""
    from akf_cdparser_ray.stages.relational import cube_counts

    ds = _read(sf_dir, "documents", columns=["lang", "source", "n_chars"])
    return cube_counts(ds, ["lang", "source"], "n_chars",
                       sum_alias="sum_chars")


def q_rolling_window(sf_dir: str):
    """SQL window functions per user stream: lag/lead/3-row rolling sum/
    row_number over (ts, event_id) order — one user-keyed shuffle, then a
    vectorized per-partition pandas kernel
    (stages/windows.rolling_window_stats). Integer-cent values keep the
    rolling sum bit-exact vs the DuckDB oracle."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from akf_cdparser_ray.stages.windows import rolling_window_stats

    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        rmode = {"round_mode": "half_towards_infinity"}
        vc = pc.cast(pc.round(pc.multiply(batch["value"], 100.0), **rmode),
                     pa.int64())
        return pa.table({"event_id": batch["event_id"], "ts": batch["ts"],
                         "user_id": batch["user_id"], "value_c": vc})

    return rolling_window_stats(ds.map_batches(cents, batch_format="pyarrow"))


def q_bloom_semijoin(sf_dir: str):
    """Bloom-join: customers having at least one order. The order custkey
    set builds per-shard partial bloom pages (OR-merged, layout-
    independent), each probe batch prefilters against the ONE broadcast
    bit array, and survivors verify exactly against sorted plasma id
    shards — zero false negatives, false positives removed
    (stages/windows.semi_join_ids)."""
    from akf_cdparser_ray.stages.windows import semi_join_ids

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    return semi_join_ids(cust, orders, key="c_custkey", ids_key="o_custkey",
                         num_shards=8)


def q_left_join(sf_dir: str):
    """LEFT OUTER shuffle hash join: every customer with each of their
    orders, orderless customers kept with a null o_orderkey — the same
    co-partitioned exchange as the inner join, left nulls/no-matches
    surviving per bucket (stages/crossjoin.shuffle_hash_join
    how='left')."""
    from akf_cdparser_ray.stages.crossjoin import shuffle_hash_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderkey"])
    return shuffle_hash_join(
        cust, orders, left_key="c_custkey", right_key="o_custkey",
        left_cols=["c_custkey", "c_mktsegment"], right_cols=["o_orderkey"],
        how="left")


def q_outer_join(sf_dir: str):
    """FULL OUTER shuffle hash join: distinct event users × a custkey band
    of customers — both directions of unmatched rows survive with the
    other side null (stages/crossjoin.shuffle_hash_join how='outer';
    per-bucket outer is globally correct because both sides co-partition
    on the key). The distinct is distributed: per-batch dedup partials,
    then the key-partitioned final dedup."""
    import pyarrow.compute as pc

    from akf_cdparser_ray.stages.crossjoin import shuffle_hash_join

    users = (_read(sf_dir, "events", columns=["user_id"])
             .map_batches(lambda b: b.drop_duplicates(),
                          batch_format="pandas")
             .groupby("user_id")
             .map_groups(lambda g: g.head(1), batch_format="pandas"))

    def band(b):
        return b.filter(pc.and_(pc.greater_equal(b["c_custkey"], 100),
                                pc.less_equal(b["c_custkey"], 200)))

    cust = (_read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
            .map_batches(band, batch_format="pyarrow"))
    out = shuffle_hash_join(
        users, cust, left_key="user_id", right_key="c_custkey",
        left_cols=["user_id"], right_cols=["c_custkey", "c_mktsegment"],
        num_buckets=16, how="outer")
    # normalize the unmatched-side string NULL to '' (oracle coalesces the
    # same way — pandas NaN and SQL NULL stringify differently in the hash)
    return out.map_batches(lambda b: b.fillna({"c_mktsegment": ""}),
                           batch_format="pandas")


def q_pagerank(_sf_dir: str):
    """PageRank over the synthetic crawl's own link graph (the crawl
    engine's link-authority prioritization signal): fetch a fixed
    1,500-page slice of the deterministic corpus, extract links, run 10
    distributed power iterations (stages/graph.pagerank_ds — edges
    exchanged once to plasma shards, two co-partitioned map_groups hops
    per iteration, bit-deterministic fixed-order float sums). rows-only:
    iterative float PageRank has no SQL mirror."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from akf_cdparser_ray.stages.cached import cached_fetch_batch
    from akf_cdparser_ray.stages.graph import pagerank_ds
    from akf_cdparser_ray.stages.links import (
        canonicalize_url,
        canonicalize_urls,
        extract_links,
        url_hash64,
    )
    from akf_cdparser_ray.sources.synth import page_url_for_idx

    n_pages = 1500
    urls = [canonicalize_url(page_url_for_idx(i)) for i in range(n_pages)]
    ds = rd.from_items([{"url_canon": u, "depth": 0} for u in urls],
                       override_num_blocks=32)

    def edges_fn(batch: pa.Table) -> pd.DataFrame:
        src_out, dst_out = [], []
        for url, html, status in zip(batch.column("url").to_pylist(),
                                     batch.column("html").to_pylist(),
                                     batch.column("fetch_status")
                                          .to_pylist()):
            if status != "200" or not html:
                continue
            links = canonicalize_urls(extract_links(html, url))
            if not links:
                continue
            sh = url_hash64(canonicalize_url(url))
            src_out.extend([sh] * len(links))
            dst_out.extend(url_hash64(c) for c in links)
        import numpy as np

        # url_hash64 is unsigned 64-bit — bit-view to int64 node ids
        return pd.DataFrame({
            "src": np.array(src_out, dtype=np.uint64).view(np.int64),
            "dst": np.array(dst_out, dtype=np.uint64).view(np.int64)})

    edges = (ds.map_batches(cached_fetch_batch(n_pages),
                            batch_format="pyarrow", batch_size=128)
               .map_batches(edges_fn, batch_format="pyarrow"))
    out = pagerank_ds(edges, iters=10, num_shards=8).to_pandas()
    return out.sort_values("node").reset_index(drop=True)


def q_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-means in embedding space, then
    per-cluster greedy cosine dedup keeping the lowest vec_id
    (stages/ann.semdedup). The table has no natural near-dups (max
    pairwise cos ~0.51), so the query plants deterministic exact clones
    of every 10th vector under vec_id+10_000_000 — the operator must
    keep each original and drop its clone. rows-only: iterative
    float k-means has no SQL mirror; the golden pins repartition(8)
    (kmeans' fixed-partitioning float caveat)."""
    import pandas as pd

    from akf_cdparser_ray.stages.ann import semdedup

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def with_clones(batch: pd.DataFrame) -> pd.DataFrame:
        clones = batch[batch["vec_id"] % 10 == 0].copy()
        clones["vec_id"] = clones["vec_id"] + 10_000_000
        return pd.concat([batch, clones], ignore_index=True)

    planted = ds.map_batches(with_clones, batch_format="pandas") \
        .repartition(8)
    out = semdedup(planted, k=8, iters=4, tau=0.9).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def q_rollup_counts(sf_dir: str):
    """Single-pass GROUP BY ROLLUP(lang, source): detail, per-lang and
    grand-total doc counts + char sums; the per-batch combiner emits all
    levels so the shuffle moves O(cardinality×levels) partial rows
    (stages/relational.rollup_counts)."""
    from akf_cdparser_ray.stages.relational import rollup_counts

    ds = _read(sf_dir, "documents", columns=["lang", "source", "n_chars"])
    return rollup_counts(ds, ["lang", "source"], "n_chars",
                         sum_alias="sum_chars")


def q_posting_lists(sf_dir: str):
    """Inverted-index build for the top-25 document-frequency terms:
    comma-joined ascending doc_id posting lists
    (stages/text_analysis.posting_lists; term rank reuses the oracled
    vocabulary query's df DESC, term ASC order)."""
    from akf_cdparser_ray.stages.text_analysis import posting_lists

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return posting_lists(ds, top_k=25)


def q_substring_dedup(sf_dir: str):
    """Exact substring-level dedup (Lee et al. 2022): maximal spans whose
    20-byte grams all occur >= 2 times corpus-wide. Vectorized rolling-
    hash gram counting, two-hop dup-set exchange (sorted plasma shards),
    searchsorted probe + island merge (stages/substring_dedup.py)."""
    from akf_cdparser_ray.stages.substring_dedup import duplicated_spans

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return duplicated_spans(ds, L=20)


def q_epoch_shuffle(sf_dir: str):
    """Deterministic training-epoch reshuffle: every doc's position in
    the global permutation ordered by (md5(doc_id||'|ep1'), doc_id) — a
    range-sharded rank join (no distributed sort, no driver pull; see
    stages/sampling.epoch_shuffle)."""
    from akf_cdparser_ray.stages.sampling import epoch_shuffle

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return epoch_shuffle(ds, key="doc_id", epoch=1)


def q_contamination(sf_dir: str):
    """Benchmark decontamination (GPT-3/Pile-style n-gram overlap):
    documents with doc_id % 97 == 0 stand in for the held-out eval
    suite; every training doc reports its 3-gram positions and how many
    also occur in the benchmark set (broadcast small side — the eval
    grams ship once via ray.put, the corpus streams through one
    membership pass)."""
    from akf_cdparser_ray.stages.text_analysis import contamination

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return contamination(ds, n=3, bench_mod=97)


def q_interval_join(sf_dir: str):
    """Range join (events self-join): per click event, how many of the
    same user's events land inside the following 10 minutes — both sides
    co-partitioned once on the user key, vectorized interval count per
    shard."""
    import pandas as pd

    from akf_cdparser_ray.stages.windows import interval_join_partitioned

    def as_points(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"key": b["user_id"], "ts": b["ts"]})

    def as_anchors(b: pd.DataFrame) -> pd.DataFrame:
        sel = b[b["event_type"] == "click"]
        return pd.DataFrame({"anchor_id": sel["event_id"],
                             "key": sel["user_id"], "ts": sel["ts"]})

    points = _read(sf_dir, "events", columns=["user_id", "ts"]).map_batches(
        as_points, batch_format="pandas")
    anchors = _read(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"]
    ).map_batches(as_anchors, batch_format="pandas")
    return interval_join_partitioned(points, anchors, minutes=10)


def q_range_shards(sf_dir: str):
    """Range-sharded export: t-digest quantile boundaries over the value
    column → 4 balanced, disjoint-range manifest partitions under /tmp;
    returns the per-shard (rows, lo, hi) stats (rows-only; partitioning
    pinned for the golden like every sketch-fed query)."""
    import tempfile

    import pandas as pd

    from akf_cdparser_ray.stages.export import write_range_shards

    ds = _read(sf_dir, "events", columns=["event_id", "value"]).repartition(8)
    root = tempfile.mkdtemp(prefix="range_shards_")
    return pd.DataFrame(write_range_shards(ds, root, "value", 4))


def q_pack_sequences(sf_dir: str):
    """Sequence packing: documents' token counts FFD-packed into 512-token
    training windows; corpus packing summary (rows-only — bin assignment
    is batch-local, so the partitioning is pinned for the golden)."""
    import pandas as pd

    from akf_cdparser_ray.stages.packing import packing_stats
    from akf_cdparser_ray.stages.text_analysis import token_count_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]).repartition(8)
    toks = ds.map_batches(token_count_batch, batch_format="pandas")
    return packing_stats(toks, max_len=512)


def q_pii_scrub(sf_dir: str):
    """PII redaction: emails/IPv4s/phones replaced by tokens via pyarrow
    RE2 kernels — the SAME regex engine DuckDB uses, so the oracle is
    byte-exact. PII is synthesized deterministically from event ids
    (identical string construction in both engines) since the synthetic
    corpus contains none."""
    import pandas as pd
    import pyarrow as pa

    from akf_cdparser_ray.stages.text_analysis import scrub_pii_batch

    ds = _read(sf_dir, "events", columns=["event_id", "user_id"])

    def mk(b: pd.DataFrame) -> pd.DataFrame:
        note = (
            "user" + b["user_id"].astype(str) + "@mail.example ip 10.0."
            + (b["user_id"] % 250).astype(str) + "."
            + (b["event_id"] % 250).astype(str)
            + " call 555-867-5309 e" + b["event_id"].astype(str)
        )
        return pd.DataFrame({"event_id": b["event_id"], "note": note})

    import functools

    return ds.map_batches(mk, batch_format="pandas").map_batches(
        functools.partial(scrub_pii_batch, col="note"), batch_format="pyarrow"
    )


def q_dedup_clusters(sf_dir: str):
    """Near-dup pairs → dedup clusters: connected components (hash-min
    label propagation) over the minhash pair graph, keep = min doc_id per
    cluster (rows-only; the pair set itself is not SQL-expressible)."""
    import pandas as pd

    from akf_cdparser_ray.stages.components import dedup_keep_set
    from akf_cdparser_ray.stages.dedup_text import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = minhash_lsh_pairs(ds, threshold=0.5)
    if not isinstance(pairs, pd.DataFrame):
        pairs = pairs.to_pandas()
    cols = list(pairs.columns)[:2]
    edges = pairs.rename(columns={cols[0]: "a", cols[1]: "b"})[["a", "b"]]
    return dedup_keep_set(edges)


def q_chunk_dedup(sf_dir: str):
    """Sub-document dedup: content-defined chunking (gear rolling hash) at
    sentence scale, top duplicated chunks by redundant bytes (rows-only:
    boundary selection is not SQL-expressible; golden-pinned)."""
    from akf_cdparser_ray.stages.cdc import chunk_dedup_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return chunk_dedup_stats(ds, top_k=50, mask_bits=6, min_chunk=32,
                             max_chunk=512)


def q_hash_split(sf_dir: str):
    """Deterministic train/val/test assignment by key hash: per-split row
    counts (hash = DuckDB md5_number_lower, so the oracle is hash-exact)."""
    from ray.data.aggregate import Count

    from akf_cdparser_ray.stages.sampling import split_assign

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    out = (
        split_assign(ds, "doc_id")
        .groupby("split")
        .aggregate(Count(alias_name="n"))
    )
    return out.sort("split")


def q_temperature_sample(sf_dir: str):
    """Temperature (alpha=0.5) source rebalancing over documents: kept
    row count per source after the deterministic per-source hash filter
    (rate = (n_min/n_g)^0.5 — hash-exact vs the SQL mirror)."""
    from ray.data.aggregate import Count

    from akf_cdparser_ray.stages.sampling import temperature_sample

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    out = temperature_sample(ds, "source", "doc_id", alpha=0.5, salt="tmp")
    return out.groupby("source").aggregate(Count(alias_name="n_kept")) \
        .sort("source")


def q_bm25(sf_dir: str):
    """BM25 lexical retrieval for the fixed query (hash, merge, window):
    top-10 documents by score, doc_id tie-break; returns integer columns
    (doc_id, tf_total) only. Hash-exact vs the SQL mirror: identical
    tokenizer (the vocabulary oracle's RE2 class), identical expression
    parenthesization, sequential term-order accumulation, same libm ln."""
    from akf_cdparser_ray.stages.text_analysis import bm25_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_topk(ds, ["hash", "merge", "window"], k=10)


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted sample without replacement (Efraimidis-
    Spirakis A-ES keyed by md5-uniform, weight = document length): the
    50 winning (doc_id, n_chars) rows — hash-exact vs the SQL pow
    mirror (same IEEE pow on this host)."""
    from akf_cdparser_ray.stages.sampling import weighted_sample_k

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    out = weighted_sample_k(ds, "doc_id", "n_chars", k=50, salt="ws")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_curate(sf_dir: str):
    """The full curation funnel (quality → exact dedup → near-dup cluster
    drop → PII scrub → packing) composed end-to-end; one-row summary of
    per-stage survivor counts + packing stats (rows-only, golden)."""
    from akf_cdparser_ray.pipelines.curate import curate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]).repartition(8)
    return curate(ds)


def q_heavy_hitters(sf_dir: str):
    """Exact top-3 most frequent event types WITHOUT a full-key shuffle:
    Misra-Gries candidates per batch, merged driver-side, then exact
    counting of candidate rows only; the sketch bound is checked and a
    full count runs if completeness can't be proven — output always
    equals the plain GROUP BY oracle."""
    from akf_cdparser_ray.stages.sketches import exact_heavy_hitters

    ds = _read(sf_dir, "events", columns=["event_type"])
    return exact_heavy_hitters(ds, "event_type", top_k=3)


def q_stratified_sample(sf_dir: str):
    """Per-event-type eval sample: exactly 5 events per type, selected by
    deterministic key-hash rank (hash-exact vs the SQL window mirror)."""
    from akf_cdparser_ray.stages.sampling import stratified_sample_k

    ds = _read(sf_dir, "events", columns=["event_id", "event_type"])
    return stratified_sample_k(ds, "event_type", "event_id", k=5)


def q_hash_sample(sf_dir: str):
    """Deterministic 10% Bernoulli sample by key hash, rolled up per
    event type (stateless filter — no RNG, no shuffle of the full set)."""
    from ray.data.aggregate import Count

    from akf_cdparser_ray.stages.sampling import hash_sample

    ds = _read(sf_dir, "events", columns=["event_id", "event_type"])
    out = (
        hash_sample(ds, "event_id", rate=0.10)
        .groupby("event_type")
        .aggregate(Count(alias_name="n"))
    )
    return out.sort("event_type")


def q_bottomk_sample(sf_dir: str):
    """Uniform 20-doc sample without replacement via mergeable bottom-k
    by key hash (deterministic across runs/partitioning)."""
    from akf_cdparser_ray.stages.sampling import bottom_k_sample

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return bottom_k_sample(ds, "doc_id", k=20)


def q_approx_distinct(sf_dir: str):
    """Per-type approximate distinct users via mergeable HyperLogLog
    sketches (rows-only: no SQL engine shares the register layout; pytest
    asserts <5% error vs exact and the golden pins the exact output)."""
    from akf_cdparser_ray.stages.sketches import grouped_approx_distinct

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    return grouped_approx_distinct(ds, "event_type", "user_id", p=12)


def q_approx_quantiles(sf_dir: str):
    """Per-type streaming value quantiles via order-independent merging
    t-digests (the sketch alternative to the exact grouped_median). The
    digest merge is independent of merge ORDER but not of how rows were
    batched into partials, so the query pins the partitioning (fixed
    block count) to keep the golden stable across parallelism levels."""
    from akf_cdparser_ray.stages.sketches import grouped_approx_quantiles

    ds = _read(sf_dir, "events", columns=["event_type", "value"]).repartition(8)
    return grouped_approx_quantiles(ds, "event_type", "value", [0.5, 0.95])


def q_corr_qty_price(sf_dir: str):
    """Exact per-flag Pearson correlation of quantity vs price from
    integer-cent second-moment sums (stages/stats.grouped_corr): six
    exact sums per key cross the wire, the float is computed once from
    the same expression tree the HUGEINT SQL mirror uses."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from akf_cdparser_ray.stages.stats import grouped_corr

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_extendedprice"])
    rmode = {"round_mode": "half_towards_infinity"}

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "x": pc.cast(pc.round(pc.multiply(batch["l_quantity"], 100.0),
                                  0, **rmode), pa.int64()),
            "y": pc.cast(pc.round(pc.multiply(batch["l_extendedprice"],
                                              100.0), 0, **rmode),
                         pa.int64()),
        })

    return grouped_corr(ds.map_batches(cents, batch_format="pyarrow"),
                        "l_returnflag", "x", "y", alias="corr_qp")


def q_mode_value(sf_dir: str):
    """Modal cent-remainder per event type (holistic aggregate via the
    partial-then-final shape: per-batch (key,value) counts shuffle, the
    per-key merge picks count-DESC/value-ASC — stages/stats.mode_per_group)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from akf_cdparser_ray.stages.stats import mode_per_group

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    rmode = {"round_mode": "half_towards_infinity"}

    def discretize(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(batch["value"], 100.0),
                                 0, **rmode), pa.int64())
        return pa.table({"event_type": batch["event_type"],
                         "value_r": pc.bit_wise_and(cents, 127)})

    return mode_per_group(ds.map_batches(discretize, batch_format="pyarrow"),
                          "event_type", "value_r")


def q_names_agg(sf_dir: str):
    """Ordered string_agg of customer names per nation — one keyed
    shuffle then a local sort+join per group (stages/stats.string_agg_sorted)."""
    from akf_cdparser_ray.stages.stats import string_agg_sorted

    ds = _read(sf_dir, "customer", columns=["c_nationkey", "c_name"])
    return string_agg_sorted(ds, "c_nationkey", "c_name", sep="|",
                             alias="names", count_alias="n")


def q_global_ntile(sf_dir: str):
    """NTILE(7) eval-fold assignment over the deterministic global hash
    order — the epoch_shuffle rank join plus one arithmetic map; SQL
    NTILE's exact uneven-fill rule (stages/sampling.global_ntile)."""
    from akf_cdparser_ray.stages.sampling import global_ntile

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return global_ntile(ds, key="doc_id", k=7, epoch=2)


def q_editdist_pairs(sf_dir: str):
    """Exact edit-distance similarity self-join on 32-char doc prefixes
    (PassJoin pigeonhole blocking -> one sized shard exchange ->
    vectorized byte-DP verify -> pair dedup on the driver;
    stages/editdist.edit_distance_pairs).
    Byte-level distance matches DuckDB's levenshtein exactly."""
    from akf_cdparser_ray.stages.editdist import edit_distance_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return edit_distance_pairs(ds, key="doc_id", text_col="text",
                               prefix_len=32, tau=2)


def q_hopping_window(sf_dir: str):
    """Hopping (sliding) event-time windows: 1h windows every 15min —
    each event expands to 4 hop-aligned window starts INSIDE the
    per-batch combiner, then one keyed partial sum
    (stages/windows.hopping_window_counts). Integer-epoch window starts
    keep the SQL mirror trivially exact."""
    from akf_cdparser_ray.stages.windows import hopping_window_counts

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])
    return hopping_window_counts(ds, size_s=3600, hop_s=900)


def q_revenue_by_region(sf_dir: str):
    """Composed 4-table pipeline: orders ⋈ customer (big-x-big shuffle
    join) ⋈ (nation ⋈ region, tiny — merged driver-side and broadcast
    into customer) → revenue per region. The join order IS the scale
    design: the only all-to-all moves (custkey, cents) pairs; dimension
    tables ship once via ray.put."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from akf_cdparser_ray.stages.crossjoin import (
        broadcast_hash_join, shuffle_hash_join)
    from akf_cdparser_ray.stages.relational import partial_groupby_sum

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    region = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    nr = nation.merge(region, left_on="n_regionkey",
                      right_on="r_regionkey")[["n_nationkey", "r_name"]]
    nr = nr.rename(columns={"n_nationkey": "c_nationkey"})
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    cust_r = broadcast_hash_join(cust, nr, key="c_nationkey")

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        rmode = {"round_mode": "half_towards_infinity"}
        rev_c = pc.cast(pc.round(pc.multiply(batch["o_totalprice"], 100.0),
                                 0, **rmode), pa.int64())
        return pa.table({"o_custkey": batch["o_custkey"], "rev_c": rev_c})

    joined = shuffle_hash_join(
        orders.map_batches(cents, batch_format="pyarrow"), cust_r,
        left_key="o_custkey", right_key="c_custkey",
        left_cols=["o_custkey", "rev_c"],
        right_cols=["c_custkey", "c_nationkey", "r_name"],
    )
    out = partial_groupby_sum(
        joined.map_batches(
            lambda b: b.reindex(columns=["r_name", "rev_c"]),
            batch_format="pandas"),
        ["r_name"], ["rev_c"], count_alias="n_orders",
    )
    df = out.to_pandas()
    df["revenue"] = df.pop("rev_c") / 100.0
    return df[["r_name", "revenue", "n_orders"]]


def q_global_rank(sf_dir: str):
    """Exact global argsort by document length: range-sharded rank join
    (t-digest boundary cuts -> per-shard sort in plasma -> searchsorted
    probe) — curriculum ordering without an all-to-all payload sort
    (stages/export.global_rank)."""
    from akf_cdparser_ray.stages.export import global_rank

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return global_rank(ds, col="n_chars", key="doc_id")


def q_triangles(sf_dir: str):
    """Exact triangle count over a synthetic interaction graph derived
    from events (u = user_id % 500, v = event_id % 500): node-iterator
    forward algorithm — oriented edges exchange once into sorted plasma
    shards, S probe tasks intersect higher-neighbor lists, driver sums S
    scalars (stages/graph.triangle_count). Oracled by DuckDB's 3-way
    self-join."""
    import pandas as pd

    from akf_cdparser_ray.stages.graph import triangle_count

    ds = _read(sf_dir, "events", columns=["event_id", "user_id"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": (batch["user_id"] % 500).astype("int64"),
            "dst": (batch["event_id"] % 500).astype("int64")})

    return triangle_count(ds.map_batches(derive, batch_format="pandas"))


def q_zscore(sf_dir: str):
    """Per-type z-score feature normalization: exact integer moment sums
    broadcast once, then one stateless vectorized pass appends z — the
    standard feature-scaling stage of a training-data pipeline
    (stages/stats.zscore_normalize; floats bit-exact vs the HUGEINT SQL
    mirror)."""
    import numpy as np
    import pandas as pd

    from akf_cdparser_ray.stages.stats import zscore_normalize

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def cents(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch["value"].to_numpy() * 100.0
        v_c = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype("int64")
        return pd.DataFrame({"event_id": batch["event_id"].to_numpy(),
                             "event_type": batch["event_type"].to_numpy(),
                             "v_c": v_c})

    return zscore_normalize(ds.map_batches(cents, batch_format="pandas"),
                            "event_type", "v_c", alias="z")


def q_salted_join(sf_dir: str):
    """Skew-proof join: a planted hot key (every user_id % 3 == 0 event
    remaps to key 42 — a third of the fact table) would serialize one
    bucket of the plain shuffle join; salted_shuffle_join spreads it over
    8 deterministic sub-buckets and replicates only the hot dimension
    rows (stages/crossjoin.salted_shuffle_join). Output equals the plain
    join, which is what the oracle checks."""
    import pandas as pd

    from akf_cdparser_ray.stages.crossjoin import salted_shuffle_join
    from akf_cdparser_ray.stages.relational import partial_groupby_sum

    events = _read(sf_dir, "events", columns=["user_id", "value"])

    def derive_pd(batch: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        uid = batch["user_id"].to_numpy()
        jk = np.where(uid % 3 == 0, 42, uid).astype("int64")
        x = batch["value"].to_numpy() * 100.0
        # round half away from zero == DuckDB round() == the repo's
        # half_towards_infinity cents rule
        v_c = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype("int64")
        return pd.DataFrame({"jk": jk, "v_c": v_c})

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    joined = salted_shuffle_join(
        events.map_batches(derive_pd, batch_format="pandas"), cust,
        left_key="jk", right_key="c_custkey", hot_keys=[42], salt=8,
        left_cols=["jk", "v_c"],
        right_cols=["c_custkey", "c_mktsegment"])
    out = partial_groupby_sum(
        joined.map_batches(
            lambda b: b.reindex(columns=["c_mktsegment", "v_c"]),
            batch_format="pandas"),
        ["c_mktsegment"], ["v_c"], count_alias="n")
    df = out.to_pandas()
    df["total_value"] = df.pop("v_c") / 100.0
    return df[["c_mktsegment", "total_value", "n"]]


def q_exact_quantiles(sf_dir: str):
    """Global EXACT order statistics without any worker holding the
    column: multi-round distributed histogram selection — (bucket,count)
    partials, driver walks the cumulative histogram, collects only the
    target bucket (stages/selection.global_exact_quantiles). The exact
    complement of the t-digest sketch query."""
    from akf_cdparser_ray.stages.selection import global_exact_quantiles

    ds = _read(sf_dir, "events", columns=["value"])
    return global_exact_quantiles(ds, "value", qs=(0.5, 0.9, 0.99))


def q_pivot_hours(sf_dir: str):
    """PIVOT: events crosstabbed event_type x six-hour bucket (fixed
    column domain -> known schema -> plain partial-then-final sums;
    stages/relational.pivot_counts). SQL mirror: count FILTER columns."""
    import pandas as pd

    from akf_cdparser_ray.stages.relational import pivot_counts

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        h = batch["ts"].dt.hour.to_numpy() // 6
        return pd.DataFrame({"event_type": batch["event_type"].to_numpy(),
                             "h6": h.astype("int64")})

    return pivot_counts(ds.map_batches(bucket, batch_format="pandas"),
                        "event_type", "h6", [0, 1, 2, 3])


def q_first_touch(sf_dir: str):
    """First-touch attribution: the grouped ARGMIN twin of latest_event
    (stages/windows.latest_per_group with ascending=True — per-batch
    winners only enter the shuffle)."""
    from akf_cdparser_ray.stages.windows import latest_per_group

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])
    return latest_per_group(ds, "user_id", ["ts", "event_id"],
                            ["user_id", "event_id", "ts", "event_type"],
                            ascending=True)


def q_debounce(sf_dir: str):
    """Burst dedup of the event log: drop events within 10 min of the
    previous same-(user,type) event — one user-keyed shuffle, vectorized
    per-type lag inside each partition, integer-microsecond exact
    (stages/windows.debounce_events)."""
    from akf_cdparser_ray.stages.windows import debounce_events

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])
    return debounce_events(ds, gap_s=600)


def q_describe(sf_dir: str):
    """One-pass per-type summary stats (n/min/max/mean/std) from exact
    integer moment sums (stages/stats.grouped_describe); floats bit-exact
    vs the HUGEINT SQL mirror."""
    import numpy as np
    import pandas as pd

    from akf_cdparser_ray.stages.stats import grouped_describe

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def cents(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch["value"].to_numpy() * 100.0
        v_c = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype("int64")
        return pd.DataFrame({"event_type": batch["event_type"].to_numpy(),
                             "v_c": v_c})

    return grouped_describe(ds.map_batches(cents, batch_format="pandas"),
                            "event_type", "v_c")


def q_grouped_p90(sf_dir: str):
    """Exact per-type p90 WITHOUT the whole-group-on-one-worker contract
    of grouped_median: all groups run the histogram-selection rounds
    simultaneously — per-batch per-group dense histogram rows, one
    shared collect pass (stages/selection.grouped_exact_quantile)."""
    from akf_cdparser_ray.stages.selection import grouped_exact_quantile

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    return grouped_exact_quantile(ds, "event_type", "value", q=0.9,
                                  alias="p90")


def q_exact_distinct(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type: per-batch pair dedup,
    one pair-keyed shuffle, per-key nunique
    (stages/relational.grouped_count_distinct; HLL is the sketch twin)."""
    from akf_cdparser_ray.stages.relational import grouped_count_distinct

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    return grouped_count_distinct(ds, "event_type", "user_id",
                                  alias="n_users")


def q_lm_perplexity(sf_dir: str):
    """CCNet-style LM quality score: per-doc bigram perplexity under a
    corpus-fit count model (stages/lm.py — distributed exact counts,
    deterministic truncation, model broadcast once, scoring pass-local).
    Rows-only: no SQL engine shares the model; the golden pins it and
    tests/test_lm.py checks the math against a local reference."""
    from akf_cdparser_ray.stages.lm import lm_perplexity

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return lm_perplexity(ds, vocab_k=256, bigram_k=4096)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "pricing_summary": q_pricing_summary,
        "exact_dedup": q_exact_dedup,
        "event_counters": q_event_counters,
        "token_counts": q_token_counts,
        "quality_scores": q_quality_scores,
        "fingerprints": q_fingerprints,
        "ann_topk": q_ann_topk,
        "knn_join": q_knn_join,
        "window_hourly": q_window_hourly,
        "asof_join": q_asof_join,
        "sessionize": q_sessionize,
        "grouped_median": q_grouped_median,
        "topk_per_shard": q_topk_per_shard,
        "anti_join": q_anti_join,
        "host_counts": q_host_counts,
        "revenue_by_status": q_revenue_by_status,
        "ngram_jaccard": q_ngram_jaccard,
        "join_mktsegment": q_join_mktsegment,
        "vocabulary": q_vocabulary,
        "contamination": q_contamination,
        "epoch_shuffle": q_epoch_shuffle,
        "substring_dedup": q_substring_dedup,
        "rollup_counts": q_rollup_counts,
        "cube_counts": q_cube_counts,
        "rolling_window": q_rolling_window,
        "bloom_semijoin": q_bloom_semijoin,
        "left_join": q_left_join,
        "outer_join": q_outer_join,
        "posting_lists": q_posting_lists,
        "latest_event": q_latest_event,
        "hash_split": q_hash_split,
        "bottomk_sample": q_bottomk_sample,
        "weighted_sample": q_weighted_sample,
        "temperature_sample": q_temperature_sample,
        "bm25": q_bm25,
        "interval_join": q_interval_join,
        "pii_scrub": q_pii_scrub,
        "stratified_sample": q_stratified_sample,
        "heavy_hitters": q_heavy_hitters,
        "hash_sample": q_hash_sample,
        "corr_qty_price": q_corr_qty_price,
        "mode_value": q_mode_value,
        "names_agg": q_names_agg,
        "global_ntile": q_global_ntile,
        "editdist_pairs": q_editdist_pairs,
        "hopping_window": q_hopping_window,
        "revenue_by_region": q_revenue_by_region,
        "exact_quantiles": q_exact_quantiles,
        "exact_distinct": q_exact_distinct,
        "salted_join": q_salted_join,
        "zscore": q_zscore,
        "triangles": q_triangles,
        "global_rank": q_global_rank,
        "grouped_p90": q_grouped_p90,
        "describe": q_describe,
        "debounce": q_debounce,
        "first_touch": q_first_touch,
        "pivot_hours": q_pivot_hours,
        # rows-only entries (no DuckDB oracle) come after every oracled
        # one: the correctness gate checks only the first 50 entries
        "rolling_fps": q_rolling_fps,
        "langid": q_langid,
        "minhash_neardup": q_minhash_neardup,
        "simhash": q_simhash,
        "embedding_neardup": q_embedding_neardup,
        "ivf_topk": q_ivf_topk,
        "parse_profiles": q_parse_profiles,
        "validate_profiles": q_validate_profiles,
        "crawl_smoke": q_crawl_smoke,
        "crawl_stream": q_crawl_stream,
        "phash_neardup": q_phash_neardup,
        "lse_report": q_lse_report,
        "audio_features": q_audio_features,
        "frame_sample": q_frame_sample,
        "approx_distinct": q_approx_distinct,
        "approx_quantiles": q_approx_quantiles,
        "semdedup": q_semdedup,
        "pagerank": q_pagerank,
        "chunk_dedup": q_chunk_dedup,
        "dedup_clusters": q_dedup_clusters,
        "pack_sequences": q_pack_sequences,
        "range_shards": q_range_shards,
        "curate": q_curate,
        "lm_perplexity": q_lm_perplexity,
        "image_features": q_image_features,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   sum(CAST(round(l_quantity * 100) AS BIGINT)) / 100.0 AS sum_qty,
                   sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0 AS sum_base_price,
                   sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) / 100.0
                       AS sum_disc_price,
                   count(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus
        """,
        "exact_dedup": """
            SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
        """,
        "event_counters": """
            SELECT event_type, sum(value) AS total_value, count(*) AS n
            FROM events GROUP BY event_type
        """,
        "pii_scrub": """
            SELECT event_id,
                   regexp_replace(regexp_replace(regexp_replace(
                       'user' || CAST(user_id AS VARCHAR)
                       || '@mail.example ip 10.0.'
                       || CAST(user_id % 250 AS VARCHAR) || '.'
                       || CAST(event_id % 250 AS VARCHAR)
                       || ' call 555-867-5309 e' || CAST(event_id AS VARCHAR),
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                       '<EMAIL>', 'g'),
                       '\\b(?:\\d{1,3}\\.){3}\\d{1,3}\\b', '<IP>', 'g'),
                       '\\b\\d{3}[-.]\\d{3,4}[-.]\\d{4}\\b', '<PHONE>', 'g')
                   AS note
            FROM events
        """,
        "interval_join": """
            SELECT a.event_id AS anchor_id, count(*) AS n_points
            FROM events a JOIN events b
              ON b.user_id = a.user_id
             AND b.ts >= a.ts
             AND b.ts < a.ts + INTERVAL 10 MINUTE
            WHERE a.event_type = 'click'
            GROUP BY a.event_id ORDER BY anchor_id
        """,
        "hash_split": """
            WITH b AS (
                SELECT md5_number_lower(CAST(doc_id AS VARCHAR)) % 10000 AS bucket
                FROM documents
            )
            SELECT CASE WHEN bucket < 8000 THEN 'train'
                        WHEN bucket < 9000 THEN 'val'
                        ELSE 'test' END AS split,
                   count(*) AS n
            FROM b GROUP BY 1 ORDER BY split
        """,
        "heavy_hitters": """
            SELECT event_type AS value, count(*) AS n
            FROM events GROUP BY event_type
            ORDER BY n DESC, value ASC LIMIT 3
        """,
        "stratified_sample": """
            SELECT event_id, event_type FROM (
                SELECT event_id, event_type,
                       row_number() OVER (
                           PARTITION BY event_type
                           ORDER BY md5_number_lower(CAST(event_id AS VARCHAR)),
                                    event_id
                       ) AS rn
                FROM events
            ) WHERE rn <= 5
            ORDER BY event_type, event_id
        """,
        "hash_sample": """
            SELECT event_type, count(*) AS n FROM events
            WHERE md5_number_lower(CAST(event_id AS VARCHAR)) % 10000 < 1000
            GROUP BY event_type ORDER BY event_type
        """,
        "bottomk_sample": """
            SELECT doc_id FROM documents
            ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)) ASC, doc_id ASC
            LIMIT 20
        """,
        "temperature_sample": """
            WITH cnt AS (
                SELECT source, count(*) AS n FROM documents GROUP BY source
            ),
            thr AS (
                SELECT source,
                       CAST(floor(pow(CAST((SELECT min(n) FROM cnt) AS DOUBLE)
                                      / n, 1.0 - 0.5) * 10000) AS BIGINT) AS t
                FROM cnt
            )
            SELECT d.source, count(*) AS n_kept
            FROM documents d JOIN thr USING (source)
            WHERE md5_number_lower(CAST(d.doc_id AS VARCHAR) || 'tmp')
                      % 10000 < t
            GROUP BY d.source ORDER BY d.source
        """,
        "bm25": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text),
                                                 '[a-zäöüß0-9_]+')) AS term
                FROM documents
            ),
            perdoc AS (
                SELECT doc_id,
                       count(*) AS dl,
                       count(*) FILTER (term = 'hash')   AS tf0,
                       count(*) FILTER (term = 'merge')  AS tf1,
                       count(*) FILTER (term = 'window') AS tf2
                FROM toks GROUP BY doc_id
            ),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n,
                       (SELECT count(*) FROM toks) AS sum_dl,
                       (SELECT count(*) FROM perdoc WHERE tf0 > 0) AS df0,
                       (SELECT count(*) FROM perdoc WHERE tf1 > 0) AS df1,
                       (SELECT count(*) FROM perdoc WHERE tf2 > 0) AS df2
            ),
            scored AS (
                SELECT p.doc_id,
                       (p.tf0 + p.tf1 + p.tf2) AS tf_total,
                       (ln((((s.n - s.df0) + 0.5) / (s.df0 + 0.5)) + 1.0)
                          * (p.tf0 * (1.2 + 1.0)))
                         / (p.tf0 + (1.2 * ((1.0 - 0.75)
                              + 0.75 * (p.dl / (CAST(s.sum_dl AS DOUBLE) / s.n)))))
                       + (ln((((s.n - s.df1) + 0.5) / (s.df1 + 0.5)) + 1.0)
                          * (p.tf1 * (1.2 + 1.0)))
                         / (p.tf1 + (1.2 * ((1.0 - 0.75)
                              + 0.75 * (p.dl / (CAST(s.sum_dl AS DOUBLE) / s.n)))))
                       + (ln((((s.n - s.df2) + 0.5) / (s.df2 + 0.5)) + 1.0)
                          * (p.tf2 * (1.2 + 1.0)))
                         / (p.tf2 + (1.2 * ((1.0 - 0.75)
                              + 0.75 * (p.dl / (CAST(s.sum_dl AS DOUBLE) / s.n)))))
                       AS s
                FROM perdoc p, stats s
                WHERE (p.tf0 + p.tf1 + p.tf2) > 0
            )
            SELECT doc_id, tf_total FROM (
                SELECT doc_id, tf_total FROM scored
                ORDER BY s DESC, doc_id ASC LIMIT 10
            ) ORDER BY doc_id
        """,
        "weighted_sample": """
            SELECT doc_id, n_chars FROM (
                SELECT doc_id, n_chars,
                       pow((CAST(md5_number_lower(
                                CAST(doc_id AS VARCHAR) || 'ws')
                             AS DOUBLE) + 1.0) / 18446744073709551616.0,
                           1.0 / n_chars) AS s
                FROM documents WHERE n_chars > 0
                ORDER BY s DESC, doc_id ASC LIMIT 50
            ) ORDER BY doc_id
        """,
        "vocabulary": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-zäöüß0-9_]+')) AS term
                FROM documents
            )
            SELECT term, count(DISTINCT doc_id) AS df, count(*) AS tf
            FROM toks GROUP BY term
            ORDER BY df DESC, term ASC LIMIT 100
        """,
        "token_counts": """
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens,
                   len(regexp_extract_all(text, '\\w+|[^\\w\\s]')) AS n_bpe_tokens
            FROM documents
        """,
        "epoch_shuffle": """
            SELECT doc_id,
                   row_number() OVER (
                       ORDER BY md5_number_lower(
                           CAST(doc_id AS VARCHAR) || '|ep1') ASC,
                                doc_id ASC) - 1 AS pos
            FROM documents
        """,
        "latest_event": """
            SELECT user_id, event_id, ts, event_type FROM (
                SELECT user_id, event_id, ts, event_type,
                       row_number() OVER (
                           PARTITION BY user_id
                           ORDER BY ts DESC, event_id DESC) AS rn
                FROM events
            ) WHERE rn = 1
        """,
        "rollup_counts": """
            SELECT coalesce(lang, '(all)') AS lang,
                   coalesce(source, '(all)') AS source,
                   count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents
            GROUP BY ROLLUP (lang, source)
        """,
        "cube_counts": """
            SELECT coalesce(lang, '(all)') AS lang,
                   coalesce(source, '(all)') AS source,
                   count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents
            GROUP BY CUBE (lang, source)
        """,
        "rolling_window": """
            WITH e AS (
                SELECT event_id, user_id, ts,
                       CAST(round(value * 100) AS BIGINT) AS vc
                FROM events
            )
            SELECT event_id, user_id,
                   CAST(lag(vc) OVER w AS DOUBLE) AS lag_c,
                   CAST(lead(vc) OVER w AS DOUBLE) AS lead_c,
                   CAST(sum(vc) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW
                   ) AS BIGINT) AS roll_c,
                   row_number() OVER w AS rn
            FROM e
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "bloom_semijoin": """
            SELECT c_custkey, c_mktsegment FROM customer
            WHERE c_custkey IN (SELECT o_custkey FROM orders)
        """,
        "left_join": """
            -- DOUBLE casts: the engine's shuffle join unions the two tagged
            -- sides (disjoint columns null-padded), so numeric outputs are
            -- float64 — exactly like a fetched nullable BIGINT
            SELECT CAST(c_custkey AS DOUBLE) AS c_custkey, c_mktsegment,
                   CAST(o_orderkey AS DOUBLE) AS o_orderkey
            FROM customer LEFT JOIN orders ON o_custkey = c_custkey
        """,
        "outer_join": """
            SELECT CAST(u.user_id AS DOUBLE) AS user_id,
                   CAST(c.c_custkey AS DOUBLE) AS c_custkey,
                   coalesce(c_mktsegment, '') AS c_mktsegment
            FROM (SELECT DISTINCT user_id FROM events) u
            FULL OUTER JOIN (SELECT c_custkey, c_mktsegment FROM customer
                             WHERE c_custkey BETWEEN 100 AND 200) c
              ON c.c_custkey = u.user_id
        """,
        "posting_lists": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text),
                                                 '[a-zäöüß0-9_]+')) AS term
                FROM documents
            ),
            top AS (
                SELECT term, count(DISTINCT doc_id) AS df FROM toks
                GROUP BY term ORDER BY df DESC, term ASC LIMIT 25
            ),
            pairs AS (
                SELECT DISTINCT term, doc_id FROM toks
                WHERE term IN (SELECT term FROM top)
            )
            SELECT term, count(*) AS df,
                   string_agg(CAST(doc_id AS VARCHAR), ','
                              ORDER BY doc_id) AS postings
            FROM pairs GROUP BY term
        """,
        "substring_dedup": """
            WITH pos AS (
                SELECT doc_id, unnest(range(1, length(text) - 20 + 2)) AS p,
                       text
                FROM documents WHERE length(text) >= 20
            ), posg AS (
                SELECT doc_id, p, substr(text, p::INT, 20) AS g FROM pos
            ),
            dup AS (SELECT g FROM posg GROUP BY g HAVING count(*) >= 2),
            marked AS (
                SELECT doc_id, p FROM posg
                WHERE g IN (SELECT g FROM dup)
            ),
            lagged AS (
                SELECT doc_id, p,
                       lag(p, 1, p - 21) OVER (
                           PARTITION BY doc_id ORDER BY p) AS lp
                FROM marked
            ),
            isl AS (
                SELECT doc_id, p,
                       sum(CASE WHEN p - lp > 20 THEN 1 ELSE 0 END) OVER (
                           PARTITION BY doc_id ORDER BY p
                           ROWS UNBOUNDED PRECEDING) AS island
                FROM lagged
            )
            SELECT doc_id, min(p) - 1 AS span_start,
                   max(p) + 20 - 1 AS span_end
            FROM isl GROUP BY doc_id, island
        """,
        "contamination": """
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-zäöüß0-9_]+') AS t
                FROM documents
            ),
            grams AS (
                SELECT doc_id, array_to_string(t[u.i:u.i+2], ' ') AS g
                FROM toks, unnest(range(1, len(t) - 3 + 2)) AS u(i)
            ),
            bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0),
            stats AS (SELECT doc_id, greatest(len(t) - 3 + 1, 0) AS n_grams
                      FROM toks WHERE doc_id % 97 <> 0),
            hits AS (SELECT gr.doc_id, count(*) AS n_hit
                     FROM grams gr JOIN bench b ON gr.g = b.g
                     WHERE gr.doc_id % 97 <> 0 GROUP BY gr.doc_id)
            SELECT s.doc_id, s.n_grams, coalesce(h.n_hit, 0) AS n_hit
            FROM stats s LEFT JOIN hits h ON s.doc_id = h.doc_id
            ORDER BY s.doc_id
        """,
        "quality_scores": """
            SELECT doc_id,
                   length(text) AS n_chars_m,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n_words,
                   length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS n_alpha
            FROM documents
        """,
        "fingerprints": """
            SELECT doc_id, md5(lower(trim(text))) AS fp FROM documents
        """,
        "ann_topk": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                       FROM embeddings WHERE vec_id IN (0, 1, 2))
            SELECT query_id, vec_id, rank FROM (
                SELECT q.query_id, e.vec_id,
                       row_number() OVER (
                           PARTITION BY q.query_id
                           ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC,
                                    e.vec_id
                       ) AS rank
                FROM embeddings e CROSS JOIN q
            ) WHERE rank <= 10
        """,
        "knn_join": """
            SELECT vec_id, neighbor, rank FROM (
                SELECT a.vec_id, b.vec_id AS neighbor,
                       row_number() OVER (
                           PARTITION BY a.vec_id
                           ORDER BY list_cosine_similarity(a.embedding, b.embedding) DESC,
                                    b.vec_id
                       ) AS rank
                FROM embeddings a JOIN embeddings b ON a.vec_id != b.vec_id
            ) WHERE rank <= 5
        """,
        "window_hourly": """
            SELECT date_trunc('hour', ts) AS window_start, event_type,
                   round(sum(value), 6) AS total_value, count(*) AS n
            FROM events GROUP BY 1, 2
        """,
        "asof_join": """
            SELECT e.event_id, e.user_id, o.o_orderdate
            FROM events e ASOF JOIN orders o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
        """,
        "sessionize": """
            WITH g AS (
              SELECT user_id, event_id,
                     CASE WHEN lag(ts) OVER w IS NULL
                               OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS new_sess
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            )
            SELECT user_id, CAST(sum(new_sess) AS BIGINT) AS n_sessions, count(*) AS n_events
            FROM g GROUP BY user_id
        """,
        "grouped_median": """
            SELECT event_type, quantile_disc(value, 0.5) AS median_value,
                   count(*) AS n
            FROM events GROUP BY event_type
        """,
        "topk_per_shard": """
            SELECT shard, event_id, round(value, 6) AS value, rank FROM (
                SELECT user_id % 4 AS shard, event_id, value,
                       row_number() OVER (
                           PARTITION BY user_id % 4
                           ORDER BY value DESC, event_id
                       ) AS rank
                FROM events
            ) WHERE rank <= 3
        """,
        "anti_join": """
            SELECT DISTINCT user_id FROM events
            WHERE user_id NOT IN
                (SELECT c_custkey FROM customer WHERE c_custkey % 3 != 0)
        """,
        "host_counts": """
            SELECT lower('Host' || (user_id % 7) || '.example') AS host,
                   count(*) AS n
            FROM events GROUP BY 1
        """,
        "revenue_by_status": """
            SELECT o.o_orderstatus,
                   sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                            AS BIGINT)) / 100.0 AS revenue,
                   count(*) AS n_lineitems
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderstatus
        """,
        "ngram_jaccard": """
            WITH w AS (
              SELECT doc_id, string_split(text, ' ') AS ws FROM documents
            ), s AS (
              SELECT doc_id,
                     list_distinct(list_transform(
                         range(1, greatest(len(ws) - 2, 0) + 1),
                         i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])) AS sh
              FROM w WHERE len(ws) >= 3
            )
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   len(list_intersect(a.sh, b.sh)) AS n_inter,
                   len(list_distinct(a.sh || b.sh)) AS n_union
            FROM s a JOIN s b ON a.doc_id < b.doc_id
            WHERE len(list_intersect(a.sh, b.sh)) * 100
                  >= 50 * len(list_distinct(a.sh || b.sh))
        """,
        "join_mktsegment": """
            SELECT c.c_mktsegment, o.o_orderstatus, count(*) AS n
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY 1, 2
        """,
        "corr_qty_price": """
            WITH c AS (
                SELECT l_returnflag,
                       CAST(CAST(round(l_quantity * 100) AS BIGINT)
                            AS HUGEINT) AS x,
                       CAST(CAST(round(l_extendedprice * 100) AS BIGINT)
                            AS HUGEINT) AS y
                FROM lineitem
            ), s AS (
                SELECT l_returnflag, CAST(count(*) AS HUGEINT) AS n,
                       sum(x) AS sx, sum(y) AS sy, sum(x*y) AS sxy,
                       sum(x*x) AS sxx, sum(y*y) AS syy
                FROM c GROUP BY l_returnflag
            )
            SELECT l_returnflag,
                   CAST(n*sxy - sx*sy AS DOUBLE)
                     / (sqrt(CAST(n*sxx - sx*sx AS DOUBLE))
                        * sqrt(CAST(n*syy - sy*sy AS DOUBLE))) AS corr_qp
            FROM s
        """,
        "mode_value": """
            SELECT event_type, mode_value, mode_count FROM (
                SELECT event_type, value_r AS mode_value,
                       count(*) AS mode_count,
                       row_number() OVER (
                           PARTITION BY event_type
                           ORDER BY count(*) DESC, value_r ASC) AS rn
                FROM (SELECT event_type,
                             CAST(round(value * 100) AS BIGINT) & 127
                                 AS value_r
                      FROM events)
                GROUP BY event_type, value_r
            ) WHERE rn = 1
        """,
        "names_agg": """
            SELECT c_nationkey,
                   string_agg(c_name, '|' ORDER BY c_name) AS names,
                   count(*) AS n
            FROM customer GROUP BY c_nationkey
        """,
        "global_ntile": """
            SELECT doc_id,
                   ntile(7) OVER (
                       ORDER BY md5_number_lower(
                           CAST(doc_id AS VARCHAR) || '|ep2') ASC,
                                doc_id ASC) AS bucket
            FROM documents
        """,
        "editdist_pairs": """
            WITH p AS (SELECT doc_id, substr(text, 1, 32) AS pf
                       FROM documents)
            SELECT a.doc_id AS a, b.doc_id AS b,
                   CAST(levenshtein(a.pf, b.pf) AS BIGINT) AS dist
            FROM p a JOIN p b ON a.doc_id < b.doc_id
            WHERE levenshtein(a.pf, b.pf) <= 2
        """,
        "hopping_window": """
            WITH ev AS (SELECT event_type,
                               CAST(floor(epoch(ts)) AS BIGINT) // 900
                                   AS kb
                        FROM events),
                 js AS (SELECT unnest(range(4)) AS j)
            SELECT (kb - j) * 900 AS ws_epoch, event_type,
                   count(*) AS n
            FROM ev, js GROUP BY 1, 2
        """,
        "revenue_by_region": """
            SELECT r_name,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0
                       AS revenue,
                   count(*) AS n_orders
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
        """,
        "exact_quantiles": """
            SELECT CAST(0.5 AS DOUBLE) AS q,
                   quantile_disc(value, 0.5) AS value,
                   count(value) AS n FROM events
            UNION ALL
            SELECT CAST(0.9 AS DOUBLE), quantile_disc(value, 0.9),
                   count(value) FROM events
            UNION ALL
            SELECT CAST(0.99 AS DOUBLE), quantile_disc(value, 0.99),
                   count(value) FROM events
        """,
        "exact_distinct": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type
        """,
        "grouped_p90": """
            SELECT event_type, quantile_disc(value, 0.9) AS p90,
                   count(value) AS n
            FROM events GROUP BY event_type
        """,
        "pivot_hours": """
            SELECT event_type,
                   count(*) FILTER (WHERE hour(ts) // 6 = 0) AS "0",
                   count(*) FILTER (WHERE hour(ts) // 6 = 1) AS "1",
                   count(*) FILTER (WHERE hour(ts) // 6 = 2) AS "2",
                   count(*) FILTER (WHERE hour(ts) // 6 = 3) AS "3",
                   count(*) FILTER (WHERE hour(ts) // 6 NOT IN (0,1,2,3))
                       AS other
            FROM events GROUP BY event_type
        """,
        "first_touch": """
            SELECT user_id, event_id, ts, event_type FROM (
                SELECT user_id, event_id, ts, event_type,
                       row_number() OVER (
                           PARTITION BY user_id
                           ORDER BY ts ASC, event_id ASC) AS rn
                FROM events
            ) WHERE rn = 1
        """,
        "debounce": """
            SELECT event_id, user_id, event_type FROM (
                SELECT event_id, user_id, event_type,
                       epoch_us(ts) - lag(epoch_us(ts)) OVER (
                           PARTITION BY user_id, event_type
                           ORDER BY ts, event_id) AS d_us
                FROM events
            ) WHERE d_us IS NULL OR d_us > 600000000
        """,
        "describe": """
            WITH c AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS v_c
                       FROM events),
                 s AS (SELECT event_type, CAST(count(*) AS HUGEINT) AS n,
                              min(v_c) AS min_c, max(v_c) AS max_c,
                              sum(CAST(v_c AS HUGEINT)) AS sx,
                              sum(CAST(v_c AS HUGEINT)
                                  * CAST(v_c AS HUGEINT)) AS sxx
                       FROM c GROUP BY event_type)
            SELECT event_type, CAST(n AS BIGINT) AS n, min_c, max_c,
                   CAST(sx AS DOUBLE) / CAST(n AS DOUBLE) AS mean,
                   sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                        / CAST(n*n AS DOUBLE)) AS std
            FROM s
        """,
        "salted_join": """
            SELECT c_mktsegment,
                   sum(CAST(round(value * 100) AS BIGINT)) / 100.0
                       AS total_value,
                   count(*) AS n
            FROM (SELECT CASE WHEN user_id % 3 = 0 THEN 42
                              ELSE user_id END AS jk, value
                  FROM events) e
            JOIN customer ON e.jk = c_custkey
            GROUP BY c_mktsegment
        """,
        "global_rank": """
            SELECT doc_id, n_chars,
                   row_number() OVER (ORDER BY n_chars, doc_id) - 1
                       AS "rank"
            FROM documents
        """,
        "triangles": """
            WITH raw AS (SELECT user_id % 500 AS x, event_id % 500 AS y
                         FROM events),
                 e AS (SELECT DISTINCT least(x, y) AS u,
                              greatest(x, y) AS v
                       FROM raw WHERE x <> y)
            SELECT (SELECT count(*)
                    FROM e ab
                    JOIN e ac ON ab.u = ac.u AND ab.v < ac.v
                    JOIN e bc ON bc.u = ab.v AND bc.v = ac.v)
                       AS n_triangles,
                   (SELECT count(*) FROM e) AS n_edges,
                   (SELECT count(DISTINCT n) FROM
                       (SELECT u AS n FROM e UNION ALL
                        SELECT v AS n FROM e)) AS n_nodes
        """,
        "zscore": """
            WITH c AS (SELECT event_id, event_type,
                              CAST(round(value * 100) AS BIGINT) AS v_c
                       FROM events),
                 s AS (SELECT event_type, CAST(count(*) AS HUGEINT) AS n,
                              sum(CAST(v_c AS HUGEINT)) AS sx,
                              sum(CAST(v_c AS HUGEINT)
                                  * CAST(v_c AS HUGEINT)) AS sxx
                       FROM c GROUP BY event_type),
                 m AS (SELECT event_type,
                              CAST(sx AS DOUBLE) / CAST(n AS DOUBLE)
                                  AS mean,
                              sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                                   / CAST(n*n AS DOUBLE)) AS std
                       FROM s)
            SELECT c.event_id, c.event_type, c.v_c,
                   (CAST(c.v_c AS DOUBLE) - m.mean) / m.std AS z
            FROM c JOIN m USING (event_type)
        """,
    }
