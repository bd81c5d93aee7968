"""Flagship pipeline: pages → parse (task-based, per-process cached parser
state — the same parse path the crawl modes run) → image+caption pairs
(SURVEY.md §3.1 engine shape, minus the crawl loop which lives in
``pipelines/crawl.py`` and ``pipelines/stream_crawl.py``).

Streaming end to end: no driver-side materialization; output is either a
Dataset (caller consumes/writes) or partitioned parquet via ``write_pairs``.
"""

from __future__ import annotations

import ray.data as rd

from ..sources import synth
from ..stages.cached import cached_parse_batch
from ..stages.content import PAIRS_COLS


def pages_dataset(n_pages: int, seed: int = synth.SEED, parallelism: int = 8):
    """Synthetic pages as a Dataset of up to ``parallelism`` blocks (table
    slices — no repartition of a tiny-row table). Generation happens
    driver-side at small scale (test/bench corpora); at 100 TB the read is
    ``ray.data.read_lance/read_parquet`` over the crawl output instead."""
    table = synth.build_pages_table(n_pages, seed)
    step = max(1, -(-table.num_rows // parallelism))
    return rd.from_arrow([table.slice(i, step)
                          for i in range(0, max(1, table.num_rows), step)])


def parse_pages(
    pages,
    *,
    batch_size: int = 64,
    with_residue: bool = False,
    with_audit: bool = False,
    dictfiles_dir: str | None = None,
):
    """pages Dataset → parsed Dataset (zero-copy Arrow batches; dictionaries
    load once per worker process)."""
    return pages.map_batches(
        cached_parse_batch(dictfiles_dir, with_residue, with_audit=with_audit),
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=1,
    )


def pairs_pipeline(n_pages: int = 120, **kwargs):
    """The flagship: synthesize → parse → select the pairs columns
    (+ the audit side column when with_audit=True)."""
    ds = parse_pages(pages_dataset(n_pages), **kwargs)
    return ds.select_columns(
        PAIRS_COLS + (["audit"] if kwargs.get("with_audit") else []))


def write_pairs(ds, out_dir: str):
    """Partitioned parquet sink (one file set per block; resumable layout)."""
    ds.write_parquet(out_dir)
    return out_dir
