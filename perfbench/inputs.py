"""Benchmark inputs, all derived from ``--seed``, and the record of what a
result was measured on.

The engine sees only what these functions generate: URL lists and seed
URLs for the synthetic corpus (whose page contents are keyed by the same
seed) and, for the query workload, parquet tables written into the run's
work directory.
"""

from __future__ import annotations

import glob
import hashlib
import os
import random
import subprocess

import numpy as np

# Ray's logical CPU count is a benchmark constant, never read from the host.
RAY_CPUS = 4

# content: pages per Ray Data pass, sampled from a corpus of this size
CONTENT_CORPUS = 20000
CONTENT_PAGES = 1200
CONTENT_BLOCK_ROWS = 30
CONTENT_ORACLE_PAGES = 96

# crawl_stream: one drain of this corpus per round
STREAM_CORPUS = 1200
STREAM_SEEDS = 12
STREAM_FLEET = {"num_workers": 3, "num_shards": 4, "num_politeness_shards": 2,
                "num_coordinators": 1, "lease_urls": 64, "leases_per_epoch": 32}

# crawl_wave_polite: a fixed number of budget-limited waves per round.
# The seed URLs are every WAVE_SEED_STRIDE-th page for every --seed (the
# seed still keys the page contents): which hosts the first waves hit sets
# how many pages a wave may fetch, so a seeded seed list would make the
# workload's size, not the engine, move the throughput.
WAVE_CORPUS = 3000
WAVE_SEED_STRIDE = 10
WAVE_FLEET = {"num_shards": 4, "num_politeness_shards": 2, "dequeue_k": 96,
              "max_waves": 16, "task_urls": 32, "pipeline_depth": 2}
HOT_HOST = "host0.example"
HOT_BUDGET = 24          # fetches per wave on the hot host
N_HOSTS = 20             # sources/synth.page_url_for_idx default

# queries_exchange: the seven queries that run the hand-rolled exchanges
# and the all-pairs join; dedup_clusters is left out (tens of seconds).
QUERIES = ["triangles", "global_rank", "substring_dedup", "anti_join",
           "epoch_shuffle", "ngram_jaccard", "editdist_pairs"]
QUERY_DOCS = 500
QUERY_EVENTS = 10000
QUERY_USERS = 150
QUERY_CUSTOMERS = 1500

# Actor reservations (num_cpus in the engine's @ray.remote decorators):
# StreamWorker 1.0; FrontierShard, PolitenessShard, StreamCoordinator 0.05.
SMALL_ACTOR_CPUS = 0.05


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}|{stream}")


def content_indices(seed: int) -> list[int]:
    return sorted(_rng(seed, "content").sample(range(CONTENT_CORPUS),
                                               CONTENT_PAGES))


def stream_seed_indices(seed: int) -> list[int]:
    return sorted(_rng(seed, "stream").sample(range(STREAM_CORPUS), STREAM_SEEDS))


def unbounded_budgets() -> dict:
    return {f"host{k}.example": {"per_wave": 10 ** 9, "burst": 10 ** 9}
            for k in range(N_HOSTS)}


def polite_budgets() -> dict:
    budgets = unbounded_budgets()
    budgets[HOT_HOST] = {"per_wave": HOT_BUDGET, "burst": HOT_BUDGET}
    return budgets


# -- query tables -----------------------------------------------------------

_WORDS = ("a the key agg row scan slow fast table value part hash merge batch "
          "window spark order data column join small line customer query "
          "sort group filter stream vector big").split()


def write_query_tables(seed: int, out_dir: str) -> dict:
    """documents / events / customer with the columns the seven queries
    read. About 5% of the documents are near-copies of another one (two
    words replaced), so the similarity joins and the substring dedup have
    matches to find. Returns row counts."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(hash_int(f"{seed}|tables"))
    texts: list[str] = []
    for i in range(QUERY_DOCS):
        if i >= 10 and rng.random() < 0.05:
            words = texts[int(rng.integers(0, i))].split()
            for _ in range(2):
                words[int(rng.integers(0, len(words)))] = str(
                    rng.choice(_WORDS))
        else:
            n = int(rng.integers(8, 90))
            words = [str(w) for w in rng.choice(_WORDS, size=n)]
        texts.append(" ".join(words))
    docs = pd.DataFrame({
        "doc_id": np.arange(QUERY_DOCS, dtype=np.int64),
        "text": texts,
        "n_chars": np.array([len(t) for t in texts], dtype=np.int64),
    })
    events = pd.DataFrame({
        "event_id": np.arange(QUERY_EVENTS, dtype=np.int64),
        "user_id": rng.integers(0, QUERY_USERS, QUERY_EVENTS).astype(np.int64),
    })
    customer = pd.DataFrame({
        "c_custkey": np.arange(QUERY_CUSTOMERS, dtype=np.int64)})
    os.makedirs(out_dir, exist_ok=True)
    for name, df in (("documents", docs), ("events", events),
                     ("customer", customer)):
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       os.path.join(out_dir, f"{name}.parquet"))
    return {"documents": len(docs), "events": len(events),
            "customer": len(customer)}


def hash_int(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


# -- input record -------------------------------------------------------------

def dictionary_record() -> dict:
    """Which title/function dictionaries the parser loads, and a sha256 of
    their sorted rows (the fallback set and the full set give different
    captions, so a number is only comparable to one with the same
    fingerprint)."""
    from akf_cdparser_ray.parsing import dictionaries as dmod

    d = dmod.Dictionaries()
    full = os.path.isdir(dmod._REFERENCE_DICTFILES)
    h = hashlib.sha256()
    for rows in (sorted(d.titles), sorted(d.functs)):
        h.update("\n".join(rows).encode())
        h.update(b"\0")
    return {"source": "reference dictfiles" if full else "embedded fallback",
            "rows": f"{len(d.titles)}/{len(d.functs)}",
            "sha256": h.hexdigest()}


def source_record(root: str) -> dict:
    """The commit when the tree is a git checkout, and in any case a
    sha256 over the engine's source files."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(root, "akf_cdparser_ray", "**", "*.py"),
                             recursive=True))
    files.append(os.path.join(root, "__ray_entry__.py"))
    for path in files:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": h.hexdigest()}
