"""Oracles and output checks. Every check here is computed by the
benchmark itself, outside the timed phases, and each bad item it finds
counts as a failed item of the run."""

from __future__ import annotations

import glob
import hashlib
import json
import os

from . import inputs


def caption_digest(caption: str | None) -> str:
    return "" if caption is None else hashlib.sha1(caption.encode()).hexdigest()[:16]


# -- content --------------------------------------------------------------

def content_urls(seed: int) -> list[str]:
    from akf_cdparser_ray.sources.synth import page_url_for_idx
    from akf_cdparser_ray.stages.links import canonicalize_url

    return [canonicalize_url(page_url_for_idx(i))
            for i in inputs.content_indices(seed)]


def content_oracle(urls: list[str], seed: int) -> dict[str, str]:
    """Caption digests from an in-process ParseProfiles over a seeded
    sample of the pages (parsing all of them would cost more than the
    timed phase)."""
    import random

    import pyarrow as pa

    from akf_cdparser_ray.stages.fetch import SyntheticFetcher
    from akf_cdparser_ray.stages.parse_stage import ParseProfiles

    sample = sorted(random.Random(f"{seed}|oracle").sample(
        urls, min(len(urls), inputs.CONTENT_ORACLE_PAGES)))
    pages = SyntheticFetcher(inputs.CONTENT_CORPUS, seed)(
        pa.table({"url_canon": sample, "depth": [0] * len(sample)}))
    parsed = ParseProfiles()(pages)
    return {u: caption_digest(c) for u, c, st in zip(
        sample, parsed.column("caption").to_pylist(),
        parsed.column("status").to_pylist()) if st == "ok"}


def check_content_rows(urls: list[str], rows: list[dict], oracle: dict,
                       reference: dict) -> int:
    """Bad pages of one pass: a page without exactly one ok pairs row, a
    caption that differs from the oracle, or from what the same page got
    in an earlier pass (``reference`` is filled on first sight)."""
    by_url: dict[str, list[dict]] = {}
    for r in rows:
        by_url.setdefault(r["url"], []).append(r)
    bad = 0
    for u in urls:
        got = by_url.get(u, [])
        if len(got) != 1 or got[0]["status"] != "ok":
            bad += 1
            continue
        sha = got[0]["caption_sha"]
        want = oracle.get(u) or reference.setdefault(u, sha)
        if sha != want:
            bad += 1
    return bad


# -- crawl_stream ----------------------------------------------------------

def robots_denied(idx: int) -> bool:
    """Whether the page's host disallows its path, by plain prefix match on
    the Disallow lines of the host's synthetic robots.txt."""
    from akf_cdparser_ray.sources.synth import page_url_for_idx
    from akf_cdparser_ray.state.politeness import synth_robots_txt

    url = page_url_for_idx(idx)
    host, path = url.split("://", 1)[1].split("/", 1)
    path = "/" + path
    prefixes = [line.split(":", 1)[1].strip()
                for line in synth_robots_txt(host).splitlines()
                if line.lower().startswith("disallow:")]
    return any(p and path.startswith(p) for p in prefixes)


def stream_expected(seed_idx: list[int], n: int) -> set[int]:
    """Pages a drained crawl must fetch: breadth-first over the synthetic
    link rule (page i links to (7i + k + 1) mod n, k = 0..2), where a
    robots-denied page is neither fetched nor expanded."""
    fetched: set[int] = set()
    seen = set(seed_idx)
    todo = list(seed_idx)
    while todo:
        nxt = []
        for i in todo:
            if robots_denied(i):
                continue
            fetched.add(i)
            for k in range(3):
                j = (i * 7 + k + 1) % n
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        todo = nxt
    return fetched


def pairs_image_ids(pairs_root: str) -> list[str]:
    from akf_cdparser_ray.sources import io as aio

    try:
        return aio.read_partitions(pairs_root).column("image_id").to_pylist()
    except FileNotFoundError:
        return []


def check_stream(expected: set[int], image_ids: list[str]) -> int:
    """Missing, unexpected and duplicated pairs rows. For a corpus below
    10,000 pages the image id ``YYYY/NNNN`` carries the page index."""
    got = [int(i.split("/")[1]) for i in image_ids]
    uniq = set(got)
    return (len(expected - uniq) + len(uniq - expected) + len(got) - len(uniq))


# -- crawl_wave_polite -----------------------------------------------------

def check_wave(summary: dict, out_dir: str) -> tuple[int, int, str]:
    """(pages fetched, pages in waves that broke a rule, replay digest).

    Per wave: dequeued = allowed + deferred + robots_denied; the hot host
    gets at most its per-wave budget; no robots-denied page is fetched.
    The digest covers the fetch trace and the seen-filter pages of the last
    checkpoint, so two jobs of one seed must produce the same digest."""
    per_wave_host = {}
    per_wave_denied = {}
    for wave, _seq, url in summary["trace"]:
        host, rest = url.split("://", 1)[1].split("/", 1)
        if host == inputs.HOT_HOST:
            per_wave_host[wave] = per_wave_host.get(wave, 0) + 1
        idx = int(rest.rsplit("/", 1)[1].split(".")[0])
        if robots_denied(idx):
            per_wave_denied[wave] = per_wave_denied.get(wave, 0) + 1
    fetched = bad = 0
    for c in summary["counters"]:
        fetched += c["fetched"]
        w = c["wave"]
        if (c["dequeued"] != c["allowed"] + c["deferred"] + c["robots_denied"]
                or per_wave_host.get(w, 0) > inputs.HOT_BUDGET
                or per_wave_denied.get(w, 0)
                or c["pairs_rows"] != c["fetched"]):
            bad += c["fetched"]
    h = hashlib.sha256(json.dumps(summary["trace"]).encode())
    ckpt = os.path.join(out_dir, "checkpoint", f"wave{summary['waves']:03d}")
    for page in sorted(glob.glob(os.path.join(ckpt, "filters", "*.page"))):
        with open(page, "rb") as f:
            h.update(f.read())
    h.update(str(summary["seen_total"]).encode())
    return fetched, bad, h.hexdigest()


# -- queries_exchange ------------------------------------------------------

def to_pandas(obj):
    import pandas as pd

    if isinstance(obj, pd.DataFrame):
        return obj
    if hasattr(obj, "to_pandas"):
        return obj.to_pandas()
    raise TypeError(type(obj))


def value_hash(df) -> str:
    """Order-insensitive value hash: columns sorted by name, floats rounded
    to 6 places, rows sorted (the correctness gate's normalisation)."""
    import pandas as pd

    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
    rows = sorted(df.astype(str).itertuples(index=False, name=None))
    return hashlib.md5(repr(rows).encode()).hexdigest()


def query_oracle(sf_dir: str, cache_dir: str) -> dict[str, str]:
    """Value hash of each query's DuckDB oracle SQL over the same tables.
    The all-pairs ngram_jaccard oracle takes seconds, so results are kept
    in ``cache_dir`` under a sha256 of the SQL texts and the table files."""
    import duckdb

    import __ray_entry__ as entry

    all_sql = entry.oracle_sql()
    sql = {q: all_sql[q] for q in inputs.QUERIES}
    tables = ("documents", "events", "customer")
    key = hashlib.sha256(json.dumps(sql, sort_keys=True).encode())
    for t in tables:
        with open(os.path.join(sf_dir, f"{t}.parquet"), "rb") as f:
            key.update(f.read())
    path = os.path.join(cache_dir, f"{key.hexdigest()}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    con = duckdb.connect()
    try:
        con.execute("SET enable_progress_bar = false")
        for t in tables:
            path_t = os.path.join(sf_dir, f"{t}.parquet")
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path_t}')")
        out = {q: value_hash(con.execute(text).fetchdf())
               for q, text in sql.items()}
    finally:
        con.close()
    os.makedirs(cache_dir, exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(out, f)
    os.replace(path + ".tmp", path)
    return out
