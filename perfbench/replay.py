"""Traced mode: per-layer numbers for one workload.

The crawl and content layers are replayed in this process, calling each
layer's public functions directly: ``SyntheticFetcher`` (fetch fixture),
``ParseProfiles`` (parse), the pairs fragment write (``sources/io``),
``extract_links_batch`` (links), ``CuckooFilter`` (seen, reached through
the frontier shard), ``FrontierShard`` and ``PolitenessShard`` (frontier
and gate, instantiated in-process from their actor classes) and the
frontier checkpoint. Spans sit around those calls. The same replay runs
once untraced (the single-process baseline, and the tracing overhead is
the difference) and once traced. Numbers that only exist on a Ray cluster
(the wave crawl's phase times, the stream crawl's lease counters, query
walls, and the cluster CPU per item) come from one end-to-end run of the
workload in the same invocation. Layers a workload does not use report 0.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from collections import Counter

import numpy as np

from . import checks, inputs, workloads


class _Span:
    __slots__ = ("tr", "name", "batch", "rec")

    def __init__(self, tr, name, batch):
        self.tr, self.name, self.batch = tr, name, batch

    def __enter__(self):
        tr = self.tr
        parent = tr.stack[-1] if tr.stack else None
        self.rec = [len(tr.spans), self.name, parent, self.batch,
                    time.perf_counter(), 0.0, time.thread_time(), 0.0]
        tr.spans.append(self.rec)
        tr.stack.append(self.rec[0])

    def __exit__(self, *exc):
        self.rec[5] = time.perf_counter()
        self.rec[7] = time.thread_time()
        self.tr.stack.pop()


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return None


_NO_SPAN = _NoSpan()


class Tracer:
    """Spans (id, name, parent id, batch id, wall start/end, thread CPU
    start/end) kept in memory, plus item counts taken at the same
    boundaries. ``enabled=False`` keeps only the counts."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, batch=None):
        return _Span(self, name, batch) if self.enabled else _NO_SPAN

    def self_times(self) -> dict[str, tuple[float, float]]:
        """Per span name: (wall seconds, CPU seconds) not covered by a
        child span."""
        child_wall = Counter()
        child_cpu = Counter()
        for _id, _n, parent, _b, t0, t1, c0, c1 in self.spans:
            if parent is not None:
                child_wall[parent] += t1 - t0
                child_cpu[parent] += c1 - c0
        out: dict[str, list[float]] = {}
        for sid, name, _p, _b, t0, t1, c0, c1 in self.spans:
            acc = out.setdefault(name, [0.0, 0.0])
            acc[0] += (t1 - t0) - child_wall[sid]
            acc[1] += (c1 - c0) - child_cpu[sid]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def covered_wall(self) -> float:
        return sum(t1 - t0 for _i, _n, p, _b, t0, t1, _c0, _c1 in self.spans
                   if p is None)

    def dump(self, path: str, meta: dict) -> None:
        keys = ("id", "name", "parent", "batch", "start", "end",
                "cpu_start", "cpu_end")
        workloads.dump(path, {"meta": meta, "counts": dict(self.counts),
                              "spans": [dict(zip(keys, s)) for s in self.spans]})


class TracedFilter:
    """Wraps a shard's seen-filter so its calls become ``seen`` spans."""

    def __init__(self, inner, tr: Tracer):
        self._inner = inner
        self._tr = tr

    def contains_many(self, hs):
        with self._tr.span("seen"):
            out = self._inner.contains_many(hs)
        self._tr.counts["seen.probes"] += len(out)
        return out

    def check_and_add_many(self, hs):
        with self._tr.span("seen"):
            out = self._inner.check_and_add_many(hs)
        self._tr.counts["seen.probes"] += len(out)
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


# -- shared layer calls -------------------------------------------------------

def page_layers(tr: Tracer, b, batch, fetcher, parser, pairs_dir: str,
                with_links: bool):
    """fetch → parse → pairs write (→ links) for one batch of URLs.
    Returns (fetched ok pages, parsed pairs, links or None)."""
    import pyarrow.compute as pc

    from akf_cdparser_ray.sources import io as aio
    from akf_cdparser_ray.stages.links import extract_links_batch

    c = tr.counts
    with tr.span("fetch", b):
        pages = fetcher(batch)
    ok = pages.filter(pc.equal(pages.column("fetch_status"), "200"))
    n = ok.num_rows
    c["fetch.pages"] += n
    c["fetch.bytes"] += (pc.sum(pc.binary_length(ok.column("html"))).as_py() or 0) \
        + (pc.sum(pc.binary_length(ok.column("bytes"))).as_py() or 0)
    with tr.span("parse", b):
        parsed = parser(ok)
    c["parse.pages"] += n
    c["parse.errors"] += parsed.column("status").to_pylist().count("error")
    pairs = parsed.select(["image_id", "bytes", "w", "h", "fmt", "caption",
                           "phash", "status"])
    path = os.path.join(pairs_dir, f"part-{b}.parquet")
    with tr.span("write", b):
        aio.write_table(pairs, path)
    c["write.pages"] += n
    c["write.bytes"] += os.path.getsize(path)
    links = None
    if with_links:
        with tr.span("links", b):
            links = extract_links_batch(ok)
        c["links.pages"] += n
        c["links.links"] += links.num_rows
    return ok, parsed, links


def in_process_fleet(tr: Tracer, num_shards: int, num_gates: int,
                     capacity: int, budgets: dict):
    from akf_cdparser_ray.stages.dedupe import FrontierShard
    from akf_cdparser_ray.stages.politeness_stage import PolitenessShard

    shard_cls = FrontierShard.__ray_metadata__.modified_class
    gate_cls = PolitenessShard.__ray_metadata__.modified_class
    shards = [shard_cls(capacity) for _ in range(num_shards)]
    for sh in shards:
        sh.filter = TracedFilter(sh.filter, tr)
    return shards, [gate_cls(budgets) for _ in range(num_gates)]


def seed_shards(shards, urls: list[str]) -> None:
    """Seed URLs into their hash shards through the seen-filter, as both
    crawl jobs do before their first dequeue."""
    import pandas as pd

    from akf_cdparser_ray.stages.frontier import FRONTIER_COLS
    from akf_cdparser_ray.stages.links import canonicalize_url, host_of, url_hash64

    canon = [canonicalize_url(u) for u in urls]
    df = pd.DataFrame({
        "url_canon": canon,
        "url_hash": np.array([url_hash64(c) for c in canon], dtype=np.uint64),
        "host": [host_of(c) for c in canon], "priority": 100, "depth": 0,
        "discovered_at": 0}, columns=FRONTIER_COLS)
    df = df.drop_duplicates("url_hash").reset_index(drop=True)
    sid = (df["url_hash"].to_numpy() % np.uint64(len(shards))).astype(np.int64)
    for s, sh in enumerate(shards):
        part = df[sid == s].reset_index(drop=True)
        if len(part):
            keep = sh.check_and_add(part["url_hash"].tolist())
            sh.seed(part[np.asarray(keep, dtype=bool)].reset_index(drop=True))


def split_by_shard(links, num_shards: int):
    """(shard, canons, hashes, hosts, depths) per owning shard."""
    hashes = links.column("url_hash").to_numpy(zero_copy_only=False)
    sid = (hashes % np.uint64(num_shards)).astype(np.int64)
    canons = links.column("url_canon").to_pylist()
    hosts = links.column("host").to_pylist()
    depths = links.column("depth").to_pylist()
    for s in np.unique(sid):
        idx = np.flatnonzero(sid == s)
        yield (int(s), [canons[i] for i in idx], hashes[idx].tolist(),
               [hosts[i] for i in idx], [depths[i] for i in idx])


def gate_rows(tr: Tracer, gates, df, wave: int, salts: dict, b):
    """Route rows to their gate (hot hosts salted by url hash) and return
    one decision per row."""
    from akf_cdparser_ray.stages.politeness_stage import host_shard

    hashes = df["url_hash"].to_numpy(dtype=np.uint64)
    gid = np.array([
        host_shard(h, int(hashes[i] % np.uint64(salts[h])) if salts.get(h, 1) > 1
                   else 0, len(gates))
        for i, h in enumerate(df["host"].tolist())], dtype=np.int64)
    decisions = np.empty(len(df), dtype=object)
    for g in np.unique(gid):
        sel = np.flatnonzero(gid == g)
        with tr.span("gate", b):
            decisions[sel] = gates[int(g)].gate(
                df["host"].to_numpy()[sel].tolist(),
                df["url_canon"].to_numpy()[sel].tolist(), wave, salts)
    c = tr.counts
    c["gate.rows"] += len(df)
    for d in ("allow", "defer", "robots"):
        c[f"gate.{d}"] += int((decisions == d).sum())
    return decisions


def offer(tr: Tracer, shards, links, b, call) -> int:
    """Offer links to their owning shards through ``call(shard, canons,
    hashes, hosts, depths)``; returns the sum of what the calls return."""
    total = 0
    for s, canons, hashes, hosts, depths in split_by_shard(links, len(shards)):
        with tr.span("frontier.offer", b):
            total += call(shards[s], canons, hashes, hosts, depths)
        tr.counts["frontier.offered"] += len(hashes)
    return total


# -- replays --------------------------------------------------------------------

def replay_content(seed: int, tr: Tracer, work: str,
                   urls: list[str]) -> tuple[int, dict]:
    """Returns (pages, caption digest per URL)."""
    import pyarrow as pa

    from akf_cdparser_ray.stages.fetch import SyntheticFetcher
    from akf_cdparser_ray.stages.parse_stage import ParseProfiles

    fetcher = SyntheticFetcher(inputs.CONTENT_CORPUS, seed)
    parser = ParseProfiles()
    os.makedirs(work, exist_ok=True)
    step = inputs.CONTENT_BLOCK_ROWS
    digests = {}
    for b, i in enumerate(range(0, len(urls), step)):
        chunk = urls[i: i + step]
        ok, parsed, _ = page_layers(
            tr, b, pa.table({"url_canon": chunk, "depth": [0] * len(chunk)}),
            fetcher, parser, work, with_links=False)
        digests.update(zip(ok.column("url").to_pylist(),
                           map(checks.caption_digest,
                               parsed.column("caption").to_pylist())))
    return len(urls), digests


def replay_stream(seed: int, tr: Tracer, work: str) -> tuple[int, list]:
    """A single in-process worker mirroring StreamWorker's lease loop:
    dequeue_stream → gate → fetch/parse/write/links → offer_stream →
    complete_stream, until every shard is drained. Returns (pages
    fetched, their image ids)."""
    import pyarrow as pa

    from akf_cdparser_ray.stages.fetch import SyntheticFetcher
    from akf_cdparser_ray.stages.parse_stage import ParseProfiles

    cfg, _ = workloads.stream_config(seed, work)
    shards, gates = in_process_fleet(tr, cfg.num_shards,
                                     cfg.num_politeness_shards,
                                     cfg.filter_capacity, cfg.budgets)
    fetcher = SyntheticFetcher(cfg.corpus_size, seed)
    parser = ParseProfiles()
    pairs_dir = os.path.join(work, "pairs")
    os.makedirs(pairs_dir, exist_ok=True)
    seed_shards(shards, cfg.seeds)
    c = tr.counts
    leases = rr = seq = 0
    image_ids: list[str] = []
    while True:
        epoch = leases // cfg.leases_per_epoch
        df, src = None, -1
        with tr.span("frontier.dequeue", seq):
            for j in range(cfg.num_shards):
                s = (rr + j) % cfg.num_shards
                tbl = shards[s].dequeue_stream(cfg.lease_urls, epoch, 0, seq)
                if tbl.num_rows:
                    df, src = tbl.to_pandas(), s
                    break
        rr = (rr + 1) % cfg.num_shards
        leases += 1
        if df is None:
            if not sum(sh.pending_total() for sh in shards):
                break
            continue
        df["url_hash"] = df["url_hash"].astype(np.uint64)
        c["frontier.dequeued"] += len(df)
        decisions = gate_rows(tr, gates, df, epoch, {}, seq)
        allowed = df[decisions == "allow"]
        deferred = df[decisions == "defer"].reset_index(drop=True)
        if len(allowed):
            batch = pa.Table.from_pandas(
                allowed[["url_canon", "depth"]].reset_index(drop=True),
                preserve_index=False)
            _ok, parsed, links = page_layers(tr, seq, batch, fetcher, parser,
                                             pairs_dir, with_links=True)
            image_ids += parsed.column("image_id").to_pylist()
            c["links.new"] += offer(
                tr, shards, links, seq,
                lambda sh, *a: sh.offer_stream(*a, epoch, 0))
        with tr.span("frontier.defer", seq):
            shards[src].complete_stream(0, seq, deferred if len(deferred)
                                        else None, epoch)
        c["frontier.deferred"] += len(deferred)
        seq += 1
    return len(image_ids), image_ids


def replay_wave(seed: int, tr: Tracer, work: str) -> tuple[int, None]:
    """The wave loop in one process: per-shard dequeue → hot-host salted
    gate → defer → fetch/parse/write/links → offer → enqueue_flush →
    frontier checkpoint, for the workload's number of waves."""
    import pandas as pd
    import pyarrow as pa

    from akf_cdparser_ray.stages.fetch import SyntheticFetcher
    from akf_cdparser_ray.stages.parse_stage import ParseProfiles

    cfg = workloads.wave_config(seed, work)
    lag = min(2, cfg.pipeline_depth)   # CrawlJob's default visibility lag
    shards, gates = in_process_fleet(tr, cfg.num_shards,
                                     cfg.num_politeness_shards,
                                     cfg.filter_capacity, cfg.budgets)
    fetcher = SyntheticFetcher(cfg.corpus_size, seed)
    parser = ParseProfiles()
    seed_shards(shards, cfg.seeds)
    c = tr.counts
    fetched = 0
    for wave in range(1, cfg.max_waves + 1):
        with tr.span("frontier.dequeue", wave):
            tbls = [sh.dequeue(cfg.dequeue_k, wave) for sh in shards]
        df = pd.concat([t.to_pandas() for t in tbls if t.num_rows],
                       ignore_index=True) if any(t.num_rows for t in tbls) else None
        if df is not None:
            df["url_hash"] = df["url_hash"].astype(np.uint64)
            df = df.sort_values(["priority", "url_canon"],
                                ascending=[False, True]).reset_index(drop=True)
            c["frontier.dequeued"] += len(df)
            share = df["host"].value_counts() / len(df)
            salts = {h: cfg.n_salts for h, v in share.items()
                     if v > cfg.hot_host_threshold}
            decisions = gate_rows(tr, gates, df, wave, salts, wave)
            deferred = df[decisions == "defer"]
            sid = (deferred["url_hash"].to_numpy(dtype=np.uint64)
                   % np.uint64(cfg.num_shards)).astype(np.int64)
            for s in np.unique(sid):
                with tr.span("frontier.defer", wave):
                    shards[int(s)].defer(
                        deferred[sid == s].reset_index(drop=True), wave)
            c["frontier.deferred"] += len(deferred)
            allowed = df[decisions == "allow"].reset_index(drop=True)
            pairs_dir = os.path.join(work, "pairs", f"wave{wave:03d}")
            os.makedirs(pairs_dir, exist_ok=True)
            for i in range(0, len(allowed), cfg.task_urls):
                batch = pa.Table.from_pandas(
                    allowed.iloc[i: i + cfg.task_urls][["url_canon", "depth"]]
                    .reset_index(drop=True), preserve_index=False)
                ok, _p, links = page_layers(tr, wave * 10000 + i, batch, fetcher,
                                            parser, pairs_dir, with_links=True)
                fetched += ok.num_rows
                offer(tr, shards, links, wave,
                      lambda sh, *a: sh.offer(*a, wave))
        for sh in shards:
            with tr.span("frontier.offer", wave):
                _links, new = sh.enqueue_flush(wave, None, wave + lag)
            c["links.new"] += new
        ckdir = os.path.join(work, "checkpoint", f"wave{wave:03d}")
        os.makedirs(ckdir, exist_ok=True)
        with tr.span("checkpoint", wave):
            for s, sh in enumerate(shards):
                sh.checkpoint(os.path.join(ckdir, f"frontier-{s}.parquet"),
                              os.path.join(ckdir, f"filter-{s}.page"))
            with open(os.path.join(ckdir, "meta.json"), "w") as f:
                json.dump({"wave": wave,
                           "gates": [g.serialize() for g in gates]}, f)
        c["checkpoint.waves"] += 1
        c["checkpoint.bytes"] += sum(
            os.path.getsize(os.path.join(ckdir, n)) for n in os.listdir(ckdir))
    return fetched, None


# -- metrics ------------------------------------------------------------------

def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> dict:
    st = tr.self_times()
    c = tr.counts

    def wall(name):
        return st.get(name, (0.0, 0.0))[0]

    def cpu(name):
        return st.get(name, (0.0, 0.0))[1]

    return {
        "fetch.cpu_ms_per_page": _div(1e3 * cpu("fetch"), c["fetch.pages"]),
        "fetch.bytes_per_page": _div(c["fetch.bytes"], c["fetch.pages"]),
        "parse.cpu_ms_per_page": _div(1e3 * cpu("parse"), c["parse.pages"]),
        "parse.err_share": _div(c["parse.errors"], c["parse.pages"]),
        "write.ms_per_page": _div(1e3 * wall("write"), c["write.pages"]),
        "write.bytes_per_page": _div(c["write.bytes"], c["write.pages"]),
        "links.ms_per_page": _div(1e3 * wall("links"), c["links.pages"]),
        "links.per_page": _div(c["links.links"], c["links.pages"]),
        "seen.probe_us": _div(1e6 * wall("seen"), c["seen.probes"]),
        "seen.new_share": _div(c["links.new"], c["links.links"]),
        "frontier.offer_ms_per_1k": _div(1e6 * wall("frontier.offer"),
                                         c["frontier.offered"]),
        "frontier.dequeue_ms_per_1k": _div(1e6 * wall("frontier.dequeue"),
                                           c["frontier.dequeued"]),
        "frontier.defer_ms_per_1k": _div(1e6 * wall("frontier.defer"),
                                         c["frontier.deferred"]),
        "gate.ms_per_1k": _div(1e6 * wall("gate"), c["gate.rows"]),
        "gate.allow_share": _div(c["gate.allow"], c["gate.rows"]),
        "gate.defer_share": _div(c["gate.defer"], c["gate.rows"]),
        "gate.robots_share": _div(c["gate.robots"], c["gate.rows"]),
        "checkpoint.ms_per_wave": _div(1e3 * wall("checkpoint"),
                                       c["checkpoint.waves"]),
        "checkpoint.bytes_per_wave": _div(c["checkpoint.bytes"],
                                          c["checkpoint.waves"]),
    }


def _replay_pair(fn, trace_path: str, meta: dict):
    """The replay once untraced, then once traced. Returns the traced
    Tracer, the untraced (wall, CPU) seconds, the traced wall seconds and
    the untraced run's (item count, output)."""
    runs = []
    for tr in (Tracer(enabled=False), Tracer(enabled=True)):
        t0, c0 = time.perf_counter(), time.process_time()
        got = fn(tr)
        runs.append((tr, time.perf_counter() - t0, time.process_time() - c0,
                     got))
    (_u, u_wall, u_cpu, got), (tr, t_wall, _c, _g) = runs
    tr.dump(trace_path, {**meta, "traced_wall_s": t_wall,
                         "untraced_wall_s": u_wall})
    return tr, u_wall, u_cpu, t_wall, got


def _lease_metrics(ctr: dict) -> dict:
    keys = ("dequeue", "gate", "work", "offer", "idle")
    total = sum(ctr[f"t_{k}_us"] for k in keys)
    out = {"lease.count": float(ctr["leases"])}
    for k in keys:
        out[f"lease.{k}_share"] = _div(ctr[f"t_{k}_us"], total)
    return out


def _wave_metrics(phase: dict) -> dict:
    return {f"wave.{k}_s": _div(phase.get(f"w_{k}", 0.0), phase["waves"])
            for k in ("dequeue", "gate", "dataset", "flush", "checkpoint")}


def traced(workload: str, seed: int, seconds: float, work: str,
           trace_path: str, names: list[str]):
    """Per-layer metrics of one workload. Returns (metrics, attempted,
    failed, extra); every name in ``names`` is present, 0 for layers the
    workload does not use."""
    metrics = dict.fromkeys(names, 0.0)
    meta = {"workload": workload, "seed": seed}
    if workload == "queries_exchange":
        return _traced_queries(seed, seconds, work, trace_path, meta, metrics)

    urls = checks.content_urls(seed)
    replays = {
        "content": lambda tr, d: replay_content(seed, tr, d, urls),
        "crawl_stream": lambda tr, d: replay_stream(seed, tr, d),
        "crawl_wave_polite": lambda tr, d: replay_wave(seed, tr, d),
    }

    def fn(tr):
        d = os.path.join(work, f"replay-{tr.enabled}")
        try:
            return replays[workload](tr, d)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    # warm process-wide caches (imports, compiled regexes) before timing
    replay_content(seed, Tracer(enabled=False), os.path.join(work, "warm"),
                   urls[:32])
    tr, u_wall, u_cpu, t_wall, (items, out) = _replay_pair(fn, trace_path, meta)
    attempted = failed = 0
    if workload == "content":
        oracle = checks.content_oracle(urls, seed)
        attempted += len(urls)
        failed += sum(out.get(u) != d for u, d in oracle.items())
        e2e = workloads.run_content(seed, seconds, work, reps=1)
    elif workload == "crawl_stream":
        _cfg, seed_idx = workloads.stream_config(seed, work)
        expected = checks.stream_expected(seed_idx, inputs.STREAM_CORPUS)
        attempted += len(expected)
        failed += checks.check_stream(expected, out)
        e2e = workloads.run_crawl_stream(seed, 0, work, reps=1)
        metrics.update(_lease_metrics(e2e.extra["counters"][0]))
    else:
        e2e = workloads.run_crawl_wave(seed, 0, work, reps=1)
        metrics.update(_wave_metrics(e2e.extra["phase_times"][0]))
    metrics.update(layer_metrics(tr))
    replay_cpu = _div(1e3 * u_cpu, items)
    metrics["replay.cpu_ms_per_item"] = replay_cpu
    if workload != "crawl_wave_polite":
        metrics["ray.overhead_share"] = 1 - _div(
            replay_cpu, e2e.end_to_end()["cpu_ms_per_item"])
    metrics["trace.uncovered_share"] = 1 - _div(tr.covered_wall(), t_wall)
    metrics["trace.overhead_share"] = _div(t_wall, u_wall) - 1
    extra = {"replay_items": items, "replay_traced_wall_s": t_wall,
             "replay_untraced_wall_s": u_wall, "spans": len(tr.spans),
             "e2e": e2e.end_to_end(), **e2e.extra}
    return (metrics, attempted + e2e.attempted, failed + e2e.failed, extra)


def _traced_queries(seed, seconds, work, trace_path, meta, metrics):
    """Queries run on Ray only: spans wrap each query call. Half of one
    round's passes run untraced, the other half traced."""
    tr = Tracer(enabled=True)
    s, sf_dir, oracle = workloads.prepare_queries(seed, work)
    plain = workloads.Samples()
    plain.extra.update(query_walls={q: [] for q in inputs.QUERIES},
                       pass_walls=[])
    walls = {}

    def measure(_ctx, budget):
        got = workloads.measure_queries(plain, sf_dir, oracle, budget / 2)
        t0 = time.perf_counter()
        got += workloads.measure_queries(s, sf_dir, oracle, budget / 2, spans=tr)
        walls["traced"] = time.perf_counter() - t0
        return got

    workloads.run_rounds(s, seconds, 1, workloads.warm_query_workers, measure,
                         fresh_ray=True)
    t_wall = walls["traced"]
    tr.dump(trace_path, {**meta, "traced_wall_s": t_wall})
    for q in inputs.QUERIES:
        ms = [1e3 * w for w in s.extra["query_walls"][q]
              + plain.extra["query_walls"][q]]
        metrics[f"q.{q}.p50_ms"] = float(np.quantile(ms, 0.5))
        metrics[f"q.{q}.p90_ms"] = float(np.quantile(ms, 0.9))
    passes = plain.extra["pass_walls"] + s.extra["pass_walls"]
    half = len(passes) // 2
    metrics["q.pass_drift_share"] = _div(
        statistics.median(passes[-half:]), statistics.median(passes[:half])) - 1
    metrics["replay.cpu_ms_per_item"] = _div(1e3 * plain.cpu.seconds, plain.items)
    metrics["trace.uncovered_share"] = 1 - _div(tr.covered_wall(), t_wall)
    metrics["trace.overhead_share"] = _div(
        statistics.median(s.extra["pass_walls"]),
        statistics.median(plain.extra["pass_walls"])) - 1
    extra = {"passes": len(passes), "spans": len(tr.spans),
             "tables": s.extra["tables"]}
    return (metrics, s.attempted + plain.attempted, s.failed + plain.failed,
            extra)
