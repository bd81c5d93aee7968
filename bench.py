"""bench.py — headline throughput + per-query timings.

Headline metric (BASELINE.json): fetched-and-parsed pages/sec through the
crawl content path (URL frontier → synthetic fetch → dictionary parse →
pairs, fused task-based stages), on a deterministic synthetic frontier.

Prints ONE JSON line:
  {"metric": ..., "value": <headline seconds>, "unit": "sec",
   "queries": {...per-query seconds...}, "sf": ..., "num_cpus": N,
   "pages": N_PAGES, "pages_per_sec": ...}

--queries [SF_DIR]: runs only the per-query subset (default SF_DIR from
GRAFT_SF_DIR) and prints {"queries": {...seconds...}, "sf", "num_cpus"}.

--scaling: runs the headline twice in fresh processes (num_cpus=8 and 32)
on the same input and reports both throughputs + scaling efficiency
(sandbox substitute for N vs 4N nodes).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
N_PAGES = int(os.environ.get("GRAFT_BENCH_PAGES", "60000"))

# benchmarked query subset (cheap + representative; full surface is gated by
# tools/check_correctness.py)
BENCH_QUERIES = [
    "pricing_summary", "exact_dedup", "event_counters", "token_counts",
    "fingerprints", "window_hourly", "asof_join", "topk_per_shard",
    "anti_join", "host_counts", "ann_topk", "ivf_topk", "simhash",
    "vocabulary", "approx_distinct", "approx_quantiles",
    "contamination", "epoch_shuffle", "substring_dedup",
    "rolling_window", "bloom_semijoin", "editdist_pairs",
    "hopping_window", "revenue_by_region", "lm_perplexity",
    "exact_quantiles", "exact_distinct", "salted_join", "zscore",
    "triangles", "global_rank", "grouped_p90", "describe",
    "debounce", "first_touch", "pivot_hours",
]


def _count_batch(batch):
    """Reduce each block to one (rows, ok) row inside the worker — the driver
    consumes counts, not payload."""
    import pyarrow as pa

    statuses = batch.column("status").to_pylist()
    return pa.table({"rows": [len(statuses)], "ok": [statuses.count("ok")]})


def headline_pages_per_sec(num_cpus: int, n_pages: int) -> dict:
    import ray.data as rd

    from akf_cdparser_ray.sources.synth import page_url_for_idx
    from akf_cdparser_ray.stages.cached import cached_fetch_batch, cached_parse_batch
    from akf_cdparser_ray.stages.links import canonicalize_url

    # frontier of canonical URLs (driver-side; cheap string synthesis)
    urls = [canonicalize_url(page_url_for_idx(i)) for i in range(n_pages)]

    # task-based stages with process-cached state: Ray Data fuses
    # fetch→parse→project into one operator (no object-store hop) and the
    # dictionaries still load once per worker process. NOTE: no repartition —
    # an all-to-all on tiny row blocks costs more than the whole parse.
    # fixed block count at every parallelism level: same job, same input,
    # same partitioning — only the cluster size varies (scaling criterion)
    ds = rd.from_items(
        [{"url_canon": u, "depth": 0} for u in urls],
        override_num_blocks=256,
    )

    # untimed warm-up: spawn the worker pool and populate per-process caches
    # (dictionaries, compiled regexes) so the measurement sees steady state
    warm = rd.from_items(
        [{"url_canon": u, "depth": 0} for u in urls[: num_cpus * 16]],
        override_num_blocks=256,
    )
    warm.map_batches(
        cached_fetch_batch(n_pages), batch_format="pyarrow", batch_size=128, num_cpus=1
    ).map_batches(
        cached_parse_batch(), batch_format="pyarrow", batch_size=128, num_cpus=1
    ).count()

    # best-of-2 against shared-VM noise — EXCEPT under --scaling's
    # headline-only subprocesses, which already run 3 outer trials each
    n_trials = 1 if os.environ.get("GRAFT_BENCH_HEADLINE_ONLY") else 2
    best = None
    for _trial in range(n_trials):
        t0 = time.perf_counter()
        out = (
            ds.map_batches(
                cached_fetch_batch(n_pages),
                batch_format="pyarrow",
                batch_size=128,
                num_cpus=1,
            )
            .map_batches(
                cached_parse_batch(),
                batch_format="pyarrow",
                batch_size=128,
                num_cpus=1,
            )
            .map_batches(_count_batch, batch_format="pyarrow", num_cpus=1)
        )  # same num_cpus keeps the whole chain fused into one task per block
        n_ok = 0
        n_rows = 0
        for batch in out.iter_batches(batch_size=4096, batch_format="pyarrow"):
            n_rows += sum(batch.column("rows").to_pylist())
            n_ok += sum(batch.column("ok").to_pylist())
        elapsed = time.perf_counter() - t0
        assert n_rows == n_pages, (n_rows, n_pages)
        if best is None or elapsed < best["seconds"]:
            best = {
                "seconds": elapsed,
                "pages": n_pages,
                "pages_per_sec": n_pages / elapsed,
                "parse_ok": n_ok,
            }
    return best


def _crawl_once(corpus: int, *, warm: bool, **overrides) -> dict:
    import tempfile

    from akf_cdparser_ray.pipelines.crawl import CrawlConfig, CrawlJob
    from akf_cdparser_ray.sources.synth import page_url_for_idx

    budgets = {f"host{k}.example": {"per_wave": 100000, "burst": 100000} for k in range(20)}
    cfg = CrawlConfig(
        seeds=[page_url_for_idx(i) for i in range(1000)],
        corpus_size=corpus,
        out_dir=tempfile.mkdtemp(prefix="crawlbench_"),
        # 16 shards: enough hash ranges for even routing, few enough that
        # the actor fleet doesn't oversubscribe a 32-CPU node (measured 2x
        # faster than 32 shards here; scale shard count with nodes)
        num_shards=16,
        num_politeness_shards=8,
        budgets=budgets,
        task_urls=128,        # straggler cap vs per-task overhead
        warm_fleet=warm,      # steady-state fleet (spawn cost is amortized
                              # over a real crawl's lifetime)
        **overrides,
    )
    job = CrawlJob(cfg)
    t0 = time.perf_counter()
    summary = job.run()
    elapsed = time.perf_counter() - t0
    job.shutdown()
    fetched = sum(c["fetched"] for c in summary["counters"])
    return {
        "urls": fetched,
        "seconds": round(elapsed, 2),
        "urls_per_sec": round(fetched / elapsed, 1),
        "waves": summary["waves"],
    }


def _stream_crawl_once(corpus: int) -> dict:
    import shutil
    import tempfile

    from akf_cdparser_ray.pipelines.stream_crawl import (
        StreamCrawlConfig, StreamCrawlJob,
    )
    from akf_cdparser_ray.sources.synth import page_url_for_idx

    budgets = {f"host{k}.example": {"per_wave": 100000, "burst": 100000}
               for k in range(20)}
    out_dir = tempfile.mkdtemp(prefix="streambench_")
    cfg = StreamCrawlConfig(
        seeds=[page_url_for_idx(i) for i in range(1000)],
        corpus_size=corpus,
        out_dir=out_dir,
        num_shards=16,
        num_politeness_shards=8,
        lease_urls=128,
        leases_per_epoch=32,
        budgets=budgets,
        filter_capacity=1 << 17,
    )
    job = StreamCrawlJob(cfg)
    job.prime()  # actor spawn + dictionary load outside the timed window
    t0 = time.perf_counter()
    summary = job.run()
    elapsed = time.perf_counter() - t0
    job.shutdown()
    shutil.rmtree(out_dir, ignore_errors=True)
    fetched = summary["counters"]["fetched"]
    return {
        "urls": fetched,
        "seconds": round(elapsed, 2),
        "urls_per_sec": round(fetched / elapsed, 1),
        "leases": summary["counters"]["leases"],
    }


def crawl_urls_per_sec(num_cpus: int) -> dict:
    """Full crawl-loop throughput: dequeue → politeness → fetch → parse →
    per-wave pairs partitions → link extract → cuckoo dedupe → re-enqueue,
    checkpointed every wave.

    Primary metric: the STEADY-STATE regime a 100-TB crawl actually runs
    in — frontier backlog ≫ per-wave capacity, constant capacity-bound
    waves, wave k+1 overlapped with wave k (pipeline_depth=2,
    visibility_lag=2). ``small`` keeps the round-2 comparison config
    (10k corpus drained from 1000 seeds — discovery-limited, so it runs
    the serial lag-1 schedule, which dequeues fresh links one wave
    earlier)."""
    best = None
    for _trial in range(3):  # shared-VM noise swings 2-3x; take the best
        res = _crawl_once(
            60000, warm=(_trial == 0), dequeue_k=384, max_waves=10,
            pipeline_depth=2,
        )
        if best is None or res["urls_per_sec"] > best["urls_per_sec"]:
            best = res
    small = None
    for _trial in range(2):
        res = _crawl_once(
            10000, warm=False, dequeue_k=1024, max_waves=6,
            pipeline_depth=1, visibility_lag=1,
        )
        if small is None or res["urls_per_sec"] > small["urls_per_sec"]:
            small = res
    best["small"] = small
    # streaming (non-wave) mode on the same two configs: no per-wave
    # Dataset launch, lease workers pull continuously (no replay trace)
    stream = None
    for _trial in range(2):
        res = _stream_crawl_once(60000)
        if stream is None or res["urls_per_sec"] > stream["urls_per_sec"]:
            stream = res
    ssmall = None
    for _trial in range(2):
        res = _stream_crawl_once(10000)
        if ssmall is None or res["urls_per_sec"] > ssmall["urls_per_sec"]:
            ssmall = res
    stream["small"] = ssmall
    best["stream"] = stream
    return best


def run_queries(sf_dir: str) -> dict:
    import ray.data as rd

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    # untimed warm-up: spawn the task-worker pool so the first measured
    # query doesn't absorb the session's process-startup cost (measured:
    # first query ~3x its steady-state wall, regardless of which it is)
    rd.range(1000, override_num_blocks=64).map_batches(
        lambda b: b, batch_format="pyarrow", num_cpus=1
    ).count()
    out = {}
    for name in BENCH_QUERIES:
        fn = qs[name]
        t0 = time.perf_counter()
        res = fn(sf_dir)
        if isinstance(res, rd.Dataset):
            # actually consume lazy Datasets — hasattr(res, "columns") is
            # True for Datasets too (it's a method), which silently left
            # Dataset-returning queries unexecuted in rounds 1-2
            res.count()
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def stats() -> None:
    """Print the headline pipeline's per-operator ds.stats() breakdown —
    the wall-time-in-useful-compute check the scale brief asks for."""
    import ray
    import ray.data as rd

    _start_ray()
    from akf_cdparser_ray.sources.synth import page_url_for_idx
    from akf_cdparser_ray.stages.cached import cached_fetch_batch, cached_parse_batch
    from akf_cdparser_ray.stages.links import canonicalize_url

    n = min(N_PAGES, 20000)
    urls = [canonicalize_url(page_url_for_idx(i)) for i in range(n)]
    ds = rd.from_items([{"url_canon": u, "depth": 0} for u in urls],
                       override_num_blocks=128)
    out = (
        ds.map_batches(cached_fetch_batch(n), batch_format="pyarrow",
                       batch_size=128, num_cpus=1)
        .map_batches(cached_parse_batch(), batch_format="pyarrow",
                     batch_size=128, num_cpus=1)
        .map_batches(_count_batch, batch_format="pyarrow", num_cpus=1)
    )
    out = out.materialize()  # count() alone leaves stats() empty in 2.49
    print(out.stats())
    ray.shutdown()


def _start_ray() -> None:
    """The one session start of every bench entry point."""
    import ray

    # bench owns its Ray session and runs from the repo root: let workers
    # plain-import the package instead of deserializing it by value (saves
    # ~0.2 s per fresh worker process — dominant in small-task fleets)
    repo = os.path.dirname(os.path.abspath(__file__))
    os.environ["PYTHONPATH"] = repo + os.pathsep + os.environ.get("PYTHONPATH", "")
    os.environ.setdefault("AKF_PICKLE_BY_VALUE", "0")
    # engine contract: deterministic block ordering (see conftest note)
    ray.data.DataContext.get_current().execution_options.preserve_order = True
    sys.path.insert(0, repo)
    from akf_cdparser_ray.logquiet import worker_runtime_env

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             runtime_env=worker_runtime_env())
    import __ray_entry__  # noqa: F401  (log filters; by-value pickling is off)


def main() -> None:
    import ray

    _start_ray()
    head = headline_pages_per_sec(NUM_CPUS, N_PAGES)
    crawl = crawl_urls_per_sec(NUM_CPUS)
    queries = run_queries(SF_DIR)
    ray.shutdown()
    print(
        json.dumps(
            {
                "metric": "fetched-and-parsed pages/sec (synthetic frontier -> fetch -> parse -> pairs)",
                "value": round(head["seconds"], 3),
                "unit": "sec",
                "queries": queries,
                "sf": SF_DIR,
                "num_cpus": NUM_CPUS,
                "pages": head["pages"],
                "pages_per_sec": round(head["pages_per_sec"], 1),
                "crawl": crawl,
            }
        )
    )


def scaling() -> None:
    """Same job, same input, two cluster sizes (sandbox substitute for N vs
    4N nodes). Each level is pinned to exactly that many physical cores
    (taskset) — on a real cluster the smaller fleet cannot borrow the idle
    silicon of the nodes it doesn't have, so unpinned small runs would
    overstate thr_small via turbo/cache headroom and understate efficiency."""
    import shutil

    results = {}
    for ncpu in (8, 32):
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_PAGES=str(N_PAGES),
            GRAFT_BENCH_HEADLINE_ONLY="1",
        )
        cmd = [sys.executable, os.path.abspath(__file__)]
        if shutil.which("taskset") and (os.cpu_count() or 0) >= ncpu:
            cmd = ["taskset", "-c", f"0-{ncpu - 1}"] + cmd
        trials = []
        for _trial in range(3):  # shared-sandbox noise swings ±20%; take the best
            out = subprocess.run(
                cmd, env=env, capture_output=True, text=True, check=True
            ).stdout
            trials.append(json.loads(out.strip().splitlines()[-1]))
        best = max(trials, key=lambda r: r["pages_per_sec"])
        best["trials_pages_per_sec"] = [r["pages_per_sec"] for r in trials]
        results[ncpu] = best
    thr8 = results[8]["pages_per_sec"]
    thr32 = results[32]["pages_per_sec"]
    eff = (thr32 / thr8) / (32 / 8)
    ceiling = _machine_parallel_ceiling()
    print(
        json.dumps(
            {
                "pages": N_PAGES,
                "pages_per_sec_8": thr8,
                "pages_per_sec_32": thr32,
                "sec_8": results[8]["value"],
                "sec_32": results[32]["value"],
                "trials_8": results[8]["trials_pages_per_sec"],
                "trials_32": results[32]["trials_pages_per_sec"],
                "scaling_efficiency": round(eff, 3),
                "machine_parallel_ceiling": ceiling,
                "efficiency_vs_ceiling": round(eff / ceiling, 3) if ceiling else None,
            }
        )
    )


def scaling_stream() -> None:
    """Stream-crawl (non-wave) two-level scaling: the same drain job at 8
    and 32 pinned cores (N vs 4N substitute), reported as URLs/s at each
    level + efficiency, with the host's own parallel ceiling alongside.
    The stream mode is the crawl throughput champion, so it needs its own
    two-level measurement (round-5 VERDICT #7)."""
    import shutil

    results = {}
    for ncpu in (8, 32):
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_STREAM_ONLY="1",
        )
        cmd = [sys.executable, os.path.abspath(__file__)]
        if shutil.which("taskset") and (os.cpu_count() or 0) >= ncpu:
            cmd = ["taskset", "-c", f"0-{ncpu - 1}"] + cmd
        trials = []
        for _trial in range(2):
            out = subprocess.run(
                cmd, env=env, capture_output=True, text=True, check=True
            ).stdout
            trials.append(json.loads(out.strip().splitlines()[-1]))
        best = max(trials, key=lambda r: r["urls_per_sec"])
        best["trials_urls_per_sec"] = [r["urls_per_sec"] for r in trials]
        results[ncpu] = best
    thr8 = results[8]["urls_per_sec"]
    thr32 = results[32]["urls_per_sec"]
    eff = (thr32 / thr8) / (32 / 8)
    ceiling = _machine_parallel_ceiling()
    print(
        json.dumps(
            {
                "mode": "stream",
                "urls_8": results[8]["urls"],
                "urls_per_sec_8": thr8,
                "urls_per_sec_32": thr32,
                "trials_8": results[8]["trials_urls_per_sec"],
                "trials_32": results[32]["trials_urls_per_sec"],
                "scaling_efficiency": round(eff, 3),
                "machine_parallel_ceiling": ceiling,
                "efficiency_vs_ceiling": round(eff / ceiling, 3) if ceiling else None,
            }
        )
    )


def _burn(_arg):
    t0 = time.perf_counter()
    x = 0
    while time.perf_counter() - t0 < 1.5:
        x += 1
    return x


def _machine_parallel_ceiling() -> float:
    """Calibrate this host's own 8→32-process scaling with a pure-python
    busy loop: shared-socket frequency/cache contention caps ANY CPU-bound
    workload below 1.0 here, which a real multi-node cluster does not."""
    import multiprocessing as mp

    rates = {}
    for n in (8, 32):
        with mp.Pool(n) as pool:
            rates[n] = sum(pool.map(_burn, range(n)))
    return round((rates[32] / rates[8]) / 4, 3)


def queries_only(sf_dir: str) -> None:
    """Print the walls of the BENCH_QUERIES subset on ``sf_dir`` as one
    JSON line, without the headline or the crawl."""
    import ray

    _start_ray()
    queries = run_queries(sf_dir)
    ray.shutdown()
    print(json.dumps({"queries": queries, "sf": sf_dir,
                      "num_cpus": NUM_CPUS}))


if __name__ == "__main__":
    if "--stats" in sys.argv:
        stats()
        raise SystemExit(0)
    if "--queries" in sys.argv:
        rest = sys.argv[sys.argv.index("--queries") + 1:]
        queries_only(rest[0] if rest else SF_DIR)
        raise SystemExit(0)
    if "--scaling-stream" in sys.argv:
        scaling_stream()
    elif "--scaling" in sys.argv:
        scaling()
    else:
        if os.environ.get("GRAFT_BENCH_STREAM_ONLY"):
            import ray

            _start_ray()
            res = _stream_crawl_once(60000)
            ray.shutdown()
            print(json.dumps(res))
            raise SystemExit(0)
        if os.environ.get("GRAFT_BENCH_HEADLINE_ONLY"):
            import ray

            _start_ray()
            head = headline_pages_per_sec(NUM_CPUS, N_PAGES)
            ray.shutdown()
            print(
                json.dumps(
                    {
                        "metric": "pages/sec headline",
                        "value": round(head["seconds"], 3),
                        "unit": "sec",
                        "queries": {},
                        "sf": SF_DIR,
                        "num_cpus": NUM_CPUS,
                        "pages": head["pages"],
                        "pages_per_sec": round(head["pages_per_sec"], 1),
                    }
                )
            )
        else:
            main()
