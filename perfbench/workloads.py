"""The four end-to-end workloads, run against a real Ray session.

A run is a series of rounds (at least SETUP_REPS, more until ``seconds``
of work have been timed). Each round times the engine's own warm-up or
fleet spawn (one set-up sample) and then its share of the work; content
and query rounds each start a fresh Ray session. Every output is checked
against an oracle the benchmark computes itself, outside the timed
phases. The load generator is this single-threaded process; every Ray job
is a closed loop (the next pass or crawl starts when the previous one has
finished).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import threading
import time

from . import checks, inputs
from .proctree import CpuMeter, peak_rss_mib, stop_descendants

SETUP_REPS = 3          # set-ups per run at least; setup_s uses their median
MAX_ROUNDS = 8
JOB_TIMEOUT_S = 60.0    # one crawl job or pass; a timeout is a failure
OBJECT_STORE_BYTES = 768 << 20   # the workloads move tens of MB at most


class Samples:
    """What one run measured: per-pass or per-job throughput samples, the
    set-up samples, CPU of the timed phases and the item tally."""

    def __init__(self):
        self.rates: list[float] = []
        self.cpu_per_item: list[float] = []   # ms, one per pass or job
        self.ray_starts: list[float] = []
        self.setups: list[float] = []         # engine set-up after Ray start
        self.rss: list[float] = []
        self.cpu = CpuMeter()
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.extra: dict = {}

    def add(self, items: int, attempted: int, wall_s: float,
            cpu_s: float) -> None:
        """One timed pass or job: ``items`` of ``attempted`` passed their
        checks in ``wall_s`` seconds, burning ``cpu_s`` in the tree."""
        self.items += items
        self.attempted += attempted
        self.failed += attempted - items
        self.rates.append(items / wall_s)
        if items:
            self.cpu_per_item.append(1000.0 * cpu_s / items)

    def end_to_end(self) -> dict:
        return {
            "items_per_s": statistics.median(self.rates) if self.rates else 0.0,
            "cpu_ms_per_item": (statistics.median(self.cpu_per_item)
                                if self.cpu_per_item else 0.0),
            # Ray's own start is bimodal (about 1.1 s or 2 s, from polling
            # inside ray.init, and slower still on a process's first
            # start), so the fastest start stands for it; the engine's
            # set-up is the median over rounds.
            "setup_s": (min(self.ray_starts) + statistics.median(self.setups)
                        if self.setups else 0.0),
            "peak_rss_mb": statistics.median(self.rss) if self.rss else 0.0,
            "ok_share": (1.0 - self.failed / self.attempted
                         if self.attempted else 0.0),
        }


def run_with_timeout(fn, timeout_s: float):
    """Run ``fn()`` on a helper thread; raise TimeoutError if it has not
    returned in time (the caller then shuts Ray down, which unblocks it)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed back to the caller below
            box["error"] = exc

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout_s)
    if th.is_alive():
        raise TimeoutError(f"no result after {timeout_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


class RaySession:
    """One local Ray cluster with RAY_CPUS logical CPUs (its files go
    where RAY_TMPDIR points)."""

    def start(self) -> float:
        import ray
        import ray.data as rd

        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=inputs.RAY_CPUS,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False)
        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.enable_auto_log_stats = False
        ctx.execution_options.preserve_order = True  # the engine expects it
        return time.perf_counter() - t0

    def stop(self) -> None:
        import ray

        ray.shutdown()
        stop_descendants()


def run_rounds(s: Samples, seconds: float, reps: int, setup, measure,
               fresh_ray: bool) -> None:
    """At least ``reps`` rounds, more until ``seconds`` have been measured.
    A round times ``setup()`` (one set-up sample; it returns a context),
    then ``measure(ctx, budget_s)`` does the round's timed work, records
    the tree's peak RSS while its fleet is still up, and returns the
    seconds it measured. With ``fresh_ray`` every round runs in a new Ray
    session (a Ray Data worker pool is only set up afresh in a new
    session); otherwise all rounds share one (a crawl job spawns and
    kills its own actors). A TimeoutError ends the run; the measure
    function has already counted its items as failed."""
    session = RaySession()
    measured = 0.0
    k = 0
    try:
        while k < reps or (measured < seconds and k < MAX_ROUNDS):
            if fresh_ray or k == 0:
                s.ray_starts.append(session.start())
            t0 = time.perf_counter()
            ctx = setup()
            s.setups.append(time.perf_counter() - t0)
            measured += measure(ctx, (seconds - measured) / max(1, reps - k))
            k += 1
            if fresh_ray:
                session.stop()
    except TimeoutError:
        pass
    finally:
        session.stop()
    s.extra["rounds"] = k
    s.extra["measured_s"] = measured


def timed_call(s: Samples, fn, attempted: int):
    """Run ``fn`` under the job timeout with the CPU meter on. Returns
    (result, wall s, cpu s); on timeout counts ``attempted`` as failed and
    re-raises."""
    s.cpu.start()
    t0 = time.perf_counter()
    try:
        out = run_with_timeout(fn, JOB_TIMEOUT_S)
    except TimeoutError:
        s.cpu.stop()
        s.attempted += attempted
        s.failed += attempted
        raise
    dt = time.perf_counter() - t0
    return out, dt, s.cpu.stop()


# -- content --------------------------------------------------------------

def content_block_fn(corpus: int, seed: int, pairs_dir: str):
    """One fused Ray Data task per block: the engine's cached fetch and
    parse stages, the pairs fragment write, and a per-page caption digest
    returned to this process for checking."""
    from akf_cdparser_ray.stages.cached import cached_fetch_batch, cached_parse_batch

    fetch_fn = cached_fetch_batch(corpus, seed)
    parse_fn = cached_parse_batch()

    def fn(batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        from akf_cdparser_ray.sources import io as aio

        pages = fetch_fn(batch)
        ok = pages.filter(pc.equal(pages.column("fetch_status"), "200"))
        parsed = parse_fn(ok)
        pairs = parsed.select(["image_id", "bytes", "w", "h", "fmt",
                               "caption", "phash", "status"])
        urls = ok.column("url").to_pylist()
        name = hashlib.blake2b("|".join(urls).encode(), digest_size=8).hexdigest()
        aio.write_table(pairs, os.path.join(pairs_dir, f"part-{name}.parquet"))
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "status": parsed.column("status"),
            "caption_sha": pa.array(
                [checks.caption_digest(c) for c in
                 parsed.column("caption").to_pylist()], pa.string()),
        })

    return fn


def content_pass(urls: list[str], seed: int, pairs_dir: str,
                 blocks: int | None = None) -> list[dict]:
    import ray.data as rd

    os.makedirs(pairs_dir, exist_ok=True)
    try:
        ds = rd.from_items(
            [{"url_canon": u, "depth": 0} for u in urls],
            override_num_blocks=blocks or max(
                1, len(urls) // inputs.CONTENT_BLOCK_ROWS))
        out = ds.map_batches(
            content_block_fn(inputs.CONTENT_CORPUS, seed, pairs_dir),
            batch_format="pyarrow", batch_size=None, num_cpus=1)
        return out.take_all()
    finally:
        shutil.rmtree(pairs_dir, ignore_errors=True)


def run_content(seed: int, seconds: float, work: str,
                reps: int = SETUP_REPS) -> Samples:
    s = Samples()
    urls = checks.content_urls(seed)
    oracle = checks.content_oracle(urls, seed)
    reference: dict[str, str] = {}
    pairs_dir = os.path.join(work, "pairs")

    def setup():
        # two small blocks per CPU, so every worker loads its parser
        content_pass(urls[: inputs.RAY_CPUS * 8], seed, pairs_dir,
                     blocks=inputs.RAY_CPUS * 2)

    def measure(_ctx, budget):
        t_end = time.monotonic() + budget
        measured = 0.0
        while not measured or time.monotonic() < t_end:
            rows, dt, cpu = timed_call(
                s, lambda: content_pass(urls, seed, pairs_dir), len(urls))
            bad = checks.check_content_rows(urls, rows, oracle, reference)
            s.add(len(urls) - bad, len(urls), dt, cpu)
            measured += dt
        s.rss.append(peak_rss_mib())
        return measured

    run_rounds(s, seconds, reps, setup, measure, fresh_ray=True)
    s.extra.update(corpus=inputs.CONTENT_CORPUS, pages_per_pass=len(urls),
                   oracle_pages=len(oracle))
    return s


# -- crawl_stream ----------------------------------------------------------

def check_reservations(workers: int, small_actors: int, need_free: float = 0.0) -> None:
    """Fail before launch when the fleet cannot be scheduled: a Ray actor
    that does not fit waits forever instead of erroring."""
    reserved = workers * 1.0 + small_actors * inputs.SMALL_ACTOR_CPUS
    if reserved + need_free > inputs.RAY_CPUS:
        raise SystemExit(
            f"fleet reserves {reserved:.2f} CPUs (+{need_free} for tasks) but "
            f"the benchmark's Ray cluster has {inputs.RAY_CPUS}")


def stream_config(seed: int, out_dir: str):
    from akf_cdparser_ray.pipelines.stream_crawl import StreamCrawlConfig
    from akf_cdparser_ray.sources.synth import page_url_for_idx

    seeds = inputs.stream_seed_indices(seed)
    return StreamCrawlConfig(
        seeds=[page_url_for_idx(i) for i in seeds],
        corpus_size=inputs.STREAM_CORPUS, out_dir=out_dir,
        budgets=inputs.unbounded_budgets(), filter_capacity=1 << 16,
        seed=seed, **inputs.STREAM_FLEET), seeds


def run_crawl_stream(seed: int, seconds: float, work: str,
                     reps: int = SETUP_REPS) -> Samples:
    """One drain per round; set-up is the fleet spawn plus prime."""
    from akf_cdparser_ray.pipelines.stream_crawl import StreamCrawlJob

    f = inputs.STREAM_FLEET
    check_reservations(f["num_workers"], f["num_shards"]
                       + f["num_politeness_shards"] + f["num_coordinators"])
    s = Samples()
    cfg, seed_idx = stream_config(seed, os.path.join(work, "stream"))
    expected = checks.stream_expected(seed_idx, inputs.STREAM_CORPUS)
    s.extra.update(corpus=inputs.STREAM_CORPUS, seed_pages=len(seed_idx),
                   expected_pages=len(expected), counters=[])

    def setup():
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        job = StreamCrawlJob(cfg)
        job.prime()
        return job

    def measure(job, _budget):
        try:
            summary, dt, cpu = timed_call(s, job.run, len(expected))
            s.rss.append(peak_rss_mib())
        finally:
            job.shutdown()
        got = checks.pairs_image_ids(os.path.join(cfg.out_dir, "pairs"))
        bad = min(checks.check_stream(expected, got), len(expected))
        s.add(len(expected) - bad, len(expected), dt, cpu)
        s.extra["counters"].append(summary["counters"])
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        return dt

    run_rounds(s, seconds, reps, setup, measure, fresh_ray=False)
    return s


# -- crawl_wave_polite -----------------------------------------------------

def wave_config(seed: int, out_dir: str):
    from akf_cdparser_ray.pipelines.crawl import CrawlConfig
    from akf_cdparser_ray.sources.synth import page_url_for_idx

    return CrawlConfig(
        seeds=[page_url_for_idx(i) for i in
               range(0, inputs.WAVE_CORPUS, inputs.WAVE_SEED_STRIDE)],
        corpus_size=inputs.WAVE_CORPUS, out_dir=out_dir,
        budgets=inputs.polite_budgets(), filter_capacity=1 << 16,
        warm_fleet=True, seed=seed, **inputs.WAVE_FLEET)


def run_crawl_wave(seed: int, seconds: float, work: str,
                   reps: int = SETUP_REPS) -> Samples:
    """One crawl of the same seed per round; set-up is the job's actor
    spawn and fleet warm-up. Every job must replay the first one."""
    from akf_cdparser_ray.pipelines.crawl import CrawlJob

    f = inputs.WAVE_FLEET
    check_reservations(0, f["num_shards"] + f["num_politeness_shards"],
                       need_free=1.0)
    s = Samples()
    cfg = wave_config(seed, os.path.join(work, "wave"))
    s.extra.update(corpus=inputs.WAVE_CORPUS, seed_pages=len(cfg.seeds),
                   phase_times=[], digest=None)

    def setup():
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        return CrawlJob(cfg)

    def measure(job, _budget):
        try:
            summary, dt, cpu = timed_call(s, job.run, 1)
            s.rss.append(peak_rss_mib())
        finally:
            job.shutdown()
        fetched, bad, digest = checks.check_wave(summary, cfg.out_dir)
        if s.extra["digest"] is None:
            s.extra["digest"] = digest
        elif digest != s.extra["digest"]:
            bad = fetched  # not a replay of the first job: all suspect
        s.add(fetched - bad, fetched, dt, cpu)
        s.extra["phase_times"].append(
            {"waves": summary["waves"], **summary["phase_times"]})
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        return dt

    run_rounds(s, seconds, reps, setup, measure, fresh_ray=False)
    return s


# -- queries_exchange ------------------------------------------------------

_QUERY_STAGE_MODULES = [
    "akf_cdparser_ray.stages.graph", "akf_cdparser_ray.stages.export",
    "akf_cdparser_ray.stages.substring_dedup",
    "akf_cdparser_ray.stages.windows", "akf_cdparser_ray.stages.sampling",
    "akf_cdparser_ray.stages.crossjoin", "akf_cdparser_ray.stages.editdist",
]


def _import_stages(batch):
    import importlib

    for name in _QUERY_STAGE_MODULES:
        importlib.import_module(name)
    return batch


def warm_query_workers() -> None:
    """Spawn the task worker pool and import the query stages in it."""
    import ray.data as rd

    n = inputs.RAY_CPUS * 4
    rd.range(n, override_num_blocks=n).map_batches(
        _import_stages, batch_format="pyarrow", num_cpus=1).count()


def query_pass(sf_dir: str, spans=None, pass_id: int = 0) -> list[tuple]:
    """One pass over the seven queries: (name, wall s, result)."""
    import __ray_entry__ as entry

    qs = entry.queries()
    out = []
    for name in inputs.QUERIES:
        t0 = time.perf_counter()
        if spans is not None:
            with spans.span(f"q.{name}", pass_id):
                res = checks.to_pandas(qs[name](sf_dir))
        else:
            res = checks.to_pandas(qs[name](sf_dir))
        out.append((name, time.perf_counter() - t0, res))
    return out


def prepare_queries(seed: int, work: str) -> tuple[Samples, str, dict]:
    """Seeded tables and their DuckDB oracle (untimed)."""
    s = Samples()
    sf_dir = os.path.join(work, "sf")
    s.extra["sf_dir"] = "tables generated from --seed (perfbench/inputs.py)"
    s.extra["tables"] = inputs.write_query_tables(seed, sf_dir)
    s.extra.update(query_walls={q: [] for q in inputs.QUERIES}, pass_walls=[])
    cache = os.path.join(os.path.dirname(work), "oracle")
    return s, sf_dir, checks.query_oracle(sf_dir, cache)


def measure_queries(s: Samples, sf_dir: str, oracle: dict, budget: float,
                    spans=None) -> float:
    """Closed-loop passes for ``budget`` seconds (at least one); returns
    the seconds measured."""
    t_end = time.monotonic() + budget
    measured = 0.0
    while not measured or time.monotonic() < t_end:
        n = len(s.extra["pass_walls"])
        results, _dt, cpu = timed_call(
            s, lambda: query_pass(sf_dir, spans, n), len(inputs.QUERIES))
        wall = sum(w for _, w, _ in results)
        ok = 0
        for name, w, res in results:
            s.extra["query_walls"][name].append(w)
            ok += checks.value_hash(res) == oracle[name]
        s.add(ok, len(results), wall, cpu)
        s.extra["pass_walls"].append(wall)
        measured += wall
    s.rss.append(peak_rss_mib())
    return measured


def run_queries(seed: int, seconds: float, work: str,
                reps: int = SETUP_REPS) -> Samples:
    s, sf_dir, oracle = prepare_queries(seed, work)
    run_rounds(s, seconds, reps, warm_query_workers,
               lambda _ctx, budget: measure_queries(s, sf_dir, oracle, budget),
               fresh_ray=True)
    return s


WORKLOADS = {
    "content": run_content,
    "crawl_stream": run_crawl_stream,
    "crawl_wave_polite": run_crawl_wave,
    "queries_exchange": run_queries,
}


def dump(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, default=str)
