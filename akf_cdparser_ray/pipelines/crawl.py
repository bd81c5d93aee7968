"""The crawl loop (SURVEY.md §3.1 engine shape; BASELINE.json north rule).

One crawl step (wave) runs over a sharded, actor-owned frontier:

    frontier dequeue (per-shard priority top-k from the FrontierShard
      actors — LSM-run merge, never a full sort)
      → politeness/robots gate (host-hash-pinned shard actors, hot-host salting)
      → one plain Ray task per allowed block running the shared content
        body (stages/content.py, also run by the stream mode): fetch
        (synthetic) → parse (dictionary cache) → image+caption pairs
        partition (worker-side fragment writes) → link extraction split
        by ``url_hash % S``
      → explicit hash-partitioned exchange: each task offers its link
        slices straight to the owning FrontierShard, which cuckoo-dedupes
        and min-merges them
      → frontier re-enqueue inside the shards at wave end

The frontier priority queue and the URL-seen cuckoo page for each hash
shard live together in one ``FrontierShard`` actor (stages/dedupe.py) — the
sharded priority queue of the north rule. Per-wave frontier operations are
warm actor RPCs, and the control path moves plain column lists only (no
object-store put, no pickled DataFrame): shards hold their top-k and push
slices actor→actor to the politeness gates (``route_to_gates``), each row
tagged with its source shard and hold position; the gates decide, stage
their gated slice for resume, and return the allowed rows inline as
task-sized ``(urls, depths)`` blocks plus, per source shard, the hold
positions of the deferred rows. Each holding shard then ``park``s those
rows in place (Mercator's per-host back queue: a deferred URL waits in its
own queue instead of making a round trip through the pipeline). The
driver handles counts, blocks, positions and (priority, url) trace pairs.

SOFTWARE-PIPELINED WAVES (``pipeline_depth``, default 2): wave k+1's
dequeue + gate + fetch tasks run concurrently with wave k's — hiding the
politeness/flush barrier behind the previous wave's compute. Determinism is
schedule-independent because visibility is *state-encoded in the shards*:
links flushed by wave k become dequeuable at wave k+2 and wave-k defers at
wave k+1, so ``dequeue(k)`` is a pure function of the operation sequence
(seeds, dequeues, parks, flushes ≤ k-2), never of when a concurrent flush
lands. A depth-1 (serial) run produces the byte-identical
trace/counters/pairs as a depth-2 run
(tests/test_crawl.py::test_pipeline_depth_equivalent).

Checkpoints are per flushed wave: each shard actor writes its own frontier
parquet (+ future-bucket sidecar) + filter page (worker-side, parallel),
and each gate persists its decided slice at decide() time
(out_dir/gated/waveNNN/gateG.parquet); the driver writes the politeness
states, this wave's counter, this wave's trace segment, pointers to the
in-flight wave's staged slices, then a ``_COMPLETE`` marker last — so a
killed job resumes exactly: the shard cut is post-dequeue(k+1)/
post-park(k+1)/post-flush(k), and ``gated_slice_blocks`` over the staged
slices recreates the in-flight wave's allowed blocks without re-gating.
Dequeue order is a pure function of (priority, url, wave), so the same
seeds + budget replay to the identical trace (replay invariant).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..sources import io as aio
from ..stages.cached import cached_fetch_batch, cached_parse_batch
from ..stages.content import run_content
from ..stages.dedupe import ShardedSeenSet
from ..stages.links import canonicalize_url
from ..stages.politeness_stage import PolitenessShard


@dataclass
class CrawlConfig:
    seeds: list[str]
    corpus_size: int
    out_dir: str
    num_shards: int = 8
    num_politeness_shards: int = 4
    dequeue_k: int = 16            # per frontier shard per wave
    max_waves: int = 5
    hot_host_threshold: float = 0.25  # share of a wave's candidates
    n_salts: int = 4
    budgets: dict = field(default_factory=dict)
    filter_capacity: int = 1 << 16
    # URLs per fetch/parse task: small tasks pack the fleet tightly and cap
    # the wave-barrier straggler at one task's wall (pure config ⇒ replay-safe)
    task_urls: int = 32
    seed: int = 42
    keep_trace: bool = True        # in-memory trace for summary(); segments on disk either way
    frontier_spill_rows: int | None = None  # per-shard in-memory cap; tail spills to parquet
    # spawn + warm the map-task worker fleet (imports, dictionary caches) at
    # job construction — a long crawl amortizes worker spawn across thousands
    # of waves; warming moves that one-time cost out of the first wave
    warm_fleet: bool = False
    # overlapped waves in flight (1 = serial; results are identical at any
    # depth ≤ visibility_lag — visibility is state-encoded in the shards,
    # see module doc)
    pipeline_depth: int = 2
    # waves until flushed links become dequeuable (None = pipeline_depth).
    # lag 1 = classic serial BFS (requires depth 1); lag 2 tolerates one
    # overlapped wave. Part of the crawl's deterministic semantics.
    visibility_lag: int | None = None


_CTR_KEYS = [
    "dequeued", "allowed", "deferred", "robots_denied", "fetched", "http_404",
    "parsed_ok", "parse_err", "links", "links_new", "pairs_rows",
]
# what one fetch task reports, summed per wave
_TASK_KEYS = ["fetched", "http_404", "pairs_rows", "parsed_ok", "parse_err"]


@ray.remote(num_cpus=1)
def _wave_task(urls: list[str], depths: list[int], wave: int, pairs_tmp: str,
               corpus_size: int, seed: int, shards: list) -> dict:
    """One allowed block of a wave (task_urls rows, as the gate handed it
    out) through the shared content body (stages/content.run_content:
    fetch → parse → pairs fragment write → link extract + shard split,
    per-process cached fetch/parse state). The fragment is named by the
    blake2b of the block's urls, so its name does not depend on which
    worker ran it. The task offers its link slices straight to the owning
    FrontierShard actors — the RPC is the explicit hash-partitioned
    exchange, moving only (canon, hash, host, depth) projections — fire-
    and-forget: the wave-end flush barrier reconciles on the per-shard
    offer counts returned here. Links never reach the driver; the driver
    gets plain counters, per-shard offer counts and layer walls."""
    import hashlib
    import time

    name = hashlib.blake2b("|".join(urls).encode(), digest_size=8).hexdigest()
    batch = pa.table({"url_canon": pa.array(urls, pa.string()),
                      "depth": pa.array(depths, pa.int64())})
    ctr, us, slices = run_content(
        batch, cached_fetch_batch(corpus_size, seed), cached_parse_batch(),
        os.path.join(pairs_tmp, f"part-{name}.parquet"), len(shards),
    )
    t0 = time.perf_counter()
    offers = [0] * len(shards)
    for s, canons, hashes, hosts, link_depths in slices:
        shards[s].offer.remote(canons, hashes, hosts, link_depths, wave)
        offers[s] = len(hashes)
    out = {k: ctr[k] for k in _TASK_KEYS}
    out["offers"] = offers
    out.update({f"t_{k}": us[k] / 1e6 for k in ("fetch", "parse", "write",
                                                "links")})
    out["t_offer"] = time.perf_counter() - t0
    return out


class CrawlJob:
    def __init__(self, cfg: CrawlConfig):
        self.cfg = cfg
        # silence Ray Data progress bars / per-Dataset stat logs for the
        # fleet warm-up Dataset (the bar actors add ~0.5s per launch)
        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.enable_auto_log_stats = False
        self.seen = ShardedSeenSet(
            cfg.num_shards, cfg.filter_capacity,
            spill_threshold=cfg.frontier_spill_rows,
            spill_dir=(os.path.join(cfg.out_dir, "spill")
                       if cfg.frontier_spill_rows is not None else None),
        )
        self.gates = [PolitenessShard.remote(cfg.budgets) for _ in range(cfg.num_politeness_shards)]
        self.wave = 0
        self.counters: list[dict] = []
        self.trace: list[tuple[int, int, str]] = []  # (wave, seq, url)
        self.trace_len = 0
        self.frontier_rows = 0
        self._resume_recs: list[dict] = []
        # driver-side diagnostics only (never part of counters/replay state)
        self.phase_times: dict[str, float] = {}
        from concurrent.futures import ThreadPoolExecutor

        # async checkpoint finalizer: the shard-side writes are fired on the
        # main thread (per-actor message order ⇒ state is pinned at the cut);
        # only the ray.get + driver metadata writes run here, overlapped with
        # the next wave's compute
        self._ckpt_pool = ThreadPoolExecutor(max_workers=1)
        self._ckpt_pending = None
        if cfg.warm_fleet:
            self._warm()

    def _warm(self) -> None:
        """Spawn the map-task worker fleet and populate its per-process
        caches (dictionaries, compiled regexes) before the first wave —
        fetch/parse are pure functions, so warming never touches crawl
        state. On a real cluster a long crawl amortizes this spawn over
        thousands of waves; the flag makes the first wave steady-state."""
        from ..sources.synth import page_url_for_idx

        cpus = int(ray.cluster_resources().get("CPU", 8))
        n = cpus * 8
        urls = [
            canonicalize_url(page_url_for_idx(i % max(1, self.cfg.corpus_size)))
            for i in range(n)
        ]
        work = pd.DataFrame({"url_canon": urls, "depth": 0})
        chunks = [work.iloc[i: i + 2] for i in range(0, len(work), 2)]
        (
            rd.from_pandas(chunks)
            .map_batches(
                cached_fetch_batch(self.cfg.corpus_size, self.cfg.seed),
                batch_format="pyarrow", batch_size=None, num_cpus=1,
            )
            .map_batches(
                cached_parse_batch(), batch_format="pyarrow",
                batch_size=None, num_cpus=1,
            )
            .count()
        )

    # ------------------------------------------------------------------
    # checkpoint layout
    # ------------------------------------------------------------------
    def _checkpoint_dir(self, wave: int) -> str:
        return os.path.join(self.cfg.out_dir, "checkpoint", f"wave{wave:03d}")

    def _frontier_path(self, wave: int, shard: int) -> str:
        return os.path.join(self._checkpoint_dir(wave), "frontier", f"shard{shard}.parquet")

    def _filter_path(self, wave: int, shard: int) -> str:
        return os.path.join(self._checkpoint_dir(wave), "filters", f"shard{shard}.page")

    def checkpoint(self, wave_counter: dict | None, wave_trace: list,
                   inflight: list[dict] | None = None) -> None:
        """Per-wave checkpoint: every FrontierShard writes its own frontier
        parquet + filter page in parallel (worker-side); the driver writes
        only O(wave) metadata plus the gated candidate table of each
        in-flight wave (≤ k·S rows). ``_COMPLETE`` marker last.

        Overlapped: the shard/gate RPCs fire on the main thread HERE —
        before the next wave's dequeue RPCs, so per-actor message order pins
        the captured state to post-flush(k) / post-dequeue(k+1) exactly —
        while the ``ray.get`` + metadata writes run on the finalizer
        thread, concurrent with the in-flight waves' compute. Checkpoints
        serialize with each other (join before fire)."""
        self.join_checkpoint()
        d = self._checkpoint_dir(self.wave)
        os.makedirs(os.path.join(d, "frontier"), exist_ok=True)
        os.makedirs(os.path.join(d, "filters"), exist_ok=True)
        shard_futs = [
            sh.checkpoint.remote(
                self._frontier_path(self.wave, s), self._filter_path(self.wave, s)
            )
            for s, sh in enumerate(self.seen.shards)
        ]
        gate_futs = [g.serialize.remote() for g in self.gates]
        inflight_meta = [
            {"wave": rec["wave"], "trace_base": rec["trace_base"],
             "staging": self._staging_rel(rec["wave"])}
            for rec in (inflight or []) if not rec["empty"]
        ]
        self._ckpt_pending = self._ckpt_pool.submit(
            self._finalize_checkpoint, self.wave, self.trace_len,
            shard_futs, gate_futs, wave_counter, list(wave_trace), inflight_meta,
        )

    def _finalize_checkpoint(self, wave: int, trace_len: int, shard_futs,
                             gate_futs, wave_counter, wave_trace,
                             inflight_meta) -> list[int]:
        d = self._checkpoint_dir(wave)
        shard_rows = ray.get(shard_futs)
        self.frontier_rows = sum(shard_rows)
        gate_states = ray.get(gate_futs)
        with open(os.path.join(d, "trace.json"), "w") as f:
            json.dump(wave_trace, f)
        # in-flight waves need no extra writes: their gated slices were
        # already persisted worker-side by the gates at decide() time
        # (out_dir/gated/waveNNN/gateG.parquet) — the meta just points there
        meta = {
            "wave": wave,
            "counter": wave_counter,
            "trace_len": trace_len,
            "frontier_rows": shard_rows,
            "gates": gate_states,
            "inflight": inflight_meta,
            "lineage": {
                "num_shards": self.cfg.num_shards,
                "seeds": self.cfg.seeds,
                "corpus_size": self.cfg.corpus_size,
            },
        }
        tmp = os.path.join(d, "meta.json.tmp")
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, os.path.join(d, "meta.json"))
        # completion marker LAST: a checkpoint without it is ignored on resume
        with open(os.path.join(d, "_COMPLETE"), "w") as f:
            f.write("ok")
        return shard_rows

    def join_checkpoint(self) -> None:
        """Block until the in-flight checkpoint (if any) is durable."""
        if self._ckpt_pending is not None:
            self._ckpt_pending.result()
            self._ckpt_pending = None

    def resume(self) -> bool:
        root = os.path.join(self.cfg.out_dir, "checkpoint")
        if not os.path.isdir(root):
            return False
        waves = sorted(
            w for w in os.listdir(root)
            if os.path.exists(os.path.join(root, w, "_COMPLETE"))
        )
        if not waves:
            return False
        last_dir = os.path.join(root, waves[-1])
        with open(os.path.join(last_dir, "meta.json")) as f:
            meta = json.load(f)
        lin = meta.get("lineage", {})
        # resuming with a different shard count would probe url hashes
        # against the wrong filter pages (silent duplicate fetches) and
        # break the replay trace; different seeds/corpus likewise
        mine = {"num_shards": self.cfg.num_shards,
                "seeds": self.cfg.seeds,
                "corpus_size": self.cfg.corpus_size}
        if lin and lin != mine:
            raise ValueError(
                f"crawl resume config mismatch: checkpoint lineage {lin} "
                f"vs job {mine} — the hash-partitioning shape must not "
                "change across a resume")
        self.wave = meta["wave"]
        self.trace_len = meta["trace_len"]
        self.frontier_rows = sum(meta["frontier_rows"])
        ray.get([
            sh.restore.remote(
                self._frontier_path(self.wave, s), self._filter_path(self.wave, s)
            )
            for s, sh in enumerate(self.seen.shards)
        ])
        for g, state in zip(self.gates, meta["gates"]):
            ray.get(g.restore.remote(state))
        # rebuild counters + trace from the per-wave segments (O(total trace)
        # once at resume, never per wave)
        self.counters = []
        self.trace = []
        for w in waves:
            wd = os.path.join(root, w)
            with open(os.path.join(wd, "meta.json")) as f:
                wmeta = json.load(f)
            if wmeta["counter"] is not None:
                self.counters.append(wmeta["counter"])
            if self.cfg.keep_trace:
                with open(os.path.join(wd, "trace.json")) as f:
                    self.trace.extend(tuple(t) for t in json.load(f))
        # in-flight waves: re-build their records from the gate-staged
        # gated slices (no re-dequeue, no re-gate — the shard and gate
        # cuts already include them, deferred rows parked; the staged
        # slices give back the exact allowed blocks the gates handed out);
        # run() re-launches their fetch tasks
        import pyarrow.parquet as pq

        from ..stages.politeness_stage import gated_slice_blocks

        self._resume_recs = []
        for entry in meta.get("inflight", []):
            staging = os.path.join(self.cfg.out_dir, entry["staging"])
            results = []
            n_cand = 0
            for g in range(self.cfg.num_politeness_shards):
                cols = ("url_canon", "priority", "depth", "decision")
                sl = pq.read_table(os.path.join(staging, f"gate{g}.parquet"),
                                   columns=list(cols))
                n_cand += sl.num_rows
                results.append(gated_slice_blocks(
                    *(sl.column(c).to_pylist() for c in cols),
                    self.cfg.task_urls,
                ))
            rec = self._rec_from_gate_results(
                entry["wave"], n_cand, entry["trace_base"], results
            )
            if self.cfg.keep_trace:
                self.trace.extend(rec["wave_trace"])
            self._resume_recs.append(rec)
        return True

    # ------------------------------------------------------------------
    # wave stages
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def _mark(self, key: str, t0: float) -> float:
        import time as _time

        t1 = _time.perf_counter()
        self.phase_times[key] = self.phase_times.get(key, 0.0) + (t1 - t0)
        return t1

    def _staging_rel(self, wave: int) -> str:
        return os.path.join("gated", f"wave{wave:03d}")

    def _rec_from_gate_results(self, wave: int, n_cand: int, trace_base: int,
                               results: list[dict]) -> dict:
        """Build the wave record from the P gates' decide() outputs —
        counts, allowed blocks (gate order) and the globally-merged
        trace. Shared shape with checkpoint resume (which recreates the
        same outputs from the staged slices)."""
        import heapq

        ctr = {"wave": wave, **{k: 0 for k in _CTR_KEYS}}
        ctr["dequeued"] = n_cand
        ctr["allowed"] = sum(r["counts"]["allow"] for r in results)
        ctr["deferred"] = sum(r["counts"]["defer"] for r in results)
        ctr["robots_denied"] = sum(r["counts"]["robots"] for r in results)
        # global fetch-order trace: merge the per-gate (priority desc, url
        # asc) sorted runs — byte-identical to a single global sort
        merged = heapq.merge(
            *[r["trace"] for r in results], key=lambda t: (-t[0], t[1])
        )
        wave_trace = [
            (wave, trace_base + seq, url)
            for seq, (_prio, url) in enumerate(merged)
        ]
        return {
            "wave": wave, "ctr": ctr, "trace_base": trace_base,
            "wave_trace": wave_trace,
            "blocks": [b for r in results for b in r["blocks"]],
            "empty": n_cand == 0, "drained": False, "tasks": [],
        }

    def _launch_tasks(self, rec: dict) -> None:
        """Submit one fetch task per allowed block of the wave; their refs
        stay in the wave record until ``_finish_wave`` gets them."""
        if not rec["blocks"]:
            return
        cfg = self.cfg
        pairs_tmp = os.path.join(cfg.out_dir, "pairs",
                                 f".wave{rec['wave']:03d}.building")
        os.makedirs(pairs_tmp, exist_ok=True)
        rec["tasks"] = [
            _wave_task.remote(urls, depths, rec["wave"], pairs_tmp,
                              cfg.corpus_size, cfg.seed, self.seen.shards)
            for urls, depths in rec["blocks"]
        ]

    def _launch_wave(self, wave: int) -> dict:
        """Dequeue + gate + park + fetch-task launch for one wave — the
        shard→gate handoff path: FrontierShards hold their dequeued top-k
        and push it straight to the politeness actors, the gates return
        the allowed blocks inline, and each holding shard parks its
        deferred rows in place. The driver only ever handles host counts,
        decision counts, allowed blocks, hold positions and the (priority,
        url) trace pairs. Runs on the driver thread; the fetch tasks run
        overlapped with older in-flight waves."""
        import time as _time

        cfg = self.cfg
        t = _time.perf_counter()
        holds = ray.get([
            sh.dequeue_hold.remote(cfg.dequeue_k, wave) for sh in self.seen.shards
        ])
        n_cand = sum(h["n"] for h in holds)
        t = self._mark("w_dequeue", t)
        if n_cand == 0:
            rec = self._rec_from_gate_results(wave, 0, self.trace_len, [])
            # drained = nothing active OR pending visibility anywhere
            rec["drained"] = sum(
                ray.get([sh.frontier_size.remote() for sh in self.seen.shards])
            ) == 0
            return rec

        # hot-host salting decided from the merged per-shard host counts
        host_totals: dict[str, int] = {}
        for h in holds:
            for host, c in h["hosts"].items():
                host_totals[host] = host_totals.get(host, 0) + c
        salts = {
            host: cfg.n_salts
            for host, c in host_totals.items()
            if c / n_cand > cfg.hot_host_threshold
        }
        P = cfg.num_politeness_shards
        per_gate = ray.get([
            sh.route_to_gates.remote(wave, salts, self.gates, P, s)
            for s, sh in enumerate(self.seen.shards)
        ])
        expected = np.sum(np.asarray(per_gate, dtype=np.int64), axis=0)
        staging = os.path.join(cfg.out_dir, self._staging_rel(wave))
        os.makedirs(staging, exist_ok=True)
        results: list = [None] * P
        pending = list(range(P))
        deadline = _time.monotonic() + 120.0
        while pending:
            futs = [
                self.gates[g].decide.remote(
                    wave, int(expected[g]), salts,
                    os.path.join(staging, f"gate{g}.parquet"), cfg.task_urls,
                )
                for g in pending
            ]
            still = []
            for g, r in zip(pending, ray.get(futs)):
                if r is None:
                    still.append(g)
                else:
                    results[g] = r
            pending = still
            if pending:
                if _time.monotonic() > deadline:
                    raise RuntimeError(
                        f"gate barrier timed out; gates {pending} never "
                        "received their routed rows"
                    )
                _time.sleep(0.002)
        t = self._mark("w_gate", t)

        rec = self._rec_from_gate_results(wave, n_cand, self.trace_len, results)
        self.trace_len += len(rec["wave_trace"])
        if cfg.keep_trace:
            self.trace.extend(rec["wave_trace"])

        self._launch_tasks(rec)
        # every holding shard releases its hold; the deferred rows park in
        # place, re-eligible at wave+1 — parked BEFORE the next wave's
        # dequeue fires, so the order is canonical
        parked: dict[int, list[int]] = {}
        for r in results:
            for s, pos in r["parked"].items():
                parked.setdefault(s, []).extend(pos)
        ray.get([
            sh.park.remote(wave, parked.get(s, []))
            for s, (sh, h) in enumerate(zip(self.seen.shards, holds)) if h["n"]
        ])
        return rec

    def _finish_wave(self, rec: dict) -> dict:
        """Await the wave's fetch tasks, reconcile the offer barrier, flush the
        frontier shards, promote the pairs partition. Main thread; waves
        finish in launch order."""
        import time as _time

        cfg = self.cfg
        wave = rec["wave"]
        ctr = rec["ctr"]
        if rec["tasks"]:
            t = _time.perf_counter()
            results = ray.get(rec["tasks"])
            # the key predates plain tasks; perfbench reads it (wave.dataset_s)
            t = self._mark("w_dataset", t)
            totals = self._flush_wave(results, wave)
            for key in _TASK_KEYS + ["links", "links_new"]:
                ctr[key] = int(totals[key])
            # atomically promote the worker-written pairs fragments
            aio.finalize_partition(
                os.path.join(cfg.out_dir, "pairs"),
                f"wave{wave:03d}",
                os.path.join(cfg.out_dir, "pairs", f".wave{wave:03d}.building"),
                rows=ctr["pairs_rows"],
                lineage={
                    "wave": wave,
                    "urls": ctr["allowed"],
                    "num_shards": cfg.num_shards,
                },
            )
        return ctr

    def _flush_wave(self, results: list[dict], wave: int) -> dict:
        """Wave-end barrier: the offers were fired without acks, so
        reconcile on the per-shard offered-row counts the tasks reported; a
        shard that hasn't seen its full count yet returns None and is
        retried (actors process messages in order, so count-match ⇒ offers
        applied)."""
        import time as _time

        num_shards = self.cfg.num_shards
        filter_shards = self.seen.shards
        t = _time.perf_counter()
        expected = np.sum([r["offers"] for r in results], axis=0)
        flushed: list = [None] * num_shards
        pending_shards = list(range(num_shards))
        deadline = _time.monotonic() + 120.0
        visible_at = wave + (self.cfg.visibility_lag or
                             min(2, max(1, self.cfg.pipeline_depth)))
        while pending_shards:
            futs = [
                filter_shards[s].enqueue_flush.remote(
                    wave, int(expected[s]), visible_at
                )
                for s in pending_shards
            ]
            still = []
            for s, r in zip(pending_shards, ray.get(futs)):
                if r is None:
                    still.append(s)
                else:
                    flushed[s] = r
            pending_shards = still
            if pending_shards:
                if _time.monotonic() > deadline:
                    raise RuntimeError(
                        f"offer barrier timed out; shards {pending_shards} "
                        "never reached their expected offer counts"
                    )
                _time.sleep(0.002)
        t = self._mark("w_flush", t)
        for key in ("t_fetch", "t_parse", "t_write", "t_links", "t_offer"):
            self.phase_times[key] = self.phase_times.get(key, 0.0) + sum(
                r[key] for r in results
            )
        totals = {k: sum(r[k] for r in results) for k in _TASK_KEYS}
        totals["links"] = sum(f[0] for f in flushed)
        totals["links_new"] = sum(f[1] for f in flushed)
        return totals

    def run(self, resume: bool = False) -> dict:
        from collections import deque

        cfg = self.cfg
        inflight: deque[dict] = deque()
        if resume and self.resume():
            for rec in self._resume_recs:
                self._launch_tasks(rec)
                inflight.append(rec)
            self._resume_recs = []
            next_wave = (inflight[-1]["wave"] if inflight else self.wave) + 1
        else:
            self.seen.seed_urls(cfg.seeds)
            self.wave = 0
            self.checkpoint(None, [])
            next_wave = 1

        # launching wave w needs every flush ≤ w-lag applied, which the
        # slot count only guarantees for depth ≤ visibility_lag (the
        # default lag is at most 2, so useful depth is capped at 2)
        depth = min(2, max(1, cfg.pipeline_depth))
        depth = min(depth, cfg.visibility_lag or depth)
        stop_launching = False
        while True:
            # refill: keep up to ``depth`` waves in flight; launching wave w
            # requires every wave ≤ w-depth flushed, which the slot count
            # enforces; empty waves hold a slot too (their no-op flush keeps
            # the counter/checkpoint order canonical)
            while (not stop_launching and len(inflight) < depth
                   and next_wave <= cfg.max_waves):
                rec = self._launch_wave(next_wave)
                next_wave += 1
                inflight.append(rec)
                if rec["empty"] and rec["drained"] and not any(
                    not r["empty"] for r in inflight
                ):
                    # frontier fully drained and nothing in flight can refill
                    stop_launching = True
            if not inflight:
                break
            rec = inflight.popleft()
            ctr = self._finish_wave(rec)
            self.wave = rec["wave"]
            self.counters.append(ctr)
            import time as _time

            t = _time.perf_counter()
            self.checkpoint(ctr, rec["wave_trace"], inflight=list(inflight))
            self._mark("w_checkpoint", t)
        self.join_checkpoint()
        return self.summary()

    def summary(self) -> dict:
        self.join_checkpoint()  # frontier_rows is written by the finalizer
        return {
            "waves": self.wave,
            "counters": self.counters,
            "frontier_size": self.frontier_rows,
            "seen_total": self.seen.total(),
            "trace_len": self.trace_len,
            "trace": list(self.trace),
            "phase_times": {k: round(v, 3) for k, v in self.phase_times.items()},
        }

    def shutdown(self) -> None:
        self.join_checkpoint()
        self._ckpt_pool.shutdown(wait=True)
        self.seen.shutdown()
        for g in self.gates:
            ray.kill(g)
        self.gates = []
