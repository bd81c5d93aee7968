"""True streaming (non-wave) crawl frontier — the north rule's
"streaming" made literal.

The wave pipeline (pipelines/crawl.py) is a software-pipelined BSP loop:
strong replay determinism (byte-identical traces, kill-and-resume), at
the cost of a per-wave Ray Data launch floor (~0.2-0.5 s) that dominates
discovery-limited crawls. This module is the complementary operating
mode: a fleet of long-lived worker actors continuously LEASE small URL
slices from the frontier shards, gate, fetch, parse, write and offer —
no wave barriers, no per-step Dataset launch, work flows as fast as the
frontier refills.

Shape (everything stays off the driver):

    StreamWorker[i] loop:
      lease epoch   ← Coordinator.begin_lease()        (tiny RPC)
      rows          ← FrontierShard[rr].dequeue_stream(L, epoch)
      decisions     ← PolitenessShard[g].gate(hosts, urls, epoch)
                      (vectorized robots + epoch-refilled token buckets —
                       the wave-mode gate verbatim, with the lease epoch
                       standing in for the wave number)
      deferred      → owning FrontierShard.defer(rows, epoch)  (re-eligible
                       next epoch, exactly like waves)
      fetch → parse → pairs fragment → links   (stages/content.py — the
                       same content body the wave mode runs)
      link slices   → owning FrontierShard.offer_stream(...)   (immediate
                       enqueue, acked before the lease ends)
      counters      → Coordinator.end_lease()

Termination is a sound drain barrier with shard-local accounting: a
dequeue marks its rows *outstanding* at the shard atomically with their
removal, and the worker completes the slice only after its defer/offer
RPCs are acked — so every pending row is visible in exactly one shard's
``pending_total`` (queued + deferred + in-flight) at every instant.
Because a multi-shard read is not an instantaneous snapshot, the proof
is a DOUBLE POLL with per-shard op generations (see
StreamWorker._drain_check): two sequential all-shard polls, both
zero-sum, identical generation vectors. (Two earlier designs were
unsound: a coordinator busy-lease counter — idle spinning workers keep
some lease open ~always, drain never fires — and a single zero-sum
poll — a cross-shard link transfer can slip between the destination's
read and the source's read.)

DETERMINISM CONTRACT (weaker than waves, by design — documented where
the wave mode's is load-bearing): on a drained crawl the fetched URL
SET, the pairs CONTENT, and the robots-denied set are schedule-
independent (offers min-merge; cuckoo membership is insertion-order-
independent; budgets only defer, never deny, so a drained run fetches
exactly the robots-allowed reachable set — up to cuckoo false-positive
aliasing, whose probability is capacity-controlled). Fetch ORDER, the
per-epoch counters, and defer counts are schedule-dependent; there is
no replay trace. Use the wave mode when byte-identical replay matters;
use this mode for latency/throughput.

SCALE SHAPE: URLs, links and pairs bytes flow worker↔shard↔gate only —
the driver sees counters. Per-lease coordinator traffic is two tiny
RPCs; at one lease ≈ 128 URLs a single coordinator actor saturates
around ~10^4 leases/s ≈ 10^6 URLs/s — beyond that (thousands of
workers on a multi-node cluster), raise ``lease_urls`` first (RPC rate
falls linearly), then set ``num_coordinators`` (IMPLEMENTED, round 5):
the epoch clock shards like the frontier — workers hash to a
coordinator by worker id, the drain proof latches every clock shard,
and checkpoints elect their owner globally at coordinator 0 (measured
1,890 → 3,142 → 4,670 leases/s at C=1/2/4, BASELINE.md).

CHECKPOINT/RESUME (``checkpoint_every_fetches``): roughly every N
fetches the coordinator pauses new leases; one worker wins ownership,
waits for quiescence (open leases and shard-outstanding both drain to
zero — monotone under pause), snapshots every shard's frontier+filter
page, the gate buckets and the counters, promotes the pairs fragments
accumulated since the last checkpoint to a ``stream-partNNNN``
partition, and writes the ``stream_ckpt.json`` marker atomically LAST.
``run(resume=True)`` rolls back anything newer than the marker (orphan
fragments + later partitions — those rows are still in the restored
frontier) and continues: a killed run refetches only post-marker work
and the final pairs union has no duplicates and no losses (test-pinned
against an uninterrupted run).

FAULT SEMANTICS (round 5 — worker deaths are recovered IN-JOB): the
driver supervises ``run_loop`` futures; a RayActorError (fail-stop — a
real actor death, never a timeout, so a reclaim cannot race a live
worker) triggers: coordinator lease/ckpt-ownership cleanup
(``worker_died``), per-shard reclaim of the dead worker's outstanding
lease rows (``reclaim_worker`` — fences the wid and requeues the rows),
deletion of its token-named pairs fragments for exactly the reclaimed
leases, adoption of any partition dir orphaned mid-promote, and a
replacement worker spawn. Exactness relies on three invariants: (1) a
lease's rows all hash to its source shard, so the politeness defer
rides INSIDE ``complete_stream`` — completion and re-queue are one
atomic actor call with no partial-defer window; (2) fragments are named
(wid, lease seq), so a reclaimed lease's possibly-written pairs are
deleted before the refetch rewrites them — pairs stay duplicate-free;
(3) link offers are idempotent through the cuckoo filter, so a dead
worker's late offer and the refetch's re-offer cannot double-enqueue.
The fetched SET / pairs CONTENT / robots-denied invariants therefore
survive any number of worker deaths (test-pinned); COUNTERS for a
lease that completed at the shard but whose worker died before
``end_lease`` are lost — counters were already schedule-dependent.
Whole-JOB kills remain resume-from-checkpoint (above).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..sources import io as aio
from ..stages.cached import cached_fetch_batch, cached_parse_batch
from ..stages.content import run_content
from ..stages.dedupe import ShardedSeenSet
from ..stages.frontier import FRONTIER_COLS
from ..stages.politeness_stage import PolitenessShard, host_shard


@dataclass
class StreamCrawlConfig:
    seeds: list[str]
    corpus_size: int
    out_dir: str
    num_shards: int = 16
    num_politeness_shards: int = 8
    num_workers: int = 0            # 0 = cluster CPUs - shards' reservations
    # epoch-clock shards: workers hash to a coordinator by worker id; a
    # single coordinator saturates ~10^4 leases/s ≈ 10^6 URLs/s, beyond
    # which the lease RPCs themselves bottleneck (thousands of workers).
    # Checkpoints work at any C (a triggering shard forwards the pause to
    # coordinator 0, the global election authority; the owner pauses and
    # quiesces every clock). max_fetches works at any C too: secondaries
    # forward fetched deltas to coordinator 0 (fire-and-forget — no
    # blocking fan-out in any actor), which latches a stop flag at the
    # cap and broadcasts it once; overshoot is bounded by in-flight
    # leases plus deltas landing during the broadcast — the same
    # "safety stop, not an exact count" class as the C=1 check, which
    # already overshoots by whatever the open leases fetch.
    # Epochs advance per coordinator and politeness refills are
    # monotone-guarded, so skew is safe.
    num_coordinators: int = 1
    lease_urls: int = 128           # URLs per lease (per worker pull)
    leases_per_epoch: int = 32      # budget-refill cadence (the "wave" stand-in)
    budgets: dict = field(default_factory=dict)
    filter_capacity: int = 1 << 16
    seed: int = 42
    max_fetches: int | None = None  # safety stop (None = drain)
    # per-shard in-memory frontier cap; the sorted tail spills to parquet
    # runs (same LSM mechanics as wave mode — mandatory at 10^10 URLs)
    frontier_spill_rows: int | None = None
    # consistent checkpoint roughly every N fetches (None = never).
    # Checkpoints quiesce the fleet (pause new leases, drain in-flight
    # slices), snapshot frontier+filter pages+gate buckets+counters, and
    # promote the pairs fragments written so far — so a killed run resumes
    # from the marker refetching only post-checkpoint work, never
    # duplicating or losing a pairs row.
    checkpoint_every_fetches: int | None = None


_CTR_KEYS = ["dequeued", "allowed", "deferred", "robots_denied", "fetched",
             "http_404", "parsed_ok", "parse_err", "pairs_rows", "links",
             "links_new", "leases",
             # per-stage wall profile, summed over workers in integer
             # microseconds (REPORTING ONLY — timers never feed crawl
             # state, so the determinism contract is untouched)
             "t_dequeue_us", "t_gate_us", "t_work_us", "t_offer_us",
             "t_idle_us"]


@ray.remote(num_cpus=0.05)
class StreamCoordinator:
    """Lease accounting + epoch clock + drain barrier. Tiny state, tiny
    RPCs; never sees a URL."""

    def __init__(self, shards, leases_per_epoch: int,
                 max_fetches: int | None,
                 ckpt_every_fetches: int | None = None):
        self._shards = shards
        self._per_epoch = max(1, leases_per_epoch)
        self._max_fetches = max_fetches
        self._leases = 0
        self._open = 0          # leases begun and not yet ended
        self._open_by: dict[int, int] = {}  # wid -> its open leases
        self._drained = False
        self._ctr = {k: 0 for k in _CTR_KEYS}
        self._ckpt_every = ckpt_every_fetches
        self._next_ckpt = ckpt_every_fetches
        self._ckpt_seq = 0
        self._pausing = False
        self._ckpt_owner = False
        self._ckpt_owner_wid: int | None = None
        self._dead_workers: set[int] = set()
        # sharded-clock fetch cap (wired by the job only when C>1 AND
        # max_fetches is set): coordinator 0 holds the global count and
        # the peer handles; secondaries hold coordinator 0's handle
        self._fetch_stop = False
        self._global_fetched = 0
        self._cap_peers: list | None = None    # set on coordinator 0
        self._cap_primary = None               # set on secondaries

    def begin_lease(self, wid: int = 0) -> int | str | None:
        """None = stop (drained or fetch cap hit); "pause" = a checkpoint
        is pending (retry shortly / volunteer via acquire_checkpoint);
        else the current epoch. The epoch clock ticks on lease COUNT
        (deterministic given the schedule, never wall clock): it only
        gates deferred-row visibility and politeness refills, so idle
        leases advancing it merely lets a budget-limited crawl proceed."""
        if wid in self._dead_workers:
            # queued RPC from a worker already closed by worker_died:
            # registering a lease it can never end would hang quiescence
            return None
        if self._drained or self._fetch_stop or (
            self._max_fetches is not None
            and self._ctr["fetched"] >= self._max_fetches
        ):
            # the local-counter check stays meaningful at C>1: a single
            # clock shard whose own fetched already exceeds the cap
            # implies the global count does too (global >= any shard)
            return None
        if self._pausing:
            return "pause"
        if self._next_ckpt is not None and self._ctr["fetched"] >= self._next_ckpt:
            self._pausing = True
            return "pause"
        self._leases += 1
        self._open += 1
        self._open_by[wid] = self._open_by.get(wid, 0) + 1
        return self._leases // self._per_epoch

    def end_lease(self, wid: int = 0, counters: dict | None = None) -> None:
        if wid not in self._open_by:
            # late RPC from a worker already closed by worker_died —
            # its leases were reclaimed; decrementing again would drive
            # _open negative and hang checkpoint quiescence forever
            return
        self._open -= 1
        n = self._open_by[wid] - 1
        if n > 0:
            self._open_by[wid] = n
        else:
            self._open_by.pop(wid, None)
        if counters:
            for k, v in counters.items():
                self._ctr[k] += int(v)
            if self._max_fetches is not None:
                nf = int(counters.get("fetched", 0))
                if nf:
                    if self._cap_peers is not None:   # I am coordinator 0
                        self.note_fetched(nf)
                    elif self._cap_primary is not None:
                        # fire-and-forget: the cap is a safety stop, so a
                        # delta landing a few RPCs late only widens the
                        # (already documented) bounded overshoot — and a
                        # blocking get here would serialize every clock
                        # shard through coordinator 0
                        self._cap_primary.note_fetched.remote(nf)

    # -- sharded-clock fetch cap (C>1 only; see StreamCrawlConfig) ----------
    def set_cap_peers(self, peers: list) -> None:
        """Coordinator 0 only: handles of the other clock shards, for the
        one-time stop broadcast."""
        self._cap_peers = list(peers)

    def set_cap_primary(self, primary) -> None:
        """Secondaries only: coordinator 0's handle for delta forwarding."""
        self._cap_primary = primary

    def note_fetched(self, n: int) -> None:
        """Coordinator 0 only: accumulate the global fetched count and,
        on crossing the cap, latch + broadcast the stop exactly once."""
        self._global_fetched += int(n)
        if (not self._fetch_stop and self._max_fetches is not None
                and self._global_fetched >= self._max_fetches):
            self._fetch_stop = True
            for p in (self._cap_peers or []):
                p.set_fetch_stop.remote()

    def set_fetch_stop(self) -> None:
        self._fetch_stop = True

    def seed_global_fetched(self, n: int) -> None:
        """Resume path: re-seed the global count from the checkpoint's
        per-coordinator counters (and re-latch if already over)."""
        self._global_fetched = 0
        self.note_fetched(int(n))

    def worker_died(self, wid: int) -> int:
        """Driver-side fail-stop recovery hook: close the dead worker's
        open leases (they will never end_lease) and, if it owned an
        in-flight checkpoint, release ownership so the next volunteer
        restarts the attempt under a fresh sequence number. Returns the
        number of leases closed."""
        self._dead_workers.add(wid)
        n = self._open_by.pop(wid, 0)
        self._open -= n
        if self._ckpt_owner and self._ckpt_owner_wid == wid:
            self._ckpt_owner = False
            self._ckpt_owner_wid = None
        return n

    # -- checkpoint barrier -------------------------------------------------
    def set_pausing(self) -> None:
        """Sharded-clock checkpoint propagation: a worker whose OWN
        coordinator started pausing forwards the pause to coordinator 0
        (the global election authority), and the elected owner then
        pauses every remaining clock. Idempotent."""
        self._pausing = True

    def acquire_checkpoint(self, wid: int = 0) -> int | None:
        """First caller while pausing becomes the checkpoint owner and
        gets the sequence number; everyone else gets None (wait).
        Election always runs on coordinator 0 — with sharded clocks the
        volunteering worker first forwards the pause via set_pausing."""
        if wid in self._dead_workers:  # late RPC from a closed worker
            return None
        if self._pausing and not self._ckpt_owner:
            self._ckpt_owner = True
            self._ckpt_owner_wid = wid
            self._ckpt_seq += 1
            return self._ckpt_seq
        return None

    def quiesced(self) -> bool:
        """True once every begun lease has ended. The owner additionally
        polls shard ``outstanding`` — by quiescence both are zero and the
        counters are a consistent snapshot (pausing blocks new leases, so
        this is a monotone drain, unlike the drain barrier's spin)."""
        return self._open == 0

    def checkpoint_done(self) -> None:
        self._pausing = False
        self._ckpt_owner = False
        self._ckpt_owner_wid = None
        self._next_ckpt = self._ctr["fetched"] + (self._ckpt_every or 0)

    def state(self) -> dict:
        """Snapshot for the checkpoint marker (call at quiescence)."""
        return {"counters": dict(self._ctr), "leases": self._leases,
                "ckpt_seq": self._ckpt_seq}

    def restore_state(self, state: dict) -> None:
        self._ctr = {k: 0 for k in _CTR_KEYS}
        self._ctr.update({k: int(v) for k, v in state["counters"].items()})
        self._leases = int(state["leases"])
        self._ckpt_seq = int(state["ckpt_seq"])
        if self._ckpt_every is not None:
            self._next_ckpt = self._ctr["fetched"] + self._ckpt_every

    def is_drained(self) -> bool:
        return self._drained

    def declare_drained(self) -> None:
        """Latched by a worker that produced a drain proof (see
        StreamWorker._drain_check). Keeping the polling OUT of this actor
        keeps every coordinator method O(1) — a blocking shard fan-out
        here would queue the whole fleet's begin/end_lease RPCs behind
        each idle drain poll."""
        self._drained = True

    def counters(self) -> dict:
        return dict(self._ctr)


@ray.remote(num_cpus=1)
class StreamWorker:
    """One long-lived crawl worker: fetch/parse state built once
    (actor-pool pattern); the loop runs until the coordinator drains."""

    def __init__(self, cfg: StreamCrawlConfig, shards, gates, coordinators,
                 worker_id: int):
        self.cfg = cfg
        self.shards = shards
        self.gates = gates
        coords = (coordinators if isinstance(coordinators, list)
                  else [coordinators])
        self.coords = coords                      # all (drain declare)
        self.coord = coords[worker_id % len(coords)]  # my epoch clock
        self.wid = worker_id
        self.fetch_fn = cached_fetch_batch(cfg.corpus_size, cfg.seed)
        self.parse_fn = cached_parse_batch()
        self.pairs_tmp = os.path.join(cfg.out_dir, "pairs", ".stream.building")
        os.makedirs(self.pairs_tmp, exist_ok=True)
        self._seq = 0  # per-worker lease counter → (wid, seq) lease tokens

    def prime(self) -> int:
        """Build the per-worker fetch/parse state (dictionary load, regex
        compile) outside any timed window — the stream analogue of the
        wave bench's warm fleet. Touches no frontier/filter state."""
        url = "http://host0.example/1970/0.html"
        self.parse_fn(self.fetch_fn(pa.table({"url_canon": [url], "depth": [0]})))
        return 1

    # -- one lease ---------------------------------------------------------
    def _process(self, df: pd.DataFrame, epoch: int,
                 seq: int) -> tuple[dict, pd.DataFrame | None]:
        """Returns (counters, deferred rows). Deferred rows are NOT sent
        anywhere here — they ride inside ``complete_stream`` back to the
        source shard, atomically with the lease's completion (a separate
        defer RPC would open the window where a worker death after the
        defer but before completion reclaims the whole lease and
        double-queues the deferred subset)."""
        ctr = {k: 0 for k in _CTR_KEYS}
        ctr["dequeued"] = len(df)
        t_start = time.perf_counter()
        # politeness: one gate() per politeness shard present in the lease.
        # host→gate mapping computed per lease over UNIQUE hosts (bounded
        # memory — a persistent per-worker host cache would grow with the
        # crawl's distinct-host count at web scale)
        hosts_u, inv = np.unique(df["host"].to_numpy(), return_inverse=True)
        gate_of = np.fromiter(
            (host_shard(h, 0, self.cfg.num_politeness_shards)
             for h in hosts_u),
            dtype=np.int64, count=len(hosts_u))
        gshard = gate_of[inv]
        decisions = np.empty(len(df), dtype=object)
        futs, idxs = [], []
        host_arr = df["host"].to_numpy()
        url_arr = df["url_canon"].to_numpy()
        for g in np.unique(gshard):
            sel = np.flatnonzero(gshard == g)
            futs.append(self.gates[int(g)].gate.remote(
                host_arr[sel].tolist(), url_arr[sel].tolist(), epoch, {}))
            idxs.append(sel)
        for sel, dec in zip(idxs, ray.get(futs)):
            decisions[sel] = dec
        allowed = df[decisions == "allow"]
        deferred = df[decisions == "defer"]
        ctr["allowed"] = len(allowed)
        ctr["deferred"] = len(deferred)
        ctr["robots_denied"] = int((decisions == "robots").sum())
        deferred_out = (deferred[FRONTIER_COLS].reset_index(drop=True)
                        if len(deferred) else None)
        t1 = time.perf_counter()
        ctr["t_gate_us"] = int((t1 - t_start) * 1e6)
        if not len(allowed):
            return ctr, deferred_out
        batch = pa.Table.from_pandas(
            allowed[["url_canon", "depth"]].reset_index(drop=True),
            preserve_index=False)
        # token-named fragment (one per lease): worker-death recovery
        # deletes exactly the reclaimed leases' fragments by name — the
        # refetch rewrites them under new tokens (no dup, no loss)
        content, us, slices = run_content(
            batch, self.fetch_fn, self.parse_fn,
            os.path.join(self.pairs_tmp,
                         f"part-w{self.wid:04d}-s{seq:08d}.parquet"),
            self.cfg.num_shards)
        ctr.update(content)
        ctr["t_work_us"] = us["fetch"] + us["parse"] + us["write"]
        t2 = time.perf_counter()
        futs = [
            self.shards[s].offer_stream.remote(
                canons, hashes, hosts, depths, epoch, self.wid)
            for s, canons, hashes, hosts, depths in slices
        ]
        # acked BEFORE the lease ends — the drain barrier's soundness
        ctr["links_new"] = int(sum(ray.get(futs)))
        ctr["t_offer_us"] = us["links"] + int((time.perf_counter() - t2) * 1e6)
        return ctr, deferred_out

    def _do_checkpoint(self, seq: int) -> None:
        """Checkpoint owner path (any one worker): wait for quiescence
        (pausing makes it a monotone drain), snapshot every shard's
        frontier+filter, the gate buckets and the coordinator counters,
        promote the pairs fragments accumulated since the last checkpoint,
        then write the marker ATOMICALLY and LAST — a kill anywhere in
        this sequence resumes from the previous marker, refetching (never
        duplicating) the rows promoted or fetched after it.

        On ANY failure the coordinator is unpaused before the error
        propagates (checkpoint_done without a marker = this attempt is
        simply skipped; the next one triggers a full fetch-interval
        later) — otherwise a disk-full mid-checkpoint would leave every
        worker spinning on 'pause' forever."""
        cfg = self.cfg
        # pause EVERY clock shard (idempotent; with one coordinator this
        # is the one that already paused), then wait for all open leases
        # everywhere to end and all shard in-flight rows to drain
        ray.get([c.set_pausing.remote() for c in self.coords])
        while not all(ray.get([c.quiesced.remote() for c in self.coords])):
            time.sleep(0.002)
        while sum(ray.get([s.outstanding.remote() for s in self.shards])):
            time.sleep(0.002)
        try:
            ckdir = os.path.join(cfg.out_dir, "ckpt", f"seq{seq:04d}")
            os.makedirs(ckdir, exist_ok=True)
            ray.get([
                s.checkpoint.remote(
                    os.path.join(ckdir, f"frontier-{i}.parquet"),
                    os.path.join(ckdir, f"filter-{i}.bin"))
                for i, s in enumerate(self.shards)
            ])
            payloads = ray.get([g.serialize.remote() for g in self.gates])
            states = ray.get([c.state.remote() for c in self.coords])
            with open(os.path.join(ckdir, "state.json"), "w") as f:
                json.dump({"gates": payloads, "coord": states,
                           # resume must keep the hash-partitioning shape:
                           # a different shard count would probe url hashes
                           # against the wrong filter page (silent dupes);
                           # the clock-shard count likewise pins the
                           # per-coordinator state list
                           "shape": {"num_shards": cfg.num_shards,
                                     "num_politeness_shards":
                                         cfg.num_politeness_shards,
                                     "corpus_size": cfg.corpus_size,
                                     "seed": cfg.seed,
                                     "num_coordinators":
                                         max(1, cfg.num_coordinators)}}, f)
            aio.promote_fragments(
                os.path.join(cfg.out_dir, "pairs"), f"stream-part{seq:04d}",
                self.pairs_tmp, lineage={"mode": "stream", "ckpt": seq})
            tmp = os.path.join(cfg.out_dir, "stream_ckpt.json.tmp")
            with open(tmp, "w") as f:
                json.dump({"seq": seq}, f)
            os.replace(tmp, os.path.join(cfg.out_dir, "stream_ckpt.json"))
        finally:
            ray.get([c.checkpoint_done.remote() for c in self.coords])

    def _drain_check(self) -> bool:
        """Double-poll drain proof. A fanned-out multi-shard read is NOT
        an instantaneous snapshot: with a single poll, a cross-shard link
        transfer can slip between the destination's read (before the
        offer lands) and the source's read (after the worker completes) —
        both report zero while work exists. Two SEQUENTIAL all-shard
        polls that both sum to zero with identical per-shard op
        generations close that window: any in-flight offer must land
        before its source shard can read zero in poll one, so it bumps
        the destination's generation before poll two reads it."""
        if ray.get(self.coord.is_drained.remote()):
            return True
        first = ray.get([s.pending_snapshot.remote() for s in self.shards])
        if sum(p for p, _ in first):
            return False
        second = ray.get([s.pending_snapshot.remote() for s in self.shards])
        if sum(p for p, _ in second) or first != second:
            return False
        # latch EVERY coordinator shard — each worker polls only its own
        ray.get([c.declare_drained.remote() for c in self.coords])
        return True

    def run_loop(self) -> int:
        """Lease until the coordinator drains. Returns leases processed.

        Idle behavior: an empty sweep backs off exponentially (2→32 ms,
        reset on work) and only polls the drain barrier once backed off —
        on a thin frontier dozens of idle workers would otherwise hammer
        the shard actors with 16 dequeue RPCs plus a 16-RPC drain poll
        every 2 ms, contending with the productive leases. Sleep times
        never feed crawl state (determinism holds; only the epoch-clock
        advance rate — a performance knob — changes)."""
        cfg = self.cfg
        rr = self.wid
        n = 0
        idle_sleep = 0.002
        while True:
            epoch = ray.get(self.coord.begin_lease.remote(self.wid))
            if epoch is None:
                return n
            if epoch == "pause":
                # election is global (coordinator 0): forward the pause
                # there first when the clock is sharded, then volunteer
                if self.coords[0] is not self.coord:
                    ray.get(self.coords[0].set_pausing.remote())
                seq = ray.get(
                    self.coords[0].acquire_checkpoint.remote(self.wid))
                if seq is not None:
                    self._do_checkpoint(seq)
                else:
                    time.sleep(0.005)
                continue
            self._seq += 1
            lease_seq = self._seq
            t_dq = time.perf_counter()
            df, src = None, -1
            for j in range(cfg.num_shards):
                s = (rr + j) % cfg.num_shards
                tbl = ray.get(self.shards[s].dequeue_stream.remote(
                    cfg.lease_urls, epoch, self.wid, lease_seq))
                if tbl.num_rows:
                    df = tbl.to_pandas()
                    df["url_hash"] = df["url_hash"].astype(np.uint64)
                    src = s
                    break
            rr = (rr + 1) % cfg.num_shards
            dq_us = int((time.perf_counter() - t_dq) * 1e6)
            if df is None:
                ray.get(self.coord.end_lease.remote(
                    self.wid,
                    {"leases": 1,
                     "t_idle_us": dq_us + int(idle_sleep * 1e6)}))
                if idle_sleep >= 0.032 and self._drain_check():
                    return n
                time.sleep(idle_sleep)
                idle_sleep = min(idle_sleep * 2, 0.032)
                continue
            idle_sleep = 0.002
            ctr, deferred = self._process(df, epoch, lease_seq)
            ctr["leases"] = 1
            ctr["t_dequeue_us"] = dq_us
            # offer RPCs are acked inside _process; completion atomically
            # drops the lease's outstanding rows AND re-queues its
            # deferred subset at the source shard (drain barrier + death
            # recovery soundness — see FrontierShard.complete_stream).
            ray.get(self.shards[src].complete_stream.remote(
                self.wid, lease_seq, deferred, epoch))
            ray.get(self.coord.end_lease.remote(self.wid, ctr))
            n += 1


class StreamCrawlJob:
    """Driver-side assembly: shards + gates + coordinator + worker fleet.
    The driver seeds the frontier, fires ``run_loop`` on every worker,
    waits, finalizes the pairs partition and reports counters."""

    def __init__(self, cfg: StreamCrawlConfig):
        self.cfg = cfg
        self.seen = ShardedSeenSet(
            cfg.num_shards, cfg.filter_capacity,
            spill_threshold=cfg.frontier_spill_rows,
            spill_dir=(os.path.join(cfg.out_dir, "spill")
                       if cfg.frontier_spill_rows is not None else None))
        self.gates = [PolitenessShard.remote(cfg.budgets)
                      for _ in range(cfg.num_politeness_shards)]
        n_coords = max(1, cfg.num_coordinators)
        # per-coordinator epoch cadence ≈ the global one: each clock sees
        # ~1/C of the lease traffic; likewise the checkpoint trigger
        # threshold (any shard hitting its share forwards the pause to
        # coordinator 0 for the global election)
        ckpt_every = cfg.checkpoint_every_fetches
        if ckpt_every is not None and n_coords > 1:
            ckpt_every = max(1, ckpt_every // n_coords)
        self.coords = [
            StreamCoordinator.remote(
                self.seen.shards,
                max(1, cfg.leases_per_epoch // n_coords),
                cfg.max_fetches, ckpt_every)
            for _ in range(n_coords)
        ]
        self.coord = self.coords[0]
        if n_coords > 1 and cfg.max_fetches is not None:
            # wire the cap: coordinator 0 aggregates fetched deltas from
            # the other clock shards and broadcasts the stop at the cap
            ray.get([self.coords[0].set_cap_peers.remote(self.coords[1:])]
                    + [c.set_cap_primary.remote(self.coords[0])
                       for c in self.coords[1:]])
        n_workers = cfg.num_workers or max(
            2, int(ray.cluster_resources().get("CPU", 8)) - 2)
        self.workers = [
            StreamWorker.remote(cfg, self.seen.shards, self.gates,
                                self.coords, i)
            for i in range(n_workers)
        ]
        self._wids = list(range(n_workers))
        self._next_wid = n_workers
        self._deaths = 0

    def prime(self) -> None:
        """Warm every worker's fetch/parse state (benchmarking: excludes
        actor spawn + dictionary load from the timed crawl)."""
        ray.get([w.prime.remote() for w in self.workers])

    @staticmethod
    def _drop_stream_partitions(pairs_root: str, after_seq: int) -> None:
        """Roll back stream-final plus every stream-part beyond
        ``after_seq`` (dir + manifest entry) — their rows are refetched."""
        for key in list(aio.load_manifest(pairs_root)["partitions"]):
            if key == "stream-final" or (
                key.startswith("stream-part")
                and int(key[len("stream-part"):]) > after_seq
            ):
                aio.drop_partition(pairs_root, key)

    def _restore(self) -> bool:
        """Resume from the last complete checkpoint marker. Rolls back
        pairs partitions promoted after the marker and orphan building
        fragments (their rows are still in the restored frontier and will
        be refetched), then restores shard frontiers+filter pages, gate
        buckets, and the coordinator counters/lease clock. Returns False
        when no marker exists (caller seeds a fresh run)."""
        out = self.cfg.out_dir
        pairs_root = os.path.join(out, "pairs")
        building = os.path.join(pairs_root, ".stream.building")
        marker = os.path.join(out, "stream_ckpt.json")
        shutil.rmtree(building, ignore_errors=True)
        if not os.path.exists(marker):
            # no complete checkpoint ⇒ fresh recrawl, so ANY promoted
            # stream partition is stale (the window: a first checkpoint
            # killed between pairs promotion and its marker write would
            # otherwise leave rows that the fresh run fetches again —
            # silent duplicates)
            self._drop_stream_partitions(pairs_root, after_seq=-1)
            return False
        with open(marker) as f:
            seq = int(json.load(f)["seq"])
        self._drop_stream_partitions(pairs_root, after_seq=seq)
        ckdir = os.path.join(out, "ckpt", f"seq{seq:04d}")
        with open(os.path.join(ckdir, "state.json")) as f:
            st = json.load(f)
        shape = st.get("shape", {})
        if shape:  # pre-r5 markers carry no clock-shard count
            shape.setdefault("num_coordinators", 1)
        mine = {"num_shards": self.cfg.num_shards,
                "num_politeness_shards": self.cfg.num_politeness_shards,
                "corpus_size": self.cfg.corpus_size, "seed": self.cfg.seed,
                "num_coordinators": len(self.coords)}
        if shape and shape != mine:
            raise ValueError(
                f"stream resume config mismatch: checkpoint {shape} vs "
                f"job {mine} — the hash-partitioning shape must not change "
                "across a resume")
        ray.get([
            s.restore.remote(os.path.join(ckdir, f"frontier-{i}.parquet"),
                             os.path.join(ckdir, f"filter-{i}.bin"))
            for i, s in enumerate(self.seen.shards)
        ])
        ray.get([g.restore.remote(p)
                 for g, p in zip(self.gates, st["gates"])])
        saved = st["coord"]
        if isinstance(saved, dict):  # pre-r5 single-coordinator layout
            saved = [saved]
        ray.get([c.restore_state.remote(s)
                 for c, s in zip(self.coords, saved)])
        if len(self.coords) > 1 and self.cfg.max_fetches is not None:
            # re-seed coordinator 0's global count from the checkpoint's
            # per-shard counters (re-latches the stop if already over)
            total = sum(int(s["counters"].get("fetched", 0)) for s in saved)
            ray.get(self.coords[0].seed_global_fetched.remote(total))
        return True

    def _supervise(self) -> list[int]:
        """Fire every worker's ``run_loop`` and wait — recovering from
        worker-actor DEATHS (RayActorError — a fail-stop signal, so the
        reclaim can never race a live worker): close the dead worker's
        coordinator leases (and release checkpoint ownership it may have
        held), reclaim its outstanding frontier rows at every shard,
        delete its token-named pairs fragments for exactly the reclaimed
        leases (their rows are refetched — no dup, no loss), adopt any
        partition dir its death orphaned mid-promote, and spawn a
        replacement worker so the fleet size (and the drain) survives
        even an all-workers massacre. Returns per-worker lease counts
        (dead workers contribute nothing — their counters beyond the
        completed leases are lost, a documented schedule-dependent
        artifact)."""
        futs = {w.run_loop.remote(): (wid, w)
                for wid, w in zip(self._wids, self.workers)}
        leases: list[int] = []
        while futs:
            done, _ = ray.wait(list(futs), num_returns=1)
            fut = done[0]
            wid, _w = futs.pop(fut)
            try:
                leases.append(ray.get(fut))
            except ray.exceptions.RayActorError:
                self._recover_worker(wid)
                if not ray.get(self.coord.is_drained.remote()):
                    nw_id = self._next_wid
                    self._next_wid += 1
                    nw = StreamWorker.remote(
                        self.cfg, self.seen.shards, self.gates,
                        self.coords, nw_id)
                    self.workers.append(nw)
                    self._wids.append(nw_id)
                    futs[nw.run_loop.remote()] = (nw_id, nw)
        return leases

    def _recover_worker(self, wid: int) -> None:
        self._deaths += 1
        # 1. the worker's own coordinator closes its open leases; with a
        # sharded clock, coordinator 0 additionally releases checkpoint
        # ownership the dead worker may have held (election lives there)
        own = self.coords[wid % len(self.coords)]
        futs = [own.worker_died.remote(wid)]
        if own is not self.coords[0]:
            futs.append(self.coords[0].worker_died.remote(wid))
        ray.get(futs)
        # 2. shards: fence the wid + requeue its outstanding lease rows
        seq_lists = ray.get([s.reclaim_worker.remote(wid)
                             for s in self.seen.shards])
        # 3. delete the dead worker's fragments for RECLAIMED leases only
        # (completed leases' fragments stay — their rows are not refetched)
        building = os.path.join(self.cfg.out_dir, "pairs",
                                ".stream.building")
        for seqs in seq_lists:
            for seq in seqs:
                frag = os.path.join(
                    building, f"part-w{wid:04d}-s{seq:08d}.parquet")
                if os.path.exists(frag):
                    os.remove(frag)
        # 4. adopt any stream partition the death orphaned between the
        # promote rename and the manifest write (rows exist on disk and
        # their URLs are marked fetched — without adoption readers would
        # silently skip them forever)
        pairs_root = os.path.join(self.cfg.out_dir, "pairs")
        if os.path.isdir(pairs_root):
            manifested = set(aio.load_manifest(pairs_root)["partitions"])
            for d in sorted(os.listdir(pairs_root)):
                if (d.startswith("stream-part") and d not in manifested
                        and os.path.isdir(os.path.join(pairs_root, d))):
                    aio.adopt_partition_dir(
                        pairs_root, d,
                        lineage={"mode": "stream", "recovered": True,
                                 "dead_worker": wid})

    def run(self, resume: bool = False, finalize: bool = True) -> dict:
        """Crawl to drain (or the fetch cap). ``resume=True`` continues a
        killed run from its last checkpoint marker (fresh start if none).
        ``finalize=False`` skips the final pairs promotion — test hook to
        simulate a kill after the workers stop."""
        pairs_root = os.path.join(self.cfg.out_dir, "pairs")
        n_seeds = 0
        if not (resume and self._restore()):
            # fresh start into a possibly-dirty out_dir: stale building
            # fragments and stream partitions would duplicate this run's
            shutil.rmtree(os.path.join(pairs_root, ".stream.building"),
                          ignore_errors=True)
            if os.path.isdir(pairs_root):
                self._drop_stream_partitions(pairs_root, after_seq=-1)
            n_seeds = self.seen.seed_urls(self.cfg.seeds)
        leases = self._supervise()
        ctrs = ray.get([c.counters.remote() for c in self.coords])
        ctr = {k: sum(c[k] for c in ctrs) for k in _CTR_KEYS}
        if finalize:
            aio.promote_fragments(
                pairs_root, "stream-final",
                os.path.join(pairs_root, ".stream.building"),
                lineage={"mode": "stream", "seeds": n_seeds,
                         "fetched": ctr["fetched"]})
        return {
            "counters": ctr,
            "seeds": n_seeds,
            "worker_leases": leases,
            "seen_total": self.seen.total(),
        }

    def shutdown(self) -> None:
        for w in self.workers:
            ray.kill(w)
        for c in self.coords:
            ray.kill(c)
        for g in self.gates:
            ray.kill(g)
        self.seen.shutdown()
        self.workers, self.gates, self.coords = [], [], []
