"""Sharded frontier + URL-seen dedupe (SURVEY.md §2.4 J3, §2.7 D2; the
"sharded priority queue over canonicalized-URL hash partitions with a
per-shard cuckoo filter" of the BASELINE.json north rule).

The URL-seen set and the frontier priority queue are the two pieces of state
the Dataset API genuinely cannot express (shared mutable indexes mutated
mid-pipeline), so they drop to raw Ray actors: one ``FrontierShard`` per
``url_hash % S`` key range, owning BOTH that range's cuckoo-filter page and
its slice of the priority queue. Candidates are routed by hash — an explicit
hash-partitioned exchange moving only (canon, hash, host, depth) projections
— and every per-wave frontier operation (dequeue top-k, enqueue-merge,
checkpoint parquet write) happens inside the warm actor, worker-side; the
driver only ever sees the k dequeued rows and counters.

Queue layout is LSM-ish: a list of sorted runs (each sorted by priority
desc, url_canon asc). Dequeue top-k merges the run heads; each wave's new
links append one sorted run; checkpoint compacts to a single run and writes
it as the shard's frontier parquet. At 10^10-URL scale the compacted tail
would live as parquet runs on disk with only the head rows resident — the
run structure here is exactly that design with the spill threshold above the
test corpus size.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..state.filters import CuckooFilter, deserialize_filter
from .frontier import FRONTIER_COLS, empty_frontier_table, sorted_frontier_table
from .links import canonicalize_url, host_of, url_hash64


def _sort_run(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(
        ["priority", "url_canon"], ascending=[False, True]
    ).reset_index(drop=True)


def _head_key(df: pd.DataFrame, i: int = 0) -> tuple:
    """Ascending merge key of row i: (-priority, url_canon)."""
    return (-int(df["priority"].iloc[i]), df["url_canon"].iloc[i])


def _rows_not_after(df: pd.DataFrame, bound: tuple) -> int:
    """Count of leading rows of a sorted frame with key <= bound."""
    bp, bc = -bound[0], bound[1]
    pr = df["priority"].to_numpy()
    mask = (pr > bp) | ((pr == bp) & (df["url_canon"].to_numpy() <= bc))
    # sorted frame → mask is a prefix; count it
    return int(mask.sum())


def _merge_sorted_to_parquet(sources, out_path: str, tee_head: int = 0,
                             tee_tail_path: str | None = None):
    """Bounded-memory k-way merge of sorted frontier streams → one sorted
    parquet. ``sources`` yield sorted DataFrame chunks (each stream globally
    sorted by priority desc, url_canon asc). Memory = one chunk per stream.

    With ``tee_head``/``tee_tail_path`` set, the SAME pass also splits the
    merged stream: the first ``tee_head`` rows are returned as a DataFrame
    and every later row is appended to a second (tail) parquet — so a
    checkpoint + head/tail re-split costs one merge, not a re-read.
    Returns (total_rows, head_df | None, tail_rows)."""
    bufs: list[pd.DataFrame | None] = []
    iters = []
    for src in sources:
        it = iter(src)
        iters.append(it)
        bufs.append(next(it, None))
    schema = sorted_frontier_table(pd.DataFrame(columns=FRONTIER_COLS)).schema
    writer = pq.ParquetWriter(out_path, schema)
    tail_writer = None
    head_frames: list[pd.DataFrame] = []
    total = tail_rows = 0

    def emit(out: pd.DataFrame) -> None:
        nonlocal total, tail_rows, tail_writer
        writer.write_table(sorted_frontier_table(out))
        if tee_tail_path is not None:
            taken = sum(len(h) for h in head_frames)
            if taken < tee_head:
                take = min(tee_head - taken, len(out))
                head_frames.append(out.iloc[:take])
                out = out.iloc[take:]
            if len(out):
                if tail_writer is None:
                    tail_writer = pq.ParquetWriter(tee_tail_path, schema)
                tail_writer.write_table(sorted_frontier_table(out))
                tail_rows += len(out)
        total += len(out) if tee_tail_path is None else 0
    try:
        while True:
            # advance any drained-empty buffers so no stream stalls silently
            for i, b in enumerate(bufs):
                while b is not None and not len(b):
                    b = bufs[i] = next(iters[i], None)
            live = [i for i, b in enumerate(bufs) if b is not None and len(b)]
            if not live:
                break
            if len(live) == 1:
                i = live[0]
                emit(bufs[i])
                bufs[i] = next(iters[i], None)
                continue
            # source with the smallest head key emits its prefix up to the
            # smallest OTHER head key (safe: streams are sorted)
            heads = [(_head_key(bufs[i]), i) for i in live]
            heads.sort()
            (_, lead), (other_key, _) = heads[0], heads[1]
            n = max(1, _rows_not_after(bufs[lead], other_key))
            emit(bufs[lead].iloc[:n])
            rest = bufs[lead].iloc[n:]
            bufs[lead] = rest if len(rest) else next(iters[lead], None)
    finally:
        writer.close()
        if tail_writer is not None:
            tail_writer.close()
    head = (pd.concat(head_frames, ignore_index=True) if head_frames else None)
    if tee_tail_path is not None:
        total = (len(head) if head is not None else 0) + tail_rows
    return total, head, tail_rows


def _parquet_chunks(path: str, chunk_rows: int = 65536):
    """Stream a sorted frontier parquet as DataFrame chunks."""
    pf = pq.ParquetFile(path)
    for batch in pf.iter_batches(batch_size=chunk_rows):
        df = batch.to_pandas()
        df["url_hash"] = df["url_hash"].astype(np.uint64)
        yield df


@ray.remote(num_cpus=0.05)
class FrontierShard:
    """Owns one hash shard: cuckoo-filter page + frontier priority-queue
    slice + the wave-scoped enqueue buffer.

    Crawl tasks ``offer()`` candidate links straight to their shard (the RPC
    is the explicit hash-partitioned exchange), and ``enqueue_flush()``
    merges the wave's survivors into the queue at wave end.

    Determinism under concurrent offers: a hash's pending metadata is the
    MIN over every (depth, url_canon, host) offered this wave — a
    commutative merge, so task arrival order cannot change the enqueued
    rows. The cuckoo probe itself is insertion-order-independent (an entry's
    two candidate buckets form a set closed under ``i ^ hash(fp)``, so a
    query sees the fingerprint wherever it landed), and offer() never
    mutates the filter — inserts happen at flush in sorted-hash order.

    VISIBILITY (overlapped-wave determinism): rows enter the queue in
    *future buckets* tagged with the first wave allowed to dequeue them —
    flush(k)'s links at ``k + 2``, wave-k defers at ``k + 1`` — and
    ``dequeue(k, wave=k)`` migrates only buckets whose tag ≤ k before
    taking its top-k. Dequeue results are therefore a pure function of the
    sequence of shard *operations*, never of when a concurrently-running
    wave's flush happens to land: the driver may overlap wave k's
    fetch/parse with wave k+1's dequeue (software-pipelined waves) and the
    trace is identical to a fully serial schedule. Offers are buffered per
    wave so two in-flight waves can't mix their pending sets.

    CPU reservation is 0.05: offers are fire-and-forget (tasks never block
    on this actor mid-wave), so the old starve-the-shard convoy (which
    needed 0.2) can't happen; the flush drain runs after the wave's compute
    has released its CPUs."""

    def __init__(self, capacity: int = 1 << 16, spill_threshold: int | None = None,
                 spill_path: str | None = None):
        self.filter = CuckooFilter(capacity)
        self.pending: dict[int, dict[int, tuple]] = {}  # wave -> hash -> meta
        self.offered: dict[int, int] = {}               # wave -> rows offered
        self._held: pd.DataFrame | None = None          # dequeue_hold → park
        self.future: list[tuple[int, pd.DataFrame]] = []  # (visible_at, sorted run)
        self.runs: list[pd.DataFrame] = []
        self.max_runs = 8  # compact when exceeded (amortized O(log) merges)
        # disk spill (LSM-ish): keep only the sorted HEAD in memory; each
        # overflow appends a NEW sorted run parquet (O(new rows) I/O);
        # checkpoints fold all runs via a bounded-memory k-way merge.
        # None = unbounded memory (test scale)
        self.spill_threshold = spill_threshold
        self.spill_path = spill_path  # path prefix for run files
        self.spill_runs: list[dict] = []  # {path, rows, best_key}
        self.spill_seq = 0
        # streaming-mode in-flight accounting (see dequeue_stream);
        # _op_gen counts every state-changing stream op so the drain
        # check can detect activity between two non-atomic snapshot polls
        self._outstanding = 0
        self._op_gen = 0
        # per-lease outstanding ROWS, keyed by (worker id, lease seq):
        # worker-death recovery requeues exactly these (reclaim_worker).
        # _dead_workers fences late RPCs from a worker the driver has
        # declared dead (fail-stop: declared only on RayActorError, never
        # on a timeout — so no zombie can race its own reclaim)
        self._lease_rows: dict[tuple[int, int], pd.DataFrame] = {}
        self._dead_workers: set[int] = set()

    # -- URL-seen membership ------------------------------------------------
    def check_and_add(self, hashes: list[int]) -> list[bool]:
        """For each hash (in order): True if new (now recorded).
        Vectorized numpy probe (filters.check_and_add_many) under the hood."""
        return self.filter.check_and_add_many(
            np.asarray(hashes, dtype=np.uint64)
        ).tolist()

    def contains(self, hashes: list[int]) -> list[bool]:
        return self.filter.contains_many(np.asarray(hashes, dtype=np.uint64)).tolist()

    # -- wave enqueue path --------------------------------------------------
    def offer(self, canons: list[str], hashes: list[int], hosts: list[str],
              depths: list[int], wave: int = 0) -> int:
        """Accept candidate links for this shard's hash range, buffered per
        wave (two overlapped in-flight waves never mix). The filter is only
        PROBED here — never mutated — so two new same-wave hashes that alias
        in the filter both stay pending regardless of task arrival order;
        filter insertion happens once, in sorted-hash order, at
        ``enqueue_flush`` (replay invariant: the filter's contents are a pure
        function of the wave's offered set, not of RPC arrival order)."""
        self.offered[wave] = self.offered.get(wave, 0) + len(hashes)
        pending = self.pending.setdefault(wave, {})
        hs = np.asarray(hashes, dtype=np.uint64)
        known = self.filter.contains_many(hs)
        for i, h in enumerate(hs):
            h = int(h)
            prev = pending.get(h)
            if prev is not None:
                cand = (int(depths[i]), canons[i], hosts[i])
                if cand < prev:
                    pending[h] = cand
            elif not known[i]:
                pending[h] = (int(depths[i]), canons[i], hosts[i])
        return len(hashes)

    def offer_stream(self, canons: list[str], hashes: list[int],
                     hosts: list[str], depths: list[int],
                     epoch: int = 0, wid: int | None = None) -> int:
        """Streaming-mode offer: dedupe against the filter and enqueue
        IMMEDIATELY — no wave buffer, no flush barrier (the streaming
        crawl's continuous frontier). In-call min-merge on
        (depth, url, host), then filter ``check_and_add`` in sorted-hash
        order. Returns the number of new URLs enqueued.

        Determinism contract (weaker than waves, documented in
        pipelines/stream_crawl.py): enqueue ORDER depends on RPC arrival
        order, but the SET of enqueued urls is arrival-order-independent
        up to cuckoo false-positive aliasing (membership probes are
        insertion-order-independent; an FP pair could resolve differently
        only when the aliasing hash is probed before vs after its partner
        is inserted). A fenced (dead) worker's late offer is dropped —
        its lease was reclaimed and the refetch re-offers these links."""
        if wid is not None and wid in self._dead_workers:
            return 0
        best: dict[int, tuple] = {}
        hs = np.asarray(hashes, dtype=np.uint64)
        for i, h in enumerate(hs):
            h = int(h)
            cand = (int(depths[i]), canons[i], hosts[i])
            prev = best.get(h)
            if prev is None or cand < prev:
                best[h] = cand
        items = sorted(best.items())
        if not items:
            return 0
        is_new = self.filter.check_and_add_many(
            np.array([h for h, _ in items], dtype=np.uint64)
        )
        new_items = [it for it, keep in zip(items, is_new) if keep]
        if new_items:
            d = np.array([v[0] for _, v in new_items], dtype=np.int64)
            run = pd.DataFrame(
                {
                    "url_canon": [v[1] for _, v in new_items],
                    "url_hash": np.array([h for h, _ in new_items],
                                         dtype=np.uint64),
                    "host": [v[2] for _, v in new_items],
                    "priority": np.maximum(1, 100 - 10 * d),
                    "depth": d,
                    "discovered_at": np.int64(epoch),
                }
            )
            self._add_run(_sort_run(run))
            self._maybe_spill()
            self._op_gen += 1
        return len(new_items)

    def enqueue_flush(self, wave: int, expected: int | None = None,
                      visible_at: int | None = None) -> tuple[int, int] | None:
        """Merge this wave's surviving links into the priority queue as one
        sorted run (visible to dequeues from ``visible_at`` on — the
        driver passes wave + visibility_lag; default wave+2, the
        overlapped-pipeline latency); reset the wave's buffers. Returns
        (offered, new).

        ``expected`` is the wave's offer-reconciliation barrier: tasks fire
        offers without acks and report per-shard row counts; if fewer rows
        than expected have arrived the flush returns ``None`` untouched and
        the driver retries (actors process messages in order, so once the
        count matches every offer has been applied). The early contains-
        probe in ``offer`` may under-drop when another wave's flush lands in
        between — the authoritative check_and_add here settles it."""
        if expected is not None and self.offered.get(wave, 0) < expected:
            return None
        links = self.offered.pop(wave, 0)
        pending = self.pending.pop(wave, {})
        new_items: list[tuple[int, tuple]] = []
        if pending:
            items = sorted(pending.items())  # by hash: deterministic
            is_new = self.filter.check_and_add_many(
                np.array([h for h, _ in items], dtype=np.uint64)
            )
            new_items = [it for it, keep in zip(items, is_new) if keep]
        if new_items:
            depths = np.array([v[0] for _, v in new_items], dtype=np.int64)
            run = pd.DataFrame(
                {
                    "url_canon": [v[1] for _, v in new_items],
                    "url_hash": np.array([h for h, _ in new_items], dtype=np.uint64),
                    "host": [v[2] for _, v in new_items],
                    "priority": np.maximum(1, 100 - 10 * depths),
                    "depth": depths,
                    "discovered_at": np.int64(wave),
                }
            )
            self.future.append(
                (wave + 2 if visible_at is None else visible_at, _sort_run(run))
            )
        links_new = len(new_items)
        return links, links_new

    # -- priority queue -----------------------------------------------------
    def _add_run(self, run: pd.DataFrame) -> None:
        if len(run):
            self.runs.append(run)
        if len(self.runs) > self.max_runs:
            self._compact()
        self._maybe_spill()

    def _compact(self) -> pd.DataFrame:
        merged = (
            _sort_run(pd.concat(self.runs, ignore_index=True))
            if self.runs
            else pd.DataFrame(columns=FRONTIER_COLS)
        )
        self.runs = [merged] if len(merged) else []
        return merged

    # -- disk spill (head-in-memory / sorted run files on parquet) ----------
    def _mem_rows(self) -> int:
        return sum(len(r) for r in self.runs)

    def _spilled_rows(self) -> int:
        return sum(r["rows"] for r in self.spill_runs)

    def _maybe_spill(self) -> None:
        if self.spill_threshold is None or self._mem_rows() <= self.spill_threshold:
            return
        merged = self._compact()
        head_n = max(1, self.spill_threshold // 2)
        head, tail = merged.iloc[:head_n], merged.iloc[head_n:]
        if len(tail):
            path = f"{self.spill_path}.run{self.spill_seq}"
            self.spill_seq += 1
            pq.write_table(sorted_frontier_table(tail), path)
            self.spill_runs.append({
                "path": path, "rows": len(tail), "best_key": _head_key(tail),
            })
        self.runs = [head.reset_index(drop=True)] if len(head) else []

    def _unspill(self) -> None:
        """Load every spilled run back (rare: only when the in-memory head
        drains to the spill boundary)."""
        for rec in self.spill_runs:
            tail = pq.read_table(rec["path"]).to_pandas()
            tail["url_hash"] = tail["url_hash"].astype(np.uint64)
            self.runs.append(tail)
            os.remove(rec["path"])
        self.spill_runs = []
        if len(self.runs) > self.max_runs:
            self._compact()

    def _spill_may_beat(self, k: int) -> bool:
        """True when a spilled run could contain one of the global top-k
        (conservative: compares the spill's best key to the in-memory k-th)."""
        if not self.spill_runs:
            return False
        if self._mem_rows() < k:
            return True
        heads = pd.concat([r.head(k) for r in self.runs])
        order = heads.sort_values(["priority", "url_canon"],
                                  ascending=[False, True], kind="mergesort").head(k)
        kth = (-int(order["priority"].iloc[-1]), order["url_canon"].iloc[-1])
        best = min(r["best_key"] for r in self.spill_runs)
        return best < kth

    def seed(self, rows: pd.DataFrame) -> int:
        """Initial frontier rows for this shard (seeds are pre-deduped by
        the driver through check_and_add)."""
        if len(rows):
            self._add_run(_sort_run(rows[FRONTIER_COLS]))
            self._op_gen += 1
        return sum(len(r) for r in self.runs)

    def _migrate_future(self, wave: int | None) -> None:
        """Move future buckets whose visibility tag ≤ wave into the active
        queue. ``wave=None`` (non-crawl callers) migrates everything."""
        if not self.future:
            return
        keep: list[tuple[int, pd.DataFrame]] = []
        for visible_at, run in self.future:
            if wave is None or visible_at <= wave:
                self._add_run(run)
            else:
                keep.append((visible_at, run))
        self.future = keep

    def dequeue(self, k: int, wave: int | None = None) -> pa.Table:
        """Remove and return the shard's top-k rows (priority desc, url
        asc) among rows visible at ``wave``: merge the sorted run heads —
        never a full re-sort. Reloads the spilled tail only when it could
        contain a top-k row."""
        self._migrate_future(wave)
        if k <= 0:
            return empty_frontier_table()
        if self._spill_may_beat(k):
            self._unspill()
        if not self.runs:
            return empty_frontier_table()
        heads = pd.concat([r.head(k) for r in self.runs], keys=range(len(self.runs)))
        order = heads.sort_values(
            ["priority", "url_canon"], ascending=[False, True], kind="mergesort"
        ).head(k)
        taken_per_run = order.groupby(level=0).size()
        out = order.reset_index(drop=True)
        new_runs = []
        for ridx, run in enumerate(self.runs):
            n = int(taken_per_run.get(ridx, 0))
            rest = run.iloc[n:].reset_index(drop=True) if n else run
            if len(rest):
                new_runs.append(rest)
        self.runs = new_runs
        return pa.Table.from_pandas(
            out[FRONTIER_COLS], preserve_index=False
        ).cast(empty_frontier_table().schema)

    def dequeue_hold(self, k: int, wave: int) -> dict:
        """Dequeue the shard's top-k visible rows but HOLD them locally
        (the shard→gate handoff path): only the row count and per-host
        counts return to the driver, which needs them for the hot-host
        salt decision. ``route_to_gates`` ships the held rows straight to
        the politeness actors; ``park`` releases the hold."""
        assert getattr(self, "_held", None) is None, "previous hold not routed"
        tbl = self.dequeue(k, wave)
        df = tbl.to_pandas()
        if len(df):
            df["url_hash"] = df["url_hash"].astype(np.uint64)
            self._held = df  # an empty hold needs no route() to clear it
        counts = df["host"].value_counts().to_dict() if len(df) else {}
        return {"n": len(df), "hosts": counts}

    def route_to_gates(self, wave: int, salts: dict, gates: list,
                       num_gate_shards: int, src: int) -> list[int]:
        """Partition the held rows by politeness shard (hot hosts salted by
        url_hash) and push each slice actor→actor to its gate's collect
        buffer as plain column lists, tagged with this shard's index
        ``src`` and each row's position in the hold. The hold stays here
        until ``park``. Returns per-gate row counts (the driver's decide
        barrier). Rows never touch the driver."""
        from .politeness_stage import host_shard

        df = self._held
        per_gate = [0] * num_gate_shards
        if df is None or not len(df):
            return per_gate
        hashes = df["url_hash"].to_numpy(dtype=np.uint64)
        hosts = df["host"].tolist()
        gshard = np.empty(len(df), dtype=np.int64)
        cache: dict[tuple, int] = {}
        for i, h in enumerate(hosts):
            n_salts = salts.get(h, 1)
            salt = int(hashes[i] % np.uint64(n_salts)) if n_salts > 1 else 0
            key = (h, salt)
            g = cache.get(key)
            if g is None:
                g = cache[key] = host_shard(h, salt, num_gate_shards)
            gshard[i] = g
        urls = df["url_canon"].tolist()
        prios = df["priority"].tolist()
        depths = df["depth"].tolist()
        acks = []
        for g in range(num_gate_shards):
            sel = np.flatnonzero(gshard == g).tolist()
            if sel:
                acks.append(gates[g].collect.remote(wave, (
                    src, sel, [urls[i] for i in sel], [hosts[i] for i in sel],
                    [prios[i] for i in sel], [depths[i] for i in sel],
                )))
                per_gate[g] = len(sel)
        # block until the gates have BUFFERED every slice: the driver
        # ray.gets this call before firing decide(), so decide's barrier
        # is satisfied on its first poll (no retry round-trips). Safe —
        # collect never calls back into a FrontierShard.
        ray.get(acks)
        return per_gate

    def park(self, wave: int, positions: list[int]) -> int:
        """Release the hold routed for ``wave``: the rows the gates
        deferred (``positions`` in the hold, any order) stay in this
        shard as one run re-eligible from wave+1 — the same ``future``
        entry ``defer`` of those rows makes, without their round trip
        through the gates. A subset of the sorted hold is sorted."""
        held, self._held = self._held, None
        if len(positions):
            run = held.iloc[np.sort(np.asarray(positions, dtype=np.int64))]
            self.future.append((wave + 1, run.reset_index(drop=True)))
            self._op_gen += 1
        return len(positions)

    def defer(self, rows: pd.DataFrame, wave: int | None = None) -> int:
        """Deferred (politeness) rows go back as their own run, re-eligible
        from wave+1 (immediately for non-crawl callers)."""
        if len(rows):
            run = _sort_run(rows[FRONTIER_COLS])
            if wave is None:
                self._add_run(run)
            else:
                self.future.append((wave + 1, run))
            self._op_gen += 1
        return len(rows)

    def frontier_size(self) -> int:
        return (self._mem_rows() + self._spilled_rows()
                + sum(len(r) for _, r in self.future))

    # -- streaming-mode lease path (pipelines/stream_crawl.py) --------------
    def dequeue_stream(self, k: int, epoch: int | None = None,
                       wid: int = 0, seq: int = 0) -> pa.Table:
        """``dequeue`` plus in-flight accounting: the returned rows are
        kept as *outstanding* at this shard ATOMICALLY with their
        removal from the queue (stored under the (wid, seq) lease token),
        so `pending_total` can never observe the moment where rows are
        neither queued nor outstanding. The worker acks with
        ``complete_stream`` only AFTER its offer RPCs are acked — by then
        every row it touched is re-counted somewhere — which makes the
        streaming drain barrier sound without any coordinator-side busy
        counting (that version raced: idle workers' leases kept busy>0
        forever). A dead worker's fenced dequeue returns empty."""
        if wid in self._dead_workers:
            return empty_frontier_table()
        tbl = self.dequeue(k, epoch)
        if tbl.num_rows:
            df = tbl.to_pandas()
            df["url_hash"] = df["url_hash"].astype(np.uint64)
            self._lease_rows[(int(wid), int(seq))] = df
            self._outstanding += tbl.num_rows
            self._op_gen += 1
        return tbl

    def complete_stream(self, wid: int, seq: int,
                        deferred: pd.DataFrame | None = None,
                        epoch: int | None = None) -> int:
        """Worker finished the (wid, seq) leased slice (offers already
        acked): atomically drop the outstanding rows AND re-queue the
        lease's politeness-deferred rows (re-eligible next epoch). The
        defer rides INSIDE completion — a lease's rows all hash to this
        shard, so a separate defer RPC would only open a crash window
        where some deferred rows are re-queued while the whole lease is
        still outstanding (a later worker-death reclaim would then
        duplicate them). Returns remaining outstanding rows."""
        df = self._lease_rows.pop((int(wid), int(seq)), None)
        if df is None:
            # lease already reclaimed (fenced) — nothing to account
            return self._outstanding
        self._outstanding -= len(df)
        assert self._outstanding >= 0, "complete_stream over-ack"
        if deferred is not None and len(deferred):
            run = _sort_run(deferred[FRONTIER_COLS])
            if epoch is None:
                self._add_run(run)
            else:
                self.future.append((epoch + 1, run))
        self._op_gen += 1
        return self._outstanding

    def reclaim_worker(self, wid: int) -> list[int]:
        """Worker-death recovery (driver-triggered on a REAL actor death,
        never a timeout): fence the worker id, then requeue every
        outstanding lease it held — the rows become immediately
        re-eligible and a live worker refetches them. Returns the
        reclaimed lease seqs so the driver can delete the dead worker's
        token-named pairs fragments for exactly those leases (the
        refetch rewrites them — no duplicate, no loss)."""
        self._dead_workers.add(int(wid))
        seqs: list[int] = []
        for (w, s) in list(self._lease_rows):
            if w == int(wid):
                df = self._lease_rows.pop((w, s))
                self._outstanding -= len(df)
                self._add_run(_sort_run(df[FRONTIER_COLS]))
                seqs.append(s)
        if seqs:
            self._op_gen += 1
        return sorted(seqs)

    def pending_total(self) -> int:
        """Queued + deferred + in-flight rows owned by this shard — the
        streaming drain check (zero everywhere ⇒ no work exists)."""
        return self.frontier_size() + self._outstanding

    def pending_snapshot(self) -> tuple[int, int]:
        """(pending_total, op generation) — the drain check's double-poll
        unit. A fanned-out multi-shard read is not an instantaneous
        snapshot; two sequential all-shard polls that BOTH sum to zero
        with IDENTICAL generation vectors prove quiescence (any in-flight
        link transfer lands before the first poll's source-shard read and
        therefore bumps the destination's generation before the second
        poll reads it)."""
        return self.frontier_size() + self._outstanding, self._op_gen

    def outstanding(self) -> int:
        """In-flight rows only (streaming checkpoint quiescence poll)."""
        return self._outstanding

    # -- checkpoint ---------------------------------------------------------
    def checkpoint(self, frontier_path: str, filter_path: str) -> int:
        """Worker-side checkpoint write: compact the queue to one sorted run
        → the shard's frontier parquet, plus the filter page. Returns the
        shard's frontier row count."""
        # checkpoint = the FULL frontier (resume-compatible) via a bounded-
        # memory k-way merge: in-memory head + each spilled run stream in
        # sorted chunks; peak memory stays O(head + chunk), never the tail.
        # When spill is active the SAME pass tees the merged stream into the
        # next head (in memory) and a fresh compacted tail run — no re-read.
        merged = self._compact()
        sources = [[merged]] if len(merged) else []
        old_runs = self.spill_runs
        sources += [_parquet_chunks(r["path"]) for r in old_runs]
        if not sources:
            pq.write_table(empty_frontier_table(), frontier_path)
            total = 0
        elif not old_runs:
            total, _h, _t = _merge_sorted_to_parquet(sources, frontier_path)
        else:
            head_n = (max(1, self.spill_threshold // 2)
                      if self.spill_threshold is not None else 1 << 62)
            tail_path = f"{self.spill_path}.run{self.spill_seq}"
            self.spill_seq += 1
            total, head, tail_rows = _merge_sorted_to_parquet(
                sources, frontier_path, tee_head=head_n, tee_tail_path=tail_path,
            )
            for rec in old_runs:
                os.remove(rec["path"])
            self.runs = [head] if head is not None and len(head) else []
            if tail_rows:
                first_tail = pq.ParquetFile(tail_path).read_row_group(0).to_pandas()
                self.spill_runs = [{
                    "path": tail_path, "rows": tail_rows,
                    "best_key": _head_key(first_tail),
                }]
            else:
                self.spill_runs = []
                if os.path.exists(tail_path):
                    os.remove(tail_path)
        # future (not-yet-visible) buckets: tiny (≤ pipeline-depth runs),
        # persisted beside the active frontier with their visibility tags
        fut_path = frontier_path + ".future"
        if self.future:
            frames = []
            for visible_at, run in sorted(self.future, key=lambda t: t[0]):
                f_ = run.copy()
                f_["visible_at"] = np.int64(visible_at)
                frames.append(f_)
            fut = pd.concat(frames, ignore_index=True)
            tbl = pa.Table.from_pandas(fut, preserve_index=False)
            pq.write_table(tbl, fut_path)
            total += len(fut)
        elif os.path.exists(fut_path):
            os.remove(fut_path)
        with open(filter_path, "wb") as f:
            f.write(self.filter.serialize())
        return total

    def restore(self, frontier_path: str, filter_path: str) -> int:
        with open(filter_path, "rb") as f:
            self.filter = deserialize_filter(f.read())
        # remove every run file under this shard's prefix — including
        # orphans left by a killed process with a different spill_seq
        import glob as _glob

        if self.spill_path:
            for pth in _glob.glob(f"{self.spill_path}.run*"):
                os.remove(pth)
        self.spill_runs = []
        df = pq.read_table(frontier_path).to_pandas()
        if len(df):
            df["url_hash"] = df["url_hash"].astype(np.uint64)
            self.runs = [df]
            self._maybe_spill()
        else:
            self.runs = []
        self.future = []
        fut_path = frontier_path + ".future"
        if os.path.exists(fut_path):
            fut = pq.read_table(fut_path).to_pandas()
            fut["url_hash"] = fut["url_hash"].astype(np.uint64)
            for visible_at, grp in fut.groupby("visible_at", sort=True):
                self.future.append(
                    (int(visible_at), grp[FRONTIER_COLS].reset_index(drop=True))
                )
        self.pending = {}
        self.offered = {}
        self._lease_rows = {}
        self._dead_workers = set()
        self._outstanding = 0
        return self.filter.count

    def size(self) -> int:
        return self.filter.count

    def serialize(self) -> bytes:
        return self.filter.serialize()


# backwards-compatible alias (the actor also serves as the plain URL-seen
# filter shard outside the crawl loop)
FilterShard = FrontierShard


class ShardedSeenSet:
    """Driver-side handle over the S filter/frontier shards."""

    def __init__(self, num_shards: int = 8, capacity_per_shard: int = 1 << 16,
                 spill_threshold: int | None = None, spill_dir: str | None = None):
        self.num_shards = num_shards
        if spill_threshold is not None:
            assert spill_dir, "spill_threshold requires spill_dir"
            os.makedirs(spill_dir, exist_ok=True)
        self.shards = [
            FrontierShard.options(name=None).remote(
                capacity_per_shard, spill_threshold,
                os.path.join(spill_dir, f"spill-shard{s}.parquet") if spill_dir else None,
            )
            for s in range(num_shards)
        ]

    def _route(self, hashes: np.ndarray) -> list[np.ndarray]:
        shard_ids = hashes % np.uint64(self.num_shards)
        return [np.flatnonzero(shard_ids == s) for s in range(self.num_shards)]

    def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
        """Vector in, boolean 'is new' vector out; one RPC per shard."""
        hashes = np.asarray(hashes, dtype=np.uint64)
        out = np.zeros(len(hashes), dtype=bool)
        index_groups = self._route(hashes)
        futures = []
        for s, idxs in enumerate(index_groups):
            if idxs.size:
                futures.append((idxs, self.shards[s].check_and_add.remote(hashes[idxs].tolist())))
        for idxs, fut in futures:
            out[idxs] = ray.get(fut)
        return out

    def seed_urls(self, urls: list[str]) -> int:
        """Canonicalize seed URLs, drop repeats and URLs the seen-set
        already holds (seeds enter it at once: enqueue-once semantics),
        and seed the rest into their owning shards at priority 100, depth
        0. Returns the number of URLs seeded."""
        rows = []
        for url in urls:
            canon = canonicalize_url(url)
            rows.append({
                "url_canon": canon,
                "url_hash": np.uint64(url_hash64(canon)),
                "host": host_of(canon),
                "priority": 100,
                "depth": 0,
                "discovered_at": 0,
            })
        df = pd.DataFrame(rows, columns=FRONTIER_COLS)
        df = df.drop_duplicates("url_hash").reset_index(drop=True)
        df = df[self.check_and_add(
            df["url_hash"].to_numpy(dtype=np.uint64))].reset_index(drop=True)
        sid = (df["url_hash"].to_numpy(dtype=np.uint64)
               % np.uint64(self.num_shards)).astype(np.int64)
        ray.get([
            self.shards[s].seed.remote(df[sid == s].reset_index(drop=True))
            for s in range(self.num_shards) if (sid == s).any()
        ])
        return len(df)

    def total(self) -> int:
        return sum(ray.get([s.size.remote() for s in self.shards]))

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []
