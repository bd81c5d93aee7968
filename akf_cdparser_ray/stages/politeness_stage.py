"""Politeness gate shards (SURVEY.md §2.3 ST6, §2.4 J4).

Per-host robots caches + wave-refilled token buckets pinned to actors by
``hash(host) % P``. Hot hosts are salted over several shards
(``hash(host) ⊕ salt``), each salted slice holding ``budget / n_salts`` —
the explicit skew-splitting the north rule demands. One RPC per shard per
wave; decisions are deterministic given (bucket state, wave, sorted input).

The decision is one Python pass (``PolitenessShard._decide``; a pandas
groupby cost ~1 ms per host group whatever the row count), and the wave
handoff moves plain column lists both ways, so no object-store put and no
pickled DataFrame sits on the per-wave control path.
"""

from __future__ import annotations

import hashlib
import json

import ray

from ..state.politeness import PolitenessState, TokenBucket, synth_robots_txt


def host_shard(host: str, salt: int, num_shards: int) -> int:
    digest = hashlib.blake2b(f"{host}|{salt}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") % num_shards


def gated_slice_blocks(urls: list[str], priorities: list[int],
                       depths: list[int], decisions: list[str],
                       task_urls: int) -> dict:
    """One gate's decided slice, sorted (priority desc, url asc), as the
    driver-facing handoff: the allowed rows as task_urls-sized
    ``(urls, depths)`` blocks (one fetch task each), the decision counts
    and the allowed (priority, url) trace pairs. Shared by
    ``PolitenessShard.decide`` and checkpoint resume (from the staged
    slice), so both produce the same blocks."""
    allowed = [i for i, d in enumerate(decisions) if d == "allow"]
    a_urls = [urls[i] for i in allowed]
    a_depths = [depths[i] for i in allowed]
    n_defer = decisions.count("defer")
    return {
        "counts": {
            "total": len(decisions),
            "allow": len(allowed),
            "defer": n_defer,
            "robots": len(decisions) - len(allowed) - n_defer,
        },
        "blocks": [
            (a_urls[i: i + task_urls], a_depths[i: i + task_urls])
            for i in range(0, len(allowed), task_urls)
        ],
        "trace": [(priorities[i], urls[i]) for i in allowed],
    }


@ray.remote(num_cpus=0.05)
class PolitenessShard:
    """Gate actor for one host-hash shard.

    Two call paths: ``gate()`` (columnar lists in, decisions out; the
    stream crawl's per-lease call), and the wave crawl's shard→gate
    handoff — FrontierShards push their held slices into ``collect()``
    (actor→actor, rows never touch the driver) and the driver's
    ``decide()`` barrier sorts the wave's buffer deterministically,
    applies robots + budgets, persists the gated slice for checkpoint
    resume, and returns the allowed blocks inline plus, per source
    shard, the hold positions of the deferred rows."""

    def __init__(self, budgets: dict | None = None):
        self.state = PolitenessState(budgets, robots_fetch=synth_robots_txt)
        self._buf: dict[int, list] = {}   # wave -> [routed column slices]

    def _decide(self, hosts: list[str], urls: list[str], wave: int,
                salts: dict) -> list[str]:
        """One decision per row: 'allow' | 'defer' | 'robots', equal to
        the per-row loop (robots check, then one ``try_take`` per
        robots-allowed row) in one pass over host groups:

        - rows are grouped by host in first-seen order (order within a
          group == row order) and each path is checked with the scalar
          ``RobotsRules.allowed``;
        - the sequential ``try_take`` per robots-allowed row equals a bulk
          take: the first ``min(tokens, k)`` robots-allowed rows get
          'allow', the rest 'defer';
        - a bucket is created only for a host with at least one
          robots-allowed row, as the loop did, so checkpoint
          ``serialize()`` payloads are unchanged;
        - refill is idempotent per wave, so one refill per host equals
          the loop's per-row refills."""
        groups: dict[str, list[int]] = {}
        for i, host in enumerate(hosts):
            rows = groups.get(host)
            if rows is None:
                groups[host] = [i]
            else:
                rows.append(i)
        decisions = ["robots"] * len(hosts)
        for host, rows in groups.items():
            allowed = self.state.rules_for(host).allowed
            ok = [i for i in rows if allowed(urls[i].split(host, 1)[-1])]
            if not ok:
                continue
            bucket = self.state.bucket_for(host, salts.get(host, 1))
            bucket.refill(wave)
            take = min(int(bucket.tokens), len(ok))
            bucket.tokens -= take
            for j, i in enumerate(ok):
                decisions[i] = "allow" if j < take else "defer"
        return decisions

    def _decide_frame(self, df, wave: int, salts: dict) -> list[str]:
        """``_decide`` over a (host, url_canon) frame."""
        return self._decide(df["host"].tolist(), df["url_canon"].tolist(),
                            wave, salts)

    def gate(self, hosts: list[str], urls: list[str], wave: int,
             salts: dict) -> list[str]:
        """Columnar candidate fetches, sorted by (-priority, url_canon) by
        the caller. Returns one decision per row: 'allow' | 'defer' |
        'robots'. (Columnar args: one pickled list per column instead of a
        dict per row — the RPC payload is the wave's hot path.)"""
        return self._decide(hosts, urls, wave, salts)

    def collect(self, wave: int, rows: tuple) -> int:
        """Buffer a FrontierShard's routed slice for this wave: ``(src,
        pos, url_canon, host, priority, depth)``, the source shard and
        one column list each (arrival order is irrelevant — ``decide``
        sorts the union)."""
        self._buf.setdefault(wave, []).append(rows)
        return len(rows[1])

    def decide(self, wave: int, expected: int, salts: dict,
               staging_path: str | None, task_urls: int) -> dict | None:
        """Wave barrier + decision for this gate's slice of the wave.
        Returns ``None`` until all ``expected`` routed rows have arrived
        (the driver retries; FrontierShards report per-gate counts).

        Deterministic regardless of arrival order: the buffered union is
        sorted by (priority desc, url asc) before budgets apply. The gated
        slice (rows + decision) is written to ``staging_path`` for
        checkpoint resume. Returns ``gated_slice_blocks`` (allowed blocks
        inline, counts, trace pairs) plus ``parked``: source shard → hold
        positions of its deferred rows (the shard parks them in place)."""
        buf = self._buf.get(wave, [])
        if sum(len(b[1]) for b in buf) < expected:
            return None
        self._buf.pop(wave, None)
        src, pos, urls, hosts, prios, depths = [], [], [], [], [], []
        for s, p, u, h, pr, d in buf:
            src += [s] * len(p)
            pos += p
            urls += u
            hosts += h
            prios += pr
            depths += d
        order = sorted(range(len(urls)), key=lambda i: (-prios[i], urls[i]))
        urls = [urls[i] for i in order]
        hosts = [hosts[i] for i in order]
        prios = [prios[i] for i in order]
        depths = [depths[i] for i in order]
        decisions = self._decide(hosts, urls, wave, salts)
        if staging_path is not None:
            import pyarrow as pa
            import pyarrow.parquet as pq

            pq.write_table(pa.table({
                "url_canon": pa.array(urls, pa.string()),
                "host": pa.array(hosts, pa.string()),
                "priority": pa.array(prios, pa.int64()),
                "depth": pa.array(depths, pa.int64()),
                "decision": pa.array(decisions, pa.string()),
            }), staging_path)
        out = gated_slice_blocks(urls, prios, depths, decisions, task_urls)
        parked: dict[int, list[int]] = {}
        for j, i in enumerate(order):
            if decisions[j] == "defer":
                parked.setdefault(src[i], []).append(pos[i])
        out["parked"] = parked
        return out

    def serialize(self) -> str:
        return json.dumps(
            {
                h: {"tokens": b.tokens, "wave": b.wave, "per_wave": b.per_wave, "burst": b.burst}
                for h, b in self.state.buckets.items()
            },
            sort_keys=True,
        )

    def restore(self, payload: str) -> int:
        data = json.loads(payload)
        for host, cfg in data.items():
            b = TokenBucket(cfg["per_wave"], cfg["burst"])
            b.tokens = cfg["tokens"]
            b.wave = cfg["wave"]
            self.state.buckets[host] = b
        return len(data)
