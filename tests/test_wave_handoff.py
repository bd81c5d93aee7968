"""The wave crawl's shard→gate→shard handoff, in process (no Ray):
``FrontierShard.park`` against the ``defer`` round trip it replaces, and
the shape of ``PolitenessShard.decide``'s result."""

import random

import numpy as np
import pandas as pd
import pytest

from akf_cdparser_ray.stages.dedupe import FrontierShard
from akf_cdparser_ray.stages.frontier import FRONTIER_COLS
from akf_cdparser_ray.stages.links import url_hash64
from akf_cdparser_ray.stages.politeness_stage import PolitenessShard

Shard = FrontierShard.__ray_metadata__.modified_class
Gate = PolitenessShard.__ray_metadata__.modified_class


def _frontier(rng: random.Random, n: int) -> pd.DataFrame:
    urls = [f"http://host{rng.randrange(5)}.example/{rng.randrange(10**6)}/{i}.html"
            for i in range(n)]
    return pd.DataFrame({
        "url_canon": urls,
        "url_hash": np.array([url_hash64(u) for u in urls], dtype=np.uint64),
        "host": [u.split("/")[2] for u in urls],
        "priority": [rng.choice((100, 90, 80, 70)) for _ in urls],
        "depth": [rng.randrange(4) for _ in urls],
        "discovered_at": [rng.randrange(3) for _ in urls],
    }, columns=FRONTIER_COLS)


def _state(shard, tmp_path, tag: str) -> dict:
    front, page = tmp_path / f"{tag}.parquet", tmp_path / f"{tag}.page"
    future = [(w, run.copy()) for w, run in shard.future]
    runs = [run.copy() for run in shard.runs]
    size = shard.frontier_size()
    shard.checkpoint(str(front), str(page))
    fut_path = tmp_path / f"{tag}.parquet.future"
    return {
        "runs": runs, "future": future, "size": size,
        "bytes": [front.read_bytes(), page.read_bytes(),
                  fut_path.read_bytes() if fut_path.exists() else None],
    }


@pytest.mark.parametrize("seed", range(24))
def test_park_equals_defer_of_the_same_rows(tmp_path, seed):
    """Parking hold positions leaves the shard exactly as deferring those
    rows (in the arbitrary order the gates would hand them back) does:
    runs, future buckets, frontier size and checkpoint bytes."""
    rng = random.Random(seed)
    n = rng.choice((1, 2, 3, rng.randrange(1, 301), 300))
    rows = _frontier(rng, n + rng.randrange(40))
    k, wave = n, rng.randrange(1, 9)
    parked, deferred = Shard(1 << 12), Shard(1 << 12)
    for sh in (parked, deferred):
        sh.seed(rows)
        assert sh.dequeue_hold(k, wave)["n"] == min(k, len(rows))
    held = deferred._held
    take = rng.choice((0, len(held), rng.randrange(len(held) + 1)))
    positions = rng.sample(range(len(held)), take)  # any order
    assert parked.park(wave, positions) == take
    deferred._held = None  # the old route_to_gates released the hold
    deferred.defer(held.iloc[positions].reset_index(drop=True), wave)
    a = _state(parked, tmp_path, "park")
    b = _state(deferred, tmp_path, "defer")
    assert parked._held is None
    assert a["size"] == b["size"] == len(rows) - len(held) + take
    assert len(a["runs"]) == len(b["runs"])
    for x, y in zip(a["runs"], b["runs"]):
        pd.testing.assert_frame_equal(x, y, check_exact=True)
    assert [w for w, _ in a["future"]] == [w for w, _ in b["future"]]
    for (_w, x), (_v, y) in zip(a["future"], b["future"]):
        pd.testing.assert_frame_equal(x, y, check_exact=True)
    assert a["bytes"] == b["bytes"]


def _contains_ref(obj) -> bool:
    import ray

    if isinstance(obj, ray.ObjectRef):
        return True
    if isinstance(obj, dict):
        return any(_contains_ref(k) or _contains_ref(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set)):
        return any(_contains_ref(v) for v in obj)
    return False


def test_decide_returns_plain_values_and_parks_by_source(tmp_path):
    """``decide`` hands back the allowed blocks inline (no ObjectRef, no
    DataFrame), the trace in (priority desc, url asc) order, and each
    source shard's deferred hold positions."""
    rng = random.Random(5)
    gate = Gate({"host0.example": {"per_wave": 3, "burst": 3}})
    holds = {0: _frontier(rng, 40), 3: _frontier(rng, 25)}
    for src, df in holds.items():
        df = df.sort_values(["priority", "url_canon"], ascending=[False, True])
        holds[src] = df.reset_index(drop=True)
        pos = list(range(len(df)))[::-1]   # a slice need not be sorted
        gate.collect(2, (src, pos, *(holds[src][c].iloc[pos].tolist() for c in
                                     ("url_canon", "host", "priority", "depth"))))
    assert gate.decide(2, 66, {}, None, 8) is None   # barrier not met yet
    out = gate.decide(2, 65, {}, str(tmp_path / "g.parquet"), 8)
    assert not _contains_ref(out)
    assert all(type(v) in (list, tuple) for b in out["blocks"] for v in b)
    allv = pd.concat(holds.values(), ignore_index=True).sort_values(
        ["priority", "url_canon"], ascending=[False, True])
    c = out["counts"]
    assert c["total"] == 65 and c["allow"] + c["defer"] + c["robots"] == 65
    assert [u for b in out["blocks"] for u in b[0]] == [u for _p, u in out["trace"]]
    assert all(len(b[0]) <= 8 for b in out["blocks"])
    trace_urls = [u for _p, u in out["trace"]]
    assert trace_urls == [u for u in allv["url_canon"] if u in set(trace_urls)]
    staged = pd.read_parquet(tmp_path / "g.parquet")
    assert staged["url_canon"].tolist() == allv["url_canon"].tolist()
    for src, pos in out["parked"].items():
        assert set(holds[src].iloc[pos]["url_canon"]) == set(
            staged["url_canon"][staged["decision"] == "defer"]) & set(
            holds[src]["url_canon"])
    assert sum(len(p) for p in out["parked"].values()) == c["defer"] > 0
