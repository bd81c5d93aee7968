"""The shared crawl content body (stages/content.py) run in-process without
Ray, and the one seeding helper (ShardedSeenSet.seed_urls) under Ray."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from akf_cdparser_ray.sources.synth import page_url_for_idx
from akf_cdparser_ray.stages.content import PAIRS_COLS, run_content
from akf_cdparser_ray.stages.fetch import SyntheticFetcher
from akf_cdparser_ray.stages.links import canonicalize_url, extract_links_batch
from akf_cdparser_ray.stages.parse_stage import ParseProfiles

CORPUS = 40
# the fourth URL lies outside the corpus: the fetcher answers it with 404
IDXS = [0, 3, 7, CORPUS + 5, 11, 12]
DEPTHS = [0, 1, 2, 0, 1, 0]


@pytest.fixture(scope="module")
def layers():
    return SyntheticFetcher(CORPUS), ParseProfiles()


def _batch(idxs, depths):
    return pa.table({
        "url_canon": [canonicalize_url(page_url_for_idx(i)) for i in idxs],
        "depth": pa.array(depths, pa.int64()),
    })


def _grouped(links: pa.Table, num_shards: int) -> list[tuple]:
    """extract_links_batch rows grouped by url_hash % S, stable order."""
    rows = links.to_pylist()
    out = []
    for s in range(num_shards):
        sel = [r for r in rows if r["url_hash"] % num_shards == s]
        if sel:
            out.append((s, [r["url_canon"] for r in sel],
                        [r["url_hash"] for r in sel],
                        [r["host"] for r in sel], [r["depth"] for r in sel]))
    return out


@pytest.mark.parametrize("num_shards", [1, 4])
def test_run_content_counts_writes_and_splits(tmp_path, layers, num_shards):
    fetcher, parser = layers
    path = str(tmp_path / "frag" / "part-x.parquet")
    ctr, us, slices = run_content(_batch(IDXS, DEPTHS), fetcher, parser,
                                  path, num_shards)

    fetched = fetcher(_batch(IDXS, DEPTHS))
    ok = fetched.filter(pa.array(
        [s == "200" for s in fetched.column("fetch_status").to_pylist()]))
    links = extract_links_batch(ok)
    # every synthetic page parses and links to its three corpus neighbours
    assert ctr == {"fetched": 5, "http_404": 1, "parsed_ok": 5,
                   "parse_err": 0, "pairs_rows": 5, "links": 15}
    assert links.num_rows == 15
    assert set(us) == {"fetch", "parse", "write", "links"}
    assert all(isinstance(v, int) and v >= 0 for v in us.values())

    assert os.listdir(tmp_path / "frag") == ["part-x.parquet"]
    assert pq.read_table(path).equals(parser(ok).select(PAIRS_COLS))

    assert slices == _grouped(links, num_shards)
    assert [s for s, *_ in slices] == sorted({s for s, *_ in slices})
    # depths come from the linking page's depth + 1
    assert sorted({d for *_, ds in slices for d in ds}) == [1, 2, 3]


@pytest.mark.parametrize("num_shards", [1, 4])
def test_run_content_without_200_writes_nothing(tmp_path, layers, num_shards):
    fetcher, parser = layers
    path = str(tmp_path / "frag" / "part-x.parquet")
    ctr, _us, slices = run_content(
        _batch([CORPUS, CORPUS + 1], [0, 0]), fetcher, parser, path,
        num_shards)
    assert ctr == {"fetched": 0, "http_404": 2, "parsed_ok": 0,
                   "parse_err": 0, "pairs_rows": 0, "links": 0}
    assert slices == []
    assert not os.path.exists(tmp_path / "frag")


@pytest.mark.usefixtures("ray_session")
def test_seed_urls_enqueues_a_repeated_seed_once():
    import ray

    from akf_cdparser_ray.stages.dedupe import ShardedSeenSet

    seen = ShardedSeenSet(4, 1 << 10)
    try:
        u0, u1 = page_url_for_idx(0), page_url_for_idx(1)
        # u0 three times, once spelled with an upper-case scheme and host
        n = seen.seed_urls([u0, u1, u0, u0.replace("http://host", "HTTP://HOST")])
        assert n == 2
        assert seen.seed_urls([u1]) == 0  # already in the seen-set
        got = [u for t in ray.get([s.dequeue.remote(10) for s in seen.shards])
               for u in t.column("url_canon").to_pylist()]
        assert sorted(got) == sorted(canonicalize_url(u) for u in (u0, u1))
        assert seen.total() == 2
    finally:
        seen.shutdown()
