"""The shared shard exchange (stages/exchange.py) on tiny inputs: the
S == 1 path, empty and column-less blocks, the membership probe and the
rank join's tie-breaking."""
import numpy as np
import pandas as pd
import pytest


def _blocks_ds():
    """Four blocks: two with ids, one empty with the schema, and one
    without the ``id`` column."""
    import pyarrow as pa
    import ray.data as rd

    return rd.from_arrow([
        pa.table({"id": np.array([5, -3, 8, 5], np.int64)}),
        pa.table({"id": np.empty(0, np.int64)}),
        pa.table({"other": np.array([1, 2], np.int64)}),
        pa.table({"id": np.array([-7, 12, 0], np.int64)}),
    ])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("S", [1, 4])
def test_exchange_routes_every_row_to_its_shard(S):
    import ray

    from akf_cdparser_ray.stages.exchange import exchange, shard_lens

    def split(bl):
        if not bl.num_rows or "id" not in bl.schema.names:
            return [np.empty(0, np.int64)] * S
        ids = bl.column("id").to_numpy()
        return [ids[ids % S == s] for s in range(S)]

    def merge(*parts):
        return np.sort(np.concatenate(parts))

    ds = _blocks_ds()
    refs = ds.to_arrow_refs()
    assert len(refs) == 4
    shards = exchange(refs, S, split, merge)
    assert sorted(shards) == list(range(S))
    ids = np.array([5, -3, 8, 5, -7, 12, 0], np.int64)
    for s in range(S):
        assert ray.get(shards[s]).tolist() == sorted(ids[ids % S == s])
    assert shard_lens(shards) == [int((ids % S == s).sum())
                                  for s in range(S)]


@pytest.mark.usefixtures("ray_session")
def test_member_mask_matches_isin():
    from akf_cdparser_ray.stages.exchange import member_mask
    from akf_cdparser_ray.stages.windows import build_id_shards
    import ray.data as rd

    rng = np.random.RandomState(5)
    ids = rng.randint(-50, 50, 40).astype(np.int64)
    probe = np.arange(-60, 60, dtype=np.int64)
    ds = rd.from_pandas([pd.DataFrame({"doc_id": ids[:25]}),
                         pd.DataFrame({"doc_id": ids[25:]})])
    for S in (1, 4):
        shards = build_id_shards(ds, "doc_id", S)
        got = member_mask(probe, shards)
        assert np.array_equal(got, np.isin(probe, ids))
        assert not member_mask(np.empty(0, np.int64), shards).size


@pytest.mark.usefixtures("ray_session")
def test_rank_join_s1_equals_s4_with_ties():
    import ray.data as rd

    from akf_cdparser_ray.stages.exchange import rank_join

    # values with ties; keys break them, so the order is (v, key)
    v = np.array([3.0, 1.0, 3.0, 2.0, 1.0, 3.0, 0.5, 2.0], np.float64)
    key = np.array([40, 11, 7, 30, 2, 19, 8, 1], np.int64)
    df = pd.DataFrame({"key": key, "v": v})
    keyed = rd.from_pandas([df.iloc[:3], df.iloc[3:3],
                            df.iloc[3:]]).materialize()
    expected = np.lexsort((key, v)).argsort()
    bounds = np.array([1.0, 2.0, 3.0])
    for S, shard_of in (
            (1, lambda x: np.zeros(len(x), np.int64)),
            (4, lambda x: np.searchsorted(bounds, x, side="right"))):
        out = rank_join(keyed, S, shard_of, "v", "key", "pos").to_pandas()
        assert list(out.columns) == ["key", "pos"]
        got = out.set_index("key")["pos"].reindex(key).to_numpy()
        assert np.array_equal(got, expected), S


def test_shard_count_boundaries():
    from akf_cdparser_ray.stages.exchange import ROWS_PER_SHARD, shard_count

    assert shard_count(0) == 1
    assert shard_count(ROWS_PER_SHARD) == 1
    assert shard_count(ROWS_PER_SHARD + 1) == 2
    assert shard_count(16 * ROWS_PER_SHARD + 1) == 16
    assert shard_count(10 ** 12, cap=64) == 64
    assert shard_count(3 * 1024 + 1, cap=8, per_shard=1024) == 4


@pytest.mark.usefixtures("ray_session")
def test_exchange_runs_lazy_upstream_once(tmp_path):
    """A lazy UDF upstream of each exchange builder runs once per block:
    ``to_arrow_refs()`` on a lazy Dataset would run it once more to fetch
    the schema."""
    import os
    import uuid

    import ray.data as rd

    from akf_cdparser_ray.stages.exchange import edge_shards
    from akf_cdparser_ray.stages.substring_dedup import dup_gram_shards
    from akf_cdparser_ray.stages.windows import build_id_shards

    df = pd.DataFrame({"src": np.arange(12, dtype=np.int64),
                       "dst": np.arange(12, dtype=np.int64)[::-1],
                       "doc_id": np.arange(12, dtype=np.int64),
                       "text": ["the same words again and again"] * 12})
    for name, build in (
            ("edges", lambda ds: edge_shards(ds, None)),
            ("ids", lambda ds: build_id_shards(ds, "doc_id", None)),
            ("grams", lambda ds: dup_gram_shards(ds, L=8))):
        out = tmp_path / name
        out.mkdir()

        def counted(batch, out=str(out)):
            open(os.path.join(out, uuid.uuid4().hex), "w").close()
            return batch

        ds = rd.from_pandas([df.iloc[i::3].reset_index(drop=True)
                             for i in range(3)])
        build(ds.map_batches(counted, batch_format="pandas",
                             batch_size=None))
        assert len(os.listdir(out)) == 3, name


@pytest.mark.usefixtures("ray_session")
def test_sized_operators_equal_pinned_shards():
    """``num_shards=None`` (one shard at this size) gives the same output
    as a pinned S > 1, for every operator that sizes its exchange."""
    import ray.data as rd

    from akf_cdparser_ray.stages.crossjoin import ngram_jaccard_pairs
    from akf_cdparser_ray.stages.editdist import edit_distance_pairs
    from akf_cdparser_ray.stages.export import global_rank
    from akf_cdparser_ray.stages.graph import triangle_count
    from akf_cdparser_ray.stages.sampling import epoch_shuffle
    from akf_cdparser_ray.stages.substring_dedup import duplicated_spans

    rng = np.random.RandomState(11)
    words = "alpha beta gamma delta eps zeta eta theta".split()
    texts = [" ".join(rng.choice(words, rng.randint(8, 20)))
             for _ in range(40)]
    texts += [t.rsplit(" ", 1)[0] + " omega" for t in texts[:20]]
    docs = pd.DataFrame({"doc_id": np.arange(60, dtype=np.int64),
                         "text": texts,
                         "n": np.array([len(t) for t in texts], np.int64)})
    edges = pd.DataFrame({"src": rng.randint(0, 20, 150).astype(np.int64),
                          "dst": rng.randint(0, 20, 150).astype(np.int64)})

    def blocks(df):
        return rd.from_pandas([df.iloc[i::4].reset_index(drop=True)
                               for i in range(4)])

    def frame(res):
        df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    runs = {
        "triangles": lambda S: triangle_count(blocks(edges), num_shards=S),
        "global_rank": lambda S: global_rank(blocks(docs), col="n",
                                             num_shards=S),
        "epoch_shuffle": lambda S: epoch_shuffle(blocks(docs), epoch=3,
                                                 num_shards=S),
        "substring_dedup": lambda S: duplicated_spans(blocks(docs), L=12,
                                                      num_shards=S),
        "ngram_jaccard": lambda S: ngram_jaccard_pairs(blocks(docs),
                                                       num_blocks=S),
        "editdist": lambda S: edit_distance_pairs(blocks(docs),
                                                  prefix_len=12,
                                                  num_shards=S),
    }
    for name, run in runs.items():
        sized, pinned = frame(run(None)), frame(run(4))
        assert len(sized), name
        pd.testing.assert_frame_equal(sized, pinned, obj=name)
    # no pair passes: a typed empty frame, not a column-less one
    none = ngram_jaccard_pairs(blocks(docs.iloc[:3]), threshold_pct=100)
    assert list(none.columns) == ["doc_a", "doc_b", "n_inter", "n_union"]
