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
        got = member_mask(probe, shards, S)
        assert np.array_equal(got, np.isin(probe, ids))
        assert not member_mask(np.empty(0, np.int64), shards, S).size


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
