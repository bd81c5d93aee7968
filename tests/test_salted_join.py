"""Salted hot-key join (stages/crossjoin.salted_shuffle_join): result
equals the unsalted shuffle join under planted skew, and the hot key's
rows actually spread across sub-buckets."""

import numpy as np
import pandas as pd
import pytest

from akf_cdparser_ray.stages.crossjoin import (
    salted_shuffle_join, shuffle_hash_join)


def _chunks(df, n):
    return [df.iloc[i::n].reset_index(drop=True) for i in range(n)]


def _sorted(df):
    return (df.sort_values(list(sorted(df.columns)), kind="mergesort")
            .reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_salted_equals_unsalted_under_skew():
    import ray.data as rd

    rng = np.random.default_rng(41)
    n = 2000
    keys = np.where(rng.random(n) < 0.6, 7,
                    rng.integers(0, 50, n))  # 60% of rows share key 7
    left = pd.DataFrame({"k": keys.astype("int64"),
                         "x": rng.integers(0, 1000, n)})
    right = pd.DataFrame({"rk": np.arange(0, 50, dtype="int64"),
                          "tag": [f"t{i}" for i in range(50)]})
    lds = rd.from_pandas(_chunks(left, 5))
    rds = rd.from_pandas(_chunks(right, 2))
    plain = shuffle_hash_join(
        rd.from_pandas(_chunks(left, 5)), rd.from_pandas(_chunks(right, 2)),
        left_key="k", right_key="rk",
        left_cols=["k", "x"], right_cols=["rk", "tag"]).to_pandas()
    salted = salted_shuffle_join(
        lds, rds, left_key="k", right_key="rk", hot_keys=[7], salt=8,
        left_cols=["k", "x"], right_cols=["rk", "tag"]).to_pandas()
    assert len(salted) == len(plain) == n  # every key matches exactly once
    assert _sorted(salted).equals(_sorted(plain))


@pytest.mark.usefixtures("ray_session")
def test_hot_key_spreads_and_determinism():
    import ray.data as rd

    rng = np.random.default_rng(5)
    left = pd.DataFrame({"k": np.full(1000, 7, dtype="int64"),
                         "x": rng.integers(0, 10**9, 1000)})
    right = pd.DataFrame({"rk": pd.Series([7], dtype="int64"),
                          "tag": ["hot"]})
    outs = []
    for n in (1, 4):  # same rows, different partitionings
        out = salted_shuffle_join(
            rd.from_pandas(_chunks(left, n)), rd.from_pandas([right]),
            left_key="k", right_key="rk", hot_keys=[7], salt=8,
            left_cols=["k", "x"], right_cols=["rk", "tag"]).to_pandas()
        outs.append(_sorted(out))
    assert outs[0].equals(outs[1])
    assert len(outs[0]) == 1000
    # spread check: re-derive the salt rule and assert >1 sub-bucket used
    mix = np.zeros(len(left), dtype=np.uint64)
    for c in ["k", "x"]:
        mix ^= pd.util.hash_array(left[c].to_numpy()).astype(np.uint64)
    assert len(np.unique(mix % 8)) > 1


@pytest.mark.usefixtures("ray_session")
def test_int64_keys_above_2_53_spread_over_buckets():
    """Distinct int64 keys above 2**53 share a float64 value, so hashing
    the float64 cast put all 64 of them in one bucket. Hashed as int64
    they spread, integral floats still meet their int64 twins, and both
    joins stay exact."""
    import ray.data as rd

    from akf_cdparser_ray.stages.crossjoin import _key_hash

    keys = (2 ** 60 + np.arange(64)).astype(np.int64)
    assert len(np.unique(keys.astype(np.float64))) == 1
    assert len(np.unique(_key_hash(keys) % 32)) > 8
    small = np.array([3, -7, 0], np.int64)
    assert np.array_equal(_key_hash(small),
                          _key_hash(small.astype(np.float64)))
    assert np.array_equal(_key_hash(np.array([3], np.uint64)),
                          _key_hash(np.array([3.0])))

    left = pd.DataFrame({"k": np.repeat(keys, 2), "x": np.arange(128)})
    right = pd.DataFrame({"rk": keys[::2], "tag": [f"t{i}" for i in range(32)]})
    # compare (x, tag): a bucket holding both sides widens int columns
    # to float64, which rounds the keys themselves
    want = _sorted(left.merge(right, left_on="k", right_on="rk")[["x", "tag"]])
    for join in (shuffle_hash_join, salted_shuffle_join):
        kw = {"hot_keys": [int(keys[0])], "salt": 4} \
            if join is salted_shuffle_join else {}
        got = join(rd.from_pandas(_chunks(left, 3)),
                   rd.from_pandas(_chunks(right, 2)),
                   left_key="k", right_key="rk", left_cols=["k", "x"],
                   right_cols=["rk", "tag"], **kw).to_pandas()
        got = got[["x", "tag"]].astype({"x": np.int64})
        assert _sorted(got).equals(want), join.__name__
