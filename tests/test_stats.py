"""Unit tests for stages/stats.py (grouped corr / mode / string_agg) and
sampling.global_ntile — exactness, tie rules, SQL-semantics fill, and
batch-layout independence (the invariants the DuckDB oracles rely on)."""

import math

import numpy as np
import pandas as pd
import pytest

from akf_cdparser_ray.stages.stats import (
    _exact_dot, _exact_int_sum, grouped_corr, mode_per_group, string_agg_sorted)


def _chunks(df: pd.DataFrame, n: int) -> list[pd.DataFrame]:
    return [df.iloc[i::n].reset_index(drop=True) for i in range(n)]


def test_exact_int_sum_beyond_int64():
    rng = np.random.default_rng(7)
    # per-element magnitude ~2^60: any two elements overflow a naive
    # int64 accumulator, so this fails unless the chunking is exact
    a = rng.integers(-(1 << 60), 1 << 60, size=4096, dtype=np.int64)
    assert _exact_int_sum(a) == sum(int(v) for v in a)
    assert _exact_int_sum(a[:0]) == 0
    assert _exact_int_sum(np.zeros(5, dtype=np.int64)) == 0


@pytest.mark.usefixtures("ray_session")
def test_grouped_corr_matches_numpy_and_layout():
    import ray.data as rd

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], size=400),
        "x": rng.integers(0, 5000, size=400),
        "y": rng.integers(0, 10_000_000, size=400),
    })
    out1 = grouped_corr(rd.from_pandas(_chunks(df, 1)), "k", "x", "y")
    out7 = grouped_corr(rd.from_pandas(_chunks(df, 7)), "k", "x", "y")
    # layout independence must be EXACT (same integers -> same float)
    assert out1.equals(out7)
    for _, row in out1.iterrows():
        g = df[df["k"] == row["k"]]
        expect = np.corrcoef(g["x"], g["y"])[0, 1]
        assert math.isclose(row["corr"], expect, rel_tol=1e-9)


def test_exact_dot_beyond_int64_products():
    # |x| >= ~3.04e9 makes x*x wrap in int64
    x = np.array([4_000_000_000, -4_000_000_007, 3_037_000_500], dtype=np.int64)
    y = np.array([5_000_000_000, 2, -(1 << 62)], dtype=np.int64)
    for a, b in ((x, x), (x, y), (y, y)):
        assert _exact_dot(a, b) == sum(int(u) * int(v) for u, v in zip(a, b))
    assert _exact_dot(x[:0], y[:0]) == 0


@pytest.mark.usefixtures("ray_session")
def test_grouped_corr_large_values_exact():
    """Planted: values past 3.04e9 whose squares wrap int64. A constant
    4e9 column has zero variance (NaN), and a varying one must match the
    exact-integer formula bit for bit."""
    import ray.data as rd

    xs = [4_000_000_000, 4_000_000_001, 4_000_000_003, 5_000_000_000]
    ys = [7, 3_500_000_000, 8, 4_000_000_000]
    df = pd.DataFrame({"k": ["a", "a", "b", "b", "b", "b"],
                       "x": [4_000_000_000, 4_000_000_000] + xs,
                       "y": [1, 2] + ys})
    out = grouped_corr(rd.from_pandas([df]), "k", "x", "y").set_index("k")
    assert math.isnan(out.loc["a", "corr"])
    n, sx, sy = len(xs), sum(xs), sum(ys)
    sxy = sum(u * v for u, v in zip(xs, ys))
    sxx, syy = sum(u * u for u in xs), sum(v * v for v in ys)
    expect = float(n * sxy - sx * sy) / (
        math.sqrt(float(n * sxx - sx * sx)) * math.sqrt(float(n * syy - sy * sy)))
    assert out.loc["b", "corr"] == expect


@pytest.mark.usefixtures("ray_session")
def test_grouped_corr_zero_variance_is_nan():
    import ray.data as rd

    df = pd.DataFrame({"k": ["a"] * 10, "x": [3] * 10, "y": range(10)})
    out = grouped_corr(rd.from_pandas([df]), "k", "x", "y")
    assert len(out) == 1 and math.isnan(out["corr"].iloc[0])


@pytest.mark.usefixtures("ray_session")
def test_mode_tie_breaks_value_ascending():
    import ray.data as rd

    # group "a": values 5 and 2 both appear twice -> mode must be 2
    df = pd.DataFrame({"k": ["a", "a", "a", "a", "b"],
                       "v": [5, 2, 5, 2, 9]})
    out = (mode_per_group(rd.from_pandas(_chunks(df, 3)), "k", "v")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["mode_value"].tolist() == [2, 9]
    assert out["mode_count"].tolist() == [2, 1]


@pytest.mark.usefixtures("ray_session")
def test_mode_layout_independent():
    import ray.data as rd

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"k": rng.choice(list("pq"), 300),
                       "v": rng.integers(0, 9, 300)})
    outs = [
        mode_per_group(rd.from_pandas(_chunks(df, n)), "k", "v")
        .to_pandas().sort_values("k").reset_index(drop=True)
        for n in (1, 5)
    ]
    assert outs[0].equals(outs[1])


@pytest.mark.usefixtures("ray_session")
def test_string_agg_sorted_order_and_counts():
    import ray.data as rd

    df = pd.DataFrame({"k": [1, 2, 1, 1, 2], "s": ["b", "z", "a", "c", "y"]})
    out = (string_agg_sorted(rd.from_pandas(_chunks(df, 2)), "k", "s")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["agg"].tolist() == ["a|b|c", "y|z"]
    assert out["n"].tolist() == [3, 2]


@pytest.mark.usefixtures("ray_session")
def test_global_ntile_fill_rule():
    import ray.data as rd

    from akf_cdparser_ray.stages.sampling import global_ntile, md5_lower64

    keys = list(range(23))
    ds = rd.from_pandas([pd.DataFrame({"doc_id": keys[i::3]})
                         for i in range(3)])
    out = global_ntile(ds, key="doc_id", k=4, epoch=9).to_pandas()
    # reference: SQL NTILE over the same (md5(key||'|ep9'), key) order —
    # 23 rows into 4 buckets = sizes 6,6,6,5, first n%k buckets larger
    order = sorted(keys, key=lambda v: (md5_lower64(f"{v}|ep9"), v))
    expect = {}
    q, r = divmod(len(keys), 4)
    pos = 0
    for b in range(1, 5):
        size = q + (1 if b <= r else 0)
        for v in order[pos:pos + size]:
            expect[v] = b
        pos += size
    got = dict(zip(out["doc_id"], out["bucket"]))
    assert got == expect
    counts = out["bucket"].value_counts().sort_index().tolist()
    assert counts == [6, 6, 6, 5]


@pytest.mark.usefixtures("ray_session")
def test_global_ntile_fewer_rows_than_buckets():
    import ray.data as rd

    from akf_cdparser_ray.stages.sampling import global_ntile

    ds = rd.from_pandas([pd.DataFrame({"doc_id": [1, 2, 3]})])
    out = global_ntile(ds, key="doc_id", k=8, epoch=0).to_pandas()
    assert sorted(out["bucket"].tolist()) == [1, 2, 3]


@pytest.mark.usefixtures("ray_session")
def test_zscore_matches_local_and_layout():
    import ray.data as rd

    from akf_cdparser_ray.stages.stats import zscore_normalize

    rng = np.random.default_rng(19)
    df = pd.DataFrame({"k": rng.choice(["a", "b"], 400),
                       "x": rng.integers(-500, 500, 400)})
    outs = []
    for n in (1, 5):
        out = (zscore_normalize(rd.from_pandas(_chunks(df, n)), "k", "x")
               .to_pandas().sort_values(["k", "x"])
               .reset_index(drop=True))
        outs.append(out)
    assert outs[0].equals(outs[1])
    for kval, g in df.groupby("k"):
        mean = g["x"].mean()
        std = g["x"].std(ddof=0)
        got = outs[0][outs[0]["k"] == kval].sort_values("x")
        expect = ((g["x"].sort_values() - mean) / std).to_numpy()
        assert np.allclose(got["z"].to_numpy(), expect, rtol=1e-12)
    # zero variance -> NaN z
    same = pd.DataFrame({"k": ["c"] * 5, "x": [3] * 5})
    out2 = zscore_normalize(rd.from_pandas([same]), "k", "x").to_pandas()
    assert out2["z"].isna().all()


@pytest.mark.usefixtures("ray_session")
def test_grouped_describe_matches_local_and_layout():
    import ray.data as rd

    from akf_cdparser_ray.stages.stats import grouped_describe

    rng = np.random.default_rng(53)
    df = pd.DataFrame({"k": rng.choice(["a", "b"], 500),
                       "x": rng.integers(-1000, 1000, 500)})
    outs = [grouped_describe(rd.from_pandas(_chunks(df, n)), "k", "x")
            for n in (1, 6)]
    assert outs[0].equals(outs[1])
    for kval, g in df.groupby("k"):
        row = outs[0][outs[0]["k"] == kval].iloc[0]
        assert row["n"] == len(g)
        assert row["min_c"] == g["x"].min()
        assert row["max_c"] == g["x"].max()
        assert row["mean"] == pytest.approx(g["x"].mean(), rel=1e-12)
        assert row["std"] == pytest.approx(g["x"].std(ddof=0), rel=1e-12)


@pytest.mark.usefixtures("ray_session")
def test_describe_and_zscore_large_values_exact():
    """Planted: 4e9-scale values, whose squares wrap int64. Mean 4e9+1 and
    population std 1 are exact, so z is exactly -1 and +1."""
    import ray.data as rd

    from akf_cdparser_ray.stages.stats import grouped_describe, zscore_normalize

    df = pd.DataFrame({"k": ["a", "a"], "x": [4_000_000_000, 4_000_000_002]})
    row = grouped_describe(rd.from_pandas([df]), "k", "x").iloc[0]
    assert (row["mean"], row["std"]) == (4_000_000_001.0, 1.0)
    z = zscore_normalize(rd.from_pandas([df]), "k", "x").to_pandas()
    assert sorted(z["z"].tolist()) == [-1.0, 1.0]


@pytest.mark.usefixtures("ray_session")
def test_pivot_counts_layout_and_other_bucket():
    import ray.data as rd

    from akf_cdparser_ray.stages.relational import pivot_counts

    rng = np.random.default_rng(59)
    df = pd.DataFrame({"r": rng.choice(["a", "b"], 400),
                       "c": rng.integers(0, 6, 400)})  # 4,5 -> other
    outs = []
    for n in (1, 5):
        out = (pivot_counts(rd.from_pandas(_chunks(df, n)), "r", "c",
                            [0, 1, 2, 3])
               .to_pandas().sort_values("r").reset_index(drop=True))
        outs.append(out)
    assert outs[0].equals(outs[1])
    ct = pd.crosstab(df["r"], df["c"])
    for _, row in outs[0].iterrows():
        for v in (0, 1, 2, 3):
            assert row[str(v)] == int(ct.loc[row["r"]].get(v, 0))
        assert row["other"] == int(ct.loc[row["r"]].get(4, 0)
                                   + ct.loc[row["r"]].get(5, 0))
    assert int(outs[0][["0", "1", "2", "3", "other"]].sum().sum()) == 400


@pytest.mark.usefixtures("ray_session")
def test_pivot_counts_null_keys_match_sql():
    """A NULL row key is its own group; a NULL column key counts in no
    column, not even ``other`` (``NULL NOT IN (...)`` is NULL in SQL), but
    its row key's group still appears — as the DuckDB mirror has it."""
    import ray.data as rd

    duckdb = pytest.importorskip("duckdb")
    from akf_cdparser_ray.stages.relational import pivot_counts

    df = pd.DataFrame({"r": ["a", None, "a", "b", None, "z", "a", None],
                       "c": [0, 1, np.nan, 4, np.nan, np.nan, 5, 0]})
    want = duckdb.sql("""
        SELECT r, count(*) FILTER (WHERE c = 0) AS "0",
               count(*) FILTER (WHERE c = 1) AS "1",
               count(*) FILTER (WHERE c NOT IN (0, 1)) AS other
        FROM df GROUP BY r ORDER BY r NULLS LAST""").df()
    for n in (1, 3):
        got = (pivot_counts(rd.from_pandas(_chunks(df, n)), "r", "c", [0, 1])
               .to_pandas().sort_values("r", na_position="last")
               .reset_index(drop=True))
        assert got["r"].tolist()[:-1] == want["r"].tolist()[:-1] == ["a", "b", "z"]
        assert pd.isna(got["r"].iloc[-1]) and pd.isna(want["r"].iloc[-1])
        for col in ("0", "1", "other"):
            assert got[col].tolist() == want[col].astype("int64").tolist(), (n, col)
