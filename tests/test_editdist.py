"""PassJoin edit-distance similarity join (stages/editdist.py): the DP
kernel vs a reference implementation, the blocking's completeness vs a
brute-force scan (including length-skew, short strings, and non-ASCII
byte semantics), layout independence, and the bucket-cap guard."""

import numpy as np
import pandas as pd
import pytest

from akf_cdparser_ray.stages.editdist import (
    _seg_bounds, edit_distance_pairs, lev_batch)


def ref_lev(a: bytes, b: bytes) -> int:
    dp = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        prev, dp[0] = dp[0], i
        for j in range(1, len(b) + 1):
            cur = dp[j]
            dp[j] = min(dp[j] + 1, dp[j - 1] + 1,
                        prev + (a[i - 1] != b[j - 1]))
            prev = cur
    return dp[len(b)]


def brute_pairs(texts: dict[int, str], prefix_len: int, tau: int):
    ids = sorted(texts)
    out = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d = ref_lev(texts[a][:prefix_len].encode("utf-8"),
                        texts[b][:prefix_len].encode("utf-8"))
            if d <= tau:
                out.append((a, b, d))
    return out


def test_seg_bounds_cover_and_agree():
    for l in range(3, 40):
        for tau in (1, 2, 3):
            segs = _seg_bounds(l, tau)
            assert len(segs) == tau + 1
            assert segs[0][0] == 0
            assert sum(ln for _, ln in segs) == l
            for (s0, l0), (s1, _) in zip(segs, segs[1:]):
                assert s1 == s0 + l0


def test_lev_batch_matches_reference():
    rng = np.random.default_rng(5)
    pa = [bytes(rng.integers(97, 103, size=rng.integers(0, 12)).tolist())
          for _ in range(500)]
    pb = [bytes(rng.integers(97, 103, size=rng.integers(0, 12)).tolist())
          for _ in range(500)]
    got = lev_batch(pa, pb)
    assert got.tolist() == [ref_lev(a, b) for a, b in zip(pa, pb)]


@pytest.mark.usefixtures("ray_session")
def test_pairs_complete_vs_bruteforce():
    import ray.data as rd

    rng = np.random.default_rng(17)
    base = "the quick brown fox jumps over it"
    texts = {}
    for i in range(60):
        s = list(base)
        for _ in range(rng.integers(0, 4)):  # 0-3 random edits
            op = rng.integers(0, 3)
            pos = int(rng.integers(0, len(s)))
            ch = chr(97 + int(rng.integers(0, 26)))
            if op == 0:
                s[pos] = ch
            elif op == 1:
                s.insert(pos, ch)
            elif len(s) > 4:
                del s[pos]
        texts[i] = "".join(s)
    # skewed extras: short strings and a non-ASCII pair (byte semantics:
    # 'ä' is TWO utf-8 bytes, so 'käse'->'kase' costs 2 like DuckDB)
    texts[100] = "ab"
    texts[101] = "abc"
    texts[102] = "käse is closed"
    texts[103] = "kase is closed"
    df = pd.DataFrame({"doc_id": list(texts), "text": list(texts.values())})
    for tau, S in ((1, 1), (1, 7), (2, 1), (2, 7)):
        expect = brute_pairs(texts, 16, tau)
        got = edit_distance_pairs(
            rd.from_pandas([df.iloc[i::4].reset_index(drop=True)
                            for i in range(4)]),
            prefix_len=16, tau=tau, num_shards=S)
        assert list(got.itertuples(index=False, name=None)) == expect
    d_umlaut = [d for a, b, d in brute_pairs(texts, 16, 2)
                if (a, b) == (102, 103)]
    assert d_umlaut == [2]  # the byte-level rule actually exercised


@pytest.mark.usefixtures("ray_session")
def test_pairs_layout_independent():
    import ray.data as rd

    df = pd.DataFrame({
        "doc_id": range(8),
        "text": ["alpha beta gamma"] * 3 + ["alpha beta gamm"] * 2
                + ["wholly different text", "x", "y"]})
    outs = []
    for n, S in ((1, 1), (5, 1), (1, 7), (5, 7)):
        ds = rd.from_pandas([df.iloc[i::n].reset_index(drop=True)
                             for i in range(n)])
        outs.append(edit_distance_pairs(ds, prefix_len=16, tau=2,
                                        num_shards=S))
    assert all(o.equals(outs[0]) for o in outs[1:])
    # the three identical + two 1-off texts form a 5-clique; x/y pair at d=1
    assert len(outs[0]) == 11


@pytest.mark.usefixtures("ray_session")
def test_bucket_cap_raises_on_degenerate_segment():
    import ray.data as rd

    df = pd.DataFrame({"doc_id": range(40),
                       "text": ["identical prefix here"] * 40})
    ds = rd.from_pandas([df])
    for S in (1, 7):
        with pytest.raises(Exception, match="bucket"):
            edit_distance_pairs(ds, prefix_len=16, tau=2, bucket_cap=30,
                                num_shards=S)


@pytest.mark.usefixtures("ray_session")
def test_null_text_pairs_with_nothing():
    """A NULL text has no prefix, so it pairs with no document — as in
    the SQL oracle, where levenshtein(substr(NULL, ...), ...) is NULL.
    Read as "" it would pair with every text of at most tau bytes."""
    import ray.data as rd

    df = pd.DataFrame({"doc_id": range(5),
                       "text": ["ab", None, "x", "abcdefgh", None]})
    texts = {i: t for i, t in enumerate(df["text"]) if t is not None}
    for S in (1, 7):
        got = edit_distance_pairs(rd.from_pandas([df]), prefix_len=16,
                                  tau=2, num_shards=S)
        assert list(got.itertuples(index=False, name=None)) == \
            brute_pairs(texts, 16, 2)
        assert not {1, 4} & (set(got["a"]) | set(got["b"]))
