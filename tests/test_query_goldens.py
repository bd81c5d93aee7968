"""Golden pins for every rows-only (``no_oracle``) queries() entry
(VERDICT r2 #5): their outputs are deterministic (seeded synthetic data,
seeded hashes/hyperplanes), so any refactor that silently changes results
fails here. Hash = canonical CSV (column-name-sorted, row-sorted, floats at
9 significant digits) — tools/query_golden.py. Re-pin ONLY with an
explanation of why the output legitimately changed.

The DuckDB-oracled entries are covered by tools/check_correctness.py (the
driver gate) and are not duplicated here.
"""

import pytest

from akf_cdparser_ray.parsing.dictionaries import get_default
from tools.query_golden import canonical_hash

FULL_DICTFILES = "reference dictfiles"

GOLDENS = {
    "minhash_neardup": "537cb47cddcf5f1b1dfc5ebb885a8431b0c2218ac2ab090dec57d35a1e7f63b3",
    "simhash": "aa40888151b1f31096206c22186f2f7d13d171b2d3364ea1c7859f0f2c4505d7",
    "embedding_neardup": "2bdb126f37312f27648e22e32513d516642b9922166607f93a6fbca99322e7b8",
    "phash_neardup": "4d1ae2007f86bea01820537baf8d5ef83901dc9f1768f150848a1459c9367569",
    "rolling_fps": "bb3e919c434984c6341b485e2a5135622ba2ef4940f99ac76d70d92da6f9950e",
    "lse_report": "227716fd5238744173a2a6680645e83d3a80a90121391f7c727db6e00299b4cc",
    "audio_features": "2dc77b8d9028d8cf92b1fc82abe283cb515da17ee92705c9cc636dcc8a7f7b53",
    "frame_sample": "e6c580fe06476947820e6328721667fe87e3bc1b9f4d4fd92243614c8dc76704",
    "parse_profiles": "8250fbc61718e22044f0b28024b0612887aa10f7193a0b8939f092eaf11e6af2",
    "langid": "906beefe8e4e7e96ad3dc96e1abf61881dd6d0562f1bfb53d9ef6855f73ac07e",
    "crawl_smoke": "f3dbfbcc1feb8f904d0eb4a19e84b60d88e9dc5ddf13ab0308e6ffb018dd3c97",
    # schedule-independent counters only (the stream determinism contract);
    # stable across 3 back-to-back runs at pin time
    "crawl_stream": "497c3b08a45112e6809b68bc7e2819d989d872719d2b2e23da1251732500837c",
    # validity and coverage depend on the title/function dictionaries: one
    # pin per dictionary fingerprint (Dictionaries.fingerprint). The full
    # reference dictfiles were pinned before fingerprints existed, so that
    # pin serves every fingerprint without its own entry.
    "validate_profiles": {
        FULL_DICTFILES: "d7766900c8b398a6030da9def6d6896d1ee87eef67a36a5a4348d7241c446f28",
        # embedded fallback (19 titles, 16 functions)
        "62c85862a4c2274bd49ec73cb0923b926c70d221cc70d121ac8453ef27f33e21":
            "abeacd1227241daba3c99dce299efd543551649c2dd410120cd038ad561c2717",
    },
    "approx_distinct": "f10231fb47b6822716100090faed2194a47bdeefe67e7f7a322520a785642bd1",
    "approx_quantiles": "cc13dfb6d9e1351a6386362b272a491f5ad12e11bdcad2ea45eb1aaced59564d",
    "chunk_dedup": "447b886afabc172dc2b16dc56c1b3ac92b2a63c72ead532626e3430ddd14d99f",
    "dedup_clusters": "5d8c1f91b987993c3f07f849f6a8bb22b0ccab796870f60a20bbffa7dbff92d5",
    "pack_sequences": "39713deeee81746adaffb4eb9ef3302b1e8de65b57013b72402374f150946feb",
    "range_shards": "8c464f42715bc393cf4925639f1f6ee56e4425e784c075d8cce4a9b85fa1a3c4",
    "curate": "bd97ff580d65626d037c6a8678c2bf62f316ea078f0a4b8b01faefe7b34dd5f2",
    # kmeans partial-fold order is pinned by the query's repartition(8)
    "ivf_topk": "9c35800bbf30c8240a4c3f018ef3a419b74286d14f4914ae6500ed04df214326",
    # same kmeans pin; planted clones (every 10th vec_id) must all drop
    "semdedup": "03ae93ed3230b54b910586c074cdd7c0ffd70a36a4f1a250f144a5cc12c17e39",
    # bit-deterministic by construction (fixed-order hop-2 sums), no
    # partitioning pin needed; 1,500-page synth link graph, 10 iters
    "pagerank": "c7b57fbc767cc9032175ff52fe5b5211edf3c6711fc4b9d1e7fbc01bb2f76993",
    # bit-deterministic: exact-integer model + fixed-order stream sums
    # (fit+score layout independence pinned in tests/test_lm.py)
    "lm_perplexity": "af4623d4335d886ccb9aab9890da290be019c8e6b356222e9db0b58823456f04",
    # deterministic synthetic scans -> thumbs -> histograms; features
    # rendered at fixed precision inside the query
    "image_features": "5c69cc45a6151faf9a36fc89230a909693382eb0e83e94041ec5b947b3d42e5c",
}

SF_DIR = "/root/testdata/sf0.01"


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_query_golden(name):
    import __ray_entry__ as entry

    want = GOLDENS[name]
    if isinstance(want, dict):
        want = want.get(get_default().fingerprint, want[FULL_DICTFILES])
    out = entry.queries()[name](SF_DIR)
    assert canonical_hash(out) == want, (
        f"{name} output drifted from its golden pin — if the change is "
        "intentional, re-pin with a rationale"
    )


def test_goldens_cover_every_rows_only_query():
    """The pin set must stay in lockstep with queries() minus oracle_sql()."""
    import __ray_entry__ as entry

    rows_only = set(entry.queries()) - set(entry.oracle_sql())
    assert rows_only == set(GOLDENS)


def test_oracled_queries_come_first():
    """The correctness gate checks the first 50 queries() entries; every
    oracled entry precedes every rows-only one, so all 50 are oracled."""
    import __ray_entry__ as entry

    oracled = set(entry.oracle_sql())
    names = list(entry.queries())
    assert all(n in oracled for n in names[:50])
    assert all(n in oracled for n in names[:len(oracled)])
