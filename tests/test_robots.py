"""RFC 9309 robots.txt parser tests (state/robots.py).

Cases are taken from the RFC's own examples (§2.2.2 longest-match table,
§5.1/§5.2 group examples) plus the widely-published wildcard semantics.
"""

from akf_cdparser_ray.state.politeness import RobotsRules, synth_robots_txt
from akf_cdparser_ray.state.robots import RobotsTxt

RFC_GROUPS = """\
User-agent: a
User-agent: b
Disallow: /a-and-b/

User-agent: c
Disallow: /only-c/

User-agent: *
Disallow: /default/
"""


def test_group_selection_and_fallback():
    r = RobotsTxt(RFC_GROUPS)
    # multi-agent group applies to both tokens
    assert not r.allowed("/a-and-b/x", agent="a")
    assert not r.allowed("/a-and-b/x", agent="b")
    assert r.allowed("/only-c/x", agent="a")
    assert not r.allowed("/only-c/x", agent="c")
    # unmatched agent falls back to '*'
    assert not r.allowed("/default/x", agent="zzz")
    # a matched group SHADOWS '*' entirely
    assert r.allowed("/default/x", agent="c")
    # longest product-token prefix wins, case-insensitive
    r2 = RobotsTxt("User-agent: foo\nDisallow: /x/\n"
                   "User-agent: foobar\nDisallow: /y/\n")
    assert r2.allowed("/x/1", agent="FooBar-1.0")
    assert not r2.allowed("/y/1", agent="FooBar-1.0")


def test_longest_match_precedence():
    # RFC 9309 §2.2.2 example table
    r = RobotsTxt("User-agent: *\nAllow: /example/page/\nDisallow: /example/\n")
    assert r.allowed("/example/page/")
    assert not r.allowed("/example/other")
    # equal-length tie -> Allow wins
    r2 = RobotsTxt("User-agent: *\nAllow: /page\nDisallow: /page\n")
    assert r2.allowed("/page")
    # no matching rule -> allowed
    assert r2.allowed("/other")


def test_wildcards_and_anchor():
    r = RobotsTxt("User-agent: *\nDisallow: /*.gif$\nDisallow: /tmp/*\n")
    assert not r.allowed("/a/b/c.gif")
    assert r.allowed("/a/b/c.gif?x=1")  # $ anchors the very end
    assert not r.allowed("/tmp/anything/here")
    assert r.allowed("/tmpfile")
    # * inside a path segment
    r2 = RobotsTxt("User-agent: *\nDisallow: /private*data\n")
    assert not r2.allowed("/private-user-data")
    assert r2.allowed("/data-private")


def test_edge_cases():
    # empty Disallow allows everything; empty file allows everything
    assert RobotsTxt("User-agent: *\nDisallow:\n").allowed("/anything")
    assert RobotsTxt("").allowed("/anything")
    # comments, BOM, CRLF, unknown directives, percent-case folding
    r = RobotsTxt("﻿User-agent: *\r\nDisallow: /a/ # trailing\r\n"
                  "Weird-directive: x\r\nDisallow: /%7Eb/\r\n")
    assert not r.allowed("/a/x")
    assert not r.allowed("/%7eb/x")
    # rules before any user-agent line are ignored
    assert RobotsTxt("Disallow: /x/\nUser-agent: *\nDisallow: /y/\n").allowed("/x/1")
    # same-agent groups merge (§2.2.1)
    r2 = RobotsTxt("User-agent: *\nDisallow: /a/\n\n"
                   "User-agent: *\nDisallow: /b/\n")
    assert not r2.allowed("/a/1") and not r2.allowed("/b/1")


def test_crawl_delay_and_sitemap():
    r = RobotsTxt("User-agent: bot\nCrawl-delay: 2.5\nDisallow: /x/\n"
                  "Sitemap: https://example.com/sitemap.xml\n"
                  "User-agent: *\nDisallow:\n")
    assert r.crawl_delay(agent="bot-2.1") == 2.5
    assert r.crawl_delay() is None
    assert r.sitemaps == ["https://example.com/sitemap.xml"]


def test_gate_wrapper_matches_old_prefix_semantics():
    """The synthetic fixture robots (prefix Disallows only) must evaluate
    identically under RFC semantics — crawl replay traces depend on it."""
    for host in ("host0.example", "host7.example", "hostelse.example"):
        text = synth_robots_txt(host)
        rules = RobotsRules(text)
        prefixes = [ln.split(":", 1)[1].strip()
                    for ln in text.splitlines() if ln.startswith("Disallow")]
        for path in ("/1999/a.html", "/2000/b.html", "/2015/c.html",
                     "/private/x", "/pub/ok.html", "/"):
            assert rules.allowed(path) == (
                not any(path.startswith(p) for p in prefixes)
            ), (host, path)


def test_crawl_delay_derives_politeness_budget():
    """Without an operator budget, a robots Crawl-delay caps the host's
    per-wave token budget at wave_seconds/delay (min 1); explicit budgets
    and delay-free hosts are unchanged."""
    from akf_cdparser_ray.state.politeness import DEFAULT_BUDGET, PolitenessState

    def fetch(host):
        if host == "slow.example":
            return "User-agent: *\nCrawl-delay: 0.5\nDisallow:\n"
        if host == "glacial.example":
            return "User-agent: *\nCrawl-delay: 30\nDisallow:\n"
        return "User-agent: *\nDisallow:\n"

    st = PolitenessState(budgets={"fast.example": {"per_wave": 99, "burst": 99}},
                         robots_fetch=fetch, wave_seconds=1.0)
    assert st.bucket_for("slow.example").per_wave == 2      # 1.0 / 0.5
    assert st.bucket_for("glacial.example").per_wave == 1   # floor at 1
    assert st.bucket_for("plain.example").per_wave == DEFAULT_BUDGET["per_wave"]
    assert st.bucket_for("fast.example").per_wave == 99     # explicit wins


def test_allowed_many_matches_scalar():
    """Round-4 pin: the vectorized evaluator must give byte-identical
    verdicts to scalar allowed() — RFC examples, wildcards, anchors,
    percent-encoding, Allow-tie, empty paths, and the synthetic fixture."""
    import numpy as np

    from akf_cdparser_ray.state.politeness import synth_robots_txt

    texts = [
        "User-agent: *\nDisallow: /private/\nAllow: /private/ok\n",
        ("User-agent: *\nDisallow: /*.gif$\nAllow: /gallery/\n"
         "Disallow: /tmp*\nDisallow: /a%3cd.html\n"),
        "User-agent: x\nDisallow: /\nUser-agent: *\nAllow: /\n",
        "",  # no rules
        synth_robots_txt("www.host3.example"),
    ]
    paths = ["/", "", "/private/", "/private/ok/page", "/img/x.gif",
             "/gallery/x.gif", "/tmp", "/tmpx/y", "/a%3Cd.html",
             "/a%3cd.html", "/2004/page1.html", "/private/x",
             "/x" * 30, "/gallery/sub/deep.gif$"]
    for text in texts:
        r = RobotsTxt(text)
        for agent in ("*", "x", "xbot"):
            exp = [r.allowed(p or "/", agent) for p in paths]
            got = r.allowed_many(paths, agent)
            assert isinstance(got, np.ndarray)
            assert got.tolist() == exp, (text, agent)


def test_gate_frame_decisions_match_row_loop():
    """The vectorized gate decision must reproduce the old per-row loop:
    same decisions, same lazy bucket creation (checkpoint payloads)."""
    import json

    import pandas as pd

    from akf_cdparser_ray.state.politeness import (
        PolitenessState, synth_robots_txt,
    )

    class _Plain:
        """The pre-round-4 per-row loop, kept verbatim as the oracle."""

        def __init__(self):
            self.state = PolitenessState(robots_fetch=synth_robots_txt)

        def decide(self, hosts, urls, wave, salts):
            out = []
            for host, url in zip(hosts, urls):
                rules = self.state.rules_for(host)
                path = url.split(host, 1)[-1] or "/"
                if not rules.allowed(path):
                    out.append("robots")
                    continue
                b = self.state.bucket_for(host, salts.get(host, 1))
                b.refill(wave)
                out.append("allow" if b.try_take() else "defer")
            return out

    from akf_cdparser_ray.stages.politeness_stage import PolitenessShard

    gate_cls = PolitenessShard.__ray_metadata__.modified_class
    vec = gate_cls()
    plain = _Plain()
    rows = []
    for h in range(6):
        host = f"www.host{h}.example"
        for i in range(20):
            year = 1999 + (sum(map(ord, host)) % 17)  # denied year
            path = f"/{year}/p{i}.html" if i % 4 == 0 else f"/ok/p{i}.html"
            rows.append((host, f"http://{host}{path}"))
    rows.append(("www.hostX.example", "http://www.hostX.example"))  # "" path
    df = pd.DataFrame(rows, columns=["host", "url_canon"])
    salts = {"www.host1.example": 2}
    for wave in (1, 2, 5):
        exp = plain.decide(df["host"].tolist(), df["url_canon"].tolist(),
                           wave, salts)
        got = list(vec._decide_frame(df, wave, salts))
        assert got == exp, wave
    # identical checkpoint payloads (lazy bucket creation preserved)
    exp_buckets = json.dumps(
        {h: {"tokens": b.tokens, "wave": b.wave, "per_wave": b.per_wave,
             "burst": b.burst} for h, b in plain.state.buckets.items()},
        sort_keys=True)
    assert vec.serialize() == exp_buckets


class _PandasGate:
    """The gate decision before the one-pass rewrite: a pandas ``groupby``
    and one vectorized string op per robots rule of each host group. Kept
    verbatim as the reference the one-pass ``_decide`` must equal."""

    def __init__(self, budgets=None):
        from akf_cdparser_ray.state.politeness import (
            PolitenessState, synth_robots_txt,
        )

        self.state = PolitenessState(budgets, robots_fetch=synth_robots_txt)

    def _decide_frame(self, df, wave: int, salts: dict):
        import numpy as np

        n = len(df)
        decisions = np.empty(n, dtype=object)
        if not n:
            return decisions
        rules_for = self.state.rules_for
        bucket_for = self.state.bucket_for
        df = df.reset_index(drop=True)
        for host, g in df.groupby("host", sort=False):
            rules = rules_for(host)
            paths = g["url_canon"].str.split(host, n=1, regex=False).str[-1]
            ok = np.asarray(rules.allowed_many(paths), dtype=bool)
            dec = np.where(ok, "defer", "robots").astype(object)
            if ok.any():
                bucket = bucket_for(host, salts.get(host, 1))
                bucket.refill(wave)
                take = min(int(bucket.tokens), int(ok.sum()))
                bucket.tokens -= take
                dec[np.flatnonzero(ok)[:take]] = "allow"
            decisions[g.index.to_numpy()] = dec
        return decisions


def test_one_pass_gate_matches_pandas_gate():
    """The one-pass gate equals the pandas decision it replaced on frames
    of 0, 1, 13, 192 and 2,048 rows with hot hosts salted, robots-denied
    paths, empty paths and budget-capped hosts, wave after wave — the
    decisions and the checkpointed bucket states."""
    import json
    import random

    import pandas as pd

    from akf_cdparser_ray.stages.politeness_stage import PolitenessShard

    gate_cls = PolitenessShard.__ray_metadata__.modified_class
    budgets = {"www.host0.example": {"per_wave": 8, "burst": 12},
               "www.host2.example": {"per_wave": 1, "burst": 2}}
    for n in (0, 1, 13, 192, 2048):
        rng = random.Random(n)
        one, ref = gate_cls(budgets), _PandasGate(budgets)
        for wave in (1, 2, 3, 7):
            rows = []
            for _ in range(n):
                host = f"www.host{min(rng.randrange(12), rng.randrange(12))}.example"
                year = 1999 + rng.randrange(17)
                path = rng.choice((f"/{year}/p{rng.randrange(999)}.html",
                                   f"/private/{rng.randrange(99)}", "", "/"))
                rows.append((host, f"http://{host}{path}"))
            df = pd.DataFrame(rows, columns=["host", "url_canon"])
            salts = {"www.host0.example": 4, "www.host1.example": 2}
            exp = list(ref._decide_frame(df, wave, salts))
            assert one._decide_frame(df, wave, salts) == exp, (n, wave)
            assert one.gate(df["host"].tolist(), df["url_canon"].tolist(),
                            wave + 100, salts) == list(
                ref._decide_frame(df, wave + 100, salts)), (n, wave)
        exp_buckets = json.dumps(
            {h: {"tokens": b.tokens, "wave": b.wave, "per_wave": b.per_wave,
                 "burst": b.burst} for h, b in ref.state.buckets.items()},
            sort_keys=True)
        assert one.serialize() == exp_buckets, n
