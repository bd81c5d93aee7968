"""Frozen parse corpus (tools/parse_corpus.py): ~300 synthetic and
mutation-fuzzed pages, one sha256 per page for the parse output (with
status and error), the checkfile audit rows and the rendered checkfile
blobs, keyed by dictionary fingerprint. A refactor of the parser must keep
every digest; an intended output change re-pins with a stated reason."""

import importlib
import json
import pkgutil

import pytest

import akf_cdparser_ray.parsing as parsing_pkg
from akf_cdparser_ray.parsing import checkfiles
from akf_cdparser_ray.parsing.checkfiles import render_checkfiles
from akf_cdparser_ray.parsing.dictionaries import get_default
from akf_cdparser_ray.parsing.profile_parser import ProfileParser
from akf_cdparser_ray.sources import synth
from akf_cdparser_ray.stages.parse_stage import ParseProfiles
from tools import parse_corpus as pc


@pytest.fixture(scope="module")
def corpus():
    doc = pc.load_pins()
    dicts = get_default()
    pin = doc["pins"].get(dicts.fingerprint)
    if pin is None:  # pins exist for the embedded fallback; other sets re-pin
        pytest.skip(f"no corpus pins for dictionaries {dicts.source} "
                    f"{dicts.fingerprint[:12]}; run tools/parse_corpus.py")
    pages = pc.corpus_pages(doc["clean_idx"], doc["mutation_seeds"])
    assert len(pages) == len(pin["pages"])
    return pages, pin["pages"], ProfileParser(dicts)


def test_corpus_matches_pins(corpus):
    pages, pins, parser = corpus
    moved = {"out": [], "audit": [], "checkfiles": [], "audit_changes_out": []}
    for i, (html, (out, audit, cfs)) in enumerate(zip(pages, pins)):
        d = pc.page_digests(parser, html)
        for key, want in (("out", out), ("audit", audit), ("checkfiles", cfs)):
            if d[key] != want:
                moved[key].append(i)
        if d["out_audit_on"] != d["out"]:
            moved["audit_changes_out"].append(i)
    assert moved == {k: [] for k in moved}, f"pages whose digests moved: {moved}"


def test_no_js_stringify_without_audit(corpus, monkeypatch):
    """With no audit sink attached, parsing never builds a checkfile string;
    with one attached, the (counted) strings still match the pins."""
    pages, pins, parser = corpus
    calls = [0]
    real = checkfiles.js_stringify

    def counting(value, space=0):
        calls[0] += 1
        return real(value, space)

    for info in pkgutil.iter_modules(parsing_pkg.__path__):
        mod = importlib.import_module(f"{parsing_pkg.__name__}.{info.name}")
        if getattr(mod, "js_stringify", None) is real:
            monkeypatch.setattr(mod, "js_stringify", counting)

    for html in pages:
        pc.parse_record(parser, html)
    assert calls[0] == 0, f"{calls[0]} js_stringify calls with audit=None"

    moved = []
    for i, (html, (_out, audit, cfs)) in enumerate(zip(pages, pins)):
        _rec, rows = pc.audit_record(parser, html)
        if pc.sha(rows) != audit or pc.sha(sorted(render_checkfiles(rows).items())) != cfs:
            moved.append(i)
    assert calls[0] > 0
    assert moved == [], f"audit rows moved on pages {moved}"


def test_fetch_matches_pins():
    """SyntheticFetcher rows (html, image bytes, w, h, fmt, phash) per URL."""
    doc = pc.load_pins()
    pin = doc["fetch_pins"]
    got = pc.fetch_digests(pin["corpus"], doc["clean_idx"],
                           pin["content_seed"], pin["content_idx"])
    assert len(got) == len(pin["pages"])
    assert [i for i, (a, b) in enumerate(zip(got, pin["pages"])) if a != b] == []


def test_lse_grids_match_pins(corpus):
    """The ungrouped and grouped LSE cell grids over the corpus's GuV lines."""
    pages, _pins, parser = corpus
    want = pc.load_pins()["lse_pins"][parser.dicts.fingerprint]
    assert pc.lse_digests(pc.lse_lines(parser, pages)) == want


def test_caption_path_drops_only_fulltext(corpus):
    """``parse(fulltext=False)``, which the caption path runs, is the full
    parse output minus ``_fulltext`` (same keys in the same order), and
    ``ParseProfiles`` captions are the captions of the full output."""
    pages, _pins, parser = corpus
    moved, want = [], []
    for i, html in enumerate(pages):
        full = pc.parse_record(parser, html)["parsed"]
        if full is None:
            want.append(None)
            continue
        slim = parser.parse(html, fulltext=False)
        if "_fulltext" not in full or list(slim.items()) != [
                kv for kv in full.items() if kv[0] != "_fulltext"]:
            moved.append(i)
        want.append(synth.canonical_caption(full))
    assert moved == []
    got = ParseProfiles()(pc.pages_batch(pages)).column("caption").to_pylist()
    assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == []


def test_caption_of_mixed_key_dict(corpus):
    """Page 219 (mutation seed 1119) parses to a dict mixing int and str
    keys, which ``json.dumps(sort_keys=True)`` rejects. Its caption puts
    number keys first, ascending, and ``ParseProfiles`` writes an ok row
    for it. The same ordering reproduces the fast path's caption on a
    page whose keys are all strings."""
    pages, _pins, parser = corpus
    full = pc.parse_record(parser, pages[219])["parsed"]
    assert list(full["ausBilanzen"][0]["ausBilanzen"]) == [-1, "Passiva"]
    cap = synth.canonical_caption(full)
    assert json.loads(cap)["ausBilanzen"][0]["ausBilanzen"].keys() == {
        "-1", "Passiva"}
    assert cap.index('"-1":') < cap.index('"Passiva":')
    row = ParseProfiles()(pc.pages_batch(pages[219:220]))
    assert row.column("status").to_pylist() == ["ok"]
    assert row.column("caption").to_pylist() == [cap]
    plain = {k: v for k, v in pc.parse_record(parser, pages[0])["parsed"]
             .items() if k != "_fulltext"}
    assert json.dumps(synth._ordered(plain), ensure_ascii=False,
                      separators=(",", ":")) == synth.canonical_caption(plain)


def test_coverage_matches_pins(corpus):
    """``ParseProfiles(with_residue=True)`` still builds ``_fulltext`` for
    the coverage ratio, which keeps its pinned values."""
    pages, _pins, parser = corpus
    want = pc.load_pins()["coverage_pins"][parser.dicts.fingerprint]
    assert pc.coverage_values(pages) == want
