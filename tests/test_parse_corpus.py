"""Frozen parse corpus (tools/parse_corpus.py): ~300 synthetic and
mutation-fuzzed pages, one sha256 per page for the parse output (with
status and error), the checkfile audit rows and the rendered checkfile
blobs, keyed by dictionary fingerprint. A refactor of the parser must keep
every digest; an intended output change re-pins with a stated reason."""

import importlib
import pkgutil

import pytest

import akf_cdparser_ray.parsing as parsing_pkg
from akf_cdparser_ray.parsing import checkfiles
from akf_cdparser_ray.parsing.checkfiles import render_checkfiles
from akf_cdparser_ray.parsing.dictionaries import get_default
from akf_cdparser_ray.parsing.profile_parser import ProfileParser
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
