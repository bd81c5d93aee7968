"""Frozen parse corpus: a regression guard for parser refactors.

About 300 pages: clean ``sources/synth.py`` pages plus
``tools/fuzz_parity.mutate`` variants, both listed by seed in
``tests/parse_corpus_pins.json``. Each page gets three sha256 digests:

- ``out``: the parse output JSON with its status and error (the
  ``ParseProfiles`` failed-page convention: ``repr(exc)[:500]``);
- ``audit``: the checkfile audit rows (``ProfileParser(audit=AuditSink())``);
- ``checkfiles``: the rendered checkfile blobs (``render_checkfiles``).

Beside them, over the same pages:

- ``lse_pins``: the sha256 of the ungrouped and grouped
  ``stages/lse.render_cells`` grids built from the GuV line arrays the
  parser captures (``lse_lines``), with zumstein on and off;
- ``coverage_pins``: the ``ParseProfiles(with_residue=True)`` coverage
  value of every page (it reads the parse output's ``_fulltext``).

Parse, LSE and coverage pins are keyed by the dictionary fingerprint,
because the title and function dictionaries change the parse output. This
is NOT a parity proof against ``lib/parser.js``
(tests/test_reference_parity.py and tools/fuzz_parity.py are); it only
proves that a change kept the output.

``fetch_pins`` are dictionary-independent: one sha256 per URL of the
``SyntheticFetcher`` row (``html``, image ``bytes``, ``w``, ``h``, ``fmt``,
``phash`` and the rest), for the clean corpus indices and a sample of
content-benchmark-sized corpus URLs.

Usage: ``python tools/parse_corpus.py`` re-pins the fetch digests and the
current fingerprint's digests. Re-pin only when the output changed on
purpose, and say why.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

import pyarrow as pa  # noqa: E402

from akf_cdparser_ray.parsing.checkfiles import AuditSink, render_checkfiles  # noqa: E402
from akf_cdparser_ray.parsing.dictionaries import get_default  # noqa: E402
from akf_cdparser_ray.parsing.profile_parser import ProfileParser  # noqa: E402
from akf_cdparser_ray.sources import synth  # noqa: E402
from akf_cdparser_ray.stages import lse  # noqa: E402
from akf_cdparser_ray.stages.fetch import SyntheticFetcher  # noqa: E402
from akf_cdparser_ray.stages.links import canonicalize_url  # noqa: E402
from akf_cdparser_ray.stages.parse_stage import ParseProfiles  # noqa: E402
from tools.fuzz_parity import mutate  # noqa: E402

PINS_PATH = os.path.join(REPO, "tests", "parse_corpus_pins.json")
CLEAN_IDX = list(range(100))              # synth.gen_profile(idx)
MUTATION_SEEDS = list(range(1000, 1200))  # random.Random(seed) → idx + mutate
FETCH_CORPUS = 20000   # SyntheticFetcher corpus size (the content benchmark's)
FETCH_CONTENT_SEED = 1  # content seed of the sampled URLs (CLEAN_IDX use synth.SEED)
FETCH_CONTENT_IDX = sorted(random.Random("fetch-pins").sample(range(FETCH_CORPUS), 200))


def corpus_pages(clean_idx: list[int], mutation_seeds: list[int]) -> list[str]:
    pages = [synth.render_page(synth.gen_profile(i)) for i in clean_idx]
    for seed in mutation_seeds:
        rng = random.Random(seed)
        pages.append(mutate(synth.render_page(synth.gen_profile(rng.randrange(120))), rng))
    return pages


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, ensure_ascii=False).encode()).hexdigest()


def parse_record(parser: ProfileParser, html: str) -> dict:
    """Parse output with status and error, as a ``ParseProfiles`` row has them."""
    try:
        return {"status": "ok", "error": "", "parsed": parser.parse(html)}
    except Exception as exc:  # the ParseProfiles failed-page row
        return {"status": "error", "error": repr(exc)[:500], "parsed": None}


def audit_record(parser: ProfileParser, html: str) -> tuple[dict, list[dict]]:
    """Parse with a fresh audit sink; rows written before a crash remain."""
    parser.audit = AuditSink()
    try:
        return parse_record(parser, html), parser.audit.rows
    finally:
        parser.audit = None


def page_digests(parser: ProfileParser, html: str) -> dict:
    """Digests of one page: parse with audit off, then with audit on."""
    off = parse_record(parser, html)
    on, rows = audit_record(parser, html)
    return {"status": off["status"], "out": sha(off), "out_audit_on": sha(on),
            "audit": sha(rows), "checkfiles": sha(sorted(render_checkfiles(rows).items()))}


def fetch_digests(corpus: int, clean_idx: list[int], content_seed: int,
                  content_idx: list[int]) -> list[str]:
    """One digest per URL of the fetched row; image bytes enter as hex."""
    out = []
    for seed, idx in ((synth.SEED, clean_idx), (content_seed, content_idx)):
        urls = [canonicalize_url(synth.page_url_for_idx(i)) for i in idx]
        rows = SyntheticFetcher(corpus, seed)(
            pa.table({"url_canon": urls, "depth": [0] * len(urls)})).to_pylist()
        out += [sha({k: v.hex() if isinstance(v, bytes) else v
                     for k, v in row.items()}) for row in rows]
    return out


def lse_lines(parser: ProfileParser, pages: list[str]) -> list[str]:
    """The GuV lines captured while parsing ``pages`` in order, as the
    ``--lse`` report feeds them (a failed page keeps its earlier arrays)."""
    lines: list[str] = []
    for html in pages:
        parser.lse_lines = []
        try:
            parser.parse(html)
        except Exception:
            pass
        for arr in parser.lse_lines:
            lines.extend(arr)
        parser.lse_lines = None
    return lines


def lse_digests(lines: list[str]) -> dict:
    """sha256 of the ungrouped and grouped cell grids, zumstein off and on."""
    out = {}
    for name, zumstein in (("plain", False), ("zumstein", True)):
        sectors = lse.build_sectors_holder(lines, zumstein=zumstein)
        ungrouped = sha(lse.render_cells(sectors))  # before do_grouping mutates
        out[name] = {"ungrouped": ungrouped,
                     "grouped": sha(lse.render_cells(lse.do_grouping(sectors)))}
    return out


def pages_batch(pages: list[str]) -> pa.Table:
    """``pages`` as a parse-stage input batch (no image payload)."""
    empty = {k: [None] * len(pages) for k in ("image_id", "bytes", "w", "h", "fmt", "phash")}
    return pa.table({**empty, "html": pages})


def coverage_values(pages: list[str]) -> list[float]:
    """``ParseProfiles(with_residue=True)``'s coverage column (0.0 for a
    page whose parse or caption failed)."""
    return ParseProfiles(with_residue=True)(pages_batch(pages)).column("coverage").to_pylist()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as f:
        return json.load(f)


def main() -> None:
    dicts = get_default()
    parser = ProfileParser(dicts)
    pages = corpus_pages(CLEAN_IDX, MUTATION_SEEDS)
    digests = [page_digests(parser, html) for html in pages]
    bad = [i for i, d in enumerate(digests) if d["out"] != d["out_audit_on"]]
    if bad:
        raise SystemExit(f"parse output differs with audit on/off on pages {bad[:10]}")
    doc = load_pins() if os.path.exists(PINS_PATH) else {}
    fp = dicts.fingerprint
    doc.setdefault("pins", {})[fp] = {
        "source": dicts.source,
        "pages": [[d["out"], d["audit"], d["checkfiles"]] for d in digests],
    }
    doc.setdefault("lse_pins", {})[fp] = lse_digests(lse_lines(parser, pages))
    doc.setdefault("coverage_pins", {})[fp] = coverage_values(pages)
    doc["fetch_pins"] = {
        "corpus": FETCH_CORPUS, "content_seed": FETCH_CONTENT_SEED,
        "content_idx": FETCH_CONTENT_IDX,
        "pages": fetch_digests(FETCH_CORPUS, CLEAN_IDX, FETCH_CONTENT_SEED, FETCH_CONTENT_IDX),
    }
    doc.update(clean_idx=CLEAN_IDX, mutation_seeds=MUTATION_SEEDS)
    with open(PINS_PATH, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    errors = sum(d["status"] != "ok" for d in digests)
    print(f"pinned {len(digests)} pages ({errors} failed) for "
          f"{dicts.source} {fp[:12]}; {len(doc['fetch_pins']['pages'])} fetch pins")


if __name__ == "__main__":
    main()
