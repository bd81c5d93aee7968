"""Frozen parse corpus: a regression guard for parser refactors.

About 300 pages: clean ``sources/synth.py`` pages plus
``tools/fuzz_parity.mutate`` variants, both listed by seed in
``tests/parse_corpus_pins.json``. Each page gets three sha256 digests:

- ``out``: the parse output JSON with its status and error (the
  ``ParseProfiles`` failed-page convention: ``repr(exc)[:500]``);
- ``audit``: the checkfile audit rows (``ProfileParser(audit=AuditSink())``);
- ``checkfiles``: the rendered checkfile blobs (``render_checkfiles``).

Pins are keyed by the dictionary fingerprint, because the title and
function dictionaries change the parse output. This is NOT a parity proof
against ``lib/parser.js`` (tests/test_reference_parity.py and
tools/fuzz_parity.py are); it only proves that a change kept the output.

Usage: ``python tools/parse_corpus.py`` re-pins the current fingerprint's
digests. Re-pin only when the output changed on purpose, and say why.
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

from akf_cdparser_ray.parsing.checkfiles import AuditSink, render_checkfiles  # noqa: E402
from akf_cdparser_ray.parsing.dictionaries import get_default  # noqa: E402
from akf_cdparser_ray.parsing.profile_parser import ProfileParser  # noqa: E402
from akf_cdparser_ray.sources import synth  # noqa: E402
from tools.fuzz_parity import mutate  # noqa: E402

PINS_PATH = os.path.join(REPO, "tests", "parse_corpus_pins.json")
CLEAN_IDX = list(range(100))              # synth.gen_profile(idx)
MUTATION_SEEDS = list(range(1000, 1200))  # random.Random(seed) → idx + mutate


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


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as f:
        return json.load(f)


def main() -> None:
    dicts = get_default()
    parser = ProfileParser(dicts)
    digests = [page_digests(parser, html)
               for html in corpus_pages(CLEAN_IDX, MUTATION_SEEDS)]
    bad = [i for i, d in enumerate(digests) if d["out"] != d["out_audit_on"]]
    if bad:
        raise SystemExit(f"parse output differs with audit on/off on pages {bad[:10]}")
    pins = load_pins()["pins"] if os.path.exists(PINS_PATH) else {}
    pins[dicts.fingerprint] = {
        "source": dicts.source,
        "pages": [[d["out"], d["audit"], d["checkfiles"]] for d in digests],
    }
    with open(PINS_PATH, "w", encoding="utf-8") as f:
        json.dump({"clean_idx": CLEAN_IDX, "mutation_seeds": MUTATION_SEEDS,
                   "pins": pins}, f, indent=1, sort_keys=True)
        f.write("\n")
    errors = sum(d["status"] != "ok" for d in digests)
    print(f"pinned {len(digests)} pages ({errors} failed) for "
          f"{dicts.source} {dicts.fingerprint[:12]}")


if __name__ == "__main__":
    main()
