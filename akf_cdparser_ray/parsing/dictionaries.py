"""Title / function dictionary matching (SURVEY.md §2.3 ST1-ST3).

Semantics follow the reference ``lib/dictionaryHandler.js`` (substring match
with letter-follow guard over length-desc-sorted entries; optional normalized
Levenshtein mode). Implementation is new Python.

The dictionaries are DATA (SQLite exports shipped with the reference). We
load them from a configurable path — by default the reference's
``dictfiles/`` when present — and fall back to a small embedded subset so
the package stands alone. In the Ray engine a ``Dictionaries`` instance is
actor state: built once per ``map_batches`` actor in ``__init__``
(ref ``lib/parser.js:33-34`` does the equivalent at module load).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re

from ..functions.regex_lib import remove_leading_character

_REFERENCE_DICTFILES = "/root/reference/dictfiles"

# Minimal standalone fallback (common German honorifics / board functions)
# used only when no dictfiles directory is available.
_FALLBACK_TITLES = [
    "Prof. Dr. jur.", "Dr. jur.", "Dr. rer. nat.", "Dr. rer. pol.", "Dr.",
    "Prof. Dr.", "Prof.", "Dipl.-Ing. (FH)", "Dipl.-Ing.", "Dipl.-Kfm.",
    "Dipl.-Volkswirt", "Dipl.-Betriebswirt", "Dr. h.c.", "Dr.-Ing.", "WP",
    "RA", "Konsul", "Senator", "Dr. med.",
]
_FALLBACK_FUNCTS = [
    "Vors.", "stellv. Vors.", "stellv.", "Vorstandssprecher",
    "Ehrenvorsitzender", "Sekretär", "Berater des Vorstandes", "Direktion",
    "Arbeitnehmervertreter", "Vorsitzender", "Mitglied", "Geschäftsführer",
    "Sprecher", "Finanzen", "Marketing und Vertrieb", "Personal",
]

FALLBACK_SOURCE = "embedded fallback"
_fallback_warned = False


def _warn_fallback() -> None:
    """The fallback changes captions: say so, once per process."""
    global _fallback_warned
    if not _fallback_warned:
        _fallback_warned = True
        logging.getLogger(__name__).warning(
            "no dictfiles at %s: using the embedded fallback dictionaries "
            "(%d titles, %d functions); captions differ from the full set",
            _REFERENCE_DICTFILES, len(_FALLBACK_TITLES), len(_FALLBACK_FUNCTS))


LDIST_THRESHOLD = 10  # ref dictionaryHandler.js:20

_BRACKETS_RE = re.compile(r"(\((.*?)\))")        # ref :24
_FH_EXC_RE = re.compile(r"\((FH)\)")             # ref :25
_BAR_LETTER_RE = re.compile(r"¦[a-zA-Z]")


def _levenshtein(a: str, b: str) -> int:
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _build_bigram_index(rows: list[str]) -> tuple[dict[str, list[int]], list[int]]:
    """rank lists keyed by each entry's first two chars (entries shorter than
    2 chars are always candidates). An entry can only be a substring of a
    string that contains its first bigram, so scanning only entries whose
    bigram occurs in the target preserves the exact desc-length scan order
    while skipping the vast majority of membership checks."""
    index: dict[str, list[int]] = {}
    always: list[int] = []
    for rank, entry in enumerate(rows):
        if len(entry) >= 2:
            index.setdefault(entry[:2], []).append(rank)
        else:
            always.append(rank)
    return index, always


def _load_rows(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return [r[0] for r in data.get("rows", []) if r]


class Dictionaries:
    """Loaded + length-desc-sorted title and funct dictionaries.

    ``source`` is the dictfiles directory or :data:`FALLBACK_SOURCE`;
    ``fingerprint`` is the sha256 of the sorted rows.

    Sorting desc by entry length (ref dictionaryHandler.js:302-313) makes the
    longest entry win the substring scan.
    """

    def __init__(self, dictfiles_dir: str | None = None):
        d = dictfiles_dir or (
            _REFERENCE_DICTFILES if os.path.isdir(_REFERENCE_DICTFILES) else None
        )
        if d:
            titles = _load_rows(os.path.join(d, "dict_titles.json"))
            functs = _load_rows(os.path.join(d, "dict_functs.json"))
            self.source = d
        else:
            titles = list(_FALLBACK_TITLES)
            functs = list(_FALLBACK_FUNCTS)
            self.source = FALLBACK_SOURCE
            _warn_fallback()
        self.titles = sorted(titles, key=len, reverse=True)
        self.functs = sorted(functs, key=len, reverse=True)
        # sha256 of the sorted rows: captions (and every golden that depends
        # on them) are only comparable between equal fingerprints
        h = hashlib.sha256()
        for rows in (sorted(self.titles), sorted(self.functs)):
            h.update("\n".join(rows).encode())
            h.update(b"\0")
        self.fingerprint = h.hexdigest()
        self._titles_index = _build_bigram_index(self.titles)
        self._functs_index = _build_bigram_index(self.functs)

    # -- core matcher (ref dictionaryHandler.js:150-253) -------------------
    def check_dict_content_in_string(
        self, data: str, rows: list[str], matching: str = "normal"
    ) -> dict:
        ret = {
            "isTitle": False,
            "dataWithoutTitle": "",
            "hasRest": False,
            "titleFound": "",
            "dataInBrackets": "",
        }
        ldist_matches: list[tuple[str, float]] = []
        title_accu = ""
        data_without = data

        if matching == "normal":
            # hot path. The reference scans every entry (desc length) against
            # the FH-filtered current string; we scan only entries whose first
            # bigram occurs in it, in the same rank order, recomputing the
            # candidate set whenever a match mutates the string — observable
            # behavior is identical (a substring must contain its own prefix).
            index, always = (
                self._titles_index if rows is self.titles else
                self._functs_index if rows is self.functs else
                _build_bigram_index(rows)
            )
            filtered = _FH_EXC_RE.sub("", data_without, count=1)
            min_rank = 0
            while True:
                bgs = {filtered[i: i + 2] for i in range(len(filtered) - 1)}
                cand: list[int] = list(always)
                for bg in bgs:
                    lst = index.get(bg)
                    if lst:
                        cand.extend(lst)
                cand = sorted(r for r in set(cand) if r >= min_rank)
                mutated = False
                for r in cand:
                    entry = rows[r]
                    if entry in filtered:
                        maybe = data_without.replace(entry, "¦", 1).replace("()", "")
                        if not _BAR_LETTER_RE.search(maybe):
                            title_accu = title_accu + " " + entry
                            data_without = maybe.replace("¦", "", 1)
                            filtered = _FH_EXC_RE.sub("", data_without, count=1)
                            min_rank = r + 1
                            mutated = True
                            break
                if not mutated:
                    break
            if title_accu:
                ret["isTitle"] = True
                ret["dataWithoutTitle"] = data_without.strip()
                ret["hasRest"] = len(data_without.strip()) > 0
                ret["titleFound"] = title_accu
        elif matching == "ldist":
            d = data.strip()
            for entry in rows:
                dist = _levenshtein(entry, d[: len(entry)])
                maxlen = max(len(entry), len(d)) or 1
                weight = 20 / len(entry) if entry else 20
                norm = dist / maxlen * 100 + weight
                if norm <= LDIST_THRESHOLD:
                    ret["isTitle"] = True
                    ldist_matches.append((entry, norm))
            if ldist_matches:
                ldist_matches.sort(key=lambda t: t[1])
                best = ldist_matches[0][0]
                ret["isTitle"] = True
                ret["titleFound"] = d[: len(best)]
                ret["dataWithoutTitle"] = d[len(best):].strip()
                ret["hasRest"] = len(ret["dataWithoutTitle"]) >= 1
        return ret

    def check_funct_content_in_string(self, data: str) -> dict:
        """ref dictionaryHandler.js:135-137"""
        return self.check_dict_content_in_string(data, self.functs)

    # -- title-in-array accumulator (ref dictionaryHandler.js:53-129) ------
    def check_if_title_is_in_array(
        self, data: list[str], seperator: str = ",", matching: str = "normal"
    ) -> dict:
        ret = {
            "titleDetected": "",
            "hasTitle": False,
            "nameDetected": "",
            "hasName": False,
            "nextIndex": 0,
        }
        title_accu = ""
        data_without_accu = ""
        name_accu = ""

        for i, raw in enumerate(data):
            spans = _BRACKETS_RE.findall(raw)
            if spans:
                found = ""
                for full, _inner in spans:
                    if not _FH_EXC_RE.search(full):
                        found = full
                element = raw.replace(found, "", 1)
            else:
                element = raw
            info = self.check_dict_content_in_string(element, self.titles, matching)
            if info["isTitle"]:
                title_accu = title_accu + seperator + info["titleFound"]
                data_without_accu = (
                    data_without_accu + seperator + raw.replace(info["titleFound"].strip(), "", 1)
                )
                if info["hasRest"]:
                    name_accu = name_accu + seperator + info["dataWithoutTitle"]
                ret["nextIndex"] = i + 1
            else:
                data_without_accu = data_without_accu + seperator + raw
                if info["hasRest"]:
                    name_accu = name_accu + seperator + info["dataWithoutTitle"]

        if name_accu:
            ret["hasName"] = True
            ret["nameDetected"] = name_accu.strip()
        ret["hasTitle"] = len(remove_leading_character(title_accu.strip(), seperator)) > 0
        ret["titleDetected"] = remove_leading_character(title_accu.strip(), seperator)
        ret["dataWithoutTitle"] = remove_leading_character(data_without_accu.strip(), seperator)
        if ret["hasName"]:
            # reference's "quick fix": the name is the title-stripped accu
            ret["nameDetected"] = remove_leading_character(data_without_accu.strip(), seperator)
        return ret


_default: Dictionaries | None = None


def get_default() -> Dictionaries:
    """Process-local singleton (one load per Ray worker / actor process)."""
    global _default
    if _default is None:
        _default = Dictionaries()
    return _default
