"""Organbezüge parsing (SURVEY.md §2.2 M16).

Semantics follow the reference ``lib/parser_organbezuege.js:18-126``.
"""

from __future__ import annotations

import re

from ..functions import regex_lib as rl
from ..functions import text_utils as tu

_WAEHRUNG_RE = re.compile(r"(TDM)|(DM)|(TEUR)|(EUR)")
_YEAR_G_RE = re.compile(r"\d\d\d\d")
_YEAR_RANGE_RE = re.compile(r"\d\d\d\d(/\d\d)*")
_SEMI_SPLIT_RE = re.compile(r"\s*;\s*")


def parse_organbezuege(organbezuege: str, originline: int = -1, cfw=None) -> list[dict]:
    organbezuege = rl.replace_semicolon_and_comma_in_brackets(organbezuege)
    yearmatch = _YEAR_G_RE.findall(organbezuege)
    one_year_for_all = None
    multi_year_fallback = None
    if len(yearmatch) == 1:
        one_year_for_all = yearmatch[0]
    elif len(yearmatch) > 1:
        multi_year_fallback = yearmatch[0]

    ret: list[dict] = []
    for part in tu.trim_all(_SEMI_SPLIT_RE.split(organbezuege)):
        jahr = organ = bezuege = bemerkung = None
        if one_year_for_all:
            if "keine Vergütung" in part:
                jahr = one_year_for_all
                bemerkung = part.replace(jahr, "", 1).replace(":", "", 1).strip()
            else:
                jahr = one_year_for_all
                without_year = part.replace(jahr, "", 1).strip()
                wm = _WAEHRUNG_RE.search(without_year)
                if wm is not None:
                    waehrung = wm.group(0)
                    linesplit = without_year.split(waehrung)
                    organ = linesplit[0].replace(":", "", 1).strip()
                    bezuege = rl.remove_last_comma(waehrung + " " + linesplit[1].strip())
                    if len(linesplit) > 2 and linesplit[2].strip():
                        bezuege = bezuege + ", " + waehrung + " " + linesplit[2].strip()
                else:
                    bemerkung = without_year
        else:
            ym = _YEAR_RANGE_RE.search(part)
            if ym is not None:
                jahr = ym.group(0)
                without_year = part.replace(jahr, "", 1).strip()
                wm = _WAEHRUNG_RE.search(without_year)
                if wm is not None:
                    waehrung = wm.group(0)
                    linesplit = without_year.split(waehrung)
                    if len(linesplit) > 1:
                        organ = linesplit[0].replace(":", "", 1).strip()
                        bezuege = rl.remove_last_comma(waehrung + " " + linesplit[1].strip())
                        if len(linesplit) > 2 and linesplit[2].strip():
                            bezuege = bezuege + ", " + waehrung + " " + linesplit[2].strip()
                    else:
                        bemerkung = linesplit[0]
                else:
                    bemerkung = part
            else:
                wm = _WAEHRUNG_RE.search(part)
                if wm is not None:
                    waehrung = wm.group(0)
                    linesplit = part.split(waehrung)
                    if len(linesplit) > 1:
                        jahr = multi_year_fallback
                        organ = linesplit[0].replace(":", "", 1).strip()
                        bezuege = waehrung + " " + linesplit[1].strip()
                    else:
                        bemerkung = linesplit[0]
        item = {"jahr": jahr, "organ": organ, "bezuege": bezuege, "bemerkung": bemerkung}
        out = {}
        for k, v in item.items():
            if v:
                out[k] = v.replace("()", "", 1)
        if cfw is not None:  # ref parser_organbezuege.js:119
            cfw(originline, part, out)
        ret.append(out)
    return ret
