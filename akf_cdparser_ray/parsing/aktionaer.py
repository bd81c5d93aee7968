"""Aktionäre / Anteilseigner / Beteiligungen parsing
(SURVEY.md §2.2 M17, M20-M22).

Semantics follow the reference ``lib/parser_aktionaer_eigner_beteiligungen.js``.
"""

from __future__ import annotations

import re

from ..functions import regex_lib as rl
from ..functions import text_utils as tu

_COMMA_SEMI_RE = re.compile(r",|;")


def parse_aktionaer(aktionaer_lines: list[str], originline: int = -1,
                    cfw=None) -> list[dict]:
    """{name, ort, anteil, bemerkungen} per line (ref :26-128; per-line
    checkfile write at :121, before the empty check)."""
    ret: list[dict] = []
    for raw in aktionaer_lines:
        currentline = raw
        if currentline == "" or currentline is None:
            continue
        bemerkungen: list[str] = []
        anteil = ""
        name = None
        ort = ""
        currentline = currentline.replace("Aktionär(e)", "", 1)

        parenthesis_content = tu.get_parenthesis_content(currentline, True)
        lin_wo_parens = tu.remove_strings_from_string(currentline, parenthesis_content)
        pm = rl.match_percentage(lin_wo_parens)
        if pm:
            anteil = pm[0]
        for cur_par in parenthesis_content:
            without_par = cur_par.replace("(", "", 1).replace(")", "", 1).strip()
            pm_in = rl.match_percentage(cur_par)
            if pm_in:
                rwp = without_par.replace(pm_in[0], "", 1).strip()
                if not rwp:
                    anteil = pm_in[0].strip()
                else:
                    bemerkungen.append(without_par)
            else:
                bemerkungen.append(without_par)

        if anteil != "":
            currentline = currentline.replace(anteil, "", 1).replace("()", "", 1)
        for b in bemerkungen:
            if b != "":
                currentline = currentline.replace(b, "", 1).replace("()", "", 1)

        split = _COMMA_SEMI_RE.split(currentline.strip())
        if split and split[-1] == "":
            split = split[:-1]
        if split and len(split) >= 1 and "Aktionär" in split[0]:
            first = split[0].split("</b>")
            if len(first) >= 2:
                split[0] = first[1]
            elif len(first) == 1:
                split[0] = first[0].replace("Aktionär(e):", "", 1)
        if split and len(split) >= 1 and split[0] is not None:
            name = tu.html_text_to_text(split[0]).strip()
        if split and len(split) >= 2 and split[1] is not None:
            ort = tu.html_text_to_text(split[1]).strip()

        manager = {
            "name": name,
            "ort": ort,
            "anteil": anteil,
            "bemerkungen": bemerkungen if bemerkungen else None,
        }
        manager = {k: v for k, v in manager.items() if v}
        if cfw is not None:  # ref :121
            cfw(originline, raw, manager)
        if not tu.is_object_empty(manager):
            ret.append(manager)
    return ret


def parse_anteils_eigner(lines: list[str], originline: int = -1,
                         cfw=None) -> list[dict]:
    """{eigner, anteil, bemerkung} per line (ref :142-195; per-line
    checkfile write at :190)."""
    out: list[dict] = []
    for currentline in lines:
        raw_line = currentline
        if currentline is None or currentline.strip() == "":
            continue
        bemerkung = ""
        anteil = ""
        pm = rl.match_percentage(currentline)
        if pm:
            for p in pm:
                infill = rl.check_if_string_is_in_parenthesis(p, currentline)
                if infill is not None:
                    bemerkung = infill.replace("(", "", 1).replace(")", "", 1)
                else:
                    anteil = p
        if anteil != "":
            currentline = currentline.replace(anteil, "", 1).replace("()", "", 1)
        if bemerkung != "":
            currentline = currentline.replace(bemerkung, "", 1).replace("()", "", 1)
        eigner = rl.remove_last_comma(currentline.strip())
        manager = {"eigner": eigner, "anteil": anteil, "bemerkung": bemerkung}
        manager = {k: v for k, v in manager.items() if v}
        if cfw is not None:  # ref :190
            cfw(originline, raw_line, manager)
        out.append(manager)
    return out


def beteiligungen_parse_line(currentline: str):
    """Positional CSV parse of one Beteiligungen row (ref :297-426)."""
    if currentline == "":
        return ""
    kdt = ""
    line, removed = tu.remove_last_characters(currentline, "Kdt.")
    if removed:
        currentline = line
        kdt = "Kdt."
    line, removed = tu.remove_last_characters(currentline, "Kdt")
    if removed:
        currentline = line
        kdt = "Kdt"

    if rl.find_string_which_ends_with_colon(currentline):
        return ""
    match_parenth = rl.match_between_parenthesis(currentline)
    if match_parenth:
        if currentline.replace(match_parenth, "", 1).strip() == "":
            return ""

    beteiliger = ""
    ort = ""
    anteil = ""
    bemerkung = ""

    currentline = rl.replace_comma_in_number(currentline, "¦")
    currentline = rl.replace_semicolon_and_comma_in_brackets(currentline)
    split = currentline.split(",")
    split = [s.replace("¦", ",") if "¦" in s else s for s in split]

    if len(split) == 1:
        beteiliger = split[0]
    elif len(split) == 2:
        beteiliger, anteil = split
    elif len(split) == 3:
        beteiliger, ort, anteil = split
    else:
        ort = split[-2]
        anteil = split[-1]
        for x in range(len(split) - 2):
            beteiliger = beteiliger + split[x] + ","
        beteiliger = rl.remove_last_comma(beteiliger)

    if "apital:" not in currentline:
        pm = rl.match_percentage(anteil)
        if pm:
            maybe_ort = anteil.replace(pm[0], "", 1).strip()
            maybe_ort = maybe_ort.replace("()", "")
            if maybe_ort and len(maybe_ort) > 1:
                ort = maybe_ort
                anteil = pm[0]

    for special in ["(Gruppe)", "(StV)", "(StA)", "(VzA)"]:
        if ort and special in ort:
            ort = ort.replace(special, "", 1)
            bemerkung = (bemerkung + " " + special.replace("(", "").replace(")", "")).strip()

    if kdt:
        bemerkung = kdt if not bemerkung else bemerkung + "; " + kdt

    manager = {"beteiliger": beteiliger, "ort": ort, "anteil": anteil, "bemerkung": bemerkung}
    return {k: v.strip() for k, v in manager.items() if v}


def prepare_beteiligungen(lines: list[str]) -> list[str] | None:
    """Split at <br>, strip tags, drop empties (ref :434-483)."""
    if len(lines) == 1:
        br_split = lines[0].split("<br>")
        b_split = br_split[0].split("</b>")
        if len(b_split) >= 2:
            br_split.append(b_split[1])
        modified = br_split[1:]
    else:
        if len(lines) < 2 or not lines[1]:
            return None
        modified = lines[1].split("<br>")

    stripped: list[str] = []
    for cur in modified:
        for piece in cur.split("<b>"):
            s = rl.strip_html_tags(piece)
            if s:
                stripped.append(s)
    return [s for s in stripped if s]


def parse_beteiligungen2(lines: list[str]) -> list[dict] | None:
    """Headline-grouped items from flat lines (ref :490-528)."""
    ret: list[dict] = []
    current = {"zeilen": [], "ueberschrift": "ohne_titel"}
    for cur in lines:
        if not cur or not cur.strip():
            continue
        parsed = beteiligungen_parse_line(cur)
        if not parsed:
            continue
        if rl.does_end_with_colon(cur.strip()):
            ueberschrift = rl.remove_last_colon(cur.strip()).strip()
            if len(current["zeilen"]) >= 1:
                ret.append(current)
            current = {"zeilen": [], "ueberschrift": ueberschrift}
        else:
            current["zeilen"].append(parsed)
    ret.append(current)
    return ret or None


def parse_beteiligungen(tables_arr, tables_parsed, rest, infos) -> dict | None:
    """Headline-grouped items from recognized tables (ref :207-290)."""
    ret = {"elemente": [], "bemerkungen": []}
    if tables_arr is None:
        return None

    current = {"zeilen": [], "ueberschrift": None}
    if rest.get(0):
        maybe_header = tu.html_text_to_text(rest[0]).strip()
        if maybe_header:
            is_in_parens = False
            par = tu.get_parenthesis_content(maybe_header)
            if par:
                if not maybe_header.replace(par[0], "", 1).strip():
                    is_in_parens = True
            if not is_in_parens:
                current["ueberschrift"] = maybe_header
            else:
                ret["bemerkungen"].append(maybe_header)

    for s, table in enumerate(tables_parsed):
        cur_info = infos[s] if s < len(infos) else None
        next_info = infos[s + 1] if s + 1 < len(infos) else None
        column_zero = table[0] if table else []
        for n in range(len(column_zero)):
            zeilentext = ""
            for col in table:
                entry = col[n] if n < len(col) else ""
                item = tu.html_text_to_text(entry).strip()
                if item:
                    zeilentext = zeilentext + item + " "
            current["zeilen"].append(beteiligungen_parse_line(zeilentext))

        if not current["ueberschrift"]:
            current["ueberschrift"] = "ohne_titel"
        if cur_info and next_info:
            for y in range(cur_info["indexStop"] + 1, next_info["indexStart"]):
                if rest.get(y):
                    cur_rest = tu.html_text_to_text(rest[y]).strip()
                    if cur_rest:
                        ret["elemente"].append(current)
                        current = {"zeilen": [], "ueberschrift": cur_rest}
    if current:
        if current["ueberschrift"] is None:
            # JSON.stringify drops undefined keys — an item that never got a
            # headline (no tables recognized) has no ueberschrift in the ref
            del current["ueberschrift"]
        ret["elemente"].append(current)
    return ret
