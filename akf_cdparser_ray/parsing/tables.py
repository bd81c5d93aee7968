"""HTML-table operators (SURVEY.md §2.8 T1-T17).

Semantics follow the reference ``lib/parser_tables.js`` (cited per function);
implementation is new Python. The reference's cheerio-tableparser is replaced
by :func:`parse_html_table`, a small column-major table walker with the same
observable behavior (column-major ``table[col][row]`` of raw inner-cell HTML,
colspan slots filled with ``""``, all ``<tr>`` of every ``<table>`` in the
block combined in document order — the reference joins a table block's lines
with ``,`` and runs one parse over the whole fragment, so two ``<table>``
elements that land in one recognized block parse as one grid; parser_tables.js:88-103).
"""

from __future__ import annotations

import functools
import re

from .checkfiles import _JsArrayDict
from ..functions import regex_lib as rl
from ..functions import text_utils as tu

# ---------------------------------------------------------------------------
# T1: block recognition (ref parser_tables.js:27-79)
# ---------------------------------------------------------------------------


def recognize_table_arrays(lines_with_tables: list[str]) -> dict:
    in_table = False
    tables_arr: list[list[str]] = []
    lines_arr: list[str] = []
    rest: dict[int, str] = {}
    infos: list[dict] = []
    current_info = None

    for i, currentline in enumerate(lines_with_tables):
        if "<table" in currentline:
            in_table = True
            current_info = {"indexStart": i, "indexStop": None}
            lines_arr.append(currentline)
        elif "</table" in currentline:
            in_table = False
            if current_info is None:
                continue
            current_info["indexStop"] = i
            lines_arr.append(currentline)
            tables_arr.append(lines_arr)
            infos.append(current_info)
            lines_arr = []
        else:
            if in_table:
                lines_arr.append(currentline)
            else:
                rest[i] = currentline

    return {"tablesArr": tables_arr, "rest": rest, "infos": infos}


# ---------------------------------------------------------------------------
# T2: column-major table parse (cheerio-tableparser equivalent)
# ---------------------------------------------------------------------------

_TR_OPEN_RE = re.compile(r"<tr[^>]*>", re.IGNORECASE)
_TR_CLOSE_RE = re.compile(r"</tr>", re.IGNORECASE)
_TD_RE = re.compile(r"<t[dh]([^>]*)>(.*?)</t[dh]>", re.IGNORECASE | re.DOTALL)
_COLSPAN_RE = re.compile(r"colspan\s*=\s*\"?(\d+)", re.IGNORECASE)
_ROWSPAN_RE = re.compile(r"rowspan\s*=\s*\"?(\d+)", re.IGNORECASE)
_STUECKELUNG_RE = re.compile("Stückelung", re.IGNORECASE)
_STIMMRECHT_RE = re.compile("Stimmrecht", re.IGNORECASE)


def _tr_rows(html: str):
    """The rows ``<tr[^>]*>(.*?)(?:</tr>|$)`` (IGNORECASE, DOTALL) finds,
    without the lazy scan: a row runs to the first ``</tr>`` after its tag,
    or else to where ``$`` first matches (before a final newline)."""
    tail = len(html) - 1 if html.endswith("\n") else len(html)
    pos = 0
    while (tag := _TR_OPEN_RE.search(html, pos)) is not None:
        close = _TR_CLOSE_RE.search(html, tag.end())
        if close is None:
            yield html[tag.end():tail]
            return
        yield html[tag.end():close.start()]
        pos = close.end()


@functools.lru_cache(maxsize=512)
def _spans(attrs: str) -> tuple[int, int]:
    """``(colspan, rowspan)`` of a cell's attribute string, 1 when absent
    (a page repeats a handful of attribute strings hundreds of times)."""
    col = _COLSPAN_RE.search(attrs)
    row = _ROWSPAN_RE.search(attrs)
    return int(col.group(1)) if col else 1, int(row.group(1)) if row else 1


def parse_html_table(html: str) -> list[list[str]]:
    """All <tr> rows of the fragment → column-major grid of inner-cell HTML."""
    columns: list[dict[int, str]] = []
    pending_rowspan: dict[int, tuple[int, str]] = {}  # col -> (rows_left, fill)
    row_idx = 0
    for row_html in _tr_rows(html):
        cells = _TD_RE.findall(row_html)
        if not cells and not pending_rowspan:
            continue
        col = 0
        if pending_rowspan:  # place rowspan fills first
            for c in sorted(pending_rowspan):
                left, fill = pending_rowspan[c]
                while len(columns) <= c:
                    columns.append({})
                columns[c][row_idx] = fill
                pending_rowspan[c] = (left - 1, fill)
            pending_rowspan = {c: v for c, v in pending_rowspan.items() if v[0] > 0}
        for attrs, inner in cells:
            while col in pending_rowspan or (
                col < len(columns) and row_idx in columns[col]
            ):
                col += 1
            colspan, rowspan = _spans(attrs)
            for k in range(colspan):
                while len(columns) <= col:
                    columns.append({})
                columns[col][row_idx] = inner if k == 0 else ""
                if rowspan > 1:
                    pending_rowspan[col] = (rowspan - 1, "" )
                col += 1
        row_idx += 1

    nrows = row_idx
    return [[colmap.get(r, "") for r in range(nrows)] for colmap in columns]


def create_parsed_tables(tables_arr: list[list[str]]) -> list[list[list[str]]]:
    """ref parser_tables.js:88-103 — note the ``,``-join of the block lines."""
    return [parse_html_table(",".join(block)) for block in tables_arr]


# ---------------------------------------------------------------------------
# T3: table-kind recognition (ref parser_tables.js:2567-2642)
# ---------------------------------------------------------------------------


def recognize_table_content(tables_parsed, content: str) -> dict:
    ret: dict = {}
    for i, table in enumerate(tables_parsed):
        if not table or not table[0]:
            continue
        first_html = table[0][0].lower().strip()
        first_item = tu.html_text_to_text(table[0][0].lower()).strip()
        if content == "kapitalentwicklung":
            ret = _recognize_kurse_content(ret, first_item, first_html, i)
    return ret


def _recognize_kurse_content(ret: dict, item: str, item_html: str, i: int) -> dict:
    bold = "<b>" in item_html
    if "grundkapital" in item and bold:
        ret["grundkapitalIndex"] = i
        return ret
    if rl.match_year(item) and bold:
        if "kapitalEntwicklungIndex" not in ret:
            ret["kapitalEntwicklungIndex"] = i
            return ret
    if "genehmigtes" in item and bold and "genu" not in item:
        ret["genehmKapitalIndex"] = i
        return ret
    if "genehmigtes" in item and bold and "genu" in item:
        ret["genehmGenusKapitalIndex"] = i
        return ret
    if "derzeitiges" in item and bold and "genu" in item:
        ret["derzeitigesGenusKapitalIndex"] = i
        return ret
    if "entwicklung" in item and "genu" in item_html and "kapital" in item and bold:
        ret["entwicklungGenusKapitalIndex"] = i
        return ret
    if "bedingtes" in item and bold:
        if ret.get("bedingKapitalIndex") is not None:
            ret["bedingKapitalIndex2"] = i
        else:
            ret["bedingKapitalIndex"] = i
        return ret
    if "bezugsrechte" in item and bold:
        ret["besBezugsrechteIndex"] = i
        return ret
    if "ermächtigung" in item and bold:
        ret["ermaechtigungAktienErwerbIndex"] = i
        return ret
    if "ausgegebenes" in item and bold:
        ret["ausgegebenesKapitalIndex"] = i
        return ret
    return ret


def get_next_index(tables_indices: dict, current_index: int):
    """ref parser_tables.js:2944-2951"""
    for _key, index in tables_indices.items():
        if isinstance(index, int) and index > current_index:
            return index
    return None


def get_rest_lines(related_info: dict, rest: dict, seperator: str, next_info: dict | None):
    """ref parser_tables.js:2893-2936"""
    stop_index = related_info["indexStop"]
    rest_end = next_info["indexStart"] if next_info else None
    rest_start = stop_index + 1
    blob = ""
    for key, val in rest.items():
        keynum = int(key)
        if rest_end is not None:
            if rest_start <= keynum < rest_end:
                blob = blob + seperator + val
        else:
            if keynum >= rest_start:
                blob = blob + seperator + val
    if blob:
        return blob.split(seperator)
    return None


# ---------------------------------------------------------------------------
# T11 / T4 / T5-T10 capital tables
# ---------------------------------------------------------------------------


def parse_entwicklung_genus_kapital(tables_parsed, index: int) -> list[dict]:
    """ref parser_tables.js:113-148"""
    result = []
    table = tables_parsed[index]
    for i in range(len(table[0])):
        year = text = None
        if table[0] and i < len(table[0]) and table[0][i]:
            maybe = rl.match_year(tu.html_text_to_text(table[0][i]))
            if maybe:
                year = maybe
        if len(table) > 1 and i < len(table[1]) and table[1][i]:
            maybe_t = tu.html_text_to_text(table[1][i].strip()).strip()
            if maybe_t:
                text = maybe_t
        if year or text:
            r: dict = {}
            if year:
                r["jahr"] = year
            if text:
                r["text"] = text
            result.append(r)
    return result


def parse_kapital_entwicklung(tables_parsed, index: int) -> list[dict]:
    """Year rows + typed sub-entries state machine (ref parser_tables.js:156-249)."""
    return_objects: list = []
    table = tables_parsed[index]
    c_obj = None
    current_subitem = None
    for i in range(len(table[0])):
        maybe_year = tu.html_text_to_text(table[0][i]).strip()
        if maybe_year != "":
            if rl.match_number(maybe_year):
                if i > 0:
                    return_objects.append(c_obj)
                if current_subitem is not None and c_obj is not None:
                    c_obj.setdefault("eintraege", []).append(current_subitem)
                    current_subitem = None
                c_obj = {"jahr": tu.html_text_to_text(maybe_year)}
        if c_obj is None:
            continue
        col1 = table[1] if len(table) > 1 else None
        col2 = table[2] if len(table) > 2 else None
        if col1 and i < len(col1) and col1[i] and col2 and i < len(col2) and col2[i]:
            maybe_art = tu.html_text_to_text(col1[i]).strip()
            if maybe_art != "":
                c_obj.setdefault("eintraege", [])
                if current_subitem is not None:
                    c_obj["eintraege"].append(current_subitem)
                current_subitem = {"art": maybe_art}
                maybe_betrag = tu.html_text_to_text(col2[i])
                if maybe_betrag != "":
                    current_subitem["betrag"] = maybe_betrag
        if col1 and i < len(col1) and col1[i]:
            text_left = tu.html_text_to_text(table[0][i])
            text_middle = tu.html_text_to_text(col1[i])
            text_right = tu.html_text_to_text(col2[i]) if (col2 and i < len(col2)) else ""
            if not text_left and not text_right:
                if current_subitem is None:
                    current_subitem = {}
                current_subitem["text"] = text_middle
    if current_subitem is not None and c_obj is not None:
        c_obj.setdefault("eintraege", []).append(current_subitem)
    return_objects.append(c_obj)
    return tu.remove_empty_entries_from_array(return_objects)


def parse_genehm_kapital(
    tables_parsed, tables_arr, rest, infos, index, next_index, substituted_keys
) -> dict:
    """ref parser_tables.js:262-349"""
    was_substituted = bool(substituted_keys) and any(
        k == "genehmKapitalIndex" for k in substituted_keys
    )
    table = tables_parsed[index]
    ret: dict = {}
    genehm = {"betrag": None, "bemerkung": ""}

    if table and ("genehmigtes" in table[0][0].lower() or was_substituted):
        if len(table) < 2 or not table[1]:
            follow_up = index + 1
            if next_index is not None and follow_up < next_index:
                ft = tables_parsed[follow_up] if follow_up < len(tables_parsed) else None
                if ft and ft[0]:
                    for cur in ft[0]:
                        t = tu.html_text_to_text(cur).strip()
                        if t:
                            genehm["bemerkung"] += " " + t
        else:
            genehm["betrag"] = tu.html_text_to_text(table[1][0]).strip()
            starter = 0 if was_substituted else 1
            if table[0] and len(table[0]) > 1:
                for i in range(starter, len(table[0])):
                    tcontent = table[0][i]
                    if not tcontent:
                        continue
                    for cur in tcontent.split("<br>"):
                        t = tu.html_text_to_text(cur).strip()
                        if t:
                            genehm["bemerkung"] += " " + t
        if index < len(infos):
            nxt = infos[index + 1] if index + 1 < len(infos) else None
            restlines = get_rest_lines(infos[index], rest, "<br>", nxt)
            if restlines:
                for cur in restlines:
                    t = tu.html_text_to_text(cur.strip())
                    if t:
                        genehm["bemerkung"] += " " + t
    genehm["bemerkung"] = genehm["bemerkung"].strip()
    if genehm["bemerkung"] != "" or genehm["betrag"] is not None:
        ret["genehmKapital"] = genehm
    return ret


def parse_beding_kapital(tables_parsed, tables_arr, rest, infos, index, next_index) -> dict:
    """ref parser_tables.js:361-480"""
    table = tables_parsed[index]
    ret: dict = {}
    beding = {"betrag": None, "eintraege": []}

    if len(table) > 1 and table[1] is not None:
        temp = tu.remove_empty_entries_from_array(table[1])
        if len(temp) == 0:
            table[1] = temp

    if table and "bedingtes" in table[0][0].lower():
        if len(table) < 2 or not table[1] or len(table[1]) == 0:
            follow_up = index + 1
            if next_index is not None and follow_up < next_index:
                ft = tables_parsed[follow_up] if follow_up < len(tables_parsed) else None
                if ft and ft[0]:
                    for cur in ft[0]:
                        t = tu.html_text_to_text(cur).strip()
                        if t:
                            beding["eintraege"].append({"betrag_einzel": None, "bemerkung": t})
        else:
            beding["betrag"] = tu.html_text_to_text(table[1][0]).strip()
            if table[0] and len(table[0]) > 1:
                for i in range(1, len(table[0])):
                    tcontent = table[0][i]
                    if not tcontent:
                        continue
                    for cur in tcontent.split("<br>"):
                        t = tu.html_text_to_text(cur).strip()
                        if t:
                            beding["eintraege"].append({"betrag_einzel": None, "bemerkung": t.strip()})
        if index < len(infos):
            nxt = infos[index + 1] if index + 1 < len(infos) else None
            restlines = get_rest_lines(infos[index], rest, "<br>", nxt)
            if restlines:
                for cur in restlines:
                    t = tu.html_text_to_text(cur.strip())
                    if t:
                        beding["eintraege"].append({"betrag_einzel": None, "bemerkung": t.strip()})
    else:
        # headerless mode (ref parser_tables.js:453-475)
        for current_item in table[0]:
            if current_item:
                split = current_item.split("<br>")
                if len(split) == 2:
                    beding["eintraege"].append(
                        {
                            "betrag_einzel": tu.html_text_to_text(split[0]).strip(),
                            "bemerkung": tu.html_text_to_text(split[1]).strip(),
                        }
                    )
    ret["bedingkapital"] = beding
    return ret


def parse_bes_bezugsrechte(tables_parsed, tables_arr, rest, infos, index, next_index) -> dict:
    """ref parser_tables.js:493-602"""
    table = tables_parsed[index]
    ret: dict = {}
    entries: list[dict] = []

    def consume(t0, t1):
        if not t0:
            return
        for cur in t0.split("<br>"):
            t = tu.html_text_to_text(cur).strip()
            if not t:
                continue
            # ref entry(): `this.jahr;` is a no-op — bemerkungen is the
            # only constructed key, jahr inserts on assignment (order!)
            entry = {"bemerkungen": [], "jahr": t}
            if t1:
                for cur2 in t1.split("<br>"):
                    t2 = tu.html_text_to_text(cur2).strip()
                    if t2:
                        entry["bemerkungen"].append(t2)
            entries.append(entry)

    if table and "besondere" in table[0][0].lower():
        if len(table[0]) <= 1:
            follow_up = index + 1
            if next_index is not None and follow_up < next_index:
                ft = tables_parsed[follow_up] if follow_up < len(tables_parsed) else None
                if ft and ft[0]:
                    for i in range(len(ft[0])):
                        consume(ft[0][i], ft[1][i] if len(ft) > 1 and i < len(ft[1]) else None)
        else:
            for i in range(1, len(table[0])):
                consume(
                    table[0][i],
                    table[1][i] if len(table) > 1 and i < len(table[1]) else None,
                )
    if len(entries) >= 1:
        ret["besBezugsrechte"] = entries
    return ret


def parse_erm_aktienerwerb(tables_parsed, tables_arr, rest, infos, index, next_index) -> dict:
    """ref parser_tables.js:614-690"""
    table = tables_parsed[index]
    erm = {"text": []}
    first = tu.html_text_to_text(table[0][0])
    if table and "ermächtigung" in first.lower():
        if len(table[0]) <= 1:
            follow_up = index + 1
            if next_index is not None and follow_up < next_index:
                ft = tables_parsed[follow_up] if follow_up < len(tables_parsed) else None
                if ft and ft[0]:
                    for tcontent in ft[0]:
                        if tcontent:
                            for cur in tcontent.split("<br>"):
                                t = tu.html_text_to_text(cur).strip()
                                if t:
                                    erm["text"].append(t)
        else:
            for i in range(1, len(table[0])):
                tcontent = table[0][i]
                if tcontent:
                    for cur in tcontent.split("<br>"):
                        t = tu.html_text_to_text(cur).strip()
                        if t:
                            erm["text"].append(t)
        if index < len(infos):
            nxt = infos[index + 1] if index + 1 < len(infos) else None
            restlines = get_rest_lines(infos[index], rest, "<br>", nxt)
            if restlines:
                for cur in restlines:
                    t = tu.html_text_to_text(cur.strip()).strip()
                    if t:
                        erm["text"].append(t)
    if len(erm["text"]) >= 1:
        return erm
    return {}


def get_stueckelung(line: str, specialmode: bool = False):
    """ref parser_tables.js:2810-2842"""
    stueckelung = None
    if _STUECKELUNG_RE.search(line):
        splitter = "elung:" if specialmode else ":"
        clsplit = line.split(splitter)
        if len(clsplit) > 1 and clsplit[1]:
            stueckelung = splitter.join(clsplit[1:]) if False else clsplit[1]
            # JS split keeps remaining pieces separate; [1] only — mirrored
    if specialmode and stueckelung:
        stueckelung = stueckelung.split("Stimmrecht:")[0].strip()
    if stueckelung:
        end_split = _STUECKELUNG_RE.split(stueckelung)
        if len(end_split) >= 2:
            stueckelung = end_split[1]
        stueckelung = stueckelung.strip()
    return stueckelung


def get_stimmrecht(line: str, specialmode: bool = False):
    """ref parser_tables.js:2849-2881"""
    stimmrecht = None
    if _STIMMRECHT_RE.search(line):
        splitter = "immrecht:" if specialmode else ":"
        clsplit = line.split(splitter)
        if len(clsplit) >= 2:
            stimmrecht = clsplit[1]
        else:
            stimmrecht = clsplit[0]
    if specialmode and stimmrecht:
        stimmrecht = stimmrecht.split("Stimmrecht:")[0].strip()
    if stimmrecht and "tückelung:" in stimmrecht.strip():
        stimmrecht = None
    return stimmrecht


def parse_grundkapital(
    tables_parsed, tables_arr, rest, infos, index, headline: str = "grundkapital"
) -> dict:
    """ref parser_tables.js:702-823 — including the reference's
    ``continue``-before-flag-set quirk at :746-747/:792-793 (a Stimmrecht hit
    skips the bemerkung flush; mirrored via the plain ``continue``)."""
    table = tables_parsed[index]
    ret: dict = {}
    grundkapital = {"betrag": None, "bemerkungen": []}
    stueckelung: list = []
    stimmrecht: list = []
    current_bemerkung: list = []

    def handle_line(cline_text: str):
        nonlocal current_bemerkung
        found = False
        maybe_stk = get_stueckelung(cline_text)
        if maybe_stk:
            stueckelung.append(maybe_stk)
            found = True
        if not found:
            maybe_stimm = get_stimmrecht(cline_text)
            if maybe_stimm:
                stimmrecht.append(maybe_stimm)
                return  # reference's continue-before-assignment quirk
        if found:
            grundkapital["bemerkungen"].append(current_bemerkung)
            current_bemerkung = []
        else:
            current_bemerkung.append(cline_text.strip())

    if table and headline in table[0][0].lower():
        grundkapital["betrag"] = tu.html_text_to_text(table[1][0]) if len(table) > 1 else None
        if table[0] and len(table[0]) > 1:
            for i in range(1, len(table[0])):
                tcontent = table[0][i]
                if not tcontent:
                    continue
                for cur in tcontent.split("<br>"):
                    handle_line(tu.html_text_to_text(cur))
        if current_bemerkung and len(current_bemerkung) >= 1:
            grundkapital["bemerkungen"].append(current_bemerkung)
        current_bemerkung = []
        if index < len(infos):
            nxt = infos[index + 1] if index + 1 < len(infos) else None
            restlines = get_rest_lines(infos[index], rest, "<br>", nxt)
            if restlines:
                for cur in restlines:
                    t = tu.html_text_to_text(cur.strip())
                    if not t:
                        continue
                    handle_line(t)
    if current_bemerkung and len(current_bemerkung) >= 1:
        grundkapital["bemerkungen"].append(current_bemerkung)
    if grundkapital["betrag"] is not None or grundkapital["bemerkungen"] != "":
        ret["grundkapital"] = grundkapital
    ret["stimmrecht"] = stimmrecht
    ret["stückelung"] = stueckelung
    return ret


def parse_ausgegebenes_kapital(tables_parsed, tables_arr, rest, infos, index) -> dict:
    """ref parser_tables.js:982-1080 — including the always-truthy ``indexOf``
    table-detection quirk at :1009 (the first table always wins)."""
    ausgegeben = {"eintraege": []}
    if tables_parsed and len(tables_parsed) == 1:
        table = tables_parsed[0]
    else:
        table = None
        for t in tables_parsed:
            for col in t:
                first = col[0] if col else ""
                # quirk: JS `if(firstItem.indexOf("b>Ausgegebenes Kapital"))` is
                # truthy for every index != 0 — effectively always true.
                if first.find("b>Ausgegebenes Kapital") != 0:
                    table = t
                    break
            if table is not None:
                break
    if table is None:
        return ausgegeben

    for i in range(len(table[0])):
        item1 = table[0][i]
        item2 = table[1][i] if len(table) > 1 and i < len(table[1]) else ""
        t1 = tu.html_text_to_text(item1)
        t2 = tu.html_text_to_text(item2)
        eintrag: dict = {}
        if rl.match_number(t2):
            eintrag["betrag"] = t2
        if "ausgegebenes kapital" in item1.lower():
            eintrag["notiz"] = t1
        else:
            stimm = get_stimmrecht(t1, True)
            stk = get_stueckelung(t1, True)
            notiz_rest = t1
            if stimm:
                eintrag["stimmrecht"] = stimm
                notiz_rest = notiz_rest.replace(stimm, "", 1).replace("Stimmrecht:", "", 1)
            if stk:
                eintrag["stueckelung"] = stk
                notiz_rest = notiz_rest.replace(stk, "", 1).replace("Stückelung:", "", 1)
            eintrag["notiz"] = notiz_rest.strip()
        if not tu.is_object_empty(eintrag):
            ausgegeben["eintraege"].append(eintrag)

    for _key, cur_rest in rest.items():
        if tu.html_text_to_text(cur_rest):
            tail: dict = {}
            for chunk in cur_rest.split("<br>"):
                stimm = get_stimmrecht(chunk, True)
                stk = get_stueckelung(chunk, True)
                if stimm:
                    tail["stimmrecht"] = stimm
                if stk:
                    tail["stueckelung"] = stk
            if tail.get("stueckelung") or tail.get("stimmrecht"):
                ausgegeben["eintraege"].append(tail)
    return ausgegeben


# ---------------------------------------------------------------------------
# shared row-header indexing helpers (ref parser_tables.js:2644-2802,1719-1749)
# ---------------------------------------------------------------------------


def increment_occurrence_count(counter):
    if not counter or counter == -1:
        return 1
    return counter + 1


def assign_index(current_item_indices: dict, key: str, occurrences: dict, index_to_assign: int):
    occurrence_count = occurrences.get(key)
    addition = ""
    if occurrence_count and occurrence_count > 1:
        addition = "¦" + str(occurrence_count) + "¦"
    current_item_indices[key + addition] = index_to_assign
    return current_item_indices


def assign_indices_to_object(item, index, indices_array, value, additional_key=None):
    for key, arrayval in indices_array.items():
        if isinstance(arrayval, dict):
            item = assign_indices_to_object(item, index, arrayval, value, key)
        elif isinstance(arrayval, (int, float)) and not isinstance(arrayval, bool):
            if index == arrayval:
                if additional_key:
                    item.setdefault(additional_key, {})
                    if arrayval >= 0:
                        item[additional_key][key] = value
                else:
                    if arrayval >= 0:
                        item[key] = value
    return item


def _index_map(group: dict) -> dict[int, list[str]] | None:
    """row-index → keys map for a flat indices group (fast path; returns
    None when the group nests sub-dicts and the recursive walk is needed)."""
    out: dict[int, list[str]] = {}
    for key, val in group.items():
        if isinstance(val, dict):
            return None
        if isinstance(val, (int, float)) and not isinstance(val, bool) and val >= 0:
            out.setdefault(int(val), []).append(key)
    return out


def _index_groups(item_indices_groups: list[dict]) -> list[tuple]:
    """(row-index map, group) pairs, built once per table after its header
    column: the groups do not change while the data columns are read."""
    return [(_index_map(g), g) for g in item_indices_groups]


def parse_column_content_to_item(current_column, indexed_groups):
    """``indexed_groups``: :func:`_index_groups` of the table's groups."""
    item_to_fill: dict = {}
    for x, current_item in enumerate(current_column):
        text_lc = tu.html_text_to_text(current_item).strip().lower()
        if not text_lc:
            continue
        for m, group in indexed_groups:
            if m is None:
                item_to_fill = assign_indices_to_object(item_to_fill, x, group, text_lc)
            else:
                for key in m.get(x, ()):
                    item_to_fill[key] = text_lc
    return item_to_fill


def parse_column_content_to_item_kennzahlen(current_column, indexed_groups):
    ret: dict = {}
    texts = [tu.html_text_to_text(c).strip().lower() for c in current_column]
    for m, group in indexed_groups:
        colitem: dict = {}
        for x, text_lc in enumerate(texts):
            if not text_lc:
                continue
            if m is None:
                colitem = assign_indices_to_object(colitem, x, group, text_lc)
            else:
                for key in m.get(x, ()):
                    colitem[key] = text_lc
        if not tu.is_object_empty(colitem):
            ret.setdefault(group.get("kopfzeile"), []).append(colitem)
    return ret


def push_item_to_return_object(identifier, item_to_push, return_object, row_index):
    """ref parser_tables.js:2654-2696"""
    if identifier not in return_object:
        return_object[identifier] = []
    if not tu.is_object_empty(item_to_push):
        if not item_to_push.get("jahr"):
            arr = return_object[identifier]
            # JS truthiness: an EMPTY object at [rowIndex-1] is truthy and
            # receives the merge (only undefined/null fail the check)
            if 0 <= row_index - 1 < len(arr) and arr[row_index - 1] is not None:
                for key, val in item_to_push.items():
                    if val:
                        arr[row_index - 1][key] = val
            else:
                if item_to_push.get("jahr") == "":
                    try:
                        first_key = next(iter(return_object))
                        if row_index - 1 < 0:
                            raise IndexError  # JS [-1] is undefined → throws
                        check_year = return_object[first_key][row_index - 1]["jahr"]
                        item_to_push["jahr"] = check_year
                        return_object[identifier].append(item_to_push)
                    except Exception:
                        item_to_push["jahr"] = ""
                        return_object[identifier].append(item_to_push)
        else:
            return_object[identifier].append(item_to_push)
    else:
        return_object[identifier].append(item_to_push)
    return return_object


def adapt_year_in_filled_item(filled_item, return_object, row_index):
    """Year backfill (ref parser_tables.js:1758-1816)."""
    if not filled_item or tu.is_object_empty(filled_item):
        return filled_item
    previous_jahr = ""
    for _key, items in filled_item.items():
        for it in items:
            if it.get("jahr"):
                previous_jahr = it["jahr"]
            else:
                it["jahr"] = previous_jahr

    if not return_object or tu.is_object_empty(return_object):
        return filled_item
    current_return_item = None
    filled_first_key = next(iter(filled_item))
    for ret_key, val in return_object.items():
        if ret_key == filled_first_key:
            if current_return_item is not None and len(val) < len(current_return_item):
                break
        current_return_item = val
    for _key, items in filled_item.items():
        for it in items:
            if not it.get("jahr"):
                if current_return_item is None or not (
                    0 <= row_index - 1 < len(current_return_item)
                ) or not current_return_item[row_index - 1]:
                    continue
                if current_return_item[row_index - 1].get("jahr"):
                    it["jahr"] = current_return_item[row_index - 1]["jahr"]
    return filled_item


def check_if_table_contains_year(tables, current_item_indices, i, x):
    """ref parser_tables.js:1828-1842"""
    if not tables:
        return current_item_indices
    for col in tables:
        to_check = col[i] if i < len(col) else ""
        if rl.match_number(to_check):
            current_item_indices["jahr"] = x
            break
    return current_item_indices


def detect_additional_headline(index, infos, rest):
    """ref parser_tables.js:1266-1286"""
    current_info = infos[index - 1] if 0 <= index - 1 < len(infos) else None
    next_info = infos[index] if index < len(infos) else None
    found = []
    if current_info and next_info:
        for n in range(current_info["indexStop"] + 1, next_info["indexStart"]):
            if rest.get(n) and "<b>" in rest[n] and "</b" in rest[n]:
                found.append(rest[n])
    return tu.html_text_to_text(found[0]) if found else ""


# ---------------------------------------------------------------------------
# T12: bereinigte Kurse (ref parser_tables.js:834-970)
# ---------------------------------------------------------------------------


def _new_kurs_indices():
    return {"jahr": -1, "kommentar": -1, "hoechst": -1, "tiefst": -1, "ultimo": -1}


def _assign_possible_kommentar(idx: dict):
    if idx["jahr"] + 1 != idx["hoechst"]:
        idx["kommentar"] = idx["jahr"] + 1


def parse_bereinigtekurse(tables_parsed, tables_arr, rest, infos, callnumber) -> dict:
    item_indices_groups: list[dict] = []
    ret: dict = {"kurse": [], "notiz_bereinigteKurse": None}

    # JS: rest[0] may be undefined; cheerio.load(undefined) string-coerces,
    # so the "header" becomes the literal text "undefined" (and the notiz
    # keeps that string — it survives isObjectEmpty)
    header_src = rest.get(0) if rest else None
    if header_src is None:
        header_src = "undefined"
    header_split = tu.html_text_to_text(header_src).split("Bereinigte Kurse")
    if len(header_split) == 1:
        ret["notiz_bereinigteKurse"] = (
            rl.remove_parenthesis(header_split[0]).replace("Kurse", "", 1).strip()
        )
    else:
        ret["notiz_bereinigteKurse"] = rl.remove_parenthesis(header_split[1]).strip()

    for table in tables_parsed:
        for i in range(len(table)):
            current_column = table[i]
            next_column = table[i + 1] if i + 1 < len(table) else None
            if i == 0:
                cur = _new_kurs_indices()
                for x, current_item in enumerate(current_column):
                    next_item = next_column[x] if next_column and x < len(next_column) else None
                    text_lc = tu.html_text_to_text(current_item).strip().lower()
                    if "</b>" in current_item:
                        if cur["jahr"] != -1:
                            _assign_possible_kommentar(cur)
                            item_indices_groups.append(cur)
                            cur = _new_kurs_indices()
                        cur["jahr"] = x
                    elif next_item and "</b>" in next_item:
                        if cur["jahr"] != -1:
                            _assign_possible_kommentar(cur)
                            item_indices_groups.append(cur)
                            cur = _new_kurs_indices()
                        cur["jahr"] = x
                    elif text_lc == "höchst":
                        if cur["hoechst"] != -1:
                            _assign_possible_kommentar(cur)
                            item_indices_groups.append(cur)
                            cur = _new_kurs_indices()
                        cur["hoechst"] = x
                    elif text_lc == "tiefst":
                        if cur["tiefst"] != -1:
                            _assign_possible_kommentar(cur)
                            item_indices_groups.append(cur)
                            cur = _new_kurs_indices()
                        cur["tiefst"] = x
                    elif text_lc == "ultimo":
                        if cur["ultimo"] != -1:
                            _assign_possible_kommentar(cur)
                            item_indices_groups.append(cur)
                            cur = _new_kurs_indices()
                        cur["ultimo"] = x
                _assign_possible_kommentar(cur)
                item_indices_groups.append(cur)
                indexed = _index_groups(item_indices_groups)
            else:
                if (
                    len(item_indices_groups) >= 2
                    and item_indices_groups[0]["jahr"] != -1
                    and item_indices_groups[1]["jahr"] != -1
                    and item_indices_groups[0]["jahr"] != item_indices_groups[1]["jahr"]
                ):
                    for group in indexed:
                        filled = parse_column_content_to_item(current_column, [group])
                        ret = push_item_to_return_object("kurse", filled, ret, i)
                else:
                    filled = parse_column_content_to_item(current_column, indexed)
                    ret = push_item_to_return_object("kurse", filled, ret, i)

    ret["kurse"] = tu.remove_empty_entries_from_array(ret["kurse"])
    if tu.is_object_empty(ret["notiz_bereinigteKurse"]) and not ret["notiz_bereinigteKurse"]:
        pass
    return {f"boersenbewertung{callnumber}": ret}


# ---------------------------------------------------------------------------
# T13: Dividenden (ref parser_tables.js:1093-1258)
# ---------------------------------------------------------------------------


def _new_div_indices():
    return {
        "jahr": -1,
        "dividende": -1,
        "bonus": -1,
        "sonderausschuettung": -1,
        "steuerguthaben": -1,
        "divscheinnr": -1,
        "extag": -1,
        "kupon_nr": -1,
    }


def parse_dividenden(tables_parsed, tables_arr, rest, infos, callnumber) -> dict:
    ret: dict = {"dividenden": [], "dividenden_notiz": None, "dividenden_bemerkungen": []}

    # same String(undefined) coercion quirk as parse_bereinigtekurse
    header_src = rest.get(0) if rest else None
    if header_src is None:
        header_src = "undefined"
    header_split = tu.html_text_to_text(header_src).replace("/Ausschüttung", "", 1).split(
        "Dividenden"
    )
    if len(header_split) == 1:
        ret["dividenden_notiz"] = (
            rl.remove_parenthesis(header_split[0]).replace("Kurse", "", 1).strip()
        )
    else:
        ret["dividenden_notiz"] = rl.remove_parenthesis(header_split[1]).strip()

    def reset_if_set(cur, key, groups):
        if cur[key] != -1:
            groups.append(cur)
            return _new_div_indices()
        return cur

    for table in tables_parsed:
        item_indices_groups: list[dict] = []
        for i in range(len(table)):
            current_column = table[i]
            next_column = table[i + 1] if i + 1 < len(table) else None
            if i == 0:
                cur = _new_div_indices()
                for x, current_item in enumerate(current_column):
                    next_item = next_column[x] if next_column and x < len(next_column) else None
                    text_lc = tu.html_text_to_text(current_item).strip().lower()
                    if "</b>" in current_item:
                        cur = reset_if_set(cur, "jahr", item_indices_groups)
                        cur["jahr"] = x
                    elif next_item and "</b>" in next_item:
                        cur = reset_if_set(cur, "jahr", item_indices_groups)
                        cur["jahr"] = x
                    elif text_lc in ("dividende", "ausschüttung"):
                        cur = reset_if_set(cur, "dividende", item_indices_groups)
                        cur["dividende"] = x
                    elif text_lc == "bonus":
                        cur = reset_if_set(cur, "bonus", item_indices_groups)
                        cur["bonus"] = x
                    elif text_lc == "sonderausschüttung":
                        cur = reset_if_set(cur, "sonderausschuettung", item_indices_groups)
                        cur["sonderausschuettung"] = x
                    elif text_lc == "ex-tag":
                        cur = reset_if_set(cur, "extag", item_indices_groups)
                        cur["extag"] = x
                    elif text_lc in ("div.-schein-nr.", "aussch.-ant.-schein-nr."):
                        cur = reset_if_set(cur, "divscheinnr", item_indices_groups)
                        cur["divscheinnr"] = x
                    elif "kupon-nr" in text_lc:
                        cur = reset_if_set(cur, "kupon_nr", item_indices_groups)
                        cur["kupon_nr"] = x
                    elif text_lc in ("steuerguthaben", "st. guthaben"):
                        cur = reset_if_set(cur, "steuerguthaben", item_indices_groups)
                        cur["steuerguthaben"] = x
                    elif "sup" in current_item:
                        for piece in current_item.split("<br>"):
                            ret["dividenden_bemerkungen"].append(tu.html_text_to_text(piece))
                item_indices_groups.append(cur)
                indexed = _index_groups(item_indices_groups)
            else:
                filled = parse_column_content_to_item(current_column, indexed)
                ret = push_item_to_return_object("dividenden", filled, ret, i)

    ret["dividenden"] = tu.remove_empty_entries_from_array(ret["dividenden"])
    for _key, val in rest.items():
        if "<b>Dividenden" not in val and "________" not in val:
            clear = tu.html_text_to_text(val).strip()
            if clear:
                ret["dividenden_bemerkungen"].append(clear)

    if not ret["dividenden_notiz"]:
        del ret["dividenden_notiz"]
    if len(ret["dividenden_bemerkungen"]) == 0:
        del ret["dividenden_bemerkungen"]
    return {f"boersenbewertung{callnumber}": ret}


# ---------------------------------------------------------------------------
# Ergebnisabführung (ref parser_tables.js:1298-1356)
# ---------------------------------------------------------------------------


def parse_ergebnisabfuehrung(tables_parsed, tables_arr, rest, infos, callnumber, mode) -> dict:
    ret: list[dict] = []
    table = tables_parsed[0] if tables_parsed else None
    if not table:
        # ref :1301 early-returns the bare [] array (skipping the wrapping):
        # Object.assign merges nothing, and JSON.stringify renders "[]"
        return _JsArrayDict()
    if not mode:
        for i in range(len(table[0])):
            entry = {"jahr": "", "betrag": ""}
            if table[0][i]:
                t1 = tu.html_text_to_text(table[0][i]).strip()
                if rl.match_year(t1):
                    entry["jahr"] = t1
            if len(table) > 1 and i < len(table[1]) and table[1][i]:
                t2 = tu.html_text_to_text(table[1][i]).strip()
                if t2:
                    entry["betrag"] = t2
            if entry["jahr"] or entry["betrag"]:
                ret.append(entry)
    else:
        for col in table:
            entry = {"jahr": "", "betrag": ""}
            first = tu.html_text_to_text(col[0]).strip() if len(col) > 0 else ""
            if first and rl.match_year(first):
                entry["jahr"] = first
            second = tu.html_text_to_text(col[1]).strip() if len(col) > 1 else ""
            if second and "Ergebnisabführung" not in second:
                entry["betrag"] = second
            if entry["jahr"] or entry["betrag"]:
                ret.append(entry)
    return {"ergebnisabfuehrung": ret}


# ---------------------------------------------------------------------------
# T14: Kennzahlen (ref parser_tables.js:1368-1712)
# ---------------------------------------------------------------------------


def parse_kennzahlen(tables_parsed, tables_arr, rest, infos, callnumber) -> dict:
    ret: dict = {"kennzahlen": {}, "waehrungsinfo": [], "notizen": []}

    for _key, val in rest.items():
        current_rest = tu.html_text_to_text(val)
        if current_rest and "Kennzahlen" in current_rest:
            headline = current_rest.replace("Kennzahlen", "", 1)
            match_par = rl.match_between_parenthesis(headline)
            if match_par:
                ret["notizen"].append(match_par)
        else:
            ret["notizen"].append(current_rest)

    for s, table in enumerate(tables_parsed):
        item_indices_groups: list[dict] = []
        found_headline = detect_additional_headline(s, infos, rest)
        push_ctr = -1
        for i in range(len(table)):
            current_column = table[i]
            next_column = table[i + 1] if i + 1 < len(table) else None
            c_info = {"name": "", "waehrung": "", "eintraege": []}
            col0 = current_column[0] if len(current_column) > 0 else None
            col1 = current_column[1] if len(current_column) > 1 else None
            if (col0 and tu.html_text_to_text(col0).strip()) or (
                col1 and tu.html_text_to_text(col1).strip()
            ):
                push_ctr += 1
            if i == 0:
                cur = {"kopfzeile": -1, "jahr": -1}
                occurrences: dict = {"kopfzeile": -1, "jahr": -1}
                x = 0
                while x < len(current_column):
                    current_item = current_column[x]
                    text = tu.html_text_to_text(current_item).strip()
                    text_lc = text.lower()
                    if found_headline:
                        if cur["kopfzeile"] != -1:
                            item_indices_groups.append(cur)
                            cur = {"kopfzeile": -1, "jahr": -1}
                        cur["kopfzeile"] = found_headline.replace(",", "")
                        c_info = {"name": cur["kopfzeile"].strip(), "waehrung": "", "eintraege": []}
                        par = rl.match_between_parenthesis(c_info["name"])
                        if par:
                            c_info["waehrung"] = rl.remove_parenthesis(par)
                        ret["waehrungsinfo"].append(c_info)
                        found_headline = ""
                        continue  # re-process this row (x unchanged; ref x=x-1;continue)
                    elif "<b>" in current_item and "</b>" in current_item:
                        if cur["kopfzeile"] != -1:
                            item_indices_groups.append(cur)
                            cur = {"kopfzeile": -1, "jahr": -1}
                        cur["kopfzeile"] = text.replace(",", "")
                        cur["jahr"] = x
                        c_info = {"name": cur["kopfzeile"].strip(), "waehrung": "", "eintraege": []}
                        par = rl.match_between_parenthesis(c_info["name"])
                        if par:
                            c_info["waehrung"] = rl.remove_parenthesis(par)
                        ret["waehrungsinfo"].append(c_info)
                        x += 1
                        continue
                    elif "beschäftigte" in text_lc:
                        jahr_local = cur["jahr"]
                        if cur["kopfzeile"] != -1:
                            item_indices_groups.append(cur)
                            cur = {"kopfzeile": -1, "jahr": -1}
                        cur["kopfzeile"] = text.replace(",", "")
                        cur["jahr"] = jahr_local
                        cur["durchschnitt"] = x
                        c_info = {"name": cur["kopfzeile"].strip(), "waehrung": "", "eintraege": []}
                        par = rl.match_between_parenthesis(c_info["name"])
                        if par:
                            c_info["waehrung"] = rl.remove_parenthesis(par)
                        ret["waehrungsinfo"].append(c_info)
                        x += 1
                        continue
                    else:
                        eintrag = {"name": text, "waehrung": "", "index": x}
                        par_list = tu.get_parenthesis_content(text)
                        if par_list:
                            eintrag["waehrung"] = rl.remove_parenthesis(par_list[0])
                        else:
                            eintrag["waehrung"] = c_info["waehrung"]
                        c_info["eintraege"].append(eintrag)
                    occurrences[text] = increment_occurrence_count(occurrences.get(text))
                    cur = assign_index(cur, text, occurrences, x)
                    x += 1
                item_indices_groups.append(cur)
                indexed = _index_groups(item_indices_groups)
            else:
                filled = parse_column_content_to_item_kennzahlen(current_column, indexed)
                filled = adapt_year_in_filled_item(filled, ret["kennzahlen"], push_ctr)
                if not tu.is_object_empty(filled):
                    for key, items in filled.items():
                        for it in items:
                            ret["kennzahlen"] = push_item_to_return_object(
                                key, it, ret["kennzahlen"], push_ctr
                            )

    for key in list(ret["kennzahlen"].keys()):
        ret["kennzahlen"][key] = tu.remove_empty_entries_from_array(ret["kennzahlen"][key])
        if len(ret["kennzahlen"][key]) == 0:
            del ret["kennzahlen"][key]
    ret["notizen"] = tu.remove_empty_entries_from_array(ret["notizen"])
    return {f"boersenbewertung{callnumber}": ret}


# ---------------------------------------------------------------------------
# T15: Aus den Bilanzen (ref parser_tables.js:1855-2307)
# ---------------------------------------------------------------------------


def _column_identifiers(tables_parsed, header_table_idx, data_table_idx):
    """AG/Konzern identifier spread (ref parser_tables.js:1944-1956, 2378-2390)."""
    identifiers = []
    n_columns = len(tables_parsed[data_table_idx]) - 1
    n_ident = len(tables_parsed[header_table_idx]) - 1
    if n_ident <= 0:
        return identifiers
    span = n_columns / n_ident
    for i in range(1, len(tables_parsed[header_table_idx])):
        cur = tu.html_text_to_text(tables_parsed[header_table_idx][i][0]).strip()
        x = 0
        while x < span:
            identifiers.append(cur)
            x += 1
    return identifiers


def parse_aus_bilanzen(tables_parsed, tables_arr, rest, infos, headline) -> dict:
    ret: dict = {"ausBilanzen": {}, "notizen": [], "waehrung": None}

    headline_text = tu.html_text_to_text(headline)
    par = rl.match_between_parenthesis(headline_text)
    if par:
        ret["waehrung"] = par.replace("(", "", 1).replace(")", "", 1).strip()

    for _key, val in rest.items():
        current_rest = tu.html_text_to_text(val)
        if current_rest and "Aus den Bilanzen" in current_rest:
            hl = tu.html_text_to_text(rest.get(0, "")).replace("Aus den Bilanzen", "", 1)
            mp = rl.match_between_parenthesis(hl)
            if mp:
                ret["notizen"].append(mp)
        else:
            ret["notizen"].append(current_rest)

    start_incr = 0
    column_identifiers: list[str] = []
    if len(tables_parsed) == 3:
        start_incr = 1
        column_identifiers = _column_identifiers(tables_parsed, 0, 1)

    for s in range(start_incr, len(tables_parsed)):
        table = tables_parsed[s]
        item_indices_groups: list[dict] = []
        cur = {"kopfzeile": -1, "jahr": -1}
        occurrences: dict = {}
        push_ctr = -1
        for i in range(len(table)):
            current_column = table[i]
            col0 = current_column[0] if len(current_column) > 0 else None
            col1 = current_column[1] if len(current_column) > 1 else None
            if (col0 and tu.html_text_to_text(col0).strip()) or (
                col1 and tu.html_text_to_text(col1).strip()
            ):
                push_ctr += 1
            if i == 0:
                for x, current_item in enumerate(current_column):
                    text = tu.html_text_to_text(current_item).strip()
                    if "<b></b>" in current_item:
                        cur = check_if_table_contains_year(table, cur, i, x)
                    elif "<b>" in current_item and "</b>" in current_item:
                        if cur["kopfzeile"] != -1:
                            item_indices_groups.append(cur)
                            cur = {"kopfzeile": -1, "jahr": -1}
                        cur["kopfzeile"] = text.replace(",", "")
                        if cur["jahr"] == -1:
                            cur = check_if_table_contains_year(table, cur, i, x)
                    text_lc = text.lower()
                    if not current_item or not text_lc:
                        continue
                    occurrences[text_lc] = increment_occurrence_count(occurrences.get(text_lc))
                    cur = assign_index(cur, text_lc, occurrences, x)
                item_indices_groups.append(cur)
                indexed = _index_groups(item_indices_groups)
            else:
                filled = parse_column_content_to_item_kennzahlen(current_column, indexed)
                filled = adapt_year_in_filled_item(filled, ret["ausBilanzen"], push_ctr)
                if not tu.is_object_empty(filled):
                    for key, items in filled.items():
                        for it in items:
                            if (
                                column_identifiers
                                and 0 <= i - 1 < len(column_identifiers)
                                and column_identifiers[i - 1]  # JS-falsy '' skips
                            ):
                                it["columnId"] = column_identifiers[i - 1]
                            ret["ausBilanzen"] = push_item_to_return_object(
                                key, it, ret["ausBilanzen"], push_ctr
                            )

    ret["notizen"] = tu.remove_empty_entries_from_array(ret["notizen"])
    return ret


# ---------------------------------------------------------------------------
# T16: GuV (ref parser_tables.js:2319-2559)
# ---------------------------------------------------------------------------


def _new_guv_indices():
    return {
        "jahr": -1,
        "bestandsveraenderung": -1,
        "akteigenleistung": -1,
        "sonstbetrerträge": -1,
        "materialaufwand": -1,
        "personalaufwand": -1,
        "abschreibungen": -1,
        "sonstbetraufwand": -1,
        "finanzergebnis": -1,
        "ergebnis_d_gewoehnlichen_geschaeftstaetigkeit": -1,
        "aoergebnis": -1,
        "steuern": -1,
        "eesteuern": -1,
        "jahresergebnis": -1,
    }


def parse_aus_gewinn_und_verlustrechnungen(
    tables_parsed, tables_arr, rest, infos, headline
) -> dict:
    ret: dict = {"ausGewinnUndVerlustRechnung": [], "notizen": []}

    par = rl.match_between_parenthesis(headline)
    if par:
        ret["waehrung"] = par.replace("(", "", 1).replace(")", "", 1).strip()

    for _key, val in rest.items():
        current_rest = tu.html_text_to_text(val)
        if current_rest and "Aus den Bilanzen" in current_rest:
            hl = tu.html_text_to_text(rest.get(0, "")).replace("Aus den Bilanzen", "", 1)
            mp = rl.match_between_parenthesis(hl)
            if mp:
                ret["notizen"].append(mp)
        else:
            ret["notizen"].append(current_rest)

    start_incr = 0
    column_identifiers: list[str] = []
    if len(tables_parsed) == 2:
        start_incr = 1
        column_identifiers = _column_identifiers(tables_parsed, 0, 1)

    def reset_if_set(cur, key, groups):
        if cur.get(key, -1) != -1:
            groups.append(cur)
            return _new_guv_indices()
        return cur

    for s in range(start_incr, len(tables_parsed)):
        table = tables_parsed[s]
        item_indices_groups: list[dict] = []
        for i in range(len(table)):
            current_column = table[i]
            next_column = table[i + 1] if i + 1 < len(table) else None
            if i == 0:
                cur = _new_guv_indices()
                for x, current_item in enumerate(current_column):
                    next_item = next_column[x] if next_column and x < len(next_column) else None
                    if "<b></b>" in current_item:
                        for col in table:
                            to_check = col[i] if i < len(col) else ""
                            if rl.match_number(to_check):
                                if cur["jahr"] != -1:
                                    item_indices_groups.append(cur)
                                    cur = _new_guv_indices()
                                cur["jahr"] = x
                                continue
                    text_lc = tu.html_text_to_text(current_item).strip().lower()
                    if not current_item or not text_lc:
                        continue
                    if "bilanzsumme" not in text_lc and next_item and "</b>" in next_item:
                        cur = reset_if_set(cur, "jahr", item_indices_groups)
                        cur["jahr"] = x
                    elif "umsatz" in text_lc:
                        cur = reset_if_set(cur, "umsatz", item_indices_groups)
                        cur["umsatz"] = x
                    elif "bestandsveränderung" in text_lc:
                        cur = reset_if_set(cur, "bestandsveraenderung", item_indices_groups)
                        cur["bestandsveraenderung"] = x
                    elif "akt" in text_lc and "eigenleistung" in text_lc:
                        cur = reset_if_set(cur, "akteigenleistung", item_indices_groups)
                        cur["akteigenleistung"] = x
                    elif "sonst" in text_lc and "betr" in text_lc and "erträge" in text_lc:
                        cur = reset_if_set(cur, "sonstbetrerträge", item_indices_groups)
                        cur["sonstbetrerträge"] = x
                    elif "materialaufwand" in text_lc:
                        cur = reset_if_set(cur, "materialaufwand", item_indices_groups)
                        cur["materialaufwand"] = x
                    elif "personalaufwand" in text_lc:
                        cur = reset_if_set(cur, "personalaufwand", item_indices_groups)
                        cur["personalaufwand"] = x
                    elif "abschreibungen" in text_lc:
                        cur = reset_if_set(cur, "abschreibungen", item_indices_groups)
                        cur["abschreibungen"] = x
                    elif "sonst" in text_lc and "betr" in text_lc and "aufwand" in text_lc:
                        cur = reset_if_set(cur, "sonstbetraufwand", item_indices_groups)
                        cur["sonstbetraufwand"] = x
                    elif "finanzergebnis" in text_lc:
                        cur = reset_if_set(cur, "finanzergebnis", item_indices_groups)
                        cur["finanzergebnis"] = x
                    elif "ergebnis" in text_lc and "geschäftstätigkeit" in text_lc:
                        cur = reset_if_set(
                            cur, "ergebnis_d_gewoehnlichen_geschaeftstaetigkeit", item_indices_groups
                        )
                        cur["ergebnis_d_gewoehnlichen_geschaeftstaetigkeit"] = x
                    elif "ao ergebnis" in text_lc:
                        cur = reset_if_set(cur, "aoergebnis", item_indices_groups)
                        cur["aoergebnis"] = x
                    elif "steuern" in text_lc and "ee" not in text_lc:
                        cur = reset_if_set(cur, "steuern", item_indices_groups)
                        cur["steuern"] = x
                    elif "ee-steuern" in text_lc:
                        cur = reset_if_set(cur, "eesteuern", item_indices_groups)
                        cur["eesteuern"] = x
                    elif "jahresergebnis" in text_lc:
                        cur = reset_if_set(cur, "jahresergebnis", item_indices_groups)
                        cur["jahresergebnis"] = x
                    else:
                        cur[text_lc] = x
                item_indices_groups.append(cur)
                indexed = _index_groups(item_indices_groups)
            else:
                filled = parse_column_content_to_item(current_column, indexed)
                if (
                    column_identifiers
                    and 0 <= i - 1 < len(column_identifiers)
                    and column_identifiers[i - 1]  # JS-falsy '' skips
                ):
                    filled["columnId"] = column_identifiers[i - 1]
                ret = push_item_to_return_object(
                    "ausGewinnUndVerlustRechnung", filled, ret, i
                )

    ret["ausGewinnUndVerlustRechnung"] = tu.remove_empty_entries_from_array(
        ret["ausGewinnUndVerlustRechnung"]
    )
    ret["notizen"] = tu.remove_empty_entries_from_array(ret["notizen"])
    return ret
