"""Per-document profile extraction — the parse UDF (SURVEY.md §2.2 M1-M25).

One HTML company page → one nested profile dict. Semantics follow the
reference ``lib/parser.js`` dispatch loop (:94-1854, :1879-1906): the first
matching regex among the section matchers claims the line, its parser
consumes lines and returns the resume index. All cross-section state
(the ``boersenbewertung{N}`` occurrence counter, ref ``lib/callCounter.js``)
is local to one document — per-row state, never actor/global state.

This module is pure Python: in the engine it runs inside
``map_batches(ParseProfile, batch_format="pyarrow")`` actor pools
(dictionaries are actor state, see ``stages/parse_stage.py``).
"""

from __future__ import annotations

import re
from functools import partial

from ..functions import regex_lib as rl
from ..functions import text_utils as tu
from . import aktionaer as pa
from . import boersenbewertung as pb
from . import organbezuege as po
from . import persons as pp
from . import tables as pt
from .checkfiles import JS_UNDEF, AuditSink, _JsArrayDict, js_stringify
from .dictionaries import Dictionaries, get_default

_SEMI_SPLIT_RE = re.compile(r"\s*;\s*")
_PARENS_RE = re.compile(r"\(([^)]+)\)")
_DIGITS_RE = re.compile(r"\d+")
# ref [\s\S]*; "." under DOTALL is the same class and sre skips it far faster
_HEAD_RE = re.compile(r"<head>.*</head>", re.IGNORECASE | re.DOTALL)
_TAG_RE = re.compile(r"<[^>]+>")
_TAG_GROUP_RE = re.compile(r"(<([^>]+)>)", re.IGNORECASE)
_BOLD_RE = re.compile(r"<b>(.*?)</b>")
_TAIL_RE = re.compile(r"[^>]+$")
_WS_RE = re.compile(r"\s+")
_COMMA_SPLIT_RE = re.compile(r"\s*,\s*")
_POBOX_RE = re.compile(r"Postfach|P\.O\.Box")
_POBOX_ANY_RE = re.compile(r"Postfach|Postanschrift|P\.O\.Box")
_EMAIL_RE = re.compile("e.mail")
_WWW_RE = re.compile("Internetseite|http")
_GRUENDUNG_RE = re.compile(r"<b>Gründung:\s*</b>")
_AR_HEAD_RES = (re.compile(r"b>Aufsichtsrat: </b><br>", re.IGNORECASE),
                re.compile(r"b>Aufsichtsrat:</b><br>", re.IGNORECASE),
                re.compile(r"<br>|<|>", re.IGNORECASE))


_JS_UNDEF = JS_UNDEF  # JS `undefined`: keys with this value vanish in JSON


# _JsArrayDict (imported from checkfiles): the Kurse and Dividenden sections
# initialize ret.boersenbewertung this way when no Börsenbewertung object
# exists yet (ref parser.js:1563,1631); parse() renders it as [] at the end.


def _wkn_entry(type_, isin, wkn, nw) -> dict:
    entry = {"type": type_, "isin": isin, "wkn": wkn, "nw": nw}
    return {k: v for k, v in entry.items() if v is not _JS_UNDEF}


def _tables_json(tables_arr, rest) -> str:
    """The table sections' checkfile origin: ``JSON.stringify(tablesArr,
    null, " ") + JSON.stringify(rest)``."""
    return js_stringify(tables_arr, 1) + js_stringify(rest)


def _end_re(*markers: str) -> re.Pattern:
    """One search for "any of these substrings"."""
    return re.compile("|".join(map(re.escape, markers)))


_KURSE_END_RE = _end_re(
    "<center><img", "b>Dividenden", "b>Halbjahresdividenden", "b>Quartalsdividenden",
    "</body>", "br><center><h5><table>", "<center><b>Kennzahlen", "<br><img",
    "Wertpapier-Kenn-Nr.:")
_DIVIDENDEN_END_RE = _end_re(
    "<center><b>", "<br><img", "<center><img", "<br><center>", "</body>", "<br><br>",
    "Ergebnisabführung")
_TABLE_END_RE = _end_re("<center><b>", "<br><img", "<center><img", "<br><center>", "</body>")
_BOERSEN_END_RE = _end_re(
    "b>Bereinigte Kurse", "b>Kurse", "b>Dividenden", "</body>", "b>Kennzahlen")
_WESENTLICHE_END_RE = _end_re("b>Kapital", "b>Börsen")


def _collect_block(lines: list[str], i: int, end_re: re.Pattern) -> tuple[list[str], int]:
    """The non-blank lines from ``lines[i]`` up to the first later non-empty
    line that ``end_re`` finds something in; returns them and that line's
    index (``len(lines)`` when none does)."""
    n = len(lines)
    block = []
    cur = lines[i] if i < n else ""
    while True:
        if cur and cur.strip() != "":
            block.append(cur)
        i += 1
        if i >= n:
            return block, i
        cur = lines[i]
        if cur and end_re.search(cur):
            return block, i


def _line(lines: list[str], i: int) -> str | None:
    return lines[i] if 0 <= i < len(lines) else None


class ProfileParser:
    """Stateless per-document parser; ``dicts`` is the only (read-only) state."""

    def __init__(self, dicts: Dictionaries | None = None, audit: AuditSink | None = None):
        self.dicts = dicts or get_default()
        # checkfile audit sink (ref lib/checkfileWriter.js); None = no logging
        self.audit = audit
        # LSE line capture (ref parser.js:1914 addLineArrayToAnalysis): set
        # to a list to collect each GuV section's line array during parse
        self.lse_lines: list[list[str]] | None = None
        self._lastidx = 0  # Checkfile_Index Diffindex state (ref parser.js:68,81-88)
        # (match_pattern, fn, disabled) — order matters, first match wins
        # (ref parser.js:94-1854; disabled entries at :516,:552 kept for parity)
        self._parse_functions = [
            ("AKF_PARSER_START", self._fn_start, False),
            ("<b>Sitz</b>", self._fn_sitz, False),
            ("Tätigkeitsgebiet/Gründung", self._fn_taetigkeit, False),
            ("<br><b>Gründung|<b>Gründung:", self._fn_gruendung, False),
            ("<b>Status:", self._fn_status, False),
            ("<b>Sonstige Angaben</b>", self._fn_sonstige, False),
            (">Beschäftigte", None, True),
            ("b>Aufsichtsrat:</b><br>", None, True),
            ("b>Aufsichtsrat: </b><br>|b>Aufsichtsrat:</b><br>", self._fn_aufsichtsrat, False),
            ("b>Vorstand:</b><br>", self._fn_vorstand1, False),
            ("b>Vorstand: </b><br>", self._fn_vorstand2, False),
            (">Leitung Kommunikation", self._fn_leitung, False),
            (
                "b>Geschäftsleitung:</b><br>|b>Geschäftsleitung: </b><br>",
                self._fn_geschleitung,
                False,
            ),
            (
                # alternatives 3/4 use NBSP (\xa0) and its utf8-as-latin1
                # mojibake, exactly as the reference literal (parser.js:786)
                "b>Organbezüge:</b>|b>Organbezüge :</b>"
                "|b>Organbezüge:\xa0</b>|b>OrganbezÃ¼ge:Â\xa0</b>",
                self._fn_organbezuege,
                False,
            ),
            ("b>Aktionäre</b>|b>Aktionäre </b>|b>Aktionär", self._fn_aktionaere, False),
            ("b>Public Relations", self._fn_public_relations, False),
            ("b>Investor Relations|b> Investor Relations", self._fn_investor_relations, False),
            ("b>Gesellschafter|b> Gesellschafter", self._fn_gesellschafter, False),
            ("b>Anteilseigner:|b>Anteilseigner :", self._fn_anteilseigner, False),
            (
                r"b>Ausgewählte Beteiligungen|b> Ausgewählte Beteiligungen"
                r"|b>Beteiligung\(en\)|b> Beteiligung\(en\)",
                self._fn_beteiligungen,
                False,
            ),
            ("b>Wesentliche Beteiligungen", self._fn_wesentliche_beteiligungen, False),
            ("b>Unternehmensvert|Abfindungsangebote</b", self._fn_unternehmensvertraege, False),
            (
                "b>Kapitalentwicklung|b>Kapital</b>|b>Kapitalangaben",
                self._fn_kapitalentwicklung,
                False,
            ),
            ("Wertpapier-Kenn-Nr|ISIN:", self._fn_boersenbewertung, False),
            ("b>Bereinigte Kurse|b>Kurse", self._fn_kurse, False),
            ("b>Dividenden", self._fn_dividenden, False),
            (">Ergebnisabführung", self._fn_ergebnisabfuehrung, False),
            ("Kennzahlen", self._fn_kennzahlen, False),
            ("b>Aus den Bilanzen", self._fn_aus_bilanzen, False),
            (
                "b>Aus den Gewinn- und Verlustrechnungen",
                self._fn_aus_guv,
                False,
            ),
        ]
        # disabled matchers never fire and never stop the scan (ref :1897)
        self._compiled = [
            (re.compile(pat), fn) for pat, fn, disabled in self._parse_functions if not disabled
        ]
        # dispatch prefilter: the alternation of the enabled matchers matches
        # a line exactly when one of them does, so a line it misses skips the
        # per-matcher scan (which still decides first-match-wins); joined
        # bare, not as (?:...) groups, every branch starts with a literal
        # and sre skips ahead on their first characters
        self._prefilter = re.compile(
            "|".join(pat for pat, _fn, disabled in self._parse_functions if not disabled))

    # ------------------------------------------------------------------
    def parse(self, lines_str: str, fulltext: bool = True) -> dict:
        """ref parser.js:1879-1906; ``fulltext=False`` leaves out the
        ``_fulltext`` key (the tag-stripped page, which only the coverage
        and residue checks read) and changes nothing else."""
        lines = lines_str.split("\n")
        # JS indexOf returns -1 when </head> is missing, so the sentinel
        # lands at index 1 (ref parser.js:1881) — mirror that, including the
        # append when the target is one past the end
        try:
            head_end = lines.index("</head>")
        except ValueError:
            head_end = -1
        pos = head_end + 2
        if 0 <= pos < len(lines):
            lines[pos] = "AKF_PARSER_START"
        elif pos == len(lines):
            lines.append("AKF_PARSER_START")

        ret: dict = {}
        self._counts: dict[str, int] = {}  # per-document section call counts (ST4)
        # Checkfile_Index Diffindex state: the reference's module global
        # carries across documents in FILE ORDER; a reused parser under Ray
        # sees nondeterministic batch order, so reset per document (identical
        # whenever AKF_PARSER_START fires first, which every sentinel'd page
        # does; only a pre-sentinel section match could ever differ)
        self._lastidx = 0

        if fulltext:
            ret["_fulltext"] = _TAG_RE.sub("", _HEAD_RE.sub("", lines_str).replace("<br>", " "))

        i = 0
        guard = 0
        max_iter = 20 * max(1, len(lines))  # safety net; the reference can rescan
        while i < len(lines):
            guard += 1
            if guard > max_iter:
                break
            line_trim = lines[i].strip()
            if not self._prefilter.search(line_trim):
                i += 1
                continue
            for pattern, fn in self._compiled:
                if pattern.search(line_trim):
                    res = fn(lines, i, ret)
                    i = res if res else i  # JS: i = fn(...) || i
                    break
            i += 1
        if isinstance(ret.get("boersenbewertung"), _JsArrayDict):
            ret["boersenbewertung"] = []  # stringify of the array: props lost
        return ret

    def _count(self, key: str) -> int:
        self._counts[key] = self._counts.get(key, 0) + 1
        return self._counts[key]

    def _current_count(self, key: str) -> int:
        return self._counts.get(key, 0)

    # -- checkfile audit hooks: no-ops when self.audit is None, so no
    # checkfile string is ever built without a sink; with one, the strings
    # are built at the call, before the parser mutates the values further
    def _cfw(self, key: str, originline: int, origin, parsed) -> None:
        """ref checkfileWriter.js writeToCheckfile via the lib/parser.js call
        sites that log ``JSON.stringify(x, null, " ")`` of both values"""
        if self.audit is not None:
            self.audit.write(key, originline, js_stringify(origin, 1), js_stringify(parsed, 1))

    def _cfw_item(self, key: str, originline: int, text: str, parsed) -> None:
        """Per-item form: the raw source text and ``JSON.stringify(parsed)``."""
        if self.audit is not None:
            self.audit.write(key, originline, text, js_stringify(parsed))

    def _cfw_header(self, key: str, text: str) -> None:
        if self.audit is not None:
            self.audit.header(key, text)

    def _sub_cfw(self, key: str):
        """Per-item write callback threaded into the sub-parsers
        (parser_persons.js:192,361; parser_aktionaer…:121,190;
        parser_organbezuege.js:119); None when no sink is attached."""
        return None if self.audit is None else partial(self._cfw_item, key)

    def _check_info(self, matchtheme: str, originline: int, i: int, lines: list) -> None:
        """ref parser.js:81-88 (_checkInfo → Checkfile_Index)."""
        if self.audit is None:
            return
        if matchtheme == "AKF_PARSER_START":
            self._lastidx = 0
        info = js_stringify(
            {"Match": matchtheme, "Startindex": originline, "Endindex": i,
             "Diffindex": originline - self._lastidx}, 1,
        )
        cur = _line(lines, i)
        self.audit.write("index", originline, info,
                         js_stringify(cur if cur is not None else JS_UNDEF, 1))
        self._lastidx = i

    # ------------------------------------------------------------------
    # header block (ref parser.js:105-221)
    def _fn_start(self, lines, i, ret):
        self._count("name")
        i += 1
        originline = i  # ref parser.js:109 (after the increment)
        origintext: list[str] = []
        type_ = ""
        isin = ""
        wkn = ""
        nw = ""
        all_wkn_entry = []
        entry_idx = 0
        n = len(lines)

        while True:
            cur = _line(lines, i)
            origintext.append((cur if cur is not None else "undefined") + "\r\n")
            if cur and ("<td align=center>" in cur or '<td align="center">' in cur):
                m = _BOLD_RE.search(cur)
                if m:
                    ret["name"] = m.group(1)
                    self._cfw("name", originline, origintext, m.group(1))
                    origintext = []
            if cur and ("Wertpapier-Kenn" in cur or "Wertpapier Kenn.-Nr." in cur):
                if entry_idx > 0:
                    all_wkn_entry.append(_wkn_entry(type_, isin, wkn, nw))
                    type_ = isin = wkn = nw = ""
                dm = _DIGITS_RE.findall(cur)
                wkn = dm[0] if dm else ""
                tm = _PARENS_RE.search(cur)
                if tm is None:
                    startidx = i
                    while True:
                        i += 1
                        nxt = _line(lines, i)
                        origintext.append((nxt if nxt is not None else "undefined") + "\r\n")
                        if nxt is None:
                            break
                        tm = _PARENS_RE.search(nxt)
                        if "</center>" in nxt:
                            break
                    if tm is None:
                        # ref: type="" then the unguarded type=type[1] makes
                        # it ""[1] → undefined, so the key vanishes in JSON
                        type_ = _JS_UNDEF
                        i = startidx
                if tm is not None:
                    type_ = tm.group(1)
                entry_idx = 1
            cur = _line(lines, i)
            if cur and "ISIN:" in cur:
                if entry_idx > 1:
                    all_wkn_entry.append(_wkn_entry(type_, isin, wkn, nw))
                    type_ = isin = wkn = nw = ""
                tail = _TAIL_RE.search(cur)
                isin = tail.group(0) if tail else ""
                if (
                    entry_idx == 1
                    and (not wkn or str(wkn) not in str(isin))  # wkn: digits only
                    and "DE" in str(isin)
                ):
                    empty = isin
                    isin = ""
                    all_wkn_entry.append(_wkn_entry(type_, isin, wkn, nw))
                    type_ = wkn = nw = ""
                    isin = empty
                tm2 = None
                if type_ is None or type_ is _JS_UNDEF or type_ == "":
                    tm2 = _PARENS_RE.search(cur)
                    if tm2 is None:
                        while True:
                            i += 1
                            nxt = _line(lines, i)
                            origintext.append((nxt if nxt is not None else "undefined") + "\r\n")
                            if nxt is None:
                                break
                            tm2 = _PARENS_RE.search(nxt)
                            if "</center>" in nxt:
                                break
                    if tm2 is not None:
                        type_ = tm2.group(1)
                entry_idx = 2
            cur = _line(lines, i)
            if cur and "Nennwert:" in cur:
                nw = cur.replace("<center><b><b>Nennwert: </b>", "", 1)
                entry_idx = 3
            i += 1

            end1 = end2 = True
            cur = _line(lines, i)
            if cur:
                if "<b>Sitz</b>" in cur:
                    end1 = False
                if "b>Tätigkeitsgebiet" in cur:
                    end2 = False
            if not (end1 and end2) or i >= n:
                break

        all_wkn_entry.append(_wkn_entry(type_, isin, wkn, nw))
        self._cfw("wknentry", originline, origintext, all_wkn_entry)
        i -= 1
        ret["all_wkn_entry"] = all_wkn_entry
        self._check_info("AKF_PARSER_START", originline, i, lines)
        return i

    # ------------------------------------------------------------------
    # Sitz / address block (ref parser.js:228-381)
    def _fn_sitz(self, lines, i, ret):
        self._count("sitz")
        originline = i
        try:
            i += 1
            address_lines = ""
            obj: dict = {}
            ret_temp = []
            address_linearr = []
            while True:
                cur = lines[i]
                if "<!-- weitere Sitze -->" not in cur:
                    if "<br><center><h5><table><tr>" not in cur:
                        address_lines += cur
                if cur.startswith("<br>") and "<br><center>" not in cur:
                    address_linearr.append(address_lines)
                    address_lines = ""
                i += 1
                if "<br><center><h5><table><tr>" in lines[i] or "</body>" in lines[i]:
                    break
            address_linearr.append(address_lines)
            if address_linearr:
                obj["origpost"] = _TAG_GROUP_RE.sub(" ", ",".join(address_linearr))
            for block in address_linearr:
                address_lines = block
                address_name = tu.trim_all(address_lines.split("</b><br>"))
                obj["type"] = "Sitz"
                if len(address_name) > 1:
                    address_lines = address_name[1]
                    obj["type"] = address_name[0].replace("<b>", "", 1)
                address_parts = tu.trim_all(address_lines.split("<br>"))
                length = len(address_parts)
                for idxx in range(length):
                    if "PLZ" in address_parts[idxx]:
                        toks = _WS_RE.split(address_parts[idxx])
                        obj["lcustomerzip"] = toks[1] if len(toks) > 1 else ""
                        rest_toks = toks[2:]
                        # JS leaves the property undefined on an empty
                        # split → the key vanishes in JSON; mirror by delete
                        obj["lcustomercity"] = (
                            " ".join(rest_toks) if len(rest_toks) > 1
                            else (rest_toks[0] if rest_toks else None)
                        )
                        if obj["lcustomercity"] is None:
                            del obj["lcustomercity"]
                        address_parts = address_parts[idxx + 1:length]
                        break
                filtered = [p for p in address_parts if p]
                # no guard here: the reference indexes [0] unchecked and its
                # try/catch abandons the whole section on an empty block —
                # filtered[0] raising IndexError reproduces that exactly
                if "," not in filtered[0] and "(" not in filtered[0]:
                    obj["city"] = filtered[0]
                    if len(filtered) > 1:
                        filtered = [p for p in address_parts if p]
                        filtered.pop(0)
                sec = [p for p in filtered if p]
                if _POBOX_RE.search(sec[0]) is None:
                    first = filtered.pop(0) if filtered else ""
                    if "," in first:
                        stripped0 = _DIGITS_RE.sub("", sec[0])
                        if stripped0 and stripped0.split()[0][0] == ",":
                            inputarr = sec[0].replace(",", "", 1)
                            street_with_number = inputarr.split(",")[0]
                            city_with_zip = (
                                inputarr.split(",")[1] if "," in inputarr else ""
                            )
                        else:
                            swn_cwz = tu.trim_all(sec.pop(0).split(","))
                            street_with_number = swn_cwz[0]
                            city_with_zip = swn_cwz[1] if len(swn_cwz) > 1 else ""
                        toks = _WS_RE.split(street_with_number)
                        if len(toks) != 1:
                            if _DIGITS_RE.fullmatch(street_with_number[0] or " "):
                                obj["street_number"] = toks[0]
                                obj["street"] = " ".join(toks[1:])
                            else:
                                street = toks[:-1]
                                obj["street"] = (
                                    " ".join(street) if len(street) > 1 else street[0]
                                )
                                obj["street_number"] = toks[-1]
                        else:
                            obj["street"] = street_with_number
                            obj["street_number"] = ""
                        cz = _WS_RE.split(city_with_zip.lstrip())
                        obj["zip"] = cz[0] if cz else ""
                        city_toks = cz[1:]
                        obj["city"] = (
                            " ".join(city_toks) if len(city_toks) > 1
                            else (city_toks[0] if city_toks else None)
                        )
                        if obj["city"] is None:
                            del obj["city"]  # JS undefined key vanishes in JSON
                    else:
                        obj["city"] = sec[0]
                for address_part in sec:
                    if _POBOX_ANY_RE.search(address_part):
                        k, v = tu.split_at_first(address_part, ",")
                        ktoks = _WS_RE.split(k.lstrip())
                        if len(ktoks) > 1:
                            obj["POBox"] = " ".join(ktoks[1:])
                        vtoks = _WS_RE.split(v.lstrip())
                        if len(vtoks) > 1:
                            obj["zipPOBox"] = vtoks[0]
                            obj["cityPOBox"] = " ".join(vtoks[1: len(ktoks)])
                        else:
                            obj["cityPOBox"] = v
                            obj["zipPOBox"] = ""
                    else:
                        k, v = tu.split_at_first(address_part, ":")
                        if not k:
                            continue
                        if "Telefon" in k:
                            obj["phone"] = v
                        elif "Telefax" in k:
                            obj["fax"] = v
                        elif _EMAIL_RE.search(k):
                            obj["email"] = _COMMA_SPLIT_RE.split(v)
                        elif _WWW_RE.search(k):
                            obj["www"] = _COMMA_SPLIT_RE.split(v)
                        elif "T-Online" in k:
                            obj["tonline"] = _COMMA_SPLIT_RE.split(v)
                ret_temp.append(obj)
                obj = {}
            self._cfw("sitz", originline, address_linearr, ret_temp)
            i -= 1
            ret["Sitz"] = ret_temp
            self._check_info("Sitz", originline, i, lines)
            return i
        except Exception:
            return None

    # ------------------------------------------------------------------
    def _fn_taetigkeit(self, lines, i, ret):
        """ref parser.js:387-416"""
        self._count("taetigkeitsgebiet")
        originline = i
        i += 1
        activity = ""
        while True:
            end1 = "<br><center>" not in lines[i]
            end2 = "<b>Gr" not in lines[i]
            if end1 and end2:
                activity += lines[i]
                i += 1
            if not (end1 and end2):
                break
        if "<b>Gr" in activity.replace("<br>", "\n"):
            return i - 2
        ret["activity_description"] = activity.replace("<br>", "\n")
        self._cfw("taetigkeitsgebiet", originline, activity, ret["activity_description"])
        i -= 1
        self._check_info("Tätigkeitsgebiet/Gründung", originline, i, lines)
        return i

    def _fn_gruendung(self, lines, i, ret):
        """ref parser.js:422-456"""
        self._count("gruendung")
        originline = i
        m = _DIGITS_RE.search(lines[i])
        if m:
            ret["established_year"] = int(m.group(0))
        reduced = _GRUENDUNG_RE.sub("", lines[i], count=1)
        rest_final = []
        for part in reduced.split("<br>"):
            cur = tu.html_text_to_text(part).strip()
            if cur:
                rest_final.append(cur)
        ret["established_year_bemerkungen"] = rest_final
        self._cfw("gruendung", originline, lines[i], ret.get("established_year", JS_UNDEF))
        if self.audit is not None:
            self.audit.write("gruendung", originline, "Additional entry for bemerkungen:",
                             js_stringify(rest_final, 1))
        i += 1
        self._check_info("Gründung", originline, i, lines)
        return i

    def _fn_status(self, lines, i, ret):
        """ref parser.js:462-475"""
        self._count("status")
        originline = i
        m = _TAIL_RE.search(lines[i])
        if m:
            ret["status"] = m.group(0)
        self._cfw("status", originline, lines[i], ret.get("status", JS_UNDEF))
        self._check_info("Status", originline, i, lines)
        return i

    def _fn_sonstige(self, lines, i, ret):
        """ref parser.js:481-507"""
        self._count("angaben")
        originline = i
        origintext = ""
        i += 1
        angaben = []
        while "</body>" not in lines[i] and "</html>" not in lines[i]:
            origintext += lines[i]
            if "<b>" in lines[i]:
                strip = _TAG_GROUP_RE.sub("", lines[i])
                angaben.append(strip.split(":"))
            i += 1
            if i >= len(lines):
                break
        self._cfw("angaben", originline, origintext, angaben)
        self._check_info("Sonstige Angaben", originline, i, lines)
        ret["sonstigeAngaben"] = angaben
        return i

    # ------------------------------------------------------------------
    def _fn_aufsichtsrat(self, lines, i, ret):
        """ref parser.js:584-649"""
        self._count("aufsichtsrat")
        originline = i
        commonfunct_is_there = False
        commonfunct = ""
        aufsichtsrat = lines[i]
        for head_re in _AR_HEAD_RES:
            aufsichtsrat = head_re.sub("", aufsichtsrat)
        self._cfw_header("akf_learndata", aufsichtsrat)  # ref :598
        i += 1
        n = len(lines)
        while True:
            if lines[i].startswith("*)"):
                commonfunct = lines[i].replace("*)", "", 1).replace("<br>", "", 1).strip()
                commonfunct_is_there = True
            elif "*) Arbeitnehmervertreter" in lines[i]:
                lines[i] = lines[i].replace("*) Arbeitnehmervertreter", "", 1)
                lines[i] = lines[i].replace("<br>", "", 1).strip()
                lines[i] = rl.remove_last_character(lines[i], ";")
                commonfunct = "Arbeitnehmervertreter"
                commonfunct_is_there = True
            aufsichtsrat += lines[i].replace("<br>", "", 1)
            i += 1
            if i >= n:
                break
            if lines[i] and "<b>" in lines[i]:
                break
        ret["aufsichtsrat"] = []
        for part in tu.trim_all(_SEMI_SPLIT_RE.split(aufsichtsrat)):
            self._cfw_header("akf_learndata", part)  # ref :633
            manager = pp.check_person_line(part, self.dicts, commonfunct_is_there, commonfunct)
            self._cfw_item("aufsichtsrat", originline, part, manager)  # ref :637
            ret["aufsichtsrat"].append(manager)
        self._cfw_header("akf_learndata", "Gründung: 9999")  # ref :643
        i -= 1
        self._check_info("Aufsichtsrat", originline, i, lines)
        return i

    def _fn_vorstand1(self, lines, i, ret):
        """ref parser.js:655-676"""
        self._count("vorstand")
        originline = i
        i += 1
        vorstand = ""
        while True:
            vorstand += lines[i].replace("<br>", "", 1)
            i += 1
            if i >= len(lines) or "<b>" in lines[i]:
                break
        ret.setdefault("vorstand", [])
        vorstand = rl.replace_semicolon_and_comma_in_brackets(vorstand)
        ret["vorstand"].append(
            pp.parse_vorstand(vorstand, self.dicts, originline, self._sub_cfw("vorstand"))
        )
        self._check_info("Vorstand", originline, i, lines)  # ref :674 (pre-decrement)
        return i - 1

    def _fn_vorstand2(self, lines, i, ret):
        """ref parser.js:682-701"""
        self._count("vorstand")
        originline = i
        br_split = lines[i].split("<br>")
        spliced = br_split[1:]
        i += 1
        vorstand = "".join(spliced)
        ret.setdefault("vorstand", [])
        ret["vorstand"].append(
            pp.parse_vorstand(vorstand, self.dicts, originline, self._sub_cfw("vorstand"))
        )
        self._check_info("Vorstand-2", originline, i, lines)
        return i

    def _fn_leitung(self, lines, i, ret):
        """ref parser.js:707-737"""
        self._count("leitung_kommunikation")
        originline = i
        i += 1
        currentline = lines[i]
        lines_leitung = []
        while True:
            if currentline and currentline.strip() != "":
                lines_leitung.append(currentline)
            i += 1
            currentline = lines[i] if i < len(lines) else ""
            if "<br><center>" in currentline or i >= len(lines):
                break
        result = pp.parse_leiter(lines_leitung, self.dicts)
        self._cfw("leitung_kommunikation", originline, lines_leitung, result)
        ret["leitung_kommunikation"] = result
        return i - 1

    def _fn_geschleitung(self, lines, i, ret):
        """ref parser.js:743-776"""
        self._count("geschleitung")
        originline = i
        br_split = lines[i].split("<br>")
        spliced = br_split[1:]
        geschleitung = "".join(spliced)
        i += 1
        if geschleitung == "":
            geschleitung = lines[i].replace("<br>", "", 1)
        ret["geschleitung"] = []
        geschleitung = rl.replace_semicolon_and_comma_in_brackets(geschleitung)
        for part in tu.trim_all(_SEMI_SPLIT_RE.split(geschleitung)):
            manager = pp.check_person_line(part, self.dicts, False, "")
            self._cfw_item("geschleitung", originline, part, manager)  # ref :767
            ret["geschleitung"].append(manager)
        i -= 1
        self._check_info("Geschäftsleitung", originline, i, lines)
        return i

    def _fn_organbezuege(self, lines, i, ret):
        """ref parser.js:786-816"""
        self._count("organbezuege")
        originline = i
        b_split = lines[i].split("</b>")
        spliced = b_split[1:]
        organbezuege = "".join(p.replace("<br>", "") for p in spliced)
        self._cfw_header("organbezuege", organbezuege)  # ref :802
        i += 1
        self._check_info("Organbezüge", originline, i, lines)
        result = po.parse_organbezuege(organbezuege, originline, self._sub_cfw("organbezuege"))
        if result:
            ret.setdefault("organbezuege", []).append(result)
        return i

    # ------------------------------------------------------------------
    def _fn_aktionaere(self, lines, i, ret):
        """ref parser.js:823-889"""
        self._count("aktionaere")
        originline = i
        currentline = lines[i]
        lines_aktionaer = []
        n = len(lines)
        while True:
            if currentline and currentline.strip() != "":
                self._cfw_header("aktionaere", currentline)  # ref :834
                lines_aktionaer.append(currentline)
            i += 1
            currentline = lines[i] if i < n else ""
            current_defined = bool(currentline)
            end1 = "<br><center>" in currentline and "Aktionäre" not in currentline
            if end1 and current_defined:
                lines_aktionaer.append(currentline)
            end2 = "</body>" in currentline
            end3 = "<br>" in currentline
            if i >= n:
                break
            if not (not current_defined or (end1 and end2) or (end3 and not end1)):
                break

        aktionaer_final = []
        if len(lines_aktionaer) == 1:
            aktionaer_final = lines_aktionaer[0].split("<br>")[1:]
        elif len(lines_aktionaer) == 2:
            aktionaer_final = lines_aktionaer[1].split("<br>")
        else:
            for cline in lines_aktionaer[1:]:
                if cline and "<br><center><h5>" not in cline:
                    aktionaer_final.extend(cline.split("<br>"))
        i += 1
        aktionaere = pa.parse_aktionaer(aktionaer_final, originline, self._sub_cfw("aktionaere"))
        ret.setdefault("aktionaer", []).extend(aktionaere)
        self._check_info("Aktionäre", originline, i, lines)
        return i - 3

    def _fn_public_relations(self, lines, i, ret):
        """ref parser.js:894-942 (the reference's second parse loop checks a
        misspelled property and never iterates; mirrored by pushing once —
        but the second parse call still runs, so its checkfile writes repeat,
        ref :938-939)."""
        self._count("publicRelations")
        originline = i
        currentline = lines[i]
        lines_pub = []
        while True:
            if currentline.strip() != "":
                self._cfw_header("publicRelations", currentline)  # ref :906
                lines_pub.append(currentline)
            i += 1
            currentline = lines[i] if i < len(lines) else "<br>"
            if currentline[:4] == "<br>":
                break
        if len(lines_pub) == 1:
            final = lines_pub[0].split("<br>")[1:]
        else:
            final = lines_pub[1].split("<br>")
        ret.setdefault("publicRelations", [])
        cfw = self._sub_cfw("investorRelations")  # ref writes go to InvestorRelations
        result = pp.parse_investor_relations(final, self.dicts, originline, cfw)
        ret["publicRelations"].append(result["returnObject"])
        if self.audit is not None:
            # the reference's dead second call (ref :938) repeats the writes
            pp.parse_investor_relations(final, self.dicts, originline, cfw)
        self._check_info("Public Relations", originline, i, lines)
        return i - 1

    def _fn_investor_relations(self, lines, i, ret):
        """ref parser.js:948-995"""
        self._count("investorRelations")
        originline = i
        currentline = lines[i]
        lines_inv = []
        while True:
            if currentline.strip() != "":
                self._cfw_header("investorRelations", currentline)  # ref :959
                lines_inv.append(currentline)
            i += 1
            currentline = lines[i] if i < len(lines) else "<br>"
            if currentline[:4] == "<br>":
                break
        if len(lines_inv) == 1:
            final = lines_inv[0].split("<br>")[1:]
        else:
            final = lines_inv[1].split("<br>")
        i += 1
        ret.setdefault("investorRelations", [])
        cfw = self._sub_cfw("investorRelations")
        result = pp.parse_investor_relations(final, self.dicts, originline, cfw)
        ret["investorRelations"].append(result["returnObject"])
        guard = 0
        while result["restOfLines"] and len(result["restOfLines"]) >= 1 and guard < 50:
            guard += 1
            result = pp.parse_investor_relations(result["restOfLines"], self.dicts, originline, cfw)
            ret["investorRelations"].append(result["returnObject"])
        self._check_info("Investor Relations", originline, i, lines)
        return i - 2

    def _fn_gesellschafter(self, lines, i, ret):
        """ref parser.js:1001-1040"""
        self._count("gesellschafter")
        originline = i
        i += 1
        currentline = lines[i]
        items = []
        while True:
            if currentline.strip() != "":
                for piece in currentline.split("<br>"):
                    item = piece.strip()
                    if item:
                        items.append(item)
            i += 1
            currentline = lines[i] if i < len(lines) else "<br><center><h5><table><tr>"
            if "<br><center><h5><table><tr>" in currentline:
                break
        result = pp.parse_gesellschafter(
            items, self.dicts, originline, self._sub_cfw("aktionaere")
        )
        self._check_info("Gesellschafter", originline, i, lines)
        ret["gesellschafter"] = result
        self._cfw("gesellschafter", originline, items, result)  # ref :1035 (file disabled in config)
        return i - 1

    def _fn_anteilseigner(self, lines, i, ret):
        """ref parser.js:1046-1088"""
        self._count("anteilseigner")
        originline = i
        currentline = lines[i]
        lines_ant = []
        while True:
            if currentline.strip() != "":
                self._cfw_header("anteilseigner", currentline)  # ref :1057
                lines_ant.append(currentline)
            i += 1
            currentline = lines[i] if i < len(lines) else None
            if not currentline or currentline[:4] == "<br>":
                break
        if len(lines_ant) == 1:
            br_split = lines_ant[0].split("<br>")
            b_split = br_split[0].split("</b>")
            if len(b_split) >= 2:
                br_split.append(b_split[1])
            final = br_split[1:]
        else:
            final = lines_ant[1].split("<br>")
        i += 1
        self._check_info("Anteilseigner", originline, i, lines)
        ret["anteilsEigner"] = pa.parse_anteils_eigner(
            final, originline, self._sub_cfw("anteilseigner")
        )
        return i - 3

    def _fn_beteiligungen(self, lines, i, ret):
        """ref parser.js:1094-1136"""
        self._count("beteiligungen")
        originline = i
        currentline = lines[i]
        firstline_txt = tu.html_text_to_text(currentline)
        if not (firstline_txt and len(firstline_txt.replace("beteiligung", "", 1)) > 6):
            i += 1
        lines_bet = []
        while True:
            if currentline.strip() != "":
                lines_bet.append(currentline)
            i += 1
            currentline = lines[i] if i < len(lines) else "<br><center><h5><table><tr>"
            if "<br><center><h5><table><tr>" in currentline:
                break
        final = pa.prepare_beteiligungen(lines_bet)
        if final is None:
            return originline + 1
        returnbet = pa.parse_beteiligungen2(final)
        self._cfw("beteiligungen", originline, lines_bet, returnbet)  # ref :1129
        ret["beteiligungen"] = returnbet
        self._check_info("Ausgewählte Beteiligungen", originline, i, lines)
        return originline + 1

    def _fn_wesentliche_beteiligungen(self, lines, i, ret):
        """ref parser.js:1142-1189"""
        self._count("beteiligungenWesentliche")
        originline = i
        lines_bet, i = _collect_block(lines, i + 1, _WESENTLICHE_END_RE)
        robj = pt.recognize_table_arrays(lines_bet)
        tables_parsed = pt.create_parsed_tables(robj["tablesArr"])
        self._check_info("Wesentliche Beteiligungen", originline, i, lines)
        # ref :1180 passes the returnobject itself — JS coerces to this literal
        self._cfw_header("beteiligungen", "[object Object]")
        returnbet = pa.parse_beteiligungen(
            robj["tablesArr"], tables_parsed, robj["rest"], robj["infos"]
        )
        if self.audit is not None:  # ref :1184
            self.audit.write("beteiligungen", originline,
                             _tables_json(robj["tablesArr"], robj["rest"]),
                             js_stringify(returnbet, 1))
        ret["beteiligungen"] = returnbet
        return i - 2

    def _fn_unternehmensvertraege(self, lines, i, ret):
        """ref parser.js:1195-1229"""
        self._count("unternehmensVertraege")
        i += 1
        currentline = lines[i] if i < len(lines) else ""
        items = []
        while True:
            if currentline and currentline.strip() != "":
                for piece in currentline.split("<br>"):
                    item = piece.strip()
                    if item:
                        items.append(item)
            i += 1
            currentline = lines[i] if i < len(lines) else "<br><center><h5><table><tr>"
            if "<br><center><h5><table><tr>" in currentline:
                break
        ret["unternehmensVertraege"] = items
        return i

    # ------------------------------------------------------------------
    def _fn_kapitalentwicklung(self, lines, i, ret):
        """ref parser.js:1241-1422"""
        self._count("kapitalentwicklung")
        originline = i
        i += 1
        currentline = lines[i] if i < len(lines) else ""
        lines_kap = []
        while True:
            if currentline and currentline.strip() != "":
                lines_kap.append(currentline)
            i += 1
            currentline = lines[i] if i < len(lines) else "<br><center><h5><table><tr>"
            if "<br><center><h5><table><tr>" in currentline:
                break
        robj = pt.recognize_table_arrays(lines_kap)
        tables_arr, rest, infos = robj["tablesArr"], robj["rest"], robj["infos"]
        tables_parsed = pt.create_parsed_tables(tables_arr)
        rec = pt.recognize_table_content(tables_parsed, "kapitalentwicklung")

        # sanitation: headline-only table followed by unrecognized table
        # (ref parser.js:1271-1296)
        substituted: list[str] = []
        for x in range(len(tables_parsed)):
            associated = tu.get_keys_by_value(rec, x)
            if not associated:
                prev_keys = tu.get_keys_by_value(rec, x - 1)
                if len(prev_keys) >= 1:
                    prev_table = tables_parsed[rec[prev_keys[0]]]
                    if len(prev_table) <= 1:
                        rec[prev_keys[0]] = x
                        substituted.append(prev_keys[0])
                # the write fires for EVERY unassociated table, with the
                # substitution list accumulated so far (ref :1276-1295)
                if self.audit is not None:  # ref :1292
                    self.audit.write("sanitation_kapitalentwicklung", originline,
                                     f"Sanitation was triggered for table:{x} "
                                     + js_stringify(substituted, 1), "")

        def nxt(idx):
            return pt.get_next_index(rec, idx)

        ret_kapital = ret_grundkapital = ret_genehm = ret_beding = JS_UNDEF
        ret_beding2 = ret_besbez = ret_ausgegeben = ret_erm = JS_UNDEF
        if "kapitalEntwicklungIndex" in rec:
            r = pt.parse_kapital_entwicklung(tables_parsed, rec["kapitalEntwicklungIndex"])
            ret_kapital = r
            ret["kapitalEntwicklung"] = r  # JS: [] is truthy, always assigned
        if "grundkapitalIndex" in rec:
            r = pt.parse_grundkapital(
                tables_parsed, tables_arr, rest, infos, rec["grundkapitalIndex"]
            )
            ret_grundkapital = r
            if r and r.get("grundkapital"):
                ret["grundkapital"] = r["grundkapital"]
            if r and r.get("stimmrecht") is not None:
                ret["stimmrecht"] = r["stimmrecht"]
            if r and r.get("stückelung") is not None:
                ret["stückelung"] = r["stückelung"]
        if "genehmKapitalIndex" in rec:
            r = pt.parse_genehm_kapital(
                tables_parsed, tables_arr, rest, infos,
                rec["genehmKapitalIndex"], nxt(rec["genehmKapitalIndex"]), substituted,
            )
            ret_genehm = r
            ret["genehmigtesKapital"] = r  # JS: {} is truthy, always assigned
        if "genehmGenusKapitalIndex" in rec:
            r = pt.parse_genehm_kapital(
                tables_parsed, tables_arr, rest, infos,
                rec["genehmGenusKapitalIndex"], nxt(rec["genehmGenusKapitalIndex"]), substituted,
            )
            ret["genehmigtesGenusKapital"] = r  # JS: {} is truthy, always assigned
        if "derzeitigesGenusKapitalIndex" in rec:
            r = pt.parse_grundkapital(
                tables_parsed, tables_arr, rest, infos,
                rec["derzeitigesGenusKapitalIndex"], "genu",
            )
            # JS assigns r.grundkapital; undefined-valued keys vanish in JSON
            if "grundkapital" in r:
                ret["derzeitigesGenusKapital"] = r["grundkapital"]
        if "entwicklungGenusKapitalIndex" in rec:
            r = pt.parse_entwicklung_genus_kapital(
                tables_parsed, rec["entwicklungGenusKapitalIndex"]
            )
            ret["entwicklungDesGenusKapitals"] = r  # JS: [] truthy
        if "bedingKapitalIndex" in rec:
            r = pt.parse_beding_kapital(
                tables_parsed, tables_arr, rest, infos,
                rec["bedingKapitalIndex"], nxt(rec["bedingKapitalIndex"]),
            )
            ret_beding = r
            ret["bedingtesKapital"] = r  # JS: object truthy
        if "bedingKapitalIndex2" in rec:
            r = pt.parse_beding_kapital(
                tables_parsed, tables_arr, rest, infos,
                rec["bedingKapitalIndex2"], nxt(rec["bedingKapitalIndex2"]),
            )
            ret_beding2 = r
            ret["bedingtesKapital2"] = r  # JS: object truthy
        if "besBezugsrechteIndex" in rec:
            r = pt.parse_bes_bezugsrechte(
                tables_parsed, tables_arr, rest, infos,
                rec["besBezugsrechteIndex"], nxt(rec["besBezugsrechteIndex"]),
            )
            ret_besbez = r
            ret["besBezugsrechte"] = r  # JS: object truthy
        if "ermaechtigungAktienErwerbIndex" in rec:
            r = pt.parse_erm_aktienerwerb(
                tables_parsed, tables_arr, rest, infos,
                rec["ermaechtigungAktienErwerbIndex"],
                nxt(rec["ermaechtigungAktienErwerbIndex"]),
            )
            ret_erm = r
            if self.audit is not None:  # ref :1368 (inside the if)
                self.audit.write("ermAktienerwerb", originline, _tables_json(tables_arr, rest),
                                 js_stringify(r, 1))
            ret["ermächtigungAktienerwerb"] = r  # JS: object truthy
        if "ausgegebenesKapitalIndex" in rec:
            r = pt.parse_ausgegebenes_kapital(
                tables_parsed, tables_arr, rest, infos, rec["ausgegebenesKapitalIndex"]
            )
            ret_ausgegeben = r
            ret["ausgegebenesKapital"] = r  # JS: object truthy
        # ref parser.js:1371-1378 — unconditional write block (undefined results
        # render "parsed undefined", faithfully)
        if self.audit is not None:
            self._cfw("kapitalentwicklung", originline, tables_arr, ret_kapital)
            tar = _tables_json(tables_arr, rest)
            for key, r in (("grundkapital", ret_grundkapital), ("genehmkapital", ret_genehm),
                           ("bedingkapital", ret_beding), ("besbezugsrechte", ret_besbez),
                           ("ausgegebenesKapital", ret_ausgegeben), ("bedingkapital", ret_beding2)):
                self.audit.write(key, originline, tar, js_stringify(r, 1))
        self._check_info("Kapitalentwicklung", originline, i, lines)
        return i

    # ------------------------------------------------------------------
    def _fn_boersenbewertung(self, lines, i, ret):
        """ref parser.js:1430-1499"""
        count = self._count("boersenbewertung")
        originline = i
        lines_bb, i = _collect_block(lines, i, _BOERSEN_END_RE)
        if i < len(lines) and "b>Bereinigte Kurse" in lines[i]:
            for piece in lines[i].split("<br>"):
                lines_bb.append(tu.html_text_to_text(piece).replace("Bereinigte Kurse", "", 1))
        i -= 1
        result = pb.parse_boersenbewertung(lines_bb, count)
        self._cfw("boersenbewertung", originline, lines_bb, result)  # ref :1478
        if result:
            ret.setdefault("boersenbewertung", {})
            for key, val in result.items():
                if key not in ret["boersenbewertung"] or not ret["boersenbewertung"][key]:
                    ret["boersenbewertung"][key] = val
                elif val:
                    ret["boersenbewertung"][key].update(val)
        self._check_info("Börsenbewertung", originline, i, lines)
        return i

    def _fn_kurse(self, lines, i, ret):
        """ref parser.js:1505-1576"""
        self._count("bereinigtekurse")
        originline = i
        lines_kurse, i = _collect_block(lines, i, _KURSE_END_RE)
        robj = pt.recognize_table_arrays(lines_kurse)
        tables_parsed = pt.create_parsed_tables(robj["tablesArr"])
        # JS getCurrentCount yields undefined before any Börsenbewertung ran:
        # the result key renders "boersenbewertungundefined" (no guard here,
        # unlike Kennzahlen/Ergebnisabführung which coerce 0 → 1)
        count = self._current_count("boersenbewertung") or "undefined"
        result = pt.parse_bereinigtekurse(
            tables_parsed, robj["tablesArr"], robj["rest"], robj["infos"], count
        )
        self._cfw("bereinigtekurse", originline, robj["tablesArr"], result)  # ref :1556
        if result:
            ret.setdefault("boersenbewertung", _JsArrayDict())  # ref :1563
            for k, val in result.items():
                if val and ret["boersenbewertung"].get(k):
                    ret["boersenbewertung"][k].update(val)
        i = i - 3
        self._check_info("Kurse", originline, i, lines)
        return i - 3

    def _fn_dividenden(self, lines, i, ret):
        """ref parser.js:1582-1643"""
        self._count("dividenden")
        originline = i
        lines_div, i = _collect_block(lines, i, _DIVIDENDEN_END_RE)
        robj = pt.recognize_table_arrays(lines_div)
        tables_parsed = pt.create_parsed_tables(robj["tablesArr"])
        count = self._current_count("boersenbewertung") or "undefined"  # JS undefined key
        result = pt.parse_dividenden(
            tables_parsed, robj["tablesArr"], robj["rest"], robj["infos"], count
        )
        self._cfw("dividenden", originline, robj["tablesArr"], result)  # ref :1630
        ret.setdefault("boersenbewertung", _JsArrayDict())  # ref :1631
        for k, val in result.items():
            if ret["boersenbewertung"].get(k) and val:
                ret["boersenbewertung"][k].update(val)
        self._check_info("Dividenden", originline, i, lines)
        return i - 3

    def _fn_ergebnisabfuehrung(self, lines, i, ret, recursively=False):
        """ref parser.js:1649-1656, parser_additions.js:37-110"""
        count = self._count("ergebnisabfuehrung") if not recursively else self._current_count(
            "ergebnisabfuehrung"
        )
        originline = i
        lines_eaf, i = _collect_block(lines, i + 1, _TABLE_END_RE)
        table_start = any(cur and "<table" in cur for cur in lines_eaf)
        if not table_start:
            isearch = originline
            cline = ""
            while (not cline or "<table" not in cline) and isearch >= 0:
                cline = lines[isearch]
                isearch -= 1
            return self._fn_ergebnisabfuehrung(lines, isearch, ret, recursively=True)

        robj = pt.recognize_table_arrays(lines_eaf)
        tables_parsed = pt.create_parsed_tables(robj["tablesArr"])
        if not count:
            count = 1
        result = pt.parse_ergebnisabfuehrung(
            tables_parsed, robj["tablesArr"], robj["rest"], robj["infos"], count, recursively
        )
        self._cfw("ergebnisabfuehrung", originline, robj["tablesArr"], result)  # ref parser_additions.js:102
        ret.setdefault("boersenbewertung", {})
        ret["boersenbewertung"].setdefault(f"boersenbewertung{count}", {}).update(result)
        self._check_info("Ergebnisabführung", originline, i, lines)  # ref additions:108
        return i - 2

    def _fn_kennzahlen(self, lines, i, ret):
        """ref parser.js:1662-1727"""
        self._count("kennzahlen")
        originline = i
        lines_kz, i = _collect_block(lines, i + 1, _TABLE_END_RE)
        robj = pt.recognize_table_arrays(lines_kz)
        tables_parsed = pt.create_parsed_tables(robj["tablesArr"])
        count = self._current_count("boersenbewertung")
        if not count:
            count = 1
        result = pt.parse_kennzahlen(
            tables_parsed, robj["tablesArr"], robj["rest"], robj["infos"], count
        )
        self._cfw("kennzahlen", originline, robj["tablesArr"], result)  # ref :1708 (before the merge)
        # reference realReturnObject carries a stray 'refactored' key which the
        # merge loop materializes as an empty object (parser.js:1707-1722)
        result["refactored"] = None
        ret.setdefault("boersenbewertung", {})
        for k, val in result.items():
            if not ret["boersenbewertung"].get(k):
                ret["boersenbewertung"][k] = {}
            if val:
                ret["boersenbewertung"][k].update(val)
        self._check_info("Kennzahlen", originline, i, lines)
        return i - 1

    def _fn_aus_bilanzen(self, lines, i, ret):
        """ref parser.js:1732-1787"""
        self._count("aus_bilanzen")
        originline = i
        headline = lines[i]
        lines_bil, i = _collect_block(lines, i + 1, _TABLE_END_RE)
        robj = pt.recognize_table_arrays(lines_bil)
        tables_parsed = pt.create_parsed_tables(robj["tablesArr"])
        result = pt.parse_aus_bilanzen(
            tables_parsed, robj["tablesArr"], robj["rest"], robj["infos"], headline
        )
        self._cfw("aus_bilanzen", originline, robj["tablesArr"], result)  # ref :1778
        ret.setdefault("ausBilanzen", []).append(result)
        self._check_info("Aus den Bilanzen", originline, i, lines)
        return i - 1

    def _fn_aus_guv(self, lines, i, ret):
        """ref parser.js:1794-1851"""
        self._count("guv")
        originline = i
        headline = lines[i]
        lines_guv, i = _collect_block(lines, i + 1, _TABLE_END_RE)
        robj = pt.recognize_table_arrays(lines_guv)
        if self.lse_lines is not None:
            # same capture point as ref parser.js:1833 (post-recognize, the
            # same array object — any in-place mutation is part of the feed)
            self.lse_lines.append(lines_guv)
        tables_parsed = pt.create_parsed_tables(robj["tablesArr"])
        result = pt.parse_aus_gewinn_und_verlustrechnungen(
            tables_parsed, robj["tablesArr"], robj["rest"], robj["infos"], headline
        )
        self._cfw("aus_den_gewinn_und_verlustrechnungen", originline, robj["tablesArr"], result)  # ref :1840
        ret.setdefault("ausGewinnUndVerlust", []).append(result)
        self._check_info("Aus Gewinn und Verlust", originline, i, lines)
        return i - 1


def parse_profile(html: str, dicts: Dictionaries | None = None) -> dict:
    """Convenience wrapper: one document in, one profile dict out."""
    return ProfileParser(dicts).parse(html)
