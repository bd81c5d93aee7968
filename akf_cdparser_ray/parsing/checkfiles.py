"""Checkfile audit log — reference-faithful (SURVEY.md §2.1 S4).

The reference appends ~36 per-category text logs from inside the parser
(``lib/checkfileWriter.js``): ``writeToCheckfile(linenumber, origin, parsed,
file, enabled)`` renders ``"origin: "+origin+" \\r\\n"`` then
``"parsed "+parsed+"\\r\\n "`` (the commented-out linenumber never prints,
``checkfileWriter.js:175-185``), and ``writeHeaderToCheckFile(header, file,
enabled)`` renders ``header+"\\r\\n"``. Engine shape: the parser appends
(key, originline, origin, parsed) rows to an :class:`AuditSink` (pure data,
no file I/O from tasks); :func:`render_checkfiles` reproduces the
reference's exact file bytes for parity tests and for the CLI sink, while
``stages/audit.py`` writes the same rows as a parquet side output.

``js_stringify`` mirrors ``JSON.stringify(x, null, " ")``: insertion-order
keys, 1-space indent, ``undefined``-valued keys dropped, NaN/Infinity →
null, arrays-used-as-maps serialize as their (empty) element list.
"""

from __future__ import annotations

import json
import math

JS_UNDEF = object()  # JS `undefined`: keys vanish; string-coerces to "undefined"


class _JsArrayDict(dict):
    """A JS Array used as a keyed map: named properties work in-code but
    JSON.stringify serializes the array — all props vanish ("[]")."""

# key → (filename, enabled); faithful to /root/reference/lib/checkfileWriter.js:27-102
CONFIG: dict[str, tuple[str, bool]] = {
    "akf_learndata": ("akf_cds_aufsichtsrat_learndata.txt", True),
    "aufsichtsrat": ("Checkfile_Aufsichtsrat.txt", True),
    "vorstand": ("Checkfile_Vorstand.txt", True),
    "geschleitung": ("Checkfile_Geschleitung.txt", True),
    "organbezuege": ("Checkfile_Organbezuege.txt", True),
    "aktionaere": ("Checkfile_Aktionaere.txt", True),
    "investorRelations": ("Checkfile_InvestorRelations.txt", True),
    "publicRelations": ("Checkfile_PublicRelations.txt", True),
    "gesellschafter": ("Checkfile_Gesellschafter.txt", False),
    "anteilseigner": ("Checkfile_Anteilseigner.txt", True),
    "beteiligungen": ("Checkfile_Beteiligungen.txt", True),
    "kapitalentwicklung": ("Checkfile_Kapitalentwicklung.txt", True),
    "grundkapital": ("Checkfile_Grundkapital.txt", True),
    "genehmkapital": ("Checkfile_GenehmigtesKapital.txt", True),
    "bedingkapital": ("Checkfile_BedingtesKapital.txt", True),
    "besbezugsrechte": ("Checkfile_BesondereBezugsrechte.txt", True),
    "ermAktienerwerb": ("Checkfile_ErmächtigungAktienerwerb.txt", True),
    "boersenbewertung": ("Checkfile_BoersenBewertung.txt", True),
    "sitz": ("Checkfile_Sitz.txt", True),
    "taetigkeitsgebiet": ("Checkfile_Taetigkeitsgebiet.txt", True),
    "gruendung": ("Checkfile_Gruendung.txt", True),
    "status": ("Checkfile_Status.txt", True),
    "beschaeftigte": ("Checkfile_Bescheaftigte.txt", True),
    "bereinigtekurse": ("Checkfile_BereinigteKurse.txt", True),
    "wknentry": ("Checkfile_WKNEntry.txt", True),
    "name": ("Checkfile_Name.txt", True),
    "dividenden": ("Checkfile_Dividenden.txt", True),
    "kennzahlen": ("Checkfile_Kennzahlen.txt", True),
    "aus_bilanzen": ("Checkfile_aus_Bilanzen.txt", True),
    "aus_den_gewinn_und_verlustrechnungen": (
        "Checkfile_aus_den_gewinn_und_verlustrechnungen.txt", True),
    "index": ("Checkfile_Index.txt", True),
    "angaben": ("Checkfile_Sonstige_Angaben.txt", True),
    "ausgegebenesKapital": ("Checkfile_ausgegebenesKapital.txt", True),
    "unternehmensVertraege": ("Checkfile_unternehmensVertraege.txt", True),
    "sanitation_kapitalentwicklung": ("Checkfile_sanitation_Kapitalentwicklung.txt", True),
    "leitung_kommunikation": ("Checkfile_leitung_kommunikation.txt", True),
    "ergebnisabfuehrung": ("Checkfile_ergebnisabfuehrung.txt", True),
}


def _js_array_index(k: str) -> bool:
    """JS array-index property: canonical non-negative integer < 2^32-1
    (no leading zeros except '0'). Such keys iterate FIRST, in ascending
    numeric order, regardless of insertion order."""
    return k.isdigit() and (k == "0" or k[0] != "0") and int(k) < 4294967295


def _to_jsonable(value):
    if value is JS_UNDEF:
        return JS_UNDEF
    if isinstance(value, dict):
        if isinstance(value, _JsArrayDict) or type(value).__name__ == "_JsArrayDict":
            return []  # JS Array used as a map: stringify loses the props
        keys = [str(k) for k in value.keys()]
        ordered = sorted((k for k in keys if _js_array_index(k)), key=int) + [
            k for k in keys if not _js_array_index(k)
        ]
        by_str = {str(k): v for k, v in value.items()}
        out = {}
        for k in ordered:
            cv = _to_jsonable(by_str[k])
            if cv is JS_UNDEF:
                continue  # undefined-valued keys vanish
            out[k] = cv
        return out
    if isinstance(value, (list, tuple)):
        out = []
        for v in value:
            cv = _to_jsonable(v)
            out.append(None if cv is JS_UNDEF else cv)  # [undefined] → [null]
        return out
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return None  # JSON.stringify(NaN) === "null"
        if value.is_integer():
            return int(value)  # JS has one number type: 1.0 prints as 1
    return value


def js_stringify(value, space: int = 0) -> str:
    """``JSON.stringify(value, null, " " * space)``. Returns the literal
    string ``"undefined"`` for a JS-undefined top-level value (that is what
    the reference's string concatenation renders)."""
    conv = _to_jsonable(value)
    if conv is JS_UNDEF:
        return "undefined"
    if space:
        return json.dumps(conv, indent=space, ensure_ascii=False)
    return json.dumps(conv, separators=(",", ":"), ensure_ascii=False)


class AuditSink:
    """Collects the parser's checkfile writes as rows (no I/O)."""

    __slots__ = ("rows", "enabled")

    def __init__(self, enabled: dict[str, bool] | None = None):
        self.rows: list[dict] = []
        self.enabled = {k: (enabled[k] if enabled and k in enabled else on)
                        for k, (_f, on) in CONFIG.items()}

    def write(self, key: str, originline: int, origin: str, parsed: str) -> None:
        if not self.enabled.get(key):
            return
        self.rows.append({
            "kind": "entry", "key": key, "originline": int(originline),
            "origin": origin, "parsed": parsed,
        })

    def header(self, key: str, text: str) -> None:
        if not self.enabled.get(key):
            return
        self.rows.append({"kind": "header", "key": key, "originline": -1,
                          "origin": text, "parsed": ""})


def render_checkfiles(rows: list[dict]) -> dict[str, str]:
    """Rows → {filename: exact reference file content}
    (``checkfileWriter.js:160-185``). Every configured file exists, empty if
    untouched (clearCheckfilesAtStart semantics)."""
    parts: dict[str, list[str]] = {fname: [] for fname, _on in CONFIG.values()}
    for row in rows:
        part = parts[CONFIG[row["key"]][0]]
        if row["kind"] == "header":
            part.append(row["origin"] + "\r\n")
        else:
            part.append("origin: " + row["origin"] + " \r\n")
            part.append("parsed " + row["parsed"] + "\r\n ")
    # joined once per file: += on a dict value copies the whole file per row
    return {fname: "".join(part) for fname, part in parts.items()}
