"""Deterministic synthetic Aktienführer-style corpus (FIXTURES.md §2).

Pages reproduce the section structure and exact markers of the reference's
golden page (``/root/reference/test/fixtures/html/2005/0003.html.utf8.html``)
so every parser path is exercised; all content is generated (seed ⊕ index),
no external data. One page ↔ one scan image ↔ one caption (the canonical-JSON
profile the parse stage extracts).
"""

from __future__ import annotations

import json
import random

import numpy as np
import pyarrow as pa

from ..schemas import PAGES_SCHEMA, PAIRS_SCHEMA
from . import images as im

SEED = 42

_FIRST = [
    "Dietmar", "Klaus", "Günther", "Siegfried", "Christof", "Karen", "Ursula",
    "Hans", "Jürgen", "Wolfgang", "Sabine", "Markus", "Heinrich", "Petra",
    "Friedrich", "Otto", "Ingrid", "Rolf", "Bärbel", "Jörg",
]
_LAST = [
    "Kubis", "Langer", "Speiser", "Eichinger", "Klein", "Winkelmann", "Müller",
    "Schmidt", "Schneider", "Weiß", "Hoffmann", "Schäfer", "Koch", "Bauer",
    "Richter", "Wolf", "Schröder", "Neumann", "Schwarz", "Zimmermann",
]
_TITLES = ["Dr.", "Prof. Dr.", "Dipl.-Ing.", "Dipl.-Kfm.", "WP", ""]
_FUNCTS = ["Vors.", "stellv. Vors.", ""]
_CITIES = [
    "Plochingen", "Stuttgart", "Jena", "München", "Hamburg", "Köln",
    "Frankfurt", "Düsseldorf", "Filderstadt", "Albershausen", "Nürnberg",
    "Hannover", "Bremen", "Leipzig", "Dresden", "Essen",
]
_STREETS = ["Fabrikstr.", "Hauptstr.", "Industrieweg", "Bahnhofstr.", "Marktplatz", "Ringstr."]
_COMPANY_A = ["Rhein", "Süd", "Nord", "Elektro", "Metall", "Textil", "Chemie", "Bau", "Energie", "Daten"]
_COMPANY_B = ["werk", "technik", "handel", "gruppe", "systeme", "verbund", "holding", "industrie"]
_ACTIVITIES = [
    "Herstellung und Vertrieb von Elektronikprodukten",
    "Planung und Organisation von Verkaufsaktionen",
    "Produktion von Maschinenbauteilen",
    "Handel mit Rohstoffen und Halbzeugen",
    "Entwicklung von Softwaresystemen",
]
_KENNZAHL_ROWS = [
    "Investitionen (Mio EUR)", "Jahresüberschuß + Abschreibungen (Mio EUR)",
    "Bilanzkurs (%)", "Eigenkapitalquote (%)", "Umsatzrendite (%)",
]
_BILANZ_AKTIVA = ["Anlagevermögen", "..(Sachanlagen)", "Vorräte", "Flüssige Mittel / Wertpapiere"]
_BILANZ_PASSIVA = ["Eigenkapital", "Andere Rückstellungen", "Verbindlichkeiten", "Bilanzsumme"]
_GUV_ROWS = [
    "Umsatz", "Materialaufwendungen", "Personalaufwendungen", "Abschreibungen",
    "Zinssaldo", "Jahresüberschuß",
]


def _num(rng: random.Random, lo: int, hi: int) -> str:
    """German-formatted amount like ``6 000 000,00``."""
    n = rng.randint(lo, hi)
    whole = f"{n:,}".replace(",", " ")
    return f"{whole},{rng.randint(0,99):02d}"


def _person(rng: random.Random) -> dict:
    return {
        "title": rng.choice(_TITLES),
        "first": rng.choice(_FIRST),
        "last": rng.choice(_LAST),
        "city": rng.choice(_CITIES),
        "funct": rng.choice(_FUNCTS),
    }


def gen_profile(idx: int, seed: int = SEED) -> dict:
    """Ground-truth synthetic company profile, deterministic in (seed, idx)."""
    rng = random.Random((seed << 20) ^ idx)
    year = 1999 + idx % 17
    page = idx % 10000
    name = f"{rng.choice(_COMPANY_A)}{rng.choice(_COMPANY_B)} AG"
    wkn = str(500000 + (idx * 37) % 400000)
    # real German ISINs embed the WKN (DE + 000 + WKN + check digit); the
    # reference's header state machine relies on that containment
    isin = f"DE000{wkn}{(int(wkn) * 7) % 10}"
    city = rng.choice(_CITIES)
    profile = {
        "idx": idx,
        "image_id": f"{year}/{page:04d}",
        "year": year,
        "name": name,
        "wkn": wkn,
        "isin": isin,
        "nennwert": f"{rng.choice(['1,00', '5,00', '50,00'])} EUR (rechnerisch)",
        "aktientyp": rng.choice(["Inhaber-Stammaktien", "Namens-Stammaktien", "Vorzugsaktien"]),
        "street": rng.choice(_STREETS),
        "street_no": str(rng.randint(1, 199)),
        "zip": f"{rng.randint(10000, 99999)}",
        "city": city,
        "phone": f"(0{rng.randint(30, 9999)}) {rng.randint(100, 999)}-0",
        "fax": f"(0{rng.randint(30, 9999)}) {rng.randint(100, 999)}-99",
        "emails": [f"info@firma{idx}.example", f"presse@firma{idx}.example"],
        "www": [f"http://www.firma{idx}.example"],
        "activity": rng.choice(_ACTIVITIES),
        "established": rng.randint(1860, 1999),
        "insolvent": rng.random() < 0.2,
        "aufsichtsrat": [_person(rng) for _ in range(rng.randint(2, 4))],
        "arbeitnehmervertreter": rng.random() < 0.3,
        "vorstand": [_person(rng) for _ in range(rng.randint(1, 3))],
        "organbezuege_year": year - 2,
        "organbezuege": [("Vorstand", f"TEUR {rng.randint(50, 900)}"),
                         ("Aufsichtsrat", f"TEUR {rng.randint(10, 90)}")],
        "organbezuege_keine": rng.random() < 0.1,
        "organbezuege_mojibake": idx % 17 == 3,  # encoding edge case page
        "investor_relations": _person(rng),
        "aktionaere": [
            (f"{rng.choice(_LAST)} Vermögensverwaltung GbR", rng.choice(_CITIES),
             f"{rng.randint(3, 40)},{rng.randint(0,99):02d}%")
            for _ in range(rng.randint(1, 3))
        ],
        "streubesitz": f"{rng.randint(30, 90)},{rng.randint(0,99):02d}%",
        "beteiligungen": [
            (f"{rng.choice(_COMPANY_A)}{rng.choice(_COMPANY_B)} GmbH", rng.choice(_CITIES),
             f"{rng.choice([100, 75, 51, 50])}%")
            for _ in range(rng.randint(1, 3))
        ],
        "wesentliche_tabelle": idx % 5 == 0,  # table-variant Beteiligungen
        "kapital": [
            (str(year - 5 + k), rng.choice(
                ["Gründungskapital", "Erhöhung", "Bareinlage", "Sacheinlagen",
                 "Umstellung auf EUR"]),
             f"EUR {_num(rng, 500_000, 9_000_000)}",
             f"Gem. HV vom {rng.randint(1,28)}.{rng.randint(1,12)}.{year - 5 + k}")
            for k in range(rng.randint(1, 3))
        ],
        "grundkapital": f"EUR {_num(rng, 1_000_000, 20_000_000)}",
        "stueckelung": f"{rng.randint(1, 20)} 000 000 Stückaktien o.N.",
        "genehm_kapital": f"EUR {_num(rng, 500_000, 8_000_000)}",
        "beding_kapital": f"EUR {_num(rng, 100_000, 2_000_000)}",
        "kurs_years": list(range(year - 5, year + 1)),
        "split_year_kurse": idx % 3 == 0,  # split-year table layout
        "kurse": {},
        "dividenden": {},
        "kennzahlen": {},
        "bilanz": {},
        "guv": {},
        "hauptversammlung": f"{rng.randint(1,28)}.{rng.randint(1,12):02d}.{year}",
    }
    for y in profile["kurs_years"]:
        hoch = rng.uniform(1, 80)
        tief = hoch * rng.uniform(0.1, 0.8)
        ult = rng.uniform(tief, hoch)
        profile["kurse"][y] = (
            f"{hoch:.2f}".replace(".", ","),
            f"{tief:.2f}".replace(".", ","),
            f"{ult:.2f}".replace(".", ","),
        )
    for y in profile["kurs_years"][-3:]:
        profile["dividenden"][y] = (
            f"EUR {rng.choice([0, 0, 1, 2])}",
            rng.choice(["-", "0,10"]),
            f"{rng.randint(1,28):02d}.{rng.randint(1,12):02d}.{str(y + 1)[2:]}",
        )
    kz_years = profile["kurs_years"][-3:]
    for row in _KENNZAHL_ROWS[: rng.randint(3, 5)]:
        profile["kennzahlen"][row] = {
            y: f"{rng.uniform(0.5, 999):.1f}".replace(".", ",") for y in kz_years
        }
    by = kz_years[-2:]
    profile["bilanz_years"] = by
    for row in _BILANZ_AKTIVA + _BILANZ_PASSIVA:
        profile["bilanz"][row] = {
            (ident, y): f"{rng.randint(100, 99999):,}".replace(",", " ")
            for ident in ("AG", "Konzern")
            for y in by
        }
    for row in _GUV_ROWS:
        profile["guv"][row] = {
            (ident, y): f"{rng.randint(-9999, 99999):,}".replace(",", " ").replace("-", "- ")
            for ident in ("AG", "Konzern")
            for y in by
        }
    # extended section variants (separate rng keeps earlier draws stable)
    rng2 = random.Random((seed << 21) ^ (idx * 7919))
    profile["variants"] = {
        "postfach": idx % 7 == 1,
        "grosskunden_plz": idx % 15 == 9,
        "geschleitung": idx % 11 == 4,
        "leitung_kommunikation": idx % 13 == 5,
        "public_relations": idx % 9 == 2,
        "anteilseigner": idx % 8 == 3,
        "unternehmensvertraege": idx % 10 == 7,
        "ergebnisabfuehrung": idx % 12 == 8,
        "genuss_kapital": idx % 14 == 6,
        "bezugsrechte": idx % 16 == 10,
        "ausgegebenes_kapital": idx % 18 == 12,
        "organbezuege_multiyear": idx % 5 == 2 and idx % 17 != 3,
        "second_listing": idx % 21 == 13,
    }
    profile["wkn2"] = str(600000 + (idx * 41) % 300000)
    profile["isin2"] = f"DE000{profile['wkn2']}{(int(profile['wkn2']) * 3) % 10}"
    profile["aktientyp2"] = "Vorzugsaktien"
    profile["kurse2"] = {
        y: (
            f"{rng2.uniform(10, 60):.2f}".replace(".", ","),
            f"{rng2.uniform(2, 9):.2f}".replace(".", ","),
            f"{rng2.uniform(5, 30):.2f}".replace(".", ","),
        )
        for y in profile["kurs_years"][-3:]
    }
    profile["postfach"] = (f"{rng2.randint(1000, 99999)}", f"{rng2.randint(10000, 99999)}")
    profile["anteilseigner_rows"] = [
        (f"{rng2.choice(_LAST)} Beteiligungs GmbH", rng2.choice(_CITIES),
         f"{rng2.randint(5, 60)},{rng2.randint(0, 99):02d}%")
        for _ in range(rng2.randint(1, 3))
    ]
    profile["vertraege"] = [
        f"Beherrschungsvertrag mit der {rng2.choice(_COMPANY_A)}{rng2.choice(_COMPANY_B)} AG "
        f"vom {rng2.randint(1, 28)}.{rng2.randint(1, 12)}.{year - 1}",
        f"Gewinnabführungsvertrag seit {year - rng2.randint(1, 9)}",
    ]
    profile["eaf_rows"] = [
        (str(year - 3 + k), f"TEUR {rng2.randint(100, 9999)}") for k in range(3)
    ]
    profile["genuss_betrag"] = f"EUR {_num(rng2, 100_000, 900_000)}"
    profile["bezugsrechte_rows"] = [
        (str(year - rng2.randint(1, 5)), "Belegschaftsaktien zum Vorzugskurs"),
    ]
    profile["ausgegeben_rows"] = [
        (f"Stückelung: {rng2.randint(1, 9)} 000 000 Stückaktien Stimmrecht: je Aktie 1 Stimme",
         f"EUR {_num(rng2, 500_000, 3_000_000)}"),
    ]
    profile["pr_person"] = _person(rng2)
    profile["lk_person"] = _person(rng2)
    profile["lk_phone"] = f"(0{rng2.randint(30, 999)}) {rng2.randint(100, 999)}-11"
    profile["ob_multi"] = [
        ("Vorstand", f"{year - 3}", f"TDM {rng2.randint(100, 900)}"),
        ("Aufsichtsrat", f"{year - 3}", f"TDM {rng2.randint(10, 90)}"),
    ]
    profile["img_seed"] = (seed << 16) ^ (idx * 2654435761) & 0xFFFFFFFF
    profile["img_w"] = 48 + (idx * 7) % 81
    profile["img_h"] = 48 + (idx * 11) % 81
    profile["fmt"] = ("png", "jpeg", "bmp")[idx % 3]
    profile["img_name"] = f"{70000 + idx}.bmp"
    return profile


# ---------------------------------------------------------------------------
# HTML rendering — markers mirror the reference fixture structure
# ---------------------------------------------------------------------------


def _center_header(title: str) -> str:
    return (
        "<br><center><h5><table><tr>\n"
        f'<td align="center"><b>{title}</b></td></tr></table></h5></center>\n'
    )


def _person_line(p: dict) -> str:
    parts = []
    nm = f"{p['title']} {p['first']} {p['last']}".strip()
    if p["funct"]:
        nm += f" ({p['funct']})"
    parts.append(nm)
    parts.append(p["city"])
    return ", ".join(parts)


def render_page(profile: dict, neighbors: list[str] | None = None) -> str:
    """One synthetic company page; every marker the dispatch loop matches on."""
    p = profile
    out = []
    out.append("<html>\n<head>\n<meta CONTENT=\"text/html; charset=utf-8\">\n</head>")
    out.append('<body bgcolor="#FFFFFF" text="#000000">')
    out.append("")
    out.append("<br><center><h1><table><tr>")
    out.append(f'<td align="center"><b>{p["name"]}</b></td></tr></table></h1></center>')
    out.append(f"<center><b>Wertpapier-Kenn-Nr.: </b>{p['wkn']}")
    out.append(f"({p['aktientyp']})</center><br>")
    out.append(f"<center><b><b>ISIN: </b>{p['isin']}")
    out.append(f"({p['aktientyp']})</center><br>")
    out.append(f"<center><b><b>Nennwert: </b>{p['nennwert']}")
    out.append("</center><br>")
    v = p.get("variants", {})
    out.append(_center_header("Sitz").rstrip())
    if v.get("grosskunden_plz"):
        out.append(f"Großkunden-PLZ {p['postfach'][1]} {p['city']}<br>")
    out.append(f"{p['street']} {p['street_no']}, {p['zip']} {p['city']}<br>")
    if v.get("postfach"):
        out.append(f"Postfach {p['postfach'][0]}, {p['zip']} {p['city']}<br>")
    out.append("Telefon:")
    out.append(f"{p['phone']}<br>")
    out.append("Telefax:")
    out.append(f"{p['fax']}<br>")
    out.append("e-mail:")
    out.append(f"{', '.join(p['emails'])}  <br>")
    out.append("Internetseite:")
    out.append(f"{', '.join(p['www'])}  <br>")
    out.append("<!-- weitere Sitze -->")
    out.append(_center_header("Tätigkeitsgebiet/Gründung").rstrip())
    out.append(f"{p['activity']}<br>")
    out.append(f"<br><b>Gründung: </b>{p['established']}<br>")
    if p["insolvent"]:
        out.append("<b>Status: </b>Insolvenz")
        out.append("<br>")
    out.append(_center_header("Management").rstrip())
    out.append("<b>Aufsichtsrat:</b><br>")
    ar_line = "; ".join(_person_line(q) for q in p["aufsichtsrat"])
    if p["arbeitnehmervertreter"]:
        ar_line += " *)"
        out.append(ar_line + "<br>")
        out.append("*) Arbeitnehmervertreter<br>")
    else:
        out.append(ar_line + "<br>")
    if v.get("geschleitung"):
        out.append("<b>Geschäftsleitung:</b><br>")
    else:
        out.append("<b>Vorstand:</b><br>")
    out.append("; ".join(_person_line(q) for q in p["vorstand"]) + "<br>")
    if v.get("leitung_kommunikation"):
        out.append(_center_header("Leitung Kommunikation").rstrip())
        lk = p["lk_person"]
        out.append(
            f"{lk['first']} {lk['last']}, {lk['city']} "
            f"Telefon: {p['lk_phone']}; Fax: {p['fax']}<br>"
        )
    out.append("")
    # real pages use NBSP after the colon (the reference's matcher variants
    # are ':</b>', ' :</b>', ':\xa0</b>' and the mojibake form — never ': ')
    ob_header = (
        "<br><b>OrganbezÃ¼ge:Â\xa0</b>" if p["organbezuege_mojibake"]
        else "<br><b>Organbezüge:\xa0</b>"
    )
    if p["organbezuege_keine"]:
        out.append(f"{ob_header}{p['organbezuege_year']}: keine Vergütung<br>")
    elif v.get("organbezuege_multiyear"):
        body = "; ".join(f"{organ} {jahr}: {val}" for organ, jahr, val in p["ob_multi"])
        out.append(f"{ob_header}{body}<br>")
    else:
        body = "; ".join(f"{organ} {val}" for organ, val in p["organbezuege"])
        out.append(f"{ob_header}{p['organbezuege_year']}: {body}<br>")
    if v.get("public_relations"):
        out.append(_center_header("Public Relations").rstrip())
        pr = p["pr_person"]
        out.append(
            f"{pr['first']} {pr['last']}, Tel.: {p['lk_phone']}, Fax: {p['fax']}<br>"
        )
    out.append(_center_header("Investor Relations").rstrip())
    ir = p["investor_relations"]
    out.append(f"{ir['first']} {ir['last']}<br>")
    out.append(_center_header("Gesellschafter").rstrip())
    ak_lines = [f"<b>Aktionär(e):</b><br>"]
    for name, ort, anteil in p["aktionaere"]:
        ak_lines.append(f"{name}, {ort}, {anteil}<br>")
    ak_lines.append(f"Streubesitz, {p['streubesitz']}<br>")
    out.append("".join(ak_lines))
    if v.get("anteilseigner"):
        rows = "".join(
            f"{name}, {ort}, {anteil}<br>" for name, ort, anteil in p["anteilseigner_rows"]
        )
        out.append(f"<b>Anteilseigner:</b><br>{rows}")
    if v.get("unternehmensvertraege"):
        out.append(
            "<b>Unternehmensverträge</b><br>"
            + "<br>".join(p["vertraege"])
            + "<br>"
        )
    out.append(_center_header("Mehrheitsbeteiligungen").rstrip())
    if p["wesentliche_tabelle"]:
        out.append("<b>Wesentliche Beteiligungen</b><br>")
        out.append('<table cellspacing="0" width="100%">')
        for name, ort, anteil in p["beteiligungen"]:
            out.append("<tr>")
            out.append(f'<td align="LEFT" valign="TOP">{name}, {ort}, {anteil}</td></tr>')
        out.append("</table>")
    else:
        bet = "".join(
            f"{name}, {ort} ({anteil})<br>" for name, ort, anteil in p["beteiligungen"]
        )
        out.append(
            "<b>Beteiligung(en)</b><br><b>Wesentliche Unternehmensbeteiligungen:</b> <br>"
            + bet
        )
    out.append(_center_header("Kapitalentwicklung seit 1990").rstrip())
    out.append('<table cellspacing="0" cellpadding="0" width="100%" border="0">')
    for jahr, art, betrag, text in p["kapital"]:
        out.append("<tr>")
        out.append(f'<td width="10%" align="LEFT" valign="TOP"><b>{jahr}</b></td>')
        out.append(f'<td width="60%" align="LEFT" valign="TOP"><b>{art}</b></td>')
        out.append(f'<td width="30%" align="RIGHT" valign="TOP"><b>{betrag}</b></td>')
        out.append("</tr>")
        out.append("<tr>")
        out.append(f'<td></td>\n<td align="LEFT" valign="TOP" colspan="2">{text}</td></tr>')
    out.append("</table>")
    out.append('<table width="100%" cellpadding="0" cellspacing="0" border="0">')
    out.append("<tr>")
    out.append('<td width="50%" align="LEFT" valign="TOP"><b>Derzeitiges Grundkapital</b></td>')
    out.append(f'<td width="50%" align="RIGHT" valign="TOP"><b>{p["grundkapital"]}</b></td>')
    out.append("</tr>")
    out.append("<tr>")
    out.append(
        f'<td align="LEFT" valign="TOP" colspan="2">{p["aktientyp"]}, ISIN {p["isin"]} '
        f"<br>voll an der Börse zugelassen <br>Stückelung: {p['stueckelung']} "
        "<br>Stimmrecht: Je Stückaktie = 1 Stimme</td></tr>"
    )
    out.append("</table>")
    out.append('<table width="100%" cellpadding="0" cellspacing="0" border="0">')
    out.append("<tr>")
    out.append('<td width="50%" align="LEFT" valign="TOP"><b>Genehmigtes Kapital</b></td>')
    out.append(f'<td width="50%" align="RIGHT" valign="TOP"><b>{p["genehm_kapital"]}</b></td>')
    out.append("</tr>")
    out.append(
        f'<tr>\n<td align="LEFT" valign="TOP" colspan="2">Gem. HV vom {p["hauptversammlung"]} '
        "<br>gegen Bar- oder Sacheinlagen</td></tr>"
    )
    out.append("</table>")
    out.append('<table width="100%" cellpadding="0" cellspacing="0" border="0">')
    out.append("<tr>")
    out.append('<td width="50%" align="LEFT" valign="TOP"><b>Bedingtes Kapital</b></td>')
    out.append(f'<td width="50%" align="RIGHT" valign="TOP"><b>{p["beding_kapital"]}</b></td>')
    out.append("</tr>")
    out.append(
        '<tr>\n<td align="LEFT" valign="TOP" colspan="2">Gem. HV vom '
        f'{p["hauptversammlung"]} <br>Aktienoptionsplan</td></tr>'
    )
    out.append("</table>")
    if v.get("genuss_kapital"):
        out.append('<table width="100%" cellpadding="0" cellspacing="0" border="0">')
        out.append("<tr>")
        out.append(
            '<td width="50%" align="LEFT" valign="TOP"><b>Genehmigtes Genußkapital</b></td>'
        )
        out.append(
            f'<td width="50%" align="RIGHT" valign="TOP"><b>{p["genuss_betrag"]}</b></td>'
        )
        out.append("</tr>")
        out.append(
            '<tr>\n<td align="LEFT" valign="TOP" colspan="2">Gem. HV vom '
            f'{p["hauptversammlung"]}</td></tr>'
        )
        out.append("</table>")
    if v.get("bezugsrechte"):
        out.append('<table width="100%" cellpadding="0" cellspacing="0" border="0">')
        out.append("<tr>")
        out.append(
            '<td width="50%" align="LEFT" valign="TOP"><b>Besondere Bezugsrechte</b></td>'
        )
        out.append('<td width="50%" align="RIGHT" valign="TOP"><b></b></td>')
        out.append("</tr>")
        for jahr, bem in p["bezugsrechte_rows"]:
            out.append(f'<tr>\n<td align="LEFT" valign="TOP">{jahr}</td>')
            out.append(f'<td align="RIGHT" valign="TOP">{bem}</td></tr>')
        out.append("</table>")
    if v.get("ausgegebenes_kapital"):
        out.append('<table width="100%" cellpadding="0" cellspacing="0" border="0">')
        out.append("<tr>")
        out.append(
            '<td width="50%" align="LEFT" valign="TOP"><b>Ausgegebenes Kapital</b></td>'
        )
        out.append(
            f'<td width="50%" align="RIGHT" valign="TOP"><b>{p["ausgegeben_rows"][0][1]}</b></td>'
        )
        out.append("</tr>")
        out.append(
            f'<tr>\n<td align="LEFT" valign="TOP">{p["ausgegeben_rows"][0][0]}</td>'
            '<td align="RIGHT" valign="TOP"></td></tr>'
        )
        out.append("</table>")
    out.append(_center_header("Börsenbewertung").rstrip())
    out.append(f'<img src="{p["img_name"]}"><br><br>')
    out.append(f"ISIN: {p['isin']}, {p['aktientyp']}<br>")
    out.append(f"Wertpapier-Kenn-Nr.: {p['wkn']}, {p['aktientyp']}<br>")
    out.append("<b>Notiert:</b>")
    out.append("Geregelter Markt Frankfurt, Xetra; Freiverkehr Berlin-Bremen")
    out.append("<br>")
    out.append("<b>Bereinigte Kurse</b> (Frankfurt in EUR)<br>")
    out.append('<table cellspacing="0" cellpadding="0" width="100%" border="0">')

    def kurs_block(years):
        rows = []
        rows.append("<tr>")
        rows.append("<td></td>")
        for y in years:
            rows.append(f'<td align="RIGHT" valign="TOP" width="15%"><b>{y}</b></td>')
        rows.append("</tr>")
        for label, ki in (("Höchst", 0), ("Tiefst", 1), ("Ultimo", 2)):
            rows.append("<tr>")
            rows.append(f'<td align="LEFT" valign="TOP">{label}</td>')
            for y in years:
                rows.append(f'<td align="RIGHT" valign="TOP">{p["kurse"][y][ki]}</td>')
            rows.append("</tr>")
        return rows

    years = p["kurs_years"]
    if p["split_year_kurse"] and len(years) > 3:
        out.extend(kurs_block(years[:2]))
        out.append("<tr>")
        out.append("<td></td>" + "<td> </td>" * 2)
        out.append("</tr>")
        out.extend(kurs_block(years[2:]))
    else:
        out.extend(kurs_block(years))
    out.append("</table>")
    out.append("<b>Dividenden/Ausschüttung</b><br>")
    out.append('<table cellpadding="0" cellspacing="0" border="0" width="100%">')
    dyears = sorted(p["dividenden"])
    out.append("<tr>")
    out.append("<td></td>")
    for y in dyears:
        out.append(f'<td align="RIGHT" width="15%"><b>{y}</b></td>')
    out.append("</tr>")
    for label, di in (("Dividende", 0), ("Bonus", 1), ("ex-Tag", 2)):
        out.append("<tr>")
        out.append(f"<td>{label}</td>")
        for y in dyears:
            out.append(f'<td align="RIGHT">{p["dividenden"][y][di]}</td>')
        out.append("</tr>")
    out.append("</table>")
    if v.get("second_listing"):
        # a second listed share class: exercises the boersenbewertung{N}
        # per-document occurrence counter (N=2) and merge semantics
        out.append(f'<img src="{80000 + p["idx"]}.bmp"><br><br>')
        out.append(f"ISIN: {p['isin2']}, {p['aktientyp2']}<br>")
        out.append(f"Wertpapier-Kenn-Nr.: {p['wkn2']}, {p['aktientyp2']}<br>")
        out.append("<b>Notiert:</b>")
        out.append("Freiverkehr Stuttgart")
        out.append("<br>")
        out.append("<b>Bereinigte Kurse</b> (Stuttgart in EUR)<br>")
        out.append('<table cellspacing="0" cellpadding="0" width="100%" border="0">')
        years2 = sorted(p["kurse2"])
        out.append("<tr>")
        out.append("<td></td>")
        for y in years2:
            out.append(f'<td align="RIGHT" valign="TOP" width="15%"><b>{y}</b></td>')
        out.append("</tr>")
        for label, ki in (("Höchst", 0), ("Tiefst", 1), ("Ultimo", 2)):
            out.append("<tr>")
            out.append(f'<td align="LEFT" valign="TOP">{label}</td>')
            for y in years2:
                out.append(f'<td align="RIGHT" valign="TOP">{p["kurse2"][y][ki]}</td>')
            out.append("</tr>")
        out.append("</table>")
        out.append("<b>Dividenden/Ausschüttung</b><br>")
        out.append('<table cellpadding="0" cellspacing="0" border="0" width="100%">')
        out.append("<tr>")
        out.append("<td></td>")
        for y in years2:
            out.append(f'<td align="RIGHT" width="15%"><b>{y}</b></td>')
        out.append("</tr>")
        out.append("<tr>")
        out.append("<td>Dividende</td>")
        for _y in years2:
            out.append('<td align="RIGHT">EUR 0</td>')
        out.append("</tr>")
        out.append("</table>")
    if v.get("ergebnisabfuehrung"):
        out.append("<b>Ergebnisabführung</b><br>")
        out.append('<table cellpadding="0" cellspacing="0" border="0" width="100%">')
        for jahr, betrag in p["eaf_rows"]:
            out.append("<tr>")
            out.append(f'<td align="LEFT" valign="TOP">{jahr}</td>')
            out.append(f'<td align="RIGHT" valign="TOP">{betrag}</td></tr>')
        out.append("</table>")
    out.append("<!-- KENNZAHLEN ANFANG -->")
    out.append("<center><b>Kennzahlen</b></center><br>")
    out.append('<table width="100%">')
    kz_years = p["kurs_years"][-3:]
    out.append("  <tr>")
    out.append("<td><b>Konzern</b></td>")
    for y in kz_years:
        out.append(f'  <td align="right" width="15%"><b>{y}</b></td>')
    out.append("  </tr>")
    for row, vals in p["kennzahlen"].items():
        out.append("  <tr>")
        out.append(f"<td>{row}</td>")
        for y in kz_years:
            out.append(f'  <td align="right" width="15%">{vals[y]}</td>')
        out.append("  </tr>")
    out.append("</table>")
    out.append("<!-- KENNZAHLEN ENDE -->")
    out.append("<!-- BILANZEN ANFANG -->")
    out.append("<br><center><b>Aus den Bilanzen (in TEUR)</b></center><br>")
    by = p["bilanz_years"]
    out.append('<table width="100%">')
    out.append("  <tr>")
    out.append('<td width="40%"></td>')
    out.append('  <td width="30%" align="center"><b>AG</b></td>')
    out.append('  <td width="30%" align="center"><b>Konzern</b></td>')
    out.append("</tr></table>")
    hdr = ['<table width="100%"><tr>  <td width="40%"><b></b></td>']
    for ident in ("AG", "Konzern"):
        for y in by:
            hdr.append(f'  <td align="RIGHT" width="15%"><b>{y}</b></td>')
    hdr.append("</tr></table>")
    out.append("".join(hdr))
    out.append('<table width="100%">')

    def bilanz_rows(rows):
        for row in rows:
            cells = [f'  <tr>  <td width="40%">{row}</td>']
            for ident in ("AG", "Konzern"):
                for y in by:
                    cells.append(
                        f'  <td align="RIGHT" width="15%">{p["bilanz"][row][(ident, y)]}</td>'
                    )
            cells.append("  </tr>")
            out.append("".join(cells))

    out.append(
        '  <tr>  <td width="40%"><b>Aktiva</b></td>'
        + '  <td align="RIGHT" width="15%"><b></b></td>' * (2 * len(by))
        + "  </tr>"
    )
    bilanz_rows(_BILANZ_AKTIVA)
    out.append("</table>")
    out.append('<table width="100%">')
    out.append(
        '  <tr>  <td width="40%"><b>Passiva</b></td>'
        + '  <td align="RIGHT" width="15%"><b></b></td>' * (2 * len(by))
        + "  </tr>"
    )
    bilanz_rows(_BILANZ_PASSIVA)
    out.append("</table>")
    out.append("<!-- BILANZEN ENDE -->")
    out.append("<!-- BILANZEN ANFANG -->")
    out.append("<br><center><b>Aus den Gewinn- und Verlustrechnungen (in TEUR)</b></center><br>")
    out.append('<table width="100%">')
    out.append("  <tr>")
    out.append('<td width="40%"></td>')
    out.append('  <td width="30%" align="center"><b>AG</b></td>')
    out.append('  <td width="30%" align="center"><b>Konzern</b></td>')
    out.append("</tr></table>")
    out.append("".join(hdr))
    out.append('<table width="100%">')
    for row in _GUV_ROWS:
        cells = [f'  <tr>  <td width="40%">{row}</td>']
        for ident in ("AG", "Konzern"):
            for y in by:
                cells.append(
                    f'  <td align="RIGHT" width="15%">{p["guv"][row][(ident, y)]}</td>'
                )
        cells.append("  </tr>")
        out.append("".join(cells))
    out.append("</table>")
    out.append("<!-- BILANZEN ENDE -->")
    out.append("")
    if neighbors:
        nav = " ".join(f'<a href="{u}">weiter</a>' for u in neighbors)
        out.append(f"<center>{nav}</center>")
    out.append(_center_header("Sonstige Angaben").rstrip())
    out.append(f"<b>Hauptversammlung:</b> {p['hauptversammlung']}<br>")
    out.append("<b>Geschäftsjahr: </b>Kalenderjahr<br>")
    out.append("<br>")
    out.append("<br>")
    out.append("</body>")
    out.append("</html>")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# corpus tables
# ---------------------------------------------------------------------------


def page_url_for_idx(idx: int, n_hosts: int = 20, hot_share: float = 0.5) -> str:
    """URL for corpus index ``idx`` without building the full profile
    (cheap path for large frontiers)."""
    year = 1999 + idx % 17
    rng = random.Random(0xBEEF ^ idx)
    if rng.random() < hot_share:
        host = "host0.example"
    else:
        host = f"host{1 + rng.randrange(n_hosts - 1)}.example"
    return f"http://{host}/{year}/{idx}.html"


def page_url(profile: dict, n_hosts: int = 20, hot_share: float = 0.5) -> str:
    """Synthetic URL with a skewed host distribution (one hot host gets
    ``hot_share`` of the pages) to exercise hot-host skew splitting."""
    idx = profile["idx"]
    rng = random.Random(0xBEEF ^ idx)
    if rng.random() < hot_share:
        host = "host0.example"
    else:
        host = f"host{1 + rng.randrange(n_hosts - 1)}.example"
    # path carries the full corpus index so a fetcher can regenerate the
    # exact page from the URL alone (synthetic-fetch determinism)
    return f"http://{host}/{profile['year']}/{profile['idx']}.html"


def make_image(profile: dict) -> tuple[bytes, np.ndarray]:
    pix = im.synth_pixels(profile["img_seed"], profile["img_w"], profile["img_h"])
    return im.encode_image(pix, profile["fmt"]), pix


def build_pages_table(n: int, seed: int = SEED, with_links: bool = True) -> pa.Table:
    """Deterministic pages corpus (PAGES_SCHEMA)."""
    cols: dict[str, list] = {name: [] for name in PAGES_SCHEMA.names}
    profiles = [gen_profile(i, seed) for i in range(n)]
    urls = [page_url(p) for p in profiles]
    for i, p in enumerate(profiles):
        neighbors = None
        if with_links:
            neighbors = [urls[(i * 7 + k + 1) % n] for k in range(3)]
        data, pix = make_image(p)
        cols["image_id"].append(p["image_id"])
        cols["url"].append(urls[i])
        cols["html"].append(render_page(p, neighbors))
        cols["year"].append(p["year"])
        cols["bytes"].append(data)
        cols["w"].append(p["img_w"])
        cols["h"].append(p["img_h"])
        cols["fmt"].append(p["fmt"])
        cols["phash"].append(im.phash64(pix))
    return pa.table(cols, schema=PAGES_SCHEMA)


def _key_order(k):
    return (0, k) if isinstance(k, (int, float)) else (1, str(k))


def _ordered(v):
    """``v`` with every dict's keys in ``sort_keys`` order, extended to
    dicts mixing number and string keys: numbers first, ascending, then
    the rest by their string form."""
    if isinstance(v, dict):
        return {k: _ordered(v[k]) for k in sorted(v, key=_key_order)}
    if isinstance(v, (list, tuple)):
        return [_ordered(x) for x in v]
    return v


def canonical_caption(parsed: dict) -> str:
    """Canonical JSON (sorted keys, no fulltext) — the caption string."""
    slim = {k: v for k, v in parsed.items() if k != "_fulltext"}
    try:
        return json.dumps(slim, ensure_ascii=False, sort_keys=True,
                          separators=(",", ":"))
    except TypeError:  # a dict mixes int and str keys: sort_keys can't
        return json.dumps(_ordered(slim), ensure_ascii=False,
                          separators=(",", ":"))


def build_pairs_table(pages: pa.Table, parser=None) -> pa.Table:
    """Reference pairs: parse every page locally (test-scale helper; the
    distributed path is stages/parse_stage.py)."""
    from ..parsing.profile_parser import ProfileParser  # driver-side only

    parser = parser or ProfileParser()
    captions = [canonical_caption(parser.parse(h)) for h in pages.column("html").to_pylist()]
    return pa.table(
        {
            "image_id": pages.column("image_id"),
            "bytes": pages.column("bytes"),
            "w": pages.column("w"),
            "h": pages.column("h"),
            "fmt": pages.column("fmt"),
            "caption": pa.array(captions, pa.string()),
            "phash": pages.column("phash"),
        },
        schema=PAIRS_SCHEMA,
    )
