"""Focused section-level parity fuzzers (person / shareholder / holdings /
investor-relations lines) vs the REAL reference parser via tools/refrun.

These stress the densest sub-parsers with generated lines built from the
real dictionaries and messy punctuation. Usage:

    mkdir -p /tmp/refrun/checkfiles && ln -sfn /root/reference/dictfiles /tmp/refrun/dictfiles
    python tools/fuzz_sections.py [seed] [n_per_section]

All campaigns must report 0 mismatches and 0 engine crashes.
"""

from __future__ import annotations

import json
import os
import random
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from akf_cdparser_ray.parsing.dictionaries import get_default  # noqa: E402
from akf_cdparser_ray.parsing.profile_parser import parse_profile  # noqa: E402

from tools.fuzz_parity import diff as diff_fn, run_ref  # noqa: E402


def canon(x):
    return json.loads(json.dumps(x, ensure_ascii=False))


TEMPLATE = """<html>
<head>
</head>
<body>

<center><b>Wertpapier-Kenn-Nr.: </b>500001
(Inhaber-Stammaktien)</center><br>
<br><center><h5><table><tr>
<td align="center"><b>Sitz</b></td></tr></table></h5></center>
Hauptstr. 1, 70173 Stuttgart<br>
{SECTION}
<br><center><h5><table><tr>
<td align="center"><b>Sonstige Angaben</b></td></tr></table></h5></center>
<br>
</body>
</html>"""


def _hdr(title: str) -> str:
    return (
        "<br><center><h5><table><tr>\n"
        f'<td align="center"><b>{title}</b></td></tr></table></h5></center>\n'
    )


def gen_person_section(rng):
    d = get_default()
    titles = [t for t in d.titles if len(t) < 25][:200]
    functs = [f for f in d.functs if len(f) < 30][:300]
    first = ["Hans", "Erika", "Jörg", "Bärbel", "Karl-Heinz", "Anne Marie", "O."]
    last = ["Müller", "von der Heide", "O'Brien", "Schmidt-Kuhl", "Weiß", "D."]
    cities = ["Stuttgart", "Frankfurt am Main", "Bad König", "St. Gallen", "Köln-Deutz"]

    def person():
        s = (rng.choice(titles) + " ") if rng.random() < 0.7 else ""
        s += rng.choice(first) + " " + rng.choice(last)
        if rng.random() < 0.6:
            s += f" ({rng.choice(functs)})"
        if rng.random() < 0.3:
            s += " *)"
        parts = [s]
        if rng.random() < 0.8:
            parts.append(rng.choice(cities))
        if rng.random() < 0.15:
            parts.append("(persönlich haftend)")
        return ", ".join(parts)

    ar = "; ".join(person() for _ in range(rng.randrange(1, 5)))
    an = "*) Arbeitnehmervertreter<br>\n" if rng.random() < 0.4 else ""
    vo = "; ".join(person() for _ in range(rng.randrange(1, 3)))
    return (
        _hdr("Management")
        + f"<b>Aufsichtsrat:</b><br>\n{ar}<br>\n{an}<b>Vorstand:</b><br>\n{vo}<br>"
    )


def gen_aktionaer_section(rng):
    names = ["Huber Holding GmbH", "Streubesitz", "A & B Beteiligungs KG",
             "Müller-Thurgau Vermögensverwaltung", "XY Capital S.à r.l."]
    orte = ["Stuttgart", "Zug (Schweiz)", "Frankfurt am Main", "", "St. Gallen"]

    def akt():
        s = rng.choice(names)
        if rng.random() < 0.7 and (o := rng.choice(orte)):
            s += ", " + o
        pct = f"{rng.randrange(1, 95)},{rng.randrange(0, 99):02d}%"
        r = rng.random()
        if r < 0.4:
            s += ", " + pct
        elif r < 0.6:
            s += f" ({pct})"
        elif r < 0.75:
            s += f", {pct} (Anteilseigner: {rng.choice(names)}, {rng.randrange(50, 100)}%)"
        return s

    rows = "".join(akt() + "<br>" for _ in range(rng.randrange(1, 5)))
    return _hdr("Gesellschafter") + f"<b>Aktionär(e):</b><br>{rows}"


def gen_beteiligungen_section(rng):
    firms = ["Alpha GmbH", "Beta Werke AG", "Gamma, Delta & Co. KG", "Omega B.V."]
    orte = ["Hamburg", "Wien (Österreich)", "Vilshofen, Niederbay", "Hilversum (Niederlande)"]

    def bet():
        if rng.random() < 0.2:
            return rng.choice(firms) + ":"
        s = rng.choice(firms)
        if rng.random() < 0.7:
            s += ", " + rng.choice(orte)
        pct = f"{rng.choice([100, 75, 50.0, 25.1, 58.33])}".replace(".", ",")
        style = rng.random()
        if style < 0.4:
            s += f" ({pct}%)"
        elif style < 0.7:
            s += f", {pct}%"
        if rng.random() < 0.2:
            s += " " + rng.choice(["(Gruppe)", "(StV)", "(StA)", "(VzA)"])
        if rng.random() < 0.15:
            s += " Kdt."
        return s

    rows = "".join(bet() + "<br>" for _ in range(rng.randrange(1, 6)))
    return (
        _hdr("Mehrheitsbeteiligungen")
        + "<b>Beteiligung(en)</b><br><b>Wesentliche Unternehmensbeteiligungen:</b> <br>"
        + rows
    )


def gen_ir_section(rng):
    names = ["Karen Winkelmann", "Dr. Udo Fest", "Susanne Katschmareck", "M. Tchorz"]

    def tel():
        return f"({rng.randrange(100, 99999):05d}) {rng.randrange(1, 9)} {rng.randrange(10, 99)}-{rng.randrange(10, 9999)}"

    def ir():
        s = rng.choice(names)
        r = rng.random()
        if r < 0.3:
            s += f", Tel.: {tel()}, Fax: {tel()}"
        elif r < 0.5:
            s += f" Telefon: {tel()}; Fax: {tel()}"
        elif r < 0.65:
            s += f", Tel.: {tel()}, Fax: {tel()} (e-Mail: x.y@firma.example)"
        elif r < 0.75:
            s += ", E-Mail: ir@firma.example"
        return s

    body = "; ".join(ir() for _ in range(rng.randrange(1, 4)))
    return _hdr("Investor Relations") + f"{body}<br>"


def campaign(name, genfn, rng, n):
    bad = hang = 0
    for _trial in range(n):
        html = TEMPLATE.replace("{SECTION}", genfn(rng))
        status, ref = run_ref(html, timeout=15)
        if status != "ok":
            hang += 1
            continue
        try:
            mine = canon(parse_profile(html))
        except Exception as exc:
            print(f"{name}: ENGINE CRASH {exc!r}")
            bad += 1
            continue
        ds = diff_fn(ref, mine)
        if ds:
            bad += 1
            if bad < 5:
                print(f"{name} mismatch:", ds[:3])
    print(f"{name}: {n - bad - hang}/{n} identical, {hang} ref-issues, {bad} mismatches")
    return bad


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2024
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 100
    rng = random.Random(seed)
    total = 0
    for name, fn in [
        ("persons", gen_person_section),
        ("aktionaere", gen_aktionaer_section),
        ("beteiligungen", gen_beteiligungen_section),
        ("investor_relations", gen_ir_section),
    ]:
        total += campaign(name, fn, rng, n)
    sys.exit(min(1, total))
