"""Person-line parsing (SURVEY.md §2.2 M10-M15, M18-M19).

Semantics follow the reference ``lib/parser_persons.js`` (cited per function);
implementation is new Python. The ``dicts`` argument is the actor-state
``Dictionaries`` instance.
"""

from __future__ import annotations

import re

from ..functions import regex_lib as rl
from ..functions import text_utils as tu
from . import aktionaer as pa
from .dictionaries import Dictionaries

_PERS_HAFTEND_RE = re.compile(r"\(persönlich haftend\)", re.IGNORECASE)
_X_MITGLIEDER_RE = re.compile(r"\([\d]+ Mitglieder\)", re.IGNORECASE)
_STAR_RE = re.compile(r"\*\)")
_FUNCT_PARENS_RE = re.compile(r"\((.*?)\)")
_SEMI_SPLIT_RE = re.compile(r"\s*;\s*")
_MULTI_WS_RE = re.compile(r"\s{2,}")


def detect_name_and_funct(data: str) -> dict:
    """Split ``Jane Vaine (Vors.)`` into name parts + funct
    (ref parser_persons.js:204-260)."""
    ret = {
        "detectedName": "",
        "hasName": False,
        "detectedFunct": "",
        "hasFunct": False,
        "firstname": "",
        "lastname": "",
    }
    m = _FUNCT_PARENS_RE.search(data)
    if m is not None:
        ret["hasFunct"] = True
        ret["detectedFunct"] = m.group(1)
        ret["hasName"] = True
        ret["detectedName"] = data.replace(m.group(0), "", 1).strip()
    else:
        ret["hasName"] = True
        ret["detectedName"] = data

    # JS String.replace with a plain string replaces the FIRST occurrence only
    space_refactored = ret["detectedName"].replace("  ", " ", 1)
    namesplit = space_refactored.strip().split(" ")
    if len(namesplit) <= 2:
        lastname = namesplit[-1]
        firstname = ret["detectedName"].replace(lastname, "", 1) if lastname else ret["detectedName"]
        ret["lastname"] = lastname
        ret["firstname"] = firstname
    else:
        lastname = ""
        for x in range(1, len(namesplit)):
            lastname = lastname + " " + namesplit[x].strip()
        ret["lastname"] = lastname.strip()
        ret["firstname"] = rl.remove_last_comma(namesplit[0])
        ret["nextIndex"] = 2
    return ret


def check_person_line(
    line: str,
    dicts: Dictionaries,
    commonfunct_is_there: bool = False,
    commonfunct: str = "",
) -> dict:
    """Classify one person string into {title, firstName, lastName, cityAcc,
    funct, bemerkung} (ref parser_persons.js:25-171)."""
    bemerkung = None
    m = _PERS_HAFTEND_RE.findall(line)
    if m:
        line = _PERS_HAFTEND_RE.sub("", line)
        bemerkung = m[0]
    if _X_MITGLIEDER_RE.search(line):
        line = _X_MITGLIEDER_RE.sub("", line)

    linesplit = line.split(",")
    current_index = -1
    name_and_funct = None

    title_info = dicts.check_if_title_is_in_array(linesplit, ",", "normal")
    funct_last = dicts.check_funct_content_in_string(linesplit[-1])
    if funct_last["isTitle"]:
        if not funct_last["hasRest"] or len(funct_last["dataWithoutTitle"].strip()) == 0:
            linesplit = linesplit[: len(linesplit) - 1]
        if funct_last["hasRest"] and linesplit:
            linesplit[len(linesplit) - 1] = funct_last["dataWithoutTitle"].strip()

    if not title_info["hasName"] and not title_info["hasTitle"]:
        current_index = 0
        if current_index >= len(linesplit) or not linesplit[current_index]:
            name_and_funct = detect_name_and_funct("")
        else:
            name_and_funct = detect_name_and_funct(_STAR_RE.sub("", linesplit[current_index]))
        current_index = current_index + 1
    elif title_info["hasName"]:
        if not title_info["hasTitle"]:
            name_and_funct = detect_name_and_funct(_STAR_RE.sub("", title_info["nameDetected"]))
        else:
            dsplit_one = title_info["dataWithoutTitle"].split(",")[0]
            inp = _STAR_RE.sub("", dsplit_one).replace(title_info["titleDetected"], "", 1)
            name_and_funct = detect_name_and_funct(inp)
        current_index = title_info["nextIndex"]
    else:
        line_to_check = rl.remove_last_comma(title_info["dataWithoutTitle"]).strip()
        name_and_funct = detect_name_and_funct(_STAR_RE.sub("", line_to_check))
        if name_and_funct and name_and_funct.get("nextIndex"):
            current_index = name_and_funct["nextIndex"]
        else:
            current_index = title_info["nextIndex"]

    city_acc = ""
    for i in range(current_index, len(linesplit)):
        line_to_apply = linesplit[i]
        if _STAR_RE.search(linesplit[i]):
            line_to_apply = line_to_apply.split("*)")[0].strip()
        if city_acc == "":
            city_acc = line_to_apply.strip()
        else:
            city_acc = city_acc + " (" + line_to_apply.strip() + ")"

    funct = (
        funct_last["titleFound"].strip()
        if funct_last["isTitle"]
        else name_and_funct["detectedFunct"].strip()
    )
    if city_acc:
        city_acc = city_acc.replace(funct, "", 1) if funct else city_acc
        city_acc = city_acc.replace("(", "").replace(")", "").strip()

    title = title_info["titleDetected"].strip()
    first_name = name_and_funct["firstname"].strip()
    last_name = name_and_funct["lastname"].strip()
    if commonfunct_is_there:
        if "*)" in line:
            city_acc = city_acc.replace("*)", "", 1)
            if funct.strip() != commonfunct.strip():
                funct = (funct + " " + commonfunct).strip()

    if first_name:
        first_name = tu.html_text_to_text(first_name)
    if last_name:
        last_name = tu.html_text_to_text(last_name)
    if city_acc:
        city_acc = tu.html_text_to_text(city_acc)
    if bemerkung:
        bemerkung = tu.html_text_to_text(bemerkung)

    manager = {
        "title": title,
        "firstName": first_name,
        "lastName": last_name,
        "cityAcc": city_acc,
        "funct": funct,
        "bemerkung": bemerkung,
    }
    return {k: v for k, v in manager.items() if v}


def parse_vorstand(vorstand: str, dicts: Dictionaries, originline: int = -1,
                   cfw=None) -> list[dict]:
    """ref parser_persons.js:180-196 (per-manager checkfile write at :192)"""
    vorstand = rl.replace_semicolon_and_comma_in_brackets(vorstand)
    out = []
    for part in tu.trim_all(_SEMI_SPLIT_RE.split(vorstand)):
        manager = check_person_line(part, dicts)
        if cfw is not None:
            cfw(originline, part, manager)
        out.append(manager)
    return out


def parse_investor_relations(lines: list[str], dicts: Dictionaries,
                             originline: int = -1, cfw=None) -> dict:
    """Investor/Public-Relations person+contact lines
    (ref parser_persons.js:276-367). Returns {restOfLines, returnObject}."""
    final: list[str] = []
    for cur in lines:
        cur = cur.replace("; Fax", "  Fax")
        cur = cur.replace("; Telefon", "  Telefon")
        cur = cur.replace("; Email", "  Email")
        cur = cur.replace("; E-Mail", "  E-Mail")
        if cur:
            for piece in cur.split(";"):
                if piece and piece.strip():
                    final.append(piece.strip())

    return_object: list[dict] = []
    rest_of_lines: list[str] = []
    for item in final:
        funct_info = dicts.check_funct_content_in_string(item)
        data = funct_info["dataWithoutTitle"] if funct_info["isTitle"] else item
        funct = funct_info["titleFound"] if funct_info["isTitle"] else ""

        email = telefon = fax = ""
        em = rl.match_from_string_to_string(
            data, "E-Mail:|E-Mail :|Email:|Email :|E-Mai", ",|;|$"
        )
        if em is not None and len(em) >= 2:
            email = em[1].strip().replace("(|)", "")
            # the reference replaces twice "for some unknown buggy reason"
            data = data.replace(em[0], " ", 1)
            data = data.replace(em[0], " ", 1)
        tm = rl.match_from_string_to_string(data, r"Tel\..*:|Telefon:|Telefon :", ",|;|Fax")
        if tm is not None and len(tm) >= 2:
            telefon = tm[1].strip()
            data = data.replace(tm[0], " ", 1)
        fm = rl.match_from_string_to_string(data, "Fax:|Fax :", ",|;|$|Telefon")
        if fm is not None and len(fm) >= 2:
            fax = fm[1].strip()
            data = data.replace(fm[0], " ", 1)

        name = _MULTI_WS_RE.split(data)[0].strip()
        rest = data.replace(name, "", 1).strip() if name else data.strip()
        if len(rest) >= 1:
            rest_of_lines.extend(rest.split(";"))
        if name:
            name = name.replace("(", "", 1).replace(")", "", 1).replace(",", "", 1)
        if fax:
            fax = fax.replace("()", "", 1).strip()
        manager = {"name": name, "email": email, "telefon": telefon, "fax": fax, "funct": funct}
        manager = {k: v for k, v in manager.items() if v}
        if cfw is not None:  # ref parser_persons.js:361 (before the empty check)
            cfw(originline, item, manager)
        if not tu.is_object_empty(manager):
            return_object.append(manager)
    return {"restOfLines": rest_of_lines, "returnObject": return_object}


def parse_gesellschafter(items: list[str], dicts: Dictionaries,
                         originline: int = -1, cfw_aktionaere=None) -> dict:
    """Mode machine over Gesellschafter / Kommanditisten / Aktionäre /
    Anteilseigner / Komplementär headers (ref parser_persons.js:369-452)."""
    ret: dict = {}
    mode = ""
    for cur in items:
        text = tu.html_text_to_text(cur)
        if "Gesellschafter:<" in cur:
            mode = "Gesellschafter"
        elif ">Kommanditist" in cur:
            mode = "Kommanditisten"
        elif "b>Aktion" in cur:
            mode = "Aktionaere"
        elif ">Anteilseigner" in cur:
            mode = "Anteilseigner"
        elif ">Komplementär" in cur:
            mode = "Komplementaer"
        else:
            if mode == "Gesellschafter":
                ret.setdefault("gesellschafter", []).append(
                    check_person_line(text, dicts, False, "")
                )
            elif mode == "Kommanditisten":
                ret.setdefault("kommanditisten", []).append(pa.beteiligungen_parse_line(text))
            elif mode == "Aktionaere":
                for r in pa.parse_aktionaer([text], originline, cfw_aktionaere):
                    ret.setdefault("aktionaere", []).append(r)
            elif mode == "Anteilseigner":
                ret.setdefault("anteilseigner", []).append(pa.beteiligungen_parse_line(text))
            elif mode == "Komplementaer":
                ksplit = cur.split(",")
                ret.setdefault("komplementaer", []).append(
                    {
                        "name": ksplit[0] if len(ksplit) >= 1 else "",
                        "ort": ksplit[1] if len(ksplit) >= 2 else "",
                    }
                )
    return ret


def parse_leiter(leiter_lines: list[str], dicts: Dictionaries) -> dict:
    """'Leitung Kommunikation' lines (ref parser_persons.js:460-529)."""
    ret = {"leiter": []}
    for cur in leiter_lines:
        changed = cur
        item: dict = {}
        tel = rl.match_from_string_to_string(cur, "Telefon:", "<br>|;")
        fax = rl.match_from_string_to_string(cur, "Fax:", "<br>|;")
        email = rl.match_from_string_to_string(cur, "Email:", "<br>|;")
        if tel and tel[0] and tel[1]:
            changed = changed.replace(tel[0], "", 1)
            item["phone"] = tel[1]
        if fax and fax[0] and fax[1]:
            changed = changed.replace(fax[0], "", 1)
            item["fax"] = fax[1]
        if email and email[0] and email[1]:
            changed = changed.replace(email[0], "", 1)
            item["email"] = email[1]
        changed = tu.html_text_to_text(changed)
        changed = changed.replace("br>", "", 1).strip()
        pers = check_person_line(changed, dicts, False, "")
        if pers:
            if pers.get("title"):
                item["title"] = pers["title"].strip()
            if pers.get("firstName"):
                item["firstname"] = pers["firstName"].strip()
            if pers.get("lastName"):
                item["lastname"] = pers["lastName"].strip()
            if pers.get("cityAcc"):
                item["city"] = pers["cityAcc"].strip()
            if pers.get("funct"):
                item["funct"] = pers["funct"].strip()
        item = tu.remove_empty_entries_from_object(item)
        if not tu.is_object_empty(item):
            ret["leiter"].append(item)
    return ret
