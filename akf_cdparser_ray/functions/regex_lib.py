"""Scalar regex/string kernels (operators N3-N10 in SURVEY.md §2.2).

Semantics follow the reference's ``lib/regexLib.js`` (cited per function);
implementation is new Python. These run inside ``map_batches`` UDFs — they are
pure, compiled-regex scalar functions, never distributed operators themselves.
"""

from __future__ import annotations

import re

# Compiled once at import (module import happens once per Ray worker process).
_PERCENT_RE = re.compile(r"(\d+(?:[,.]\d+)?)(\s*%)")
_YEAR_RE = re.compile(r"^\d\d\d\d")
_NUMBER_RE = re.compile(r"\d+(?:[,.]\d+)?")
_HTML_TAG_RE = re.compile(r"</?[^>]+(>|$)")
_ENDS_COLON_RE = re.compile(r".+:$")
_BRACKETS_RE = re.compile(r"\((.*?)\)")
_LAST_COMMA_RE = re.compile(r",\s*$")
_LAST_COLON_RE = re.compile(r":\s*$")
_PARENS_ANY_RE = re.compile(r"\(.*\)")


def match_percentage(line: str) -> list[str] | None:
    """All ``12,5 %``-style percentage matches (ref regexLib.js:18-21)."""
    out = ["".join(m) for m in _PERCENT_RE.findall(line)]
    return out or None


def match_year(line: str) -> str | None:
    """Leading 4-digit year (ref regexLib.js:28-31)."""
    m = _YEAR_RE.match(line)
    return m.group(0) if m else None


def match_number(line: str) -> list[str] | None:
    """All decimal numbers, comma or dot separated (ref regexLib.js:44-51)."""
    out = _NUMBER_RE.findall(line)
    return out or None


def strip_html_tags(data: str) -> str:
    """Remove everything in ``<>`` (ref regexLib.js:57-60)."""
    return _HTML_TAG_RE.sub("", data)


def find_string_which_ends_with_colon(data: str) -> str | None:
    """(ref regexLib.js:69-71)"""
    m = _ENDS_COLON_RE.match(data)
    return m.group(0) if m else None


def replace_comma_in_number(line: str, replacement: str = ".") -> str:
    """``12,5`` → ``12.5`` in every number of the line (ref regexLib.js:82-95)."""
    nums = match_number(line)
    if not nums:
        return line
    for cur in nums:
        if "," in cur:
            line = line.replace(cur, cur.replace(",", replacement), 1)
    return line


def remove_leading_character(line: str, character: str) -> str:
    """Strip repeated leading (and trailing) occurrences of ``character``
    (ref regexLib.js:104-115 — note the reference also strips a trailing
    occurrence per recursion step; mirrored here)."""
    if line and line[: len(character)] == character:
        pat = re.compile("(^" + re.escape(character) + ")|(" + re.escape(character) + "$)")
        return remove_leading_character(pat.sub("", line, count=1), character).strip()
    return line.strip() if line else line


def replace_semicolon_and_comma_in_brackets(s: str) -> str:
    """Blank out ``;``/``,`` inside ``(...)`` before splitting (ref regexLib.js:121-134)."""
    brackets = _BRACKETS_RE.findall(s)
    if not brackets:
        return s
    for inner in brackets:
        chunk = "(" + inner + ")"
        if ";" in chunk or "," in chunk:
            s = s.replace(chunk, chunk.replace(";", " ").replace(",", " "))
    return s


def check_if_string_is_in_parenthesis(data: str, line: str) -> str | None:
    """Return the parenthesised span around ``data`` inside ``line``
    (ref regexLib.js:149-154)."""
    d = re.escape(data)
    pat = rf"\([^)]+{d}[^(]+\)|\([^)]*{d}[^(]+\)|\([^)]+{d}[^(]*\)"
    m = re.search(pat, line)
    return m.group(0) if m else None


def match_from_string_to_string(
    data: str, frm: str, to: str, ignore_case: bool = True
) -> list[str] | None:
    """Cut the span starting at regex ``frm`` ending before regex ``to``;
    returns ``[with_delims, without_from]`` or None (ref regexLib.js:169-198).

    Mirrors the reference quirk that the JS ``ignoreCase`` property
    assignment has no effect (patterns are case-sensitive there too).
    """
    m_from = re.search(frm, data)
    if m_from is None:
        return None
    data_used = data[m_from.start():]
    # the reference searches the 'to' delimiter over the WHOLE remainder,
    # including the from-token itself (ref regexLib.js:184-193) — a greedy
    # from-pattern like "Tel\\..*:" is then re-matched (shorter) against the
    # truncated span by the final replace; mirror exactly.
    m_to = re.search(to, data_used)
    if m_to is not None:
        data_used = data_used[: m_to.start()]
    with_from = data_used
    without = re.sub(frm, "", data_used, count=1).strip()
    return [with_from, without]


def match_between_parenthesis(data: str) -> str | None:
    """Greedy ``( ... )`` span (ref regexLib.js:204-206)."""
    m = _PARENS_ANY_RE.search(data)
    return m.group(0) if m else None


def remove_last_comma(data: str) -> str:
    return _LAST_COMMA_RE.sub("", data)


def does_end_with_colon(data: str) -> bool:
    return bool(data) and bool(_LAST_COLON_RE.search(data))


def remove_last_colon(data: str) -> str:
    return _LAST_COLON_RE.sub("", data)


def remove_last_character(data: str, char: str) -> str:
    """(ref regexLib.js:243-248 — note the reference's ``"\\s*$"`` in a plain
    string is literally ``s*$``; we reproduce the *intended* trailing-char
    strip which is what its call sites exercise)."""
    if not char:
        return data
    return re.sub(re.escape(char) + r"\s*$", "", data)


def remove_parenthesis(data: str) -> str:
    return data.replace("(", "").replace(")", "")
