"""Scalar text/object kernels (operators N1, N2, N7, N9, N11 in SURVEY.md §2.2).

Semantics follow the reference's ``lib/utils.js`` (cited per function);
implementation is new Python. ``html_text_to_text`` replaces the reference's
cheerio dependency with a regex strip + entity unescape, which is what
cheerio's ``$.text()`` computes for these fragments.
"""

from __future__ import annotations

import html as _html
import re

_CLEAN_RE = re.compile(r"[\s\n\t,;():.\-]+")
_TAG_RE = re.compile(r"<[^>]*>")


def clean_text(literal) -> str:
    """lowercase + collapse separators to single spaces (ref utils.js:12-14)."""
    return _CLEAN_RE.sub(" ", str(literal).lower())


def html_text_to_text(html_text: str) -> str:
    """Tag-stripped text content, like cheerio ``$.text()`` (ref utils.js:217-221).

    Cheerio concatenates text nodes without inserting spaces for removed
    tags; entities are decoded.
    """
    if html_text is None:
        return ""
    text = str(html_text)
    if "<" in text:  # the tag pattern needs one; unescape checks for "&" itself
        text = _TAG_RE.sub("", text)
    return _html.unescape(text)


def leaf_nodes(obj, ret: list | None = None) -> list:
    """All scalar leaves of nested dict/list structures (ref utils.js:58-67)."""
    if ret is None:
        ret = []
    if isinstance(obj, list):
        for el in obj:
            leaf_nodes(el, ret)
    elif isinstance(obj, dict):
        for k in obj:
            leaf_nodes(obj[k], ret)
    else:
        ret.append(obj)
    return ret


def is_object_empty(obj) -> bool:
    """(ref utils.js:202-209)"""
    if obj is None:
        return True
    if isinstance(obj, dict):
        return len(obj) == 0
    return False


def remove_empty_entries_from_array(arr: list) -> list:
    """Drop falsy and empty-dict entries (ref utils.js:88-99)."""
    out = []
    for n in arr:
        if n == "" or not n:
            continue
        if isinstance(n, dict) and is_object_empty(n):
            continue
        out.append(n)
    return out


def remove_empty_entries_from_object(obj: dict) -> dict:
    """Drop None-valued keys (ref utils.js:229-238)."""
    for k in list(obj.keys()):
        if obj[k] is None:
            del obj[k]
    return obj


def remove_strings_from_string(line: str, array_of_strings: list[str]) -> str:
    """Subtract strings (longest first, first occurrence each) from a line
    (ref utils.js:108-126).

    NOTE: the reference sorts the CALLER's array in place (length desc) —
    a load-bearing side effect: parse_aktionaer iterates the same array
    afterwards, so bemerkungen come out longest-first. Mirrored."""
    if not line:
        return line
    if not array_of_strings:
        return line
    array_of_strings.sort(key=lambda a: -(len(a) if a else 0))
    changed = line
    for s in array_of_strings:
        if s:
            changed = changed.replace(s, "", 1)
    return changed


def remove_last_characters(line: str, lastcharacters: str) -> tuple[str, bool]:
    """Strip a trailing literal suffix; returns (line, removed) (ref utils.js:37-52)."""
    if not lastcharacters or not line:
        return line, False
    if line.endswith(lastcharacters):
        return line[: -len(lastcharacters)].strip(), True
    return line, False


def get_parenthesis_content(line: str, fill_parenthesis: bool = False) -> list[str]:
    """Balanced-parens spans, with optional auto-close repair (ref utils.js:134-178)."""
    if not line:
        return []
    pushed: list[str] = []
    content = ""
    open_c = 0
    close_c = 0
    for ch in line:
        if ch == "(":
            open_c += 1
        if ch == ")":
            close_c += 1
            if close_c == open_c:
                content += ch
                pushed.append(content)
                content = ""
                open_c = 0
                close_c = 0
        if open_c > close_c:
            content += ch
    if fill_parenthesis and content and open_c > close_c:
        pushed = get_parenthesis_content(line + ")" * (open_c - close_c))
    return pushed


def get_keys_by_value(item: dict, value) -> list:
    """(ref utils.js:184-195)"""
    return [k for k, v in item.items() if v == value]


def split_at_first(s: str, sep: str) -> tuple[str, str]:
    """JS ``String.prototype.splitAtFirst`` from the reference (parser.js:50-53).

    Mirrors the quirk that a missing separator yields
    ``(s[:-1], s[-1 + len(sep):])`` via indexOf == -1.
    """
    idx = s.find(sep)
    # JS substr(0, -1) -> '' for idx==-1? substr(0,-1) returns ''. substr(idx+len) from -1+len.
    if idx == -1:
        return "", s[-1 + len(sep):] if (-1 + len(sep)) >= 0 else s
    return s[:idx], s[idx + len(sep):]


def trim_all(parts: list[str]) -> list[str]:
    """JS ``Array.prototype.trimAll`` from the reference (parser.js:41-44)."""
    return [p.strip() for p in parts]
