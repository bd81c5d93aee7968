"""Line-segment analysis (SURVEY.md §2.5 A4, §2.3 ST5, §2.6 O4, §2.1 S5).

The reference's ``lib/lineSegmentAnalyzer.js`` collects lines globally across
files, classifies each line's tokens (word / number / special-character run /
parenthesised span), assigns each token to one of ``SEGMENT_NUM`` normalized
position sectors, counts per-(sector, key) occurrences, groups counts of the
same key across neighbor sectors via the streak algorithm (``:567-760``),
and prints an xlsx separator-recommendation grid (``:760-949``).

This port is layout-faithful: ``build_sectors_holder`` + ``do_grouping`` +
``render_cells`` reproduce the reference's xlsx cell grid exactly (verified
against the real analyzer under tools/refrun in
tests/test_reference_parity.py), including JS insertion-order key iteration
and the stable ctr-descending sort of each printed column. The xlsx
artifact itself is real: ``write_xlsx_report`` emits the grid as a valid
.xlsx via the from-scratch OOXML writer in ``sources/xlsx.py`` (CSV/JSON
renderings remain for diffing); S5 is a driver-side post-processing step
by design.

Ray-Data-native shape: the global mutable ``setOfLines`` accumulator becomes
``map_batches(classify)`` → partial-then-final
``groupby(sector, key).agg(count, min seq)``; the sectors holder is rebuilt
from the tiny aggregate in first-occurrence order (the ``seq`` min restores
JS object-key insertion order), and the grouping pass + grid rendering run
driver-side on that small result — never on the corpus.
"""

from __future__ import annotations

import re

import pandas as pd

from ..functions import regex_lib as rl
from ..sources.xlsx import write_xlsx

SEGMENT_NUM = 10      # ref lineSegmentAnalyzer.js:20
GROUPING_RANGE = 1    # ref :21
SEP = "¦"             # ref :131

_BRACKETS_RE = re.compile(r"\(.*\)")
_NUMBER_RE = re.compile(r"\d+(?:[,.]\d+)?")
_SPECIAL_RE = re.compile(r"[^a-zA-Z0-9üÜäÄöÖßé_.¦]+")
_SEP_SPLIT_RE = re.compile(r"¦+")


# ---------------------------------------------------------------------------
# classification (faithful port of createLocalDataset's per-line block,
# ref :130-348, and analyze()'s key derivation, ref :415-436)
# ---------------------------------------------------------------------------


def tokenize_line(line: str, zumstein: bool = False) -> list[tuple[str, str]]:
    """One line → ordered [(type, content)] exactly as the reference
    classifies it."""
    if not line:
        return []
    work = line
    if zumstein:
        # one zumsteinVector element: all special runs concatenated, trimmed
        specials = _SPECIAL_RE.findall(work)
        joined = "".join(s.strip() for s in specials)
        return [("zumsteinVector", joined)]

    brackets = _BRACKETS_RE.findall(work)
    for b in brackets:
        work = work.replace(b, SEP + "matchBrackets" + SEP, 1)

    numbers = rl.match_number(work) or []
    for n in numbers:
        work = work.replace(n, SEP + "matchNumberNotInBrackets" + SEP, 1)
    for x in range(len(numbers)):
        work = work.replace("matchNumberNotInBrackets", f"matchNumberNotInBracketz{x}", 1)

    specials = _SPECIAL_RE.findall(work)
    for x, s in enumerate(specials):
        work = work.replace(s, f"{SEP}matchSpecialCharacters{x}{SEP}", 1)

    tokens: list[tuple[str, str]] = []
    bracket_idx = 0
    for item in _SEP_SPLIT_RE.split(work):
        if not item:
            continue
        if "matchBrackets" in item:
            tokens.append(("inBrackets", brackets[bracket_idx]))
            bracket_idx += 1
        elif "matchNumberNotInBracketz" in item:
            nm = rl.match_number(item)
            if nm:
                tokens.append(("number", numbers[int(nm[0])]))
        elif "matchSpecialCharacters" in item:
            nm = rl.match_number(item)
            if nm:
                tokens.append(("specialcharacter", specials[int(nm[0])]))
        else:
            tokens.append(("word", item))
    return tokens


def _key_for(typ: str, content: str) -> str:
    if typ == "number":
        key = "NUMBERDOT" if "." in content else ("NUMBERCOMMA" if "," in content else "NUMBER")
    elif typ == "specialcharacter":
        key = content.strip()
    elif typ == "inBrackets":
        key = "INBRACKETS"
    else:  # word / zumsteinVector
        key = content
    return key or "WHITESPACE"


def _segments(zumstein: bool) -> int:
    # zumsteinVector switches to ONE counting segment (ref :125-128)
    return 1 if zumstein else SEGMENT_NUM


def classify_line(line: str, zumstein: bool = False) -> list[tuple[str, str, int]]:
    """One line → [(type, key, sector)]: tokenize, then sectorize by element
    index (ref sectorizeLineElements, :361-385)."""
    tokens = tokenize_line(line, zumstein=zumstein)
    if not tokens:
        return []
    nseg = _segments(zumstein)
    factor = nseg / len(tokens)
    out = []
    for idx, (typ, content) in enumerate(tokens):
        # JS Math.round: round-half-UP (Python round is half-even)
        sector = int(factor * idx + 0.5)
        if sector == nseg:
            sector = nseg - 1
        out.append((typ, _key_for(typ, content), sector))
    return out


# ---------------------------------------------------------------------------
# sectors holder + grouping (ref analyzeDataset :396-460, doGrouping :567-760)
# ---------------------------------------------------------------------------


def _occ(ctr=1, is_group=False, group_size=0):
    return {"ctr": ctr, "isGroup": is_group, "groupSize": group_size,
            "groupingChecked": False}


def build_sectors_holder(lines, zumstein: bool = False) -> list[dict]:
    """Driver-exact sectors holder: list of SEGMENT_NUM dicts, keys in JS
    insertion (first-occurrence) order."""
    sectors: list[dict] = [{} for _ in range(_segments(zumstein))]
    for line in lines:
        if not line:
            continue
        for _typ, key, sector in classify_line(str(line), zumstein=zumstein):
            occ = sectors[sector].get(key)
            if occ is None:
                sectors[sector][key] = _occ()
            else:
                occ["ctr"] += 1
    return sectors


def sectors_from_aggregate(df: pd.DataFrame, zumstein: bool = False) -> list[dict]:
    """Rebuild the sectors holder from the distributed aggregate
    (sector, key, ctr, first_seq): sorting each sector's keys by first_seq
    restores JS object-key insertion order."""
    sectors: list[dict] = [{} for _ in range(_segments(zumstein))]
    # the aggregate is per (sector, key, TYPE); the sectors holder keys by
    # (sector, key) only — merge counts across types (a word literally named
    # 'NUMBER' shares the bucket with number tokens, as in the reference)
    merged = (
        df.groupby(["sector", "key"], sort=False)
        .agg(ctr=("ctr", "sum"), first_seq=("first_seq", "min"))
        .reset_index()
    )
    for _i, row in merged.sort_values("first_seq").iterrows():
        sectors[int(row["sector"])][row["key"]] = _occ(ctr=int(row["ctr"]))
    return sectors


class _Streak:
    """ref elementStreak (:461-560)."""

    def __init__(self):
        self.startIndex = -1
        self.stopIndex = -1
        self.maximumIndex = -1
        self.maxCtr = -1
        self.ctrs: list = []
        self.key = None
        self.groupSpan = -1
        self.imax = -1
        self.istart = -1
        self.istop = -1

    def get_length(self):
        if self.startIndex != -1 and self.stopIndex != -1:
            return self.stopIndex - self.startIndex + 1
        return None

    def find_inner_maximum(self):
        new_max, imax = -1, -1
        for i, c in enumerate(self.ctrs):
            if c and c > new_max:
                new_max, imax = c, i
        if imax != -1:
            self.imax = imax
        if new_max != -1 and imax != -1:
            self.maximumIndex = self.startIndex + imax
            self.maxCtr = new_max

    def calculate_groupspan(self, imax_p=None):
        if imax_p:
            imax = imax_p
        else:
            self.find_inner_maximum()
            imax = self.imax
        span_ctr, istart_set, istart, istop = 0, False, -1, -1
        max_grp_found = False
        for i, c in enumerate(self.ctrs):
            if c:
                span_ctr += 1
                istop = i
                if not istart_set:
                    istart_set, istart = True, i
                if i == imax:
                    max_grp_found = True
            else:
                if max_grp_found:
                    break
                span_ctr = 0
        self.istart, self.istop, self.groupSpan = istart, istop, span_ctr

    def remove_from_streak(self, cut_start, cut_stop):
        for i in range(cut_start, cut_stop + 1):
            if 0 <= i < len(self.ctrs):
                self.ctrs[i] = None
        self.find_inner_maximum()
        self.calculate_groupspan()


def do_grouping(sectors: list[dict]) -> list[dict]:
    """Faithful port of doGrouping (ref :567-760): find per-key streaks
    across sectors, sum GROUPING_RANGE around each maximum into one grouped
    occurrence placed at the maximum's sector. Mutates and returns."""
    streaks: list[_Streak] = []
    for i in range(len(sectors)):
        for key in list(sectors[i].keys()):
            start = sectors[i].get(key)
            if start is None or start["groupingChecked"]:
                continue
            cur, cur_idx = start, i
            st = _Streak()
            maximum_found = False
            st.startIndex = i
            st.key = key
            st.maxCtr = cur["ctr"]
            st.maximumIndex = i
            for v in range(i + 1, len(sectors) + 1):
                nxt = sectors[v].get(key) if v < len(sectors) else None
                if not nxt:
                    cur["groupingChecked"] = True
                    st.stopIndex = cur_idx
                    st.ctrs.append(cur["ctr"])
                    break
                if nxt["ctr"] == cur["ctr"]:
                    st.stopIndex = v
                elif nxt["ctr"] > cur["ctr"]:
                    st.stopIndex = v
                    st.maximumIndex = v
                    st.maxCtr = nxt["ctr"]
                    if maximum_found:
                        cur["groupingChecked"] = True
                        nxt["groupingChecked"] = True
                        break
                else:  # nxt < cur
                    if cur["ctr"] > st.maxCtr:
                        st.maximumIndex = cur_idx
                        st.maxCtr = cur["ctr"]
                        maximum_found = True
                    st.stopIndex = v
                cur["groupingChecked"] = True
                st.ctrs.append(cur["ctr"])
                cur, cur_idx = nxt, v
            if st.maximumIndex == len(sectors) - 1:
                st.stopIndex = len(sectors) - 1
            if st.startIndex == st.stopIndex:
                continue
            streaks.append(st)

    i = 0
    while i < len(streaks):
        streak = streaks[i]
        streak.calculate_groupspan()
        length = streak.get_length()
        if length is None or length == 1:
            i += 1
            continue
        start_possible = (streak.startIndex + streak.imax) - GROUPING_RANGE
        start_inner = streak.startIndex + streak.istart
        start = start_inner if start_possible < start_inner else start_possible
        stop_possible = (streak.startIndex + streak.imax) + GROUPING_RANGE
        stop_inner = streak.startIndex + streak.istop
        stop = stop_inner if stop_possible > stop_inner else stop_possible

        grouped = _occ(ctr=0, is_group=True)
        grouped["groupingChecked"] = True
        for x in range(start, stop + 1):
            item = sectors[x].get(streak.key) if 0 <= x < len(sectors) else None
            if not item:
                continue
            grouped["ctr"] += item["ctr"]
            grouped["groupSize"] += 1
            del sectors[x][streak.key]
        sectors[streak.maximumIndex][streak.key] = grouped

        streak.remove_from_streak(start - streak.startIndex, stop - streak.startIndex)
        if streak.groupSpan > 1:
            continue  # repeat grouping this streak (ref i = i-1)
        i += 1
    return sectors


# ---------------------------------------------------------------------------
# xlsx grid rendering (ref fillExcelWithData :773-860, writeToExcelFile)
# ---------------------------------------------------------------------------


def _sector_key(sector_number: int, segment_number: int) -> str:
    return f"s{sector_number}p{segment_number}"


def render_cells(sectors: list[dict], ignore_whitespaces: bool = True) -> dict:
    """The reference's xlsx cell grid as {column_keys, cells} — cells keyed
    by (row, column-id) exactly like the exceljs sheet."""
    columns = []
    cells: dict[int, dict[str, object]] = {1: {}, 2: {}}
    for i in range(len(sectors)):
        for p, header in ((1, f"Sektor{i}"), (2, ".."), (3, "..")):
            key = _sector_key(i + 1, p)
            columns.append(key)
            cells[1][key] = header
        cells[2][_sector_key(i + 1, 1)] = "character"
        cells[2][_sector_key(i + 1, 2)] = "ctr"
        cells[2][_sector_key(i + 1, 3)] = "group?"
    for i, sector in enumerate(sectors):
        # stable ctr-desc sort: ties keep insertion order (JS Array.sort)
        ordered = sorted(sector.items(), key=lambda kv: -kv[1]["ctr"])
        row_index = 3
        for key, occ in ordered:
            if ignore_whitespaces and key == "WHITESPACE":
                continue
            cells.setdefault(row_index, {})
            cells[row_index][_sector_key(i + 1, 1)] = key
            cells[row_index][_sector_key(i + 1, 2)] = occ["ctr"]
            cells[row_index][_sector_key(i + 1, 3)] = occ["isGroup"]
            row_index += 1
    return {"columns": columns, "cells": cells}


def write_xlsx_report(sectors: list[dict], path: str,
                      ignore_whitespaces: bool = True) -> str:
    """The reference's printDataset as a real .xlsx binary (ref
    ``lineSegmentAnalyzer.js:760-949``): sheet ``MainSheet``, creator
    ``lineSegmentAnalyzer``, per-sector column widths 16/5/3 — written by
    the from-scratch OOXML writer in ``sources/xlsx.py`` (no exceljs in
    this environment; the cell grid itself is the parity-tested part)."""
    grid = render_cells(sectors, ignore_whitespaces)
    widths = [16.0, 5.0, 3.0] * len(sectors)
    return write_xlsx(path, grid, sheet_name="MainSheet",
                      creator="lineSegmentAnalyzer", widths=widths)


# ---------------------------------------------------------------------------
# distributed pipeline
# ---------------------------------------------------------------------------


def classify_batch(batch: pd.DataFrame, zumstein: bool = False) -> pd.DataFrame:
    """lines batch → exploded (sector, key, type, seq) rows (the flat_map).
    ``seq`` preserves first-occurrence order for the insertion-order rebuild
    (requires a ``line_idx`` column; synthesized per-batch otherwise)."""
    sectors, keys, types, seqs = [], [], [], []
    if "line_idx" in batch.columns:
        idxs = batch["line_idx"]
    else:
        # no global order available: derive a DETERMINISTIC pseudo-order
        # from the line content (order-free, so block scheduling cannot
        # change the rebuilt insertion order; exact JS order fidelity
        # requires callers to pass line_idx)
        import hashlib as _h

        idxs = pd.Series([
            # 5-byte digest: max 2^40 ≈ 1.1e12 stays inside the int64-safe
            # seq range (line_idx * 100_000 + elem_idx must not overflow)
            int.from_bytes(_h.blake2b(str(l).encode(), digest_size=5).digest(), "big")
            for l in batch["line"].fillna("")
        ])
    # seq = line_idx * 100_000 + elem_idx must stay injective in int64:
    # elem_idx is bounded by the classifier (a line yields one element per
    # separator token, far below 100k — asserted below) and line_idx must
    # fit the quotient range or first-occurrence order would corrupt
    _SEQ_STRIDE = 100_000
    _MAX_LINE_IDX = (2**63 - 1) // _SEQ_STRIDE
    for line_idx, line in zip(idxs, batch["line"].fillna("")):
        if not (0 <= int(line_idx) <= _MAX_LINE_IDX):
            raise ValueError(
                f"line_idx {line_idx} out of the int64-safe seq range "
                f"[0, {_MAX_LINE_IDX}]"
            )
        elems = classify_line(str(line), zumstein=zumstein)
        if len(elems) >= _SEQ_STRIDE:
            raise ValueError(
                f"line produced {len(elems)} classified elements; seq "
                f"encoding supports < {_SEQ_STRIDE} per line"
            )
        for elem_idx, (typ, key, sector) in enumerate(elems):
            sectors.append(sector)
            keys.append(key)
            types.append(typ)
            seqs.append(int(line_idx) * _SEQ_STRIDE + elem_idx)
    return pd.DataFrame({"sector": sectors, "key": keys, "type": types, "seq": seqs})


def analyze_lines(lines_ds, zumstein: bool = False) -> pd.DataFrame:
    """Distributed LSE: classify → partial groupby → final (ctr, first_seq)
    per (sector, key, type). The aggregate is tiny (≤ distinct keys × 10)."""
    import functools

    import pyarrow as pa

    exploded = lines_ds.map_batches(
        functools.partial(classify_batch, zumstein=zumstein), batch_format="pandas"
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(["sector", "key", "type"], sort=False).agg(
            ctr=("seq", "size"), first_seq=("seq", "min")
        ).reset_index()
        return g

    from ray.data.aggregate import Min, Sum

    out = (
        exploded.map_batches(partial, batch_format="pandas")
        .groupby(["sector", "key", "type"])
        .aggregate(Sum("ctr", alias_name="ctr"), Min("first_seq", alias_name="first_seq"))
    )
    df = out.to_pandas()
    return df.sort_values(["sector", "first_seq"]).reset_index(drop=True)


def separator_report(lines_ds, top_n: int = 30, zumstein: bool = False) -> pd.DataFrame:
    """The S5 report: which separators/tokens dominate which line sectors —
    the grouped grid flattened to rows (key, type, center_sector, group_ctr,
    group_size), ordered by (group_ctr desc, key asc)."""
    df = analyze_lines(lines_ds, zumstein=zumstein)
    type_of = {}
    for _i, row in df.iterrows():
        type_of.setdefault((int(row["sector"]), row["key"]), row["type"])
    sectors = do_grouping(sectors_from_aggregate(df, zumstein=zumstein))
    rows = []
    for i, sector in enumerate(sectors):
        for key, occ in sector.items():
            rows.append((
                key, type_of.get((i, key), ""), i, int(occ["ctr"]),
                int(occ["groupSize"]) if occ["isGroup"] else 1,
            ))
    out = pd.DataFrame(
        rows, columns=["key", "type", "center_sector", "group_ctr", "group_size"]
    )
    return (
        out.sort_values(["group_ctr", "key"], ascending=[False, True])
        .reset_index(drop=True)
        .head(top_n)
    )
