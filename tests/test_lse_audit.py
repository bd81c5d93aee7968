"""Tests for the LSE aggregation, audit sink, and SQL sink stages."""

import pandas as pd
import pytest

from akf_cdparser_ray.stages import lse


def test_classify_line_basic():
    toks = lse.classify_line("Dr. Hans Maier (Vors.), Stuttgart, 12,5%")
    types = [t for t, _k, _s in toks]
    assert "inBrackets" in types
    assert "number" in types
    assert "word" in types
    keys = [k for _t, k, _s in toks]
    assert "INBRACKETS" in keys
    assert "NUMBERCOMMA" in keys


def test_classify_line_sectors():
    toks = lse.classify_line("a b c d e")
    sectors = [s for _t, _k, s in toks]
    assert sectors[0] == 0
    assert all(0 <= s < lse.SEGMENT_NUM for s in sectors)
    assert sectors == sorted(sectors)


def test_classify_zumstein():
    toks = lse.classify_line("a,b;c:(d)", zumstein=True)
    assert len(toks) == 1
    typ, key, sector = toks[0]
    assert typ == "zumsteinVector" and sector == 0
    assert "," in key and ";" in key


def test_do_grouping_streaks():
    """The faithful streak grouping (ref :567-760): counts of the same key
    in neighbor sectors merge around the local maximum."""
    df = pd.DataFrame(
        {
            "sector": [0, 1, 2, 5],
            "key": [";"] * 4,
            "ctr": [2, 10, 3, 1],
            "first_seq": [0, 1, 2, 3],
        }
    )
    sectors = lse.do_grouping(lse.sectors_from_aggregate(df))
    grouped = sectors[1][";"]
    assert grouped["isGroup"] and grouped["ctr"] == 15 and grouped["groupSize"] == 3
    assert ";" not in sectors[0] and ";" not in sectors[2]
    assert sectors[5][";"]["ctr"] == 1 and not sectors[5][";"]["isGroup"]


@pytest.mark.usefixtures("ray_session")
def test_analyze_lines_distributed():
    import ray.data as rd

    lines = pd.DataFrame(
        {
            "line": [
                "Dr. Hans Maier (Vors.), Stuttgart; WP Klaus Langer, Ulm",
                "Erika Muster (stellv. Vors.), Bonn; Hans Frei, Mainz",
            ]
        }
    )
    report = lse.separator_report(rd.from_pandas(lines))
    assert not report.empty
    # the dominant separator pattern must surface
    assert set(report.columns) == {"key", "type", "center_sector", "group_ctr", "group_size"}


@pytest.mark.usefixtures("ray_session")
def test_audit_and_sql_sinks(tmp_path):
    import ray.data as rd

    from akf_cdparser_ray.pipelines import flagship
    from akf_cdparser_ray.stages.audit import json2sql_batch, write_audit

    pairs = flagship.pairs_pipeline(n_pages=6, with_audit=True)
    out = str(tmp_path / "audit")
    write_audit(pairs, out)
    back = rd.read_parquet(out)
    rows = back.take_all()
    assert len(rows) > 6  # several checkfile writes per document
    stages = {r["stage"] for r in rows}
    assert "aufsichtsrat" in stages and "sitz" in stages and "index" in stages
    # full triple fidelity: raw origin text + parsed JSON + origin line index
    entry = next(r for r in rows if r["stage"] == "aufsichtsrat" and r["kind"] == "entry")
    assert entry["originline"] >= 0 and entry["parsed"].startswith("{")
    assert entry["origin"] and not entry["origin"].startswith("{")  # raw line, not JSON

    sql_rows = (
        flagship.pairs_pipeline(n_pages=4)
        .map_batches(json2sql_batch, batch_format="pyarrow")
        .take_all()
    )
    assert sql_rows and sql_rows[0]["sql"].startswith('INSERT INTO "Aufsichtsrat"')
