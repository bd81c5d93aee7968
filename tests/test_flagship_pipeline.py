"""End-to-end Ray Data flagship pipeline test (uses the session Ray fixture)."""

import json

import pytest

from akf_cdparser_ray.pipelines import flagship
from akf_cdparser_ray.sources import synth


@pytest.mark.usefixtures("ray_session")
def test_pairs_pipeline_end_to_end(tmp_path):
    ds = flagship.pairs_pipeline(n_pages=30, batch_size=8)
    out = ds.take_all()
    assert len(out) == 30
    assert all(r["status"] == "ok" for r in out)
    by_id = {r["image_id"]: r for r in out}
    p = synth.gen_profile(0)
    row = by_id[p["image_id"]]
    cap = json.loads(row["caption"])
    assert cap["name"] == p["name"]
    assert row["fmt"] == p["fmt"]
    assert isinstance(row["phash"], int)

    # write + read back (resumable parquet layout)
    outdir = str(tmp_path / "pairs")
    flagship.write_pairs(flagship.pairs_pipeline(n_pages=12), outdir)
    import ray.data as rd

    back = rd.read_parquet(outdir)
    assert back.count() == 12
    assert set(back.schema().names) >= {"image_id", "bytes", "caption", "phash"}


@pytest.mark.usefixtures("ray_session")
def test_error_rows_do_not_kill_block():
    import pyarrow as pa
    import ray.data as rd

    from akf_cdparser_ray.stages.parse_stage import ParseProfiles

    table = synth.build_pages_table(4)
    # poison one html with a non-string (decode error path)
    htmls = table.column("html").to_pylist()
    htmls[2] = None
    table = table.set_column(
        table.schema.get_field_index("html"), "html", pa.array(htmls, pa.large_string())
    )
    ds = rd.from_arrow(table).map_batches(
        ParseProfiles, batch_format="pyarrow", batch_size=4, concurrency=1
    )
    rows = ds.take_all()
    statuses = {r["image_id"]: r["status"] for r in rows}
    assert list(statuses.values()).count("error") == 1
    assert list(statuses.values()).count("ok") == 3
