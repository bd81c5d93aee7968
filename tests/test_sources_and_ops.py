"""Tests: directory source/mirrored sink (S1/S3), call-count rollup (A1),
validation stage, residue stage, image ops, ldist dictionary mode."""

import json
import os

import numpy as np
import pytest

from akf_cdparser_ray.parsing.dictionaries import Dictionaries
from akf_cdparser_ray.sources import synth


def test_ldist_dictionary_mode():
    d = Dictionaries()
    # slight misspelling of a known title should still match in ldist mode
    info = d.check_dict_content_in_string("Dipl.-Kfn. Hans Maier", d.titles, "ldist")
    assert info["isTitle"]
    assert info["titleFound"].startswith("Dipl.")
    assert "Hans" in info["dataWithoutTitle"]


@pytest.mark.usefixtures("ray_session")
def test_dir_source_and_mirrored_sink(tmp_path):
    from akf_cdparser_ray.sources.dirsource import parse_html_tree, write_mirrored_json

    root = tmp_path / "cd"
    for i in range(6):
        p = synth.gen_profile(i)
        sub = root / str(p["year"])
        sub.mkdir(parents=True, exist_ok=True)
        (sub / f"{i:04d}.html").write_text(synth.render_page(p), encoding="utf-8")
    (root / "1999" / "ignore.txt").write_text("not html")

    parsed = parse_html_tree(str(root), batch_size=4)
    out_root = tmp_path / "json"
    written = write_mirrored_json(parsed, str(out_root))
    assert written == 6
    p0 = synth.gen_profile(0)
    target = out_root / str(p0["year"]) / "0000.json"
    assert target.exists()
    data = json.loads(target.read_text(encoding="utf-8"))
    assert data["name"] == p0["name"]


@pytest.mark.usefixtures("ray_session")
def test_call_count_rollup_and_residue():
    import ray.data as rd

    from akf_cdparser_ray.pipelines.flagship import pages_dataset
    from akf_cdparser_ray.stages.parse_stage import ParseProfiles, call_count_rollup

    ds = pages_dataset(8).map_batches(
        ParseProfiles,
        fn_constructor_kwargs={"with_counts": True, "with_residue": True},
        batch_format="pyarrow",
        batch_size=4,
        concurrency=1,
    )
    rows = ds.take_all()
    assert all(0.4 < r["coverage"] <= 1.0 for r in rows)
    rollup = call_count_rollup(rd.from_items(rows))
    by_section = dict(zip(rollup["section"], rollup["n"]))
    assert by_section["name"] == 8
    assert by_section["sitz"] == 8
    assert by_section.get("boersenbewertung", 0) >= 8


@pytest.mark.usefixtures("ray_session")
def test_validate_profiles_stage():
    from akf_cdparser_ray.pipelines import flagship
    from akf_cdparser_ray.stages.parse_stage import ValidateProfiles

    pairs = flagship.pairs_pipeline(n_pages=5)
    rows = pairs.map_batches(ValidateProfiles(), batch_format="pyarrow").take_all()
    # pages with a '*) Arbeitnehmervertreter' common funct legitimately fail
    # the schema's funct enum (schema.yml:20 allows only Vors./stellv. Vors.),
    # exactly as the reference's ajv validator would
    for r in rows:
        assert r["valid"] or "not in enum" in r["validation_errors"], r["validation_errors"]
    assert any(r["valid"] for r in rows)


@pytest.mark.usefixtures("ray_session")
def test_image_ops(tmp_path):
    import ray.data as rd

    from akf_cdparser_ray.sources.images import decode_png
    from akf_cdparser_ray.stages.image_ops import ColorHistogram, DecodeResize, ModelEmbed

    pages = synth.build_pages_table(6)
    ds = rd.from_arrow(pages)
    thumbs = ds.map_batches(
        DecodeResize, fn_constructor_kwargs={"out_w": 16, "out_h": 16},
        batch_format="pyarrow", concurrency=1,
    ).take_all()
    assert all(t["ok"] for t in thumbs)
    img = decode_png(thumbs[0]["thumb"])
    assert img.shape == (16, 16, 3)

    feats = ds.map_batches(ColorHistogram, batch_format="pyarrow", concurrency=1).take_all()
    assert len(feats[0]["features"]) == 48
    assert abs(sum(feats[0]["features"]) - 1.0) < 1e-3

    with pytest.raises(NotImplementedError):
        ModelEmbed()
    emb = ds.map_batches(
        ModelEmbed, fn_constructor_kwargs={"fake": True},
        batch_format="pyarrow", concurrency=1,
    ).take_all()
    assert len(emb[0]["embedding"]) == 64
    assert set(np.unique(emb[0]["embedding"])) <= {-1.0, 1.0}


def test_wav_roundtrip_and_chunk_walk():
    """RIFF/WAV PCM: exact sample round-trip; decoder walks chunks (extra
    chunk between fmt and data tolerated, word alignment respected)."""
    import struct

    from akf_cdparser_ray.sources import av

    rng = np.random.default_rng(3)
    samples = rng.integers(-30000, 30000, size=1000, dtype=np.int16)
    data = av.encode_wav(samples, sample_rate=8000)
    back, rate, ch = av.decode_wav(data)
    assert rate == 8000 and ch == 1
    assert (back[:, 0] == samples).all()
    # inject an odd-sized LIST chunk between fmt and data
    fmt_end = 12 + 8 + 16
    extra = b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"  # padded
    data2 = data[:fmt_end] + extra + data[fmt_end:]
    data2 = data2[:4] + struct.pack("<I", len(data2) - 8) + data2[8:]
    back2, _, _ = av.decode_wav(data2)
    assert (back2[:, 0] == samples).all()


def test_framevideo_roundtrip_and_sampling():
    from akf_cdparser_ray.sources import av

    blob = av.synth_framevideo(5, n_frames=10)
    all_frames = av.decode_framevideo(blob, every_k=1)
    assert len(all_frames) == 10 and all_frames[0].shape == (24, 32, 3)
    sampled = av.decode_framevideo(blob, every_k=4)
    assert len(sampled) == 3  # frames 0, 4, 8
    assert (sampled[1] == all_frames[4]).all()


@pytest.mark.usefixtures("ray_session")
def test_av_ops_stages():
    import ray.data as rd

    from akf_cdparser_ray.sources import av
    from akf_cdparser_ray.stages.av_ops import AudioFeatures, FrameSample

    audio = rd.from_items([
        {"audio_id": f"a{i}", "bytes": av.synth_wav(i)} for i in range(6)
    ])
    feats = audio.map_batches(
        AudioFeatures, batch_format="pyarrow", batch_size=2, concurrency=1
    ).to_pandas()
    assert len(feats) == 6
    assert (feats["duration_s"] - 0.5).abs().max() < 1e-6
    assert (feats["rms"] > 0.1).all() and (feats["zcr"] > 0).all()

    # explicit tones land in different folded spectral bands
    t = np.arange(8000) / 16000.0
    low = av.encode_wav((np.sin(2 * np.pi * 500 * t) * 30000).astype(np.int16))
    high = av.encode_wav((np.sin(2 * np.pi * 6000 * t) * 30000).astype(np.int16))
    tones = rd.from_items([
        {"audio_id": "low", "bytes": low}, {"audio_id": "high", "bytes": high}
    ]).map_batches(AudioFeatures, batch_format="pyarrow", concurrency=1).to_pandas()
    by = dict(zip(tones["audio_id"], tones["dominant_band"]))
    assert by["high"] > by["low"]

    video = rd.from_items([
        {"video_id": f"v{i}", "bytes": av.synth_framevideo(i)} for i in range(4)
    ])
    frames = video.map_batches(
        FrameSample, fn_constructor_kwargs={"every_k": 4},
        batch_format="pyarrow", batch_size=2, concurrency=1,
    ).to_pandas()
    assert len(frames) == 4 * 3  # 12 frames sampled every 4th
    assert set(frames["frame_idx"]) == {0, 4, 8}
    assert (frames["w"] == 32).all() and (frames["mean_luma"] > 0).all()


@pytest.mark.usefixtures("ray_session")
def test_html_tree_order_vs_reference_walk(tmp_path):
    """Round-4 pin (VERDICT #7): the engine's listing order is
    sorted-FULL-PATH (ray read_binary_files); the reference's walk()
    (bin/akf-html2json:143-154) is depth-first with per-directory readdir
    order. The two orders agree on flat trees and DIVERGE when a
    directory name collides with a file-name prefix ('.' sorts before
    '/'): the reference descends into dir 'a' before emitting 'a.html',
    the engine emits 'a.html' first. Both are pinned here; checkfile
    accumulation uses the engine's sorted order as the documented
    canonical total order (cli.py) — same SET of pages, per-page content
    byte-identical, concatenation order documented."""
    import os

    from akf_cdparser_ray.sources.dirsource import read_html_tree

    root = tmp_path / "tree"
    for rel in ("b.html", "a/x.html", "a/y.html", "a.html",
                "c/d/deep.html", "c.html"):
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(f"<html>{rel}</html>")

    def reference_walk(d):
        """Python mirror of the reference's recursive readdirSync walk
        (sorted for filesystem determinism — Node readdirSync order is
        OS-dependent; sorted is the reproducible interpretation)."""
        out = []
        for name in sorted(os.listdir(d)):
            f = os.path.join(d, name)
            if os.path.isdir(f):
                out.extend(reference_walk(f))
            else:
                out.append(f)
        return out

    ref_order = [os.path.relpath(p, root) for p in reference_walk(str(root))]
    assert ref_order == ["a/x.html", "a/y.html", "a.html", "b.html",
                         "c/d/deep.html", "c.html"]

    got = read_html_tree(str(root)).to_pandas()["relpath"].tolist()
    assert got == ["a.html", "a/x.html", "a/y.html", "b.html",
                   "c.html", "c/d/deep.html"]       # sorted full path
    assert set(got) == set(ref_order)               # same page set
    # the documented divergence: dir 'a' vs file 'a.html'
    assert got.index("a.html") < got.index("a/x.html")
    assert ref_order.index("a/x.html") < ref_order.index("a.html")


def test_logquiet_filter_drops_only_empty_schema_noise():
    """Round-5 VERDICT #8: the bench-tail filter must drop ONLY the
    empty-block schema-divergence class; a real divergence between two
    non-empty schemas still logs."""
    import logging

    from akf_cdparser_ray.logquiet import _EmptyBlockSchemaFilter

    f = _EmptyBlockSchemaFilter()

    def rec(msg):
        return logging.LogRecord("x", logging.WARNING, "f", 1, msg, (), None)

    noise_pandas = ("Operator produced a RefBundle with a different schema "
                    "than the previous one. Previous schema: "
                    "PandasBlockSchema(names=['a'], types=[dtype('O')]), "
                    "new schema: PandasBlockSchema(names=[], types=[]). "
                    "This may lead to unexpected behavior.")
    noise_arrow = ("Operator produced a RefBundle with a different schema "
                   "than the previous one. Previous schema: a: string\n"
                   "b: int64, new schema: . This may lead to unexpected "
                   "behavior.")
    real = ("Operator produced a RefBundle with a different schema than "
            "the previous one. Previous schema: a: string, new schema: "
            "a: int64. This may lead to unexpected behavior.")
    other = "Some unrelated warning"
    assert not f.filter(rec(noise_pandas))
    assert not f.filter(rec(noise_arrow))
    assert f.filter(rec(real))
    assert f.filter(rec(other))

    # Ray's unify_schemas fallback notice for metadata-carrying schemas
    from akf_cdparser_ray.logquiet import _SchemaHashFilter

    h = _SchemaHashFilter()
    assert not h.filter(rec("Failed to hash the schemas (for deduplication): "
                            "unhashable type: 'dict'"))
    assert h.filter(rec("Failed to hash the schemas (for deduplication): "
                        "unhashable type: 'list'"))
