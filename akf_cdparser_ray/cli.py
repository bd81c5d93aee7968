"""User-facing CLI mirroring the reference's ``bin/`` entry points.

    python -m akf_cdparser_ray.cli html2json <input_dir> <output_dir>
    python -m akf_cdparser_ray.cli validate  <json_dir> [--diff]
    python -m akf_cdparser_ray.cli json2sql  <json_dir> [-o out.sql]
    python -m akf_cdparser_ray.cli crawl     <out_dir> --seeds ... [--resume]

``html2json`` is the reference's flagship (``bin/akf-html2json``: walk the
tree, parse every ``*.html``, write one ``.json`` per input in a mirrored
tree) — distributed here. ``validate``/``json2sql`` mirror
``bin/akf-json-validate``/``bin/akf-json2sql``. CLI entry points own their
Ray session (guarded init), unlike the library.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _ensure_ray(num_cpus: int | None):
    import ray

    # engine contract: deterministic block ordering (layout-sensitive
    # outputs; Ray's default preserve_order=False can reorder under load)
    ray.data.DataContext.get_current().execution_options.preserve_order = True
    from .logquiet import silence_empty_block_schema_warnings, worker_runtime_env

    silence_empty_block_schema_warnings()
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            runtime_env=worker_runtime_env(),
        )
    return ray


def _write_lse_reports(parsed, out_dir: str, identifier: str = "kapitalentwicklung",
                       zumstein: bool = True) -> None:
    """The reference's ``akf-html2json --lse`` endgame (bin/akf-html2json:126,
    lib/parser.js:1925-1956): analyze the GuV line arrays captured during
    parsing and print the ungrouped + grouped separator grids as real .xlsx
    files. Driver memory stays bounded: lines stream batch-by-batch into a
    temp parquet spool (global first-occurrence order = sorted image_id,
    the documented checkfile total order), and the analysis itself is the
    distributed classify → groupby aggregate."""
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from .stages.lse import (
        analyze_lines, do_grouping, sectors_from_aggregate, write_xlsx_report,
    )

    spool = tempfile.mkdtemp(prefix="lse_lines_")
    ordered = parsed.select_columns(["image_id", "lse_lines"]).sort("image_id")
    n = part = 0
    for b in ordered.iter_batches(batch_size=256, batch_format="pandas"):
        lines: list[str] = []
        for blob in b["lse_lines"]:
            for arr in json.loads(blob or "[]"):
                lines.extend(arr)
        if not lines:
            continue
        tbl = pa.table({
            "line": pa.array(lines, pa.large_string()),
            "line_idx": pa.array(range(n, n + len(lines)), pa.int64()),
        })
        pq.write_table(tbl, os.path.join(spool, f"part-{part:05d}.parquet"))
        n += len(lines)
        part += 1
    if n == 0:
        print("Skipping linesegment analysis")  # ref parser.js:1944
        return
    df = analyze_lines(rd.read_parquet(spool), zumstein=zumstein)
    sectors = sectors_from_aggregate(df, zumstein=zumstein)
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, "LineSegmentAnalysis_PRINTOUT_")
    write_xlsx_report(sectors, f"{base}{identifier}.xlsx")
    grouped = do_grouping(sectors)
    write_xlsx_report(grouped, f"{base}{identifier}Grouped.xlsx")
    print(f"wrote LSE reports {base}{identifier}[Grouped].xlsx ({n} lines)")


def cmd_html2json(args) -> int:
    ray = _ensure_ray(args.parallel)
    from .sources.dirsource import parse_html_tree, write_mirrored_json

    with_cf = bool(getattr(args, "checkfiles", None))
    do_lse = bool(getattr(args, "lse", None))
    parsed = parse_html_tree(args.input, batch_size=args.batch_size,
                             with_audit=with_cf, with_lse=do_lse)
    if with_cf or do_lse:
        parsed = parsed.materialize()  # consumed twice: json sink + reports
    written = write_mirrored_json(parsed, args.output)
    if with_cf:
        # reference semantics: ./checkfiles/*.txt accumulated over the run
        # (checkfileWriter.js clearCheckfilesAtStart + append). File order
        # here is SORTED relpath — a deterministic total order over the
        # tree; the reference's walk order is directory-listing order,
        # which is the same set of lines, ordering documented as sorted.
        # Streamed: a distributed sort by image_id, then append per batch —
        # the driver never holds more than one batch of audit blobs.
        from .parsing.checkfiles import CONFIG
        from .stages.audit import render_checkfile_texts

        os.makedirs(args.checkfiles, exist_ok=True)
        handles = {
            fname: open(os.path.join(args.checkfiles, fname), "w",
                        encoding="utf-8", newline="")
            for fname, _on in CONFIG.values()
        }
        try:
            ordered = parsed.select_columns(["image_id", "audit"]).sort("image_id")
            for b in ordered.iter_batches(batch_size=256, batch_format="pandas"):
                # render_checkfiles is append-only per category, so rendering
                # a batch slice and appending is byte-identical to one pass
                for fname, text in render_checkfile_texts(list(b["audit"])).items():
                    if text:
                        handles[fname].write(text)
        finally:
            for f in handles.values():
                f.close()
        print(f"wrote checkfiles under {args.checkfiles}")
    if do_lse:
        _write_lse_reports(parsed, args.lse)
    print(f"wrote {written} json files under {args.output}")
    ray.shutdown()
    return 0


def cmd_validate(args) -> int:
    from .parsing import validator

    n_bad = 0
    for path in sorted(glob.glob(os.path.join(args.input, "**", "*.json"), recursive=True)):
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        entries = data.get("all_wkn_entry") or []
        if entries and entries[0].get("wkn"):
            try:
                data["wkn"] = int(entries[0]["wkn"])
            except (TypeError, ValueError):
                pass
        ok, errors = validator.validate(data)
        if not ok:
            n_bad += 1
            print(f"{path}: INVALID — {'; '.join(errors)}")
            if args.write_errors:
                with open(path + ".errors", "w", encoding="utf-8") as f:
                    json.dump(errors, f, indent=1)
        if args.diff and "_fulltext" in data:
            residue = validator.unparsed_text(data).strip()
            if residue:
                print(f"{path}: unparsed residue: {residue[:200]}")
    print(f"{n_bad} invalid files")
    return min(1, n_bad)


def cmd_json2sql(args) -> int:
    from .parsing.converter import json2sql

    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        for path in sorted(
            glob.glob(os.path.join(args.input, "**", "*.json"), recursive=True)
        ):
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
            entries = data.get("all_wkn_entry") or []
            if entries and entries[0].get("wkn"):
                try:
                    data["wkn"] = int(entries[0]["wkn"])
                except (TypeError, ValueError):
                    pass
            sql = json2sql(data)
            if sql:
                out.write(sql)
    finally:
        if args.output:
            out.close()
    return 0


def cmd_crawl(args) -> int:
    ray = _ensure_ray(args.parallel)
    if args.stream:
        from .pipelines.stream_crawl import StreamCrawlConfig, StreamCrawlJob

        sjob = StreamCrawlJob(StreamCrawlConfig(
            seeds=args.seeds,
            corpus_size=args.corpus_size,
            out_dir=args.out_dir,
            max_fetches=args.max_fetches,
            checkpoint_every_fetches=args.checkpoint_every,
            num_coordinators=args.coordinators,
        ))
        summary = sjob.run(resume=args.resume)
        c = summary["counters"]
        print(json.dumps({
            "mode": "stream",
            "fetched": c["fetched"],
            "seen": summary["seen_total"],
            "leases": c["leases"],
        }))
        sjob.shutdown()
        ray.shutdown()
        return 0
    from .pipelines.crawl import CrawlConfig, CrawlJob

    cfg = CrawlConfig(
        seeds=args.seeds,
        corpus_size=args.corpus_size,
        out_dir=args.out_dir,
        max_waves=args.max_waves,
        dequeue_k=args.dequeue_k,
    )
    job = CrawlJob(cfg)
    summary = job.run(resume=args.resume)
    fetched = sum(c["fetched"] for c in summary["counters"])
    print(
        json.dumps(
            {
                "waves": summary["waves"],
                "fetched": fetched,
                "seen": summary["seen_total"],
                "frontier": summary["frontier_size"],
            }
        )
    )
    job.shutdown()
    ray.shutdown()
    return 0


def cmd_compact(args) -> int:
    ray = _ensure_ray(args.parallel)
    from .sources.io import compact_partitions

    stats = compact_partitions(args.root, target_rows=args.target_rows)
    before = sum(s["files_before"] for s in stats)
    after = sum(s["files_after"] for s in stats)
    print(json.dumps({"partitions": len(stats), "files_before": before,
                      "files_after": after}))
    ray.shutdown()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="akf_cdparser_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("html2json", help="parse an HTML tree into mirrored JSON")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("-n", "--parallel", type=int, default=None, help="CPU count")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--checkfiles", default=None, metavar="DIR",
                   help="also write the reference's per-category checkfile "
                        "audit logs (byte-faithful) into DIR")
    p.add_argument("--lse", default=None, metavar="DIR",
                   help="also run the line-segment analysis over the GuV "
                        "sections and write the ungrouped + grouped "
                        "separator grids as .xlsx into DIR (the "
                        "reference's -l/--lse flag)")
    p.set_defaults(fn=cmd_html2json)

    p = sub.add_parser("validate", help="schema-validate parsed JSON files")
    p.add_argument("input")
    p.add_argument("--diff", action="store_true", help="print unparsed residue")
    p.add_argument("--write-errors", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("json2sql", help="emit SQL INSERT rows from parsed JSON")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_json2sql)

    p = sub.add_parser("crawl", help="run the wave-based crawl loop")
    p.add_argument("out_dir")
    p.add_argument("--seeds", nargs="+", required=True)
    p.add_argument("--corpus-size", type=int, default=1000)
    p.add_argument("--max-waves", type=int, default=5)
    p.add_argument("--dequeue-k", type=int, default=64)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--stream", action="store_true",
                   help="streaming (non-wave) frontier: no replay trace, "
                        "higher throughput; see pipelines/stream_crawl.py")
    p.add_argument("--max-fetches", type=int, default=None,
                   help="stream mode: stop after ~N fetches (default drain)")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="stream mode: quiesce-checkpoint every ~N fetches "
                        "(--resume continues from the last marker)")
    p.add_argument("--coordinators", type=int, default=1,
                   help="stream mode: epoch-clock shards (>1 = "
                        "drain-to-completion jobs only; workers hash to "
                        "a coordinator by id)")
    p.add_argument("-n", "--parallel", type=int, default=None)
    p.set_defaults(fn=cmd_crawl)

    p = sub.add_parser("compact", help="merge small partition fragments "
                                       "(the pairs sink's per-task files)")
    p.add_argument("root")
    p.add_argument("--target-rows", type=int, default=1_000_000)
    p.add_argument("-n", "--parallel", type=int, default=None)
    p.set_defaults(fn=cmd_compact)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
