"""The parse stage (SURVEY.md §2.3 ST1-ST3).

One callable class: the title/funct dictionaries load once per instance in
``__init__`` (the equivalent of the reference's module-scope
load at ``lib/parser.js:33-34``); ``__call__`` parses a batch of pages into
caption strings. Per-row try/except mirrors the reference's failed-file
stack (``bin/akf-html2json:114-119``): a bad page becomes a ``status='error'``
row, it never kills a block.
"""

from __future__ import annotations

import pyarrow as pa

from ..parsing.checkfiles import AuditSink
from ..parsing.dictionaries import Dictionaries
from ..parsing.profile_parser import ProfileParser
from ..parsing import validator
from ..sources.synth import canonical_caption


class ParseProfiles:
    """pages batch (PAGES_SCHEMA) → pairs batch (+ status/error columns).

    The library runs it through ``stages/cached.cached_parse_batch`` (one
    instance per worker process, task-based ``map_batches``).
    """

    def __init__(
        self,
        dictfiles_dir: str | None = None,
        with_residue: bool = False,
        with_counts: bool = False,
        with_audit: bool = False,
        with_lse: bool = False,
    ):
        self.parser = ProfileParser(Dictionaries(dictfiles_dir))
        self.with_residue = with_residue
        self.with_counts = with_counts
        self.with_audit = with_audit
        self.with_lse = with_lse

    def __call__(self, batch: pa.Table) -> pa.Table:
        import json as _json

        htmls = batch.column("html").to_pylist()
        captions: list[str | None] = []
        statuses: list[str] = []
        errors: list[str] = []
        residues: list[float] = []
        counts: list[str] = []
        audits: list[str] = []
        lse_cols: list[str] = []
        for html in htmls:
            try:
                if self.with_audit:
                    # fresh per-document sink → one JSON audit blob per row
                    self.parser.audit = AuditSink()
                if self.with_lse:
                    self.parser.lse_lines = []
                # only the coverage ratio reads _fulltext; captions drop it
                parsed = self.parser.parse(html, fulltext=self.with_residue)
                captions.append(canonical_caption(parsed))
                if self.with_audit:
                    audits.append(_json.dumps(
                        self.parser.audit.rows, ensure_ascii=False))
                    self.parser.audit = None
                statuses.append("ok")
                errors.append("")
                if self.with_residue:
                    residues.append(validator.coverage_ratio(parsed))
                if self.with_counts:
                    # per-document section call counts (ref lib/callCounter.js)
                    counts.append(_json.dumps(self.parser._counts, sort_keys=True))
                if self.with_lse:
                    lse_cols.append(_json.dumps(
                        self.parser.lse_lines, ensure_ascii=False))
                    self.parser.lse_lines = None
            except Exception as exc:  # mirror failed[]-and-continue semantics
                captions.append(None)
                statuses.append("error")
                errors.append(repr(exc)[:500])
                if self.with_residue:
                    residues.append(0.0)
                if self.with_counts:
                    counts.append("{}")
                if self.with_audit:
                    # appendFileSync semantics: writes before the crash remain
                    audits.append(_json.dumps(
                        self.parser.audit.rows if self.parser.audit else [],
                        ensure_ascii=False))
                    self.parser.audit = None
                if self.with_lse:
                    # analyzer keeps line arrays added before the crash
                    lse_cols.append(_json.dumps(
                        self.parser.lse_lines or [], ensure_ascii=False))
                    self.parser.lse_lines = None
        cols = {
            "image_id": batch.column("image_id"),
            "bytes": batch.column("bytes"),
            "w": batch.column("w"),
            "h": batch.column("h"),
            "fmt": batch.column("fmt"),
            "caption": pa.array(captions, pa.string()),
            "phash": batch.column("phash"),
            "status": pa.array(statuses, pa.string()),
            "error": pa.array(errors, pa.string()),
        }
        if self.with_residue:
            cols["coverage"] = pa.array(residues, pa.float64())
        if self.with_counts:
            cols["section_counts"] = pa.array(counts, pa.string())
        if self.with_audit:
            cols["audit"] = pa.array(audits, pa.string())
        if self.with_lse:
            cols["lse_lines"] = pa.array(lse_cols, pa.string())
        return pa.table(cols)


def call_count_rollup(parsed_ds):
    """A1: per-section call-count totals across the corpus
    (ref lib/callCounter.js:26-46 printCallcount; here a real aggregation)."""
    import json as _json

    import pandas as pd

    from .relational import partial_groupby_sum

    def explode(batch: pa.Table) -> pa.Table:
        sections, ns = [], []
        for blob in batch.column("section_counts").to_pylist():
            for section, n in _json.loads(blob or "{}").items():
                sections.append(section)
                ns.append(n)
        return pa.table(
            {"section": pa.array(sections, pa.string()), "n": pa.array(ns, pa.int64())}
        )

    out = partial_groupby_sum(
        parsed_ds.map_batches(explode, batch_format="pyarrow"), ["section"], ["n"]
    )
    df = out.to_pandas()
    return df.sort_values("section").reset_index(drop=True)


class ValidateProfiles:
    """Validation operator (SURVEY.md §3.2): caption JSON → (valid, errors).

    Stateless — plain function semantics, kept as a class only for symmetry;
    cheap enough for task-based ``map_batches``.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        import json

        valids = []
        errs = []
        for cap in batch.column("caption").to_pylist():
            if cap is None:
                valids.append(False)
                errs.append("no caption")
                continue
            data = json.loads(cap)
            # wkn in the caption lives in all_wkn_entry (parser semantics);
            # surface it as the schema's required numeric field
            entries = data.get("all_wkn_entry") or []
            if entries and entries[0].get("wkn"):
                try:
                    data["wkn"] = int(entries[0]["wkn"])
                except (TypeError, ValueError):
                    pass
            ok, errors = validator.validate(data)
            valids.append(ok)
            errs.append("; ".join(errors))
        return batch.append_column("valid", pa.array(valids, pa.bool_())).append_column(
            "validation_errors", pa.array(errs, pa.string())
        )
