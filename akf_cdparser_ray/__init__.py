"""akf_cdparser_ray — a Ray-Data-native crawl/parse engine.

A brand-new engine (NOT a port) with the query- and data-processing
capabilities of UB-Mannheim/akf-cdparser, re-expressed Ray-Data-first:

* ``parsing/``   — the per-document HTML→profile extractor (the reference's
  ``lib/parser*.js`` semantics, reimplemented from scratch in Python).
* ``functions/`` — scalar string/regex kernels (reference ``lib/regexLib.js``,
  ``lib/utils.js`` semantics).
* ``sources/``   — deterministic synthetic corpus + image/caption pair tables,
  parquet/lance IO.
* ``stages/``    — Ray Data ``map_batches`` stages (stateless tasks and actor
  pools) for parse, fetch, link extraction, dedup, text analysis, ANN.
* ``state/``     — sharded URL-seen filters (bloom/cuckoo), politeness token
  buckets, robots cache, checkpoint manifests.
* ``pipelines/`` — the flagship parse pipeline and the wave and streaming
  crawl modes, which share one content body (``stages/content.py``).

Nothing in this package calls ``ray.init()``/``ray.shutdown()`` — sessions are
owned by the caller (driver, ``bench.py``, or the pytest fixture).
"""

__version__ = "0.1.0"


def parse(html: str, with_audit: bool = False):
    """Library surface mirroring the reference's ``index.js`` exports
    (``require('akf-cdparser').parser``): one HTML page → profile dict.
    With ``with_audit=True`` returns (profile, audit_rows) where the rows
    render the reference's checkfiles byte-for-byte
    (``parsing.checkfiles.render_checkfiles``)."""
    from .parsing.checkfiles import AuditSink
    from .parsing.profile_parser import ProfileParser

    if not with_audit:
        from .parsing.profile_parser import parse_profile

        return parse_profile(html)
    sink = AuditSink()
    profile = ProfileParser(audit=sink).parse(html)
    return profile, sink.rows


def validate(data: dict, strict: bool = False):
    """Schema validation (reference ``lib/validator.js``): returns
    (ok, errors). ``strict=True`` applies the full ajv-v4 semantics
    including additionalProperties (the legacy flat-profile schema)."""
    from .parsing import validator

    return validator.validate_schema(data) if strict else validator.validate(data)


def json2sql(profile: dict) -> str:
    """SQL INSERT statements for a profile (reference ``bin/akf-json2sql``)."""
    from .parsing.converter import json2sql as _j2s

    return _j2s(profile)
