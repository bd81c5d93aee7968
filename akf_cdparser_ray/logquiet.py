"""Targeted log hygiene for session-owning entry points (bench, CLI,
tools): Ray 2.49's sort/aggregate reduce emits COLUMN-LESS empty pandas
blocks for empty hash partitions (a known engine behavior this repo
guards every consumer against — see CLAUDE.md), and the streaming
executor then logs a schema-divergence warning for each such bundle.
Those warnings are pure noise that buries real ones, so entry points
install a filter that drops ONLY the empty-new-schema divergence class;
a genuine divergence between two non-empty schemas still logs. The same
entry points also drop Ray's schema-hash fallback notice for schemas that
carry metadata (``_SchemaHashFilter``)."""

from __future__ import annotations

import logging

_EMPTY_SCHEMA_MARKERS = (
    # empty pandas block schema
    "new schema: PandasBlockSchema(names=[], types=[])",
    # empty Arrow schema renders as nothing between the colon and period
    "new schema: . This may lead",
)


class _EmptyBlockSchemaFilter(logging.Filter):
    def filter(self, record: logging.LogRecord) -> bool:  # True = keep
        msg = record.getMessage()
        if "produced a RefBundle with a different schema" not in msg:
            return True
        return not any(m in msg for m in _EMPTY_SCHEMA_MARKERS)


class _EmptyColumnSizeFilter(logging.Filter):
    """Ray's pandas block sizing np.vectorize()s over string columns and
    warns on every SIZE-0 one ("cannot call `vectorize` on size 0 inputs")
    — i.e. on every typed empty frame this repo's shuffle-consumer guards
    deliberately emit. Drop only that class; a real sizing failure on a
    non-empty column still logs."""

    def filter(self, record: logging.LogRecord) -> bool:  # True = keep
        msg = record.getMessage()
        return not ("Error calculating size for column" in msg
                    and "size 0 inputs" in msg)


# pyarrow 16 raises on hash(schema) when the schema carries metadata (the
# pandas metadata of Table.from_pandas and of pandas-written parquet); Ray's
# unify_schemas logs this and falls back to the full unify, same result
_SCHEMA_HASH_NOISE = ("Failed to hash the schemas (for deduplication): "
                      "unhashable type: 'dict'")


class _SchemaHashFilter(logging.Filter):
    """Drop only the exact metadata-schema hash failure; any other hash
    failure still logs."""

    def filter(self, record: logging.LogRecord) -> bool:  # True = keep
        return record.getMessage() != _SCHEMA_HASH_NOISE


_FILTERS = (
    ("ray.data._internal.execution.streaming_executor_state",
     _EmptyBlockSchemaFilter),
    ("ray.data._internal.pandas_block", _EmptyColumnSizeFilter),
    ("ray.data._internal.arrow_ops.transform_pyarrow", _SchemaHashFilter),
)


def silence_empty_block_schema_warnings() -> None:
    """Install the filters once on the Ray Data loggers (idempotent)."""
    for name, cls in _FILTERS:
        logger = logging.getLogger(name)
        if not any(isinstance(f, cls) for f in logger.filters):
            logger.addFilter(cls())
