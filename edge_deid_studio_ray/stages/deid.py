"""Ray Data stages for the fused extract→detect→replace pipeline.

One stateless ``map_batches`` stage (Arrow in / Arrow out) fuses the whole
per-document chain — the Ray-native restatement of ``DeidPipeline.process``
(SURVEY.md §3.1) — into one columnar kernel over the batch
(``kernels.docpipe.deid_table``): ``url`` / ``lang`` / ``pid`` pass through
as Arrow columns and every other column is built from flat per-column lists.
Regex rules compile once per worker process via the ``lru_cache`` in
kernels/detect.py, so a stateless task stage is as cheap as an actor pool
here while staying elastic; an actor pool is reserved for genuinely heavy
state (stages/ner.py).

Span offsets ride along as Arrow ``list<struct>`` columns (the north-star
"character-offset span maps carried as Arrow list columns").
"""

from __future__ import annotations

import zlib
from typing import Callable

import pyarrow as pa

from ..config import EngineConfig
# process_document stays a module attribute: perfbench/tracing.py wraps it here
from ..kernels.docpipe import deid_table, process_document  # noqa: F401

ENTITY_STRUCT = pa.struct(
    [
        ("type", pa.string()),
        ("start", pa.int64()),
        ("end", pa.int64()),
        ("confidence", pa.float64()),
        ("source", pa.string()),
        ("text", pa.string()),
        # structural anchors (attach_segment_anchors, core/anchors.py:10-48);
        # null when the span is not fully inside one anchored segment
        ("page_index", pa.int32()),
        ("bbox", pa.list_(pa.int32())),  # 4 ints when present, null otherwise
        ("cell_address", pa.string()),
    ]
)

EVENT_STRUCT = pa.struct(
    [
        ("entity_type", pa.string()),
        ("original", pa.string()),
        ("replacement", pa.string()),
        ("start", pa.int64()),
        ("end", pa.int64()),
        ("source", pa.string()),
    ]
)

DEID_OUTPUT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("lang", pa.string()),
        ("pid", pa.int32()),
        ("route", pa.string()),
        ("error", pa.string()),
        ("extracted_text", pa.string()),
        ("context_hash", pa.string()),
        ("clean_text", pa.string()),
        ("entities", pa.list_(ENTITY_STRUCT)),
        ("events", pa.list_(EVENT_STRUCT)),
        ("n_spans", pa.int64()),
        ("n_chars", pa.int64()),
        ("n_bytes", pa.int64()),
        # per-stage wall timings (DeidResult.timings_ms analogue) — metrics,
        # never part of value-checked query outputs
        ("t_extract_ms", pa.float64()),
        ("t_detect_ms", pa.float64()),
        ("t_replace_ms", pa.float64()),
    ]
)


def url_pid(url: str, num_partitions: int) -> int:
    """Partition id = crc32(url) % P — stable across runs/nodes/platforms."""
    return zlib.crc32(url.encode("utf-8")) % num_partitions


def add_pid(batch: pa.Table, *, num_partitions: int) -> pa.Table:
    """Cheap first-map stage: attach the url-hash partition column.

    Runs before the expensive deid stage so checkpoint-resume can filter
    committed partitions early (state/manifest.py).
    """
    pids = pa.array(
        [url_pid(u, num_partitions) for u in batch["url"].to_pylist()], pa.int32()
    )
    return batch.append_column("pid", pids)


def make_deid_batch_fn(cfg: EngineConfig | None = None) -> Callable[[pa.Table], pa.Table]:
    """Build the fused deid batch transform (config captured in the closure).

    A batch without a ``pid`` column gets it from :func:`add_pid` first."""
    cfg = cfg or EngineConfig()

    def deid_batch(batch: pa.Table) -> pa.Table:
        if "pid" not in batch.column_names:
            batch = add_pid(batch, num_partitions=cfg.num_partitions)
        return deid_table(batch, cfg, DEID_OUTPUT_SCHEMA)

    return deid_batch
