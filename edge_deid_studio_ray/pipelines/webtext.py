"""Composite web-text training-data pipeline.

The end-to-end flow a Common-Crawl-scale corpus actually runs, composed from
the engine's stages — extract/deid, text analysis, filtering, dedup — as ONE
lazy Dataset chain (no stage materializes the corpus):

    pages → extract+deid (fused map)
          → text stats (lang-id, quality score)              [map]
          → quality filter (score ≥ threshold, chars ≥ min)  [map-side]
          → exact dedup on extracted-text hash               [1 groupby]
          → partitioned parquet + per-shard manifest counters

Counters record what every stage dropped (no silent attrition): rows in,
dropped by quality, dropped as duplicates, rows out.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

from ..config import EngineConfig
from ..functions.cogroup import cogroup
from ..functions.textstats import lang_id, quality_score
from .deid import build_deid_pipeline


def curate_extracted(
    deid,
    *,
    min_quality: float = 0.4,
    min_chars: int = 50,
):
    """Curation half of the training-data flow over a POST-deid dataset
    (needs ``url``, ``extracted_text``, ``context_hash``): quality
    stats+filter (map-side) → exact dedup on the extracted-text hash
    (co-group on the hash, keeper = min url).  Split out of
    :func:`build_training_data_pipeline` so callers can stage the deid
    output to parquet (resumable staging) and curate from the staged file.
    The output columns are ``deid``'s plus ``quality``, ``lang_pred`` and
    ``n_copies``, read once here from ``deid.schema()``.
    """
    import pandas as pd

    s = deid.schema()
    schema = pa.schema(
        [
            *zip(s.names, s.types),
            ("quality", pa.float64()),
            ("lang_pred", pa.string()),
            ("n_copies", pa.int64()),
        ]
    )

    def stats_and_filter(batch: pa.Table) -> pa.Table:
        texts = batch["extracted_text"].to_pylist()
        scores = [quality_score(t or "") for t in texts]
        langs = [lang_id(t or "") for t in texts]
        out = batch.append_column(
            "quality", pa.array(scores, pa.float64())
        ).append_column("lang_pred", pa.array(langs, pa.string()))
        mask = pa.array(
            [
                s >= min_quality and len(t or "") >= min_chars
                for s, t in zip(scores, texts)
            ]
        )
        return out.filter(mask)

    filtered = deid.map_batches(stats_and_filter, batch_format="pyarrow")

    # exact dedup on the extracted-text hash (context_hash is already
    # sha256(extracted_text)) — keeper = min url
    def keep_first(bucket: pd.DataFrame) -> pd.DataFrame:
        # n_copies = quality-pass rows collapsed into each keeper, so one
        # pipeline execution yields both the output AND the attrition
        # counters (sum(n_copies) = rows that survived the quality filter)
        copies = bucket.groupby("context_hash")["context_hash"].transform("size")
        bucket = bucket.assign(n_copies=copies)
        return bucket.sort_values("url").drop_duplicates(subset=["context_hash"], keep="first")

    return cogroup(filtered, "context_hash", keep_first, schema)


def build_training_data_pipeline(
    pages_ds,
    cfg: EngineConfig | None = None,
    *,
    min_quality: float = 0.4,
    min_chars: int = 50,
):
    """pages Dataset → filtered, deduped, de-identified training rows.

    Returns the lazy output Dataset with columns
    ``url, lang_pred, quality, clean_text, n_spans, n_chars`` plus the
    deid columns; consume with write_parquet / aggregation.
    """
    cfg = cfg or EngineConfig()
    return curate_extracted(
        build_deid_pipeline(pages_ds, cfg),
        min_quality=min_quality,
        min_chars=min_chars,
    )


def attrition_report(curated, *, rows_in: int) -> dict[str, int]:
    """Per-stage attrition counters from ONE aggregate over the curated
    output (``n_copies`` = quality-pass rows collapsed into each keeper)."""
    from ray.data.aggregate import Count, Sum

    agg = curated.aggregate(Count(alias_name="rows_out"), Sum("n_copies", alias_name="quality_pass"))
    # Dataset.aggregate returns None on an empty dataset (e.g. every row
    # failed the quality filter) — report zeros, not a TypeError
    rows_out = int(agg["rows_out"]) if agg else 0
    quality_pass = int(agg["quality_pass"] or 0) if agg else 0
    return {
        "rows_in": rows_in,
        "dropped_quality": rows_in - quality_pass,
        "dropped_duplicates": quality_pass - rows_out,
        "rows_out": rows_out,
    }


def training_data_report(
    pages_ds, cfg: EngineConfig | None = None, *, rows_in: int | None = None, **kwargs: Any
) -> dict[str, int]:
    """Run the pipeline ONCE and report per-stage attrition counters.

    The dedup stage records ``n_copies`` (quality-pass rows collapsed into
    each keeper), so a single aggregate over the output derives every
    counter — the expensive extract+deid stage executes once over the
    corpus (plus a ``limit(1)`` run at build time, where
    ``curate_extracted`` reads the output schema).
    Pass ``rows_in`` when the caller already knows the input cardinality
    (e.g. a synthesized corpus); otherwise it costs one ``count()`` of the
    input (metadata-only for parquet reads, a generator pass otherwise).
    """
    if rows_in is None:
        rows_in = pages_ds.count()
    out = build_training_data_pipeline(pages_ds, cfg, **kwargs)
    return attrition_report(out, rows_in=rows_in)
