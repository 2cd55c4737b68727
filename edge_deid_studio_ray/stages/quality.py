"""Distributed quality / evaluation aggregations.

Ray-native restatement of ``analyze_span_examples``
(/root/reference/src/deid_pipeline/training/quality.py:122-178) and
``aggregate_reports`` (training/deid_eval.py:258-292):

- per-example validation + metrics run inside ``map_batches`` (parallel);
- counts (issue kinds, entity types, invalid counts) pre-aggregate into one
  partial row per batch, summed on the driver;
- distributions (text length, entities/example, span length) reduce via
  per-batch reservoir samples merged on the driver (the reference itself
  caps quality sampling at 5000 via a reservoir, training/mix.py:96-124) —
  exact min/max/mean are computed from full-stream partials, p50/p95 from
  the merged reservoir.
"""

from __future__ import annotations

import json
import random
from typing import Any

import pyarrow as pa

from ..kernels.evalkit import aggregate_reports, evaluate_prediction
from ..kernels.markup import extract_pii_blocks
from ..kernels.quality import summarize_numbers, validate_span_example

_RESERVOIR_K = 5000


def _dist_partial(values: list[float], seed: int) -> dict[str, Any]:
    rng = random.Random(seed)
    if len(values) <= _RESERVOIR_K:
        sample = list(values)
    else:
        sample = values[:_RESERVOIR_K]
        for i in range(_RESERVOIR_K, len(values)):
            j = rng.randint(0, i)
            if j < _RESERVOIR_K:
                sample[j] = values[i]
    return {
        "n": len(values),
        "sum": float(sum(values)),
        "min": float(min(values)) if values else 0.0,
        "max": float(max(values)) if values else 0.0,
        "sample": sample,
    }


def _merge_dist(parts: list[dict[str, Any]]) -> dict[str, float]:
    parts = [p for p in parts if p["n"] > 0]
    if not parts:
        return summarize_numbers([])
    merged_sample: list[float] = []
    for p in parts:
        merged_sample.extend(p["sample"])
    if len(merged_sample) > _RESERVOIR_K:
        rng = random.Random(0)
        merged_sample = rng.sample(merged_sample, _RESERVOIR_K)
    total_n = sum(p["n"] for p in parts)
    summary = summarize_numbers(merged_sample)
    # exact stream-wide min/max/mean override the sampled estimates
    summary["min"] = min(p["min"] for p in parts)
    summary["max"] = max(p["max"] for p in parts)
    summary["mean"] = sum(p["sum"] for p in parts) / total_n
    return summary


def quality_report(ds, *, text_col: str = "text", entities_col: str = "entities", max_issues: int = 200) -> dict[str, Any]:
    """Corpus quality report with the reference's summary shape.

    ``ds`` rows need ``text`` + ``entities`` (list<struct> with type/start/
    end/text).  Streams once; only per-batch partials reach the driver.
    """

    def partial(batch: pa.Table) -> pa.Table:
        issue_counts: dict[str, int] = {}
        type_counts: dict[str, int] = {}
        issues: list[dict[str, Any]] = []
        text_lengths: list[float] = []
        ents_per_example: list[float] = []
        span_lengths: list[float] = []
        invalid_examples = 0
        invalid_entities = 0
        total_entities = 0

        for text, ents in zip(batch[text_col].to_pylist(), batch[entities_col].to_pylist()):
            text = text or ""
            ents = [
                {**e, "span": (e["start"], e["end"])} if "start" in e else dict(e)
                for e in (ents or [])
            ]
            text_lengths.append(float(len(text)))
            ents_per_example.append(float(len(ents)))
            total_entities += len(ents)
            ex_issues = validate_span_example(text, ents)
            if ex_issues:
                invalid_examples += 1
                for issue in ex_issues:
                    kind = str(issue.get("kind", "unknown"))
                    issue_counts[kind] = issue_counts.get(kind, 0) + 1
                    if len(issues) < max_issues:
                        issues.append(issue)
            for ent in ents:
                ent_type = ent.get("type")
                if ent_type:
                    type_counts[str(ent_type)] = type_counts.get(str(ent_type), 0) + 1
                span = ent.get("span")
                try:
                    start, end = int(span[0]), int(span[1])
                except (TypeError, ValueError, IndexError):
                    invalid_entities += 1
                    continue
                if start < 0 or end < 0 or start > len(text) or end > len(text) or start >= end:
                    invalid_entities += 1
                    continue
                span_lengths.append(float(end - start))

        payload = {
            "examples": batch.num_rows,
            "entities": total_entities,
            "invalid_examples": invalid_examples,
            "invalid_entities": invalid_entities,
            "issue_counts": issue_counts,
            "entity_type_counts": type_counts,
            "issues": issues,
            "text_length": _dist_partial(text_lengths, seed=1),
            "entities_per_example": _dist_partial(ents_per_example, seed=2),
            "entity_span_length": _dist_partial(span_lengths, seed=3),
        }
        return pa.table({"partial": pa.array([json.dumps(payload)], pa.string())})

    parts = [json.loads(r["partial"]) for r in ds.map_batches(partial, batch_format="pyarrow").take_all()]

    issue_counts: dict[str, int] = {}
    type_counts: dict[str, int] = {}
    issues: list[dict[str, Any]] = []
    for p in parts:
        for k, v in p["issue_counts"].items():
            issue_counts[k] = issue_counts.get(k, 0) + v
        for k, v in p["entity_type_counts"].items():
            type_counts[k] = type_counts.get(k, 0) + v
        for issue in p["issues"]:
            if len(issues) < max_issues:
                issues.append(issue)

    return {
        "summary": {
            "examples": sum(p["examples"] for p in parts),
            "entities": sum(p["entities"] for p in parts),
            "invalid_examples": sum(p["invalid_examples"] for p in parts),
            "invalid_entities": sum(p["invalid_entities"] for p in parts),
            "issue_counts": dict(sorted(issue_counts.items(), key=lambda x: (-x[1], x[0]))),
            "entity_type_counts": dict(sorted(type_counts.items(), key=lambda x: (-x[1], x[0]))),
            "text_length": _merge_dist([p["text_length"] for p in parts]),
            "entities_per_example": _merge_dist([p["entities_per_example"] for p in parts]),
            "entity_span_length": _merge_dist([p["entity_span_length"] for p in parts]),
        },
        "issues": issues,
    }


def eval_aggregate(ds, *, banned_phrases: list[str] | None = None) -> dict[str, Any]:
    """Distributed deid evaluation: rows need ``example_id``, ``input_text``,
    ``prediction_text`` (markup-bearing inputs); per-example kernels run in
    map_batches, the tiny per-example report reduces on the driver."""
    banned = banned_phrases or []

    def score_partial(batch: pa.Table) -> pa.Table:
        # per-example kernels + IN-BATCH partial sums: only one small partial
        # row per batch reaches the driver (aggregate semantics match
        # aggregate_reports: leak rate from global sums, plain means else)
        sums = {
            "count": 0,
            "pii_total": 0,
            "pii_leak_count": 0,
            "recall_sum": 0.0,
            "over_sum": 0.0,
            "type_sum": 0.0,
            "rep_sum": 0.0,
            "compliant": 0,
        }
        for ex_id, inp, pred in zip(
            batch["example_id"].to_pylist(),
            batch["input_text"].to_pylist(),
            batch["prediction_text"].to_pylist(),
        ):
            blocks = extract_pii_blocks(inp or "")
            row = evaluate_prediction(
                str(ex_id), inp or "", pred or "", pii_blocks=blocks, banned_phrases=banned
            )
            sums["count"] += 1
            sums["pii_total"] += row["pii_total"]
            sums["pii_leak_count"] += row["pii_leak_count"]
            sums["recall_sum"] += row["pii_removal_recall"]
            sums["over_sum"] += row["over_rewrite_rate"]
            sums["type_sum"] += row["type_consistency"]
            sums["rep_sum"] += row["repetition_3gram_rate"]
            sums["compliant"] += 1 if row["format_compliant"] else 0
        return pa.table({"partial": pa.array([json.dumps(sums)], pa.string())})

    parts = [
        json.loads(r["partial"])
        for r in ds.map_batches(score_partial, batch_format="pyarrow").take_all()
    ]
    count = sum(p["count"] for p in parts)
    if count == 0:
        return aggregate_reports([])
    total_pii = sum(p["pii_total"] for p in parts)
    total_leaks = sum(p["pii_leak_count"] for p in parts)
    return {
        "count": count,
        "pii_removal_recall": sum(p["recall_sum"] for p in parts) / count,
        "pii_total": total_pii,
        "pii_leak_count": total_leaks,
        "pii_leak_rate": (total_leaks / total_pii) if total_pii > 0 else 0.0,
        "over_rewrite_rate": sum(p["over_sum"] for p in parts) / count,
        "type_consistency": sum(p["type_sum"] for p in parts) / count,
        "repetition_3gram_rate": sum(p["rep_sum"] for p in parts) / count,
        "format_compliance_rate": sum(p["compliant"] for p in parts) / count,
    }
