"""Segment-anchor attachment (entity span → page/bbox/cell).

Pure restatement of /root/reference/src/deid_pipeline/core/anchors.py:10-48.
Segments here are plain dicts ``{"segment_id", "start", "end", "page_index",
"bbox", "cell"}`` so they round-trip through Arrow list<struct> columns.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any

Entity = dict[str, Any]
Segment = dict[str, Any]


# (page_index, bbox, cell) of the segment a span lies in, as the segment
# holds them (page_index as int); None fields when it has no such anchor
Anchor = tuple[Any, Any, Any]
_NO_ANCHOR: Anchor = (None, None, None)


def span_anchors(spans: list[tuple], segments: list[Segment]) -> list[Anchor] | None:
    """Per span ``(start, end, ...)``: the anchors of the one segment that
    fully contains it, else ``(None, None, None)``.  ``None`` when no
    segment carries any anchor (plain text: nothing to attach)."""
    if not spans or not any(
        s.get("page_index") is not None or s.get("bbox") is not None or s.get("cell") is not None
        for s in segments
    ):
        return None

    ordered = sorted(segments, key=lambda s: s["start"])
    starts = [seg["start"] for seg in ordered]

    out: list[Anchor] = []
    for span in spans:
        start, end = span[0], span[1]
        idx = bisect_right(starts, int(start)) - 1
        segment = ordered[idx] if idx >= 0 else None
        if segment is None or not (segment["start"] <= start < segment["end"]) or end > segment["end"]:
            out.append(_NO_ANCHOR)
            continue
        page = segment.get("page_index")
        out.append((None if page is None else int(page), segment.get("bbox"), segment.get("cell")))
    return out


def attach_segment_anchors(entities: list[Entity], segments: list[Segment]) -> None:
    """Attach anchors in place; only when a span is fully inside one segment."""
    spanned = [e for e in entities if e.get("span") and None not in e["span"]]
    anchors = span_anchors([e["span"] for e in spanned], segments)
    for entity, (page, bbox, cell) in zip(spanned, anchors or ()):
        if page is not None:
            entity["page_index"] = page
        if bbox is not None:
            entity["bbox"] = tuple(bbox)
        if cell is not None:
            entity["cell"] = dict(cell)
