"""Fused de-identification kernel (extract → detect → resolve → replace →
anchors).

One per-document core, :class:`DeidColumns`, is both:

- the body of the hot ``map_batches`` stage (stages/deid.py): :func:`deid_table`
  loops over a batch's documents, spans travel as plain tuples, and the
  output is written straight into flat columns that become the Arrow
  batch — no per-row dicts between the steps, and
- :func:`process_document`, the same core read back as one row dict (plus
  the ``replacement_map`` the rebuild sinks consume), which the Dataset
  pipeline is tested against.

Stage order and IR mirror ``DeidPipeline.process``
(/root/reference/src/deid_pipeline/__init__.py:49-148) restricted to the
deterministic default matrix (regex detection + deterministic fallback
replacement; tests/conftest.py:8-29).
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig
from .anchors import span_anchors
from .boilerplate import extract_main_content
from .contracts import context_hash, replacement_key
from .detect import compile_rules, detect_spans, regex_detect, resolve_conflicts, resolve_spans
from .html_text import decode_html_bytes, html_to_text
from .pdf_text import is_pdf, pdf_parse
from .replace import is_blackbox, replace_text, splice_spans
from .segments import build_text_from_segments

# The entity-dict kernels stay module attributes next to the span cores the
# pipeline runs on: perfbench/tracing.py wraps them here.
__all__ = [
    "DeidColumns",
    "deid_table",
    "extract_page",
    "process_document",
    "compile_rules",
    "regex_detect",
    "resolve_conflicts",
    "replace_text",
]


def _resolve_ocr_backend(name: str | None):
    """OCR backend registry ("fake" = deterministic plumbing backend; real
    engines are import-gated in stages/image_deid.py).  Lazy import keeps
    the kernel layer free of stage imports at module load."""
    if name is None:
        return None
    if name == "fake":
        from ..stages.image_deid import FakeOcrBackend

        return FakeOcrBackend()
    if name == "easyocr":
        from ..stages.image_deid import _real_ocr_backend

        backend = _real_ocr_backend()
        if backend is None:
            raise NotImplementedError("OCR backend 'easyocr' is not installed")
        return backend
    # an actual registry lookup: an unknown (or typo'd) name must not
    # silently resolve to whatever single real backend happens to exist
    raise ValueError(f"unknown OCR backend {name!r}; registered: fake, easyocr")


def extract_page(
    html: bytes | None,
    text: str | None,
    *,
    url: str | None = None,
    extract_mode: str = "full",
    pdf_ocr: str | None = None,
    ocr_threshold: int = 50,
) -> tuple[str, list[dict[str, Any]], str, str | None]:
    """Extract text from a page row; returns (text, segments, route, error).

    Routing (HandlerRegistry-by-extension analogue, handlers/registry.py):
    - pre-extracted ``text`` present → passthrough (single segment);
    - url ending ``.csv`` → per-cell segments with R{r}C{c} cell refs
      (csv.py:14-39 semantics, "\\n" join);
    - ``%PDF-`` payload → layout-aware block extractor (pdf.py:13-42
      semantics: per-block segments with page_index + bbox, "\\n" join);
    - otherwise HTML → all-text extraction (text.py:17-24 semantics) or
      main-content boilerplate strip when ``extract_mode="main_content"``.
    """
    if text is not None:
        extracted, segments = build_text_from_segments([{"text": text}])
        return extracted, segments, "text", None

    raw = html or b""
    if url is not None and url.lower().endswith(".csv"):
        from .segments import csv_to_segments

        specs = csv_to_segments(decode_html_bytes(raw))
        extracted, segments = build_text_from_segments(specs)
        return extracted, segments, "csv", None

    if is_pdf(raw):
        try:
            specs, num_pages = pdf_parse(raw)
        except NotImplementedError:
            extracted, segments = build_text_from_segments([{"text": ""}])
            return extracted, segments, "pdf", "pdf_backend_unavailable"
        # per-page OCR fallback (text_extractor.py:155-183): pages whose
        # extracted text is below the threshold are re-read through OCR and
        # their blocks REPLACED by the OCR text, as the reference does
        ocr = _resolve_ocr_backend(pdf_ocr)
        if ocr is not None:
            by_page: dict[int, list[dict[str, Any]]] = {}
            for s in specs:
                by_page.setdefault(int(s.get("page_index") or 0), []).append(s)
            rebuilt: list[dict[str, Any]] = []
            for page in range(num_pages):
                page_specs = by_page.get(page, [])
                page_text = "\n".join(s["text"] for s in page_specs).strip()
                if len(page_text) < ocr_threshold:
                    ocr_text, _ = ocr.read(raw + b"#page%d" % page)
                    ocr_text = (ocr_text or "").strip()
                    if ocr_text:
                        rebuilt.append({"text": ocr_text, "page_index": page})
                    else:
                        # OCR came back empty (blank scan): KEEP the page's
                        # real extracted blocks — replacing 30 genuine chars
                        # with nothing is content loss, and unredacted PII
                        # if any of them matched a rule
                        rebuilt.extend(page_specs)
                else:
                    rebuilt.extend(page_specs)
            specs = rebuilt
        extracted, segments = build_text_from_segments(specs or [{"text": ""}])
        return extracted, segments, "pdf", None

    if raw.startswith(b"PK\x03\x04"):
        from .ooxml import ooxml_to_segments

        dispatched = ooxml_to_segments(raw)
        if dispatched is not None:
            specs, route = dispatched
            extracted, segments = build_text_from_segments(specs)
            return extracted, segments, route, None

    decoded = decode_html_bytes(raw)
    if extract_mode == "main_content":
        extracted = extract_main_content(decoded)
    else:
        extracted = html_to_text(decoded)
    extracted_text, segments = build_text_from_segments([{"text": extracted}])
    return extracted_text, segments, "html", None


class DeidColumns:
    """The fused per-document core, writing flat output columns.

    :meth:`add` runs one document through extract → detect → resolve →
    replace → anchors.  Spans travel as ``(start, end, type, score,
    source)`` tuples from the detectors to the output: a document appends
    one tuple of its scalar values, and its spans, span texts, anchors and
    replace events to flat lists with list offsets, so no per-row dict or
    replacement map is built.  The batch stage turns the lists into one
    Arrow table (:meth:`table`); :func:`process_document` reads its single
    row back as dicts (:meth:`row`).

    Rules (per language), the replacement provider and the NER backend
    are looked up once per instance, i.e. once per batch.
    """

    def __init__(self, cfg: EngineConfig):
        from .replace import get_provider

        self.cfg = cfg
        self.blackbox = is_blackbox(cfg.mode)
        self.generate = get_provider(cfg.provider_name).generate
        self.ner = None
        if cfg.ner_backend:
            # get_detector composition (reference pii/detectors/__init__.py:20-76):
            # NER first, regex backstop appended, one composite resolve.  The
            # backend resolves by name per worker process (lazy import keeps the
            # kernel layer stage-free at module load).
            from ..stages.ner import detect_with_windows, get_ner_backend

            self.ner = partial(
                detect_with_windows, backend=get_ner_backend(cfg.ner_backend), window=cfg.ner_window
            )
        self._rules: dict[str | None, tuple] = {}

        # per document: (route, error, extracted_text, context_hash,
        # clean_text, n_bytes, t_extract_ms, t_detect_ms, t_replace_ms)
        self.docs: list[tuple] = []
        # per kept span: the span, its text, its (page_index, bbox, cell_address)
        self.spans: list[tuple] = []
        self.span_text: list[str] = []
        self.anchors: list[tuple] = []
        self.span_offsets = [0]
        # per replace event: (type, original, replacement, start, end, source)
        self.events: list[tuple] = []
        self.event_offsets = [0]

    def _rules_for(self, lang: str | None) -> tuple:
        rules = self._rules.get(lang)
        if rules is None:
            rules = self._rules[lang] = compile_rules(str(self.cfg.rules_path(lang)))
        return rules

    def add(self, html: bytes | None, text: str | None, url: str | None, lang: str | None) -> None:
        """Append one document's output row."""
        cfg = self.cfg
        # per-stage wall timings mirror DeidResult.timings_ms
        # (reference src/deid_pipeline/__init__.py:133-139); they
        # aggregate into per-partition metrics in the lineage manifests.
        t0 = perf_counter()
        extracted, segments, route, error = extract_page(
            html,
            text,
            url=url,
            extract_mode=cfg.extract_mode,
            pdf_ocr=cfg.pdf_ocr,
            ocr_threshold=cfg.ocr_threshold,
        )
        doc_hash = context_hash(extracted)
        t1 = perf_counter()

        spans = detect_spans(extracted, self._rules_for(lang))
        if self.ner is not None:
            ner = [
                (
                    int(e["span"][0]),
                    int(e["span"][1]),
                    str(e["type"]),
                    float(e["score"]),
                    str(e.get("source") or ""),
                )
                for e in self.ner(extracted)
            ]
            spans = ner + spans
        spans = resolve_spans(spans, cfg.entity_priority)
        t2 = perf_counter()

        clean, events = splice_spans(
            extracted,
            spans,
            blackbox=self.blackbox,
            generate=self.generate,
            context_hash=doc_hash,
            locale=cfg.faker_locale,
        )
        t3 = perf_counter()

        # bytes of the input the pipeline ACTUALLY consumed: the text
        # passthrough route never parses the html payload, so counting it
        # would inflate manifest byte counters and throughput accounting
        n_bytes = (
            len((text or "").encode("utf-8", "replace"))
            if route == "text" or html is None
            else len(html)
        )
        self.docs.append(
            (
                route,
                error,
                extracted,
                doc_hash,
                clean,
                n_bytes,
                (t1 - t0) * 1000.0,
                (t2 - t1) * 1000.0,
                (t3 - t2) * 1000.0,
            )
        )
        self.spans += spans
        self.span_text += [extracted[span[0] : span[1]] for span in spans]
        anchors = span_anchors(spans, segments)
        if anchors is None:
            self.anchors += [_NO_ANCHOR] * len(spans)
        else:
            self.anchors += [
                (page, None if bbox is None else list(bbox), None if cell is None else cell.get("address"))
                for page, bbox, cell in anchors
            ]
        self.span_offsets.append(len(self.spans))
        # canonical events (DeidPipeline.process, __init__.py:100-117):
        # blackbox events carry no original/replacement and are skipped.
        if not self.blackbox:
            self.events += events
        self.event_offsets.append(len(self.events))

    def _entity_columns(self) -> list:
        starts, ends, types, scores, sources = _transpose(self.spans, 5)
        pages, bboxes, cells = _transpose(self.anchors, 3)
        sources = [source or "unknown" for source in sources]
        return [types, starts, ends, scores, sources, self.span_text, pages, bboxes, cells]

    def _event_columns(self) -> list:
        types, originals, replacements, starts, ends, sources = _transpose(self.events, 6)
        sources = [source or "unknown" for source in sources]
        return [types, originals, replacements, starts, ends, sources]

    def table(self, batch: pa.Table, schema: pa.Schema) -> pa.Table:
        """The appended rows as one Arrow table of ``schema`` (the stage's
        ``DEID_OUTPUT_SCHEMA``); ``url`` / ``lang`` / ``pid`` pass through
        from ``batch``."""
        types = {field.name: field.type for field in schema}
        names = ("route", "error", "extracted_text", "context_hash", "clean_text", "n_bytes")
        names += ("t_extract_ms", "t_detect_ms", "t_replace_ms")
        columns = {
            name: pa.array(values, types[name])
            for name, values in zip(names, _transpose(self.docs, len(names)))
        }
        for name in ("url", "lang", "pid"):
            columns[name] = batch.column(name).cast(types[name])
        columns["entities"] = _list_of_structs(
            self.span_offsets, self._entity_columns(), ENTITY_FIELDS, types["entities"]
        )
        columns["events"] = _list_of_structs(
            self.event_offsets, self._event_columns(), EVENT_FIELDS, types["events"]
        )
        columns["n_spans"] = pc.list_value_length(columns["entities"]).cast(types["n_spans"])
        columns["n_chars"] = pc.utf8_length(columns["extracted_text"]).cast(types["n_chars"])
        return pa.Table.from_arrays([columns[name] for name in schema.names], schema=schema)

    def row(self, i: int) -> dict[str, Any]:
        """Row ``i`` as the ``process_document`` dict."""
        route, error, extracted, doc_hash, clean, n_bytes, t_ex, t_det, t_rep = self.docs[i]
        a, b = self.span_offsets[i], self.span_offsets[i + 1]
        entities = [
            dict(zip(ENTITY_FIELDS, values))
            for values in zip(*(column[a:b] for column in self._entity_columns()))
        ]
        a, b = self.event_offsets[i], self.event_offsets[i + 1]
        events = [
            dict(zip(EVENT_FIELDS, values))
            for values in zip(*(column[a:b] for column in self._event_columns()))
        ]
        return {
            "extracted_text": extracted,
            "context_hash": doc_hash,
            "clean_text": clean,
            "entities": entities,
            "events": events,
            "replacement_map": {
                replacement_key(ev["entity_type"], ev["original"]): ev["replacement"] for ev in events
            },
            "route": route,
            "error": error,
            "n_spans": len(entities),
            "n_chars": len(extracted),
            "n_bytes": n_bytes,
            "t_extract_ms": t_ex,
            "t_detect_ms": t_det,
            "t_replace_ms": t_rep,
        }


_NO_ANCHOR = (None, None, None)

# field order of the stage's ENTITY_STRUCT / EVENT_STRUCT (stages/deid.py)
ENTITY_FIELDS = (
    "type", "start", "end", "confidence", "source", "text", "page_index", "bbox", "cell_address",
)
EVENT_FIELDS = ("entity_type", "original", "replacement", "start", "end", "source")


def _transpose(rows: list[tuple], width: int) -> list:
    """Row tuples → ``width`` column sequences (empty ones for no rows)."""
    return list(zip(*rows)) if rows else [()] * width


def _list_of_structs(
    offsets: list[int], children: list, names: tuple[str, ...], list_type: pa.ListType
) -> pa.Array:
    struct = list_type.value_type
    if tuple(f.name for f in struct) != names:
        raise ValueError(f"struct fields {struct} do not match the kernel's {names}")
    values = pa.StructArray.from_arrays(
        [pa.array(column, f.type) for column, f in zip(children, struct)], fields=list(struct)
    )
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values, type=list_type)


def deid_table(batch: pa.Table, cfg: EngineConfig, schema: pa.Schema) -> pa.Table:
    """The fused deid stage over one Arrow batch (``url``, ``lang``,
    ``pid`` and optional ``html`` / ``text`` columns) → a ``schema`` table."""
    names = batch.column_names
    n = batch.num_rows
    urls = batch.column("url").to_pylist()
    langs = batch.column("lang").to_pylist()
    htmls = batch.column("html").to_pylist() if "html" in names else [None] * n
    texts = batch.column("text").to_pylist() if "text" in names else [None] * n
    cols = DeidColumns(cfg)
    add = cols.add
    for url, lang, html, text in zip(urls, langs, htmls, texts):
        add(html, text, url, lang or "zh")
    return cols.table(batch, schema)


def process_document(
    *,
    html: bytes | None = None,
    text: str | None = None,
    url: str | None = None,
    lang: str = "zh",
    cfg: EngineConfig | None = None,
) -> dict[str, Any]:
    """Run the full deid pipeline on one page; returns the output row dict.

    The same :class:`DeidColumns` core as the batch stage, read back as
    dicts: ``extracted_text, context_hash, clean_text, entities, events,
    replacement_map, route, error, n_spans, n_chars, n_bytes`` plus the
    per-stage ``t_*_ms`` timings.  ``replacement_map`` (the reference's
    DeidResult field, consumed by the docx/pptx/xlsx/csv rebuild sinks) is
    built here from ``events``; the batch stage never builds one."""
    cols = DeidColumns(cfg or EngineConfig())
    cols.add(html, text, url, lang)
    return cols.row(0)
