"""Layout-aware PDF block extraction.

The reference extracts PDFs with PyMuPDF ``page.get_text("blocks",
sort=True)``, keeping text blocks (``block[6] == 0``), stripping each block,
skipping empties, and joining with ``"\\n"`` while recording per-block
``page_index`` + integer bbox anchors
(/root/reference/src/deid_pipeline/handlers/pdf.py:13-42).

PyMuPDF is not available in this environment, so:

- Real ``%PDF-`` payloads route through :func:`fitz_extract_blocks` which is
  import-gated; without the library the row is flagged
  (``extract_error="pdf_backend_unavailable"``) instead of crashing the task.
- The synthetic pages table (sources/pages.py) embeds a deterministic
  *faux-PDF* payload — header line ``%PDF-GRAFT1`` followed by one JSON block
  record per line: ``{"page": int, "bbox": [l, t, r, b], "btype": int,
  "text": str}``.  :func:`graft_pdf_extract_blocks` parses it with the same
  block semantics (type filter, strip, sort by (page, top, left) mirroring
  ``sort=True`` reading order).
"""

from __future__ import annotations

import json
from typing import Any

GRAFT_PDF_HEADER = b"%PDF-GRAFT1"


def is_pdf(raw: bytes) -> bool:
    return raw.startswith(b"%PDF-")


def is_graft_pdf(raw: bytes) -> bool:
    return raw.startswith(GRAFT_PDF_HEADER)


def graft_pdf_extract_blocks(raw: bytes) -> list[dict[str, Any]]:
    """Parse the faux-PDF payload into ordered segment specs."""
    text = raw.decode("utf-8", errors="replace")
    lines = text.split("\n")[1:]  # drop header
    blocks: list[tuple[int, int, int, dict[str, Any]]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if int(rec.get("btype", 0)) != 0:  # non-text block (image etc.)
            continue
        block_text = str(rec.get("text", "")).strip()
        if not block_text:
            continue
        left, top, right, bottom = (int(v) for v in rec.get("bbox", (0, 0, 0, 0)))
        blocks.append(
            (
                int(rec.get("page", 0)),
                top,
                left,
                {
                    "text": block_text,
                    "page_index": int(rec.get("page", 0)),
                    "bbox": (left, top, right, bottom),
                },
            )
        )
    # reading order: page, then top-to-bottom, left-to-right (sort=True)
    blocks.sort(key=lambda b: (b[0], b[1], b[2]))
    return [b[3] for b in blocks]


def fitz_extract_blocks(raw: bytes) -> list[dict[str, Any]]:
    """Real-PDF path via PyMuPDF, when the library is installed."""
    try:
        import fitz  # type: ignore
    except ImportError as exc:  # pragma: no cover - env without PyMuPDF
        raise NotImplementedError("PyMuPDF is not installed; real PDF payloads unsupported") from exc

    doc = fitz.open(stream=raw, filetype="pdf")  # pragma: no cover
    specs: list[dict[str, Any]] = []
    for page_index in range(len(doc)):
        page = doc.load_page(page_index)
        for block in page.get_text("blocks", sort=True):
            if len(block) < 7 or block[6] != 0:
                continue
            block_text = str(block[4]).strip()
            if not block_text:
                continue
            specs.append(
                {
                    "text": block_text,
                    "page_index": page_index,
                    "bbox": (int(block[0]), int(block[1]), int(block[2]), int(block[3])),
                }
            )
    return specs


def pdf_parse(raw: bytes) -> tuple[list[dict[str, Any]], int]:
    """Route a PDF payload to the best available parser; returns
    (block specs, num_pages).

    Order: faux-PDF fixture format → PyMuPDF when installed → the
    pure-Python :mod:`minipdf` parser for simple real PDFs (uncompressed or
    FlateDecode content streams).  Raises NotImplementedError only when the
    payload yields neither pages nor blocks (encrypted/exotic PDFs without
    PyMuPDF) — callers flag those rows ``pdf_backend_unavailable``.
    num_pages includes pages that yielded no text: the OCR-fallback set.
    """
    if is_graft_pdf(raw):
        specs = graft_pdf_extract_blocks(raw)
        num_pages = max((s["page_index"] for s in specs), default=0) + 1
        return specs, num_pages
    try:
        specs = fitz_extract_blocks(raw)
        num_pages = max((s["page_index"] for s in specs), default=0) + 1
        return specs, num_pages
    except NotImplementedError:
        from .minipdf import minipdf_parse

        specs, num_pages = minipdf_parse(raw)
        if not specs and num_pages == 0:
            raise NotImplementedError(
                "PDF has no parseable page tree/content streams (minipdf) and PyMuPDF is not installed"
            ) from None
        return specs, num_pages
