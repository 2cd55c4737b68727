"""Committed goldens for the de-identification surface.

``tests/golden/deid_hashes.json`` pins, per url of a fixed set of
``synthesize_page`` rows, md5s of every value-bearing output column of the
fused deid stage (``extracted_text``, ``context_hash``, ``clean_text``, the
full ``entities`` rows, the ``events`` rows) plus ``route``, ``error``,
``n_spans``, ``n_chars`` and ``n_bytes``, under five engine configs (the fifth runs an overlapping NER backend
defined here).  The
page set covers every route the page generator emits: html (including
malformed UTF-8), pre-extracted text, csv, faux and real PDF (simple and
CID fonts) and one mega page.

``process_document`` and the batch stage share one per-document core, so
comparing them with each other cannot catch a change to that core; these
goldens can.  They need no Ray session and no reference tree.

Regenerate on purpose only (an intended output change)::

    python tests/test_deid_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys

import pyarrow as pa
import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "deid_hashes.json")

# (row id, mega_every): the first 64 rows (html, text, a csv, a real PDF),
# then extra csv / faux-PDF / real-PDF rows and one mega page
PAGES = (
    [(i, 0) for i in range(64)]
    + [(i, 0) for i in (327, 331, 357, 122, 132, 163, 179, 189, 239, 262)]
    + [(2000, 2000)]
)



class OverlapNerBackend:
    """Deterministic NER stand-in whose spans overlap the regex rules'
    matches at every ratio: digit runs widened left (NAME, score 0.9) and
    long words (ORGANIZATION, score 1.0), so resolution hits the priority,
    score and source-length tie-breaks and keeps some overlapping pairs,
    which the replace splice then has to handle.  The page generator's own
    text gives the stub backend nothing the regex rules do not already win."""

    DIGITS = re.compile(r"\d{3,}")
    WORDS = re.compile(r"[A-Za-z]{6,}")

    def detect_chunk(self, text: str, offset: int) -> list[dict]:
        out = []
        for m in self.DIGITS.finditer(text):
            start = max(0, m.start() - 2)
            out.append(
                {"span": [start + offset, m.end() - 1 + offset], "type": "NAME", "score": 0.9, "source": "bert"}
            )
        for m in self.WORDS.finditer(text):
            out.append(
                {"span": [m.start() + offset, m.end() + offset], "type": "ORGANIZATION", "score": 1.0, "source": "ner"}
            )
        return out


CONFIGS = {
    "default": {},
    "blackbox": {"mode": "blackbox"},
    "mask": {"provider_name": "mask"},
    "ner_stub": {"ner_backend": "stub"},
    "ner_overlap": {"ner_backend": "golden_overlap"},
}

MD5_COLUMNS = ("extracted_text", "context_hash", "clean_text", "entities", "events")
PLAIN_COLUMNS = ("route", "error", "n_spans", "n_chars", "n_bytes")


def _md5(value) -> str:
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True)
    return hashlib.md5(value.encode("utf-8", "surrogatepass")).hexdigest()


def row_fingerprint(row: dict) -> dict:
    """The pinned view of one output row (``process_document`` dict or a
    batch-stage row)."""
    out = {c: _md5(row[c]) for c in MD5_COLUMNS}
    out.update({c: row[c] for c in PLAIN_COLUMNS})
    return out


def _pages() -> list[dict]:
    from edge_deid_studio_ray.sources.pages import synthesize_page

    return [synthesize_page(i, mega_every=m) for i, m in PAGES]


def _cfg(name: str):
    from edge_deid_studio_ray.config import EngineConfig
    from edge_deid_studio_ray.stages.ner import register_ner_backend

    register_ner_backend("golden_overlap", OverlapNerBackend)

    return EngineConfig(**CONFIGS[name])


def per_document(name: str, pages: list[dict]) -> dict[str, dict]:
    from edge_deid_studio_ray.kernels.docpipe import process_document

    cfg = _cfg(name)
    return {
        p["url"]: row_fingerprint(
            process_document(
                html=p["html"], text=p["text"], url=p["url"], lang=p["lang"] or "zh", cfg=cfg
            )
        )
        for p in pages
    }


def batched(name: str, pages: list[dict]) -> dict[str, dict]:
    from edge_deid_studio_ray.stages.deid import make_deid_batch_fn

    fn = make_deid_batch_fn(_cfg(name))
    out: dict[str, dict] = {}
    for lo in range(0, len(pages), 32):
        chunk = pages[lo : lo + 32]
        batch = pa.table(
            {
                "url": pa.array([p["url"] for p in chunk], pa.string()),
                "html": pa.array([p["html"] for p in chunk], pa.binary()),
                "text": pa.array([p["text"] for p in chunk], pa.string()),
                "lang": pa.array([p["lang"] for p in chunk], pa.string()),
            }
        )
        for row in fn(batch).to_pylist():
            out[row["url"]] = row_fingerprint(row)
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def pages() -> list[dict]:
    return _pages()


def test_golden_covers_every_route(golden):
    routes = {row["route"] for row in golden["default"].values()}
    assert routes == {"html", "text", "csv", "pdf"}
    assert set(golden) == set(CONFIGS)
    assert all(len(rows) == len(PAGES) for rows in golden.values())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_process_document_matches_golden(name, golden, pages):
    assert per_document(name, pages) == golden[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batch_stage_matches_golden(name, golden, pages):
    assert batched(name, pages) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_deid_golden.py --write")
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    all_pages = _pages()
    data = {name: per_document(name, all_pages) for name in sorted(CONFIGS)}
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}: {len(CONFIGS)} configs x {len(all_pages)} pages")
