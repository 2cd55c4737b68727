"""The columnar fused deid stage against its per-document form, and the
reseeded surrogate generator against the reference ``randint`` formula."""

from __future__ import annotations

import hashlib
import random

import pyarrow as pa
import pytest

from edge_deid_studio_ray.kernels.docpipe import process_document
from edge_deid_studio_ray.kernels.replace import fallback_generate
from edge_deid_studio_ray.sources.pages import synthesize_page
from edge_deid_studio_ray.stages.deid import DEID_OUTPUT_SCHEMA, add_pid, make_deid_batch_fn
from tests.test_deid_golden import _cfg

TIMINGS = {"t_extract_ms", "t_detect_ms", "t_replace_ms"}
PER_DOC = [n for n in DEID_OUTPUT_SCHEMA.names if n not in TIMINGS | {"url", "lang", "pid"}]


def _mixed_rows() -> list[dict]:
    """Every lang shape, empty and null text, csv / faux PDF / real PDF
    rows (anchored spans) and a doc without any entity."""
    rows = [
        {"url": "u/zh", "html": None, "text": "身分證 A123456789 電話 0912-345-678", "lang": "zh"},
        {"url": "u/en", "html": None, "text": "call 555-123-4567 or mail a@b.com", "lang": "en"},
        {"url": "u/zh-TW", "html": None, "text": "統一編號 12345678 與 A223456789", "lang": "zh-TW"},
        {"url": "u/null-lang", "html": None, "text": "A123456789 then a@b.com", "lang": None},
        {"url": "u/empty", "html": None, "text": "", "lang": "en"},
        {"url": "u/null", "html": None, "text": None, "lang": "zh"},
        {"url": "u/none-found", "html": None, "text": "plain words only", "lang": "en"},
        {"url": "u/html", "html": "<p>id A123456789</p>".encode(), "text": None, "lang": "zh"},
    ]
    for i in (57, 63, 14, 122, 189):  # csv zh, csv en, real PDF zh, faux PDF, real PDF en
        page = synthesize_page(i)
        rows.append({k: page[k] for k in ("url", "html", "text", "lang")})
    return rows


def _batch(rows: list[dict]) -> pa.Table:
    return pa.table(
        {
            "url": pa.array([r["url"] for r in rows], pa.string()),
            "html": pa.array([r["html"] for r in rows], pa.binary()),
            "text": pa.array([r["text"] for r in rows], pa.string()),
            "lang": pa.array([r["lang"] for r in rows], pa.string()),
        }
    )


@pytest.mark.parametrize("name", ["default", "blackbox", "ner_overlap"])
@pytest.mark.parametrize("with_pid", [True, False])
def test_batch_equals_process_document(name, with_pid):
    cfg = _cfg(name)
    rows = _mixed_rows()
    batch = _batch(rows)
    if with_pid:
        batch = add_pid(batch, num_partitions=cfg.num_partitions)
    out = make_deid_batch_fn(cfg)(batch)

    assert out.schema == DEID_OUTPUT_SCHEMA
    expected_pids = add_pid(_batch(rows), num_partitions=cfg.num_partitions)["pid"].to_pylist()
    assert out["pid"].to_pylist() == expected_pids
    assert out["url"].to_pylist() == [r["url"] for r in rows]
    assert out["lang"].to_pylist() == [r["lang"] for r in rows]

    anchored = 0
    for row, got in zip(rows, out.to_pylist()):
        want = process_document(
            html=row["html"], text=row["text"], url=row["url"], lang=row["lang"] or "zh", cfg=cfg
        )
        assert {k: got[k] for k in PER_DOC} == {k: want[k] for k in PER_DOC}, row["url"]
        anchored += sum(
            e["page_index"] is not None or e["cell_address"] is not None for e in got["entities"]
        )
    assert anchored > 0

    by_url = dict(zip(out["url"].to_pylist(), out.to_pylist()))
    for url in ("u/none-found", "u/empty", "u/null"):
        assert by_url[url]["entities"] == [] and by_url[url]["events"] == []
        assert by_url[url]["n_spans"] == 0
    assert out["entities"].null_count == 0 and out["events"].null_count == 0


def test_zero_row_batch_keeps_schema():
    empty = pa.table({"url": pa.array([], pa.string()), "lang": pa.array([], pa.string())})
    for batch in (empty, add_pid(empty, num_partitions=64)):
        out = make_deid_batch_fn()(batch)
        assert out.num_rows == 0
        assert out.schema == DEID_OUTPUT_SCHEMA


def test_replacement_map_from_events():
    row = process_document(text="A123456789 and A123456789, 0912-345-678", lang="zh")
    assert row["replacement_map"] == {
        f"{e['entity_type']}:{e['original']}": e["replacement"] for e in row["events"]
    }
    assert len(row["replacement_map"]) == 2


# ---------------------------------------------------------------- surrogates


def _reference_generate(entity_type: str, original: str, context_hash: str, locale: str) -> str:
    """The fallback surrogate formula as the reference writes it
    (fake_provider.py:83-173): a fresh ``random.Random`` per value and
    ``randint`` / ``choice`` draws."""
    stable_key = f"{entity_type}:{original}:{context_hash}"
    seed = int(hashlib.sha256(stable_key.encode("utf-8")).hexdigest()[:8], 16)
    rng = random.Random(int(seed))
    loc = str(locale or "en_US").lower()
    is_tw = loc.replace("-", "_") in {"zh_tw", "zh_hant_tw"} or "tw" in loc

    if entity_type in {"ID", "TW_ID"}:
        if is_tw:
            letter = rng.choice("ABCDEFGHJKLMNPQRSTUVXYWZ")
            gender = rng.choice(["1", "2"])
            mid = "".join(str(rng.randint(0, 9)) for _ in range(7))
            checksum = str(rng.randint(0, 9))
            return f"{letter}{gender}{mid}{checksum}"
        return f"{rng.randint(0, 999):03d}-{rng.randint(0, 99):02d}-{rng.randint(0, 9999):04d}"
    if entity_type == "PHONE":
        if is_tw:
            return "09" + "".join(str(rng.randint(0, 9)) for _ in range(8))
        return f"555-{rng.randint(100, 999):03d}-{rng.randint(0, 9999):04d}"
    if entity_type == "EMAIL":
        return f"user{rng.randint(0, 999999):06d}@example.com"
    if entity_type == "UNIFIED_BUSINESS_NO":
        return f"{rng.randint(0, 99999999):08d}"
    if entity_type == "PASSPORT":
        prefix = rng.choice(["P", "PA", "PB"])
        digits = "".join(str(rng.randint(0, 9)) for _ in range(7))
        return f"{prefix}{digits}"
    if entity_type == "MEDICAL_ID":
        digits = "".join(str(rng.randint(0, 9)) for _ in range(7))
        return f"M{digits}"
    if entity_type == "CONTRACT_NO":
        return f"CN-{rng.randint(0, 999999):06d}"
    if entity_type == "ORGANIZATION":
        return f"Example Organization {rng.randint(1, 9999)}"
    if entity_type == "NAME":
        return rng.choice(["王小明", "陳怡君", "林志明", "張雅婷"]) if is_tw else rng.choice(
            ["John Smith", "Alice Chen", "Michael Brown", "Emily Davis"]
        )
    if entity_type == "ADDRESS":
        if is_tw:
            return rng.choice(["台北市信義路1號", "新北市中山路10號", "台中市民生路99號"])
        return f"{rng.randint(1, 999)} Main Street"
    digest = hashlib.sha256(stable_key.encode("utf-8")).hexdigest()[:8]
    return f"<{entity_type}:{digest}>"


SURROGATE_TYPES = [
    "ID", "TW_ID", "PHONE", "EMAIL", "UNIFIED_BUSINESS_NO", "PASSPORT",
    "MEDICAL_ID", "CONTRACT_NO", "ORGANIZATION", "NAME", "ADDRESS", "OTHER",
]


@pytest.mark.parametrize("locale", ["zh_TW", "en_US"])
@pytest.mark.parametrize("entity_type", SURROGATE_TYPES)
def test_fallback_generate_equals_randint_formula(entity_type, locale):
    generate = fallback_generate.__wrapped__  # the generator, not its cache
    for i in range(10_000):
        original, ctx = f"v{i}", f"{i * 7919:x}"
        assert generate(entity_type, original, ctx, locale) == _reference_generate(
            entity_type, original, ctx, locale
        ), (entity_type, locale, i)


# ------------------------------------------------- span cores vs dict logic


def _reference_resolve(entities, priorities):
    """Sequential last-kept resolution over entity dicts (composite.py:35-106)."""

    def pick(a, b):
        ap, bp = priorities.get(a["type"], 50), priorities.get(b["type"], 50)
        if ap != bp:
            return a if ap > bp else b
        if a["score"] != b["score"]:
            return a if a["score"] > b["score"] else b
        if len(a.get("source", "")) != len(b.get("source", "")):
            return a if len(a.get("source", "")) < len(b.get("source", "")) else b
        return a

    resolved = []
    for entity in sorted(entities, key=lambda e: e["span"][0]):
        if not resolved:
            resolved.append(entity)
            continue
        last = resolved[-1]
        (ls, le), (cs, ce) = last["span"], entity["span"]
        if cs >= le:
            resolved.append(entity)
            continue
        overlap = max(0, min(le, ce) - cs)
        if overlap / min(max(1, le - ls), max(1, ce - cs)) <= 0.5:
            resolved.append(entity)
        elif pick(last, entity) is entity:
            resolved[-1] = entity
    return resolved


def _reference_splice(text, entities, blackbox, generate):
    """Right-to-left sequential splicing (replacer.py:41-102)."""
    new_text, events = text, []
    for ent in sorted(entities, key=lambda e: e["span"][0], reverse=True):
        start, end = ent["span"]
        if blackbox:
            replacement = "█" * (end - start)
        else:
            replacement = generate(str(ent["type"]), text[start:end], "ctx", "zh_TW")
        new_text = new_text[:start] + replacement + new_text[end:]
        events.append((start, start + len(replacement), replacement))
    return new_text, events


def _random_entities(rng: random.Random, n_chars: int) -> list[dict]:
    out = []
    for _ in range(rng.randint(0, 12)):
        start = rng.randint(0, n_chars)
        end = min(n_chars, start + rng.randint(0, 9))
        out.append(
            {
                "span": (start, end),
                "type": rng.choice(["ID", "PHONE", "NAME", "EMAIL", "OTHER"]),
                "score": rng.choice([0.5, 0.9, 1.0]),
                "source": rng.choice(["regex", "bert", "regex_stub"]),
            }
        )
    return out


def test_span_cores_equal_dict_logic():
    """Resolution keeps the same entities, and splicing (overlapping,
    nested and equal-start spans, both modes) gives the same text and
    events as sequential splicing."""
    from edge_deid_studio_ray.config import ENTITY_PRIORITY
    from edge_deid_studio_ray.kernels.detect import resolve_conflicts
    from edge_deid_studio_ray.kernels.replace import MaskProvider, replace_text

    generate = MaskProvider().generate
    rng = random.Random(7)
    for _ in range(3000):
        text = "".join(rng.choice("ab12 中文") for _ in range(rng.randint(0, 40)))
        entities = _random_entities(rng, len(text))
        kept = resolve_conflicts(entities, ENTITY_PRIORITY)
        assert kept == _reference_resolve(entities, ENTITY_PRIORITY)
        for spans in (kept, entities):
            for blackbox in (False, True):
                clean, events = replace_text(
                    text,
                    spans,
                    "blackbox" if blackbox else "replace",
                    context_hash="ctx",
                    provider=MaskProvider(),
                )
                want_text, want_events = _reference_splice(text, spans, blackbox, generate)
                assert clean == want_text
                assert [e["span"] for e in events] == [ev[:2] for ev in want_events]
                if not blackbox:
                    assert [e["replacement"] for e in events] == [ev[2] for ev in want_events]


def test_fallback_generate_threads_do_not_share_draws():
    """Each thread reseeds its own generator: concurrent callers get the
    reference values."""
    import sys
    import threading

    generate = fallback_generate.__wrapped__
    keys = [(t, f"v{i}", f"{i:x}") for i in range(1500) for t in ("ID", "PHONE", "PASSPORT")]
    want = [_reference_generate(t, o, c, "zh_TW") for t, o, c in keys]
    bad: list[int] = []

    def run() -> None:
        got = [generate(t, o, c, "zh_TW") for t, o, c in keys]
        bad.append(sum(g != w for g, w in zip(got, want)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert bad == [0] * 8
