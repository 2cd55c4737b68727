"""Legacy spaCy + EntityRuler detector (A4) as a Ray Data actor-pool stage.

Ray-native restatement of the reference's legacy detector
(/root/reference/src/deid_pipeline/pii/detectors/legacy/spacy_detector.py:13-148,
off by default there — config.py:120):

- spaCy pipeline entities filtered through ``SPACY_TO_PII_TYPE``
  (spacy_detector.py:13-27), emitted with score 0.99 / source "spacy";
- the rule file's regex patterns injected as EntityRuler-style custom
  labels AND run as a separate full-text regex backstop with score 1.0 /
  source "regex" (spacy_detector.py:137-147);
- results sorted by span start, then composite-resolved like the
  reference's detector composition.

The spaCy model is a binary dependency absent here, so the pipeline loader
is import-gated; :class:`FakeSpacyPipeline` reproduces the ``doc.ents``
surface (vocabulary-driven NER + regex EntityRuler) so every mapping /
backstop / merge path is exercised without the library.
"""

from __future__ import annotations

import re
from typing import Any, Callable

import pyarrow as pa

from ..config import EngineConfig
from ..kernels.detect import compile_rules, resolve_conflicts

# spaCy label -> canonical PII type (spacy_detector.py:13-27)
SPACY_TO_PII_TYPE = {
    "PERSON": "NAME",
    "GPE": "ADDRESS",
    "LOC": "ADDRESS",
    "ORG": "ORGANIZATION",
    "PHONE": "PHONE",
    "ID": "ID",
    "PASSPORT": "PASSPORT",
    "UNIFIED_BUSINESS_NO": "UNIFIED_BUSINESS_NO",
    "EMAIL": "EMAIL",
    "ADDRESS": "ADDRESS",
    "MEDICAL_ID": "MEDICAL_ID",
}


class _Ent:
    """Minimal ``doc.ents`` element surface (label_, start_char, end_char)."""

    __slots__ = ("label_", "start_char", "end_char")

    def __init__(self, label: str, start: int, end: int):
        self.label_ = label
        self.start_char = start
        self.end_char = end


class FakeSpacyPipeline:
    """Deterministic ``nlp(text).ents`` stand-in: a small NER vocabulary
    (native spaCy labels) plus the injected EntityRuler patterns applied as
    whole-text regexes with their rule labels."""

    _VOCAB = {
        "john smith": "PERSON",
        "alice chen": "PERSON",
        "taipei": "GPE",
        "acme corp": "ORG",
    }

    def __init__(self, ruler_patterns: list[tuple[str, re.Pattern]] | None = None):
        self.ruler_patterns = ruler_patterns or []
        self._vocab_res = [
            (re.compile(re.escape(phrase), re.IGNORECASE), label)
            for phrase, label in self._VOCAB.items()
        ]

    def __call__(self, text: str):
        ents: list[_Ent] = []
        for pattern, label in self._vocab_res:
            for m in pattern.finditer(text):
                ents.append(_Ent(label, m.start(), m.end()))
        for label, pattern in self.ruler_patterns:
            for m in pattern.finditer(text):
                ents.append(_Ent(label, m.start(), m.end()))

        class _Doc:
            pass

        doc = _Doc()
        doc.ents = sorted(ents, key=lambda e: (e.start_char, e.end_char))
        return doc


def load_spacy_pipeline(model_name: str, ruler_patterns: list[tuple[str, re.Pattern]]):
    """Real spaCy path (import-gated): load the model and inject the rule
    patterns through an EntityRuler before 'ner', mirroring
    spacy_detector.py:89-121."""
    try:  # pragma: no cover - spaCy not installed in this environment
        import spacy  # type: ignore
    except ImportError as exc:
        raise NotImplementedError("spaCy is not installed; use FakeSpacyPipeline") from exc

    nlp = spacy.load(model_name)  # pragma: no cover
    if "ner" in nlp.pipe_names:  # pragma: no cover
        ruler = nlp.add_pipe("entity_ruler", before="ner")
    else:  # pragma: no cover
        ruler = nlp.add_pipe("entity_ruler")
    ruler.add_patterns(  # pragma: no cover
        [
            {"label": label, "pattern": [{"TEXT": {"REGEX": pattern.pattern}}]}
            for label, pattern in ruler_patterns
        ]
    )
    return nlp  # pragma: no cover


def spacy_detect(
    text: str,
    nlp,
    regex_patterns: list[tuple[str, re.Pattern]],
) -> list[dict[str, Any]]:
    """Exact ``SpacyDetector.detect`` semantics (spacy_detector.py:124-148):
    pipeline ents mapped through SPACY_TO_PII_TYPE (0.99, "spacy"), full
    regex backstop (1.0, "regex"), sorted by span start."""
    ents: list[dict[str, Any]] = []
    doc = nlp(text)
    for e in doc.ents:
        if e.label_ in SPACY_TO_PII_TYPE:
            ents.append(
                {
                    "span": (e.start_char, e.end_char),
                    "type": SPACY_TO_PII_TYPE[e.label_],
                    "score": 0.99,
                    "source": "spacy",
                }
            )
    for pii_type, pattern in regex_patterns:
        for m in pattern.finditer(text):
            ents.append(
                {
                    "span": (m.start(), m.end()),
                    "type": pii_type,
                    "score": 1.0,
                    "source": "regex",
                }
            )
    return sorted(ents, key=lambda e: e["span"][0])


def _rule_patterns(cfg: EngineConfig, lang: str) -> list[tuple[str, re.Pattern]]:
    compiled = compile_rules(str(cfg.rules_path(lang)))
    return [(ent_type, pattern) for ent_type, pattern, _ in compiled]


class SpacyDetectStage:
    """Actor-pool stage: the legacy detector over a text column.

    The pipeline (model + EntityRuler injection) builds ONCE per actor in
    ``__init__`` — the actor-pool equivalent of the reference's
    ``get_spacy_pipeline`` process cache (runtime/registry.py).  Usage::

        ds.map_batches(SpacyDetectStage, batch_format="pyarrow",
                       batch_size=64, concurrency=N, num_cpus=1)
    """

    def __init__(
        self,
        cfg: EngineConfig | None = None,
        pipeline_factory: Callable[[list[tuple[str, re.Pattern]]], Any] | None = None,
        lang: str = "zh",
    ):
        self.cfg = cfg or EngineConfig()
        self.lang = lang
        patterns = _rule_patterns(self.cfg, lang)
        self.patterns = patterns
        if pipeline_factory is not None:
            self.nlp = pipeline_factory(patterns)
        else:
            try:
                self.nlp = load_spacy_pipeline("zh_core_web_sm" if lang == "zh" else "en_core_web_sm", patterns)
            except NotImplementedError:
                self.nlp = FakeSpacyPipeline(
                    [(ent_type, pattern) for ent_type, pattern in patterns]
                )

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        out: list[list[dict[str, Any]]] = []
        for text in texts:
            text = text or ""
            detected = spacy_detect(text, self.nlp, self.patterns)
            resolved = resolve_conflicts(detected, self.cfg.entity_priority)
            out.append(
                [
                    {
                        "type": e["type"],
                        "start": int(e["span"][0]),
                        "end": int(e["span"][1]),
                        "confidence": float(e["score"]),
                        "source": e.get("source", "unknown"),
                        "text": text[int(e["span"][0]) : int(e["span"][1])],
                    }
                    for e in resolved
                ]
            )
        entity_struct = pa.struct(
            [
                ("type", pa.string()),
                ("start", pa.int64()),
                ("end", pa.int64()),
                ("confidence", pa.float64()),
                ("source", pa.string()),
                ("text", pa.string()),
            ]
        )
        return batch.append_column("entities", pa.array(out, pa.list_(entity_struct)))
