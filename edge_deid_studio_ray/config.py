"""Engine configuration.

Mirrors the *behavioral* knobs of the reference configuration
(``/root/reference/src/deid_pipeline/config.py:42-149``) that affect the
deterministic default pipeline (regex detection + deterministic fallback
replacement, ``USE_STUB=true`` test matrix per
``/root/reference/tests/conftest.py:8-29``).  Model paths / OCR / GPU knobs of
the reference are irrelevant here: stateful backends are injected explicitly
into pipeline builders instead of being read from env vars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

RULES_DIR = Path(__file__).resolve().parent / "rules"


def cluster_cpus() -> int:
    """CPU count of the live Ray cluster, or 0 when Ray is not initialised."""
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", 0) or 0)
    except Exception:
        pass
    return 0


import logging as _logging


class _EmptySchemaDivergence(_logging.Filter):
    # module-level so install_empty_schema_log_filter's isinstance
    # idempotence check matches filters installed by PREVIOUS calls
    # (a per-call class object never matches, stacking duplicates)
    def filter(self, record: _logging.LogRecord) -> bool:  # noqa: A003
        msg = record.getMessage()
        if "RefBundle with a different schema" not in msg:
            return True
        # an empty Arrow schema renders as nothing between the markers;
        # an empty pandas block renders as PandasBlockSchema(names=[]...)
        return not (
            "new schema: . This may" in msg
            or "Previous schema: ," in msg
            or "new schema: PandasBlockSchema(names=[]" in msg
            or "Previous schema: PandasBlockSchema(names=[]" in msg
        )


def install_empty_schema_log_filter() -> None:
    """Drop Ray Data's "RefBundle with a different schema" warning ONLY when
    one side of the comparison is an *empty* schema.

    The sort behind every ``cogroup`` (and a Repartition) range-partitions
    into ~num-input-blocks output partitions, and the one behind
    ``group_agg`` into one per CPU (two at least); when the key cardinality
    is below that (tiny dimensions, low-cardinality grouped aggregates at
    test scale), the empty partitions carry a schema-less block and Ray's
    executor warns once per empty bundle
    (streaming_executor_state.py:793): 25 of the 55 "different schema"
    warnings of an sf0.001 sweep at 1 CPU.  That is a known small-data
    artifact, not real divergence — a genuinely different non-empty schema
    still warns.  Idempotent; call from entry points (bench.py,
    __ray_entry__, cli), never on library import.
    """
    logger = _logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    )
    if not any(isinstance(f, _EmptySchemaDivergence) for f in logger.filters):
        logger.addFilter(_EmptySchemaDivergence())


# Conflict-resolution priorities; unknown types default to 50.
# Semantics of /root/reference/src/deid_pipeline/config.py:127-137.
ENTITY_PRIORITY: dict[str, int] = {
    "ID": 100,
    "PASSPORT": 95,
    "PHONE": 90,
    "UNIFIED_BUSINESS_NO": 85,
    "EMAIL": 80,
    "NAME": 75,
    "ADDRESS": 70,
    "ORGANIZATION": 65,
    "MEDICAL_ID": 60,
}
DEFAULT_PRIORITY = 50

# Overlap threshold for composite conflict resolution
# (/root/reference/src/deid_pipeline/pii/detectors/composite.py:49).
OVERLAP_THRESHOLD = 0.5


@dataclass(frozen=True)
class EngineConfig:
    """Immutable pipeline configuration, captured in task closures.

    A frozen snapshot replaces the reference's hot-reloading env-var driven
    ``Config`` class: on a multi-node cluster every task must see the same
    rules, so the config is resolved once on the driver and shipped in the
    function closure (small: a few KiB of YAML).
    """

    # regex rule file per language (same rule semantics as the reference's
    # configs/regex_zh.yaml / regex_en.yaml).
    rules_zh: Path = RULES_DIR / "regex_zh.yaml"
    rules_en: Path = RULES_DIR / "regex_en.yaml"

    # replacement provider locale (reference default FAKER_LOCALE=zh_TW,
    # config.py:122).
    faker_locale: str = "zh_TW"

    # "replace" or "blackbox"
    mode: str = "replace"

    # replacement provider (Replacer(provider=) seam, replacer.py:12-14):
    # a name resolved per worker through kernels.replace.get_provider so the
    # frozen config stays picklable; "fallback" = the deterministic
    # byte-identity provider, "mask" = type-tagged placeholders; register
    # custom classes with register_provider().
    provider_name: str = "fallback"

    # main-content extraction: "full" = BeautifulSoup-get_text parity;
    # "main_content" = boilerplate-stripping DOM heuristics (north-star cap 1,
    # validated against our own golden outputs — the reference has no such mode).
    extract_mode: str = "full"

    # PDF OCR fallback (reference text_extractor.py:155-183 + config.py:96):
    # pages whose extracted text is shorter than ocr_threshold chars are
    # re-read through the OCR backend named here ("fake" = deterministic
    # FakeOcrBackend; real engines are import-gated).  None disables the
    # fallback (this environment has no rasterizer, so it is opt-in).
    pdf_ocr: str | None = None
    ocr_threshold: int = 50        # OCR_THRESHOLD, config.py:96

    # NER stage (None = regex-only, the reference's USE_STUB default matrix)
    ner_backend: str | None = None
    ner_window: int = 512          # MAX_SEQ_LENGTH, config.py:102
    ner_stride: float = 0.5        # WINDOW_STRIDE, config.py:103
    ner_confidence: float = 0.85   # BERT_CONFIDENCE_THRESHOLD, config.py:101

    # physical execution
    num_partitions: int = 64       # url-hash partition count (pid = hash(url) % P)
    batch_size: int = 256          # rows per batch for the fused deid stage
    entity_priority: dict[str, int] = field(default_factory=lambda: dict(ENTITY_PRIORITY))

    def rules_path(self, lang: str) -> Path:
        # normalize the BCP-47 primary subtag first: real-world corpora label
        # Chinese pages 'zh-TW'/'zh_Hant'/'ZH', and routing those to the
        # English rules silently skips every Taiwanese PII pattern.  The
        # reference compares lang == 'zh' exactly (detectors/__init__.py:32)
        # but only ever receives bare codes, so this is parity-neutral.
        primary = (lang or "").replace("_", "-").split("-", 1)[0].lower()
        return self.rules_zh if primary == "zh" else self.rules_en
