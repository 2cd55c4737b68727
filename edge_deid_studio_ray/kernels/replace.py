"""Deterministic replacement / masking kernels.

Reproduces the reference's replacement semantics
(/root/reference/src/deid_pipeline/pii/utils/replacer.py:41-102) and its
faker-free deterministic fallback provider
(fake_provider.py:83-173) as pure functions.

Why no cache: the reference routes every replacement through a process-global
LRU (replace/cache.py:13-53), but the cache key embeds
``(type, original, context_hash)`` and the factory is a pure function of that
key — so caching is correctness-neutral.  In a distributed engine a shared
mutable cache would be a cross-node liability for zero semantic gain; an
``lru_cache`` on the generator gives the same throughput win per worker.

Seeds use ``random.Random`` (Mersenne Twister), whose output sequence is
stable across Python versions/platforms by spec, so replacements are
reproducible cluster-wide.
"""

from __future__ import annotations

import hashlib
import random
import threading
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable

Entity = dict[str, Any]

_START = itemgetter(0)

_TW_LOCALES = {"zh_tw", "zh_hant_tw"}

_TW_NAMES = ["王小明", "陳怡君", "林志明", "張雅婷"]
_EN_NAMES = ["John Smith", "Alice Chen", "Michael Brown", "Emily Davis"]
_TW_ADDRESSES = ["台北市信義路1號", "新北市中山路10號", "台中市民生路99號"]


@lru_cache(maxsize=64)
def _is_tw(locale: str) -> bool:
    loc = str(locale or "en_US").lower()
    return loc.replace("-", "_") in _TW_LOCALES or "tw" in loc


def _placeholder(entity_type: str, stable_key: str) -> str:
    digest = hashlib.sha256(stable_key.encode("utf-8")).hexdigest()[:8]
    return f"<{entity_type}:{digest}>"


_TW_ID_LETTERS = "ABCDEFGHJKLMNPQRSTUVXYWZ"
_DIGITS = "0123456789"
_PASSPORT_PREFIXES = ("P", "PA", "PB")

# One generator per thread, reseeded per call: seeding replays the same
# Mersenne Twister state a fresh ``random.Random(seed)`` starts from, without
# building an object per surrogate.
_LOCAL = threading.local()


def _seeded_randbelow(seed: int) -> Callable[[int], int]:
    rng = getattr(_LOCAL, "rng", None)
    if rng is None:
        rng = _LOCAL.rng = random.Random()
    rng.seed(seed)
    return rng._randbelow


@lru_cache(maxsize=4096)
def fallback_generate(entity_type: str, original: str, context_hash: str, locale: str = "zh_TW") -> str:
    """Deterministic surrogate value for (type, original, context_hash).

    Byte-identical to the reference fallback path
    (fake_provider.py:83-173): seed = first 8 hex chars of
    sha256(f"{type}:{original}:{hash}"), then a fixed per-type sequence of
    ``random.Random`` draws.  The draw *order* is part of the contract.
    Draws go straight through ``_randbelow``, the primitive
    ``randint(a, b)`` (``a + _randbelow(b - a + 1)``) and ``choice(seq)``
    (``seq[_randbelow(len(seq))]``) delegate to, so every value equals the
    reference's ``randint`` / ``choice`` formula.
    """
    stable_key = f"{entity_type}:{original}:{context_hash}"
    below = _seeded_randbelow(int(hashlib.sha256(stable_key.encode("utf-8")).hexdigest()[:8], 16))
    is_tw = _is_tw(locale)

    if entity_type in {"ID", "TW_ID"}:
        if is_tw:
            letter = _TW_ID_LETTERS[below(24)]
            gender = "12"[below(2)]
            mid = "".join([_DIGITS[below(10)] for _ in range(7)])
            checksum = _DIGITS[below(10)]
            return f"{letter}{gender}{mid}{checksum}"
        return f"{below(1000):03d}-{below(100):02d}-{below(10000):04d}"

    if entity_type == "PHONE":
        if is_tw:
            return "09" + "".join([_DIGITS[below(10)] for _ in range(8)])
        return f"555-{100 + below(900):03d}-{below(10000):04d}"

    if entity_type == "EMAIL":
        return f"user{below(1000000):06d}@example.com"

    if entity_type == "UNIFIED_BUSINESS_NO":
        return f"{below(100000000):08d}"

    if entity_type == "PASSPORT":
        prefix = _PASSPORT_PREFIXES[below(3)]
        digits = "".join([_DIGITS[below(10)] for _ in range(7)])
        return f"{prefix}{digits}"

    if entity_type == "MEDICAL_ID":
        return "M" + "".join([_DIGITS[below(10)] for _ in range(7)])

    if entity_type == "CONTRACT_NO":
        return f"CN-{below(1000000):06d}"

    if entity_type == "ORGANIZATION":
        return f"Example Organization {1 + below(9999)}"

    if entity_type == "NAME":
        names = _TW_NAMES if is_tw else _EN_NAMES
        return names[below(len(names))]

    if entity_type == "ADDRESS":
        if is_tw:
            return _TW_ADDRESSES[below(len(_TW_ADDRESSES))]
        return f"{1 + below(999)} Main Street"

    return _placeholder(entity_type, stable_key)


class Provider:
    """Replacement-provider protocol — the ``Replacer(provider=)`` seam of
    the reference (pii/utils/replacer.py:12-14).  Implementations supply
    ``generate(entity_type, original, context_hash, locale) -> str``;
    determinism w.r.t. the arguments is required for cluster-wide
    reproducibility (faker/GPT-2 providers in the reference are
    version-dependent and therefore excluded from the byte-identity oracle —
    they plug in through this same seam)."""

    def generate(self, entity_type: str, original: str, context_hash: str, locale: str) -> str:
        raise NotImplementedError


class FallbackProvider(Provider):
    """Default provider: the reference's faker-free deterministic fallback
    (byte-identical to fake_provider.py:83-173)."""

    generate = staticmethod(fallback_generate)


class MaskProvider(Provider):
    """Type-tagged placeholder provider (``<TYPE:hash8>``) — a minimal
    injectable alternative that keeps outputs grep-able."""

    def generate(self, entity_type: str, original: str, context_hash: str, locale: str) -> str:
        return _placeholder(entity_type, f"{entity_type}:{original}:{context_hash}")


class Gpt2Provider(Provider):
    """Generate-style provider shell — the reference's GPT-2 surrogate path
    (fake_provider.py:184-223): prompt the causal LM with

        Replace the following {TYPE} value with a fictional value that fits
        the context: '{original}'.\\nReplacement:

    greedy-decode ``len(prompt)+20`` tokens, and take the text after the
    final ``Replacement:`` marker.

    Only the MODEL is import-gated: pass ``model_path`` to load a local HF
    checkpoint (transformers+torch, absent in this sandbox), or inject any
    ``(tokenizer, model)`` pair with the HF call shape —
    ``tokenizer(prompt, return_tensors=...)`` → ``.input_ids`` with
    ``.shape``, ``model.generate(input_ids, max_length=, do_sample=False,
    pad_token_id=)`` → sequences, ``tokenizer.decode(seq,
    skip_special_tokens=True)`` — so the whole prompting/decode path runs
    under test with a deterministic fake LM.  Determinism across workers
    requires a deterministic model (greedy decode, fixed weights); like the
    reference's GPT-2/faker paths it is therefore excluded from the
    byte-identity oracle and plugs in through the Provider seam."""

    MAX_NEW_TOKENS = 20  # reference: max_length = prompt_len + 20

    def __init__(self, model_path: str | None = None, *, tokenizer: Any = None, model: Any = None):
        if tokenizer is None or model is None:
            try:
                import torch  # type: ignore  # noqa: F401
                from transformers import (  # type: ignore
                    AutoModelForCausalLM,
                    AutoTokenizer,
                )
            except ImportError as exc:
                raise NotImplementedError(
                    "transformers/torch not installed; inject tokenizer=/model= "
                    "or use the 'fallback' provider"
                ) from exc
            tokenizer = AutoTokenizer.from_pretrained(str(model_path), local_files_only=True)
            model = AutoModelForCausalLM.from_pretrained(str(model_path), local_files_only=True)
            model.eval()
        self.tokenizer = tokenizer
        self.model = model

    def generate(self, entity_type: str, original: str, context_hash: str, locale: str) -> str:
        prompt = (
            f"Replace the following {entity_type} value with a fictional value "
            f"that fits the context: '{original}'.\nReplacement:"
        )
        inputs = self.tokenizer(prompt, return_tensors="pt")
        outputs = self.model.generate(
            inputs.input_ids,
            max_length=int(inputs.input_ids.shape[1]) + self.MAX_NEW_TOKENS,
            num_return_sequences=1,
            do_sample=False,
            pad_token_id=getattr(self.tokenizer, "eos_token_id", 0),
        )
        generated = self.tokenizer.decode(outputs[0], skip_special_tokens=True)
        if "Replacement:" in generated:
            return generated.split("Replacement:", 1)[-1].strip()
        return generated.replace(prompt, "").strip()


_PROVIDERS: dict[str, type[Provider]] = {
    "fallback": FallbackProvider,
    "mask": MaskProvider,
    "gpt2": Gpt2Provider,
}


def register_provider(name: str, cls: type[Provider]) -> None:
    """Register an injectable provider class (resolved per worker by name so
    frozen configs stay small and picklable)."""
    _PROVIDERS[name] = cls


@lru_cache(maxsize=16)
def get_provider(name: str) -> Provider:
    try:
        return _PROVIDERS[name]()
    except KeyError:
        raise KeyError(f"unknown provider {name!r}; registered: {sorted(_PROVIDERS)}") from None


def splice_spans(
    text: str,
    spans: list[tuple],
    *,
    blackbox: bool,
    generate: Callable[[str, str, str, str], str],
    context_hash: str,
    locale: str,
) -> tuple[str, list[tuple[Any, str | None, str | None, int, int, Any]]]:
    """Replace or mask ``(start, end, type, score, source)`` spans; returns
    ``(new_text, events)`` with events ``(type, original, replacement,
    start, start + len(replacement), source)`` in processing order.

    Semantics of replacer.py:41-102:

    - spans are processed in **descending span-start order** (a stable
      sort, so equal starts keep their input order) and spliced
      right-to-left, so earlier (left) offsets stay valid;
    - replace mode: surrogate from ``generate(type, original,
      context_hash, locale)``; the event span's start is an original-text
      offset while its width is the replacement's;
    - blackbox mode: length-preserving ``"█" * (end - start)`` fill; events
      carry no original/replacement (``None``), so they are dropped from
      replacement maps downstream (DeidPipeline.process, __init__.py:100-117).

    The text is cut into pieces and joined once.  A span that overlaps the
    previous splice cuts into the already-spliced tail, exactly as
    sequential ``text[:start] + replacement + text[end:]`` splicing does.
    """
    events: list[tuple] = []
    pieces: list[str] = []  # the spliced tail, back to front
    cur = len(text)  # text[:cur] is untouched
    for start, end, typ, _score, source in sorted(spans, key=_START, reverse=True):
        if blackbox:
            replacement = "█" * (end - start)
            events.append((typ, None, None, start, start + len(replacement), source))
        else:
            original = text[start:end]
            typ = str(typ)
            replacement = generate(typ, original, context_hash, locale)
            events.append((typ, original, replacement, start, start + len(replacement), source))
        if end <= cur:
            pieces.append(text[end:cur])
        else:
            tail = "".join(reversed(pieces))
            pieces = [tail[end - cur :]]
        pieces.append(replacement)
        cur = start
    pieces.append(text[:cur])
    pieces.reverse()
    return "".join(pieces), events


def is_blackbox(mode: str | None) -> bool:
    return (mode or "").strip().lower() in {"blackbox", "black", "redact", "mask"}


def replace_text(
    text: str,
    entities: list[Entity],
    mode: str = "replace",
    *,
    context_hash: str | None = None,
    locale: str = "zh_TW",
    provider: Provider | None = None,
) -> tuple[str, list[dict[str, Any]]]:
    """:func:`splice_spans` over entity dicts; returns ``(new_text, events)``.

    Replace-mode events are ``{"original", "replacement", "type", "span",
    "source"}``; blackbox events ``{"type", "span", "source"}``.  Without a
    ``context_hash`` the text's sha256 seeds the surrogates."""
    blackbox = is_blackbox(mode)
    spans = [
        (e["span"][0], e["span"][1], e["type"], None, e.get("source", "unknown")) for e in entities
    ]
    new_text, events = splice_spans(
        text,
        spans,
        blackbox=blackbox,
        generate=(provider or get_provider("fallback")).generate,
        context_hash=context_hash
        or ("" if blackbox else hashlib.sha256(text.encode("utf-8", errors="replace")).hexdigest()),
        locale=locale,
    )
    if blackbox:
        return new_text, [
            {"type": typ, "span": (start, end), "source": source}
            for typ, _o, _r, start, end, source in events
        ]
    return new_text, [
        {
            "original": original,
            "replacement": replacement,
            "type": typ,
            "span": (start, end),
            "source": source,
        }
        for typ, original, replacement, start, end, source in events
    ]
