"""Regex PII detection + composite conflict resolution.

Reproduces the semantics of the reference detectors
(/root/reference/src/deid_pipeline/pii/detectors/regex_detector.py:23-89 and
composite.py:35-106) as pure functions.  Differences by design:

- Rules are compiled ONCE from a config snapshot (per worker, memoized on the
  rules-file path) instead of the reference's per-call mtime hot-reload — on a
  multi-node cluster every task must see one immutable rule set.
- Detection and resolution run on plain span tuples ``(start, end, type,
  score, source)`` with **Python code-point offsets** (not UTF-8 bytes);
  :func:`regex_detect` / :func:`resolve_conflicts` are the dict adapters
  for the reference entity contract ``{"span": (start, end), "type",
  "score", "source"}`` (pii/utils/base.py:6-28).
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Any

import yaml

from ..config import DEFAULT_PRIORITY, ENTITY_PRIORITY, OVERLAP_THRESHOLD

Entity = dict[str, Any]
# (start, end, type, score, source)
Span = tuple[int, int, str, float, str]
# (type, compiled pattern, prescreen literals)
Rule = tuple[str, re.Pattern[str], tuple[str, ...]]

_START = itemgetter(0)


def _parse_flags(spec: str) -> int:
    """Resolve ``"IGNORECASE|MULTILINE"``-style flag strings to re flags."""
    flags = 0
    for name in spec.split("|"):
        name = name.strip().upper()
        if hasattr(re, name):
            flags |= getattr(re, name)
    return flags


def load_rules(path: str | Path) -> list[tuple[str, str, int]]:
    """Parse a YAML rule file into ordered (type, pattern, flags) triples.

    Accepts the three rule shapes of the reference loader
    (regex_detector.py:31-47): list-of-dicts, list-of-strings, single string.
    YAML mapping insertion order is preserved — match emission order depends
    on it.
    """
    with open(path, encoding="utf-8") as f:
        raw = yaml.safe_load(f) or {}

    triples: list[tuple[str, str, int]] = []
    for typ, body in raw.items():
        if isinstance(body, list) and all(isinstance(i, dict) for i in body):
            rule_list = body
        elif isinstance(body, list) and all(isinstance(i, str) for i in body):
            rule_list = [{"pattern": b} for b in body]
        elif isinstance(body, str):
            rule_list = [{"pattern": body}]
        else:
            continue
        for rule in rule_list:
            flags = _parse_flags(rule["flags"]) if "flags" in rule else 0
            triples.append((typ, rule["pattern"], flags))
    return triples


@lru_cache(maxsize=16)
def compile_rules(path: str) -> tuple[Rule, ...]:
    """Compile a rule file once per worker process (keyed by path) into
    ``(type, pattern, prescreen literals)`` triples."""
    compiled: list[Rule] = []
    for typ, pattern, flags in load_rules(path):
        try:
            rx = re.compile(pattern, flags)
        except re.error:
            continue
        compiled.append((typ, rx, _required_literals(rx.pattern, rx.flags)))
    return tuple(compiled)


def _required_literals(pattern_str: str, flags: int) -> tuple[str, ...]:
    """Literal alternation every match of the pattern MUST contain, or ()
    when no safe constraint exists.

    Used as a result-preserving prescreen: if none of the returned
    substrings occur in the text, ``finditer`` cannot match, so the (often
    catastrophically backtracking) scan can be skipped.  Derived from the
    sre parse tree, so it is exact, not heuristic:

    - concatenation: any single element's constraint suffices (the longest
      minimum-length candidate is chosen);
    - alternation: usable only if EVERY branch yields a constraint (union);
    - repeats: usable only when min count >= 1;
    - IGNORECASE (global or inline) disables the prescreen entirely —
      substring membership would need case folding to stay exact.

    Only constraints whose members are all length >= 2 or non-ASCII are
    kept (a single ASCII char almost never excludes a document, so the
    check would be pure overhead), capped at 8 alternatives.
    """
    if flags & re.IGNORECASE:
        return ()
    try:
        import re._parser as sre

        tree = sre.parse(pattern_str, flags)
    except Exception:
        return ()

    LITERAL = sre.LITERAL
    BRANCH = sre.BRANCH
    SUBPATTERN = sre.SUBPATTERN
    MAX_REPEAT, MIN_REPEAT = sre.MAX_REPEAT, sre.MIN_REPEAT

    def walk(seq) -> set[str] | None:
        candidates: list[set[str]] = []
        run = ""
        for op, arg in seq:
            if op is LITERAL:
                run += chr(arg)
                continue
            if run:
                candidates.append({run})
                run = ""
            if op is BRANCH:
                branch_sets = [walk(b) for b in arg[1]]
                if all(bs for bs in branch_sets):
                    merged: set[str] = set()
                    for bs in branch_sets:
                        merged |= bs
                    candidates.append(merged)
            elif op is SUBPATTERN:
                group, add_flags, _del_flags, sub = arg
                if add_flags & re.IGNORECASE:
                    return None  # inline (?i:...) — bail on the whole pattern
                got = walk(sub)
                if got:
                    candidates.append(got)
            elif op in (MAX_REPEAT, MIN_REPEAT):
                mn, _mx, sub = arg
                if mn >= 1:
                    got = walk(sub)
                    if got:
                        candidates.append(got)
            # IN / ANY / AT / assertions / categories contribute nothing
        if run:
            candidates.append({run})
        usable = [
            c
            for c in candidates
            if len(c) <= 8
            and all(len(s) >= 2 or any(ord(ch) > 127 for ch in s) for s in c)
        ]
        if not usable:
            return None
        return max(usable, key=lambda c: (min(len(s) for s in c), -len(c)))

    got = walk(tree)
    return tuple(sorted(got)) if got else ()


def detect_spans(text: str, rules: tuple[Rule, ...]) -> list[Span]:
    """Spans in (rule-order, match-position) order.

    Matches regex_detector.py:79-89: one pass of ``finditer`` per rule,
    ``score=1.0, source="regex"``.  A required-literal prescreen
    (:func:`_required_literals`) skips rules that provably cannot match —
    identical output, and it removes the dominant cost of the unanchored
    backtracking address rules on documents without their trigger
    substrings.
    """
    spans: list[Span] = []
    append = spans.append
    for typ, pattern, lits in rules:
        if lits and not any(map(text.__contains__, lits)):
            continue
        for match in pattern.finditer(text):
            start, end = match.span()
            append((start, end, typ, 1.0, "regex"))
    return spans


def regex_detect(text: str, rules: tuple[Rule, ...]) -> list[Entity]:
    """:func:`detect_spans` as entity dicts."""
    return [
        {"span": (start, end), "type": typ, "score": score, "source": source}
        for start, end, typ, score, source in detect_spans(text, rules)
    ]


def _beats(cur: tuple, last: tuple, priorities: dict[str, int]) -> bool:
    """Tie-break: priority → score → shorter source string → the kept one.

    Semantics of composite.py:86-102.
    """
    cur_p = priorities.get(cur[2], DEFAULT_PRIORITY)
    last_p = priorities.get(last[2], DEFAULT_PRIORITY)
    if cur_p != last_p:
        return cur_p > last_p
    if cur[3] != last[3]:
        return cur[3] > last[3]
    return len(cur[4]) < len(last[4])


def resolve_spans(spans: list[tuple], priorities: dict[str, int] | None = None) -> list[tuple]:
    """Sequential overlap resolution against the *last kept* span.

    Exact semantics of composite.py:35-84: stable sort by span start; an
    incoming span overlapping the last kept one by
    ``overlap / min(len) > 0.5`` replaces it iff it wins the tie-break,
    otherwise both are kept.  The "compare only against the last kept"
    sequentiality is part of the byte-identity contract.  Only the first
    five fields are read; extra trailing fields ride along.
    """
    if not spans:
        return []
    priorities = priorities if priorities is not None else ENTITY_PRIORITY
    ordered = sorted(spans, key=_START)
    resolved = [ordered[0]]
    for cur in ordered[1:]:
        last = resolved[-1]
        last_start, last_end = last[0], last[1]
        cur_start, cur_end = cur[0], cur[1]
        if cur_start >= last_end:
            resolved.append(cur)
            continue
        overlap = max(0, min(last_end, cur_end) - cur_start)
        ratio = overlap / min(max(1, last_end - last_start), max(1, cur_end - cur_start))
        if ratio <= OVERLAP_THRESHOLD:
            resolved.append(cur)
        elif _beats(cur, last, priorities):
            resolved[-1] = cur
    return resolved


def resolve_conflicts(
    entities: list[Entity],
    priorities: dict[str, int] | None = None,
) -> list[Entity]:
    """:func:`resolve_spans` over entity dicts; returns the kept dicts."""
    spans = []
    for idx, e in enumerate(entities):
        start, end = e["span"]
        spans.append((int(start), int(end), e["type"], e.get("score"), e.get("source", ""), idx))
    return [entities[span[5]] for span in resolve_spans(spans, priorities)]
