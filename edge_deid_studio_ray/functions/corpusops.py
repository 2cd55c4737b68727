"""Web-corpus preparation operators: benchmark decontamination, passage-level
dedup, repetition quality signals, token-stream sequence packing.

These are the remaining CCNet / Gopher / pretraining-prep steps a 100-TB
training-data pipeline runs between raw extraction and tokenization (the
reference covers extraction/deid; these extend the engine's LLM-data layer
the same way ``functions/dedup.py`` and ``functions/textstats.py`` do).

Scale shapes:
- decontamination broadcasts the *benchmark* n-gram set (benchmark suites
  are MBs even when the corpus is 100 TB) via ``ray.put`` once, then a
  stateless ``map_batches`` membership scan — no shuffle at all;
- passage dedup is explode → one co-group on the passage (first-occurrence winner)
  → one per-doc groupby (reassembly) — two shuffles, both keyed, no
  driver-side state;
- repetition stats are embarrassingly parallel (per-doc counters, zero
  shuffles);
- sequence packing is a per-source ordered cumulative scan — the scan is
  sequential *within* a source by definition (token streams concatenate in
  document order), so sources are the partition key; with fewer sources
  than cores, split each source's scan via the two-pass prefix-sum pattern
  (per-block partials → exclusive offsets) used by the events prefix scans.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

from .cogroup import cogroup, each_key
from .dedup import md5_hex

_WS_RE = re.compile(r"\s+")


def _words(text: str | None) -> list[str]:
    """Whitespace-normalized word list — mirrors the oracle's
    ``string_split(trim(regexp_replace(text, '\\s+', ' ', 'g'), ' '), ' ')``
    exactly (empty text yields [''], matching DuckDB)."""
    return _WS_RE.sub(" ", text or "").strip(" ").split(" ")


def _ngrams(words: list[str], n: int) -> list[str]:
    return [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]


# ---------------------------------------------------------------------------
# Benchmark decontamination
# ---------------------------------------------------------------------------


def collect_ngram_set(ds, *, n: int = 13, text_col: str = "text"):
    """Distinct n-gram md5 set of a (small) benchmark dataset.

    Per-batch distinct sets are computed in parallel; only the 32-char
    hashes travel to the driver.  The result is meant for ``ray.put`` —
    benchmark suites are small by construction, so this is the broadcast
    side of the contamination scan."""
    def grams(batch: pa.Table) -> pa.Table:
        seen: set[str] = set()
        for t in batch[text_col].to_pylist():
            for g in _ngrams(_words(t), n):
                seen.add(md5_hex(g))
        return pa.table({"ng": pa.array(sorted(seen), pa.string())})

    out: set[str] = set()
    for batch in ds.map_batches(grams, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        out.update(batch["ng"].to_pylist())
    return out


def decontaminate(train_ds, eval_ngrams: set[str], *, n: int = 13, text_col: str = "text", key_col: str = "doc_id"):
    """Flag training documents sharing any ``n``-gram with the benchmark set.

    ``eval_ngrams`` is the md5'd n-gram set from :func:`collect_ngram_set`.
    Returns ``(key_col, n_shared)`` for contaminated docs only, where
    ``n_shared`` is the count of the doc's *distinct* n-grams present in the
    benchmark set.  Broadcast once with ``ray.put``; each task reads the set
    zero-copy from the object store — never re-shipped per batch.
    """
    import ray

    ref = ray.put(frozenset(eval_ngrams))

    def scan(batch: pa.Table) -> pa.Table:
        ev = ray.get(ref)
        keys, shared = [], []
        for k, t in zip(batch[key_col].to_pylist(), batch[text_col].to_pylist()):
            hits = {h for h in (md5_hex(g) for g in set(_ngrams(_words(t), n))) if h in ev}
            if hits:
                keys.append(k)
                shared.append(len(hits))
        # key column keeps the CORPUS key type (url-keyed web corpora are
        # string-keyed) — never a hardcoded int64
        return pa.table(
            {
                key_col: pa.array(keys, batch[key_col].type),
                "n_shared": pa.array(shared, pa.int64()),
            }
        )

    return train_ds.map_batches(scan, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Passage-level (CCNet-style) dedup
# ---------------------------------------------------------------------------


def passage_dedup(
    ds,
    *,
    words_per_chunk: int = 16,
    text_col: str = "text",
    key_col: str = "doc_id",
):
    """Corpus-wide passage dedup: chunk every document into fixed
    ``words_per_chunk`` word passages, keep only the globally FIRST
    occurrence of each distinct passage (order: ``(doc_id, chunk_idx)``),
    and reassemble each document from its surviving passages.

    Returns per-doc ``(doc_id, n_chunks, n_kept, kept_md5)`` where
    ``kept_md5`` hashes the reassembled surviving text ('' when every
    passage was dropped) — i.e. the dedup summary plus a content witness
    for the rebuilt corpus.

    Shape: explode → co-group on the passage (winner =
    min (doc, chunk); every instance gets a kept flag, so no join-back
    pass) → per-doc groupby for reassembly.  Passage text rides both
    shuffles because the rebuilt text IS the output — at scale that is the
    deduped corpus itself, not overhead.
    """

    def explode(batch: pa.Table) -> pa.Table:
        doc_ids, idxs, passages = [], [], []
        for d, t in zip(batch[key_col].to_pylist(), batch[text_col].to_pylist()):
            ws = _words(t)
            for ci in range(0, len(ws), words_per_chunk):
                p = " ".join(ws[ci : ci + words_per_chunk])
                doc_ids.append(d)
                idxs.append(ci // words_per_chunk)
                passages.append(p)
        return pa.table(
            {
                key_col: pa.array(doc_ids, pa.int64()),
                "chunk_idx": pa.array(idxs, pa.int64()),
                "passage": pa.array(passages, pa.string()),
            }
        )

    def flag_first(bucket: pd.DataFrame) -> pd.DataFrame:
        bucket = bucket.sort_values([key_col, "chunk_idx"], kind="mergesort")
        return bucket.assign(kept=~bucket.duplicated(subset=["passage"], keep="first"))

    def reassemble(doc: pd.DataFrame) -> pd.DataFrame:
        doc = doc.sort_values("chunk_idx", kind="mergesort")
        kept = doc[doc["kept"]]
        return pd.DataFrame(
            {
                key_col: [doc[key_col].iloc[0]],
                "n_chunks": [len(doc)],
                "n_kept": [len(kept)],
                "kept_md5": [md5_hex(" ".join(kept["passage"]))],
            }
        )

    flagged = cogroup(
        ds.map_batches(explode, batch_format="pyarrow"),
        "passage",
        flag_first,
        {key_col: pa.int64(), "chunk_idx": pa.int64(), "passage": pa.string(), "kept": pa.bool_()},
    )
    return cogroup(
        flagged,
        key_col,
        each_key(key_col, reassemble),
        {key_col: pa.int64(), "n_chunks": pa.int64(), "n_kept": pa.int64(), "kept_md5": pa.string()},
    )


# ---------------------------------------------------------------------------
# Duplicate n-gram span detection (exact substring-level dedup analysis)
# ---------------------------------------------------------------------------


def duplicate_ngram_spans(
    ds,
    *,
    n: int = 13,
    text_col: str = "text",
    key_col: str = "doc_id",
):
    """Per-document duplicated-substring report: which word positions sit
    inside an ``n``-gram that also occurs in ANOTHER document (the
    substring-level view of corpus dedup — the sliding-window counterpart
    of :func:`passage_dedup`'s fixed chunks).

    Returns per-doc ``(doc_id, n_dup_ngrams, n_islands, dup_word_count,
    max_island_words)`` for docs with at least one cross-doc duplicate
    n-gram: the duplicated n-gram count, the number of maximal merged
    spans (islands) their word-coverage intervals union into, the total
    words covered, and the longest island's word length.

    Shape: explode to (gram-hash, doc, pos) — one row per word, three
    narrow columns, text never enters the shuffle — then one co-group on
    the gram hash keeps grams spanning >1 distinct doc, and a co-group on
    the doc merges each doc's hit positions into islands.  Both shuffles
    are keyed; driver holds nothing.
    """
    import ray.data as rd

    hit_schema = pa.schema({key_col: pa.int64(), "pos": pa.int64()})
    schema = pa.schema(
        {
            key_col: pa.int64(),
            "n_dup_ngrams": pa.int64(),
            "n_islands": pa.int64(),
            "dup_word_count": pa.int64(),
            "max_island_words": pa.int64(),
        }
    )
    # a corpus with no cross-doc duplicate would hand the islands co-group
    # zero rows, and a co-group over zero rows calls no fold, so its result
    # has no schema: a marker row with a null doc keeps one fold running
    marker = pa.Table.from_pylist([{}], schema=hit_schema)

    def explode(batch: pa.Table) -> pa.Table:
        docs, poss, hashes = [], [], []
        for d, t in zip(batch[key_col].to_pylist(), batch[text_col].to_pylist()):
            ws = _words(t)
            for i in range(len(ws) - n + 1):
                h = md5_hex(" ".join(ws[i : i + n]))
                docs.append(d)
                poss.append(i)
                hashes.append(h)
        return pa.table(
            {
                key_col: pa.array(docs, pa.int64()),
                "pos": pa.array(poss, pa.int64()),
                "gh": pa.array(hashes, pa.string()),
            }
        )

    def cross_doc_hits(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.loc[bucket.groupby("gh")[key_col].transform("nunique") > 1]

    def islands(bucket: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for d, doc in bucket.groupby(key_col):  # drops the marker's null doc
            pos = np.unique(doc["pos"].to_numpy())
            # coverage intervals [p, p+n-1] union into an island while the
            # next start is <= previous start + n (equal-length intervals)
            breaks = (pos[1:] - pos[:-1]) > n
            widths = pos[[*breaks, True]] - pos[[True, *breaks]] + n
            rows.append((d, len(doc), len(widths), int(widths.sum()), int(widths.max())))
        return pd.DataFrame(rows, columns=schema.names)

    hits = cogroup(ds.map_batches(explode, batch_format="pyarrow"), "gh", cross_doc_hits, hit_schema)
    return cogroup(hits.union(rd.from_arrow(marker)), key_col, islands, schema)


# ---------------------------------------------------------------------------
# Repetition quality signals (Gopher-style)
# ---------------------------------------------------------------------------


def repetition_stats(ds, *, text_col: str = "text", key_col: str = "doc_id"):
    """Per-document word-bigram repetition signals: total bigrams, distinct
    bigrams, and the most-repeated bigram's count (Gopher's top-n-gram
    family of quality filters, restated as exact integers so the whole
    signal is oracle-checkable).  Embarrassingly parallel — zero shuffles.
    """

    def stats(batch: pa.Table) -> pa.Table:
        n_total, n_max, n_distinct = [], [], []
        for t in batch[text_col].to_pylist():
            ws = _words(t)
            c = Counter(" ".join(ws[i : i + 2]) for i in range(len(ws) - 1))
            n_total.append(sum(c.values()))
            n_max.append(max(c.values(), default=0))
            n_distinct.append(len(c))
        return pa.table(
            {
                key_col: batch[key_col],
                "n_bigrams": pa.array(n_total, pa.int64()),
                "max_bigram_count": pa.array(n_max, pa.int64()),
                "n_distinct_bigrams": pa.array(n_distinct, pa.int64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Token-stream sequence packing
# ---------------------------------------------------------------------------


def token_stream_pack(
    ds,
    *,
    budget: int = 256,
    group_col: str = "source",
    key_col: str = "doc_id",
    text_col: str = "text",
):
    """GPT-style token-stream packing accounting: per ``group_col``,
    concatenate documents in ``key_col`` order into one token stream cut
    into fixed ``budget``-token sequences (documents may straddle a cut).

    Returns per-group ``(source, n_sequences, n_tokens, n_straddlers)``:
    total sequences, total tokens, and how many documents straddle a
    sequence boundary.

    The cumulative scan is sequential within a group by definition; groups
    are the partition key.  Token counts are pre-computed in a parallel
    ``map_batches`` so the grouped stage only scans two int columns — the
    text never enters the shuffle.
    """
    s = ds.schema()
    group_type = dict(zip(s.names, s.types))[group_col]

    def counts(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                group_col: batch[group_col],
                key_col: batch[key_col],
                "n_tok": pa.array(
                    [len(_words(t)) for t in batch[text_col].to_pylist()], pa.int64()
                ),
            }
        )

    def pack(group: pd.DataFrame) -> pd.DataFrame:
        group = group.sort_values(key_col, kind="mergesort")
        cum = group["n_tok"].cumsum()
        start = cum - group["n_tok"]
        straddle = (start // budget) != ((cum - 1) // budget)
        total = int(cum.iloc[-1]) if len(cum) else 0
        return pd.DataFrame(
            {
                group_col: [group[group_col].iloc[0]],
                "n_sequences": [-(-total // budget)],
                "n_tokens": [total],
                "n_straddlers": [int(straddle.sum())],
            }
        )

    return cogroup(
        ds.map_batches(counts, batch_format="pyarrow"),
        group_col,
        each_key(group_col, pack),
        {group_col: group_type, "n_sequences": pa.int64(), "n_tokens": pa.int64(), "n_straddlers": pa.int64()},
    )


# ---------------------------------------------------------------------------
# Temperature-based multilingual resampling
# ---------------------------------------------------------------------------


def temperature_rates(counts: dict[str, int], temperature: float) -> dict[str, float]:
    """Per-language keep rates for temperature-resampled mixing.

    With sampling temperature ``T`` the target language distribution is
    ``q_l ∝ p_l^T`` (XLM-R-style rebalancing); realized by downsampling
    relative to the rarest language: ``rate_l = (n_l / n_min)^(T - 1)`` —
    the rarest language keeps everything (rate 1.0), larger languages are
    thinned toward the tempered mix.  One float ``pow`` per language, no
    cross-language float sums, so an SQL oracle reproduces every rate
    bit-for-bit (``POWER(n/mn, T-1.0)``)."""
    mn = min(counts.values())
    return {k: (n / mn) ** (temperature - 1.0) for k, n in counts.items()}


def md5_uniform(key) -> float:
    """Deterministic uniform in [0, 1): first 8 md5 bytes of ``str(key)``
    little-endian over 2^64 — exactly DuckDB's
    ``CAST(md5_number_upper(CAST(key AS VARCHAR)) AS DOUBLE) / 2^64``, so
    membership decisions are reproducible in SQL and stable across the
    cluster (no PYTHONHASHSEED dependence)."""
    digest = hashlib.md5(str(key).encode()).digest()
    return int.from_bytes(digest[:8], "little") / 18446744073709551616.0


def temperature_sample_summary(ds, rates: dict[str, float], *, lang_col: str = "lang", id_col: str = "doc_id"):
    """Stateless membership filter + per-language attrition partials.

    The rate map is captured in the task closure (a handful of floats —
    broadcast once per worker, never shuffled); the only shuffle is the
    final tiny per-language aggregate of pre-aggregated partials."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        agg: dict[str, list[int]] = {}
        for lang, key in zip(batch[lang_col].to_pylist(), batch[id_col].to_pylist()):
            a = agg.setdefault(lang, [0, 0])
            if md5_uniform(key) < rates[lang]:
                a[0] += 1
                a[1] += key
        langs = list(agg)
        return pa.table(
            {
                lang_col: pa.array(langs, pa.string()),
                "n_kept_p": pa.array([agg[k][0] for k in langs], pa.int64()),
                "sum_kept_p": pa.array([agg[k][1] for k in langs], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(lang_col)
        .aggregate(
            Sum("n_kept_p", alias_name="n_kept"),
            Sum("sum_kept_p", alias_name="sum_kept_ids"),
        )
    )


# ---------------------------------------------------------------------------
# Char-trigram LM quality scoring (CCNet-style perplexity filter)
# ---------------------------------------------------------------------------


def trigram_model(
    ds,
    *,
    lang_col: str = "lang",
    text_col: str = "text",
    min_count: int = 1,
    prune_stats: dict | None = None,
) -> tuple[dict, dict]:
    """Train a per-language add-one character-trigram LM on the corpus.

    Pass 1 of the CCNet-style quality filter: per-batch pre-aggregated
    ``(lang, trigram) -> count`` partials, ONE grouped sum, and the model
    table comes to the driver for broadcast.

    **Broadcast-size bound** (the 100×-scale contract): with the default
    ``min_count=1`` the table is bounded by charset³ per language — fine
    for Latin charsets, effectively unbounded for CJK at web scale.  Set
    ``min_count=m ≥ 2`` to train on trigram types seen at least m times:
    kept types per language are then ≤ N_l/m (and still ≤ charset³), a
    bound that a deployment caps independently of corpus size by scaling m
    with corpus tokens.  The prune is part of the model DEFINITION (N_l and
    V_l are computed over kept types; pruned trigrams score at the add-one
    floor like any unseen trigram) so an SQL oracle mirrors it with one
    HAVING clause.  It is never silent: pass ``prune_stats`` (a dict) to
    receive per-language ``{kept_types, dropped_types, dropped_tokens}``,
    which pruned-query outputs carry as columns.

    Returns ``(logp, denoms)``: ``logp[(lang, tri)] = ln((c+1)/(N_l+V_l))``
    and ``denoms[lang] = (N_l, V_l)`` for smoothing unseen trigrams."""
    import math

    from ray.data.aggregate import Sum

    def tri_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for lang, text in zip(batch[lang_col].to_pylist(), batch[text_col].to_pylist()):
            t = text or ""
            for i in range(len(t) - 2):
                c[(lang, t[i : i + 3])] += 1
        keys = list(c.keys())
        return pa.table(
            {
                lang_col: pa.array([k[0] for k in keys], pa.string()),
                "tri": pa.array([k[1] for k in keys], pa.string()),
                "n": pa.array([c[k] for k in keys], pa.int64()),
            }
        )

    rows = (
        ds.map_batches(tri_partial, batch_format="pyarrow")
        .groupby([lang_col, "tri"])
        .aggregate(Sum("n", alias_name="c"))
        .take_all()
    )
    return finish_trigram_model(
        rows, lang_col=lang_col, min_count=min_count, prune_stats=prune_stats
    )


def finish_trigram_model(
    rows: list[dict],
    *,
    lang_col: str = "lang",
    min_count: int = 1,
    prune_stats: dict | None = None,
) -> tuple[dict, dict]:
    """Turn the grouped (lang, tri, c) count rows into the add-one model
    table + denominators — shared by trigram_model and callers that supply
    their own (fused / multi-tag) counting pass.  ``min_count``/``prune_stats``:
    see :func:`trigram_model` (the prune happens HERE so both entry points
    share the definition)."""
    import math

    dropped: dict[str, list[int]] = {}
    if min_count > 1:
        kept = []
        for r in rows:
            if int(r["c"]) >= min_count:
                kept.append(r)
            else:
                d = dropped.setdefault(r[lang_col], [0, 0])
                d[0] += 1
                d[1] += int(r["c"])
        rows = kept
    totals: dict[str, list[int]] = {}
    for r in rows:
        t = totals.setdefault(r[lang_col], [0, 0])
        t[0] += int(r["c"])
        t[1] += 1
    denoms = {lang: (n, v) for lang, (n, v) in totals.items()}
    logp = {
        (r[lang_col], r["tri"]): math.log(
            (int(r["c"]) + 1) / float(sum(denoms[r[lang_col]]))
        )
        for r in rows
    }
    if prune_stats is not None:
        for lang, (_n, v) in denoms.items():
            dt, dk = dropped.get(lang, (0, 0))
            prune_stats[lang] = {
                "kept_types": v,
                "dropped_types": dt,
                "dropped_tokens": dk,
            }
        for lang, (dt, dk) in dropped.items():
            if lang not in prune_stats:  # language pruned away entirely
                prune_stats[lang] = {
                    "kept_types": 0,
                    "dropped_types": dt,
                    "dropped_tokens": dk,
                }
    return logp, denoms


def trigram_nll_scores(
    ds, logp: dict, denoms: dict, *, lang_col: str = "lang", text_col: str = "text", id_col: str = "doc_id"
):
    """Pass 2: per-document mean negative log-likelihood under the broadcast
    trigram LM — a stateless ``map_batches`` scan; the model ships via
    ``ray.put`` ONCE and each task reads it zero-copy from the object store.

    Terms are summed in trigram-position order and rounded to 6dp; an SQL
    oracle's unordered SUM of the same ~n_tri doubles agrees within ~1e-11,
    far inside the rounding grid.  Unseen trigrams (scoring a different
    corpus than the model was trained on) get the add-one floor
    ``ln(1/(N_l+V_l))``; documents in a language the model has never seen
    are EXCLUDED (like sub-trigram docs) — a 0.0 floor would hand unmodeled
    languages a perfect score, the opposite of a quality filter."""
    import math

    import ray

    model_ref = ray.put((logp, denoms))

    def score(batch: pa.Table) -> pa.Table:
        lp, dn = ray.get(model_ref)
        ids: list[int] = []
        langs: list[str] = []
        ntris: list[int] = []
        nlls: list[float] = []
        for key, lang, text in zip(
            batch[id_col].to_pylist(),
            batch[lang_col].to_pylist(),
            batch[text_col].to_pylist(),
        ):
            t = text or ""
            n = len(t) - 2
            if n <= 0 or lang not in dn:
                continue
            floor = math.log(1.0 / float(sum(dn[lang])))
            s = 0.0
            for i in range(n):
                s += lp.get((lang, t[i : i + 3]), floor)
            ids.append(key)
            langs.append(lang)
            ntris.append(n)
            nlls.append(round(-s / n, 6))
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                lang_col: pa.array(langs, pa.string()),
                "n_tri": pa.array(ntris, pa.int64()),
                "nll": pa.array(nlls, pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")
