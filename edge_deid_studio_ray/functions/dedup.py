"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale design (100 TB):

- *Exact*: content hash per row in a ``map_batches`` stage, then ONE
  hash-partitioned ``groupby(hash)`` — the only shuffle; group size is tiny
  (duplicate cardinality), keeper = min key.
- *MinHash+LSH*: shingle → K minhashes per row (vectorized numpy, universal
  hashing), banded into B band-hashes; explode to ``(band, band_hash, id)``
  rows; a single ``groupby([band, band_hash])`` yields candidate buckets;
  candidate pairs are verified with exact shingle Jaccard inside the
  co-group — no driver-side loop, no global pairwise comparison.
- *SimHash*: 64-bit signature per row; near-dup = identical band slices of
  the signature (same LSH-groupby skeleton, Hamming verify in-group).

All hash seeds are fixed constants → deterministic across runs/cluster
sizes (resume-safe).  Every grouping is a ``cogroup`` with its output
schema declared once at the call; pair ids take the input key column's
type, read on the driver from the input ``ds.schema()``.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .cogroup import cogroup

_MERSENNE = (1 << 61) - 1


def md5_hex(text: str) -> str:
    return hashlib.md5(text.encode("utf-8", "replace")).hexdigest()


def add_md5_column(batch: pa.Table, text_col: str = "text", out_col: str = "text_md5") -> pa.Table:
    return batch.append_column(
        out_col, pa.array([md5_hex(t or "") for t in batch[text_col].to_pylist()], pa.string())
    )


_SHINGLE_BASE = np.uint64(1099511628211)  # FNV prime; uint64 wraparound


def shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Sorted unique 64-bit hashes of character k-shingles (whitespace
    normalized) — fully vectorized polynomial rolling hash (k numpy passes
    per document, no per-shingle Python)."""
    norm = " ".join(text.split()).lower()
    if len(norm) < k:
        norm = norm + " " * (k - len(norm))
    codes = np.frombuffer(norm.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    n = len(codes) - k + 1
    h = np.zeros(n, dtype=np.uint64)
    for i in range(k):
        h = h * _SHINGLE_BASE + codes[i : n + i]
    # finalization mix so nearby shingles don't collide structurally
    h ^= h >> np.uint64(33)
    h = h * np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return np.unique(h)


class MinHasher:
    """K-permutation MinHash with fixed universal-hash parameters."""

    def __init__(self, num_hashes: int = 128, seed: int = 1337):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=num_hashes, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_hashes, dtype=np.uint64)
        self.num_hashes = num_hashes

    def signature(self, text: str, k: int = 5) -> np.ndarray:
        sh = shingle_hashes(text, k)
        if len(sh) == 0:
            return np.zeros(self.num_hashes, dtype=np.uint64)
        # (K, S) universal-style hashes with uint64 wraparound, min over
        # shingles — one vectorized outer product per document
        vals = self.a[:, None] * sh[None, :] + self.b[:, None]
        return (vals >> np.uint64(32)).min(axis=1).astype(np.uint64)


def _pair_schema(ds, key_col: str, cols: dict) -> pa.Schema:
    """Schema of a ``(left, right, *cols)`` pair result: both ids typed as
    ``ds``'s ``key_col``, read once on the driver from the input schema."""
    s = ds.schema()
    key_type = dict(zip(s.names, s.types))[key_col]
    return pa.schema({"left": key_type, "right": key_type, **cols})


def _dedupe_pair_rows(pairs, schema: pa.Schema):
    """Distinct (left, right) of a pair co-group's output of ``schema``:
    a co-group on the pair, pandas drop_duplicates.

    A co-group over zero rows calls no fold, so its result has no schema.
    One all-null marker row keeps one fold running, which drops it: a run in
    which no pair survives the verify still yields zero rows of ``schema``."""
    import ray.data as rd

    marker = pa.Table.from_pylist([{}], schema=schema)

    def drop_dupes(block: pd.DataFrame) -> pd.DataFrame:
        return block.dropna(subset=["left"]).drop_duplicates(subset=["left", "right"])

    return cogroup(pairs.union(rd.from_arrow(marker)), ["left", "right"], drop_dupes, schema)


def _emit_duplicate_sets(out: dict, members: dict, sim: float, sim_col: str, truncated: bool) -> None:
    """All intra-set pairs for every identical-content set (similarity is
    exactly ``sim`` by construction — no pairwise verification needed)."""
    from itertools import combinations

    for keys in members.values():
        for a, b in combinations(keys, 2):
            out["left"].append(a)
            out["right"].append(b)
            out[sim_col].append(sim)
            out["truncated"].append(truncated)


def _emit_cross_pairs(out: dict, keys_a: list, keys_b: list, sim: float, sim_col: str, truncated: bool) -> None:
    """All cross pairs between two identical-content sets whose
    representatives verified at ``sim``."""
    for a in keys_a:
        for b in keys_b:
            lo, hi = (a, b) if a < b else (b, a)
            out["left"].append(lo)
            out["right"].append(hi)
            out[sim_col].append(sim)
            out["truncated"].append(truncated)


def _band_group_slices(bucket: pd.DataFrame, key_col: str):
    """Shared verify-stage machinery: ONE vectorized sort + boundary scan
    instead of a per-band-key pandas groupby (group bookkeeping, not the
    similarity math, dominated verify CPU on self-similar corpora).

    Returns ``(sorted_bucket, band_keys_array, starts, ends)`` where each
    ``[starts[i], ends[i])`` slice is one band-key group of the sorted
    frame.  Callers suppress consecutive duplicate ``key_col`` rows inside
    each slice (the sort guarantees they are adjacent)."""
    bucket = bucket.sort_values(["band_key", key_col], kind="mergesort")
    bks = bucket["band_key"].to_numpy()
    n = len(bks)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return bucket, bks, empty, empty
    change = np.nonzero(bks[1:] != bks[:-1])[0] + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [n]))
    return bucket, bks, starts, ends


def _first_collide_band(da: bytes, db: bytes, num_bands: int) -> int:
    """First band index whose 8-byte digests agree, -1 if none do.

    Two docs in the same band group always collide at that band, so inside
    ``verify_bucket`` the -1 case is unreachable; the pair is exact-verified
    only in the group of its first colliding band."""
    for b in range(num_bands):
        if da[8 * b : 8 * b + 8] == db[8 * b : 8 * b + 8]:
            return b
    return -1


def _first_small_collide_band(
    da: bytes, db: bytes, num_bands: int, heavy: frozenset
) -> int:
    """First band index whose digests agree AND whose band group is within
    the cap (not in ``heavy``); -1 if every colliding band is heavy.

    This is the exactly-once verification site for a pair: heavy groups
    verify best-effort under the cap, so skipping a pair is only sound when
    an earlier WITHIN-CAP colliding band demonstrably verified it."""
    for b in range(num_bands):
        d = da[8 * b : 8 * b + 8]
        if d == db[8 * b : 8 * b + 8] and f"{b}:{d.hex()}" not in heavy:
            return b
    return -1


def _heavy_band_keys(
    ds, hasher: "MinHasher", text_col: str, shingle_k: int, num_bands: int, cap: int
) -> frozenset:
    """Band keys whose LSH group exceeds the member cap.

    Light prepass: per-batch (band_key, n) partial counts → one narrow
    grouped sum → heavy keys filtered BEFORE the driver collect, so only
    the (by-definition-few) over-cap hitters travel.  Row counts
    over-approximate distinct-text counts (duplicate texts inflate them) —
    safe: an over-flagged band just causes a redundant verify elsewhere,
    collapsed by the pair-dedupe stage, never a dropped pair."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch[text_col].to_pylist():
            c.update(band_keys(hasher.signature(text or "", shingle_k), num_bands))
        return pa.table(
            {
                "band_key": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("band_key")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(
            lambda t: t.filter(pc.greater(t["n"], pa.scalar(cap))),
            batch_format="pyarrow",
        )
        .take_all()
    )
    return frozenset(r["band_key"] for r in rows)


def band_keys(signature: np.ndarray, num_bands: int = 16) -> list[str]:
    """LSH band hashes: one digest per contiguous signature slice."""
    rows = len(signature) // num_bands
    keys = []
    for band in range(num_bands):
        chunk = signature[band * rows : (band + 1) * rows]
        digest = hashlib.blake2b(chunk.tobytes(), digest_size=8).hexdigest()
        keys.append(f"{band}:{digest}")
    return keys


def jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    """Exact character-shingle Jaccard similarity."""
    a, b = shingle_hashes(text_a, k), shingle_hashes(text_b, k)
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 1.0


def word_ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Word n-gram Jaccard (token-level near-dup metric)."""

    def grams(t: str) -> set[tuple[str, ...]]:
        words = t.lower().split()
        if len(words) < n:
            return {tuple(words)} if words else set()
        return {tuple(words[i : i + n]) for i in range(len(words) - n + 1)}

    ga, gb = grams(text_a), grams(text_b)
    if not ga and not gb:
        return 1.0
    union = len(ga | gb)
    return len(ga & gb) / union if union else 1.0


# ---------------------------------------------------------------------------
# Dataset-level compositions
# ---------------------------------------------------------------------------


def exact_dedup(ds, text_col: str = "text", key_col: str = "doc_id"):
    """Keep one row (min key) per distinct text: hash stage + one co-group
    on the content hash, with the per-hash keeper selection done in pandas
    over each folded block."""
    s = ds.schema()
    schema = pa.schema([*zip(s.names, s.types), ("text_md5", pa.string())])

    def keep_first(block: pd.DataFrame) -> pd.DataFrame:
        return block.sort_values(key_col).drop_duplicates(subset=["text_md5"], keep="first")

    hashed = ds.map_batches(lambda t: add_md5_column(t, text_col), batch_format="pyarrow")
    return cogroup(hashed, "text_md5", keep_first, schema)


def minhash_candidates(
    ds,
    text_col: str = "text",
    key_col: str = "doc_id",
    *,
    num_hashes: int = 128,
    num_bands: int = 16,
    shingle_k: int = 5,
    jaccard_threshold: float = 0.8,
    verify: str = "text",
    pair_metrics: dict[str, Any] | None = None,
    group_cap: int = 64,
):
    """MinHash-LSH near-dup candidate pairs, verified in-group.

    Returns a Dataset of ``(left, right, jaccard)`` with left < right.

    ``verify``:
    - ``"text"``  — exact shingle-Jaccard verification; band rows carry the
      text, so the shuffle ships num_bands× the corpus bytes.  Right for
      small/medium corpora or when exactness is required.
    - ``"signature"`` — the 100-TB scale path: band rows carry only the
      fixed-size MinHash signature (num_hashes × 8 bytes); similarity is the
      signature agreement estimate (±1/sqrt(num_hashes) error).  Shuffle
      volume is independent of document sizes.

    Partitioning assumption: a candidate bucket (same band hash) fits in one
    group task — true for near-dup buckets; pathological buckets are capped
    at ``group_cap`` distinct-text members (cap recorded in the
    ``truncated`` column, no silent drop).  Each pair is exact-verified
    once, in its first colliding band whose group is WITHIN the cap (rows
    carry the 8-byte-per-band digest vector): a light prepass counts rows
    per band key and broadcasts the over-cap ("heavy") key set — by
    definition few — so groups skip a pair only when an earlier colliding
    band's group demonstrably verified it.  A pair is guaranteed emitted
    whenever ANY of its colliding bands is within the cap; only pairs whose
    EVERY colliding band is over the cap fall back to the capped best-effort
    verify, flagged ``truncated``.  The prepass costs one extra signature
    pass over the corpus — the price of that guarantee.

    ``pair_metrics`` (text-verify path only): ``{column: fn(text_a, text_b)}``
    extra metrics computed IN-GROUP for every verified pair — the pair texts
    are already co-resident there, so layering a second metric (e.g. word
    n-gram Jaccard) costs zero additional shuffles, vs. re-resolving texts
    through the two-pass ``pair_text_metric`` join.
    """
    hasher = MinHasher(num_hashes)
    if pair_metrics and verify != "text":
        raise ValueError(
            "pair_metrics requires verify='text' (the signature path never "
            "ships document texts, so per-pair text metrics cannot run there)"
        )
    metric_items = list((pair_metrics or {}).items())
    schema = _pair_schema(
        ds,
        key_col,
        {"jaccard": pa.float64(), "truncated": pa.bool_(), **{col: pa.float64() for col, _fn in metric_items}},
    )
    if verify == "signature":
        return _minhash_candidates_sig(
            ds,
            hasher,
            text_col,
            key_col,
            num_bands,
            shingle_k,
            jaccard_threshold,
            schema,
            group_cap,
        )

    heavy = _heavy_band_keys(ds, hasher, text_col, shingle_k, num_bands, group_cap)

    def explode(batch: pa.Table) -> pa.Table:
        keys, bands, texts, digs = [], [], [], []
        for key, text in zip(batch[key_col].to_pylist(), batch[text_col].to_pylist()):
            sig = hasher.signature(text or "", shingle_k)
            bks = band_keys(sig, num_bands)
            # compact per-doc digest vector (8 bytes/band): lets the verify
            # group compute a pair's FIRST colliding band so each pair is
            # exact-verified in exactly one band group instead of every
            # band that collides (~num_bands·s^rows times for near-dups)
            all_digests = b"".join(bytes.fromhex(bk.split(":", 1)[1]) for bk in bks)
            for bk in bks:
                keys.append(key)
                bands.append(bk)
                texts.append(text or "")
                digs.append(all_digests)
        return pa.table(
            {
                "band_key": pa.array(bands, pa.string()),
                key_col: keys,
                text_col: texts,
                "band_digests": pa.array(digs, pa.binary()),
            }
        )

    def verify_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        from itertools import combinations

        out: dict[str, list] = {"left": [], "right": [], "jaccard": [], "truncated": []}
        for col, _fn in metric_items:
            out[col] = []

        def emit(a, b, sim: float, truncated: bool, extras: dict) -> None:
            lo, hi = (a, b) if a < b else (b, a)
            out["left"].append(lo)
            out["right"].append(hi)
            out["jaccard"].append(sim)
            out["truncated"].append(truncated)
            for col, _fn in metric_items:
                out[col].append(extras[col])

        bucket, bks, starts, ends = _band_group_slices(bucket, key_col)
        keys_arr = bucket[key_col].to_numpy()
        texts_arr = bucket[text_col].to_numpy()
        digs_arr = bucket["band_digests"].to_numpy()
        # shingle memo is per block: the same text recurs across its bands
        shingles: dict[str, np.ndarray] = {}

        for s, e in zip(starts, ends):
            if e - s < 2:
                continue  # singleton band key — no pair can exist
            band_idx = int(str(bks[s]).split(":", 1)[0])
            # collapse identical texts first: oversized buckets are almost
            # always exact-duplicate storms, and intra-set pairs are known
            # (jaccard 1.0) without any pairwise work — so a 10k-identical
            # cluster costs ONE representative, not a capped quadratic scan
            members: dict[str, list] = {}
            digests: dict[str, bytes] = {}
            prev_key = None
            for i in range(s, e):
                k = keys_arr[i]
                if prev_key is not None and k == prev_key:
                    continue  # duplicate (band_key, key) row
                prev_key = k
                t = texts_arr[i]
                members.setdefault(t, []).append(k)
                digests.setdefault(t, digs_arr[i])
            reps = list(members)
            truncated = len(reps) > group_cap
            reps = reps[:group_cap]
            group_heavy = truncated or str(bks[s]) in heavy
            # identical texts share every band digest, so their first
            # colliding band is always band 0: emit the 1.0 pairs there only
            if band_idx == 0 or truncated:
                for text, keys in members.items():
                    if len(keys) < 2:
                        continue
                    extras = {col: fn(text, text) for col, fn in metric_items}
                    for a, b in combinations(keys, 2):
                        emit(a, b, 1.0, truncated, extras)

            # a near-dup pair collides in ~num_bands·s^rows bands; verify it
            # exactly ONCE, in its first WITHIN-CAP colliding band's group.
            # Heavy/truncated groups verify unconditionally (best-effort
            # under the cap): other groups never count a heavy band as the
            # pair's verification site, so a pair dropped by a heavy band's
            # cap is guaranteed rescued by its first within-cap band; the
            # pair-dedupe stage collapses any repeats.
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    if not group_heavy and _first_small_collide_band(
                        digests[reps[i]], digests[reps[j]], num_bands, heavy
                    ) != band_idx:
                        continue
                    a = shingles.get(reps[i])
                    if a is None:
                        a = shingles[reps[i]] = shingle_hashes(reps[i], shingle_k)
                    b = shingles.get(reps[j])
                    if b is None:
                        b = shingles[reps[j]] = shingle_hashes(reps[j], shingle_k)
                    if len(a) == 0 and len(b) == 0:
                        sim = 1.0
                    else:
                        inter = len(np.intersect1d(a, b, assume_unique=True))
                        union = len(a) + len(b) - inter
                        sim = inter / union if union else 1.0
                    if sim >= jaccard_threshold:
                        extras = {
                            col: fn(reps[i], reps[j]) for col, fn in metric_items
                        }
                        for ka in members[reps[i]]:
                            for kb in members[reps[j]]:
                                emit(ka, kb, round(sim, 6), truncated, extras)
        return pd.DataFrame(out)

    # co-group on the band key and sub-group each folded block in pandas
    pairs = cogroup(ds.map_batches(explode, batch_format="pyarrow"), "band_key", verify_bucket, schema)
    return _dedupe_pair_rows(pairs, schema)


def _minhash_candidates_sig(
    ds,
    hasher: "MinHasher",
    text_col: str,
    key_col: str,
    num_bands: int,
    shingle_k: int,
    threshold: float,
    schema: pa.Schema,
    group_cap: int = 64,
):
    """Signature-carrying LSH variant (see minhash_candidates docstring).

    No first-band gating here: every colliding band verifies its (capped)
    group and the pair-dedupe stage collapses repeats, so a pair dropped by
    one over-cap band is naturally rescued by any within-cap band."""

    def explode(batch: pa.Table) -> pa.Table:
        keys, bands, sigs = [], [], []
        for key, text in zip(batch[key_col].to_pylist(), batch[text_col].to_pylist()):
            sig = hasher.signature(text or "", shingle_k)
            raw = sig.tobytes()
            for bk in band_keys(sig, num_bands):
                keys.append(key)
                bands.append(bk)
                sigs.append(raw)
        return pa.table(
            {
                "band_key": pa.array(bands, pa.string()),
                key_col: keys,
                "sig": pa.array(sigs, pa.binary()),
            }
        )

    def verify_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        out = {"left": [], "right": [], "jaccard": [], "truncated": []}
        bucket, bks, starts, ends = _band_group_slices(bucket, key_col)
        keys_arr = bucket[key_col].to_numpy()
        sigs_arr = bucket["sig"].to_numpy()
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue  # singleton band key — no pair can exist
            # collapse identical signatures (exact-dup storms) to one
            # representative each; intra-set pairs have agreement 1.0
            members: dict[bytes, list] = {}
            prev_key = None
            for i in range(s, e):
                key = keys_arr[i]
                if prev_key is not None and key == prev_key:
                    continue  # duplicate (band_key, key) row
                prev_key = key
                members.setdefault(sigs_arr[i], []).append(key)
            reps = list(members)
            truncated = len(reps) > group_cap
            reps = reps[:group_cap]
            _emit_duplicate_sets(out, members, 1.0, "jaccard", truncated)
            if len(reps) > 1:
                # vectorized pairwise agreement over the (reps, K) matrix
                mat = np.stack([np.frombuffer(s, dtype=np.uint64) for s in reps])
                agree = (mat[:, None, :] == mat[None, :, :]).mean(axis=2)
                ii, jj = np.nonzero(np.triu(agree >= threshold, k=1))
                for i, j in zip(ii, jj):
                    _emit_cross_pairs(
                        out,
                        members[reps[i]],
                        members[reps[j]],
                        round(float(agree[i, j]), 6),
                        "jaccard",
                        truncated,
                    )
        return pd.DataFrame(out)

    pairs = cogroup(ds.map_batches(explode, batch_format="pyarrow"), "band_key", verify_bucket, schema)
    return _dedupe_pair_rows(pairs, schema)


def pair_text_metric(
    pairs,
    corpus,
    metric_fn,
    *,
    key_col: str = "doc_id",
    text_col: str = "text",
    out_col: str = "metric",
):
    """Evaluate ``metric_fn(left_text, right_text)`` for every (left, right)
    pair WITHOUT materializing the corpus anywhere: a distributed two-pass
    hash join.

    Pass 1 ships each pair row twice (keyed by its left then right id) and
    the corpus text once, co-grouped on the id; each fold resolves its
    side's text from the local id→text slice.  Pass 2 regroups the two
    half-rows per pair (co-grouped on the pair) and applies ``metric_fn``.
    Shuffle volume: corpus bytes ×1 + pair rows ×2 — the scale-safe shape
    for a verification join (at 100 TB, semi-join-filter the corpus to ids
    present in pairs first; pairs from LSH are ≪ corpus).

    Ids must be int64 (same caveat as :func:`connected_components`).
    """

    def explode_pairs(batch: pa.Table) -> pa.Table:
        lefts = batch["left"].to_pylist()
        rights = batch["right"].to_pylist()
        jkeys, l_out, r_out, sides = [], [], [], []
        for l, r in zip(lefts, rights):
            jkeys.extend([l, r])
            l_out.extend([l, l])
            r_out.extend([r, r])
            sides.extend([0, 1])
        return pa.table(
            {
                "jkey": pa.array(jkeys, pa.int64()),
                "left": pa.array(l_out, pa.int64()),
                "right": pa.array(r_out, pa.int64()),
                "side": pa.array(sides, pa.int8()),
            }
        )

    def corpus_texts(batch: pa.Table) -> pa.Table:
        return pa.table({"jkey": batch[key_col], text_col: batch[text_col]})

    def resolve_side_text(rows: pd.DataFrame, texts: pd.DataFrame) -> pd.DataFrame | None:
        if rows.empty:
            return None
        texts = texts.reindex(columns=["jkey", text_col])  # no corpus row for these ids: ""
        lookup = dict(zip(texts["jkey"], texts[text_col]))
        return rows.assign(side_text=[lookup.get(k, "") or "" for k in rows["jkey"]])

    def score_pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        out_l, out_r, out_m = [], [], []
        for (l, r), group in bucket.groupby(["left", "right"], sort=False):
            ltexts = group.loc[group["side"] == 0, "side_text"]
            rtexts = group.loc[group["side"] == 1, "side_text"]
            lt = ltexts.iloc[0] if len(ltexts) else ""
            rt = rtexts.iloc[0] if len(rtexts) else ""
            out_l.append(l)
            out_r.append(r)
            out_m.append(metric_fn(lt, rt))
        return pd.DataFrame({"left": out_l, "right": out_r, out_col: out_m})

    halves = cogroup(
        [
            pairs.select_columns(["left", "right"]).map_batches(explode_pairs, batch_format="pyarrow"),
            corpus.select_columns([key_col, text_col]).map_batches(corpus_texts, batch_format="pyarrow"),
        ],
        "jkey",
        resolve_side_text,
        {"left": pa.int64(), "right": pa.int64(), "side": pa.int8(), "side_text": pa.string()},
    )
    return cogroup(
        halves,
        ["left", "right"],
        score_pairs,
        {"left": pa.int64(), "right": pa.int64(), out_col: pa.float64()},
    )


def _node_hash63(value) -> int:
    """Deterministic 63-bit non-negative int for any node id (PYTHONHASHSEED-
    independent)."""
    digest = hashlib.blake2b(str(value).encode("utf-8", "replace"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def _pointer_double(labels):
    """One pointer-doubling round: label(node) ← min(label, label(label)).

    Two rows per node through one co-group — each node's row
    requests the label of its current label; chains halve every round, so
    combined with neighbor propagation convergence is O(log diameter)
    instead of O(diameter).
    """

    def explode(t: pa.Table) -> pa.Table:
        nodes = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        lbls = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys = np.concatenate([lbls, nodes])
        payloads = np.concatenate([nodes, lbls])
        is_req = [True] * nodes.size + [False] * nodes.size
        return pa.table(
            {
                "key": pa.array(keys, pa.int64()),
                "payload": pa.array(payloads, pa.int64()),
                "is_req": pa.array(is_req, pa.bool_()),
            }
        )

    def resolve(bucket: pd.DataFrame) -> pd.DataFrame:
        providers = bucket.loc[~bucket["is_req"]].groupby("key")["payload"].min()
        reqs = bucket.loc[bucket["is_req"]]
        lbl2 = reqs["key"].map(providers).fillna(reqs["key"]).astype("int64")
        new_label = np.minimum(reqs["key"].to_numpy(), lbl2.to_numpy())
        return pd.DataFrame({"node": reqs["payload"].to_numpy(), "label": new_label})

    return cogroup(
        labels.map_batches(explode, batch_format="pyarrow"),
        "key",
        resolve,
        {"node": pa.int64(), "label": pa.int64()},
    )


def connected_components(
    pairs,
    *,
    left_col: str = "left",
    right_col: str = "right",
    max_iter: int = 10,
    small_graph_threshold: int = 1_000_000,
):
    """Cluster near-dup pairs into components: iterative min-label
    propagation with a pointer-doubling step per round — each round is a
    bounded number of co-groups (no driver-side union-find, so the
    candidate graph can exceed driver memory), and pathological chains
    converge in O(log diameter) rounds.

    Returns a Dataset ``(node, component)``.  For integer node ids the
    component is the minimum reachable node id; string ids (urls, WARC
    record ids) are supported by hashing to int64 internally — the
    component is then an opaque int64, consistent across the component.
    """
    # materialize once: the schema of a lazy pair pipeline costs its whole
    # upstream shuffle (often a full LSH pass), which the component passes
    # below would otherwise run a second time
    pairs = pairs.materialize()
    schema = pairs.schema()
    if schema is None:
        # empty candidate set (dup-free corpus): no edges, no components
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "component": pa.array([], pa.int64()),
                }
            )
        )
    lt = dict(zip(schema.names, schema.types))[left_col]
    if isinstance(lt, pa.DataType) and (pa.types.is_string(lt) or pa.types.is_large_string(lt)):
        return _connected_components_str(pairs, left_col, right_col, max_iter, small_graph_threshold)
    return _connected_components_int(pairs, left_col, right_col, max_iter, small_graph_threshold)


def _connected_components_str(
    pairs,
    left_col: str,
    right_col: str,
    max_iter: int,
    small_graph_threshold: int = 1_000_000,
):
    """String-keyed wrapper: hash ids to int64, run the int path, join the
    original ids back with one co-group."""

    def to_int_pairs(t: pa.Table) -> pa.Table:
        lefts = t[left_col].to_pylist()
        rights = t[right_col].to_pylist()
        return pa.table(
            {
                left_col: pa.array([_node_hash63(v) for v in lefts], pa.int64()),
                right_col: pa.array([_node_hash63(v) for v in rights], pa.int64()),
            }
        )

    def to_node_rows(t: pa.Table) -> pa.Table:
        values = t[left_col].to_pylist() + t[right_col].to_pylist()
        hashes = [_node_hash63(v) for v in values]
        return pa.table({"key": pa.array(hashes, pa.int64()), "orig": pa.array(values, pa.string())})

    int_components = _connected_components_int(
        pairs.map_batches(to_int_pairs, batch_format="pyarrow"),
        left_col,
        right_col,
        max_iter,
        small_graph_threshold,
    )

    def join_back(maps: pd.DataFrame, comps: pd.DataFrame) -> pd.DataFrame | None:
        if maps.empty:
            return None
        comp = dict(zip(comps["key"], comps["component"]))
        maps = maps.drop_duplicates(subset=["key"])
        return pd.DataFrame(
            {
                "node": maps["orig"].tolist(),
                "component": [int(comp[k]) for k in maps["key"]],
            }
        )

    return cogroup(
        [
            pairs.map_batches(to_node_rows, batch_format="pyarrow"),
            int_components.map_batches(
                lambda t: pa.table({"key": t["node"], "component": t["component"]}), batch_format="pyarrow"
            ),
        ],
        "key",
        join_back,
        {"node": pa.string(), "component": pa.int64()},
    )


def _union_find_components(edge_rows: list[dict]) -> "pa.Table":
    """Driver-side union-find with min-id labels — byte-identical output to
    the distributed propagation (component = min reachable node id)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for row in edge_rows:
        a, b = int(row["node"]), int(row["neighbor_min"])
        for v in (a, b):
            if v not in parent:
                parent[v] = v
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by MIN id so the root IS the component label
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    nodes = sorted(parent)
    return pa.table(
        {
            "node": pa.array(nodes, pa.int64()),
            "component": pa.array([find(n) for n in nodes], pa.int64()),
        }
    )


def _connected_components_int(
    pairs,
    left_col: str,
    right_col: str,
    max_iter: int,
    small_graph_threshold: int = 1_000_000,
):
    from ray.data.aggregate import Min

    def explode(batch: pa.Table) -> pa.Table:
        lefts = batch[left_col].to_pylist()
        rights = batch[right_col].to_pylist()
        return pa.table(
            {
                "node": lefts + rights,
                "neighbor_min": rights + lefts,
            }
        )

    # materialize the edge list ONCE (2 rows per pair — bounded by the dup
    # rate, not the corpus) so the explode is not re-run by each consumer
    # below
    edges = pairs.map_batches(explode, batch_format="pyarrow").materialize()
    # adaptive path: the edge list is bounded by the DUPLICATE RATE, not the
    # corpus — when it fits comfortably on the driver a union-find beats
    # ~4 shuffle stages per propagation round by an order of magnitude.
    # The distributed pointer-doubling path below is the >threshold route.
    if edges.count() <= small_graph_threshold:
        import ray.data as rd

        return rd.from_arrow(_union_find_components(edges.take_all()))
    # label(node) = min(node, neighbors' labels); iterate to fixpoint
    labels = edges.groupby("node").aggregate(Min("neighbor_min", alias_name="label"))

    def clamp_self(batch: pa.Table) -> pa.Table:
        nodes = batch["node"].to_pylist()
        lbls = batch["label"].to_pylist()
        return pa.table(
            {"node": nodes, "label": [min(n, l) for n, l in zip(nodes, lbls)]}
        )

    labels = labels.map_batches(clamp_self, batch_format="pyarrow").materialize()

    def propagate_bucket(edges: pd.DataFrame, labels: pd.DataFrame) -> pd.DataFrame:
        # co-groups of each node's label row(s) and outgoing edges (every
        # labelled node has edges and vice versa): a node's label is
        # min(its label rows, itself); forward it to every neighbor and
        # keep it locally
        e_node = edges["node"].to_numpy(dtype=np.int64)
        nbr = edges["neighbor_min"].to_numpy(dtype=np.int64)
        l_node = labels["node"].to_numpy(dtype=np.int64)
        l_lab = labels["label"].to_numpy(dtype=np.int64)
        cands = pd.Series(np.concatenate([l_lab, l_node, e_node]), index=np.concatenate([l_node, l_node, e_node]))
        lab = cands.groupby(level=0).min()
        return pd.DataFrame(
            {
                "node": np.concatenate([lab.index.to_numpy(), nbr]),
                "label": np.concatenate([lab.to_numpy(), lab.loc[e_node].to_numpy()]),
            }
        )

    prev_sum = None
    for _ in range(max_iter):
        # the edge list is materialized above: 2 rows per pair, reused per round
        msgs = cogroup([edges, labels], "node", propagate_bucket, {"node": pa.int64(), "label": pa.int64()})
        labels = msgs.groupby("node").aggregate(Min("label", alias_name="label"))
        # pointer doubling: chase label→label(label) so chains halve per round
        labels = _pointer_double(labels).materialize()
        # monotone-decreasing labels: fixpoint iff Σlabel is unchanged
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    return labels.map_batches(
        lambda t: pa.table({"node": t["node"], "component": t["label"]}),
        batch_format="pyarrow",
    )


def add_simhash_column(batch: pa.Table, text_col: str = "text") -> pa.Table:
    from .textstats import simhash64

    sims = [simhash64(t or "") for t in batch[text_col].to_pylist()]
    # store as int64 (reinterpret top bit) for Arrow friendliness
    vals = [s - (1 << 64) if s >= (1 << 63) else s for s in sims]
    return batch.append_column("simhash", pa.array(vals, pa.int64()))


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR) for numpy < 2's missing
    ``bitwise_count``."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


_POP_LUT16 = None


def _hamming64_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances between two uint64 vectors → (len(a),
    len(b)) uint8.

    Avoids 64-bit vector arithmetic entirely: the XOR runs in uint32 lanes
    and the popcount is a 16-bit LUT gather + lane sum.  On hosts whose
    SIMD path covers only 8/32-bit integer ops (measured here: uint64 XOR
    ~200 ns/element vs uint32 ~2 ns), this is ~20× faster than the SWAR
    popcount over a uint64 XOR matrix; on full-SIMD hosts it is no worse.
    """
    global _POP_LUT16
    if _POP_LUT16 is None:
        _POP_LUT16 = np.array(
            [bin(i).count("1") for i in range(65536)], dtype=np.uint8
        )
    a32 = np.ascontiguousarray(a).view(np.uint32).reshape(len(a), 2)
    b32 = np.ascontiguousarray(b).view(np.uint32).reshape(len(b), 2)
    z32 = a32[:, None, :] ^ b32[None, :, :]  # (A, B, 2) uint32
    z16 = z32.view(np.uint16)  # (A, B, 4)
    return _POP_LUT16[z16].sum(axis=-1, dtype=np.uint8)


def simhash_near_dups(
    ds,
    text_col: str = "text",
    key_col: str = "doc_id",
    *,
    max_hamming: int = 3,
    num_bands: int = 4,
):
    """SimHash near-duplicate pairs: 64-bit signatures banded into
    ``num_bands`` slices of ``64 // num_bands`` bits — by pigeonhole, any
    pair within ``max_hamming`` ≤ num_bands - 1 bits shares at least one
    identical band, so same-band candidates + an in-group Hamming verify
    find ALL such pairs (exact, no candidate cap: the per-band pairwise
    verify is a vectorized XOR/popcount matrix over the DISTINCT signatures
    in the band, chunked to bound memory).  Same band-key co-group shape as
    the MinHash path.

    Scale note: fewer bits per band (more bands) raises the completeness
    bound but concentrates candidates — with 8-bit slices only 256 band
    values exist, so hot bands grow linearly with the corpus and the
    in-band verify is quadratic in DISTINCT signatures per band.  At
    100-TB scale keep ≥ 16-bit slices (num_bands ≤ 4) or pre-partition by
    a signature prefix.
    """
    from .textstats import simhash64

    schema = _pair_schema(ds, key_col, {"hamming": pa.int64()})
    band_bits = 64 // num_bands
    band_mask = (1 << band_bits) - 1

    def explode(batch: pa.Table) -> pa.Table:
        keys, bands, sims = [], [], []
        for key, text in zip(batch[key_col].to_pylist(), batch[text_col].to_pylist()):
            sim = simhash64(text or "")
            for band in range(num_bands):
                bk = f"{band}:{(sim >> (band * band_bits)) & band_mask:04x}"
                keys.append(key)
                bands.append(bk)
                sims.append(sim - (1 << 64) if sim >= (1 << 63) else sim)
        return pa.table(
            {
                "band_key": pa.array(bands, pa.string()),
                key_col: keys,
                "simhash": pa.array(sims, pa.int64()),
            }
        )

    def verify_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        from itertools import combinations

        out = {"left": [], "right": [], "hamming": []}
        bucket, bks, starts, ends = _band_group_slices(bucket, key_col)
        keys_arr = bucket[key_col].to_numpy()
        sims_arr = bucket["simhash"].to_numpy()
        band_shifts = (np.arange(num_bands, dtype=np.uint64) * np.uint64(band_bits))
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue  # singleton band key — no pair can exist
            band_idx = int(str(bks[s]).split(":", 1)[0])
            # collapse identical signatures: intra-set hamming is 0
            members: dict[int, list] = {}
            prev_key = None
            for i in range(s, e):
                key = keys_arr[i]
                if prev_key is not None and key == prev_key:
                    continue  # duplicate (band_key, key) row
                prev_key = key
                members.setdefault(int(sims_arr[i]) & ((1 << 64) - 1), []).append(key)
            # identical signatures agree on every band: their first shared
            # band is band 0, so emit the hamming-0 pairs there only
            if band_idx == 0:
                for keys in members.values():
                    for a, b in combinations(keys, 2):
                        out["left"].append(a)
                        out["right"].append(b)
                        out["hamming"].append(0)
            reps = np.fromiter(members.keys(), dtype=np.uint64, count=len(members))
            if len(reps) > 1:
                # chunked pairwise XOR/popcount: all distinct-signature
                # pairs checked, memory bounded at chunk × m uint64s.
                # Each qualifying pair is emitted from its FIRST shared
                # band only (pigeonhole guarantees one exists for
                # hamming <= num_bands - 1), so hot 8-bit bands don't
                # re-verify and re-ship the same pair up to num_bands times
                rep_bands = (reps[:, None] >> band_shifts[None, :]) & np.uint64(band_mask)
                # bound the per-call temporaries (~chunk*m*12 bytes) to a few
                # MB: tens-of-MB fresh allocations intermittently stall for
                # SECONDS on this host (hugepage-compaction-like first-touch
                # spikes measured at 10s+ for a 55 MB broadcast XOR), and
                # small temps recycle through the allocator arena instead
                chunk = max(64, min(2048, (1 << 19) // max(1, len(reps))))
                for lo_idx in range(0, len(reps), chunk):
                    block = reps[lo_idx : lo_idx + chunk]
                    d = _hamming64_matrix(block, reps)
                    bi, jj = np.nonzero(d <= max_hamming)
                    ii = bi + lo_idx
                    keep = ii < jj  # upper triangle only
                    bi, ii, jj = bi[keep], ii[keep], jj[keep]
                    if len(ii) == 0:
                        continue
                    first = (rep_bands[ii] == rep_bands[jj]).argmax(axis=1)
                    sel = first == band_idx
                    dists = d[bi[sel], jj[sel]]
                    for i, j, dist in zip(ii[sel], jj[sel], dists):
                        dist = int(dist)
                        for a in members[int(reps[i])]:
                            for b in members[int(reps[j])]:
                                lo, hi = (a, b) if a < b else (b, a)
                                out["left"].append(lo)
                                out["right"].append(hi)
                                out["hamming"].append(dist)
        return pd.DataFrame(out)

    pairs = cogroup(ds.map_batches(explode, batch_format="pyarrow"), "band_key", verify_bucket, schema)
    return _dedupe_pair_rows(pairs, schema)


def near_dedup(
    ds,
    text_col: str = "text",
    key_col: str = "doc_id",
    *,
    jaccard_threshold: float = 0.8,
    num_hashes: int = 128,
    num_bands: int = 16,
    verify: str = "text",
):
    """Fuzzy deduplication end to end: MinHash-LSH pairs → connected
    components → drop every non-keeper (keeper = min key per component).

    The canonical training-corpus near-dedup step as ONE composition:
    no driver-side membership set — the non-keeper ids co-group with the
    corpus rows in a co-grouped anti-join, so the only materialized artifact
    is the component list (bounded by the duplicate rate, not the corpus).

    Returns the surviving rows of ``ds`` (schema unchanged).
    """
    pairs = minhash_candidates(
        ds,
        text_col,
        key_col,
        num_hashes=num_hashes,
        num_bands=num_bands,
        jaccard_threshold=jaccard_threshold,
        verify=verify,
    )
    comps = connected_components(pairs)

    s = ds.schema()
    schema = pa.schema(list(zip(s.names, s.types)))
    key_type = schema.field(key_col).type

    def non_keepers(members: pd.DataFrame) -> pd.DataFrame:
        # the keeper is the component's minimum node: for integer ids that
        # is the component id itself, for string ids the component is an
        # opaque hash, so the minimum is taken here for both
        keeper = members.groupby("component", sort=False)["node"].transform("min")
        return members.loc[members["node"] != keeper, ["node"]].rename(columns={"node": key_col})

    def anti(rows: pd.DataFrame, dropped: pd.DataFrame) -> pd.DataFrame | None:
        if rows.empty:
            return None
        return rows.loc[~rows[key_col].isin(dropped[key_col])]

    # the surviving rows are encoded back to the corpus schema (an integer
    # key the co-group widened to int64 returns to its type)
    dropped = cogroup(comps, "component", non_keepers, {key_col: key_type})
    return cogroup([ds, dropped], key_col, anti, schema)
