"""Approximate-nearest-neighbor search over an embedding column.

- :func:`knn_bruteforce` — exact cosine top-k: the query matrix is broadcast
  once via ``ray.put`` (read per task, never re-shipped per batch), each
  batch computes a numpy matmul and emits only its LOCAL top-k per query
  (k rows per query per batch), then a two-level tree merge
  (:func:`_merge_topk`) selects the global top-k without ever gathering all
  per-batch partials of one query into a single group.  Shuffle volume is
  O(queries × k × batches), independent of corpus size — the scale path
  for 100 TB.
- :func:`knn_lsh` — random-hyperplane LSH variant: bucket rows by sign
  pattern; only same-bucket candidates are scored (recall/speed trade
  documented per signature length).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .cogroup import _key_hash, cogroup, each_key
from .dedup import _dedupe_pair_rows, _pair_schema


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _vec_matrix(col) -> np.ndarray:
    """(N, dim) float64 matrix from an Arrow list<float> column without the
    per-row ``to_pylist`` round-trip: one flatten + one reshape (flatten
    respects list offsets, so sliced/chunked arrays are handled).

    Null or ragged entries are REJECTED loudly: ``flatten()`` silently drops
    null slots, so a quiet reshape could misalign every following row's
    vector before the cosine matmul — a wrong-answer bug, not a crash."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    if col.null_count:
        raise ValueError(
            f"embedding column has {col.null_count} null entries; similarity "
            "ops require non-null fixed-dimension vectors (filter them out "
            "with pc.is_valid upstream)"
        )
    lengths = pc.unique(pc.list_value_length(col))
    if len(lengths) != 1:
        raise ValueError(
            f"embedding column is ragged (lengths {lengths.to_pylist()}); "
            "similarity ops require fixed-dimension vectors"
        )
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    return flat.reshape(n, -1)


def _batch_topk_fn(queries_ref, k: int, vec_col: str, key_col: str):
    import ray

    q = None  # resolved lazily inside the task (broadcast read, once per task)

    def topk(batch: pa.Table) -> pa.Table:
        nonlocal q
        if q is None:
            qm = ray.get(queries_ref) if queries_ref.__class__.__name__ == "ObjectRef" else queries_ref
            q = _normalize(np.asarray(qm, dtype=np.float64))
        mat = _normalize(_vec_matrix(batch[vec_col]))
        keys = np.asarray(batch[key_col].to_pylist())
        sims = q @ mat.T  # (Q, B)
        kk = min(k, sims.shape[1])
        idx = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        out = {"query_id": [], key_col: [], "cosine": []}
        for qi in range(sims.shape[0]):
            for j in idx[qi]:
                out["query_id"].append(qi)
                out[key_col].append(keys[j].item() if hasattr(keys[j], "item") else keys[j])
                out["cosine"].append(float(sims[qi, j]))
        return pa.table(
            {
                "query_id": pa.array(out["query_id"], pa.int64()),
                key_col: pa.array(out[key_col]),
                "cosine": pa.array(out["cosine"], pa.float64()),
            }
        )

    return topk


def _merge_topk(partials, k: int, key_col: str):
    """Two-level top-k reduction: per-batch partials first merge inside
    (query_id, candidate-hash fan-in slot) groups, then one tiny final
    group per query.  A single co-group on query_id would gather k rows per
    *batch* of a query into one block — millions of rows per query at
    10^12-row corpora; the tree level spreads them over 64 slots.
    Selection is by (cosine desc, key asc), so the two-level result is
    deterministic and identical to the single-level one.

    The partials are materialized first (k rows per query per batch — tiny
    by construction) and the tree level engaged only past 50k partial rows:
    below that the level-1 shuffle is pure fixed overhead, above it the
    per-query group would grow unboundedly with block count."""

    def add_slot(batch: pa.Table) -> pa.Table:
        return batch.append_column("slot", pc.bit_wise_and(_key_hash(batch, [key_col]), 63))

    def merge_topk(block: pd.DataFrame) -> pd.DataFrame:
        by = ["query_id", "slot"] if "slot" in block else ["query_id"]
        ranked = block.sort_values([*by, "cosine", key_col], ascending=[*[True] * len(by), False, True])
        return ranked.groupby(by, sort=False).head(k)

    partials = partials.materialize()
    s = partials.schema()
    if s is None:  # every row was filtered out upstream: nothing to merge
        return partials
    schema = pa.schema(
        {"query_id": pa.int64(), key_col: dict(zip(s.names, s.types))[key_col], "cosine": pa.float64()}
    )
    if partials.count() > 50_000:
        partials = cogroup(
            partials.map_batches(add_slot, batch_format="pyarrow"),
            ["query_id", "slot"],
            merge_topk,
            schema,
        )
    return cogroup(partials, "query_id", merge_topk, schema)


def knn_bruteforce(ds, queries: np.ndarray, *, k: int = 5, vec_col: str = "embedding", key_col: str = "vec_id"):
    """Exact cosine top-k per query row of ``queries``.

    Returns Dataset(query_id, key_col, cosine) with k rows per query,
    deterministically tie-broken by (cosine desc, key asc).
    """
    import ray

    queries_ref = ray.put(np.asarray(queries, dtype=np.float64))

    partials = ds.map_batches(
        _batch_topk_fn(queries_ref, k, vec_col, key_col), batch_format="pyarrow"
    )
    return _merge_topk(partials, k, key_col)


def embedding_near_dups(
    ds,
    *,
    threshold: float = 0.4,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    num_blocks: int = 8,
):
    """Embedding-cosine near-duplicate pairs (exact) via a distributed block
    cross-join: each row hashes to one of ``num_blocks`` blocks and is
    replicated to every unordered block-pair group ``(min(b,j), max(b,j))``;
    each group computes its block-vs-block similarity matrix (numpy matmul)
    and emits pairs above ``threshold`` with ``left < right``.  A pair lands
    in exactly one group, so no pair-dedup pass is needed.

    Scale shape: NO driver-side materialization and no full-corpus broadcast
    (replication factor = num_blocks; each group holds ~2N/num_blocks rows,
    so pick ``num_blocks ≈ N·d·8B / per-task-memory``).  Exact all-pairs is
    inherently O(N²) compute — beyond a few 10^6 rows use
    :func:`embedding_near_dups_lsh`, which prunes candidate pairs with
    random-hyperplane buckets before the exact verify.
    """
    import zlib

    schema = _pair_schema(ds, key_col, {"cosine": pa.float64()})

    def explode(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        vecs = batch[vec_col].to_pylist()
        gids, blks, out_k, out_v = [], [], [], []
        for key, vec in zip(keys, vecs):
            b = zlib.crc32(str(key).encode()) % num_blocks
            for j in range(num_blocks):
                lo, hi = (b, j) if b <= j else (j, b)
                gids.append(lo * num_blocks + hi)
                blks.append(b)
                out_k.append(key)
                out_v.append(vec)
        return pa.table(
            {
                "pair_block": pa.array(gids, pa.int32()),
                "blk": pa.array(blks, pa.int32()),
                key_col: pa.array(out_k),
                vec_col: pa.array(out_v),
            }
        )

    def verify_group(group: pd.DataFrame) -> pd.DataFrame:
        gid = int(group["pair_block"].iloc[0])
        lo, hi = divmod(gid, num_blocks)
        group = group.sort_values(key_col)
        if lo == hi:
            keys = np.asarray(list(group[key_col]))
            mat = _normalize(np.array(list(group[vec_col]), dtype=np.float64))
            sims = mat @ mat.T
            ii, jj = np.nonzero(np.triu(sims > threshold, k=1))
            left, right, cos = keys[ii], keys[jj], sims[ii, jj]
        else:
            ga = group[group["blk"] == lo]
            gb = group[group["blk"] == hi]
            if not len(ga) or not len(gb):
                return None
            ka = np.asarray(list(ga[key_col]))
            kb = np.asarray(list(gb[key_col]))
            ma = _normalize(np.array(list(ga[vec_col]), dtype=np.float64))
            mb = _normalize(np.array(list(gb[vec_col]), dtype=np.float64))
            sims = ma @ mb.T
            ai, bi = np.nonzero(sims > threshold)
            la, lb = ka[ai], kb[bi]
            left = np.minimum(la, lb)
            right = np.maximum(la, lb)
            cos = sims[ai, bi]
        return pd.DataFrame({"left": left, "right": right, "cosine": np.round(cos, 6)})

    return cogroup(
        ds.map_batches(explode, batch_format="pyarrow"), "pair_block", each_key("pair_block", verify_group), schema
    )


def bridge_gaussian(tag: str) -> float:
    """Deterministic standard normal from the md5 bridge via Box–Muller:
    both uniforms come from ``md5_number_upper``-equivalent 64-bit hashes
    (``int.from_bytes(md5(s)[:8], 'little')``), so an SQL oracle regenerates
    the identical value with ``sqrt(-2*ln(u1)) * cos(2*pi*u2)``.  The +1.0
    is applied AFTER the float cast (matching SQL's ``CAST(h AS DOUBLE) +
    1``) and only exists to dodge u == 0."""
    import hashlib
    import math

    def u(salt: str) -> float:
        h = int.from_bytes(
            hashlib.md5(f"{tag}:{salt}".encode()).digest()[:8], "little"
        )
        return (float(h) + 1.0) / 2.0**64

    return math.sqrt(-2.0 * math.log(u("1"))) * math.cos(2.0 * math.pi * u("2"))


def embedding_near_dups_lsh(
    ds,
    *,
    threshold: float = 0.4,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    num_planes: int = 6,
    num_tables: int = 8,
    seed: int = 29,
    plane_mode: str = "numpy",
    sign_round_dp: int | None = None,
):
    """Approximate embedding near-dup pairs — the 100-TB path: rows are
    bucketed by random-hyperplane sign pattern in ``num_tables`` independent
    tables; only same-bucket candidates are exactly verified (in-group
    matmul), and pairs found by multiple tables are deduped with one
    co-group on the pair.  Recall = 1 - (1 - p^planes)^tables where
    p = 1 - angle/π; misses only pairs near the threshold.

    ``plane_mode="bridge"`` derives every plane component from the md5
    bridge (:func:`bridge_gaussian` on ``hp:{seed}:{t}:{p}:{d}``) instead of
    ``np.random.RandomState`` — numerically identical planes are then
    re-derivable in SQL, which makes the WHOLE approximate pipeline
    oracle-checkable.  Pair it with ``sign_round_dp=12``: the bucket sign
    reads ``round(dot, 12) >= 0`` on both engines, a grid that absorbs the
    ~1e-15 summation-order drift while keeping the boundary-flip
    probability negligible (a 6dp grid would be too coarse here — normalized
    dots sit O(1), and ~1e-6-wide sign boundaries WOULD get hit across
    corpus×tables×planes dots).

    Shuffle volume is num_tables× the corpus vectors — constant per row,
    independent of corpus size.
    """
    schema = _pair_schema(ds, key_col, {"cosine": pa.float64()})

    def plane_set(dim: int) -> np.ndarray:
        if plane_mode == "bridge":
            return np.array(
                [
                    [
                        [
                            bridge_gaussian(f"hp:{seed}:{t}:{p}:{d}")
                            for d in range(dim)
                        ]
                        for p in range(num_planes)
                    ]
                    for t in range(num_tables)
                ],
                dtype=np.float64,
            )
        return np.random.RandomState(seed).standard_normal((num_tables, num_planes, dim))

    def explode(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        mat = _vec_matrix(batch[vec_col])
        if mat.size == 0:
            return pa.table(
                {
                    "tbl_key": pa.array([], pa.string()),
                    key_col: pa.array([]),
                    vec_col: pa.array([], batch.schema.field(vec_col).type),
                }
            )
        nm = _normalize(mat)
        all_planes = plane_set(mat.shape[1])
        tkeys_out, keys_out, vecs_out = [], [], []
        vec_lists = batch[vec_col].to_pylist()
        for t in range(num_tables):
            bucket_ids = hyperplane_bucket(
                nm, all_planes[t], sign_round_dp=sign_round_dp
            )
            for i, key in enumerate(keys):
                tk = f"{t}:{bucket_ids[i]}"
                tkeys_out.append(tk)
                keys_out.append(key)
                vecs_out.append(vec_lists[i])
        return pa.table(
            {
                "tbl_key": pa.array(tkeys_out, pa.string()),
                key_col: pa.array(keys_out),
                vec_col: pa.array(vecs_out),
            }
        )

    def verify_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        out_l, out_r, out_c = [], [], []
        for _, group in bucket.groupby("tbl_key", sort=False):
            rows = group.drop_duplicates(subset=[key_col]).sort_values(key_col)
            if len(rows) < 2:
                continue
            keys = np.asarray(list(rows[key_col]))
            mat = _normalize(np.array(list(rows[vec_col]), dtype=np.float64))
            sims = mat @ mat.T
            ii, jj = np.nonzero(np.triu(sims > threshold, k=1))
            out_l.extend(keys[ii].tolist())
            out_r.extend(keys[jj].tolist())
            out_c.extend(np.round(sims[ii, jj], 6).tolist())
        return pd.DataFrame({"left": out_l, "right": out_r, "cosine": out_c})

    pairs = cogroup(ds.map_batches(explode, batch_format="pyarrow"), "tbl_key", verify_bucket, schema)
    return _dedupe_pair_rows(pairs, schema)


def hyperplane_bucket(
    mat: np.ndarray, planes: np.ndarray, *, sign_round_dp: int | None = None
) -> np.ndarray:
    """Sign-pattern bucket id per row (random-hyperplane LSH).
    ``sign_round_dp`` rounds the dot before the sign test so an SQL oracle
    computing the same rounded dot lands on the identical bucket."""
    dots = mat @ planes.T  # (N, P)
    if sign_round_dp is not None:
        dots = np.round(dots, sign_round_dp)
    signs = dots >= 0
    weights = 1 << np.arange(planes.shape[0], dtype=np.int64)
    return signs.astype(np.int64) @ weights


def knn_ivf(
    ds,
    queries: np.ndarray,
    *,
    k: int = 5,
    num_centroids: int = 16,
    nprobe: int = 4,
    train_sample: int = 2048,
    seed: int = 11,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    train_vectors: np.ndarray | None = None,
):
    """IVF-flat ANN: coarse k-means centroids (trained on a bounded sample),
    rows pruned to the query's ``nprobe`` nearest centroids, then scored
    exactly.  The centroid codebook is tiny and rides in the task closure;
    training is deterministic (fixed seed + sorted sample).

    ``train_vectors`` (optional) supplies the training set directly — use a
    content-keyed sample (e.g. ``hash(key) % m == 0``) when the codebook
    must be invariant to block boundaries / cluster parallelism; the
    default distributed reservoir is uniform and seeded, but block-shaped.

    Scale path trade: recall grows with nprobe (nprobe == num_centroids
    degenerates to brute force).  Same output schema as knn_bruteforce.
    """
    import ray

    from .sketches import reservoir_sample

    if train_vectors is not None:
        train = _normalize(np.asarray(train_vectors, dtype=np.float64))
    else:
        # uniform reservoir over the whole dataset — limit() would train the
        # codebook on the first rows only, biasing centroids on sorted input
        sample = reservoir_sample(ds.select_columns([vec_col]), k=train_sample, seed=seed)
        train = _normalize(np.array([r[vec_col] for r in sample], dtype=np.float64))
    rng = np.random.RandomState(seed)
    centroids = train[rng.choice(len(train), size=min(num_centroids, len(train)), replace=False)]
    for _ in range(10):  # Lloyd iterations on the sample
        assign = (train @ centroids.T).argmax(axis=1)
        for c in range(len(centroids)):
            members = train[assign == c]
            if len(members):
                centroid = members.mean(axis=0)
                norm = np.linalg.norm(centroid)
                if norm > 0:
                    centroids[c] = centroid / norm

    qn = _normalize(np.asarray(queries, dtype=np.float64))
    probe_sets = np.argsort(-(qn @ centroids.T), axis=1)[:, :nprobe]
    probed = set(probe_sets.flatten().tolist())
    queries_ref = ray.put(qn)

    def centroid_filter(batch: pa.Table) -> pa.Table:
        mat = _vec_matrix(batch[vec_col])
        if mat.size == 0:
            return batch
        assign = (_normalize(mat) @ centroids.T).argmax(axis=1)
        mask = np.isin(assign, list(probed))
        return batch.filter(pa.array(mask))

    partials = ds.map_batches(centroid_filter, batch_format="pyarrow").map_batches(
        _batch_topk_fn(queries_ref, k, vec_col, key_col), batch_format="pyarrow"
    )
    return _merge_topk(partials, k, key_col)


def knn_lsh(
    ds,
    queries: np.ndarray,
    *,
    k: int = 5,
    num_planes: int = 8,
    seed: int = 7,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
):
    """LSH-bucketed ANN: score only rows whose bucket matches a query bucket.

    The scale path: bucketing prunes the corpus ~2^planes-fold before the
    matmul; recall depends on num_planes (8 planes ≈ coarse; callers trade
    recall for cost).  Same output schema as :func:`knn_bruteforce`.
    """
    import ray

    rng = np.random.RandomState(seed)
    dim = np.asarray(queries).shape[1]
    planes = rng.standard_normal((num_planes, dim))
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    q_buckets = set(hyperplane_bucket(qn, planes).tolist())
    queries_ref = ray.put(qn)

    def bucket_filter(batch: pa.Table) -> pa.Table:
        mat = _vec_matrix(batch[vec_col])
        if mat.size == 0:
            return batch
        buckets = hyperplane_bucket(_normalize(mat), planes)
        mask = np.isin(buckets, list(q_buckets))
        return batch.filter(pa.array(mask))

    filtered = ds.map_batches(bucket_filter, batch_format="pyarrow")
    partials = filtered.map_batches(
        _batch_topk_fn(queries_ref, k, vec_col, key_col), batch_format="pyarrow"
    )
    return _merge_topk(partials, k, key_col)
