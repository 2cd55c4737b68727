"""Mergeable sketches + sampling operators.

The reference has no approximate aggregates (SURVEY §2.5), but a 100-TB
engine needs them: each ``map_batches`` task emits one serialized sketch per
batch and the tiny partials merge on the driver — the canonical
"pre-aggregate inside the map, shuffle almost nothing" pattern.

- :func:`approx_distinct` — HyperLogLog (dense, 2^p registers, the standard
  bias-corrected estimator).  Vectorized register updates per batch.
- :func:`heavy_hitters` — Misra–Gries summaries merged across batches, then
  an exact recount of the surviving candidates (guarantees no false
  negatives for items above the frequency threshold).
- :func:`reservoir_sample` — seeded Algorithm-R per block + weighted driver
  merge; deterministic for a fixed (seed, block structure).
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pyarrow as pa

from .cogroup import group_agg


# -- HyperLogLog -------------------------------------------------------------


def _hll_update(registers: np.ndarray, hashes: np.ndarray, p: int) -> None:
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = (hashes << np.uint64(p)) | np.uint64((1 << p) - 1)
    # rank = leading zeros of the remaining bits + 1 (≤ 64 - p + 1)
    ranks = np.zeros(len(hashes), dtype=np.int64)
    mask = np.uint64(1 << 63)
    remaining = rest.copy()
    live = np.ones(len(hashes), dtype=bool)
    for r in range(1, 64 - p + 2):
        top = (remaining & mask) != 0
        newly = live & top
        ranks[newly] = r
        live &= ~top
        if not live.any():
            break
        remaining = remaining << np.uint64(1)
    np.maximum.at(registers, idx, ranks)


def _hash_column(values: list) -> np.ndarray:
    # md5 first-8-bytes little-endian: full-entropy 64-bit hashes (two crc32s
    # are linearly correlated and skew the register index distribution), and
    # exactly DuckDB's md5_number_upper(CAST(x AS VARCHAR)) — so the whole
    # sketch, register by register, is SQL-mirrorable for the oracle check
    import hashlib

    out = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        digest = hashlib.md5(str(v).encode("utf-8", "replace")).digest()
        out[i] = np.uint64(int.from_bytes(digest[:8], "little"))
    return out


def hll_estimate(registers: np.ndarray) -> float:
    """Bias-corrected HLL estimate, computed float-deterministically.

    sum(2^-reg) is accumulated as the exact integer S = sum(2^(64-reg))
    (Python bigints via a register-value histogram), then rounded to float
    once — the result is independent of register order / block structure and
    reproducible by integer SQL (HUGEINT) plus the same two float ops.
    """
    m = len(registers)
    alpha = 0.7213 / (1 + 1.079 / m)
    counts = np.bincount(registers.astype(np.int64), minlength=1)
    s_exact = sum(int(c) << (64 - r) for r, c in enumerate(counts) if c)
    est = alpha * m * m / (float(s_exact) / float(1 << 64))
    zeros = int(counts[0])
    if est <= 2.5 * m and zeros > 0:  # small-range correction
        est = m * np.log(m / zeros)
    return float(est)


def approx_distinct(ds, col: str, *, p: int = 12) -> float:
    """Approximate count-distinct of a column (HLL, ±~1.04/sqrt(2^p))."""

    def sketch(batch: pa.Table) -> pa.Table:
        registers = np.zeros(1 << p, dtype=np.int64)
        _hll_update(registers, _hash_column(batch[col].to_pylist()), p)
        return pa.table({"sketch": pa.array([registers.tobytes()], pa.binary())})

    merged = np.zeros(1 << p, dtype=np.int64)
    for row in ds.map_batches(sketch, batch_format="pyarrow").take_all():
        merged = np.maximum(merged, np.frombuffer(row["sketch"], dtype=np.int64))
    return hll_estimate(merged)


# -- Misra–Gries heavy hitters ----------------------------------------------


def heavy_hitters(ds, col: str, *, k: int = 20, capacity: int = 256):
    """Top-k frequent values: per-batch Misra–Gries summaries (capacity
    counters) merged on the driver, then one exact recount pass over the
    surviving candidate set (broadcast) — exact counts, no false negatives
    for items with frequency > n/capacity."""
    import ray

    def summarize(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for value in batch[col].to_pylist():
            if value in counts or len(counts) < capacity:
                counts[value] += 1
            else:
                for key in list(counts):
                    counts[key] -= 1
                    if counts[key] == 0:
                        del counts[key]
        import json

        return pa.table({"mg": pa.array([json.dumps(dict(counts))], pa.string())})

    import json

    merged: Counter = Counter()
    for row in ds.map_batches(summarize, batch_format="pyarrow").take_all():
        for value, count in json.loads(row["mg"]).items():
            merged[value] += count
    candidates = {v for v, _ in merged.most_common(capacity)}
    cand_ref = ray.put(candidates)

    def candidates_only(batch: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)
        values = [v for v in (str(x) for x in batch[col].to_pylist()) if v in cand]
        return pa.table({col: pa.array(values, pa.string())})

    exact = group_agg(ds.map_batches(candidates_only, batch_format="pyarrow"), col, n=("count",))
    return exact.sort(["n", col], descending=[True, False]).limit(k)


# -- Reservoir sampling ------------------------------------------------------


def reservoir_sample(ds, *, k: int = 1000, seed: int = 0):
    """Uniform k-sample: per-block Algorithm-R reservoirs (seeded by block
    content hash → deterministic), weighted merge on the driver.

    Mirrors the reference's streaming quality-sample reservoir
    (training/mix.py:96-124) distributed: only reservoirs (≤k rows each)
    leave the workers.
    """
    import json
    import zlib

    def block_reservoir(batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        block_seed = zlib.crc32(json.dumps(rows[0], sort_keys=True, default=str).encode()) ^ seed
        rng = random.Random(block_seed)
        sample = rows[:k]
        for i in range(k, len(rows)):
            j = rng.randint(0, i)
            if j < k:
                sample[j] = rows[i]
        return pa.table(
            {
                "sample": pa.array([json.dumps(sample, default=str)], pa.string()),
                "n": pa.array([len(rows)], pa.int64()),
            }
        )

    parts = ds.map_batches(block_reservoir, batch_format="pyarrow").take_all()
    rng = random.Random(seed)
    merged: list = []
    seen = 0
    for part in parts:
        import json as _json

        rows = _json.loads(part["sample"])
        n = part["n"]
        # weighted merge: each incoming block's rows displace proportionally
        for row in rows:
            seen += max(1, n // max(1, len(rows)))
            if len(merged) < k:
                merged.append(row)
            else:
                j = rng.randint(0, seen - 1)
                if j < k:
                    merged[j] = row
    return merged[:k]


# -- Bloom filter ------------------------------------------------------------


class BloomFilter:
    """Mergeable Bloom filter (double hashing, standard construction):
    ``num_hashes`` indices per value derived as ``h1 + i*h2 (mod num_bits)``
    from one blake2b-128 digest.  No false negatives ever; false-positive
    rate ≈ (1 - e^(-k·n/m))^k.  Merge = bitwise OR — associative, so
    per-batch partials combine in any order (the map-side pre-aggregation
    shape).  Bits are packed 8-per-byte (uint8), so at 64 MB of memory
    (m = 2^29 bits) a 10^8-key set stays under 1% FP — a fixed-size
    broadcastable stand-in for an arbitrarily large key set.
    """

    def __init__(self, num_bits: int = 1 << 20, num_hashes: int = 5):
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.bits = np.zeros((num_bits + 7) // 8, dtype=np.uint8)

    def _indices(self, values: list) -> np.ndarray:
        import hashlib

        h1 = np.empty(len(values), dtype=np.uint64)
        h2 = np.empty(len(values), dtype=np.uint64)
        for i, v in enumerate(values):
            digest = hashlib.blake2b(
                str(v).encode("utf-8", "replace"), digest_size=16
            ).digest()
            h1[i] = np.uint64(int.from_bytes(digest[:8], "big"))
            h2[i] = np.uint64(int.from_bytes(digest[8:], "big") | 1)
        steps = np.arange(self.num_hashes, dtype=np.uint64)
        return ((h1[:, None] + steps[None, :] * h2[:, None]) % np.uint64(self.num_bits)).astype(
            np.int64
        )

    def _set_bits(self, idx: np.ndarray) -> None:
        # bitwise_or.at handles duplicate byte indices within one call
        np.bitwise_or.at(self.bits, idx >> 3, (1 << (idx & 7)).astype(np.uint8))

    def add_many(self, values: list) -> None:
        if values:
            self._set_bits(self._indices(values).reshape(-1))

    def contains_many(self, values: list) -> np.ndarray:
        """Vectorized membership: True = maybe present, False = definitely absent."""
        if not values:
            return np.zeros(0, dtype=bool)
        idx = self._indices(values)
        hit = (self.bits[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1
        return hit.astype(bool).all(axis=1)

    def set_indices(self) -> np.ndarray:
        return np.nonzero(np.unpackbits(self.bits, bitorder="little"))[0]

    def merge_indices(self, indices: np.ndarray) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        if len(idx):
            self._set_bits(idx)


def build_bloom(ds, col: str, *, num_bits: int = 1 << 20, num_hashes: int = 5) -> BloomFilter:
    """Distributed Bloom build: each batch emits only its newly-set bit
    indices (≪ the bit array for sparse batches); the driver ORs them into
    one filter.  Deterministic for a fixed (num_bits, num_hashes)."""

    def partial(batch: pa.Table) -> pa.Table:
        bloom = BloomFilter(num_bits, num_hashes)
        bloom.add_many(batch[col].to_pylist())
        return pa.table({"idx": pa.array([bloom.set_indices().tolist()], pa.list_(pa.int64()))})

    merged = BloomFilter(num_bits, num_hashes)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        merged.merge_indices(np.asarray(row["idx"], dtype=np.int64))
    return merged
