"""Table-maintenance utilities for long-lived parquet outputs.

A 100-TB pipeline that writes partitioned parquet continuously accumulates
two operational problems the engine itself must solve:

- **small files**: every incremental run appends a few blocks per partition;
  after thousands of runs a partition holds tens of thousands of KB-sized
  files and read planning dominates scan time.  ``compact_parquet`` rewrites
  a directory as ~target-size files (one streamed read → ``repartition``
  (split/coalesce, NOT a shuffle) → one write), verifying row counts before
  reporting success.
- **schema drift**: month-old shards lack columns newer shards carry (the
  deid schema gained timing columns between rounds, real corpora gain
  metadata).  ``read_parquet_union`` aligns any number of directories to the
  UNION schema — missing columns materialize as typed nulls — so one
  Dataset spans every vintage.

Both are engine features, not queries: they take and return datasets/paths
and are exercised by tests, like the checkpoint-resume machinery in
pipelines/deid.py.
"""

from __future__ import annotations

import math
import os

import pyarrow as pa


def _dir_stats(path: str) -> tuple[int, int]:
    """(n_files, total_bytes) of parquet files under ``path``."""
    n, total = 0, 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(".parquet"):
                n += 1
                total += os.path.getsize(os.path.join(root, f))
    return n, total


def compact_parquet(
    src_dir: str,
    out_dir: str,
    *,
    target_bytes: int = 128 << 20,
) -> dict:
    """Rewrite ``src_dir``'s parquet files as ~``target_bytes``-sized files
    in ``out_dir`` (which must not already contain data).

    Streaming read → ``repartition(ceil(bytes/target))`` — a split/coalesce
    of blocks, NOT an all-to-all shuffle — → one write.  Row count is
    verified before reporting, so a partial/failed rewrite can never be
    mistaken for a compacted table; the caller owns the atomic swap (write
    to a sibling dir, rename over).  Returns the counters a maintenance
    job logs: files/bytes before and after, rows.
    """
    from ..sources.parquet import read_parquet

    files_before, bytes_before = _dir_stats(src_dir)
    if files_before == 0:
        raise ValueError(f"no parquet files under {src_dir}")
    ds = read_parquet(src_dir)
    rows_before = ds.count()
    n_out = max(1, math.ceil(bytes_before / target_bytes))
    ds.repartition(n_out).write_parquet(out_dir)

    check = read_parquet(out_dir)
    rows_after = check.count()
    if rows_after != rows_before:
        raise RuntimeError(
            f"compaction row-count mismatch: {rows_before} in, {rows_after} out "
            f"({out_dir} is partial — do not swap it in)"
        )
    files_after, bytes_after = _dir_stats(out_dir)
    return {
        "files_before": files_before,
        "files_after": files_after,
        "bytes_before": bytes_before,
        "bytes_after": bytes_after,
        "rows": rows_before,
    }


def read_parquet_union(dirs: list[str], **read_kwargs):
    """One Dataset over parquet directories with DRIFTED schemas.

    Ray's ``read_parquet`` requires one schema per read; this reads each
    directory separately, computes the UNION schema (field order = first
    appearance across ``dirs``; a name appearing with two different types
    is an error — silent coercion corrupts data), adds missing columns as
    typed nulls via a zero-copy-append ``map_batches``, and unions the
    aligned datasets.
    """
    import pyarrow.dataset as pads

    from ..sources.parquet import read_parquet

    if not dirs:
        raise ValueError("read_parquet_union needs at least one directory")

    schemas = [pads.dataset(d, format="parquet").schema for d in dirs]
    union_fields: dict[str, pa.DataType] = {}
    for schema in schemas:
        for field in schema:
            seen = union_fields.get(field.name)
            if seen is None:
                union_fields[field.name] = field.type
            elif seen != field.type:
                raise ValueError(
                    f"column {field.name!r} has conflicting types across "
                    f"inputs: {seen} vs {field.type} — unify upstream"
                )

    def align(missing: list[tuple[str, pa.DataType]]):
        def fn(batch: pa.Table) -> pa.Table:
            for name, typ in missing:
                batch = batch.append_column(
                    name, pa.nulls(batch.num_rows, type=typ)
                )
            # one column order for every source so union blocks agree
            return batch.select(list(union_fields))

        return fn

    aligned = []
    for d, schema in zip(dirs, schemas):
        have = set(schema.names)
        missing = [(n, t) for n, t in union_fields.items() if n not in have]
        ds = read_parquet(d, **read_kwargs)
        aligned.append(ds.map_batches(align(missing), batch_format="pyarrow"))
    out = aligned[0]
    for ds in aligned[1:]:
        out = out.union(ds)
    return out
