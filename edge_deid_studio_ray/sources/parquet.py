"""Footer-sized parquet reads: the one place the engine sizes a read.

Ray's ``read_parquet`` splits every read into at least 2 × cluster CPUs
blocks.  :func:`read_parquet` sizes the read from the parquet footers
instead (:func:`read_blocks`), so a small table is read as one block that
fuses with the map after it.
"""

from __future__ import annotations

import os

from ..config import cluster_cpus


def read_blocks(dataset, columns: list[str] | None = None) -> int | None:
    """Block count for a read of ``dataset`` (a ``pyarrow.dataset`` of
    parquet files), from its footers alone: the uncompressed bytes of the
    projected column chunks over ``DataContext.target_min_block_size``, i.e.
    Ray's own ``max_reasonable_parallelism``.  Below Ray's CPU floor (2 ×
    cluster CPUs) that count is the override; at or above it the result is
    ``None`` and Ray's default applies, which is then already no larger.

    The CPU floor is what this removes: it would split a single-row-group
    table into sub-MiB blocks, and a split read does not fuse with the map
    after it, so every small read became its own operator and every
    downstream map ran twice the tasks."""
    from ray.data import DataContext

    nbytes = 0
    for frag in dataset.get_fragments():
        md = frag.metadata
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            for j in range(rg.num_columns):
                chunk = rg.column(j)
                if columns is None or chunk.path_in_schema.split(".")[0] in columns:
                    nbytes += chunk.total_uncompressed_size
    k = max(1, nbytes // DataContext.get_current().target_min_block_size)
    return k if k < 2 * max(1, cluster_cpus()) else None


def read_parquet(paths, columns: list[str] | None = None, blocks: int | None = None, **read_args):
    """``ray.data.read_parquet`` of ``paths`` into ``blocks`` output blocks
    when given, else the footer-sized count of :func:`read_blocks`, from one
    open of the files' footers.  ``read_args`` pass through to Ray.

    A single file is read with its own schema, projected to ``columns`` and
    without its metadata, so no block leaves the read task carrying the
    pandas metadata of a pandas-written file, whose dict values Ray cannot
    hash when it unifies block schemas (a warning per unification).  A
    directory keeps Ray's per-file schemas: its files may differ, and hive
    partition columns are not in the footers."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    dataset = pads.dataset(paths, format="parquet")
    if isinstance(paths, str) and os.path.isfile(paths) and "schema" not in read_args:
        schema = dataset.schema
        read_args["schema"] = pa.schema([schema.field(c) for c in columns] if columns is not None else list(schema))
    return rd.read_parquet(
        paths, columns=columns, override_num_blocks=blocks or read_blocks(dataset, columns), **read_args
    )
