"""The engine's one pandas co-group and its bucket helpers.

Every ``groupby(key).map_groups`` in the package goes through
:func:`cogroup`: the query suite, the dedup / similarity-search /
corpus-op stages and the web-text curation alike, so one place decides
how a co-group executes and what its output blocks look like.  Bucket
assignment stays with each projection: :func:`_ibuckets` for integer keys
(one vectorized modulo), :func:`_kbucket` for any other key; the bucket
count is resolved once on the driver (``config.resolve_group_buckets``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def cogroup(ds, key, fn, schema):
    """The engine's one pandas co-group: ``ds.groupby(key).map_groups`` with
    ``fn`` folding each key group as a pandas DataFrame.  The contract of
    what a fold hands onward is decided here, not by each fold:

    - ``fn`` returns a DataFrame, or ``None`` when its group yields no rows;
    - ``schema`` (a ``pa.Schema`` or a name → type mapping) is declared once:
      each group's output is encoded to Arrow as exactly these columns and
      types, and ``None`` becomes a zero-row table of it, so the dataset
      schema keeps the declared columns even when no group yields a row
      (a schema-less empty frame broke ``sources_except`` at sf0.1);
    - output blocks are Arrow: Ray's shuffle on pandas blocks measured ~15×
      slower than on Arrow blocks (35 s → 2.4 s on ``part_affinity_lift``'s
      1.7M-row pair partials at sf0.1; 13.1 s → 1.4 s on
      ``events_interarrival_hist``'s tiny histogram at 32 cpus).

    The encode runs per group inside the fold rather than as a following
    per-block map: Ray hands a zero-row block around a batch UDF as a
    schema-less empty block, which would drop the declared columns of an
    all-empty result.  ``fn`` never sees an empty group: Ray iterates group
    boundaries, and a zero-row block has none.  The same holds for the
    whole input: a co-group over zero rows calls no fold, so its result has
    no schema.
    """
    schema = pa.schema(schema)
    cols = list(zip(schema.names, schema.types))

    def fold(group: pd.DataFrame) -> pa.Table:
        out = fn(group)
        if out is None:
            return schema.empty_table()
        return pa.Table.from_arrays(
            [pa.array(out[name], type=typ, from_pandas=True) for name, typ in cols], schema=schema
        )

    fold.__name__ = fn.__name__  # keeps the fold's name in ds.stats() and the progress bar
    return ds.groupby(key).map_groups(fold, batch_format="pandas")


def _kbucket(value, nb: int) -> int:
    """Coarse co-location bucket for any key type: identity-mod for ints
    (cheap, deterministic), crc32 for strings — NOT Python hash(), which is
    PYTHONHASHSEED-salted per process.  ``nb`` is resolved ONCE per pipeline
    build on the driver (config.resolve_group_buckets) and captured in the
    task closure — never re-derived inside workers."""
    if isinstance(value, int):
        return value % nb
    import zlib

    return zlib.crc32(str(value).encode()) % nb


def _ibuckets(values, nb: int) -> pa.Array:
    """Vectorized int-key shuffle buckets: ONE numpy modulo over the whole
    column instead of a per-row Python loop (the hot-stage rule — a
    ``[_kbucket(k, nb) for k in col.to_pylist()]`` loop costs ~100 ns/row of
    interpreter time that this replaces with a C kernel).  Accepts a pyarrow
    (Chunked)Array, numpy array, pandas Series or Python list of integer
    keys; element-wise identical to ``_kbucket(int(k), nb)`` (both mods are
    non-negative for positive ``nb``)."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        arr = values.to_numpy(zero_copy_only=False)
    else:
        arr = np.asarray(values)
    return pa.array((arr.astype(np.int64, copy=False) % nb).astype(np.int32), pa.int32())
