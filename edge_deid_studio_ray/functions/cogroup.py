"""The engine's one pandas co-group.

Every co-group in the package goes through :func:`cogroup`: the query
suite, the dedup / similarity-search / corpus-op stages and the web-text
curation alike, so one place decides how rows are partitioned, how a
co-group executes and what its output blocks look like.  Callers pass the
real key column(s); no caller sizes buckets or builds a bucket column.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# the internal sort column cogroup appends, and what a null key hashes to
_HASH = "__cogroup_hash"
# prefix of the column marking one input's rows in a multi-input co-group
_INPUT = "__cogroup_input"
_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)


def _key_hash(table: pa.Table, keys: list[str]) -> pa.Array:
    """A stable 64-bit hash of each row's key values, as int64.

    ``pd.util.hash_array`` is a fixed-key SipHash, the same in every worker
    (Python ``hash()`` is salted per process).  Only non-null values are
    hashed and a null maps to ``_NULL_HASH``, so a null hashes the same in
    every block: an int column holding a null would otherwise become
    float64 in numpy and hash differently from a block without one.
    Integer keys are cast to int64 first, so an int32 and an int64 side of
    a union co-locate."""
    h = None
    for name in keys:
        col = table[name].combine_chunks()
        if pa.types.is_dictionary(col.type):
            col = col.dictionary_decode()
        if pa.types.is_integer(col.type):
            col = col.cast(pa.int64())
        if col.null_count:
            valid = col.is_valid().to_numpy(zero_copy_only=False)
            hk = np.full(len(col), _NULL_HASH, dtype=np.uint64)
            hk[valid] = pd.util.hash_array(col.drop_null().to_numpy(zero_copy_only=False))
        else:
            hk = pd.util.hash_array(col.to_numpy(zero_copy_only=False))
        h = hk if h is None else h * np.uint64(1_000_003) ^ hk
    return pa.array(h.view(np.int64))


def cogroup(ds, key, fn, schema):
    """The engine's one pandas co-group: every row of a key reaches one call
    of ``fn``, which folds them as a pandas DataFrame.

    ``ds`` is one Dataset, or a list of Datasets that all name the key
    column(s) ``key``.  Given a list, ``cogroup`` is a join: ``fn(a, b, ...)``
    gets one frame per input, holding that input's rows of the block's keys
    with exactly that input's columns.  An input with no rows in the block
    reaches ``fn`` as a zero-row frame holding only the key column(s); a
    sorted block can hold rows of one input only, so an inner join returns
    early on it.

    Execution: each block gets one internal int64 column, a stable hash of
    the ``key`` column(s) (:func:`_key_hash`); ``ds.sort`` on it co-locates
    equal keys in one sorted block; then one ``map_batches`` over whole
    blocks converts each sorted block to pandas once, drops the hash and
    calls ``fn`` once.  Ray's sort runs one reduce per input block, so the
    shape of the repartition follows the data, with no bucket count to
    size.  The sort runs on the hash, not on the raw key: Ray's sort
    compares Python values across blocks, and a string key holding a null
    raises ``TypeError`` there.  A list is hashed inside each input, in one
    map that fuses with the input's last map and also casts integer keys to
    int64 and appends an internal column marking the input (its name lists
    the input's columns, so no ``Dataset.schema()`` call runs the plan);
    the hashed inputs are then unioned and sorted as one.

    The fold contract:

    - ``fn`` receives a frame holding every row of one or more keys (the
      same block guarantee Ray's own ``map_groups`` relies on); a fold that
      needs one key at a time groups by it inside;
    - ``fn`` returns a DataFrame, or ``None`` when its rows yield nothing;
    - ``schema`` (a ``pa.Schema`` or a name → type mapping) is declared once:
      the output is encoded to Arrow as exactly these columns and types, and
      ``None`` or a zero-row block becomes a zero-row table of it, so the
      dataset schema keeps the declared columns even when no key yields a
      row (a schema-less empty frame broke ``sources_except`` at sf0.1);
    - blocks stay Arrow on both sides of the fold: the block-to-pandas
      conversion happens inside it, and pandas blocks measured far slower
      in a following shuffle or aggregate (35 s → 2.4 s on
      ``part_affinity_lift``'s pair partials at sf0.1).

    A co-group over zero rows calls no fold, so its result has no schema.
    """
    schema = pa.schema(schema)
    cols = list(zip(schema.names, schema.types))
    keys = [key] if isinstance(key, str) else list(key)
    inputs = list(ds) if isinstance(ds, (list, tuple)) else None

    def add_hash(block: pa.Table) -> pa.Table:
        return block.append_column(_HASH, _key_hash(block, keys))

    def tag(i: int):
        def add_hash_and_input(block: pa.Table) -> pa.Table:
            marker = _INPUT + json.dumps([i, block.column_names])
            for name in keys:
                if pa.types.is_integer(block.schema.field(name).type):
                    block = block.set_column(block.schema.get_field_index(name), name, block[name].cast(pa.int64()))
            return add_hash(block).append_column(marker, pa.array(np.ones(block.num_rows, np.bool_)))

        return add_hash_and_input

    def split(block: pa.Table) -> list[pd.DataFrame]:
        """One frame per input: its rows (where its marker is set) and columns.
        An input whose blocks differ in column order or set (a union of
        drifted files) has one marker per layout."""
        rows: list = [None] * len(inputs)
        for name in block.column_names:
            if name.startswith(_INPUT):
                i, names = json.loads(name[len(_INPUT) :])
                mine = block.filter(pc.is_valid(block[name])).select(names)
                rows[i] = mine if rows[i] is None else pa.concat_tables([rows[i], mine], promote_options="permissive")
        none = block.select(keys).slice(0, 0)
        return [(r if r is not None and r.num_rows else none).to_pandas() for r in rows]

    def fold(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return schema.empty_table()
        if inputs is None:
            out = fn(block.drop_columns([_HASH]).to_pandas())
        else:
            out = fn(*split(block))
        if out is None:
            return schema.empty_table()
        return pa.Table.from_arrays(
            [pa.array(out[name], type=typ, from_pandas=True) for name, typ in cols], schema=schema
        )

    fold.__name__ = fn.__name__  # keeps the fold's name in ds.stats() and the progress bar
    if inputs is None:
        hashed = ds.map_batches(add_hash, batch_size=None, batch_format="pyarrow")
    else:
        tagged = [d.map_batches(tag(i), batch_size=None, batch_format="pyarrow") for i, d in enumerate(inputs)]
        hashed = tagged[0].union(*tagged[1:])
    return hashed.sort(_HASH).map_batches(fold, batch_size=None, batch_format="pyarrow")


def each_key(key, fn):
    """A block fold for ``cogroup`` that calls ``fn`` once per distinct
    ``key`` value of the block (a null key is a group of its own) and
    concatenates what it returns; ``None`` from ``fn`` adds no rows.  For
    folds written for one key per call."""

    def fold(block: pd.DataFrame) -> pd.DataFrame | None:
        outs = [fn(g) for _, g in block.groupby(key, sort=False, dropna=False)]
        outs = [o for o in outs if o is not None]
        return pd.concat(outs, ignore_index=True) if outs else None

    fold.__name__ = fn.__name__
    return fold
