"""Driver-contract query suite: one entry per engine operator.

Each ``q_*`` function takes ``sf_dir`` (a /root/testdata/sf* directory) and
returns a Dataset / pandas DataFrame / pyarrow Table.  ``ORACLE_SQL`` holds
the DuckDB-equivalent SQL over the same parquet tables (views: region nation
customer supplier part orders lineitem events documents embeddings).

Correctness-harness rules honored throughout:
- aggregate/computed column names identical in Ray and SQL;
- exact arithmetic only in value-checked columns (ints, min/max, sums of
  integral values; float columns only when both engines reproduce the stored
  value bit-for-bit or after explicit rounding);
- DuckDB ``sum(BIGINT)`` returns HUGEINT → always ``CAST(... AS BIGINT)``.

Every query has an ``ORACLE_SQL`` entry.  Where per-row values are not
SQL-expressible (seeded RNG fills, difflib ratios, detector semantics), the
query stages its per-row outputs to parquet and the SQL re-derives the
layer above them from those rows; the byte-level guarantees for the rows
themselves come from tests/test_reference_parity.py.

Every pandas co-group in the package goes through
``cogroup(ds, key, fn, schema)`` from ``functions/cogroup.py``, here and in
the ``functions/`` and ``webtext`` stages alike.  Callers pass the real key
column(s); ``cogroup`` partitions the rows itself (a sort on a stable key
hash, then one fold per sorted block), so no query sizes buckets or builds
a bucket column.  It owns one contract: ``fn`` receives a frame holding
every row of one or more keys (``each_key`` adapts a fold written for one
key per call); the output ``schema`` is declared once at the call; a fold
returns a DataFrame, or ``None`` for "no rows", which becomes a zero-row
table of that schema; and the output is Arrow blocks cast to the schema.
Folds therefore build no empty frames and fix no dtypes or column order by
hand.  Every join is a ``cogroup`` over a list of inputs that name the key
alike (``_keyed`` renames a key column in the input's last map): the fold
gets one frame per input and returns early when an inner join's input has
no rows in the block.  A few algorithms keep a partition id of their own,
derived from data they already read: ``link_pagerank`` (crc32(url) mod its block ``width``,
so dangling mass replicates to every partition), ``events_ks_test`` (value
ranges, one per CPU) and the broadcast triangle count (one block per CPU).

The per-user events folds share one timeline: ``_events`` reads events
columns plus the int64 ``us`` of ``ts`` in one map fused with the read, and
``_timeline`` sorts a co-grouped block once by (user, the query's own order
columns) and returns it with a start mask for each user (and, given a gap,
each session), so no fold loops over users in Python.

Every read of an ``sf_dir`` table goes through ``_read``, which sizes its
block count from the parquet footer too (``sources.parquet.read_blocks``):
one block per MiB of projected, uncompressed column chunks while that is
below Ray's 2 × CPUs floor, Ray's own default above it.  A small table is
then one block fused with its first map.  ``_read_spread`` splits the read itself
into one block per CPU for CPU-heavy per-row stages, with no Repartition
all-to-all behind it.
"""

from __future__ import annotations

import os
import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig, cluster_cpus
from ..functions.cogroup import cogroup, each_key, group_agg
from ..functions.dedup import add_md5_column, minhash_candidates
from ..functions.simsearch import knn_bruteforce
from ..functions.textstats import lang_id, quality_counts, simhash64, fingerprint64
from ..kernels.docpipe import process_document
from ..sources.parquet import read_parquet
from ..stages.deid import make_deid_batch_fn


# the shared 10-word English stopword contract: the engine tuple and the
# SQL list literal (_STOP_SQL below) derive from this ONE constant so the
# engine/oracle agreement is structural
_STOP_WORDS = ("the", "of", "and", "to", "a", "in", "is", "it", "you", "that")

# the 30-minute inactivity gap of every session query: a user's session
# ends where consecutive events are more than this many microseconds apart.
# The engine folds and the session oracles both derive from it.
_SESSION_GAP_US = 1_800_000_000


def _strip_meta(t: pa.Table) -> pa.Table:
    # pandas-written parquet carries dict-valued schema metadata that Ray
    # cannot hash when it unifies block schemas (a warning per concat);
    # dropping it is zero-copy and semantics-free
    return t.replace_schema_metadata(None)


def _read(sf_dir: str, table: str, columns: list[str] | None = None, blocks: int | None = None):
    """Every query read of an ``sf_dir`` table: ``blocks`` output blocks when
    given, else footer-sized (``sources.parquet.read_parquet``).  A table of
    under 2 MiB of projected columns is one block, fused
    ``ReadParquet->MapBatches(<first map>)``, with no pandas schema
    metadata on its blocks."""
    return read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns, blocks)


def _events(sf_dir: str, columns: list[str]):
    """``_read`` of the events table's ``columns`` plus ``us``, the int64
    microseconds of ``ts``, in one map that fuses with the read."""

    def with_us(batch: pa.Table) -> pa.Table:
        return batch.select(columns).append_column("us", batch["ts"].cast(pa.int64()))

    return _read(sf_dir, "events", [*columns, "ts"]).map_batches(with_us, batch_format="pyarrow")


def _timeline(bucket: pd.DataFrame, order: list[str], gap_us: int | None = None):
    """Every user timeline of a co-grouped ``bucket``, sorted once.

    One stable ``np.lexsort`` by (``user_id``, *``order``) gives the sorted
    frame; the boolean ``start`` mask marks each row that opens a segment:
    a new user, or with ``gap_us`` also an event more than ``gap_us`` after
    the previous one (a gap of exactly ``gap_us`` keeps the segment open).
    Each query passes its own order columns, the tie order its oracle's
    window uses.  A string column sorts by its sorted factor codes, nulls
    last as in ``sort_values``.  Returns ``(sorted_frame, start)``."""

    def key(col: pd.Series) -> np.ndarray:
        if pd.api.types.is_numeric_dtype(col):
            return col.to_numpy()
        return pd.factorize(col, sort=True, use_na_sentinel=False)[0]

    idx = np.lexsort([key(bucket[c]) for c in reversed(["user_id", *order])])
    g = bucket.take(idx).reset_index(drop=True)
    user = g["user_id"].to_numpy()
    start = np.ones(len(g), dtype=bool)
    start[1:] = user[1:] != user[:-1]
    if gap_us is not None:
        start[1:] |= np.diff(g["us"].to_numpy()) > gap_us
    return g, start


def _rows(sf_dir: str, *tables: str) -> int:
    """Total row count of ``tables`` in ``sf_dir``, read from the parquet
    footers (no data scan): what an adaptive query compares with its
    broadcast bound before reading any key."""
    import pyarrow.dataset as pads

    return sum(
        pads.dataset(os.path.join(sf_dir, f"{t}.parquet"), format="parquet").count_rows()
        for t in tables
    )


def _spread_blocks() -> int:
    """One block per cluster CPU, capped at 64: the read-time split of
    ``_read_spread`` (and the one repartition of a mapped edge list that is
    re-scanned per round).  More blocks than cores only add per-block
    overhead, which dominates at small scale."""
    return max(1, min(64, cluster_cpus()))


def _actor_pool() -> dict:
    """``map_batches`` pool arguments for a stateful actor stage, shaped by
    the cluster's CPUs.  On one CPU the single actor reserves none: an
    actor holding the only CPU starves the upstream read/map tasks that
    feed it, and the query never finishes (half a CPU starved it too).
    With more CPUs the pool starts at one actor and grows to two, each
    holding one CPU."""
    if cluster_cpus() <= 1:
        return {"concurrency": 1, "num_cpus": 0}
    return {"concurrency": (1, 2), "num_cpus": 1}


def _read_spread(sf_dir: str, table: str, columns: list[str] | None = None):
    """Read for CPU-heavy per-row stages, split at read time into one block
    per cluster CPU (``_spread_blocks``): the sf* tables are
    single-row-group files, so a footer-sized read of one would run a
    downstream shingle/signature stage on one core.  The read's own split
    spreads the rows, with no Repartition all-to-all barrier behind it; at
    1 CPU it is one block, fused with the first map."""
    return _read(sf_dir, table, columns, blocks=_spread_blocks())


# per-worker-process cache for broadcast derived structures (flattened
# models, lookup tables): module globals survive across tasks within one
# worker, unlike task-closure state which is re-deserialized per task
_WORKER_CACHE: dict = {}


# synthetic dedup-fixture partner ids derive as doc_id + this offset; real
# ids at/above it would silently collide with derived ids (wrong pair texts,
# no error).  The offset is mirrored verbatim in ~8 oracle SQL strings, so
# it is a loud assert, not a data-derived value.
_PERTURB_ID_OFFSET = 1_000_000


def _assert_id_headroom(col, limit: int = _PERTURB_ID_OFFSET) -> None:
    """Fail loudly if any id would collide with a synthetic partner id
    (one vectorized max per batch — negligible next to the text work)."""
    mx = pc.max(col).as_py()
    if mx is not None and mx >= limit:
        raise ValueError(
            f"doc_id {mx} >= perturb offset {limit}: synthetic partner ids "
            "would collide with real ids; raise _PERTURB_ID_OFFSET and "
            "mirror the new offset in the ORACLE_SQL fixtures"
        )


def _keyed(ds, column: str, key: str):
    """``ds`` with ``column`` renamed ``key``, in a map that fuses with the
    map before it: every input of a list ``cogroup`` names its key alike."""
    return ds.map_batches(
        lambda t: t.rename_columns([key if c == column else c for c in t.column_names]),
        batch_format="pyarrow",
    )


def _broadcast_dim(sf_dir: str, table: str, key_col: str, val_col: str) -> dict:
    """Driver-side key→value map of a DIMENSION table (the documented
    small-side assumption of every broadcast join here): streamed in
    64k-row batches so the driver never holds more than the dict itself.
    Callers ``ray.put`` the result once and read it zero-copy per task."""
    out: dict = {}
    for batch in _read(sf_dir, table, [key_col, val_col]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        out.update(zip(batch[key_col].to_pylist(), batch[val_col].to_pylist()))
    return out


# ---------------------------------------------------------------------------
# Grouped aggregations (SURVEY §2.5 → functions/cogroup.py:group_agg)
# ---------------------------------------------------------------------------


def q_doc_stats_by_lang(sf_dir: str):
    """Per-language document stats (counts + exact int sums/extremes)."""
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return group_agg(
        ds,
        "lang",
        n_docs=("count",),
        sum_chars=("sum", "n_chars"),
        min_chars=("min", "n_chars"),
        max_chars=("max", "n_chars"),
    )


def q_doc_token_stats(sf_dir: str):
    """Token/stopword counts per language: per-document counts, one
    grouped sum."""
    stop = _STOP_WORDS
    token_re = re.compile(r"\S+")

    def counts(batch: pa.Table) -> pa.Table:
        toks = [token_re.findall((text or "").lower()) for text in batch["text"].to_pylist()]
        return pa.table(
            {
                "lang": batch["lang"],
                "t": pa.array([len(ts) for ts in toks], pa.int64()),
                "s": pa.array([sum(1 for t in ts if t in stop) for ts in toks], pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["lang", "text"]).map_batches(counts, batch_format="pyarrow")
    return group_agg(ds, "lang", n_tokens=("sum", "t"), n_stopwords=("sum", "s"))


def q_word_freq_top20(sf_dir: str):
    """Global word frequency top-20 (batch-partial counts → grouped sum →
    multi-key sort → limit)."""

    def partial(batch: pa.Table) -> pa.Table:
        counter: Counter[str] = Counter()
        for text in batch["text"].to_pylist():
            counter.update((text or "").split())
        return pa.table(
            {
                "word": pa.array(list(counter.keys()), pa.string()),
                "partial": pa.array(list(counter.values()), pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["text"]).map_batches(partial, batch_format="pyarrow")
    counts = group_agg(ds, "word", n=("sum", "partial"))

    # after group_agg each word lives in exactly one block, so a block's
    # non-local-top-20 row can never be in the global top 20 — prune
    # map-side and sort only ~20 rows per block instead of the whole vocab
    def local_top(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["n", "word"], ascending=[False, True]).head(20)
        return _strip_meta(pa.Table.from_pandas(df, preserve_index=False))

    pruned = counts.map_batches(local_top, batch_format="pyarrow")
    return pruned.sort(["n", "word"], descending=[True, False]).limit(20)


def q_heavy_hitter_words(sf_dir: str):
    """Top-20 words via Misra–Gries summaries + exact recount of survivors —
    the sketch path must agree exactly with the full groupby (same oracle as
    word_freq_top20)."""
    from ..functions.sketches import heavy_hitters

    def words(batch: pa.Table) -> pa.Table:
        out: list[str] = []
        for text in batch["text"].to_pylist():
            out.extend((text or "").split())
        return pa.table({"word": pa.array(out, pa.string())})

    ds = _read(sf_dir, "documents", ["text"]).map_batches(words, batch_format="pyarrow")
    return heavy_hitters(ds, "word", k=20, capacity=256)


def q_approx_distinct(sf_dir: str):
    """HLL approximate distinct counts next to exact ones.  Fully
    oracle-checked: the sketch hash is DuckDB's ``md5_number_upper`` and the
    estimator folds registers through exact integer arithmetic
    (`sketches.hll_estimate`), so SQL reproduces the estimate bit-for-bit
    (rounded to 4 decimals to absorb any libm ``ln`` ulp divergence in the
    small-range correction branch)."""
    from ..functions.sketches import approx_distinct

    rows = []
    for table, col in (("documents", "source"), ("events", "event_type"), ("orders", "o_custkey")):
        ds = _read(sf_dir, table, [col]).map_batches(
            lambda t, c=col: t.filter(pc.is_valid(t[c])), batch_format="pyarrow"
        )
        est = approx_distinct(ds, col, p=12)
        exact = len(ds.unique(col))
        rows.append((f"{table}.{col}", round(est, 4), exact))
    return pa.table(
        {
            "column": pa.array([r[0] for r in rows], pa.string()),
            "hll_estimate": pa.array([r[1] for r in rows], pa.float64()),
            "exact": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def q_lineitem_pricing_summary(sf_dir: str):
    """TPC-H-Q1-style grouped aggregate with a read-level row filter."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity", "l_shipdate"])
    cutoff = pa.scalar(np.datetime64("1998-09-01", "us"), pa.timestamp("us"))
    ds = ds.map_batches(
        lambda t: t.filter(pc.less_equal(t["l_shipdate"], cutoff)), batch_format="pyarrow"
    )
    out = group_agg(ds, ["l_returnflag", "l_linestatus"], sum_qty=("sum", "l_quantity"), n_rows=("count",))
    return out


def q_events_hourly(sf_dir: str):
    """Tumbling 1-hour window counts per event type (exact int window keys)."""

    def to_window(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64())
        window = pc.multiply(pc.divide(us, 3_600_000_000), 3_600_000_000)
        return pa.table({"event_type": batch["event_type"], "window_us": window})

    ds = _read(sf_dir, "events", ["event_type", "ts"]).map_batches(
        to_window, batch_format="pyarrow"
    )
    return group_agg(ds, ["event_type", "window_us"], n_events=("count",))


# ---------------------------------------------------------------------------
# Joins / sort / limit
# ---------------------------------------------------------------------------


def _sessionize(bucket: pd.DataFrame, gap_us: int) -> pd.DataFrame:
    """The gap sessions of every user in ``bucket`` (columns ``user_id``,
    ``us``): one row per session with its first and last timestamp and its
    event count.  The session queries pass ``_SESSION_GAP_US``."""
    g, start = _timeline(bucket, ["us"], gap_us)
    us = g["us"].to_numpy()
    first = np.flatnonzero(start)
    last = np.append(first[1:], len(us))[: len(first)] - 1  # none for zero rows
    return pd.DataFrame(
        {
            "user_id": g["user_id"].to_numpy()[first],
            "session_start_us": us[first],
            "session_end_us": us[last],
            "n_events": last - first + 1,
        }
    )


def _bigram_counts(bucket: pd.DataFrame) -> pd.DataFrame:
    """Counts of each (``cur``, ``nxt``) pair of consecutive event types in
    the (us, event_id) timelines of ``bucket``'s users: the first-order
    transitions every Markov query folds."""
    g, start = _timeline(bucket, ["us", "event_id"])
    types = g["event_type"].to_numpy()
    same = ~start[1:]
    pairs = pd.DataFrame({"cur": types[:-1][same], "nxt": types[1:][same]})
    return pairs.groupby(["cur", "nxt"], as_index=False).size().rename(columns={"size": "n"})


def _cents(values: pd.Series) -> np.ndarray:
    """Exact int64 cents of a 2-dp value column: round(value · 100)."""
    return pc.cast(pc.round(pc.multiply(pa.array(values), 100.0)), pa.int64()).to_numpy()


def q_events_sessions(sf_dir: str):
    """Session windows (30-min inactivity gap) per user: the event log is
    co-grouped by user and each folded block is windowed in one
    sorted numpy pass (``_sessionize``) — the streaming-shaped pattern for a
    batch engine.

    Ordering assumption: sessionization is computed after an in-group sort by
    ts; ties in ts are gap-0 so session membership is tie-order invariant.
    """

    def sessionize_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        return _sessionize(bucket, _SESSION_GAP_US)

    return cogroup(
        _events(sf_dir, ["user_id"]),
        "user_id",
        sessionize_bucket,
        {
            "user_id": pa.int64(),
            "session_start_us": pa.int64(),
            "session_end_us": pa.int64(),
            "n_events": pa.int64(),
        },
    )


def q_events_sliding_window(sf_dir: str):
    """Hopping windows (size 1h, hop 30min): each event explodes to its two
    covering windows inside map_batches (pre-aggregated per batch), then one
    small grouped sum."""
    hop_us = 1_800_000_000

    def explode(batch: pa.Table) -> pa.Table:
        agg: dict[tuple[str, int], int] = {}
        types = batch["event_type"].to_pylist()
        us = batch["ts"].cast(pa.int64()).to_pylist()
        for etype, t in zip(types, us):
            base = (t // hop_us) * hop_us
            for ws in (base, base - hop_us):
                key = (etype, ws)
                agg[key] = agg.get(key, 0) + 1
        return pa.table(
            {
                "event_type": pa.array([k[0] for k in agg], pa.string()),
                "window_us": pa.array([k[1] for k in agg], pa.int64()),
                "partial": pa.array(list(agg.values()), pa.int64()),
            }
        )

    ds = _read(sf_dir, "events", ["event_type", "ts"]).map_batches(explode, batch_format="pyarrow")
    return group_agg(ds, ["event_type", "window_us"], n_events=("sum", "partial"))


def q_events_running_total(sf_dir: str):
    """Per-event running count within each user's timeline (cumulative
    stateful-stream semantics in batch form: co-grouped by user, sorted
    cumcount)."""

    def running(bucket: pd.DataFrame) -> pd.DataFrame:
        g, _ = _timeline(bucket, ["us", "event_id"])
        return pd.DataFrame(
            {"event_id": g["event_id"], "running_n": g.groupby("user_id", sort=False).cumcount() + 1}
        )

    ds = _events(sf_dir, ["event_id", "user_id"])
    return cogroup(ds, "user_id", running, {"event_id": pa.int64(), "running_n": pa.int64()})


def q_events_asof_join(sf_dir: str):
    """Per-key as-of join: odd-id events (stream A) matched to the latest
    even-id event (stream B) at-or-before their timestamp, per user — the
    ``pd.merge_asof``-inside-co-group pattern for time-aligned streams.

    B is deduped to one row per (user, ts), so the tie-breaking is
    well-defined; A rows with no prior B are dropped
    (inner as-of)."""

    def asof(bucket: pd.DataFrame) -> pd.DataFrame:
        odd = (bucket["event_id"] % 2 == 1).to_numpy()
        a = bucket.loc[odd, ["event_id", "user_id", "us"]].sort_values("us")
        b = bucket.loc[~odd, ["user_id", "us"]].drop_duplicates().rename(columns={"us": "b_us"})
        joined = pd.merge_asof(
            a, b.sort_values("b_us"), left_on="us", right_on="b_us", by="user_id", direction="backward"
        )
        return joined.dropna(subset=["b_us"])

    ds = _events(sf_dir, ["event_id", "user_id"])
    return cogroup(ds, "user_id", asof, {"event_id": pa.int64(), "b_us": pa.int64()})


def q_events_late_data(sf_dir: str):
    """Watermark / late-data accounting (streaming semantics in batch form):
    events arrive in ``event_id`` order; the watermark after each arrival is
    ``max(ts so far) - 10 min``, and an event is LATE iff its own ts is
    behind the watermark built by STRICTLY earlier arrivals.

    Distributed shape = the classic two-pass prefix scan: pass 1 computes a
    per-range max-ts (one row per contiguous event_id range — tiny), the
    driver folds those into exclusive prefix maxima and broadcasts the map;
    pass 2 re-scans each range with its incoming prefix and a local running
    max.  Driver state is O(#ranges), never O(#events).
    """
    import ray

    lateness_us = 600_000_000
    range_size = 1024

    def tag_range(batch: pa.Table) -> pa.Table:
        rng = pc.divide(batch["event_id"], range_size)
        return pa.table(
            {
                "range_id": pc.cast(rng, pa.int64()),
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "us": batch["ts"].cast(pa.int64()),
            }
        )

    # two consumers (pass-1 aggregate + pass-2 scan): materialize so the
    # read+tag map does not lazily re-execute per consumer
    ds = _read(sf_dir, "events", ["event_id", "event_type", "ts"]).map_batches(
        tag_range, batch_format="pyarrow"
    ).materialize()

    # pass 1: per-range max ts (small aggregate), driver prefix fold
    range_rows = group_agg(ds, "range_id", max_us=("max", "us")).take_all()
    range_rows.sort(key=lambda r: r["range_id"])
    prefix: dict[int, int] = {}
    running = None
    for row in range_rows:
        prefix[row["range_id"]] = running if running is not None else -(1 << 62)
        running = max(running, row["max_us"]) if running is not None else row["max_us"]
    prefix_ref = ray.put(prefix)

    # pass 2: per-range local scan with the incoming exclusive prefix
    def late_counts(bucket: pd.DataFrame) -> pd.DataFrame:
        pre = ray.get(prefix_ref)
        out: dict[str, list] = {"event_type": [], "n": [], "late": []}
        for range_id, g in bucket.groupby("range_id", sort=False):
            g = g.sort_values("event_id")
            us = g["us"].to_numpy()
            run = np.maximum.accumulate(us)
            incoming = pre.get(int(range_id), -(1 << 62))
            wm = np.empty(len(us), dtype=np.int64)
            wm[0] = incoming
            if len(us) > 1:
                wm[1:] = np.maximum(run[:-1], incoming)
            late = (wm - lateness_us) > us
            counts = pd.DataFrame({"event_type": g["event_type"].to_numpy(), "late": late})
            agg = counts.groupby("event_type")["late"].agg(["size", "sum"])
            out["event_type"].extend(agg.index.tolist())
            out["n"].extend(int(v) for v in agg["size"])
            out["late"].extend(int(v) for v in agg["sum"])
        return pd.DataFrame(out)

    partials = cogroup(
        ds,
        "range_id",
        late_counts,
        {"event_type": pa.string(), "n": pa.int64(), "late": pa.int64()},
    )
    return group_agg(partials, "event_type", n_events=("sum", "n"), n_late=("sum", "late"))


def q_events_funnel(sf_dir: str):
    """Sequential-pattern funnel (view → click → purchase, each step within
    30 min of the previous): users reaching each step, greedy-leftmost
    semantics (first view, then the FIRST qualifying click after it, then
    the first qualifying purchase after that).

    Shape: events co-group by user (a user's timeline folds whole), each
    folded block walks its users' sorted timelines and emits per-step partial
    counts; one tiny 3-row grouped sum finishes.  Per-user state never
    leaves the group task, so the shuffle ships (user_id, us, event_type)
    rows once — the same partitioning-by-entity contract as sessionization.
    Each step after the first is one forward as-of join per block: a
    user's earliest step event strictly after the previous step's time and
    at most ``step_us`` later.
    """
    step_us = 1_800_000_000
    steps = ("view", "click", "purchase")

    def funnel_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        at = bucket.loc[bucket["event_type"] == steps[0]].groupby("user_id", as_index=False)["us"].min()
        reached = [len(at)]
        for step in steps[1:]:
            hits = bucket.loc[bucket["event_type"] == step, ["user_id", "us"]].rename(columns={"us": "next_us"})
            at = pd.merge_asof(
                at.sort_values("us"),
                hits.sort_values("next_us"),
                left_on="us",
                right_on="next_us",
                by="user_id",
                direction="forward",
                allow_exact_matches=False,
                tolerance=step_us,
            ).dropna(subset=["next_us"])
            at = pd.DataFrame({"user_id": at["user_id"], "us": at["next_us"].astype(np.int64)})
            reached.append(len(at))
        return pd.DataFrame({"funnel_step": [1, 2, 3], "partial": reached})

    return group_agg(
        cogroup(
            _events(sf_dir, ["user_id", "event_type"]),
            "user_id",
            funnel_bucket,
            {"funnel_step": pa.int64(), "partial": pa.int64()},
        ),
        "funnel_step",
        n_users=("sum", "partial"),
    )


def q_customer_per_nation(sf_dir: str):
    """Broadcast hash join: customer × nation (small side shipped once via
    ray.put, dict lookup per batch — no shuffle)."""
    import ray

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).take_all()
    lookup_ref = ray.put({r["n_nationkey"]: r["n_name"] for r in nation})

    def join_batch(batch: pa.Table) -> pa.Table:
        lookup = ray.get(lookup_ref)
        names = [lookup.get(k) for k in batch["c_nationkey"].to_pylist()]
        return pa.table({"n_name": pa.array(names, pa.string())})

    ds = _read(sf_dir, "customer", ["c_nationkey"]).map_batches(
        join_batch, batch_format="pyarrow"
    )
    return group_agg(ds, "n_name", n_customers=("count",))


def q_orders_top10(sf_dir: str):
    """Top-k by value: per-batch local top-10 prune, then a sort over the
    surviving ~10-per-block rows (a full distributed sort of the fact table
    would shuffle every row for a 10-row answer)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def local_top(batch: pa.Table) -> pa.Table:
        df = (
            batch.to_pandas()
            .sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
            .head(10)
        )
        return _strip_meta(pa.Table.from_pandas(df, preserve_index=False))

    pruned = ds.map_batches(local_top, batch_format="pyarrow")
    return pruned.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


def q_orders_join_customers(sf_dir: str):
    """Large-side join as one co-group on the customer key: order counts
    per customer market segment.  Each sorted block's fold joins its orders
    to their customers and counts per segment, so the final groupby ships
    |segments| × blocks partial rows, not one row per joined order."""
    orders = _keyed(_read(sf_dir, "orders", ["o_custkey"]), "o_custkey", "ckey")
    customer = _keyed(_read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]), "c_custkey", "ckey")

    def segment_counts(orders: pd.DataFrame, customers: pd.DataFrame) -> pd.DataFrame | None:
        if orders.empty or customers.empty:
            return None
        vc = orders.merge(customers, on="ckey")["c_mktsegment"].value_counts()
        return pd.DataFrame({"c_mktsegment": vc.index, "n_p": vc.to_numpy()})

    return group_agg(
        cogroup([orders, customer], "ckey", segment_counts, {"c_mktsegment": pa.string(), "n_p": pa.int64()}),
        "c_mktsegment",
        n_orders=("sum", "n_p"),
    )


def q_asia_order_volume(sf_dir: str):
    """TPC-H-Q5-style multi-way join: one co-group on the order key for the
    large fact pair (lineitem ⋈ orders), with the customer⊳nation⊳region
    dimension chain broadcast via ``ray.put``; exact per-nation counts +
    integral quantity sums, ASIA only.

    Plan: co-group only the genuinely large-large pair and broadcast the
    dimensions, which is also the right plan at 100-TB scale.  The co-group
    is a sort, so it runs on any CPU count (``Dataset.join``'s aggregator
    actors waited on CPUs that running tasks held and hung at 1 CPU).
    """
    import ray

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]).take_all()
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).take_all()
    asia_keys = {r["r_regionkey"] for r in region if r["r_name"] == "ASIA"}
    asia_nations = {
        n["n_nationkey"]: n["n_name"] for n in nation if n["n_regionkey"] in asia_keys
    }
    cust_to_nation = {}
    for batch in _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        for ck, nk in zip(batch["c_custkey"].to_pylist(), batch["c_nationkey"].to_pylist()):
            if nk in asia_nations:
                cust_to_nation[ck] = asia_nations[nk]
    cust_map_ref = ray.put(cust_to_nation)

    lineitem = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    # predicate pushdown BEFORE the join: the broadcast ASIA-customer lookup
    # shrinks the orders build side (and the join output) ~5x map-side, and
    # the join then carries n_name directly — the filter-early plan a SQL
    # optimizer would pick, expressed in Ray
    def orders_asia(batch: pa.Table) -> pa.Table:
        lookup = ray.get(cust_map_ref)
        names = [lookup.get(k) for k in batch["o_custkey"].to_pylist()]
        mask = pa.array([n is not None for n in names])
        out = pa.table({"okey": batch["o_orderkey"], "n_name": pa.array(names, pa.string())})
        return out.filter(mask)

    # the fold sums per nation, so the final groupby ships |nations|×blocks
    # rows, not one row per joined lineitem.  Quantities are integer-valued
    # doubles (1..50), so partial double sums are exact and order-free.
    def nation_partials(line: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame | None:
        if line.empty or orders.empty:
            return None
        g = line.merge(orders, on="okey").groupby("n_name")["l_quantity"].agg(["size", "sum"])
        return pd.DataFrame({"n_name": g.index, "n_p": g["size"].to_numpy(), "q_p": g["sum"].to_numpy()})

    return group_agg(
        cogroup(
            [
                _keyed(lineitem, "l_orderkey", "okey"),
                orders.map_batches(orders_asia, batch_format="pyarrow"),
            ],
            "okey",
            nation_partials,
            {"n_name": pa.string(), "n_p": pa.int64(), "q_p": pa.float64()},
        ),
        "n_name",
        n_lineitems=("sum", "n_p"),
        sum_qty=("sum", "q_p"),
    )


def q_customers_without_orders(sf_dir: str):
    """Bloom-accelerated EXACT anti-join: customers with no high-value order.

    A mergeable Bloom filter over the filtered order keys (fixed-size,
    built from per-batch bit-index partials, broadcast once via ``ray.put``)
    splits customers map-side: definitely-absent rows are counted without
    ever shuffling; only the Bloom "maybe" rows (true hits + the small FP
    slice) co-group with the order keys for the exact verify.  No false
    negatives → the result is identical to the plain co-group anti-join,
    with shuffle volume proportional to the MATCHING side, not the corpus.
    """
    import ray

    from ..functions.sketches import build_bloom

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customers = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    filtered_orders = orders.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 300000.0)),
        batch_format="pyarrow",
    )
    bloom = build_bloom(filtered_orders, "o_custkey")
    bloom_ref = ray.put(bloom)

    def split_customers(batch: pa.Table) -> pa.Table:
        """Definite-miss rows → per-segment partial counts (key -1); maybe
        rows → keyed rows for the exact co-group.
        Fully vectorized: numpy masks split the batch, np.unique folds the
        miss counts — no per-row Python loop."""
        b = ray.get(bloom_ref)
        keys = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        segs = batch["c_mktsegment"].to_numpy(zero_copy_only=False)
        maybe = b.contains_many(keys.tolist())
        hit_keys = keys[maybe]
        miss_segs, miss_ns = np.unique(segs[~maybe], return_counts=True)
        n_miss = miss_segs.size
        return pa.table(
            {
                # partial-count rows get key -1 and pass the fold through
                "key": pa.array(
                    np.concatenate([hit_keys, np.full(n_miss, -1, np.int64)]),
                    pa.int64(),
                ),
                "c_mktsegment": pa.array(
                    np.concatenate([segs[maybe], miss_segs]).tolist(), pa.string()
                ),
                "partial": pa.array(
                    np.concatenate(
                        [np.zeros(hit_keys.size, np.int64), miss_ns.astype(np.int64)]
                    ),
                    pa.int64(),
                ),
            }
        )

    def order_keys(batch: pa.Table) -> pa.Table:
        return pa.table({"key": pc.unique(batch["o_custkey"])})

    def anti(orders: pd.DataFrame, custs: pd.DataFrame) -> pd.DataFrame | None:
        if custs.empty:
            return None
        # pre-counted definite misses (key -1) pass their partials through
        pre = custs["key"] == -1
        misses = custs.loc[~pre & ~custs["key"].isin(orders["key"])]
        counts = pd.concat(
            [
                custs.loc[pre].groupby("c_mktsegment")["partial"].sum(),
                misses.groupby("c_mktsegment").size(),
            ]
        )
        return pd.DataFrame({"c_mktsegment": counts.index, "partial": counts.to_numpy()})

    partials = cogroup(
        [
            filtered_orders.map_batches(order_keys, batch_format="pyarrow"),
            customers.map_batches(split_customers, batch_format="pyarrow"),
        ],
        "key",
        anti,
        {"c_mktsegment": pa.string(), "partial": pa.int64()},
    )
    return group_agg(partials, "c_mktsegment", n_customers=("sum", "partial"))


def q_distinct_sources(sf_dir: str):
    """Distinct values of a column (``Dataset.unique`` — a shuffle)."""
    values = _read(sf_dir, "documents", ["source"]).unique("source")
    return pa.table({"source": pa.array(sorted(values), pa.string())})


def q_doc_length_percentiles(sf_dir: str):
    """Exact per-language length percentiles (G1 distribution semantics:
    p50 = median with even-count interpolation, p95 = sorted[int(.95*(n-1))])
    via a distributed value histogram: one grouped (lang, n_chars) count →
    rank walk over the tiny histogram.

    Scale note: a per-language ``map_groups`` would materialize a whole
    language's rows in one task (10^11+ at corpus scale); the histogram is
    bounded by the number of DISTINCT lengths per language instead, and the
    percentile is still exact for integer-valued columns.
    """
    hist = group_agg(_read(sf_dir, "documents", ["lang", "n_chars"]), ["lang", "n_chars"], c=("count",))

    by_lang: dict[str, list[tuple[int, int]]] = {}
    for row in hist.take_all():  # |distinct (lang, length)| rows — small
        by_lang.setdefault(row["lang"], []).append((row["n_chars"], row["c"]))

    def value_at_rank(pairs: list[tuple[int, int]], rank: int) -> int:
        cum = 0
        for value, count in pairs:
            cum += count
            if cum > rank:
                return value
        return pairs[-1][0]

    langs, p50s, p95s = [], [], []
    for lang in sorted(by_lang):
        pairs = sorted(by_lang[lang])
        n = sum(c for _, c in pairs)
        if n % 2 == 1:
            p50 = float(value_at_rank(pairs, n // 2))
        else:
            p50 = (value_at_rank(pairs, n // 2 - 1) + value_at_rank(pairs, n // 2)) / 2.0
        p95 = float(value_at_rank(pairs, int(0.95 * (n - 1))))
        langs.append(lang)
        p50s.append(p50)
        p95s.append(p95)
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "p50_chars": pa.array(p50s, pa.float64()),
            "p95_chars": pa.array(p95s, pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# De-identification operators (the reference surface)
# ---------------------------------------------------------------------------


def _doc_perturb_fn(suffix: str):
    """Batch fn: perturbed copy of each document (id + 1_000_000, text +
    suffix) — the forced near-duplicate fixture the dedup queries share."""

    def perturb(batch: pa.Table) -> pa.Table:
        _assert_id_headroom(batch["doc_id"])
        return pa.table(
            {
                "doc_id": pa.array(
                    [d + _PERTURB_ID_OFFSET for d in batch["doc_id"].to_pylist()],
                    pa.int64(),
                ),
                "text": pa.array(
                    [(t or "") + suffix for t in batch["text"].to_pylist()], pa.string()
                ),
            }
        )

    return perturb


def _docs_with_perturbed(sf_dir: str, suffix: str = " appended"):
    """(base, base ∪ perturbed) documents datasets."""
    base = _read_spread(sf_dir, "documents", ["doc_id", "text"])
    return base, base.union(
        base.map_batches(_doc_perturb_fn(suffix), batch_format="pyarrow")
    )


def _embedding_queries(sf_dir: str) -> np.ndarray:
    """Query matrix for the ANN oracles: embedding rows vec_id 0..2, read
    with row-group predicate pushdown (no full scan for 3 rows)."""
    import ray.data as rd

    rows = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filter=(pc.field("vec_id") < 3),
    ).take_all()
    rows.sort(key=lambda r: r["vec_id"])
    return np.array([r["embedding"] for r in rows], dtype=np.float64)


def _documents_as_pages(sf_dir: str, columns=("doc_id", "text", "lang")):
    ds = _read(sf_dir, "documents", list(columns))

    def to_pages(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "url": pa.array([f"doc://{d}" for d in batch["doc_id"].to_pylist()], pa.string()),
                "doc_id": batch["doc_id"],
                "html": pa.array([None] * batch.num_rows, pa.binary()),
                "text": batch["text"],
                "lang": batch["lang"],
            }
        )

    return ds.map_batches(to_pages, batch_format="pyarrow")


def q_deid_entity_counts(sf_dir: str):
    """Resolved entity counts by (lang, type) over documents — the regex
    detect + conflict-resolve path, entities exploded then pre-aggregated."""
    cfg = EngineConfig()
    deid = make_deid_batch_fn(cfg)

    def partial(batch: pa.Table) -> pa.Table:
        out = deid(batch)
        agg: dict[tuple[str, str], int] = {}
        for lang, ents in zip(out["lang"].to_pylist(), out["entities"].to_pylist()):
            for e in ents:
                key = (lang, e["type"])
                agg[key] = agg.get(key, 0) + 1
        return pa.table(
            {
                "lang": pa.array([k[0] for k in agg], pa.string()),
                "type": pa.array([k[1] for k in agg], pa.string()),
                "partial": pa.array(list(agg.values()), pa.int64()),
            }
        )

    ds = _documents_as_pages(sf_dir).map_batches(partial, batch_format="pyarrow")
    return group_agg(ds, ["lang", "type"], n=("sum", "partial"))


def q_deid_blackbox_stats(sf_dir: str):
    """Per-document blackbox-mode span accounting: span count, masked char
    total, and length preservation (n_chars == clean length)."""
    cfg = EngineConfig(mode="blackbox")

    def stats(batch: pa.Table) -> pa.Table:
        out: dict[str, list] = {"doc_id": [], "n_spans": [], "masked_chars": [], "n_chars": []}
        for doc_id, text, lang in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist(), batch["lang"].to_pylist()
        ):
            row = process_document(text=text, lang=lang, cfg=cfg)
            assert len(row["clean_text"]) == row["n_chars"]  # length-preserving
            out["doc_id"].append(doc_id)
            out["n_spans"].append(row["n_spans"])
            out["masked_chars"].append(sum(e["end"] - e["start"] for e in row["entities"]))
            out["n_chars"].append(row["n_chars"])
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "n_spans": pa.array(out["n_spans"], pa.int64()),
                "masked_chars": pa.array(out["masked_chars"], pa.int64()),
                "n_chars": pa.array(out["n_chars"], pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text", "lang"]).map_batches(
        stats, batch_format="pyarrow"
    )


def q_deid_replace_documents(sf_dir: str):
    """Full replace-mode deid over documents — the STRUCTURE of the result
    is oracle-checked even though the surrogate strings are seeded-RNG bound
    (their bytes are pinned by tests/test_reference_parity.py): this corpus
    only triggers MEDICAL_ID spans, whose surrogate is always 'M' + 7 digits
    (kernels/replace.py:85-87, mirroring the reference fake_provider), so
    the oracle predicts len(clean_text) exactly as
    len(text) − masked_chars + 8·n_spans — the replace-stage span
    arithmetic verified end-to-end through the REAL replacement path."""
    cfg = EngineConfig()
    deid = make_deid_batch_fn(cfg)

    def run(batch: pa.Table) -> pa.Table:
        out = deid(batch)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "context_hash": out["context_hash"],
                "n_spans": out["n_spans"],
                "clean_len": pa.array(
                    [len(t or "") for t in out["clean_text"].to_pylist()], pa.int64()
                ),
            }
        )

    return _documents_as_pages(sf_dir).map_batches(run, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Dedup / fingerprints / language / quality
# ---------------------------------------------------------------------------


def q_deid_context_hashes(sf_dir: str):
    """Per-document context hash (sha256 of the extracted text — the
    deterministic-replacement seed scope, handlers/base.py:54-58) + resolved
    span count; fully SQL-checkable."""

    def hashes(batch: pa.Table) -> pa.Table:
        from ..kernels.contracts import context_hash as chash

        rows = []
        for doc_id, text, lang in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist(), batch["lang"].to_pylist()
        ):
            row = process_document(text=text, lang=lang)
            rows.append((doc_id, row["context_hash"], row["n_spans"]))
        return pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "context_hash": pa.array([r[1] for r in rows], pa.string()),
                "n_spans": pa.array([r[2] for r in rows], pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text", "lang"]).map_batches(
        hashes, batch_format="pyarrow"
    )


def q_exact_dedup_groups(sf_dir: str):
    """Exact dedup groups over documents ∪ documents (forced duplicates):
    md5 content hash → one grouped aggregate → (copies, keeper=min id).

    ``group_agg`` pre-aggregates each block, so its shuffle ships three
    narrow columns per distinct hash — never the text rows."""

    def hashed(batch: pa.Table) -> pa.Table:
        return add_md5_column(batch).select(["text_md5", "doc_id"])

    hashes = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(hashed, batch_format="pyarrow")
    return group_agg([hashes, hashes], "text_md5", n_copies=("count",), keeper=("min", "doc_id"))


def q_minhash_near_dups(sf_dir: str):
    """MinHash-LSH near-duplicate pairs: documents plus perturbed copies
    (one word appended, id+1_000_000) must pair with their originals.

    LSH generates candidates; each candidate is verified with EXACT char-5
    shingle Jaccard ≥ 0.7, so the output is SQL-oracle-checkable (DuckDB
    recomputes the exact pair set with an inverted shingle-index join).
    The corpus has a wide similarity gap (real pairs ≥ 0.80, noise ≤ 0.35),
    so 16-band/4-row LSH recall at the threshold is deterministic-complete
    here; ``verify="signature"`` remains the 100-TB path when exactness can
    be traded for constant shuffle volume.

    Regime bound (applies to the near-dup family sharing this fixture):
    per-pair LSH miss probability at J=0.81 is (1−0.81⁴)^16 ≈ 1.3e-4 —
    measured ZERO misses over the 5,000 pairs at sf0.1, but the expectation
    crosses 1 around sf1 (~50k pairs).  If the correctness harness ever
    runs these queries above sf0.1, widen the banding (num_bands=32,
    num_hashes=128 → miss ≈ 1.6e-8) before trusting an equality oracle."""

    _base, corpus = _docs_with_perturbed(sf_dir)
    corpus = corpus.materialize()  # feeds candidates AND verify once
    pairs = minhash_candidates(
        corpus,
        jaccard_threshold=0.7,
        num_hashes=64,
        num_bands=16,
        verify="text",
    )
    return pairs.select_columns(["left", "right"])


def q_near_dup_clusters(sf_dir: str):
    """MinHash-LSH pairs → connected components (distributed min-label
    propagation): cluster sizes of the near-dup graph over documents ∪
    perturbed copies.  Oracle: DuckDB recursive-CTE transitive closure over
    the exact pair set, component = min reachable id (the same label the
    int CC path converges to)."""
    from ..functions.dedup import connected_components

    pairs = q_minhash_near_dups(sf_dir)
    components = connected_components(pairs, max_iter=6)
    return group_agg(components, "component", cluster_size=("count",))


def q_ngram_jaccard_pairs(sf_dir: str):
    """Word 3-gram Jaccard layered on the MinHash near-dup pairs
    (token-level near-dup metric on the LSH candidates).  The metric is
    computed IN the LSH verify group via ``pair_metrics`` — pair texts are
    already co-resident there, so the second metric costs zero extra
    shuffles (the generic two-pass ``pair_text_metric`` join remains the
    tool for metrics over pairs from a foreign source, exercised by
    ``jaccard_doc_perturbed``).  Unrounded int/int division — bit-identical
    doubles vs DuckDB."""
    from ..functions.dedup import word_ngram_jaccard

    _base, corpus = _docs_with_perturbed(sf_dir)
    corpus = corpus.materialize()  # feeds candidates AND verify once
    pairs = minhash_candidates(
        corpus,
        jaccard_threshold=0.7,
        num_hashes=64,
        num_bands=16,
        verify="text",
        pair_metrics={"ngram_jaccard": lambda a, b: word_ngram_jaccard(a, b, 3)},
    )
    return pairs.select_columns(["left", "right", "ngram_jaccard"])


def q_simhash_near_dups(sf_dir: str):
    """SimHash banded near-dup pairs over documents ∪ perturbed copies,
    Hamming ≤ 6 of 64 bits.  With 8 bands of 8 bits the banded LSH is
    pigeonhole-complete for ≤ 7 differing bits, so the output is EXACTLY
    the all-pairs Hamming-≤6 set — which the oracle recomputes in SQL
    (md5-derived word hashes make the whole signature SQL-expressible)."""
    from ..functions.dedup import simhash_near_dups

    _base, corpus = _docs_with_perturbed(sf_dir, " tail")
    return simhash_near_dups(
        corpus,
        max_hamming=6,
        num_bands=8,
    )


def q_text_fingerprints(sf_dir: str):
    """Deterministic per-doc fingerprints: rolling-hash + SimHash-64 +
    heuristic language ID (rows-only; values stable across runs)."""

    def fp(batch: pa.Table) -> pa.Table:
        texts = [t or "" for t in batch["text"].to_pylist()]
        sims = [simhash64(t) for t in texts]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "fingerprint": pa.array([fingerprint64(t) for t in texts], pa.int64()),
                "simhash": pa.array(
                    [s - (1 << 64) if s >= (1 << 63) else s for s in sims], pa.int64()
                ),
                "lang_pred": pa.array([lang_id(t) for t in texts], pa.string()),
            }
        )

    return _read_spread(sf_dir, "documents", ["doc_id", "text"]).map_batches(fp, batch_format="pyarrow")


def q_doc_lang_id(sf_dir: str):
    """Heuristic language ID per document (CJK ratio → zh, else best
    stopword overlap with en<de<es<fr tie order) — the full heuristic is
    SQL-expressible, so this one is oracle-checked."""

    def pred(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": pa.array(
                    [lang_id(t or "") for t in batch["text"].to_pylist()], pa.string()
                ),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        pred, batch_format="pyarrow"
    )


def q_doc_quality_counts(sf_dir: str):
    """Per-document integer quality signals (SQL-checkable exact counts)."""

    def qc(batch: pa.Table) -> pa.Table:
        rows = [quality_counts(t or "") for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array([r["n_tokens"] for r in rows], pa.int64()),
                "n_alpha": pa.array([r["n_alpha"] for r in rows], pa.int64()),
                "n_stopwords": pa.array([r["n_stopwords"] for r in rows], pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(qc, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Similarity search
# ---------------------------------------------------------------------------


def q_knn_bruteforce(sf_dir: str):
    """Exact cosine top-5 for query vectors 0/1/2 (broadcast query matrix,
    per-batch matmul partials, final per-query merge)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = knn_bruteforce(ds, _embedding_queries(sf_dir), k=5)
    return out.select_columns(["query_id", "vec_id"])


def q_knn_ivf_full_probe(sf_dir: str):
    """IVF-flat ANN with ``nprobe == num_centroids`` — probing every cell
    degenerates to exact search, so the whole IVF path (reservoir-sampled
    k-means codebook, centroid assignment filter, tree-merged top-k) is
    value-checked against the same LATERAL top-5 SQL as brute force."""
    from ..functions.simsearch import knn_ivf

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = knn_ivf(ds, _embedding_queries(sf_dir), k=5, num_centroids=8, nprobe=8)
    return out.select_columns(["query_id", "vec_id"])


def q_knn_ivf_nprobe(sf_dir: str):
    """IVF-flat ANN at the actual scale configuration (``nprobe=2`` of 8 —
    score only a quarter of the inverted cells): per-query overlap with the
    exact top-5, i.e. recall@5 accounting.

    Fully oracle-checked (r4 — previously rows-only): the codebook reuses
    the q_kmeans_spherical contract exactly — seed centroids vec_id 0..7,
    3 spherical Lloyd rounds with 6dp-ROUNDED cosine assignment (lowest-cid
    tie-break) and component-SUM updates (spherical assignment is
    scale-invariant, so the un-divided sum is the same direction as the
    mean and nothing drifts), empty cells keep their centroid — trained on
    the md5-bridge quarter sample (``bridge(vec_id) % 4 == 0``, which
    DuckDB re-derives with ``md5_number_upper``).  The SQL then re-derives
    the full-corpus cell assignment, the per-query nprobe=2 probe sets,
    the in-cell exact top-5 (raw-cosine order, vec_id tie-break — the
    proven knn_bruteforce contract) and the recall overlap.

    Scale shape: the sample is corpus/4 here for oracle compactness — at
    production scale train on q_kmeans_spherical's distributed per-round
    fold (identical contract, embeddings never leave the cluster); corpus
    assignment + in-cell scoring are stateless scans with the K×dim
    codebook broadcast once, and the top-k merge is the same two-level
    tree as knn_bruteforce (O(queries × k × batches) shuffle)."""
    import hashlib

    import ray

    from ..functions.simsearch import (
        _merge_topk,
        _normalize,
        _vec_matrix,
        knn_bruteforce,
    )

    K, ROUNDS, NPROBE, TOPK = 8, 3, 2, 5

    import ray.data as rd

    seed_rows = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filter=(pc.field("vec_id") < K),
    ).take_all()
    seed_rows.sort(key=lambda r: r["vec_id"])
    cmat = np.array([r["embedding"] for r in seed_rows], dtype=np.float64)

    def bridge_mask(batch: pa.Table) -> pa.Table:
        keep = [
            int.from_bytes(hashlib.md5(str(v).encode()).digest()[:8], "little") % 4
            == 0
            for v in batch["vec_id"].to_pylist()
        ]
        return batch.filter(pa.array(keep))

    train = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(bridge_mask, batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
    )
    sm = np.array(list(train["embedding"]), dtype=np.float64)

    def _cos6(mat: np.ndarray, cm: np.ndarray) -> np.ndarray:
        vn = np.linalg.norm(mat, axis=1)
        vn[vn == 0.0] = 1.0
        cn = np.linalg.norm(cm, axis=1)
        cn[cn == 0.0] = 1.0
        return np.round((mat @ cm.T) / np.outer(vn, cn), 6)

    for _ in range(ROUNDS):
        assign = np.argmax(_cos6(sm, cmat), axis=1)  # first max == lowest cid
        new = cmat.copy()
        for cid in range(K):
            members = sm[assign == cid]
            if len(members):
                new[cid] = members.sum(axis=0)
        cmat = new

    qmat = _embedding_queries(sf_dir)
    cosq = _cos6(qmat, cmat)
    # top-NPROBE cells per query: cos desc, cid asc (lexsort: last key primary)
    probe_sets = np.stack(
        [np.lexsort((np.arange(K), -cosq[qi]))[:NPROBE] for qi in range(len(qmat))]
    )

    cmat_ref = ray.put(cmat)
    q_ref = ray.put(qmat)

    def cell_topk(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
        mat = _vec_matrix(batch["embedding"])
        if mat.size == 0:
            return empty
        cm = ray.get(cmat_ref)
        qm = ray.get(q_ref)
        assign = np.argmax(_cos6(mat, cm), axis=1)
        nmat = _normalize(mat)
        nq = _normalize(qm)
        keys = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_q, out_k, out_c = [], [], []
        for qi in range(len(qm)):
            mask = np.isin(assign, probe_sets[qi])
            if not mask.any():
                continue
            sims = nmat[mask] @ nq[qi]
            kk = min(TOPK, sims.size)
            idx = np.argpartition(-sims, kk - 1)[:kk] if sims.size > kk else np.arange(sims.size)
            out_q.extend([qi] * len(idx))
            out_k.extend(keys[mask][idx].tolist())
            out_c.extend(sims[idx].tolist())
        if not out_q:
            return empty
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_k, pa.int64()),
                "cosine": pa.array(out_c, pa.float64()),
            }
        )

    partials = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        cell_topk, batch_format="pyarrow"
    )
    approx = _merge_topk(partials, TOPK, "vec_id").to_pandas()
    exact = knn_bruteforce(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), qmat, k=TOPK
    ).to_pandas()
    ex_sets = exact.groupby("query_id")["vec_id"].apply(set)
    ap_sets = approx.groupby("query_id")["vec_id"].apply(set)
    qids = sorted(int(i) for i in ex_sets.index)
    return pa.table(
        {
            "query_id": pa.array(qids, pa.int64()),
            "recall_hits": pa.array(
                [len(ap_sets.get(qid, set()) & ex_sets[qid]) for qid in qids],
                pa.int64(),
            ),
        }
    )


def q_embedding_near_dups(sf_dir: str):
    """Embedding-cosine near-dup pairs above 0.4 (exact, broadcast matmul)."""
    from ..functions.simsearch import embedding_near_dups

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_near_dups(ds, threshold=0.4).select_columns(["left", "right"])


# ---------------------------------------------------------------------------
# Flagship pages pipeline (synthetic Common-Crawl-style input)
# ---------------------------------------------------------------------------

_SF_PAGES = {"0.001": 500, "0.01": 2000, "0.1": 20000}


def pages_rows_for(sf_dir: str) -> int:
    tail = os.path.basename(sf_dir.rstrip("/")).replace("sf", "")
    return _SF_PAGES.get(tail, 500)


# The path the pages oracles read via read_parquet().  Its directory is
# this driver process's own link (``_keyed_fixture``): the harness runs the
# query BEFORE its oracle, and each pages query points the link at the
# fixture of its sf, so the SQL sees the corpus the engine just processed,
# whatever sf another process on the host builds meanwhile.
_PAGES_FIXTURE = f"/tmp/eds_pages_fixture/pid{os.getpid()}/pages.parquet"

_OUTLINK_BASE_RE = re.compile(r"^(https?://[^/]+)")


def _resolve_outlinks(url: str, raw) -> set:
    """The ONE outlink-resolution contract shared by every link-analysis
    query (pagerank / HITS / reciprocity / in-degree census) and mirrored
    by every edge-deriving oracle CTE: absolute http(s) hrefs pass
    through, root-relative hrefs resolve against the page authority,
    everything else drops, self-links drop.  Change it here and in the
    fixture SQL TOGETHER — a one-sided edit forks the edge contract."""
    from ..kernels.html_text import decode_html_bytes, extract_links

    if not raw:
        return set()
    base = _OUTLINK_BASE_RE.match(url)
    dsts = set()
    for href, _anchor in extract_links(decode_html_bytes(raw)):
        if href.startswith("http://") or href.startswith("https://"):
            absu = href
        elif href.startswith("/") and base:
            absu = base.group(1) + href
        else:
            continue
        if absu != url:
            dsts.add(absu)
    return dsts



def _write_fixture(marker: str, stamp: str, tables: dict) -> None:
    """Write fixture parquet files (path → table) under a version marker,
    crash-consistently: the old marker is deleted first, each file lands
    through a temp file and ``os.replace``, and the marker is written last.
    A run that dies midway leaves no marker, so the next run regenerates
    instead of finding an old stamp over another sf's corpus."""
    import pyarrow.parquet as pq

    if os.path.exists(marker):
        os.remove(marker)
    for path, table in tables.items():
        tmp = f"{path}.{os.getpid()}.tmp"
        pq.write_table(table, tmp)
        os.replace(tmp, path)
    with open(marker, "w") as f:
        f.write(stamp)


def _keyed_fixture(link: str, stamp: str, names: list[str], build) -> list[str]:
    """The fixture files ``names`` of ``stamp``: ``build()`` returns their
    tables, written once into a directory of the stamp's own next to
    ``link``, so processes at different sf never overwrite each other's
    corpus.  ``link``, the directory this process's oracle SQL reads, is
    then pointed at it (a symlink swapped in with ``os.replace``) and goes
    away when the process exits."""
    import atexit

    d = os.path.join(os.path.dirname(link), stamp.replace(" ", "_"))
    paths = [os.path.join(d, name) for name in names]
    marker = os.path.join(d, "_MARKER")
    built = False
    if os.path.exists(marker):
        with open(marker) as f:
            built = f.read() == stamp
    if not built:
        os.makedirs(d, exist_ok=True)
        _write_fixture(marker, stamp, dict(zip(paths, build())))
    if not os.path.lexists(link):
        atexit.register(lambda: os.path.lexists(link) and os.remove(link))
    tmp = f"{link}.lnk"
    if os.path.lexists(tmp):
        os.remove(tmp)
    os.symlink(d, tmp)
    os.replace(tmp, link)
    return paths


def _ensure_pages_fixture(sf_dir: str) -> str:
    """Materialize the DECODED synthetic pages corpus once per (n, seed,
    generator version) so oracle SQL can re-derive extraction semantics from
    first principles over the raw page strings (VERDICT r3 #4 pattern).

    Columns: url; route (the registry routing rule re-stated on raw row
    facts — text present / .csv suffix / %PDF- magic / html — NOT by running
    the extractor); page (decoded html string, html route only); text (the
    passthrough payload).  Pure driver-side generation (no Ray): the fixture
    is test infrastructure, not the operator under test; idempotent via a
    version marker so repeated bench runs pay the write once.  Returns the
    fixture of this sf, and points this process's ``_PAGES_FIXTURE`` at it."""
    from ..sources.pages import GENERATOR_VERSION

    n = pages_rows_for(sf_dir)
    stamp = f"n={n} seed=42 v={GENERATOR_VERSION} fx=1"
    link, name = os.path.split(_PAGES_FIXTURE)
    (path,) = _keyed_fixture(link, stamp, [name], lambda: [_decoded_pages(n)])
    return path


def _decoded_pages(n: int) -> pa.Table:
    """The fixture rows of the first ``n`` synthetic pages."""
    from ..kernels.html_text import decode_html_bytes
    from ..kernels.pdf_text import is_pdf
    from ..sources.pages import synthesize_pages_table

    chunks = []
    for lo in range(0, n, 2048):
        raw = synthesize_pages_table(range(lo, min(lo + 2048, n)))
        urls = raw["url"].to_pylist()
        texts = raw["text"].to_pylist()
        payloads = raw["html"].to_pylist()
        routes, pages_out = [], []
        for url, text, payload in zip(urls, texts, payloads):
            payload = payload or b""
            if text is not None:
                route = "text"
            elif url.lower().endswith(".csv"):
                route = "csv"
            elif is_pdf(payload):
                route = "pdf"
            else:
                route = "html"
            routes.append(route)
            pages_out.append(decode_html_bytes(payload) if route == "html" else "")
        chunks.append(
            pa.table(
                {
                    "url": pa.array(urls, pa.string()),
                    "route": pa.array(routes, pa.string()),
                    "page": pa.array(pages_out, pa.string()),
                    "text": raw["text"],
                }
            )
        )
    return pa.concat_tables(chunks)


# Staged-output oracles: the query writes parquet and its ORACLE_SQL reads
# the same files back.  One root per driver process, so concurrent runs on
# one host (parallel pytest + bench) never rmtree each other's staged rows
# between a query and its oracle; the root goes away when the driver exits.
_STAGING_ROOT = f"/tmp/eds_staging_{os.getpid()}"
_PPC_STAGING = f"{_STAGING_ROOT}/ppc"
_TDP_STAGING = f"{_STAGING_ROOT}/tdp"
_NER_STUB_STAGING = f"{_STAGING_ROOT}/ner_stub"
_IMG_STUB_STAGING = f"{_STAGING_ROOT}/img_stub"
_PLACEHOLDER_STAGING = f"{_STAGING_ROOT}/placeholder"
_EVAL_STAGING = f"{_STAGING_ROOT}/eval"


def _fresh_staging(path: str) -> str:
    """Empty ``path`` for a staged-output query to write into; the first
    call of a run registers the run's staging root for removal at exit."""
    import atexit
    import shutil

    if not os.path.isdir(_STAGING_ROOT):
        atexit.register(shutil.rmtree, _STAGING_ROOT, ignore_errors=True)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _read_staged(path: str, schema: pa.Schema):
    """Read a staged-output dir back.  A stage that produced no rows leaves
    no file (Ray writes nothing for an all-empty dataset), and both Ray and
    the DuckDB oracle reject a dir without parquet; a typed zero-row file in
    its place reads back as a typed empty result on both sides."""
    import pyarrow.parquet as pq
    import ray.data as rd

    if not any(f.endswith(".parquet") for f in os.listdir(path)):
        pq.write_table(schema.empty_table(), os.path.join(path, "empty.parquet"))
    return rd.read_parquet(path)


def q_pages_pipeline_counters(sf_dir: str):
    """Flagship extraction+deid over synthetic pages, run through the REAL
    resumable job (parquet shard write + atomic manifest commit); returns
    the MANIFEST's per-partition lineage counters (pid → docs/spans/bytes)
    — the north-rule metrics surface, reference report shape
    (run_multi_dataset_pipeline.py:805-830).

    Oracle-checked via the staged-output pattern (same contract as
    training_data_pipeline): the job's written shard parquet
    (``shard=s0/pid=K/`` hive dirs) IS the fixture, and the SQL re-derives
    docs/spans/bytes per pid from those rows — so the whole counter path
    (pyarrow group_by in _shard_counters + manifest JSON roundtrip) is
    value-checked, not just executed.  The n_spans VALUES come from the
    full YAML regex detector over all routes, whose per-row semantics are
    oracled by pages_extract_hashes / deid_entity_counts; this query's
    oracle pins the aggregation + lineage layer above them."""
    from ..pipelines.deid import run_deid_job
    from ..sources.pages import pages_dataset
    from ..state.manifest import committed_shards

    n = pages_rows_for(sf_dir)
    run_deid_job([("s0", lambda: pages_dataset(n))], _fresh_staging(_PPC_STAGING))
    manifest = committed_shards(_PPC_STAGING)["s0"]
    pids = sorted(manifest.per_pid, key=int)
    return pa.table(
        {
            "pid": pa.array([int(p) for p in pids], pa.int64()),
            "docs": pa.array([manifest.per_pid[p]["docs"] for p in pids], pa.int64()),
            "spans": pa.array([manifest.per_pid[p]["spans"] for p in pids], pa.int64()),
            "bytes": pa.array([manifest.per_pid[p]["bytes"] for p in pids], pa.int64()),
        }
    )


def _oracle_visible_pages(sf_dir: str, *, include_text_route: bool):
    """The pages subset whose extraction an SQL oracle can re-derive from
    the fixture: html-route rows whose decode produced no U+FFFD (the 2%
    malformed-splice slice can break a tag differently for a stream parser
    vs a regex — those rows stay covered by the rows-only pipeline queries
    and the parity tests), plus optionally the passthrough-text rows.
    Filtering happens on the INPUT (row-wise pure pipeline ⇒ identical
    per-row results), so the full deid pipeline still runs downstream."""
    from ..kernels.pdf_text import is_pdf
    from ..sources.pages import pages_dataset

    def keep(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        texts = batch["text"].to_pylist()
        payloads = batch["html"].to_pylist()
        mask = []
        for url, text, payload in zip(urls, texts, payloads):
            payload = payload or b""
            if text is not None:
                mask.append(include_text_route)
            elif url.lower().endswith(".csv") or is_pdf(payload):
                mask.append(False)
            else:
                mask.append("�" not in payload.decode("utf-8", errors="replace"))
        return batch.filter(pa.array(mask))

    return pages_dataset(pages_rows_for(sf_dir)).map_batches(
        keep, batch_format="pyarrow"
    )


def q_pages_extract_hashes(sf_dir: str):
    """Per-url EXTRACTION hash + length over the synthetic pages corpus,
    oracle-checked from first principles: the query materializes the decoded
    page fixture, and the oracle re-derives get_text("\\n") semantics in SQL
    (strip script/style bodies, split on markup tokens, drop empty runs,
    join with newline, decode &copy;) plus the passthrough route verbatim.
    Covers the html + text routes without U+FFFD decodes (the pdf/csv/
    malformed slices remain covered by pages_pipeline_counters and the
    parity suite).  The deid half of the pipeline still executes here —
    only the compared columns are extraction-side (deid bytes are oracled
    by deid_context_hashes / deid_blackbox_stats)."""
    from ..pipelines.deid import build_deid_pipeline

    _ensure_pages_fixture(sf_dir)
    ds = build_deid_pipeline(_oracle_visible_pages(sf_dir, include_text_route=True))

    def hashes(batch: pa.Table) -> pa.Table:
        from ..functions.dedup import md5_hex

        texts = batch["extracted_text"].to_pylist()
        return pa.table(
            {
                "url": batch["url"],
                "route": batch["route"],
                "extract_md5": pa.array(
                    [md5_hex(t or "") for t in texts], pa.string()
                ),
                "n_extract_chars": pa.array(
                    [len(t or "") for t in texts], pa.int64()
                ),
            }
        )

    return ds.map_batches(hashes, batch_format="pyarrow")


def q_pages_link_stats(sf_dir: str):
    """Link extraction over the pages corpus (the WAT-file side of a CC
    extraction pass): top-20 hrefs by total occurrences with the number of
    distinct pages linking them.  Per-batch partial counts pre-aggregate
    (href vocabulary, not page count, ships), one grouped sum, map-side
    top-k prune before the final sort.

    Oracle-checked: the engine runs the streaming HTMLParser link collector;
    the oracle re-derives the hrefs with a regex over the decoded page
    fixture.  Scope = fetched-html route without U+FFFD decodes (see
    _oracle_visible_pages) — links live in markup, so the pdf/csv/
    passthrough routes are out of domain by definition."""
    from ..kernels.html_text import decode_html_bytes, extract_links

    _ensure_pages_fixture(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        totals: Counter = Counter()
        pages: Counter = Counter()
        for raw in batch["html"].to_pylist():
            if not raw:
                continue
            links = extract_links(decode_html_bytes(raw))
            hrefs = [h for h, _ in links]
            totals.update(hrefs)
            pages.update(set(hrefs))
        keys = list(totals)
        return pa.table(
            {
                "href": pa.array(keys, pa.string()),
                "n_total_p": pa.array([totals[k] for k in keys], pa.int64()),
                "n_pages_p": pa.array([pages[k] for k in keys], pa.int64()),
            }
        )

    out = group_agg(
        _oracle_visible_pages(sf_dir, include_text_route=False).map_batches(partial, batch_format="pyarrow"),
        "href",
        n_total=("sum", "n_total_p"),
        n_pages=("sum", "n_pages_p"),
    )
    return out.sort(["n_total", "href"], descending=[True, False]).limit(20)


def _url_host(urls) -> pa.Array:
    """The ``^https?://([^/]+)`` host of each url, ``""`` when none matches
    (the oracles' ``regexp_extract``)."""
    return pc.fill_null(pc.struct_field(pc.extract_regex(urls, r"^https?://(?P<host>[^/]+)"), [0]), "")


# Staging dir for the training-data flow: the query writes the deid output
# (url, extracted_text, context_hash) here mid-pipeline — the resumable-
# staging pattern a 100-TB run uses between expensive phases — and BOTH the
# curation stages and the DuckDB oracle consume the staged parquet, so the
# SQL re-derives quality_score, the ≥0.4/≥50-char filter, exact dedup and
# all four attrition counters from the same rows the engine curated (the
# path is _TDP_STAGING, with the other staged-output roots above).


def q_pages_host_rollup(sf_dir: str):
    """Per-HOST web-analytics rollup over the flagship extraction output
    (the crawl-operations view: which hosts contribute how many pages and
    how much extracted text).  Runs the FULL deid pipeline on the
    oracle-visible pages and folds (host → pages, extracted chars)
    map-side — host cardinality is bounded by the web, not the crawl, so
    the exchange is one tiny grouped sum.  Oracle-checked from first
    principles: the SQL re-derives get_text extraction over the decoded
    page fixture and groups by the regexp host."""
    from ..pipelines.deid import build_deid_pipeline

    _ensure_pages_fixture(sf_dir)
    ds = build_deid_pipeline(_oracle_visible_pages(sf_dir, include_text_route=True))

    def hosts(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": _url_host(batch["url"]),
                "n_chars": pa.array([len(t or "") for t in batch["extracted_text"].to_pylist()], pa.int64()),
            }
        )

    return group_agg(
        ds.map_batches(hosts, batch_format="pyarrow"), "host", n_pages=("count",), n_chars=("sum", "n_chars")
    )


def q_pages_anchor_text(sf_dir: str):
    """Anchor-text inversion over the pages corpus — the second WAT-side
    product of a Common-Crawl extraction pass: for each link TARGET, what
    text do pages use to point at it (the classic web-search relevance /
    training-data signal).  Per-batch partial Counters fold (href, anchor)
    pairs map-side, so the exchange ships the site link vocabulary per
    batch, never the crawl; one grouped sum co-locates each (href, anchor)
    pair, and a per-href merge derives total occurrences, distinct-anchor
    count and the modal anchor (ties broken lexicographically).  At 100 TB
    the (href, anchor) key space is web-vocabulary-bounded and shards
    evenly; no stage holds more than one site's vocabulary.

    Oracle-checked: the SQL re-extracts the <a> tags from the decoded page
    fixture with a regex and re-derives the same aggregation with window
    functions.  Scope = html route without U+FFFD decodes (links live in
    markup; see _oracle_visible_pages)."""
    from ..kernels.html_text import decode_html_bytes, extract_links

    _ensure_pages_fixture(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        pairs: Counter = Counter()
        for raw in batch["html"].to_pylist():
            if not raw:
                continue
            pairs.update(extract_links(decode_html_bytes(raw)))
        keys = list(pairs)
        return pa.table(
            {
                "href": pa.array([h for h, _ in keys], pa.string()),
                "anchor": pa.array([a for _, a in keys], pa.string()),
                "n_p": pa.array([pairs[k] for k in keys], pa.int64()),
            }
        )

    summed = group_agg(
        _oracle_visible_pages(sf_dir, include_text_route=False).map_batches(partial, batch_format="pyarrow"),
        ["href", "anchor"],
        n=("sum", "n_p"),
    )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        top = df.sort_values(["n", "anchor"], ascending=[False, True]).iloc[0]
        return pd.DataFrame(
            {
                "href": [df["href"].iloc[0]],
                "n_total": [df["n"].sum()],
                "n_anchors": [len(df)],
                "top_anchor": [str(top["anchor"])],
                "top_anchor_n": [top["n"]],
            }
        )

    out = cogroup(
        summed,
        "href",
        each_key("href", merge),
        {
            "href": pa.string(),
            "n_total": pa.int64(),
            "n_anchors": pa.int64(),
            "top_anchor": pa.string(),
            "top_anchor_n": pa.int64(),
        },
    )
    return out.sort(["n_total", "href"], descending=[True, False]).limit(20)


def q_pages_line_dedup(sf_dir: str):
    """CCNet-style line-level duplicate detection over the EXTRACTED web
    text: hash every line of every page's extraction, count occurrences
    and distinct pages, report the top template lines (≥2 distinct pages).
    This is the signal CCNet/C4 use to strip nav/footer boilerplate at
    corpus scale — a line shared by many pages is template, not content.
    Per-batch partial Counters pre-aggregate (line → n_total, n_pages)
    map-side (each page's lines live in exactly one task, so summed
    per-batch set-counts are the exact distinct-page counts); the exchange
    ships the line vocabulary once per batch, never the corpus, and the
    line-hash key space shards evenly — the only heavy keys are the
    template lines, which are exactly the output.

    Oracle-checked: the SQL re-derives get_text("\\n") extraction over the
    decoded page fixture, splits on newline and re-aggregates.  The full
    deid pipeline still executes upstream — compared columns are
    extraction-side."""
    from ..pipelines.deid import build_deid_pipeline

    _ensure_pages_fixture(sf_dir)
    ds = build_deid_pipeline(_oracle_visible_pages(sf_dir, include_text_route=True))

    def partial(batch: pa.Table) -> pa.Table:
        totals: Counter = Counter()
        pages: Counter = Counter()
        for text in batch["extracted_text"].to_pylist():
            lines = [ln for ln in (text or "").split("\n") if ln]
            totals.update(lines)
            pages.update(set(lines))
        keys = list(totals)
        return pa.table(
            {
                "line": pa.array(keys, pa.string()),
                "n_total_p": pa.array([totals[k] for k in keys], pa.int64()),
                "n_pages_p": pa.array([pages[k] for k in keys], pa.int64()),
            }
        )

    out = (
        group_agg(
            ds.map_batches(partial, batch_format="pyarrow"),
            "line",
            n_total=("sum", "n_total_p"),
            n_pages=("sum", "n_pages_p"),
        )
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["n_pages"], 2)),
            batch_format="pyarrow",
        )
    )
    return out.sort(
        ["n_pages", "n_total", "line"], descending=[True, True, False]
    ).limit(20)


def q_pages_pii_density(sf_dir: str):
    """Per-HOST PII-density rollup over the extracted web text — the
    crawl-governance view: which hosts carry how much detectable PII per
    extracted char (the gate a 100-TB crawl uses to route hosts into
    stricter redaction tiers).  Span counting uses the shared
    ``_MEDICAL_RE`` token contract — the SQL-expressible detector subset;
    the full YAML detector is oracled by deid_entity_counts and covered
    rows-only by pages_pipeline_counters — with the same CJK carve-out the
    documents oracles use (Python's unicode ``\\b`` and RE2's ASCII ``\\b``
    disagree around CJK word chars, so CJK-bearing extractions score 0).
    Each page yields (host, chars, spans); host cardinality is
    web-bounded, so ONE tiny grouped sum ships per block.

    Oracle: SQL re-derives extraction over the decoded page fixture and
    re-counts the same regex under the same carve-out."""
    import re as _re

    from ..pipelines.deid import build_deid_pipeline

    _ensure_pages_fixture(sf_dir)
    ds = build_deid_pipeline(_oracle_visible_pages(sf_dir, include_text_route=True))
    med_re = _re.compile(_MEDICAL_RE)
    cjk_re = _re.compile("[一-鿿]")

    def density(batch: pa.Table) -> pa.Table:
        texts = [t or "" for t in batch["extracted_text"].to_pylist()]
        return pa.table(
            {
                "host": _url_host(batch["url"]),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
                "n_pii": pa.array([0 if cjk_re.search(t) else len(med_re.findall(t)) for t in texts], pa.int64()),
            }
        )

    return group_agg(
        ds.map_batches(density, batch_format="pyarrow"),
        "host",
        n_pages=("count",),
        n_chars=("sum", "n_chars"),
        n_pii=("sum", "n_pii"),
    )


def q_doc_script_ratios(sf_dir: str):
    """Per-language character-class composition of the corpus (Latin
    letters / digits / whitespace / CJK / total) — the script-mix signal a
    language-ID gate monitors for drift at corpus scale.  Fully
    vectorized: each batch decodes ALL its text into ONE UTF-32 numpy
    codepoint array plus a per-char lang index (np.repeat over text
    lengths), and range-mask bincounts produce the per-lang partials —
    zero per-char Python work; one tiny grouped sum ships per batch
    (partial width = langs present in the batch, not chars).

    Oracle: the same char classes re-counted with RE2 in SQL (codepoint
    semantics match: Python len() and DuckDB length() both count
    codepoints)."""

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist()
        uniq = sorted(set(langs))
        lid = {l: i for i, l in enumerate(uniq)}
        n_langs = len(uniq)
        blob = "".join(t or "" for t in texts)
        cp = np.frombuffer(blob.encode("utf-32-le"), dtype=np.uint32)
        idx = np.repeat(
            np.fromiter((lid[l] for l in langs), np.int64, len(langs)),
            np.fromiter((len(t or "") for t in texts), np.int64, len(texts)),
        )
        alpha = ((cp >= 65) & (cp <= 90)) | ((cp >= 97) & (cp <= 122))
        digit = (cp >= 48) & (cp <= 57)
        space = (cp == 32) | (cp == 9) | (cp == 10) | (cp == 13)
        cjk = (cp >= 0x4E00) & (cp <= 0x9FFF)

        def bc(mask) -> pa.Array:
            return pa.array(np.bincount(idx[mask], minlength=n_langs).astype(np.int64))

        return pa.table(
            {
                "lang": pa.array(uniq, pa.string()),
                "n_alpha_p": bc(alpha),
                "n_digit_p": bc(digit),
                "n_space_p": bc(space),
                "n_cjk_p": bc(cjk),
                "n_chars_p": pa.array(
                    np.bincount(idx, minlength=n_langs).astype(np.int64)
                ),
            }
        )

    return group_agg(
        _read(sf_dir, "documents", columns=["text", "lang"]).map_batches(partial, batch_format="pyarrow"),
        "lang",
        n_alpha=("sum", "n_alpha_p"),
        n_digit=("sum", "n_digit_p"),
        n_space=("sum", "n_space_p"),
        n_cjk=("sum", "n_cjk_p"),
        n_chars=("sum", "n_chars_p"),
    )


def q_training_data_pipeline(sf_dir: str):
    """The composite web-text flow (extract+deid → staged parquet → quality
    filter → exact dedup) over synthetic pages ∪ duplicated pages; per-stage
    attrition counters.  Oracle-checked: the SQL recomputes the quality
    score (discrete-factor product over exact counts — the one-float-op
    divisions are bit-identical), the filter, the duplicate collapse and the
    counters over the staged extraction fixture."""
    import ray.data as rd

    from ..pipelines.deid import build_deid_pipeline
    from ..pipelines.webtext import attrition_report, curate_extracted
    from ..sources.pages import pages_dataset

    n = pages_rows_for(sf_dir)
    base = pages_dataset(n)
    # force duplicates: same rows with different urls → dedup must drop them
    def relabel(batch: pa.Table) -> pa.Table:
        # keep the path suffix intact (routing is by extension); the
        # "z-" host prefix sorts after the original so the original is kept
        urls = [u.replace("https://", "https://z-") for u in batch["url"].to_pylist()]
        return batch.set_column(0, "url", pa.array(urls, pa.string()))

    doubled = base.union(base.map_batches(relabel, batch_format="pyarrow"))
    build_deid_pipeline(doubled).select_columns(
        ["url", "extracted_text", "context_hash"]
    ).write_parquet(_fresh_staging(_TDP_STAGING))
    curated = curate_extracted(rd.read_parquet(_TDP_STAGING))
    report = attrition_report(curated, rows_in=2 * n)
    return pa.table(
        {
            "metric": pa.array(sorted(report.keys()), pa.string()),
            "value": pa.array([report[k] for k in sorted(report.keys())], pa.int64()),
        }
    )


def q_pages_main_content(sf_dir: str):
    """Boilerplate-stripped (jusText/Readability-style) extraction over the
    synthetic pages corpus: per-url main-content hash + length (north-star
    capability 1), through the FULL deid pipeline in main_content mode.

    Oracle-checked from first principles: the SQL re-derives the block
    classifier over the fixture page strings — <p> blocks only (title is
    sub-threshold, nav/footer are boilerplate containers, link density 0 in
    paragraphs), whitespace-normalized, kept iff ≥ 25 chars or ending in
    sentence punctuation, joined with newlines — exactly the published
    heuristics kernels/boilerplate.py implements.  Scope: html route
    without U+FFFD decodes."""
    from ..config import EngineConfig
    from ..pipelines.deid import build_deid_pipeline

    _ensure_pages_fixture(sf_dir)
    cfg = EngineConfig(extract_mode="main_content")
    ds = build_deid_pipeline(
        _oracle_visible_pages(sf_dir, include_text_route=False), cfg
    )

    def hashes(batch: pa.Table) -> pa.Table:
        from ..functions.dedup import md5_hex

        texts = batch["extracted_text"].to_pylist()
        return pa.table(
            {
                "url": batch["url"],
                "main_md5": pa.array([md5_hex(t or "") for t in texts], pa.string()),
                "n_main_chars": pa.array([len(t or "") for t in texts], pa.int64()),
            }
        )

    return ds.map_batches(hashes, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Training-data operators (synthetic corpus, NER stage, quality, eval)
# ---------------------------------------------------------------------------

_SF_SYNTH = {"0.001": 200, "0.01": 1000, "0.1": 5000}


def _synth_rows_for(sf_dir: str) -> int:
    tail = os.path.basename(sf_dir.rstrip("/")).replace("sf", "")
    return _SF_SYNTH.get(tail, 200)


# The directory the synthetic-corpus oracles read via read_parquet() — same
# contract as the pages fixture (this process's own link): the query (or
# oracle_sql()) materializes the deterministic corpus driver-side, so the
# SQL re-derives validation/count semantics from the raw example/entity
# rows, not from the engine's output.
_SYNTH_FIXTURE_DIR = f"/tmp/eds_synth_fixture/pid{os.getpid()}"
_SYNTH_MUTATE_EVERY = 37


def _mutate_arrow_entities(i: int, text: str, ents: list) -> list:
    """Deterministic corruption slice for the quality-report corpus: every
    37th example gets ONE of five invalid variants (missing type, span out
    of bounds, empty span, text mismatch, overlapping duplicate), cycling by
    example index — so ``validate_span_example`` (reference
    training/quality.py:41-119 semantics) is exercised with NONZERO issue
    counts and the oracle SQL re-derives every issue kind from raw rows.
    Pure function of (example_id, row): identical under any slicing."""
    if i % _SYNTH_MUTATE_EVERY != 0 or not ents:
        return ents
    v = (i // _SYNTH_MUTATE_EVERY) % 5
    e0 = dict(ents[0])
    if v == 0:
        e0["type"] = ""
    elif v == 1:
        e0["end"] = len(text) + 5
    elif v == 2:
        e0["end"] = e0["start"]
    elif v == 3:
        e0["text"] = (e0["text"] or "") + "x"
    else:
        return [dict(ents[0]), dict(ents[0])] + list(ents[1:])
    return [e0] + list(ents[1:])


def _ensure_synth_fixture(sf_dir: str) -> tuple[str, str]:
    """Materialize the (mutated) synthetic span corpus as two parquet files
    — examples(example_id, text) + unnested entities(example_id, ent_idx,
    type, start, end, ent_text) — once per (n, seed, mutation version), so
    oracle SQL can re-derive the validation semantics from first principles.
    Driver-side generation: fixture infrastructure, not the operator under
    test (the distributed path regenerates the same rows per slice).
    Returns the fixture of this sf, and points this process's
    ``_SYNTH_FIXTURE_DIR`` at it."""
    n = _synth_rows_for(sf_dir)
    stamp = f"n={n} seed=9 mut={_SYNTH_MUTATE_EVERY} fx=1"
    names = ["examples.parquet", "entities.parquet"]
    ex_path, ent_path = _keyed_fixture(_SYNTH_FIXTURE_DIR, stamp, names, lambda: _synth_tables(n))
    return ex_path, ent_path


def _synth_tables(n: int) -> tuple[pa.Table, pa.Table]:
    """The examples and unnested entities of the first ``n`` synthetic
    span examples, with the corruption slice applied."""
    from ..kernels.synthetic import generate_synthetic_span_examples
    from ..pipelines.training_data import _entities_to_arrow

    exs = generate_synthetic_span_examples(num_examples=n, seed=9, language="zh")
    erows: list[tuple[int, int, str, int, int, str]] = []
    for i, ex in enumerate(exs):
        ents = _mutate_arrow_entities(i, ex["text"], _entities_to_arrow(ex["entities"]))
        for j, e in enumerate(ents):
            erows.append((i, j, e["type"], e["start"], e["end"], e["text"]))
    examples = pa.table(
        {
            "example_id": pa.array(range(n), pa.int64()),
            "text": pa.array([ex["text"] for ex in exs], pa.string()),
        }
    )
    entities = pa.table(
        {
            "example_id": pa.array([r[0] for r in erows], pa.int64()),
            "ent_idx": pa.array([r[1] for r in erows], pa.int64()),
            "type": pa.array([r[2] for r in erows], pa.string()),
            "start": pa.array([r[3] for r in erows], pa.int64()),
            "end": pa.array([r[4] for r in erows], pa.int64()),
            "ent_text": pa.array([r[5] for r in erows], pa.string()),
        }
    )
    return examples, entities


def q_synthetic_quality_report(sf_dir: str):
    """Distributed corpus quality report over the deterministic synthetic
    span corpus ∪ corruption slice (reference analyze_span_examples
    semantics, G1).  Oracle-checked from first principles: the query
    materializes the raw example/entity fixture, and the SQL re-derives
    every validate_span_example issue kind (missing_type, out-of-bounds,
    empty span, text mismatch, adjacent-sorted-span overlap) plus the
    entity/type tallies over it."""
    from ..pipelines.training_data import SPAN_ENTITY_STRUCT, synthetic_span_dataset
    from ..stages.quality import quality_report

    _ensure_synth_fixture(sf_dir)

    def corrupt(batch: pa.Table) -> pa.Table:
        mutated = [
            _mutate_arrow_entities(i, t or "", es or [])
            for i, t, es in zip(
                batch["example_id"].to_pylist(),
                batch["text"].to_pylist(),
                batch["entities"].to_pylist(),
            )
        ]
        return batch.set_column(
            batch.schema.get_field_index("entities"),
            "entities",
            pa.array(mutated, pa.list_(SPAN_ENTITY_STRUCT)),
        )

    ds = synthetic_span_dataset(_synth_rows_for(sf_dir), seed=9).map_batches(
        corrupt, batch_format="pyarrow"
    )
    report = quality_report(ds)
    summary = report["summary"]
    rows = {
        "metric": ["examples", "entities", "invalid_examples", "invalid_entities"]
        + [f"type:{k}" for k in sorted(summary["entity_type_counts"])],
        "value": [
            summary["examples"],
            summary["entities"],
            summary["invalid_examples"],
            summary["invalid_entities"],
        ]
        + [summary["entity_type_counts"][k] for k in sorted(summary["entity_type_counts"])],
    }
    return pa.table({"metric": pa.array(rows["metric"], pa.string()), "value": pa.array(rows["value"], pa.int64())})


def q_ner_stub_entity_counts(sf_dir: str):
    """NER actor-pool stage (stub backend + regex backstop + composite
    resolution) over the synthetic corpus; counts by (type, source).

    Oracle-checked at the AGGREGATION layer via the staged-output pattern
    (same contract as pages_pipeline_counters): the detected per-entity
    rows are staged to parquet, the Ray side runs its distributed
    grouped count over the staged rows, and the SQL re-derives the same
    counts — so the shuffle/aggregate machinery is value-checked.  The
    per-row DETECTION semantics (stub regexes + full YAML detector +
    composite overlap-priority resolution) stay pinned by the reference
    parity tests — re-deriving that rule set in SQL would be a second
    engine, not an oracle."""
    from ..pipelines.training_data import synthetic_span_dataset
    from ..stages.ner import NerDetectStage

    ds = synthetic_span_dataset(_synth_rows_for(sf_dir), seed=4).drop_columns(["entities"])
    detected = ds.map_batches(
        NerDetectStage, batch_format="pyarrow", batch_size=128, **_actor_pool()
    )

    def explode(batch: pa.Table) -> pa.Table:
        ex_ids: list[str] = []
        types: list[str] = []
        sources: list[str] = []
        for ex_id, ents in zip(
            batch["example_id"].to_pylist(), batch["entities"].to_pylist()
        ):
            for e in ents:
                ex_ids.append(str(ex_id))
                types.append(e["type"])
                sources.append(e["source"])
        return pa.table(
            {
                "example_id": pa.array(ex_ids, pa.string()),
                "type": pa.array(types, pa.string()),
                "source": pa.array(sources, pa.string()),
            }
        )

    detected.map_batches(explode, batch_format="pyarrow").write_parquet(
        _fresh_staging(_NER_STUB_STAGING)
    )
    staged = _read_staged(
        _NER_STUB_STAGING,
        pa.schema({"example_id": pa.string(), "type": pa.string(), "source": pa.string()}),
    )
    return group_agg(staged, ["type", "source"], n=("count",))


_PLACEHOLDER_SPANS = pa.schema(
    {
        "example_id": pa.int64(),
        "type": pa.string(),
        "start": pa.int64(),
        "end": pa.int64(),
        "fake": pa.string(),
    }
)

_EVAL_SCORES = pa.schema(
    {
        "example_id": pa.string(),
        "pii_total": pa.int64(),
        "pii_leak_count": pa.int64(),
        "pii_removal_recall": pa.float64(),
        "over_rewrite_rate": pa.float64(),
        "type_consistency": pa.float64(),
        "repetition_3gram_rate": pa.float64(),
        "format_compliant": pa.bool_(),
    }
)


def q_placeholder_corpus(sf_dir: str):
    """Span corpus → `<TYPE>` placeholder masking + deterministic refill
    (training placeholders/rewriter operators, M11).

    Oracle-checked via the staged-output pattern: the query stages the
    generated examples and their spans, each span with the fake value its
    placeholder must take (an example's ``i``-th placeholder, left to
    right, is filled from the key ``f"{type}:{i}"``), and the SQL
    re-derives both columns from those rows: ``masked_text`` splices
    ``<type>`` over every span, ``filled_text`` splices the staged value.
    The generated spans are valid, canonically typed and non-overlapping,
    so the SQL needs none of the kernel's span filtering.  The fake values
    themselves are seeded RNG draws, not SQL-expressible; their bytes stay
    pinned by test_training_parity."""
    from ..kernels.replace import fallback_generate
    from ..pipelines.training_data import placeholder_corpus, synthetic_span_dataset

    context, locale = "corpus", "zh_TW"
    ds = synthetic_span_dataset(_synth_rows_for(sf_dir), seed=2).materialize()

    def span_rows(batch: pa.Table) -> pa.Table:
        ids, types, starts, ends, fakes = [], [], [], [], []
        for ex_id, ents in zip(batch["example_id"].to_pylist(), batch["entities"].to_pylist()):
            for i, e in enumerate(sorted(ents or [], key=lambda x: x["start"])):
                ids.append(ex_id)
                types.append(e["type"])
                starts.append(e["start"])
                ends.append(e["end"])
                fakes.append(fallback_generate(e["type"], f"{e['type']}:{i}", context, locale))
        return pa.Table.from_pydict(
            {"example_id": ids, "type": types, "start": starts, "end": ends, "fake": fakes},
            schema=_PLACEHOLDER_SPANS,
        )

    ds.select_columns(["example_id", "text"]).write_parquet(
        _fresh_staging(f"{_PLACEHOLDER_STAGING}/examples")
    )
    ds.map_batches(span_rows, batch_format="pyarrow").write_parquet(
        _fresh_staging(f"{_PLACEHOLDER_STAGING}/spans")
    )
    out = placeholder_corpus(ds, context_seed=context, locale=locale)
    return out.select_columns(["example_id", "masked_text", "filled_text"])


def q_deid_eval_aggregate(sf_dir: str):
    """Distributed deid evaluation aggregate (G2): markup-annotated inputs
    scored against blackbox-redacted predictions.

    Oracle-checked at the AGGREGATION layer via the staged-output pattern:
    the per-example scores (the ``evaluate_prediction`` rows that
    ``eval_aggregate`` folds into per-batch partials) are staged to
    parquet, and the SQL re-derives the corpus report from them (leak rate
    = Σleaks / Σpii, plain means elsewhere).  The per-example scores are
    difflib.SequenceMatcher ratios (junk/popularity heuristics, autojunk at
    len ≥ 200) and markup regex counts, not SQL-expressible; they stay
    pinned by the evalkit parity tests against the live reference code."""
    from ..kernels.evalkit import evaluate_prediction
    from ..kernels.markup import extract_pii_blocks
    from ..kernels.replace import replace_text
    from ..pipelines.training_data import synthetic_span_dataset
    from ..stages.quality import eval_aggregate

    def to_eval_rows(batch: pa.Table) -> pa.Table:
        ex_ids, inputs, preds = [], [], []
        for ex_id, text, ents in zip(
            batch["example_id"].to_pylist(),
            batch["text"].to_pylist(),
            batch["entities"].to_pylist(),
        ):
            ents = sorted(ents or [], key=lambda e: e["start"], reverse=True)
            marked = text
            for e in ents:
                marked = (
                    marked[: e["start"]]
                    + f"[{e['type']}]{marked[e['start']:e['end']]}[/{e['type']}]"
                    + marked[e["end"]:]
                )
            spans = [{"span": (e["start"], e["end"]), "type": e["type"]} for e in ents]
            pred, _ = replace_text(text, spans, "blackbox")
            ex_ids.append(str(ex_id))
            inputs.append(marked)
            preds.append(pred)
        return pa.table(
            {
                "example_id": pa.array(ex_ids, pa.string()),
                "input_text": pa.array(inputs, pa.string()),
                "prediction_text": pa.array(preds, pa.string()),
            }
        )

    def score_rows(batch: pa.Table) -> pa.Table:
        rows = [
            evaluate_prediction(
                ex_id, inp, pred, pii_blocks=extract_pii_blocks(inp), banned_phrases=[]
            )
            for ex_id, inp, pred in zip(
                batch["example_id"].to_pylist(),
                batch["input_text"].to_pylist(),
                batch["prediction_text"].to_pylist(),
            )
        ]
        return pa.Table.from_pylist(rows, schema=_EVAL_SCORES)

    ds = (
        synthetic_span_dataset(_synth_rows_for(sf_dir), seed=6)
        .map_batches(to_eval_rows, batch_format="pyarrow")
        .materialize()
    )
    ds.map_batches(score_rows, batch_format="pyarrow").write_parquet(_fresh_staging(_EVAL_STAGING))
    agg = eval_aggregate(ds)
    keys = sorted(agg)
    return pa.table(
        {
            "metric": pa.array(keys, pa.string()),
            "value": pa.array([float(agg[k]) for k in keys], pa.float64()),
        }
    )


def q_dataset_mix(sf_dir: str):
    """Seeded dataset mix: per-source cap (limit) + union + seeded global
    shuffle (O2/O3) over the documents table, counted per source — the
    counts are oracle-checkable (capped = n//2, full = n).  The span-corpus
    mix variant (zh/en synthetic) is exercised in tests/test_training_*."""
    from ..pipelines.training_data import mix_datasets

    base = _read(sf_dir, "documents", ["doc_id"])
    n = base.count()

    def tag(name: str):
        def add(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "mix_source", pa.array([name] * batch.num_rows, pa.string())
            )

        return add

    capped = base.map_batches(tag("capped"), batch_format="pyarrow")
    full = base.map_batches(tag("full"), batch_format="pyarrow")
    mixed = mix_datasets([(capped, n // 2), (full, 0)], seed=3)
    return group_agg(mixed, "mix_source", n_examples=("count",))


# ---------------------------------------------------------------------------
# Window / rollup / pivot / semi-join / histogram relational operators
# ---------------------------------------------------------------------------


def q_events_window_rank(sf_dir: str):
    """Windowed ranking: top-3 events per user by value (ROW_NUMBER
    semantics, ties broken by event_id) — per-user logic runs over each
    folded block of a co-group on user_id."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def rank(bucket: pd.DataFrame) -> pd.DataFrame:
        bucket = bucket.sort_values(
            ["user_id", "value", "event_id"], ascending=[True, False, True]
        )
        bucket["rnk"] = bucket.groupby("user_id").cumcount() + 1
        return bucket[bucket["rnk"] <= 3]

    return cogroup(
        ds,
        "user_id",
        rank,
        {"event_id": pa.int64(), "user_id": pa.int64(), "rnk": pa.int64()},
    )


def q_orders_rollup(sf_dir: str):
    """ROLLUP aggregation: order counts at (priority, status), (priority),
    and grand-total levels.  The detail aggregate is pre-reduced per batch,
    one tiny groupby produces ~15 rows, and the two rollup levels derive
    from that small result (no second scan of the fact table)."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"])

    detail = group_agg(ds, ["o_orderpriority", "o_orderstatus"], n_orders=("count",))
    # detail is ≤ |priorities|×|statuses| rows — deriving rollup levels from
    # the small aggregate on the driver is the documented small-result path
    rows = detail.take_all()
    by_pri: dict[str, int] = {}
    total = 0
    for r in rows:
        by_pri[r["o_orderpriority"]] = by_pri.get(r["o_orderpriority"], 0) + r["n_orders"]
        total += r["n_orders"]
    out_pri = [r["o_orderpriority"] for r in rows] + list(by_pri) + ["ALL"]
    out_st = [r["o_orderstatus"] for r in rows] + ["ALL"] * len(by_pri) + ["ALL"]
    out_n = [r["n_orders"] for r in rows] + list(by_pri.values()) + [total]
    return pa.table(
        {
            "o_orderpriority": pa.array(out_pri, pa.string()),
            "o_orderstatus": pa.array(out_st, pa.string()),
            "n_orders": pa.array(out_n, pa.int64()),
        }
    )


def q_customer_segment_pivot(sf_dir: str):
    """Pivot (conditional aggregation): customer counts per nation spread
    across market-segment columns — one 0/1 column per segment, one
    grouped sum over the 25-row result."""
    segments = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
    ds = _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment"])

    def one_hot(batch: pa.Table) -> pa.Table:
        out = {"c_nationkey": batch["c_nationkey"]}
        for seg in segments:
            out["n_" + seg.lower()] = pc.cast(pc.fill_null(pc.equal(batch["c_mktsegment"], seg), False), pa.int64())
        return pa.table(out)

    return group_agg(
        ds.map_batches(one_hot, batch_format="pyarrow"),
        "c_nationkey",
        **{"n_" + s.lower(): ("sum", "n_" + s.lower()) for s in segments},
    )


def q_orders_exists_semi(sf_dir: str):
    """Semi-join (EXISTS): orders having at least one lineitem with
    quantity ≥ 45, counted per status.  Filtered lineitem keys and orders
    co-group on the order key — no driver-side key set, no full join
    output materialized."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])

    def li_keys(batch: pa.Table) -> pa.Table:
        hit = batch.filter(pc.greater_equal(batch["l_quantity"], pa.scalar(45.0)))
        return pa.table({"key": pc.unique(hit["l_orderkey"])})

    def semi(keys: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame | None:
        if keys.empty or orders.empty:
            return None
        counts = orders.loc[orders["key"].isin(keys["key"])].groupby("o_orderstatus").size()
        return pd.DataFrame({"o_orderstatus": counts.index, "partial": counts.to_numpy()})

    matched = cogroup(
        [li.map_batches(li_keys, batch_format="pyarrow"), _keyed(orders, "o_orderkey", "key")],
        "key",
        semi,
        {"o_orderstatus": pa.string(), "partial": pa.int64()},
    )
    return group_agg(matched, "o_orderstatus", n_orders=("sum", "partial"))


def q_lineitem_price_histogram(sf_dir: str):
    """Fixed-width histogram over l_extendedprice (5000-wide buckets) —
    vectorized pyarrow bucketing, one tiny grouped count."""
    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def bucket(batch: pa.Table) -> pa.Table:
        return pa.table({"bucket": pc.cast(pc.floor(pc.divide(batch["l_extendedprice"], 5000.0)), pa.int64())})

    return group_agg(ds.map_batches(bucket, batch_format="pyarrow"), "bucket", n_items=("count",))


def q_part_brand_stats(sf_dir: str):
    """Vectorized string kernels (pyarrow.compute match_substring/utf8_lower)
    feeding a grouped aggregate: per-brand part counts, 'green'-named part
    counts, max size."""
    ds = _read(sf_dir, "part", ["p_brand", "p_name", "p_size"])

    def enrich(batch: pa.Table) -> pa.Table:
        green = pc.match_substring(pc.utf8_lower(batch["p_name"]), "green")
        return pa.table(
            {
                "p_brand": batch["p_brand"],
                "is_green": pc.cast(green, pa.int64()),
                "p_size": pc.cast(batch["p_size"], pa.int64()),
            }
        )

    return group_agg(
        ds.map_batches(enrich, batch_format="pyarrow"),
        "p_brand",
        n_parts=("count",),
        n_green=("sum", "is_green"),
        max_size=("max", "p_size"),
    )


def q_jaccard_doc_perturbed(sf_dir: str):
    """Exact word-3gram Jaccard for each (document, document+' appended')
    pair — the n-gram metric kernel under a genuine SQL oracle (DuckDB
    recomputes the trigram sets), with texts resolved through the
    distributed pair_text_metric join (no driver-side corpus state).

    No rounding on either side: jaccard = intersection/union of integer
    set sizes, so Python and DuckDB produce bit-identical doubles.
    """
    from ..functions.dedup import pair_text_metric, word_ngram_jaccard

    base, corpus = _docs_with_perturbed(sf_dir)

    def to_pairs(batch: pa.Table) -> pa.Table:
        _assert_id_headroom(batch["doc_id"])
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "left": pa.array(ids, pa.int64()),
                "right": pa.array([d + _PERTURB_ID_OFFSET for d in ids], pa.int64()),
            }
        )

    pairs = base.map_batches(to_pairs, batch_format="pyarrow")
    return pair_text_metric(
        pairs,
        corpus,
        lambda a, b: word_ngram_jaccard(a, b, 3),
        out_col="ngram_jaccard",
    )


def q_doc_chunk_windows(sf_dir: str):
    """Context-window chunking for training data: 500-char windows with
    stride 400 (100-char overlap) per document — the flat-map shape every
    LLM-pretraining tokenizer feed uses.  One output row per (doc, window)
    with an md5 over the chunk so the oracle checks exact boundaries."""
    window, stride = 500, 400

    def chunk(batch: pa.Table) -> pa.Table:
        from ..functions.dedup import md5_hex

        doc_ids, chunk_ids, hashes, lens = [], [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            text = text or ""
            for i, start in enumerate(range(0, max(len(text), 1), stride)):
                piece = text[start : start + window]
                doc_ids.append(doc_id)
                chunk_ids.append(i)
                hashes.append(md5_hex(piece))
                lens.append(len(piece))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "chunk_id": pa.array(chunk_ids, pa.int64()),
                "chunk_md5": pa.array(hashes, pa.string()),
                "n_chars": pa.array(lens, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        chunk, batch_format="pyarrow"
    )


def q_docs_per_source_cap(sf_dir: str):
    """Per-domain quota (the standard CC pipeline 'cap docs per domain'
    step): keep the first 10 documents per source by doc_id.  Per-key
    top-k over each folded block of a co-group on source — deterministic,
    oracle = ROW_NUMBER PARTITION BY."""
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def cap(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.sort_values(["source", "doc_id"]).groupby("source", sort=False).head(10)

    return cogroup(
        ds,
        "source",
        cap,
        {"doc_id": pa.int64(), "source": pa.string()},
    )


def q_lang_source_distinct(sf_dir: str):
    """Distinct-count aggregate per group: number of distinct sources per
    language — the distinct (lang, source) pairs, then a count per
    language (the two-level exact count-distinct shape; swap in HLL from
    functions/sketches.py when approximate is acceptable at scale)."""
    ds = _read(sf_dir, "documents", ["lang", "source"])
    distinct_pairs = group_agg(ds, ["lang", "source"], _n=("count",)).drop_columns(["_n"])
    return group_agg(distinct_pairs, "lang", n_sources=("count",))


def q_events_json_props(sf_dir: str):
    """JSON scalar extraction (§2.8): parse the events ``props`` JSON column,
    extract ``k``, aggregate per event type — one tiny grouped sum."""
    import json

    def prop_k(props: str | None) -> int:
        try:
            return int(json.loads(props or "{}").get("k", 0))
        except (ValueError, TypeError):
            return 0

    def extract(batch: pa.Table) -> pa.Table:
        ks = [prop_k(p) for p in batch["props"].to_pylist()]
        return pa.table({"event_type": batch["event_type"], "k": pa.array(ks, pa.int64())})

    return group_agg(
        _read(sf_dir, "events", ["event_type", "props"]).map_batches(extract, batch_format="pyarrow"),
        "event_type",
        sum_k=("sum", "k"),
        n_events=("count",),
    )


def q_doc_normalized_hashes(sf_dir: str):
    """Whitespace-normalization kernel (collapse ASCII whitespace runs to a
    single space + trim) with an md5 oracle — the canonicalization step that
    feeds exact dedup on noisy web text."""
    norm_re = re.compile(r"[ \t\n\r]+")

    def norm(batch: pa.Table) -> pa.Table:
        from ..functions.dedup import md5_hex

        out = []
        for text in batch["text"].to_pylist():
            out.append(md5_hex(norm_re.sub(" ", text or "").strip(" ")))
        return pa.table({"doc_id": batch["doc_id"], "norm_md5": pa.array(out, pa.string())})

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        norm, batch_format="pyarrow"
    )


def q_html_extract_roundtrip(sf_dir: str):
    """HTML-extraction oracle: wrap each document's text in a deterministic
    HTML page (title + script/style that must be EXCLUDED + one <p>), run
    the real html route (utf-8 decode → stdlib-parser get_text("\\n")
    semantics), hash the extracted text.  The oracle reconstructs the
    expected extraction independently in SQL — title and body joined by one
    newline — so the extractor's text-node/skip-container semantics are
    value-checked, not just regression-pinned."""

    def roundtrip(batch: pa.Table) -> pa.Table:
        from ..functions.dedup import md5_hex
        from ..kernels.docpipe import extract_page

        out_id, out_md5, out_len = [], [], []
        for doc_id, source, text in zip(
            batch["doc_id"].to_pylist(),
            batch["source"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            html = (
                f"<html><head><title>{source}-{doc_id}</title>"
                "<script>var t = 1;</script><style>p{color:#000}</style>"
                f"</head><body><p>{text or ''}</p></body></html>"
            ).encode("utf-8")
            extracted, _segs, route, err = extract_page(html, None, url=f"https://x.test/{doc_id}")
            assert route == "html" and err is None
            out_id.append(doc_id)
            out_md5.append(md5_hex(extracted))
            out_len.append(len(extracted))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "extract_md5": pa.array(out_md5, pa.string()),
                "n_chars": pa.array(out_len, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "source", "text"]).map_batches(
        roundtrip, batch_format="pyarrow"
    )


def q_main_content_roundtrip(sf_dir: str):
    """Boilerplate-strip oracle: wrap each document's text in a page with
    nav/footer link boilerplate, run the main-content extractor
    (jusText/Readability-style density heuristics), hash the result.  The
    oracle predicts the kept content independently: exactly the
    whitespace-normalized document text (nav/footer dropped as boilerplate
    containers, short title dropped by the length rule)."""

    def roundtrip(batch: pa.Table) -> pa.Table:
        from ..functions.dedup import md5_hex
        from ..kernels.boilerplate import extract_main_content

        out_id, out_md5 = [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            html = (
                f"<html><head><title>doc{doc_id}</title></head><body>"
                '<nav><a href="/">Home</a> <a href="/about">About</a></nav>'
                f"<p>{text or ''}</p>"
                '<footer><a href="/privacy">Privacy</a> © 2026</footer>'
                "</body></html>"
            )
            out_id.append(doc_id)
            out_md5.append(md5_hex(extract_main_content(html)))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "main_md5": pa.array(out_md5, pa.string()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        roundtrip, batch_format="pyarrow"
    )


def q_image_deid_stub_stats(sf_dir: str):
    """Multimodal actor-pool surface: binary payloads (derived
    deterministically from document text) through the image-deid stage —
    OCR backend loaded once per actor, per-char offset maps merged to
    entity bboxes, black-box rects planned.  The OCR backend here is the
    fake; real engines are import-gated and slot into the same actor
    signature.

    Oracle-checked at the AGGREGATION layer via the staged-output pattern:
    per-media (n_spans, n_boxes) rows are staged to parquet, the Ray side
    computes its global Count/Sum aggregate from the staged rows, and the
    SQL re-derives the same three metrics — the per-media OCR/bbox
    semantics stay pinned by the imageproc parity tests."""
    from ray.data.aggregate import Count, Sum

    from ..stages.image_deid import ImageDeidStage

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "media_id": pa.array(
                    [f"img-{d}" for d in batch["doc_id"].to_pylist()], pa.string()
                ),
                "payload": pa.array(
                    [(t or "").encode("utf-8") for t in batch["text"].to_pylist()],
                    pa.binary(),
                ),
            }
        )

    # spread: the OCR actor pool is the CPU-heavy stage, and a one-block
    # read would feed only one of its actors
    media = _read_spread(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        to_media, batch_format="pyarrow"
    )
    processed = media.map_batches(
        ImageDeidStage, batch_format="pyarrow", batch_size=64, **_actor_pool()
    )

    def stats(batch: pa.Table) -> pa.Table:
        boxes = batch["redaction_boxes"].to_pylist()
        return pa.table(
            {
                "media_id": batch["media_id"],
                "n_spans": batch["n_spans"],
                "n_boxes": pa.array([len(b) for b in boxes], pa.int64()),
            }
        )

    processed.map_batches(stats, batch_format="pyarrow").write_parquet(
        _fresh_staging(_IMG_STUB_STAGING)
    )
    staged = _read_staged(
        _IMG_STUB_STAGING,
        pa.schema({"media_id": pa.string(), "n_spans": pa.int64(), "n_boxes": pa.int64()}),
    )
    # over zero rows: n_media 0 and NULL sums, as the oracle's COUNT / SUM
    agg = staged.aggregate(
        Count(alias_name="n_media"),
        Sum("n_spans", alias_name="total_spans"),
        Sum("n_boxes", alias_name="total_boxes"),
    )
    keys = sorted(agg.keys())
    return pa.table(
        {
            "metric": pa.array(keys, pa.string()),
            "value": pa.array([agg[k] for k in keys], pa.int64()),
        }
    )


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sampling: 20 documents per language, chosen
    by md5(doc_id) rank within the stratum — the reproducible
    train/eval-split primitive (a seeded hash order is cluster-stable,
    unlike RNG draws tied to block structure).  Per-language selection runs
    over each folded block of a co-group on lang; only (lang, doc_id,
    rank-hash) rows shuffle."""
    k = 20

    def keyed(batch: pa.Table) -> pa.Table:
        from ..functions.dedup import md5_hex

        ids = batch["doc_id"].to_pylist()
        langs = batch["lang"].to_pylist()
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": pa.array(langs, pa.string()),
                "rank_hash": pa.array([md5_hex(str(d)) for d in ids], pa.string()),
            }
        )

    def pick(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.sort_values(["lang", "rank_hash", "doc_id"]).groupby("lang", sort=False).head(k)

    return cogroup(
        _read(sf_dir, "documents", ["doc_id", "lang"]).map_batches(keyed, batch_format="pyarrow"),
        "lang",
        pick,
        {"doc_id": pa.int64(), "lang": pa.string()},
    )


def q_tfidf_top_terms(sf_dir: str):
    """TF-IDF-style top terms: for each document, the top-3 terms ranked by
    (tf desc, df asc, term asc) — the integer-only ordering is exactly the
    tf·idf ranking for this corpus (idf is monotone decreasing in df) while
    staying bit-exact for the oracle.

    Scale shape — NO driver-side vocabulary state: the tokenizer emits one
    row per distinct (doc, term), so after a co-group on the term every
    row of a term is co-resident and the block-local per-term row count IS
    the term's exact document frequency.  df annotation therefore costs one
    narrow shuffle of the term rows themselves — no groupby().take_all(),
    no ``ray.put`` of an O(vocabulary) dict (web-corpus vocab grows with
    Heap's law; at 100 TB that dict is tens of GB).  A second co-group on
    the doc computes the per-doc head(3).  Two shuffles total, both of
    already-narrow (id, term, int) rows."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def doc_terms(batch: pa.Table) -> pa.Table:
        out_doc, out_term, out_tf = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            counts = Counter((text or "").lower().split())
            for term, tf in counts.items():
                out_doc.append(doc_id)
                out_term.append(term)
                out_tf.append(tf)
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "term": pa.array(out_term, pa.string()),
                "tf": pa.array(out_tf, pa.int64()),
            }
        )

    def annotate_df(bucket: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (doc, term) pairs and a term's rows all land in
        # this block ⇒ the local per-term row count is the exact global df
        df_map = bucket.groupby("term")["doc_id"].size()
        return bucket.assign(df=bucket["term"].map(df_map))

    def topk_group(bucket: pd.DataFrame) -> pd.DataFrame:
        kept = (
            bucket.sort_values(
                ["doc_id", "tf", "df", "term"], ascending=[True, False, True, True]
            )
            .groupby("doc_id", sort=False)
            .head(3)
        )
        return kept.assign(rnk=kept.groupby("doc_id").cumcount() + 1)

    annotated = cogroup(
        ds.map_batches(doc_terms, batch_format="pyarrow"),
        "term",
        annotate_df,
        {"doc_id": pa.int64(), "term": pa.string(), "tf": pa.int64(), "df": pa.int64()},
    )
    return cogroup(
        annotated,
        "doc_id",
        topk_group,
        {
            "doc_id": pa.int64(),
            "rnk": pa.int64(),
            "term": pa.string(),
            "tf": pa.int64(),
            "df": pa.int64(),
        },
    )


def q_near_dedup_survivors(sf_dir: str):
    """Fuzzy-dedup end to end (the canonical training-corpus step): LSH
    pairs → connected components → keep only the min-id representative of
    each near-dup group, via a co-grouped anti-join with no driver-side
    membership set.  Oracle: recursive-CTE components, survivors = ids
    that are not a non-minimal member of any component."""
    from ..functions.dedup import near_dedup

    _base, corpus = _docs_with_perturbed(sf_dir)
    # near_dedup consumes the corpus twice (LSH candidates + the survivor
    # anti-join); one narrow materialization feeds both
    corpus = corpus.materialize()
    survivors = near_dedup(
        corpus,
        jaccard_threshold=0.7,
        num_hashes=64,
        num_bands=16,
        verify="text",
    )
    return survivors.select_columns(["doc_id"])


def q_sources_except(sf_dir: str):
    """Set difference (EXCEPT): sources that publish en documents but no zh
    documents — per-source (has en, has zh) flags from one grouped max
    (§2.7 set ops beyond the reference)."""
    ds = _read(sf_dir, "documents", ["source", "lang"])

    def sides(batch: pa.Table) -> pa.Table:
        def has(lang: str) -> pa.Array:
            return pc.cast(pc.fill_null(pc.equal(batch["lang"], lang), False), pa.int64())

        return pa.table({"source": batch["source"], "has_en": has("en"), "has_zh": has("zh")})

    flags = group_agg(
        ds.map_batches(sides, batch_format="pyarrow"),
        "source",
        has_en=("max", "has_en"),
        has_zh=("max", "has_zh"),
    )

    # finalize driver-side over the tiny flag table (≤ distinct sources):
    # an all-excluded result from a lazy map_batches loses its schema in
    # empty blocks (first seen at sf0.1, where every en source also has
    # zh), while a typed table keeps the ['source'] column at zero rows
    kept = sorted(
        r["source"]
        for r in flags.take_all()
        if int(r["has_en"]) == 1 and int(r["has_zh"]) == 0
    )
    return pa.table({"source": pa.array(kept, pa.string())})


def q_embedding_near_dups_lsh(sf_dir: str):
    """Approximate embedding near-dup pairs — the >10^6-row scale path
    (multi-table random-hyperplane buckets, in-bucket exact verify).

    Fully oracle-checked (r4 — previously rows-only): the hyperplanes are
    md5-bridge Box–Muller gaussians (``bridge_gaussian``, bit-identical to
    the SQL ``sqrt(-2 ln u1)·cos(2π u2)`` over ``md5_number_upper``
    uniforms — validated exactly) and bucket signs read the 12dp-rounded
    normalized dot, so DuckDB regenerates the planes, every per-table sign
    bucket, the same-bucket candidate pairs and the exact cosine verify.
    The approximation itself (recall < 1) is therefore VALUE-checked, not
    just row-counted — the oracle reproduces exactly which near-dups the
    index finds and which it misses."""
    from ..functions.simsearch import embedding_near_dups_lsh

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = embedding_near_dups_lsh(
        ds,
        threshold=0.4,
        num_planes=4,
        num_tables=12,
        plane_mode="bridge",
        sign_round_dp=12,
    )
    return pairs.select_columns(["left", "right"])


def q_bio_token_labels(sf_dir: str):
    """Token-classification label alignment (training/tokenization.py port):
    whitespace offset mapping wrapped in CLS/SEP markers, regex-detected
    entities, BIO label ids per token — per-document counts of special
    (-100) / B- / I- / O labels.  The oracle reproduces the alignment rule
    independently in SQL: a token is labeled B- iff an entity covers it
    fully, which for word-boundary regex entities means the token IS the
    full match."""
    from ..kernels.detect import compile_rules, regex_detect, resolve_conflicts
    from ..kernels.tokenization import (
        IGNORE_LABEL_ID,
        align_entities_to_tokens,
        build_bio_label_list,
        whitespace_offset_mapping,
    )

    cfg = EngineConfig()
    rules_by_lang = {
        lang: compile_rules(str(cfg.rules_path(lang))) for lang in ("zh", "en")
    }
    label_types = sorted({typ for rules in rules_by_lang.values() for typ, _, _ in rules})
    labels = build_bio_label_list(label_types)
    label_to_id = {lab: i for i, lab in enumerate(labels)}

    def count_labels(batch: pa.Table) -> pa.Table:
        out: dict[str, list[int]] = {"doc_id": [], "n_special": [], "n_b": [], "n_i": [], "n_o": []}
        for doc_id, text, lang in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist(), batch["lang"].to_pylist()
        ):
            text = text or ""
            entities = resolve_conflicts(
                regex_detect(text, rules_by_lang.get(lang, rules_by_lang["en"])),
                cfg.entity_priority,
            )
            ids = align_entities_to_tokens(
                entities=entities,
                offset_mapping=whitespace_offset_mapping(text),
                label_to_id=label_to_id,
            )
            n_special = n_b = n_i = n_o = 0
            for lid in ids:
                if lid == IGNORE_LABEL_ID:
                    n_special += 1
                elif labels[lid].startswith("B-"):
                    n_b += 1
                elif labels[lid].startswith("I-"):
                    n_i += 1
                else:
                    n_o += 1
            out["doc_id"].append(doc_id)
            out["n_special"].append(n_special)
            out["n_b"].append(n_b)
            out["n_i"].append(n_i)
            out["n_o"].append(n_o)
        return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})

    return _read(sf_dir, "documents", ["doc_id", "text", "lang"]).map_batches(
        count_labels, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# Corpus-preparation operators (decontamination / passage dedup / repetition
# quality / sequence packing) — functions/corpusops.py
# ---------------------------------------------------------------------------


def q_benchmark_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag training docs sharing any 13-gram
    with a held-out benchmark set.  Benchmark = base docs with
    ``doc_id % 97 == 0``; training corpus = everything else in
    base ∪ perturbed (the perturbed copies of benchmark docs simulate the
    scraped-duplicate contamination this op exists to catch).  The
    benchmark n-gram set broadcasts once via ray.put; the scan itself is
    a stateless map_batches — zero shuffles."""
    from ..functions.corpusops import collect_ngram_set, decontaminate

    base, corpus = _docs_with_perturbed(sf_dir)

    def _eval_mask(batch: pa.Table) -> np.ndarray:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return (ids < 1000000) & (ids % 97 == 0)

    def is_eval(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(_eval_mask(batch)))

    def is_train(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(~_eval_mask(batch)))

    ev = collect_ngram_set(corpus.map_batches(is_eval, batch_format="pyarrow"), n=13)
    return decontaminate(
        corpus.map_batches(is_train, batch_format="pyarrow"), ev, n=13
    )


def q_passage_dedup(sf_dir: str):
    """CCNet-style passage-level dedup: 16-word passages, global
    first-occurrence keep, per-doc reassembly witness hash."""
    from ..functions.corpusops import passage_dedup

    ds = _read_spread(sf_dir, "documents", ["doc_id", "text"])
    return passage_dedup(ds, words_per_chunk=16)


def q_doc_repetition_stats(sf_dir: str):
    """Gopher-style repetition quality signals: per-doc bigram totals,
    distinct bigrams, and the most-repeated bigram's count."""
    from ..functions.corpusops import repetition_stats

    return repetition_stats(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_duplicate_ngram_spans(sf_dir: str):
    """Substring-level dedup analysis: per-doc duplicated 13-gram positions
    merged into maximal spans.  Corpus = base docs ∪ a partial copy of every
    7th doc (its first 20 words + a unique suffix), so the duplicated region
    is a *prefix span*, not the whole document — exercising the island
    merge."""
    from ..functions.corpusops import _words, duplicate_ngram_spans

    base = _read_spread(sf_dir, "documents", ["doc_id", "text"])

    def partial_copy(batch: pa.Table) -> pa.Table:
        _assert_id_headroom(batch["doc_id"])
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % 7 == 0
        out_ids, out_texts = [], []
        for d, t in zip(ids[keep], batch["text"].filter(pa.array(keep)).to_pylist()):
            ws = _words(t)[:20]
            out_ids.append(int(d) + _PERTURB_ID_OFFSET)
            out_texts.append(" ".join(ws) + f" uniq{int(d)}")
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "text": pa.array(out_texts, pa.string()),
            }
        )

    corpus = base.union(base.map_batches(partial_copy, batch_format="pyarrow"))
    return duplicate_ngram_spans(corpus, n=13)


def q_token_stream_pack(sf_dir: str):
    """GPT-style token-stream packing accounting per source: sequences of
    256 whitespace tokens cut from the doc_id-ordered concatenated stream,
    with a straddling-document count."""
    from ..functions.corpusops import token_stream_pack

    ds = _read(sf_dir, "documents", ["source", "doc_id", "text"])
    return token_stream_pack(ds, budget=256)


def q_lang_temperature_sample(sf_dir: str):
    """Temperature-resampled multilingual mix (T=0.7, the XLM-R rebalance):
    keep rate_l = (n_l/n_min)^(T-1), membership decided per doc by a
    deterministic md5 uniform — pass 1 is a tiny per-language count (≤ #langs
    rows to the driver), pass 2 a stateless map_batches filter with the rate
    map in the closure.  Output = per-language attrition summary, exact ints
    plus the rounded rate; the whole computation (pow, hash, compare) is
    mirrored bit-for-bit in the oracle."""
    from ..functions.corpusops import temperature_rates, temperature_sample_summary

    counts_rows = group_agg(_read(sf_dir, "documents", ["lang"]), "lang", n_docs=("count",)).take_all()
    counts = {r["lang"]: int(r["n_docs"]) for r in counts_rows}
    rates = temperature_rates(counts, temperature=0.7)
    out = temperature_sample_summary(
        _read(sf_dir, "documents", ["doc_id", "lang"]), rates
    ).to_pandas()
    out["n_docs"] = out["lang"].map(counts).astype("int64")
    out["rate"] = out["lang"].map(lambda lang: round(rates[lang], 6))
    return out[["lang", "n_docs", "n_kept", "sum_kept_ids", "rate"]]


def q_trigram_lm_nll(sf_dir: str):
    """CCNet-style LM quality score: per-language add-one char-trigram LM
    trained on the corpus (pre-aggregated partials → ONE grouped sum →
    driver), then per-doc mean negative log-likelihood under the model
    broadcast via ray.put.  The oracle reproduces train+score in SQL via a
    trigram join; both sides round the per-doc score to 6dp (term-order
    float divergence ~1e-11, far inside the grid).  At CJK/web scale pass
    ``min_count`` to :func:`trigram_model` to bound the broadcast table —
    ``trigram_lm_nll_pruned`` is that configuration, oracle-checked."""
    from ..functions.corpusops import trigram_model, trigram_nll_scores

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    logp, denoms = trigram_model(docs)
    return trigram_nll_scores(
        _read_spread(sf_dir, "documents", ["doc_id", "lang", "text"]), logp, denoms
    )


def q_trigram_lm_nll_pruned(sf_dir: str):
    """CCNet LM scoring with the min-count vocabulary prune — the CJK /
    wide-charset scale path (VERDICT r3 #3): the broadcast model keeps only
    trigram types seen ≥ 2 times, bounding the driver/broadcast table by
    N_l/2 regardless of charset (a deployment scales min_count with corpus
    tokens to cap it absolutely).  The truncation is NOT silent: every
    output row carries its language's kept/dropped type counts.  Pruned
    trigrams score at the add-one floor exactly like unseen ones, so the
    oracle mirrors the whole definition with one HAVING c >= 2 clause plus
    a LEFT JOIN floor."""
    from ..functions.corpusops import trigram_model, trigram_nll_scores

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    stats: dict = {}
    logp, denoms = trigram_model(docs, min_count=2, prune_stats=stats)
    scored = trigram_nll_scores(
        _read_spread(sf_dir, "documents", ["doc_id", "lang", "text"]), logp, denoms
    )
    # per-language audit columns (|langs| entries — trivially broadcastable)
    kept = {lang: s["kept_types"] for lang, s in stats.items()}
    drop = {lang: s["dropped_types"] for lang, s in stats.items()}

    def annotate(batch: pa.Table) -> pa.Table:
        langs = batch["lang"].to_pylist()
        return batch.append_column(
            "n_types_kept", pa.array([kept[lang] for lang in langs], pa.int64())
        ).append_column(
            "n_types_dropped", pa.array([drop[lang] for lang in langs], pa.int64())
        )

    return scored.map_batches(annotate, batch_format="pyarrow")


def q_trigram_quality_buckets(sf_dir: str):
    """CCNet head/middle/tail partition: per-language tercile cuts of the
    trigram-LM NLL (exact discrete quantiles over pre-aggregated (lang, nll)
    partial counts — one row per distinct value per batch ships, never docs),
    then bucket counts by threshold compare.  Thresholds and comparisons use
    the 6dp-rounded NLL on both sides, so the whole CCNet flow — train LM,
    score, cut, bucket — is oracle-checked end-to-end."""
    import math

    from ..functions.corpusops import trigram_model, trigram_nll_scores

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    logp, denoms = trigram_model(docs)
    scored = trigram_nll_scores(
        _read_spread(sf_dir, "documents", ["doc_id", "lang", "text"]), logp, denoms
    )

    def partial(batch: pa.Table) -> pa.Table:
        c = Counter(zip(batch["lang"].to_pylist(), batch["nll"].to_pylist()))
        return pa.table(
            {
                "lang": pa.array([k[0] for k in c], pa.string()),
                "nll": pa.array([k[1] for k in c], pa.float64()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    def buckets(group: pd.DataFrame) -> pd.DataFrame:
        merged = group.groupby("nll", as_index=False)["n"].sum().sort_values("nll")
        counts = merged["n"].to_numpy()
        values = merged["nll"].to_numpy()
        cum = counts.cumsum()
        total = int(cum[-1])

        def disc(q: float) -> float:
            target = math.ceil(q * total)
            return float(values[int((cum >= target).argmax())])

        t1, t2 = disc(1.0 / 3), disc(2.0 / 3)
        n_head = int(counts[values <= t1].sum())
        n_middle = int(counts[(values > t1) & (values <= t2)].sum())
        return pd.DataFrame(
            {
                "lang": [group["lang"].iloc[0]],
                "n_docs": [total],
                "n_head": [n_head],
                "n_middle": [n_middle],
                "n_tail": [total - n_head - n_middle],
                "t1": [t1],
                "t2": [t2],
            }
        )

    return cogroup(
        scored.map_batches(partial, batch_format="pyarrow"),
        "lang",
        each_key("lang", buckets),
        {
            "lang": pa.string(),
            "n_docs": pa.int64(),
            "n_head": pa.int64(),
            "n_middle": pa.int64(),
            "n_tail": pa.int64(),
            "t1": pa.float64(),
            "t2": pa.float64(),
        },
    )


def q_dataset_split_counts(sf_dir: str):
    """Deterministic 80/10/10 train/val/test split by an md5 uniform per
    doc_id — membership is a pure function of the key, so every node (and
    the SQL oracle) assigns identically with zero coordination, and a
    re-run after adding data never reshuffles existing assignments.
    Output = per (lang, split) count + exact id sum."""
    from ..functions.corpusops import md5_uniform

    def assign(batch: pa.Table) -> pa.Table:
        us = [md5_uniform(d) for d in batch["doc_id"].to_pylist()]
        split = ["train" if u < 0.8 else ("val" if u < 0.9 else "test") for u in us]
        return batch.append_column("split", pa.array(split, pa.string()))

    return group_agg(
        _read(sf_dir, "documents", ["doc_id", "lang"]).map_batches(assign, batch_format="pyarrow"),
        ["lang", "split"],
        n_docs=("count",),
        sum_ids=("sum", "doc_id"),
    )


def q_events_distinct_users_hourly(sf_dir: str):
    """Exact COUNT(DISTINCT user) per tumbling hour, the scale-correct way:
    per-batch DISTINCT (window, user) pairs with partial event counts — the
    shuffle ships the distinct pair set, never raw events — then one grouped
    merge (nunique over the surviving pairs + summed counts).  The exact
    companion to the HLL path in ``approx_distinct``."""

    def pairs(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_pylist()
        c = Counter(
            (int(t) // 3_600_000_000 * 3_600_000_000, u)
            for t, u in zip(us, batch["user_id"].to_pylist())
        )
        keys = list(c)
        return pa.table(
            {
                "window_us": pa.array([k[0] for k in keys], pa.int64()),
                "user_id": pa.array([k[1] for k in keys], pa.int64()),
                "n_p": pa.array(list(c.values()), pa.int64()),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "window_us": [group["window_us"].iloc[0]],
                "n_users": [group["user_id"].nunique()],
                "n_events": [group["n_p"].sum()],
            }
        )

    return cogroup(
        _read(sf_dir, "events", ["ts", "user_id"]).map_batches(pairs, batch_format="pyarrow"),
        "window_us",
        each_key("window_us", merge),
        {"window_us": pa.int64(), "n_users": pa.int64(), "n_events": pa.int64()},
    )


def q_orders_lineitem_ship_band(sf_dir: str):
    """Temporal RANGE join: per order, how many lineitems (corpus-wide)
    shipped within ±7 days of the order date, and their total quantity.

    Scale shape: the join key domain is the CALENDAR, not the corpus —
    lineitem collapses to per-day (count, qty) partials (one grouped sum,
    ≤ a few thousand rows regardless of corpus size), the day table
    broadcasts sorted with prefix sums, and each order batch answers its
    band with two vectorized searchsorted lookups.  Zero pairwise join, no
    row replication; when the small side outgrows broadcast (sub-second
    key granularity), the fallback is the replicate-to-adjacent-bucket
    interval join documented in SURVEY §2."""
    days = (
        group_agg(
            _read(sf_dir, "lineitem", ["l_shipdate", "l_quantity"])
            .map_batches(
                lambda t: pa.table(
                    {
                        "day_us": t["l_shipdate"].cast(pa.int64()),
                        "l_quantity": t["l_quantity"],
                    }
                ),
                batch_format="pyarrow",
            ),
            "day_us",
            n=("count",),
            qty=("sum", "l_quantity"),
        )
        .take_all()
    )
    days.sort(key=lambda r: r["day_us"])
    day_arr = np.array([r["day_us"] for r in days], dtype=np.int64)
    cum_n = np.concatenate([[0], np.cumsum([r["n"] for r in days])]).astype(np.int64)
    cum_q = np.concatenate([[0.0], np.cumsum([r["qty"] for r in days])])

    import ray

    side = ray.put((day_arr, cum_n, cum_q))
    band = 7 * 86_400_000_000

    def probe(batch: pa.Table) -> pa.Table:
        da, cn, cq = ray.get(side)
        od = batch["o_orderdate"].cast(pa.int64()).to_numpy()
        lo = np.searchsorted(da, od - band, side="left")
        hi = np.searchsorted(da, od + band, side="right")
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "n_near": pa.array(cn[hi] - cn[lo], pa.int64()),
                "qty_near": pa.array((cq[hi] - cq[lo]).astype(np.int64), pa.int64()),
            }
        )

    return _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        probe, batch_format="pyarrow"
    )


def q_word_pmi_top20(sf_dir: str):
    """Collocation extraction: top-20 adjacent-word bigrams by pointwise
    mutual information (min count 5).

    Scale shape (r4 — VERDICT #3, no driver-side vocabulary): unigram and
    bigram counts pre-aggregate per batch and meet in ONE grouped sum;
    surviving (n≥5) bigrams then explode into two word-keyed half-rows
    that CO-GROUP with the unigram rows by word (each half resolves its
    word's count locally), regroup by bigram to combine, and every folded
    block emits only its LOCAL top-20 — lossless, because a bigram's full
    PMI is computed in-block, so the global top-20 is a subset of the
    block winners.  The driver folds ≤ blocks×20 rows and two scalar
    totals; no O(vocabulary) object ever leaves the cluster.
    The float arithmetic mirrors the oracle operation-for-operation (same
    division order), rounded to 6dp; ties broken by bigram text."""

    def grams(batch: pa.Table) -> pa.Table:
        uni: Counter = Counter()
        bi: Counter = Counter()
        for text in batch["text"].to_pylist():
            words = (text or "").split()
            uni.update(words)
            bi.update(
                words[i] + " " + words[i + 1] for i in range(len(words) - 1)
            )
        keys = [("u", w) for w in uni] + [("b", g) for g in bi]
        return pa.table(
            {
                "kind": pa.array([k[0] for k in keys], pa.string()),
                "gram": pa.array([k[1] for k in keys], pa.string()),
                "n_p": pa.array(
                    [uni[k[1]] if k[0] == "u" else bi[k[1]] for k in keys], pa.int64()
                ),
            }
        )

    counts = (
        group_agg(
            _read(sf_dir, "documents", ["text"]).map_batches(grams, batch_format="pyarrow"),
            ["kind", "gram"],
            n=("sum", "n_p"),
        )
    ).materialize()  # consumed twice: scalar totals + the co-group join
    totals = {
        r["kind"]: int(r["t"])
        for r in group_agg(counts, "kind", t=("sum", "n")).take_all()
    }
    w_total = totals.get("u", 0)
    b_total = totals.get("b", 0)

    def explode(batch: pa.Table) -> pa.Table:
        words, grams_out, cabs, slots = [], [], [], []
        for kind, g, n in zip(
            batch["kind"].to_pylist(), batch["gram"].to_pylist(), batch["n"].to_pylist()
        ):
            if kind == "u":
                words.append(g)
                grams_out.append("")
                cabs.append(int(n))
                slots.append(-1)
            elif int(n) >= 5:
                a, b = g.split(" ")
                for slot, w in ((0, a), (1, b)):
                    words.append(w)
                    grams_out.append(g)
                    cabs.append(int(n))
                    slots.append(slot)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "gram": pa.array(grams_out, pa.string()),
                "cab": pa.array(cabs, pa.int64()),
                "slot": pa.array(slots, pa.int8()),
            }
        )

    def resolve_uni(bucket: pd.DataFrame) -> pd.DataFrame:
        uni_map = bucket.loc[bucket["slot"] == -1].set_index("word")["cab"]
        halves = bucket.loc[bucket["slot"] >= 0]
        if halves.empty:
            return None
        return halves.assign(u_n=halves["word"].map(uni_map))

    def combine(bucket: pd.DataFrame) -> pd.DataFrame:
        s0 = bucket.loc[bucket["slot"] == 0].set_index("gram")
        s1 = bucket.loc[bucket["slot"] == 1].set_index("gram").loc[
            bucket.loc[bucket["slot"] == 0, "gram"]
        ]
        cab = s0["cab"].to_numpy().astype(np.float64)
        ua = s0["u_n"].to_numpy().astype(np.float64)
        ub = s1["u_n"].to_numpy().astype(np.float64)
        # identical op order to the oracle: (cab/b_total) / ((ua/wt)*(ub/wt))
        pmi = np.round(np.log((cab / b_total) / ((ua / w_total) * (ub / w_total))), 6)
        df = pd.DataFrame({"bigram": s0.index.to_numpy(), "n_pair": s0["cab"].to_numpy(), "pmi": pmi})
        return df.sort_values(
            ["pmi", "bigram"], ascending=[False, True], kind="mergesort"
        ).head(20)

    halves = cogroup(
        counts.map_batches(explode, batch_format="pyarrow"),
        "word",
        resolve_uni,
        {"gram": pa.string(), "cab": pa.int64(), "slot": pa.int8(), "u_n": pa.int64()},
    )
    folded = cogroup(
        halves, "gram", combine, {"bigram": pa.string(), "n_pair": pa.int64(), "pmi": pa.float64()}
    ).to_pandas()
    top = folded.sort_values(
        ["pmi", "bigram"], ascending=[False, True], kind="mergesort"
    ).head(20)
    return pa.table(
        {
            "bigram": pa.array(top["bigram"].tolist(), pa.string()),
            "n_pair": pa.array(top["n_pair"].tolist(), pa.int64()),
            "pmi": pa.array(top["pmi"].tolist(), pa.float64()),
        }
    )


def q_events_new_users_daily(sf_dir: str):
    """New-vs-returning attribution: per day, how many users appear for the
    FIRST time, with a running cumulative.  One grouped min of each
    event's day per user (the only corpus-sized shuffle) → per-day counts
    (calendar-bounded, so the cumulative runs on the driver)."""
    day_us = 86_400_000_000

    def to_day(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy()
        return pa.table({"user_id": batch["user_id"], "day": us // day_us * day_us})

    first = group_agg(
        _read(sf_dir, "events", ["ts", "user_id"]).map_batches(to_day, batch_format="pyarrow"),
        "user_id",
        day_us=("min", "day"),
    )
    per_day = group_agg(first, "day_us", n_new=("count",)).take_all()
    per_day.sort(key=lambda r: r["day_us"])
    cum = 0
    out_day, out_new, out_cum = [], [], []
    for r in per_day:
        cum += int(r["n_new"])
        out_day.append(int(r["day_us"]))
        out_new.append(int(r["n_new"]))
        out_cum.append(cum)
    return pa.table(
        {
            "day_us": pa.array(out_day, pa.int64()),
            "n_new": pa.array(out_new, pa.int64()),
            "cum_users": pa.array(out_cum, pa.int64()),
        }
    )


def q_events_value_percentiles(sf_dir: str):
    """Grouped EXACT discrete percentiles (p50/p90/p99 of event value per
    type) the scale-correct way: per-batch (type, value) partial counts —
    the shuffle ships one row per distinct pair per batch, never raw events
    — then a per-type merge picks the quantile element from the cumulative
    histogram.  Element selection mirrors DuckDB ``quantile_disc``
    (1-based index ``ceil(q*n)``), so the values are bit-identical doubles
    picked from the data, not interpolations."""
    import math

    def partial(batch: pa.Table) -> pa.Table:
        # drop null values up front: SQL's quantile_disc ignores NULLs while
        # count(*) would count them, and NaN float keys never merge in the
        # Counter nor survive the pandas groupby — filtering BOTH engines
        # (WHERE value IS NOT NULL in the oracle) pins one semantics
        batch = batch.filter(pc.is_valid(batch["value"]))
        c = Counter(zip(batch["event_type"].to_pylist(), batch["value"].to_pylist()))
        return pa.table(
            {
                "event_type": pa.array([k[0] for k in c], pa.string()),
                "value": pa.array([k[1] for k in c], pa.float64()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    def quantiles(group: pd.DataFrame) -> pd.DataFrame:
        merged = group.groupby("value", as_index=False)["n"].sum().sort_values("value")
        counts = merged["n"].to_numpy()
        values = merged["value"].to_numpy()
        cum = counts.cumsum()
        total = int(cum[-1])

        def disc(q: float) -> float:
            target = math.ceil(q * total)
            return float(values[int((cum >= target).argmax())])

        return pd.DataFrame(
            {
                "event_type": [group["event_type"].iloc[0]],
                "n_events": [total],
                "p50": [disc(0.5)],
                "p90": [disc(0.9)],
                "p99": [disc(0.99)],
            }
        )

    return cogroup(
        _read(sf_dir, "events", ["event_type", "value"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        "event_type",
        each_key("event_type", quantiles),
        {
            "event_type": pa.string(),
            "n_events": pa.int64(),
            "p50": pa.float64(),
            "p90": pa.float64(),
            "p99": pa.float64(),
        },
    )


def q_supplier_nation_volume(sf_dir: str):
    """Lineitem volume by supplier nation: both dimension tables
    (supplier, nation) broadcast once via ray.put, a per-row nation lookup
    — the fact table never shuffles raw rows, only ``group_agg``'s
    (nation, count, qty) partials reach its tiny merge."""
    import ray

    nation = {
        n["n_nationkey"]: n["n_name"]
        for n in _read(sf_dir, "nation", ["n_nationkey", "n_name"]).take_all()
    }
    supp_to_nation = {
        s["s_suppkey"]: nation[s["s_nationkey"]]
        for s in _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).take_all()
    }
    ref = ray.put(supp_to_nation)

    def to_nation(batch: pa.Table) -> pa.Table:
        lookup = ray.get(ref)
        names = [lookup[sk] for sk in batch["l_suppkey"].to_pylist()]
        return pa.table({"n_name": pa.array(names, pa.string()), "l_quantity": batch["l_quantity"]})

    return group_agg(
        _read(sf_dir, "lineitem", ["l_suppkey", "l_quantity"]).map_batches(to_nation, batch_format="pyarrow"),
        "n_name",
        n_lineitems=("count",),
        sum_qty=("sum", "l_quantity"),
    )


def q_docs_top3_per_source(sf_dir: str):
    """Grouped top-k with map-side pruning: top-3 docs per source by
    ``(n_chars DESC, doc_id ASC)``.  Each batch emits at most k rows per
    source it contains, so the shuffle ships O(k × sources × batches)
    narrow rows regardless of corpus size; the per-source merge re-ranks
    the survivors."""

    K = 3

    def local_topk(batch: pa.Table) -> pa.Table:
        best: dict[str, list[tuple[int, int]]] = {}
        for s, nc, d in zip(
            batch["source"].to_pylist(),
            batch["n_chars"].to_pylist(),
            batch["doc_id"].to_pylist(),
        ):
            best.setdefault(s, []).append((-nc, d))
        srcs, ncs, dids = [], [], []
        for s, rows in best.items():
            rows.sort()
            for neg_nc, d in rows[:K]:
                srcs.append(s)
                ncs.append(-neg_nc)
                dids.append(d)
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "n_chars": pa.array(ncs, pa.int64()),
                "doc_id": pa.array(dids, pa.int64()),
            }
        )

    def merge_topk(group: pd.DataFrame) -> pd.DataFrame:
        group = group.sort_values(
            ["n_chars", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(K)
        return group.assign(rnk=np.arange(1, len(group) + 1))

    return cogroup(
        _read(sf_dir, "documents", ["source", "doc_id", "n_chars"]).map_batches(
            local_topk, batch_format="pyarrow"
        ),
        "source",
        each_key("source", merge_topk),
        {"source": pa.string(), "rnk": pa.int64(), "doc_id": pa.int64(), "n_chars": pa.int64()},
    )


def q_docs_global_rank(sf_dir: str):
    """Global rank after a distributed sort by ``(n_chars, doc_id)`` —
    the zip-with-index operator.  Two passes: a tiny key histogram
    (n_chars counts) broadcast as exclusive prefix offsets, then
    within-key ranking (groupby n_chars, sort by doc_id) offset by the
    prefix — no global sort materialization, no driver-side row data.
    Partitioning assumption: one key's rows fit a group task (salt the
    hot key with a sub-rank pass when they don't)."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    hist = group_agg(ds, "n_chars", n=("count",)).take_all()
    hist.sort(key=lambda r: r["n_chars"])
    offsets, run = {}, 0
    for r in hist:
        offsets[r["n_chars"]] = run
        run += r["n"]
    off_ref = ray.put(offsets)

    def rank_group(group: pd.DataFrame) -> pd.DataFrame:
        base = ray.get(off_ref)[int(group["n_chars"].iloc[0])]
        group = group.sort_values("doc_id", kind="mergesort")
        return group.assign(global_rank=np.arange(base + 1, base + 1 + len(group)))

    return cogroup(
        ds, "n_chars", each_key("n_chars", rank_group), {"doc_id": pa.int64(), "global_rank": pa.int64()}
    )

def q_events_value_outliers(sf_dir: str):
    """Robust (median/MAD) outlier detection per event type — a two-pass
    broadcast pattern: pass 1 builds per-type value histograms (the shuffle
    ships one (type, value, n) row per distinct pair per batch, never raw
    events) and picks the exact discrete median; the tiny median table is
    broadcast via ``ray.put``; pass 2 histograms the absolute deviations the
    same way, picks the MAD from the merged histogram and counts rows beyond
    ``3 * mad`` from that SAME histogram — no third scan.  ``abs``, the
    ``3 * mad`` product and the ``>`` compare are single IEEE ops, so the
    float columns are bit-identical to DuckDB's ``quantile_disc`` elements."""
    import math

    import ray

    def value_hist(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["value"]))
        c = Counter(zip(batch["event_type"].to_pylist(), batch["value"].to_pylist()))
        return pa.table(
            {
                "event_type": pa.array([k[0] for k in c], pa.string()),
                "value": pa.array([k[1] for k in c], pa.float64()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    def disc_from(group: pd.DataFrame, q: float) -> tuple[float, int]:
        merged = group.groupby("value", as_index=False)["n"].sum().sort_values("value")
        cum = merged["n"].to_numpy().cumsum()
        total = int(cum[-1])
        target = math.ceil(q * total)
        return float(merged["value"].to_numpy()[int((cum >= target).argmax())]), total

    def median_of(group: pd.DataFrame) -> pd.DataFrame:
        m, total = disc_from(group, 0.5)
        return pd.DataFrame(
            {"event_type": [group["event_type"].iloc[0]], "median": [m], "n_events": [total]}
        )

    ds = _read(sf_dir, "events", ["event_type", "value"])
    med_rows = cogroup(
        ds.map_batches(value_hist, batch_format="pyarrow"),
        "event_type",
        each_key("event_type", median_of),
        {"event_type": pa.string(), "median": pa.float64(), "n_events": pa.int64()},
    ).take_all()
    medians = {r["event_type"]: (r["median"], r["n_events"]) for r in med_rows}
    med_ref = ray.put(medians)

    def dev_hist(batch: pa.Table) -> pa.Table:
        med = ray.get(med_ref)
        batch = batch.filter(pc.is_valid(batch["value"]))
        types = batch["event_type"].to_pylist()
        vals = batch["value"].to_numpy(zero_copy_only=False)
        devs = np.abs(vals - np.array([med[t][0] for t in types], dtype=np.float64))
        c = Counter(zip(types, devs.tolist()))
        return pa.table(
            {
                "event_type": pa.array([k[0] for k in c], pa.string()),
                "dev": pa.array([k[1] for k in c], pa.float64()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    def mad_and_outliers(group: pd.DataFrame) -> pd.DataFrame:
        med = ray.get(med_ref)
        etype = group["event_type"].iloc[0]
        merged = group.groupby("dev", as_index=False)["n"].sum().sort_values("dev")
        cum = merged["n"].to_numpy().cumsum()
        total = int(cum[-1])
        target = math.ceil(0.5 * total)
        devs = merged["dev"].to_numpy()
        mad = float(devs[int((cum >= target).argmax())])
        n_out = int(merged["n"].to_numpy()[devs > 3 * mad].sum())
        return pd.DataFrame(
            {
                "event_type": [etype],
                "n_events": [med[etype][1]],
                "median": [med[etype][0]],
                "mad": [mad],
                "n_outliers": [n_out],
            }
        )

    return cogroup(
        ds.map_batches(dev_hist, batch_format="pyarrow"),
        "event_type",
        each_key("event_type", mad_and_outliers),
        {
            "event_type": pa.string(),
            "n_events": pa.int64(),
            "median": pa.float64(),
            "mad": pa.float64(),
            "n_outliers": pa.int64(),
        },
    )


def q_events_per_user_histogram(sf_dir: str):
    """Aggregation-of-aggregation: events-per-user counts, then the
    distribution of those counts (how many users produced exactly N
    events).  Both levels are ``group_agg`` counts, which pre-aggregate
    each block — the first shuffle ships one (user, n) row per user per
    block, the second one (n_events, n_users) partial per block — so no raw
    event row ever moves and the second exchange is tiny regardless of
    corpus size."""
    per_user = group_agg(_read(sf_dir, "events", ["user_id"]), "user_id", n_events=("count",))
    return group_agg(per_user, "n_events", n_users=("count",))


def q_customer_order_cohorts(sf_dir: str):
    """Cohort retention: each customer's cohort is the month of their first
    order; the matrix counts orders and distinct active customers per
    (cohort_month, order_month).  Scale shape: orders pre-aggregate to one
    (custkey, month, n) row per pair per batch; the narrow partials then
    co-group on custkey (every row of a given customer lands in exactly one
    folded block, so the per-block merge derives the cohort with a plain
    grouped min AND counts distinct customers exactly, no global distinct
    needed); only per-block (cohort, month, n_orders, n_customers) partial
    sums leave the fold for the final tiny groupby.  No raw order row ever
    shuffles and nothing materializes."""

    def month_partial(batch: pa.Table) -> pa.Table:
        months = pc.strftime(batch["o_orderdate"], format="%Y-%m")
        c = Counter(zip(batch["o_custkey"].to_pylist(), months.to_pylist()))
        keys = [k[0] for k in c]
        return pa.table(
            {
                "o_custkey": pa.array(keys, pa.int64()),
                "order_month": pa.array([k[1] for k in c], pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # lexicographic min of '%Y-%m' strings IS the chronological first
        # month; the block holds every row of each of its customers
        cohort = group.groupby("o_custkey")["order_month"].min()
        return (
            group.assign(cohort_month=group["o_custkey"].map(cohort))
            .groupby(["cohort_month", "order_month"], as_index=False)
            .agg(o=("n", "sum"), u=("o_custkey", "nunique"))
        )

    return group_agg(
        cogroup(
            _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
                month_partial, batch_format="pyarrow"
            ),
            "o_custkey",
            fold_bucket,
            {
                "cohort_month": pa.string(),
                "order_month": pa.string(),
                "o": pa.int64(),
                "u": pa.int64(),
            },
        ),
        ["cohort_month", "order_month"],
        n_orders=("sum", "o"),
        n_customers=("sum", "u"),
    )


def _money_units(price: pa.ChunkedArray | pa.Array, discount: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Exact revenue in integer 10^-4 units: price-cents × (100 − disc-cents).
    The inputs are 2-dp values stored as doubles, so ``round(x*100)`` recovers
    the exact integer both here and in DuckDB (never lands on a .5 tie), and
    every grouped SUM downstream is order-independent int64 arithmetic —
    the single final ``/ 10000.0`` is then bit-identical to the SQL mirror."""
    cents = pc.cast(pc.round(pc.multiply(price, 100.0)), pa.int64())
    disc = pc.cast(pc.round(pc.multiply(discount, 100.0)), pa.int64())
    return pc.multiply(cents, pc.subtract(100, disc))


def q_shipping_priority(sf_dir: str):
    """TPC-H-Q3-shaped shipping-priority top-k.  Scale shape: the BUILDING
    customer key set broadcasts once via ``ray.put`` and filters orders
    map-side (no customer shuffle); lineitem pre-aggregates exact
    integer-unit revenue per orderkey per batch; the only exchange is ONE
    co-group of the two narrow projections on the orderkey, where each
    folded block finishes the per-order sums, applies the inner-join
    semantics, and emits only its local top-10, so the final sort sees
    ~10×blocks rows.  Revenue stays int64 through every sum; the one
    final division is bit-identical to the SQL mirror."""
    import ray

    cutoff = pa.scalar(np.datetime64("1995-03-15", "us"), pa.timestamp("us"))

    building: set[int] = set()
    for batch in _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        mask = pc.equal(batch["c_mktsegment"], "BUILDING")
        building.update(batch.filter(mask)["c_custkey"].to_pylist())
    building_ref = ray.put(building)

    def order_rows(batch: pa.Table) -> pa.Table:
        keys = ray.get(building_ref)
        batch = batch.filter(pc.less(batch["o_orderdate"], cutoff))
        mask = pa.array(
            [k in keys for k in batch["o_custkey"].to_pylist()], pa.bool_()
        )
        batch = batch.filter(mask)
        return pa.table(
            {
                "okey": batch["o_orderkey"],
                "o_orderdate": pc.strftime(batch["o_orderdate"], format="%Y-%m-%d"),
                "o_orderpriority": batch["o_orderpriority"],
            }
        )

    def lineitem_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch["l_shipdate"], cutoff))
        units = _money_units(batch["l_extendedprice"], batch["l_discount"])
        c: Counter = Counter()
        for k, u in zip(batch["l_orderkey"].to_pylist(), units.to_pylist()):
            c[k] += u
        return pa.table(
            {
                "okey": pa.array(list(c.keys()), pa.int64()),
                "units": pa.array(list(c.values()), pa.int64()),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(order_rows, batch_format="pyarrow")
    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(lineitem_partial, batch_format="pyarrow")

    def bucket_top(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame | None:
        if dims.empty or facts.empty:
            return None
        sums = facts.groupby("okey", as_index=False)["units"].sum()
        merged = sums.merge(dims, on="okey", how="inner")
        merged = merged.sort_values(["units", "okey"], ascending=[False, True]).head(10)
        return merged.rename(columns={"okey": "l_orderkey"})

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "o_orderdate": batch["o_orderdate"],
                "o_orderpriority": batch["o_orderpriority"],
                "revenue": pc.divide(pc.cast(batch["units"], pa.float64()), 10000.0),
            }
        )

    return (
        cogroup(
            [line, orders],
            "okey",
            bucket_top,
            {
                "l_orderkey": pa.int64(),
                "o_orderdate": pa.string(),
                "o_orderpriority": pa.string(),
                "units": pa.int64(),
            },
        )
        .sort(["units", "l_orderkey"], descending=[True, False])
        .limit(10)
        .map_batches(finish, batch_format="pyarrow")
    )


def q_nation_trade_flow(sf_dir: str):
    """TPC-H-Q7-shaped trade-flow matrix: exact revenue between every
    (supplier nation, customer nation) pair for 1995–1996 shipments.
    Scale shape: both dimension chains (supplier→nation, customer→nation)
    broadcast once via ``ray.put`` — the documented small-side assumption of
    every dim join here — so the only exchange is ONE co-group of the two
    fact projections on orderkey, with lineitem pre-aggregated to
    (orderkey, supp_nation) partials per batch first; the fold sums each
    sorted block per nation pair.  Revenue is int64 units end to end (see
    ``_money_units``)."""
    import ray

    lo = pa.scalar(np.datetime64("1995-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1996-12-31", "us"), pa.timestamp("us"))

    nation = {
        r["n_nationkey"]: r["n_name"]
        for r in _read(sf_dir, "nation", ["n_nationkey", "n_name"]).take_all()
    }
    supp_nation = {
        r["s_suppkey"]: nation[r["s_nationkey"]]
        for r in _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).take_all()
    }
    cust_nation = {}
    for batch in _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        for ck, nk in zip(batch["c_custkey"].to_pylist(), batch["c_nationkey"].to_pylist()):
            cust_nation[ck] = nation[nk]
    supp_ref = ray.put(supp_nation)
    cust_ref = ray.put(cust_nation)

    def line_partial(batch: pa.Table) -> pa.Table:
        lookup = ray.get(supp_ref)
        batch = batch.filter(
            pc.and_(
                pc.greater_equal(batch["l_shipdate"], lo),
                pc.less_equal(batch["l_shipdate"], hi),
            )
        )
        units = _money_units(batch["l_extendedprice"], batch["l_discount"])
        acc: dict[tuple[int, str], list[int]] = {}
        for ok, sk, u in zip(
            batch["l_orderkey"].to_pylist(), batch["l_suppkey"].to_pylist(), units.to_pylist()
        ):
            cell = acc.setdefault((ok, lookup[sk]), [0, 0])
            cell[0] += u
            cell[1] += 1
        return pa.table(
            {
                "okey": pa.array([k[0] for k in acc], pa.int64()),
                "supp_nation": pa.array([k[1] for k in acc], pa.string()),
                "units": pa.array([v[0] for v in acc.values()], pa.int64()),
                "n": pa.array([v[1] for v in acc.values()], pa.int64()),
            }
        )

    def order_side(batch: pa.Table) -> pa.Table:
        lookup = ray.get(cust_ref)
        return pa.table(
            {
                "okey": batch["o_orderkey"],
                "cust_nation": pa.array(
                    [lookup[k] for k in batch["o_custkey"].to_pylist()], pa.string()
                ),
            }
        )

    def flow_partials(line: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame | None:
        if line.empty or orders.empty:
            return None
        joined = line.merge(orders, on="okey")
        return joined.groupby(["supp_nation", "cust_nation"], as_index=False)[["units", "n"]].sum()

    line = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(line_partial, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        order_side, batch_format="pyarrow"
    )

    partials = cogroup(
        [line, orders],
        "okey",
        flow_partials,
        {"supp_nation": pa.string(), "cust_nation": pa.string(), "units": pa.int64(), "n": pa.int64()},
    )
    agg = group_agg(
        partials,
        ["supp_nation", "cust_nation"],
        units=("sum", "units"),
        n_lineitems=("sum", "n"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "supp_nation": batch["supp_nation"],
                "cust_nation": batch["cust_nation"],
                "n_lineitems": batch["n_lineitems"],
                "revenue": pc.divide(pc.cast(batch["units"], pa.float64()), 10000.0),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_doc_chars_quantile_cont(sf_dir: str):
    """Interpolated (``quantile_cont``) length percentiles per language —
    the continuous companion to the exact-discrete percentile operator.
    Same scale shape: per-batch (lang, n_chars, n) histogram partials are
    the only shuffle; the per-language merge walks the merged histogram's
    cumulative counts once and interpolates ``lo + frac*(hi-lo)`` at
    h = q*(n-1).  Values are small ints so the interpolation arithmetic is
    exact in double on both engines; 6-dp rounding on both sides guards the
    formula-shape ULP."""
    import math

    def hist_partial(batch: pa.Table) -> pa.Table:
        c = Counter(zip(batch["lang"].to_pylist(), batch["n_chars"].to_pylist()))
        return pa.table(
            {
                "lang": pa.array([k[0] for k in c], pa.string()),
                "n_chars": pa.array([k[1] for k in c], pa.int64()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    def quantiles(group: pd.DataFrame) -> pd.DataFrame:
        merged = group.groupby("n_chars", as_index=False)["n"].sum().sort_values("n_chars")
        vals = merged["n_chars"].to_numpy()
        cum = merged["n"].to_numpy().cumsum()
        total = int(cum[-1])

        def cont(q: float) -> float:
            h = q * (total - 1)
            lo_rank = math.floor(h)
            frac = h - lo_rank
            lo = float(vals[int((cum >= lo_rank + 1).argmax())])
            hi = float(vals[int((cum >= min(lo_rank + 2, total)).argmax())])
            return round(lo + frac * (hi - lo), 6)

        return pd.DataFrame(
            {
                "lang": [group["lang"].iloc[0]],
                "n_docs": [total],
                "q25": [cont(0.25)],
                "q50": [cont(0.5)],
                "q75": [cont(0.75)],
            }
        )

    return cogroup(
        _read(sf_dir, "documents", ["lang", "n_chars"]).map_batches(
            hist_partial, batch_format="pyarrow"
        ),
        "lang",
        each_key("lang", quantiles),
        {
            "lang": pa.string(),
            "n_docs": pa.int64(),
            "q25": pa.float64(),
            "q50": pa.float64(),
            "q75": pa.float64(),
        },
    )


def q_lineitem_qty_discount_corr(sf_dir: str):
    """Pearson correlation (quantity vs discount) per return flag from
    EXACT integer moment sums: both columns are small 0–2-dp values, so the
    five moments (Σx, Σy, Σxy, Σx², Σy²) accumulate as order-independent
    int64 partials per block (one tiny row per flag per block — no raw row
    ever shuffles) and the closed-form corr is evaluated with the identical
    expression tree in SQL, making the double bit-identical with NO
    rounding.  Regime bound (pinned by the n*sxx test): the closed-form
    products stay exact int64 up to ~6e7 rows per flag; beyond that the
    final combine switches to python-int/HUGEINT — the per-batch partials
    themselves are never the binding constraint."""

    def moments(batch: pa.Table) -> pa.Table:
        x = pc.cast(pc.round(batch["l_quantity"]), pa.int64())
        y = pc.cast(pc.round(pc.multiply(batch["l_discount"], 100.0)), pa.int64())
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "x": x,
                "y": y,
                "xy": pc.multiply(x, y),
                "xx": pc.multiply(x, x),
                "yy": pc.multiply(y, y),
            }
        )

    agg = group_agg(
        _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_discount"])
        .map_batches(moments, batch_format="pyarrow"),
        "l_returnflag",
        n=("count",),
        sx=("sum", "x"),
        sy=("sum", "y"),
        sxy=("sum", "xy"),
        sxx=("sum", "xx"),
        syy=("sum", "yy"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        import math

        out_flag, out_n, out_corr = [], [], []
        for r in batch.to_pylist():
            n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
            sxy, sxx, syy = int(r["sxy"]), int(r["sxx"]), int(r["syy"])
            num = float(n * sxy - sx * sy)
            vx, vy = float(n * sxx - sx * sx), float(n * syy - sy * sy)
            denom = math.sqrt(vx) * math.sqrt(vy)
            out_flag.append(r["l_returnflag"])
            out_n.append(n)
            out_corr.append(num / denom if denom != 0.0 else None)
        return pa.table(
            {
                "l_returnflag": pa.array(out_flag, pa.string()),
                "n_rows": pa.array(out_n, pa.int64()),
                "corr_qty_discount": pa.array(out_corr, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_inverted_index_postings(sf_dir: str):
    """Inverted-index build — the classic IR wide shuffle: per-doc DISTINCT
    (term, doc_id) pairs flow straight into ONE groupby(term); each term
    group emits document frequency + an md5 fingerprint of its sorted
    posting list (the value-checkable stand-in for the list itself).
    Pairs are deduplicated per document map-side (a doc lives in one row),
    so the shuffle ships each posting exactly once.  Only terms with
    df ≥ 5 are emitted to bound the output (the cap is a WHERE, not a
    truncation — both engines apply it identically).  Skew note: a
    stop-word's group is O(n_docs) ids — at corpus scale the group payload
    is ids only (8 B/doc), and the salting path is the same band-split
    used by the LSH buckets."""
    import hashlib

    def pairs(batch: pa.Table) -> pa.Table:
        terms: list[str] = []
        ids: list[int] = []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            for term in set((text or "").split()):
                terms.append(term)
                ids.append(doc_id)
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    def fold_term(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) < 5:
            return None
        ids = sorted(int(i) for i in group["doc_id"])
        digest = hashlib.md5(",".join(str(i) for i in ids).encode()).hexdigest()
        return pd.DataFrame(
            {"term": [group["term"].iloc[0]], "df": [len(ids)], "postings_md5": [digest]}
        )

    return cogroup(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(pairs, batch_format="pyarrow"),
        "term",
        each_key("term", fold_term),
        {"term": pa.string(), "df": pa.int64(), "postings_md5": pa.string()},
    )


def q_doc_pagerank(sf_dir: str):
    """Iterative distributed PageRank, 5 synchronous rounds, over the
    deterministic modular graph  src → m + ((src−m)·7 + k) mod N,
    k ∈ {1,2,3}  on the document ids (every doc has out-degree 3; the
    graph exists so the ITERATION pattern is oracle-checkable — real link
    graphs plug into the same loop).  All arithmetic is integer: ranks in
    1e-6 units, contributions ``r // 3``, damping ``150000 + 85·inflow
    // 100`` — floor division on non-negative ints is identical in Python
    and DuckDB, so five chained rounds stay bit-exact with NO float drift.
    Scale shape per round: contributions are generated map-side from each
    rank row (the static graph needs no edge-table join), every node also
    emits a presence row, and ONE co-group on the node folds inflow + applies
    damping — nodes without inflow are preserved by the presence rows, so
    a round is one narrow shuffle of 4 int rows per node."""
    from ray.data.aggregate import Count, Min

    meta = (
        _read(sf_dir, "documents", ["doc_id"])
        .aggregate(Min("doc_id", alias_name="m"), Count(alias_name="n"))
    )
    m, n = int(meta["m"]), int(meta["n"])

    def init_ranks(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "node": pa.array(ids, pa.int64()),
                "r": pa.array([1_000_000] * len(ids), pa.int64()),
            }
        )

    ranks = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        init_ranks, batch_format="pyarrow"
    )

    def emit(batch: pa.Table) -> pa.Table:
        nodes = batch["node"].to_pylist()
        rs = batch["r"].to_pylist()
        out_target, out_units, out_kind = [], [], []
        for node, r in zip(nodes, rs):
            out_target.append(node)   # presence row (kind 0)
            out_units.append(0)
            out_kind.append(0)
            c = r // 3
            for k in (1, 2, 3):
                dst = m + ((node - m) * 7 + k) % n
                out_target.append(dst)
                out_units.append(c)
                out_kind.append(1)
        return pa.table(
            {
                "target": pa.array(out_target, pa.int64()),
                "units": pa.array(out_units, pa.int64()),
                "kind": pa.array(out_kind, pa.int8()),
            }
        )

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        nodes = group.loc[group["kind"] == 0, "target"]
        if nodes.empty:
            return None  # inflow to a block with no resident nodes: impossible
        inflow = group[group["kind"] == 1].groupby("target")["units"].sum()
        new_r = [150000 + (85 * int(inflow.get(v, 0))) // 100 for v in nodes]
        return pd.DataFrame({"node": nodes.to_numpy(), "r": new_r})

    for _ in range(5):
        ranks = cogroup(
            ranks.map_batches(emit, batch_format="pyarrow"),
            "target",
            fold,
            {"node": pa.int64(), "r": pa.int64()},
        )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["node"],
                "rank_units": batch["r"],
            }
        )

    return ranks.map_batches(finish, batch_format="pyarrow")


def q_events_interarrival_hist(sf_dir: str):
    """LAG-window semantics at scale: per-user inter-event gaps, bucketed
    to whole minutes, histogrammed per event type OF THE LATER EVENT.
    Scale shape: user timelines co-locate via a co-group on user_id
    (the sessionization partitioning contract — one narrow (us, type)
    row per event), each folded block sorts its users' timelines once and emits
    per-(type, gap-minute) partial counts, and the final groupby merges
    tiny histograms.  Tie contract: equal timestamps sort by event type
    then gap 0 — deterministic on both engines because the SQL mirror
    orders its window identically (ts, event_type)."""

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g, start = _timeline(group, ["us", "event_type"])
        gaps = np.zeros(len(g), dtype=np.int64)
        gaps[1:] = np.diff(g["us"].to_numpy()) // 60_000_000
        sub = pd.DataFrame({"event_type": g["event_type"].to_numpy()[~start], "gap_min": gaps[~start]})
        return sub.groupby(["event_type", "gap_min"], as_index=False).size().rename(
            columns={"size": "n"}
        )

    return group_agg(
        cogroup(
            _events(sf_dir, ["user_id", "event_type"]),
            "user_id",
            fold_bucket,
            {"event_type": pa.string(), "gap_min": pa.int64(), "n": pa.int64()},
        ),
        ["event_type", "gap_min"],
        n_gaps=("sum", "n"),
    )


def q_nation_customer_fingerprint(sf_dir: str):
    """Deterministic ordered-group fold: per nation, the md5 of the
    comma-joined ORDERED customer-name list (the value-checkable stand-in
    for ``string_agg(... ORDER BY ...)``).  Scale shape: one narrow
    (nationkey, name) shuffle into the nation groupby; each group sorts
    and folds locally.  The dimension decode (nationkey → name) is the
    usual ray.put broadcast.  Giant-group note: a group's fold is O(its
    names) memory — at web scale the fold would switch to a sorted
    streaming digest (hash chaining), same contract."""
    import hashlib

    import ray

    nation = {
        r["n_nationkey"]: r["n_name"]
        for r in _read(sf_dir, "nation", ["n_nationkey", "n_name"]).take_all()
    }
    nation_ref = ray.put(nation)

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        lookup = ray.get(nation_ref)
        names = sorted(group["c_name"].tolist())
        return pd.DataFrame(
            {
                "n_name": [lookup[int(group["c_nationkey"].iloc[0])]],
                "n_customers": [len(names)],
                "names_md5": [hashlib.md5(",".join(names).encode()).hexdigest()],
            }
        )

    return cogroup(
        _read(sf_dir, "customer", ["c_nationkey", "c_name"]),
        "c_nationkey",
        each_key("c_nationkey", fold),
        {"n_name": pa.string(), "n_customers": pa.int64(), "names_md5": pa.string()},
    )


def q_corpus_snapshot_diff(sf_dir: str):
    """Snapshot diff (FULL OUTER JOIN shape): classify every doc_id across
    two corpus versions as added/removed/modified/unchanged — the
    incremental-refresh primitive (which shards changed → reprocess only
    those).  v2 derives deterministically from the base corpus
    (doc_id%10==3 dropped, ==4 text rewritten, ==5 additionally cloned
    under a new id) so the diff is SQL-mirrorable.  Scale shape: each side
    ships only (doc_id, side, 64-bit content hash) — never text — into
    ONE co-group on doc_id (an outer join); each folded block classifies
    its ids locally and pre-aggregates per-status (count, id_sum)
    partials, so the final exchange is ≤ blocks×4 rows."""
    import hashlib

    def sides(batch: pa.Table) -> pa.Table:
        out_id: list[int] = []
        out_side: list[int] = []
        out_h: list[int] = []

        def emit(i: int, side: int, t) -> None:
            out_id.append(i)
            out_side.append(side)
            out_h.append(
                int.from_bytes(
                    hashlib.md5((t or "").encode()).digest()[:8], "big", signed=True
                )
            )

        for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            emit(i, 0, t)  # base snapshot
            m = i % 10
            if m == 3:
                continue  # dropped from v2 → 'removed'
            emit(i, 1, (t or "") + " v2" if m == 4 else t)
            if m == 5:
                emit(i + 2_000_000, 1, (t or "") + " new")  # new in v2 → 'added'
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "side": pa.array(out_side, pa.int8()),
                "h": pa.array(out_h, pa.int64()),
            }
        )

    def classify(group: pd.DataFrame) -> pd.DataFrame:
        base = group.loc[group["side"] == 0, ["doc_id", "h"]].rename(columns={"h": "hb"})
        v2 = group.loc[group["side"] == 1, ["doc_id", "h"]].rename(columns={"h": "hv"})
        # Int64 (nullable) keeps the 64-bit hashes exact through the outer
        # merge — plain int64 would upcast to float64 and corrupt equality.
        base["hb"] = base["hb"].astype("Int64")
        v2["hv"] = v2["hv"].astype("Int64")
        m = base.merge(v2, on="doc_id", how="outer")
        added = m["hb"].isna().to_numpy()
        removed = m["hv"].isna().to_numpy()
        same = (m["hb"].fillna(0) == m["hv"].fillna(1)).to_numpy()
        status = np.where(
            added, "added", np.where(removed, "removed", np.where(same, "unchanged", "modified"))
        )
        return (
            pd.DataFrame({"status": status, "doc_id": m["doc_id"].astype("int64")})
            .groupby("status", as_index=False)
            .agg(n=("doc_id", "size"), ids=("doc_id", "sum"))
        )

    return (
        group_agg(
            cogroup(
                _read_spread(sf_dir, "documents", ["doc_id", "text"]).map_batches(
                    sides, batch_format="pyarrow"
                ),
                "doc_id",
                classify,
                {"status": pa.string(), "n": pa.int64(), "ids": pa.int64()},
            ),
            "status",
            n_docs=("sum", "n"),
            id_sum=("sum", "ids"),
        )
        .sort("status")
    )


def q_events_last_per_user(sf_dir: str):
    """Latest event per user — the ARGMAX / upsert-latest-snapshot
    primitive (SCD-style 'current state' table from an append-only log).
    Order contract: max ts, ties broken by max event_id (deterministic).
    Scale shape: per-batch partial argmax per user (one surviving row per
    user per batch — the combiner), then ONE co-group on user_id where
    each folded block finishes its users' argmax; no
    window function, no global sort of the log.  ts ships as exact
    epoch-microseconds int64; value is the stored double (pass-through,
    bit-identical)."""

    def partial(batch: pa.Table) -> pa.Table:
        best: dict[int, tuple] = {}
        for u, t, eid, et, v in zip(
            batch["user_id"].to_pylist(),
            pc.cast(batch["ts"], pa.int64()).to_pylist(),
            batch["event_id"].to_pylist(),
            batch["event_type"].to_pylist(),
            batch["value"].to_pylist(),
        ):
            cur = best.get(u)
            if cur is None or (t, eid) > (cur[0], cur[1]):
                best[u] = (t, eid, et, v)
        users = list(best.keys())
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "last_ts_us": pa.array([b[0] for b in best.values()], pa.int64()),
                "event_id": pa.array([b[1] for b in best.values()], pa.int64()),
                "last_event_type": pa.array([b[2] for b in best.values()], pa.string()),
                "last_value": pa.array([b[3] for b in best.values()], pa.float64()),
            }
        )

    def finish(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values(
            ["user_id", "last_ts_us", "event_id"], ascending=[True, False, False]
        ).drop_duplicates("user_id", keep="first")

    return cogroup(
        _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        "user_id",
        finish,
        {
            "user_id": pa.int64(),
            "last_ts_us": pa.int64(),
            "last_event_type": pa.string(),
            "last_value": pa.float64(),
        },
    ).sort("user_id")


def q_events_user_top_type(sf_dir: str):
    """Per-user modal event type (MODE): the two-level aggregation shape —
    count per (user, type), then argmax per user with a deterministic tie
    contract (higher count wins; ties break to the lexicographically
    smaller type).  Scale shape: per-batch (user, type)→count partials
    (the combiner bounds shuffle rows at distinct pairs per batch), ONE
    co-group on user_id where each folded block sums its pairs and picks
    the mode locally.  Output also carries the winning count (exact
    int) so the value check pins the whole distribution head."""

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for u, et in zip(batch["user_id"].to_pylist(), batch["event_type"].to_pylist()):
            c[(u, et)] += 1
        users = [k[0] for k in c]
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "event_type": pa.array([k[1] for k in c], pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    def finish(group: pd.DataFrame) -> pd.DataFrame:
        sums = group.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
        g = sums.sort_values(
            ["user_id", "n", "event_type"], ascending=[True, False, True]
        ).drop_duplicates("user_id", keep="first")
        return g.rename(columns={"event_type": "top_type", "n": "n_events"})

    return cogroup(
        _read(sf_dir, "events", ["user_id", "event_type"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        "user_id",
        finish,
        {"user_id": pa.int64(), "top_type": pa.string(), "n_events": pa.int64()},
    ).sort("user_id")


def q_event_type_cooccurrence(sf_dir: str):
    """Market-basket pair counting: for every unordered event-type pair,
    how many users did BOTH — the co-occurrence/association primitive
    (feature co-presence, tag affinity).  Scale shape: per-batch distinct
    (user, type) rows (the combiner — bounded by users×types per batch,
    not events), ONE co-group on user_id where each folded block finishes
    per-user distinct sets and pre-counts its pairs locally, then a tiny
    pair-key groupby sums blocks×C(T,2) partial rows.  Pair space is
    C(distinct_types, 2) — small by construction."""

    def partial(batch: pa.Table) -> pa.Table:
        seen = set(zip(batch["user_id"].to_pylist(), batch["event_type"].to_pylist()))
        users = [u for u, _ in seen]
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "event_type": pa.array([t for _, t in seen], pa.string()),
            }
        )

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["user_id", "event_type"])
        c: Counter = Counter()
        # kept per user: the pairs come from each user's type set, with no
        # timeline order to scan
        for _, sub in g.groupby("user_id"):
            ts = sorted(sub["event_type"].tolist())
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    c[f"{ts[i]}|{ts[j]}"] += 1
        return pd.DataFrame({"pair_key": list(c.keys()), "n": list(c.values())})

    def split(batch: pa.Table) -> pa.Table:
        keys = batch["pair_key"].to_pylist()
        parts = [k.split("|", 1) for k in keys]
        return pa.table(
            {
                "type_a": pa.array([p[0] for p in parts], pa.string()),
                "type_b": pa.array([p[1] for p in parts], pa.string()),
                "n_users": batch["n_users"],
            }
        )

    return (
        group_agg(
            cogroup(
                _read(sf_dir, "events", ["user_id", "event_type"]).map_batches(
                    partial, batch_format="pyarrow"
                ),
                "user_id",
                bucket_pairs,
                {"pair_key": pa.string(), "n": pa.int64()},
            ),
            "pair_key",
            n_users=("sum", "n"),
        )
        .map_batches(split, batch_format="pyarrow")
        .sort(["type_a", "type_b"])
    )


def q_events_value_quantile_sketch(sf_dir: str):
    """Approximate quantiles from a deterministic bottom-k (KMV) sample —
    the order-statistics sketch that completes the mergeable-sketch family
    (HLL / Misra-Gries / reservoir / Bloom).  Membership = the k rows with
    the SMALLEST md5 hash of their event_id: order-insensitive (a set, so
    any merge order yields the same sample — unlike a classic reservoir),
    mergeable (union → re-take bottom-k) and fully SQL-mirrorable, so the
    approximate answer itself is value-checked bit-for-bit.  Scale shape:
    per-batch local bottom-k partials (≤ k rows per batch, never raw
    events), one tiny sort+limit over blocks×k rows, quantile_disc
    element picks (1-based ceil(q·n)) from the k-row sample."""
    import hashlib
    import math

    K = 1024

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["value"]))
        ids = batch["event_id"].to_pylist()
        vals = batch["value"].to_pylist()
        rows = sorted(
            (
                int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8], "little"),
                i,
                v,
            )
            for i, v in zip(ids, vals)
        )[:K]
        return pa.table(
            {
                # md5 uniform is uint64; shift to signed int64 order-preserving
                "h": pa.array([r[0] - (1 << 63) for r in rows], pa.int64()),
                "event_id": pa.array([r[1] for r in rows], pa.int64()),
                "value": pa.array([r[2] for r in rows], pa.float64()),
            }
        )

    sample = (
        _read(sf_dir, "events", ["event_id", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .sort(["h", "event_id"])
        .limit(K)
        .take_all()
    )
    values = sorted(r["value"] for r in sample)
    n = len(values)
    qs = (0.5, 0.9, 0.99)
    return pa.table(
        {
            "q": pa.array(list(qs), pa.float64()),
            "sample_value": pa.array(
                [values[max(0, math.ceil(q * n) - 1)] if n else None for q in qs],
                pa.float64(),
            ),
            "n_sample": pa.array([n] * len(qs), pa.int64()),
        }
    )


def q_orders_monthly_revenue_growth(sf_dir: str):
    """Time-series aggregate with month-over-month delta (LAG over the
    AGGREGATED series, not the raw log): monthly order count + exact-cents
    revenue + delta vs the previous month.  Scale shape: one grouped sum
    of (month, cents) rows — the shuffle ships one partial per month per
    block — then the LAG runs on the driver over the
    calendar-bounded series (≤ months rows).  Money stays int64 cents
    through every sum; the one division happens at emit."""

    def month_cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_month": pc.strftime(batch["o_orderdate"], format="%Y-%m"),
                "c": pc.cast(pc.round(pc.multiply(batch["o_totalprice"], 100.0)), pa.int64()),
            }
        )

    rows = group_agg(
        _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"]).map_batches(month_cents, batch_format="pyarrow"),
        "o_month",
        n_orders=("count",),
        cents=("sum", "c"),
    ).take_all()
    rows.sort(key=lambda r: r["o_month"])
    deltas = [
        None if i == 0 else int(r["cents"]) - int(rows[i - 1]["cents"])
        for i, r in enumerate(rows)
    ]
    return pa.table(
        {
            "o_month": pa.array([r["o_month"] for r in rows], pa.string()),
            "n_orders": pa.array([int(r["n_orders"]) for r in rows], pa.int64()),
            "revenue": pa.array([int(r["cents"]) / 100.0 for r in rows], pa.float64()),
            "delta_cents": pa.array(deltas, pa.int64()),
        }
    )


def q_customer_acctbal_quartiles(sf_dir: str):
    """Equi-height binning (NTILE(4)) over (acctbal cents, custkey) with
    per-quartile exact stats — the quantile-bucketing operator behind
    'score each row by its global quartile'.  Scale shape: the same
    two-pass broadcast-prefix machinery as ``docs_global_rank``: a tiny
    value-histogram pass fixes each distinct cents value's exclusive rank
    offset (driver holds ≤ distinct-values rows; at web scale this pass
    would subsample boundary candidates), then a grouped pass ranks within
    each equal-value group by custkey and assigns NTILE buckets by rank —
    no global sort materialization.  NTILE sizes follow the SQL rule:
    first (n mod 4) buckets get ceil(n/4) rows."""
    import ray

    ds = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "cents": pc.cast(
                    pc.round(pc.multiply(batch["c_acctbal"], 100.0)), pa.int64()
                ),
            }
        )

    cents_ds = ds.map_batches(to_cents, batch_format="pyarrow")
    hist = group_agg(cents_ds, "cents", n=("count",)).take_all()
    hist.sort(key=lambda r: r["cents"])
    offsets, run = {}, 0
    for r in hist:
        offsets[r["cents"]] = run
        run += r["n"]
    n_total = run
    base, rem = divmod(n_total, 4)
    sizes = [base + 1 if i < rem else base for i in range(4)]
    boundaries = np.cumsum(sizes)  # 1-based inclusive upper rank per quartile
    off_ref = ray.put(offsets)

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # ONE call per folded block, not one per distinct cents value:
        # ranks for all cents runs in the block compute vectorized off the
        # broadcast offsets.
        off = ray.get(off_ref)
        g = group.sort_values(["cents", "c_custkey"], kind="mergesort")
        cents = g["cents"].to_numpy()
        change = np.r_[True, cents[1:] != cents[:-1]]
        run_start = np.flatnonzero(change)
        run_id = np.cumsum(change) - 1
        pos_in_run = np.arange(len(g)) - run_start[run_id]
        base = np.array([off[int(c)] for c in cents[run_start]], dtype=np.int64)
        ranks = base[run_id] + 1 + pos_in_run  # order within ties: c_custkey
        quartiles = np.searchsorted(boundaries, ranks, side="left") + 1
        return pd.DataFrame({"quartile": quartiles, "cents": cents})

    return (
        group_agg(
            cogroup(cents_ds, "cents", fold_bucket, {"quartile": pa.int64(), "cents": pa.int64()}),
            "quartile",
            n_customers=("count",),
            sum_cents=("sum", "cents"),
            min_cents=("min", "cents"),
            max_cents=("max", "cents"),
        )
        .sort("quartile")
    )


def q_events_rolling_7d_users(sf_dir: str):
    """Rolling 7-day distinct users per active day (the WAU curve) — the
    windowed COUNT(DISTINCT) that plain window functions cannot express.
    Scale shape: pass 1 collects the distinct active days (tiny,
    calendar-bounded, broadcast via ray.put); pass 2 ships per-batch
    distinct (user, day) pairs into ONE co-group on user_id — a user's
    whole day-set co-locates, so each folded block expands days to the ≤7
    present target days per (user, day), dedupes (user, target) locally
    and emits per-day partial counts; the final exchange is blocks×days
    rows.  No row replication of the raw log, no global distinct."""
    import ray

    day_us = 86_400_000_000
    ev = _read(sf_dir, "events", ["ts", "user_id"])

    def to_day(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy()
        return pa.table({"day_us": us // day_us * day_us})

    day_rows = group_agg(ev.map_batches(to_day, batch_format="pyarrow"), "day_us", n=("count",)).take_all()
    days_present = np.array(sorted(r["day_us"] for r in day_rows), dtype=np.int64)
    days_ref = ray.put(days_present)

    def pair_partial(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_pylist()
        seen = {
            (u, int(t) // day_us * day_us)
            for u, t in zip(batch["user_id"].to_pylist(), us)
        }
        users = [u for u, _ in seen]
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "day_us": pa.array([d for _, d in seen], pa.int64()),
            }
        )

    def bucket_counts(group: pd.DataFrame) -> pd.DataFrame:
        days = ray.get(days_ref)
        g = group.drop_duplicates(["user_id", "day_us"])
        covered: set = set()
        cnt: Counter = Counter()
        for u, d in zip(g["user_id"].tolist(), g["day_us"].tolist()):
            lo = int(np.searchsorted(days, d, side="left"))
            hi = int(np.searchsorted(days, d + 6 * day_us, side="right"))
            for t in days[lo:hi]:
                key = (u, int(t))
                if key not in covered:
                    covered.add(key)
                    cnt[int(t)] += 1
        return pd.DataFrame({"day_us": list(cnt.keys()), "n": list(cnt.values())})

    return (
        group_agg(
            cogroup(
                ev.map_batches(pair_partial, batch_format="pyarrow"),
                "user_id",
                bucket_counts,
                {"day_us": pa.int64(), "n": pa.int64()},
            ),
            "day_us",
            n_users_7d=("sum", "n"),
        )
        .sort("day_us")
    )


def _lev_le1(a: str, b: str) -> bool:
    """Exact Levenshtein(a,b) <= 1 without the full DP: equal, one
    substitution (same length), or one indel (length differs by 1)."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    if la > lb:
        a, b, la = b, a, lb
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def q_customer_name_editdist_pairs(sf_dir: str):
    """Fuzzy string-similarity SELF-JOIN (Levenshtein <= 1) via
    deletion-neighborhood blocking (FastSS): every distinct name emits
    itself plus its L one-deletion variants as blocking keys; any pair
    within edit distance 1 provably shares at least one key (equal →
    identity key, substitution → same-position deletions collide, indel →
    the longer side's deletion hits the shorter's identity), so the join
    never compares strings outside a shared block.  Scale shape: the
    variant rows (L+1 per name, tens of bytes each) are the only
    replication; blocks co-group on the variant key in ONE exchange, each
    fold verifies its blocks' candidate pairs with the exact O(L) check,
    and a tiny co-group on the pair key removes cross-block repeats.  The
    oracle is DuckDB's own ``levenshtein`` over the full cross join —
    the blocked join must reproduce it exactly."""
    def variants(batch: pa.Table) -> pa.Table:
        out_v: list[str] = []
        out_n: list[str] = []
        for s in set(batch["c_name"].to_pylist()):
            if s is None:
                continue
            for v in {s} | {s[:i] + s[i + 1 :] for i in range(len(s))}:
                out_v.append(v)
                out_n.append(s)
        return pa.table(
            {
                "vkey": pa.array(out_v, pa.string()),
                "c_name": pa.array(out_n, pa.string()),
            }
        )

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        pairs: set[tuple[str, str]] = set()
        for _, sub in group.groupby("vkey"):
            names = sorted(set(sub["c_name"]))
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    a, b = names[i], names[j]
                    if (a, b) not in pairs and _lev_le1(a, b):
                        pairs.add((a, b))
        ordered = sorted(pairs)
        return pd.DataFrame(
            {
                "pair_key": [f"{a}|{b}" for a, b in ordered],
                "name_a": [a for a, _ in ordered],
                "name_b": [b for _, b in ordered],
            }
        )

    def dedup_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # cross-block repeats of a pair meet in one folded block
        return group.drop_duplicates("pair_key")

    pairs = cogroup(
        _read(sf_dir, "customer", ["c_name"]).map_batches(variants, batch_format="pyarrow"),
        "vkey",
        bucket_pairs,
        {"pair_key": pa.string(), "name_a": pa.string(), "name_b": pa.string()},
    )
    return cogroup(
        pairs,
        "pair_key",
        dedup_bucket,
        {"name_a": pa.string(), "name_b": pa.string()},
    ).sort(["name_a", "name_b"])


def q_important_parts(sf_dir: str):
    """TPC-H-Q11-shaped "important stock" (grouped HAVING vs a global
    scalar subquery): parts whose lineitem value exceeds 1.05× the mean
    per-part value (mean-relative, so the predicate is non-degenerate at
    every scale — Q11's fixed fraction must itself be rescaled by SF).
    Scale shape: integer units (price-cents × integral qty) per row, ONE
    grouped sum (its per-block partials collapse lineitem to ≤ one row per
    partkey per block); the grouped per-part table is bounded by |part|
    (dimension-sized) so it materializes once, the total AND the group
    count fold from it as one tiny aggregate (no second fact scan), and
    the threshold compare stays integer-exact
    (units × n_parts × 20 > 21 × total — no division; int64 headroom
    documented: overflows only past ~4e14 part-dollars × |part|).  The
    surfaced value column is one final exact /100.0, bit-identical to the
    SQL mirror."""
    from ray.data.aggregate import Sum

    def to_units(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(batch["l_extendedprice"], 100.0)), pa.int64())
        qty = pc.cast(pc.round(batch["l_quantity"]), pa.int64())
        return pa.table({"l_partkey": batch["l_partkey"], "units": pc.multiply(cents, qty)})

    per_part = group_agg(
        _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_quantity"])
        .map_batches(to_units, batch_format="pyarrow"),
        "l_partkey",
        units=("sum", "units"),
    ).materialize()  # bounded by |part|; reused for the total AND the filter
    from ray.data.aggregate import Count

    scal = per_part.aggregate(Sum("units", alias_name="t"), Count(alias_name="n"))
    if not scal or scal["t"] is None:  # empty lineitem → empty result, typed
        return pa.table(
            {"l_partkey": pa.array([], pa.int64()), "value": pa.array([], pa.float64())}
        )
    total, n_parts = int(scal["t"]), int(scal["n"])

    def finish(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater(pc.multiply(batch["units"], n_parts * 20), total * 21)
        )
        return pa.table(
            {
                "l_partkey": batch["l_partkey"],
                "value": pc.divide(pc.cast(batch["units"], pa.float64()), 100.0),
            }
        )

    return per_part.map_batches(finish, batch_format="pyarrow").sort("l_partkey")


def q_top_revenue_suppliers(sf_dir: str):
    """TPC-H-Q15-shaped argmax-equality: the supplier(s) whose 1996-Q1
    shipped revenue equals the global maximum.  Scale shape: lineitem
    rows become integer units, ONE grouped sum
    produces the |supplier|-bounded revenue table (materialized once), the
    max folds from it as a tiny aggregate, and the equality filter plus the
    broadcast supplier-name lookup finish map-side.  Ties surface every
    argmax row, exactly as the SQL mirror's ``= (SELECT max(..))`` does."""
    import ray
    from ray.data.aggregate import Max

    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"), pa.timestamp("us"))

    names_ref = ray.put(_broadcast_dim(sf_dir, "supplier", "s_suppkey", "s_name"))

    def to_units(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(pc.greater_equal(batch["l_shipdate"], lo), pc.less(batch["l_shipdate"], hi))
        )
        units = _money_units(batch["l_extendedprice"], batch["l_discount"])
        return pa.table({"s_suppkey": batch["l_suppkey"], "units": pc.cast(units, pa.int64())})

    per_supp = group_agg(
        _read(sf_dir, "lineitem", ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"])
        .map_batches(to_units, batch_format="pyarrow"),
        "s_suppkey",
        units=("sum", "units"),
    ).materialize()  # bounded by |supplier|
    best_agg = per_supp.aggregate(Max("units", alias_name="m"))
    if not best_agg or best_agg["m"] is None:  # empty window → empty, typed
        return pa.table(
            {
                "s_suppkey": pa.array([], pa.int64()),
                "s_name": pa.array([], pa.string()),
                "total_revenue": pa.array([], pa.float64()),
            }
        )
    best = int(best_agg["m"])

    def finish(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["units"], best))
        lookup = ray.get(names_ref)
        # inner-join semantics with the dimension (mirror the oracle): rows
        # whose suppkey has no supplier row are dropped, not null-named
        keys = [k for k in batch["s_suppkey"].to_pylist() if k in lookup]
        units = [
            u
            for k, u in zip(batch["s_suppkey"].to_pylist(), batch["units"].to_pylist())
            if k in lookup
        ]
        return pa.table(
            {
                "s_suppkey": pa.array(keys, pa.int64()),
                "s_name": pa.array([lookup[k] for k in keys], pa.string()),
                "total_revenue": pa.array([u / 10000.0 for u in units], pa.float64()),
            }
        )

    return per_supp.map_batches(finish, batch_format="pyarrow").sort("s_suppkey")


def q_part_supplier_variety(sf_dir: str):
    """TPC-H-Q16-shaped supplier variety: exact COUNT(DISTINCT supplier)
    per part brand over the lineitem fact, excluding one brand (the
    NOT-IN side).  Scale shape: the part dimension broadcasts once
    (partkey→brand via ``ray.put``) so lineitem never ships raw rows —
    each batch emits only its DISTINCT (brand, suppkey) pairs; the pair
    set (≤ |brand|×|supplier| corpus-wide) co-groups on the pair in ONE
    exchange where each folded block dedups its pairs and emits per-brand
    partial counts (every pair lands in exactly one block, so partials
    never double-count), and a final tiny grouped sum
    yields the exact distinct count."""
    import ray

    brand_ref = ray.put(_broadcast_dim(sf_dir, "part", "p_partkey", "p_brand"))

    def pairs(batch: pa.Table) -> pa.Table:
        lookup = ray.get(brand_ref)
        seen = set()
        for p, s in zip(batch["l_partkey"].to_pylist(), batch["l_suppkey"].to_pylist()):
            b = lookup.get(p)
            if b is not None and b != "Brand#13":
                seen.add((b, s))
        items = sorted(seen)
        return pa.table(
            {
                "p_brand": pa.array([b for b, _ in items], pa.string()),
                "l_suppkey": pa.array([s for _, s in items], pa.int64()),
            }
        )

    def bucket_counts(group: pd.DataFrame) -> pd.DataFrame:
        d = group.drop_duplicates(["p_brand", "l_suppkey"])
        agg = d.groupby("p_brand").size()
        return pd.DataFrame({"p_brand": agg.index, "n_p": agg.to_numpy()})

    return (
        group_agg(
            cogroup(
                _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).map_batches(
                    pairs, batch_format="pyarrow"
                ),
                ["p_brand", "l_suppkey"],
                bucket_counts,
                {"p_brand": pa.string(), "n_p": pa.int64()},
            ),
            "p_brand",
            supplier_cnt=("sum", "n_p"),
        )
        .sort("p_brand")
    )


def q_large_volume_customers(sf_dir: str):
    """TPC-H-Q18-shaped large-volume-order report: orders whose total
    lineitem quantity exceeds 250, with the ordering customer's name (the
    grouped-HAVING → join shape).  Scale shape: lineitem collapses to
    per-order integer qty partials per batch; the ONLY exchange is one
    co-group on the orderkey of those partials with the narrow orders
    projection, where each folded block finishes the per-order sums and
    applies the HAVING filter so only qualifying rows (~1 per 1000 orders
    here) leave the fold; the customer name attaches from a broadcast dimension lookup
    map-side."""
    import ray

    names_ref = ray.put(_broadcast_dim(sf_dir, "customer", "c_custkey", "c_name"))

    def line_partial(batch: pa.Table) -> pa.Table:
        qty = pc.cast(pc.round(batch["l_quantity"]), pa.int64())
        c: Counter = Counter()
        for k, q in zip(batch["l_orderkey"].to_pylist(), qty.to_pylist()):
            c[k] += q
        return pa.table(
            {
                "okey": pa.array(list(c.keys()), pa.int64()),
                "qty": pa.array(list(c.values()), pa.int64()),
            }
        )

    def order_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "okey": batch["o_orderkey"],
                "o_custkey": batch["o_custkey"],
                "o_orderdate": pc.strftime(batch["o_orderdate"], format="%Y-%m-%d"),
            }
        )

    def bucket_join(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame | None:
        if dims.empty or facts.empty:
            return None
        sums = facts.groupby("okey", as_index=False)["qty"].sum()
        sums = sums[sums["qty"] > 250]
        merged = sums.merge(dims, on="okey", how="inner")
        return merged.rename(
            columns={"okey": "o_orderkey", "o_custkey": "c_custkey", "qty": "total_qty"}
        )

    def attach_names(batch: pa.Table) -> pa.Table:
        lookup = ray.get(names_ref)
        # inner-join semantics with the dimension (mirror the oracle): an
        # order whose custkey has no customer row is dropped, not null-named
        mask = pa.array([k in lookup for k in batch["c_custkey"].to_pylist()], pa.bool_())
        batch = batch.filter(mask)
        return pa.table(
            {
                "c_name": pa.array(
                    [lookup[k] for k in batch["c_custkey"].to_pylist()], pa.string()
                ),
                "c_custkey": batch["c_custkey"],
                "o_orderkey": batch["o_orderkey"],
                "o_orderdate": batch["o_orderdate"],
                "total_qty": batch["total_qty"],
            }
        )

    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        line_partial, batch_format="pyarrow"
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        order_rows, batch_format="pyarrow"
    )
    return (
        cogroup(
            [line, orders],
            "okey",
            bucket_join,
            {
                "o_orderkey": pa.int64(),
                "c_custkey": pa.int64(),
                "o_orderdate": pa.string(),
                "total_qty": pa.int64(),
            },
        )
        .map_batches(attach_names, batch_format="pyarrow")
        .sort(["total_qty", "o_orderkey"], descending=[True, False])
    )


def q_wealthy_inactive_customers(sf_dir: str):
    """TPC-H-Q22-shaped composite: customers with above-average positive
    account balance and no HIGH-VALUE order (price > 300k), aggregated per
    nation (scalar-avg subquery + anti-join + group).  Scale shape: the average threshold is
    two exact int64 scalars (positive-balance cent sum + count) from one
    grouped-free aggregate, applied map-side as the integer-exact compare
    ``cents × n_pos > sum_cents`` (no float division anywhere); the
    anti-join reuses the Bloom split from ``customers_without_orders`` —
    definite-miss rows fold into per-nation partials without shuffling,
    only Bloom "maybe" rows co-group with the distinct order custkeys for
    the exact verify; a final tiny grouped sum yields per-nation count and
    balance total (cents → one exact /100.0)."""
    import ray
    from ray.data.aggregate import Count, Sum

    from ..functions.sketches import build_bloom

    customers = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def pos_cents(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch["c_acctbal"], 0.0))
        return pa.table(
            {"cents": pc.cast(pc.round(pc.multiply(batch["c_acctbal"], 100.0)), pa.int64())}
        )

    scal = customers.map_batches(pos_cents, batch_format="pyarrow").aggregate(
        Sum("cents", alias_name="s"), Count(alias_name="n")
    )
    # Dataset.aggregate returns None on an empty pipeline (no positive rows)
    sum_cents = int(scal["s"]) if scal and scal["s"] is not None else 0
    n_pos = int(scal["n"]) if scal else 0

    # anti-join side = HIGH-VALUE orders (price > 300k): keeps the result
    # non-degenerate at every test SF while preserving the Q22 plan shape
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 300000.0)).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    bloom = build_bloom(orders, "o_custkey")
    bloom_ref = ray.put(bloom)

    def split_customers(batch: pa.Table) -> pa.Table:
        """Above-threshold rows split by the Bloom: definite misses fold to
        per-nation (count, cent-sum) partial rows (key −1, passed through
        by the fold); maybes ship (key, nation, cents) for the exact verify."""
        b = ray.get(bloom_ref)
        cents_all = pc.cast(pc.round(pc.multiply(batch["c_acctbal"], 100.0)), pa.int64())
        mask = pc.greater(pc.multiply(cents_all, n_pos), sum_cents)
        batch = batch.append_column("cents", cents_all).filter(mask)
        keys = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        nations = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = batch["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        maybe = b.contains_many(keys.tolist())
        # maybes ship as keyed rows; definite misses fold to per-nation
        # (count, cent-sum) partials — all via numpy masks + one np.unique
        # inverse-index bincount, no per-row Python loop
        hit_k, hit_n, hit_c = keys[maybe], nations[maybe], cents[maybe]
        miss_nat, inv = np.unique(nations[~maybe], return_inverse=True)
        miss_n = np.bincount(inv, minlength=miss_nat.size).astype(np.int64)
        # exact int64 cent sums (bincount's float64 weights would round past
        # 2^53): scatter-add into an int64 accumulator
        miss_c = np.zeros(miss_nat.size, np.int64)
        np.add.at(miss_c, inv, cents[~maybe])
        nm = miss_nat.size
        return pa.table(
            {
                "key": pa.array(
                    np.concatenate([hit_k, np.full(nm, -1, np.int64)]), pa.int64()
                ),
                "c_nationkey": pa.array(np.concatenate([hit_n, miss_nat]), pa.int64()),
                "n_p": pa.array(
                    np.concatenate([np.zeros(hit_k.size, np.int64), miss_n]), pa.int64()
                ),
                "cents_p": pa.array(
                    np.concatenate([hit_c, miss_c]), pa.int64()
                ),
            }
        )

    def order_keys(batch: pa.Table) -> pa.Table:
        return pa.table({"key": pc.unique(batch["o_custkey"])})

    def anti(orders: pd.DataFrame, custs: pd.DataFrame) -> pd.DataFrame | None:
        if custs.empty:
            return None
        pre = custs["key"] == -1
        survivors = custs.loc[~pre & ~custs["key"].isin(orders["key"])]
        sub = pd.concat([custs.loc[pre], survivors.assign(n_p=1)])
        return sub.groupby("c_nationkey", as_index=False).agg(
            n_p=("n_p", "sum"), cents_p=("cents_p", "sum")
        )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_nationkey": batch["c_nationkey"],
                "numcust": batch["numcust"],
                "totacctbal": pc.divide(pc.cast(batch["cents"], pa.float64()), 100.0),
            }
        )

    return (
        group_agg(
            cogroup(
                [
                    orders.map_batches(order_keys, batch_format="pyarrow"),
                    customers.map_batches(split_customers, batch_format="pyarrow"),
                ],
                "key",
                anti,
                {"c_nationkey": pa.int64(), "n_p": pa.int64(), "cents_p": pa.int64()},
            ),
            "c_nationkey",
            numcust=("sum", "n_p"),
            cents=("sum", "cents_p"),
        )
        .map_batches(finish, batch_format="pyarrow")
        .sort("c_nationkey")
    )


def q_url_canonical_dedup(sf_dir: str):
    """URL-canonicalization dedup (the first dedup stage of every
    Common-Crawl-style pipeline): each document deterministically yields a
    MESSY crawl URL — odd doc_ids re-crawl the even sibling's page under a
    different surface form (scheme/host case, ``www.``, explicit ``:443``,
    reordered query params, ``utm_``/``fbclid`` tracking junk, fragment) —
    the ``canonicalize_url`` kernel normalizes them, and an exact grouped
    count per canonical URL exposes the duplicate groups.  The oracle
    predicts the canonical form from first principles in SQL, so every
    kernel rule (case, port, www, param sort/strip, fragment) is
    value-checked, not regression-pinned.  Scale shape: construction +
    canonicalization are stateless map-side work; the ONE exchange is the
    grouped count / min-id per canonical URL."""
    from ..kernels.urlnorm import canonicalize_url

    def crawl_url(d: int, s: str) -> str:
        base = d // 2
        if d % 2 == 0:
            return f"https://crawl.example.org/doc/{base}?a=1&b={base % 7}"
        # the odd sibling re-crawls the SAME page with every messy surface
        # difference the canonicalizer must erase (source rides in a
        # tracking param, which must be dropped)
        return f"HTTPS://WWW.CRAWL.EXAMPLE.ORG:443/doc/{base}?b={base % 7}&utm_source={s}&a=1&fbclid=xyz#frag"

    def canon(batch: pa.Table) -> pa.Table:
        urls = [
            canonicalize_url(crawl_url(d, s))
            for d, s in zip(batch["doc_id"].to_pylist(), batch["source"].to_pylist())
        ]
        return pa.table({"canonical_url": pa.array(urls, pa.string()), "doc_id": batch["doc_id"]})

    return group_agg(
        _read(sf_dir, "documents", ["doc_id", "source"]).map_batches(canon, batch_format="pyarrow"),
        "canonical_url",
        n_urls=("count",),
        min_doc_id=("min", "doc_id"),
    ).sort("canonical_url")


def q_bm25_top20(sf_dir: str):
    """Okapi BM25 ranking (k1=1.2, b=0.75, Lucene idf) of every document
    against the fixed 3-term query {spark, merge, window}, top-20.  The IR
    companion to TF-IDF: same broadcast-statistics shape, but with document
    -length normalization and saturating term frequency.

    Scale shape: pass 1 folds (N, total words, per-term df) from per-batch
    partial rows into one tiny aggregate — three broadcast scalars + a
    3-entry idf map; pass 2 scores each doc statelessly and keeps only a
    per-batch local top-20 before the final tiny sort, so the corpus never
    shuffles.  Float contract: the oracle evaluates the IDENTICAL
    expression tree (same associativity, ln-based idf) and both sides
    round to 6dp (term-order divergence ~1e-15 relative, far inside the
    grid); ties break by doc_id.  Tokenization is single-space split on
    both engines (``text.split(" ")`` ≡ ``string_split(text, ' ')``)."""
    import math

    from ray.data.aggregate import Sum

    K1, B = 1.2, 0.75
    TERMS = ("spark", "merge", "window")

    def stat_partials(batch: pa.Table) -> pa.Table:
        nd, nw = 0, 0
        dfs = [0, 0, 0]
        for text in batch["text"].to_pylist():
            words = (text or "").split(" ")
            nd += 1
            nw += len(words)
            ws = set(words)
            for i, t in enumerate(TERMS):
                if t in ws:
                    dfs[i] += 1
        return pa.table(
            {
                "nd": pa.array([nd], pa.int64()),
                "nw": pa.array([nw], pa.int64()),
                "df0": pa.array([dfs[0]], pa.int64()),
                "df1": pa.array([dfs[1]], pa.int64()),
                "df2": pa.array([dfs[2]], pa.int64()),
            }
        )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    agg = docs.map_batches(stat_partials, batch_format="pyarrow").aggregate(
        Sum("nd", alias_name="nd"),
        Sum("nw", alias_name="nw"),
        Sum("df0", alias_name="df0"),
        Sum("df1", alias_name="df1"),
        Sum("df2", alias_name="df2"),
    )
    if not agg or not agg["nd"]:  # empty corpus → empty result, typed
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "bm25": pa.array([], pa.float64())}
        )
    n_docs = int(agg["nd"])
    avgdl = float(agg["nw"]) / n_docs
    idf = [
        math.log(1.0 + (n_docs - int(agg[f"df{i}"]) + 0.5) / (int(agg[f"df{i}"]) + 0.5))
        for i in range(3)
    ]

    def score_topk(batch: pa.Table) -> pa.Table:
        rows = []
        for d, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            words = (text or "").split(" ")
            dl = len(words)
            denom = K1 * (1.0 - B + B * dl / avgdl)
            score = 0.0
            for i, t in enumerate(TERMS):
                tf = words.count(t)
                score += idf[i] * (tf * (K1 + 1.0)) / (tf + denom)
            rows.append((round(score, 6), d))
        rows.sort(key=lambda r: (-r[0], r[1]))
        rows = rows[:20]
        return pa.table(
            {
                "doc_id": pa.array([r[1] for r in rows], pa.int64()),
                "bm25": pa.array([r[0] for r in rows], pa.float64()),
            }
        )

    def final_topk(batch: pa.Table) -> pa.Table:
        order = sorted(
            zip(batch["bm25"].to_pylist(), batch["doc_id"].to_pylist()),
            key=lambda r: (-r[0], r[1]),
        )[:20]
        return pa.table(
            {
                "doc_id": pa.array([d for _, d in order], pa.int64()),
                "bm25": pa.array([s for s, _ in order], pa.float64()),
            }
        )

    return (
        docs.map_batches(score_topk, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final_topk, batch_format="pyarrow")
    )


def q_dsir_importance_weights(sf_dir: str):
    """DSIR-style importance weighting (Xie et al. 2023): per-document
    log importance ratio ln(p_target/p_raw) under two add-one char-trigram
    LMs — target trained on the in-domain slice (lang='en'), raw on the
    whole corpus.  The selection signal behind importance resampling for
    pre-training data; upstream of any top-k/temperature pick.

    Scale shape: both models train through the existing one-grouped-sum
    ``trigram_model`` path (table bounded by charset³, NOT corpus size) and
    broadcast once via ``ray.put``; scoring is a stateless scan.  For
    CJK/web-scale charsets, ``finish_trigram_model(min_count=m)`` bounds
    both tables by N/m with the truncation recorded (the knob
    ``trigram_lm_nll_pruned`` exercises oracle-checked).  Float
    contract: per-position term order, both engines round the mean log
    ratio to 6dp (unordered-SUM divergence ~1e-11, inside the grid).
    Unseen-in-target trigrams take the add-one floor ln(1/(N_t+V_t));
    every scored trigram exists in the raw model by construction."""
    import math

    import ray

    from ..functions.corpusops import finish_trigram_model

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def both_partial(batch: pa.Table) -> pa.Table:
        # fused training pass: ONE corpus scan counts the raw model ('_r',
        # every doc) and the target model ('_t', in-domain docs) together —
        # halves the scan+shuffle vs training the two models separately
        c: Counter = Counter()
        for lang, text in zip(batch["lang"].to_pylist(), batch["text"].to_pylist()):
            t = text or ""
            is_t = lang == "en"
            for i in range(len(t) - 2):
                tri = t[i : i + 3]
                c[("_r", tri)] += 1
                if is_t:
                    c[("_t", tri)] += 1
        keys = list(c.keys())
        return pa.table(
            {
                "lang": pa.array([k[0] for k in keys], pa.string()),
                "tri": pa.array([k[1] for k in keys], pa.string()),
                "n": pa.array([c[k] for k in keys], pa.int64()),
            }
        )

    rows = (
        group_agg(docs.map_batches(both_partial, batch_format="pyarrow"), ["lang", "tri"], c=("sum", "n"))
        .take_all()
    )
    lp, den = finish_trigram_model(rows)
    lp_t = lp_r = lp
    den_t, den_r = den, den
    if "_t" not in den_t or "_r" not in den_r:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_tri": pa.array([], pa.int64()),
                "log_weight": pa.array([], pa.float64()),
            }
        )
    model_ref = ray.put((lp_t, sum(den_t["_t"]), lp_r, sum(den_r["_r"])))

    def _delta_model(ref) -> tuple[dict, float]:
        """Per-worker flattened Δ-model cache: one plain tri→(lp_t−lp_r)
        dict replaces two tuple-keyed lookups per character position.  Each
        per-trigram Δ is the SAME subtraction the two-lookup loop performed,
        applied in the same position order, so the document sum is
        bit-identical.  Built once per worker process (module-level
        _WORKER_CACHE — task-closure state would be re-deserialized and
        rebuilt per task)."""
        ck = ("dsir_delta", ref.hex())
        hit = _WORKER_CACHE.get(ck)
        if hit is not None:
            return hit
        lt, dt, lr, dr = ray.get(ref)
        floor_t = math.log(1.0 / float(dt))
        floor_r = math.log(1.0 / float(dr))
        delta = {
            tri: lt.get(("_t", tri), floor_t) - lpr
            for (tag, tri), lpr in lr.items()
            if tag == "_r"
        }
        out = (delta, floor_t - floor_r)
        _WORKER_CACHE.clear()  # one broadcast generation at a time per worker
        _WORKER_CACHE[ck] = out
        return out

    def score(batch: pa.Table) -> pa.Table:
        delta, floor_diff = _delta_model(model_ref)
        dget = delta.get
        ids, ntris, ws = [], [], []
        for key, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            t = text or ""
            n = len(t) - 2
            if n <= 0:
                continue
            s = 0.0
            for i in range(n):
                # every corpus trigram exists in the raw model by
                # construction; floor_diff is an unreachable safety default
                s += dget(t[i : i + 3], floor_diff)
            ids.append(key)
            ntris.append(n)
            ws.append(round(s / n, 6))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tri": pa.array(ntris, pa.int64()),
                "log_weight": pa.array(ws, pa.float64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def q_doc_char_entropy(sf_dir: str):
    """Per-document character-distribution Shannon entropy (nats) — the
    classic gibberish/repetition filter signal: near-zero entropy flags
    single-character spam, unusually high entropy flags binary-ish noise.
    Embarrassingly parallel (stateless per-doc scan, zero shuffles).
    Float contract: term = -(c/n)·ln(c/n) per distinct char, summed in
    char-sorted order on the Ray side vs unordered SQL SUM (divergence
    ~1e-14, far inside the shared 6dp rounding grid).  Empty/null texts
    are excluded on both engines."""
    import math

    def entropy(batch: pa.Table) -> pa.Table:
        ids, lens, ents = [], [], []
        for d, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            t = text or ""
            n = len(t)
            if n == 0:
                continue
            h = 0.0
            for _ch, c in sorted(Counter(t).items()):
                p = c / n
                h += -(p) * math.log(p)
            ids.append(d)
            lens.append(n)
            ents.append(round(h, 6))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars": pa.array(lens, pa.int64()),
                "entropy": pa.array(ents, pa.float64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        entropy, batch_format="pyarrow"
    )


def q_weighted_sample_top50(sf_dir: str):
    """Distributed weighted sampling WITHOUT replacement (Efraimidis–
    Spirakis A-ES): each row draws the deterministic md5 uniform u and
    keeps key = −ln(u)/w (weight w = n_chars); the global bottom-k by key
    IS a weighted sample without replacement — and because the key is a
    pure row function, the sample is mergeable and reproducible across any
    partitioning.  Scale shape: stateless key computation + per-batch
    local bottom-50 prune, then one tiny final merge — the corpus never
    shuffles.  Float contract: u is bit-identical to DuckDB's
    ``md5_number_upper/2^64``, keys round to 6dp on both engines and rank
    ties break by doc_id, so selection and order are value-checkable.
    Zero-weight rows are excluded (A-ES precondition w > 0)."""
    import math

    from ..functions.corpusops import md5_uniform

    def keys_topk(batch: pa.Table) -> pa.Table:
        rows = []
        for d, w in zip(batch["doc_id"].to_pylist(), batch["n_chars"].to_pylist()):
            if not w or w <= 0:
                continue
            rows.append((round(-math.log(md5_uniform(d)) / w, 6), d, int(w)))
        rows.sort()
        rows = rows[:50]
        return pa.table(
            {
                "doc_id": pa.array([r[1] for r in rows], pa.int64()),
                "n_chars": pa.array([r[2] for r in rows], pa.int64()),
                "es_key": pa.array([r[0] for r in rows], pa.float64()),
            }
        )

    def final_topk(batch: pa.Table) -> pa.Table:
        order = sorted(
            zip(
                batch["es_key"].to_pylist(),
                batch["doc_id"].to_pylist(),
                batch["n_chars"].to_pylist(),
            )
        )[:50]
        return pa.table(
            {
                "doc_id": pa.array([d for _, d, _ in order], pa.int64()),
                "n_chars": pa.array([w for _, _, w in order], pa.int64()),
                "es_key": pa.array([k for k, _, _ in order], pa.float64()),
            }
        )

    return (
        _read(sf_dir, "documents", ["doc_id", "n_chars"])
        .map_batches(keys_topk, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final_topk, batch_format="pyarrow")
    )


def q_doc_percent_rank(sf_dir: str):
    """PERCENT_RANK() over the whole corpus per language WITHOUT a global
    sort: the per-language length histogram (bounded by distinct values,
    not rows) merges in one grouped sum, broadcasts with exclusive
    cumulative counts, and each doc looks up rank = count(shorter)/(n−1)
    map-side.  Exact — one int/int IEEE division per row, bit-identical to
    the SQL window function; single-row groups define pr = 0."""
    import ray

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    hist_rows = group_agg(docs, ["lang", "n_chars"], c=("count",)).take_all()
    below: dict[str, dict[int, int]] = {}
    totals: dict[str, int] = {}
    by_lang: dict[str, list[tuple[int, int]]] = {}
    for r in hist_rows:
        by_lang.setdefault(r["lang"], []).append((int(r["n_chars"]), int(r["c"])))
    for lang, vals in by_lang.items():
        vals.sort()
        cum = 0
        below[lang] = {}
        for v, c in vals:
            below[lang][v] = cum
            cum += c
        totals[lang] = cum
    lut_ref = ray.put((below, totals))

    def rank(batch: pa.Table) -> pa.Table:
        b, n = ray.get(lut_ref)
        prs = []
        for lang, v in zip(batch["lang"].to_pylist(), batch["n_chars"].to_pylist()):
            total = n[lang]
            prs.append(0.0 if total <= 1 else b[lang][int(v)] / (total - 1))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "n_chars": batch["n_chars"],
                "pr": pa.array(prs, pa.float64()),
            }
        )

    return docs.map_batches(rank, batch_format="pyarrow")


def q_knn_mmr_rerank(sf_dir: str):
    """Maximal Marginal Relevance diversity re-ranking: per query, take the
    distributed exact top-20 cosine candidates, then greedily select 5 by
    MMR (λ=0.5): argmax of λ·sim(q,d) − (1−λ)·max_{s∈S} sim(d,s), ties by
    vec_id.  The retrieval+diversify pattern behind dedup-aware RAG and
    diverse exemplar selection.

    Scale shape: the heavy part — candidate generation — is the existing
    distributed brute-force top-k scan (broadcast query matrix, per-batch
    matmul, tree merge); the rerank itself is O(k²) on ≤20 rows per query
    and runs driver-side by design.  Float contract: both engines compute
    cosines in double (numpy vs DuckDB ``list_cosine_similarity`` over
    ``::DOUBLE[]`` agree to ~1e-17) and every greedy argmax compares the
    6dp-rounded MMR score, so selection is value-checkable; the output
    carries only integers (query_id, rank, vec_id)."""
    import ray.data as rd

    from ..functions.simsearch import knn_bruteforce

    queries = _embedding_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pool_rows = knn_bruteforce(ds, queries, k=20).take_all()  # ≤60 rows
    cand_ids = sorted({r["vec_id"] for r in pool_rows})
    vec_rows = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filter=pc.field("vec_id").isin(cand_ids),
    ).take_all()
    vecs = {r["vec_id"]: np.asarray(r["embedding"], dtype=np.float64) for r in vec_rows}

    def cos(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    out_q, out_rank, out_id = [], [], []
    for qi in range(len(queries)):
        qv = queries[qi]
        pool = sorted(r["vec_id"] for r in pool_rows if r["query_id"] == qi)
        rel = {d: cos(qv, vecs[d]) for d in pool}
        selected: list[int] = []
        while len(selected) < 5 and len(selected) < len(pool):
            best = None
            for d in pool:
                if d in selected:
                    continue
                if selected:
                    mmr = round(
                        0.5 * rel[d] - 0.5 * max(cos(vecs[d], vecs[s]) for s in selected), 6
                    )
                else:
                    mmr = round(rel[d], 6)
                key = (-mmr, d)
                if best is None or key < best[0]:
                    best = (key, d)
            selected.append(best[1])
        for rank, d in enumerate(selected, start=1):
            out_q.append(qi)
            out_rank.append(rank)
            out_id.append(d)
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_rank, pa.int64()),
            "vec_id": pa.array(out_id, pa.int64()),
        }
    )


def q_nation_customer_supplier_outer(sf_dir: str):
    """FULL OUTER JOIN (the one join type the suite hadn't exercised):
    per-nation customer count vs supplier count, keeping nations present
    on EITHER side (at small SF the 10-row supplier table leaves real
    one-sided rows).  Scale shape: both inputs collapse to per-nation
    partial counts map-side (the shuffle ships ≤ |nation| rows per batch),
    the two tiny grouped results union with a side marker, and ONE grouped
    merge applies the outer semantics (COALESCE-to-0 on the absent side).
    """

    def side_partial(col: str, side: str):
        def f(batch: pa.Table) -> pa.Table:
            c = Counter(int(v) for v in batch[col].to_pylist())
            n = len(c)
            return pa.table(
                {
                    "nationkey": pa.array(list(c.keys()), pa.int64()),
                    "n_customers": pa.array(
                        list(c.values()) if side == "c" else [0] * n, pa.int64()
                    ),
                    "n_suppliers": pa.array(
                        list(c.values()) if side == "s" else [0] * n, pa.int64()
                    ),
                }
            )

        return f

    cust = _read(sf_dir, "customer", ["c_nationkey"]).map_batches(
        side_partial("c_nationkey", "c"), batch_format="pyarrow"
    )
    supp = _read(sf_dir, "supplier", ["s_nationkey"]).map_batches(
        side_partial("s_nationkey", "s"), batch_format="pyarrow"
    )
    return (
        group_agg(
            [cust, supp],
            "nationkey",
            n_customers=("sum", "n_customers"),
            n_suppliers=("sum", "n_suppliers"),
        )
        .sort("nationkey")
    )


def q_events_value_winsor_bounds(sf_dir: str):
    """Winsorization bounds + clip counts per event type: exact discrete
    p05/p95 elements (bit-identical doubles picked from the data via the
    cumulative-histogram ``quantile_disc`` convention) and the number of
    rows a clip at those bounds would touch on each side.  The robust-stats
    companion to the MAD outlier query; no float aggregate anywhere — the
    output is two stored doubles + three exact counts.  Scale shape:
    per-batch (type, value) partial counts, one grouped merge."""
    import math

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["value"]))
        c = Counter(zip(batch["event_type"].to_pylist(), batch["value"].to_pylist()))
        return pa.table(
            {
                "event_type": pa.array([k[0] for k in c], pa.string()),
                "value": pa.array([k[1] for k in c], pa.float64()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    def winsor(group: pd.DataFrame) -> pd.DataFrame:
        merged = group.groupby("value", as_index=False)["n"].sum().sort_values("value")
        counts = merged["n"].to_numpy()
        values = merged["value"].to_numpy()
        cum = counts.cumsum()
        total = int(cum[-1])

        def disc(q: float) -> float:
            target = math.ceil(q * total)
            return float(values[int((cum >= target).argmax())])

        lo, hi = disc(0.05), disc(0.95)
        n_below = int(counts[values < lo].sum())
        n_above = int(counts[values > hi].sum())
        return pd.DataFrame(
            {
                "event_type": [group["event_type"].iloc[0]],
                "n_events": [total],
                "p05": [lo],
                "p95": [hi],
                "n_below": [n_below],
                "n_above": [n_above],
            }
        )

    return cogroup(
        _read(sf_dir, "events", ["event_type", "value"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        "event_type",
        each_key("event_type", winsor),
        {
            "event_type": pa.string(),
            "n_events": pa.int64(),
            "p05": pa.float64(),
            "p95": pa.float64(),
            "n_below": pa.int64(),
            "n_above": pa.int64(),
        },
    )


def q_events_type_transitions(sf_dir: str):
    """First-order Markov transition counts over per-user event streams:
    how often does event type A immediately precede type B for the same
    user (the transition-matrix estimate behind next-event prediction and
    behavioral clustering).  Scale shape: the sessionization partitioning
    contract — user timelines co-locate via ONE co-group on user_id of
    narrow (us, event_id, type) rows; each folded block sorts once and folds
    its transitions to per-(from, to) partial counts, and a final tiny
    grouped sum merges them.  Order contract: (ts, event_id) — a TOTAL
    order, so the transition sequence is identical on both engines even
    under timestamp ties."""

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        return _bigram_counts(group).rename(columns={"cur": "from_type", "nxt": "to_type", "n": "n_p"})

    return (
        group_agg(
            cogroup(
                _events(sf_dir, ["event_id", "user_id", "event_type"]),
                "user_id",
                fold_bucket,
                {"from_type": pa.string(), "to_type": pa.string(), "n_p": pa.int64()},
            ),
            ["from_type", "to_type"],
            n_transitions=("sum", "n_p"),
        )
        .sort(["from_type", "to_type"])
    )


def _skyline_2d(rows: list[tuple[float, int, int]]) -> list[tuple[float, int, int]]:
    """2-D maximal-vector (skyline) filter over (price, size, key) rows:
    keep points no OTHER point dominates (≥ in both dims, > in at least
    one; exact duplicates never dominate each other).  O(n log n): walk
    price groups descending, tracking the max size seen at strictly
    higher prices."""
    out: list[tuple[float, int, int]] = []
    best_size = None
    i = 0
    rows = sorted(rows, key=lambda r: (-r[0], -r[1], r[2]))
    while i < len(rows):
        j = i
        while j < len(rows) and rows[j][0] == rows[i][0]:
            j += 1
        group = rows[i:j]
        group_max = group[0][1]
        for r in group:
            if (best_size is None or r[1] > best_size) and r[1] == group_max:
                out.append(r)
        best_size = group_max if best_size is None else max(best_size, group_max)
        i = j
    return out


def q_part_skyline(sf_dir: str):
    """Distributed skyline (Pareto frontier): parts not dominated in
    (retail price, size) by any other part — the multi-criteria "best
    offers" operator.  Scale shape: the skyline's local-prune property —
    any point dominated within a batch is dominated globally — lets each
    batch emit only its LOCAL skyline (typically a few points per batch),
    and one final merge computes the skyline of the surviving union; the
    corpus never shuffles and no pairwise cross-batch compare exists.
    Exact duplicates of a frontier point all surface (neither dominates
    the other), mirroring the SQL NOT EXISTS semantics."""

    def local_skyline(batch: pa.Table) -> pa.Table:
        rows = list(
            zip(
                (float(v) for v in batch["p_retailprice"].to_pylist()),
                (int(v) for v in batch["p_size"].to_pylist()),
                (int(v) for v in batch["p_partkey"].to_pylist()),
            )
        )
        sky = _skyline_2d(rows)
        return pa.table(
            {
                "p_partkey": pa.array([r[2] for r in sky], pa.int64()),
                "p_retailprice": pa.array([r[0] for r in sky], pa.float64()),
                "p_size": pa.array([r[1] for r in sky], pa.int64()),
            }
        )

    return (
        _read(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])
        .map_batches(local_skyline, batch_format="pyarrow")
        .repartition(1)
        .map_batches(local_skyline, batch_format="pyarrow")
        .sort("p_partkey")
    )


# ---------------------------------------------------------------------------
# Registry + oracle SQL
# ---------------------------------------------------------------------------

def q_semdedup_pairs(sf_dir: str):
    """SemDeDup-style semantic near-dup pairs (Abbas et al. 2023): assign
    every embedding to its nearest centroid, then compare pairs ONLY within
    a cluster.  Centroids here are the embeddings of vec_id 0..7 (a
    deterministic, SQL-expressible codebook — the k-means variant lives in
    ``knn_ivf``); assignment ties break to the smallest centroid id
    (np.argmax first-max == the SQL LATERAL's ``ORDER BY cos DESC, cid``).
    Scale shape: the 8-row codebook broadcasts via ``ray.put`` and
    assignment is one batch matmul; the only exchange is the cluster
    groupby, and each cluster's O(m²) pairwise scan runs chunked (1024-row
    slabs, so temporaries stay a few MB).  Real SemDeDup picks K ≈ √N so
    m = N/K stays bounded; K=8 here is sized to the test corpus — the knob,
    not the shape, changes at 100 TB.  Threshold compares at cosine > 0.4
    (same margin-checked contract as ``embedding_near_dups``)."""
    import ray

    from ..functions.simsearch import _normalize, _vec_matrix

    import ray.data as rd

    cent_rows = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filter=(pc.field("vec_id") < 8),
    ).take_all()
    cent_rows.sort(key=lambda r: r["vec_id"])  # argmax tie → smallest cid
    cent = _normalize(np.array([r["embedding"] for r in cent_rows], dtype=np.float64))
    cent_ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = _normalize(ray.get(cent_ref))
        mat = _normalize(_vec_matrix(batch["embedding"]))
        cluster = np.argmax(mat @ c.T, axis=1).astype(np.int64)
        return pa.table(
            {
                "cluster": pa.array(cluster, pa.int64()),
                "vec_id": batch["vec_id"],
                "embedding": batch["embedding"],
            }
        )

    def cluster_pairs(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) < 2:
            return None
        order = np.argsort(group["vec_id"].to_numpy())
        keys = group["vec_id"].to_numpy()[order]
        mat = _normalize(np.array(list(group["embedding"].to_numpy()[order]), dtype=np.float64))
        cl = int(group["cluster"].iloc[0])
        lefts: list[int] = []
        rights: list[int] = []
        for lo in range(0, len(keys), 1024):
            hi = min(lo + 1024, len(keys))
            sims = mat[lo:hi] @ mat.T  # (chunk, m)
            ii, jj = np.nonzero(sims > 0.4)
            gi = ii + lo
            keep = jj > gi  # strict upper triangle → each pair once, left<right
            lefts.extend(keys[gi[keep]].tolist())
            rights.extend(keys[jj[keep]].tolist())
        return pd.DataFrame({"cluster": [cl] * len(lefts), "left": lefts, "right": rights})

    return cogroup(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
            assign, batch_format="pyarrow"
        ),
        "cluster",
        each_key("cluster", cluster_pairs),
        {"cluster": pa.int64(), "left": pa.int64(), "right": pa.int64()},
    ).sort(["cluster", "left", "right"])


def q_knn_label_filtered(sf_dir: str):
    """Filtered vector search: exact cosine top-5 for query vectors 0/1/2
    restricted to candidates sharing the QUERY's label (the metadata-filter
    ANN class — pre-filtering, so each query's top-k is over its own
    candidate subset).  Scale shape: identical to ``knn_bruteforce`` — the
    (query, label) pairs broadcast once, each batch masks per query and
    emits its local top-5, and the same two-level tree merge finishes; the
    filter multiplies shuffle volume by nothing."""
    import ray
    import ray.data as rd

    from ..functions.simsearch import _merge_topk, _normalize, _vec_matrix

    q_rows = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"],
        filter=(pc.field("vec_id") < 3),
    ).take_all()
    q_rows.sort(key=lambda r: r["vec_id"])
    qmat = _normalize(np.array([r["embedding"] for r in q_rows], dtype=np.float64))
    qlabels = np.array([int(r["label"]) for r in q_rows], dtype=np.int64)
    qids = [int(r["vec_id"]) for r in q_rows]
    q_ref = ray.put((qmat, qlabels))

    def topk(batch: pa.Table) -> pa.Table:
        qm, ql = ray.get(q_ref)
        mat = _normalize(_vec_matrix(batch["embedding"]))
        keys = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        labels = np.asarray(batch["label"].to_pylist(), dtype=np.int64)
        sims = qm @ mat.T  # (Q, B)
        out_q: list[int] = []
        out_k: list[int] = []
        out_c: list[float] = []
        for qi in range(sims.shape[0]):
            valid = np.nonzero(labels == ql[qi])[0]
            if len(valid) == 0:
                continue
            svals = sims[qi, valid]
            kk = min(5, len(valid))
            top = valid[np.argpartition(-svals, kk - 1)[:kk]]
            for j in top:
                out_q.append(qids[qi])
                out_k.append(int(keys[j]))
                out_c.append(float(sims[qi, j]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_k, pa.int64()),
                "cosine": pa.array(out_c, pa.float64()),
            }
        )

    partials = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"]).map_batches(
        topk, batch_format="pyarrow"
    )
    return _merge_topk(partials, 5, "vec_id").select_columns(["query_id", "vec_id"])


def q_copurchase_top_pairs(sf_dir: str):
    """Market-basket pair mining on the fact table: the 20 part pairs most
    often appearing in the SAME order (each pair counted once per order —
    a bipartite-graph projection / self-join shape).  Scale shape: baskets
    co-locate via ONE co-group on the orderkey; each folded block enumerates
    its orders' within-basket pairs (C(m,2) bounded by basket size — ≤7
    lineitems per order in TPC-H-shaped data) into Counter partials, a
    pair-keyed grouped sum merges them, and map-side top-20 pruning bounds
    the final sort to ~20×blocks rows.  Full (n desc, p1, p2) tie-break
    keeps the LIMIT deterministic on both engines."""
    from itertools import combinations

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "okey": batch["l_orderkey"].cast(pa.int64()),
                "pkey": batch["l_partkey"].cast(pa.int64()),
            }
        )

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        if int(group["pkey"].max()) >= 1 << 32:
            raise ValueError(
                "copurchase_top_pairs: partkey >= 2^32 would corrupt the "
                "packed (p1<<32)|p2 pair key — use a two-column pair key"
            )
        c: Counter = Counter()
        # pair encoded into ONE int64 (p1 << 32 | p2, partkeys < 2^31): a
        # single-column grouped sum shuffles ~10× faster than a two-column
        # key here, and the encoding is order-preserving ((p1,p2) lexicographic
        # == encoded ascending), so the top-20 tie-break carries through
        for _, parts in group.groupby("okey")["pkey"]:
            basket = sorted(set(parts.tolist()))
            for a, b in combinations(basket, 2):
                c[(a << 32) | b] += 1
        keys = np.fromiter(c.keys(), dtype=np.int64, count=len(c))
        return pd.DataFrame(
            {
                "pair": keys,
                "n": np.fromiter(c.values(), dtype=np.int64, count=len(c)),
            }
        )

    def merge_and_prune(group: pd.DataFrame) -> pd.DataFrame:
        # a pair's partials all land in one folded block, so the block-local
        # sum is the pair's FULL count and the local top-20 prune is safe;
        # Ray's generic hash aggregate on ~unique int64 keys measured ~10×
        # slower than this pandas fold at 100k pairs
        sums = group.groupby("pair", as_index=False)["n"].sum()
        sums = sums.rename(columns={"n": "n_orders"})
        sums["neg_n"] = -sums["n_orders"]
        return sums.sort_values(["neg_n", "pair"], kind="mergesort").head(20)

    partials = cogroup(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
            project, batch_format="pyarrow"
        ),
        "okey",
        bucket_pairs,
        {"pair": pa.int64(), "n": pa.int64()},
    )
    counts = cogroup(partials, "pair", merge_and_prune, {"pair": pa.int64(), "n_orders": pa.int64()})

    def finish(batch: pa.Table) -> pa.Table:
        pair = batch["pair"].to_pylist()
        return pa.table(
            {
                "p1": pa.array([p >> 32 for p in pair], pa.int64()),
                "p2": pa.array([p & 0xFFFFFFFF for p in pair], pa.int64()),
                "n_orders": batch["n_orders"].cast(pa.int64()),
            }
        )

    return (
        counts.sort(["n_orders", "pair"], descending=[True, False])
        .limit(20)
        .map_batches(finish, batch_format="pyarrow")
    )


_GOPHER_STOPWORDS = frozenset(
    ["the", "be", "to", "of", "and", "that", "have", "with"]
)
# explicit ASCII classes on BOTH engines: RE2's \s and Python re's \s disagree
# on Unicode whitespace, so the shared contract spells the class out
_GOPHER_BULLET_RE = re.compile(r"^[ \t\v\f\r]*[-*•]")
_GOPHER_ELLIPSIS_RE = re.compile(r"(\.\.\.|…)[ \t\v\f\r]*$")


def q_gopher_quality_flags(sf_dir: str):
    """Gopher-style quality-rule bundle (Rae et al. 2021 §A1.1 heuristics,
    re-expressed with integer-exact thresholds): per-rule failure counts +
    the kept count over `documents`.  Rules: word count outside [50, 1e5];
    mean word length outside [3, 10] (as `wlen < 3·wc OR wlen > 10·wc` —
    no division anywhere); <80% of words containing a letter
    (`5·alpha < 4·wc`); >90% bullet-starting lines; >30% ellipsis-ending
    lines; symbol-to-word ratio (# + …) >10%; fewer than 2 English
    stopword occurrences.  Scale shape: one stateless pyarrow scan emits an
    8-row partial histogram per batch; the only exchange is the tiny
    reason-keyed groupby.  A doc failing k rules counts in all k buckets
    (reason attribution, not first-match), `kept` = zero failures —
    matching the SQL mirror's FILTER clauses exactly."""

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter[str] = Counter(
            {
                "word_count": 0,
                "mean_word_len": 0,
                "alpha_words": 0,
                "bullet_lines": 0,
                "ellipsis_lines": 0,
                "symbol_ratio": 0,
                "stopwords": 0,
                "kept": 0,
            }
        )
        for text in batch["text"].to_pylist():
            text = text or ""
            words = text.split()
            lines = text.split("\n")
            wc = len(words)
            wlen = sum(len(w) for w in words)
            alpha = sum(1 for w in words if any(ch.isalpha() for ch in w))
            nl = len(lines)
            bullets = sum(1 for l in lines if _GOPHER_BULLET_RE.match(l))
            ells = sum(1 for l in lines if _GOPHER_ELLIPSIS_RE.search(l))
            syms = text.count("#") + text.count("…")
            stops = sum(1 for w in words if w.lower() in _GOPHER_STOPWORDS)
            failed = False
            if wc < 50 or wc > 100_000:
                c["word_count"] += 1
                failed = True
            if wc > 0 and (wlen < 3 * wc or wlen > 10 * wc):
                c["mean_word_len"] += 1
                failed = True
            if wc > 0 and 5 * alpha < 4 * wc:
                c["alpha_words"] += 1
                failed = True
            if 10 * bullets > 9 * nl:
                c["bullet_lines"] += 1
                failed = True
            if 10 * ells > 3 * nl:
                c["ellipsis_lines"] += 1
                failed = True
            if wc > 0 and 10 * syms > wc:
                c["symbol_ratio"] += 1
                failed = True
            if wc > 0 and stops < 2:
                c["stopwords"] += 1
                failed = True
            if not failed:
                c["kept"] += 1
        return pa.table(
            {
                "reason": pa.array(list(c.keys()), pa.string()),
                "partial": pa.array(list(c.values()), pa.int64()),
            }
        )

    return (
        group_agg(
            _read(sf_dir, "documents", ["text"]).map_batches(partial, batch_format="pyarrow"),
            "reason",
            n_docs=("sum", "partial"),
        )
        .sort("reason")
    )


def q_small_quantity_revenue(sf_dir: str):
    """TPC-H-Q17-shaped correlated-average threshold: revenue from
    small-quantity lineitems of one brand's parts (`qty < 0.2 × that part's
    average quantity`, compared as `qty·5·cnt < sum_qty` — exact int64, no
    division).  Scale shape: pass 1 is ONE grouped (sum_qty, cnt) of the
    brand's lineitems, bounded by the brand's slice of |part|
    (dimension-sized, so the driver-side dict broadcast via ``ray.put`` is
    the documented small-side assumption); pass 2 re-scans the fact table
    filtering map-side against the broadcast thresholds — two narrow scans,
    zero fact-table shuffles.  The single output row divides once at the end,
    bit-identical to the SQL mirror."""
    import ray
    from ray.data.aggregate import Count, Sum

    brand_parts: set[int] = set()
    for batch in _read(sf_dir, "part", ["p_partkey", "p_brand"]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        mask = pc.equal(batch["p_brand"], "Brand#23")
        brand_parts.update(batch.filter(mask)["p_partkey"].to_pylist())
    brand_ref = ray.put(brand_parts)

    def brand_qty(batch: pa.Table) -> pa.Table:
        keys = ray.get(brand_ref)
        mask = pa.array([k in keys for k in batch["l_partkey"].to_pylist()], pa.bool_())
        batch = batch.filter(mask)
        return pa.table({"pk": batch["l_partkey"], "q": pc.cast(pc.round(batch["l_quantity"]), pa.int64())})

    per_part = group_agg(
        _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"]).map_batches(brand_qty, batch_format="pyarrow"),
        "pk",
        sq=("sum", "q"),
        cnt=("count",),
    )
    thresholds = {
        int(r["pk"]): (int(r["sq"]), int(r["cnt"])) for r in per_part.take_all()
    }  # bounded by the brand's slice of |part| — dimension-sized by construction
    thr_ref = ray.put(thresholds)

    def small_qty(batch: pa.Table) -> pa.Table:
        thr = ray.get(thr_ref)
        pks = batch["l_partkey"].to_pylist()
        qty = pc.cast(pc.round(batch["l_quantity"]), pa.int64()).to_pylist()
        cents = pc.cast(
            pc.round(pc.multiply(batch["l_extendedprice"], 100.0)), pa.int64()
        ).to_pylist()
        keep = [
            i
            for i, (k, q) in enumerate(zip(pks, qty))
            if k in thr and q * 5 * thr[k][1] < thr[k][0]
        ]
        return pa.table(
            {
                "cents": pa.array([cents[i] for i in keep], pa.int64()),
            }
        )

    agg = (
        _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])
        .map_batches(small_qty, batch_format="pyarrow")
        .aggregate(Count(alias_name="n_lines"), Sum("cents", alias_name="cents"))
    )
    n_lines = int(agg["n_lines"]) if agg else 0
    cents = int(agg["cents"]) if agg and agg["cents"] is not None else 0
    return pa.table(
        {
            "n_lines": pa.array([n_lines], pa.int64()),
            "avg_yearly": pa.array([float(cents) / 700.0], pa.float64()),
        }
    )


def q_customer_order_counts(sf_dir: str):
    """TPC-H-Q13-shaped left-join count distribution: how many customers
    placed exactly k (non-'4-NOT SPECIFIED') orders, INCLUDING the zero
    bucket.  Scale shape: no join at all — orders collapse to per-custkey
    counts in ONE grouped count, that |customer|-bounded table histograms
    in a second tiny grouped count, and the zero bucket folds from two scalar
    aggregates (|customer| − customers-with-orders) — the LEFT JOIN is
    pure arithmetic, never an exchange."""
    from ray.data.aggregate import Count

    def specified(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.not_equal(batch["o_orderpriority"], "4-NOT SPECIFIED"))
        return pa.table({"ck": batch["o_custkey"]})

    per_cust = group_agg(
        _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(specified, batch_format="pyarrow"),
        "ck",
        c_count=("count",),
    ).materialize()  # bounded by |customer|; reused for histogram + zero bucket
    hist = group_agg(per_cust, "c_count", custdist=("count",))
    # NOTE: a SOLO ungrouped Count() without `on` returns 0 in Ray 2.49 (the
    # lone-Count metadata path); grouped Counts and Count+Sum combos are fine.
    # Counting a non-null key column sidesteps it.
    n_cust_agg = _read(sf_dir, "customer", ["c_custkey"]).aggregate(
        Count(on="c_custkey", alias_name="n")
    )
    with_orders_agg = per_cust.aggregate(Count(on="ck", alias_name="n"))
    zero = (int(n_cust_agg["n"]) if n_cust_agg else 0) - (
        int(with_orders_agg["n"]) if with_orders_agg else 0
    )
    rows = [(int(r["c_count"]), int(r["custdist"])) for r in hist.take_all()]
    if zero > 0:
        rows.append((0, zero))
    rows.sort(key=lambda t: (-t[1], -t[0]))
    return pa.table(
        {
            "c_count": pa.array([r[0] for r in rows], pa.int64()),
            "custdist": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


def q_promo_revenue_ratio(sf_dir: str):
    """TPC-H-Q14-shaped conditional-aggregate ratio: the share of one
    month's lineitem revenue coming from PROMO-type parts.  Scale shape:
    the part→is-promo flag broadcasts once via ``ray.put`` (the documented
    small-side dim assumption), each batch folds to ONE (promo, total)
    integer partial row, and the global sum sees one row per batch — no
    shuffle touches the fact table.  The two final divisions are
    bit-identical to the SQL mirror's expression tree
    (`(100.0·promo)/total`)."""
    import ray
    from ray.data.aggregate import Sum

    promo: dict[int, bool] = {}
    for batch in _read(sf_dir, "part", ["p_partkey", "p_type"]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        for k, t in zip(batch["p_partkey"].to_pylist(), batch["p_type"].to_pylist()):
            promo[k] = t == "PROMO"
    promo_ref = ray.put(promo)

    lo = pa.scalar(np.datetime64("1996-03-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"), pa.timestamp("us"))

    def partial(batch: pa.Table) -> pa.Table:
        flags = ray.get(promo_ref)
        batch = batch.filter(
            pc.and_(
                pc.greater_equal(batch["l_shipdate"], lo),
                pc.less(batch["l_shipdate"], hi),
            )
        )
        units = _money_units(batch["l_extendedprice"], batch["l_discount"]).to_pylist()
        p = t = 0
        for k, u in zip(batch["l_partkey"].to_pylist(), units):
            if k in flags:  # inner-join semantics vs part
                t += u
                if flags[k]:
                    p += u
        return pa.table(
            {
                "p_units": pa.array([p], pa.int64()),
                "t_units": pa.array([t], pa.int64()),
            }
        )

    agg = (
        _read(
            sf_dir,
            "lineitem",
            ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .aggregate(Sum("p_units", alias_name="p"), Sum("t_units", alias_name="t"))
    )
    p = int(agg["p"]) if agg and agg["p"] is not None else 0
    t = int(agg["t"]) if agg and agg["t"] is not None else 0
    return pa.table(
        {
            "promo_revenue": pa.array([float(p) / 10000.0], pa.float64()),
            "total_revenue": pa.array([float(t) / 10000.0], pa.float64()),
            "promo_pct": pa.array(
                [(100.0 * p) / t if t else 0.0], pa.float64()
            ),
        }
    )


def q_returned_top_customers(sf_dir: str):
    """TPC-H-Q10-shaped returned-item report: top-20 customers by revenue
    from returned ('R') lineitems of 1995-Q4 orders, with name and nation.
    Scale shape: the only fact-table exchange is ONE co-group of the two
    narrow projections on the orderkey; each folded block emits
    per-customer integer partials, a second dimension-bounded grouped sum
    merges them, local top-20 pruning
    bounds the final sort to ~20×blocks rows, and the customer/nation name
    lookups broadcast once via ``ray.put``.  Revenue stays int64 until one
    final division, bit-identical to the SQL mirror."""
    import ray

    lo = pa.scalar(np.datetime64("1995-10-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))

    cust_dim: dict[int, tuple[str, int]] = {}
    for batch in _read(
        sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"]
    ).iter_batches(batch_size=65536, batch_format="pyarrow"):
        for k, nm, nk in zip(
            batch["c_custkey"].to_pylist(),
            batch["c_name"].to_pylist(),
            batch["c_nationkey"].to_pylist(),
        ):
            cust_dim[k] = (nm, nk)
    nation_dim = _broadcast_dim(sf_dir, "nation", "n_nationkey", "n_name")
    cust_ref = ray.put(cust_dim)

    def order_rows(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.greater_equal(batch["o_orderdate"], lo),
                pc.less(batch["o_orderdate"], hi),
            )
        )
        return pa.table({"okey": batch["o_orderkey"], "ck": batch["o_custkey"].cast(pa.int64())})

    def lineitem_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        units = _money_units(batch["l_extendedprice"], batch["l_discount"])
        c: Counter = Counter()
        for k, u in zip(batch["l_orderkey"].to_pylist(), units.to_pylist()):
            c[k] += u
        return pa.table(
            {
                "okey": pa.array(list(c.keys()), pa.int64()),
                "units": pa.array(list(c.values()), pa.int64()),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(order_rows, batch_format="pyarrow")
    line = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(lineitem_partial, batch_format="pyarrow")

    def bucket_cust(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame | None:
        if dims.empty or facts.empty:
            return None
        return facts.merge(dims, on="okey").groupby("ck", as_index=False)["units"].sum()

    per_cust = group_agg(
        cogroup([line, orders], "okey", bucket_cust, {"ck": pa.int64(), "units": pa.int64()}),
        "ck",
        units=("sum", "units"),
    )

    def local_top(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            ["units", "ck"], ascending=[False, True]
        ).head(20)
        return _strip_meta(pa.Table.from_pandas(df, preserve_index=False))

    def finish(batch: pa.Table) -> pa.Table:
        cd = ray.get(cust_ref)
        cks = batch["ck"].to_pylist()
        return pa.table(
            {
                "c_custkey": pa.array(cks, pa.int64()),
                "c_name": pa.array([cd[k][0] for k in cks], pa.string()),
                "n_name": pa.array(
                    [nation_dim[cd[k][1]] for k in cks], pa.string()
                ),
                "revenue": pc.divide(pc.cast(batch["units"], pa.float64()), 10000.0),
            }
        )

    return (
        per_cust.map_batches(local_top, batch_format="pyarrow")
        .sort(["units", "ck"], descending=[True, False])
        .limit(20)
        .map_batches(finish, batch_format="pyarrow")
    )


def q_word_zipf_slope(sf_dir: str):
    """Zipf-law fit per language: OLS slope of ln(freq) on ln(rank) over
    each language's top-100 words (rank ties broken by word — the SQL
    window's ORDER BY n DESC, word ASC).  Scale shape: per-batch Counter
    partials collapse the corpus to (lang, word) rows before ONE grouped
    sum; after that exchange each word lives in exactly one block, so a
    map-side per-lang top-100 prune bounds the final per-lang fold to
    ≤100×blocks candidate rows.  The slope's closed form
    (n·Σxy − Σx·Σy)/(n·Σxx − Σx·Σx) is evaluated with sequential Python
    float sums in rank order and rounded to 6dp on both engines — the
    same ln/6dp contract as bm25_top20."""
    import math

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter[tuple[str, str]] = Counter()
        for lang, text in zip(batch["lang"].to_pylist(), batch["text"].to_pylist()):
            for w in (text or "").split():
                c[(lang, w)] += 1
        keys = list(c.keys())
        return pa.table(
            {
                "lang": pa.array([k[0] for k in keys], pa.string()),
                "word": pa.array([k[1] for k in keys], pa.string()),
                "partial": pa.array([c[k] for k in keys], pa.int64()),
            }
        )

    counts = group_agg(
        _read(sf_dir, "documents", ["lang", "text"]).map_batches(partial, batch_format="pyarrow"),
        ["lang", "word"],
        n=("sum", "partial"),
    )

    def local_top(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = (
            df.sort_values(["n", "word"], ascending=[False, True])
            .groupby("lang", as_index=False)
            .head(100)
        )
        return _strip_meta(pa.Table.from_pandas(df, preserve_index=False))

    def slope(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["n", "word"], ascending=[False, True]).head(100)
        ns = g["n"].to_numpy()
        k = len(ns)
        sx = sy = sxy = sxx = 0.0
        for rank, n in enumerate(ns, start=1):
            x, y = math.log(float(rank)), math.log(float(n))
            sx += x
            sy += y
            sxy += x * y
            sxx += x * x
        denom = k * sxx - sx * sx
        if denom == 0.0:  # k == 1 → ln(rank) constant, slope undefined
            return None
        return pd.DataFrame(
            {
                "lang": [group["lang"].iloc[0]],
                "n_words": [k],
                "zipf_slope": [round((k * sxy - sx * sy) / denom, 6)],
            }
        )

    return cogroup(
        counts.map_batches(local_top, batch_format="pyarrow"),
        "lang",
        each_key("lang", slope),
        {"lang": pa.string(), "n_words": pa.int64(), "zipf_slope": pa.float64()},
    ).sort("lang")


def q_events_debounced(sf_dir: str):
    """LAG-window debounce: an event survives if it is the first for its
    (user, event_type) key or arrives > 60 s after the PREVIOUS RAW event
    of that key (non-greedy — the gap is measured against the immediate
    predecessor, kept or not, exactly LAG's semantics).  Scale shape: user
    timelines co-locate via a co-group on user_id (the sessionization
    partitioning contract, one narrow row per event); each folded block
    sorts once, computes vectorized diffs, and emits per-type
    partial counts merged by a tiny final groupby.  Tie contract: equal
    timestamps order by event_id, mirroring the SQL window's
    ORDER BY ts, event_id."""

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g, start = _timeline(group, ["event_type", "us", "event_id"])
        et = g["event_type"].to_numpy()
        start[1:] |= et[1:] != et[:-1]  # a new (user, event_type) key
        gaps = np.zeros(len(g), dtype=np.int64)
        gaps[1:] = np.diff(g["us"].to_numpy())
        kept = start | (gaps > 60_000_000)
        out = pd.DataFrame({"event_type": et[kept]}).groupby("event_type", as_index=False).size()
        return out.rename(columns={"size": "n"})

    return (
        group_agg(
            cogroup(
                _events(sf_dir, ["user_id", "event_type", "event_id"]),
                "user_id",
                fold_bucket,
                {"event_type": pa.string(), "n": pa.int64()},
            ),
            "event_type",
            n_kept=("sum", "n"),
        )
        .sort("event_type")
    )


def q_waiting_suppliers(sf_dir: str):
    """TPC-H-Q21-shaped "suppliers who kept orders waiting" (adapted to this
    schema's columns: the original's commit/receipt-date lateness becomes
    "sole latest shipper"): over finished ('F') orders with ≥2 distinct
    suppliers, blame the supplier whose per-order max shipdate is the
    UNIQUE order-wide max — the multi-branch EXISTS (another supplier in
    the order) + NOT-EXISTS (another supplier shipping as late) plan shape
    (reference point: TPC-H Q21; no counterpart in /root/reference — this
    is the engine's relational layer).

    Scale shape: lineitem pre-aggregates (orderkey, suppkey) → max shipdate
    per batch, so the ONE exchange (a co-group on the orderkey with the
    'F' order keys) ships one narrow row per order-supplier, never raw
    lineitems; all EXISTS logic resolves inside the fold with
    vectorized pandas group transforms; the supplier-name dim broadcasts
    once via ``ray.put``; the final count groupby sees one row per blamed
    order."""
    import ray

    supp_name = {
        r["s_suppkey"]: r["s_name"]
        for r in _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).take_all()
    }
    supp_ref = ray.put(supp_name)

    def line_partial(batch: pa.Table) -> pa.Table:
        acc: dict[tuple[int, int], object] = {}
        for ok, sk, sd in zip(
            batch["l_orderkey"].to_pylist(),
            batch["l_suppkey"].to_pylist(),
            batch["l_shipdate"].to_pylist(),
        ):
            key = (ok, sk)
            prev = acc.get(key)
            if prev is None or sd > prev:
                acc[key] = sd
        okeys = [k[0] for k in acc]
        return pa.table(
            {
                "okey": pa.array(okeys, pa.int64()),
                "skey": pa.array([k[1] for k in acc], pa.int64()),
                "smax": pa.array(list(acc.values()), pa.timestamp("us")),
            }
        )

    def finished_orders(batch: pa.Table) -> pa.Table:
        return pa.table({"okey": batch.filter(pc.equal(batch["o_orderstatus"], "F"))["o_orderkey"]})

    def blame(line: pd.DataFrame, finished: pd.DataFrame) -> pd.DataFrame | None:
        facts = line[line["okey"].isin(finished["okey"])]
        if facts.empty:
            return None
        # finish the (okey, skey) max across batch partials
        per_os = facts.groupby(["okey", "skey"], as_index=False)["smax"].max()
        g = per_os.groupby("okey")["smax"]
        omax = g.transform("max")
        nsupp = g.transform("size")
        at_max = per_os[per_os["smax"] == omax]
        achievers = at_max.groupby("okey")["skey"].transform("size")
        blamed = at_max[(achievers == 1) & (nsupp[at_max.index] >= 2)]
        return blamed.groupby("skey", as_index=False).size().rename(columns={"size": "n"})

    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"]).map_batches(
        line_partial, batch_format="pyarrow"
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"]).map_batches(
        finished_orders, batch_format="pyarrow"
    )

    def finish(batch: pa.Table) -> pa.Table:
        names = ray.get(supp_ref)
        return pa.table(
            {
                "s_name": pa.array(
                    [names[k] for k in batch["skey"].to_pylist()], pa.string()
                ),
                "numwait": batch["numwait"].cast(pa.int64()),
            }
        )

    return (
        group_agg(
            cogroup([line, orders], "okey", blame, {"skey": pa.int64(), "n": pa.int64()}),
            "skey",
            numwait=("sum", "n"),
        )
        .map_batches(finish, batch_format="pyarrow")
        .sort(["numwait", "s_name"], descending=[True, False])
        .limit(20)
    )


def q_disjunctive_revenue(sf_dir: str):
    """TPC-H-Q19-shaped disjunctive predicate revenue: three OR'd
    (brand, size-band, quantity-band) branches across a lineitem×part
    join, reduced to ONE number.  Scale shape: part is the small side and
    broadcasts once via ``ray.put`` as two numpy-backed dict columns; each
    lineitem batch evaluates the whole disjunction vectorized (numpy
    boolean algebra over the mapped brand/size arrays) and contributes a
    single int64 partial — no shuffle at all, the final ``aggregate`` is a
    scalar tree-reduce.  Revenue stays exact integer units end to end."""
    import ray
    from ray.data.aggregate import Sum

    part_attrs = {
        r["p_partkey"]: (r["p_brand"], r["p_size"])
        for r in _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]).take_all()
    }
    part_ref = ray.put(part_attrs)

    def partial(batch: pa.Table) -> pa.Table:
        attrs = ray.get(part_ref)
        pkeys = batch["l_partkey"].to_pylist()
        brand = np.array([attrs[k][0] for k in pkeys])
        size = np.array([attrs[k][1] for k in pkeys], dtype=np.int64)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        b1 = (brand == "Brand#12") & (size >= 1) & (size <= 5) & (qty >= 1) & (qty <= 11)
        b2 = (brand == "Brand#23") & (size >= 1) & (size <= 10) & (qty >= 10) & (qty <= 20)
        b3 = (brand == "Brand#24") & (size >= 1) & (size <= 15) & (qty >= 20) & (qty <= 30)
        mask = pa.array(b1 | b2 | b3, pa.bool_())
        kept = batch.filter(mask)
        units = _money_units(kept["l_extendedprice"], kept["l_discount"])
        total = pc.sum(units).as_py() or 0
        return pa.table({"units": pa.array([total], pa.int64())})

    agg = (
        _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pyarrow")
        .aggregate(Sum("units", alias_name="units"))
    )
    units = int(agg["units"]) if agg and agg.get("units") is not None else 0
    return pd.DataFrame({"revenue": [units / 10000.0]})


def q_returnflag_priority_counts(sf_dir: str):
    """TPC-H-Q12-shaped CASE aggregation (l_returnflag standing in for the
    schema's missing l_shipmode): per return flag, how many 1996-shipped
    lineitems belong to high-priority (1-URGENT / 2-HIGH) vs low-priority
    orders.  Scale shape: lineitem pre-aggregates (orderkey, flag) → count
    per batch, so the co-group with the narrow orders projection ships one
    row per order-flag; the fold joins each sorted block, splits the CASE
    and sums per flag, so the final groupby sees two int64 partials per
    flag and block."""
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"), pa.timestamp("us"))

    def line_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.greater_equal(batch["l_shipdate"], lo),
                pc.less(batch["l_shipdate"], hi),
            )
        )
        c: Counter = Counter()
        for ok, fl in zip(batch["l_orderkey"].to_pylist(), batch["l_returnflag"].to_pylist()):
            c[(ok, fl)] += 1
        keys = list(c.keys())
        return pa.table(
            {
                "okey": pa.array([k[0] for k in keys], pa.int64()),
                "l_returnflag": pa.array([k[1] for k in keys], pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_shipdate"]
    ).map_batches(line_partial, batch_format="pyarrow")
    orders = _keyed(_read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]), "o_orderkey", "okey")

    def case_split(line: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame | None:
        if line.empty or orders.empty:
            return None
        joined = line.merge(orders, on="okey")
        is_high = joined["o_orderpriority"].isin(["1-URGENT", "2-HIGH"])
        joined["high"] = joined["n"].where(is_high, 0)
        joined["low"] = joined["n"].where(~is_high, 0)
        return joined.groupby("l_returnflag", as_index=False)[["high", "low"]].sum()

    return (
        group_agg(
            cogroup(
                [line, orders],
                "okey",
                case_split,
                {"l_returnflag": pa.string(), "high": pa.int64(), "low": pa.int64()},
            ),
            "l_returnflag",
            high_line_count=("sum", "high"),
            low_line_count=("sum", "low"),
        )
        .sort("l_returnflag")
    )


def q_market_share(sf_dir: str):
    """TPC-H-Q8-shaped market share: among 1996–1997 orders from ASIA
    customers, NATION_7 suppliers' share of exact-integer revenue per order
    year.  Scale shape: the two dimension chains broadcast once via
    ``ray.put`` (customer→in-ASIA keys as a set, supplier→nation); lineitem
    pre-aggregates (orderkey) → (total units, nation-7 units) per batch;
    the only exchange is ONE co-group with the filtered orders projection,
    whose fold sums per order year, plus a 2-group year aggregate.  The
    final share division of two exact int64 sums is bit-identical to the
    SQL mirror."""
    import ray

    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"), pa.timestamp("us"))

    nation = {
        r["n_nationkey"]: r["n_name"]
        for r in _read(sf_dir, "nation", ["n_nationkey", "n_name"]).take_all()
    }
    region_keys = {
        r["r_regionkey"]
        for r in _read(sf_dir, "region", ["r_regionkey", "r_name"]).take_all()
        if r["r_name"] == "ASIA"
    }
    asia_nations = {
        r["n_nationkey"]
        for r in _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).take_all()
        if r["n_regionkey"] in region_keys
    }
    asia_custs: set[int] = set()
    for batch in _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        for ck, nk in zip(batch["c_custkey"].to_pylist(), batch["c_nationkey"].to_pylist()):
            if nk in asia_nations:
                asia_custs.add(ck)
    supp_nation = {
        r["s_suppkey"]: nation[r["s_nationkey"]]
        for r in _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).take_all()
    }
    cust_ref = ray.put(asia_custs)
    supp_ref = ray.put(supp_nation)

    def order_side(batch: pa.Table) -> pa.Table:
        custs = ray.get(cust_ref)
        batch = batch.filter(
            pc.and_(
                pc.greater_equal(batch["o_orderdate"], lo),
                pc.less(batch["o_orderdate"], hi),
            )
        )
        mask = pa.array([k in custs for k in batch["o_custkey"].to_pylist()], pa.bool_())
        batch = batch.filter(mask)
        return pa.table(
            {
                "okey": batch["o_orderkey"],
                "o_year": pc.cast(pc.year(batch["o_orderdate"]), pa.int64()),
            }
        )

    def year_partials(line: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame | None:
        if line.empty or orders.empty:
            return None
        joined = line.merge(orders, on="okey")
        return joined.groupby("o_year", as_index=False)[["total_units", "nation_units"]].sum()

    def line_partial(batch: pa.Table) -> pa.Table:
        lookup = ray.get(supp_ref)
        units = _money_units(batch["l_extendedprice"], batch["l_discount"])
        acc: dict[int, list[int]] = {}
        for ok, sk, u in zip(
            batch["l_orderkey"].to_pylist(), batch["l_suppkey"].to_pylist(), units.to_pylist()
        ):
            cell = acc.setdefault(ok, [0, 0])
            cell[0] += u
            if lookup[sk] == "NATION_7":
                cell[1] += u
        return pa.table(
            {
                "okey": pa.array(list(acc.keys()), pa.int64()),
                "total_units": pa.array([v[0] for v in acc.values()], pa.int64()),
                "nation_units": pa.array([v[1] for v in acc.values()], pa.int64()),
            }
        )

    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(line_partial, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        order_side, batch_format="pyarrow"
    )

    partials = cogroup(
        [line, orders],
        "okey",
        year_partials,
        {"o_year": pa.int64(), "total_units": pa.int64(), "nation_units": pa.int64()},
    )
    agg = group_agg(
        partials,
        "o_year",
        total_units=("sum", "total_units"),
        nation_units=("sum", "nation_units"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_year": batch["o_year"].cast(pa.int64()),
                "mkt_share": pc.divide(
                    pc.cast(batch["nation_units"], pa.float64()),
                    pc.cast(batch["total_units"], pa.float64()),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort("o_year")


def q_product_profit(sf_dir: str):
    """TPC-H-Q9-shaped product-type profit: per (supplier nation, order
    year), exact-integer profit over parts whose name contains 'red', where
    profit = revenue − 55%-of-retail cost (the schema has no
    ps_supplycost; 0.55·p_retailprice·l_quantity is the stand-in cost
    term, kept exact: qty·retail_cents·55 lands in the same 10^-4 unit
    scale as ``_money_units``).  Scale shape: part attributes and
    supplier→nation broadcast once via ``ray.put``; lineitem pre-aggregates
    (orderkey, nation) → profit partials per batch; ONE co-group with the
    narrow (orderkey, year) orders projection, whose fold sums per
    (nation, year), then a small (nation, year) aggregate."""
    import ray

    nation = {
        r["n_nationkey"]: r["n_name"]
        for r in _read(sf_dir, "nation", ["n_nationkey", "n_name"]).take_all()
    }
    supp_nation = {
        r["s_suppkey"]: nation[r["s_nationkey"]]
        for r in _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).take_all()
    }
    red_retail_cents = {
        r["p_partkey"]: int(round(r["p_retailprice"] * 100))
        for r in _read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"]).take_all()
        if "red" in r["p_name"]
    }
    supp_ref = ray.put(supp_nation)
    part_ref = ray.put(red_retail_cents)

    def line_partial(batch: pa.Table) -> pa.Table:
        supp = ray.get(supp_ref)
        parts = ray.get(part_ref)
        units = _money_units(batch["l_extendedprice"], batch["l_discount"])
        acc: dict[tuple[int, str], int] = {}
        for ok, pk, sk, q, u in zip(
            batch["l_orderkey"].to_pylist(),
            batch["l_partkey"].to_pylist(),
            batch["l_suppkey"].to_pylist(),
            batch["l_quantity"].to_pylist(),
            units.to_pylist(),
        ):
            cents = parts.get(pk)
            if cents is None:
                continue
            profit = u - int(q) * cents * 55
            key = (ok, supp[sk])
            acc[key] = acc.get(key, 0) + profit
        return pa.table(
            {
                "okey": pa.array([k[0] for k in acc], pa.int64()),
                "nation": pa.array([k[1] for k in acc], pa.string()),
                "profit_units": pa.array(list(acc.values()), pa.int64()),
            }
        )

    line = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(line_partial, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        lambda b: pa.table({"okey": b["o_orderkey"], "o_year": pc.cast(pc.year(b["o_orderdate"]), pa.int64())}),
        batch_format="pyarrow",
    )

    def profit_partials(line: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame | None:
        if line.empty or orders.empty:
            return None
        return line.merge(orders, on="okey").groupby(["nation", "o_year"], as_index=False)["profit_units"].sum()

    partials = cogroup(
        [line, orders],
        "okey",
        profit_partials,
        {"nation": pa.string(), "o_year": pa.int64(), "profit_units": pa.int64()},
    )
    agg = group_agg(partials, ["nation", "o_year"], profit_units=("sum", "profit_units"))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "nation": batch["nation"],
                "o_year": batch["o_year"].cast(pa.int64()),
                "profit": pc.divide(pc.cast(batch["profit_units"], pa.float64()), 10000.0),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort(["nation", "o_year"])


# ---------------------------------------------------------------------------
# Round-3 continuation batch: range join, grouping sets, gap-fill resample,
# graph triangles, WITH-TIES top-k, correlated-subquery decorrelation
# ---------------------------------------------------------------------------


def q_events_band_join(sf_dir: str):
    """Time-band self-join (range join): for every ``click`` event, the count
    of ``view`` events by the SAME user within ±30 minutes.

    Scale shape — the canonical cell-replication band join: time is cut into
    cells of exactly the band width W; the probe side (clicks) lands in its
    own cell ONCE, the build side (views) is replicated to cells c−1, c, c+1.
    Any pair with |Δt| ≤ W spans at most adjacent cells, so it meets in the
    probe's cell exactly once (replication is on the build side only — no
    pair dedup pass needed).  Replication factor is a constant 3× of the
    build side regardless of data size.  The co-group key is (cell,
    user_id), the same key the in-fold merge joins on, so one hot hour
    spreads over its users instead of skewing one reducer.
    """
    W_US = 1_800_000_000

    def keyed(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64())
        types = batch["event_type"]
        is_click = pc.equal(types, "click")
        is_view = pc.equal(types, "view")
        keep = pc.or_(is_click, is_view)
        ids = batch["event_id"].filter(keep).to_pylist()
        uss = us.filter(keep).to_pylist()
        users = batch["user_id"].filter(keep).to_pylist()
        clicks = is_click.filter(keep).to_pylist()
        out_cell, out_id, out_user, out_us, out_side = [], [], [], [], []
        for eid, t, u, c in zip(ids, uss, users, clicks):
            cell = t // W_US
            if c:
                out_cell.append(cell)
                out_id.append(eid)
                out_user.append(u)
                out_us.append(t)
                out_side.append(1)
            else:
                for rep in (cell - 1, cell, cell + 1):
                    out_cell.append(rep)
                    out_id.append(eid)
                    out_user.append(u)
                    out_us.append(t)
                    out_side.append(0)
        return pa.table(
            {
                "cell": pa.array(out_cell, pa.int64()),
                "event_id": pa.array(out_id, pa.int64()),
                "user_id": pa.array(out_user, pa.int64()),
                "us": pa.array(out_us, pa.int64()),
                "side": pa.array(out_side, pa.int8()),
            }
        )

    def join_cell(group: pd.DataFrame) -> pd.DataFrame:
        probes = group[group["side"] == 1]
        builds = group[group["side"] == 0]
        if probes.empty or builds.empty:
            return None
        m = probes.merge(builds, on=["cell", "user_id"], suffixes=("_a", "_b"))
        m = m[(m["us_a"] - m["us_b"]).abs() <= W_US]
        out = m.groupby("event_id_a", as_index=False).size()
        return out.rename(columns={"event_id_a": "click_id", "size": "n_views"})

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"]).map_batches(
        keyed, batch_format="pyarrow"
    )
    return cogroup(ds, ["cell", "user_id"], join_cell, {"click_id": pa.int64(), "n_views": pa.int64()})


def q_orders_cube(sf_dir: str):
    """GROUP BY CUBE(year, priority) in ONE shuffle: each input row emits its
    four grouping-set partials map-side (a dict-combined partial aggregate
    per batch, so the shuffle carries |groups|×4 rows, not |rows|×4), then a
    single grouped merge finishes count/max/min for every grouping set at
    once.  'ALL' is the roll-up sentinel on both engines (no NULL keys in the
    data, so COALESCE is unambiguous)."""

    def partials(batch: pa.Table) -> pa.Table:
        years = pc.cast(pc.year(batch["o_orderdate"]), pa.int64()).to_pylist()
        prios = batch["o_orderpriority"].to_pylist()
        prices = batch["o_totalprice"].to_pylist()
        acc: dict[tuple[str, str], list] = {}
        for y, p, price in zip(years, prios, prices):
            ys = str(y)
            for key in ((ys, p), (ys, "ALL"), ("ALL", p), ("ALL", "ALL")):
                slot = acc.get(key)
                if slot is None:
                    acc[key] = [1, price, price]
                else:
                    slot[0] += 1
                    if price > slot[1]:
                        slot[1] = price
                    if price < slot[2]:
                        slot[2] = price
        keys = list(acc.keys())
        return pa.table(
            {
                "o_year": pa.array([k[0] for k in keys], pa.string()),
                "priority": pa.array([k[1] for k in keys], pa.string()),
                "n_partial": pa.array([v[0] for v in acc.values()], pa.int64()),
                "max_partial": pa.array([v[1] for v in acc.values()], pa.float64()),
                "min_partial": pa.array([v[2] for v in acc.values()], pa.float64()),
            }
        )

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority", "o_totalprice"]).map_batches(
        partials, batch_format="pyarrow"
    )
    return group_agg(
        ds,
        ["o_year", "priority"],
        n_orders=("sum", "n_partial"),
        max_price=("max", "max_partial"),
        min_price=("min", "min_partial"),
    )


def q_events_gapfill(sf_dir: str):
    """Time-series resample with zero-fill: hourly counts per event_type over
    the FULL global [min, max] hour span — missing (type, hour) cells emitted
    as explicit zeros (the gap-fill / date-spine operator).

    Scale shape: counts come from one small grouped count; the spine fill
    happens on the FINISHED aggregate, whose size is bounded by |types| ×
    |hours| (calendar-bounded — hours grow with wall time, not data
    volume), so densifying it driver-side is the documented small-result
    exception, not a materialization of the input."""
    HOUR_US = 3_600_000_000

    def to_hour(batch: pa.Table) -> pa.Table:
        hours = pc.multiply(pc.divide(batch["ts"].cast(pa.int64()), HOUR_US), HOUR_US)
        return pa.table({"event_type": batch["event_type"], "hour_us": hours})

    counts = group_agg(
        _read(sf_dir, "events", ["event_type", "ts"]).map_batches(to_hour, batch_format="pyarrow"),
        ["event_type", "hour_us"],
        n_events=("count",),
    )
    df = counts.to_pandas()  # bounded: |types| × |hours|
    lo, hi = int(df["hour_us"].min()), int(df["hour_us"].max())
    spine = np.arange(lo, hi + HOUR_US, HOUR_US, dtype=np.int64)
    types = sorted(df["event_type"].unique())
    full = pd.MultiIndex.from_product([types, spine], names=["event_type", "hour_us"])
    dense = (
        df.set_index(["event_type", "hour_us"])
        .reindex(full, fill_value=0)
        .reset_index()
    )
    dense["n_events"] = dense["n_events"].astype("int64")
    return dense


def _wedge_pair_chunks(nbrs: np.ndarray, cap: int = 1 << 20):
    """Yield the C(d,2) id-ordered wedge encodings ((x<<32)|y, x<y) of an
    ASCENDING-sorted neighbor array in ≤``cap``-sized numpy chunks.  A hot
    node with degree d would otherwise allocate O(d²) in one shot, which
    this host stalls on at first touch (BASELINE.md allocation-stall
    note)."""
    d = nbrs.size
    if d < 2:
        return
    if d * (d - 1) // 2 <= cap:
        i, j = np.triu_indices(d, k=1)
        yield (nbrs[i] << 32) | nbrs[j]
        return
    lens = np.arange(d - 1, 0, -1)  # pairs contributed by row i
    cum = np.cumsum(lens)
    row = 0
    while row < d - 1:
        base = cum[row - 1] if row else 0
        stop = int(np.searchsorted(cum, base + cap, side="left")) + 1
        stop = min(max(stop, row + 1), d - 1)
        ii = np.repeat(np.arange(row, stop), lens[row:stop])
        jj = np.concatenate([np.arange(i + 1, d) for i in range(row, stop)])
        yield (nbrs[ii] << 32) | nbrs[jj]  # nbrs ascending ⇒ x < y already
        row = stop


# distinct-edge bound (≈ 80 MB of int64 encodings) up to which the triangle
# count broadcasts the edge array instead of co-grouping it
_TRIANGLE_BROADCAST_EDGES = 10_000_000


def q_copurchase_triangles(sf_dir: str):
    """Triangle count of the co-purchase graph (parts sharing ≥1 order).

    Scale shape — degree-ordered node-iterator: edges are oriented from the
    lower-(degree, id) endpoint to the higher, so each triangle is counted
    exactly once as a wedge at its lowest-ordered corner and per-node wedge
    work is bounded by out-degree² (the arboricity bound that makes this the
    standard distributed algorithm).  TWO execution paths with an automatic
    switch on the per-block edge row count — an upper bound on distinct
    edges, erring only toward the co-grouped path — at
    ``_TRIANGLE_BROADCAST_EDGES`` (10M ≈ 80 MB); the
    broadcast path dedups globally on the driver via np.unique over the
    array it folds anyway, skipping the edge-hash dedup shuffle:

    - **broadcast** (edge list fits a worker): the sorted edge-encoding
      array ships once via ``ray.put``; wedge existence checks run
      vectorized (np.searchsorted) per folded block — O(E) per worker, the
      right trade for product-catalog graphs (E ≈ nodes × basket degree).
    - **co-grouped** (edge list outgrows a worker): NOTHING is driver- or
      worker-resident.  Degrees come from a co-group on the endpoint (all
      half-rows of a node land in one block, so the local count is the
      exact degree — no degree broadcast); orientation regroups the two
      half-rows per edge; wedge candidates then co-group WITH the edges on
      the candidate encoding, where a sorted-array membership test counts
      matches.  Five narrow int64 shuffles, per-stage state O(block).

    Both paths share the same orientation contract ((deg, id) lexicographic)
    and the same chunked candidate enumeration (``_wedge_pair_chunks``), and
    a test pins them to identical outputs.  Edge building reuses the
    market-basket projection of q_copurchase_top_pairs (one co-group on the
    orderkey, C(basket,2) enumeration)."""
    import ray
    from itertools import combinations

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "okey": batch["l_orderkey"].cast(pa.int64()),
                "pkey": batch["l_partkey"].cast(pa.int64()),
            }
        )

    def bucket_edges(group: pd.DataFrame) -> pd.DataFrame:
        # edge encodings pack as (a<<32)|b — same loud 2^32 guard as
        # q_part_affinity_lift (ADVICE r3: fail instead of corrupting)
        if int(group["pkey"].max()) >= 1 << 32:
            raise ValueError(
                f"l_partkey {int(group['pkey'].max())} >= 2^32: packed edge "
                "encodings would collide; switch to two-column edge keys"
            )
        seen: set[int] = set()
        for _, parts in group.groupby("okey")["pkey"]:
            basket = sorted(set(parts.tolist()))
            for a, b in combinations(basket, 2):
                seen.add((a << 32) | b)
        return pd.DataFrame({"edge": sorted(seen)})

    # global edge dedup (an edge can surface from orders in different
    # folded blocks): one co-group on the edge
    def dedup_group(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"edge": np.unique(g["edge"].to_numpy())})

    # per-block edges are already locally deduped+sorted; the broadcast
    # path dedups globally ON THE DRIVER (np.unique over the folded array it
    # fetches anyway), so the common small-graph path skips the global
    # edge dedup shuffle entirely.  The path switch uses the per-block
    # row count — an upper bound on distinct edges, so it only ever errs
    # toward the fully co-grouped path.
    edges_raw = cogroup(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
            project, batch_format="pyarrow"
        ),
        "okey",
        bucket_edges,
        {"edge": pa.int64()},
    ).materialize()
    n_edges_upper = edges_raw.count()
    if n_edges_upper == 0:
        return pd.DataFrame({"n_triangles": [0]})

    if n_edges_upper <= _TRIANGLE_BROADCAST_EDGES:
        return _triangles_broadcast(edges_raw)
    # large-graph path: dedup via one co-group on the edge first;
    # materialized because the co-grouped stages consume it twice
    dedup_edges = cogroup(
        edges_raw,
        "edge",
        dedup_group,
        {"edge": pa.int64()},
    ).materialize()
    return _triangles_cogrouped(dedup_edges)


def _triangles_broadcast(dedup_edges) -> pd.DataFrame:
    """Small-edge-list path: the sorted edge array is driver-folded once and
    broadcast; wedge checks are a local searchsorted per wedge corner ``u``,
    spread over one block per CPU (``_spread_blocks``)."""
    import ray
    import ray.data as rd

    chunks = [
        b["edge"].to_numpy()
        for b in dedup_edges.iter_batches(batch_size=65536, batch_format="pyarrow")
    ]
    # input is per-block deduped only — the same edge may arrive from
    # orders in different blocks; np.unique both sorts and dedups globally
    edge_arr = np.unique(np.concatenate(chunks))
    src = (edge_arr >> 32).astype(np.int64)
    dst = (edge_arr & 0xFFFFFFFF).astype(np.int64)
    nodes, counts = np.unique(np.concatenate([src, dst]), return_counts=True)
    # orientation key: (degree, node id) — vectorized via a rank lookup
    order = np.lexsort((nodes, counts))
    rank = np.empty(nodes.size, dtype=np.int64)
    rank[order] = np.arange(nodes.size)
    node_rank = dict(zip(nodes.tolist(), rank.tolist()))
    ra = np.array([node_rank[x] for x in src.tolist()], dtype=np.int64)
    rb = np.array([node_rank[x] for x in dst.tolist()], dtype=np.int64)
    lo_first = ra <= rb
    u = np.where(lo_first, src, dst)
    v = np.where(lo_first, dst, src)
    oriented = pa.table(
        {
            "u": pa.array(u, pa.int64()),
            "v": pa.array(v, pa.int64()),
        }
    )
    edges_ref = ray.put(edge_arr)

    def wedges(group: pd.DataFrame) -> pd.DataFrame:
        all_edges = ray.get(edges_ref)
        total = 0
        for _, g in group.groupby("u", sort=False):
            for cand in _wedge_pair_chunks(np.unique(g["v"].to_numpy())):
                pos = np.searchsorted(all_edges, cand)
                pos[pos >= all_edges.size] = all_edges.size - 1
                total += int((all_edges[pos] == cand).sum())
        return pd.DataFrame({"n": [total]})

    parts = cogroup(rd.from_arrow(oriented).repartition(_spread_blocks()), "u", wedges, {"n": pa.int64()})
    total = int(
        sum(
            b["n"].to_numpy().sum()
            for b in parts.iter_batches(batch_size=4096, batch_format="pyarrow")
        )
    )
    return pd.DataFrame({"n_triangles": [total]})


def _triangles_cogrouped(dedup_edges) -> pd.DataFrame:
    """Large-edge-list path: no edge list on the driver or in any worker.

    degrees ← co-group on the endpoint (a node's half-rows all land in one
    block, so the local count is the exact degree); orientation ← regroup
    the two degree-annotated half-rows per edge; existence ← wedge
    candidates co-grouped WITH the edges on the candidate encoding."""

    def halves(batch: pa.Table) -> pa.Table:
        e = batch["edge"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = e >> 32
        b = e & 0xFFFFFFFF
        node = np.concatenate([a, b])
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "edge": pa.array(np.concatenate([e, e]), pa.int64()),
                "slot": pa.array(
                    np.concatenate(
                        [np.zeros(e.size, np.int8), np.ones(e.size, np.int8)]
                    ),
                    pa.int8(),
                ),
            }
        )

    def annotate_deg(g: pd.DataFrame) -> pd.DataFrame:
        deg = g.groupby("node")["edge"].size()  # exact: block-complete per node
        return g.assign(deg=g["node"].map(deg))

    def orient(g: pd.DataFrame) -> pd.DataFrame:
        s0 = g.loc[g["slot"] == 0].sort_values("edge")
        s1 = g.loc[g["slot"] == 1].sort_values("edge")
        a, da = s0["node"].to_numpy(), s0["deg"].to_numpy()
        b, db = s1["node"].to_numpy(), s1["deg"].to_numpy()
        # (deg, id) lexicographic — identical contract to the broadcast
        # path's rank comparison
        take_a = (da < db) | ((da == db) & (a <= b))
        u = np.where(take_a, a, b)
        v = np.where(take_a, b, a)
        return pd.DataFrame({"u": u, "v": v})

    def wedge_candidates(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, gg in g.groupby("u", sort=False):
            out.extend(_wedge_pair_chunks(np.unique(gg["v"].to_numpy())))
        return pd.DataFrame({"k": np.concatenate(out) if out else np.zeros(0, np.int64)})

    def count_matches(cands: pd.DataFrame, edges: pd.DataFrame) -> pd.DataFrame | None:
        ek = np.unique(edges["k"].to_numpy())
        ck = cands["k"].to_numpy()
        if ek.size == 0 or ck.size == 0:
            return None
        pos = np.searchsorted(ek, ck)
        pos[pos >= ek.size] = ek.size - 1
        return pd.DataFrame({"n": [int((ek[pos] == ck).sum())]})

    annotated = cogroup(
        dedup_edges.map_batches(halves, batch_format="pyarrow"),
        "node",
        annotate_deg,
        {
            "edge": pa.int64(),
            "slot": pa.int8(),
            "node": pa.int64(),
            "deg": pa.int64(),
        },
    )
    oriented = cogroup(annotated, "edge", orient, {"u": pa.int64(), "v": pa.int64()})
    candidates = cogroup(oriented, "u", wedge_candidates, {"k": pa.int64()})
    parts = cogroup([candidates, _keyed(dedup_edges, "edge", "k")], "k", count_matches, {"n": pa.int64()})
    total = int(
        sum(
            b["n"].to_numpy().sum()
            for b in parts.iter_batches(batch_size=4096, batch_format="pyarrow")
        )
    )
    return pd.DataFrame({"n_triangles": [total]})


def q_orders_top_ties(sf_dir: str):
    """Per-priority top-5 orders by totalprice WITH TIES (RANK, not
    ROW_NUMBER — every row whose rank ≤ 5 survives, however many tie).

    Scale shape: a block-local rank ≤ 5 prune runs map-side first — rank
    restricted to a subset can only shrink (rank = 1 + #strictly-greater
    rows, and a subset has no extra greater rows), so any row with global
    rank ≤ 5 also has block rank ≤ 5 and the prune is lossless.  The final
    exact rank then runs on ≤ 5×blocks rows per priority."""

    def local_prune(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        r = df.groupby("o_orderpriority")["o_totalprice"].rank(
            method="min", ascending=False
        )
        return _strip_meta(pa.Table.from_pandas(df[r <= 5], preserve_index=False))

    def final_rank(group: pd.DataFrame) -> pd.DataFrame:
        g = group.assign(rnk=group["o_totalprice"].rank(method="min", ascending=False))
        return g[g["rnk"] <= 5]

    ds = _read(
        sf_dir, "orders", ["o_orderpriority", "o_orderkey", "o_totalprice"]
    ).map_batches(local_prune, batch_format="pyarrow")
    return cogroup(
        ds,
        "o_orderpriority",
        each_key("o_orderpriority", final_rank),
        {
            "o_orderpriority": pa.string(),
            "o_orderkey": pa.int64(),
            "o_totalprice": pa.float64(),
            "rnk": pa.int64(),
        },
    )


def q_events_above_user_median(sf_dir: str):
    """Correlated-subquery decorrelation: per user, how many of their events
    exceed THEIR OWN median event value.  The correlated scalar subquery
    becomes one co-group on user_id (median + comparison inside the
    group — a single shuffle, no per-row subquery).  Median of an even count
    is the midpoint of the two middle stored doubles — one IEEE add + halve
    from identical inputs on both engines, so the > comparison is exact."""

    def per_user(bucket: pd.DataFrame) -> pd.DataFrame:
        med = bucket.groupby("user_id", sort=False)["value"].transform("median")
        above = (bucket["value"] > med).groupby(bucket["user_id"], sort=False).sum()
        return above.rename("n_above").reset_index()

    ds = _read(sf_dir, "events", ["user_id", "value"])
    return cogroup(ds, "user_id", per_user, {"user_id": pa.int64(), "n_above": pa.int64()})


def q_lineitem_ols(sf_dir: str):
    """Grouped OLS (extendedprice-in-cents ~ quantity per returnflag) from
    EXACT integer sufficient statistics: each row yields int64 (x, y, x²,
    xy) (quantities are integral, prices scale to cents), one tiny grouped
    sum folds (n, Σx, Σy, Σx², Σxy), and the closed-form slope/intercept is
    computed from the exact integers.  The one-pass sufficient-statistics
    fold is the canonical distributed regression shape — no residual pass,
    no driver-side matrix.  Cross-engine determinism: numerator/denominator
    are rounded int→double ONCE each (float(num)/float(den)), the same two
    correctly-rounded casts DuckDB performs on its HUGEINT sums, so the
    resulting doubles are bit-identical."""

    def moments(batch: pa.Table) -> pa.Table:
        x = pc.cast(pc.trunc(batch["l_quantity"]), pa.int64())
        y = pc.cast(pc.round(pc.multiply(batch["l_extendedprice"], 100.0)), pa.int64())
        return pa.table(
            {"l_returnflag": batch["l_returnflag"], "x": x, "y": y, "xx": pc.multiply(x, x), "xy": pc.multiply(x, y)}
        )

    stats = group_agg(
        _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])
        .map_batches(moments, batch_format="pyarrow"),
        "l_returnflag",
        n=("count",),
        sx=("sum", "x"),
        sy=("sum", "y"),
        sxx=("sum", "xx"),
        sxy=("sum", "xy"),
    )
    df = stats.to_pandas()  # |returnflag| rows
    rows = []
    for _, r in df.iterrows():
        n, sx, sy, sxx, sxy = (int(r["n"]), int(r["sx"]), int(r["sy"]), int(r["sxx"]), int(r["sxy"]))
        num = n * sxy - sx * sy  # exact python ints (no int64 overflow)
        den = n * sxx - sx * sx
        slope = float(num) / float(den)
        intercept = (float(sy) - slope * float(sx)) / float(n)
        rows.append((r["l_returnflag"], n, slope, intercept))
    return pa.table(
        {
            "l_returnflag": pa.array([x[0] for x in rows], pa.string()),
            "n": pa.array([x[1] for x in rows], pa.int64()),
            "slope_cents": pa.array([x[2] for x in rows], pa.float64()),
            "intercept_cents": pa.array([x[3] for x in rows], pa.float64()),
        }
    )


def q_events_rolling_max3(sf_dir: str):
    """ROWS-frame window: per user (ordered by ts, event_id), the max event
    value over the current + 2 preceding rows — the bounded-frame sliding
    window that complements the time-based windows elsewhere in the suite.
    max() involves no arithmetic, so doubles compare exactly.  Same
    co-group on user_id as the other per-key window queries."""

    def roll(bucket: pd.DataFrame) -> pd.DataFrame:
        g, _ = _timeline(bucket, ["us", "event_id"])
        rmax3 = g.groupby("user_id", sort=False)["value"].rolling(3, min_periods=1).max()
        return pd.DataFrame({"event_id": g["event_id"], "rmax3": rmax3.droplevel(0)})

    ds = _events(sf_dir, ["event_id", "user_id", "value"])
    return cogroup(ds, "user_id", roll, {"event_id": pa.int64(), "rmax3": pa.float64()})


def q_lineitem_unpivot(sf_dir: str):
    """UNPIVOT / melt: the per-returnflag wide aggregate (sum_qty, n_rows)
    reshaped to long (l_returnflag, measure, value) rows — the wide→long
    reshape operator.  The melt happens map-side on the finished aggregate
    (|flags| rows), so it costs nothing at any scale."""

    def to_int(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "qty": pc.cast(batch["l_quantity"], pa.int64()),
            }
        )

    wide = group_agg(
        _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"]).map_batches(to_int, batch_format="pyarrow"),
        "l_returnflag",
        sum_qty=("sum", "qty"),
        n_rows=("count",),
    )

    def melt(batch: pa.Table) -> pa.Table:
        flags = batch["l_returnflag"].to_pylist()
        sq = batch["sum_qty"].to_pylist()
        nr = batch["n_rows"].to_pylist()
        out_f, out_m, out_v = [], [], []
        for f, a, b in zip(flags, sq, nr):
            out_f += [f, f]
            out_m += ["sum_qty", "n_rows"]
            out_v += [int(a), int(b)]
        return pa.table(
            {
                "l_returnflag": pa.array(out_f, pa.string()),
                "measure": pa.array(out_m, pa.string()),
                "value": pa.array(out_v, pa.int64()),
            }
        )

    return wide.map_batches(melt, batch_format="pyarrow")


def q_events_lead_type(sf_dir: str):
    """LEAD window function: each event paired with the NEXT event's type in
    its user's timeline (ordered by ts, event_id; 'NONE' for the last event).
    Complements the LAG-based debounce/inter-arrival queries."""

    def lead(bucket: pd.DataFrame) -> pd.DataFrame:
        g, _ = _timeline(bucket, ["us", "event_id"])
        nxt = g.groupby("user_id", sort=False)["event_type"].shift(-1).fillna("NONE")
        return pd.DataFrame({"event_id": g["event_id"], "next_type": nxt})

    ds = _events(sf_dir, ["event_id", "user_id", "event_type"])
    return cogroup(ds, "user_id", lead, {"event_id": pa.int64(), "next_type": pa.string()})


def _bpe_pair_partial(batch: pa.Table) -> pa.Table:
    """Per-batch Counter fold of adjacent char pairs inside lowercased
    whitespace tokens — the ONE pair contract both BPE operators
    (`q_bpe_pair_counts`, `q_bpe_apply_merge`) and their oracles share."""
    c: Counter = Counter()
    for text in batch["text"].to_pylist():
        for w in (text or "").lower().split():
            c.update(zip(w, w[1:]))
    return pa.table(
        {
            "pair": pa.array(["".join(k) for k in c], pa.string()),
            "partial": pa.array(list(c.values()), pa.int64()),
        }
    )


def q_bpe_pair_counts(sf_dir: str):
    """One BPE training round: corpus-wide counts of ADJACENT character
    pairs inside whitespace tokens (lowercased) — the argmax of this table
    is the next BPE merge.  Scale shape: per-batch Counter fold (pairs per
    batch bounded by charset², not text size) → one small grouped sum →
    map-side top-20 prune before the final sort.  Deterministic (n desc,
    pair asc) tie-break keeps LIMIT stable on both engines."""
    counts = group_agg(
        _read_spread(sf_dir, "documents", ["text"]).map_batches(_bpe_pair_partial, batch_format="pyarrow"),
        "pair",
        n=("sum", "partial"),
    )

    def prune(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["neg_n"] = -df["n"]
        top = df.sort_values(["neg_n", "pair"], kind="mergesort").head(20)
        return _strip_meta(pa.Table.from_pandas(top[["pair", "n"]], preserve_index=False))

    pruned = counts.map_batches(prune, batch_format="pyarrow")
    out = pruned.to_pandas()
    out["neg_n"] = -out["n"]
    out = out.sort_values(["neg_n", "pair"], kind="mergesort").head(20)
    out["n"] = out["n"].astype("int64")
    return out[["pair", "n"]]


def q_copurchase_assortativity(sf_dir: str):
    """Degree assortativity (Newman's degree-degree Pearson r) of the
    co-purchase graph — the macro-structure health metric of a catalog
    affinity graph (r > 0: hubs co-purchase with hubs; r < 0: hubs bridge
    the long tail).  With per-edge endpoint degrees (j, k) over M edges:

        r = (4M·Σjk − (Σ(j+k))²) / (2M·Σ(j²+k²) − (Σ(j+k))²)

    — every moment an EXACT integer, ONE operand-rounded float division at
    the very end (both engines cast the two exact integer operands to
    double then divide — identical IEEE result; output 6dp-rounded).

    Scale shape: baskets → packed edges co-grouped per order → global
    dedup co-grouped per edge (the kcore/triangles pipeline).  Degrees fold from one
    pass of packed per-batch partials; the degree table (node → int) is
    CATALOG-bounded (nodes = parts dimension), so it broadcasts once via
    ray.put and a vectorized double searchsorted resolves both endpoints
    per edge batch — the same documented small-side assumption every
    part-keyed dim lookup in this suite uses (beyond catalog scale, the
    coded co-grouped path of q_copurchase_triangles is the drop-in:
    degrees are strictly smaller than its edge list).  Moment partials
    are four int64 scalars per batch; the driver folds them in
    arbitrary-precision Python ints."""
    import ray
    from itertools import combinations

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "okey": batch["l_orderkey"].cast(pa.int64()),
                "pkey": batch["l_partkey"].cast(pa.int64()),
            }
        )

    def bucket_edges(group: pd.DataFrame) -> pd.DataFrame:
        if int(group["pkey"].max()) >= 1 << 32:
            raise ValueError("l_partkey >= 2^32: packed edge encodings would collide")
        seen: set[int] = set()
        for _, parts in group.groupby("okey")["pkey"]:
            basket = sorted(set(parts.tolist()))
            for a, b in combinations(basket, 2):
                seen.add((a << 32) | b)
        return pd.DataFrame({"edge": sorted(seen)})

    def dedup_group(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"edge": np.unique(g["edge"].to_numpy())})

    raw_edges = cogroup(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
            project, batch_format="pyarrow"
        ),
        "okey",
        bucket_edges,
        {"edge": pa.int64()},
    )
    edges = cogroup(
        raw_edges,
        "edge",
        dedup_group,
        {"edge": pa.int64()},
    ).materialize()

    def deg_partials(batch: pa.Table) -> pa.Table:
        e = batch["edge"].to_numpy(zero_copy_only=False).astype(np.int64)
        nodes, counts = np.unique(
            np.concatenate([e >> 32, e & 0xFFFFFFFF]), return_counts=True
        )
        return pa.table(
            {
                "nodes": pa.array([nodes.tobytes()], pa.binary()),
                "counts": pa.array([counts.tobytes()], pa.binary()),
            }
        )

    deg: Counter = Counter()
    for row in edges.map_batches(deg_partials, batch_format="pyarrow").take_all():
        nodes = np.frombuffer(row["nodes"], dtype=np.int64)
        counts = np.frombuffer(row["counts"], dtype=np.int64)
        for n, c in zip(nodes.tolist(), counts.tolist()):
            deg[n] += c

    nodes_sorted = np.array(sorted(deg), dtype=np.int64)
    degs_sorted = np.array([deg[n] for n in nodes_sorted.tolist()], dtype=np.int64)
    deg_ref = ray.put((nodes_sorted, degs_sorted))

    def moment_partials(batch: pa.Table, deg_ref=deg_ref) -> pa.Table:
        nodes_s, degs_s = ray.get(deg_ref)
        e = batch["edge"].to_numpy(zero_copy_only=False).astype(np.int64)
        du = degs_s[np.searchsorted(nodes_s, e >> 32)]
        dv = degs_s[np.searchsorted(nodes_s, e & 0xFFFFFFFF)]
        return pa.table(
            {
                "m_p": pa.array([int(e.size)], pa.int64()),
                "d2_p": pa.array([int((du + dv).sum())], pa.int64()),
                "d3_p": pa.array([int((du * du + dv * dv).sum())], pa.int64()),
                "jk_p": pa.array([int((du * dv).sum())], pa.int64()),
            }
        )

    m = d2 = d3 = jk = 0
    for row in edges.map_batches(moment_partials, batch_format="pyarrow").take_all():
        m += row["m_p"]
        d2 += row["d2_p"]
        d3 += row["d3_p"]
        jk += row["jk_p"]
    num = 4 * m * jk - d2 * d2
    den = 2 * m * d3 - d2 * d2
    r_val = round(float(num) / float(den), 6) if den else 0.0
    return pd.DataFrame(
        {
            "m_edges": [m],
            "sum_d2": [d2],
            "sum_d3": [d3],
            "sum_jk": [jk],
            "assortativity": [r_val],
        }
    )


def q_copurchase_kcore(sf_dir: str):
    """k-core decomposition (k=80) of the co-purchase graph by iterative
    peeling — the graph-curation primitive (strip low-connectivity nodes
    until every survivor has ≥ k surviving neighbors), complementing the
    one-shot wedge/triangle and frontier/BFS classes with the
    REMOVE-until-fixpoint iteration class.

    Scale shape — DELTA peeling, no per-round shuffle: the deduped edge
    list materializes ONCE (exact degrees need global dedup); initial
    degrees fold from one pass of packed per-batch partials; each round
    then scans the immutable edge list for decrements caused by the
    NEWLY dropped nodes only (vectorized np.isin against the ray.put
    sorted arrays) and re-checks just the decremented nodes.  The driver
    holds node ids + int degrees — catalog-bounded, the BFS contract;
    edges never leave the object store.  Rounds are data-dependent; a
    16-round cap fails LOUDLY instead of returning a non-fixpoint
    (measured ≤5 at every sf).  Output is all-integer (nodes, Σdeg/2
    edges); the oracle unrolls the peel as 16 chained MATERIALIZED CTEs
    (the k-means unrolled-iteration pattern — non-materialized CTEs
    inline exponentially)."""
    import ray
    from itertools import combinations

    k = 80
    max_rounds = 16

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "okey": batch["l_orderkey"].cast(pa.int64()),
                "pkey": batch["l_partkey"].cast(pa.int64()),
            }
        )

    def bucket_edges(group: pd.DataFrame) -> pd.DataFrame:
        if int(group["pkey"].max()) >= 1 << 32:
            raise ValueError("l_partkey >= 2^32: packed edge encodings would collide")
        seen: set[int] = set()
        for _, parts in group.groupby("okey")["pkey"]:
            basket = sorted(set(parts.tolist()))
            for a, b in combinations(basket, 2):
                seen.add((a << 32) | b)
        return pd.DataFrame({"edge": sorted(seen)})

    def dedup_group(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"edge": np.unique(g["edge"].to_numpy())})

    raw_edges = cogroup(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
            project, batch_format="pyarrow"
        ),
        "okey",
        bucket_edges,
        {"edge": pa.int64()},
    )
    edges = cogroup(
        raw_edges,
        "edge",
        dedup_group,
        {"edge": pa.int64()},
    ).materialize()

    # initial degrees: ONE pass of per-batch partials folded on the driver
    # (node ids + int degrees only — catalog-bounded, the BFS contract; the
    # edge list itself never leaves the object store)
    def deg_partials(batch: pa.Table) -> pa.Table:
        e = batch["edge"].to_numpy(zero_copy_only=False).astype(np.int64)
        u = e >> 32
        v = e & 0xFFFFFFFF
        nodes, counts = np.unique(np.concatenate([u, v]), return_counts=True)
        return pa.table(
            {
                "nodes": pa.array([nodes.tobytes()], pa.binary()),
                "counts": pa.array([counts.tobytes()], pa.binary()),
            }
        )

    deg: Counter = Counter()
    for r in edges.map_batches(deg_partials, batch_format="pyarrow").take_all():
        nodes = np.frombuffer(r["nodes"], dtype=np.int64)
        counts = np.frombuffer(r["counts"], dtype=np.int64)
        for n, c in zip(nodes.tolist(), counts.tolist()):
            deg[n] += c

    # delta peeling: each round scans the immutable edge list once for
    # decrements caused by the NEWLY dropped nodes (no per-round shuffle —
    # partials are (survivor, dec) counts over the affected frontier only),
    # then only decremented nodes are re-checked against k.
    removed = np.array([], dtype=np.int64)
    newly = np.array(sorted(n for n, c in deg.items() if c < k), dtype=np.int64)
    for _round in range(max_rounds):
        if newly.size == 0:
            break
        removed = np.sort(np.concatenate([removed, newly]))
        for n in newly.tolist():
            del deg[n]
        newly_ref = ray.put(newly)
        removed_ref = ray.put(removed)

        def dec_partials(
            batch: pa.Table, newly_ref=newly_ref, removed_ref=removed_ref
        ) -> pa.Table:
            new_arr = ray.get(newly_ref)
            rem_arr = ray.get(removed_ref)
            e = batch["edge"].to_numpy(zero_copy_only=False).astype(np.int64)
            u = e >> 32
            v = e & 0xFFFFFFFF
            u_new = np.isin(u, new_arr)
            v_new = np.isin(v, new_arr)
            # decrement the SURVIVING endpoint of edges losing their other
            # endpoint this round (both-dropped / already-dropped edges
            # contribute nothing — the partner is in the removed set)
            surv = np.concatenate(
                [v[u_new & ~np.isin(v, rem_arr)], u[v_new & ~np.isin(u, rem_arr)]]
            )
            nodes, counts = np.unique(surv, return_counts=True)
            return pa.table(
                {
                    "nodes": pa.array([nodes.tobytes()], pa.binary()),
                    "counts": pa.array([counts.tobytes()], pa.binary()),
                }
            )

        touched: Counter = Counter()
        for r in edges.map_batches(dec_partials, batch_format="pyarrow").take_all():
            nodes = np.frombuffer(r["nodes"], dtype=np.int64)
            counts = np.frombuffer(r["counts"], dtype=np.int64)
            for n, c in zip(nodes.tolist(), counts.tolist()):
                touched[n] += c
        next_drop = []
        for n, dec in touched.items():
            if n in deg:
                deg[n] -= dec
                if deg[n] < k:
                    next_drop.append(n)
        newly = np.array(sorted(next_drop), dtype=np.int64)
    else:
        if newly.size:
            raise ValueError(
                f"k-core peeling did not converge within {max_rounds} rounds; "
                "raise max_rounds (and the oracle's unroll depth) together"
            )

    total_deg = sum(deg.values())
    assert total_deg % 2 == 0, total_deg
    return pa.table(
        {
            "n_core_nodes": pa.array([len(deg)], pa.int64()),
            "n_core_edges": pa.array([total_deg // 2], pa.int64()),
        }
    )


def q_copurchase_bfs_hops(sf_dir: str):
    """BFS hop distances (≤3) from the minimum partkey over the co-purchase
    graph — the iterative frontier-expansion class (level-synchronous BFS),
    complementing the fixpoint iterations elsewhere (PageRank, connected
    components).

    Scale shape: the basket-projected edge list materializes ONCE in the
    object store (bounded: catalog graph) and each hop is one map_batches
    scan of it against the broadcast frontier/visited sets (frontier ≤
    nodes, ships via ray.put per hop — level-synchronous BFS's documented
    small-side broadcast).  New nodes per hop return as per-block distinct sets;
    the driver holds only node ids, never edges."""
    import ray
    from itertools import combinations

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "okey": batch["l_orderkey"].cast(pa.int64()),
                "pkey": batch["l_partkey"].cast(pa.int64()),
            }
        )

    def bucket_edges(group: pd.DataFrame) -> pd.DataFrame:
        seen: set[tuple[int, int]] = set()
        for _, parts in group.groupby("okey")["pkey"]:
            basket = sorted(set(parts.tolist()))
            for a, b in combinations(basket, 2):
                seen.add((a, b))
        return pd.DataFrame(list(seen), columns=["u", "v"])

    edges = cogroup(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
            project, batch_format="pyarrow"
        ),
        "okey",
        bucket_edges,
        {"u": pa.int64(), "v": pa.int64()},
    ).materialize()
    seed = int(_read(sf_dir, "lineitem", ["l_partkey"]).min("l_partkey"))
    visited: dict[int, int] = {seed: 0}
    frontier = {seed}
    for hop in (1, 2, 3):
        f_ref = ray.put(frontier)
        v_ref = ray.put(set(visited))

        def expand(batch: pa.Table, f_ref=f_ref, v_ref=v_ref) -> pa.Table:
            f = ray.get(f_ref)
            vis = ray.get(v_ref)
            out: set[int] = set()
            for a, b in zip(batch["u"].to_pylist(), batch["v"].to_pylist()):
                if a in f and b not in vis:
                    out.add(b)
                if b in f and a not in vis:
                    out.add(a)
            return pa.table({"node": pa.array(sorted(out), pa.int64())})

        new_nodes: set[int] = set()
        for b in edges.map_batches(expand, batch_format="pyarrow").iter_batches(
            batch_size=65536, batch_format="pyarrow"
        ):
            new_nodes.update(b["node"].to_pylist())
        frontier = new_nodes - set(visited)
        if not frontier:
            break
        for n in frontier:
            visited[n] = hop
    nodes = sorted(visited)
    return pa.table(
        {
            "node": pa.array(nodes, pa.int64()),
            "hop": pa.array([visited[n] for n in nodes], pa.int64()),
        }
    )


# C4-style blocklist lexicon (Raffel et al. 2020 §2.2's "bad words" filter
# shape): a small dictionary broadcast to every worker, matched as raw
# substrings of the lowercased text.  Multi-word phrases make the substring
# (not token) semantics observable; counts are LEFTMOST NON-OVERLAPPING
# (Python str.count == SQL's replace-length fold), the shared contract.
_BLOCKLIST_TERMS = (
    "spark",
    "slow",
    "dup",
    "noise",
    "scan",
    "big data",
    "hash join",
    "sort merge",
    "batch batch",
    "window window",
)


def q_blocklist_term_stats(sf_dir: str):
    """Dictionary-tagging / blocklist-filter stats (the C4 badword-filter
    shape): for every lexicon term, how many documents contain it and how
    many times it occurs corpus-wide.  Scale shape: the lexicon broadcasts
    in the task closure (tiny, read-only), each batch folds its counts into
    one |lexicon|-row partial, and the only exchange is the term-keyed
    grouped sum over those partials — the corpus never shuffles.  Count
    contract: leftmost non-overlapping occurrences of the raw substring in
    ``lower(text)`` (Python ``str.count``), mirrored in SQL by the
    replace-length fold; both engines count code points, so CJK rows are
    consistent."""
    terms = _BLOCKLIST_TERMS

    def partial(batch: pa.Table) -> pa.Table:
        n_docs = [0] * len(terms)
        n_occ = [0] * len(terms)
        for text in batch["text"].to_pylist():
            t = (text or "").lower()
            for i, term in enumerate(terms):
                c = t.count(term)
                if c:
                    n_docs[i] += 1
                    n_occ[i] += c
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "d": pa.array(n_docs, pa.int64()),
                "o": pa.array(n_occ, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["text"]).map_batches(
        partial, batch_format="pyarrow"
    )
    return group_agg(ds, "term", n_docs=("sum", "d"), n_occurrences=("sum", "o"))


_SYLLABLE_RE = re.compile(r"[aeiouy]+")
_SENTENCE_RE = re.compile(r"[.!?]+")


def q_doc_readability(sf_dir: str):
    """Per-document Flesch reading ease — the classic readability quality
    signal for training-data curation.  Shared heuristic contract (spelled
    out so SQL can mirror it exactly): words = ``\\S+`` runs of
    ``lower(text)``; syllables per word = number of ``[aeiouy]+`` vowel
    runs, floored at 1 (CJK words therefore count 1); sentences = number
    of ``[.!?]+`` runs, floored at 1 (the synthetic corpus has no sentence
    punctuation, so the floor is exercised corpus-wide — punctuated inputs
    are pinned in unit tests).  score = 206.835 − 1.015·(words/sentences)
    − 84.6·(syllables/words), rounded to 6dp: both engines evaluate the
    identical left-associated float expression on exact-int inputs, so the
    doubles are bit-identical before rounding.  Zero-word docs are excluded
    on both engines.  Embarrassingly parallel — stateless per-doc scan,
    zero shuffles."""
    token_re = re.compile(r"\S+")

    def flesch(batch: pa.Table) -> pa.Table:
        ids, nws, nss, syls, scores = [], [], [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            t = text or ""
            words = token_re.findall(t.lower())
            nw = len(words)
            if nw == 0:
                continue
            syl = sum(max(1, len(_SYLLABLE_RE.findall(w))) for w in words)
            ns = max(1, len(_SENTENCE_RE.findall(t)))
            score = round(206.835 - 1.015 * (nw / ns) - 84.6 * (syl / nw), 6)
            ids.append(doc_id)
            nws.append(nw)
            nss.append(ns)
            syls.append(syl)
            scores.append(score)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_words": pa.array(nws, pa.int64()),
                "n_sentences": pa.array(nss, pa.int64()),
                "n_syllables": pa.array(syls, pa.int64()),
                "flesch": pa.array(scores, pa.float64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        flesch, batch_format="pyarrow"
    )


def q_label_centroid_outliers(sf_dir: str):
    """Prototype-distance pruning (the SemDeDup/SSL-prototypes curation
    shape): per label, the 5 vectors LEAST similar to their label's
    centroid — the candidates a curation pass would drop as outliers or
    mislabels.  Scale shape: pass 1 folds per-batch per-label float64
    component sums (≤ |labels| tiny rows per block), the driver merges
    those sketch-sized partials and broadcasts the centroid matrix via
    ``ray.put``; pass 2 scores each batch against its label's centroid
    (one matmul row per vector) with a per-batch bottom-5 prune, and a
    |labels|-keyed map_groups picks the final bottom-5 — the embedding
    matrix never shuffles.  Centroids are unnormalized component SUMS
    (cosine is scale-invariant, so no division drifts).  Float contract:
    summation order differs between engines (numpy pairwise vs SQL group
    SUM) at ~1e-15 relative; ranking compares 6dp-ROUNDED cosines with a
    vec_id tie-break on both engines, so selection and order are
    value-checkable."""
    import ray

    from ..functions.simsearch import _vec_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def centroid_partials(batch: pa.Table) -> pa.Table:
        mat = _vec_matrix(batch["embedding"]).astype(np.float64)
        labels = np.asarray(batch["label"].to_pylist(), dtype=np.int64)
        out_l: list[int] = []
        out_s: list[list[float]] = []
        for lab in np.unique(labels):
            out_l.append(int(lab))
            out_s.append(mat[labels == lab].sum(axis=0).tolist())
        return pa.table(
            {
                "label": pa.array(out_l, pa.int64()),
                "s": pa.array(out_s, pa.list_(pa.float64())),
            }
        )

    cents: dict[int, np.ndarray] = {}
    for row in ds.map_batches(centroid_partials, batch_format="pyarrow").take_all():
        vec = np.asarray(row["s"], dtype=np.float64)
        lab = int(row["label"])
        cents[lab] = cents.get(lab, 0.0) + vec
    labels_sorted = sorted(cents)
    lab_index = {lab: i for i, lab in enumerate(labels_sorted)}
    cmat = np.vstack([cents[lab] for lab in labels_sorted])
    cnorm = np.linalg.norm(cmat, axis=1, keepdims=True)
    cnorm[cnorm == 0.0] = 1.0  # zero centroid → cos 0.0 (mirrored in SQL)
    cmat = cmat / cnorm
    c_ref = ray.put((cmat, lab_index))

    def score(batch: pa.Table) -> pa.Table:
        cm, lidx = ray.get(c_ref)
        mat = _vec_matrix(batch["embedding"]).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0.0] = 1.0
        mat = mat / norms[:, None]
        labels = np.asarray(batch["label"].to_pylist(), dtype=np.int64)
        rows_idx = np.array([lidx[int(lab)] for lab in labels], dtype=np.int64)
        cos = np.round(np.einsum("ij,ij->i", mat, cm[rows_idx]), 6)
        vec_ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        # local bottom-5 per label (same (cos6, vec_id) order as the final)
        keep = np.zeros(len(labels), dtype=bool)
        for lab in np.unique(labels):
            member = np.nonzero(labels == lab)[0]
            order = np.lexsort((vec_ids[member], cos[member]))
            keep[member[order[:5]]] = True
        return pa.table(
            {
                "label": pa.array(labels[keep], pa.int64()),
                "vec_id": pa.array(vec_ids[keep], pa.int64()),
                "cos_centroid": pa.array(cos[keep], pa.float64()),
            }
        )

    def bottom5(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values(["cos_centroid", "vec_id"], kind="mergesort").head(5)

    return cogroup(
        ds.map_batches(score, batch_format="pyarrow"),
        "label",
        each_key("label", bottom5),
        {"label": pa.int64(), "vec_id": pa.int64(), "cos_centroid": pa.float64()},
    )


def q_part_affinity_lift(sf_dir: str):
    """Association-rule mining over co-purchase baskets: the top-20 part
    pairs by basket count, each scored with its LIFT
    (n_ab·N / (n_a·n_b) — >1 means the pair co-occurs more than
    independence predicts).  Scale shape: baskets co-locate via ONE
    co-group on the orderkey which emits three kinds of narrow int64
    partials in the same pass — pair counts, per-part distinct-order
    counts, and the block's order count; a second co-group on (kind, key)
    completes every pair/part sum locally and prunes pairs to a local
    top-20.  The driver folds only the pruned pair rows plus the
    part-count rows (dimension-sized: O(|part| + blocks), never
    O(lineitem)) and joins the 40 relevant part counts in memory.  Float
    contract: both engines cast the exact int64 numerator n_ab·N to double
    FIRST, then perform one IEEE division by the exact int denominator —
    the same op order as the oracle's CAST(n_ab*n_total AS DOUBLE) /
    (n_a*n_b), bit-identical even past 2^53 where int/int and double/int
    division would differ."""
    from itertools import combinations

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "okey": batch["l_orderkey"].cast(pa.int64()),
                "pkey": batch["l_partkey"].cast(pa.int64()),
            }
        )

    def bucket_partials(group: pd.DataFrame) -> pd.DataFrame:
        # pair keys pack as (a<<32)|b: a partkey at/above 2^32 would bleed
        # into the high word and silently corrupt pair counts — fail loudly
        # (one vectorized max per group)
        if int(group["pkey"].max()) >= 1 << 32:
            raise ValueError(
                f"l_partkey {int(group['pkey'].max())} >= 2^32: packed pair "
                "keys would collide; switch the pair key to two columns"
            )
        pair_c: Counter = Counter()
        part_c: Counter = Counter()
        n_orders = 0
        for _, parts in group.groupby("okey")["pkey"]:
            basket = sorted(set(parts.tolist()))
            n_orders += 1
            for p in basket:
                part_c[p] += 1
            for a, b in combinations(basket, 2):
                pair_c[(a << 32) | b] += 1
        kinds = (
            [0] * len(pair_c) + [1] * len(part_c) + [2]
        )
        keys = list(pair_c.keys()) + list(part_c.keys()) + [0]
        ns = list(pair_c.values()) + list(part_c.values()) + [n_orders]
        return pd.DataFrame(
            {
                "kind": kinds,
                "key": keys,
                "n": ns,
            }
        )

    def merge_and_prune(group: pd.DataFrame) -> pd.DataFrame:
        # every partial for a given (kind, key) lands in this block, so
        # sums here are FULL counts and the pair top-20 prune is lossless
        sums = group.groupby(["kind", "key"], as_index=False)["n"].sum()
        pairs = sums[sums["kind"] == 0].copy()
        pairs["neg_n"] = -pairs["n"]
        pairs = pairs.sort_values(["neg_n", "key"], kind="mergesort").head(20)
        return pd.concat([pairs, sums[sums["kind"] != 0]], ignore_index=True)

    partials = cogroup(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
            project, batch_format="pyarrow"
        ),
        "okey",
        bucket_partials,
        {"kind": pa.int8(), "key": pa.int64(), "n": pa.int64()},
    )
    # to_pandas, not take_all: row-wise iteration over the result blocks
    # measured 27 s for 22k rows (per-row conversion), the batch fetch is
    # instant
    folded = cogroup(
        partials, ["kind", "key"], merge_and_prune, {"kind": pa.int8(), "key": pa.int64(), "n": pa.int64()}
    ).to_pandas()

    pair_n: dict[int, int] = {}
    part_n: dict[int, int] = {}
    n_total = 0
    for kind, key, n in zip(
        folded["kind"].to_numpy(),
        folded["key"].to_numpy(),
        folded["n"].to_numpy(),
    ):
        kind, key, n = int(kind), int(key), int(n)
        if kind == 0:
            pair_n[key] = n
        elif kind == 1:
            part_n[key] = n
        else:
            n_total += n
    top = sorted(pair_n.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    p1s, p2s, ns, lifts = [], [], [], []
    for key, n_ab in top:
        a, b = key >> 32, key & 0xFFFFFFFF
        p1s.append(a)
        p2s.append(b)
        ns.append(n_ab)
        # op order matches the oracle exactly: CAST(n_ab*n_total AS DOUBLE)
        # first, THEN one IEEE division by the exact int product — above
        # 2^53 Python's correctly-rounded int/int would diverge from it
        lifts.append(round(float(n_ab * n_total) / (part_n[a] * part_n[b]), 6))
    return pa.table(
        {
            "p1": pa.array(p1s, pa.int64()),
            "p2": pa.array(p2s, pa.int64()),
            "n_orders": pa.array(ns, pa.int64()),
            "lift": pa.array(lifts, pa.float64()),
        }
    )


def _gram_strings(text: str) -> set[str]:
    """Distinct word-3gram strings (space-joined) of ``lower(text)`` — the
    same gram set `word_ngram_jaccard` uses, in the canonical string form
    both engines hash (`array_to_string(w[i:i+2], ' ')` in SQL)."""
    words = (text or "").lower().split()
    if not words:
        return set()
    if len(words) < 3:
        return {" ".join(words)}
    return {" ".join(words[i : i + 3]) for i in range(len(words) - 2)}


def q_minhash_estimate_error(sf_dir: str):
    """MinHash ACCURACY audit: for each (document, document+' appended')
    pair, the 16-permutation MinHash Jaccard ESTIMATE (fraction of salted
    min-hashes that agree) next to the exact word-3gram Jaccard and the
    absolute error — the estimator-calibration table a dedup pipeline uses
    to pick its signature width.  Unlike the production MinHash (numpy
    universal hashing), this estimator's hash is the md5 bridge
    (``int.from_bytes(md5(f"{salt}|{gram}")[:8], 'little')`` ==
    ``md5_number_upper``), so DuckDB recomputes the SIGNATURES themselves —
    the estimate is value-checked, not just the machinery.  Scale shape:
    the perturbed partner derives from the row's own text, so the whole
    audit is one stateless scan — zero shuffles.  Float contract:
    est = eq/16 (dyadic), exact = int/int, err = one double subtract —
    all bit-identical."""
    import hashlib

    K = 16
    salts = [f"{i}|".encode() for i in range(K)]

    def sig(grams: set[str]) -> list[int]:
        mins = [None] * K
        for g in grams:
            gb = g.encode("utf-8", "replace")
            for i in range(K):
                h = int.from_bytes(hashlib.md5(salts[i] + gb).digest()[:8], "little")
                if mins[i] is None or h < mins[i]:
                    mins[i] = h
        return mins

    def audit(batch: pa.Table) -> pa.Table:
        _assert_id_headroom(batch["doc_id"])
        lefts, rights, exacts, ests, errs = [], [], [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ta = text or ""
            tb = ta + " appended"
            ga, gb = _gram_strings(ta), _gram_strings(tb)
            # exact Jaccard from the SAME gram sets the signatures hash
            # (space-joined grams are injective over space-split words, so
            # this equals word_ngram_jaccard's tuple-set definition)
            if not ga and not gb:
                exact = 1.0
            else:
                union = len(ga | gb)
                exact = len(ga & gb) / union if union else 1.0
            if ga and gb:
                sa, sb = sig(ga), sig(gb)
                est = sum(1 for x, y in zip(sa, sb) if x == y) / K
            else:
                est = 1.0 if (not ga and not gb) else 0.0
            lefts.append(doc_id)
            rights.append(doc_id + _PERTURB_ID_OFFSET)
            exacts.append(exact)
            ests.append(est)
            errs.append(abs(est - exact))
        return pa.table(
            {
                "left": pa.array(lefts, pa.int64()),
                "right": pa.array(rights, pa.int64()),
                "ngram_jaccard": pa.array(exacts, pa.float64()),
                "est_jaccard": pa.array(ests, pa.float64()),
                "abs_err": pa.array(errs, pa.float64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        audit, batch_format="pyarrow"
    )


def q_doc_containment(sf_dir: str):
    """Broder CONTAINMENT (the asymmetric near-dup metric: how much of A's
    gram set lies inside B — detects quotes/inclusion where Jaccard stays
    low): C = |G(half) ∩ G(full)| / |G(half)| for each (document,
    first-half-of-document) pair, resolved through the distributed
    ``pair_text_metric`` two-pass hash join (corpus ships ×1, no driver
    text state).  Convention: empty half-gram set → 1.0 (vacuous
    containment), mirrored in SQL.  Exact int/int division — bit-identical
    doubles, no rounding."""
    from ..functions.dedup import pair_text_metric

    base = _read_spread(sf_dir, "documents", ["doc_id", "text"])

    def halved(batch: pa.Table) -> pa.Table:
        _assert_id_headroom(batch["doc_id"])
        ids = batch["doc_id"].to_pylist()
        texts = [t or "" for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": pa.array(
                    ids + [d + _PERTURB_ID_OFFSET for d in ids], pa.int64()
                ),
                "text": pa.array(
                    texts + [t[: len(t) // 2] for t in texts], pa.string()
                ),
            }
        )

    corpus = base.map_batches(halved, batch_format="pyarrow")

    def to_pairs(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "left": pa.array([d + _PERTURB_ID_OFFSET for d in ids], pa.int64()),
                "right": pa.array(ids, pa.int64()),
            }
        )

    def containment(a: str, b: str) -> float:
        ga, gb = _gram_strings(a), _gram_strings(b)
        if not ga:
            return 1.0
        return len(ga & gb) / len(ga)

    pairs = base.map_batches(to_pairs, batch_format="pyarrow")
    return pair_text_metric(
        pairs,
        corpus,
        containment,
        out_col="containment",
    )


def q_events_path_trigrams(sf_dir: str):
    """Order-2 user-path mining: the 20 most common 3-step event-type
    sequences (A>B>C over consecutive events of the same user) — the
    behavioral-pattern table behind funnel discovery and next-k-step
    prediction.  Scale shape: the sessionization partitioning contract —
    user timelines co-locate via ONE co-group on user_id; each folded
    block sorts once and folds its windows to per-path partial counts, a tiny
    grouped sum merges them (path cardinality ≤ |types|³), and the sort +
    limit runs on that small table.  Order contract: (ts, event_id) — a
    TOTAL order, identical on both engines under timestamp ties."""

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g, start = _timeline(group, ["us", "event_id"])
        types = g["event_type"].to_numpy()
        ok = ~start[2:] & ~start[1:-1]  # three consecutive events of one user
        paths = types[:-2][ok] + ">" + types[1:-1][ok] + ">" + types[2:][ok]
        return pd.DataFrame({"path": paths}).groupby("path", as_index=False).size().rename(columns={"size": "n_p"})

    return (
        group_agg(
            cogroup(
                _events(sf_dir, ["event_id", "user_id", "event_type"]),
                "user_id",
                fold_bucket,
                {"path": pa.string(), "n_p": pa.int64()},
            ),
            "path",
            n_paths=("sum", "n_p"),
        )
        .sort(["n_paths", "path"], descending=[True, False])
        .limit(20)
    )


_FK_EDGES = (
    # (edge label, child table, child key col, parent table, parent key col)
    ("lineitem.l_orderkey->orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem.l_partkey->part", "lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem.l_suppkey->supplier", "lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("orders.o_custkey->customer", "orders", "o_custkey", "customer", "c_custkey"),
    ("customer.c_nationkey->nation", "customer", "c_nationkey", "nation", "n_nationkey"),
    ("supplier.s_nationkey->nation", "supplier", "s_nationkey", "nation", "n_nationkey"),
    ("nation.n_regionkey->region", "nation", "n_regionkey", "region", "r_regionkey"),
)


# parent-table row bound up to which an integrity audit broadcasts the
# parent's key set instead of co-grouping it with the child
_BROADCAST_KEYS_MAX = 5_000_000


def q_referential_orphans(sf_dir: str):
    """Referential-integrity audit over every foreign-key edge in the star
    schema: per edge, total child rows and ORPHAN rows (child key with no
    parent) — the data-quality gate a warehouse load runs before exposing
    a snapshot.

    Scale shape: every parent here is a DIMENSION table, so its distinct
    key set broadcasts once (`ray.put` a sorted int64 array; orders, the
    largest, is ~8 B/key) and the fact side folds per-batch
    (rows, orphans) SCALARS with a vectorized ``np.isin`` — no all-to-all
    anywhere, one tiny Sum per edge.  The path is chosen before any key is
    read: a parent whose parquet footers count more than
    ``_BROADCAST_KEYS_MAX`` rows (5M; rows bound distinct keys) takes a
    co-group on the key (orphan partial per folded block) — the documented
    big-parent path, whose keys never reach the driver.  The 7 edges
    execute concurrently (driver threads, one streaming pipeline each);
    serial co-grouped execution paid 10.9 s at sf0.1/32 cpus,
    broadcast+threads ~2 s."""
    from concurrent.futures import ThreadPoolExecutor

    from ray.data.aggregate import Sum

    from ..pipelines.deid import _warm_fsspec_http_probe

    _warm_fsspec_http_probe()  # concurrent pipelines: Ray's per-read fsspec
    # probe import races across threads when aiohttp is absent
    import ray as _ray

    def parent_key_array(parent: str, pkey: str) -> np.ndarray:
        parts = (
            _read(sf_dir, parent, [pkey])
            .map_batches(
                lambda b, pkey=pkey: pa.table(
                    {"key": pc.unique(pc.drop_null(b[pkey])).cast(pa.int64())}
                ),
                batch_format="pyarrow",
            )
            .take_all()
        )
        return np.unique(np.array([r["key"] for r in parts], dtype=np.int64))

    def orphans_broadcast(child: str, ckey: str, keys: np.ndarray) -> tuple[int, int]:
        ref = _ray.put(keys)  # one object-store copy, read by every task

        def partial(batch: pa.Table) -> pa.Table:
            pk = _ray.get(ref)
            col = batch[ckey]
            n_null = col.null_count
            vals = pc.drop_null(col).to_numpy(zero_copy_only=False).astype(np.int64)
            orphan = int(n_null) + int((~np.isin(vals, pk)).sum())
            return pa.table(
                {
                    "rows_p": pa.array([batch.num_rows], pa.int64()),
                    "orphans_p": pa.array([orphan], pa.int64()),
                }
            )

        agg = (
            _read(sf_dir, child, [ckey])
            .map_batches(partial, batch_format="pyarrow")
            .aggregate(Sum("rows_p", alias_name="r"), Sum("orphans_p", alias_name="o"))
        )
        if not agg:
            return 0, 0
        return int(agg["r"] or 0), int(agg["o"] or 0)

    def orphans_cogrouped(child: str, ckey: str, parent: str, pkey: str) -> tuple[int, int]:
        cds = _read(sf_dir, child, [ckey])
        pds = _read(sf_dir, parent, [pkey])

        def child_partials(batch: pa.Table) -> pa.Table:
            # NULL FK values are definitionally orphans: one null-key row
            # that matches no parent key
            n_null = batch[ckey].null_count
            vc = pc.value_counts(pc.drop_null(batch[ckey]))
            keys = vc.field("values").cast(pa.int64())
            cnts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
            if n_null:
                keys = pa.concat_arrays([keys, pa.nulls(1, pa.int64())])
                cnts = np.concatenate([cnts, [int(n_null)]])
            return pa.table({"key": keys, "cnt": pa.array(cnts, pa.int64())})

        def parent_keys(batch: pa.Table) -> pa.Table:
            return pa.table({"key": pc.unique(pc.drop_null(batch[pkey]))})

        def orphan_partial(children: pd.DataFrame, parents: pd.DataFrame) -> pd.DataFrame | None:
            if children.empty:
                return None
            orphan = children.loc[~children["key"].isin(parents["key"]), "cnt"].sum()
            return pd.DataFrame({"rows_p": [children["cnt"].sum()], "orphans_p": [orphan]})

        agg = cogroup(
            [
                cds.map_batches(child_partials, batch_format="pyarrow"),
                pds.map_batches(parent_keys, batch_format="pyarrow"),
            ],
            "key",
            orphan_partial,
            {"rows_p": pa.int64(), "orphans_p": pa.int64()},
        ).aggregate(Sum("rows_p", alias_name="r"), Sum("orphans_p", alias_name="o"))
        if not agg:
            return 0, 0
        return int(agg["r"] or 0), int(agg["o"] or 0)

    def orphans_for(edge) -> tuple[int, int]:
        _label, child, ckey, parent, pkey = edge
        if _rows(sf_dir, parent) > _BROADCAST_KEYS_MAX:  # footers only: rows bound distinct keys
            return orphans_cogrouped(child, ckey, parent, pkey)
        return orphans_broadcast(child, ckey, parent_key_array(parent, pkey))

    with ThreadPoolExecutor(max_workers=len(_FK_EDGES)) as ex:
        results = list(ex.map(orphans_for, _FK_EDGES))
    return pa.table(
        {
            "edge": pa.array([e[0] for e in _FK_EDGES], pa.string()),
            "n_child_rows": pa.array([r for r, _ in results], pa.int64()),
            "n_orphans": pa.array([o for _, o in results], pa.int64()),
        }
    )


def q_events_rolling_zscore(sf_dir: str):
    """Rolling anomaly detection: per user, the z-score of each event's
    value against its trailing 10-event window (current + 9 preceding) —
    the streaming outlier flag behind fraud/alerting pipelines.  Only
    FULL windows score (the 10th event per user onward).  Scale shape:
    the sessionization contract again — user timelines co-group once on
    user_id, each folded block sorts and computes rolling int64
    cent-sums via two cumulative arrays (no per-row Python loop).  Float
    contract: value is 2dp → cents = round(value·100) is exact int64;
    z = (10·c − s) / sqrt((10·ss − s²) / 9.0) evaluates the identical
    op chain on exact ints on both engines (one div, one sqrt, one div),
    rounded to 6dp; zero-variance windows yield NULL z and anomaly=false
    on both."""
    W = 10

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g, start = _timeline(group, ["us", "event_id"])
        c = _cents(g["value"])
        eid = g["event_id"].to_numpy(dtype=np.int64)
        # int64-safe: cents ≤ ~10^5 → cents² ≤ 10^10, cumsum ≤ 10^15
        n = len(g)
        cs = np.concatenate(([0], np.cumsum(c)))
        cs2 = np.concatenate(([0], np.cumsum(c * c)))
        # each row's user start: the running maximum of the start positions
        pos = np.arange(n)
        first = np.maximum.accumulate(np.where(start, pos, 0))
        idx = np.nonzero(pos - first + 1 >= W)[0]
        s = cs[idx + 1] - cs[idx + 1 - W]
        ss = cs2[idx + 1] - cs2[idx + 1 - W]
        num = W * c[idx] - s
        rad = W * ss - s * s
        zero = rad == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.round(num / np.sqrt(rad / 9.0), 6)
        z[zero] = np.nan
        anomaly = np.zeros(len(idx), dtype=bool)
        anomaly[~zero] = np.abs(z[~zero]) > 3.0
        return pd.DataFrame({"event_id": eid[idx], "z": z, "is_anomaly": anomaly})

    return cogroup(
        _events(sf_dir, ["event_id", "user_id", "value"]),
        "user_id",
        fold_bucket,
        {"event_id": pa.int64(), "z": pa.float64(), "is_anomaly": pa.bool_()},
    )


def q_supplier_nation_name_match(sf_dir: str):
    """Entity resolution to a reference dictionary: each supplier name
    matched to its most Jaro-Winkler-similar nation name (the free-text →
    canonical-entity linking shape; here the dictionary is the nation
    list).  Scale shape: the dictionary broadcasts in the task closure
    (25 names) and each batch scores locally — zero shuffles; at a real
    dictionary size the same stage holds a per-actor automaton/index.
    Float contract: `jaro_winkler` is fuzz-tested BIT-IDENTICAL to
    DuckDB's `jaro_winkler_similarity` (same empty-string and single-char
    conventions); argmax ranks on the 6dp-rounded score with an n_name
    tie-break on both engines."""
    from ..functions.textstats import jaro_winkler

    names = [
        r["n_name"]
        for r in _read(sf_dir, "nation", ["n_name"]).take_all()
    ]
    names.sort()

    def match(batch: pa.Table) -> pa.Table:
        keys, bests, scores = [], [], []
        for skey, sname in zip(
            batch["s_suppkey"].to_pylist(), batch["s_name"].to_pylist()
        ):
            best_name, best_score = None, -1.0
            for nname in names:
                sc = round(jaro_winkler(sname or "", nname), 6)
                if sc > best_score:
                    best_name, best_score = nname, sc
            keys.append(skey)
            bests.append(best_name)
            scores.append(best_score)
        return pa.table(
            {
                "s_suppkey": pa.array(keys, pa.int64()),
                "best_nation": pa.array(bests, pa.string()),
                "jw": pa.array(scores, pa.float64()),
            }
        )

    return _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).map_batches(
        match, batch_format="pyarrow"
    )


def q_kmeans_spherical(sf_dir: str):
    """Spherical k-means over the embedding table — 3 Lloyd rounds with
    K=8 centroids seeded from vec_id 0..7 (the iterative-ML clustering
    shape; SemDeDup/IVF partitioning both start exactly here).  Round =
    assign every vector to its most-cosine-similar centroid, then replace
    each centroid with its members' component SUM (direction only —
    spherical assignment is scale-invariant, so no mean division drifts);
    empty clusters keep their previous centroid.  Scale shape per round:
    centroids broadcast via ``ray.put`` (K×dim floats), one stateless scan
    folds per-batch per-cluster component-sum/count partials (≤K tiny rows
    per block), the driver merges the sketch-sized partials — the
    embedding matrix never shuffles, and rounds are sequential scans, not
    iterated shuffles.  Output: per-cluster member count and vec_id sum
    after the 3rd assignment (exact ints).  Float contract: assignment
    ranks 6dp-ROUNDED cosines with a centroid-id tie-break on both
    engines (ULP-level summation drift sits ~1e-9 under the grid);
    the oracle unrolls the 3 rounds as chained CTEs (the PageRank-style
    iterative mirror)."""
    import ray
    import ray.data as rd

    from ..functions.simsearch import _vec_matrix

    K, ROUNDS = 8, 3
    seed_rows = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filter=(pc.field("vec_id") < K),
    ).take_all()
    seed_rows.sort(key=lambda r: r["vec_id"])
    cmat = np.array([r["embedding"] for r in seed_rows], dtype=np.float64)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def assign_partials(batch: pa.Table, cm: np.ndarray) -> pa.Table:
        mat = _vec_matrix(batch["embedding"]).astype(np.float64)
        vn = np.linalg.norm(mat, axis=1)
        vn[vn == 0.0] = 1.0
        cn = np.linalg.norm(cm, axis=1)
        cn[cn == 0.0] = 1.0
        cos = np.round((mat @ cm.T) / np.outer(vn, cn), 6)
        assign = np.argmax(cos, axis=1)  # first max == smallest cid tie-break
        ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        cids, ns, idsums, sums = [], [], [], []
        for cid in np.unique(assign):
            member = assign == cid
            cids.append(int(cid))
            ns.append(int(member.sum()))
            idsums.append(int(ids[member].sum()))
            sums.append(mat[member].sum(axis=0).tolist())
        return pa.table(
            {
                "cid": pa.array(cids, pa.int64()),
                "n_p": pa.array(ns, pa.int64()),
                "idsum_p": pa.array(idsums, pa.int64()),
                "s": pa.array(sums, pa.list_(pa.float64())),
            }
        )

    folded: dict[int, tuple[int, int, np.ndarray]] = {}
    for _ in range(ROUNDS):
        ref = ray.put(cmat)

        def partial(batch: pa.Table, _ref=ref) -> pa.Table:
            return assign_partials(batch, ray.get(_ref))

        folded = {}
        for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
            cid = int(row["cid"])
            n, idsum, s = folded.get(cid, (0, 0, 0.0))
            folded[cid] = (
                n + int(row["n_p"]),
                idsum + int(row["idsum_p"]),
                s + np.asarray(row["s"], dtype=np.float64),
            )
        new_cmat = cmat.copy()
        for cid, (_, _, s) in folded.items():
            new_cmat[cid] = s
        cmat = new_cmat

    clusters = sorted(folded)
    return pa.table(
        {
            "cluster": pa.array(clusters, pa.int64()),
            "n_members": pa.array([folded[c][0] for c in clusters], pa.int64()),
            "id_sum": pa.array([folded[c][1] for c in clusters], pa.int64()),
        }
    )


def q_lang_confusion_matrix(sf_dir: str):
    """Language-ID evaluation: the (labeled lang × predicted lang)
    confusion matrix over the corpus — the quality gate for the n-gram
    langid heuristic itself.  Scale shape: stateless per-row prediction,
    then one tiny pair-keyed grouped count (≤|langs|² partial rows per
    block)."""
    from ..functions.textstats import lang_id

    def predict(batch: pa.Table) -> pa.Table:
        predicted = [lang_id(text or "") for text in batch["text"].to_pylist()]
        return pa.table({"actual": batch["lang"], "predicted": pa.array(predicted, pa.string())})

    return group_agg(
        _read(sf_dir, "documents", ["lang", "text"]).map_batches(predict, batch_format="pyarrow"),
        ["actual", "predicted"],
        n_docs=("count",),
    )


def q_nb_lang_confusion(sf_dir: str):
    """Distributed multinomial Naive-Bayes language classifier — trained
    AND applied over the documents table (add-one smoothing over word
    unigrams, doc-count priors), reported as the (true lang × predicted
    lang) confusion matrix.  A supervised classifier train+apply as ONE
    Ray Data flow.

    Scale shape — no O(vocabulary) state leaves the workers: train and
    score share one co-group on the term (every row of a term is
    co-resident, so the block-local per-(term, lang) sum IS the global
    count and per-doc score partials Σ n·ln(c+1) emit from the same
    fold).  The unseen-word case is algebraically eliminated:

        score_l = ln(docs_l/N) − T_doc·ln(n_tok_l + v_l) + Σ_w n_w·ln(c_{w,l}+1)

    since ln(0+1) = 0, only per-lang-SEEN terms contribute — the smoothing
    denominator folds into one per-lang constant.  Per-lang constants
    (token totals, vocab sizes) reduce from tiny per-block stat rows; the
    doc-level fold + argmax run in a co-group on the doc that also
    folds the confusion counts map-side, so the final exchange is ≤|langs|²
    rows.  Float contract: the argmax ranks 6dp-ROUNDED scores with a
    lang-ascending tie-break on both engines (the per-term doubles are
    bit-identical; only summation order drifts, absorbed by the grid —
    the trigram_lm_nll contract)."""
    import math

    langrows = group_agg(_read(sf_dir, "documents", ["lang"]), "lang", n=("count",)).take_all()
    docs_l = {r["lang"]: int(r["n"]) for r in langrows}
    langs = sorted(docs_l)
    total_docs = sum(docs_l.values())
    scols = [f"s_{i}" for i in range(len(langs))]

    def doc_terms(batch: pa.Table) -> pa.Table:
        out_doc, out_lang, out_term, out_n = [], [], [], []
        for doc_id, lang, text in zip(
            batch["doc_id"].to_pylist(),
            batch["lang"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            for term, n in Counter((text or "").lower().split()).items():
                out_doc.append(doc_id)
                out_lang.append(lang)
                out_term.append(term)
                out_n.append(n)
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "lang": pa.array(out_lang, pa.string()),
                "term": pa.array(out_term, pa.string()),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    def train_and_score(g: pd.DataFrame) -> pd.DataFrame:
        # block-local model: c per (term, lang) — exact global counts,
        # because a term's rows all land in this block
        model = g.groupby(["term", "lang"], sort=False)["n"].sum()
        wide = model.unstack("lang").reindex(columns=langs)
        lnc = np.log(wide.fillna(0.0).to_numpy(dtype=np.float64) + 1.0)
        term_idx = {t: i for i, t in enumerate(wide.index)}
        ti = g["term"].map(term_idx).to_numpy()
        contrib = lnc[ti] * g["n"].to_numpy(dtype=np.float64)[:, None]
        tmp = pd.DataFrame(contrib, columns=scols)
        tmp["doc_id"] = g["doc_id"].to_numpy()
        tmp["lang"] = g["lang"].to_numpy()
        tmp["t_part"] = g["n"].to_numpy(dtype=np.int64)
        agg = (
            tmp.groupby(["doc_id", "lang"], sort=False)[["t_part"] + scols]
            .sum()
            .reset_index()
        )
        # per-lang model stats as two sentinel rows (ints ≤ 2^53, exact in
        # float64): doc_id −1 → Σc (token totals), −2 → vocab sizes
        n_tok_p = model.groupby(level="lang").sum().reindex(langs).fillna(0)
        v_p = model.groupby(level="lang").size().reindex(langs).fillna(0)
        stats = pd.DataFrame(
            {
                "doc_id": [-1, -2],
                "lang": ["", ""],
                "t_part": [0, 0],
                **{c: [float(n_tok_p.iloc[i]), float(v_p.iloc[i])] for i, c in enumerate(scols)},
            }
        )
        return pd.concat([agg, stats], ignore_index=True)

    staged = cogroup(
        _read(sf_dir, "documents", ["doc_id", "lang", "text"]).map_batches(
            doc_terms, batch_format="pyarrow"
        ),
        "term",
        train_and_score,
        {
            "doc_id": pa.int64(),
            "lang": pa.string(),
            "t_part": pa.int64(),
            **{c: pa.float64() for c in scols},
        },
    ).materialize()

    def keep_stats(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["doc_id"], 0))

    n_tok = np.zeros(len(langs))
    v = np.zeros(len(langs))
    for row in staged.map_batches(keep_stats, batch_format="pyarrow").take_all():
        tgt = n_tok if row["doc_id"] == -1 else v
        for i, c in enumerate(scols):
            tgt[i] += row[c]
    prior = np.array([math.log(docs_l[l] / total_docs) for l in langs])
    lnden = np.log(n_tok + v)

    def keep_docs(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["doc_id"], 0))

    def fold_and_argmax(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["doc_id", "lang"], sort=False)[["t_part"] + scols].sum()
        T = agg["t_part"].to_numpy(dtype=np.float64)
        s = agg[scols].to_numpy(dtype=np.float64)
        scores = np.round(prior[None, :] - T[:, None] * lnden[None, :] + s, 6)
        # argmax picks the FIRST max → langs ascending = the tie-break
        pred = np.argmax(scores, axis=1)
        out = pd.DataFrame(
            {
                "lang": agg.index.get_level_values("lang"),
                "nb_pred": [langs[p] for p in pred],
            }
        )
        return out.groupby(["lang", "nb_pred"], sort=False).size().reset_index(name="n_p")

    return group_agg(
        cogroup(
            staged.map_batches(keep_docs, batch_format="pyarrow"),
            "doc_id",
            fold_and_argmax,
            {"lang": pa.string(), "nb_pred": pa.string(), "n_p": pa.int64()},
        ),
        ["lang", "nb_pred"],
        n=("sum", "n_p"),
    )


def q_chi2_term_lang(sf_dir: str):
    """Chi-square term–class feature selection: top-20 (term, lang) pairs
    by the χ² statistic of the 2×2 presence/class contingency table —
    the classic supervised feature-selection step for quality/domain
    classifiers over a training corpus.

    Scale shape: per-batch document-frequency partials (term presence ×
    lang) fold map-side, ONE co-group on the term co-locates each
    term's df row set (block-local sums are exact global df counts —
    the tfidf/nb co-group pattern), χ² is computed per cell from EXACT
    Python-int sufficient statistics (N·(ad−bc)² overflows int64/float64
    at corpus scale; the cell count is ∝ vocabulary, not corpus, so the
    per-cell loop is off the hot path), and each folded block prunes to
    its local top-20 before the tiny global sort — the final exchange is
    ≤ blocks×20 rows.  Float contract: ONE division float(num)/float(den)
    over exact ints, mirrored as CAST(HUGEINT AS DOUBLE)/CAST(... AS
    DOUBLE) in SQL (operands rounded to double first on both engines);
    ranking uses the raw identical doubles with (term, lang) tie-break."""
    langrows = group_agg(_read(sf_dir, "documents", ["lang"]), "lang", n=("count",)).take_all()
    n_l = {r["lang"]: int(r["n"]) for r in langrows}
    langs = sorted(n_l)
    n_total = sum(n_l.values())

    def presence_partials(batch: pa.Table) -> pa.Table:
        cnt: Counter = Counter()
        for lang, text in zip(batch["lang"].to_pylist(), batch["text"].to_pylist()):
            for w in set((text or "").lower().split()):
                cnt[(w, lang)] += 1
        keys = list(cnt)
        return pa.table(
            {
                "term": pa.array([k[0] for k in keys], pa.string()),
                "lang": pa.array([k[1] for k in keys], pa.string()),
                "a_p": pa.array([cnt[k] for k in keys], pa.int64()),
            }
        )

    def chi2_topk(g: pd.DataFrame) -> pd.DataFrame:
        a_tl = g.groupby(["term", "lang"], sort=False)["a_p"].sum()
        wide = a_tl.unstack("lang").reindex(columns=langs).fillna(0).astype("int64")
        best: list[tuple[float, str, str]] = []
        for term, row in zip(wide.index, wide.to_numpy()):
            dft = int(row.sum())
            for lang, a_np in zip(langs, row):
                a = int(a_np)
                b = dft - a
                c = n_l[lang] - a
                d = n_total - n_l[lang] - b
                den = (a + b) * (c + d) * (a + c) * (b + d)
                num = n_total * (a * d - b * c) ** 2
                chi2 = float(num) / float(den) if den else 0.0
                best.append((chi2, term, lang))
        best.sort(key=lambda x: (-x[0], x[1], x[2]))
        return pd.DataFrame(best[:20], columns=["chi2_raw", "term", "lang"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "term": batch["term"],
                "lang": batch["lang"],
                "chi2": pa.array(
                    np.round(batch["chi2_raw"].to_numpy(zero_copy_only=False), 6),
                    pa.float64(),
                ),
            }
        )

    return (
        cogroup(
            _read(sf_dir, "documents", ["lang", "text"]).map_batches(
                presence_partials, batch_format="pyarrow"
            ),
            "term",
            chi2_topk,
            {"term": pa.string(), "lang": pa.string(), "chi2_raw": pa.float64()},
        )
        .sort(["chi2_raw", "term", "lang"], descending=[True, False, False])
        .limit(20)
        .map_batches(finish, batch_format="pyarrow")
    )


def q_k_anonymity_audit(sf_dir: str):
    """k-anonymity / l-diversity audit — the release-side privacy gate of
    a de-identification pipeline: customers generalize to quasi-identifier
    classes (nation, market segment, 1000-unit balance band); the report
    is the anonymity spectrum — for each class size k: how many classes,
    how many rows sit at that exposure level, and the minimum l-diversity
    (distinct sensitive values, here exact balance cents) among them.

    Scale shape: per-batch pandas fold to distinct (QI, sensitive) partial
    counts (rows shrink to the class structure before any exchange), ONE
    co-group on the QI class makes class sizes exact, per-block histogram
    fold, final ≤|k-values| grouped merge.  All-integer: cents via the
    exact-int money contract, band = floor(cents/100000) mirrored as
    floor(CAST AS DOUBLE / 100000) (quotients ≲1e7 are exact doubles)."""

    def class_partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        cents = np.round(df["c_acctbal"].to_numpy() * 100).astype(np.int64)
        df = pd.DataFrame(
            {
                "nat": df["c_nationkey"].astype("int64"),
                "seg": df["c_mktsegment"],
                "band": cents // 100000,
                "cents": cents,
            }
        )
        folded = df.groupby(["nat", "seg", "band", "cents"], sort=False).size().reset_index(name="n_p")
        folded["n_p"] = folded["n_p"].astype("int64")
        return _strip_meta(pa.Table.from_pandas(folded, preserve_index=False))

    def spectrum_fold(g: pd.DataFrame) -> pd.DataFrame:
        # rows are (QI, cents) partials; a QI class is fully co-resident
        per = g.groupby(["nat", "seg", "band"], sort=False).agg(
            k=("n_p", "sum"), l=("cents", "nunique")
        )
        hist = per.groupby("k").agg(
            n_classes_p=("l", "size"), min_l_p=("l", "min")
        )
        hist["n_rows_p"] = hist.index.to_numpy() * hist["n_classes_p"].to_numpy()
        return hist.reset_index()

    return group_agg(
        cogroup(
            _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment", "c_acctbal"]).map_batches(
                class_partials, batch_format="pyarrow"
            ),
            ["nat", "seg", "band"],
            spectrum_fold,
            {
                "k": pa.int64(),
                "n_classes_p": pa.int64(),
                "n_rows_p": pa.int64(),
                "min_l_p": pa.int64(),
            },
        ),
        "k",
        n_classes=("sum", "n_classes_p"),
        n_rows=("sum", "n_rows_p"),
        min_l=("min", "min_l_p"),
    )


def _levenshtein(a: str, b: str) -> int:
    """Full edit distance, hypothesis-pinned bit-identical to DuckDB's
    ``levenshtein`` (the oracle function for the alignment operators)."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def q_events_funnel_conformance(sf_dir: str):
    """Sequence-alignment funnel conformance: each user's first-20 event
    path (type initials, (ts, event_id)-ordered) aligned against the ideal
    signup→view→click→purchase funnel by FULL Levenshtein distance,
    reported as a distance histogram — the behavioral-cohort metric
    sessionization/funnel counts can't express (it scores HOW FAR each
    journey deviates, not just whether steps completed in order).

    Scale shape: one co-group on user_id (a user's events are
    co-resident, so the head-20 cut and path build are exact), the O(20·4)
    DP runs per user inside the fold, and per-block histogram partials
    make the final exchange ≤|distinct distances| rows.  All-integer —
    DuckDB's levenshtein is the oracle."""
    target = "svcp"
    lev = _levenshtein

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts_us": batch["ts"].cast(pa.int64()),
                "event_id": batch["event_id"],
                "c": pa.array(
                    [(t or "?")[0] for t in batch["event_type"].to_pylist()],
                    pa.string(),
                ),
            }
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        hist: Counter = Counter()
        # kept per user: each user's head-20 path is one Levenshtein DP, not
        # an ordered scan a start mask could vectorize
        for _, sub in g.groupby("user_id", sort=False):
            path = "".join(sub["c"].iloc[:20])
            hist[lev(path, target)] += 1
        return pd.DataFrame({"dist": list(hist.keys()), "n_p": list(hist.values())})

    return group_agg(
        cogroup(
            _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"]).map_batches(
                project, batch_format="pyarrow"
            ),
            "user_id",
            fold,
            {"dist": pa.int64(), "n_p": pa.int64()},
        ),
        "dist",
        n_users=("sum", "n_p"),
    )


def q_lang_jsd_divergence(sf_dir: str):
    """Jensen–Shannon divergence between the en and de word distributions
    — the corpus-drift / domain-shift metric (symmetric, bounded KL):
    JSD = ½Σ p·ln(2p/(p+q)) + ½Σ q·ln(2q/(p+q)) over unigram frequencies.

    Scale shape: per-batch (word, side) count partials fold map-side; the
    word rows (vocabulary-bounded, not corpus-bounded) materialize once —
    token totals reduce from them with one tiny aggregate, and a co-group
    on the word makes per-word counts exact while emitting ONE float
    partial per folded block.  Float contract: each per-word term is the
    identical int/int-division → ln chain on both engines; only summation
    order drifts, absorbed by the 6dp round."""
    import math

    from ray.data.aggregate import Sum

    def word_partials(batch: pa.Table) -> pa.Table:
        a: Counter = Counter()
        b: Counter = Counter()
        for lang, text in zip(batch["lang"].to_pylist(), batch["text"].to_pylist()):
            if lang == "en":
                a.update((text or "").lower().split())
            elif lang == "de":
                b.update((text or "").lower().split())
        words = sorted(set(a) | set(b))
        return pa.table(
            {
                "w": pa.array(words, pa.string()),
                "c1_p": pa.array([a.get(w, 0) for w in words], pa.int64()),
                "c2_p": pa.array([b.get(w, 0) for w in words], pa.int64()),
            }
        )

    wrows = (
        _read(sf_dir, "documents", ["lang", "text"])
        .map_batches(word_partials, batch_format="pyarrow")
        .materialize()
    )
    tot = wrows.aggregate(Sum("c1_p", alias_name="n1"), Sum("c2_p", alias_name="n2"))
    n1, n2 = int(tot["n1"]), int(tot["n2"])

    def bucket_jsd(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby("w", sort=True)[["c1_p", "c2_p"]].sum()  # block-complete
        s = 0.0
        for c1, c2 in zip(per["c1_p"], per["c2_p"]):
            p = c1 / n1
            q = c2 / n2
            if c1 > 0:
                s += 0.5 * (p * math.log(2.0 * p / (p + q)))
            if c2 > 0:
                s += 0.5 * (q * math.log(2.0 * q / (p + q)))
        return pd.DataFrame({"jsd_p": [s]})

    jsd = 0.0
    for r in cogroup(wrows, "w", bucket_jsd, {"jsd_p": pa.float64()}).take_all():
        jsd += float(r["jsd_p"])
    return pa.table(
        {
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "jsd": pa.array([round(jsd, 6)], pa.float64()),
        }
    )


def q_incremental_refresh(sf_dir: str):
    """Incremental corpus refresh END-TO-END — the operational composite a
    long-lived 100-TB corpus actually runs between snapshots: diff the new
    snapshot against the catalog (v2 derives deterministically: %10==3
    dropped, ==4 rewritten, ==5 cloned-new, ==6 cloned as an EXACT
    duplicate), reprocess ONLY the changed/added docs, exact-dedup them
    against the unchanged catalog, quality-gate the survivors, and report
    every attrition counter.

    Scale shape: ONE pass over the corpus, ONE shuffle — the classify map
    emits catalog rows as md5 hashes ONLY (never text) and changed/new
    docs with their text; a co-group on the text hash then dedups (equal
    hashes are co-resident) and quality-scores the appended docs in place,
    folding ALL counters into per-block partials, so the final exchange is
    ≤ blocks×9 metric rows.  The incremental point is
    the data movement: unchanged docs ship 40 bytes each, only the ~20%%
    changed slice ships text."""
    import hashlib

    from ..functions.textstats import quality_score

    def classify(batch: pa.Table) -> pa.Table:
        side: list[int] = []
        hh: list[str] = []
        text: list[str] = []

        def emit(s: int, t: str | None) -> None:
            side.append(s)
            if s == 2:  # removed: counter-only row
                hh.append("")
                text.append("")
                return
            digest = hashlib.md5((t or "").encode()).hexdigest()
            hh.append(digest)
            text.append("" if s == 0 else (t or ""))

        for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            t = t or ""
            m = i % 10
            if m == 3:
                emit(2, None)  # dropped from v2
                continue
            if m == 4:
                emit(3, t + " v2")  # modified → reprocess (v1 text leaves
                continue  # the catalog: it is superseded, not unchanged)
            emit(0, t)  # unchanged catalog text (hash only)
            if m == 5:
                emit(4, t + " new")  # new unique doc
            elif m == 6:
                emit(4, t)  # new EXACT duplicate of a catalog doc
        return pa.table(
            {
                "side": pa.array(side, pa.int8()),
                "hh": pa.array(hh, pa.string()),
                "text": pa.array(text, pa.string()),
            }
        )

    def refresh_fold(g: pd.DataFrame) -> pd.DataFrame:
        sides = g["side"].to_numpy()
        cat = set(g.loc[sides == 0, "hh"])
        newrows = g[(sides == 3) | (sides == 4)]
        dup = newrows["hh"].isin(cat).to_numpy()
        appended = newrows.loc[~dup, "text"]
        quality = sum(
            1 for t in appended if quality_score(t) >= 0.4 and len(t) >= 50
        )
        c = {
            "unchanged": int((sides == 0).sum()),
            "removed": int((sides == 2).sum()),
            "modified": int((sides == 3).sum()),
            "added": int((sides == 4).sum()),
            "reprocessed": int(len(newrows)),
            "dup_vs_catalog": int(dup.sum()),
            "appended": int(len(appended)),
            "quality_pass": int(quality),
        }
        c["rows_v1"] = c["unchanged"] + c["removed"] + c["modified"]
        return pd.DataFrame({"metric": list(c), "n_p": list(c.values())})

    return group_agg(
        cogroup(
            _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
                classify, batch_format="pyarrow"
            ),
            "hh",
            refresh_fold,
            {"metric": pa.string(), "n_p": pa.int64()},
        ),
        "metric",
        value=("sum", "n_p"),
    )


def q_lang_quality_ols(sf_dir: str):
    """GROUPED OLS: per-language slope of quality score vs token count —
    per-segment model fitting (does length buy quality differently per
    language?), complementing the single global regression
    (lineitem_ols).

    Scale shape: exact sufficient statistics (n, Σx, Σy₆, Σxy₆, Σx²) in
    one grouped sum of ≤|langs| rows; the slope finishes with scalar
    math.  Integer-exact: the 6dp score lifts to EXACT millionths
    (score·10⁶ is integral by construction), every moment is a bigint
    (HUGEINT in SQL — Σxy₆ overflows int64 at corpus scale), and the
    slope is ONE operands-rounded division chain (/den, /10⁶, round 6)."""
    from ..functions.textstats import quality_score, token_count

    def moments(batch: pa.Table) -> pa.Table:
        texts = [t or "" for t in batch["text"].to_pylist()]
        x = pa.array([token_count(t) for t in texts], pa.int64())
        y6 = pa.array([int(round(quality_score(t) * 1e6)) for t in texts], pa.int64())
        return pa.table(
            {"lang": batch["lang"], "x": x, "y": y6, "xy": pc.multiply(x, y6), "xx": pc.multiply(x, x)}
        )

    rows = group_agg(
        _read(sf_dir, "documents", ["lang", "text"]).map_batches(moments, batch_format="pyarrow"),
        "lang",
        n=("count",),
        sx=("sum", "x"),
        sy=("sum", "y"),
        sxy=("sum", "xy"),
        sxx=("sum", "xx"),
    ).take_all()
    langs, ns, slopes = [], [], []
    for r in sorted(rows, key=lambda r: r["lang"]):
        n, sx, sy, sxy, sxx = (int(r[k]) for k in ("n", "sx", "sy", "sxy", "sxx"))
        num = n * sxy - sx * sy
        den = n * sxx - sx * sx
        langs.append(r["lang"])
        ns.append(n)
        slopes.append(0.0 if den == 0 else round(float(num) / float(den) / 1000000.0, 6))
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "slope": pa.array(slopes, pa.float64()),
        }
    )


def q_quality_auc_en(sf_dir: str):
    """ROC-AUC of the composite quality score as a classifier for
    lang=='en' — the filter-evaluation metric (is a curation signal
    actually discriminative?), computed exactly as the tie-corrected
    Mann–Whitney statistic: AUC = (Σ r₂(positives) − n₁(n₁+1)) / (2n₁n₀)
    over DOUBLED average ranks (integral under ties).

    Scale shape: the score is discrete (a product of four factors), so
    the whole computation reduces over the (score, label) contingency
    cells — one tiny grouped count ships ≤ 2·|score values| rows per
    block, driver finishes with exact bigint rank sums
    (HUGEINT in SQL) and ONE operands-rounded division."""
    from ..functions.textstats import quality_score

    def cell(batch: pa.Table) -> pa.Table:
        s = [quality_score(t or "") for t in batch["text"].to_pylist()]
        y = [1 if lang == "en" else 0 for lang in batch["lang"].to_pylist()]
        return pa.table({"s": pa.array(s, pa.float64()), "y": pa.array(y, pa.int8())})

    cells = {
        (r["s"], int(r["y"])): int(r["c"])
        for r in (
            group_agg(
                _read(sf_dir, "documents", ["lang", "text"]).map_batches(cell, batch_format="pyarrow"),
                ["s", "y"],
                c=("count",),
            )
            .take_all()
        )
    }
    cs: Counter = Counter()
    for (s, _y), c in cells.items():
        cs[s] += c
    r2: dict[float, int] = {}
    lt = 0
    for s in sorted(cs):
        r2[s] = 2 * lt + cs[s] + 1
        lt += cs[s]
    n1 = sum(c for (_s, y), c in cells.items() if y == 1)
    n0 = sum(c for (_s, y), c in cells.items() if y == 0)
    u2 = sum(c * r2[s] for (s, y), c in cells.items() if y == 1) - n1 * (n1 + 1)
    auc = round(float(u2) / float(2 * n1 * n0), 6)
    return pa.table(
        {
            "n1": pa.array([n1], pa.int64()),
            "n0": pa.array([n0], pa.int64()),
            "auc": pa.array([auc], pa.float64()),
        }
    )


def q_events_ks_test(sf_dir: str):
    """Exact two-sample Kolmogorov–Smirnov statistic between event
    segments (purchase vs view values) — the distribution-drift test the
    t-test can't do (it compares WHOLE distributions, not means).

    Scale shape — distributed ECDF via a two-phase prefix sum, the
    pattern global sorts usually force: per-batch distinct-value count
    partials carry a RANGE id (monotone binning on the one-pass min/max
    into one range per CPU, ``_spread_blocks``), phase A folds per-range
    subtotals driver-side (≤ ranges rows — the prefix OFFSETS), phase B
    is one co-group on the range id where each range scans its sorted
    values with its offset and emits a single candidate max.
    All-integer: the sup statistic is computed as max |p1·n2 − p2·n1| in
    Python bigints (overflows int64 at corpus scale; HUGEINT in SQL) with
    ONE operands-rounded-to-double division at the end — exact, no float
    comparisons anywhere."""
    from ray.data.aggregate import Max, Min

    n_ranges = _spread_blocks()

    base = _read(sf_dir, "events", ["event_type", "value"])
    mm = base.aggregate(Min("value"), Max("value"))
    lo, hi = float(mm["min(value)"]), float(mm["max(value)"])
    span = (hi - lo) or 1.0

    def val_partials(batch: pa.Table) -> pa.Table:
        c1: Counter = Counter()
        c2: Counter = Counter()
        for t, v in zip(batch["event_type"].to_pylist(), batch["value"].to_pylist()):
            if v is None:
                continue
            if t == "purchase":
                c1[v] += 1
            elif t == "view":
                c2[v] += 1
        vals = sorted(set(c1) | set(c2))
        rb = [min(n_ranges - 1, max(0, int((v - lo) / span * n_ranges))) for v in vals]
        return pa.table(
            {
                "v": pa.array(vals, pa.float64()),
                "c1_p": pa.array([c1.get(v, 0) for v in vals], pa.int64()),
                "c2_p": pa.array([c2.get(v, 0) for v in vals], pa.int64()),
                "rb": pa.array(rb, pa.int32()),
            }
        )

    vrows = base.map_batches(val_partials, batch_format="pyarrow").materialize()

    # phase A: per-range subtotals → prefix offsets (≤ n_ranges rows on driver)
    def bucket_totals(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().groupby("rb")[["c1_p", "c2_p"]].sum().reset_index()
        return _strip_meta(pa.Table.from_pandas(df, preserve_index=False))

    t1: Counter = Counter()
    t2: Counter = Counter()
    for r in vrows.map_batches(bucket_totals, batch_format="pyarrow").take_all():
        t1[int(r["rb"])] += int(r["c1_p"])
        t2[int(r["rb"])] += int(r["c2_p"])
    n1, n2 = sum(t1.values()), sum(t2.values())
    offsets: dict[int, tuple[int, int]] = {}
    o1 = o2 = 0
    for rb in sorted(set(t1) | set(t2)):
        offsets[rb] = (o1, o2)
        o1 += t1[rb]
        o2 += t2[rb]

    def bucket_max(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby("v", sort=True)[["c1_p", "c2_p"]].sum()
        p1, p2 = offsets[int(g["rb"].iloc[0])]
        best = 0
        for c1, c2 in zip(per["c1_p"], per["c2_p"]):
            p1 += int(c1)
            p2 += int(c2)
            best = max(best, abs(p1 * n2 - p2 * n1))
        # bigint-safe transport: decimal string, parsed back on the driver
        return pd.DataFrame({"num_p": [str(best)]})

    best = 0
    for r in cogroup(vrows, "rb", each_key("rb", bucket_max), {"num_p": pa.string()}).take_all():
        best = max(best, int(r["num_p"]))
    ks = round(float(best) / float(n1 * n2), 6)
    return pa.table(
        {
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "ks_stat": pa.array([ks], pa.float64()),
        }
    )


def q_events_welch_ttest(sf_dir: str):
    """Welch's two-sample t-test between event segments (purchase vs view
    values) — the A/B-testing primitive: unequal-variance t statistic and
    Welch–Satterthwaite degrees of freedom from one-pass sufficient
    statistics (n, Σv, Σv²).

    Scale shape: the only exchange is a 2-row grouped sum of (1, v, v²); the
    driver finishes with scalar arithmetic.  Float contract: both engines
    compute the identical (ss − s²/n)/(n−1) → /n → t/df chains over the
    summed doubles; the summation-order drift (~1e-12 relative) is absorbed
    by the 6dp round (trigram_lm_nll contract)."""
    import math

    def moments(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_in(batch["event_type"], pa.array(["purchase", "view"])), pc.is_valid(batch["value"]))
        batch = batch.filter(keep)
        return batch.append_column("vv", pc.multiply(batch["value"], batch["value"]))

    rows = {
        r["event_type"]: r
        for r in (
            group_agg(
                _read(sf_dir, "events", ["event_type", "value"]).map_batches(moments, batch_format="pyarrow"),
                "event_type",
                n=("count",),
                s=("sum", "value"),
                ss=("sum", "vv"),
            )
            .take_all()
        )
    }
    r1, r2 = rows["purchase"], rows["view"]
    n1, s1, ss1 = int(r1["n"]), float(r1["s"]), float(r1["ss"])
    n2, s2, ss2 = int(r2["n"]), float(r2["s"]), float(r2["ss"])
    m1, m2 = s1 / n1, s2 / n2
    se1 = ((ss1 - s1 * s1 / n1) / (n1 - 1)) / n1
    se2 = ((ss2 - s2 * s2 / n2) / (n2 - 1)) / n2
    t = (m1 - m2) / math.sqrt(se1 + se2)
    df = (se1 + se2) ** 2 / (se1 * se1 / (n1 - 1) + se2 * se2 / (n2 - 1))
    return pa.table(
        {
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "t_stat": pa.array([round(t, 6)], pa.float64()),
            "welch_df": pa.array([round(df, 6)], pa.float64()),
        }
    )


def q_quality_len_spearman(sf_dir: str):
    """Spearman rank correlation between two per-doc quality signals
    (composite quality score × whitespace token count) — the calibration
    audit for curation-filter design (are two signals redundant?).

    Scale shape: rank statistics WITHOUT a global sort — both signals are
    discrete (the score is a product of four factors, token counts are small
    ints), so the whole computation reduces over the JOINT CONTINGENCY
    TABLE: one grouped (x, y) pair count ships ≤|X|·|Y| cells (≈150 at every
    tested sf — bounded by signal cardinality, not corpus size), and the
    driver finishes with exact Python-int sufficient statistics over doubled
    average ranks (r2 = 2·lt + cnt + 1 keeps tie-averaged ranks integral;
    n·Σr2x·r2y-style products overflow int64 at corpus scale → bigints,
    HUGEINT in SQL).  Float contract: ONE div-over-sqrt-of-product chain on
    operands each rounded to double first, 6dp output."""
    import math

    from ..functions.textstats import quality_score, token_count

    def cell(batch: pa.Table) -> pa.Table:
        texts = [t or "" for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "x": pa.array([quality_score(t) for t in texts], pa.float64()),
                "y": pa.array([token_count(t) for t in texts], pa.int64()),
            }
        )

    cells = {
        (r["x"], r["y"]): int(r["c"])
        for r in (
            group_agg(
                _read(sf_dir, "documents", ["text"]).map_batches(cell, batch_format="pyarrow"),
                ["x", "y"],
                c=("count",),
            )
            .take_all()
        )
    }

    def rank2(hist: dict) -> dict:
        out, lt = {}, 0
        for v in sorted(hist):
            out[v] = 2 * lt + hist[v] + 1
            lt += hist[v]
        return out

    cx: Counter = Counter()
    cy: Counter = Counter()
    for (x, y), c in cells.items():
        cx[x] += c
        cy[y] += c
    r2x, r2y = rank2(cx), rank2(cy)
    n = sum(cells.values())
    sx = sum(c * r2x[x] for (x, _), c in cells.items())
    sy = sum(c * r2y[y] for (_, y), c in cells.items())
    sxx = sum(c * r2x[x] ** 2 for (x, _), c in cells.items())
    syy = sum(c * r2y[y] ** 2 for (_, y), c in cells.items())
    sxy = sum(c * r2x[x] * r2y[y] for (x, y), c in cells.items())
    num = n * sxy - sx * sy
    d1 = n * sxx - sx * sx
    d2 = n * syy - sy * sy
    rho = 0.0 if d1 * d2 == 0 else round(float(num) / math.sqrt(float(d1) * float(d2)), 6)
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "spearman_rho": pa.array([rho], pa.float64()),
        }
    )


def q_events_hourly_hll(sf_dir: str):
    """Distinct users per tumbling hour via GROUP-WISE HLL sketches
    (p=8, 256 registers) — the mergeable-sketch scale path: each batch
    ships one 2 KB register partial per hour it saw (constant per
    batch×window, independent of user cardinality — the exact-pair
    companion `events_distinct_users_hourly` ships the distinct pair set
    instead), the per-window fold is a register-wise max, and the
    estimate is computed once per window.  Float contract: sum(2^-reg)
    accumulates as the exact integer Σ 2^(64-reg) (register histogram →
    Python bigint), rounded to float ONCE — the approx_distinct bridge,
    per window."""
    from ..functions.sketches import _hash_column, _hll_update, hll_estimate

    p = 8

    def sketch_partials(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_pylist()
        users = batch["user_id"].to_pylist()
        per_win: dict[int, list] = {}
        for t, u in zip(us, users):
            per_win.setdefault(int(t) // 3_600_000_000 * 3_600_000_000, []).append(u)
        wins, sketches = [], []
        for w, vals in per_win.items():
            regs = np.zeros(1 << p, dtype=np.int64)
            _hll_update(regs, _hash_column(vals), p)
            wins.append(w)
            sketches.append(regs.tobytes())
        return pa.table(
            {
                "window_us": pa.array(wins, pa.int64()),
                "sketch": pa.array(sketches, pa.binary()),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        regs = np.zeros(1 << p, dtype=np.int64)
        for blob in group["sketch"]:
            regs = np.maximum(regs, np.frombuffer(blob, dtype=np.int64))
        return pd.DataFrame(
            {"window_us": [group["window_us"].iloc[0]], "hll_users": [round(hll_estimate(regs), 4)]}
        )

    return cogroup(
        _read(sf_dir, "events", ["ts", "user_id"]).map_batches(
            sketch_partials, batch_format="pyarrow"
        ),
        "window_us",
        each_key("window_us", merge),
        {"window_us": pa.int64(), "hll_users": pa.float64()},
    )


def q_dp_noisy_counts(sf_dir: str):
    """Differentially-private release counts: per-language document counts
    + Laplace(1/ε) noise (ε=1, sensitivity 1 for a unit-contribution count
    query) — the standard DP release mechanism, with the noise drawn
    DETERMINISTICALLY from the md5 bridge (inverse-CDF over a seeded
    uniform) so the mechanism is testable and the oracle SQL regenerates
    the identical noised values.  A production release would swap the
    bridge uniform for a secret-seeded DRBG — the mechanism, sensitivity
    bound and inverse-CDF transform are exactly what ships.

    Scale shape: one tiny grouped count (≤|langs| rows) → noise added in a
    final driver-free map.  Float contract: the inverse-CDF chain (u→ln→±)
    is bit-identical; the count+noise sum is one float op; ROUND 6dp on
    both engines."""
    import hashlib
    import math

    def add_noise(batch: pa.Table) -> pa.Table:
        out_lang, out_v = [], []
        for lang, n in zip(batch["lang"].to_pylist(), batch["n"].to_pylist()):
            h = int.from_bytes(
                hashlib.md5(f"dp:5:{lang}".encode()).digest()[:8], "little"
            )
            u = (float(h) + 1.0) / 2.0**64
            if u >= 0.5:
                lap = -1.0 * math.log(1.0 - 2.0 * (u - 0.5))
            else:
                lap = 1.0 * math.log(1.0 - 2.0 * (0.5 - u))
            out_lang.append(lang)
            out_v.append(round(n + lap, 6))
        return pa.table(
            {
                "lang": pa.array(out_lang, pa.string()),
                "noisy_count": pa.array(out_v, pa.float64()),
            }
        )

    return group_agg(_read(sf_dir, "documents", ["lang"]), "lang", n=("count",)).map_batches(
        add_noise, batch_format="pyarrow"
    )


def q_embedding_intrinsic_dim(sf_dir: str):
    """TwoNN intrinsic-dimension estimate (Facco et al. 2017) over the
    embedding table — the embedding-diagnostics operator: d̂ = N / Σ ln(μ)
    with μ = r₂/r₁ the per-point two-nearest-neighbor distance ratio.
    A 64-dim table whose d̂ is much lower than 64 is compressible (JL /
    PQ / IVF budgets follow from it).

    Scale shape: the reference matrix broadcasts once via ``ray.put`` and
    each batch computes its rows' two smallest squared distances with one
    matmul (the knn_bruteforce pattern) — per-batch partials are TWO
    scalars (valid count, Σ lnμ).  At corpus scale the estimator runs on
    a bounded sample by construction (it converges at O(10⁴) points);
    here the full table is the sample.  Float contract: squared distances
    on the 6dp ROUND grid via the identical ‖a‖²+‖b‖²−2ab op chain
    (pq_codes contract); duplicate points (r₁=0 on the grid) are excluded
    on both engines; ln/division chains identical; final 6dp round."""
    import ray

    from ..functions.simsearch import _vec_matrix

    mat_rows = []
    id_rows = []
    for b in _read(sf_dir, "embeddings", ["vec_id", "embedding"]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        mat_rows.append(_vec_matrix(b["embedding"]))
        id_rows.append(b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64))
    ref_mat = np.concatenate(mat_rows)
    ref_ids = np.concatenate(id_rows)
    ref_norms = (ref_mat**2).sum(axis=1)
    ref = ray.put((ref_ids, ref_mat, ref_norms))

    def partials(batch: pa.Table) -> pa.Table:
        ids_all, mat, norms = ray.get(ref)
        v = _vec_matrix(batch["embedding"])
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if v.size == 0:
            return pa.table(
                {
                    "n_p": pa.array([0], pa.int64()),
                    "s_p": pa.array([0.0], pa.float64()),
                }
            )
        vnorm = (v**2).sum(axis=1)
        d2 = np.round(vnorm[:, None] + norms[None, :] - 2.0 * (v @ mat.T), 6)
        d2[ids[:, None] == ids_all[None, :]] = np.inf  # mask self by id
        two = np.partition(d2, 1, axis=1)[:, :2]
        d1, d2v = two[:, 0], two[:, 1]
        valid = d1 > 0
        lnmu = 0.5 * np.log(d2v[valid] / d1[valid])
        return pa.table(
            {
                "n_p": pa.array([int(valid.sum())], pa.int64()),
                "s_p": pa.array([float(lnmu.sum())], pa.float64()),
            }
        )

    n_used, s = 0, 0.0
    for r in (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(partials, batch_format="pyarrow")
        .take_all()
    ):
        n_used += int(r["n_p"])
        s += float(r["s_p"])
    return pa.table(
        {
            "n_used": pa.array([n_used], pa.int64()),
            "intrinsic_dim": pa.array(
                [round(float(n_used) / float(s), 6)], pa.float64()
            ),
        }
    )


def q_jl_distortion(sf_dir: str):
    """Johnson–Lindenstrauss random projection (d → 16 dims) with a
    per-vector distortion audit — THE dimensionality-reduction step before
    billion-scale ANN (project once, index the short vectors; distortion
    ratio |Mv|²/(k·|v|²) certifies how much geometry survived).

    Scale shape: the projection matrix is 16×d bridge-gaussians (~8 KB) —
    generated deterministically on the driver and captured in the closure
    (re-derivable anywhere, never shuffled); the stage is a pure
    vectorized map (one float64 matmul per batch), zero exchanges.
    Float contract: matrix entries come from the md5 Box–Muller bridge
    (bit-identical in SQL); matmul/summation order drifts ~1e-15 and the
    6dp-rounded ratio absorbs it; zero vectors guard to 0.0 on both
    engines."""
    from ..functions.simsearch import _vec_matrix, bridge_gaussian

    first = _read(sf_dir, "embeddings", ["embedding"]).take(1)
    d = len(first[0]["embedding"])
    k = 16
    m = np.array(
        [[bridge_gaussian(f"jl:7:{i}:{j}") for j in range(d)] for i in range(k)]
    )

    def project(batch: pa.Table) -> pa.Table:
        v = _vec_matrix(batch["embedding"])
        if v.size == 0:
            return pa.table(
                {"vec_id": batch["vec_id"], "distortion": pa.array([], pa.float64())}
            )
        p = v @ m.T
        s = (p**2).sum(axis=1)
        vnorm = (v**2).sum(axis=1)
        safe = np.where(vnorm == 0, 1.0, vnorm)
        ratio = np.where(vnorm == 0, 0.0, np.round((s / float(k)) / safe, 6))
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "distortion": pa.array(ratio, pa.float64()),
            }
        )

    return _read(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        project, batch_format="pyarrow"
    )


def q_pq_codes(sf_dir: str):
    """Product-quantization encode — THE billion-scale ANN compression
    step: the 64-dim embedding splits into 8 contiguous 8-dim subspaces,
    each assigned to its nearest of 4 codebook entries (subvectors of
    vec_id 0..3), emitting an 8-digit code per vector (64 dims × 4 B →
    8 B).  Scale shape: the codebook broadcasts via ``ray.put`` (4×64
    floats) and each batch encodes locally with one distance tensor —
    zero shuffles.  Float contract: assignment ranks the 6dp-ROUNDED
    euclidean distance with a code-id tie-break on both engines (numpy
    vs `list_distance` summation differs at ~1e-15, far under the
    grid)."""
    import ray
    import ray.data as rd

    from ..functions.simsearch import _vec_matrix

    C, S, SUB = 4, 8, 8
    seed_rows = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filter=(pc.field("vec_id") < C),
    ).take_all()
    seed_rows.sort(key=lambda r: r["vec_id"])
    codebook = np.array([r["embedding"] for r in seed_rows], dtype=np.float64)
    cb_ref = ray.put(codebook)

    def encode(batch: pa.Table) -> pa.Table:
        cb = ray.get(cb_ref)  # (C, S*SUB)
        mat = _vec_matrix(batch["embedding"]).astype(np.float64)
        ids = batch["vec_id"].to_pylist()
        codes = np.empty((len(ids), S), dtype=np.int64)
        for s in range(S):
            lo, hi = s * SUB, (s + 1) * SUB
            # (B, C) euclidean distances in this subspace
            diff = mat[:, None, lo:hi] - cb[None, :, lo:hi]
            d = np.round(np.sqrt((diff * diff).sum(axis=2)), 6)
            codes[:, s] = np.argmin(d, axis=1)  # first min == smaller code
        strs = ["".join(str(c) for c in row) for row in codes]
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "pq_code": pa.array(strs, pa.string()),
            }
        )

    return _read(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        encode, batch_format="pyarrow"
    )


def q_countmin_word_freqs(sf_dir: str):
    """Count-Min sketch audit over corpus word frequencies: the top-20
    words (exact contract of `word_freq_top20`) with BOTH their exact
    count and their CMS estimate from a 4×1024 sketch — the
    overestimate-only guarantee (est ≥ exact) made value-checkable
    because the hash is the md5 bridge (`md5_number_upper % width`), so
    DuckDB rebuilds the very same sketch cells.  Scale shape: each batch
    folds its words into ONE flat 4096-cell int64 partial row; the driver
    merges those sketch-sized partials (cells are mergeable by +), and
    the exact top-20 comes from the normal grouped sum — the corpus
    words shuffle once (for the exact side), the sketch side never
    shuffles."""
    import hashlib

    D, W = 4, 1024
    salts = [f"{d}|".encode() for d in range(D)]

    def bridge(d: int, w: str) -> int:
        return (
            int.from_bytes(
                hashlib.md5(salts[d] + w.encode("utf-8", "replace")).digest()[:8],
                "little",
            )
            % W
        )

    token_re = re.compile(r"\S+")

    def word_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch["text"].to_pylist():
            c.update(token_re.findall(text or ""))
        return pa.table(
            {
                "word": pa.array(list(c.keys()), pa.string()),
                "n_p": pa.array(list(c.values()), pa.int64()),
            }
        )

    def cms_partial(batch: pa.Table) -> pa.Table:
        cells = np.zeros((D, W), dtype=np.int64)
        for w, n in zip(batch["word"].to_pylist(), batch["n"].to_pylist()):
            for d in range(D):
                cells[d, bridge(d, w)] += int(n)
        return pa.table(
            {"cells": pa.array([cells.ravel().tolist()], pa.list_(pa.int64()))}
        )

    # ONE corpus scan: tokenize → vocab-sized grouped counts, materialized
    # so both the sketch fold and the top-20 sort read it without
    # re-scanning the documents table
    counts = (
        group_agg(
            _read(sf_dir, "documents", ["text"]).map_batches(word_partial, batch_format="pyarrow"),
            "word",
            n=("sum", "n_p"),
        )
        .materialize()
    )

    cells = np.zeros(D * W, dtype=np.int64)
    for row in counts.map_batches(cms_partial, batch_format="pyarrow").take_all():
        cells += np.asarray(row["cells"], dtype=np.int64)
    cells = cells.reshape(D, W)

    top = (
        counts.sort(["n", "word"], descending=[True, False])
        .limit(20)
        .take_all()
    )
    words = [r["word"] for r in top]
    ns = [int(r["n"]) for r in top]
    ests = [
        int(min(cells[d, bridge(d, w)] for d in range(D))) for w in words
    ]
    return pa.table(
        {
            "word": pa.array(words, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "cms_est": pa.array(ests, pa.int64()),
        }
    )


def q_doc_ngram_novelty(sf_dir: str):
    """Per-document n-gram NOVELTY — the uniqueness/diversity curation
    signal (inverse of duplication): the fraction of a doc's distinct
    13-grams that appear in NO other document.  Scale shape: each batch
    emits one narrow (gram-hash, doc_id) row per distinct gram; grams
    co-locate via a co-group on the gram hash, where document frequency is
    block-complete, so each folded block emits per-doc (n_grams, n_unique)
    partials and a grouped sum finishes — the texts themselves never
    shuffle.  Hash contract: the engine keys grams by 64-bit md5 (w.h.p.
    collision-free at any tested scale) while the oracle uses exact gram
    strings — same contract `duplicate_ngram_spans` established.  Docs
    with fewer than 13 words have no grams and are excluded on both
    engines; novelty = n_unique/n_grams is one exact int/int double."""
    import hashlib

    from ..functions.corpusops import _ngrams, _words

    N = 13

    def explode(batch: pa.Table) -> pa.Table:
        ghash, docs = [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            for g in set(_ngrams(_words(text), N)):
                h = int.from_bytes(
                    hashlib.md5(g.encode("utf-8", "replace")).digest()[:8],
                    "little",
                )
                ghash.append(h - (1 << 63))  # center into int64
                docs.append(doc_id)
        gh_arr = np.asarray(ghash, dtype=np.int64) if ghash else np.zeros(0, np.int64)
        return pa.table(
            {
                "gh": pa.array(gh_arr, pa.int64()),
                "doc_id": pa.array(docs, pa.int64()),
            }
        )

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # df is block-complete (a gram's rows share one folded block);
        # partials re-key by doc for the second fold — Ray's generic hash
        # aggregate on ~|docs| int64 keys measured ~100× slower than this
        # two-stage pandas fold at sf0.1
        df = group.groupby("gh")["doc_id"].transform("size")
        sub = pd.DataFrame(
            {"doc_id": group["doc_id"], "uniq": (df == 1).astype("int64")}
        )
        out = sub.groupby("doc_id", as_index=False).agg(
            n_grams_p=("uniq", "size"), n_unique_p=("uniq", "sum")
        )
        return out

    def fold_doc(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby("doc_id", as_index=False).agg(
            n_grams=("n_grams_p", "sum"), n_unique=("n_unique_p", "sum")
        )
        agg["novelty"] = agg["n_unique"] / agg["n_grams"]
        return agg

    partials = cogroup(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(explode, batch_format="pyarrow"),
        "gh",
        fold_bucket,
        {"doc_id": pa.int64(), "n_grams_p": pa.int64(), "n_unique_p": pa.int64()},
    )
    return cogroup(
        partials,
        "doc_id",
        fold_doc,
        {
            "doc_id": pa.int64(),
            "n_grams": pa.int64(),
            "n_unique": pa.int64(),
            "novelty": pa.float64(),
        },
    )


def q_revenue_concentration(sf_dir: str):
    """Revenue concentration (the Pareto report): the share of total
    order revenue held by the top ceil(1%) of customers — ranked by
    (revenue desc, custkey asc) so the boundary is deterministic.  Scale
    shape: per-customer exact cent sums stay a distributed grouped
    aggregate; pass 1 takes only two scalars (customer count + total
    cents), pass 2 extracts the top-k with a lossless map-side local
    top-k prune before the small sort, and the share divides two exact
    int64 sums in ONE double op — bit-identical on both engines."""
    import math

    from ray.data.aggregate import Count, Sum

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "c_p": pc.cast(
                    pc.round(pc.multiply(batch["o_totalprice"], 100.0)),
                    pa.int64(),
                ),
            }
        )

    # materialized ONCE (customer-dimension-sized aggregate) so the scalar
    # pass and the top-k pass don't each re-scan and re-group orders
    rev_ds = (
        group_agg(
            _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(cents, batch_format="pyarrow"),
            "o_custkey",
            cents=("sum", "c_p"),
        )
        .materialize()
    )

    scal = rev_ds.aggregate(Sum("cents", alias_name="total"), Count(alias_name="n"))
    total = int(scal["total"]) if scal and scal["total"] is not None else 0
    n = int(scal["n"]) if scal else 0
    k = int(math.ceil(n / 100.0))

    top_cents = 0
    if k > 0:
        def prune(batch: pa.Table) -> pa.Table:
            idx = pc.select_k_unstable(
                batch,
                k=min(k, batch.num_rows),
                sort_keys=[("cents", "descending"), ("o_custkey", "ascending")],
            )
            return batch.take(idx)

        top = (
            rev_ds
            .map_batches(prune, batch_format="pyarrow")
            .sort(["cents", "o_custkey"], descending=[True, False])
            .limit(k)
            .aggregate(Sum("cents", alias_name="s"))
        )
        top_cents = int(top["s"]) if top and top["s"] is not None else 0

    share = (float(top_cents) / total) if total else None
    return pa.table(
        {
            "n_customers": pa.array([n], pa.int64()),
            "top_k": pa.array([k], pa.int64()),
            "revenue_share": pa.array([share], pa.float64()),
        }
    )


def q_doc_self_repetition(sf_dir: str):
    """Intra-document repetition ratio — the self-plagiarism/boilerplate
    signal (complement of cross-doc `duplicate_ngram_spans`): per doc,
    total 5-gram positions, distinct 5-grams, and the repeated fraction
    (total − distinct) / total.  Stateless per-doc scan, zero shuffles.
    Float contract: one exact int/int double, no rounding needed.  Docs
    with fewer than 5 words are excluded on both engines."""
    from ..functions.corpusops import _ngrams, _words

    N = 5

    def rep(batch: pa.Table) -> pa.Table:
        ids, totals, uniqs, ratios = [], [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            grams = _ngrams(_words(text), N)
            if not grams:
                continue
            total = len(grams)
            uniq = len(set(grams))
            ids.append(doc_id)
            totals.append(total)
            uniqs.append(uniq)
            ratios.append((total - uniq) / total)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_grams": pa.array(totals, pa.int64()),
                "n_distinct": pa.array(uniqs, pa.int64()),
                "repetition": pa.array(ratios, pa.float64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        rep, batch_format="pyarrow"
    )


def q_embedding_dim_stats(sf_dir: str):
    """Per-dimension embedding profile (the feature-scaling /
    PCA-preparation scan): for each of the 64 dimensions, exact min and
    max plus the 6dp-rounded sum of squares.  Scale shape: each batch
    folds to ONE 64-row partial (min/max/ssq per dim); the driver merges
    the sketch-sized partials — order-independent min/max are exact, and
    the ssq's summation-order drift (~1e-15 relative) sits far under the
    shared 6dp grid."""
    from ..functions.simsearch import _vec_matrix

    def partials(batch: pa.Table) -> pa.Table:
        mat = _vec_matrix(batch["embedding"]).astype(np.float64)
        return pa.table(
            {
                "d": pa.array(list(range(mat.shape[1])), pa.int64()),
                "mn": pa.array(mat.min(axis=0).tolist(), pa.float64()),
                "mx": pa.array(mat.max(axis=0).tolist(), pa.float64()),
                "ssq": pa.array((mat * mat).sum(axis=0).tolist(), pa.float64()),
            }
        )

    rows: dict[int, list[float]] = {}
    ds = _read(sf_dir, "embeddings", ["embedding"])
    for row in ds.map_batches(partials, batch_format="pyarrow").take_all():
        d = int(row["d"])
        if d in rows:
            acc = rows[d]
            acc[0] = min(acc[0], row["mn"])
            acc[1] = max(acc[1], row["mx"])
            acc[2] += row["ssq"]
        else:
            rows[d] = [row["mn"], row["mx"], row["ssq"]]
    dims = sorted(rows)
    return pa.table(
        {
            "d": pa.array(dims, pa.int64()),
            "dim_min": pa.array([rows[d][0] for d in dims], pa.float64()),
            "dim_max": pa.array([rows[d][1] for d in dims], pa.float64()),
            "ssq": pa.array([round(rows[d][2], 6) for d in dims], pa.float64()),
        }
    )


def q_embedding_covariance(sf_dir: str):
    """Exact population covariance matrix of the embedding columns — the
    whitening / PCA-preparation moment pass (the step every embedding
    post-processor runs before decorrelation).  EXACT across engines via
    millionth-lifting: both engines quantize each coordinate with the
    identical IEEE chain ``floor(double(x)·1e6 + 0.5)`` (half-up, no
    banker's-rounding divergence), so the d×d second-moment matrix and the
    column sums are INTEGER partials — one ``Qᵀ Q`` int64 matmul per batch
    ships a single fixed-size packed row (d² + d + 1 ints ≈ 33 KB at
    d=64), independent of batch row count.  The driver folds partials in
    arbitrary-precision Python ints and emits the upper triangle with
    cov = (n·Sxy − Sx·Sy)/n²/1e12, ONE operand-rounded division chain
    mirrored verbatim in SQL.  At 100 TB: partial size is O(d²) per
    batch — the all-reduce is a few MB regardless of corpus size."""
    from ..functions.simsearch import _vec_matrix

    def partials(batch: pa.Table) -> pa.Table:
        mat = _vec_matrix(batch["embedding"]).astype(np.float64)
        q = np.floor(mat * 1e6 + 0.5).astype(np.int64)
        return pa.table(
            {
                "n_p": pa.array([int(q.shape[0])], pa.int64()),
                "sxy_p": pa.array([(q.T @ q).tobytes()], pa.binary()),
                "sx_p": pa.array([q.sum(axis=0).tobytes()], pa.binary()),
            }
        )

    n = 0
    sxy = None
    sx = None
    ds = _read(sf_dir, "embeddings", ["embedding"])
    for row in ds.map_batches(partials, batch_format="pyarrow").take_all():
        n += row["n_p"]
        sx_r = np.frombuffer(row["sx_p"], dtype=np.int64)
        d = sx_r.size
        sxy_r = np.frombuffer(row["sxy_p"], dtype=np.int64).reshape(d, d)
        if sxy is None:
            # object-dtype accumulators: Python-int cells never overflow
            sxy = sxy_r.astype(object)
            sx = sx_r.astype(object)
        else:
            sxy = sxy + sxy_r
            sx = sx + sx_r
    d = 0 if sx is None else sx.size
    ii, jj, cov = [], [], []
    for i in range(d):
        for j in range(i, d):
            num = n * int(sxy[i, j]) - int(sx[i]) * int(sx[j])
            ii.append(i)
            jj.append(j)
            cov.append(round(float(num) / float(n) / float(n) / 1e12, 6))
    return pa.table(
        {
            "i": pa.array(ii, pa.int64()),
            "j": pa.array(jj, pa.int64()),
            "cov": pa.array(cov, pa.float64()),
        }
    )


def q_curation_funnel(sf_dir: str):
    """Sequential curation-funnel attrition report — the per-gate survivor
    counts every production filtering pipeline publishes: input → word
    count in [30, 10000] → ≥2 stopword hits → symbol ratio ≤ 10%
    (10·symbols ≤ words, integer-exact).  A doc is counted at stage k only
    if it passed ALL earlier gates (sequential semantics, not per-rule
    attribution — that's `gopher_quality_flags`).  One stateless scan
    emits a 4-value partial per batch; the only exchange is the tiny
    stage-keyed grouped sum."""
    stop = _STOP_WORDS
    token_re = re.compile(r"\S+")
    stages = ("0_input", "1_word_count", "2_stopwords", "3_symbol_ratio")

    def partial(batch: pa.Table) -> pa.Table:
        counts = [0, 0, 0, 0]
        for text in batch["text"].to_pylist():
            t = text or ""
            counts[0] += 1
            words = token_re.findall(t.lower())
            if not (30 <= len(words) <= 10000):
                continue
            counts[1] += 1
            if sum(1 for w in words if w in stop) < 2:
                continue
            counts[2] += 1
            syms = t.count("#") + t.count("…")
            if 10 * syms > len(words):
                continue
            counts[3] += 1
        return pa.table(
            {
                "stage": pa.array(list(stages), pa.string()),
                "n_p": pa.array(counts, pa.int64()),
            }
        )

    return group_agg(
        _read(sf_dir, "documents", ["text"]).map_batches(partial, batch_format="pyarrow"),
        "stage",
        n_surviving=("sum", "n_p"),
    )


def q_events_active_time(sf_dir: str):
    """Interval-union coverage: each event opens a 5-minute activity
    window [ts, ts+300s); per user, the total UNION length of those
    windows in exact int64 microseconds plus the number of merged
    activity islands — the classic gaps-and-islands interval-algebra
    report (billing / engagement time).  Because every window has the
    SAME length and timestamps sort ascending, the union telescopes:
    each event contributes min(next_ts − ts, W), the user's last event
    contributes W, and a new island opens exactly when the gap exceeds W
    (half-open adjacency merges).  Scale shape: the sessionization
    contract — user timelines co-locate via ONE co-group on user_id;
    each folded block sorts once and folds fully vectorized, and
    because a user lives entirely in one block the per-user rows are
    final (no second shuffle).  Duplicate timestamps contribute gap 0
    regardless of tie order, so the result is total-order-independent."""
    WIN_US = 300 * 1_000_000

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g, start = _timeline(group, ["us"])
        ts = g["us"].to_numpy(dtype=np.int64)
        n = len(g)
        last_of_user = np.ones(n, dtype=bool)
        last_of_user[:-1] = start[1:]
        gap = np.empty(n, dtype=np.int64)
        gap[:-1] = ts[1:] - ts[:-1]
        gap[last_of_user] = WIN_US  # last event of each user contributes W
        contrib = np.minimum(gap, WIN_US)
        # island ends: within-user gap > W, or the user's last row
        ends_island = last_of_user | (gap > WIN_US)
        out = pd.DataFrame(
            {
                "user_id": g["user_id"],
                "active_us": contrib,
                "n_islands": ends_island.astype("int64"),
            }
        )
        return out.groupby("user_id", as_index=False).sum()

    return cogroup(
        _events(sf_dir, ["user_id"]),
        "user_id",
        fold_bucket,
        {"user_id": pa.int64(), "active_us": pa.int64(), "n_islands": pa.int64()},
    )


def q_events_cusum_alarms(sf_dir: str):
    """CUSUM change-point detection per user — the classic sequential
    drift monitor: S_0 = 0, S_i = max(0, S_{i−1} + cents_i − 10500)
    (target 100.00 + slack 5.00), alarm while S_i > 50000.  Output per
    user: the peak statistic and the alarm-row count.  The recurrence is
    non-linear but telescopes exactly: with cd = cumsum(cents − 10500),
    S_i = cd_i − min(0, min_{j≤i} cd_j) — so each user folds with two
    vectorized cumulative scans, all int64-exact.  Scale shape: the
    sessionization contract (a co-group on user_id, one sort per folded
    block, per-user rows final).  The oracle replays the recurrence as a
    WITH-RECURSIVE row-by-row join — the third recursive-CTE-checked
    operator (after BFS and near-dup closure)."""
    DRIFT = 10_500  # target 10000 cents + slack 500
    H = 50_000

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g, _ = _timeline(group, ["us", "event_id"])
        # fully segmented vectorized scans: per-user cumsum of the drift
        # deltas, per-user running min clamped at 0, S = cd − floor
        user = g["user_id"].to_numpy()
        cd = pd.Series(_cents(g["value"]) - DRIFT).groupby(user).cumsum()
        floor = cd.groupby(user).cummin().clip(upper=0)
        s = cd - floor
        return pd.DataFrame({"user_id": user, "s": s, "alarm": (s > H)}).groupby(
            "user_id", as_index=False
        ).agg(peak_s=("s", "max"), n_alarms=("alarm", "sum"))

    return cogroup(
        _events(sf_dir, ["event_id", "user_id", "value"]),
        "user_id",
        fold_bucket,
        {"user_id": pa.int64(), "peak_s": pa.int64(), "n_alarms": pa.int64()},
    )


def q_bpe_apply_merge(sf_dir: str):
    """One full BPE training STEP (train → apply): find the corpus argmax
    adjacent-char pair (the `bpe_pair_counts` table's head) and apply that
    merge corpus-wide, reporting token and symbol counts before/after —
    the compression measurement that drives tokenizer-training loops.
    Merge semantics: leftmost non-overlapping occurrences within each
    word collapse to one symbol (`str.count` == the SQL replace-length
    fold — the `blocklist_term_stats` contract).  Scale shape: pass 1 is
    the charset²-bounded pair-count grouped sum with a driver-side argmax
    (a scalar); pass 2 broadcasts the 2-char pair in the closure and
    folds three exact int64 sums per batch — the corpus shuffles
    nothing."""
    from ray.data.aggregate import Sum

    docs = _read_spread(sf_dir, "documents", ["text"])
    counts = (
        group_agg(docs.map_batches(_bpe_pair_partial, batch_format="pyarrow"), "pair", n=("sum", "partial"))
        .take_all()
    )
    if not counts:
        return pa.table(
            {
                "merge_pair": pa.array([], pa.string()),
                "n_words": pa.array([], pa.int64()),
                "symbols_before": pa.array([], pa.int64()),
                "symbols_after": pa.array([], pa.int64()),
            }
        )
    best = min(counts, key=lambda r: (-int(r["n"]), r["pair"]))["pair"]

    def apply_partial(batch: pa.Table) -> pa.Table:
        n_words = before = merges = 0
        for text in batch["text"].to_pylist():
            for w in (text or "").lower().split():
                n_words += 1
                before += len(w)
                merges += w.count(best)
        return pa.table(
            {
                "w_p": pa.array([n_words], pa.int64()),
                "b_p": pa.array([before], pa.int64()),
                "m_p": pa.array([merges], pa.int64()),
            }
        )

    agg = docs.map_batches(apply_partial, batch_format="pyarrow").aggregate(
        Sum("w_p", alias_name="w"),
        Sum("b_p", alias_name="b"),
        Sum("m_p", alias_name="m"),
    )
    w = int(agg["w"] or 0) if agg else 0
    b = int(agg["b"] or 0) if agg else 0
    m = int(agg["m"] or 0) if agg else 0
    return pa.table(
        {
            "merge_pair": pa.array([best], pa.string()),
            "n_words": pa.array([w], pa.int64()),
            "symbols_before": pa.array([b], pa.int64()),
            "symbols_after": pa.array([b - m], pa.int64()),
        }
    )


def q_events_user_entropy(sf_dir: str):
    """Per-user behavioral diversity: the Shannon entropy (nats) of each
    user's event-type distribution — near-zero entropy flags
    single-action bots, high entropy flags broad engagement (the
    per-entity companion of `doc_char_entropy`).  Scale shape: the
    sessionization contract — ONE co-group on user_id of narrow
    (user, type) rows; a user's type counts are block-complete, so the
    per-user rows are final.  Float contract: terms −(c/n)·ln(c/n) sum
    in TYPE-SORTED order on the engine vs unordered SQL SUM (~1e-16
    drift, far under the shared 6dp grid)."""
    import math

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        counts = (
            group.groupby(["user_id", "event_type"]).size().reset_index(name="c")
        )
        users, totals, ents = [], [], []
        # kept per user: the terms sum in sorted type order, the order the
        # 6-dp rounding was checked against
        for uid, sub in counts.groupby("user_id"):
            n = int(sub["c"].sum())
            h = 0.0
            for _t, c in sorted(
                zip(sub["event_type"], sub["c"].astype(int))
            ):
                p = c / n
                h += -(p) * math.log(p)
            users.append(int(uid))
            totals.append(n)
            ents.append(round(h, 6))
        return pd.DataFrame({"user_id": users, "n_events": totals, "entropy": ents})

    return cogroup(
        _read(sf_dir, "events", ["user_id", "event_type"]),
        "user_id",
        fold_bucket,
        {"user_id": pa.int64(), "n_events": pa.int64(), "entropy": pa.float64()},
    )


def q_supplier_balance_gini(sf_dir: str):
    """Gini coefficient of positive supplier account balances — the
    inequality metric (companion of `revenue_concentration`'s top-share
    view).  With x sorted ascending and rank ties irrelevant within equal
    values, G = Σ(2i − n − 1)·x_i / (n·Σx) — and each equal-value group's
    numerator has a CLOSED FORM in (value, count, prefix-count), so the
    entire statistic folds from the value HISTOGRAM: one grouped count of
    cents (the shuffle ships one (cents, n) row per distinct value per
    block, never supplier rows), then an exact-int64
    driver fold over the histogram.  Float contract: numerator and
    denominator are exact ints; both engines convert each to double
    (round-nearest) and divide once — bit-identical.  All-non-positive
    input yields the SQL aggregate's single NULL row on both engines."""
    ds = _read(sf_dir, "supplier", ["s_suppkey", "s_acctbal"])

    def positive_cents(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(batch["s_acctbal"], 0.0))
        return pa.table({"c": pc.cast(pc.round(pc.multiply(t["s_acctbal"], 100.0)), pa.int64())})

    hist = group_agg(ds.map_batches(positive_cents, batch_format="pyarrow"), "c", m=("count",)).take_all()
    if not hist:
        return pa.table(
            {
                "n_suppliers": pa.array([None], pa.int64()),
                "gini": pa.array([None], pa.float64()),
            }
        )
    hist.sort(key=lambda r: int(r["c"]))
    n = sum(int(r["m"]) for r in hist)
    sx = sum(int(r["c"]) * int(r["m"]) for r in hist)
    base = 0
    num = 0
    for r in hist:
        c, m = int(r["c"]), int(r["m"])
        # Σ_{i=base+1..base+m} (2i − n − 1)·c, in closed form
        num += c * (2 * (m * base + m * (m + 1) // 2) - m * (n + 1))
        base += m
    gini = float(num) / float(n * sx)
    return pa.table(
        {
            "n_suppliers": pa.array([n], pa.int64()),
            "gini": pa.array([gini], pa.float64()),
        }
    )


def q_benford_price_audit(sf_dir: str):
    """Benford's-law first-digit audit over order prices — the forensic
    data-quality screen for fabricated/synthetic numeric columns (here it
    quantifies HOW non-Benford the uniform-ish TPC-H prices are).

    Scale shape: the leading digit of each price comes from a ≤19-pass
    vectorized integer-halving loop (no string formatting, no per-row
    Python); exactly ONE ≤9-row grouped count leaves the workers; the
    driver finishes with the χ² scalar chain.  Float contract: expected
    shares ln(1+1/d)/ln(10) and the (o−e)²/e terms
    mirror the oracle op-for-op on doubles, both sides round to 6dp (the
    9-term SUM-order drift is ~1e-11 absolute at χ²≈1e5)."""
    import math

    def first_digit(batch: pa.Table) -> pa.Table:
        cents = (
            pc.cast(pc.round(pc.multiply(batch["o_totalprice"], 100.0)), pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        cents = cents[cents > 0]
        while cents.size and (cents >= 10).any():
            cents = np.where(cents >= 10, cents // 10, cents)
        return pa.table({"digit": pa.array(cents, pa.int64())})

    rows = group_agg(
        _read(sf_dir, "orders", ["o_totalprice"]).map_batches(first_digit, batch_format="pyarrow"),
        "digit",
        n_obs=("count",),
    ).take_all()
    rows.sort(key=lambda r: int(r["digit"]))
    n = sum(int(r["n_obs"]) for r in rows)
    digits = [int(r["digit"]) for r in rows]
    obs = [int(r["n_obs"]) for r in rows]
    exp = [n * (math.log(1.0 + 1.0 / d) / math.log(10.0)) for d in digits]
    chi2 = sum((o - e) * (o - e) / e for o, e in zip(obs, exp))
    return pa.table(
        {
            "digit": pa.array(digits, pa.int64()),
            "n_obs": pa.array(obs, pa.int64()),
            "expected": pa.array([round(e, 6) for e in exp], pa.float64()),
            "chi2": pa.array([round(chi2, 6)] * len(digits), pa.float64()),
        }
    )


def _daily_counts(sf_dir: str):
    """Events per UTC day (``day`` as int32 days since the epoch)."""

    def to_day(batch: pa.Table) -> pa.Table:
        return pa.table({"day": pc.cast(pc.cast(batch["ts"], pa.date32()), pa.int32())})

    return group_agg(_read(sf_dir, "events", ["ts"]).map_batches(to_day, batch_format="pyarrow"), "day", n=("count",))


def _hourly_counts(sf_dir: str):
    """Events per hour (``hour`` as int64 hours since the epoch)."""

    def to_hour(batch: pa.Table) -> pa.Table:
        return pa.table({"hour": pc.divide(pc.cast(batch["ts"], pa.int64()), 3_600_000_000)})

    return group_agg(_read(sf_dir, "events", ["ts"]).map_batches(to_hour, batch_format="pyarrow"), "hour", n=("count",))


def q_events_mann_kendall(sf_dir: str):
    """Mann–Kendall trend test + Theil–Sen slope over the daily event-count
    series — the standard nonparametric "is traffic drifting?" monitor
    (exact integer S statistic, tie-corrected variance, median-of-pairwise
    slopes robust to outlier days).

    Scale shape: the DAILY series is bounded by the corpus time span, not
    the corpus size — one ≤|days|-row grouped count leaves the workers, and
    the driver runs the O(days²) pair scan on the tiny series (30 days ⇒ 435
    pairs; ten years ⇒ 6.7M pairs, still trivial).  Exactness: S, n and the
    variance numerator are exact Python ints; var_s, z and the Sen slope
    mirror the oracle's double op order and round to 6dp (numpy median =
    DuckDB median for doubles: both average the two middles)."""
    import math

    rows = _daily_counts(sf_dir).take_all()
    rows.sort(key=lambda r: int(r["day"]))
    day = np.array([int(r["day"]) for r in rows], np.int64)
    x = np.array([int(r["n"]) for r in rows], np.int64)
    nd = x.size
    diff = x[None, :] - x[:, None]  # diff[i, j] = x_j - x_i
    iu = np.triu_indices(nd, k=1)
    s_stat = int(np.sign(diff[iu]).sum())
    dd = (day[None, :] - day[:, None])[iu].astype(np.float64)
    sen = float(np.median(diff[iu].astype(np.float64) / dd))
    _, tcounts = np.unique(x, return_counts=True)
    tie_term = sum(int(t) * (int(t) - 1) * (2 * int(t) + 5) for t in tcounts)
    vnum = nd * (nd - 1) * (2 * nd + 5) - tie_term  # exact int
    var_s = vnum / 18.0
    if s_stat > 0:
        z = (s_stat - 1) / math.sqrt(var_s)
    elif s_stat < 0:
        z = (s_stat + 1) / math.sqrt(var_s)
    else:
        z = 0.0
    return pa.table(
        {
            "n_days": pa.array([nd], pa.int64()),
            "s_stat": pa.array([s_stat], pa.int64()),
            "var_s": pa.array([round(var_s, 6)], pa.float64()),
            "z_stat": pa.array([round(z, 6)], pa.float64()),
            "sen_slope": pa.array([round(sen, 6)], pa.float64()),
        }
    )


def q_events_acf(sf_dir: str):
    """Autocorrelation function of the hourly event-count series at lags
    1..12 — the seasonality diagnostic (a daily cycle shows as a bump at
    the 24-lag harmonic; short-memory burstiness decays geometrically).

    Scale shape: like the trend test, the HOURLY series is time-bounded —
    one grouped count per hour, then the driver zero-fills interior gaps and
    runs the O(hours × lags) numpy scan (720 hours here; a decade is 87k
    floats).  Float contract: x̄ = exact-int Σx / n (one division), then the
    Σ(xₜ−x̄)(xₜ₊ₖ−x̄)/Σ(xₜ−x̄)² chain mirrors the oracle; 6dp absorbs the
    SUM-order drift on values in [−1, 1]."""
    US_PER_HOUR = 3_600_000_000

    rows = _hourly_counts(sf_dir).take_all()
    counts = {int(r["hour"]): int(r["n"]) for r in rows}
    h_lo, h_hi = min(counts), max(counts)
    x = np.array([counts.get(h, 0) for h in range(h_lo, h_hi + 1)], np.int64)
    n = x.size
    xbar = float(int(x.sum())) / n  # exact integer sum, ONE division
    c = x.astype(np.float64) - xbar
    den = float(np.sum(c * c))
    lags = list(range(1, 13))
    acf = [float(np.sum(c[:-k] * c[k:])) / den for k in lags]
    return pa.table(
        {
            "lag": pa.array(lags, pa.int64()),
            "acf": pa.array([round(v, 6) for v in acf], pa.float64()),
        }
    )


def q_user_retention_km(sf_dir: str):
    """Kaplan–Meier time-to-first-purchase curve with administrative right
    censoring — the product-limit estimate of P(no purchase within t hours
    of a user's first event), observation truncated at corpus_start + 48 h:
    users who purchase inside the window die at t = hours(first_purchase −
    first_event); users first seen inside the window who haven't purchased
    by its end are CENSORED at t = hours(window_end − first_event).  The
    survival primitive behind conversion/retention dashboards; a naive
    "fraction converted by t" over-counts exactly the users censoring
    excludes.  (Administrative truncation is what makes the censored arm
    non-degenerate on this corpus — every synthetic user eventually
    purchases, so lifetime-based censoring would never fire.)

    Scale shape: one narrow user-keyed grouped min/min (the only
    corpus-scale exchange — (id, 2×int64) rows; absent first-purchase
    encodes as an int64-max sentinel so the grouped min folds it for free),
    then a second grouped count of (t_hour, censored) bounded by 2×|window
    hours|; the driver finishes the KM scan on the tiny life table.  The
    corpus-min timestamp is a separate one-scalar aggregate.  Float contract:
    the ordered product Π(1−dᵢ/nᵢ) multiplies ascending-t in BOTH engines
    (DuckDB windowed product() — no exp/ln detour), each factor one double
    division; 6dp round."""
    from ray.data.aggregate import Min

    US_PER_HOUR = 3_600_000_000
    WINDOW_US = 48 * US_PER_HOUR
    NO_PURCHASE = (1 << 62)  # sentinel: min() never sees a real ts this large

    events = _read(sf_dir, "events", ["user_id", "ts", "event_type"]).map_batches(
        lambda t: pa.table(
            {"user_id": t["user_id"], "us": pc.cast(t["ts"], pa.int64()),
             "p_us": pc.if_else(pc.equal(t["event_type"], "purchase"), pc.cast(t["ts"], pa.int64()), NO_PURCHASE)}
        ),
        batch_format="pyarrow",
    )
    corpus_min = int(events.aggregate(Min("us", alias_name="m"))["m"])
    wend = corpus_min + WINDOW_US

    def lifetime(batch: pa.Table) -> pa.Table:
        f = batch["f"].to_numpy(zero_copy_only=False)
        fp = batch["fp"].to_numpy(zero_copy_only=False)
        keep = f < wend
        f, fp = f[keep], fp[keep]
        death = fp <= wend
        t = np.where(death, (fp - f) // US_PER_HOUR, (wend - f) // US_PER_HOUR)
        return pa.table({"t_hours": pa.array(t, pa.int64()), "cens": pa.array((~death).astype(np.int8), pa.int8())})

    firsts = group_agg(events, "user_id", f=("min", "us"), fp=("min", "p_us"))
    life = group_agg(
        firsts.map_batches(lifetime, batch_format="pyarrow"), ["t_hours", "cens"], n=("count",)
    ).take_all()
    total = {}  # t -> users leaving the risk set at t (death or censoring)
    deaths = {}  # t -> uncensored deaths at t
    for r in life:
        t = int(r["t_hours"])
        total[t] = total.get(t, 0) + int(r["n"])
        if int(r["cens"]) == 0:
            deaths[t] = deaths.get(t, 0) + int(r["n"])
    n_users = sum(total.values())
    out_t, out_d, out_n, out_s = [], [], [], []
    at_risk = n_users
    surv = 1.0
    prev_t = None
    for t in sorted(total):
        if prev_t is not None:
            at_risk -= total[prev_t]
        prev_t = t
        d = deaths.get(t, 0)
        if d == 0:
            continue  # censoring-only times shrink the risk set silently
        surv = surv * (1.0 - d / at_risk)
        out_t.append(t)
        out_d.append(d)
        out_n.append(at_risk)
        out_s.append(round(surv, 6))
    return pa.table(
        {
            "t_hours": pa.array(out_t, pa.int64()),
            "n_deaths": pa.array(out_d, pa.int64()),
            "n_at_risk": pa.array(out_n, pa.int64()),
            "survival": pa.array(out_s, pa.float64()),
        }
    )


def q_hll_user_overlap(sf_dir: str):
    """Sketch ALGEBRA: estimated audience overlap |view ∩ purchase| via
    inclusion–exclusion over mergeable HLLs — |A∩B| ≈ est(A) + est(B) −
    est(A∪B), where the union sketch is the REGISTER-WISE MAX of the two
    arm sketches (exactly the HLL built over the concatenated multiset, so
    the identity is deterministic, not approximate-on-approximate).  This
    is the composable form audience/reach systems use: per-segment
    sketches are built once, any pairwise overlap is three register folds
    — no re-scan of the raw events.  Exact distinct counts ride along for
    the error audit (the estimate column is still value-checked: the
    oracle rebuilds every register from md5 in SQL).

    Scale shape: ONE pass over events builds both arm sketches per batch
    (8 KB each) and the driver folds register maxima; the exact columns
    reuse the flag-groupby pattern (user-keyed narrow shuffle).  Float
    contract: integer-exact register folds (`hll_estimate`), 4dp rounds,
    and the inclusion–exclusion runs over the ROUNDED estimates in both
    engines."""
    from ray.data.aggregate import Sum

    from ..functions.sketches import _hash_column, _hll_update, hll_estimate

    P = 12

    events = _read(sf_dir, "events", ["user_id", "event_type"]).map_batches(
        lambda t: t.filter(
            pc.is_in(t["event_type"], value_set=pa.array(["view", "purchase"]))
        ),
        batch_format="pyarrow",
    )

    def sketch(batch: pa.Table) -> pa.Table:
        arms, blobs = [], []
        for arm in ("view", "purchase"):
            users = batch.filter(pc.equal(batch["event_type"], arm))["user_id"]
            regs = np.zeros(1 << P, dtype=np.int64)
            _hll_update(regs, _hash_column(users.to_pylist()), P)
            arms.append(arm)
            blobs.append(regs.tobytes())
        return pa.table(
            {"arm": pa.array(arms, pa.string()), "sketch": pa.array(blobs, pa.binary())}
        )

    merged = {
        "view": np.zeros(1 << P, dtype=np.int64),
        "purchase": np.zeros(1 << P, dtype=np.int64),
    }
    for row in events.map_batches(sketch, batch_format="pyarrow").take_all():
        merged[row["arm"]] = np.maximum(
            merged[row["arm"]], np.frombuffer(row["sketch"], dtype=np.int64)
        )
    est_v = round(hll_estimate(merged["view"]), 4)
    est_p = round(hll_estimate(merged["purchase"]), 4)
    est_u = round(hll_estimate(np.maximum(merged["view"], merged["purchase"])), 4)
    est_i = round(est_v + est_p - est_u, 4)

    def flags(batch: pa.Table) -> pa.Table:
        def is_type(name: str) -> pa.Array:
            return pc.cast(pc.fill_null(pc.equal(batch["event_type"], name), False), pa.int64())

        return pa.table({"user_id": batch["user_id"], "v": is_type("view"), "p": is_type("purchase")})

    both = (
        group_agg(events.map_batches(flags, batch_format="pyarrow"), "user_id", v=("max", "v"), p=("max", "p"))
        .map_batches(
            lambda t: pa.table(
                {
                    "nv": pa.array([int(pc.sum(t["v"]).as_py() or 0)], pa.int64()),
                    "np_": pa.array([int(pc.sum(t["p"]).as_py() or 0)], pa.int64()),
                    "nb": pa.array(
                        [int(pc.sum(pc.multiply(t["v"], t["p"])).as_py() or 0)],
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .aggregate(
            Sum("nv", alias_name="nv"),
            Sum("np_", alias_name="np_"),
            Sum("nb", alias_name="nb"),
        )
    )
    return pa.table(
        {
            "est_view": pa.array([est_v], pa.float64()),
            "est_purchase": pa.array([est_p], pa.float64()),
            "est_union": pa.array([est_u], pa.float64()),
            "est_intersection": pa.array([est_i], pa.float64()),
            "exact_view": pa.array([int(both["nv"])], pa.int64()),
            "exact_purchase": pa.array([int(both["np_"])], pa.int64()),
            "exact_intersection": pa.array([int(both["nb"])], pa.int64()),
        }
    )


def q_user_rfm_segments(sf_dir: str):
    """RFM segmentation — every user coded 1..4 on Recency (days since
    their last event, vs corpus max), Frequency (event count) and Monetary
    (exact cent sum), quartile boundaries computed over the per-user
    metric distributions; output is the 4×4×4 segment-cell census the
    lifecycle-marketing pipelines key on.

    Scale shape: ONE user-keyed grouped aggregate builds the per-user
    triple (the only corpus-scale shuffle; `materialize()` pins it because
    it is legitimately consumed twice — once for boundaries, once for
    coding — and it is the aggregated SMALL side, not the input).  Metric
    histograms are value-bounded (days ≤ corpus span, counts/cents ≤
    activity range), so boundary selection walks a tiny merged histogram
    on the driver.  Quartile rule is explicit and integer-exact in both
    engines — b_q = smallest v with cum_count(≤v) ≥ k_q, k_q =
    ((n+3)//4, (n+1)//2, (3n+3)//4) — no reliance on any engine's
    quantile interpolation.  Codes: 1 + Σ (v > b_q), ascending in the
    metric value.  Output ≤64 exact-int rows."""
    from ray.data.aggregate import Max

    US_PER_DAY = 86_400_000_000

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "us": pc.cast(batch["ts"], pa.int64()),
                "cents": pc.cast(
                    pc.round(pc.multiply(batch["value"], 100.0)), pa.int64()
                ),
            }
        )

    per_user = (
        group_agg(
            _read(sf_dir, "events", ["user_id", "ts", "value"]).map_batches(prep, batch_format="pyarrow"),
            "user_id",
            last_us=("max", "us"),
            f=("count",),
            cents=("sum", "cents"),
        )
        .materialize()
    )
    corpus_max = int(per_user.aggregate(Max("last_us", alias_name="m"))["m"])

    def metrics(batch: pa.Table) -> pa.Table:
        last = batch["last_us"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "r": pa.array((corpus_max - last) // US_PER_DAY, pa.int64()),
                "f": batch["f"].cast(pa.int64()),
                "m": pa.array(
                    batch["cents"].to_numpy(zero_copy_only=False) // 100, pa.int64()
                ),
            }
        )

    met = per_user.map_batches(metrics, batch_format="pyarrow")

    def melt(batch: pa.Table) -> pa.Table:
        names = ("r", "f", "m")
        return pa.table(
            {
                "metric": pa.array([m for m in names for _ in range(batch.num_rows)], pa.string()),
                "value": pa.concat_arrays([batch[m].combine_chunks() for m in names]),
            }
        )

    hist = group_agg(met.map_batches(melt, batch_format="pyarrow"), ["metric", "value"], n=("count",)).take_all()
    bounds: dict[str, tuple[int, int, int]] = {}
    for mname in ("r", "f", "m"):
        rows = sorted(
            ((int(r["value"]), int(r["n"])) for r in hist if r["metric"] == mname)
        )
        total = sum(n for _, n in rows)
        ks = ((total + 3) // 4, (total + 1) // 2, (3 * total + 3) // 4)
        bs, cum, ki = [], 0, 0
        for v, n in rows:
            cum += n
            while ki < 3 and cum >= ks[ki]:
                bs.append(v)
                ki += 1
            if ki == 3:
                break
        bounds[mname] = tuple(bs)

    def code(batch: pa.Table) -> pa.Table:
        out = {}
        for mname in ("r", "f", "m"):
            v = batch[mname].to_numpy(zero_copy_only=False)
            b = bounds[mname]
            out[f"{mname}_code"] = (
                1 + (v > b[0]).astype(np.int64) + (v > b[1]) + (v > b[2])
            )
        return pa.table({name: pa.array(v, pa.int64()) for name, v in out.items()})

    return group_agg(met.map_batches(code, batch_format="pyarrow"), ["r_code", "f_code", "m_code"], n_users=("count",))


def q_orders_profile(sf_dir: str):
    """One-pass TABLE PROFILING — the data-catalog primitive: for every
    column of ``orders``, null count, HLL approximate distinct, and typed
    min/max, from a SINGLE scan (per-batch partials: one 8 KB sketch +
    four scalars per column; the driver folds ≤ columns × blocks rows —
    no per-column passes, no shuffle at all).

    Hash normalization is explicit per type so the md5 sketch is
    SQL-mirrorable: ints hash as their decimal string, doubles as the
    exact cent integer, timestamps as epoch-microseconds, strings raw —
    never str(float)/str(datetime), whose formatting is
    engine-dependent.  min/max report as DOUBLE for numeric/timestamp
    columns (epoch-µs ≈ 1.7e15 < 2^53, exact) and as VARCHAR for string
    columns (memcmp collation in both engines on this ASCII data)."""
    from ..functions.sketches import _hash_column, _hll_update, hll_estimate

    P = 12
    SPECS = (
        ("o_orderkey", "int"),
        ("o_custkey", "int"),
        ("o_orderstatus", "str"),
        ("o_totalprice", "cents"),
        ("o_orderdate", "ts"),
        ("o_orderpriority", "str"),
    )

    def partial(batch: pa.Table) -> pa.Table:
        cols, nulls, mnn, mxn, mns, mxs, blobs = [], [], [], [], [], [], []
        for col, kind in SPECS:
            arr = batch[col]
            valid = arr.drop_null()
            if kind == "int":
                hvals = valid.to_pylist()
                lo, hi = pc.min(valid).as_py(), pc.max(valid).as_py()
                lo_n, hi_n = (float(lo), float(hi)) if lo is not None else (None, None)
                lo_s = hi_s = None
            elif kind == "cents":
                hvals = pc.cast(
                    pc.round(pc.multiply(valid, 100.0)), pa.int64()
                ).to_pylist()
                lo, hi = pc.min(valid).as_py(), pc.max(valid).as_py()
                lo_n, hi_n = lo, hi
                lo_s = hi_s = None
            elif kind == "ts":
                us = pc.cast(valid, pa.int64())
                hvals = us.to_pylist()
                lo, hi = pc.min(us).as_py(), pc.max(us).as_py()
                lo_n, hi_n = (float(lo), float(hi)) if lo is not None else (None, None)
                lo_s = hi_s = None
            else:
                hvals = valid.to_pylist()
                lo_s = pc.min(valid).as_py()
                hi_s = pc.max(valid).as_py()
                lo_n = hi_n = None
            regs = np.zeros(1 << P, dtype=np.int64)
            if hvals:
                _hll_update(regs, _hash_column(hvals), P)
            cols.append(col)
            nulls.append(arr.null_count)
            mnn.append(lo_n)
            mxn.append(hi_n)
            mns.append(lo_s)
            mxs.append(hi_s)
            blobs.append(regs.tobytes())
        return pa.table(
            {
                "column": pa.array(cols, pa.string()),
                "nulls": pa.array(nulls, pa.int64()),
                "min_num": pa.array(mnn, pa.float64()),
                "max_num": pa.array(mxn, pa.float64()),
                "min_str": pa.array(mns, pa.string()),
                "max_str": pa.array(mxs, pa.string()),
                "sketch": pa.array(blobs, pa.binary()),
            }
        )

    state: dict[str, list] = {
        c: [0, None, None, None, None, np.zeros(1 << P, dtype=np.int64)]
        for c, _ in SPECS
    }
    parts = (
        _read(sf_dir, "orders", [c for c, _ in SPECS])
        .map_batches(partial, batch_format="pyarrow")
        .take_all()
    )
    for r in parts:
        s = state[r["column"]]
        s[0] += int(r["nulls"])
        for i, key in ((1, "min_num"), (3, "min_str")):
            v = r[key]
            if v is not None:
                s[i] = v if s[i] is None else min(s[i], v)
        for i, key in ((2, "max_num"), (4, "max_str")):
            v = r[key]
            if v is not None:
                s[i] = v if s[i] is None else max(s[i], v)
        s[5] = np.maximum(s[5], np.frombuffer(r["sketch"], dtype=np.int64))
    names = [c for c, _ in SPECS]
    return pa.table(
        {
            "column": pa.array(names, pa.string()),
            "null_count": pa.array([state[c][0] for c in names], pa.int64()),
            "approx_distinct": pa.array(
                [round(hll_estimate(state[c][5]), 4) for c in names], pa.float64()
            ),
            "min_num": pa.array([state[c][1] for c in names], pa.float64()),
            "max_num": pa.array([state[c][2] for c in names], pa.float64()),
            "min_str": pa.array([state[c][3] for c in names], pa.string()),
            "max_str": pa.array([state[c][4] for c in names], pa.string()),
        }
    )


def q_events_changepoint(sf_dir: str):
    """Single change-point detection on the daily event-count series
    (binary segmentation, first split): the day boundary that maximizes
    the variance-reduction gain A²/n_l + B²/n_r (A, B = exact integer
    left/right sums) — the monitoring primitive behind "did traffic
    shift?" alerts; iterating it on the halves gives full binary
    segmentation.

    Scale shape: same as the trend test — one time-bounded grouped count per
    day, O(days) prefix scan on the driver.  Float contract: gain is computed
    as the identical double-op chain in both engines from exact integer
    prefix sums (A·A/n_l + B·B/n_r), argmax tie-broken by earliest day;
    means and the SSE reduction round to 6dp."""
    rows = _daily_counts(sf_dir).take_all()
    rows.sort(key=lambda r: int(r["day"]))
    day = [int(r["day"]) for r in rows]
    x = [int(r["n"]) for r in rows]
    nd = len(x)
    total = sum(x)
    best = None  # (gain, i) maximized with earliest-day tie-break (strict >)
    acc = 0
    for i in range(nd - 1):  # split AFTER position i
        acc += x[i]
        n_l, n_r = i + 1, nd - (i + 1)
        a, b = acc, total - acc
        # float(a)*a/n_l — the identical op chain to the oracle's
        # CAST(a AS DOUBLE)*a/i (round a once, one multiply, one divide)
        gain = (float(a) * a) / n_l + (float(b) * b) / n_r
        if best is None or gain > best[0]:
            best = (gain, i)
    gain, i = best
    n_l, n_r = i + 1, nd - (i + 1)
    a = sum(x[: i + 1])
    b = total - a
    sq = float(sum(v * v for v in x))
    sse_tot = sq - (float(total) * total) / nd
    sse_split = sq - gain
    return pa.table(
        {
            "split_day_us": pa.array([day[i] * 86_400_000_000], pa.int64()),
            "n_left": pa.array([n_l], pa.int64()),
            "n_right": pa.array([n_r], pa.int64()),
            "mean_left": pa.array([round(float(a) / n_l, 6)], pa.float64()),
            "mean_right": pa.array([round(float(b) / n_r, 6)], pa.float64()),
            "sse_reduction": pa.array([round(sse_tot - sse_split, 6)], pa.float64()),
        }
    )


def q_event_type_entropy_rate(sf_dir: str):
    """Markov entropy rate of the per-user event-type process: the
    conditional entropy H(next | current) = Σ_s π(s) H(next | s) over the
    observed bigram transition counts (π = empirical source-state share)
    — the sequence-predictability scalar that complements the existing
    unconditional user entropy and the transition-matrix operator.

    Scale shape: per-user ordered bigrams come from the same
    ``_bigram_counts`` fold as events_type_transitions (one narrow shuffle);
    transition counts are |types|² ≤ 25 rows.  Float contract: the H
    terms (c/n)·ln(n/c) are identical double chains in both engines;
    each per-source sum folds ≤|types| doubles, so SUM-order drift is
    below the 6dp grid, and the rate folds the UNROUNDED per-source
    entropies weighted by exact integer shares."""
    counts = cogroup(
        _events(sf_dir, ["user_id", "event_id", "event_type"]),
        "user_id",
        _bigram_counts,
        {"cur": pa.string(), "nxt": pa.string(), "n": pa.int64()},
    )
    rows = group_agg(counts, ["cur", "nxt"], n=("sum", "n")).take_all()
    import math

    per_src: dict[str, dict[str, int]] = {}
    for r in rows:
        per_src.setdefault(r["cur"], {})[r["nxt"]] = int(r["n"])
    grand = sum(sum(d.values()) for d in per_src.values())
    out_src, out_n, out_h = [], [], []
    rate = 0.0
    for src in sorted(per_src):
        d = per_src[src]
        n_src = sum(d.values())
        h = sum((c / n_src) * math.log(n_src / c) for _, c in sorted(d.items()))
        out_src.append(src)
        out_n.append(n_src)
        out_h.append(round(h, 6))
        rate += (n_src / grand) * h
    return pa.table(
        {
            "cur": pa.array(out_src, pa.string()),
            "n_bigrams": pa.array(out_n, pa.int64()),
            "h_next": pa.array(out_h, pa.float64()),
            "entropy_rate": pa.array([round(rate, 6)] * len(out_src), pa.float64()),
        }
    )


def q_crawl_frontier(sf_dir: str):
    """Crawl-frontier construction — the step AFTER an extraction pass in a
    Common-Crawl-style loop: resolve every outlink against its page's
    authority (root-relative ``/path`` → ``scheme://host/path``; absolute
    kept; other relatives dropped), ANTI-JOIN against the already-crawled
    url set, and emit each host's top-3 uncrawled targets by inbound
    reference count (the per-host cap is the politeness budget; the
    priority is the in-degree signal a frontier scheduler keys on).

    Scale shape: link partials fold per batch (Counter over resolved
    urls); the anti-join is a CO-GROUP on the url with the crawled set
    (both sides corpus-scale — never a broadcast membership set); the
    per-host cap is a second co-group on the host emitting ≤3 rows per host.
    Two narrow string-keyed shuffles total.  Oracle: SQL re-resolves links
    from the decoded page fixture with the same LIKE/regexp rules and
    re-derives the cap with a window rank (scope: html route without
    U+FFFD decodes, the pages_anchor_text contract)."""
    from ..kernels.html_text import decode_html_bytes, extract_links
    from ..sources.pages import pages_dataset

    _ensure_pages_fixture(sf_dir)
    base_re = re.compile(r"^(https?://[^/]+)")

    def link_rows(batch: pa.Table) -> pa.Table:
        refs: Counter = Counter()
        for url, raw in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
            if not raw:
                continue
            base = base_re.match(url)
            for href, _anchor in extract_links(decode_html_bytes(raw)):
                if href.startswith("http://") or href.startswith("https://"):
                    absu = href
                elif href.startswith("/") and base:
                    absu = base.group(1) + href
                else:
                    continue
                refs[absu] += 1
        return pa.table(
            {"u": pa.array(list(refs), pa.string()), "n_p": pa.array(list(refs.values()), pa.int64())}
        )

    links = _oracle_visible_pages(sf_dir, include_text_route=False).map_batches(
        link_rows, batch_format="pyarrow"
    )
    crawled = pages_dataset(pages_rows_for(sf_dir)).map_batches(
        lambda b: pa.table({"u": b["url"]}), batch_format="pyarrow"
    )

    def anti(links: pd.DataFrame, crawled: pd.DataFrame) -> pd.DataFrame | None:
        cand = links[~links["u"].isin(crawled["u"])]
        if cand.empty:
            return None
        g = cand.groupby("u", as_index=False)["n_p"].sum()
        g = g.rename(columns={"n_p": "n_refs"})
        g["host"] = g["u"].str.extract(r"^https?://([^/]+)")
        return g

    def per_host_cap(bucket: pd.DataFrame) -> pd.DataFrame:
        kept = (
            bucket.sort_values(
                ["host", "n_refs", "u"], ascending=[True, False, True], kind="mergesort"
            )
            .groupby("host", sort=False)
            .head(3)
        )
        return kept.assign(rnk=kept.groupby("host").cumcount() + 1).rename(columns={"u": "url"})

    candidates = cogroup(
        [links, crawled],
        "u",
        anti,
        {"host": pa.string(), "u": pa.string(), "n_refs": pa.int64()},
    )
    return cogroup(
        candidates,
        "host",
        per_host_cap,
        {"host": pa.string(), "url": pa.string(), "n_refs": pa.int64(), "rnk": pa.int64()},
    )


def q_link_pagerank(sf_dir: str):
    """PageRank over the URL-level outlink graph the extraction pass
    yields (link-analysis centrality — the canonical web-graph operator;
    Page et al. 1999) — INTEGER-EXACT so the iteration is bit-identical
    and shuffle-order-free on both engines: ranks live as scaled int64
    (S = 10^12), each edge ships floor(r(u)/outdeg(u)), dangling mass is
    redistributed evenly, and the damping update is
    r'(v) = (15·(S//n))//100 + (85·(in(v) + dang//n))//100 — every sum is
    an integer sum (associative ⇒ block order can't perturb the result,
    unlike float PageRank where Σ order matters).

    Scale shape — Pregel-style message passing, K=4 rounds: the edge list
    (globally distinct by construction: each (src,dst) edge can only
    originate from src's single page row, deduped per page) carries outdeg
    inline, so one co-group on the source node of ranks ∪ edges emits
    (dst, contribution) messages plus per-block dangling partials; one
    co-group on a destination partition id (crc32(url) mod ``width``)
    applies the damping update, one partition at a time, with every
    dangling partial replicated to every partition.  2 narrow shuffles of
    (url, int64) rows per round; per-round driver state is ONE scalar
    (the dangling-mass total).  Rank state materializes between rounds in
    the OBJECT STORE (O(nodes) rows, distributed — never a driver list).
    Graph nodes are src ∪ dst of the html-route pages (the
    pages_anchor_text oracle scope); the oracle unrolls the 4 rounds as
    chained CTEs over the same fixture-derived edges."""
    import zlib

    K = 4
    SCALE = 1_000_000_000_000
    # graph-state block width: ~2.5k pages of rank/edge rows per block.
    # Coalescing matters more than parallelism here — at sf0.1 the rank
    # state is ~30k narrow rows, and leaving it in ~200 read-sized blocks
    # made task scheduling 5x the compute (17.6 s → 3.3 s at 32 cpus);
    # the width grows linearly with the corpus so web-scale graphs still
    # spread across the cluster.
    width = max(8, pages_rows_for(sf_dir) // 2_500)
    _ensure_pages_fixture(sf_dir)

    def part_ids(urls) -> np.ndarray:
        return np.fromiter(
            (zlib.crc32(u.encode()) % width for u in urls), dtype=np.int32, count=len(urls)
        )

    def edge_rows(batch: pa.Table) -> pa.Table:
        src_out, dst_out, deg_out = [], [], []
        for url, raw in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
            dsts = _resolve_outlinks(url, raw)
            for d in dsts:
                src_out.append(url)
                dst_out.append(d)
                deg_out.append(len(dsts))
        return pa.table(
            {
                "node": pa.array(src_out, pa.string()),
                "dst": pa.array(dst_out, pa.string()),
                "deg": pa.array(deg_out, pa.int64()),
            }
        )

    edges = (
        _oracle_visible_pages(sf_dir, include_text_route=False)
        .map_batches(edge_rows, batch_format="pyarrow")
        .repartition(width)
        .materialize()  # reused every round; O(edges) blocks in the object store
    )

    def both_ends(batch: pa.Table) -> pa.Table:
        # nodes can surface on either side of an edge; one row per end for
        # the global dedup co-group
        ends = [batch["node"].combine_chunks(), batch["dst"].combine_chunks()]
        return pa.table({"node": pa.concat_arrays(ends)})

    node_schema = {"node": pa.string(), "c": pa.int64()}

    def dedup_nodes(bucket: pd.DataFrame) -> pd.DataFrame:
        uniq = np.sort(pd.unique(bucket["node"]))
        return pd.DataFrame({"node": uniq, "c": np.zeros(len(uniq), dtype=np.int64)})

    nodes = cogroup(
        edges.map_batches(both_ends, batch_format="pyarrow"), "node", dedup_nodes, node_schema
    ).materialize()  # reused every round (zero-indegree keep-alive rows)
    n = nodes.count()
    tele = (15 * (SCALE // n)) // 100

    def init_rank(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"], "r": pa.array(np.full(batch.num_rows, SCALE // n), pa.int64())})

    ranks = (
        nodes.map_batches(init_rank, batch_format="pyarrow")
        .repartition(width)
        .materialize()
    )

    def contrib(ranks: pd.DataFrame, edges: pd.DataFrame) -> pd.DataFrame | None:
        # messages carry their DESTINATION partition; the block's dangling
        # partial (no node) replicates to EVERY partition (``width`` tiny
        # rows), so the global dangling mass is summable inside each update
        # group and no per-round driver barrier / extra execution is
        # needed — the K rounds chain into ONE streaming DAG.
        if ranks.empty:
            return None
        ed = edges.reindex(columns=["node", "dst", "deg"])  # a rank-only block has no edge columns
        rmap = dict(zip(ranks["node"], ranks["r"]))
        out_c = ed["node"].map(rmap).to_numpy(dtype=np.int64) // ed["deg"].to_numpy(dtype=np.int64)
        dsts = ed["dst"].astype("str")
        dang = int(ranks.loc[~ranks["node"].isin(ed["node"]), "r"].sum())
        return pd.DataFrame(
            {
                "node": pd.concat([dsts, pd.Series([None] * width)], ignore_index=True),
                "c": np.concatenate([out_c, np.full(width, dang, dtype=np.int64)]),
                "part": np.concatenate([part_ids(dsts), np.arange(width, dtype=np.int32)]),
            }
        )

    def node_part(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"], "part": pa.array(part_ids(batch["node"].to_pylist()), pa.int32())})

    def update(msgs: pd.DataFrame, nodes: pd.DataFrame) -> pd.DataFrame | None:
        # a partition with no node gets dangling rows only; every other
        # partition gets a dangling row from every contrib block
        if nodes.empty:
            return None
        dang = msgs["node"].isna()
        share = msgs.loc[dang].groupby("part")["c"].sum() // n  # global dang mass per partition
        # every node gets a row (zero-indegree keep-alive), messages add to it
        both = pd.concat([f for f in (msgs.loc[~dang], nodes.assign(c=0)) if len(f)])
        g = both.groupby(["part", "node"], as_index=False)["c"].sum()
        add = share.reindex(g["part"], fill_value=0).to_numpy(dtype=np.int64)
        g["c"] = tele + (85 * (g["c"].to_numpy(dtype=np.int64) + add)) // 100
        return g

    def as_rank(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"], "r": batch["c"].cast(pa.int64())})

    for _round in range(K):
        msgs = cogroup(
            [ranks, edges], "node", contrib, {"node": pa.string(), "c": pa.int64(), "part": pa.int32()}
        )
        new_state = cogroup(
            [msgs, nodes.map_batches(node_part, batch_format="pyarrow")], "part", update, node_schema
        )
        # one execution per round: a single K-round DAG (8 chained
        # all-to-alls) schedules WORSE on the streaming executor (28 s vs
        # 13 s at sf0.1/32 cpus); per-round materialization keeps each
        # execution small while the in-band dangling replication still
        # saves the old per-round driver barrier + extra scan
        ranks = (
            new_state.map_batches(as_rank, batch_format="pyarrow")
            .repartition(width)
            .materialize()
        )

    def local_top(batch: pa.Table) -> pa.Table:
        df = (
            batch.to_pandas()[["node", "r"]]
            .sort_values(["r", "node"], ascending=[False, True])
            .head(20)
            .rename(columns={"node": "url", "r": "rank"})
        )
        return _strip_meta(pa.Table.from_pandas(df, preserve_index=False))

    return (
        ranks.map_batches(local_top, batch_format="pyarrow")
        .sort(["rank", "url"], descending=[True, False])
        .limit(20)
    )


def q_allpairs_jaccard_join(sf_dir: str):
    """EXACT set-similarity self-join by PREFIX FILTERING (the
    AllPairs/PPJoin family — Bayardo et al. WWW'07, Xiao et al. WWW'08):
    every document pair with word-5-gram-shingle Jaccard ≥ 0.8 over
    documents ∪ perturbed copies.  Complements the MinHash path: LSH
    gives probabilistic recall, prefix filtering is COMPLETE — if
    J(A,B) ≥ τ then the (df asc, shingle asc)-ordered prefixes of length
    |X| − ⌈τ·|X|⌉ + 1 must share an element (pigeonhole on the ⌈τ·|X|⌉
    overlap a qualifying pair needs), so enumerating pairs per shared
    prefix shingle misses nothing.  Shingling (not raw words) keeps the
    join sparse: the synthetic corpus draws from a small vocabulary, so
    word-set similarity is dense noise while 5-gram similarity isolates
    true near-duplicates.

    Scale shape: (1) distinct (doc, token) rows annotate exact global df
    via ONE co-group on the token (block-local row count IS the df — the
    tfidf_top_terms pattern, no driver vocabulary); (2) a co-group on the
    doc orders each doc's tokens by the global (df, token) total
    order and keeps only the prefix (rare tokens — posting lists stay
    short precisely because prefixes prefer low-df tokens); (3) a
    co-group on the token enumerates candidate pairs per shared prefix
    token with the integer length filter 10·min ≥ 8·max (sizes failing
    it cannot reach τ); (4) a co-group on the pair dedups; (5) exact verification via
    the two-pass ``pair_text_metric`` join (corpus text ships once,
    pair rows twice — never a broadcast corpus).  Unrounded int/int
    division — bit-identical doubles vs the oracle's exact
    inverted-index SQL."""
    from ..functions.dedup import pair_text_metric, word_ngram_jaccard

    TAU = 0.8
    TAU_N, TAU_D = 8, 10
    _base, corpus = _docs_with_perturbed(sf_dir)
    # two consumers (prefix chain + exact-verify join) would each re-run
    # the read∪perturb; one narrow materialization feeds both
    corpus = corpus.materialize()

    def tok_rows(batch: pa.Table) -> pa.Table:
        _assert_id_headroom(batch["doc_id"], limit=1 << 31)
        docs, terms, szs = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            words = (text or "").lower().split()
            if not words:
                continue
            if len(words) < 5:
                toks = {" ".join(words)}
            else:
                toks = {" ".join(words[i : i + 5]) for i in range(len(words) - 4)}
            for t in toks:
                docs.append(doc_id)
                terms.append(t)
                szs.append(len(toks))
        return pa.table(
            {
                "doc_id": pa.array(docs, pa.int64()),
                "term": pa.array(terms, pa.string()),
                "sz": pa.array(szs, pa.int64()),
            }
        )

    def annotate_df(bucket: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (doc, term) and a term's rows are all local ⇒
        # the block-local per-term row count is the exact global df
        df_map = bucket.groupby("term")["doc_id"].size()
        return bucket.assign(df=bucket["term"].map(df_map))

    def prefix_rows(bucket: pd.DataFrame) -> pd.DataFrame:
        srt = bucket.sort_values(["doc_id", "df", "term"], kind="mergesort")
        grp = srt.groupby("doc_id", sort=False)
        # prefix length p = sz − ⌈τ·sz⌉ + 1 (integer ceil: (8·sz+9)//10)
        rank = grp.cumcount().to_numpy()
        sz = srt["sz"].to_numpy(dtype=np.int64)
        keep = rank < (sz - (TAU_N * sz + TAU_D - 1) // TAU_D + 1)
        return srt.loc[keep, ["doc_id", "term", "sz"]]

    def cand_pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        pk: set[int] = set()
        for _t, g in bucket.groupby("term", sort=False):
            recs = sorted(zip(g["doc_id"].tolist(), g["sz"].tolist()))
            for i in range(len(recs)):
                a, sa = recs[i]
                for j in range(i + 1, len(recs)):
                    b, sb = recs[j]
                    lo, hi = (sa, sb) if sa <= sb else (sb, sa)
                    if TAU_D * lo < TAU_N * hi:
                        continue  # sizes alone rule out J ≥ τ
                    pk.add((a << 32) | b)
        return pd.DataFrame({"pair": np.fromiter(pk, dtype=np.int64, count=len(pk))})

    def dedup_decode(bucket: pd.DataFrame) -> pd.DataFrame:
        u = np.unique(bucket["pair"].to_numpy())
        return pd.DataFrame({"left": u >> 32, "right": u & 0xFFFFFFFF})

    annotated = cogroup(
        corpus.map_batches(tok_rows, batch_format="pyarrow"),
        "term",
        annotate_df,
        {
            "doc_id": pa.int64(),
            "term": pa.string(),
            "sz": pa.int64(),
            "df": pa.int64(),
        },
    )
    prefixes = cogroup(
        annotated,
        "doc_id",
        prefix_rows,
        {"doc_id": pa.int64(), "term": pa.string(), "sz": pa.int64()},
    )
    candidates = cogroup(prefixes, "term", cand_pairs, {"pair": pa.int64()})
    pairs = cogroup(
        candidates,
        "pair",
        dedup_decode,
        {"left": pa.int64(), "right": pa.int64()},
    )

    verified = pair_text_metric(
        pairs,
        corpus,
        lambda a, b: word_ngram_jaccard(a, b, 5),
        out_col="jaccard",
    )

    def keep_tau(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["jaccard"], TAU))

    return verified.map_batches(keep_tau, batch_format="pyarrow").select_columns(
        ["left", "right", "jaccard"]
    )


def q_join_size_estimate(sf_dir: str):
    """Join-cardinality estimation via the COUNT-MIN INNER PRODUCT
    (AGMS/CM classic): |A ⋈_k B| ≤ min_d Σ_col A_d[col]·B_d[col], the
    sketch-only audit a planner runs BEFORE a join to catch quadratic
    blowups.  Two audited joins: the skew-sensitive events-×-events
    self-join on user_id (exact size Σ_u n_u² — the blowup detector) and
    the FK join orders ⋈ lineitem on orderkey (exact size Σ_k n_o·n_l).
    The overestimate-only guarantee (est ≥ exact) is value-checked: the
    hash is the md5 bridge (`md5_number_upper(d||'|'||key) % W`), so the
    oracle rebuilds the very same cells.

    Scale shape: each batch folds its keys into ONE flat D×W int64 partial
    row per side (sketches merge by +, the driver holds 4×1024 cells per
    side — O(1) in the corpus); the EXACT sizes use per-key grouped counts
    (narrow int rows).  All arithmetic integer-exact; the ratio rounds to
    6dp."""
    import hashlib

    from ray.data.aggregate import Sum

    D, W = 4, 1024
    salts = [f"{d}|".encode() for d in range(D)]

    def bridge_cols(values) -> np.ndarray:
        out = np.empty((D, len(values)), dtype=np.int64)
        for i, v in enumerate(values):
            sv = str(v).encode("utf-8", "replace")
            for d in range(D):
                out[d, i] = (
                    int.from_bytes(hashlib.md5(salts[d] + sv).digest()[:8], "little")
                    % W
                )
        return out

    def cms_of(ds, col: str) -> np.ndarray:
        def partial(batch: pa.Table) -> pa.Table:
            vu, vn = np.unique(
                batch[col].to_numpy(zero_copy_only=False), return_counts=True
            )
            cells = np.zeros((D, W), dtype=np.int64)
            cols = bridge_cols(vu.tolist())
            for d in range(D):
                np.add.at(cells[d], cols[d], vn)
            return pa.table({"cells": pa.array([cells.tobytes()], pa.binary())})

        merged = np.zeros((D, W), dtype=np.int64)
        for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
            merged += np.frombuffer(row["cells"], dtype=np.int64).reshape(D, W)
        return merged

    def key_counts(ds, col: str):
        return group_agg(ds.rename_columns({col: "k"}), "k", n=("count",))

    def ev_cms_job():
        return cms_of(_read(sf_dir, "events", ["user_id"]), "user_id")

    def ev_exact_job():
        # exact Σ n_u²: the grouped counts are user-cardinality-sized;
        # square and sum map-side, one scalar aggregate leaves the workers
        return int(
            key_counts(_read(sf_dir, "events", ["user_id"]), "user_id")
            .map_batches(
                lambda t: pa.table(
                    {
                        "sq": pa.array(
                            [int((t["n"].to_numpy(zero_copy_only=False).astype(object) ** 2).sum())],
                            pa.int64(),
                        )
                    }
                ),
                batch_format="pyarrow",
            )
            .aggregate(Sum("sq", alias_name="s"))["s"]
        )

    # the five sketch/exact passes are independent streaming pipelines —
    # run them concurrently (serial execution paid 5× the scheduling wall:
    # 8.9 s → ~2.5 s at sf0.1/32 cpus)
    from concurrent.futures import ThreadPoolExecutor

    from ..pipelines.deid import _warm_fsspec_http_probe

    _warm_fsspec_http_probe()
    def prod(o_counts: pd.DataFrame, l_counts: pd.DataFrame) -> pd.DataFrame | None:
        if o_counts.empty or l_counts.empty:
            return None
        m = o_counts.merge(l_counts, on="k")  # one row per key on each side
        return pd.DataFrame({"p": [int((m["n_x"] * m["n_y"]).sum())]})

    def fk_exact_job():
        # exact Σ_k n_o·n_l via a co-group on the key of the two count tables
        o_counts = key_counts(_read(sf_dir, "orders", ["o_orderkey"]), "o_orderkey")
        l_counts = key_counts(_read(sf_dir, "lineitem", ["l_orderkey"]), "l_orderkey")
        rows = cogroup([o_counts, l_counts], "k", prod, {"p": pa.int64()}).take_all()
        return sum(int(r["p"]) for r in rows)

    with ThreadPoolExecutor(max_workers=5) as ex:
        f_ev_cms = ex.submit(ev_cms_job)
        f_ev_exact = ex.submit(ev_exact_job)
        f_o_cms = ex.submit(
            lambda: cms_of(_read(sf_dir, "orders", ["o_orderkey"]), "o_orderkey")
        )
        f_l_cms = ex.submit(
            lambda: cms_of(_read(sf_dir, "lineitem", ["l_orderkey"]), "l_orderkey")
        )
        f_fk_exact = ex.submit(fk_exact_job)
        ev_cms = f_ev_cms.result()
        ev_exact = f_ev_exact.result()
        o_cms = f_o_cms.result()
        l_cms = f_l_cms.result()
        fk_exact = f_fk_exact.result()
    ev_est = int(min(int((ev_cms[d].astype(object) ** 2).sum()) for d in range(D)))
    fk_est = int(
        min(int((o_cms[d].astype(object) * l_cms[d].astype(object)).sum()) for d in range(D))
    )

    return pa.table(
        {
            "join": pa.array(
                ["events_self_user", "orders_lineitem_orderkey"], pa.string()
            ),
            "exact_pairs": pa.array([ev_exact, fk_exact], pa.int64()),
            "cms_est": pa.array([ev_est, fk_est], pa.int64()),
            "over_ratio": pa.array(
                [
                    round(float(ev_est) / ev_exact, 6),
                    round(float(fk_est) / fk_exact, 6),
                ],
                pa.float64(),
            ),
        }
    )


def q_events_hourly_ewma(sf_dir: str):
    """Exponentially weighted moving average over the hourly count series
    (α = 0.2, s₀ = x₀, sₜ = α·xₜ + (1−α)·sₜ₋₁) — the smoothing
    recurrence behind anomaly baselines and forecast seeds; inherently
    ORDERED state, so it doubles as the ordered-recurrence parity case:
    the oracle replays the identical two-op recurrence through a
    recursive CTE rather than a closed-form reweighting, so every
    intermediate double matches bit-for-bit before the final 6dp round.

    Scale shape: identical to the ACF — the hourly series is
    time-bounded; one grouped count per hour, a driver-side O(hours)
    scan.  Output: the last 24 hours with their smoothed values."""
    US_PER_HOUR = 3_600_000_000

    rows = _hourly_counts(sf_dir).take_all()
    counts = {int(r["hour"]): int(r["n"]) for r in rows}
    h_lo, h_hi = min(counts), max(counts)
    hours = list(range(h_lo, h_hi + 1))
    x = [counts.get(h, 0) for h in hours]
    alpha = 0.2
    s = float(x[0])
    smoothed = [s]
    for v in x[1:]:
        s = alpha * v + (1.0 - alpha) * s
        smoothed.append(s)
    keep = slice(-24, None)
    return pa.table(
        {
            "hour_us": pa.array(
                [h * US_PER_HOUR for h in hours[keep]], pa.int64()
            ),
            "n": pa.array(x[keep], pa.int64()),
            "ewma": pa.array([round(v, 6) for v in smoothed[keep]], pa.float64()),
        }
    )


def q_cdc_merge_apply(sf_dir: str):
    """CDC MERGE — apply a change table (deletes / updates / inserts) to a
    base table by key in one pass: the lakehouse upsert primitive behind
    incremental corpus refresh, here with a deterministic synthetic change
    set (doc_id%7==0 → DELETE, ==1 → UPDATE text+' [rev2]', ==2 → INSERT
    id+offset) so the oracle re-derives the entire merge in SQL.

    Scale shape: ONE co-group on doc_id of base rows and change rows —
    every key's base row and its change rows land in the same folded
    block, so precedence (delete > update, inserts appended) applies
    locally; per-block partials carry op counts plus an order-independent
    md5 fingerprint SUM over the FINAL rows (mod 1e9+7 so corpus-scale
    sums stay in int64), and a grouped scalar sum emits the one audit
    row.  No driver-side state, no broadcast; the merged table itself
    never materializes on the driver."""
    import hashlib

    from ray.data.aggregate import Sum

    MOD = 1_000_000_007

    def row_fp(doc_id: int, text: str) -> int:
        digest = hashlib.md5(
            (str(doc_id) + "|" + text).encode("utf-8", "replace")
        ).digest()
        return int.from_bytes(digest[:8], "little") % MOD

    def to_rows(batch: pa.Table) -> pa.Table:
        _assert_id_headroom(batch["doc_id"])
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out_id, out_op, out_text = [], [], []
        for d, t in zip(ids, texts):
            t = t or ""
            out_id.append(d)
            out_op.append("B")
            out_text.append(t)
            m = d % 7
            if m == 0:
                out_id.append(d)
                out_op.append("D")
                out_text.append("")
            elif m == 1:
                out_id.append(d)
                out_op.append("U")
                out_text.append(t + " [rev2]")
            elif m == 2:
                out_id.append(d + _PERTURB_ID_OFFSET)
                out_op.append("I")
                out_text.append("new " + str(d))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "op": pa.array(out_op, pa.string()),
                "text": pa.array(out_text, pa.string()),
            }
        )

    def merge(bucket: pd.DataFrame) -> pd.DataFrame:
        n_del = n_upd = n_ins = n_rows = fp = 0
        for doc_id, grp in bucket.groupby("doc_id", sort=False):
            ops = dict(zip(grp["op"], grp["text"]))
            if "I" in ops:
                n_ins += 1
                n_rows += 1
                fp += row_fp(int(doc_id), ops["I"])
            if "B" not in ops:
                continue
            if "D" in ops:
                n_del += 1
                continue
            if "U" in ops:
                n_upd += 1
                text = ops["U"]
            else:
                text = ops["B"]
            n_rows += 1
            fp += row_fp(int(doc_id), text)
        return pd.DataFrame(
            {
                "n_deleted": [n_del],
                "n_updated": [n_upd],
                "n_inserted": [n_ins],
                "n_rows": [n_rows],
                "fp": [fp],
            }
        )

    totals = cogroup(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(to_rows, batch_format="pyarrow"),
        "doc_id",
        merge,
        {
            "n_deleted": pa.int64(),
            "n_updated": pa.int64(),
            "n_inserted": pa.int64(),
            "n_rows": pa.int64(),
            "fp": pa.int64(),
        },
    ).aggregate(
        Sum("n_deleted", alias_name="n_deleted"),
        Sum("n_updated", alias_name="n_updated"),
        Sum("n_inserted", alias_name="n_inserted"),
        Sum("n_rows", alias_name="n_rows"),
        Sum("fp", alias_name="fingerprint"),
    )
    return pa.table(
        {
            "n_deleted": pa.array([int(totals["n_deleted"])], pa.int64()),
            "n_updated": pa.array([int(totals["n_updated"])], pa.int64()),
            "n_inserted": pa.array([int(totals["n_inserted"])], pa.int64()),
            "n_rows": pa.array([int(totals["n_rows"])], pa.int64()),
            "fingerprint": pa.array([int(totals["fingerprint"])], pa.int64()),
        }
    )


def q_conjunctive_search(sf_dir: str):
    """Boolean AND retrieval (conjunctive query evaluation over the
    inverted-index view of the corpus): documents containing ALL of the
    query terms, scored by total term frequency — the multi-term lookup
    every search/RAG retrieval layer runs before ranking.

    Scale shape: document rows are self-contained (one row = one doc), so
    the AND evaluates INSIDE the map stage — zero shuffles, zero postings
    materialized; only matching (doc_id, total_tf) rows leave the workers.
    This is the map-side dual of `inverted_index_postings` (which builds
    the postings themselves when the index IS the product).  Tokenization
    contract: lowered whitespace split, same as the oracle's
    regexp_split_to_array + empty filter."""
    TERMS = ("hash", "join", "window")

    def hits(batch: pa.Table) -> pa.Table:
        out_id, out_tf = [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            counts = Counter((text or "").lower().split())
            if all(counts.get(t, 0) > 0 for t in TERMS):
                out_id.append(doc_id)
                out_tf.append(sum(counts[t] for t in TERMS))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "total_tf": pa.array(out_tf, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        hits, batch_format="pyarrow"
    )


def q_phrase_search(sf_dir: str):
    """Exact phrase search via positional adjacency — the positional-index
    operator behind quoted queries: count occurrences of the two-word
    phrase "order sort" per document (token i matches word 1 AND token
    i+1 matches word 2).

    Scale shape: like `conjunctive_search`, the adjacency test runs
    map-side on each self-contained document row (numpy shifted-compare
    over the token array — no Python per-token loop), zero shuffles; the
    oracle rebuilds bigrams with a SQL list comprehension."""
    W1, W2 = "order", "sort"

    def occurrences(batch: pa.Table) -> pa.Table:
        out_id, out_n = [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            words = (text or "").lower().split()
            if len(words) < 2:
                continue
            arr = np.asarray(words, dtype=object)
            n = int(((arr[:-1] == W1) & (arr[1:] == W2)).sum())
            if n > 0:
                out_id.append(doc_id)
                out_n.append(n)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "n_occ": pa.array(out_n, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        occurrences, batch_format="pyarrow"
    )


def q_events_holt_linear(sf_dir: str):
    """Holt's linear-trend double exponential smoothing over the hourly
    count series (α = 0.3 level, β = 0.1 trend; l₀ = x₀, b₀ = x₁ − x₀)
    — the trend-aware forecasting recurrence one step up from the EWMA
    (`events_hourly_ewma`); two coupled ordered state variables, so the
    oracle replays the identical recurrence through a recursive CTE
    carrying BOTH columns and every intermediate double matches
    bit-for-bit before the final 6dp round.

    Scale shape: identical to the EWMA — the hourly series is
    time-bounded (O(hours), never O(events)); one grouped count per hour,
    a driver-side O(hours) recurrence scan.  Output: the last 24 hours
    with level, trend and the one-step-ahead forecast."""
    US_PER_HOUR = 3_600_000_000

    rows = _hourly_counts(sf_dir).take_all()
    counts = {int(r["hour"]): int(r["n"]) for r in rows}
    x = []
    if counts:
        h_lo, h_hi = min(counts), max(counts)
        hours = list(range(h_lo, h_hi + 1))
        x = [counts.get(h, 0) for h in hours]
    if len(x) < 2:  # trend seed needs x[1]; the oracle's recursive seed
        # (JOIN s2 ON s2.i = 2) likewise yields zero rows on one hour
        return pa.table(
            {
                "hour_us": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "level": pa.array([], pa.float64()),
                "trend": pa.array([], pa.float64()),
                "forecast_next": pa.array([], pa.float64()),
            }
        )
    alpha, beta = 0.3, 0.1
    level = float(x[0])
    trend = float(x[1] - x[0])
    levels, trends = [level], [trend]
    for v in x[1:]:
        prev_level = level
        level = alpha * v + (1.0 - alpha) * (level + trend)
        trend = beta * (level - prev_level) + (1.0 - beta) * trend
        levels.append(level)
        trends.append(trend)
    keep = slice(-24, None)
    return pa.table(
        {
            "hour_us": pa.array([h * US_PER_HOUR for h in hours[keep]], pa.int64()),
            "n": pa.array(x[keep], pa.int64()),
            "level": pa.array([round(v, 6) for v in levels[keep]], pa.float64()),
            "trend": pa.array([round(v, 6) for v in trends[keep]], pa.float64()),
            "forecast_next": pa.array(
                [round(lv + tv, 6) for lv, tv in zip(levels[keep], trends[keep])],
                pa.float64(),
            ),
        }
    )


def q_user_erasure_audit(sf_dir: str):
    """GDPR right-to-be-forgotten audit: erase a deterministic subject set
    (users with ``user_id % 13 == 0``; customers with
    ``c_custkey % 13 == 0``) and report, per table, rows erased, rows
    remaining, and an order-independent md5 fingerprint of the REMAINING
    rows — the compliance evidence a deletion run must produce.  The
    erasure CASCADES: a forgotten customer's orders are erased by the
    custkey predicate, and their lineitems by membership of the erased
    orderkey set (a real foreign-key cascade, not a predicate rewrite).

    Scale shape: events/customer/orders erase map-side (the subject set is
    predicate-defined, so no membership state ships at all); the lineitem
    cascade is ONE co-group on the orderkey of erased-order marks
    with lineitem keys (the `orders_exists_semi` semi-join shape — narrow
    int rows, never payloads).  All four audits fold to per-batch
    (table, n_erased, n_remaining, fp) partials and one tiny grouped sum;
    fingerprints sum mod 1e9+7 (the `cdc_merge_apply` bridge) so
    corpus-scale sums stay in int64."""
    import hashlib

    MOD = 1_000_000_007

    def _fp_many(strings) -> int:
        total = 0
        for s in strings:
            digest = hashlib.md5(s.encode("utf-8", "replace")).digest()
            total += int.from_bytes(digest[:8], "little") % MOD
        return total

    def events_partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        erased = (uid % 13) == 0
        keep_e, keep_u = eid[~erased], uid[~erased]
        fp = _fp_many(f"{e}|{u}" for e, u in zip(keep_e, keep_u))
        return pa.table(
            {
                "tbl": pa.array(["events"], pa.string()),
                "n_e": pa.array([int(erased.sum())], pa.int64()),
                "n_r": pa.array([int((~erased).sum())], pa.int64()),
                "fp": pa.array([fp], pa.int64()),
            }
        )

    def customer_partial(batch: pa.Table) -> pa.Table:
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False)
        erased = (ck % 13) == 0
        fp = _fp_many(str(k) for k in ck[~erased])
        return pa.table(
            {
                "tbl": pa.array(["customer"], pa.string()),
                "n_e": pa.array([int(erased.sum())], pa.int64()),
                "n_r": pa.array([int((~erased).sum())], pa.int64()),
                "fp": pa.array([fp], pa.int64()),
            }
        )

    def orders_partial(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        erased = (ck % 13) == 0
        fp = _fp_many(str(k) for k in ok[~erased])
        return pa.table(
            {
                "tbl": pa.array(["orders"], pa.string()),
                "n_e": pa.array([int(erased.sum())], pa.int64()),
                "n_r": pa.array([int((~erased).sum())], pa.int64()),
                "fp": pa.array([fp], pa.int64()),
            }
        )

    # lineitem cascade: erased order keys and lineitem keys, one co-group
    def erased_order_keys(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        return pa.table({"okey": batch["o_orderkey"].filter(pa.array((ck % 13) == 0))})

    def lineitem_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"okey": batch["l_orderkey"], "lnum": pc.cast(batch["l_linenumber"], pa.int64())})

    def cascade(li: pd.DataFrame, erased: pd.DataFrame) -> pd.DataFrame | None:
        if li.empty:
            return None
        hit = li["okey"].isin(erased["okey"]).to_numpy()
        keep = li.loc[~hit]
        fp = _fp_many(
            f"{o}|{l}" for o, l in zip(keep["okey"].tolist(), keep["lnum"].tolist())
        )
        return pd.DataFrame({"tbl": ["lineitem"], "n_e": [hit.sum()], "n_r": [(~hit).sum()], "fp": [fp]})

    ev = _read(sf_dir, "events", ["event_id", "user_id"]).map_batches(
        events_partial, batch_format="pyarrow"
    )
    cu = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        customer_partial, batch_format="pyarrow"
    )
    od = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        orders_partial, batch_format="pyarrow"
    )
    li = cogroup(
        [
            _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"]).map_batches(
                lineitem_rows, batch_format="pyarrow"
            ),
            _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
                erased_order_keys, batch_format="pyarrow"
            ),
        ],
        "okey",
        cascade,
        {"tbl": pa.string(), "n_e": pa.int64(), "n_r": pa.int64(), "fp": pa.int64()},
    )

    # the lineitem cascade first: the executor starts a union's inputs in
    # order, and this co-grouped branch is the longest (sf0.1, 1 CPU:
    # 3.27 s median against 4.12 s with it last)
    return group_agg(
        [li, ev, cu, od],
        "tbl",
        n_erased=("sum", "n_e"),
        n_remaining=("sum", "n_r"),
        remaining_fp=("sum", "fp"),
    )


def q_zone_map_pruning(sf_dir: str):
    """Zone-map (data-skipping) audit — the lakehouse layout question made
    measurable: simulate 250-row storage blocks under two physical layouts
    of ``orders`` (natural key order: blocks by ``o_orderkey // 250``;
    date-clustered: blocks by global ``(o_orderdate, o_orderkey)`` rank),
    record each block's min/max orderdate zone map, and report how many
    blocks a half-year date-range predicate must actually read under each
    layout.  This is the exact computation behind "sort your table by the
    filter column" advice — the output quantifies the skipping win.

    Scale shape: one narrow grouped (blk, min, max) per layout; the
    date-rank layout reuses the `docs_global_rank` two-phase pattern — a
    tiny per-DAY histogram (O(days in corpus), never O(rows)) broadcast as
    prefix offsets, then within-day ranking in a grouped fold.  The final
    audit is a constant-size scalar fold."""
    import ray
    from ray.data.aggregate import Sum

    B = 250
    LO = int(pd.Timestamp("1998-01-01").value // 1000)
    HI = int(pd.Timestamp("1998-07-01").value // 1000)

    # four passes read this projection (selectivity, key blocks, day
    # histogram, date tagging) — materialize the 2-int columns once
    # (the same fix the sibling z-order audit applies to `tagged`)
    ds = (
        _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
        .map_batches(
            lambda b: pa.table(
                {
                    "o_orderkey": b["o_orderkey"],
                    "o_orderdate": pc.cast(b["o_orderdate"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def sel_partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"n_p": pa.array([int(((us >= LO) & (us < HI)).sum())], pa.int64())}
        )

    rows_selected = int(
        ds.map_batches(sel_partial, batch_format="pyarrow").sum("n_p") or 0
    )

    def key_blocks(batch: pa.Table) -> pa.Table:
        key = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table({"blk": pa.array(key // B, pa.int64()), "us": pc.cast(batch["o_orderdate"], pa.int64())})

    def audit(layout: str, blocks_ds) -> tuple[str, int, int]:
        def part(batch: pa.Table) -> pa.Table:
            mn = batch["mn"].to_numpy(zero_copy_only=False)
            mx = batch["mx"].to_numpy(zero_copy_only=False)
            scanned = int(((mn < HI) & (mx >= LO)).sum())
            return pa.table(
                {
                    "nb_p": pa.array([len(mn)], pa.int64()),
                    "sc_p": pa.array([scanned], pa.int64()),
                }
            )

        totals = blocks_ds.map_batches(part, batch_format="pyarrow").aggregate(
            Sum("nb_p", alias_name="nb"), Sum("sc_p", alias_name="sc")
        )
        return layout, int(totals["nb"]), int(totals["sc"])

    key_layout = audit(
        "key_order",
        group_agg(ds.map_batches(key_blocks, batch_format="pyarrow"), "blk", mn=("min", "us"), mx=("max", "us")),
    )

    # date-clustered layout: global (date, key) rank via day-histogram prefix
    hist = group_agg(ds.rename_columns({"o_orderdate": "us"}), "us", n=("count",)).take_all()
    hist.sort(key=lambda r: r["us"])
    offsets, run = {}, 0
    for r in hist:
        offsets[int(r["us"])] = run
        run += int(r["n"])
    off_ref = ray.put(offsets)

    def date_tag(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": batch["o_orderkey"],
                "us": pc.cast(batch["o_orderdate"], pa.int64()),
            }
        )

    def rank_blocks(group: pd.DataFrame) -> pd.DataFrame:
        us = int(group["us"].iloc[0])
        base = ray.get(off_ref)[us]
        n = len(group)
        # all rows in this group share one date, so the within-day key
        # order cannot move any block's min/max — the touched block range
        # is base..base+n-1 regardless of intra-day permutation
        blk = (base + np.arange(n, dtype=np.int64)) // B
        ub = np.unique(blk)
        return pd.DataFrame({"blk": ub, "mn_p": us, "mx_p": us})

    date_layout = audit(
        "date_sorted",
        group_agg(
            cogroup(
                ds.map_batches(date_tag, batch_format="pyarrow"),
                "us",
                each_key("us", rank_blocks),
                {"blk": pa.int64(), "mn_p": pa.int64(), "mx_p": pa.int64()},
            ),
            "blk",
            mn=("min", "mn_p"),
            mx=("max", "mx_p"),
        ),
    )

    layouts = [key_layout, date_layout]
    return pa.table(
        {
            "layout": pa.array([r[0] for r in layouts], pa.string()),
            "n_blocks": pa.array([r[1] for r in layouts], pa.int64()),
            "blocks_scanned": pa.array([r[2] for r in layouts], pa.int64()),
            "rows_selected": pa.array([rows_selected] * 2, pa.int64()),
            "scan_fraction": pa.array(
                [round(float(r[2]) / r[1], 6) for r in layouts], pa.float64()
            ),
        }
    )


def q_lineitem_corr_matrix(sf_dir: str):
    """Exact Pearson correlation MATRIX over the four lineitem measures
    (quantity, extendedprice, discount, tax) — the multi-column profiling
    moment pass, generalizing `lineitem_qty_discount_corr` to all C(4,2)
    pairs in ONE scan.  Integer-exact via the `embedding_covariance`
    recipe: both engines lift with the identical IEEE chain
    ``floor(x·scale + 0.5)`` (cents / percent points), so column sums and
    the 4×4 product-moment matrix are integer partials; each batch ships
    ONE fixed-size packed row, the driver folds arbitrary-precision
    Python ints, and corr is one mirrored double chain
    ``(n·Sxy − Sx·Sy) / (√(n·Sxx − Sx²)·√(n·Syy − Sy²))``.

    Scale shape: partial size is O(d²)=constant per batch regardless of
    rows; no shuffle at all (the all-reduce is the take_all of
    O(#batches) 15-int rows).  batch_size=4096 bounds the int64 product
    sums (cents² ≈ 1e14 × 4096 ≈ 4e17 < 2⁶³), with a loud magnitude
    assert rather than silent wraparound."""
    NAMES = ("quantity", "extendedprice", "discount", "tax")
    SCALES = (1.0, 100.0, 100.0, 100.0)

    def partials(batch: pa.Table) -> pa.Table:
        cols = []
        for name, scale in zip(
            ("l_quantity", "l_extendedprice", "l_discount", "l_tax"), SCALES
        ):
            x = batch[name].to_numpy(zero_copy_only=False)
            cols.append(np.floor(x * scale + 0.5).astype(np.int64))
        m = np.stack(cols, axis=1)
        if m.size and not (np.abs(m).max() < (1 << 25) and m.shape[0] <= 8192):
            raise ValueError(
                "lineitem_corr_matrix int64 partial bound violated: "
                f"max |lifted| {np.abs(m).max()} rows {m.shape[0]}"
            )
        return pa.table(
            {
                "n_p": pa.array([int(m.shape[0])], pa.int64()),
                "s_p": pa.array([m.sum(axis=0).tobytes()], pa.binary()),
                "p_p": pa.array([(m.T @ m).tobytes()], pa.binary()),
            }
        )

    n = 0
    s = np.zeros(4, dtype=object)
    p = np.zeros((4, 4), dtype=object)
    rows = (
        _read(
            sf_dir,
            "lineitem",
            ["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
        )
        .map_batches(partials, batch_format="pyarrow", batch_size=4096)
        .take_all()
    )
    for r in rows:
        n += int(r["n_p"])
        s = s + np.frombuffer(r["s_p"], dtype=np.int64)
        p = p + np.frombuffer(r["p_p"], dtype=np.int64).reshape(4, 4)
    import math

    col_a, col_b, corr = [], [], []
    for i in range(4):
        for j in range(i + 1, 4):
            num = n * int(p[i, j]) - int(s[i]) * int(s[j])
            dx = n * int(p[i, i]) - int(s[i]) * int(s[i])
            dy = n * int(p[j, j]) - int(s[j]) * int(s[j])
            col_a.append(NAMES[i])
            col_b.append(NAMES[j])
            corr.append(
                round(float(num) / (math.sqrt(float(dx)) * math.sqrt(float(dy))), 6)
            )
    return pa.table(
        {
            "col_a": pa.array(col_a, pa.string()),
            "col_b": pa.array(col_b, pa.string()),
            "corr": pa.array(corr, pa.float64()),
        }
    )


def q_rake_word_scores(sf_dir: str):
    """RAKE keyword scoring (Rose et al. 2010): candidate phrases are the
    maximal stopword-free token runs of each document (the 10-word
    `_STOP_WORDS` contract is the delimiter set); each word scores
    deg(w)/freq(w) where freq counts occurrences inside phrases and deg
    sums the lengths of the phrases containing each occurrence — words
    that live in longer collocations outrank isolated frequent words.
    Output: global top-20 words by (deg/freq desc, word asc) with exact
    integer deg/freq and the 6dp-rounded score.

    Scale shape: phrase runs and per-word (freq, deg) partials fold
    map-side (one Counter pass per batch); the only exchange is a
    co-group sum on the word (the ≥5k-key `groupby.aggregate` pathology
    rule — never a generic hash aggregate over an open vocabulary), then
    per-block top-20 prune so the final sort sees O(20·blocks) rows.  The
    selection key is the UNROUNDED quotient (one IEEE div of exact ints —
    identical in both engines)."""
    stop = set(_STOP_WORDS)

    def partial(batch: pa.Table) -> pa.Table:
        freq: Counter = Counter()
        deg: Counter = Counter()
        def flush(run: list[str]) -> None:
            plen = len(run)
            for rw in run:
                freq[rw] += 1
                deg[rw] += plen

        for text in batch["text"].to_pylist():
            words = (text or "").lower().split()
            run: list[str] = []
            for w in words:
                if w in stop:
                    if run:
                        flush(run)
                        run = []
                else:
                    run.append(w)
            if run:  # trailing phrase — no in-band sentinel token
                flush(run)
        keys = list(freq.keys())
        return pa.table(
            {
                "word": pa.array(keys, pa.string()),
                "freq_p": pa.array([freq[k] for k in keys], pa.int64()),
                "deg_p": pa.array([deg[k] for k in keys], pa.int64()),
            }
        )

    def bucket_top(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby("word", as_index=False)[["freq_p", "deg_p"]].sum()
        sc = g["deg_p"].to_numpy(dtype=np.float64) / g["freq_p"].to_numpy(
            dtype=np.float64
        )
        out = pd.DataFrame({"word": g["word"], "freq": g["freq_p"], "deg": g["deg_p"], "sc": sc})
        return out.sort_values(["sc", "word"], ascending=[False, True]).head(20)

    top = (
        cogroup(
            _read(sf_dir, "documents", ["text"]).map_batches(partial, batch_format="pyarrow"),
            "word",
            bucket_top,
            {"word": pa.string(), "freq": pa.int64(), "deg": pa.int64(), "sc": pa.float64()},
        )
        .sort(["sc", "word"], descending=[True, False])
        .limit(20)
    )

    def finish(batch: pa.Table) -> pa.Table:
        sc = batch["sc"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "word": batch["word"],
                "freq": batch["freq"],
                "deg": batch["deg"],
                "score": pa.array([round(float(v), 6) for v in sc], pa.float64()),
            }
        )

    return top.map_batches(finish, batch_format="pyarrow")


# node count up to which HITS broadcasts the score table instead of
# co-grouping scores with the edges
_HITS_BROADCAST_NODES = 200_000


def q_link_hits(sf_dir: str):
    """HITS hubs & authorities (Kleinberg 1999) over the URL-level outlink
    graph of the extraction pass — the second classical link-analysis
    centrality next to `link_pagerank`, and the one that distinguishes
    *pointing well* (hubs) from *being pointed at* (authorities).
    INTEGER-EXACT like the PageRank: scores live as scaled int64
    (S = 10⁶); each half-round is an integer message sum over edges, and
    normalization divides by the round's MAX (max is associative and
    order-free, unlike an L2 norm) via ``(v·S) // max`` — every
    intermediate is bit-identical on both engines.  K = 2 full rounds,
    unrolled in the oracle as chained CTEs over the same fixture-derived
    edges (edge contract identical to `link_pagerank`).

    Scale shape — two paths, AUTO-SWITCHED on node count (the
    `copurchase_triangles` pattern; integer sums make both paths
    bit-identical, pinned by a forced-path test):
    - nodes ≤ ``_HITS_BROADCAST_NODES`` (200k): the score table broadcasts once per
      half-round via ``ray.put`` (O(nodes) ints); edges are scanned
      map-side ONLY (never shuffled), message partials pre-aggregate per
      batch and ONE dst-hash co-group sums them — halves the all-to-all
      count, which dominates wall at small graph sizes.
    - larger graphs: Pregel-style message passing — the authority
      half-round co-groups hub scores with edges on the SRC node and sums
      messages on the DST node; the hub half-round mirrors it;
      per-round driver state is ONE scalar (the max)."""
    import ray

    K = 2
    S = 1_000_000
    _ensure_pages_fixture(sf_dir)

    def edge_rows(batch: pa.Table) -> pa.Table:
        src_out, dst_out = [], []
        for url, raw in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
            for d in _resolve_outlinks(url, raw):
                src_out.append(url)
                dst_out.append(d)
        return pa.table({"node": pa.array(src_out, pa.string()), "other": pa.array(dst_out, pa.string())})

    # repartition to ~one block per core before materializing: the edge
    # list is re-scanned 4× per run, and hundreds of page-sized micro
    # blocks would pay per-task overhead each scan
    edges_by_src = (
        _oracle_visible_pages(sf_dir, include_text_route=False)
        .map_batches(edge_rows, batch_format="pyarrow")
        .repartition(_spread_blocks())
        .materialize()
    )

    def flip(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["other"], "other": batch["node"]})

    def both_ends(batch: pa.Table) -> pa.Table:
        ends = [batch["node"].combine_chunks(), batch["other"].combine_chunks()]
        return pa.table({"node": pa.concat_arrays(ends)})

    score_schema = {"node": pa.string(), "v": pa.int64()}

    def dedup_nodes(bucket: pd.DataFrame) -> pd.DataFrame:
        uniq = np.sort(pd.unique(bucket["node"]))
        return pd.DataFrame({"node": uniq, "v": np.zeros(len(uniq), dtype=np.int64)})

    nodes = cogroup(
        edges_by_src.map_batches(both_ends, batch_format="pyarrow"), "node", dedup_nodes, score_schema
    ).materialize()

    def emit_msgs(scores: pd.DataFrame, ed: pd.DataFrame) -> pd.DataFrame | None:
        if scores.empty or ed.empty:
            return None
        vmap = dict(zip(scores["node"], scores["v"]))
        # build both columns from numpy: mixing an original-index Series
        # with a fresh Series would index-align into misrowed NaNs
        return pd.DataFrame(
            {"node": ed["other"].to_numpy(), "v": ed["node"].map(vmap).to_numpy(dtype=np.int64)}
        )

    def sum_scores(msgs: pd.DataFrame, nodes: pd.DataFrame) -> pd.DataFrame:
        # every node keeps a zero row, so a node no message reaches scores 0
        both = pd.concat([f for f in (msgs, nodes) if len(f)])
        return both.groupby("node", as_index=False)["v"].sum()

    n_nodes = nodes.count()
    if n_nodes <= _HITS_BROADCAST_NODES:
        # broadcast fast path: edges never shuffle (map-side per-batch
        # message partials), the O(nodes)-bounded partial sums fold on
        # the driver — zero all-to-alls per half-round.  Integer sums are
        # associative, so this is bit-identical to the co-grouped path
        # (pinned by the forced-path test).
        node_list = sorted(nodes.to_pandas()["node"].tolist())

        def bc_half(smap: dict, tail_col: str, head_col: str) -> dict:
            ref = ray.put(smap)

            def msg_partial(batch: pa.Table) -> pa.Table:
                m = ray.get(ref)
                agg: dict[str, int] = {}
                for t, h in zip(
                    batch[tail_col].to_pylist(), batch[head_col].to_pylist()
                ):
                    agg[h] = agg.get(h, 0) + m[t]
                ks = list(agg.keys())
                return pa.table(
                    {
                        "node": pa.array(ks, pa.string()),
                        "v": pa.array([agg[k] for k in ks], pa.int64()),
                    }
                )

            raw: dict[str, int] = {}
            for r in edges_by_src.map_batches(
                msg_partial, batch_format="pyarrow"
            ).take_all():
                raw[r["node"]] = raw.get(r["node"], 0) + int(r["v"])
            mx = max(raw.values(), default=0)
            if mx <= 0:
                raise ValueError("link_hits: empty link graph (max score 0)")
            return {u: (raw.get(u, 0) * S) // mx for u in node_list}

        hubs_m = {u: S for u in node_list}
        auths_m: dict = {}
        for _round in range(K):
            auths_m = bc_half(hubs_m, "node", "other")
            hubs_m = bc_half(auths_m, "other", "node")
        top = sorted(node_list, key=lambda u: (-auths_m[u], u))[:20]
        return pa.table(
            {
                "url": pa.array(top, pa.string()),
                "auth": pa.array([auths_m[u] for u in top], pa.int64()),
                "hub": pa.array([hubs_m[u] for u in top], pa.int64()),
            }
        )

    edges_by_dst = edges_by_src.map_batches(flip, batch_format="pyarrow").materialize()

    def half_round(scores, edges_oriented):
        # join the (node, v) scores onto the oriented edges, sum, normalize
        msgs = cogroup([scores, edges_oriented], "node", emit_msgs, score_schema)
        raw = cogroup([msgs, nodes], "node", sum_scores, score_schema).materialize()
        mx = int(raw.max("v") or 0)
        if mx <= 0:
            raise ValueError("link_hits: empty link graph (max score 0)")

        def normalize(batch: pa.Table) -> pa.Table:
            v = batch["v"].to_numpy(zero_copy_only=False)
            return pa.table(
                {"node": batch["node"], "v": pa.array((v * S) // mx, pa.int64())}
            )

        return raw.map_batches(normalize, batch_format="pyarrow").materialize()

    def init_scores(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch["node"],
                "v": pa.array([S] * batch.num_rows, pa.int64()),
            }
        )

    hubs = nodes.map_batches(init_scores, batch_format="pyarrow").materialize()
    auths = None
    for _round in range(K):
        auths = half_round(hubs, edges_by_src)
        hubs = half_round(auths, edges_by_dst)

    # join auth + hub per node (co-group on the node), then global top-20
    def join_top(auths: pd.DataFrame, hubs: pd.DataFrame) -> pd.DataFrame | None:
        if auths.empty or hubs.empty:
            return None
        m = auths.merge(hubs, on="node", suffixes=("_auth", "_hub"))
        m = m.rename(columns={"v_auth": "auth", "v_hub": "hub"})
        m = m.sort_values(["auth", "node"], ascending=[False, True]).head(20)
        return m.rename(columns={"node": "url"})

    return (
        cogroup(
            [auths, hubs],
            "node",
            join_top,
            {"url": pa.string(), "auth": pa.int64(), "hub": pa.int64()},
        )
        .sort(["auth", "url"], descending=[True, False])
        .limit(20)
    )


def q_attribution_first_touch(sf_dir: str):
    """First-touch conversion attribution — the marketing-analytics join of
    sessionization and funnel logic: every 'purchase' event is attributed
    to the FIRST event type of its session (30-min inactivity gap, the
    `events_sessions` contract), and the output counts purchases per
    first-touch channel.  Deterministic total order ``(ts, event_id)``
    pins "first" under timestamp ties on both engines.

    Scale shape: ONE co-group on user_id (each user's events are
    co-resident); sessionize + first-value + purchase counting fold inside
    the group, so the only exchange after the narrow (user, us, id, type)
    shuffle is a tiny (first_touch, n) grouped sum."""

    def attribute(bucket: pd.DataFrame) -> pd.DataFrame:
        g, start = _timeline(bucket, ["us", "event_id"], _SESSION_GAP_US)
        types = g["event_type"].to_numpy()
        first = types[np.flatnonzero(start)][np.cumsum(start) - 1]  # each row's session opener
        counts = pd.Series(first[types == "purchase"]).value_counts(dropna=False)
        return pd.DataFrame({"first_touch": counts.index, "n_p": counts.to_numpy()})

    return group_agg(
        cogroup(
            _events(sf_dir, ["user_id", "event_id", "event_type"]),
            "user_id",
            attribute,
            {"first_touch": pa.string(), "n_p": pa.int64()},
        ),
        "first_touch",
        n_purchases=("sum", "n_p"),
    )


def q_user_weekly_retention(sf_dir: str):
    """Weekly cohort retention matrix — the product-analytics staple:
    users cohorted by first-activity week (weeks since corpus start),
    counted once per (cohort_week, week_offset) they were active in.
    Diagonal offset 0 is the cohort size; the decay along each row is
    the retention curve.

    Scale shape: one global min(ts) scalar, then ONE co-group on user_id
    (per-batch (user, week) distinct partials ship instead of raw
    events); per-user cohort + offsets fold in the group and only
    (cohort, offset, n) partial counts reach the final tiny grouped
    sum."""
    WEEK_US = 7 * 24 * 3_600_000_000

    start = int(
        _read(sf_dir, "events", ["ts"])
        .map_batches(
            lambda b: pa.table(
                {"m": pa.array([pc.min(b["ts"].cast(pa.int64())).as_py()], pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .min("m")
    )

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        week = (us - start) // WEEK_US
        pairs = np.unique(np.stack([uid, week], axis=1), axis=0)
        return pa.table(
            {
                "user_id": pa.array(pairs[:, 0], pa.int64()),
                "week": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    def fold(bucket: pd.DataFrame) -> pd.DataFrame:
        active = bucket.drop_duplicates(["user_id", "week"])
        cohort = active.groupby("user_id", sort=False)["week"].transform("min")
        cells = pd.DataFrame({"cohort_week": cohort, "week_offset": active["week"] - cohort})
        return cells.groupby(["cohort_week", "week_offset"], as_index=False).size().rename(columns={"size": "n_p"})

    return group_agg(
        cogroup(
            _read(sf_dir, "events", ["user_id", "ts"]).map_batches(partial, batch_format="pyarrow"),
            "user_id",
            fold,
            {"cohort_week": pa.int64(), "week_offset": pa.int64(), "n_p": pa.int64()},
        ),
        ["cohort_week", "week_offset"],
        n_users=("sum", "n_p"),
    )


def q_conversion_latency_quantiles(sf_dir: str):
    """Time-to-convert distribution: per user, seconds from first 'view'
    to first 'purchase' (users with both, purchase not before view), and
    the EXACT discrete p25/p50/p75/p90 of that latency — the funnel-speed
    report next to `events_funnel`'s conversion counts.  Quantile element
    selection mirrors DuckDB ``quantile_disc`` (1-based ``ceil(q·n)``), so
    the picked values are bit-identical.

    Scale shape: one user-grouped (min_view, min_purchase), then
    latencies collapse to a grouped (latency, n) histogram whose merge is
    bounded by the corpus TIME SPAN in seconds (like the hourly/ACF ops),
    never by event count."""
    import math

    BIG = 1 << 62

    def steps(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch["event_type"], pa.array(["view", "purchase"])))
        us = batch["ts"].cast(pa.int64())

        def at(name: str) -> pa.Array:
            return pc.if_else(pc.equal(batch["event_type"], name), us, BIG)

        return pa.table({"user_id": batch["user_id"], "v": at("view"), "p": at("purchase")})

    per_user = group_agg(
        _read(sf_dir, "events", ["user_id", "event_type", "ts"]).map_batches(steps, batch_format="pyarrow"),
        "user_id",
        v=("min", "v"),
        p=("min", "p"),
    )

    def latency(batch: pa.Table) -> pa.Table:
        v = batch["v"].to_numpy(zero_copy_only=False)
        p = batch["p"].to_numpy(zero_copy_only=False)
        ok = (v < BIG) & (p < BIG) & (p >= v)
        return pa.table({"lat": pa.array((p[ok] - v[ok]) // 1_000_000, pa.int64())})

    rows = group_agg(per_user.map_batches(latency, batch_format="pyarrow"), "lat", n=("count",)).take_all()
    rows.sort(key=lambda r: r["lat"])
    values = np.array([r["lat"] for r in rows], dtype=np.int64)
    cum = np.array([r["n"] for r in rows], dtype=np.int64).cumsum()
    total = int(cum[-1]) if len(cum) else 0
    if total == 0:  # no conversions: the oracle yields (0, NULL × 4)
        return pa.table(
            {
                "n_converted": pa.array([0], pa.int64()),
                "p25": pa.array([None], pa.int64()),
                "p50": pa.array([None], pa.int64()),
                "p75": pa.array([None], pa.int64()),
                "p90": pa.array([None], pa.int64()),
            }
        )

    def disc(q: float) -> int:
        target = math.ceil(q * total)
        return int(values[int((cum >= target).argmax())])

    return pa.table(
        {
            "n_converted": pa.array([total], pa.int64()),
            "p25": pa.array([disc(0.25)], pa.int64()),
            "p50": pa.array([disc(0.50)], pa.int64()),
            "p75": pa.array([disc(0.75)], pa.int64()),
            "p90": pa.array([disc(0.90)], pa.int64()),
        }
    )


def q_systematic_sample(sf_dir: str):
    """Systematic (every k-th) sampling by global ``(ts, event_id)`` rank,
    k = 997 — the deterministic, evenly-spaced alternative to Bernoulli
    sampling when downstream wants uniform TIME coverage; returns the
    sampled event ids with their ranks so the spacing is auditable.

    Scale shape: the `docs_global_rank` two-phase zip-with-index — a tiny
    per-HOUR histogram (O(hours), time-bounded) broadcast as exclusive
    prefix offsets, then within-hour ranking in a grouped fold; only
    sampled rows leave the group task.  Partitioning assumption: one
    hour's events fit a group task (drop to minute granularity when they
    don't)."""
    import ray

    K = 997
    HOUR_US = 3_600_000_000

    ds = _read(sf_dir, "events", ["event_id", "ts"])
    hist = _hourly_counts(sf_dir).take_all()
    hist.sort(key=lambda r: r["hour"])
    offsets, run = {}, 0
    for r in hist:
        offsets[int(r["hour"])] = run
        run += int(r["n"])
    off_ref = ray.put(offsets)

    def tag(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64())
        return pa.table(
            {
                "event_id": batch["event_id"],
                "us": us,
                "hour": pc.divide(us, HOUR_US),
            }
        )

    def pick(group: pd.DataFrame) -> pd.DataFrame:
        base = ray.get(off_ref)[int(group["hour"].iloc[0])]
        g = group.sort_values(["us", "event_id"], kind="mergesort")
        rank = base + np.arange(len(g), dtype=np.int64)
        keep = rank % K == 0
        return pd.DataFrame({"event_id": g["event_id"].to_numpy()[keep], "rank": rank[keep]})

    return cogroup(
        ds.map_batches(tag, batch_format="pyarrow"),
        "hour",
        each_key("hour", pick),
        {"event_id": pa.int64(), "rank": pa.int64()},
    )


def q_orders_constraint_audit(sf_dir: str):
    """Data-validation constraint battery over ``orders`` — the
    expectations-suite shape (unique key, non-negative amount, FK
    integrity, domain membership, date bounds) reported as violation
    counts per rule.  Zero counts are the PASSING result the audit
    exists to prove; the uniqueness and FK rules still exercise the
    real distributed machinery.

    Scale shape: the value rules (amount, status, date) fold map-side
    to scalar partials; uniqueness ships per-batch (key, count)
    partials into an exact count co-grouped on the key; the FK orphan
    rule is an anti-join of order custkeys against customer marks
    co-grouped on the custkey (narrow int rows).  One final tiny grouped
    sum emits the five-row report."""

    def value_rules(batch: pa.Table) -> pa.Table:
        tp = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        bad_price = int(np.isnan(tp).sum() + (tp <= 0).sum())
        st = batch["o_orderstatus"].to_pylist()
        # NULL is a violation too (and SQL NOT IN alone would skip it)
        bad_status = sum(1 for s in st if s is None or s not in ("O", "F", "P"))
        us = batch["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        lo = int(pd.Timestamp("1990-01-01").value // 1000)
        hi = int(pd.Timestamp("2010-01-01").value // 1000)
        bad_date = int(((us < lo) | (us >= hi)).sum())
        return pa.table(
            {
                "rule": pa.array(
                    ["null_or_nonpositive_totalprice", "bad_orderstatus", "orderdate_out_of_range"],
                    pa.string(),
                ),
                "n_p": pa.array([bad_price, bad_status, bad_date], pa.int64()),
            }
        )

    values = (
        _read(
            sf_dir, "orders", ["o_totalprice", "o_orderstatus", "o_orderdate"]
        ).map_batches(value_rules, batch_format="pyarrow")
    )

    # uniqueness: exact per-key counts via a co-group on the key
    def key_partial(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        ku, kc = np.unique(k, return_counts=True)
        return pa.table(
            {
                "key": pa.array(ku, pa.int64()),
                "n": pa.array(kc.astype(np.int64)),
            }
        )

    rule_schema = {"rule": pa.string(), "n_p": pa.int64()}

    def dup_fold(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby("key")["n"].sum()
        return pd.DataFrame({"rule": ["duplicate_orderkey_rows"], "n_p": [g[g > 1].sum()]})

    dups = cogroup(
        _read(sf_dir, "orders", ["o_orderkey"]).map_batches(key_partial, batch_format="pyarrow"),
        "key",
        dup_fold,
        rule_schema,
    )

    # FK orphans: order custkey counts vs customer keys, co-grouped on custkey
    def order_cust(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch["o_custkey"])
        return pa.table({"ckey": vc.field("values"), "n": vc.field("counts").cast(pa.int64())})

    def orphan_fold(orders: pd.DataFrame, custs: pd.DataFrame) -> pd.DataFrame:
        # a block without orders still reports the rule, with zero rows
        orders = orders.reindex(columns=["ckey", "n"])
        orphan_rows = int(orders.loc[~orders["ckey"].isin(custs["ckey"]), "n"].sum())
        return pd.DataFrame({"rule": ["orphan_custkey_rows"], "n_p": [orphan_rows]})

    orphans = cogroup(
        [
            _read(sf_dir, "orders", ["o_custkey"]).map_batches(order_cust, batch_format="pyarrow"),
            _keyed(_read(sf_dir, "customer", ["c_custkey"]), "c_custkey", "ckey"),
        ],
        "ckey",
        orphan_fold,
        rule_schema,
    )

    return group_agg(
        [values, dups, orphans],
        "rule",
        n_violations=("sum", "n_p"),
    )


def q_events_dow_hour_profile(sf_dir: str):
    """Weekly seasonality heatmap: event counts per (day-of-week,
    hour-of-day) with each cell's share of total traffic — the profile
    behind load forecasting and anomaly baselines.  Day-of-week derives
    from epoch arithmetic ``(days + 4) % 7`` (1970-01-01 was a Thursday;
    0 = Sunday) IDENTICALLY in both engines — no engine-specific
    calendar/locale builtin on either side.

    Scale shape: embarrassingly parallel per-row (dow, hour) keys; one
    ≤168-key grouped count; the share division is a single
    IEEE op on exact integers."""
    DAY_US = 86_400_000_000
    HOUR_US = 3_600_000_000

    def dow_hour(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"dow": pa.array(((us // DAY_US) + 4) % 7, pa.int64()), "hour": pa.array((us // HOUR_US) % 24, pa.int64())}
        )

    cells = group_agg(
        _read(sf_dir, "events", ["ts"]).map_batches(dow_hour, batch_format="pyarrow"), ["dow", "hour"], n=("count",)
    ).take_all()
    total = sum(int(r["n"]) for r in cells)
    cells.sort(key=lambda r: (r["dow"], r["hour"]))
    return pa.table(
        {
            "dow": pa.array([int(r["dow"]) for r in cells], pa.int64()),
            "hour": pa.array([int(r["hour"]) for r in cells], pa.int64()),
            "n": pa.array([int(r["n"]) for r in cells], pa.int64()),
            "share": pa.array(
                [round(float(int(r["n"])) / total, 6) for r in cells], pa.float64()
            ),
        }
    )


def q_zorder_layout_audit(sf_dir: str):
    """Z-ORDER clustering audit — the multi-dimensional sequel to
    `zone_map_pruning`: quantize ``(o_custkey, o_orderdate)`` to 8 bits
    each by value range, interleave the bits into a 16-bit Morton code,
    lay 250-row blocks along the global ``(z, o_orderkey)`` rank, and
    compare blocks scanned by a TWO-dimensional predicate (a custkey
    band AND a half-year date window) against the key-ordered layout.
    Single-column sorting optimizes one dimension; Z-order is what
    actually helps conjunctive predicates — this op measures exactly
    that.

    Scale shape: quantization bounds come from two scalar aggregates;
    the z-rank reuses the two-phase histogram pattern with a ≤2¹⁶-key
    histogram (bounded by the code width, NOT by rows); per-block
    min/max zone maps for BOTH dims fold map-side; the audit is a
    constant-size scalar fold."""
    import ray

    from ray.data.aggregate import Max, Min, Sum

    B = 250
    BITS = 8
    DAY_US = 86_400_000_000
    DLO = int(pd.Timestamp("1998-01-01").value // 1000)
    DHI = int(pd.Timestamp("1998-07-01").value // 1000)

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    bounds = ds.map_batches(
        lambda b: pa.table(
            {
                "cmax_p": pa.array(
                    [pc.max(b["o_custkey"]).as_py()], pa.int64()
                ),
                "dmin_p": pa.array(
                    [pc.min(b["o_orderdate"].cast(pa.int64())).as_py() // DAY_US],
                    pa.int64(),
                ),
                "dmax_p": pa.array(
                    [pc.max(b["o_orderdate"].cast(pa.int64())).as_py() // DAY_US],
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    ).aggregate(
        Max("cmax_p", alias_name="cmax"),
        Min("dmin_p", alias_name="dmin"),
        Max("dmax_p", alias_name="dmax"),
    )
    cmax = int(bounds["cmax"])
    dmin, dmax = int(bounds["dmin"]), int(bounds["dmax"])
    CLO_P, CHI_P = cmax // 4, cmax // 2  # the custkey band predicate

    def _morton(qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
        z = np.zeros_like(qx)
        for i in range(BITS):
            z |= ((qx >> i) & 1) << (2 * i)
            z |= ((qy >> i) & 1) << (2 * i + 1)
        return z

    def z_tag(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        us = batch["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = us // DAY_US
        qx = ck * 256 // (cmax + 1)
        qy = (day - dmin) * 256 // (dmax - dmin + 1)
        return pa.table(
            {
                "key": batch["o_orderkey"],
                "ck": pa.array(ck, pa.int64()),
                "us": pa.array(us, pa.int64()),
                "z": pa.array(_morton(qx, qy), pa.int64()),
            }
        )

    # reused by four downstream passes (histogram, both layouts, the
    # selectivity count) — materialize the narrow 4-int projection once
    tagged = ds.map_batches(z_tag, batch_format="pyarrow").materialize()

    hist = group_agg(tagged, "z", n=("count",)).take_all()
    hist.sort(key=lambda r: r["z"])
    offsets, run = {}, 0
    for r in hist:
        offsets[int(r["z"])] = run
        run += int(r["n"])
    off_ref = ray.put(offsets)

    def z_blocks(bucket: pd.DataFrame) -> pd.DataFrame:
        # one folded block holds MANY z codes (never one tiny group per
        # code — 2^16 codes would be the ≥5k-key tiny-group pathology);
        # rank each row as offsets[z] + its index within its z run
        off = ray.get(off_ref)
        g = bucket.sort_values(["z", "key"], kind="mergesort")
        z_arr = g["z"].to_numpy()
        n = len(g)
        starts = np.r_[0, np.flatnonzero(np.diff(z_arr)) + 1]
        counts = np.diff(np.r_[starts, n])
        within = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        bases = np.array([off[int(z_arr[s])] for s in starts], dtype=np.int64)
        rank = np.repeat(bases, counts) + within
        return pd.DataFrame({"blk": rank // B, "ck": g["ck"].to_numpy(), "us": g["us"].to_numpy()})

    def key_blocks(batch: pa.Table) -> pa.Table:
        key = batch["key"].to_numpy(zero_copy_only=False)
        return pa.table({"blk": pa.array(key // B, pa.int64()), "ck": batch["ck"], "us": batch["us"]})

    def audit(layout: str, blocks_ds) -> tuple[str, int, int]:
        def part(batch: pa.Table) -> pa.Table:
            cmn = batch["cmn"].to_numpy(zero_copy_only=False)
            cmx = batch["cmx"].to_numpy(zero_copy_only=False)
            dmn = batch["dmn"].to_numpy(zero_copy_only=False)
            dmx = batch["dmx"].to_numpy(zero_copy_only=False)
            hit = (cmn <= CHI_P) & (cmx >= CLO_P) & (dmn < DHI) & (dmx >= DLO)
            return pa.table(
                {
                    "nb_p": pa.array([len(cmn)], pa.int64()),
                    "sc_p": pa.array([int(hit.sum())], pa.int64()),
                }
            )

        totals = blocks_ds.map_batches(part, batch_format="pyarrow").aggregate(
            Sum("nb_p", alias_name="nb"), Sum("sc_p", alias_name="sc")
        )
        return layout, int(totals["nb"]), int(totals["sc"])

    # each block's zone map: min/max custkey and orderdate
    aggs = {"cmn": ("min", "ck"), "cmx": ("max", "ck"), "dmn": ("min", "us"), "dmx": ("max", "us")}
    key_layout = audit("key_order", group_agg(tagged.map_batches(key_blocks, batch_format="pyarrow"), "blk", **aggs))
    z_rows = cogroup(tagged, "z", z_blocks, {"blk": pa.int64(), "ck": pa.int64(), "us": pa.int64()})
    z_layout = audit("zorder", group_agg(z_rows, "blk", **aggs))

    def sel_part(batch: pa.Table) -> pa.Table:
        ck = batch["ck"].to_numpy(zero_copy_only=False)
        us = batch["us"].to_numpy(zero_copy_only=False)
        n = int(((ck >= CLO_P) & (ck <= CHI_P) & (us >= DLO) & (us < DHI)).sum())
        return pa.table({"n_p": pa.array([n], pa.int64())})

    rows_selected = int(
        tagged.map_batches(sel_part, batch_format="pyarrow").sum("n_p") or 0
    )

    layouts = [key_layout, z_layout]
    return pa.table(
        {
            "layout": pa.array([r[0] for r in layouts], pa.string()),
            "n_blocks": pa.array([r[1] for r in layouts], pa.int64()),
            "blocks_scanned": pa.array([r[2] for r in layouts], pa.int64()),
            "rows_selected": pa.array([rows_selected] * 2, pa.int64()),
            "scan_fraction": pa.array(
                [round(float(r[2]) / r[1], 6) for r in layouts], pa.float64()
            ),
        }
    )


def q_customer_order_gaps(sf_dir: str):
    """Inter-purchase interval distribution: per customer with ≥2 orders,
    the day gaps between consecutive orders (ordered by (date, orderkey)),
    reported as repeat-customer count, gap count, mean gap and exact
    discrete p50/p90 — the repeat-behavior profile behind churn and
    replenishment models.

    Scale shape: ONE co-group on custkey (narrow
    (cust, us, key) rows); per-customer sorted diffs fold to a (gap, n)
    histogram whose driver merge is bounded by the corpus span in DAYS,
    never by order count."""
    import math

    DAY_US = 86_400_000_000

    def to_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "ck": batch["o_custkey"],
                "us": batch["o_orderdate"].cast(pa.int64()),
                "key": batch["o_orderkey"],
            }
        )

    def fold(bucket: pd.DataFrame) -> pd.DataFrame:
        hist: Counter = Counter()
        multi = 0
        for _, g in bucket.groupby("ck", sort=False):
            if len(g) < 2:
                continue
            multi += 1
            g = g.sort_values(["us", "key"], kind="mergesort")
            gaps = np.diff(g["us"].to_numpy()) // DAY_US
            for gp in gaps:
                hist[int(gp)] += 1
        keys = list(hist.keys())
        return pd.DataFrame(
            {
                "gap": keys,
                "n_p": [hist[k] for k in keys],
                "multi_p": [multi] + [0] * (len(keys) - 1) if keys else [],
            }
        )

    rows = (
        group_agg(
            cogroup(
                _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_orderkey"]).map_batches(
                    to_rows, batch_format="pyarrow"
                ),
                "ck",
                fold,
                {"gap": pa.int64(), "n_p": pa.int64(), "multi_p": pa.int64()},
            ),
            "gap",
            n=("sum", "n_p"),
            m=("sum", "multi_p"),
        )
        .take_all()
    )
    rows.sort(key=lambda r: r["gap"])
    n_multi = sum(int(r["m"]) for r in rows)
    values = np.array([r["gap"] for r in rows], dtype=np.int64)
    counts = np.array([r["n"] for r in rows], dtype=np.int64)
    cum = counts.cumsum()
    n_gaps = int(cum[-1]) if len(cum) else 0
    gap_sum = int((values * counts).sum())
    if n_gaps == 0:  # no repeat customers: the oracle yields (0, 0, NULL × 3)
        return pa.table(
            {
                "n_customers_multi": pa.array([0], pa.int64()),
                "n_gaps": pa.array([0], pa.int64()),
                "mean_gap_days": pa.array([None], pa.float64()),
                "p50": pa.array([None], pa.int64()),
                "p90": pa.array([None], pa.int64()),
            }
        )

    def disc(q: float) -> int:
        target = math.ceil(q * n_gaps)
        return int(values[int((cum >= target).argmax())])

    return pa.table(
        {
            "n_customers_multi": pa.array([n_multi], pa.int64()),
            "n_gaps": pa.array([n_gaps], pa.int64()),
            "mean_gap_days": pa.array(
                [round(float(gap_sum) / n_gaps, 6)], pa.float64()
            ),
            "p50": pa.array([disc(0.50)], pa.int64()),
            "p90": pa.array([disc(0.90)], pa.int64()),
        }
    )


def q_events_funnel_windowed(sf_dir: str):
    """Windowed strict-order funnel: users with a view → click → purchase
    triple (strictly increasing timestamps) completing within 24 HOURS
    end-to-end — the time-bounded conversion count `events_funnel`'s
    unbounded ordering can't express.  Existence semantics: ∃ (v, c, p)
    with v < c < p and p − v ≤ 24 h, evaluated per user.

    Scale shape: one co-group on user_id; each block answers every
    purchase with two as-of joins by user (its latest click strictly
    before it, then the earliest view at or after p − 24 h), so there is
    no cross-user state and one scalar sum comes out."""
    from ray.data.aggregate import Sum

    WIN_US = 24 * 3_600_000_000

    def fold(bucket: pd.DataFrame) -> pd.DataFrame:
        def of_type(t: str, name: str) -> pd.DataFrame:
            rows = bucket.loc[bucket["event_type"] == t, ["user_id", "us"]]
            return rows.rename(columns={"us": name}).sort_values(name)

        # each purchase's latest click strictly before it ...
        clicked = pd.merge_asof(
            of_type("purchase", "p"), of_type("click", "c"), left_on="p", right_on="c",
            by="user_id", allow_exact_matches=False,
        ).dropna(subset=["c"])
        # ... and the earliest view at or after p − 24 h: the triple exists
        # iff that view comes before the click
        clicked["lo"] = clicked["p"] - WIN_US
        viewed = pd.merge_asof(
            clicked.sort_values("lo"), of_type("view", "v"), left_on="lo", right_on="v",
            by="user_id", direction="forward",
        )
        return pd.DataFrame({"n_p": [viewed.loc[viewed["v"] < viewed["c"], "user_id"].nunique()]})

    totals = cogroup(
        _events(sf_dir, ["user_id", "event_type"]),
        "user_id",
        fold,
        {"n_p": pa.int64()},
    ).aggregate(Sum("n_p", alias_name="n"))
    return pa.table({"n_users": pa.array([int(totals["n"])], pa.int64())})


def q_events_hourly_top_types(sf_dir: str):
    """Windowed heavy hitters: the top-3 event types of every hourly
    tumbling window (count desc, type asc) with their rank — the
    per-window leaderboard `heavy_hitter_words` computes globally.

    Scale shape: per-batch (hour, type) partial counts (the shuffle
    ships one row per distinct pair per batch); hours co-group on the
    hour (MANY windows per fold call — never one tiny group per
    hour) and the final output is ≤3 rows per window."""
    HOUR_US = 3_600_000_000

    def partial(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        c = Counter(zip((us // HOUR_US).tolist(), batch["event_type"].to_pylist()))
        hours = np.array([k[0] for k in c], dtype=np.int64)
        return pa.table(
            {
                "h": pa.array(hours, pa.int64()),
                "event_type": pa.array([k[1] for k in c], pa.string()),
                "n_p": pa.array(list(c.values()), pa.int64()),
            }
        )

    def top3(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(["h", "event_type"], as_index=False)["n_p"].sum()
        g = g.sort_values(["h", "n_p", "event_type"], ascending=[True, False, True])
        g["rnk"] = g.groupby("h").cumcount() + 1
        g = g[g["rnk"] <= 3]
        return g.assign(hour_us=g["h"] * HOUR_US).rename(columns={"n_p": "n"})

    return cogroup(
        _read(sf_dir, "events", ["ts", "event_type"]).map_batches(partial, batch_format="pyarrow"),
        "h",
        top3,
        {"hour_us": pa.int64(), "event_type": pa.string(), "n": pa.int64(), "rnk": pa.int64()},
    )


def q_knn_mutual_pairs(sf_dir: str):
    """Mutual k-nearest-neighbor pairs (k = 5, cosine): (a, b) such that
    b ∈ knn(a) AND a ∈ knn(b) — the reciprocal-neighbor graph used for
    density-aware dedup and cluster seeding (mutual-kNN is much more
    precise than one-directional kNN near cluster boundaries).

    Scale shape: reuses `_batch_topk_fn` (broadcast query matrix,
    per-batch matmul top-(k+1) partials) with the WHOLE corpus as
    queries — exact all-vs-all is inherently O(N²); the query-matrix
    broadcast is the documented exact-mode assumption (same class as
    `embedding_near_dups`; at 10⁶+ rows switch to the LSH/IVF candidate
    pruning in functions/simsearch.py).  The final per-query selection
    happens inside the SAME co-group on the query that drops self and
    emits pair keys — NOT `_merge_topk`'s one-group-per-query finale,
    which at Q = N is the recorded tiny-group pathology (20 s → 3 s at
    sf0.1).  Mutuality resolves in ONE co-group on the unordered pair
    (count == 2 ⇒ both directions present)."""
    import ray

    from ..functions.simsearch import _normalize, _vec_matrix

    K = 5
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    rows = ds.take_all()  # exact-mode query broadcast: O(N·d), documented
    rows.sort(key=lambda r: r["vec_id"])
    ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    qmat = np.array([r["embedding"] for r in rows], dtype=np.float64)
    ids_ref = ray.put(ids)
    qref = ray.put(_normalize(qmat))

    def topk_partial(batch: pa.Table) -> pa.Table:
        # per-batch top-(K+1) per query with EXACT boundary-tie handling:
        # keep every candidate whose cosine equals the (K+1)-th largest
        # (argpartition alone keeps an arbitrary tie member, which could
        # drop the smallest-id candidate the oracle's tie-break keeps)
        q = ray.get(qref)
        mat = _normalize(_vec_matrix(batch["embedding"]))
        keys = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = q @ mat.T  # (Q, B)
        kk = min(K + 1, sims.shape[1])
        out_q, out_k, out_c = [], [], []
        for qi in range(sims.shape[0]):
            row = sims[qi]
            cb = np.partition(row, len(row) - kk)[len(row) - kk]
            idx = np.flatnonzero(row >= cb)
            # exact (cosine desc, key asc) order inside the tie set: the
            # first kk entries ARE the batch's exact top-kk under the
            # oracle's tie-break
            order = idx[np.lexsort((keys[idx], -row[idx]))][:kk]
            for j in order:
                out_q.append(qi)
                out_k.append(int(keys[j]))
                out_c.append(float(row[j]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_k, pa.int64()),
                "cosine": pa.array(out_c, pa.float64()),
            }
        )

    out = ds.map_batches(topk_partial, batch_format="pyarrow")

    def directed(batch: pa.Table) -> pa.Table:
        id_arr = ray.get(ids_ref)
        src = id_arr[batch["query_id"].to_numpy(zero_copy_only=False)]
        dst = batch["vec_id"].to_numpy(zero_copy_only=False)
        cos = batch["cosine"].to_numpy(zero_copy_only=False)
        keep = src != dst
        return pa.table(
            {
                "src": pa.array(src[keep], pa.int64()),
                "dst": pa.array(dst[keep], pa.int64()),
                "cosine": pa.array(cos[keep], pa.float64()),
            }
        )

    def head_k(bucket: pd.DataFrame) -> pd.DataFrame:
        # per query: self is gone; keep the first K by the kernel's own
        # (cosine desc, id asc) order, emit unordered pair keys
        g = bucket.sort_values(
            ["src", "cosine", "dst"], ascending=[True, False, True], kind="mergesort"
        )
        g = g.groupby("src", sort=False).head(K)
        lo = np.minimum(g["src"].to_numpy(), g["dst"].to_numpy())
        hi = np.maximum(g["src"].to_numpy(), g["dst"].to_numpy())
        return pd.DataFrame({"lo": lo, "hi": hi})

    def mutual(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(["lo", "hi"]).size()
        both = g[g == 2].index
        return pd.DataFrame({"left": [p[0] for p in both], "right": [p[1] for p in both]})

    pairs = cogroup(
        out.map_batches(directed, batch_format="pyarrow"),
        "src",
        head_k,
        {"lo": pa.int64(), "hi": pa.int64()},
    )
    return cogroup(
        pairs,
        ["lo", "hi"],
        mutual,
        {"left": pa.int64(), "right": pa.int64()},
    )


def q_nb_lang_f1(sf_dir: str):
    """Per-class precision / recall / F1 of the distributed Naive-Bayes
    language classifier — the evaluation report on top of
    `nb_lang_confusion`'s matrix (tp / fp / fn per class, exact integer
    counts; each metric is the mirrored double chain
    ``tp/(tp+fp)``, ``tp/(tp+fn)``, ``(2·p·r)/(p+r)``).  Per-class rows
    only — no macro average, so no float SUM-ordering enters the
    contract.

    Scale shape: the confusion matrix is L² rows (languages², a
    constant); deriving metrics from it is a driver-side fold over that
    constant-size table — all the distributed work (NB train + apply)
    happens inside the reused confusion pipeline."""
    conf = q_nb_lang_confusion(sf_dir)
    df = conf.to_pandas() if not isinstance(conf, pd.DataFrame) else conf
    classes = sorted(set(df["lang"]) | set(df["nb_pred"]))
    out = {"lang": [], "tp": [], "fp": [], "fn": [], "prec": [], "rec": [], "f1": []}
    for c in classes:
        tp = int(df.loc[(df["lang"] == c) & (df["nb_pred"] == c), "n"].sum())
        fp = int(df.loc[(df["nb_pred"] == c) & (df["lang"] != c), "n"].sum())
        fn = int(df.loc[(df["lang"] == c) & (df["nb_pred"] != c), "n"].sum())
        p = 0.0 if tp + fp == 0 else float(tp) / (tp + fp)
        r = 0.0 if tp + fn == 0 else float(tp) / (tp + fn)
        f1 = 0.0 if p + r == 0.0 else (2.0 * p * r) / (p + r)
        out["lang"].append(c)
        out["tp"].append(tp)
        out["fp"].append(fp)
        out["fn"].append(fn)
        out["prec"].append(round(p, 6))
        out["rec"].append(round(r, 6))
        out["f1"].append(round(f1, 6))
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "tp": pa.array(out["tp"], pa.int64()),
            "fp": pa.array(out["fp"], pa.int64()),
            "fn": pa.array(out["fn"], pa.int64()),
            "prec": pa.array(out["prec"], pa.float64()),
            "rec": pa.array(out["rec"], pa.float64()),
            "f1": pa.array(out["f1"], pa.float64()),
        }
    )


def q_events_bounce_rate(sf_dir: str):
    """Bounce rate by entry event type: sessions (30-min gap, the
    `events_sessions` contract) grouped by their FIRST event type, with
    the share that are single-event bounces — the engagement report
    attribution and sessionization exist to feed.

    Scale shape: one co-group on user_id emits per-type
    (n_sessions, n_bounces) partials; the rate divides two exact int64
    sums in ONE double op after the tiny grouped sum."""

    def fold(bucket: pd.DataFrame) -> pd.DataFrame:
        g, start = _timeline(bucket, ["us", "event_id"], _SESSION_GAP_US)
        first = np.flatnonzero(start)
        size = np.diff(np.append(first, len(g)))
        sessions = pd.DataFrame(
            {"first_touch": g["event_type"].to_numpy()[first], "s_p": 1, "b_p": (size == 1).astype(np.int64)}
        )
        return sessions.groupby("first_touch", as_index=False, dropna=False).sum()

    sums = group_agg(
        cogroup(
            _events(sf_dir, ["user_id", "event_id", "event_type"]),
            "user_id",
            fold,
            {"first_touch": pa.string(), "s_p": pa.int64(), "b_p": pa.int64()},
        ),
        "first_touch",
        n_sessions=("sum", "s_p"),
        n_bounces=("sum", "b_p"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        s = batch["n_sessions"].to_numpy(zero_copy_only=False)
        b = batch["n_bounces"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "first_touch": batch["first_touch"],
                "n_sessions": batch["n_sessions"],
                "n_bounces": batch["n_bounces"],
                "bounce_rate": pa.array(
                    [round(float(bb) / ss, 6) for bb, ss in zip(b, s)], pa.float64()
                ),
            }
        )

    return sums.map_batches(finish, batch_format="pyarrow")


_AUDIENCE_TYPES = ("click", "error", "purchase", "signup", "view")


def q_event_audience_jaccard(sf_dir: str):
    """Audience overlap (Jaccard) between every pair of event types:
    |users doing A ∩ users doing B| / |∪| — the segment-similarity
    matrix behind campaign targeting, computed EXACTLY from a per-user
    type BITMASK histogram: a user collapses to one 5-bit mask, masks
    fold to a ≤2⁵-row histogram, and every pairwise intersection /
    union derives from that constant-size table.  No per-pair scans, no
    distinct-set shuffles per pair.

    Scale shape: per-batch (user, mask-OR) partials → one OR-fold
    co-grouped on user_id → a ≤32-key histogram to the driver (constant,
    independent of users)."""
    bit = {t: i for i, t in enumerate(_AUDIENCE_TYPES)}

    def partial(batch: pa.Table) -> pa.Table:
        masks: dict[int, int] = {}
        for u, t in zip(batch["user_id"].to_pylist(), batch["event_type"].to_pylist()):
            if t in bit:
                masks[u] = masks.get(u, 0) | (1 << bit[t])
        users = list(masks.keys())
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "mask": pa.array([masks[u] for u in users], pa.int64()),
            }
        )

    def or_fold(bucket: pd.DataFrame) -> pd.DataFrame:
        per_user = bucket.groupby("user_id")["mask"].agg(lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
        mu, mc = np.unique(per_user.to_numpy(), return_counts=True)
        return pd.DataFrame({"mask": mu, "n_p": mc})

    hist = (
        group_agg(
            cogroup(
                _read(sf_dir, "events", ["user_id", "event_type"]).map_batches(
                    partial, batch_format="pyarrow"
                ),
                "user_id",
                or_fold,
                {"mask": pa.int64(), "n_p": pa.int64()},
            ),
            "mask",
            n=("sum", "n_p"),
        )
        .take_all()
    )
    counts = {int(r["mask"]): int(r["n"]) for r in hist}

    def size(bits: int) -> int:
        return sum(n for m, n in counts.items() if (m & bits) == bits)

    out = {"type_a": [], "type_b": [], "n_a": [], "n_b": [], "n_both": [], "jaccard": []}
    for i, a in enumerate(_AUDIENCE_TYPES):
        for b in _AUDIENCE_TYPES[i + 1 :]:
            na, nb_, nab = size(1 << bit[a]), size(1 << bit[b]), size(
                (1 << bit[a]) | (1 << bit[b])
            )
            union = na + nb_ - nab
            out["type_a"].append(a)
            out["type_b"].append(b)
            out["n_a"].append(na)
            out["n_b"].append(nb_)
            out["n_both"].append(nab)
            out["jaccard"].append(0.0 if union == 0 else round(float(nab) / union, 6))
    return pa.table(
        {
            "type_a": pa.array(out["type_a"], pa.string()),
            "type_b": pa.array(out["type_b"], pa.string()),
            "n_a": pa.array(out["n_a"], pa.int64()),
            "n_b": pa.array(out["n_b"], pa.int64()),
            "n_both": pa.array(out["n_both"], pa.int64()),
            "jaccard": pa.array(out["jaccard"], pa.float64()),
        }
    )


def q_orders_basket_profile(sf_dir: str):
    """Basket-size distribution: how many orders have k line items — the
    order-composition histogram behind co-purchase and pricing analyses.

    Scale shape: per-batch (orderkey, count) partials → one exact count
    fold co-grouped on the orderkey (a key's partials all land in one
    block) → per-block size histogram partials → tiny grouped sum.  Never a
    generic hash aggregate over the open orderkey domain."""

    def key_partial(batch: pa.Table) -> pa.Table:
        k = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        ku, kc = np.unique(k, return_counts=True)
        return pa.table(
            {
                "key": pa.array(ku, pa.int64()),
                "n": pa.array(kc.astype(np.int64)),
            }
        )

    def hist_fold(bucket: pd.DataFrame) -> pd.DataFrame:
        per_key = bucket.groupby("key")["n"].sum()
        su, sc = np.unique(per_key.to_numpy(), return_counts=True)
        return pd.DataFrame({"n_lines": su, "n_p": sc})

    return group_agg(
        cogroup(
            _read(sf_dir, "lineitem", ["l_orderkey"]).map_batches(
                key_partial, batch_format="pyarrow"
            ),
            "key",
            hist_fold,
            {"n_lines": pa.int64(), "n_p": pa.int64()},
        ),
        "n_lines",
        n_orders=("sum", "n_p"),
    )


def q_part_cheapest_supplier(sf_dir: str):
    """Per-part ARGMIN-by-value: the supplier offering each part's lowest
    observed line price (min total cents over that (part, supplier)'s
    lines; ties by suppkey) — the TPC-H Q2 shape re-expressed over
    lineitem since this corpus carries no partsupp table.  Complements
    `events_last_per_user` (argmax-by-time) with the argmin-by-aggregate
    flavor.

    Scale shape: per-batch (part, supp, min-cents) partials → ONE
    fold co-grouped on the partkey (a part's rows are co-resident, so the
    per-(part, supp) min merge and the per-part argmin both resolve
    locally).  Output is one row per part — never wider than the
    catalog."""

    def partial(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        cents = np.floor(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        df = pd.DataFrame({"pk": pk, "sk": sk, "c": cents})
        g = df.groupby(["pk", "sk"], as_index=False)["c"].min()
        return pa.table(
            {
                "pk": pa.array(g["pk"].to_numpy(), pa.int64()),
                "sk": pa.array(g["sk"].to_numpy(), pa.int64()),
                "c": pa.array(g["c"].to_numpy(), pa.int64()),
            }
        )

    def argmin_fold(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(["pk", "sk"], as_index=False)["c"].min()
        g = g.sort_values(["pk", "c", "sk"], kind="mergesort")
        best = g.groupby("pk", as_index=False).head(1)
        return best.rename(columns={"pk": "l_partkey", "sk": "l_suppkey", "c": "min_cents"})

    return cogroup(
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        "pk",
        argmin_fold,
        {"l_partkey": pa.int64(), "l_suppkey": pa.int64(), "min_cents": pa.int64()},
    )


def q_link_reciprocity(sf_dir: str):
    """Link-graph reciprocity: the fraction of directed outlink edges
    whose reverse edge also exists — the classic webgraph statistic
    separating mutual-link communities from broadcast link structure
    (near 0 on the open web, near 1 in navigation templates).

    Scale shape: the edge extraction is the `link_pagerank` contract;
    reciprocity resolves in ONE co-group on the unordered pair (a pair's
    two possible directions land together; directed edges under a
    reciprocated pair count 2).  Output is one scalar row."""
    from ray.data.aggregate import Sum

    _ensure_pages_fixture(sf_dir)

    def edge_rows(batch: pa.Table) -> pa.Table:
        lo_out, hi_out = [], []
        for url, raw in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
            for d in _resolve_outlinks(url, raw):
                lo, hi = (url, d) if url < d else (d, url)
                lo_out.append(lo)
                hi_out.append(hi)
        return pa.table(
            {
                "lo": pa.array(lo_out, pa.string()),
                "hi": pa.array(hi_out, pa.string()),
            }
        )

    def fold(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(["lo", "hi"]).size()
        # each (lo, hi) key appears once per DIRECTION present (edges are
        # per-page deduped, so counts are 1 or 2)
        return pd.DataFrame({"e_p": [g.sum()], "r_p": [g[g == 2].sum()]})

    totals = cogroup(
        _oracle_visible_pages(sf_dir, include_text_route=False).map_batches(
            edge_rows, batch_format="pyarrow"
        ),
        ["lo", "hi"],
        fold,
        {"e_p": pa.int64(), "r_p": pa.int64()},
    ).aggregate(Sum("e_p", alias_name="e"), Sum("r_p", alias_name="r"))
    n_edges, n_recip = int(totals["e"]), int(totals["r"])
    return pa.table(
        {
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_reciprocal": pa.array([n_recip], pa.int64()),
            "reciprocity": pa.array(
                [round(float(n_recip) / n_edges, 6)], pa.float64()
            ),
        }
    )


def q_link_degree_histogram(sf_dir: str):
    """Webgraph IN-degree distribution: per link TARGET, the number of
    distinct pages pointing at it (the `link_pagerank` edge contract —
    absolute http(s) plus root-relative resolved against the page
    authority, self-links dropped), histogrammed as (degree, n_targets)
    — the popularity census behind hub detection and cache sizing.
    (Out-degree is uniform by construction in this corpus — the
    generator emits a fixed link block — so in-degree is the axis with
    signal.)

    Scale shape: per-page edges are deduped at emission; ONE fold
    co-grouped on dst computes exact in-degrees (a target's edges are
    co-resident) and emits per-block (degree, n) histogram
    partials; the final grouped sum is O(distinct degrees)."""
    _ensure_pages_fixture(sf_dir)

    def edge_rows(batch: pa.Table) -> pa.Table:
        src_out, dst_out = [], []
        for url, raw in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
            for d in _resolve_outlinks(url, raw):
                src_out.append(url)
                dst_out.append(d)
        return pa.table(
            {
                "src": pa.array(src_out, pa.string()),
                "dst": pa.array(dst_out, pa.string()),
            }
        )

    def indeg_fold(bucket: pd.DataFrame) -> pd.DataFrame:
        deg = bucket.groupby("dst").size()  # per-page dedup done at emission
        du, dc = np.unique(deg.to_numpy(), return_counts=True)
        return pd.DataFrame({"degree": du, "n_p": dc})

    return group_agg(
        cogroup(
            _oracle_visible_pages(sf_dir, include_text_route=False).map_batches(
                edge_rows, batch_format="pyarrow"
            ),
            "dst",
            indeg_fold,
            {"degree": pa.int64(), "n_p": pa.int64()},
        ),
        "degree",
        n_targets=("sum", "n_p"),
    )


def q_pages_route_stats(sf_dir: str):
    """Per-route payload census over the pages corpus: page count, total
    and max TEXT-LAYER characters (decoded html chars for the html
    route, passthrough text length for the text route, 0 for the opaque
    csv/pdf payloads — the fixture's visibility contract), and an
    order-independent md5 fingerprint of (url, length) — the ingest-side
    profile that catches a route's payload drift (encoding regressions,
    truncation) before any extraction runs.  Routing mirrors the fixture
    rule verbatim: text present / .csv suffix / %PDF- magic / html.

    Scale shape: a stateless per-page (route, chars, fp) map, one ≤4-key
    grouped count/sum/max — zero shuffles of page bytes."""
    import hashlib

    from ..kernels.html_text import decode_html_bytes
    from ..kernels.pdf_text import is_pdf
    from ..sources.pages import pages_dataset

    MOD = 1_000_000_007
    _ensure_pages_fixture(sf_dir)

    def payload(batch: pa.Table) -> pa.Table:
        routes, chars, fps = [], [], []
        for url, raw, text in zip(
            batch["url"].to_pylist(),
            batch["html"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            raw = raw or b""
            if text is not None:
                route, n = "text", len(text)
            elif url.lower().endswith(".csv"):
                route, n = "csv", 0
            elif is_pdf(raw):
                route, n = "pdf", 0
            else:
                route, n = "html", len(decode_html_bytes(raw))
            digest = hashlib.md5(f"{url}|{n}".encode()).digest()
            routes.append(route)
            chars.append(n)
            fps.append(int.from_bytes(digest[:8], "little") % MOD)
        return pa.table(
            {
                "route": pa.array(routes, pa.string()),
                "n_chars": pa.array(chars, pa.int64()),
                "fp": pa.array(fps, pa.int64()),
            }
        )

    return group_agg(
        pages_dataset(pages_rows_for(sf_dir)).map_batches(payload, batch_format="pyarrow"),
        "route",
        n_pages=("count",),
        total_chars=("sum", "n_chars"),
        max_chars=("max", "n_chars"),
        payload_fp=("sum", "fp"),
    )


def q_session_duration_quantiles(sf_dir: str):
    """Session-shape distribution: exact discrete p50/p90 of session
    duration (seconds) and of events-per-session over the 30-min-gap
    session contract — the engagement-depth report sessionization feeds.
    Quantile element selection is the ``quantile_disc`` ceil rule.

    Scale shape: one co-group on user_id sessionizes and emits
    per-block (duration-seconds, n) and (size, n) histogram partials;
    the driver merges histograms bounded by the corpus time span in
    seconds (durations) and by the max session length (sizes) — never
    O(sessions) rows."""
    import math

    def fold(bucket: pd.DataFrame) -> pd.DataFrame:
        s = _sessionize(bucket, _SESSION_GAP_US)
        dur = (s["session_end_us"] - s["session_start_us"]).to_numpy() // 1_000_000
        vals = pd.DataFrame(
            {"kind": np.repeat(["dur", "size"], len(s)), "val": np.concatenate([dur, s["n_events"].to_numpy()])}
        )
        return vals.groupby(["kind", "val"], as_index=False).size().rename(columns={"size": "n_p"})

    rows = (
        group_agg(
            cogroup(
                _events(sf_dir, ["user_id"]),
                "user_id",
                fold,
                {"kind": pa.string(), "val": pa.int64(), "n_p": pa.int64()},
            ),
            ["kind", "val"],
            n=("sum", "n_p"),
        )
        .take_all()
    )

    n_sessions = sum(int(r["n"]) for r in rows if r["kind"] == "size")
    if n_sessions == 0:  # empty stream: the oracle yields (0, NULL × 4)
        return pa.table(
            {
                "n_sessions": pa.array([0], pa.int64()),
                "dur_p50_sec": pa.array([None], pa.int64()),
                "dur_p90_sec": pa.array([None], pa.int64()),
                "size_p50": pa.array([None], pa.int64()),
                "size_p90": pa.array([None], pa.int64()),
            }
        )

    def disc(kind: str, q: float) -> int:
        sub = sorted((int(r["val"]), int(r["n"])) for r in rows if r["kind"] == kind)
        values = np.array([s[0] for s in sub], dtype=np.int64)
        cum = np.array([s[1] for s in sub], dtype=np.int64).cumsum()
        target = math.ceil(q * int(cum[-1]))
        return int(values[int((cum >= target).argmax())])
    return pa.table(
        {
            "n_sessions": pa.array([n_sessions], pa.int64()),
            "dur_p50_sec": pa.array([disc("dur", 0.5)], pa.int64()),
            "dur_p90_sec": pa.array([disc("dur", 0.9)], pa.int64()),
            "size_p50": pa.array([disc("size", 0.5)], pa.int64()),
            "size_p90": pa.array([disc("size", 0.9)], pa.int64()),
        }
    )


def q_vocab_coverage_k(sf_dir: str):
    """Vocabulary coverage curve point: the minimum number of distinct
    words (ranked by frequency desc) whose cumulative frequency covers
    ≥ 90% of all tokens — the Zipf-economy statistic behind tokenizer
    vocab sizing.  INTEGER-EXACT: the boundary test is
    ``100·cum ≥ 90·total`` and within the boundary frequency the word
    count needed is exact integer arithmetic — no float enters.

    Scale shape: exact word counts via a fold co-grouped on the word;
    each folded block emits a (frequency-value, n_words) HISTOGRAM
    partial — Zipf keeps distinct frequency values ~O(√tokens), so the
    driver merge is sublinear in vocabulary and independent of the raw
    corpus."""

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch["text"].to_pylist():
            c.update((text or "").lower().split())
        keys = list(c.keys())
        return pa.table(
            {
                "word": pa.array(keys, pa.string()),
                "n_p": pa.array([c[k] for k in keys], pa.int64()),
            }
        )

    def freq_hist(bucket: pd.DataFrame) -> pd.DataFrame:
        per_word = bucket.groupby("word")["n_p"].sum()
        fu, fc = np.unique(per_word.to_numpy(), return_counts=True)
        return pd.DataFrame({"freq": fu, "nw_p": fc})

    rows = (
        group_agg(
            cogroup(
                _read(sf_dir, "documents", ["text"]).map_batches(partial, batch_format="pyarrow"),
                "word",
                freq_hist,
                {"freq": pa.int64(), "nw_p": pa.int64()},
            ),
            "freq",
            nw=("sum", "nw_p"),
        )
        .take_all()
    )
    rows.sort(key=lambda r: -int(r["freq"]))
    total_tokens = sum(int(r["freq"]) * int(r["nw"]) for r in rows)
    total_words = sum(int(r["nw"]) for r in rows)
    cum = 0
    k = 0
    for r in rows:
        f, nw = int(r["freq"]), int(r["nw"])
        if 100 * (cum + f * nw) >= 90 * total_tokens:
            # the boundary frequency: take just enough words of this freq
            need = (90 * total_tokens - 100 * cum + 100 * f - 1) // (100 * f)
            k += int(need)
            cum += int(need) * f
            break
        cum += f * nw
        k += nw
    return pa.table(
        {
            "total_tokens": pa.array([total_tokens], pa.int64()),
            "vocab_size": pa.array([total_words], pa.int64()),
            "k_90pct": pa.array([k], pa.int64()),
        }
    )


def q_top_word_per_lang(sf_dir: str):
    """ARGMAX over an open domain: the most frequent word of each
    language (count desc, word asc tie-break) — grouped-argmax where the
    value domain (vocabulary) is unbounded, so no engine may hash-aggregate
    it whole.

    Scale shape: per-batch (lang, word, n) partials → ONE fold
    co-grouped on the word (a word's rows co-locate, so per-(lang, word)
    totals are exact in-block) emitting each block's per-lang champion;
    the final argmax scans ≤ blocks·langs candidate rows."""

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for lang, text in zip(batch["lang"].to_pylist(), batch["text"].to_pylist()):
            for w in (text or "").lower().split():
                c[(lang, w)] += 1
        keys = list(c.keys())
        return pa.table(
            {
                "lang": pa.array([k[0] for k in keys], pa.string()),
                "word": pa.array([k[1] for k in keys], pa.string()),
                "n_p": pa.array([c[k] for k in keys], pa.int64()),
            }
        )

    def champion(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(["lang", "word"], as_index=False)["n_p"].sum()
        g = g.sort_values(["lang", "n_p", "word"], ascending=[True, False, True])
        return g.groupby("lang", as_index=False).head(1).rename(columns={"n_p": "n"})

    cands = cogroup(
        _read(sf_dir, "documents", ["lang", "text"]).map_batches(partial, batch_format="pyarrow"),
        "word",
        champion,
        {"lang": pa.string(), "word": pa.string(), "n": pa.int64()},
    ).take_all()
    best: dict[str, tuple[int, str]] = {}
    for r in cands:
        key = (-int(r["n"]), r["word"])
        if r["lang"] not in best or key < best[r["lang"]]:
            best[r["lang"]] = key
    langs = sorted(best)
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "word": pa.array([best[l][1] for l in langs], pa.string()),
            "n": pa.array([-best[l][0] for l in langs], pa.int64()),
        }
    )


def q_events_error_pchart(sf_dir: str):
    """SPC p-chart over the daily error share: each day's error rate
    against 3σ control limits derived from the overall rate
    (p̄ ± 3·√(p̄(1−p̄)/n_day)) — the monitoring primitive behind
    "did the pipeline break today".  The out-of-control flag compares
    the UNROUNDED doubles through the identical IEEE chain on both
    engines.

    Scale shape: one day-keyed grouped (n, n_err) (days are
    time-bounded), scalar p̄, stateless limit arithmetic."""
    import math

    DAY_US = 86_400_000_000

    def day_err(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        err = pc.cast(pc.fill_null(pc.equal(batch["event_type"], "error"), False), pa.int64())
        return pa.table({"day": pa.array(us // DAY_US, pa.int64()), "e": err})

    rows = group_agg(
        _read(sf_dir, "events", ["ts", "event_type"]).map_batches(day_err, batch_format="pyarrow"),
        "day",
        n=("count",),
        e=("sum", "e"),
    ).take_all()
    rows.sort(key=lambda r: r["day"])
    if not rows:  # empty stream: the oracle's day histogram is empty → 0 rows
        return pa.table(
            {
                "day_us": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "n_err": pa.array([], pa.int64()),
                "err_rate": pa.array([], pa.float64()),
                "ucl": pa.array([], pa.float64()),
                "lcl": pa.array([], pa.float64()),
                "out_of_control": pa.array([], pa.int64()),
            }
        )
    total_n = sum(int(r["n"]) for r in rows)
    total_e = sum(int(r["e"]) for r in rows)
    pbar = float(total_e) / total_n
    day_us, n_col, e_col, rate_col, ucl_col, lcl_col, flag = [], [], [], [], [], [], []
    for r in rows:
        n, e = int(r["n"]), int(r["e"])
        rate = float(e) / n
        sigma = math.sqrt(pbar * (1.0 - pbar) / n)
        ucl = pbar + 3.0 * sigma
        lcl = pbar - 3.0 * sigma
        day_us.append(int(r["day"]) * DAY_US)
        n_col.append(n)
        e_col.append(e)
        rate_col.append(round(rate, 6))
        ucl_col.append(round(ucl, 6))
        lcl_col.append(round(lcl, 6))
        flag.append(1 if (rate > ucl or rate < lcl) else 0)
    return pa.table(
        {
            "day_us": pa.array(day_us, pa.int64()),
            "n": pa.array(n_col, pa.int64()),
            "n_err": pa.array(e_col, pa.int64()),
            "err_rate": pa.array(rate_col, pa.float64()),
            "ucl": pa.array(ucl_col, pa.float64()),
            "lcl": pa.array(lcl_col, pa.float64()),
            "out_of_control": pa.array(flag, pa.int64()),
        }
    )


def q_events_value_psi_bins(sf_dir: str):
    """Population-stability-index (PSI) drift report between the first and
    second time-halves of the event stream: decile bins cut on the
    REFERENCE (first) half's value distribution, per-bin shares p/q and
    the PSI term (p−q)·ln(p/q) — the standard model-monitoring drift
    screen.  Per-BIN rows only (no float-sum-ordered total enters the
    contract); values are cents-exact in this corpus so the lift
    ``floor(v·100 + 0.5)`` and the decile cuts (quantile_disc ceil rule)
    are integer-exact on both engines.

    Scale shape: one grouped (half, cent) count — the shuffle ships one
    row per distinct cent per block, and the driver
    merge is bounded by the value DOMAIN (range × 100), not by event
    count."""
    import math

    from ray.data.aggregate import Min, Max

    bounds = (
        _read(sf_dir, "events", ["ts"])
        .map_batches(
            lambda b: pa.table(
                {
                    "mn_p": pa.array(
                        [pc.min(b["ts"].cast(pa.int64())).as_py()], pa.int64()
                    ),
                    "mx_p": pa.array(
                        [pc.max(b["ts"].cast(pa.int64())).as_py()], pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .aggregate(Min("mn_p", alias_name="mn"), Max("mx_p", alias_name="mx"))
    )
    if bounds["mn"] is None:  # empty stream: any mid works — the value scan
        mid = 0  # below yields zero rows and the NULL-share path takes over
    else:
        mid = (int(bounds["mn"]) + int(bounds["mx"])) // 2

    def half_cent(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["value"]))
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table({"half": pa.array((us >= mid).astype(np.int64)), "cent": pa.array(cents)})

    rows = group_agg(
        _read(sf_dir, "events", ["ts", "value"]).map_batches(half_cent, batch_format="pyarrow"),
        ["half", "cent"],
        n=("count",),
    ).take_all()
    ref = sorted((int(r["cent"]), int(r["n"])) for r in rows if r["half"] == 0)
    cur = {int(r["cent"]): int(r["n"]) for r in rows if r["half"] == 1}
    ref_bins = np.zeros(10, dtype=np.int64)
    cur_bins = np.zeros(10, dtype=np.int64)
    if ref:
        values = np.array([t[0] for t in ref], dtype=np.int64)
        counts = np.array([t[1] for t in ref], dtype=np.int64)
        cum = counts.cumsum()
        n_ref = int(cum[-1])
        cuts = []
        for i in range(1, 10):
            # integer ceil(i·n/10): no float q enters the cut rule
            target = (i * n_ref + 9) // 10
            cuts.append(int(values[int((cum >= target).argmax())]))
        cuts_arr = np.array(cuts, dtype=np.int64)

        for c, n in ref:
            ref_bins[int(np.searchsorted(cuts_arr, c, side="left"))] += n
        for c, n in cur.items():
            cur_bins[int(np.searchsorted(cuts_arr, c, side="left"))] += n
    else:
        # empty reference half: every oracle cut is NULL, so `cent > cut`
        # counts zero cuts and every current row lands in bin 0
        n_ref = 0
        cur_bins[0] = sum(cur.values())
    n_cur = int(cur_bins.sum())

    out_bin, out_nr, out_nc, out_p, out_q, out_term = [], [], [], [], [], []
    for b in range(10):
        # NULL shares when a half is empty (oracle's x/0 → NULL arithmetic)
        p = None if n_ref == 0 else float(int(ref_bins[b])) / n_ref
        q = None if n_cur == 0 else float(int(cur_bins[b])) / n_cur
        term = (
            0.0
            if (not p or not q)
            else (p - q) * math.log(p / q)
        )
        out_bin.append(b)
        out_nr.append(int(ref_bins[b]))
        out_nc.append(int(cur_bins[b]))
        out_p.append(None if p is None else round(p, 6))
        out_q.append(None if q is None else round(q, 6))
        out_term.append(round(term, 6))
    return pa.table(
        {
            "bin": pa.array(out_bin, pa.int64()),
            "n_ref": pa.array(out_nr, pa.int64()),
            "n_cur": pa.array(out_nc, pa.int64()),
            "p": pa.array(out_p, pa.float64()),
            "q": pa.array(out_q, pa.float64()),
            "psi_term": pa.array(out_term, pa.float64()),
        }
    )


def q_sessions_concurrency_profile(sf_dir: str):
    """Interval-overlap census: for every hour, how many sessions
    (30-min-gap contract) were ACTIVE during it (session interval
    [start, end] overlaps the hour) — the capacity-planning profile
    point events can't give.  Exposes the interval-join-to-grid shape:
    each session explodes to its covered hour cells.

    Scale shape: one co-group on user_id sessionizes; each
    session emits per-HOUR partial counts (bounded by duration/3600 s —
    gap-bounded sessions are short); a tiny hour-keyed grouped sum
    finishes.  No pairwise interval join anywhere."""
    HOUR_US = 3_600_000_000

    def fold(bucket: pd.DataFrame) -> pd.DataFrame:
        s = _sessionize(bucket, _SESSION_GAP_US)
        lo = s["session_start_us"].to_numpy() // HOUR_US
        k = s["session_end_us"].to_numpy() // HOUR_US - lo + 1  # hours each session covers
        # every covered hour: a session's first hour plus its offset within the session
        hours = np.repeat(lo, k) + np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
        counts = pd.Series(hours).value_counts()
        return pd.DataFrame({"hour": counts.index, "n_p": counts.to_numpy()})

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour_us": pc.multiply(batch["hour"], HOUR_US),
                "n_active_sessions": batch["n_active_sessions"],
            }
        )

    return (
        group_agg(
            cogroup(
                _events(sf_dir, ["user_id"]),
                "user_id",
                fold,
                {"hour": pa.int64(), "n_p": pa.int64()},
            ),
            "hour",
            n_active_sessions=("sum", "n_p"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )


def _search_index_staging() -> str:
    """Per-process staging root: a fixed path would let concurrent runs
    (parallel pytest + bench on one host) rmtree each other's index
    mid-read — the pages fixture avoids this with an idempotent
    version-marker write, but this index is rebuilt per invocation by
    design, so isolation comes from the path instead."""
    return f"/tmp/eds_search_index_{os.getpid()}"


def q_search_index_pipeline(sf_dir: str, *, keep_index: bool = False):
    """End-to-end search-index build + query: tokenize the corpus, write a
    PERSISTED inverted index (term-hash-partitioned postings parquet + a
    doc-length table), then answer a 3-term BM25 query {hash, join,
    window} FROM THE STAGED INDEX — the composite that ties the IR
    operators (postings, BM25, retrieval) into the offline-index /
    online-query split every search stack uses.  k1 = 1.2, b = 0.75,
    Lucene idf, the `q_bm25_top20` float contract (identical expression
    tree, fixed term order, 6dp round, doc_id ties).

    Scale shape: the index build writes postings as parquet partitioned
    into 16 term-hash shards (``kb``, crc32(term) mod 16 — the persisted
    index layout, resumable, never one giant file); query stats (N,
    avgdl, per-term df) fold from the STAGED tables; scoring joins the 3
    query terms' postings with doc lengths in one co-group on the doc and
    keeps per-block top-10 — the corpus text is never touched at query
    time.

    Oracle: re-derives tokenization, index statistics, scoring and the
    top-10 from `documents` in SQL — checking the staged index against
    first principles, not against itself."""
    import math
    import shutil
    import zlib

    from ray.data.aggregate import Sum

    K1, B = 1.2, 0.75
    TERMS = ("hash", "join", "window")
    staging = _search_index_staging()

    # ---- offline: build + persist the index ----
    def postings(batch: pa.Table) -> pa.Table:
        out_t, out_d, out_tf, out_kb = [], [], [], []
        dl_d, dl_n = [], []
        for d, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            words = (text or "").split(" ")
            dl_d.append(d)
            dl_n.append(len(words))
            c = Counter(words)
            for t, tf in c.items():
                out_t.append(t)
                out_d.append(d)
                out_tf.append(tf)
                out_kb.append(zlib.crc32(t.encode()) % 16)
        return pa.table(
            {
                "term": pa.array(out_t, pa.string()),
                "doc_id": pa.array(out_d, pa.int64()),
                "tf": pa.array(out_tf, pa.int64()),
                "kb": pa.array(out_kb, pa.int32()),
            }
        )

    def doclens(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "dl": pa.array(
                    [len((t or "").split(" ")) for t in batch["text"].to_pylist()],
                    pa.int64(),
                ),
            }
        )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    shutil.rmtree(staging, ignore_errors=True)
    docs.map_batches(postings, batch_format="pyarrow").write_parquet(
        os.path.join(staging, "postings"), partition_cols=["kb"]
    )
    docs.map_batches(doclens, batch_format="pyarrow").write_parquet(
        os.path.join(staging, "doclens")
    )

    # ---- online: stats + scoring from the staged index only ----
    dl_dir, post_dir = os.path.join(staging, "doclens"), os.path.join(staging, "postings")
    dl_ds = read_parquet(dl_dir)
    agg = dl_ds.map_batches(
        lambda b: pa.table(
            {
                "nd": pa.array([b.num_rows], pa.int64()),
                "nw": pa.array([int(pc.sum(b["dl"]).as_py() or 0)], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).aggregate(Sum("nd", alias_name="nd"), Sum("nw", alias_name="nw"))
    n_docs = int(agg["nd"])
    avgdl = float(agg["nw"]) / n_docs

    post_ds = read_parquet(post_dir)

    def term_rows(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["term"], value_set=pa.array(TERMS))
        kept = batch.filter(mask)
        return pa.table(
            {
                "term": kept["term"],
                "doc_id": kept["doc_id"],
                "tf": pc.cast(kept["tf"], pa.int64()),
            }
        )

    qpost = post_ds.map_batches(term_rows, batch_format="pyarrow").materialize()

    def df_partial(batch: pa.Table) -> pa.Table:
        c = Counter(batch["term"].to_pylist())
        return pa.table(
            {
                "df0": pa.array([c.get(TERMS[0], 0)], pa.int64()),
                "df1": pa.array([c.get(TERMS[1], 0)], pa.int64()),
                "df2": pa.array([c.get(TERMS[2], 0)], pa.int64()),
            }
        )

    dfa = qpost.map_batches(df_partial, batch_format="pyarrow").aggregate(
        Sum("df0", alias_name="df0"),
        Sum("df1", alias_name="df1"),
        Sum("df2", alias_name="df2"),
    )
    idf = [
        math.log(1.0 + (n_docs - int(dfa[f"df{i}"]) + 0.5) / (int(dfa[f"df{i}"]) + 0.5))
        for i in range(3)
    ]
    tindex = {t: i for i, t in enumerate(TERMS)}

    def query_postings(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "ti": pa.array(
                    [tindex[t] for t in batch["term"].to_pylist()], pa.int64()
                ),
                "tf": batch["tf"],
            }
        )

    def doc_lengths(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["doc_id"], "dl": pc.cast(batch["dl"], pa.int64())})

    def score_bucket(posts: pd.DataFrame, lengths: pd.DataFrame) -> pd.DataFrame | None:
        if posts.empty:
            return None
        dls = dict(zip(lengths["doc_id"], lengths["dl"]))
        rows = []
        for d, grp in posts.groupby("doc_id", sort=False):
            dl = int(dls[d])
            denom = K1 * (1.0 - B + B * dl / avgdl)
            tfs = dict(zip(grp["ti"], grp["tf"]))
            score = 0.0
            for i in range(3):
                tf = int(tfs.get(i, 0))
                score += idf[i] * (tf * (K1 + 1.0)) / (tf + denom)
            rows.append((round(score, 6), int(d)))
        rows.sort(key=lambda r: (-r[0], r[1]))
        return pd.DataFrame(rows[:10], columns=["bm25", "doc_id"])

    def final_topk(batch: pa.Table) -> pa.Table:
        order = sorted(
            zip(batch["bm25"].to_pylist(), batch["doc_id"].to_pylist()),
            key=lambda r: (-r[0], r[1]),
        )[:10]
        return pa.table(
            {
                "doc_id": pa.array([r[1] for r in order], pa.int64()),
                "bm25": pa.array([r[0] for r in order], pa.float64()),
            }
        )

    result = (
        cogroup(
            [
                qpost.map_batches(query_postings, batch_format="pyarrow"),
                dl_ds.map_batches(doc_lengths, batch_format="pyarrow"),
            ],
            "doc_id",
            score_bucket,
            {"doc_id": pa.int64(), "bm25": pa.float64()},
        )
        .repartition(1)
        .map_batches(final_topk, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    # the top-10 is materialized above, so the staged index can be
    # reclaimed now — per-pid paths would otherwise accumulate in /tmp
    # across fresh processes (stale dirs from crashed processes are
    # ordinary /tmp debris; sibling pids' live dirs are never touched);
    # keep_index=True lets tests inspect the partitioned layout
    if not keep_index:
        shutil.rmtree(staging, ignore_errors=True)
    return pa.table(
        {
            "doc_id": pa.array(result["doc_id"].to_numpy(), pa.int64()),
            "bm25": pa.array(result["bm25"].to_numpy(), pa.float64()),
        }
    )


def q_stump_lang_classifier(sf_dir: str):
    """Exact 1R decision stump: the best single threshold on the integer
    stopword-rate feature ``f = (1000·stopword_hits) // n_tokens``
    separating English from non-English documents (predict en iff
    f ≥ t) — trained by exhaustive exact search over every candidate
    threshold, the baseline every fancier classifier must beat.
    Candidates are the distinct feature values plus the reject-all
    sentinel max+1; errors are exact integer counts; ties prefer the
    smallest threshold.

    Scale shape: one grouped (feature, is_en) count —
    the feature domain is ≤1001 values by construction, so the driver
    scan is constant-size regardless of corpus scale."""
    stop = set(_STOP_WORDS)

    def feature(batch: pa.Table) -> pa.Table:
        fs, ens = [], []
        for lang, text in zip(batch["lang"].to_pylist(), batch["text"].to_pylist()):
            words = (text or "").lower().split()
            if words:
                fs.append((1000 * sum(1 for w in words if w in stop)) // len(words))
                ens.append(1 if lang == "en" else 0)
        return pa.table({"f": pa.array(fs, pa.int64()), "en": pa.array(ens, pa.int64())})

    rows = group_agg(
        _read(sf_dir, "documents", ["lang", "text"]).map_batches(feature, batch_format="pyarrow"),
        ["f", "en"],
        n=("count",),
    ).take_all()
    hist: dict[int, list[int]] = {}
    for r in rows:
        slot = hist.setdefault(int(r["f"]), [0, 0])
        slot[int(r["en"])] += int(r["n"])
    feats = sorted(hist)
    if not feats:  # every doc tokenized empty: the oracle's sentinel-only
        # candidate row carries NULL threshold/errors (SUM over empty = NULL)
        return pa.table(
            {
                "threshold": pa.array([None], pa.int64()),
                "n_errors": pa.array([None], pa.int64()),
                "n_docs": pa.array([None], pa.int64()),
                "accuracy": pa.array([None], pa.float64()),
            }
        )
    total_en = sum(hist[f][1] for f in feats)
    total_ot = sum(hist[f][0] for f in feats)
    n_docs = total_en + total_ot
    best_t, best_err = None, None
    en_below = ot_below = 0
    for t in feats + [feats[-1] + 1]:
        errs = en_below + (total_ot - ot_below)
        if best_err is None or errs < best_err:
            best_t, best_err = t, errs
        if t <= feats[-1]:
            ot_below += hist[t][0]
            en_below += hist[t][1]
    return pa.table(
        {
            "threshold": pa.array([best_t], pa.int64()),
            "n_errors": pa.array([best_err], pa.int64()),
            "n_docs": pa.array([n_docs], pa.int64()),
            "accuracy": pa.array(
                [round(float(n_docs - best_err) / n_docs, 6)], pa.float64()
            ),
        }
    )


def q_word_burstiness_top20(sf_dir: str):
    """Word burstiness (Fano factor) of the 20 most frequent words: the
    variance-to-mean ratio of per-document counts — near 1 for
    Poisson-scattered function words, ≫1 for topically bursty content
    words (Church & Gale 1995); the corpus-linguistics screen behind
    stopword lists and term-weighting choices.  EXACT: per-word
    total and sum-of-squares are integer moments over ALL documents
    (absent docs contribute 0 to both), and mean/fano are mirrored
    double chains over exact ints.

    Scale shape: per-batch (word, n, sq, docs-with) partials → ONE fold
    co-grouped on the word (a word's moments finalize in-block; each
    folded block emits only its top-20-by-frequency champions) → the
    final selection scans ≤ 20·blocks rows; n_docs is one scalar."""
    n_docs = int(_read(sf_dir, "documents", ["doc_id"]).count())

    def partial(batch: pa.Table) -> pa.Table:
        tot: Counter = Counter()
        sq: Counter = Counter()
        for text in batch["text"].to_pylist():
            c = Counter((text or "").lower().split())
            for w, k in c.items():
                tot[w] += k
                sq[w] += k * k
        keys = list(tot.keys())
        return pa.table(
            {
                "word": pa.array(keys, pa.string()),
                "n_p": pa.array([tot[k] for k in keys], pa.int64()),
                "sq_p": pa.array([sq[k] for k in keys], pa.int64()),
            }
        )

    def champions(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby("word", as_index=False)[["n_p", "sq_p"]].sum()
        g = g.sort_values(["n_p", "word"], ascending=[False, True]).head(20)
        return g.rename(columns={"n_p": "n", "sq_p": "sq"})

    cands = cogroup(
        _read(sf_dir, "documents", ["text"]).map_batches(partial, batch_format="pyarrow"),
        "word",
        champions,
        {"word": pa.string(), "n": pa.int64(), "sq": pa.int64()},
    ).take_all()
    cands.sort(key=lambda r: (-int(r["n"]), r["word"]))
    cands = cands[:20]
    words, n_col, mean_col, fano_col = [], [], [], []
    for r in cands:
        n, s2 = int(r["n"]), int(r["sq"])
        # population variance over ALL docs: (D·Σc² − (Σc)²) / D²; fano =
        # var/mean = (D·Σc² − n²) / (D·n) — one double division of exact ints
        words.append(r["word"])
        n_col.append(n)
        mean_col.append(round(float(n) / n_docs, 6))
        fano_col.append(round(float(n_docs * s2 - n * n) / (n_docs * n), 6))
    return pa.table(
        {
            "word": pa.array(words, pa.string()),
            "n": pa.array(n_col, pa.int64()),
            "mean_per_doc": pa.array(mean_col, pa.float64()),
            "fano": pa.array(fano_col, pa.float64()),
        }
    )


def q_markov_next_accuracy(sf_dir: str):
    """Next-event prediction accuracy of the first-order Markov argmax
    model: train transition counts over user-ordered event bigrams,
    predict next = argmax row of the CURRENT type (count desc, type asc
    ties), score on the same transitions — the self-consistency ceiling
    of a Markov recommender, integer-exact end to end.

    Scale shape: bigram counts fold inside ONE co-group on user_id (the
    ``_bigram_counts`` fold of `event_type_transitions`) into a ≤|types|² count
    table; the argmax and the accuracy division are driver arithmetic on
    that constant-size table."""
    rows = (
        group_agg(
            cogroup(
                _events(sf_dir, ["user_id", "event_id", "event_type"]),
                "user_id",
                _bigram_counts,
                {"cur": pa.string(), "nxt": pa.string(), "n": pa.int64()},
            ),
            ["cur", "nxt"],
            n=("sum", "n"),
        )
        .take_all()
    )
    by_cur: dict[str, list[tuple[str, int]]] = {}
    for r in rows:
        by_cur.setdefault(r["cur"], []).append((r["nxt"], int(r["n"])))
    if not by_cur:  # no user has 2+ events; oracle likewise yields 0 rows
        return pa.table(
            {
                "cur": pa.array([], pa.string()),
                "predicted": pa.array([], pa.string()),
                "n_transitions": pa.array([], pa.int64()),
                "n_correct": pa.array([], pa.int64()),
                "accuracy": pa.array([], pa.float64()),
            }
        )
    cur_col, pred_col, n_col, hit_col, acc_col = [], [], [], [], []
    total_n = total_hit = 0
    for cur in sorted(by_cur):
        outs = by_cur[cur]
        pred = min(outs, key=lambda t: (-t[1], t[0]))[0]
        n_cur = sum(n for _, n in outs)
        hits = sum(n for nx, n in outs if nx == pred)
        total_n += n_cur
        total_hit += hits
        cur_col.append(cur)
        pred_col.append(pred)
        n_col.append(n_cur)
        hit_col.append(hits)
        acc_col.append(round(float(hits) / n_cur, 6))
    cur_col.append("__overall__")
    pred_col.append("")
    n_col.append(total_n)
    hit_col.append(total_hit)
    acc_col.append(round(float(total_hit) / total_n, 6))
    return pa.table(
        {
            "cur": pa.array(cur_col, pa.string()),
            "predicted": pa.array(pred_col, pa.string()),
            "n_transitions": pa.array(n_col, pa.int64()),
            "n_correct": pa.array(hit_col, pa.int64()),
            "accuracy": pa.array(acc_col, pa.float64()),
        }
    )


def q_near_dup_cluster_sizes(sf_dir: str):
    """Near-dup family-size census: the histogram of connected-component
    sizes over the MinHash-LSH near-dup graph — the one-line report
    ("how much of my corpus is duplicated, and in how big families")
    that the full cluster table is usually reduced to.

    Scale shape: layers one ≤|distinct sizes|-key grouped count on top of
    `q_near_dup_clusters` (LSH → pointer-doubling CC); no new shuffle of
    corpus data."""
    return group_agg(q_near_dup_clusters(sf_dir), "cluster_size", n_clusters=("count",))



def _lang_word_count_partial(batch: pa.Table) -> pa.Table:
    """Per-batch exact (lang, word, count) partial — the ONE
    tokenize-and-count contract shared by the per-language lexical
    statistics (hapax ratio, Yule's K); lowercased whitespace split,
    mirrored by the oracles' regexp_split + empty filter."""
    c: Counter = Counter()
    for lang, text in zip(batch["lang"].to_pylist(), batch["text"].to_pylist()):
        for w in (text or "").lower().split():
            c[(lang, w)] += 1
    keys = list(c.keys())
    return pa.table(
        {
            "lang": pa.array([k[0] for k in keys], pa.string()),
            "word": pa.array([k[1] for k in keys], pa.string()),
            "n_p": pa.array([c[k] for k in keys], pa.int64()),
        }
    )

def q_lang_hapax_ratio(sf_dir: str):
    """Hapax-legomenon share per language: vocabulary size, number of
    words occurring exactly once, and their ratio — the lexical-richness
    / OCR-noise screen (clean prose sits near ~0.4–0.6; corrupted text
    and ID-heavy crawl spam spike toward 1).  Integer-exact counts; the
    ratio is one double division.

    Scale shape: exact per-(lang, word) counts via a fold co-grouped on
    the word; each folded block emits ONE (lang, vocab_p, hapax_p) partial — the
    open vocabulary never reaches a generic hash aggregate or the
    driver."""

    def fold(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(["lang", "word"], as_index=False)["n_p"].sum()
        a = g.groupby("lang").agg(
            v_p=("n_p", "size"), h_p=("n_p", lambda s: int((s == 1).sum()))
        )
        return a.reset_index()

    sums = group_agg(
        cogroup(
            _read(sf_dir, "documents", ["lang", "text"]).map_batches(
                _lang_word_count_partial, batch_format="pyarrow"
            ),
            "word",
            fold,
            {"lang": pa.string(), "v_p": pa.int64(), "h_p": pa.int64()},
        ),
        "lang",
        vocab=("sum", "v_p"),
        hapax=("sum", "h_p"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        v = batch["vocab"].to_numpy(zero_copy_only=False)
        h = batch["hapax"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "lang": batch["lang"],
                "vocab": batch["vocab"],
                "hapax": batch["hapax"],
                "hapax_ratio": pa.array(
                    [round(float(hh) / vv, 6) for hh, vv in zip(h, v)], pa.float64()
                ),
            }
        )

    return sums.map_batches(finish, batch_format="pyarrow")


def q_lang_yule_k(sf_dir: str):
    """Yule's K lexical-diversity characteristic per language
    (K = 10⁴·(Σ r²·V_r − N) / N² over the frequency spectrum V_r —
    Yule 1944): the classical repeat-rate statistic that, unlike
    type-token ratio, is (asymptotically) text-length invariant — the
    standard comparably-sized knob for corpus mixing.  EXACT: the
    spectrum moments are integers (Σ r²·V_r = Σ_w f_w²), K is one
    mirrored double chain.

    Scale shape: per-(lang, word) exact counts in a fold co-grouped on
    the word; each folded block emits ONE (lang, Σf, Σf²) partial — constant rows
    per bucket, open vocabulary never aggregated globally."""

    def fold(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(["lang", "word"], as_index=False)["n_p"].sum()
        g["sq"] = g["n_p"] * g["n_p"]
        return g.groupby("lang", as_index=False)[["n_p", "sq"]].sum().rename(columns={"sq": "sq_p"})

    sums = group_agg(
        cogroup(
            _read(sf_dir, "documents", ["lang", "text"]).map_batches(
                _lang_word_count_partial, batch_format="pyarrow"
            ),
            "word",
            fold,
            {"lang": pa.string(), "n_p": pa.int64(), "sq_p": pa.int64()},
        ),
        "lang",
        n_tokens=("sum", "n_p"),
        sq=("sum", "sq_p"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n_tokens"].to_numpy(zero_copy_only=False)
        sq = batch["sq"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "lang": batch["lang"],
                "n_tokens": batch["n_tokens"],
                "yule_k": pa.array(
                    [
                        round(10000.0 * float(int(s) - int(t)) / (int(t) * int(t)), 6)
                        for t, s in zip(n, sq)
                    ],
                    pa.float64(),
                ),
            }
        )

    return sums.map_batches(finish, batch_format="pyarrow")


def q_source_lang_diversity(sf_dir: str):
    """Simpson diversity of languages per source
    (D = 1 − Σ nᵢ(nᵢ−1) / (N(N−1)) — the unbiased finite-sample form):
    how language-mixed each source's output is — the mix screen a
    multilingual corpus curator reads before setting sampling rates.
    EXACT: the numerator and denominator are integers; one mirrored
    double division.

    Scale shape: one grouped (source, lang) count over the
    ≤|sources|·|langs| key domain; driver-free arithmetic
    in a final stateless map."""
    rows = group_agg(_read(sf_dir, "documents", ["source", "lang"]), ["source", "lang"], n=("count",)).take_all()
    per: dict[str, list[int]] = {}
    for r in rows:
        s = per.setdefault(r["source"], [0, 0])
        n = int(r["n"])
        s[0] += n
        s[1] += n * (n - 1)
    sources = sorted(per)
    return pa.table(
        {
            "source": pa.array(sources, pa.string()),
            "n_docs": pa.array([per[s][0] for s in sources], pa.int64()),
            "simpson_diversity": pa.array(
                [
                    round(
                        1.0 - float(per[s][1]) / (per[s][0] * (per[s][0] - 1)), 6
                    )
                    if per[s][0] > 1
                    else 0.0
                    for s in sources
                ],
                pa.float64(),
            ),
        }
    )


# every ``q_<name>`` query of this module under its ``name``, in definition order
QUERIES = {name[2:]: fn for name, fn in list(globals().items()) if name.startswith("q_")}


def _pagerank_round_sql(i: int) -> str:
    """One integer-PageRank round as chained CTEs (r{i-1} → r{i})."""
    return f"""
        c{i} AS (
            SELECT p.m + ((r{i - 1}.node - p.m) * 7 + ks.k) % p.n AS dst,
                   r{i - 1}.r // 3 AS c
            FROM r{i - 1}, params p, (VALUES (1), (2), (3)) AS ks(k)
        ),
        s{i} AS (SELECT dst, CAST(SUM(c) AS BIGINT) AS inflow FROM c{i} GROUP BY dst),
        r{i} AS (
            SELECT nodes.node,
                   CAST(150000 + (85 * COALESCE(s{i}.inflow, 0)) // 100 AS BIGINT) AS r
            FROM nodes LEFT JOIN s{i} ON s{i}.dst = nodes.node
        )"""


_PAGERANK_SQL = (
    """
        WITH params AS (
            SELECT min(doc_id) AS m, CAST(count(*) AS BIGINT) AS n FROM documents
        ),
        nodes AS (SELECT doc_id AS node FROM documents),
        r0 AS (SELECT node, CAST(1000000 AS BIGINT) AS r FROM nodes),"""
    + ",".join(_pagerank_round_sql(i) for i in range(1, 6))
    + """
        SELECT node AS doc_id, r AS rank_units FROM r5
    """
)

_STOP_SQL = "[" + ",".join(f"'{w}'" for w in _STOP_WORDS) + "]"


def _hll_sql(table: str, col: str, p: int = 12) -> str:
    """DuckDB mirror of ``sketches.approx_distinct`` (md5-LE hash, dense HLL,
    integer-exact register fold) for one (table, column) pair.

    md5_number_upper == first 8 md5 bytes little-endian == the Python hash;
    rank = clz(rest)+1 via the zero-padded binary string; the register sum
    folds as HUGEINT (no float accumulation), mirroring hll_estimate."""
    m = 1 << p
    two64 = "18446744073709551616"
    return f"""
        WITH hv AS (
            SELECT md5_number_upper(CAST({col} AS VARCHAR)) AS h
            FROM {table} WHERE {col} IS NOT NULL
        ),
        parts AS (
            SELECT CAST(h >> {64 - p} AS BIGINT) AS idx,
                   strpos(lpad(bin(CAST(
                       ((CAST(h AS HUGEINT) << {p}) | {m - 1}) % {two64}
                   AS UBIGINT)), 64, '0'), '1') AS rank
            FROM hv
        ),
        regs AS (SELECT idx, MAX(rank) AS reg FROM parts GROUP BY idx),
        folded AS (
            SELECT {m} - COUNT(*) AS zeros,
                   CAST({m} - COUNT(*) AS HUGEINT) * (CAST(1 AS HUGEINT) << 64)
                       + SUM(CAST(1 AS HUGEINT) << (64 - reg)) AS s_exact
            FROM regs
        ),
        raw AS (
            SELECT zeros,
                   (0.7213 / (1 + 1.079 / {m})) * {m} * {m}
                       / (CAST(s_exact AS DOUBLE) / {two64}.0) AS est
            FROM folded
        )
        SELECT '{table}.{col}' AS "column",
               ROUND(CASE WHEN est <= 2.5 * {m} AND zeros > 0
                          THEN {m} * ln({m} / zeros) ELSE est END, 4) AS hll_estimate,
               (SELECT CAST(COUNT(DISTINCT {col}) AS BIGINT) FROM {table}) AS exact
        FROM raw
    """
def _hll_scalar_sql(subq: str, p: int = 12) -> str:
    """Scalar form of `_hll_sql`: the 4dp HLL estimate over a subquery that
    yields one column ``u`` — used by sketch-algebra oracles that combine
    several estimates (the register rebuild is identical; the union arm's
    registers equal the max-merge of the part sketches by the HLL
    register-max identity)."""
    m = 1 << p
    two64 = "18446744073709551616"
    return f"""(
        WITH hv AS (
            SELECT md5_number_upper(CAST(u AS VARCHAR)) AS h FROM ({subq}) WHERE u IS NOT NULL
        ),
        parts AS (
            SELECT CAST(h >> {64 - p} AS BIGINT) AS idx,
                   strpos(lpad(bin(CAST(
                       ((CAST(h AS HUGEINT) << {p}) | {m - 1}) % {two64}
                   AS UBIGINT)), 64, '0'), '1') AS rank
            FROM hv
        ),
        regs AS (SELECT idx, MAX(rank) AS reg FROM parts GROUP BY idx),
        folded AS (
            SELECT {m} - COUNT(*) AS zeros,
                   CAST({m} - COUNT(*) AS HUGEINT) * (CAST(1 AS HUGEINT) << 64)
                       + SUM(CAST(1 AS HUGEINT) << (64 - reg)) AS s_exact
            FROM regs
        ),
        raw AS (
            SELECT zeros,
                   (0.7213 / (1 + 1.079 / {m})) * {m} * {m}
                       / (CAST(s_exact AS DOUBLE) / {two64}.0) AS est
            FROM folded
        )
        SELECT ROUND(CASE WHEN est <= 2.5 * {m} AND zeros > 0
                          THEN {m} * ln({m} / zeros) ELSE est END, 4)
        FROM raw
    )"""


_MEDICAL_RE = "\\b[A-Za-z0-9]{6,12}\\b"


def _kmeans_round_sql(r: int, *, final: bool, src: str = "e") -> str:
    """One spherical-k-means round as chained CTEs: assign against
    cent{r-1} (6dp-rounded cosine, cid tie-break), then — unless this is
    the final assignment — rebuild centroids as per-cluster component
    sums with empty clusters keeping their previous centroid.  ``src``
    names the CTE the rounds train over (the full corpus for
    kmeans_spherical, the md5-bridge sample for knn_ivf_nprobe)."""
    assign = f"""
        a{r} AS (
          SELECT e.vec_id, e.v, x.cid
          FROM {src} e, LATERAL (
            SELECT cid FROM cent{r - 1} c
            ORDER BY CASE WHEN list_inner_product(e.v, e.v) = 0
                            OR list_inner_product(c.ce, c.ce) = 0
                          THEN 0.0
                          ELSE ROUND(list_cosine_similarity(e.v, c.ce), 6)
                     END DESC, cid ASC
            LIMIT 1
          ) x
        )"""
    if final:
        return assign
    return (
        assign
        + f""",
        n{r} AS (
          SELECT cid, array_agg(sv ORDER BY d) AS ce
          FROM (
            SELECT cid, d, SUM(val) AS sv
            FROM (
              SELECT cid, unnest(v) AS val, unnest(range(len(v))) AS d
              FROM a{r}
            )
            GROUP BY cid, d
          )
          GROUP BY cid
        ),
        cent{r} AS (
          SELECT p.cid, COALESCE(n.ce, p.ce) AS ce
          FROM cent{r - 1} p LEFT JOIN n{r} n USING (cid)
        )"""
    )


_KMEANS_SQL = (
    """
        WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
        cent0 AS (
          SELECT vec_id AS cid, embedding::DOUBLE[] AS ce
          FROM embeddings WHERE vec_id < 8
        ),"""
    + ",".join(
        _kmeans_round_sql(r, final=(r == 3)) for r in (1, 2, 3)
    )
    + """
        SELECT CAST(cid AS BIGINT) AS cluster,
               CAST(count(*) AS BIGINT) AS n_members,
               CAST(SUM(vec_id) AS BIGINT) AS id_sum
        FROM a3 GROUP BY cid
    """
)

# IVF-nprobe recall oracle: the SAME spherical-k-means rounds, trained on
# the md5-bridge quarter sample, then full-corpus cell assignment, per-query
# nprobe=2 probe sets, in-cell exact top-5 and overlap with the global
# exact top-5 — the complete approximate-index audit re-derived in SQL.
_IVF_NPROBE_SQL = (
    """
        WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
        tr AS (
          SELECT vec_id, v FROM e
          WHERE md5_number_upper(CAST(vec_id AS VARCHAR)) % 4 = 0
        ),
        cent0 AS (
          SELECT vec_id AS cid, embedding::DOUBLE[] AS ce
          FROM embeddings WHERE vec_id < 8
        ),"""
    + ",".join(_kmeans_round_sql(r, final=False, src="tr") for r in (1, 2, 3))
    + """,
        q AS (SELECT vec_id AS qid, v AS qe FROM e WHERE vec_id IN (0, 1, 2)),
        probes AS (
          SELECT q.qid, p.cid
          FROM q, LATERAL (
            SELECT cid FROM cent3 c
            ORDER BY CASE WHEN list_inner_product(q.qe, q.qe) = 0
                            OR list_inner_product(c.ce, c.ce) = 0
                          THEN 0.0
                          ELSE ROUND(list_cosine_similarity(q.qe, c.ce), 6)
                     END DESC, cid ASC
            LIMIT 2
          ) p
        ),
        assign_all AS (
          SELECT e.vec_id, e.v, x.cid
          FROM e, LATERAL (
            SELECT cid FROM cent3 c
            ORDER BY CASE WHEN list_inner_product(e.v, e.v) = 0
                            OR list_inner_product(c.ce, c.ce) = 0
                          THEN 0.0
                          ELSE ROUND(list_cosine_similarity(e.v, c.ce), 6)
                     END DESC, cid ASC
            LIMIT 1
          ) x
        ),
        approx AS (
          SELECT q.qid, t.vec_id
          FROM q, LATERAL (
            SELECT a.vec_id
            FROM assign_all a
            WHERE a.cid IN (SELECT cid FROM probes pr WHERE pr.qid = q.qid)
            ORDER BY list_cosine_similarity(a.v, q.qe) DESC, a.vec_id ASC
            LIMIT 5
          ) t
        ),
        exact AS (
          SELECT q.qid, t.vec_id
          FROM q, LATERAL (
            SELECT e2.vec_id FROM e e2
            ORDER BY list_cosine_similarity(e2.v, q.qe) DESC, e2.vec_id ASC
            LIMIT 5
          ) t
        )
        SELECT ex.qid AS query_id,
               CAST(count(ap.vec_id) AS BIGINT) AS recall_hits
        FROM exact ex
        LEFT JOIN approx ap ON ap.qid = ex.qid AND ap.vec_id = ex.vec_id
        GROUP BY ex.qid
    """
)

# the SQL mirror of kernels' lang_id heuristic — shared by the per-doc
# prediction oracle and the confusion-matrix oracle
_LANGID_PRED_SQL = """
        WITH w AS (
          SELECT doc_id, text,
                 list_transform(regexp_extract_all(text, '[A-Za-z]+'), x -> lower(x)) AS words
          FROM documents
        ), s AS (
          SELECT doc_id, text, len(words) AS n_words,
            len(list_filter(words, x -> list_contains(
              ['the','of','and','to','a','in','is','it','you','that','he','was','for','on','are'], x))) AS s_en,
            len(list_filter(words, x -> list_contains(
              ['der','die','und','den','von','zu','das','mit','sich','des','auf','ist','im'], x))) AS s_de,
            len(list_filter(words, x -> list_contains(
              ['de','la','que','el','en','y','a','los','del','se','las','por','un','para','es'], x))) AS s_es,
            len(list_filter(words, x -> list_contains(
              ['de','la','le','et','les','des','en','un','du','une','que','est','pour','qui'], x))) AS s_fr,
            len(regexp_extract_all(text, '[一-鿿]')) AS cjk
          FROM w
        )
        SELECT doc_id,
          CASE WHEN len(text) > 0 AND cjk * 1.0 / len(text) > 0.15 THEN 'zh'
               WHEN n_words = 0 THEN 'und'
               WHEN s_en = 0 AND s_de = 0 AND s_es = 0 AND s_fr = 0 THEN 'und'
               WHEN s_en >= s_de AND s_en >= s_es AND s_en >= s_fr THEN 'en'
               WHEN s_de >= s_es AND s_de >= s_fr THEN 'de'
               WHEN s_es >= s_fr THEN 'es'
               ELSE 'fr' END AS lang_pred
        FROM s
    """

def _kcore_unrolled_sql(k: int = 80, rounds: int = 16) -> str:
    """Unrolled k-core peel (the k-means chained-CTE pattern): each round
    recomputes degrees over the previous round's surviving edges and keeps
    nodes with degree ≥ k.  MATERIALIZED is load-bearing — DuckDB inlines
    plain CTEs, and surv{i} references surv{i-1} three times, so a
    non-materialized unroll blows up exponentially (observed as 'Too many
    open files').  16 rounds ≥ the engine's loud convergence cap."""
    cte = [
        "baskets AS MATERIALIZED (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem)",
        "surv0 AS MATERIALIZED (SELECT DISTINCT a.p AS u, b.p AS v "
        "FROM baskets a JOIN baskets b ON a.o = b.o AND a.p < b.p)",
    ]
    for i in range(1, rounds + 1):
        cte.append(
            f"deg{i} AS MATERIALIZED (SELECT node, COUNT(*) AS c FROM "
            f"(SELECT u AS node FROM surv{i-1} UNION ALL SELECT v FROM surv{i-1}) GROUP BY node)"
        )
        cte.append(f"keep{i} AS MATERIALIZED (SELECT node FROM deg{i} WHERE c >= {k})")
        cte.append(
            f"surv{i} AS MATERIALIZED (SELECT u, v FROM surv{i-1} "
            f"WHERE u IN (SELECT node FROM keep{i}) AND v IN (SELECT node FROM keep{i}))"
        )
    return (
        "WITH " + ",\n".join(cte) + f"""
        SELECT (SELECT COUNT(*) FROM (SELECT DISTINCT node FROM
                  (SELECT u AS node FROM surv{rounds} UNION ALL SELECT v FROM surv{rounds})))::BIGINT AS n_core_nodes,
               (SELECT COUNT(*) FROM surv{rounds})::BIGINT AS n_core_edges
    """
    )


ORACLE_SQL = {
    "copurchase_kcore": _kcore_unrolled_sql(),
    # exact integer moments over per-edge endpoint degrees; the single
    # division casts the two exact integer operands to double first — the
    # same operand-rounding the engine performs (float(num)/float(den))
    "copurchase_assortativity": """
        WITH baskets AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
        edges AS (
          SELECT DISTINCT a.p AS u, b.p AS v
          FROM baskets a JOIN baskets b ON a.o = b.o AND a.p < b.p
        ),
        deg AS (
          SELECT node, CAST(count(*) AS BIGINT) AS d
          FROM (SELECT u AS node FROM edges UNION ALL SELECT v AS node FROM edges)
          GROUP BY node
        ),
        j AS (
          SELECT du.d AS d_u, dv.d AS d_v
          FROM edges e JOIN deg du ON e.u = du.node JOIN deg dv ON e.v = dv.node
        ),
        mom AS (
          SELECT CAST(count(*) AS BIGINT) AS m_edges,
                 CAST(SUM(d_u + d_v) AS BIGINT) AS sum_d2,
                 CAST(SUM(d_u*d_u + d_v*d_v) AS BIGINT) AS sum_d3,
                 CAST(SUM(d_u*d_v) AS BIGINT) AS sum_jk
          FROM j
        )
        SELECT m_edges, sum_d2, sum_d3, sum_jk,
               CASE WHEN CAST(2 AS HUGEINT)*m_edges*sum_d3 - CAST(sum_d2 AS HUGEINT)*sum_d2 = 0 THEN 0.0
                    ELSE ROUND(
                      CAST(CAST(4 AS HUGEINT)*m_edges*sum_jk - CAST(sum_d2 AS HUGEINT)*sum_d2 AS DOUBLE)
                      / CAST(CAST(2 AS HUGEINT)*m_edges*sum_d3 - CAST(sum_d2 AS HUGEINT)*sum_d2 AS DOUBLE), 6)
               END AS assortativity
        FROM mom
    """,
    "approx_distinct": " UNION ALL ".join(
        f"SELECT * FROM ({_hll_sql(t, c)})"
        for t, c in (("documents", "source"), ("events", "event_type"), ("orders", "o_custkey"))
    ),
    "doc_stats_by_lang": """
        SELECT lang,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(n_chars) AS BIGINT) AS sum_chars,
               CAST(min(n_chars) AS BIGINT) AS min_chars,
               CAST(max(n_chars) AS BIGINT) AS max_chars
        FROM documents GROUP BY lang
    """,
    "doc_token_stats": f"""
        SELECT lang,
               CAST(sum(len(regexp_extract_all(lower(text), '\\S+'))) AS BIGINT) AS n_tokens,
               CAST(sum(len(list_filter(regexp_extract_all(lower(text), '\\S+'),
                                        x -> list_contains({_STOP_SQL}, x)))) AS BIGINT) AS n_stopwords
        FROM documents GROUP BY lang
    """,
    "word_freq_top20": """
        SELECT word, CAST(count(*) AS BIGINT) AS n
        FROM (SELECT unnest(regexp_extract_all(text, '\\S+')) AS word FROM documents)
        GROUP BY word ORDER BY n DESC, word ASC LIMIT 20
    """,
    "heavy_hitter_words": """
        SELECT word, CAST(count(*) AS BIGINT) AS n
        FROM (SELECT unnest(regexp_extract_all(text, '\\S+')) AS word FROM documents)
        GROUP BY word ORDER BY n DESC, word ASC LIMIT 20
    """,
    "lineitem_pricing_summary": """
        SELECT l_returnflag, l_linestatus,
               sum(l_quantity) AS sum_qty,
               CAST(count(*) AS BIGINT) AS n_rows
        FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-01'
        GROUP BY l_returnflag, l_linestatus
    """,
    "events_hourly": """
        SELECT event_type,
               (epoch_us(ts) // 3600000000) * 3600000000 AS window_us,
               CAST(count(*) AS BIGINT) AS n_events
        FROM events GROUP BY 1, 2
    """,
    "events_sessions": f"""
        WITH o AS (SELECT user_id, epoch_us(ts) AS us FROM events),
        m AS (SELECT user_id, us,
                     CASE WHEN lag(us) OVER (PARTITION BY user_id ORDER BY us) IS NULL
                               OR us - lag(us) OVER (PARTITION BY user_id ORDER BY us) > {_SESSION_GAP_US}
                          THEN 1 ELSE 0 END AS new_s
              FROM o),
        s AS (SELECT user_id, us,
                     sum(new_s) OVER (PARTITION BY user_id ORDER BY us
                                      ROWS UNBOUNDED PRECEDING) AS sid
              FROM m)
        SELECT user_id,
               min(us) AS session_start_us,
               max(us) AS session_end_us,
               CAST(count(*) AS BIGINT) AS n_events
        FROM s GROUP BY user_id, sid
    """,
    "events_sliding_window": """
        SELECT event_type,
               (epoch_us(ts) // 1800000000 - k.k) * 1800000000 AS window_us,
               CAST(count(*) AS BIGINT) AS n_events
        FROM events, (VALUES (0), (1)) k(k)
        GROUP BY 1, 2
    """,
    "events_running_total": """
        SELECT event_id,
               CAST(row_number() OVER (PARTITION BY user_id
                                       ORDER BY epoch_us(ts), event_id) AS BIGINT) AS running_n
        FROM events
    """,
    "events_asof_join": """
        WITH a AS (SELECT event_id, user_id, epoch_us(ts) AS us
                   FROM events WHERE event_id % 2 = 1),
             b AS (SELECT user_id, us, max(event_id) AS b_event
                   FROM (SELECT event_id, user_id, epoch_us(ts) AS us
                         FROM events WHERE event_id % 2 = 0)
                   GROUP BY user_id, us)
        SELECT a.event_id, b.us AS b_us
        FROM a ASOF JOIN b ON a.user_id = b.user_id AND a.us >= b.us
    """,
    "events_late_data": """
        WITH o AS (
          SELECT event_type, event_id, epoch_us(ts) AS us FROM events
        ),
        m AS (
          SELECT event_type, us,
                 max(us) OVER (ORDER BY event_id
                               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
          FROM o
        )
        SELECT event_type,
               CAST(count(*) AS BIGINT) AS n_events,
               CAST(sum(CASE WHEN wm - 600000000 > us THEN 1 ELSE 0 END) AS BIGINT) AS n_late
        FROM m GROUP BY event_type
    """,
    "events_funnel": """
        WITH v AS (
          SELECT user_id, min(epoch_us(ts)) AS t1
          FROM events WHERE event_type = 'view' GROUP BY user_id
        ),
        c AS (
          SELECT v.user_id, min(epoch_us(e.ts)) AS t2
          FROM v JOIN events e ON e.user_id = v.user_id
          WHERE e.event_type = 'click'
            AND epoch_us(e.ts) > v.t1
            AND epoch_us(e.ts) - v.t1 <= 1800000000
          GROUP BY v.user_id
        ),
        p AS (
          SELECT c.user_id, min(epoch_us(e.ts)) AS t3
          FROM c JOIN events e ON e.user_id = c.user_id
          WHERE e.event_type = 'purchase'
            AND epoch_us(e.ts) > c.t2
            AND epoch_us(e.ts) - c.t2 <= 1800000000
          GROUP BY c.user_id
        )
        SELECT CAST(1 AS BIGINT) AS funnel_step, CAST((SELECT count(*) FROM v) AS BIGINT) AS n_users
        UNION ALL
        SELECT CAST(2 AS BIGINT), CAST((SELECT count(*) FROM c) AS BIGINT)
        UNION ALL
        SELECT CAST(3 AS BIGINT), CAST((SELECT count(*) FROM p) AS BIGINT)
    """,
    "customer_per_nation": """
        SELECT n.n_name, CAST(count(*) AS BIGINT) AS n_customers
        FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
        GROUP BY n.n_name
    """,
    "orders_top10": """
        SELECT o_orderkey, o_totalprice FROM orders
        ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 10
    """,
    "orders_join_customers": """
        SELECT c.c_mktsegment, CAST(count(*) AS BIGINT) AS n_orders
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY c.c_mktsegment
    """,
    "asia_order_volume": """
        SELECT n.n_name,
               CAST(count(*) AS BIGINT) AS n_lineitems,
               sum(l.l_quantity) AS sum_qty
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        JOIN region r ON n.n_regionkey = r.r_regionkey
        WHERE r.r_name = 'ASIA'
        GROUP BY n.n_name
    """,
    "customers_without_orders": """
        SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n_customers
        FROM customer
        WHERE c_custkey NOT IN
              (SELECT o_custkey FROM orders WHERE o_totalprice > 300000.0)
        GROUP BY c_mktsegment
    """,
    "distinct_sources": """
        SELECT DISTINCT source FROM documents ORDER BY source
    """,
    "doc_length_percentiles": """
        SELECT lang,
               median(n_chars) AS p50_chars,
               CAST(list_sort(list(n_chars))[CAST(floor(0.95 * (count(*) - 1)) AS INT) + 1]
                    AS DOUBLE) AS p95_chars
        FROM documents GROUP BY lang
    """,
    "deid_entity_counts": f"""
        SELECT lang, 'MEDICAL_ID' AS type,
               CAST(sum(len(regexp_extract_all(text, '{_MEDICAL_RE}'))) AS BIGINT) AS n
        FROM documents WHERE lang <> 'zh' GROUP BY lang
    """,
    "deid_blackbox_stats": f"""
        SELECT doc_id,
               CASE WHEN lang = 'zh' THEN 0
                    ELSE CAST(len(regexp_extract_all(text, '{_MEDICAL_RE}')) AS BIGINT)
               END AS n_spans,
               CASE WHEN lang = 'zh' THEN 0
                    ELSE CAST(coalesce(list_aggregate(
                         list_transform(regexp_extract_all(text, '{_MEDICAL_RE}'),
                                        x -> len(x)), 'sum'), 0) AS BIGINT)
               END AS masked_chars,
               CAST(len(text) AS BIGINT) AS n_chars
        FROM documents
    """,
    "deid_context_hashes": f"""
        SELECT doc_id,
               sha256(text) AS context_hash,
               CASE WHEN lang = 'zh' THEN 0
                    ELSE CAST(len(regexp_extract_all(text, '{_MEDICAL_RE}')) AS BIGINT)
               END AS n_spans
        FROM documents
    """,
    "deid_replace_documents": f"""
        SELECT doc_id,
               sha256(text) AS context_hash,
               CASE WHEN lang = 'zh' THEN 0
                    ELSE CAST(len(regexp_extract_all(text, '{_MEDICAL_RE}')) AS BIGINT)
               END AS n_spans,
               CAST(len(text) AS BIGINT)
               - CASE WHEN lang = 'zh' THEN 0
                      ELSE CAST(coalesce(list_aggregate(
                           list_transform(regexp_extract_all(text, '{_MEDICAL_RE}'),
                                          x -> len(x)), 'sum'), 0) AS BIGINT)
                 END
               + 8 * CASE WHEN lang = 'zh' THEN 0
                          ELSE CAST(len(regexp_extract_all(text, '{_MEDICAL_RE}')) AS BIGINT)
                     END AS clean_len
        FROM documents
    """,
    "pages_extract_hashes": f"""
        WITH fx AS (SELECT * FROM read_parquet('{_PAGES_FIXTURE}')),
        html_rows AS (
          SELECT url, route,
                 replace(array_to_string(list_filter(regexp_split_to_array(
                     regexp_replace(regexp_replace(page,
                        '(?s)(<script[^>]*>).*?(</script>)', '\\1\\2', 'g'),
                        '(?s)(<style[^>]*>).*?(</style>)', '\\1\\2', 'g'),
                     '<[^>]*>'), x -> x <> ''), chr(10)), '&copy;', chr(169)) AS extracted
          FROM fx WHERE route = 'html' AND instr(page, chr(65533)) = 0
        ),
        text_rows AS (SELECT url, route, text AS extracted FROM fx WHERE route = 'text')
        SELECT url, route, md5(extracted) AS extract_md5,
               CAST(length(extracted) AS BIGINT) AS n_extract_chars
        FROM (SELECT * FROM html_rows UNION ALL SELECT * FROM text_rows)
    """,
    "pages_host_rollup": f"""
        WITH fx AS (SELECT * FROM read_parquet('{_PAGES_FIXTURE}')),
        html_rows AS (
          SELECT url,
                 replace(array_to_string(list_filter(regexp_split_to_array(
                     regexp_replace(regexp_replace(page,
                        '(?s)(<script[^>]*>).*?(</script>)', '\\1\\2', 'g'),
                        '(?s)(<style[^>]*>).*?(</style>)', '\\1\\2', 'g'),
                     '<[^>]*>'), x -> x <> ''), chr(10)), '&copy;', chr(169)) AS extracted
          FROM fx WHERE route = 'html' AND instr(page, chr(65533)) = 0
        ),
        text_rows AS (SELECT url, text AS extracted FROM fx WHERE route = 'text'),
        u AS (SELECT * FROM html_rows UNION ALL SELECT * FROM text_rows)
        SELECT regexp_extract(url, '^https?://([^/]+)', 1) AS host,
               COUNT(*)::BIGINT AS n_pages,
               SUM(length(extracted))::BIGINT AS n_chars
        FROM u GROUP BY host
    """,
    "pages_anchor_text": f"""
        WITH m AS (
          SELECT unnest(regexp_extract_all(page, '<a href="[^"]*">[^<]*</a>')) AS tag
          FROM read_parquet('{_PAGES_FIXTURE}')
          WHERE route = 'html' AND instr(page, chr(65533)) = 0
        ), pairs AS (
          SELECT regexp_extract(tag, '"([^"]*)"', 1) AS href,
                 regexp_extract(tag, '>([^<]*)</a>', 1) AS anchor
          FROM m
        ), per AS (
          SELECT href, anchor, CAST(count(*) AS BIGINT) AS n
          FROM pairs GROUP BY href, anchor
        ), ranked AS (
          SELECT href, anchor, n,
                 CAST(SUM(n) OVER (PARTITION BY href) AS BIGINT) AS n_total,
                 CAST(COUNT(*) OVER (PARTITION BY href) AS BIGINT) AS n_anchors,
                 ROW_NUMBER() OVER (PARTITION BY href ORDER BY n DESC, anchor) AS rk
          FROM per
        )
        SELECT href, n_total, n_anchors, anchor AS top_anchor, n AS top_anchor_n
        FROM ranked WHERE rk = 1
        ORDER BY n_total DESC, href LIMIT 20
    """,
    "pages_line_dedup": f"""
        WITH fx AS (SELECT * FROM read_parquet('{_PAGES_FIXTURE}')),
        html_rows AS (
          SELECT url, replace(array_to_string(list_filter(regexp_split_to_array(
               regexp_replace(regexp_replace(page,
                  '(?s)(<script[^>]*>).*?(</script>)', '\\1\\2', 'g'),
                  '(?s)(<style[^>]*>).*?(</style>)', '\\1\\2', 'g'),
               '<[^>]*>'), x -> x <> ''), chr(10)), '&copy;', chr(169)) AS extracted
          FROM fx WHERE route = 'html' AND instr(page, chr(65533)) = 0
        ),
        text_rows AS (SELECT url, text AS extracted FROM fx WHERE route = 'text'),
        u AS (SELECT * FROM html_rows UNION ALL SELECT * FROM text_rows),
        lines AS (
          SELECT url, unnest(string_split(extracted, chr(10))) AS line FROM u
        )
        SELECT line, CAST(count(*) AS BIGINT) AS n_total,
               CAST(count(DISTINCT url) AS BIGINT) AS n_pages
        FROM lines WHERE line <> ''
        GROUP BY line HAVING count(DISTINCT url) >= 2
        ORDER BY n_pages DESC, n_total DESC, line LIMIT 20
    """,
    "pages_pii_density": f"""
        WITH fx AS (SELECT * FROM read_parquet('{_PAGES_FIXTURE}')),
        html_rows AS (
          SELECT url, replace(array_to_string(list_filter(regexp_split_to_array(
               regexp_replace(regexp_replace(page,
                  '(?s)(<script[^>]*>).*?(</script>)', '\\1\\2', 'g'),
                  '(?s)(<style[^>]*>).*?(</style>)', '\\1\\2', 'g'),
               '<[^>]*>'), x -> x <> ''), chr(10)), '&copy;', chr(169)) AS extracted
          FROM fx WHERE route = 'html' AND instr(page, chr(65533)) = 0
        ),
        text_rows AS (SELECT url, text AS extracted FROM fx WHERE route = 'text'),
        u AS (SELECT * FROM html_rows UNION ALL SELECT * FROM text_rows)
        SELECT regexp_extract(url, '^https?://([^/]+)', 1) AS host,
               CAST(COUNT(*) AS BIGINT) AS n_pages,
               CAST(SUM(length(extracted)) AS BIGINT) AS n_chars,
               CAST(SUM(CASE WHEN regexp_matches(extracted, '[\\x{{4e00}}-\\x{{9fff}}]') THEN 0
                        ELSE len(regexp_extract_all(extracted, '{_MEDICAL_RE}')) END) AS BIGINT) AS n_pii
        FROM u GROUP BY host
    """,
    "doc_script_ratios": """
        SELECT lang,
               CAST(SUM(len(regexp_extract_all(text, '[A-Za-z]'))) AS BIGINT) AS n_alpha,
               CAST(SUM(len(regexp_extract_all(text, '[0-9]'))) AS BIGINT) AS n_digit,
               CAST(SUM(len(regexp_extract_all(text, '[ \\t\\n\\r]'))) AS BIGINT) AS n_space,
               CAST(SUM(len(regexp_extract_all(text, '[\\x{4e00}-\\x{9fff}]'))) AS BIGINT) AS n_cjk,
               CAST(SUM(length(text)) AS BIGINT) AS n_chars
        FROM documents GROUP BY lang
    """,
    "pages_link_stats": f"""
        WITH links AS (
          SELECT url, unnest(regexp_extract_all(page, '<a href="([^"]*)"', 1)) AS href
          FROM read_parquet('{_PAGES_FIXTURE}')
          WHERE route = 'html' AND instr(page, chr(65533)) = 0
        )
        SELECT href, CAST(count(*) AS BIGINT) AS n_total,
               CAST(count(DISTINCT url) AS BIGINT) AS n_pages
        FROM links GROUP BY href
        ORDER BY n_total DESC, href LIMIT 20
    """,
    "pages_main_content": f"""
        WITH mains AS (
          -- COALESCE: DuckDB's array_to_string over an EMPTY list is NULL,
          -- but a page whose every block is boilerplate extracts to '' in
          -- the engine (first seen at sf0.1: 5 zh pages with one short,
          -- punctuation-free paragraph)
          SELECT url, COALESCE(array_to_string(
            list_filter(
              list_transform(regexp_extract_all(page, '<p>([^<]*)</p>', 1),
                             x -> trim(regexp_replace(x, ' +', ' ', 'g'))),
              t -> length(t) >= 25 OR regexp_matches(t, '[.!?。！？…"”]$')
            ), chr(10)), '') AS main
          FROM read_parquet('{_PAGES_FIXTURE}')
          WHERE route = 'html' AND instr(page, chr(65533)) = 0
        )
        SELECT url, md5(main) AS main_md5,
               CAST(length(main) AS BIGINT) AS n_main_chars
        FROM mains
    """,
    "exact_dedup_groups": """
        SELECT md5(text) AS text_md5,
               CAST(count(*) AS BIGINT) AS n_copies,
               CAST(min(doc_id) AS BIGINT) AS keeper
        FROM (SELECT doc_id, text FROM documents
              UNION ALL SELECT doc_id, text FROM documents)
        GROUP BY md5(text)
    """,
    "doc_lang_id": _LANGID_PRED_SQL,
    "doc_quality_counts": f"""
        SELECT doc_id,
               CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens,
               CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) AS n_alpha,
               CAST(len(list_filter(regexp_extract_all(lower(text), '\\S+'),
                                    x -> list_contains({_STOP_SQL}, x))) AS BIGINT) AS n_stopwords
        FROM documents
    """,
    "embedding_near_dups": """
        SELECT a.vec_id AS left, b.vec_id AS right
        FROM embeddings a, embeddings b
        WHERE a.vec_id < b.vec_id
          AND list_cosine_similarity(a.embedding, b.embedding) > 0.4
    """,
    "knn_bruteforce": """
        WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id IN (0,1,2))
        SELECT q.qid AS query_id, top.vec_id
        FROM q, LATERAL (
            SELECT e.vec_id
            FROM embeddings e
            ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id ASC
            LIMIT 5
        ) top
    """,
    "knn_ivf_full_probe": """
        WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id IN (0,1,2))
        SELECT q.qid AS query_id, top.vec_id
        FROM q, LATERAL (
            SELECT e.vec_id
            FROM embeddings e
            ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id ASC
            LIMIT 5
        ) top
    """,
    "dataset_mix": """
        SELECT 'capped' AS mix_source, CAST(count(*) // 2 AS BIGINT) AS n_examples FROM documents
        UNION ALL
        SELECT 'full' AS mix_source, CAST(count(*) AS BIGINT) AS n_examples FROM documents
    """,
    "events_window_rank": """
        SELECT event_id, user_id, rnk FROM (
            SELECT event_id, user_id,
                   ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY value DESC, event_id ASC) AS rnk
            FROM events
        ) WHERE rnk <= 3
    """,
    "orders_rollup": """
        SELECT COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
               COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
               CAST(count(*) AS BIGINT) AS n_orders
        FROM orders GROUP BY ROLLUP(o_orderpriority, o_orderstatus)
    """,
    "customer_segment_pivot": """
        SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
               CAST(count(*) FILTER (WHERE c_mktsegment = 'AUTOMOBILE') AS BIGINT) AS n_automobile,
               CAST(count(*) FILTER (WHERE c_mktsegment = 'BUILDING') AS BIGINT) AS n_building,
               CAST(count(*) FILTER (WHERE c_mktsegment = 'FURNITURE') AS BIGINT) AS n_furniture,
               CAST(count(*) FILTER (WHERE c_mktsegment = 'HOUSEHOLD') AS BIGINT) AS n_household,
               CAST(count(*) FILTER (WHERE c_mktsegment = 'MACHINERY') AS BIGINT) AS n_machinery
        FROM customer GROUP BY c_nationkey
    """,
    "orders_exists_semi": """
        SELECT o_orderstatus, CAST(count(*) AS BIGINT) AS n_orders
        FROM orders
        WHERE EXISTS (SELECT 1 FROM lineitem
                      WHERE l_orderkey = o_orderkey AND l_quantity >= 45)
        GROUP BY o_orderstatus
    """,
    "lineitem_price_histogram": """
        SELECT CAST(floor(l_extendedprice / 5000) AS BIGINT) AS bucket,
               CAST(count(*) AS BIGINT) AS n_items
        FROM lineitem GROUP BY 1
    """,
    "part_brand_stats": """
        SELECT p_brand,
               CAST(count(*) AS BIGINT) AS n_parts,
               CAST(sum(CASE WHEN lower(p_name) LIKE '%green%' THEN 1 ELSE 0 END) AS BIGINT) AS n_green,
               CAST(max(p_size) AS BIGINT) AS max_size
        FROM part GROUP BY p_brand
    """,
    "jaccard_doc_perturbed": """
        WITH corpus AS (
          SELECT doc_id, COALESCE(text, '') AS text FROM documents
          UNION ALL
          SELECT doc_id + 1000000, COALESCE(text, '') || ' appended' FROM documents
        ),
        toks AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(lower(text), '\\s+'), x -> x <> '') AS w
          FROM corpus
        ),
        grams AS (
          SELECT doc_id,
            CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                 ELSE list_distinct([array_to_string(w[i:i+2], ' ') for i in range(1, len(w) - 1)])
            END AS g
          FROM toks
        )
        SELECT a.doc_id AS "left", b.doc_id AS "right",
               CASE WHEN len(a.g) = 0 AND len(b.g) = 0 THEN 1.0
                    WHEN len(list_distinct(a.g || b.g)) = 0 THEN 1.0
                    ELSE CAST(len(list_intersect(a.g, b.g)) AS DOUBLE)
                         / len(list_distinct(a.g || b.g))
               END AS ngram_jaccard
        FROM grams a JOIN grams b ON b.doc_id = a.doc_id + 1000000
        WHERE a.doc_id < 1000000
    """,
    "doc_chunk_windows": """
        SELECT doc_id,
               CAST(s // 400 AS BIGINT) AS chunk_id,
               md5(substr(COALESCE(text, ''), s + 1, 500)) AS chunk_md5,
               CAST(len(substr(COALESCE(text, ''), s + 1, 500)) AS BIGINT) AS n_chars
        FROM (
          SELECT doc_id, COALESCE(text, '') AS text,
                 unnest(range(0, greatest(len(COALESCE(text, '')) - 1, 0) + 1, 400)) AS s
          FROM documents
        )
    """,
    "doc_normalized_hashes": """
        SELECT doc_id,
               md5(trim(regexp_replace(COALESCE(text, ''), '[ \\t\\n\\r]+', ' ', 'g'), ' ')) AS norm_md5
        FROM documents
    """,
    "events_json_props": """
        SELECT event_type,
               CAST(sum(COALESCE(CAST(json_extract_string(props, '$.k') AS BIGINT), 0)) AS BIGINT) AS sum_k,
               CAST(count(*) AS BIGINT) AS n_events
        FROM events GROUP BY event_type
    """,
    "minhash_near_dups": r"""
        WITH corpus AS (
          SELECT doc_id, trim(regexp_replace(lower(COALESCE(text,'')), '\s+', ' ', 'g')) AS norm
          FROM documents
          UNION ALL
          SELECT doc_id + 1000000, trim(regexp_replace(lower(COALESCE(text,'') || ' appended'), '\s+', ' ', 'g'))
          FROM documents
        ),
        sh AS (
          SELECT doc_id, list_distinct([substr(norm, i, 5) for i in range(1, len(norm) - 3)]) AS g
          FROM corpus
        ),
        inv AS (SELECT doc_id, unnest(g) AS s FROM sh),
        shared AS (
          SELECT a.doc_id AS l, b.doc_id AS r, count(*) AS inter
          FROM inv a JOIN inv b ON a.s = b.s AND a.doc_id < b.doc_id
          GROUP BY 1, 2
        ),
        pairs AS (
          SELECT l, r
          FROM shared JOIN sh ga ON ga.doc_id = l JOIN sh gb ON gb.doc_id = r
          WHERE CAST(inter AS DOUBLE) / (len(ga.g) + len(gb.g) - inter) >= 0.7
        )
        SELECT l AS "left", r AS "right" FROM pairs
    """,
    "near_dup_clusters": r"""
        WITH RECURSIVE corpus AS (
          SELECT doc_id, trim(regexp_replace(lower(COALESCE(text,'')), '\s+', ' ', 'g')) AS norm
          FROM documents
          UNION ALL
          SELECT doc_id + 1000000, trim(regexp_replace(lower(COALESCE(text,'') || ' appended'), '\s+', ' ', 'g'))
          FROM documents
        ),
        sh AS (
          SELECT doc_id, list_distinct([substr(norm, i, 5) for i in range(1, len(norm) - 3)]) AS g
          FROM corpus
        ),
        inv AS (SELECT doc_id, unnest(g) AS s FROM sh),
        shared AS (
          SELECT a.doc_id AS l, b.doc_id AS r, count(*) AS inter
          FROM inv a JOIN inv b ON a.s = b.s AND a.doc_id < b.doc_id
          GROUP BY 1, 2
        ),
        pairs AS (
          SELECT l, r
          FROM shared JOIN sh ga ON ga.doc_id = l JOIN sh gb ON gb.doc_id = r
          WHERE CAST(inter AS DOUBLE) / (len(ga.g) + len(gb.g) - inter) >= 0.7
        ),
        edges AS (SELECT l AS a, r AS b FROM pairs UNION SELECT r, l FROM pairs),
        reach(a, b) AS (
          SELECT a, b FROM edges
          UNION
          SELECT r2.a, e.b FROM reach r2 JOIN edges e ON r2.b = e.a
        ),
        comp AS (SELECT a AS node, least(a, min(b)) AS component FROM reach GROUP BY a)
        SELECT component, CAST(count(*) AS BIGINT) AS cluster_size
        FROM comp GROUP BY component
    """,
    "near_dedup_survivors": r"""
        WITH RECURSIVE corpus AS (
          SELECT doc_id, trim(regexp_replace(lower(COALESCE(text,'')), '\s+', ' ', 'g')) AS norm
          FROM documents
          UNION ALL
          SELECT doc_id + 1000000, trim(regexp_replace(lower(COALESCE(text,'') || ' appended'), '\s+', ' ', 'g'))
          FROM documents
        ),
        sh AS (
          SELECT doc_id, list_distinct([substr(norm, i, 5) for i in range(1, len(norm) - 3)]) AS g
          FROM corpus
        ),
        inv AS (SELECT doc_id, unnest(g) AS s FROM sh),
        shared AS (
          SELECT a.doc_id AS l, b.doc_id AS r, count(*) AS inter
          FROM inv a JOIN inv b ON a.s = b.s AND a.doc_id < b.doc_id
          GROUP BY 1, 2
        ),
        pairs AS (
          SELECT l, r
          FROM shared JOIN sh ga ON ga.doc_id = l JOIN sh gb ON gb.doc_id = r
          WHERE CAST(inter AS DOUBLE) / (len(ga.g) + len(gb.g) - inter) >= 0.7
        ),
        edges AS (SELECT l AS a, r AS b FROM pairs UNION SELECT r, l FROM pairs),
        reach(a, b) AS (
          SELECT a, b FROM edges
          UNION
          SELECT r2.a, e.b FROM reach r2 JOIN edges e ON r2.b = e.a
        ),
        comp AS (SELECT a AS node, least(a, min(b)) AS component FROM reach GROUP BY a)
        SELECT doc_id FROM (
          SELECT doc_id FROM documents
          UNION ALL SELECT doc_id + 1000000 FROM documents
        )
        WHERE doc_id NOT IN (SELECT a FROM reach r3 GROUP BY a HAVING least(a, min(b)) <> a)
    """,
    "sources_except": """
        SELECT DISTINCT source FROM documents WHERE lang = 'en'
        EXCEPT
        SELECT DISTINCT source FROM documents WHERE lang = 'zh'
    """,
    "simhash_near_dups": r"""
        WITH corpus AS (
          SELECT doc_id, COALESCE(text,'') AS text FROM documents
          UNION ALL
          SELECT doc_id + 1000000, COALESCE(text,'') || ' tail' FROM documents
        ),
        tok AS (
          SELECT doc_id, unnest(list_transform(regexp_extract_all(text, '\S+'), x -> lower(x))) AS w
          FROM corpus
        ),
        wh AS (SELECT doc_id, md5(w) AS h FROM tok),
        bits AS (
          SELECT doc_id, i.i AS bit,
                 sum(CASE WHEN ((strpos('0123456789abcdef', substr(h, 16 - i.i // 4, 1)) - 1)
                                // (CASE i.i % 4 WHEN 0 THEN 1 WHEN 1 THEN 2 WHEN 2 THEN 4 ELSE 8 END)) % 2 = 1
                          THEN 1 ELSE -1 END) AS acc
          FROM wh, range(64) i(i)
          GROUP BY doc_id, i.i
        ),
        sig AS (
          SELECT doc_id,
                 CAST(sum(CASE WHEN acc > 0 THEN CAST(CAST(1 AS UBIGINT) << bit AS HUGEINT) ELSE 0 END) AS UBIGINT) AS s
          FROM bits GROUP BY doc_id
        )
        SELECT a.doc_id AS "left", b.doc_id AS "right",
               CAST(bit_count(xor(a.s, b.s)) AS BIGINT) AS hamming
        FROM sig a JOIN sig b ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.s, b.s)) <= 6
    """,
    "text_fingerprints": r"""
        WITH t AS (SELECT doc_id, COALESCE(text,'') AS text FROM documents),
        norm AS (
          SELECT doc_id, text, trim(regexp_replace(text, '[ \t\n\r]+', ' ', 'g'), ' ') AS n FROM t
        ),
        fp AS (
          SELECT doc_id,
                 CASE WHEN len(n) = 0 THEN 0 ELSE
                   CAST(list_reduce(
                     list_prepend(CAST(0 AS HUGEINT),
                                  [CAST(unicode(c) AS HUGEINT) for c in regexp_extract_all(n, '.')]),
                     (acc, x) -> (acc * 1000003 + x) % 2305843009213693951) AS BIGINT)
                 END AS fingerprint
          FROM norm
        ),
        tok AS (
          SELECT doc_id, unnest(list_transform(regexp_extract_all(text, '\S+'), x -> lower(x))) AS w FROM t
        ),
        wh AS (SELECT doc_id, md5(w) AS h FROM tok),
        bits AS (
          SELECT doc_id, i.i AS bit,
                 sum(CASE WHEN ((strpos('0123456789abcdef', substr(h, 16 - i.i // 4, 1)) - 1)
                                // (CASE i.i % 4 WHEN 0 THEN 1 WHEN 1 THEN 2 WHEN 2 THEN 4 ELSE 8 END)) % 2 = 1
                          THEN 1 ELSE -1 END) AS acc
          FROM wh, range(64) i(i)
          GROUP BY doc_id, i.i
        ),
        sig AS (
          SELECT doc_id,
                 sum(CASE WHEN acc > 0 THEN CAST(CAST(1 AS UBIGINT) << bit AS HUGEINT) ELSE 0 END) AS s
          FROM bits GROUP BY doc_id
        ),
        sig_signed AS (
          SELECT doc_id,
                 CAST(CASE WHEN s >= 9223372036854775808 THEN s - 18446744073709551616 ELSE s END AS BIGINT) AS simhash
          FROM sig
        ),
        w2 AS (
          SELECT doc_id, text,
                 list_transform(regexp_extract_all(text, '[A-Za-z]+'), x -> lower(x)) AS words
          FROM t
        ),
        s2 AS (
          SELECT doc_id, text, len(words) AS n_words,
            len(list_filter(words, x -> list_contains(
              ['the','of','and','to','a','in','is','it','you','that','he','was','for','on','are'], x))) AS s_en,
            len(list_filter(words, x -> list_contains(
              ['der','die','und','den','von','zu','das','mit','sich','des','auf','ist','im'], x))) AS s_de,
            len(list_filter(words, x -> list_contains(
              ['de','la','que','el','en','y','a','los','del','se','las','por','un','para','es'], x))) AS s_es,
            len(list_filter(words, x -> list_contains(
              ['de','la','le','et','les','des','en','un','du','une','que','est','pour','qui'], x))) AS s_fr,
            len(regexp_extract_all(text, '[一-鿿]')) AS cjk
          FROM w2
        ),
        lang AS (
          SELECT doc_id,
            CASE WHEN len(text) > 0 AND cjk * 1.0 / len(text) > 0.15 THEN 'zh'
                 WHEN n_words = 0 THEN 'und'
                 WHEN s_en = 0 AND s_de = 0 AND s_es = 0 AND s_fr = 0 THEN 'und'
                 WHEN s_en >= s_de AND s_en >= s_es AND s_en >= s_fr THEN 'en'
                 WHEN s_de >= s_es AND s_de >= s_fr THEN 'de'
                 WHEN s_es >= s_fr THEN 'es'
                 ELSE 'fr' END AS lang_pred
          FROM s2
        )
        SELECT fp.doc_id, fp.fingerprint,
               COALESCE(ss.simhash, 0) AS simhash,
               lang.lang_pred
        FROM fp
        LEFT JOIN sig_signed ss ON ss.doc_id = fp.doc_id
        JOIN lang ON lang.doc_id = fp.doc_id
    """,
    "ngram_jaccard_pairs": r"""
        WITH corpus AS (
          SELECT doc_id, trim(regexp_replace(lower(COALESCE(text,'')), '\s+', ' ', 'g')) AS norm
          FROM documents
          UNION ALL
          SELECT doc_id + 1000000, trim(regexp_replace(lower(COALESCE(text,'') || ' appended'), '\s+', ' ', 'g'))
          FROM documents
        ),
        sh AS (
          SELECT doc_id, list_distinct([substr(norm, i, 5) for i in range(1, len(norm) - 3)]) AS g
          FROM corpus
        ),
        inv AS (SELECT doc_id, unnest(g) AS s FROM sh),
        shared AS (
          SELECT a.doc_id AS l, b.doc_id AS r, count(*) AS inter
          FROM inv a JOIN inv b ON a.s = b.s AND a.doc_id < b.doc_id
          GROUP BY 1, 2
        ),
        pairs AS (
          SELECT l, r
          FROM shared JOIN sh ga ON ga.doc_id = l JOIN sh gb ON gb.doc_id = r
          WHERE CAST(inter AS DOUBLE) / (len(ga.g) + len(gb.g) - inter) >= 0.7
        ),
        toks AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(lower(raw), '\s+'), x -> x <> '') AS w
          FROM (
            SELECT doc_id, COALESCE(text,'') AS raw FROM documents
            UNION ALL
            SELECT doc_id + 1000000, COALESCE(text,'') || ' appended' FROM documents
          )
        ),
        grams AS (
          SELECT doc_id,
            CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                 ELSE list_distinct([array_to_string(w[i:i+2], ' ') for i in range(1, len(w) - 1)])
            END AS g
          FROM toks
        )
        SELECT p.l AS "left", p.r AS "right",
               CASE WHEN len(a.g) = 0 AND len(b.g) = 0 THEN 1.0
                    WHEN len(list_distinct(a.g || b.g)) = 0 THEN 1.0
                    ELSE CAST(len(list_intersect(a.g, b.g)) AS DOUBLE)
                         / len(list_distinct(a.g || b.g))
               END AS ngram_jaccard
        FROM pairs p JOIN grams a ON a.doc_id = p.l JOIN grams b ON b.doc_id = p.r
    """,
    "html_extract_roundtrip": """
        SELECT doc_id,
               md5(source || '-' || CAST(doc_id AS VARCHAR) || chr(10) || COALESCE(text,'')) AS extract_md5,
               CAST(len(source || '-' || CAST(doc_id AS VARCHAR)) + 1 + len(COALESCE(text,'')) AS BIGINT) AS n_chars
        FROM documents
    """,
    "main_content_roundtrip": """
        SELECT doc_id,
               md5(trim(regexp_replace(COALESCE(text,''), '[ \t\n\r]+', ' ', 'g'), ' ')) AS main_md5
        FROM documents
    """,
    "docs_per_source_cap": """
        SELECT doc_id, source FROM (
            SELECT doc_id, source,
                   ROW_NUMBER() OVER (PARTITION BY source ORDER BY doc_id) AS rn
            FROM documents
        ) WHERE rn <= 10
    """,
    "lang_source_distinct": """
        SELECT lang, CAST(count(DISTINCT source) AS BIGINT) AS n_sources
        FROM documents GROUP BY lang
    """,
    "stratified_sample": """
        SELECT doc_id, lang FROM (
            SELECT doc_id, lang,
                   ROW_NUMBER() OVER (PARTITION BY lang
                                      ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
            FROM documents
        ) WHERE rn <= 20
    """,
    # grouped OLS: 6dp score lifted to exact millionths, HUGEINT moments,
    # one operands-rounded division chain per language.
    "lang_quality_ols": """
        WITH t AS (SELECT lang, COALESCE(text,'') AS text FROM documents),
        cnt AS (
          SELECT lang, length(text) AS n_chars,
                 len(regexp_extract_all(text, '\\S+')) AS n_tokens,
                 len(regexp_extract_all(text, '[\\p{L}]')) AS n_alpha,
                 len(regexp_extract_all(text, '[^\\p{L}\\p{N}_\\s\\p{Z}]')) AS n_punct,
                 len(list_filter(regexp_extract_all(lower(text), '\\S+'),
                     x -> list_contains(['the','of','and','to','a','in','is','it','you','that'], x))) AS n_stopwords
          FROM t),
        d AS (
          SELECT lang, n_tokens::HUGEINT AS x,
                 CAST(round(
                   CASE WHEN n_chars = 0 OR n_tokens = 0 THEN 0.0 ELSE
                     round(CAST(
                         (CASE WHEN n_tokens BETWEEN 10 AND 100000 THEN 1.0 ELSE 0.5 END)
                       * (CASE WHEN CAST(n_alpha AS DOUBLE)/greatest(1, n_tokens)
                               BETWEEN CAST(2.0 AS DOUBLE) AND CAST(12.0 AS DOUBLE) THEN 1.0 ELSE 0.5 END)
                       * (CASE WHEN CAST(n_punct AS DOUBLE)/n_chars < CAST(0.2 AS DOUBLE) THEN 1.0 ELSE 0.3 END)
                       * (CASE WHEN CAST(n_stopwords AS DOUBLE)/n_tokens >= CAST(0.01 AS DOUBLE) THEN 1.0 ELSE 0.7 END)
                       AS DOUBLE), 6)
                   END * 1000000) AS HUGEINT) AS y6
          FROM cnt),
        s AS (SELECT lang, COUNT(*)::HUGEINT AS n, SUM(x) AS sx, SUM(y6) AS sy,
                     SUM(x*y6) AS sxy, SUM(x*x) AS sxx
              FROM d GROUP BY lang)
        SELECT lang, CAST(n AS BIGINT) AS n,
               CASE WHEN n*sxx - sx*sx = 0 THEN 0.0
                    ELSE ROUND(CAST(n*sxy - sx*sy AS DOUBLE)
                               / CAST(n*sxx - sx*sx AS DOUBLE) / 1000000.0, 6)
               END AS slope
        FROM s
    """,
    # ROC-AUC as tie-corrected Mann-Whitney over the (score, label)
    # contingency cells: doubled average ranks stay integral, HUGEINT rank
    # sums, one operands-rounded division.
    "quality_auc_en": """
        WITH t AS (SELECT lang, COALESCE(text,'') AS text FROM documents),
        cnt AS (
          SELECT lang, length(text) AS n_chars,
                 len(regexp_extract_all(text, '\\S+')) AS n_tokens,
                 len(regexp_extract_all(text, '[\\p{L}]')) AS n_alpha,
                 len(regexp_extract_all(text, '[^\\p{L}\\p{N}_\\s\\p{Z}]')) AS n_punct,
                 len(list_filter(regexp_extract_all(lower(text), '\\S+'),
                     x -> list_contains(['the','of','and','to','a','in','is','it','you','that'], x))) AS n_stopwords
          FROM t),
        d AS (
          SELECT CASE WHEN n_chars = 0 OR n_tokens = 0 THEN 0.0 ELSE
                   round(CAST(
                       (CASE WHEN n_tokens BETWEEN 10 AND 100000 THEN 1.0 ELSE 0.5 END)
                     * (CASE WHEN CAST(n_alpha AS DOUBLE)/greatest(1, n_tokens)
                             BETWEEN CAST(2.0 AS DOUBLE) AND CAST(12.0 AS DOUBLE) THEN 1.0 ELSE 0.5 END)
                     * (CASE WHEN CAST(n_punct AS DOUBLE)/n_chars < CAST(0.2 AS DOUBLE) THEN 1.0 ELSE 0.3 END)
                     * (CASE WHEN CAST(n_stopwords AS DOUBLE)/n_tokens >= CAST(0.01 AS DOUBLE) THEN 1.0 ELSE 0.7 END)
                     AS DOUBLE), 6)
                 END AS s,
                 CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS y
          FROM cnt),
        cells AS (SELECT s, y, COUNT(*)::HUGEINT AS c FROM d GROUP BY ALL),
        cs AS (SELECT s, SUM(c)::HUGEINT AS cnt FROM cells GROUP BY s),
        r AS (SELECT s, 2 * COALESCE(SUM(cnt) OVER (ORDER BY s ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) + cnt + 1 AS r2 FROM cs),
        sums AS (
          SELECT SUM(c) FILTER (WHERE y = 1) AS n1,
                 SUM(c) FILTER (WHERE y = 0) AS n0,
                 SUM(c * r.r2) FILTER (WHERE y = 1) AS sum_r2_pos
          FROM cells JOIN r USING (s))
        SELECT CAST(n1 AS BIGINT) AS n1, CAST(n0 AS BIGINT) AS n0,
               ROUND(CAST(sum_r2_pos - n1 * (n1 + 1) AS DOUBLE)
                     / CAST(2 * n1 * n0 AS DOUBLE), 6) AS auc
        FROM sums
    """,
    # exact KS: integer sup-statistic max|p1*n2 - p2*n1| in HUGEINT, one
    # operands-rounded division at the end.
    "events_ks_test": """
        WITH vals AS (
          SELECT value AS v,
                 CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS c1,
                 CASE WHEN event_type = 'view' THEN 1 ELSE 0 END AS c2
          FROM events
          WHERE event_type IN ('purchase','view') AND value IS NOT NULL),
        g AS (SELECT v, SUM(c1)::HUGEINT AS c1, SUM(c2)::HUGEINT AS c2 FROM vals GROUP BY v),
        tot AS (SELECT SUM(c1)::HUGEINT AS n1, SUM(c2)::HUGEINT AS n2 FROM g),
        p AS (SELECT SUM(c1) OVER (ORDER BY v) AS p1, SUM(c2) OVER (ORDER BY v) AS p2 FROM g)
        SELECT CAST(n1 AS BIGINT) AS n1, CAST(n2 AS BIGINT) AS n2,
               ROUND(CAST((SELECT MAX(ABS(p1*n2 - p2*n1)) FROM p, tot) AS DOUBLE)
                     / CAST(n1*n2 AS DOUBLE), 6) AS ks_stat
        FROM tot
    """,
    # incremental refresh: the deterministic v2 derivation + text-equality
    # catalog dedup + quality gate re-derived end to end; 'value' column
    # name matches the engine's grouped-sum alias.
    "incremental_refresh": """
        WITH base AS (SELECT doc_id AS i, COALESCE(text,'') AS t FROM documents),
        cat AS (SELECT t FROM base WHERE i % 10 NOT IN (3, 4)),
        newdocs AS (
          SELECT i, t || ' v2' AS t FROM base WHERE i % 10 = 4
          UNION ALL SELECT i + 2000000, t || ' new' FROM base WHERE i % 10 = 5
          UNION ALL SELECT i + 3000000, t FROM base WHERE i % 10 = 6),
        app AS (SELECT * FROM newdocs WHERE t NOT IN (SELECT t FROM cat)),
        cnt AS (
          SELECT length(t) AS n_chars,
                 len(regexp_extract_all(t, '\\S+')) AS n_tokens,
                 len(regexp_extract_all(t, '[\\p{L}]')) AS n_alpha,
                 len(regexp_extract_all(t, '[^\\p{L}\\p{N}_\\s\\p{Z}]')) AS n_punct,
                 len(list_filter(regexp_extract_all(lower(t), '\\S+'),
                     x -> list_contains(['the','of','and','to','a','in','is','it','you','that'], x))) AS n_stopwords
          FROM app)
        SELECT 'rows_v1' AS metric, (SELECT COUNT(*) FROM base)::BIGINT AS value
        UNION ALL SELECT 'removed', (SELECT COUNT(*) FROM base WHERE i % 10 = 3)
        UNION ALL SELECT 'modified', (SELECT COUNT(*) FROM base WHERE i % 10 = 4)
        UNION ALL SELECT 'unchanged', (SELECT COUNT(*) FROM base WHERE i % 10 NOT IN (3, 4))
        UNION ALL SELECT 'added', (SELECT COUNT(*) FROM base WHERE i % 10 IN (5, 6))
        UNION ALL SELECT 'reprocessed', (SELECT COUNT(*) FROM newdocs)
        UNION ALL SELECT 'dup_vs_catalog', (SELECT COUNT(*) FROM newdocs WHERE t IN (SELECT t FROM cat))
        UNION ALL SELECT 'appended', (SELECT COUNT(*) FROM app)
        UNION ALL SELECT 'quality_pass',
          (SELECT COUNT(*) FROM cnt WHERE
            CASE WHEN n_chars = 0 OR n_tokens = 0 THEN 0.0 ELSE
              round(CAST(
                  (CASE WHEN n_tokens BETWEEN 10 AND 100000 THEN 1.0 ELSE 0.5 END)
                * (CASE WHEN CAST(n_alpha AS DOUBLE)/greatest(1, n_tokens)
                        BETWEEN CAST(2.0 AS DOUBLE) AND CAST(12.0 AS DOUBLE) THEN 1.0 ELSE 0.5 END)
                * (CASE WHEN CAST(n_punct AS DOUBLE)/n_chars < CAST(0.2 AS DOUBLE) THEN 1.0 ELSE 0.3 END)
                * (CASE WHEN CAST(n_stopwords AS DOUBLE)/n_tokens >= CAST(0.01 AS DOUBLE) THEN 1.0 ELSE 0.7 END)
                AS DOUBLE), 6)
            END >= CAST(0.4 AS DOUBLE) AND n_chars >= 50)
    """,
    # TwoNN intrinsic dimension: 6dp squared-distance grid via the identical
    # norm+norm-2ab chain, self masked by id, duplicate points excluded.
    "embedding_intrinsic_dim": """
        WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
        d AS (
          SELECT a.vec_id AS i, b.vec_id AS j,
                 ROUND(list_inner_product(a.v, a.v) + list_inner_product(b.v, b.v)
                       - 2.0 * list_inner_product(a.v, b.v), 6) AS d2
          FROM e a JOIN e b ON a.vec_id <> b.vec_id),
        r AS (SELECT i, d2, ROW_NUMBER() OVER (PARTITION BY i ORDER BY d2 ASC, j ASC) AS rn FROM d),
        two AS (SELECT i, MAX(CASE WHEN rn = 1 THEN d2 END) AS d1,
                       MAX(CASE WHEN rn = 2 THEN d2 END) AS d2v
                FROM r WHERE rn <= 2 GROUP BY i),
        valid AS (SELECT 0.5 * ln(d2v / d1) AS lnmu FROM two WHERE d1 > 0 AND d2v IS NOT NULL)
        SELECT COUNT(*)::BIGINT AS n_used,
               ROUND(COUNT(*) / SUM(lnmu), 6) AS intrinsic_dim
        FROM valid
    """,
    # JSD: per-word int/int-division → ln chains identical on both engines;
    # 6dp round absorbs summation order.
    "lang_jsd_divergence": """
        WITH toks AS (
          SELECT lang, unnest(regexp_extract_all(lower(COALESCE(text,'')), '\\S+')) AS w
          FROM documents WHERE lang IN ('en','de')),
        wc AS (SELECT w,
                      COUNT(*) FILTER (WHERE lang='en')::BIGINT AS c1,
                      COUNT(*) FILTER (WHERE lang='de')::BIGINT AS c2
               FROM toks GROUP BY w),
        tot AS (SELECT SUM(c1)::BIGINT AS n1, SUM(c2)::BIGINT AS n2 FROM wc),
        terms AS (
          SELECT CASE WHEN c1 > 0 THEN 0.5 * ((c1/CAST(n1 AS DOUBLE)) * ln(2.0 * (c1/CAST(n1 AS DOUBLE)) / ((c1/CAST(n1 AS DOUBLE)) + (c2/CAST(n2 AS DOUBLE))))) ELSE 0.0 END
               + CASE WHEN c2 > 0 THEN 0.5 * ((c2/CAST(n2 AS DOUBLE)) * ln(2.0 * (c2/CAST(n2 AS DOUBLE)) / ((c1/CAST(n1 AS DOUBLE)) + (c2/CAST(n2 AS DOUBLE))))) ELSE 0.0 END AS t
          FROM wc, tot)
        SELECT (SELECT n1 FROM tot) AS n1, (SELECT n2 FROM tot) AS n2,
               ROUND(SUM(t), 6) AS jsd
        FROM terms
    """,
    # Welch t-test: identical moment/variance/t/df op chains over summed
    # doubles; 6dp round absorbs summation-order drift.
    "events_welch_ttest": """
        WITH g AS (
          SELECT event_type, COUNT(*)::BIGINT AS n, SUM(value) AS s, SUM(value*value) AS ss
          FROM events
          WHERE event_type IN ('purchase','view') AND value IS NOT NULL
          GROUP BY event_type),
        w AS (
          SELECT
            (SELECT n FROM g WHERE event_type='purchase') AS n1,
            (SELECT s FROM g WHERE event_type='purchase') AS s1,
            (SELECT ss FROM g WHERE event_type='purchase') AS ss1,
            (SELECT n FROM g WHERE event_type='view') AS n2,
            (SELECT s FROM g WHERE event_type='view') AS s2,
            (SELECT ss FROM g WHERE event_type='view') AS ss2),
        c AS (
          SELECT n1, n2,
                 ((ss1 - s1*s1/n1) / (n1 - 1)) / n1 AS se1,
                 ((ss2 - s2*s2/n2) / (n2 - 1)) / n2 AS se2,
                 s1/n1 AS m1, s2/n2 AS m2
          FROM w)
        SELECT n1, n2,
               ROUND((m1 - m2) / sqrt(se1 + se2), 6) AS t_stat,
               ROUND((se1 + se2)*(se1 + se2) / (se1*se1/(n1 - 1) + se2*se2/(n2 - 1)), 6) AS welch_df
        FROM c
    """,
    # funnel conformance: first-20 path per user (rn over (ts, event_id)),
    # DuckDB's own levenshtein as the alignment oracle.
    "events_funnel_conformance": """
        WITH e AS (
          SELECT user_id, substr(event_type, 1, 1) AS c,
                 ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
          FROM events),
        p AS (
          SELECT user_id, string_agg(c, '' ORDER BY rn) AS path
          FROM e WHERE rn <= 20 GROUP BY user_id),
        d AS (SELECT levenshtein(path, 'svcp')::BIGINT AS dist FROM p)
        SELECT dist, COUNT(*)::BIGINT AS n_users FROM d GROUP BY dist
    """,
    # Spearman over the joint contingency table: doubled tie-averaged ranks
    # stay integral, HUGEINT sufficient statistics, one div/sqrt chain.
    "quality_len_spearman": """
        WITH t AS (SELECT COALESCE(text,'') AS text FROM documents),
        cnt AS (
          SELECT length(text) AS n_chars,
                 len(regexp_extract_all(text, '\\S+')) AS n_tokens,
                 len(regexp_extract_all(text, '[\\p{L}]')) AS n_alpha,
                 len(regexp_extract_all(text, '[^\\p{L}\\p{N}_\\s\\p{Z}]')) AS n_punct,
                 len(list_filter(regexp_extract_all(lower(text), '\\S+'),
                     x -> list_contains(['the','of','and','to','a','in','is','it','you','that'], x))) AS n_stopwords
          FROM t),
        d AS (
          SELECT CASE WHEN n_chars = 0 OR n_tokens = 0 THEN 0.0 ELSE
                   round(CAST(
                       (CASE WHEN n_tokens BETWEEN 10 AND 100000 THEN 1.0 ELSE 0.5 END)
                     * (CASE WHEN CAST(n_alpha AS DOUBLE)/greatest(1, n_tokens)
                             BETWEEN CAST(2.0 AS DOUBLE) AND CAST(12.0 AS DOUBLE) THEN 1.0 ELSE 0.5 END)
                     * (CASE WHEN CAST(n_punct AS DOUBLE)/n_chars < CAST(0.2 AS DOUBLE) THEN 1.0 ELSE 0.3 END)
                     * (CASE WHEN CAST(n_stopwords AS DOUBLE)/n_tokens >= CAST(0.01 AS DOUBLE) THEN 1.0 ELSE 0.7 END)
                     AS DOUBLE), 6)
                 END AS x,
                 n_tokens::BIGINT AS y
          FROM cnt),
        cells AS (SELECT x, y, COUNT(*)::HUGEINT AS c FROM d GROUP BY ALL),
        cx AS (SELECT x, SUM(c)::HUGEINT AS cnt FROM cells GROUP BY x),
        cy AS (SELECT y, SUM(c)::HUGEINT AS cnt FROM cells GROUP BY y),
        rx AS (SELECT x, 2 * COALESCE(SUM(cnt) OVER (ORDER BY x ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) + cnt + 1 AS r2 FROM cx),
        ry AS (SELECT y, 2 * COALESCE(SUM(cnt) OVER (ORDER BY y ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) + cnt + 1 AS r2 FROM cy),
        sums AS (
          SELECT SUM(c) AS n, SUM(c * rx.r2) AS sx, SUM(c * rx.r2 * rx.r2) AS sxx,
                 SUM(c * ry.r2) AS sy, SUM(c * ry.r2 * ry.r2) AS syy,
                 SUM(c * rx.r2 * ry.r2) AS sxy
          FROM cells JOIN rx USING (x) JOIN ry USING (y))
        SELECT CAST(n AS BIGINT) AS n,
               CASE WHEN (n*sxx - sx*sx) * (n*syy - sy*sy) = 0 THEN 0.0
                    ELSE ROUND(CAST(n*sxy - sx*sy AS DOUBLE)
                               / sqrt(CAST(n*sxx - sx*sx AS DOUBLE) * CAST(n*syy - sy*sy AS DOUBLE)), 6)
               END AS spearman_rho
        FROM sums
    """,
    # group-wise HLL: the approx_distinct register bridge (md5 hash → idx /
    # rank, exact-HUGEINT Σ2^(64-reg), one float rounding) GROUPed by hour.
    "events_hourly_hll": """
        WITH hv AS (
          SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS w,
                 md5_number_upper(CAST(user_id AS VARCHAR)) AS h
          FROM events),
        parts AS (
          SELECT w, CAST(h >> 56 AS BIGINT) AS idx,
                 strpos(lpad(bin(CAST(
                     ((CAST(h AS HUGEINT) << 8) | 255) % 18446744073709551616
                 AS UBIGINT)), 64, '0'), '1') AS rank
          FROM hv),
        regs AS (SELECT w, idx, MAX(rank) AS reg FROM parts GROUP BY w, idx),
        folded AS (
          SELECT w, 256 - COUNT(*) AS zeros,
                 CAST(256 - COUNT(*) AS HUGEINT) * (CAST(1 AS HUGEINT) << 64)
                     + SUM(CAST(1 AS HUGEINT) << (64 - reg)) AS s_exact
          FROM regs GROUP BY w),
        raw AS (
          SELECT w, zeros,
                 (0.7213 / (1 + 1.079 / 256)) * 256 * 256
                     / (CAST(s_exact AS DOUBLE) / 18446744073709551616.0) AS est
          FROM folded)
        SELECT w AS window_us,
               ROUND(CASE WHEN est <= 2.5 * 256 AND zeros > 0
                          THEN 256 * ln(256 / zeros) ELSE est END, 4) AS hll_users
        FROM raw
    """,
    # DP Laplace mechanism with bridge-seeded noise: the inverse-CDF chain
    # regenerates bit-identically from md5_number_upper.
    "dp_noisy_counts": """
        WITH g AS (SELECT lang, COUNT(*)::BIGINT AS n FROM documents GROUP BY lang),
        u AS (SELECT lang, n,
                (CAST(md5_number_upper('dp:5:' || lang) AS DOUBLE) + 1) / 18446744073709551616.0 AS u
              FROM g)
        SELECT lang,
               ROUND(n + CASE WHEN u >= 0.5 THEN -1.0 * ln(1.0 - 2.0 * (u - 0.5))
                              ELSE 1.0 * ln(1.0 - 2.0 * (0.5 - u)) END, 6) AS noisy_count
        FROM u
    """,
    # k-anonymity spectrum: QI classes on (nation, segment, 1000-unit
    # balance band via exact-int cents), per-k class/row counts + min
    # l-diversity — all-integer re-derivation.
    "k_anonymity_audit": """
        WITH c AS (
          SELECT c_nationkey AS nat, c_mktsegment AS seg,
                 CAST(round(c_acctbal * 100) AS BIGINT) AS cents
          FROM customer),
        cls AS (
          SELECT nat, seg,
                 CAST(floor(CAST(cents AS DOUBLE) / 100000) AS BIGINT) AS band,
                 COUNT(*)::BIGINT AS k, COUNT(DISTINCT cents)::BIGINT AS l
          FROM c GROUP BY ALL)
        SELECT k, COUNT(*)::BIGINT AS n_classes, SUM(k)::BIGINT AS n_rows,
               MIN(l)::BIGINT AS min_l
        FROM cls GROUP BY k
    """,
    # JL projection: the 16×d matrix regenerates from the md5 Box–Muller
    # bridge (bit-identical entries), the distortion ratio mirrors the
    # engine's (s/16)/|v|² op order under a 6dp round.
    "jl_distortion": """
        WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
        m AS (
          SELECT k.k, array_agg(
                   sqrt(-2 * ln((CAST(md5_number_upper('jl:7:' || k.k || ':' || d.d || ':1') AS DOUBLE) + 1) / 18446744073709551616.0))
                   * cos(2 * pi() * ((CAST(md5_number_upper('jl:7:' || k.k || ':' || d.d || ':2') AS DOUBLE) + 1) / 18446744073709551616.0))
                   ORDER BY d.d) AS w
          FROM range(16) AS k(k),
               (SELECT unnest(range(len(v))) AS d
                FROM (SELECT v FROM e ORDER BY vec_id LIMIT 1)) AS d
          GROUP BY k.k),
        dots AS (
          SELECT e.vec_id, SUM(pow(list_inner_product(e.v, m.w), 2)) AS s,
                 ANY_VALUE(list_inner_product(e.v, e.v)) AS vn
          FROM e, m GROUP BY e.vec_id)
        SELECT vec_id,
               CASE WHEN vn = 0 THEN 0.0 ELSE ROUND((s / 16.0) / vn, 6) END AS distortion
        FROM dots
    """,
    # exact covariance via millionth-lifted integer moments: both engines
    # quantize with the identical IEEE chain floor(double(x)*1e6 + 0.5),
    # so every moment is an exact integer; the one division chain is
    # operand-rounded in the same order on both sides
    "embedding_covariance": """
        WITH e AS (
          SELECT vec_id,
                 list_transform(embedding::DOUBLE[],
                                x -> CAST(FLOOR(x*1000000 + 0.5) AS BIGINT)) AS q
          FROM embeddings),
        dims AS (SELECT unnest(range(len(q))) AS i
                 FROM (SELECT q FROM e ORDER BY vec_id LIMIT 1)),
        pairs AS (SELECT a.i AS i, b.i AS j FROM dims a, dims b WHERE a.i <= b.i),
        mom AS (
          SELECT p.i, p.j,
                 COUNT(*)::HUGEINT AS n,
                 SUM(CAST(e.q[p.i + 1] AS HUGEINT) * e.q[p.j + 1]) AS sxy,
                 SUM(CAST(e.q[p.i + 1] AS HUGEINT)) AS sx,
                 SUM(CAST(e.q[p.j + 1] AS HUGEINT)) AS sy
          FROM e CROSS JOIN pairs p GROUP BY p.i, p.j)
        SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
               ROUND(CAST(n*sxy - sx*sy AS DOUBLE)
                     / CAST(n AS DOUBLE) / CAST(n AS DOUBLE) / 1000000000000.0, 6) AS cov
        FROM mom
    """,
    # chi-square feature selection: exact-integer contingency cells in
    # HUGEINT, ONE operands-rounded-to-double division, raw-double ranking
    # with (term, lang) tie-break — mirrors the engine's float contract.
    "chi2_term_lang": """
        WITH d AS (
          SELECT doc_id, lang,
                 unnest(list_distinct(regexp_extract_all(lower(COALESCE(text,'')), '\\S+'))) AS w
          FROM documents),
        df_tl AS (SELECT w, lang, COUNT(*)::BIGINT AS a FROM d GROUP BY ALL),
        nl AS (SELECT lang, COUNT(*)::BIGINT AS n_l FROM documents GROUP BY lang),
        nn AS (SELECT COUNT(*)::BIGINT AS n FROM documents),
        df_t AS (SELECT w, SUM(a)::BIGINT AS dft FROM df_tl GROUP BY w),
        cells AS (
          SELECT t.w, l.lang,
                 COALESCE(x.a, 0)::HUGEINT AS a,
                 (t.dft - COALESCE(x.a, 0))::HUGEINT AS b,
                 (l.n_l - COALESCE(x.a, 0))::HUGEINT AS c,
                 (nn.n - l.n_l - (t.dft - COALESCE(x.a, 0)))::HUGEINT AS dd,
                 nn.n::HUGEINT AS n
          FROM df_t t CROSS JOIN nl l CROSS JOIN nn
          LEFT JOIN df_tl x ON x.w = t.w AND x.lang = l.lang),
        chi AS (
          SELECT w, lang,
                 CASE WHEN (a+b)*(c+dd)*(a+c)*(b+dd) = 0 THEN 0.0
                      ELSE CAST(n*(a*dd - b*c)*(a*dd - b*c) AS DOUBLE)
                           / CAST((a+b)*(c+dd)*(a+c)*(b+dd) AS DOUBLE)
                 END AS chi2
          FROM cells)
        SELECT w AS term, lang, ROUND(chi.chi2, 6) AS chi2
        FROM chi ORDER BY chi.chi2 DESC, w ASC, lang ASC LIMIT 20
    """,
    # re-derives the full Naive-Bayes train+apply: unigram model with
    # add-one smoothing, per-lang constants, the unseen-word-free score
    # decomposition, 6dp-rounded argmax with lang-ascending tie-break.
    "nb_lang_confusion": """
        WITH toks AS (
          SELECT doc_id, lang, unnest(regexp_extract_all(lower(COALESCE(text,'')), '\\S+')) AS w
          FROM documents),
        tf AS (SELECT doc_id, lang, w, COUNT(*)::BIGINT AS n FROM toks GROUP BY ALL),
        model AS (SELECT lang, w, SUM(n)::BIGINT AS c FROM tf GROUP BY lang, w),
        lstats AS (SELECT lang, SUM(c)::BIGINT AS n_tok, COUNT(*)::BIGINT AS v FROM model GROUP BY lang),
        docs_l AS (SELECT lang, COUNT(*)::BIGINT AS d FROM documents GROUP BY lang),
        nd AS (SELECT SUM(d)::BIGINT AS total FROM docs_l),
        doct AS (SELECT doc_id, lang AS true_lang, SUM(n)::BIGINT AS t FROM tf GROUP BY doc_id, lang),
        spart AS (
          SELECT tf.doc_id, m.lang, SUM(tf.n * ln(m.c + 1)) AS s
          FROM tf JOIN model m ON m.w = tf.w
          GROUP BY tf.doc_id, m.lang),
        scores AS (
          SELECT doct.doc_id, doct.true_lang, ls.lang,
                 ROUND(ln(CAST(dl.d AS DOUBLE) / nd.total)
                       - doct.t * ln(CAST(ls.n_tok + ls.v AS DOUBLE))
                       + COALESCE(sp.s, 0.0), 6) AS score
          FROM doct CROSS JOIN lstats ls
          JOIN docs_l dl ON dl.lang = ls.lang
          CROSS JOIN nd
          LEFT JOIN spart sp ON sp.doc_id = doct.doc_id AND sp.lang = ls.lang),
        pred AS (
          SELECT doc_id, true_lang, lang AS nb_pred,
                 ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY score DESC, lang ASC) AS rn
          FROM scores)
        SELECT true_lang AS lang, nb_pred, COUNT(*)::BIGINT AS n
        FROM pred WHERE rn = 1 GROUP BY ALL
    """,
    # re-derives the curation half of the training-data flow from the staged
    # extraction parquet: quality_counts (Unicode classes pinned vs Python
    # str.isalpha / re \w over the real corpus), the discrete-factor quality
    # score, the ≥0.4 / ≥50-char filter, exact dedup (distinct text ==
    # distinct sha256), and the four attrition counters.
    "training_data_pipeline": f"""
        WITH t AS (
          SELECT url, COALESCE(extracted_text, '') AS text
          FROM read_parquet('{_TDP_STAGING}/*.parquet')),
        c AS (
          SELECT url, text,
                 length(text) AS n_chars,
                 len(regexp_extract_all(text, '\\S+')) AS n_tokens,
                 len(regexp_extract_all(text, '[\\p{{L}}]')) AS n_alpha,
                 len(regexp_extract_all(text, '[^\\p{{L}}\\p{{N}}_\\s\\p{{Z}}]')) AS n_punct,
                 len(list_filter(regexp_extract_all(lower(text), '\\S+'),
                     x -> list_contains(['the','of','and','to','a','in','is','it','you','that'], x))) AS n_stopwords
          FROM t),
        s AS (
          SELECT url, text, n_chars,
            CASE WHEN n_chars = 0 OR n_tokens = 0 THEN 0.0 ELSE
              round(CAST(
                  (CASE WHEN n_tokens BETWEEN 10 AND 100000 THEN 1.0 ELSE 0.5 END)
                * (CASE WHEN CAST(n_alpha AS DOUBLE)/greatest(1, n_tokens)
                        BETWEEN CAST(2.0 AS DOUBLE) AND CAST(12.0 AS DOUBLE) THEN 1.0 ELSE 0.5 END)
                * (CASE WHEN CAST(n_punct AS DOUBLE)/n_chars < CAST(0.2 AS DOUBLE) THEN 1.0 ELSE 0.3 END)
                * (CASE WHEN CAST(n_stopwords AS DOUBLE)/n_tokens >= CAST(0.01 AS DOUBLE) THEN 1.0 ELSE 0.7 END)
                AS DOUBLE), 6)
            END AS score
          FROM c),
        pass AS (SELECT * FROM s WHERE score >= CAST(0.4 AS DOUBLE) AND n_chars >= 50)
        SELECT 'rows_in' AS metric, (SELECT COUNT(*) FROM t)::BIGINT AS value
        UNION ALL SELECT 'dropped_quality',
                         ((SELECT COUNT(*) FROM t) - (SELECT COUNT(*) FROM pass))::BIGINT
        UNION ALL SELECT 'dropped_duplicates',
                         ((SELECT COUNT(*) FROM pass) - (SELECT COUNT(DISTINCT text) FROM pass))::BIGINT
        UNION ALL SELECT 'rows_out', (SELECT COUNT(DISTINCT text) FROM pass)::BIGINT
    """,
    # re-derives validate_span_example (training/quality.py:41-119) from the
    # raw fixture rows: per-entity issue flags, adjacent-sorted-span overlap
    # via lag(), invalid-entity arithmetic, type tallies.  The fixture is the
    # deterministic synthetic corpus ∪ corruption slice the query processed.
    "synthetic_quality_report": f"""
        WITH ex AS (SELECT * FROM read_parquet('{_SYNTH_FIXTURE_DIR}/examples.parquet')),
        ent AS (SELECT * FROM read_parquet('{_SYNTH_FIXTURE_DIR}/entities.parquet')),
        f AS (
          SELECT n.example_id, n.ent_idx, n.type, n.start, n."end", n.ent_text, x.text,
                 (n.type IS NULL OR n.type = '') AS missing_type,
                 (n.start < 0 OR n."end" < 0 OR n.start > length(x.text)
                  OR n."end" > length(x.text)) AS oob
          FROM ent n JOIN ex x USING (example_id)),
        g AS (
          SELECT *,
                 (NOT oob AND start >= "end") AS empty_span,
                 (NOT oob AND start < "end") AS valid_span
          FROM f),
        h AS (
          SELECT *,
                 (valid_span AND ent_text IS NOT NULL
                  AND ent_text <> substr(text, start + 1, "end" - start)) AS mismatch
          FROM g),
        ovl AS (
          SELECT example_id FROM (
            SELECT example_id, start,
                   lag("end") OVER (PARTITION BY example_id ORDER BY start, "end") AS prev_end
            FROM h WHERE valid_span)
          WHERE prev_end IS NOT NULL AND start < prev_end),
        bad AS (
          SELECT example_id FROM h WHERE missing_type OR oob OR empty_span OR mismatch
          UNION SELECT example_id FROM ovl)
        SELECT 'examples' AS metric, COUNT(*)::BIGINT AS value FROM ex
        UNION ALL SELECT 'entities', COUNT(*)::BIGINT FROM ent
        UNION ALL SELECT 'invalid_examples', COUNT(DISTINCT example_id)::BIGINT FROM bad
        UNION ALL SELECT 'invalid_entities',
                         COUNT(*) FILTER (WHERE oob OR empty_span)::BIGINT FROM g
        UNION ALL SELECT 'type:' || type, COUNT(*)::BIGINT FROM ent
                  WHERE type IS NOT NULL AND type <> '' GROUP BY type
    """,
    "tfidf_top_terms": """
        WITH toks AS (
          SELECT doc_id,
                 unnest(list_filter(regexp_split_to_array(lower(COALESCE(text, '')), '\\s+'),
                                    x -> x <> '')) AS term
          FROM documents
        ),
        tf AS (
          SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
          FROM toks GROUP BY doc_id, term
        ),
        df AS (
          SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term
        )
        SELECT doc_id, rnk, term, tf, df FROM (
            SELECT tf.doc_id, tf.term, tf.tf, df.df,
                   CAST(ROW_NUMBER() OVER (PARTITION BY tf.doc_id
                                           ORDER BY tf.tf DESC, df.df ASC, tf.term ASC) AS BIGINT) AS rnk
            FROM tf JOIN df ON df.term = tf.term
        ) WHERE rnk <= 3
    """,
    "bio_token_labels": f"""
        -- independent restatement of align_entities_to_tokens: with
        -- whitespace tokens and word-boundary regex entities, a token is
        -- fully covered by an entity iff the token IS the full match, so
        -- B- count = full-match tokens, I- is impossible, CLS/SEP -> -100
        SELECT doc_id,
               CAST(2 AS BIGINT) AS n_special,
               CASE WHEN lang = 'zh' THEN 0
                    ELSE CAST(len(list_filter(regexp_extract_all(text, '\\S+'),
                                              x -> regexp_full_match(x, '[A-Za-z0-9]{{6,12}}'))) AS BIGINT)
               END AS n_b,
               CAST(0 AS BIGINT) AS n_i,
               CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT)
               - CASE WHEN lang = 'zh' THEN 0
                      ELSE CAST(len(list_filter(regexp_extract_all(text, '\\S+'),
                                                x -> regexp_full_match(x, '[A-Za-z0-9]{{6,12}}'))) AS BIGINT)
                 END AS n_o
        FROM documents
    """,
    "benchmark_decontaminate": """
        WITH corpus AS (
          SELECT doc_id, COALESCE(text, '') AS text FROM documents
          UNION ALL
          SELECT doc_id + 1000000, COALESCE(text, '') || ' appended' FROM documents
        ),
        toks AS (
          SELECT doc_id,
                 string_split(trim(regexp_replace(text, '\\s+', ' ', 'g'), ' '), ' ') AS ws
          FROM corpus
        ),
        grams AS (
          SELECT doc_id, array_to_string(ws[i:i+12], ' ') AS ng
          FROM toks, LATERAL (SELECT unnest(range(1, greatest(len(ws) - 12, 0) + 1)) AS i) r
        ),
        ev AS (
          SELECT DISTINCT ng FROM grams WHERE doc_id < 1000000 AND doc_id % 97 = 0
        )
        SELECT g.doc_id, CAST(count(DISTINCT g.ng) AS BIGINT) AS n_shared
        FROM grams g JOIN ev USING (ng)
        WHERE NOT (g.doc_id < 1000000 AND g.doc_id % 97 = 0)
        GROUP BY g.doc_id
    """,
    "passage_dedup": """
        WITH toks AS (
          SELECT doc_id,
                 string_split(trim(regexp_replace(COALESCE(text, ''), '\\s+', ' ', 'g'), ' '), ' ') AS ws
          FROM documents
        ),
        chunks AS (
          SELECT doc_id, CAST((i - 1) // 16 AS BIGINT) AS chunk_idx,
                 array_to_string(ws[i:i+15], ' ') AS passage
          FROM toks, LATERAL (SELECT unnest(range(1, len(ws) + 1, 16)) AS i) r
        ),
        ranked AS (
          SELECT doc_id, chunk_idx, passage,
                 row_number() OVER (PARTITION BY passage ORDER BY doc_id, chunk_idx) AS rn
          FROM chunks
        )
        SELECT doc_id,
               CAST(count(*) AS BIGINT) AS n_chunks,
               CAST(sum(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
               md5(COALESCE(string_agg(CASE WHEN rn = 1 THEN passage END, ' ' ORDER BY chunk_idx), '')) AS kept_md5
        FROM ranked GROUP BY doc_id
    """,
    "doc_repetition_stats": """
        WITH toks AS (
          SELECT doc_id,
                 unnest(string_split(trim(regexp_replace(COALESCE(text, ''), '\\s+', ' ', 'g'), ' '), ' ')) AS w,
                 generate_subscripts(string_split(trim(regexp_replace(COALESCE(text, ''), '\\s+', ' ', 'g'), ' '), ' '), 1) AS i
          FROM documents
        ),
        bi AS (
          SELECT doc_id, w || ' ' || lead(w) OVER (PARTITION BY doc_id ORDER BY i) AS bg
          FROM toks
        ),
        cnt AS (
          SELECT doc_id, bg, count(*) AS c FROM bi WHERE bg IS NOT NULL GROUP BY doc_id, bg
        )
        SELECT d.doc_id,
               CAST(COALESCE(sum(c), 0) AS BIGINT) AS n_bigrams,
               CAST(COALESCE(max(c), 0) AS BIGINT) AS max_bigram_count,
               CAST(count(c) AS BIGINT) AS n_distinct_bigrams
        FROM documents d LEFT JOIN cnt ON cnt.doc_id = d.doc_id
        GROUP BY d.doc_id
    """,
    "token_stream_pack": """
        WITH t AS (
          SELECT source, doc_id,
                 len(string_split(trim(regexp_replace(COALESCE(text, ''), '\\s+', ' ', 'g'), ' '), ' ')) AS n_tok
          FROM documents
        ),
        c AS (
          SELECT source, doc_id, n_tok,
                 sum(n_tok) OVER (PARTITION BY source ORDER BY doc_id
                                  ROWS UNBOUNDED PRECEDING) AS cum
          FROM t
        )
        SELECT source,
               CAST(ceil(max(cum) / 256.0) AS BIGINT) AS n_sequences,
               CAST(max(cum) AS BIGINT) AS n_tokens,
               CAST(sum(CASE WHEN (cum - n_tok) // 256 <> (cum - 1) // 256 THEN 1 ELSE 0 END) AS BIGINT) AS n_straddlers
        FROM c GROUP BY source
    """,
    "lang_temperature_sample": """
        WITH counts AS (SELECT lang, COUNT(*) AS n_docs FROM documents GROUP BY lang),
        mn AS (SELECT MIN(n_docs) AS m FROM counts),
        rates AS (
          SELECT lang, n_docs,
                 -- CAST before subtracting: DuckDB's bare 0.7 - 1.0 is DECIMAL
                 -- arithmetic (exactly -0.3), one ULP off Python's double
                 -- 0.7 - 1.0 = -0.30000000000000004; the rates must mirror
                 -- the engine's float ops bit-for-bit
                 POWER(CAST(n_docs AS DOUBLE) / (SELECT m FROM mn),
                       CAST(0.7 AS DOUBLE) - CAST(1.0 AS DOUBLE)) AS r
          FROM counts
        ),
        kept AS (
          SELECT d.lang, d.doc_id
          FROM documents d JOIN rates USING (lang)
          WHERE CAST(md5_number_upper(CAST(d.doc_id AS VARCHAR)) AS DOUBLE)
                / 18446744073709551616.0 < rates.r
        )
        SELECT r.lang AS lang, r.n_docs AS n_docs,
               COUNT(k.doc_id) AS n_kept,
               CAST(COALESCE(SUM(k.doc_id), 0) AS BIGINT) AS sum_kept_ids,
               ROUND(r.r, 6) AS rate
        FROM rates r LEFT JOIN kept k USING (lang)
        GROUP BY r.lang, r.n_docs, r.r
    """,
    "trigram_lm_nll": """
        WITH tri AS (
          SELECT doc_id, lang, substr(text, i, 3) AS t
          FROM documents, UNNEST(generate_series(1, length(text) - 2)) AS u(i)
          WHERE length(COALESCE(text, '')) >= 3
        ),
        model AS (SELECT lang, t, COUNT(*) AS c FROM tri GROUP BY lang, t),
        totals AS (
          SELECT lang, CAST(SUM(c) AS BIGINT) AS n_tok, COUNT(*) AS v
          FROM model GROUP BY lang
        ),
        scored AS (
          SELECT tri.doc_id, tri.lang,
                 COUNT(*) AS n_tri,
                 SUM(ln((model.c + 1) / CAST(totals.n_tok + totals.v AS DOUBLE))) AS s
          FROM tri JOIN model USING (lang, t) JOIN totals USING (lang)
          GROUP BY tri.doc_id, tri.lang
        )
        SELECT doc_id, lang, n_tri, ROUND(-s / n_tri, 6) AS nll FROM scored
    """,
    "trigram_lm_nll_pruned": """
        WITH tri AS (
          SELECT doc_id, lang, substr(text, i, 3) AS t
          FROM documents, UNNEST(generate_series(1, length(text) - 2)) AS u(i)
          WHERE length(COALESCE(text, '')) >= 3
        ),
        model_all AS (SELECT lang, t, COUNT(*) AS c FROM tri GROUP BY lang, t),
        model AS (SELECT * FROM model_all WHERE c >= 2),
        dropped AS (
          SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_types_dropped
          FROM model_all WHERE c < 2 GROUP BY lang
        ),
        totals AS (
          SELECT lang, CAST(SUM(c) AS BIGINT) AS n_tok, CAST(COUNT(*) AS BIGINT) AS v
          FROM model GROUP BY lang
        ),
        scored AS (
          SELECT tri.doc_id, tri.lang,
                 COUNT(*) AS n_tri,
                 SUM(ln((COALESCE(model.c, 0) + 1)
                        / CAST(totals.n_tok + totals.v AS DOUBLE))) AS s
          FROM tri
          LEFT JOIN model ON model.lang = tri.lang AND model.t = tri.t
          JOIN totals ON totals.lang = tri.lang
          GROUP BY tri.doc_id, tri.lang
        )
        SELECT s.doc_id, s.lang, CAST(s.n_tri AS BIGINT) AS n_tri,
               ROUND(-s.s / s.n_tri, 6) AS nll,
               t.v AS n_types_kept,
               COALESCE(d.n_types_dropped, 0) AS n_types_dropped
        FROM scored s
        JOIN totals t ON t.lang = s.lang
        LEFT JOIN dropped d ON d.lang = s.lang
    """,
    "trigram_quality_buckets": """
        WITH tri AS (
          SELECT doc_id, lang, substr(text, i, 3) AS t
          FROM documents, UNNEST(generate_series(1, length(text) - 2)) AS u(i)
          WHERE length(COALESCE(text, '')) >= 3
        ),
        model AS (SELECT lang, t, COUNT(*) AS c FROM tri GROUP BY lang, t),
        totals AS (
          SELECT lang, CAST(SUM(c) AS BIGINT) AS n_tok, COUNT(*) AS v
          FROM model GROUP BY lang
        ),
        scored AS (
          SELECT tri.doc_id, tri.lang,
                 ROUND(-SUM(ln((model.c + 1) / CAST(totals.n_tok + totals.v AS DOUBLE)))
                       / COUNT(*), 6) AS nll
          FROM tri JOIN model USING (lang, t) JOIN totals USING (lang)
          GROUP BY tri.doc_id, tri.lang
        ),
        cuts AS (
          SELECT lang,
                 CAST(COUNT(*) AS BIGINT) AS n_docs,
                 quantile_disc(nll, 1.0/3) AS t1,
                 quantile_disc(nll, 2.0/3) AS t2
          FROM scored GROUP BY lang
        )
        SELECT c.lang AS lang, c.n_docs AS n_docs,
               CAST(SUM(CASE WHEN s.nll <= c.t1 THEN 1 ELSE 0 END) AS BIGINT) AS n_head,
               CAST(SUM(CASE WHEN s.nll > c.t1 AND s.nll <= c.t2 THEN 1 ELSE 0 END) AS BIGINT) AS n_middle,
               CAST(SUM(CASE WHEN s.nll > c.t2 THEN 1 ELSE 0 END) AS BIGINT) AS n_tail,
               c.t1 AS t1, c.t2 AS t2
        FROM scored s JOIN cuts c USING (lang)
        GROUP BY c.lang, c.n_docs, c.t1, c.t2
    """,
    "dataset_split_counts": """
        WITH assigned AS (
          SELECT lang, doc_id,
                 CASE WHEN u < 0.8 THEN 'train'
                      WHEN u < 0.9 THEN 'val'
                      ELSE 'test' END AS split
          FROM (
            SELECT lang, doc_id,
                   CAST(md5_number_upper(CAST(doc_id AS VARCHAR)) AS DOUBLE)
                   / 18446744073709551616.0 AS u
            FROM documents
          )
        )
        SELECT lang, split,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(doc_id) AS BIGINT) AS sum_ids
        FROM assigned GROUP BY lang, split
    """,
    "events_distinct_users_hourly": """
        SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS window_us,
               CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
               CAST(COUNT(*) AS BIGINT) AS n_events
        FROM events GROUP BY 1
    """,
    "orders_lineitem_ship_band": """
        SELECT o.o_orderkey,
               CAST(COUNT(l.l_shipdate) AS BIGINT) AS n_near,
               CAST(COALESCE(SUM(l.l_quantity), 0) AS BIGINT) AS qty_near
        FROM orders o
        LEFT JOIN lineitem l
          ON l.l_shipdate BETWEEN o.o_orderdate - INTERVAL 7 DAY
                              AND o.o_orderdate + INTERVAL 7 DAY
        GROUP BY o.o_orderkey
    """,
    "word_pmi_top20": """
        WITH toks AS (
          SELECT string_split(trim(regexp_replace(COALESCE(text, ''), '\\s+', ' ', 'g'), ' '), ' ') AS ws
          FROM documents
        ),
        uni AS (
          SELECT w, COUNT(*) AS c
          FROM toks, UNNEST(ws) AS u(w)
          WHERE w <> ''
          GROUP BY w
        ),
        bi AS (
          SELECT ws[i] || ' ' || ws[i+1] AS bigram, ws[i] AS a, ws[i+1] AS b,
                 COUNT(*) AS c
          FROM toks, UNNEST(generate_series(1, len(ws) - 1)) AS g(i)
          WHERE ws[i] <> '' AND ws[i+1] <> ''
          GROUP BY 1, 2, 3
        ),
        tot AS (
          SELECT (SELECT CAST(SUM(c) AS BIGINT) FROM uni) AS w_total,
                 (SELECT CAST(SUM(c) AS BIGINT) FROM bi) AS b_total
        )
        SELECT bi.bigram, CAST(bi.c AS BIGINT) AS n_pair,
               -- explicit DOUBLE casts: `c * 1.0` is DECIMAL arithmetic in
               -- DuckDB, whose division rounds differently from the engine's
               -- float division in the last ULPs
               ROUND(ln((CAST(bi.c AS DOUBLE) / t.b_total)
                        / ((CAST(ua.c AS DOUBLE) / t.w_total)
                           * (CAST(ub.c AS DOUBLE) / t.w_total))), 6) AS pmi
        FROM bi
        JOIN uni ua ON ua.w = bi.a
        JOIN uni ub ON ub.w = bi.b
        CROSS JOIN tot t
        WHERE bi.c >= 5
        ORDER BY pmi DESC, bi.bigram ASC
        LIMIT 20
    """,
    "events_new_users_daily": """
        WITH f AS (
          SELECT user_id,
                 MIN((epoch_us(ts) // 86400000000) * 86400000000) AS day_us
          FROM events GROUP BY user_id
        ),
        d AS (SELECT day_us, CAST(COUNT(*) AS BIGINT) AS n_new FROM f GROUP BY day_us)
        SELECT day_us, n_new,
               CAST(SUM(n_new) OVER (ORDER BY day_us) AS BIGINT) AS cum_users
        FROM d
    """,
    "duplicate_ngram_spans": """
        WITH corpus AS (
          SELECT doc_id, COALESCE(text, '') AS text FROM documents
          UNION ALL
          SELECT doc_id + 1000000,
                 array_to_string(
                   (string_split(trim(regexp_replace(COALESCE(text, ''), '\\s+', ' ', 'g'), ' '), ' '))[1:20],
                   ' ') || ' uniq' || CAST(doc_id AS VARCHAR)
          FROM documents WHERE doc_id % 7 = 0
        ),
        toks AS (
          SELECT doc_id,
                 string_split(trim(regexp_replace(text, '\\s+', ' ', 'g'), ' '), ' ') AS ws
          FROM corpus
        ),
        grams AS (
          SELECT doc_id, CAST(i - 1 AS BIGINT) AS pos, array_to_string(ws[i:i+12], ' ') AS ng
          FROM toks, LATERAL (SELECT unnest(range(1, greatest(len(ws) - 12, 0) + 1)) AS i) r
        ),
        multi AS (
          SELECT ng FROM grams GROUP BY ng HAVING count(DISTINCT doc_id) > 1
        ),
        hits AS (SELECT g.doc_id, g.pos FROM grams g JOIN multi USING (ng)),
        lagd AS (
          SELECT doc_id, pos,
                 CASE WHEN lag(pos) OVER w IS NULL
                        OR pos - lag(pos) OVER w > 13 THEN 1 ELSE 0 END AS brk
          FROM hits
          WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
        ),
        isl AS (
          SELECT doc_id, pos,
                 sum(brk) OVER (PARTITION BY doc_id ORDER BY pos
                                ROWS UNBOUNDED PRECEDING) AS island
          FROM lagd
        ),
        agg AS (
          SELECT doc_id, island, min(pos) AS s, max(pos) AS e, count(*) AS cnt
          FROM isl GROUP BY doc_id, island
        )
        SELECT doc_id,
               CAST(sum(cnt) AS BIGINT) AS n_dup_ngrams,
               CAST(count(*) AS BIGINT) AS n_islands,
               CAST(sum(e - s + 13) AS BIGINT) AS dup_word_count,
               CAST(max(e - s + 13) AS BIGINT) AS max_island_words
        FROM agg GROUP BY doc_id
    """,
    "events_value_percentiles": """
        SELECT event_type,
               CAST(count(*) AS BIGINT) AS n_events,
               quantile_disc(value, 0.5) AS p50,
               quantile_disc(value, 0.9) AS p90,
               quantile_disc(value, 0.99) AS p99
        FROM events WHERE value IS NOT NULL GROUP BY event_type
    """,
    "docs_global_rank": """
        SELECT doc_id,
               CAST(ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS global_rank
        FROM documents
    """,
    "docs_top3_per_source": """
        SELECT source, rnk, doc_id, n_chars FROM (
            SELECT source, doc_id, n_chars,
                   CAST(ROW_NUMBER() OVER (PARTITION BY source
                                           ORDER BY n_chars DESC, doc_id ASC) AS BIGINT) AS rnk
            FROM documents
        ) WHERE rnk <= 3
    """,
    "supplier_nation_volume": """
        SELECT n.n_name,
               CAST(count(*) AS BIGINT) AS n_lineitems,
               sum(l.l_quantity) AS sum_qty
        FROM lineitem l
        JOIN supplier s ON s.s_suppkey = l.l_suppkey
        JOIN nation n ON n.n_nationkey = s.s_nationkey
        GROUP BY n.n_name
    """,
    "events_value_outliers": """
        WITH med AS (
            SELECT event_type,
                   quantile_disc(value, 0.5) AS median,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM events WHERE value IS NOT NULL GROUP BY event_type
        ),
        dev AS (
            SELECT e.event_type, abs(e.value - med.median) AS d
            FROM events e JOIN med USING (event_type)
            WHERE e.value IS NOT NULL
        ),
        mad AS (
            SELECT event_type, quantile_disc(d, 0.5) AS mad
            FROM dev GROUP BY event_type
        )
        SELECT med.event_type, med.n_events, med.median, mad.mad,
               CAST((SELECT count(*) FROM dev
                     WHERE dev.event_type = med.event_type
                       AND dev.d > 3 * mad.mad) AS BIGINT) AS n_outliers
        FROM med JOIN mad USING (event_type)
    """,
    "events_per_user_histogram": """
        WITH per_user AS (
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
            FROM events GROUP BY user_id
        )
        SELECT n_events, CAST(count(*) AS BIGINT) AS n_users
        FROM per_user GROUP BY n_events
    """,
    "customer_order_cohorts": """
        WITH first AS (
            SELECT o_custkey, strftime(min(o_orderdate), '%Y-%m') AS cohort_month
            FROM orders GROUP BY o_custkey
        )
        SELECT f.cohort_month,
               strftime(o.o_orderdate, '%Y-%m') AS order_month,
               CAST(count(*) AS BIGINT) AS n_orders,
               CAST(count(DISTINCT o.o_custkey) AS BIGINT) AS n_customers
        FROM orders o JOIN first f ON o.o_custkey = f.o_custkey
        GROUP BY 1, 2
    """,
    "shipping_priority": """
        WITH per_order AS (
            SELECT l.l_orderkey,
                   strftime(o.o_orderdate, '%Y-%m-%d') AS o_orderdate,
                   o.o_orderpriority,
                   CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))) AS BIGINT) AS units
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND o.o_orderdate < TIMESTAMP '1995-03-15'
              AND l.l_shipdate > TIMESTAMP '1995-03-15'
            GROUP BY 1, 2, 3
        )
        SELECT l_orderkey, o_orderdate, o_orderpriority,
               CAST(units AS DOUBLE) / 10000.0 AS revenue
        FROM per_order
        ORDER BY units DESC, l_orderkey
        LIMIT 10
    """,
    "nation_trade_flow": """
        SELECT ns.n_name AS supp_nation,
               nc.n_name AS cust_nation,
               CAST(count(*) AS BIGINT) AS n_lineitems,
               CAST(CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))) AS BIGINT)
                    AS DOUBLE) / 10000.0 AS revenue
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN supplier s ON l.l_suppkey = s.s_suppkey
        JOIN nation ns ON s.s_nationkey = ns.n_nationkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation nc ON c.c_nationkey = nc.n_nationkey
        WHERE l.l_shipdate BETWEEN TIMESTAMP '1995-01-01' AND TIMESTAMP '1996-12-31'
        GROUP BY 1, 2
    """,
    "doc_chars_quantile_cont": """
        SELECT lang,
               CAST(count(*) AS BIGINT) AS n_docs,
               ROUND(quantile_cont(n_chars, 0.25), 6) AS q25,
               ROUND(quantile_cont(n_chars, 0.50), 6) AS q50,
               ROUND(quantile_cont(n_chars, 0.75), 6) AS q75
        FROM documents GROUP BY lang
    """,
    "inverted_index_postings": """
        WITH pairs AS (
            SELECT DISTINCT word AS term, doc_id
            FROM (SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS word
                  FROM documents)
        )
        SELECT term, CAST(count(*) AS BIGINT) AS df,
               md5(string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)) AS postings_md5
        FROM pairs GROUP BY term HAVING count(*) >= 5
    """,
    "doc_pagerank": _PAGERANK_SQL,
    "events_interarrival_hist": """
        WITH w AS (
            SELECT event_type, ts,
                   lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_type) AS prev_ts
            FROM events
        )
        SELECT event_type,
               CAST((epoch_us(ts) - epoch_us(prev_ts)) // 60000000 AS BIGINT) AS gap_min,
               CAST(count(*) AS BIGINT) AS n_gaps
        FROM w WHERE prev_ts IS NOT NULL
        GROUP BY 1, 2
    """,
    "nation_customer_fingerprint": """
        SELECT n.n_name,
               CAST(count(*) AS BIGINT) AS n_customers,
               md5(string_agg(c.c_name, ',' ORDER BY c.c_name)) AS names_md5
        FROM customer c JOIN nation n ON n.n_nationkey = c.c_nationkey
        GROUP BY n.n_name
    """,
    "corpus_snapshot_diff": """
        WITH v2 AS (
            SELECT doc_id, text || ' v2' AS text FROM documents WHERE doc_id % 10 = 4
            UNION ALL
            SELECT doc_id, text FROM documents WHERE doc_id % 10 NOT IN (3, 4)
            UNION ALL
            SELECT doc_id + 2000000 AS doc_id, text || ' new' AS text
            FROM documents WHERE doc_id % 10 = 5
        ), diff AS (
            SELECT COALESCE(b.doc_id, v.doc_id) AS doc_id,
                   CASE WHEN b.doc_id IS NULL THEN 'added'
                        WHEN v.doc_id IS NULL THEN 'removed'
                        WHEN COALESCE(b.text, '') = COALESCE(v.text, '') THEN 'unchanged'
                        ELSE 'modified' END AS status
            FROM documents b FULL OUTER JOIN v2 v ON b.doc_id = v.doc_id
        )
        SELECT status,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(SUM(doc_id) AS BIGINT) AS id_sum
        FROM diff GROUP BY status ORDER BY status
    """,
    "events_last_per_user": """
        WITH ranked AS (
            SELECT user_id,
                   epoch_us(ts) AS last_ts_us,
                   event_type AS last_event_type,
                   value AS last_value,
                   ROW_NUMBER() OVER (
                       PARTITION BY user_id ORDER BY ts DESC, event_id DESC
                   ) AS rn
            FROM events
        )
        SELECT user_id, last_ts_us, last_event_type, last_value
        FROM ranked WHERE rn = 1 ORDER BY user_id
    """,
    "events_user_top_type": """
        WITH counts AS (
            SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n
            FROM events GROUP BY user_id, event_type
        ), ranked AS (
            SELECT user_id, event_type, n,
                   ROW_NUMBER() OVER (
                       PARTITION BY user_id ORDER BY n DESC, event_type
                   ) AS rn
            FROM counts
        )
        SELECT user_id, event_type AS top_type, n AS n_events
        FROM ranked WHERE rn = 1 ORDER BY user_id
    """,
    "event_type_cooccurrence": """
        WITH ut AS (SELECT DISTINCT user_id, event_type FROM events)
        SELECT a.event_type AS type_a,
               b.event_type AS type_b,
               CAST(count(*) AS BIGINT) AS n_users
        FROM ut a JOIN ut b
          ON a.user_id = b.user_id AND a.event_type < b.event_type
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
    "events_value_quantile_sketch": """
        WITH sample AS (
            SELECT value
            FROM events
            WHERE value IS NOT NULL
            ORDER BY md5_number_upper(CAST(event_id AS VARCHAR)), event_id
            LIMIT 1024
        ), ordered AS (
            SELECT value,
                   ROW_NUMBER() OVER (ORDER BY value) AS vr,
                   COUNT(*) OVER () AS n
            FROM sample
        )
        SELECT CAST(qq.q AS DOUBLE) AS q,
               o.value AS sample_value,
               CAST(o.n AS BIGINT) AS n_sample
        FROM (VALUES (0.5), (0.9), (0.99)) qq(q)
        JOIN ordered o ON o.vr = GREATEST(1, CAST(CEIL(qq.q * o.n) AS BIGINT))
        ORDER BY qq.q
    """,
    "orders_monthly_revenue_growth": """
        WITH m AS (
            SELECT strftime(o_orderdate, '%Y-%m') AS o_month,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
            FROM orders GROUP BY 1
        )
        SELECT o_month, n_orders,
               CAST(cents AS DOUBLE) / 100.0 AS revenue,
               cents - LAG(cents) OVER (ORDER BY o_month) AS delta_cents
        FROM m ORDER BY o_month
    """,
    "customer_acctbal_quartiles": """
        WITH r AS (
            SELECT CAST(ROUND(c_acctbal * 100) AS BIGINT) AS cents,
                   NTILE(4) OVER (
                       ORDER BY CAST(ROUND(c_acctbal * 100) AS BIGINT), c_custkey
                   ) AS quartile
            FROM customer
        )
        SELECT quartile,
               CAST(count(*) AS BIGINT) AS n_customers,
               CAST(SUM(cents) AS BIGINT) AS sum_cents,
               MIN(cents) AS min_cents,
               MAX(cents) AS max_cents
        FROM r GROUP BY quartile ORDER BY quartile
    """,
    "events_rolling_7d_users": """
        WITH du AS (
            SELECT DISTINCT (epoch_us(ts) // 86400000000) * 86400000000 AS day_us,
                            user_id
            FROM events
        ), days AS (SELECT DISTINCT day_us FROM du)
        SELECT d.day_us,
               CAST(COUNT(DISTINCT u.user_id) AS BIGINT) AS n_users_7d
        FROM days d JOIN du u
          ON u.day_us BETWEEN d.day_us - 6 * 86400000000 AND d.day_us
        GROUP BY d.day_us ORDER BY d.day_us
    """,
    "customer_name_editdist_pairs": """
        WITH n AS (SELECT DISTINCT c_name FROM customer WHERE c_name IS NOT NULL)
        SELECT a.c_name AS name_a, b.c_name AS name_b
        FROM n a JOIN n b
          ON a.c_name < b.c_name
         AND levenshtein(a.c_name, b.c_name) <= 1
        ORDER BY 1, 2
    """,
    "lineitem_qty_discount_corr": """
        WITH s AS (
            SELECT l_returnflag,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sx,
                   CAST(SUM(CAST(ROUND(l_discount * 100) AS BIGINT)) AS BIGINT) AS sy,
                   CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)
                            * CAST(ROUND(l_discount * 100) AS BIGINT)) AS BIGINT) AS sxy,
                   CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)
                            * CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sxx,
                   CAST(SUM(CAST(ROUND(l_discount * 100) AS BIGINT)
                            * CAST(ROUND(l_discount * 100) AS BIGINT)) AS BIGINT) AS syy
            FROM lineitem GROUP BY l_returnflag
        )
        SELECT l_returnflag, n AS n_rows,
               CASE WHEN (n*sxx - sx*sx) = 0 OR (n*syy - sy*sy) = 0 THEN NULL
                    ELSE CAST(n*sxy - sx*sy AS DOUBLE)
                         / (sqrt(CAST(n*sxx - sx*sx AS DOUBLE))
                            * sqrt(CAST(n*syy - sy*sy AS DOUBLE)))
               END AS corr_qty_discount
        FROM s
    """,
    "important_parts": """
        WITH per_part AS (
            SELECT l_partkey,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                            * CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS units
            FROM lineitem GROUP BY l_partkey
        )
        SELECT l_partkey, CAST(units AS DOUBLE) / 100.0 AS value
        FROM per_part
        WHERE units * (SELECT CAST(count(*) AS BIGINT) FROM per_part) * 20
              > 21 * (SELECT CAST(SUM(units) AS BIGINT) FROM per_part)
        ORDER BY l_partkey
    """,
    "top_revenue_suppliers": """
        WITH rev AS (
            SELECT l_suppkey AS s_suppkey,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) AS BIGINT) AS units
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1996-04-01'
            GROUP BY 1
        )
        SELECT s.s_suppkey, s.s_name, CAST(units AS DOUBLE) / 10000.0 AS total_revenue
        FROM rev JOIN supplier s USING (s_suppkey)
        WHERE units = (SELECT max(units) FROM rev)
        ORDER BY s.s_suppkey
    """,
    "part_supplier_variety": """
        SELECT p.p_brand, CAST(count(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
        FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
        WHERE p.p_brand <> 'Brand#13'
        GROUP BY p.p_brand
        ORDER BY p.p_brand
    """,
    "large_volume_customers": """
        WITH big AS (
            SELECT l_orderkey,
                   CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS total_qty
            FROM lineitem GROUP BY l_orderkey
            HAVING SUM(CAST(ROUND(l_quantity) AS BIGINT)) > 250
        )
        SELECT c.c_name, CAST(o.o_custkey AS BIGINT) AS c_custkey, o.o_orderkey,
               strftime(o.o_orderdate, '%Y-%m-%d') AS o_orderdate, b.total_qty
        FROM big b
        JOIN orders o ON b.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        ORDER BY b.total_qty DESC, o.o_orderkey
    """,
    "wealthy_inactive_customers": """
        WITH pos AS (
            SELECT CAST(SUM(CAST(ROUND(c_acctbal * 100) AS BIGINT)) AS BIGINT) AS s,
                   CAST(count(*) AS BIGINT) AS n
            FROM customer WHERE c_acctbal > 0
        ),
        wealthy AS (
            SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
                   CAST(ROUND(c_acctbal * 100) AS BIGINT) AS cents
            FROM customer, pos
            WHERE CAST(ROUND(c_acctbal * 100) AS BIGINT) * pos.n > pos.s
              AND NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = customer.c_custkey
                                AND o.o_totalprice > 300000.0)
        )
        SELECT c_nationkey, CAST(count(*) AS BIGINT) AS numcust,
               CAST(CAST(SUM(cents) AS BIGINT) AS DOUBLE) / 100.0 AS totacctbal
        FROM wealthy GROUP BY c_nationkey ORDER BY c_nationkey
    """,
    "url_canonical_dedup": """
        WITH canon AS (
            SELECT doc_id,
                   'https://crawl.example.org/doc/'
                   || CAST(doc_id // 2 AS VARCHAR)
                   || '?a=1&b=' || CAST((doc_id // 2) % 7 AS VARCHAR) AS canonical_url
            FROM documents
        )
        SELECT canonical_url,
               CAST(count(*) AS BIGINT) AS n_urls,
               CAST(min(doc_id) AS BIGINT) AS min_doc_id
        FROM canon GROUP BY canonical_url ORDER BY canonical_url
    """,
    "bm25_top20": """
        WITH w AS (
            SELECT doc_id, string_split(COALESCE(text, ''), ' ') AS words
            FROM documents
        ),
        stats AS (
            SELECT CAST(count(*) AS BIGINT) AS nd,
                   CAST(SUM(len(words)) AS BIGINT) AS nw,
                   CAST(count(*) FILTER (list_contains(words, 'spark')) AS BIGINT) AS df0,
                   CAST(count(*) FILTER (list_contains(words, 'merge')) AS BIGINT) AS df1,
                   CAST(count(*) FILTER (list_contains(words, 'window')) AS BIGINT) AS df2
            FROM w
        ),
        scored AS (
            SELECT doc_id,
                   round(
                     ((ln(1.0 + (nd - df0 + 0.5) / (df0 + 0.5))
                        * (len(list_filter(words, x -> x = 'spark')) * 2.2))
                       / (len(list_filter(words, x -> x = 'spark'))
                          + 1.2 * (0.25 + (0.75 * len(words)) / (CAST(nw AS DOUBLE) / nd)))
                     + (ln(1.0 + (nd - df1 + 0.5) / (df1 + 0.5))
                        * (len(list_filter(words, x -> x = 'merge')) * 2.2))
                       / (len(list_filter(words, x -> x = 'merge'))
                          + 1.2 * (0.25 + (0.75 * len(words)) / (CAST(nw AS DOUBLE) / nd))))
                     + (ln(1.0 + (nd - df2 + 0.5) / (df2 + 0.5))
                        * (len(list_filter(words, x -> x = 'window')) * 2.2))
                       / (len(list_filter(words, x -> x = 'window'))
                          + 1.2 * (0.25 + (0.75 * len(words)) / (CAST(nw AS DOUBLE) / nd))),
                     6) AS bm25
            FROM w, stats
        )
        SELECT doc_id, bm25 FROM scored
        ORDER BY bm25 DESC, doc_id
        LIMIT 20
    """,
    "dsir_importance_weights": """
        WITH tri AS (
          SELECT doc_id, lang, substr(text, i, 3) AS t
          FROM documents, UNNEST(generate_series(1, length(text) - 2)) AS u(i)
          WHERE length(COALESCE(text, '')) >= 3
        ),
        tgt AS (SELECT t, COUNT(*) AS c FROM tri WHERE lang = 'en' GROUP BY t),
        tgt_tot AS (SELECT CAST(SUM(c) AS BIGINT) AS n_tok, COUNT(*) AS v FROM tgt),
        raw AS (SELECT t, COUNT(*) AS c FROM tri GROUP BY t),
        raw_tot AS (SELECT CAST(SUM(c) AS BIGINT) AS n_tok, COUNT(*) AS v FROM raw),
        scored AS (
          SELECT tri.doc_id,
                 COUNT(*) AS n_tri,
                 SUM(COALESCE(ln((tgt.c + 1) / CAST(tgt_tot.n_tok + tgt_tot.v AS DOUBLE)),
                              ln(1 / CAST(tgt_tot.n_tok + tgt_tot.v AS DOUBLE)))
                     - ln((raw.c + 1) / CAST(raw_tot.n_tok + raw_tot.v AS DOUBLE))) AS s
          FROM tri
          LEFT JOIN tgt USING (t)
          JOIN raw USING (t)
          CROSS JOIN tgt_tot CROSS JOIN raw_tot
          GROUP BY tri.doc_id
        )
        SELECT doc_id, n_tri, ROUND(s / n_tri, 6) AS log_weight FROM scored
    """,
    "doc_char_entropy": """
        WITH chars AS (
          SELECT doc_id, length(text) AS n, substr(text, i, 1) AS ch
          FROM documents, UNNEST(generate_series(1, length(text))) AS u(i)
          WHERE length(COALESCE(text, '')) > 0
        ),
        freq AS (SELECT doc_id, n, ch, COUNT(*) AS c FROM chars GROUP BY doc_id, n, ch)
        SELECT doc_id, CAST(n AS BIGINT) AS n_chars,
               ROUND(SUM(-(c / CAST(n AS DOUBLE)) * ln(c / CAST(n AS DOUBLE))), 6) AS entropy
        FROM freq GROUP BY doc_id, n
    """,
    "weighted_sample_top50": """
        SELECT doc_id, n_chars,
               ROUND(-ln(CAST(md5_number_upper(CAST(doc_id AS VARCHAR)) AS DOUBLE)
                         / 18446744073709551616.0) / n_chars, 6) AS es_key
        FROM documents
        WHERE n_chars > 0
        ORDER BY es_key, doc_id
        LIMIT 50
    """,
    "doc_percent_rank": """
        SELECT doc_id, lang, n_chars,
               PERCENT_RANK() OVER (PARTITION BY lang ORDER BY n_chars) AS pr
        FROM documents
    """,
    "knn_mmr_rerank": """
        WITH q AS (
          SELECT vec_id AS qid, embedding::DOUBLE[] AS qe
          FROM embeddings WHERE vec_id IN (0, 1, 2)
        ),
        pool AS (
          SELECT q.qid, top.vec_id, top.e, top.rel
          FROM q, LATERAL (
            SELECT e.vec_id, e.embedding::DOUBLE[] AS e,
                   list_cosine_similarity(e.embedding::DOUBLE[], q.qe) AS rel
            FROM embeddings e
            ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], q.qe) DESC, e.vec_id
            LIMIT 20
          ) top
        ),
        s1 AS (
          SELECT qid, vec_id, e FROM (
            SELECT qid, vec_id, e,
                   ROW_NUMBER() OVER (PARTITION BY qid ORDER BY round(rel, 6) DESC, vec_id) AS rn
            FROM pool) WHERE rn = 1
        ),
        s2 AS (
          SELECT qid, vec_id, e FROM (
            SELECT p.qid, p.vec_id, p.e,
                   ROW_NUMBER() OVER (PARTITION BY p.qid ORDER BY
                     round(0.5 * p.rel
                           - 0.5 * list_cosine_similarity(p.e, s1.e), 6) DESC, p.vec_id) AS rn
            FROM pool p JOIN s1 USING (qid)
            WHERE p.vec_id <> s1.vec_id) WHERE rn = 1
        ),
        s3 AS (
          SELECT qid, vec_id, e FROM (
            SELECT p.qid, p.vec_id, p.e,
                   ROW_NUMBER() OVER (PARTITION BY p.qid ORDER BY
                     round(0.5 * p.rel
                           - 0.5 * greatest(list_cosine_similarity(p.e, s1.e),
                                            list_cosine_similarity(p.e, s2.e)), 6) DESC,
                     p.vec_id) AS rn
            FROM pool p JOIN s1 USING (qid) JOIN s2 USING (qid)
            WHERE p.vec_id <> s1.vec_id AND p.vec_id <> s2.vec_id) WHERE rn = 1
        ),
        s4 AS (
          SELECT qid, vec_id, e FROM (
            SELECT p.qid, p.vec_id, p.e,
                   ROW_NUMBER() OVER (PARTITION BY p.qid ORDER BY
                     round(0.5 * p.rel
                           - 0.5 * greatest(list_cosine_similarity(p.e, s1.e),
                                            list_cosine_similarity(p.e, s2.e),
                                            list_cosine_similarity(p.e, s3.e)), 6) DESC,
                     p.vec_id) AS rn
            FROM pool p JOIN s1 USING (qid) JOIN s2 USING (qid) JOIN s3 USING (qid)
            WHERE p.vec_id <> s1.vec_id AND p.vec_id <> s2.vec_id
              AND p.vec_id <> s3.vec_id) WHERE rn = 1
        ),
        s5 AS (
          SELECT qid, vec_id FROM (
            SELECT p.qid, p.vec_id,
                   ROW_NUMBER() OVER (PARTITION BY p.qid ORDER BY
                     round(0.5 * p.rel
                           - 0.5 * greatest(list_cosine_similarity(p.e, s1.e),
                                            list_cosine_similarity(p.e, s2.e),
                                            list_cosine_similarity(p.e, s3.e),
                                            list_cosine_similarity(p.e, s4.e)), 6) DESC,
                     p.vec_id) AS rn
            FROM pool p JOIN s1 USING (qid) JOIN s2 USING (qid)
                        JOIN s3 USING (qid) JOIN s4 USING (qid)
            WHERE p.vec_id <> s1.vec_id AND p.vec_id <> s2.vec_id
              AND p.vec_id <> s3.vec_id AND p.vec_id <> s4.vec_id) WHERE rn = 1
        )
        SELECT qid AS query_id, 1 AS rank, vec_id FROM s1
        UNION ALL SELECT qid, 2, vec_id FROM s2
        UNION ALL SELECT qid, 3, vec_id FROM s3
        UNION ALL SELECT qid, 4, vec_id FROM s4
        UNION ALL SELECT qid, 5, vec_id FROM s5
        ORDER BY query_id, rank
    """,
    "nation_customer_supplier_outer": """
        WITH c AS (
            SELECT CAST(c_nationkey AS BIGINT) AS nationkey,
                   CAST(count(*) AS BIGINT) AS n_customers
            FROM customer GROUP BY 1
        ),
        s AS (
            SELECT CAST(s_nationkey AS BIGINT) AS nationkey,
                   CAST(count(*) AS BIGINT) AS n_suppliers
            FROM supplier GROUP BY 1
        )
        SELECT COALESCE(c.nationkey, s.nationkey) AS nationkey,
               COALESCE(c.n_customers, 0) AS n_customers,
               COALESCE(s.n_suppliers, 0) AS n_suppliers
        FROM c FULL OUTER JOIN s ON c.nationkey = s.nationkey
        ORDER BY 1
    """,
    "events_value_winsor_bounds": """
        WITH v AS (SELECT event_type, value FROM events WHERE value IS NOT NULL),
        b AS (
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_events,
                   quantile_disc(value, 0.05) AS p05,
                   quantile_disc(value, 0.95) AS p95
            FROM v GROUP BY event_type
        )
        SELECT b.event_type, b.n_events, b.p05, b.p95,
               CAST(count(*) FILTER (v.value < b.p05) AS BIGINT) AS n_below,
               CAST(count(*) FILTER (v.value > b.p95) AS BIGINT) AS n_above
        FROM v JOIN b USING (event_type)
        GROUP BY b.event_type, b.n_events, b.p05, b.p95
    """,
    "events_type_transitions": """
        WITH seq AS (
            SELECT user_id, event_type,
                   LAG(event_type) OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id) AS prev_type
            FROM events
        )
        SELECT prev_type AS from_type, event_type AS to_type,
               CAST(count(*) AS BIGINT) AS n_transitions
        FROM seq WHERE prev_type IS NOT NULL
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
    "part_skyline": """
        SELECT p_partkey, p_retailprice, CAST(p_size AS BIGINT) AS p_size
        FROM part p1
        WHERE NOT EXISTS (
            SELECT 1 FROM part p2
            WHERE p2.p_retailprice >= p1.p_retailprice
              AND p2.p_size >= p1.p_size
              AND (p2.p_retailprice > p1.p_retailprice OR p2.p_size > p1.p_size)
        )
        ORDER BY p_partkey
    """,
    "gopher_quality_flags": r"""
        WITH d AS (
            SELECT regexp_extract_all(text, '\S+') AS words,
                   string_split(text, chr(10)) AS lines, text
            FROM documents
        ), f AS (
            SELECT len(words) AS wc,
                   COALESCE(list_sum(list_transform(words, w -> length(w))), 0) AS wlen,
                   len(list_filter(words, w -> regexp_matches(w, '\p{L}'))) AS alpha_wc,
                   len(lines) AS nl,
                   len(list_filter(lines, l -> regexp_matches(l, '^[ \t\v\f\r]*[-*•]'))) AS bullets,
                   len(list_filter(lines, l -> regexp_matches(l, '(\.\.\.|…)[ \t\v\f\r]*$'))) AS ells,
                   (length(text) - length(replace(text, '#', '')))
                     + (length(text) - length(replace(text, '…', ''))) AS syms,
                   len(list_filter(words, w -> lower(w) IN
                       ('the','be','to','of','and','that','have','with'))) AS stops
            FROM d
        ), flags AS (
            SELECT (wc < 50 OR wc > 100000) AS f_word_count,
                   (wc > 0 AND (wlen < 3*wc OR wlen > 10*wc)) AS f_mean_word_len,
                   (wc > 0 AND 5*alpha_wc < 4*wc) AS f_alpha_words,
                   (10*bullets > 9*nl) AS f_bullet_lines,
                   (10*ells > 3*nl) AS f_ellipsis_lines,
                   (wc > 0 AND 10*syms > wc) AS f_symbol_ratio,
                   (wc > 0 AND stops < 2) AS f_stopwords
            FROM f
        )
        SELECT reason, CAST(n_docs AS BIGINT) AS n_docs FROM (
            SELECT 'word_count' AS reason, count(*) FILTER (f_word_count) AS n_docs FROM flags
            UNION ALL SELECT 'mean_word_len', count(*) FILTER (f_mean_word_len) FROM flags
            UNION ALL SELECT 'alpha_words', count(*) FILTER (f_alpha_words) FROM flags
            UNION ALL SELECT 'bullet_lines', count(*) FILTER (f_bullet_lines) FROM flags
            UNION ALL SELECT 'ellipsis_lines', count(*) FILTER (f_ellipsis_lines) FROM flags
            UNION ALL SELECT 'symbol_ratio', count(*) FILTER (f_symbol_ratio) FROM flags
            UNION ALL SELECT 'stopwords', count(*) FILTER (f_stopwords) FROM flags
            UNION ALL SELECT 'kept', count(*) FILTER (NOT (f_word_count OR f_mean_word_len
                OR f_alpha_words OR f_bullet_lines OR f_ellipsis_lines OR f_symbol_ratio
                OR f_stopwords)) FROM flags
        ) ORDER BY reason
    """,
    "small_quantity_revenue": """
        WITH agg AS (
            SELECT l_partkey,
                   CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sq,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE p_brand = 'Brand#23'
            GROUP BY 1
        )
        SELECT CAST(count(*) AS BIGINT) AS n_lines,
               COALESCE(CAST(CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)) AS BIGINT)
                             AS DOUBLE) / 700.0, 0.0) AS avg_yearly
        FROM lineitem l JOIN agg a ON l.l_partkey = a.l_partkey
        WHERE CAST(ROUND(l.l_quantity) AS BIGINT) * 5 * a.cnt < a.sq
    """,
    "customer_order_counts": """
        WITH per_cust AS (
            SELECT c.c_custkey, count(o.o_orderkey) AS c_count
            FROM customer c LEFT JOIN orders o
              ON c.c_custkey = o.o_custkey AND o.o_orderpriority <> '4-NOT SPECIFIED'
            GROUP BY 1
        )
        SELECT CAST(c_count AS BIGINT) AS c_count, CAST(count(*) AS BIGINT) AS custdist
        FROM per_cust GROUP BY 1 ORDER BY custdist DESC, c_count DESC
    """,
    "promo_revenue_ratio": """
        WITH w AS (
            SELECT CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)) AS units,
                   (p.p_type = 'PROMO') AS is_promo
            FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
            WHERE l.l_shipdate >= TIMESTAMP '1996-03-01'
              AND l.l_shipdate < TIMESTAMP '1996-04-01'
        )
        SELECT CAST(COALESCE(CAST(SUM(units) FILTER (is_promo) AS BIGINT), 0) AS DOUBLE)
                 / 10000.0 AS promo_revenue,
               CAST(COALESCE(CAST(SUM(units) AS BIGINT), 0) AS DOUBLE)
                 / 10000.0 AS total_revenue,
               CASE WHEN COALESCE(CAST(SUM(units) AS BIGINT), 0) = 0 THEN 0.0
                    ELSE (100.0 * COALESCE(CAST(SUM(units) FILTER (is_promo) AS BIGINT), 0))
                         / CAST(SUM(units) AS BIGINT)
               END AS promo_pct
        FROM w
    """,
    "returned_top_customers": """
        WITH rev AS (
            SELECT o.o_custkey AS ck,
                   CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))) AS BIGINT) AS units
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            WHERE l.l_returnflag = 'R'
              AND o.o_orderdate >= TIMESTAMP '1995-10-01'
              AND o.o_orderdate < TIMESTAMP '1996-01-01'
            GROUP BY 1
        )
        SELECT r.ck AS c_custkey, c.c_name, n.n_name,
               CAST(r.units AS DOUBLE) / 10000.0 AS revenue
        FROM rev r
        JOIN customer c ON r.ck = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        ORDER BY r.units DESC, r.ck LIMIT 20
    """,
    "word_zipf_slope": r"""
        WITH w AS (
            SELECT lang, unnest(regexp_extract_all(text, '\S+')) AS word FROM documents
        ), cnt AS (
            SELECT lang, word, count(*) AS n FROM w GROUP BY 1, 2
        ), ranked AS (
            SELECT lang, n,
                   row_number() OVER (PARTITION BY lang ORDER BY n DESC, word ASC) AS rnk
            FROM cnt
        ), top AS (
            SELECT lang, ln(CAST(rnk AS DOUBLE)) AS x, ln(CAST(n AS DOUBLE)) AS y
            FROM ranked WHERE rnk <= 100
        )
        SELECT lang, CAST(count(*) AS BIGINT) AS n_words,
               ROUND((count(*) * sum(x*y) - sum(x) * sum(y))
                     / (count(*) * sum(x*x) - sum(x) * sum(x)), 6) AS zipf_slope
        FROM top GROUP BY lang HAVING count(*) > 1 ORDER BY lang
    """,
    "events_debounced": """
        WITH lagged AS (
            SELECT event_type,
                   epoch_us(ts) - LAG(epoch_us(ts)) OVER (
                       PARTITION BY user_id, event_type ORDER BY ts, event_id) AS gap
            FROM events
        )
        SELECT event_type,
               CAST(count(*) FILTER (gap IS NULL OR gap > 60000000) AS BIGINT) AS n_kept
        FROM lagged GROUP BY 1 ORDER BY 1
    """,
    "semdedup_pairs": """
        WITH cent AS (SELECT vec_id AS cid, embedding AS ce FROM embeddings WHERE vec_id < 8),
        assign AS (
            SELECT e.vec_id, e.embedding, a.cid AS cluster
            FROM embeddings e, LATERAL (
                SELECT c.cid FROM cent c
                ORDER BY list_cosine_similarity(e.embedding, c.ce) DESC, c.cid ASC
                LIMIT 1
            ) a
        )
        SELECT CAST(a.cluster AS BIGINT) AS cluster, a.vec_id AS left, b.vec_id AS right
        FROM assign a JOIN assign b ON a.cluster = b.cluster AND a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding, b.embedding) > 0.4
        ORDER BY cluster, a.vec_id, b.vec_id
    """,
    "knn_label_filtered": """
        WITH q AS (SELECT vec_id AS qid, embedding AS qe, label
                   FROM embeddings WHERE vec_id IN (0,1,2))
        SELECT q.qid AS query_id, top.vec_id
        FROM q, LATERAL (
            SELECT e.vec_id
            FROM embeddings e
            WHERE e.label = q.label
            ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id ASC
            LIMIT 5
        ) top
    """,
    "copurchase_top_pairs": """
        WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
        SELECT a.l_partkey AS p1, b.l_partkey AS p2, CAST(count(*) AS BIGINT) AS n_orders
        FROM op a JOIN op b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
        GROUP BY 1, 2 ORDER BY n_orders DESC, p1, p2 LIMIT 20
    """,
    "waiting_suppliers": """
        WITH os AS (
            SELECT l.l_orderkey, l.l_suppkey, max(l.l_shipdate) AS s_max
            FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
            WHERE o.o_orderstatus = 'F'
            GROUP BY 1, 2
        ), agg AS (
            SELECT l_orderkey, max(s_max) AS o_max, count(*) AS n_supp
            FROM os GROUP BY 1
        ), lat AS (
            SELECT os.l_orderkey, os.l_suppkey
            FROM os JOIN agg USING (l_orderkey)
            WHERE os.s_max = agg.o_max AND agg.n_supp >= 2
        ), uniq AS (
            SELECT l_orderkey FROM lat GROUP BY 1 HAVING count(*) = 1
        )
        SELECT s.s_name, CAST(count(*) AS BIGINT) AS numwait
        FROM lat JOIN uniq USING (l_orderkey)
        JOIN supplier s ON s.s_suppkey = lat.l_suppkey
        GROUP BY 1 ORDER BY numwait DESC, s_name LIMIT 20
    """,
    "disjunctive_revenue": """
        SELECT CAST(COALESCE(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))), 0) AS DOUBLE)
               / 10000.0 AS revenue
        FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
        WHERE (p.p_brand = 'Brand#12' AND p.p_size BETWEEN 1 AND 5
               AND l.l_quantity BETWEEN 1 AND 11)
           OR (p.p_brand = 'Brand#23' AND p.p_size BETWEEN 1 AND 10
               AND l.l_quantity BETWEEN 10 AND 20)
           OR (p.p_brand = 'Brand#24' AND p.p_size BETWEEN 1 AND 15
               AND l.l_quantity BETWEEN 20 AND 30)
    """,
    "returnflag_priority_counts": """
        SELECT l.l_returnflag,
               CAST(count(*) FILTER (o.o_orderpriority IN ('1-URGENT', '2-HIGH')) AS BIGINT)
                   AS high_line_count,
               CAST(count(*) FILTER (o.o_orderpriority NOT IN ('1-URGENT', '2-HIGH')) AS BIGINT)
                   AS low_line_count
        FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
        WHERE l.l_shipdate >= TIMESTAMP '1996-01-01'
          AND l.l_shipdate < TIMESTAMP '1997-01-01'
        GROUP BY 1 ORDER BY 1
    """,
    "market_share": """
        WITH asia_cust AS (
            SELECT c.c_custkey FROM customer c
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            WHERE r.r_name = 'ASIA'
        ), rows_ AS (
            SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                   CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)) AS units,
                   n.n_name AS supp_nation
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN asia_cust a ON a.c_custkey = o.o_custkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate < TIMESTAMP '1998-01-01'
        )
        SELECT o_year,
               CAST(COALESCE(SUM(units) FILTER (supp_nation = 'NATION_7'), 0) AS DOUBLE)
               / CAST(SUM(units) AS DOUBLE) AS mkt_share
        FROM rows_ GROUP BY 1 ORDER BY 1
    """,
    "product_profit": """
        SELECT n.n_name AS nation,
               CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
               CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
                        - CAST(l.l_quantity AS BIGINT)
                          * CAST(ROUND(p.p_retailprice * 100) AS BIGINT) * 55)
                    AS DOUBLE) / 10000.0 AS profit
        FROM lineitem l
        JOIN part p ON p.p_partkey = l.l_partkey
        JOIN supplier s ON s.s_suppkey = l.l_suppkey
        JOIN nation n ON n.n_nationkey = s.s_nationkey
        JOIN orders o ON o.o_orderkey = l.l_orderkey
        WHERE p.p_name LIKE '%red%'
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
    "events_band_join": """
        SELECT a.event_id AS click_id, CAST(count(*) AS BIGINT) AS n_views
        FROM events a JOIN events b
          ON a.user_id = b.user_id
         AND abs(epoch_us(a.ts) - epoch_us(b.ts)) <= 1800000000
        WHERE a.event_type = 'click' AND b.event_type = 'view'
        GROUP BY a.event_id
    """,
    "orders_cube": """
        SELECT COALESCE(CAST(year(o_orderdate) AS VARCHAR), 'ALL') AS o_year,
               COALESCE(o_orderpriority, 'ALL') AS priority,
               CAST(count(*) AS BIGINT) AS n_orders,
               max(o_totalprice) AS max_price,
               min(o_totalprice) AS min_price
        FROM orders
        GROUP BY CUBE (year(o_orderdate), o_orderpriority)
    """,
    "events_gapfill": """
        WITH bounds AS (
          SELECT (min(epoch_us(ts)) // 3600000000) * 3600000000 AS lo,
                 (max(epoch_us(ts)) // 3600000000) * 3600000000 AS hi
          FROM events
        ),
        spine AS (
          SELECT unnest(generate_series(lo, hi, 3600000000)) AS hour_us FROM bounds
        ),
        types AS (SELECT DISTINCT event_type FROM events),
        counts AS (
          SELECT event_type,
                 (epoch_us(ts) // 3600000000) * 3600000000 AS hour_us,
                 count(*) AS n
          FROM events GROUP BY 1, 2
        )
        SELECT t.event_type,
               s.hour_us,
               CAST(COALESCE(c.n, 0) AS BIGINT) AS n_events
        FROM spine s
        CROSS JOIN types t
        LEFT JOIN counts c ON c.event_type = t.event_type AND c.hour_us = s.hour_us
    """,
    "copurchase_triangles": """
        WITH pairs AS (
          SELECT a.l_partkey AS p1, b.l_partkey AS p2
          FROM (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem) a
          JOIN (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem) b
            ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
          GROUP BY 1, 2
        )
        SELECT CAST(count(*) AS BIGINT) AS n_triangles
        FROM pairs e1
        JOIN pairs e2 ON e2.p1 = e1.p2
        JOIN pairs e3 ON e3.p1 = e1.p1 AND e3.p2 = e2.p2
    """,
    "orders_top_ties": """
        SELECT o_orderpriority, o_orderkey, o_totalprice,
               CAST(rank() OVER (PARTITION BY o_orderpriority
                                 ORDER BY o_totalprice DESC) AS BIGINT) AS rnk
        FROM orders
        QUALIFY rnk <= 5
    """,
    "events_above_user_median": """
        WITH med AS (
          SELECT user_id, median(value) AS m FROM events GROUP BY user_id
        )
        SELECT e.user_id, CAST(count(*) FILTER (e.value > med.m) AS BIGINT) AS n_above
        FROM events e JOIN med ON med.user_id = e.user_id
        GROUP BY e.user_id
    """,
    "lineitem_ols": """
        WITH s AS (
          SELECT l_returnflag,
                 CAST(count(*) AS HUGEINT) AS n,
                 CAST(sum(CAST(l_quantity AS BIGINT)) AS HUGEINT) AS sx,
                 CAST(sum(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS HUGEINT) AS sy,
                 CAST(sum(CAST(l_quantity AS BIGINT) * CAST(l_quantity AS BIGINT)) AS HUGEINT) AS sxx,
                 CAST(sum(CAST(l_quantity AS BIGINT)
                          * CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS HUGEINT) AS sxy
          FROM lineitem GROUP BY 1
        )
        SELECT l_returnflag,
               CAST(n AS BIGINT) AS n,
               CAST(n * sxy - sx * sy AS DOUBLE) / CAST(n * sxx - sx * sx AS DOUBLE)
                 AS slope_cents,
               (CAST(sy AS DOUBLE)
                - (CAST(n * sxy - sx * sy AS DOUBLE) / CAST(n * sxx - sx * sx AS DOUBLE))
                  * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE) AS intercept_cents
        FROM s
    """,
    "events_rolling_max3": """
        SELECT event_id,
               max(value) OVER (PARTITION BY user_id
                                ORDER BY epoch_us(ts), event_id
                                ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS rmax3
        FROM events
    """,
    "lineitem_unpivot": """
        WITH w AS (
          SELECT l_returnflag,
                 CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
                 CAST(count(*) AS BIGINT) AS n_rows
          FROM lineitem GROUP BY 1
        )
        SELECT l_returnflag, 'sum_qty' AS measure, sum_qty AS value FROM w
        UNION ALL
        SELECT l_returnflag, 'n_rows' AS measure, n_rows AS value FROM w
    """,
    "events_lead_type": """
        SELECT event_id,
               COALESCE(lead(event_type) OVER (PARTITION BY user_id
                                               ORDER BY epoch_us(ts), event_id),
                        'NONE') AS next_type
        FROM events
    """,
    "bpe_pair_counts": r"""
        WITH words AS (
          SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS w FROM documents
        ),
        pairs AS (
          SELECT substr(w, CAST(i AS INTEGER), 2) AS pair
          FROM words, LATERAL (SELECT unnest(range(1, len(w))) AS i)
        )
        SELECT pair, CAST(count(*) AS BIGINT) AS n
        FROM pairs GROUP BY pair
        ORDER BY n DESC, pair ASC LIMIT 20
    """,
    "copurchase_bfs_hops": """
        WITH RECURSIVE pairs AS (
          SELECT a.l_partkey AS p1, b.l_partkey AS p2
          FROM (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem) a
          JOIN (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem) b
            ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
          GROUP BY 1, 2
        ),
        und AS (
          SELECT p1 AS u, p2 AS v FROM pairs
          UNION ALL SELECT p2, p1 FROM pairs
        ),
        bfs(node, hop) AS (
          SELECT CAST(min(l_partkey) AS BIGINT), 0 FROM lineitem
          UNION
          SELECT und.v, bfs.hop + 1
          FROM bfs JOIN und ON und.u = bfs.node
          WHERE bfs.hop < 3
        )
        SELECT node, CAST(min(hop) AS BIGINT) AS hop FROM bfs GROUP BY node
    """,
    # leftmost non-overlapping substring counts == Python str.count == the
    # replace-length fold; both engines count code points (CJK-safe)
    "blocklist_term_stats": """
        WITH terms(term) AS (VALUES """
    + ", ".join(f"('{t}')" for t in _BLOCKLIST_TERMS)
    + """),
        lt AS (SELECT lower(text) AS t FROM documents)
        SELECT term,
               CAST(count(*) FILTER (WHERE contains(t, term)) AS BIGINT) AS n_docs,
               CAST(SUM((length(t) - length(replace(t, term, ''))) // length(term))
                    AS BIGINT) AS n_occurrences
        FROM terms CROSS JOIN lt
        GROUP BY term
    """,
    "doc_readability": """
        WITH w AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(text), '\\S+')) AS word
          FROM documents
        ),
        ws AS (
          SELECT doc_id, CAST(count(*) AS BIGINT) AS n_words,
                 CAST(SUM(GREATEST(1, len(regexp_extract_all(word, '[aeiouy]+'))))
                      AS BIGINT) AS n_syllables
          FROM w GROUP BY doc_id
        ),
        s AS (
          SELECT doc_id,
                 GREATEST(1, len(regexp_extract_all(text, '[.!?]+'))) AS n_sentences
          FROM documents
        )
        SELECT ws.doc_id, ws.n_words, CAST(s.n_sentences AS BIGINT) AS n_sentences,
               ws.n_syllables,
               ROUND(206.835
                     - 1.015 * (ws.n_words / CAST(s.n_sentences AS DOUBLE))
                     - 84.6 * (ws.n_syllables / CAST(ws.n_words AS DOUBLE)),
                     6) AS flesch
        FROM ws JOIN s USING (doc_id)
        WHERE ws.n_words > 0
    """,
    # centroid = per-label per-dim float64 component SUM (unnormalized —
    # cosine is scale-invariant); rank on the 6dp-rounded cosine with a
    # vec_id tie-break, the same order the engine prunes by
    "label_centroid_outliers": """
        WITH el AS (
          SELECT label,
                 unnest(embedding)::DOUBLE AS v,
                 unnest(range(len(embedding))) AS d
          FROM embeddings
        ),
        cent AS (
          SELECT label, array_agg(sv ORDER BY d) AS ce
          FROM (SELECT label, d, SUM(v) AS sv FROM el GROUP BY label, d)
          GROUP BY label
        ),
        scored AS (
          -- zero-norm guard mirrors the engine: zero vector/centroid → 0.0
          SELECT e.label, e.vec_id,
                 CASE WHEN list_inner_product(e.embedding::DOUBLE[],
                                              e.embedding::DOUBLE[]) = 0
                        OR list_inner_product(c.ce, c.ce) = 0
                      THEN 0.0
                      ELSE ROUND(list_cosine_similarity(e.embedding::DOUBLE[], c.ce), 6)
                 END AS cos_centroid
          FROM embeddings e JOIN cent c USING (label)
        )
        SELECT CAST(label AS BIGINT) AS label, vec_id, cos_centroid
        FROM (
          SELECT *, ROW_NUMBER() OVER (
                      PARTITION BY label
                      ORDER BY cos_centroid ASC, vec_id ASC) AS rn
          FROM scored
        )
        WHERE rn <= 5
    """,
    # lift divides two exact int64 products in ONE double op → bit-identical
    "part_affinity_lift": """
        WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
        tot AS (SELECT CAST(COUNT(DISTINCT l_orderkey) AS BIGINT) AS n_total FROM op),
        pc AS (SELECT l_partkey, CAST(count(*) AS BIGINT) AS n_p FROM op GROUP BY 1),
        pairs AS (
          SELECT a.l_partkey AS p1, b.l_partkey AS p2,
                 CAST(count(*) AS BIGINT) AS n_orders
          FROM op a JOIN op b
            ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
          GROUP BY 1, 2
        ),
        top AS (SELECT * FROM pairs ORDER BY n_orders DESC, p1, p2 LIMIT 20)
        SELECT t.p1, t.p2, t.n_orders,
               ROUND(CAST(t.n_orders * tot.n_total AS DOUBLE)
                     / (pa.n_p * pb.n_p), 6) AS lift
        FROM top t
        CROSS JOIN tot
        JOIN pc pa ON pa.l_partkey = t.p1
        JOIN pc pb ON pb.l_partkey = t.p2
    """,
    # DuckDB recomputes the 16 salted-md5 minhash SIGNATURES themselves:
    # md5_number_upper == int.from_bytes(md5[:8], 'little'); est = eq/16
    # (dyadic) and exact = int/int are bit-identical doubles on both engines
    "minhash_estimate_error": """
        WITH corpus AS (
          SELECT doc_id, COALESCE(text, '') AS ta,
                 COALESCE(text, '') || ' appended' AS tb
          FROM documents
        ),
        grams AS (
          SELECT doc_id,
            CASE WHEN len(wa) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN len(wa) < 3 THEN [array_to_string(wa, ' ')]
                 ELSE list_distinct([array_to_string(wa[i:i+2], ' ')
                                     for i in range(1, len(wa) - 1)])
            END AS ga,
            CASE WHEN len(wb) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN len(wb) < 3 THEN [array_to_string(wb, ' ')]
                 ELSE list_distinct([array_to_string(wb[i:i+2], ' ')
                                     for i in range(1, len(wb) - 1)])
            END AS gb
          FROM (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(lower(ta), '\\s+'), x -> x <> '') AS wa,
                   list_filter(regexp_split_to_array(lower(tb), '\\s+'), x -> x <> '') AS wb
            FROM corpus
          )
        ),
        salts AS (SELECT unnest(range(16)) AS i),
        mins AS (
          SELECT g.doc_id, s.i,
                 MIN(md5_number_upper(CAST(s.i AS VARCHAR) || '|' || u.e)) AS ma
          FROM grams g CROSS JOIN salts s, unnest(g.ga) AS u(e)
          GROUP BY g.doc_id, s.i
        ),
        minsb AS (
          SELECT g.doc_id, s.i,
                 MIN(md5_number_upper(CAST(s.i AS VARCHAR) || '|' || u.e)) AS mb
          FROM grams g CROSS JOIN salts s, unnest(g.gb) AS u(e)
          GROUP BY g.doc_id, s.i
        ),
        eqc AS (
          SELECT a.doc_id,
                 CAST(SUM(CASE WHEN a.ma = b.mb THEN 1 ELSE 0 END) AS BIGINT) AS eq
          FROM mins a JOIN minsb b USING (doc_id, i)
          GROUP BY a.doc_id
        ),
        scored AS (
          SELECT g.doc_id,
                 CASE WHEN len(g.ga) = 0 AND len(g.gb) = 0 THEN 1.0
                      WHEN len(list_distinct(g.ga || g.gb)) = 0 THEN 1.0
                      ELSE CAST(len(list_intersect(g.ga, g.gb)) AS DOUBLE)
                           / len(list_distinct(g.ga || g.gb))
                 END AS exact,
                 CASE WHEN len(g.ga) = 0 AND len(g.gb) = 0 THEN 1.0
                      WHEN len(g.ga) = 0 OR len(g.gb) = 0 THEN 0.0
                      ELSE CAST(e.eq AS DOUBLE) / 16
                 END AS est
          FROM grams g LEFT JOIN eqc e USING (doc_id)
        )
        SELECT doc_id AS "left", doc_id + 1000000 AS "right",
               exact AS ngram_jaccard, est AS est_jaccard,
               ABS(est - exact) AS abs_err
        FROM scored
    """,
    # containment C = |G(half) ∩ G(full)| / |G(half)|; empty half set → 1.0
    "doc_containment": """
        WITH pairs AS (
          SELECT doc_id,
                 COALESCE(text, '') AS full_t,
                 substr(COALESCE(text, ''), 1, length(COALESCE(text, '')) // 2) AS half_t
          FROM documents
        ),
        grams AS (
          SELECT doc_id,
            CASE WHEN len(wf) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN len(wf) < 3 THEN [array_to_string(wf, ' ')]
                 ELSE list_distinct([array_to_string(wf[i:i+2], ' ')
                                     for i in range(1, len(wf) - 1)])
            END AS gf,
            CASE WHEN len(wh) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN len(wh) < 3 THEN [array_to_string(wh, ' ')]
                 ELSE list_distinct([array_to_string(wh[i:i+2], ' ')
                                     for i in range(1, len(wh) - 1)])
            END AS gh
          FROM (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(lower(full_t), '\\s+'), x -> x <> '') AS wf,
                   list_filter(regexp_split_to_array(lower(half_t), '\\s+'), x -> x <> '') AS wh
            FROM pairs
          )
        )
        SELECT doc_id + 1000000 AS "left", doc_id AS "right",
               CASE WHEN len(gh) = 0 THEN 1.0
                    ELSE CAST(len(list_intersect(gh, gf)) AS DOUBLE) / len(gh)
               END AS containment
        FROM grams
    """,
    "events_path_trigrams": """
        WITH seq AS (
          SELECT event_type AS t1,
                 LEAD(event_type, 1) OVER w AS t2,
                 LEAD(event_type, 2) OVER w AS t3
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        )
        SELECT t1 || '>' || t2 || '>' || t3 AS path,
               CAST(count(*) AS BIGINT) AS n_paths
        FROM seq WHERE t3 IS NOT NULL
        GROUP BY 1 ORDER BY n_paths DESC, path ASC LIMIT 20
    """,
    "referential_orphans": " UNION ALL ".join(
        f"""
        SELECT '{label}' AS edge,
               CAST(count(*) AS BIGINT) AS n_child_rows,
               CAST(count(*) FILTER (WHERE p.{pkey} IS NULL) AS BIGINT) AS n_orphans
        FROM {child} c LEFT JOIN {parent} p ON c.{ckey} = p.{pkey}
        """
        for label, child, ckey, parent, pkey in _FK_EDGES
    ),
    # cents = round(value·100) (2dp values never sit on a .5 boundary);
    # z evaluates the identical exact-int op chain: one division by 9.0,
    # one sqrt, one division — then the shared 6dp round
    "events_rolling_zscore": """
        WITH c AS (
          SELECT event_id, user_id, ts,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events
        ),
        w AS (
          SELECT event_id,
                 cents,
                 SUM(cents) OVER win AS s,
                 SUM(cents * cents) OVER win AS ss,
                 COUNT(*) OVER win AS wn
          FROM c
          WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)
        ),
        z AS (
          SELECT event_id,
                 CASE WHEN 10 * ss = s * s THEN NULL
                      ELSE ROUND((10 * cents - s) / sqrt((10 * ss - s * s) / 9.0), 6)
                 END AS z
          FROM w WHERE wn = 10
        )
        SELECT event_id, z,
               COALESCE(ABS(z) > 3, FALSE) AS is_anomaly
        FROM z
    """,
    "kmeans_spherical": _KMEANS_SQL,
    "knn_ivf_nprobe": _IVF_NPROBE_SQL,
    "embedding_near_dups_lsh": """
        WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
        pl AS (
          SELECT t.t, p.p, array_agg(
                   sqrt(-2 * ln((CAST(md5_number_upper(
                        'hp:29:' || t.t || ':' || p.p || ':' || d.d || ':1'
                      ) AS DOUBLE) + 1) / 18446744073709551616.0))
                   * cos(2 * pi() * ((CAST(md5_number_upper(
                        'hp:29:' || t.t || ':' || p.p || ':' || d.d || ':2'
                      ) AS DOUBLE) + 1) / 18446744073709551616.0))
                   ORDER BY d.d) AS w
          FROM range(12) AS t(t), range(4) AS p(p),
               (SELECT unnest(range(len(v))) AS d
                FROM (SELECT v FROM e ORDER BY vec_id LIMIT 1)) AS d
          GROUP BY t.t, p.p
        ),
        dots AS (
          SELECT e.vec_id, pl.t, pl.p,
                 CASE WHEN list_inner_product(e.v, e.v) = 0 THEN 0.0
                      ELSE ROUND(list_inner_product(e.v, pl.w)
                                 / sqrt(list_inner_product(e.v, e.v)), 12)
                 END AS s
          FROM e, pl
        ),
        bkt AS (
          SELECT vec_id, t,
                 CAST(SUM(CASE WHEN s >= 0
                               THEN (CAST(1 AS BIGINT) << CAST(p AS INT))
                               ELSE 0 END) AS BIGINT) AS b
          FROM dots GROUP BY vec_id, t
        ),
        cand AS (
          SELECT DISTINCT a.vec_id AS l, b2.vec_id AS r
          FROM bkt a JOIN bkt b2
            ON a.t = b2.t AND a.b = b2.b AND a.vec_id < b2.vec_id
        )
        SELECT c.l AS "left", c.r AS "right"
        FROM cand c
        JOIN e ea ON ea.vec_id = c.l
        JOIN e eb ON eb.vec_id = c.r
        WHERE CASE WHEN list_inner_product(ea.v, ea.v) = 0
                     OR list_inner_product(eb.v, eb.v) = 0
                   THEN 0.0
                   ELSE list_cosine_similarity(ea.v, eb.v) END > 0.4
    """,
    # per-subspace argmin on 6dp-rounded list_distance, code tie-break asc;
    # v[a:b] slices are 1-based inclusive in DuckDB
    "pq_codes": """
        WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
        cb AS (
          SELECT vec_id AS code, embedding::DOUBLE[] AS cv
          FROM embeddings WHERE vec_id < 4
        ),
        subs AS (SELECT unnest(range(8)) AS s),
        choice AS (
          SELECT e.vec_id, s.s, x.code
          FROM e CROSS JOIN subs s, LATERAL (
            SELECT cb.code FROM cb
            ORDER BY ROUND(list_distance(e.v[(s.s * 8 + 1):(s.s * 8 + 8)],
                                         cb.cv[(s.s * 8 + 1):(s.s * 8 + 8)]), 6) ASC,
                     cb.code ASC
            LIMIT 1
          ) x
        )
        SELECT vec_id,
               string_agg(CAST(code AS VARCHAR), '' ORDER BY s) AS pq_code
        FROM choice GROUP BY vec_id
    """,
    # engine keys grams by 64-bit md5, the oracle by exact strings (the
    # duplicate_ngram_spans hash contract); novelty = one int/int double
    "doc_ngram_novelty": """
        WITH toks AS (
          SELECT doc_id,
                 string_split(trim(regexp_replace(COALESCE(text, ''), '\\s+', ' ', 'g'), ' '), ' ') AS ws
          FROM documents
        ),
        grams AS (
          -- 1-based INCLUSIVE slice: full 13-grams start at 1..len-12
          SELECT DISTINCT doc_id, array_to_string(ws[i:i+12], ' ') AS ng
          FROM toks, LATERAL (
            SELECT unnest(range(1, greatest(len(ws) - 12, 0) + 1)) AS i
          ) r
        ),
        df AS (SELECT ng, count(*) AS d FROM grams GROUP BY ng),
        agg AS (
          SELECT g.doc_id,
                 CAST(count(*) AS BIGINT) AS n_grams,
                 CAST(count(*) FILTER (WHERE df.d = 1) AS BIGINT) AS n_unique
          FROM grams g JOIN df USING (ng)
          GROUP BY g.doc_id
        )
        SELECT doc_id, n_grams, n_unique,
               CAST(n_unique AS DOUBLE) / n_grams AS novelty
        FROM agg
    """,
    # num/den are exact ints on both engines; one double division each
    "supplier_balance_gini": """
        WITH pos AS (
          SELECT s_suppkey, CAST(round(s_acctbal * 100) AS BIGINT) AS c
          FROM supplier WHERE s_acctbal > 0
        ),
        ranked AS (
          SELECT c,
                 ROW_NUMBER() OVER (ORDER BY c, s_suppkey) AS i,
                 COUNT(*) OVER () AS n,
                 SUM(c) OVER () AS sx
          FROM pos
        )
        SELECT CAST(MAX(n) AS BIGINT) AS n_suppliers,
               CAST(SUM((2 * i - n - 1) * c) AS DOUBLE)
                   / CAST(MAX(n) * MAX(sx) AS DOUBLE) AS gini
        FROM ranked
    """,
    "events_user_entropy": """
        WITH freq AS (
          SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS c
          FROM events GROUP BY 1, 2
        ),
        tot AS (SELECT user_id, SUM(c) AS n FROM freq GROUP BY 1)
        SELECT f.user_id, CAST(t.n AS BIGINT) AS n_events,
               ROUND(SUM(-(f.c / CAST(t.n AS DOUBLE))
                         * ln(f.c / CAST(t.n AS DOUBLE))), 6) AS entropy
        FROM freq f JOIN tot t USING (user_id)
        GROUP BY f.user_id, t.n
    """,
    # merges = leftmost non-overlapping replace-length fold; the argmax
    # pair ties break (n DESC, pair ASC) like bpe_pair_counts
    "bpe_apply_merge": r"""
        WITH words AS (
          SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS w FROM documents
        ),
        pairs AS (
          SELECT substr(w, CAST(i AS INTEGER), 2) AS pair
          FROM words, LATERAL (SELECT unnest(range(1, len(w))) AS i)
        ),
        best AS (
          SELECT pair FROM pairs GROUP BY pair
          ORDER BY count(*) DESC, pair ASC LIMIT 1
        )
        SELECT best.pair AS merge_pair,
               CAST(count(*) AS BIGINT) AS n_words,
               CAST(SUM(len(w)) AS BIGINT) AS symbols_before,
               CAST(SUM(len(w)
                        - (len(w) - len(replace(w, best.pair, ''))) // 2)
                    AS BIGINT) AS symbols_after
        FROM words CROSS JOIN best
        GROUP BY best.pair
    """,
    # the oracle replays the non-linear CUSUM recurrence row by row as a
    # WITH-RECURSIVE join over per-user row numbers
    "events_cusum_alarms": """
        WITH RECURSIVE c AS (
          SELECT user_id,
                 CAST(round(value * 100) AS BIGINT) AS cents,
                 ROW_NUMBER() OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id) AS rn
          FROM events
        ),
        r(user_id, rn, s) AS (
          SELECT user_id, rn, GREATEST(0, cents - 10500)
          FROM c WHERE rn = 1
          UNION ALL
          SELECT c.user_id, c.rn, GREATEST(0, r.s + c.cents - 10500)
          FROM r JOIN c ON c.user_id = r.user_id AND c.rn = r.rn + 1
        )
        SELECT user_id,
               CAST(MAX(s) AS BIGINT) AS peak_s,
               CAST(SUM(CASE WHEN s > 50000 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_alarms
        FROM r GROUP BY user_id
    """,
    # constant windows telescope the interval union: per event
    # min(next−ts, W), last event W; island ends where the gap exceeds W
    "events_active_time": """
        WITH t AS (SELECT user_id, epoch_us(ts) AS us FROM events),
        w AS (
          SELECT user_id, us,
                 LEAD(us) OVER (PARTITION BY user_id ORDER BY us) AS nxt
          FROM t
        )
        SELECT user_id,
               CAST(SUM(CASE WHEN nxt IS NULL THEN 300000000
                             WHEN nxt - us < 300000000 THEN nxt - us
                             ELSE 300000000 END) AS BIGINT) AS active_us,
               CAST(SUM(CASE WHEN nxt IS NULL OR nxt - us > 300000000
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_islands
        FROM w GROUP BY user_id
    """,
    "doc_self_repetition": """
        WITH toks AS (
          SELECT doc_id,
                 string_split(trim(regexp_replace(COALESCE(text, ''), '\\s+', ' ', 'g'), ' '), ' ') AS ws
          FROM documents
        ),
        grams AS (
          SELECT doc_id, array_to_string(ws[i:i+4], ' ') AS ng
          FROM toks, LATERAL (
            SELECT unnest(range(1, greatest(len(ws) - 4, 0) + 1)) AS i
          ) r
        )
        SELECT doc_id,
               CAST(count(*) AS BIGINT) AS n_grams,
               CAST(count(DISTINCT ng) AS BIGINT) AS n_distinct,
               CAST(count(*) - count(DISTINCT ng) AS DOUBLE) / count(*) AS repetition
        FROM grams GROUP BY doc_id
    """,
    "embedding_dim_stats": """
        WITH el AS (
          SELECT unnest(embedding)::DOUBLE AS v,
                 unnest(range(len(embedding))) AS d
          FROM embeddings
        )
        SELECT CAST(d AS BIGINT) AS d,
               MIN(v) AS dim_min,
               MAX(v) AS dim_max,
               ROUND(SUM(v * v), 6) AS ssq
        FROM el GROUP BY d
    """,
    "curation_funnel": f"""
        WITH s AS (
          SELECT len(regexp_extract_all(lower(text), '\\S+')) AS wc,
                 len(list_filter(regexp_extract_all(lower(text), '\\S+'),
                                 x -> list_contains({_STOP_SQL}, x))) AS sw,
                 len(regexp_extract_all(text, '[#…]')) AS syms
          FROM documents
        )
        SELECT '0_input' AS stage, CAST(count(*) AS BIGINT) AS n_surviving FROM s
        UNION ALL
        SELECT '1_word_count', CAST(count(*) FILTER (
          WHERE wc BETWEEN 30 AND 10000) AS BIGINT) FROM s
        UNION ALL
        SELECT '2_stopwords', CAST(count(*) FILTER (
          WHERE wc BETWEEN 30 AND 10000 AND sw >= 2) AS BIGINT) FROM s
        UNION ALL
        SELECT '3_symbol_ratio', CAST(count(*) FILTER (
          WHERE wc BETWEEN 30 AND 10000 AND sw >= 2 AND 10 * syms <= wc) AS BIGINT) FROM s
    """,
    # share divides two exact int64 cent sums in ONE double op
    "revenue_concentration": """
        WITH rev AS (
          SELECT o_custkey,
                 CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
          FROM orders GROUP BY 1
        ),
        p AS (
          SELECT CAST(count(*) AS BIGINT) AS n,
                 CAST(SUM(cents) AS BIGINT) AS total
          FROM rev
        ),
        kk AS (SELECT CAST(CEIL(n / 100.0) AS BIGINT) AS k, n, total FROM p),
        top AS (
          SELECT cents FROM rev
          ORDER BY cents DESC, o_custkey ASC
          LIMIT (SELECT k FROM kk)
        )
        SELECT kk.n AS n_customers, kk.k AS top_k,
               CAST((SELECT SUM(cents) FROM top) AS DOUBLE) / kk.total AS revenue_share
        FROM kk
    """,
    # DuckDB rebuilds the SAME 4x1024 sketch via the md5 bridge, so the
    # CMS estimates (min over rows of the hashed cell) are value-checked
    "countmin_word_freqs": """
        WITH words AS (
          SELECT unnest(regexp_extract_all(text, '\\S+')) AS w FROM documents
        ),
        cnt AS (SELECT w, CAST(count(*) AS BIGINT) AS n FROM words GROUP BY w),
        top AS (SELECT * FROM cnt ORDER BY n DESC, w ASC LIMIT 20),
        ds AS (SELECT unnest(range(4)) AS d),
        cells AS (
          SELECT ds.d,
                 CAST(md5_number_upper(CAST(ds.d AS VARCHAR) || '|' || cnt.w) % 1024
                      AS BIGINT) AS col,
                 CAST(SUM(cnt.n) AS BIGINT) AS cell
          FROM cnt CROSS JOIN ds
          GROUP BY 1, 2
        )
        SELECT t.w AS word, t.n, CAST(MIN(c.cell) AS BIGINT) AS cms_est
        FROM top t CROSS JOIN ds
        JOIN cells c
          ON c.d = ds.d
         AND c.col = CAST(md5_number_upper(CAST(ds.d AS VARCHAR) || '|' || t.w) % 1024
                          AS BIGINT)
        GROUP BY t.w, t.n
    """,
    "lang_confusion_matrix": f"""
        SELECT d.lang AS actual, p.lang_pred AS predicted,
               CAST(count(*) AS BIGINT) AS n_docs
        FROM documents d JOIN ({_LANGID_PRED_SQL}) p ON p.doc_id = d.doc_id
        GROUP BY 1, 2
    """,
    # jaro_winkler (engine) is fuzz-tested bit-identical to DuckDB's
    # jaro_winkler_similarity; argmax ranks on (jw6 DESC, n_name ASC)
    "supplier_nation_name_match": """
        SELECT s.s_suppkey, m.n_name AS best_nation, m.jw
        FROM supplier s, LATERAL (
          SELECT n_name,
                 ROUND(jaro_winkler_similarity(s.s_name, n_name), 6) AS jw
          FROM nation
          ORDER BY jw DESC, n_name ASC
          LIMIT 1
        ) m
    """,
    # sketch algebra: three register rebuilds (view / purchase / union
    # multiset — the register-max identity makes the union arm exact),
    # inclusion–exclusion over the 4dp-rounded estimates
    "hll_user_overlap": f"""
        SELECT
          {_hll_scalar_sql("SELECT user_id AS u FROM events WHERE event_type = 'view'")} AS est_view,
          {_hll_scalar_sql("SELECT user_id AS u FROM events WHERE event_type = 'purchase'")} AS est_purchase,
          {_hll_scalar_sql("SELECT user_id AS u FROM events WHERE event_type IN ('view','purchase')")} AS est_union,
          ROUND(
            {_hll_scalar_sql("SELECT user_id AS u FROM events WHERE event_type = 'view'")}
            + {_hll_scalar_sql("SELECT user_id AS u FROM events WHERE event_type = 'purchase'")}
            - {_hll_scalar_sql("SELECT user_id AS u FROM events WHERE event_type IN ('view','purchase')")},
          4) AS est_intersection,
          (SELECT COUNT(DISTINCT user_id) FROM events WHERE event_type = 'view')::BIGINT AS exact_view,
          (SELECT COUNT(DISTINCT user_id) FROM events WHERE event_type = 'purchase')::BIGINT AS exact_purchase,
          (SELECT COUNT(DISTINCT user_id) FROM events
            WHERE event_type = 'view'
              AND user_id IN (SELECT user_id FROM events WHERE event_type = 'purchase'))::BIGINT AS exact_intersection
    """,
    # CDC merge: the oracle re-derives the synthetic change set and the
    # whole upsert, fingerprint = Σ md5(id|text) % 1e9+7 over final rows
    "cdc_merge_apply": """
        WITH base AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents),
        del AS (SELECT doc_id FROM base WHERE doc_id % 7 = 0),
        upd AS (SELECT doc_id, text || ' [rev2]' AS text FROM base WHERE doc_id % 7 = 1),
        ins AS (
          SELECT doc_id + 1000000 AS doc_id, 'new ' || CAST(doc_id AS VARCHAR) AS text
          FROM base WHERE doc_id % 7 = 2),
        final AS (
          SELECT b.doc_id, COALESCE(u.text, b.text) AS text
          FROM base b LEFT JOIN upd u USING (doc_id)
          WHERE b.doc_id NOT IN (SELECT doc_id FROM del)
          UNION ALL
          SELECT doc_id, text FROM ins),
        fp AS (
          SELECT CAST(SUM(md5_number_upper(CAST(doc_id AS VARCHAR) || '|' || text)
                          % 1000000007) AS BIGINT) AS f,
                 COUNT(*)::BIGINT AS n
          FROM final)
        SELECT (SELECT COUNT(*) FROM del)::BIGINT AS n_deleted,
               (SELECT COUNT(*) FROM upd)::BIGINT AS n_updated,
               (SELECT COUNT(*) FROM ins)::BIGINT AS n_inserted,
               (SELECT n FROM fp) AS n_rows,
               (SELECT f FROM fp) AS fingerprint
    """,
    # EWMA: the oracle replays the SAME two-op recurrence via a recursive
    # CTE over the zero-filled hourly series (ordered-recurrence parity)
    "events_hourly_ewma": """
        WITH RECURSIVE b AS (
          SELECT epoch_us(ts) // 3600000000 AS h, COUNT(*)::BIGINT AS n
          FROM events GROUP BY h),
        r AS (
          SELECT unnest(range((SELECT min(h) FROM b), (SELECT max(h) FROM b) + 1)) AS h),
        s AS (
          SELECT r.h, CAST(COALESCE(b.n, 0) AS BIGINT) AS x,
                 ROW_NUMBER() OVER (ORDER BY r.h) AS i
          FROM r LEFT JOIN b USING (h)),
        rec AS (
          SELECT i, h, x, CAST(x AS DOUBLE) AS s_val FROM s WHERE i = 1
          UNION ALL
          SELECT s.i, s.h, s.x, 0.2 * s.x + (1.0 - 0.2) * rec.s_val
          FROM rec JOIN s ON s.i = rec.i + 1),
        tot AS (SELECT COUNT(*)::BIGINT AS n_hours FROM s)
        SELECT h * 3600000000 AS hour_us, x AS n, ROUND(s_val, 6) AS ewma
        FROM rec WHERE i > (SELECT n_hours FROM tot) - 24
    """,
    # CM inner-product join-size audit: rebuild both sides' cells from the
    # md5 bridge, est = min_d Σ cellA·cellB, exact from grouped counts
    "join_size_estimate": """
        WITH ds AS (SELECT unnest(range(4)) AS d),
        ec AS (SELECT user_id AS k, COUNT(*)::BIGINT AS n FROM events GROUP BY 1),
        ecell AS (
          SELECT ds.d,
                 CAST(md5_number_upper(CAST(ds.d AS VARCHAR) || '|' || CAST(ec.k AS VARCHAR)) % 1024 AS BIGINT) AS col,
                 CAST(SUM(ec.n) AS BIGINT) AS cell
          FROM ec CROSS JOIN ds GROUP BY 1, 2),
        eest AS (
          SELECT CAST(MIN(s) AS BIGINT) AS est
          FROM (SELECT d, CAST(SUM(cell*cell) AS BIGINT) AS s FROM ecell GROUP BY d)),
        eexact AS (SELECT CAST(SUM(n*n) AS BIGINT) AS ex FROM ec),
        oc AS (SELECT o_orderkey AS k, COUNT(*)::BIGINT AS n FROM orders GROUP BY 1),
        lc AS (SELECT l_orderkey AS k, COUNT(*)::BIGINT AS n FROM lineitem GROUP BY 1),
        ocell AS (
          SELECT ds.d,
                 CAST(md5_number_upper(CAST(ds.d AS VARCHAR) || '|' || CAST(oc.k AS VARCHAR)) % 1024 AS BIGINT) AS col,
                 CAST(SUM(oc.n) AS BIGINT) AS cell
          FROM oc CROSS JOIN ds GROUP BY 1, 2),
        lcell AS (
          SELECT ds.d,
                 CAST(md5_number_upper(CAST(ds.d AS VARCHAR) || '|' || CAST(lc.k AS VARCHAR)) % 1024 AS BIGINT) AS col,
                 CAST(SUM(lc.n) AS BIGINT) AS cell
          FROM lc CROSS JOIN ds GROUP BY 1, 2),
        fest AS (
          SELECT CAST(MIN(s) AS BIGINT) AS est
          FROM (
            SELECT o.d, CAST(SUM(o.cell * COALESCE(l.cell, 0)) AS BIGINT) AS s
            FROM ocell o LEFT JOIN lcell l ON l.d = o.d AND l.col = o.col
            GROUP BY o.d)),
        fexact AS (
          SELECT CAST(SUM(oc.n * lc.n) AS BIGINT) AS ex
          FROM oc JOIN lc USING (k))
        SELECT 'events_self_user' AS "join",
               (SELECT ex FROM eexact) AS exact_pairs,
               (SELECT est FROM eest) AS cms_est,
               ROUND(CAST((SELECT est FROM eest) AS DOUBLE) / (SELECT ex FROM eexact), 6) AS over_ratio
        UNION ALL
        SELECT 'orders_lineitem_orderkey',
               (SELECT ex FROM fexact),
               (SELECT est FROM fest),
               ROUND(CAST((SELECT est FROM fest) AS DOUBLE) / (SELECT ex FROM fexact), 6)
    """,
    # crawl frontier: resolve root-relative links against the page
    # authority, anti-join vs crawled urls, per-host top-3 window cap
    # exact all-pairs set-similarity join: the oracle is the exact
    # inverted-index SQL (shared-token counts give |A∩B|, unrounded
    # int/int double division), against which the engine's prefix-filter
    # join must be COMPLETE — any missed pair is a correctness failure
    "allpairs_jaccard_join": r"""
        WITH corpus AS (
          SELECT doc_id, COALESCE(text,'') AS raw FROM documents
          UNION ALL
          SELECT doc_id + 1000000, COALESCE(text,'') || ' appended' FROM documents
        ),
        toks AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(lower(raw), '\s+'), x -> x <> '') AS w
          FROM corpus
        ),
        sh AS (
          SELECT doc_id,
                 CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
                      WHEN len(w) < 5 THEN [array_to_string(w, ' ')]
                      ELSE list_distinct([array_to_string(w[i:i+4], ' ') for i in range(1, len(w) - 3)])
                 END AS g
          FROM toks
        ),
        inv AS (SELECT doc_id, len(g) AS sz, unnest(g) AS t FROM sh WHERE len(g) > 0),
        shared AS (
          SELECT a.doc_id AS l, b.doc_id AS r, a.sz AS la, b.sz AS lb,
                 COUNT(*)::BIGINT AS inter
          FROM inv a JOIN inv b ON a.t = b.t AND a.doc_id < b.doc_id
          GROUP BY 1, 2, 3, 4
        )
        SELECT l AS "left", r AS "right",
               CAST(inter AS DOUBLE) / (la + lb - inter) AS jaccard
        FROM shared
        WHERE CAST(inter AS DOUBLE) / (la + lb - inter) >= 0.8
    """,
    # integer-exact PageRank: 4 unrolled rounds, rank = scaled int64,
    # every engine/oracle op is an integer sum or floor division
    "link_pagerank": f"""
        WITH fx AS (SELECT * FROM read_parquet('{_PAGES_FIXTURE}')),
        m AS (
          SELECT url, unnest(regexp_extract_all(page, '<a href="[^"]*">[^<]*</a>')) AS tag
          FROM fx WHERE route = 'html' AND instr(page, chr(65533)) = 0
        ),
        hrefs AS (
          SELECT url, regexp_extract(tag, '"([^"]*)"', 1) AS href FROM m
        ),
        edges0 AS (
          SELECT DISTINCT url AS src,
                 CASE WHEN href LIKE 'http://%' OR href LIKE 'https://%' THEN href
                      WHEN href LIKE '/%' THEN regexp_extract(url, '^(https?://[^/]+)', 1) || href
                      ELSE NULL END AS dst
          FROM hrefs
        ),
        edges AS (SELECT src, dst FROM edges0 WHERE dst IS NOT NULL AND dst <> src),
        deg AS (SELECT src, COUNT(*)::BIGINT AS deg FROM edges GROUP BY src),
        nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges),
        nn AS (SELECT COUNT(*)::BIGINT AS n FROM nodes),
        tl AS (SELECT (15 * (1000000000000 // n)) // 100 AS tele, n FROM nn),
        r0 AS (SELECT node, 1000000000000 // (SELECT n FROM tl) AS r FROM nodes),
        c1 AS (SELECT e.dst AS node, CAST(SUM(r.r // d.deg) AS BIGINT) AS cin
               FROM edges e JOIN r0 r ON r.node = e.src JOIN deg d ON d.src = e.src
               GROUP BY e.dst),
        d1 AS (SELECT CAST(COALESCE(SUM(r.r), 0) AS BIGINT) // (SELECT n FROM tl) AS share
               FROM r0 r LEFT JOIN deg d ON d.src = r.node WHERE d.src IS NULL),
        r1 AS (SELECT nd.node,
                      (SELECT tele FROM tl)
                        + (85 * (COALESCE(c.cin, 0) + (SELECT share FROM d1))) // 100 AS r
               FROM nodes nd LEFT JOIN c1 c ON c.node = nd.node),
        c2 AS (SELECT e.dst AS node, CAST(SUM(r.r // d.deg) AS BIGINT) AS cin
               FROM edges e JOIN r1 r ON r.node = e.src JOIN deg d ON d.src = e.src
               GROUP BY e.dst),
        d2 AS (SELECT CAST(COALESCE(SUM(r.r), 0) AS BIGINT) // (SELECT n FROM tl) AS share
               FROM r1 r LEFT JOIN deg d ON d.src = r.node WHERE d.src IS NULL),
        r2 AS (SELECT nd.node,
                      (SELECT tele FROM tl)
                        + (85 * (COALESCE(c.cin, 0) + (SELECT share FROM d2))) // 100 AS r
               FROM nodes nd LEFT JOIN c2 c ON c.node = nd.node),
        c3 AS (SELECT e.dst AS node, CAST(SUM(r.r // d.deg) AS BIGINT) AS cin
               FROM edges e JOIN r2 r ON r.node = e.src JOIN deg d ON d.src = e.src
               GROUP BY e.dst),
        d3 AS (SELECT CAST(COALESCE(SUM(r.r), 0) AS BIGINT) // (SELECT n FROM tl) AS share
               FROM r2 r LEFT JOIN deg d ON d.src = r.node WHERE d.src IS NULL),
        r3 AS (SELECT nd.node,
                      (SELECT tele FROM tl)
                        + (85 * (COALESCE(c.cin, 0) + (SELECT share FROM d3))) // 100 AS r
               FROM nodes nd LEFT JOIN c3 c ON c.node = nd.node),
        c4 AS (SELECT e.dst AS node, CAST(SUM(r.r // d.deg) AS BIGINT) AS cin
               FROM edges e JOIN r3 r ON r.node = e.src JOIN deg d ON d.src = e.src
               GROUP BY e.dst),
        d4 AS (SELECT CAST(COALESCE(SUM(r.r), 0) AS BIGINT) // (SELECT n FROM tl) AS share
               FROM r3 r LEFT JOIN deg d ON d.src = r.node WHERE d.src IS NULL),
        r4 AS (SELECT nd.node,
                      (SELECT tele FROM tl)
                        + (85 * (COALESCE(c.cin, 0) + (SELECT share FROM d4))) // 100 AS r
               FROM nodes nd LEFT JOIN c4 c ON c.node = nd.node)
        SELECT node AS url, CAST(r AS BIGINT) AS rank
        FROM r4 ORDER BY r DESC, node LIMIT 20
    """,
    "crawl_frontier": f"""
        WITH fx AS (SELECT * FROM read_parquet('{_PAGES_FIXTURE}')),
        m AS (
          SELECT url, unnest(regexp_extract_all(page, '<a href="[^"]*">[^<]*</a>')) AS tag
          FROM fx WHERE route = 'html' AND instr(page, chr(65533)) = 0
        ),
        hrefs AS (
          SELECT url, regexp_extract(tag, '"([^"]*)"', 1) AS href FROM m
        ),
        links AS (
          SELECT CASE WHEN href LIKE 'http://%' OR href LIKE 'https://%' THEN href
                      WHEN href LIKE '/%' THEN regexp_extract(url, '^(https?://[^/]+)', 1) || href
                      ELSE NULL END AS u
          FROM hrefs
        ),
        cand AS (
          SELECT u, COUNT(*)::BIGINT AS n_refs FROM links
          WHERE u IS NOT NULL AND u NOT IN (SELECT url FROM fx)
          GROUP BY u
        ),
        ranked AS (
          SELECT regexp_extract(u, '^https?://([^/]+)', 1) AS host, u, n_refs,
                 ROW_NUMBER() OVER (
                   PARTITION BY regexp_extract(u, '^https?://([^/]+)', 1)
                   ORDER BY n_refs DESC, u) AS rnk
          FROM cand
        )
        SELECT host, u AS url, n_refs, CAST(rnk AS BIGINT) AS rnk
        FROM ranked WHERE rnk <= 3
    """,
    # binary-segmentation changepoint: exact integer prefix sums, gain =
    # CAST(a AS DOUBLE)*a/n_l + (b)*b/n_r, argmax (gain DESC, day ASC)
    "events_changepoint": """
        WITH g AS (
          SELECT epoch_us(ts) // 86400000000 AS day, COUNT(*)::BIGINT AS n
          FROM events GROUP BY day),
        t AS (
          SELECT COUNT(*)::BIGINT AS nd, CAST(SUM(n) AS BIGINT) AS total,
                 CAST(SUM(n*n) AS DOUBLE) AS sq
          FROM g),
        pre AS (
          SELECT day, CAST(SUM(n) OVER (ORDER BY day) AS BIGINT) AS a,
                 ROW_NUMBER() OVER (ORDER BY day) AS i
          FROM g),
        cand AS (
          SELECT day, i AS n_l, (SELECT nd FROM t) - i AS n_r,
                 a, (SELECT total FROM t) - a AS b,
                 CAST(a AS DOUBLE) * a / i
                   + CAST((SELECT total FROM t) - a AS DOUBLE)
                     * ((SELECT total FROM t) - a) / ((SELECT nd FROM t) - i) AS gain
          FROM pre WHERE i < (SELECT nd FROM t)),
        best AS (SELECT * FROM cand ORDER BY gain DESC, day ASC LIMIT 1)
        SELECT day * 86400000000 AS split_day_us,
               n_l AS n_left, n_r AS n_right,
               ROUND(CAST(a AS DOUBLE) / n_l, 6) AS mean_left,
               ROUND(CAST(b AS DOUBLE) / n_r, 6) AS mean_right,
               ROUND(((SELECT sq FROM t)
                        - CAST((SELECT total FROM t) AS DOUBLE)
                          * (SELECT total FROM t) / (SELECT nd FROM t))
                     - ((SELECT sq FROM t) - gain), 6) AS sse_reduction
        FROM best
    """,
    # Markov entropy rate: per-source conditional entropies over the
    # user-ordered bigram counts, rate = Σ share·H (unrounded H)
    "event_type_entropy_rate": """
        WITH e AS (
          SELECT user_id, event_type,
                 ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
          FROM events),
        b AS (
          SELECT a.event_type AS cur, c.event_type AS nxt, COUNT(*)::BIGINT AS n
          FROM e a JOIN e c ON c.user_id = a.user_id AND c.rn = a.rn + 1
          GROUP BY 1, 2),
        src AS (SELECT cur, CAST(SUM(n) AS BIGINT) AS n_src FROM b GROUP BY cur),
        hh AS (
          SELECT b.cur, s.n_src,
                 SUM((CAST(b.n AS DOUBLE)/s.n_src) * ln(CAST(s.n_src AS DOUBLE)/b.n)) AS h
          FROM b JOIN src s USING (cur) GROUP BY b.cur, s.n_src),
        tot AS (SELECT CAST(SUM(n_src) AS BIGINT) AS grand FROM src),
        rate AS (
          SELECT SUM((CAST(n_src AS DOUBLE)/(SELECT grand FROM tot)) * h) AS r
          FROM hh)
        SELECT cur, n_src AS n_bigrams, ROUND(h, 6) AS h_next,
               ROUND((SELECT r FROM rate), 6) AS entropy_rate
        FROM hh
    """,
    # one-pass column profile; the hll estimates rebuild from the same
    # per-type normalized values the engine hashes (ints/cents/epoch-µs)
    "orders_profile": f"""
        SELECT 'o_orderkey' AS "column",
               (SELECT COUNT(*) FILTER (WHERE o_orderkey IS NULL) FROM orders)::BIGINT AS null_count,
               {_hll_scalar_sql("SELECT o_orderkey AS u FROM orders")} AS approx_distinct,
               (SELECT CAST(min(o_orderkey) AS DOUBLE) FROM orders) AS min_num,
               (SELECT CAST(max(o_orderkey) AS DOUBLE) FROM orders) AS max_num,
               NULL AS min_str, NULL AS max_str
        UNION ALL
        SELECT 'o_custkey',
               (SELECT COUNT(*) FILTER (WHERE o_custkey IS NULL) FROM orders)::BIGINT,
               {_hll_scalar_sql("SELECT o_custkey AS u FROM orders")},
               (SELECT CAST(min(o_custkey) AS DOUBLE) FROM orders),
               (SELECT CAST(max(o_custkey) AS DOUBLE) FROM orders),
               NULL, NULL
        UNION ALL
        SELECT 'o_orderstatus',
               (SELECT COUNT(*) FILTER (WHERE o_orderstatus IS NULL) FROM orders)::BIGINT,
               {_hll_scalar_sql("SELECT o_orderstatus AS u FROM orders")},
               NULL, NULL,
               (SELECT min(o_orderstatus) FROM orders),
               (SELECT max(o_orderstatus) FROM orders)
        UNION ALL
        SELECT 'o_totalprice',
               (SELECT COUNT(*) FILTER (WHERE o_totalprice IS NULL) FROM orders)::BIGINT,
               {_hll_scalar_sql("SELECT CAST(round(o_totalprice*100) AS BIGINT) AS u FROM orders")},
               (SELECT min(o_totalprice) FROM orders),
               (SELECT max(o_totalprice) FROM orders),
               NULL, NULL
        UNION ALL
        SELECT 'o_orderdate',
               (SELECT COUNT(*) FILTER (WHERE o_orderdate IS NULL) FROM orders)::BIGINT,
               {_hll_scalar_sql("SELECT epoch_us(o_orderdate) AS u FROM orders")},
               (SELECT CAST(min(epoch_us(o_orderdate)) AS DOUBLE) FROM orders),
               (SELECT CAST(max(epoch_us(o_orderdate)) AS DOUBLE) FROM orders),
               NULL, NULL
        UNION ALL
        SELECT 'o_orderpriority',
               (SELECT COUNT(*) FILTER (WHERE o_orderpriority IS NULL) FROM orders)::BIGINT,
               {_hll_scalar_sql("SELECT o_orderpriority AS u FROM orders")},
               NULL, NULL,
               (SELECT min(o_orderpriority) FROM orders),
               (SELECT max(o_orderpriority) FROM orders)
    """,
    # RFM: explicit integer quartile rule (b_q = min v with cum >= k_q,
    # k_q = (n+3)//4, (n+1)//2, (3n+3)//4) — no engine quantile builtin
    "user_rfm_segments": """
        WITH mx AS (SELECT max(epoch_us(ts)) AS m FROM events),
        u AS (
          SELECT user_id,
                 ((SELECT m FROM mx) - max(epoch_us(ts))) // 86400000000 AS r,
                 COUNT(*)::BIGINT AS f,
                 CAST(SUM(CAST(round(value*100) AS BIGINT)) AS BIGINT) // 100 AS m
          FROM events GROUP BY user_id),
        n AS (SELECT COUNT(*)::BIGINT AS total FROM u),
        ks AS (
          SELECT (total + 3) // 4 AS k1, (total + 1) // 2 AS k2,
                 (3*total + 3) // 4 AS k3
          FROM n),
        b AS (
          SELECT
            (SELECT min(r) FROM (SELECT r, COUNT(*) OVER (ORDER BY r) c FROM u) WHERE c >= (SELECT k1 FROM ks)) AS br1,
            (SELECT min(r) FROM (SELECT r, COUNT(*) OVER (ORDER BY r) c FROM u) WHERE c >= (SELECT k2 FROM ks)) AS br2,
            (SELECT min(r) FROM (SELECT r, COUNT(*) OVER (ORDER BY r) c FROM u) WHERE c >= (SELECT k3 FROM ks)) AS br3,
            (SELECT min(f) FROM (SELECT f, COUNT(*) OVER (ORDER BY f) c FROM u) WHERE c >= (SELECT k1 FROM ks)) AS bf1,
            (SELECT min(f) FROM (SELECT f, COUNT(*) OVER (ORDER BY f) c FROM u) WHERE c >= (SELECT k2 FROM ks)) AS bf2,
            (SELECT min(f) FROM (SELECT f, COUNT(*) OVER (ORDER BY f) c FROM u) WHERE c >= (SELECT k3 FROM ks)) AS bf3,
            (SELECT min(m) FROM (SELECT m, COUNT(*) OVER (ORDER BY m) c FROM u) WHERE c >= (SELECT k1 FROM ks)) AS bm1,
            (SELECT min(m) FROM (SELECT m, COUNT(*) OVER (ORDER BY m) c FROM u) WHERE c >= (SELECT k2 FROM ks)) AS bm2,
            (SELECT min(m) FROM (SELECT m, COUNT(*) OVER (ORDER BY m) c FROM u) WHERE c >= (SELECT k3 FROM ks)) AS bm3),
        coded AS (
          SELECT 1 + (r > br1)::BIGINT + (r > br2)::BIGINT + (r > br3)::BIGINT AS r_code,
                 1 + (f > bf1)::BIGINT + (f > bf2)::BIGINT + (f > bf3)::BIGINT AS f_code,
                 1 + (m > bm1)::BIGINT + (m > bm2)::BIGINT + (m > bm3)::BIGINT AS m_code
          FROM u, b)
        SELECT r_code, f_code, m_code, COUNT(*)::BIGINT AS n_users
        FROM coded GROUP BY r_code, f_code, m_code
    """,
    # Benford first-digit audit: leading digit of the exact cent value,
    # expected counts n·ln(1+1/d)/ln(10), χ² summed over observed digits
    "benford_price_audit": """
        WITH d AS (
          SELECT CAST(substr(CAST(CAST(round(o_totalprice*100) AS BIGINT) AS VARCHAR), 1, 1) AS BIGINT) AS digit
          FROM orders
          WHERE round(o_totalprice*100) > 0),
        g AS (SELECT digit, COUNT(*)::BIGINT AS n_obs FROM d GROUP BY digit),
        t AS (SELECT CAST(SUM(n_obs) AS BIGINT) AS n FROM g),
        e AS (
          SELECT digit, n_obs,
                 (SELECT n FROM t) * (ln(1.0 + 1.0/digit) / ln(10.0)) AS exp_n
          FROM g)
        SELECT digit, n_obs,
               ROUND(exp_n, 6) AS expected,
               ROUND((SELECT SUM((n_obs - exp_n)*(n_obs - exp_n)/exp_n) FROM e), 6) AS chi2
        FROM e
    """,
    # Mann–Kendall on the daily count series: exact integer S and variance
    # numerator, tie correction from the count spectrum, Theil–Sen slope =
    # median of pairwise (Δcount/Δday)
    "events_mann_kendall": """
        WITH g AS (
          SELECT CAST(ts AS DATE) AS day, COUNT(*)::BIGINT AS n
          FROM events GROUP BY day),
        p AS (
          SELECT a.n AS xi, b.n AS xj, date_diff('day', a.day, b.day) AS dd
          FROM g a JOIN g b ON a.day < b.day),
        s AS (
          SELECT CAST(SUM(CASE WHEN xj > xi THEN 1 WHEN xj < xi THEN -1 ELSE 0 END) AS BIGINT) AS s_stat,
                 median(CAST(xj - xi AS DOUBLE) / dd) AS sen
          FROM p),
        t AS (SELECT COUNT(*)::BIGINT AS nd FROM g),
        ties AS (
          SELECT CAST(COALESCE(SUM(t*(t-1)*(2*t+5)), 0) AS BIGINT) AS tt
          FROM (SELECT COUNT(*)::BIGINT AS t FROM g GROUP BY n) q),
        v AS (SELECT (nd*(nd-1)*(2*nd+5) - tt) AS vnum, nd FROM t, ties)
        SELECT v.nd AS n_days, s.s_stat,
               ROUND(v.vnum/18.0, 6) AS var_s,
               ROUND(CASE WHEN s.s_stat > 0 THEN (s.s_stat - 1)/sqrt(v.vnum/18.0)
                          WHEN s.s_stat < 0 THEN (s.s_stat + 1)/sqrt(v.vnum/18.0)
                          ELSE 0.0 END, 6) AS z_stat,
               ROUND(s.sen, 6) AS sen_slope
        FROM s, v
    """,
    # ACF lags 1..12 over the gap-zero-filled hourly series; x̄ = exact-int
    # sum / count, same chain as the engine
    "events_acf": """
        WITH b AS (
          SELECT epoch_us(ts) // 3600000000 AS h, COUNT(*)::BIGINT AS n
          FROM events GROUP BY h),
        r AS (
          SELECT unnest(range((SELECT min(h) FROM b), (SELECT max(h) FROM b) + 1)) AS h),
        s AS (
          SELECT r.h, CAST(COALESCE(b.n, 0) AS BIGINT) AS x,
                 ROW_NUMBER() OVER (ORDER BY r.h) AS i
          FROM r LEFT JOIN b USING (h)),
        m AS (
          SELECT CAST(CAST(SUM(x) AS BIGINT) AS DOUBLE) / COUNT(*) AS xbar
          FROM s),
        lags AS (SELECT unnest(range(1, 13)) AS lag),
        num AS (
          SELECT lags.lag AS lag,
                 SUM((a.x - m.xbar) * (b2.x - m.xbar)) AS nm
          FROM lags CROSS JOIN m CROSS JOIN s a CROSS JOIN s b2
          WHERE b2.i = a.i + lags.lag
          GROUP BY lags.lag),
        den AS (SELECT SUM((x - m.xbar)*(x - m.xbar)) AS dn FROM s, m)
        SELECT CAST(lag AS BIGINT) AS lag,
               ROUND(nm / (SELECT dn FROM den), 6) AS acf
        FROM num
    """,
    # Kaplan–Meier time-to-first-purchase life table, observation
    # administratively truncated at corpus_start + 48 h; survival is the
    # ascending-t windowed product of (1 − d/n)
    "user_retention_km": """
        WITH mn AS (SELECT min(epoch_us(ts)) + 172800000000 AS wend FROM events),
        u AS (
          SELECT user_id, min(epoch_us(ts)) AS f,
                 min(CASE WHEN event_type = 'purchase' THEN epoch_us(ts) END) AS fp
          FROM events GROUP BY user_id),
        per AS (
          SELECT CASE WHEN fp IS NOT NULL AND fp <= wend
                      THEN (fp - f) // 3600000000
                      ELSE (wend - f) // 3600000000 END AS t,
                 CASE WHEN fp IS NOT NULL AND fp <= wend THEN 0 ELSE 1 END AS cens
          FROM u, mn WHERE f < wend),
        ev AS (
          SELECT t, COUNT(*)::BIGINT AS d
          FROM per WHERE cens = 0 GROUP BY t),
        risk AS (
          SELECT e.t, e.d,
                 (SELECT COUNT(*) FROM per p WHERE p.t >= e.t)::BIGINT AS n
          FROM ev e),
        km AS (
          SELECT t, d, n,
                 product(1.0 - CAST(d AS DOUBLE)/n) OVER (ORDER BY t) AS surv
          FROM risk)
        SELECT t AS t_hours, d AS n_deaths, n AS n_at_risk,
               ROUND(surv, 6) AS survival
        FROM km
    """,
    # conjunctive (boolean AND) retrieval: docs containing ALL query terms,
    # scored by total tf; tokenization contract = lowered \s+ split
    "conjunctive_search": r"""
        WITH toks AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\s+'),
                             x -> x <> '') AS w
          FROM documents),
        hits AS (
          SELECT doc_id,
                 len(list_filter(w, x -> x = 'hash'))   AS n1,
                 len(list_filter(w, x -> x = 'join'))   AS n2,
                 len(list_filter(w, x -> x = 'window')) AS n3
          FROM toks)
        SELECT doc_id, CAST(n1 + n2 + n3 AS BIGINT) AS total_tf
        FROM hits WHERE n1 > 0 AND n2 > 0 AND n3 > 0
    """,
    # exact phrase search: bigram adjacency rebuilt with a list
    # comprehension (w is 1-indexed; pairs (i, i+1) for i in 1..len-1)
    "phrase_search": r"""
        WITH toks AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\s+'),
                             x -> x <> '') AS w
          FROM documents),
        big AS (
          SELECT doc_id,
                 CASE WHEN len(w) < 2 THEN 0
                      ELSE len(list_filter(
                             [w[i] || ' ' || w[i+1] for i in range(1, len(w))],
                             x -> x = 'order sort'))
                 END AS n_occ
          FROM toks)
        SELECT doc_id, CAST(n_occ AS BIGINT) AS n_occ
        FROM big WHERE n_occ > 0
    """,
    # Holt linear smoothing: the recursive CTE carries BOTH state columns
    # (level, trend) through the identical two-op recurrence chain
    "events_holt_linear": """
        WITH RECURSIVE b AS (
          SELECT epoch_us(ts) // 3600000000 AS h, COUNT(*)::BIGINT AS n
          FROM events GROUP BY h),
        r AS (
          SELECT unnest(range((SELECT min(h) FROM b), (SELECT max(h) FROM b) + 1)) AS h),
        s AS (
          SELECT r.h, CAST(COALESCE(b.n, 0) AS BIGINT) AS x,
                 ROW_NUMBER() OVER (ORDER BY r.h) AS i
          FROM r LEFT JOIN b USING (h)),
        rec AS (
          SELECT s1.i, s1.h, s1.x,
                 CAST(s1.x AS DOUBLE) AS l,
                 CAST(s2.x - s1.x AS DOUBLE) AS t
          FROM s s1 JOIN s s2 ON s2.i = 2
          WHERE s1.i = 1
          UNION ALL
          SELECT s.i, s.h, s.x,
                 0.3 * s.x + (1.0 - 0.3) * (rec.l + rec.t),
                 0.1 * ((0.3 * s.x + (1.0 - 0.3) * (rec.l + rec.t)) - rec.l)
                   + (1.0 - 0.1) * rec.t
          FROM rec JOIN s ON s.i = rec.i + 1),
        tot AS (SELECT COUNT(*)::BIGINT AS n_hours FROM s)
        SELECT h * 3600000000 AS hour_us, x AS n,
               ROUND(l, 6) AS level, ROUND(t, 6) AS trend,
               ROUND(l + t, 6) AS forecast_next
        FROM rec WHERE i > (SELECT n_hours FROM tot) - 24
    """,
    # GDPR erasure audit: subject predicates + the orders→lineitem FK
    # cascade; remaining-row fingerprints via the md5_number_upper bridge
    "user_erasure_audit": """
        WITH eo AS (SELECT o_orderkey FROM orders WHERE o_custkey % 13 = 0)
        SELECT 'events' AS tbl,
               (SELECT COUNT(*) FROM events WHERE user_id % 13 = 0)::BIGINT AS n_erased,
               (SELECT COUNT(*) FROM events WHERE user_id % 13 <> 0)::BIGINT AS n_remaining,
               (SELECT CAST(COALESCE(SUM(md5_number_upper(
                          CAST(event_id AS VARCHAR) || '|' || CAST(user_id AS VARCHAR))
                        % 1000000007), 0) AS BIGINT)
                FROM events WHERE user_id % 13 <> 0) AS remaining_fp
        UNION ALL
        SELECT 'customer',
               (SELECT COUNT(*) FROM customer WHERE c_custkey % 13 = 0)::BIGINT,
               (SELECT COUNT(*) FROM customer WHERE c_custkey % 13 <> 0)::BIGINT,
               (SELECT CAST(COALESCE(SUM(md5_number_upper(CAST(c_custkey AS VARCHAR))
                        % 1000000007), 0) AS BIGINT)
                FROM customer WHERE c_custkey % 13 <> 0)
        UNION ALL
        SELECT 'orders',
               (SELECT COUNT(*) FROM orders WHERE o_custkey % 13 = 0)::BIGINT,
               (SELECT COUNT(*) FROM orders WHERE o_custkey % 13 <> 0)::BIGINT,
               (SELECT CAST(COALESCE(SUM(md5_number_upper(CAST(o_orderkey AS VARCHAR))
                        % 1000000007), 0) AS BIGINT)
                FROM orders WHERE o_custkey % 13 <> 0)
        UNION ALL
        SELECT 'lineitem',
               (SELECT COUNT(*) FROM lineitem WHERE l_orderkey IN (SELECT o_orderkey FROM eo))::BIGINT,
               (SELECT COUNT(*) FROM lineitem WHERE l_orderkey NOT IN (SELECT o_orderkey FROM eo))::BIGINT,
               (SELECT CAST(COALESCE(SUM(md5_number_upper(
                          CAST(l_orderkey AS VARCHAR) || '|' || CAST(l_linenumber AS VARCHAR))
                        % 1000000007), 0) AS BIGINT)
                FROM lineitem WHERE l_orderkey NOT IN (SELECT o_orderkey FROM eo))
    """,
    # zone-map audit: 250-row blocks under key order (value-range blocks)
    # vs global (date, key) rank; blocks_scanned = min/max overlap count
    "zone_map_pruning": """
        WITH kb AS (
          SELECT o_orderkey // 250 AS blk, min(o_orderdate) AS mn, max(o_orderdate) AS mx
          FROM orders GROUP BY 1),
        dr AS (
          SELECT o_orderdate AS d, ROW_NUMBER() OVER (ORDER BY o_orderdate, o_orderkey) - 1 AS rk
          FROM orders),
        db AS (SELECT rk // 250 AS blk, min(d) AS mn, max(d) AS mx FROM dr GROUP BY 1),
        sel AS (SELECT COUNT(*)::BIGINT AS n FROM orders
                WHERE o_orderdate >= TIMESTAMP '1998-01-01'
                  AND o_orderdate < TIMESTAMP '1998-07-01')
        SELECT 'key_order' AS layout, COUNT(*)::BIGINT AS n_blocks,
               CAST(SUM(CASE WHEN mn < TIMESTAMP '1998-07-01'
                              AND mx >= TIMESTAMP '1998-01-01' THEN 1 ELSE 0 END) AS BIGINT) AS blocks_scanned,
               (SELECT n FROM sel) AS rows_selected,
               ROUND(CAST(SUM(CASE WHEN mn < TIMESTAMP '1998-07-01'
                              AND mx >= TIMESTAMP '1998-01-01' THEN 1 ELSE 0 END) AS DOUBLE)
                     / COUNT(*), 6) AS scan_fraction
        FROM kb
        UNION ALL
        SELECT 'date_sorted', COUNT(*)::BIGINT,
               CAST(SUM(CASE WHEN mn < TIMESTAMP '1998-07-01'
                              AND mx >= TIMESTAMP '1998-01-01' THEN 1 ELSE 0 END) AS BIGINT),
               (SELECT n FROM sel),
               ROUND(CAST(SUM(CASE WHEN mn < TIMESTAMP '1998-07-01'
                              AND mx >= TIMESTAMP '1998-01-01' THEN 1 ELSE 0 END) AS DOUBLE)
                     / COUNT(*), 6)
        FROM db
    """,
    # exact Pearson correlation matrix from integer-lifted moments; the
    # double chain (CAST num / (sqrt·sqrt)) mirrors the engine verbatim
    "lineitem_corr_matrix": """
        WITH q AS (
          SELECT CAST(floor(l_quantity * 1.0 + 0.5) AS BIGINT) AS a0,
                 CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT) AS a1,
                 CAST(floor(l_discount * 100.0 + 0.5) AS BIGINT) AS a2,
                 CAST(floor(l_tax * 100.0 + 0.5) AS BIGINT) AS a3
          FROM lineitem),
        m AS (
          SELECT COUNT(*)::BIGINT AS n,
                 SUM(a0) s0, SUM(a1) s1, SUM(a2) s2, SUM(a3) s3,
                 SUM(a0*a0) p00, SUM(a0*a1) p01, SUM(a0*a2) p02, SUM(a0*a3) p03,
                 SUM(a1*a1) p11, SUM(a1*a2) p12, SUM(a1*a3) p13,
                 SUM(a2*a2) p22, SUM(a2*a3) p23, SUM(a3*a3) p33
          FROM q)
        SELECT 'quantity' AS col_a, 'extendedprice' AS col_b,
               ROUND(CAST(n*p01 - s0*s1 AS DOUBLE)
                     / (sqrt(CAST(n*p00 - s0*s0 AS DOUBLE)) * sqrt(CAST(n*p11 - s1*s1 AS DOUBLE))), 6) AS corr FROM m
        UNION ALL SELECT 'quantity', 'discount',
               ROUND(CAST(n*p02 - s0*s2 AS DOUBLE)
                     / (sqrt(CAST(n*p00 - s0*s0 AS DOUBLE)) * sqrt(CAST(n*p22 - s2*s2 AS DOUBLE))), 6) FROM m
        UNION ALL SELECT 'quantity', 'tax',
               ROUND(CAST(n*p03 - s0*s3 AS DOUBLE)
                     / (sqrt(CAST(n*p00 - s0*s0 AS DOUBLE)) * sqrt(CAST(n*p33 - s3*s3 AS DOUBLE))), 6) FROM m
        UNION ALL SELECT 'extendedprice', 'discount',
               ROUND(CAST(n*p12 - s1*s2 AS DOUBLE)
                     / (sqrt(CAST(n*p11 - s1*s1 AS DOUBLE)) * sqrt(CAST(n*p22 - s2*s2 AS DOUBLE))), 6) FROM m
        UNION ALL SELECT 'extendedprice', 'tax',
               ROUND(CAST(n*p13 - s1*s3 AS DOUBLE)
                     / (sqrt(CAST(n*p11 - s1*s1 AS DOUBLE)) * sqrt(CAST(n*p33 - s3*s3 AS DOUBLE))), 6) FROM m
        UNION ALL SELECT 'discount', 'tax',
               ROUND(CAST(n*p23 - s2*s3 AS DOUBLE)
                     / (sqrt(CAST(n*p22 - s2*s2 AS DOUBLE)) * sqrt(CAST(n*p33 - s3*s3 AS DOUBLE))), 6) FROM m
    """,
}

# RAKE keyword scoring: stopword-delimited phrase runs via gaps-and-islands
# over the per-doc token index; selection key is the unrounded deg/freq
ORACLE_SQL["rake_word_scores"] = rf"""
    WITH toks AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\s+'),
                         x -> x <> '') AS w
      FROM documents),
    iw AS (
      SELECT doc_id,
             unnest([{{'i': i, 'word': w[i]}} for i in range(1, len(w)+1)],
                    recursive := true)
      FROM toks),
    nw AS (SELECT doc_id, i, word FROM iw WHERE NOT list_contains({_STOP_SQL}, word)),
    isl AS (
      SELECT doc_id, i, word,
             i - ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY i) AS grp
      FROM nw),
    phr AS (SELECT doc_id, grp, COUNT(*)::BIGINT AS plen FROM isl GROUP BY 1, 2),
    scores AS (
      SELECT word, COUNT(*)::BIGINT AS freq, CAST(SUM(p.plen) AS BIGINT) AS deg
      FROM isl JOIN phr p USING (doc_id, grp) GROUP BY word)
    SELECT word, freq, deg, ROUND(CAST(deg AS DOUBLE)/freq, 6) AS score
    FROM scores
    ORDER BY CAST(deg AS DOUBLE)/freq DESC, word LIMIT 20
"""

# first-touch attribution: sessionize (30-min gap) under the (us, event_id)
# total order, FIRST_VALUE per session, count purchases per first touch
ORACLE_SQL["attribution_first_touch"] = f"""
    WITH e AS (SELECT user_id, event_id, event_type, epoch_us(ts) AS us FROM events),
    lagd AS (
      SELECT *, lag(us) OVER (PARTITION BY user_id ORDER BY us, event_id) AS pus
      FROM e),
    sess AS (
      SELECT *, SUM(CASE WHEN pus IS NULL OR us - pus > {_SESSION_GAP_US} THEN 1 ELSE 0 END)
                OVER (PARTITION BY user_id ORDER BY us, event_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS sid
      FROM lagd),
    ft AS (
      SELECT *, FIRST_VALUE(event_type)
                OVER (PARTITION BY user_id, sid ORDER BY us, event_id) AS first_touch
      FROM sess)
    SELECT first_touch, COUNT(*)::BIGINT AS n_purchases
    FROM ft WHERE event_type = 'purchase' GROUP BY 1
"""

# weekly cohort retention: cohort = first-activity week since corpus start,
# one count per (cohort, offset) a user was active in
ORACLE_SQL["user_weekly_retention"] = """
    WITH st AS (SELECT min(epoch_us(ts)) AS s FROM events),
    uw AS (
      SELECT DISTINCT user_id,
             (epoch_us(ts) - (SELECT s FROM st)) // 604800000000 AS week
      FROM events),
    ch AS (SELECT user_id, min(week) AS cohort FROM uw GROUP BY 1)
    SELECT CAST(ch.cohort AS BIGINT) AS cohort_week,
           CAST(uw.week - ch.cohort AS BIGINT) AS week_offset,
           COUNT(*)::BIGINT AS n_users
    FROM uw JOIN ch USING (user_id) GROUP BY 1, 2
"""

# conversion latency: first view -> first purchase per user; quantile_disc
# is the oracle's own ceil(q*n) discrete-element rule, mirrored exactly
ORACLE_SQL["conversion_latency_quantiles"] = """
    WITH u AS (
      SELECT user_id,
             min(CASE WHEN event_type = 'view' THEN epoch_us(ts) END) AS v,
             min(CASE WHEN event_type = 'purchase' THEN epoch_us(ts) END) AS p
      FROM events GROUP BY 1),
    lat AS (
      SELECT (p - v) // 1000000 AS lat
      FROM u WHERE v IS NOT NULL AND p IS NOT NULL AND p >= v)
    SELECT COUNT(*)::BIGINT AS n_converted,
           CAST(quantile_disc(lat, 0.25) AS BIGINT) AS p25,
           CAST(quantile_disc(lat, 0.50) AS BIGINT) AS p50,
           CAST(quantile_disc(lat, 0.75) AS BIGINT) AS p75,
           CAST(quantile_disc(lat, 0.90) AS BIGINT) AS p90
    FROM lat
"""

# systematic sampling: every 997th row of the global (ts, event_id) order
ORACLE_SQL["systematic_sample"] = """
    SELECT event_id, rk AS "rank" FROM (
      SELECT event_id,
             ROW_NUMBER() OVER (ORDER BY epoch_us(ts), event_id) - 1 AS rk
      FROM events)
    WHERE rk % 997 = 0
"""

# constraint battery: value rules + exact duplicate-key row count + FK
# orphan row count (NOT IN is safe: customer keys are non-null)
ORACLE_SQL["orders_constraint_audit"] = """
    SELECT 'null_or_nonpositive_totalprice' AS rule,
           (SELECT COUNT(*) FROM orders
            WHERE o_totalprice IS NULL OR o_totalprice <= 0)::BIGINT AS n_violations
    UNION ALL
    SELECT 'bad_orderstatus',
           (SELECT COUNT(*) FROM orders
            WHERE o_orderstatus IS NULL
               OR o_orderstatus NOT IN ('O', 'F', 'P'))::BIGINT
    UNION ALL
    SELECT 'orderdate_out_of_range',
           (SELECT COUNT(*) FROM orders
            WHERE o_orderdate < TIMESTAMP '1990-01-01'
               OR o_orderdate >= TIMESTAMP '2010-01-01')::BIGINT
    UNION ALL
    SELECT 'duplicate_orderkey_rows',
           (SELECT CAST(COALESCE(SUM(c), 0) AS BIGINT) FROM (
              SELECT COUNT(*) AS c FROM orders
              GROUP BY o_orderkey HAVING COUNT(*) > 1))
    UNION ALL
    SELECT 'orphan_custkey_rows',
           (SELECT COUNT(*) FROM orders
            WHERE o_custkey NOT IN (SELECT c_custkey FROM customer))::BIGINT
"""

# weekly seasonality: dow from epoch arithmetic ((days+4)%7, 0=Sunday) —
# the identical integer chain in both engines, no calendar builtin
ORACLE_SQL["events_dow_hour_profile"] = """
    WITH c AS (
      SELECT ((epoch_us(ts) // 86400000000) + 4) % 7 AS dow,
             (epoch_us(ts) // 3600000000) % 24 AS hour,
             COUNT(*)::BIGINT AS n
      FROM events GROUP BY 1, 2),
    t AS (SELECT CAST(SUM(n) AS BIGINT) AS total FROM c)
    SELECT CAST(dow AS BIGINT) AS dow, CAST(hour AS BIGINT) AS hour, n,
           ROUND(CAST(n AS DOUBLE) / (SELECT total FROM t), 6) AS share
    FROM c
"""

# Z-order audit: 8-bit range quantization, Morton interleave via a bit-op
# list comprehension, blocks along the (z, key) global rank, 2-dim predicate
ORACLE_SQL["zorder_layout_audit"] = """
    WITH b AS (
      SELECT max(o_custkey) AS cmax,
             min(epoch_us(o_orderdate) // 86400000000) AS dmin,
             max(epoch_us(o_orderdate) // 86400000000) AS dmax
      FROM orders),
    t AS (
      SELECT o_orderkey AS key, o_custkey AS ck, epoch_us(o_orderdate) AS us,
             (o_custkey * 256) // (b.cmax + 1) AS qx,
             ((epoch_us(o_orderdate) // 86400000000 - b.dmin) * 256)
               // (b.dmax - b.dmin + 1) AS qy
      FROM orders, b),
    z AS (
      SELECT key, ck, us,
             list_sum([(((qx >> i) & 1) << (2*i)) + (((qy >> i) & 1) << (2*i+1))
                       for i in range(0, 8)]) AS z
      FROM t),
    zr AS (SELECT key, ck, us, ROW_NUMBER() OVER (ORDER BY z, key) - 1 AS rk FROM z),
    zb AS (SELECT rk // 250 AS blk, min(ck) AS cmn, max(ck) AS cmx,
                  min(us) AS dmn, max(us) AS dmx FROM zr GROUP BY 1),
    kb AS (SELECT key // 250 AS blk, min(ck) AS cmn, max(ck) AS cmx,
                  min(us) AS dmn, max(us) AS dmx FROM z GROUP BY 1),
    pr AS (SELECT (SELECT cmax FROM b) // 4 AS clo, (SELECT cmax FROM b) // 2 AS chi,
                  epoch_us(TIMESTAMP '1998-01-01') AS dlo,
                  epoch_us(TIMESTAMP '1998-07-01') AS dhi),
    sel AS (SELECT COUNT(*)::BIGINT AS n FROM z, pr
            WHERE ck >= pr.clo AND ck <= pr.chi AND us >= pr.dlo AND us < pr.dhi)
    SELECT 'key_order' AS layout, COUNT(*)::BIGINT AS n_blocks,
           CAST(SUM(CASE WHEN cmn <= (SELECT chi FROM pr) AND cmx >= (SELECT clo FROM pr)
                          AND dmn < (SELECT dhi FROM pr) AND dmx >= (SELECT dlo FROM pr)
                     THEN 1 ELSE 0 END) AS BIGINT) AS blocks_scanned,
           (SELECT n FROM sel) AS rows_selected,
           ROUND(CAST(SUM(CASE WHEN cmn <= (SELECT chi FROM pr) AND cmx >= (SELECT clo FROM pr)
                          AND dmn < (SELECT dhi FROM pr) AND dmx >= (SELECT dlo FROM pr)
                     THEN 1 ELSE 0 END) AS DOUBLE) / COUNT(*), 6) AS scan_fraction
    FROM kb
    UNION ALL
    SELECT 'zorder', COUNT(*)::BIGINT,
           CAST(SUM(CASE WHEN cmn <= (SELECT chi FROM pr) AND cmx >= (SELECT clo FROM pr)
                          AND dmn < (SELECT dhi FROM pr) AND dmx >= (SELECT dlo FROM pr)
                     THEN 1 ELSE 0 END) AS BIGINT),
           (SELECT n FROM sel),
           ROUND(CAST(SUM(CASE WHEN cmn <= (SELECT chi FROM pr) AND cmx >= (SELECT clo FROM pr)
                          AND dmn < (SELECT dhi FROM pr) AND dmx >= (SELECT dlo FROM pr)
                     THEN 1 ELSE 0 END) AS DOUBLE) / COUNT(*), 6)
    FROM zb
"""

# inter-order gaps: lag window per customer, day floor-div, quantile_disc
ORACLE_SQL["customer_order_gaps"] = """
    WITH o AS (SELECT o_custkey, epoch_us(o_orderdate) AS us, o_orderkey FROM orders),
    g AS (
      SELECT o_custkey,
             (us - lag(us) OVER (PARTITION BY o_custkey ORDER BY us, o_orderkey))
               // 86400000000 AS gap
      FROM o),
    gg AS (SELECT gap FROM g WHERE gap IS NOT NULL)
    SELECT (SELECT COUNT(*) FROM (
              SELECT o_custkey FROM o GROUP BY 1 HAVING COUNT(*) >= 2))::BIGINT
             AS n_customers_multi,
           COUNT(*)::BIGINT AS n_gaps,
           ROUND(CAST(CAST(SUM(gap) AS BIGINT) AS DOUBLE) / COUNT(*), 6)
             AS mean_gap_days,
           CAST(quantile_disc(gap, 0.50) AS BIGINT) AS p50,
           CAST(quantile_disc(gap, 0.90) AS BIGINT) AS p90
    FROM gg
"""

# windowed strict funnel: EXISTS a (view, click, purchase) triple per user,
# strictly ordered, purchase within 24 h of the view
ORACLE_SQL["events_funnel_windowed"] = """
    SELECT COUNT(*)::BIGINT AS n_users FROM (
      SELECT DISTINCT e1.user_id
      FROM events e1
      JOIN events e2 ON e2.user_id = e1.user_id
      JOIN events e3 ON e3.user_id = e1.user_id
      WHERE e1.event_type = 'view' AND e2.event_type = 'click'
        AND e3.event_type = 'purchase'
        AND epoch_us(e1.ts) < epoch_us(e2.ts)
        AND epoch_us(e2.ts) < epoch_us(e3.ts)
        AND epoch_us(e3.ts) - epoch_us(e1.ts) <= 86400000000)
"""

# hourly top-3 event types (count desc, type asc) with rank
ORACLE_SQL["events_hourly_top_types"] = """
    WITH c AS (
      SELECT epoch_us(ts) // 3600000000 AS h, event_type, COUNT(*)::BIGINT AS n
      FROM events GROUP BY 1, 2),
    r AS (
      SELECT *, ROW_NUMBER() OVER (PARTITION BY h ORDER BY n DESC, event_type) AS rnk
      FROM c)
    SELECT h * 3600000000 AS hour_us, event_type, n, CAST(rnk AS BIGINT) AS rnk
    FROM r WHERE rnk <= 3
"""

# NB per-class metrics: wrap the confusion-matrix oracle, derive
# tp/fp/fn per class and the mirrored double chains
ORACLE_SQL["nb_lang_f1"] = f"""
    WITH conf AS ({{NB_CONF}}),
    cls AS (SELECT DISTINCT lang FROM documents),
    m AS (
      SELECT cls.lang,
        CAST(COALESCE((SELECT SUM(n) FROM conf
                       WHERE conf.lang = cls.lang AND conf.nb_pred = cls.lang), 0) AS BIGINT) AS tp,
        CAST(COALESCE((SELECT SUM(n) FROM conf
                       WHERE conf.nb_pred = cls.lang AND conf.lang <> cls.lang), 0) AS BIGINT) AS fp,
        CAST(COALESCE((SELECT SUM(n) FROM conf
                       WHERE conf.lang = cls.lang AND conf.nb_pred <> cls.lang), 0) AS BIGINT) AS fn
      FROM cls),
    pr AS (
      SELECT lang, tp, fp, fn,
             CASE WHEN tp + fp = 0 THEN 0.0 ELSE CAST(tp AS DOUBLE) / (tp + fp) END AS p,
             CASE WHEN tp + fn = 0 THEN 0.0 ELSE CAST(tp AS DOUBLE) / (tp + fn) END AS r
      FROM m)
    SELECT lang, tp, fp, fn,
           ROUND(p, 6) AS prec, ROUND(r, 6) AS rec,
           ROUND(CASE WHEN p + r = 0.0 THEN 0.0 ELSE (2.0 * p * r) / (p + r) END, 6) AS f1
    FROM pr
"""
ORACLE_SQL["nb_lang_f1"] = ORACLE_SQL["nb_lang_f1"].replace(
    "{NB_CONF}", ORACLE_SQL["nb_lang_confusion"]
)

# family-size census: wrap the cluster oracle, count clusters per size
ORACLE_SQL["near_dup_cluster_sizes"] = (
    "SELECT cluster_size, COUNT(*)::BIGINT AS n_clusters FROM ("
    + ORACLE_SQL["near_dup_clusters"]
    + ") GROUP BY 1"
)

# hapax share per language: per-(lang, word) exact counts, one ratio div
ORACLE_SQL["lang_hapax_ratio"] = r"""
    WITH toks AS (
      SELECT lang,
             unnest(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\s+'),
                    x -> x <> '')) AS w
      FROM documents),
    wf AS (SELECT lang, w, COUNT(*)::BIGINT AS n FROM toks GROUP BY 1, 2)
    SELECT lang, COUNT(*)::BIGINT AS vocab,
           CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS hapax,
           ROUND(CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS DOUBLE) / COUNT(*), 6)
             AS hapax_ratio
    FROM wf GROUP BY lang
"""

# Yule's K: spectrum moments are Σf and Σf² per lang; one double chain
ORACLE_SQL["lang_yule_k"] = r"""
    WITH toks AS (
      SELECT lang,
             unnest(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\s+'),
                    x -> x <> '')) AS w
      FROM documents),
    wf AS (SELECT lang, w, COUNT(*)::BIGINT AS f FROM toks GROUP BY 1, 2),
    m AS (SELECT lang, CAST(SUM(f) AS BIGINT) AS n_tokens,
                 CAST(SUM(f*f) AS BIGINT) AS sq
          FROM wf GROUP BY lang)
    SELECT lang, n_tokens,
           ROUND(10000.0 * CAST(sq - n_tokens AS DOUBLE) / (n_tokens * n_tokens), 6)
             AS yule_k
    FROM m
"""

# Simpson diversity (unbiased form) of langs per source
ORACLE_SQL["source_lang_diversity"] = """
    WITH c AS (SELECT source, lang, COUNT(*)::BIGINT AS n FROM documents GROUP BY 1, 2),
    m AS (SELECT source, CAST(SUM(n) AS BIGINT) AS nd,
                 CAST(SUM(n * (n - 1)) AS BIGINT) AS pairs
          FROM c GROUP BY source)
    SELECT source, nd AS n_docs,
           CASE WHEN nd > 1
                THEN ROUND(1.0 - CAST(pairs AS DOUBLE) / (nd * (nd - 1)), 6)
                ELSE 0.0 END AS simpson_diversity
    FROM m
"""


# bounce rate: sessionize exactly as attribution, first type + size per
# session, bounce = single-event session
ORACLE_SQL["events_bounce_rate"] = f"""
    WITH e AS (SELECT user_id, event_id, event_type, epoch_us(ts) AS us FROM events),
    lagd AS (
      SELECT *, lag(us) OVER (PARTITION BY user_id ORDER BY us, event_id) AS pus
      FROM e),
    sess AS (
      SELECT *, SUM(CASE WHEN pus IS NULL OR us - pus > {_SESSION_GAP_US} THEN 1 ELSE 0 END)
                OVER (PARTITION BY user_id ORDER BY us, event_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS sid
      FROM lagd),
    s AS (
      SELECT user_id, sid,
             FIRST_VALUE(event_type)
               OVER (PARTITION BY user_id, sid ORDER BY us, event_id) AS ft,
             COUNT(*) OVER (PARTITION BY user_id, sid) AS sz,
             ROW_NUMBER() OVER (PARTITION BY user_id, sid ORDER BY us, event_id) AS rn
      FROM sess)
    SELECT ft AS first_touch, COUNT(*)::BIGINT AS n_sessions,
           CAST(SUM(CASE WHEN sz = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_bounces,
           ROUND(CAST(SUM(CASE WHEN sz = 1 THEN 1 ELSE 0 END) AS DOUBLE) / COUNT(*), 6)
             AS bounce_rate
    FROM s WHERE rn = 1 GROUP BY ft
"""

# audience jaccard: per-user type flags, pairwise overlap from flag sums
ORACLE_SQL["event_audience_jaccard"] = "\n    WITH f AS (SELECT user_id, " + ", ".join(
    f"max(CASE WHEN event_type = '{t}' THEN 1 ELSE 0 END) AS b_{t}"
    for t in _AUDIENCE_TYPES
) + " FROM events GROUP BY 1)\n    " + "\n    UNION ALL\n    ".join(
    f"""SELECT '{a}' AS type_a, '{b}' AS type_b,
           CAST(SUM(b_{a}) AS BIGINT) AS n_a,
           CAST(SUM(b_{b}) AS BIGINT) AS n_b,
           CAST(SUM(b_{a} * b_{b}) AS BIGINT) AS n_both,
           ROUND(CAST(CAST(SUM(b_{a} * b_{b}) AS BIGINT) AS DOUBLE)
                 / (CAST(SUM(b_{a}) AS BIGINT) + CAST(SUM(b_{b}) AS BIGINT)
                    - CAST(SUM(b_{a} * b_{b}) AS BIGINT)), 6) AS jaccard
    FROM f"""
    for i, a in enumerate(_AUDIENCE_TYPES)
    for b in _AUDIENCE_TYPES[i + 1 :]
)

# basket-size histogram: per-order line counts, then count per size
ORACLE_SQL["orders_basket_profile"] = """
    SELECT n_lines, COUNT(*)::BIGINT AS n_orders FROM (
      SELECT l_orderkey, COUNT(*)::BIGINT AS n_lines FROM lineitem GROUP BY 1)
    GROUP BY 1
"""

# session duration/size discrete quantiles over the 30-min-gap contract
ORACLE_SQL["session_duration_quantiles"] = f"""
    WITH e AS (SELECT user_id, epoch_us(ts) AS us FROM events),
    lagd AS (SELECT *, lag(us) OVER (PARTITION BY user_id ORDER BY us) AS pus FROM e),
    sess AS (
      SELECT *, SUM(CASE WHEN pus IS NULL OR us - pus > {_SESSION_GAP_US} THEN 1 ELSE 0 END)
                OVER (PARTITION BY user_id ORDER BY us
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS sid
      FROM lagd),
    s AS (
      SELECT user_id, sid, (max(us) - min(us)) // 1000000 AS dur,
             COUNT(*)::BIGINT AS sz
      FROM sess GROUP BY 1, 2)
    SELECT COUNT(*)::BIGINT AS n_sessions,
           CAST(quantile_disc(dur, 0.5) AS BIGINT) AS dur_p50_sec,
           CAST(quantile_disc(dur, 0.9) AS BIGINT) AS dur_p90_sec,
           CAST(quantile_disc(sz, 0.5) AS BIGINT) AS size_p50,
           CAST(quantile_disc(sz, 0.9) AS BIGINT) AS size_p90
    FROM s
"""

# Zipf coverage point: window cumsum over the (freq desc) frequency
# histogram + the identical integer boundary arithmetic
ORACLE_SQL["vocab_coverage_k"] = r"""
    WITH toks AS (
      SELECT unnest(regexp_split_to_array(lower(COALESCE(text,'')), '\s+')) AS w
      FROM documents),
    wf AS (SELECT w, COUNT(*)::BIGINT AS f FROM toks WHERE w <> '' GROUP BY w),
    fh AS (SELECT f, COUNT(*)::BIGINT AS nw FROM wf GROUP BY f),
    tot AS (SELECT CAST(SUM(f*nw) AS BIGINT) AS T, CAST(SUM(nw) AS BIGINT) AS V FROM fh),
    c AS (
      SELECT f, nw,
             CAST(COALESCE(SUM(f*nw) OVER (ORDER BY f DESC
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS cum_before,
             CAST(COALESCE(SUM(nw) OVER (ORDER BY f DESC
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS k_before
      FROM fh),
    b AS (
      SELECT c.*, tot.T, tot.V FROM c, tot
      WHERE 100 * (cum_before + f * nw) >= 90 * tot.T
        AND 100 * cum_before < 90 * tot.T)
    SELECT T AS total_tokens, V AS vocab_size,
           CAST(k_before + (90*T - 100*cum_before + 100*f - 1) // (100*f) AS BIGINT)
             AS k_90pct
    FROM b
"""

# grouped argmax over the open vocabulary (count desc, word asc)
ORACLE_SQL["top_word_per_lang"] = r"""
    WITH toks AS (
      SELECT lang,
             unnest(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\s+'),
                    x -> x <> '')) AS w
      FROM documents),
    wf AS (SELECT lang, w, COUNT(*)::BIGINT AS n FROM toks GROUP BY 1, 2),
    r AS (
      SELECT *, ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n DESC, w) AS rn
      FROM wf)
    SELECT lang, w AS word, n FROM r WHERE rn = 1
"""

# SPC p-chart: daily error share vs 3-sigma limits from the overall rate;
# the flag compares the UNROUNDED doubles through the identical chain
ORACLE_SQL["events_error_pchart"] = """
    WITH d AS (
      SELECT epoch_us(ts) // 86400000000 AS day, COUNT(*)::BIGINT AS n,
             CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS e
      FROM events GROUP BY 1),
    t AS (SELECT CAST(SUM(n) AS BIGINT) AS tn, CAST(SUM(e) AS BIGINT) AS te FROM d),
    p AS (SELECT CAST(te AS DOUBLE) / tn AS pbar FROM t)
    SELECT day * 86400000000 AS day_us, n, e AS n_err,
           ROUND(CAST(e AS DOUBLE) / n, 6) AS err_rate,
           ROUND(pbar + 3.0 * sqrt(pbar * (1.0 - pbar) / n), 6) AS ucl,
           ROUND(pbar - 3.0 * sqrt(pbar * (1.0 - pbar) / n), 6) AS lcl,
           CAST(CASE WHEN CAST(e AS DOUBLE) / n > pbar + 3.0 * sqrt(pbar * (1.0 - pbar) / n)
                       OR CAST(e AS DOUBLE) / n < pbar - 3.0 * sqrt(pbar * (1.0 - pbar) / n)
                THEN 1 ELSE 0 END AS BIGINT) AS out_of_control
    FROM d, p
"""

# burstiness: per-doc count moments (absent docs contribute 0), top-20
# by frequency, mirrored double chains for mean and Fano
ORACLE_SQL["word_burstiness_top20"] = r"""
    WITH toks AS (
      SELECT doc_id,
             unnest(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\s+'),
                    x -> x <> '')) AS w
      FROM documents),
    dc AS (SELECT doc_id, w, COUNT(*)::BIGINT AS c FROM toks GROUP BY 1, 2),
    agg AS (SELECT w, CAST(SUM(c) AS BIGINT) AS n, CAST(SUM(c*c) AS BIGINT) AS sq
            FROM dc GROUP BY w),
    top AS (SELECT * FROM agg ORDER BY n DESC, w LIMIT 20),
    d AS (SELECT COUNT(*)::BIGINT AS nd FROM documents)
    SELECT w AS word, n,
           ROUND(CAST(n AS DOUBLE) / (SELECT nd FROM d), 6) AS mean_per_doc,
           ROUND(CAST((SELECT nd FROM d) * sq - n*n AS DOUBLE)
                 / ((SELECT nd FROM d) * n), 6) AS fano
    FROM top
"""

# Markov argmax self-consistency: transition counts via lead(), per-cur
# argmax prediction (count desc, type asc), exact hit accounting
ORACLE_SQL["markov_next_accuracy"] = """
    WITH e AS (SELECT user_id, event_id, event_type, epoch_us(ts) AS us FROM events),
    big AS (
      SELECT event_type AS cur,
             lead(event_type) OVER (PARTITION BY user_id ORDER BY us, event_id) AS nxt
      FROM e),
    tc AS (SELECT cur, nxt, COUNT(*)::BIGINT AS n FROM big
           WHERE nxt IS NOT NULL GROUP BY 1, 2),
    pr AS (
      SELECT cur, nxt AS predicted,
             ROW_NUMBER() OVER (PARTITION BY cur ORDER BY n DESC, nxt) AS rn
      FROM tc),
    per AS (
      SELECT tc.cur, p.predicted,
             CAST(SUM(tc.n) AS BIGINT) AS n_transitions,
             CAST(SUM(CASE WHEN tc.nxt = p.predicted THEN tc.n ELSE 0 END) AS BIGINT)
               AS n_correct
      FROM tc JOIN (SELECT cur, predicted FROM pr WHERE rn = 1) p USING (cur)
      GROUP BY 1, 2)
    SELECT cur, predicted, n_transitions, n_correct,
           ROUND(CAST(n_correct AS DOUBLE) / n_transitions, 6) AS accuracy
    FROM per
    UNION ALL
    SELECT '__overall__', '',
           CAST(SUM(n_transitions) AS BIGINT), CAST(SUM(n_correct) AS BIGINT),
           ROUND(CAST(CAST(SUM(n_correct) AS BIGINT) AS DOUBLE)
                 / CAST(SUM(n_transitions) AS BIGINT), 6)
    FROM per
    HAVING COUNT(*) > 0
"""

# staged-index BM25: the oracle re-derives tokenization, stats, scoring
# and the top-10 from documents — first principles, not the index itself
ORACLE_SQL["search_index_pipeline"] = """
    WITH w AS (
        SELECT doc_id, string_split(COALESCE(text, ''), ' ') AS words
        FROM documents
    ),
    stats AS (
        SELECT CAST(count(*) AS BIGINT) AS nd,
               CAST(SUM(len(words)) AS BIGINT) AS nw,
               CAST(count(*) FILTER (list_contains(words, 'hash')) AS BIGINT) AS df0,
               CAST(count(*) FILTER (list_contains(words, 'join')) AS BIGINT) AS df1,
               CAST(count(*) FILTER (list_contains(words, 'window')) AS BIGINT) AS df2
        FROM w
    ),
    scored AS (
        SELECT doc_id,
               len(list_filter(words, x -> x = 'hash'))
                 + len(list_filter(words, x -> x = 'join'))
                 + len(list_filter(words, x -> x = 'window')) AS any_tf,
               round(
                 ((ln(1.0 + (nd - df0 + 0.5) / (df0 + 0.5))
                    * (len(list_filter(words, x -> x = 'hash')) * 2.2))
                   / (len(list_filter(words, x -> x = 'hash'))
                      + 1.2 * (0.25 + (0.75 * len(words)) / (CAST(nw AS DOUBLE) / nd)))
                 + (ln(1.0 + (nd - df1 + 0.5) / (df1 + 0.5))
                    * (len(list_filter(words, x -> x = 'join')) * 2.2))
                   / (len(list_filter(words, x -> x = 'join'))
                      + 1.2 * (0.25 + (0.75 * len(words)) / (CAST(nw AS DOUBLE) / nd))))
                 + (ln(1.0 + (nd - df2 + 0.5) / (df2 + 0.5))
                    * (len(list_filter(words, x -> x = 'window')) * 2.2))
                   / (len(list_filter(words, x -> x = 'window'))
                      + 1.2 * (0.25 + (0.75 * len(words)) / (CAST(nw AS DOUBLE) / nd))),
                 6) AS bm25
        FROM w, stats
    )
    SELECT doc_id, bm25 FROM scored WHERE any_tf > 0
    ORDER BY bm25 DESC, doc_id
    LIMIT 10
"""

# exact 1R stump: window cumsums over the bounded feature histogram +
# the reject-all sentinel; min errors, smallest-threshold tie-break
ORACLE_SQL["stump_lang_classifier"] = rf"""
    WITH toks AS (
      SELECT lang,
             list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\s+'),
                         x -> x <> '') AS w
      FROM documents),
    feat AS (
      SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS en,
             (1000 * len(list_filter(w, x -> list_contains({_STOP_SQL}, x)))) // len(w) AS f
      FROM toks WHERE len(w) > 0),
    h AS (SELECT f, CAST(SUM(en) AS BIGINT) AS n_en,
                 CAST(SUM(1 - en) AS BIGINT) AS n_ot
          FROM feat GROUP BY f),
    tot AS (SELECT CAST(SUM(n_en) AS BIGINT) AS te, CAST(SUM(n_ot) AS BIGINT) AS to_,
                   CAST(SUM(n_en) + SUM(n_ot) AS BIGINT) AS n FROM h),
    c AS (
      SELECT f,
             CAST(COALESCE(SUM(n_en) OVER (ORDER BY f
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS en_below,
             CAST(COALESCE(SUM(n_ot) OVER (ORDER BY f
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS ot_below
      FROM h),
    cand AS (
      SELECT f AS t, en_below + ((SELECT to_ FROM tot) - ot_below) AS errs FROM c
      UNION ALL
      SELECT (SELECT max(f) FROM h) + 1, (SELECT te FROM tot))
    SELECT CAST(t AS BIGINT) AS threshold, CAST(errs AS BIGINT) AS n_errors,
           (SELECT n FROM tot) AS n_docs,
           ROUND(CAST((SELECT n FROM tot) - errs AS DOUBLE) / (SELECT n FROM tot), 6)
             AS accuracy
    FROM cand ORDER BY errs, t LIMIT 1
"""

# PSI drift bins: explicit window-cumsum decile cuts with the integer
# ceil(i*n/10) target; per-bin p/q and the mirrored (p-q)*ln(p/q) term
ORACLE_SQL["events_value_psi_bins"] = """
    WITH bnd AS (SELECT min(epoch_us(ts)) AS mn, max(epoch_us(ts)) AS mx FROM events),
    e AS (
      SELECT CASE WHEN epoch_us(ts) >= (bnd.mn + bnd.mx) // 2 THEN 1 ELSE 0 END AS half,
             CAST(floor(value * 100 + 0.5) AS BIGINT) AS cent
      FROM events, bnd WHERE value IS NOT NULL),
    ref AS (SELECT cent, COUNT(*)::BIGINT AS n FROM e WHERE half = 0 GROUP BY 1),
    nr AS (SELECT CAST(SUM(n) AS BIGINT) AS t FROM ref),
    ch AS (SELECT cent, CAST(SUM(n) OVER (ORDER BY cent) AS BIGINT) AS cum FROM ref),
    cuts AS (
      SELECT i.i,
             (SELECT min(cent) FROM ch
              WHERE cum >= (i.i * (SELECT t FROM nr) + 9) // 10) AS cut
      FROM (SELECT unnest(range(1, 10)) AS i) i),
    binned AS (
      SELECT e.half,
             (SELECT COUNT(*) FROM cuts WHERE e.cent > cuts.cut) AS bin
      FROM e),
    pb AS (
      SELECT bin,
             CAST(SUM(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_ref,
             CAST(SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_cur
      FROM binned GROUP BY 1),
    allb AS (SELECT unnest(range(0, 10)) AS bin),
    j AS (
      SELECT CAST(allb.bin AS BIGINT) AS bin,
             COALESCE(pb.n_ref, 0) AS n_ref, COALESCE(pb.n_cur, 0) AS n_cur
      FROM allb LEFT JOIN pb USING (bin)),
    t2 AS (SELECT CAST(SUM(n_ref) AS BIGINT) AS tr, CAST(SUM(n_cur) AS BIGINT) AS tc FROM j)
    SELECT bin, n_ref, n_cur,
           ROUND(CAST(n_ref AS DOUBLE) / (SELECT tr FROM t2), 6) AS p,
           ROUND(CAST(n_cur AS DOUBLE) / (SELECT tc FROM t2), 6) AS q,
           ROUND(CASE WHEN n_ref = 0 OR n_cur = 0 THEN 0.0
                 ELSE (CAST(n_ref AS DOUBLE) / (SELECT tr FROM t2)
                       - CAST(n_cur AS DOUBLE) / (SELECT tc FROM t2))
                      * ln((CAST(n_ref AS DOUBLE) / (SELECT tr FROM t2))
                           / (CAST(n_cur AS DOUBLE) / (SELECT tc FROM t2)))
                 END, 6) AS psi_term
    FROM j
"""

# hourly active-session census: sessions explode to covered hour cells
ORACLE_SQL["sessions_concurrency_profile"] = f"""
    WITH e AS (SELECT user_id, epoch_us(ts) AS us FROM events),
    lagd AS (SELECT *, lag(us) OVER (PARTITION BY user_id ORDER BY us) AS pus FROM e),
    sess AS (
      SELECT *, SUM(CASE WHEN pus IS NULL OR us - pus > {_SESSION_GAP_US} THEN 1 ELSE 0 END)
                OVER (PARTITION BY user_id ORDER BY us
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS sid
      FROM lagd),
    s AS (SELECT user_id, sid, min(us) AS a, max(us) AS b FROM sess GROUP BY 1, 2),
    hours AS (
      SELECT unnest(range(a // 3600000000, b // 3600000000 + 1)) AS hour FROM s)
    SELECT hour * 3600000000 AS hour_us, COUNT(*)::BIGINT AS n_active_sessions
    FROM hours GROUP BY 1
"""

# per-part argmin supplier by min line cents (tie: suppkey)
ORACLE_SQL["part_cheapest_supplier"] = """
    WITH ps AS (
      SELECT l_partkey, l_suppkey,
             CAST(MIN(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS c
      FROM lineitem GROUP BY 1, 2),
    r AS (
      SELECT *, ROW_NUMBER() OVER (PARTITION BY l_partkey ORDER BY c, l_suppkey) AS rn
      FROM ps)
    SELECT l_partkey, l_suppkey, c AS min_cents FROM r WHERE rn = 1
"""

# reciprocity over the pagerank-contract edges: reciprocated directed
# edges / all directed edges
ORACLE_SQL["link_reciprocity"] = f"""
    WITH fx AS (SELECT * FROM read_parquet('{_PAGES_FIXTURE}')),
    mt AS (
      SELECT url, unnest(regexp_extract_all(page, '<a href="[^"]*">[^<]*</a>')) AS tag
      FROM fx WHERE route = 'html' AND instr(page, chr(65533)) = 0),
    hrefs AS (SELECT url, regexp_extract(tag, '"([^"]*)"', 1) AS href FROM mt),
    edges0 AS (
      SELECT DISTINCT url AS src,
             CASE WHEN href LIKE 'http://%' OR href LIKE 'https://%' THEN href
                  WHEN href LIKE '/%' THEN regexp_extract(url, '^(https?://[^/]+)', 1) || href
                  ELSE NULL END AS dst
      FROM hrefs),
    edges AS (SELECT src, dst FROM edges0 WHERE dst IS NOT NULL AND dst <> src),
    re AS (SELECT COUNT(*)::BIGINT AS n_recip
           FROM edges a JOIN edges b ON b.src = a.dst AND b.dst = a.src),
    ne AS (SELECT COUNT(*)::BIGINT AS n FROM edges)
    SELECT (SELECT n FROM ne) AS n_edges,
           (SELECT n_recip FROM re) AS n_reciprocal,
           ROUND(CAST((SELECT n_recip FROM re) AS DOUBLE) / (SELECT n FROM ne), 6)
             AS reciprocity
"""

# link-target IN-degree histogram over the pagerank-contract edges
# (targets only — a page with zero in-links emits no row)
ORACLE_SQL["link_degree_histogram"] = f"""
    WITH fx AS (SELECT * FROM read_parquet('{_PAGES_FIXTURE}')),
    pg AS (SELECT url, page FROM fx
           WHERE route = 'html' AND instr(page, chr(65533)) = 0),
    mt AS (
      SELECT url, unnest(regexp_extract_all(page, '<a href="[^"]*">[^<]*</a>')) AS tag
      FROM pg),
    hrefs AS (SELECT url, regexp_extract(tag, '"([^"]*)"', 1) AS href FROM mt),
    edges0 AS (
      SELECT DISTINCT url AS src,
             CASE WHEN href LIKE 'http://%' OR href LIKE 'https://%' THEN href
                  WHEN href LIKE '/%' THEN regexp_extract(url, '^(https?://[^/]+)', 1) || href
                  ELSE NULL END AS dst
      FROM hrefs),
    edges AS (SELECT src, dst FROM edges0 WHERE dst IS NOT NULL AND dst <> src),
    deg AS (
      SELECT dst, COUNT(*)::BIGINT AS degree
      FROM edges GROUP BY dst)
    SELECT degree, COUNT(*)::BIGINT AS n_targets FROM deg GROUP BY 1
"""

# per-route text-layer census over the fixture's visibility contract
ORACLE_SQL["pages_route_stats"] = f"""
    WITH fx AS (SELECT * FROM read_parquet('{_PAGES_FIXTURE}')),
    c AS (
      SELECT route, url,
             CASE WHEN route = 'html' THEN length(page)
                  WHEN route = 'text' THEN length(text)
                  ELSE 0 END AS n
      FROM fx)
    SELECT route, COUNT(*)::BIGINT AS n_pages,
           CAST(SUM(n) AS BIGINT) AS total_chars,
           CAST(MAX(n) AS BIGINT) AS max_chars,
           CAST(SUM(md5_number_upper(url || '|' || CAST(n AS VARCHAR)) % 1000000007)
                AS BIGINT) AS payload_fp
    FROM c GROUP BY route
"""

# mutual kNN: reciprocal membership of the exact cosine top-5 (self
# excluded), both directions required
ORACLE_SQL["knn_mutual_pairs"] = """
    WITH knn AS (
      SELECT q.vec_id AS src, n.vec_id AS dst
      FROM embeddings q, LATERAL (
        SELECT e.vec_id FROM embeddings e
        WHERE e.vec_id <> q.vec_id
        ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id ASC
        LIMIT 5) n)
    SELECT a.src AS "left", a.dst AS "right"
    FROM knn a JOIN knn b ON b.src = a.dst AND b.dst = a.src
    WHERE a.src < a.dst
"""

# HITS, 2 unrolled rounds: integer message sums over the fixture-derived
# edges (same edge contract as link_pagerank), max-normalized via (v·S)//max
ORACLE_SQL["link_hits"] = f"""
    WITH fx AS (SELECT * FROM read_parquet('{_PAGES_FIXTURE}')),
    mt AS (
      SELECT url, unnest(regexp_extract_all(page, '<a href="[^"]*">[^<]*</a>')) AS tag
      FROM fx WHERE route = 'html' AND instr(page, chr(65533)) = 0
    ),
    hrefs AS (
      SELECT url, regexp_extract(tag, '"([^"]*)"', 1) AS href FROM mt
    ),
    edges0 AS (
      SELECT DISTINCT url AS src,
             CASE WHEN href LIKE 'http://%' OR href LIKE 'https://%' THEN href
                  WHEN href LIKE '/%' THEN regexp_extract(url, '^(https?://[^/]+)', 1) || href
                  ELSE NULL END AS dst
      FROM hrefs
    ),
    edges AS (SELECT src, dst FROM edges0 WHERE dst IS NOT NULL AND dst <> src),
    nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges),
    h0 AS (SELECT node, CAST(1000000 AS BIGINT) AS v FROM nodes),
    a1r AS (SELECT nd.node, CAST(COALESCE(SUM(h.v), 0) AS BIGINT) AS v
            FROM nodes nd
            LEFT JOIN edges e ON e.dst = nd.node
            LEFT JOIN h0 h ON h.node = e.src
            GROUP BY nd.node),
    a1 AS (SELECT node, CAST((v * 1000000) // (SELECT MAX(v) FROM a1r) AS BIGINT) AS v FROM a1r),
    h1r AS (SELECT nd.node, CAST(COALESCE(SUM(a.v), 0) AS BIGINT) AS v
            FROM nodes nd
            LEFT JOIN edges e ON e.src = nd.node
            LEFT JOIN a1 a ON a.node = e.dst
            GROUP BY nd.node),
    h1 AS (SELECT node, CAST((v * 1000000) // (SELECT MAX(v) FROM h1r) AS BIGINT) AS v FROM h1r),
    a2r AS (SELECT nd.node, CAST(COALESCE(SUM(h.v), 0) AS BIGINT) AS v
            FROM nodes nd
            LEFT JOIN edges e ON e.dst = nd.node
            LEFT JOIN h1 h ON h.node = e.src
            GROUP BY nd.node),
    a2 AS (SELECT node, CAST((v * 1000000) // (SELECT MAX(v) FROM a2r) AS BIGINT) AS v FROM a2r),
    h2r AS (SELECT nd.node, CAST(COALESCE(SUM(a.v), 0) AS BIGINT) AS v
            FROM nodes nd
            LEFT JOIN edges e ON e.src = nd.node
            LEFT JOIN a2 a ON a.node = e.dst
            GROUP BY nd.node),
    h2 AS (SELECT node, CAST((v * 1000000) // (SELECT MAX(v) FROM h2r) AS BIGINT) AS v FROM h2r)
    SELECT a2.node AS url, a2.v AS auth, h2.v AS hub
    FROM a2 JOIN h2 ON h2.node = a2.node
    ORDER BY a2.v DESC, a2.node LIMIT 20
"""

# staged-output oracle for the flagship lineage counters: re-derives
# docs/spans/bytes per pid in SQL from the shard parquet the job itself
# wrote (shard=s0/pid=K hive layout) — value-checks the _shard_counters
# aggregation and the manifest JSON roundtrip above the per-row kernels
ORACLE_SQL["pages_pipeline_counters"] = f"""
    SELECT CAST(pid AS BIGINT) AS pid,
           COUNT(*)::BIGINT AS docs,
           CAST(SUM(n_spans) AS BIGINT) AS spans,
           CAST(SUM(n_bytes) AS BIGINT) AS bytes
    FROM read_parquet('{_PPC_STAGING}/shard=s0/*/*.parquet', hive_partitioning = true)
    GROUP BY pid
"""

# aggregation-layer oracles for the two stub-backend actor-pool queries:
# re-derive the distributed counts from the staged per-entity / per-media
# rows the queries themselves wrote (detection/OCR semantics stay pinned
# by parity tests — SQL checks the shuffle/aggregate machinery)
ORACLE_SQL["ner_stub_entity_counts"] = f"""
    SELECT type, source, COUNT(*)::BIGINT AS n
    FROM read_parquet('{_NER_STUB_STAGING}/*.parquet')
    GROUP BY type, source
"""

ORACLE_SQL["image_deid_stub_stats"] = f"""
    WITH s AS (SELECT * FROM read_parquet('{_IMG_STUB_STAGING}/*.parquet'))
    SELECT 'n_media' AS metric, COUNT(*)::BIGINT AS value FROM s
    UNION ALL SELECT 'total_boxes', CAST(SUM(n_boxes) AS BIGINT) FROM s
    UNION ALL SELECT 'total_spans', CAST(SUM(n_spans) AS BIGINT) FROM s
"""

# staged-output oracles for the two training-data queries whose per-row
# values come from seeded RNG draws / difflib: placeholder_corpus splices
# the staged fake values over the staged spans; deid_eval_aggregate folds
# the staged per-example scores into the corpus report
ORACLE_SQL["placeholder_corpus"] = f"""
    WITH ex AS (SELECT * FROM read_parquet('{_PLACEHOLDER_STAGING}/examples/*.parquet')),
    sp AS (
        SELECT example_id, type, fake, "start", "end",
               row_number() OVER (PARTITION BY example_id ORDER BY "start") AS k,
               lead("start") OVER (PARTITION BY example_id ORDER BY "start") AS next_start
        FROM read_parquet('{_PLACEHOLDER_STAGING}/spans/*.parquet')
    ),
    heads AS (
        SELECT ex.example_id, 0 AS k,
               CASE WHEN f.s0 IS NULL THEN ex.text ELSE substr(ex.text, 1, f.s0) END AS head
        FROM ex LEFT JOIN (SELECT example_id, min("start") AS s0 FROM sp GROUP BY example_id) f
          ON f.example_id = ex.example_id
    ),
    pieces AS (
        SELECT example_id, k, head AS m, head AS f FROM heads
        UNION ALL
        SELECT example_id, k, '<' || type || '>' || seg, fake || seg
        FROM (
            SELECT sp.example_id, sp.k, sp.type, sp.fake,
                   CASE WHEN sp.next_start IS NULL THEN substr(ex.text, sp."end" + 1)
                        ELSE substr(ex.text, sp."end" + 1, sp.next_start - sp."end") END AS seg
            FROM sp JOIN ex ON ex.example_id = sp.example_id
        )
    )
    SELECT example_id,
           string_agg(m, '' ORDER BY k) AS masked_text,
           string_agg(f, '' ORDER BY k) AS filled_text
    FROM pieces
    GROUP BY example_id
"""

ORACLE_SQL["deid_eval_aggregate"] = f"""
    WITH a AS (
        SELECT COUNT(*) AS n,
               SUM(pii_total) AS pii,
               SUM(pii_leak_count) AS leaks,
               AVG(pii_removal_recall) AS recall,
               AVG(over_rewrite_rate) AS over_rewrite,
               AVG(type_consistency) AS type_consistency,
               AVG(repetition_3gram_rate) AS repetition,
               AVG(CASE WHEN format_compliant THEN 1.0 ELSE 0.0 END) AS compliant
        FROM read_parquet('{_EVAL_STAGING}/*.parquet')
    )
    SELECT 'count' AS metric, CAST(n AS DOUBLE) AS value FROM a
    UNION ALL SELECT 'format_compliance_rate', compliant FROM a
    UNION ALL SELECT 'over_rewrite_rate', over_rewrite FROM a
    UNION ALL SELECT 'pii_leak_count', CAST(leaks AS DOUBLE) FROM a
    UNION ALL SELECT 'pii_leak_rate',
        CASE WHEN pii > 0 THEN CAST(leaks AS DOUBLE) / CAST(pii AS DOUBLE) ELSE 0.0 END FROM a
    UNION ALL SELECT 'pii_removal_recall', recall FROM a
    UNION ALL SELECT 'pii_total', CAST(pii AS DOUBLE) FROM a
    UNION ALL SELECT 'repetition_3gram_rate', repetition FROM a
    UNION ALL SELECT 'type_consistency', type_consistency FROM a
"""
