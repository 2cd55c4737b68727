"""End-to-end de-identification pipeline composition.

Ray-native restatement of the reference flagship (SURVEY.md §3.1):

    read_parquet(pages)
      → map_batches(add_pid)                 # url-hash partition column
      → map_batches(fused extract+deid)      # Arrow in / Arrow out
      → write_datasink(out/shard=<id>/)      # one pid-sorted file per task
      → per-pid counters + lineage manifest  # state/manifest.py

The pipeline is lazy/streaming end to end: nothing materializes the full
dataset.  Each write task writes one parquet file, its rows sorted by
the url-hash ``pid`` (a stored column, not a ``pid=K/`` directory), counts
the rows it writes and returns that partial with its write result; the
driver merges the partials into the shard manifest, so nothing scans the
written output again.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Any, Callable

import pyarrow as pa
import pyarrow.compute as pc
from ray.data._internal.datasource.parquet_datasink import ParquetDatasink
from ray.data.block import BlockAccessor

from ..config import EngineConfig
from ..stages.deid import add_pid, make_deid_batch_fn
from ..state.manifest import (
    ShardManifest,
    clear_partial_output,
    committed_shards,
    shard_output_dir,
    write_manifest,
)


def build_deid_pipeline(ds, cfg: EngineConfig | None = None):
    """Attach the pid + fused deid stages to a pages Dataset (lazy)."""
    cfg = cfg or EngineConfig()
    ds = ds.map_batches(
        partial(add_pid, num_partitions=cfg.num_partitions),
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )
    return ds.map_batches(
        make_deid_batch_fn(cfg),
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )


_TIMING_COLUMNS = (
    ("extract", "t_extract_ms"),
    ("detect", "t_detect_ms"),
    ("replace", "t_replace_ms"),
)


def _value_counts(column) -> dict[str, int]:
    """Non-null value → row count of one string column."""
    counts = pc.value_counts(column.drop_null())
    return dict(zip(counts.field("values").to_pylist(), counts.field("counts").to_pylist()))


def _write_partial(table: pa.Table) -> dict[str, Any]:
    """The counters of the rows one write task wrote: per-pid docs / bytes /
    spans, the per-stage millisecond sums, and route and error counts."""
    # one vectorized hash aggregate (pids ≤ num_partitions keys) — never a
    # per-row Python loop
    agg = table.group_by("pid").aggregate(
        [("pid", "count"), ("n_bytes", "sum"), ("n_spans", "sum")]
    )
    per_pid = {
        str(p): {"docs": d, "bytes": b, "spans": s}
        for p, d, b, s in zip(
            agg["pid"].to_pylist(),
            agg["pid_count"].to_pylist(),
            agg["n_bytes_sum"].to_pylist(),
            agg["n_spans_sum"].to_pylist(),
        )
    }
    return {
        "per_pid": per_pid,
        "timings_ms": {
            stage: float(pc.sum(table[col]).as_py() or 0.0) for stage, col in _TIMING_COLUMNS
        },
        "routes": _value_counts(table["route"]),
        "errors": _value_counts(table["error"]),
    }


class _CountingParquetSink(ParquetDatasink):
    """A parquet sink that writes one file per write task, with no parquet
    min/max statistics, and whose write tasks also return the counters of
    the rows they wrote.  After the write, ``write_returns`` holds one
    partial per task for :func:`_shard_counters`, so nothing reads the
    written files back.

    A file holds the task's rows sorted by ``(pid, url)``, with ``pid`` a
    stored column: its row order does not depend on the order its blocks
    arrived in, and the per-pid lineage is the manifest's, not a directory
    per pid.  No reader of the deid output prunes on statistics, so they
    would only copy whole documents (raw PII) into every page header and
    footer."""

    def __init__(self, path: str):
        super().__init__(path, arrow_parquet_args={"write_statistics": False})
        self.write_returns: list = []

    def write(self, blocks, ctx) -> dict[str, Any] | None:
        tables = [BlockAccessor.for_block(block).to_arrow() for block in blocks]
        tables = [table for table in tables if table.num_rows]
        if not tables:
            return None
        table = pa.concat_tables(tables).sort_by([("pid", "ascending"), ("url", "ascending")])
        super().write([table], ctx)
        return _write_partial(table)

    def on_write_complete(self, write_result) -> None:
        # the parent deletes the directory of a zero-row shard
        super().on_write_complete(write_result)
        self.write_returns = write_result.write_returns


def _shard_counters(partials: list) -> dict[str, Any]:
    """Merge the write tasks' partials into the shard's manifest counters:
    docs, bytes, spans, per-pid, per-stage timings, route and error counts.
    An empty input shard has no partials and gets zero counters."""
    per_pid: dict[str, dict[str, int]] = {}
    timings_ms = dict.fromkeys((stage for stage, _ in _TIMING_COLUMNS), 0.0)
    routes: Counter = Counter()
    errors: Counter = Counter()
    for part in filter(None, partials):
        for pid, counts in part["per_pid"].items():
            slot = per_pid.setdefault(pid, {"docs": 0, "bytes": 0, "spans": 0})
            for name, value in counts.items():
                slot[name] += value
        for stage, ms in part["timings_ms"].items():
            timings_ms[stage] += ms
        routes.update(part["routes"])
        errors.update(part["errors"])
    return {
        "docs": sum(c["docs"] for c in per_pid.values()),
        "bytes": sum(c["bytes"] for c in per_pid.values()),
        "spans": sum(c["spans"] for c in per_pid.values()),
        "per_pid": per_pid,
        "timings_ms": {stage: round(ms, 1) for stage, ms in timings_ms.items()},
        "routes": dict(routes),
        "errors": dict(errors),
    }


def _warm_fsspec_http_probe() -> None:
    """Make Ray's per-write ``from fsspec.implementations.http import
    HTTPFileSystem`` probe deterministic under shard threads.

    With aiohttp absent that import fails with ModuleNotFoundError, which
    Ray's ``_is_http_filesystem`` catches — but a FAILED import is never
    cached, so concurrent shard threads re-execute the module body and the
    import-lock deadlock-avoidance can hand one thread a partially
    initialized module, surfacing ``ImportError: cannot import name
    'HTTPFileSystem'`` (not a ModuleNotFoundError; uncaught).  Cache a
    sentinel module once on the driver thread: ``isinstance(fs, sentinel)``
    is always False, which is exactly the right answer for the local and
    parquet filesystems these jobs write to.  Only a missing module
    installs the sentinel; any other ImportError is that transient
    partial-module race, so the import is retried."""
    import sys
    import types

    attempts = 3
    for attempt in range(attempts):
        try:
            from fsspec.implementations.http import HTTPFileSystem  # noqa: F401

            return
        except ModuleNotFoundError:
            break
        except ImportError:
            if attempt == attempts - 1:
                raise
    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # sentinel: nothing is ever an instance
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod


def _process_shard(
    out_dir: str, shard_id: str, factory: Callable[[], Any], fp: str, cfg: EngineConfig
) -> ShardManifest:
    """Process one shard end to end and commit it (data write → manifest
    rename).  Thread-safe: every path it touches is derived from shard_id."""
    clear_partial_output(out_dir, shard_id)
    ds = build_deid_pipeline(factory(), cfg)
    # url-hash partitioned layout (north rule): each write task writes one
    # file sorted by pid, and the manifest records the per-pid counters.
    # The sink is per shard, so concurrent shards share nothing.
    sink = _CountingParquetSink(shard_output_dir(out_dir, shard_id))
    ds.write_datasink(sink)
    manifest = ShardManifest(
        shard_id=shard_id,
        # the caller-supplied INPUT fingerprint when given ('' when
        # not): a sha of the shard_id carried zero lineage
        # information beyond the id it sat next to
        input_fingerprint=fp,
        **_shard_counters(sink.write_returns),
    )
    write_manifest(out_dir, manifest)
    return manifest


def run_deid_job(
    shards: list[tuple[str, Callable[[], Any]]],
    out_dir: str,
    cfg: EngineConfig | None = None,
    fingerprints: dict[str, str] | None = None,
    max_in_flight: int = 1,
) -> dict[str, Any]:
    """Run (or resume) the deid job over input shards.

    ``shards`` is a list of ``(shard_id, dataset_factory)``; each factory
    returns a lazy pages Dataset for that input slice.  Committed shards are
    skipped; each processed shard commits atomically (data write → manifest
    rename).  Returns the run report (reference report shape,
    run_multi_dataset_pipeline.py:805-830).

    ``fingerprints`` optionally maps shard_id → an INPUT fingerprint the
    caller derives from the actual input (file etags, sizes+mtimes, a
    content hash).  A committed shard whose stored fingerprint differs is
    re-run instead of skipped — without it, resume trusts the shard_id
    alone (the factory is opaque, so the engine cannot fingerprint the
    input itself).

    ``max_in_flight`` > 1 keeps a bounded window of shards executing
    concurrently (driver threads, one streaming Dataset each — Ray Data
    pipelines from separate threads share the cluster).  On a real cluster
    this stops a small straggler shard from idling the other nodes; the
    per-shard commit protocol is unchanged, so a crash mid-window still
    resumes exactly (committed shards skip, in-flight shards redo)."""
    cfg = cfg or EngineConfig()
    already = committed_shards(out_dir)
    report: dict[str, Any] = {"shards_total": len(shards), "shards_skipped": 0, "shards_run": 0}

    fingerprints = fingerprints or {}
    manifests: dict[str, ShardManifest] = {}
    to_run: list[tuple[str, Callable[[], Any], str]] = []
    for shard_id, factory in shards:
        fp = fingerprints.get(shard_id, "")
        prior = already.get(shard_id)
        if prior is not None and (not fp or prior.input_fingerprint == fp):
            manifests[shard_id] = prior
            report["shards_skipped"] += 1
        else:
            to_run.append((shard_id, factory, fp))

    if max_in_flight <= 1 or len(to_run) <= 1:
        for shard_id, factory, fp in to_run:
            manifests[shard_id] = _process_shard(out_dir, shard_id, factory, fp, cfg)
            report["shards_run"] += 1
    else:
        from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

        _warm_fsspec_http_probe()
        first_err: BaseException | None = None
        with ThreadPoolExecutor(
            max_workers=max_in_flight, thread_name_prefix="deid-shard"
        ) as ex:
            futs = {
                ex.submit(_process_shard, out_dir, sid, fac, fp, cfg): sid
                for sid, fac, fp in to_run
            }
            done, not_done = wait(futs, return_when=FIRST_EXCEPTION)
            # a failure stops the window: cancel whatever is still QUEUED
            # and drain only the in-flight shards (their commits stay valid
            # for resume).  NB: never as_completed + shutdown(cancel_futures)
            # — a future cancelled while queued skips
            # set_running_or_notify_cancel, so as_completed's waiter is
            # never notified and the loop hangs forever.
            still_running = {fut for fut in not_done if not fut.cancel()}
            wait(still_running)
            for fut, sid in futs.items():
                if fut.cancelled():
                    continue
                try:
                    manifests[sid] = fut.result()
                    report["shards_run"] += 1
                except BaseException as err:  # noqa: BLE001 — first failure wins
                    if first_err is None:
                        first_err = err
        if first_err is not None:
            raise first_err

    totals = {"docs": 0, "bytes": 0, "spans": 0}
    for shard_id, _ in shards:  # input order — deterministic report
        manifest = manifests[shard_id]
        totals["docs"] += manifest.docs
        totals["bytes"] += manifest.bytes
        totals["spans"] += manifest.spans
    report.update(totals)
    return report
