"""The three workloads: inputs, warm-up, one closed-loop iteration, checks.

An iteration is the unit the closed loop repeats, with one client:

- ``pages_flagship``: one ``run_deid_job`` over the sharded pages corpus,
  written pid-partitioned with committed manifests.  Units are shards.
- ``docs_text``: the docs in four requests, each one ``build_deid_pipeline``
  consumed in memory.  Units are requests.
- ``query_cogroup``: the query mix, back to back in a seed-shuffled order.
  Units are queries.

``run`` returns the iteration's wall time and unit latencies; the output
check runs after the clock stops, which ``run`` signals through
``stopped()``.
"""

from __future__ import annotations

import os
import random
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import pyarrow as pa
import pyarrow.parquet as pq

from . import checks, dsstats, inputs
from .tracing import Recorder


@dataclass
class Iteration:
    wall_s: float
    units_s: list[float]
    out_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    write_bytes: int = 0  # parquet files the sink wrote
    raw_pii_bytes: int = 0
    stats: list[str] = field(default_factory=list)  # ds.stats() texts (traced runs)
    errors: list[str] = field(default_factory=list)


def _span(rec: Recorder | None, name: str):
    return rec.span(name) if rec is not None else nullcontext()


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, names in os.walk(path) for f in names)


def _read_tables(paths: list[str]) -> list[pa.Table]:
    return [pq.read_table(p) for p in paths]


class _DeidWorkload:
    """Shared by the two deid workloads: inputs are parquet files whose rows
    are checked against the in-process ``process_document`` oracle."""

    name = ""
    files: list[str]
    expected: dict[str, str]

    def _prepare(self, root: str, key: str, build) -> None:
        """Inputs cached by ``key``; the oracle digests cached apart from
        them, by ``key`` and a hash of the program's source, so an oracle is
        never reused for a program it was not computed with."""
        d = inputs.cached_dir(root, key, build)
        self.files = sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))

        def build_oracle(out: str) -> None:
            digests = checks.oracle_digests(_read_tables(self.files))
            inputs.write_json(os.path.join(out, "oracle.json"), digests)

        oracle_key = f"oracle-{key}-p{inputs.source_hash(root, inputs.PROGRAM)}"
        o = inputs.cached_dir(root, oracle_key, build_oracle)
        self.expected = inputs.read_json(os.path.join(o, "oracle.json"))

    @property
    def records(self) -> int:
        return len(self.expected)

    def prime(self) -> Iteration:
        """One untimed, checked pass over the last input file: fills the
        worker's caches (every extract route, the rules, the replacement
        cache as a full iteration leaves it) at a fraction of an
        iteration's cost."""
        return self._run(self.files[-1:], None, None)

    def run(self, rec: Recorder | None, datasets: list | None, stopped=None) -> Iteration:
        return self._run(self.files, rec, datasets, stopped)

    def warmup(self) -> None:
        """Up to the first output batch: the pipeline over the first 64 rows
        starts a worker, imports the program there and compiles the rules.
        The tiny dataset is consumed whole, so no task is still running when
        the session is shut down."""
        import ray.data as rd

        from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline

        head = pq.ParquetFile(self.files[0]).read_row_group(0).slice(0, 64)
        build_deid_pipeline(rd.from_arrow(head)).take_all()

    def op_stats(self, texts: list[str]) -> tuple[dict, int]:
        return fused_stats(texts)

    def _expected(self, files: list[str]) -> dict[str, str]:
        if files == self.files:
            return self.expected
        urls = [u for f in files for u in pq.read_table(f, columns=["url"])["url"].to_pylist()]
        return {u: self.expected[u] for u in urls}

    def _check(self, it: Iteration, files: list[str], tables: list[pa.Table]) -> None:
        expected = self._expected(files)
        got, repeats = checks.output_digests(tables)
        it.attempted += len(expected)
        it.failed += checks.count_failed_docs(expected, got, repeats)

    def inproc_docs_per_s(self) -> float:
        """The fused stage in this process over the same Arrow batches: the
        single-process baseline of the Ray pipeline."""
        from edge_deid_studio_ray.config import EngineConfig
        from edge_deid_studio_ray.stages.deid import add_pid, make_deid_batch_fn

        cfg = EngineConfig()
        fn = make_deid_batch_fn(cfg)
        tables = _read_tables(self.files)
        n = 0
        t0 = perf_counter()
        for table in tables:
            for off in range(0, table.num_rows, cfg.batch_size):
                batch = add_pid(table.slice(off, cfg.batch_size), num_partitions=cfg.num_partitions)
                n += fn(batch).num_rows
        return n / (perf_counter() - t0)


class PagesFlagship(_DeidWorkload):
    name = "pages_flagship"
    N, SHARDS, MEGA_EVERY = 2000, 4, 2000

    def __init__(self, root: str, seed: int, scale: float = 1.0):
        self.n = max(self.SHARDS * 8, int(self.N * scale))
        self._prepare(
            root,
            inputs.pages_key(root, seed, self.n, self.SHARDS, self.MEGA_EVERY),
            lambda out: inputs.build_pages(out, seed, self.n, self.SHARDS, self.MEGA_EVERY),
        )
        self.out_root = os.path.join(root, ".bench_run", "out")
        self._k = 0

    def _run(
        self, files: list[str], rec: Recorder | None, datasets: list | None, stopped=None
    ) -> Iteration:
        import ray.data as rd

        from edge_deid_studio_ray.pipelines.deid import run_deid_job

        self._k += 1
        out = os.path.join(self.out_root, f"{self.name}-{os.getpid()}-{self._k}")
        shutil.rmtree(out, ignore_errors=True)
        stamps: list[float] = []

        def factory(path: str):
            stamps.append(perf_counter())
            return rd.read_parquet(path)

        shards = [(f"s{j:03d}", partial(factory, p)) for j, p in enumerate(files)]
        if datasets is not None:
            datasets.clear()
        t0 = perf_counter()
        with _span(rec, "iteration"):
            report = run_deid_job(shards, out)
        t1 = perf_counter()
        if stopped is not None:
            stopped()

        it = Iteration(wall_s=t1 - t0, units_s=[b - a for a, b in zip(stamps, stamps[1:] + [t1])])
        it.out_bytes = _dir_bytes(out)
        it.write_bytes = sum(os.path.getsize(f) for f in checks.parquet_files(out))
        self._check(it, files, checks.read_output(out))
        if report.get("shards_run") != len(shards) or report.get("docs") != it.attempted:
            it.errors.append(f"run report {report}")
        if rec is not None:
            it.raw_pii_bytes = checks.raw_pii_bytes(out)
            it.stats = [ds.stats() for ds in datasets or ()]
        shutil.rmtree(out, ignore_errors=True)
        return it


class DocsText(_DeidWorkload):
    name = "docs_text"
    # one request per file: each goes through its own pipeline
    N, FILES, DUP_SHARE = 6000, 4, 0.25

    def __init__(self, root: str, seed: int, scale: float = 1.0):
        self.n = max(self.FILES * 8, int(self.N * scale))
        self._prepare(
            root,
            inputs.docs_key(root, seed, self.n, self.FILES, self.DUP_SHARE),
            lambda out: inputs.build_docs(out, seed, self.n, self.FILES, self.DUP_SHARE),
        )

    def _run(
        self, files: list[str], rec: Recorder | None, datasets: list | None, stopped=None
    ) -> Iteration:
        import ray.data as rd

        from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline

        batches: list[pa.Table] = []
        lat: list[float] = []
        stats: list = []
        t0 = perf_counter()
        with _span(rec, "iteration"):
            for path in files:
                r0 = perf_counter()
                ds = build_deid_pipeline(rd.read_parquet(path))
                batches.extend(ds.iter_batches(batch_format="pyarrow", batch_size=None))
                lat.append(perf_counter() - r0)
                stats.append(ds)
        t1 = perf_counter()
        if stopped is not None:
            stopped()

        it = Iteration(wall_s=t1 - t0, units_s=lat)
        it.out_bytes = sum(b.nbytes for b in batches)
        self._check(it, files, batches)
        if rec is not None:
            it.stats = [ds.stats() for ds in stats]
        return it


class QueryCogroup:
    name = "query_cogroup"
    # orders_join_customers and link_pagerank are left out: see
    # perfbench/README.md ("Query mix").
    QUERIES = [
        "events_sessions",
        "events_interarrival_hist",
        "customer_order_cohorts",
        "corpus_snapshot_diff",
        "customer_name_editdist_pairs",
        "referential_orphans",
        "user_erasure_audit",
        "exact_dedup_groups",
    ]

    def __init__(self, root: str, seed: int, scale: float = 1.0):
        self.names = list(self.QUERIES)
        random.Random(seed).shuffle(self.names)
        self.tables_dir = inputs.cached_dir(
            root, inputs.tables_key(seed), lambda out: inputs.build_tables(out, seed)
        )
        if scale < 1.0:  # the smoke run keeps a few queries
            self.names = self.names[: max(2, int(len(self.names) * scale))]
        self.oracles = checks.oracle_frames(self.tables_dir, self.names)

    @property
    def records(self) -> int:
        return sum(
            pq.read_metadata(os.path.join(self.tables_dir, f"{t}.parquet")).num_rows
            for t in checks.TABLES
        )

    def op_stats(self, texts: list[str]) -> tuple[dict, int]:
        return shuffle_stats(texts)

    def inproc_docs_per_s(self) -> float:
        """No in-process baseline: the queries are Ray Data plans."""
        return 0.0

    def warmup(self) -> None:
        """Up to the first output batch of a tiny pandas map: starts a worker
        and imports pandas there."""
        import ray.data as rd

        ds = rd.from_items([{"k": i % 4, "v": i} for i in range(64)])
        ds.map_batches(_identity, batch_format="pandas").take_all()

    def prime(self) -> Iteration:
        """The mix's first query, untimed and checked: the first query a
        session runs pays for paths the tiny warm-up does not touch (the
        sort / shuffle operators, the program's query module)."""
        return self._run(self.names[:1], None, None)

    def run(self, rec: Recorder | None, datasets: list | None, stopped=None) -> Iteration:
        return self._run(self.names, rec, stopped)

    def _run(self, names: list[str], rec: Recorder | None, stopped) -> Iteration:
        from ray.data import Dataset

        from edge_deid_studio_ray.pipelines.queries import QUERIES

        frames: dict = {}
        lat: list[float] = []
        stats: list[str] = []
        t0 = perf_counter()
        with _span(rec, "iteration"):
            for name in names:
                q0 = perf_counter()
                try:
                    with _span(rec, f"queries.{name}"):
                        result = QUERIES[name](self.tables_dir)
                        if isinstance(result, Dataset):
                            result = result.materialize()
                            if rec is not None:
                                stats.append(result.stats())
                            result = result.to_pandas()
                        elif isinstance(result, pa.Table):
                            result = result.to_pandas()
                    frames[name] = result
                except Exception as exc:  # noqa: BLE001 - a failing query is a counted failure
                    frames[name] = exc
                lat.append(perf_counter() - q0)
        t1 = perf_counter()
        if stopped is not None:
            stopped()

        it = Iteration(wall_s=t1 - t0, units_s=lat, stats=stats)
        for name, result in frames.items():
            it.attempted += 1
            if isinstance(result, Exception):
                it.failed += 1
                it.errors.append(f"{name}: raised {type(result).__name__}: {result}"[:300])
                continue
            it.out_bytes += int(result.memory_usage(deep=True).sum())
            why = checks.query_matches(checks.canon(result), self.oracles[name])
            if why is not None:
                it.failed += 1
                it.errors.append(f"{name}: {why}")
        return it


def _identity(df):
    return df


WORKLOADS = {w.name: w for w in (PagesFlagship, DocsText, QueryCogroup)}


def fused_stats(texts: list[str]) -> tuple[dict, int]:
    """Figures of the operator holding ``deid_batch`` across the iteration's
    pipeline datasets, and the number of stats blocks not understood."""
    wall = udf = 0.0
    tasks = 0
    max_wall = 0.0
    misses = 0
    for text in texts:
        ops, miss = dsstats.parse(text)
        misses += miss
        fused = [op for op in ops if "deid_batch" in op.name]
        if not fused:
            misses += 1
        for op in fused:
            wall += op.wall_total_s
            udf += op.udf_total_s
            tasks += op.tasks
            max_wall = max(max_wall, op.wall_max_s)
    mean = wall / tasks if tasks else 0.0
    return {
        "fused_wall_s": wall,
        "fused_udf_s": udf,
        "fused_tasks": tasks,
        "fused_max_over_mean": max_wall / mean if mean else 0.0,
    }, misses


def shuffle_stats(texts: list[str]) -> tuple[dict, int]:
    """Wall time of the all-to-all operators (sum of their sub-operators),
    the UDF time of the map stage that follows each sort (``map_groups``),
    and the rows the all-to-all map stages moved."""
    alltoall = mg_udf = rows = 0.0
    misses = 0
    for text in texts:
        ops, miss = dsstats.parse(text)
        misses += miss
        for prev, op in zip([None] + ops, ops):
            if op.alltoall:
                alltoall += sum(s.wall_total_s for s in op.subops)
                rows += sum(s.rows for s in op.subops if s.name.endswith("Map"))
            elif prev is not None and prev.name == "Sort" and op.name.startswith("MapBatches("):
                mg_udf += op.udf_total_s
    return {"alltoall_s": alltoall, "map_groups_udf_s": mg_udf, "shuffled_rows": rows}, misses
