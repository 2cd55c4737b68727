"""1M-page soak: scale rehearsal for the flagship extraction+deid pipeline.

Generates a 1M-page synthetic Common-Crawl-style corpus (~0.5 GB as
snappy parquet, one
mega page per 2000 — the bench skew mix), runs the flagship end to end
(read parquet → fused deid → the job's pid-sorted parquet sink), then the N
slowest registry queries at the bench SF, while a sampler thread records
the memory high-water (system MemAvailable minimum) and Ray spill volume.

Report (one JSON line): wall time, docs/s, MB/s, fused-stage task-wall
max/mean (straggler profile, after the pipeline's url-hash pid layout),
memory floor, spill bytes, per-query timings.

Usage: RAY_GRAFT_CPUS=32 PYTHONPATH=/root/repo python tools/soak.py
  GRAFT_SOAK_N     pages (default 1_000_000)
  GRAFT_SOAK_SKIP_QUERIES  set to skip the query tail
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

SOAK_N = int(os.environ.get("GRAFT_SOAK_N", "1000000"))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
SEED = 42
MEGA_EVERY = 2000

# the 12 slowest per bench_latest (rotates as the artifact updates)
def _slowest_queries(k: int = 12) -> list[str]:
    try:
        with open(os.path.join(REPO, "bench_latest.json")) as f:
            q = json.load(f).get("queries") or {}
        return [n for n, _ in sorted(q.items(), key=lambda kv: -kv[1])[:k]]
    except (OSError, ValueError):
        return []


class MemSampler(threading.Thread):
    """Min MemAvailable + max Ray spill dir size, sampled at 0.5 s."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.min_available_kb: int | None = None
        self.max_spill_bytes = 0
        self._halt = threading.Event()

    @staticmethod
    def _available_kb() -> int:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1])
        return 0

    @staticmethod
    def _spill_bytes() -> int:
        total = 0
        root = "/tmp/ray"
        for dirpath, _dirnames, filenames in os.walk(root):
            if "spill" not in dirpath:
                continue
            for name in filenames:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
        return total

    def run(self) -> None:
        while not self._halt.is_set():
            kb = self._available_kb()
            if self.min_available_kb is None or kb < self.min_available_kb:
                self.min_available_kb = kb
            self.max_spill_bytes = max(self.max_spill_bytes, self._spill_bytes())
            self._halt.wait(0.5)

    def stop(self) -> None:
        # NB: Thread defines a private _stop() METHOD — shadowing it with an
        # Event breaks join(); hence _halt
        self._halt.set()
        self.join(timeout=5)


def main() -> int:
    import ray
    import ray.data as rd

    from bench import _stage_wall  # repo-root bench.py: stats parser
    from edge_deid_studio_ray.config import install_empty_schema_log_filter
    from edge_deid_studio_ray.pipelines.deid import (
        _CountingParquetSink,
        build_deid_pipeline,
    )
    from edge_deid_studio_ray.sources.pages import (
        GENERATOR_VERSION,
        ensure_pages_parquet,
    )

    install_empty_schema_log_filter()
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    pages_dir = (
        f"/tmp/soak_pages_v{GENERATOR_VERSION}_n{SOAK_N}_s{SEED}_m{MEGA_EVERY}"
    )
    ensure_pages_parquet(pages_dir, SOAK_N, SEED, mega_every=MEGA_EVERY)
    input_bytes = sum(
        os.path.getsize(os.path.join(pages_dir, f))
        for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )

    out_dir = "/tmp/soak_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    sampler = MemSampler()
    sampler.start()
    t0 = time.perf_counter()
    ds = build_deid_pipeline(rd.read_parquet(pages_dir))
    # the sink run_deid_job writes through, so the soak measures its layout
    ds.write_datasink(_CountingParquetSink(out_dir))
    wall = time.perf_counter() - t0
    fused = _stage_wall(ds.stats(), "deid_batch")

    queries: dict[str, float] = {}
    if not os.environ.get("GRAFT_SOAK_SKIP_QUERIES"):
        from edge_deid_studio_ray.pipelines.queries import QUERIES

        for name in _slowest_queries():
            tq = time.perf_counter()
            result = QUERIES[name](SF_DIR)
            if hasattr(result, "count"):
                result.count()
            queries[name] = round(time.perf_counter() - tq, 3)
    sampler.stop()

    report = {
        "metric": "1M-page soak: flagship extraction+deid end-to-end",
        "pages_n": SOAK_N,
        "num_cpus": NUM_CPUS,
        "input_gb": round(input_bytes / 1e9, 2),
        "sec": round(wall, 1),
        "docs_per_sec": round(SOAK_N / wall, 1),
        "mb_per_sec": round(input_bytes / 1e6 / wall, 2),
        "fused_stage_task_wall": fused,
        "mem_available_floor_gb": (
            round(sampler.min_available_kb / 1e6, 2)
            if sampler.min_available_kb
            else None
        ),
        "ray_spill_max_gb": round(sampler.max_spill_bytes / 1e9, 3),
        "slowest_queries_sec": queries,
    }
    print(json.dumps(report))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
