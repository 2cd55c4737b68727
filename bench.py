"""Benchmark harness.

Prints ONE JSON line (kept under ~1900 chars so a tail-capped log capture
still parses it: the r3 line outgrew the driver's 2000-char tail and its
``parsed`` field came back null).  The COMPLETE per-query map, per-route
attribution and ``delta_vs_prev`` regression table are written to the
repo-committed ``bench_latest.json``; the stdout line carries the headline,
the full scaling object, the skew evidence, the N slowest queries and the
worst per-query regressions, plus ``queries_n``/``queries_full`` pointing
at the full artifact.

Headline = the flagship pages extraction+deid pipeline (synthetic
Common-Crawl-style parquet → fused deid stage → partitioned parquet write),
measured over a pre-materialized input (generation excluded; OS cache warmed
by an untimed read).

``--suite full`` (or GRAFT_SUITE=full): benches EVERY registry query
instead of the curated 97-name suite, so no operator's cost regresses
silently; curated names keep best-of-2, the long tail runs once.

``--scaling``: reruns the headline in fresh processes at RAY_GRAFT_CPUS=8
and =32 on the SAME input and reports both throughputs + efficiency
(the sandbox substitute for the N vs 4N cluster-size criterion).  Exits
nonzero when the regression guard trips (raw efficiency < 0.75 AND
vs-hardware < 0.85) so CI fails loudly instead of averaging it away.

Every artifact records the host it ran on (``host``: CPUs, memory,
single-core calibration).  A plain run embeds a ``scaling`` series only
when a ``--scaling`` run measured it on a host with the same CPUs and
memory; the repo-committed best series rides along as
``scaling_best_observed`` only.  RAY_GRAFT_CPUS defaults to
``os.cpu_count()``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS") or os.cpu_count() or 1)
SCALING_CACHE = "/tmp/bench_scaling_latest.json"

# pages-bench corpus: deterministic, cached under /tmp keyed by params
PAGES_N = int(os.environ.get("GRAFT_PAGES_N", "150000"))
PAGES_SEED = 42
MEGA_EVERY = 2000  # skew fixture: one outsized page per 2000 rows


def _bench_pages(ray) -> dict:
    import pyarrow.dataset as pads

    from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline
    from edge_deid_studio_ray.sources.pages import ensure_pages_parquet
    import ray.data as rd

    from edge_deid_studio_ray.sources.pages import GENERATOR_VERSION

    pages_dir = f"/tmp/bench_pages_v{GENERATOR_VERSION}_n{PAGES_N}_s{PAGES_SEED}_m{MEGA_EVERY}"
    ensure_pages_parquet(pages_dir, PAGES_N, PAGES_SEED, mega_every=MEGA_EVERY)

    # untimed warm read (page cache), and input size for MB/s
    input_bytes = sum(
        os.path.getsize(os.path.join(pages_dir, f))
        for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )
    pads.dataset(pages_dir, format="parquet").to_table(columns=["url"])

    # untimed full warmup run: spins up the whole worker pool, pays imports
    # and regex compilation per worker, fills the page cache — the timed run
    # below then measures steady-state compute+shuffle only.
    out_dir = "/tmp/bench_pages_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    build_deid_pipeline(rd.read_parquet(pages_dir)).write_parquet(out_dir)

    # best-of-2 timed runs: single runs vary ±5% from task-placement /
    # page-cache noise; the min is the steady-state capability
    elapsed = float("inf")
    for _ in range(2):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        ds = rd.read_parquet(pages_dir)
        build_deid_pipeline(ds).write_parquet(out_dir)
        elapsed = min(elapsed, time.perf_counter() - t0)

    # per-route cost attribution: column-pruned scan of the written output
    # (route + per-stage kernel ms per row), so corpus-mix changes (e.g.
    # real-PDF rows) are QUANTIFIED in the bench artifact, not asserted
    route_tbl = pads.dataset(out_dir, format="parquet").to_table(
        columns=["route", "t_extract_ms", "t_detect_ms", "t_replace_ms"]
    )
    rdf = route_tbl.to_pandas()
    rdf["kernel_ms"] = rdf["t_extract_ms"] + rdf["t_detect_ms"] + rdf["t_replace_ms"]
    routes = {
        str(route): {
            "docs": int(len(g)),
            "kernel_sec": round(float(g["kernel_ms"].sum()) / 1000.0, 2),
            "extract_sec": round(float(g["t_extract_ms"].sum()) / 1000.0, 2),
            "detect_sec": round(float(g["t_detect_ms"].sum()) / 1000.0, 2),
            "replace_sec": round(float(g["t_replace_ms"].sum()) / 1000.0, 2),
        }
        for route, g in rdf.groupby("route")
    }
    return {
        "sec": elapsed,
        "docs_per_sec": PAGES_N / elapsed,
        "mb_per_sec": input_bytes / 1e6 / elapsed,
        "routes": routes,
    }


def _bench_queries(sf_dir: str, full: bool = False) -> dict[str, float]:
    from edge_deid_studio_ray.pipelines.queries import QUERIES

    names = [
        "doc_stats_by_lang",
        "word_freq_top20",
        "lineitem_pricing_summary",
        "events_hourly",
        "events_sessions",
        "customer_per_nation",
        "orders_top10",
        "orders_join_customers",
        "asia_order_volume",
        "deid_entity_counts",
        "deid_replace_documents",
        "exact_dedup_groups",
        "minhash_near_dups",
        "doc_quality_counts",
        "knn_bruteforce",
        # the two composite end-to-end pipelines a user actually runs
        "pages_main_content",
        "training_data_pipeline",
        # round-2 scale-layer additions
        "embedding_near_dups",
        "ngram_jaccard_pairs",
        "events_window_rank",
        "orders_exists_semi",
        # round-3 additions
        "simhash_near_dups",
        "events_late_data",
        "events_funnel",
        "bio_token_labels",
        "html_extract_roundtrip",
        # corpus-preparation layer
        "passage_dedup",
        "benchmark_decontaminate",
        "duplicate_ngram_spans",
        "token_stream_pack",
        # multilingual mixing + LM quality layer
        "trigram_lm_nll",
        "lang_temperature_sample",
        "orders_lineitem_ship_band",
        # late round-3 relational/log-analytics additions
        "corpus_snapshot_diff",
        "events_last_per_user",
        "event_type_cooccurrence",
        # continuation session: TPC-H subquery shapes + web/IR layer
        "large_volume_customers",
        "wealthy_inactive_customers",
        "url_canonical_dedup",
        "bm25_top20",
        "dsir_importance_weights",
        # round-3 wrap: range join, grouping sets, graph, regression, BPE
        "events_band_join",
        "orders_cube",
        "copurchase_triangles",
        "lineitem_ols",
        "bpe_pair_counts",
        "copurchase_bfs_hops",
        # continuation: curation layer
        "part_affinity_lift",
        "minhash_estimate_error",
        "events_rolling_zscore",
        "doc_ngram_novelty",
        "kmeans_spherical",
        # round-4: de-drivered tfidf, pruned LM, newly-oracled pages surface
        "tfidf_top_terms",
        "trigram_lm_nll_pruned",
        "pages_extract_hashes",
        "pages_link_stats",
        # round-4 continuation: supervised classifier train+apply,
        # feature selection, graph peeling, group-wise sketches
        "nb_lang_confusion",
        "chi2_term_lang",
        "copurchase_kcore",
        "events_hourly_hll",
        "incremental_refresh",
        "events_ks_test",
        # round-4 wrap: link inversion, CCNet line dedup, script-mix gate
        "pages_anchor_text",
        "pages_line_dedup",
        "doc_script_ratios",
        "pages_pii_density",
        "copurchase_assortativity",
        "embedding_covariance",
        # round-4 wrap 2: frontier, survival, sketch algebra, RFM census
        "crawl_frontier",
        "user_retention_km",
        "hll_user_overlap",
        "user_rfm_segments",
        # round-4 session 3: retrieval, privacy, lakehouse layout, link analysis
        "conjunctive_search",
        "user_erasure_audit",
        "zone_map_pruning",
        "rake_word_scores",
        "link_hits",
        "lineitem_corr_matrix",
        "attribution_first_touch",
        "user_weekly_retention",
        "zorder_layout_audit",
        "events_funnel_windowed",
        "knn_mutual_pairs",
        "event_audience_jaccard",
        "customer_order_gaps",
        "part_cheapest_supplier",
        "pages_route_stats",
        # session-3 wrap: staged-index composite, IR/corpus stats, drift
        "search_index_pipeline",
        "vocab_coverage_k",
        "sessions_concurrency_profile",
        "events_value_psi_bins",
        "word_burstiness_top20",
        "markov_next_accuracy",
        "lang_hapax_ratio",
        "lang_yule_k",
        "source_lang_diversity",
        "events_error_pchart",
    ]
    curated = set(names)
    if full:
        # --suite full: EVERY registry query, so no operator's cost can
        # regress silently between rounds.  Curated names keep best-of-2
        # (steady-state, comparable across artifacts); the long tail runs
        # once — coverage is the point there, and 2x reps over ~250
        # queries would double a multi-minute sweep for noise reduction
        # the delta table doesn't need at this granularity.
        names = sorted(QUERIES)
    timings: dict[str, float] = {}
    for name in names:
        # best-of-2: join/shuffle-heavy queries swing 2-3x run to run from
        # actor-pool placement; the min is the steady-state capability
        best = float("inf")
        for _ in range(2 if name in curated else 1):
            t0 = time.perf_counter()
            result = QUERIES[name](sf_dir)
            # consume: aggregates are small; per-doc sets consumed via count
            if hasattr(result, "count"):
                result.count()
            best = min(best, time.perf_counter() - t0)
        timings[name] = round(best, 3)
    return timings


def _stage_wall(stats_str: str, needle: str) -> dict | None:
    """Parse 'Remote wall time: a min, b max, c mean' from the ds.stats()
    block whose operator header mentions ``needle`` (units normalized to
    seconds).  Returns None when the format shifts — skew evidence then
    reads 'unavailable' rather than crashing the bench."""
    import re as _re

    unit = {"us": 1e-6, "ms": 1e-3, "s": 1.0, "m": 60.0, "min": 60.0}

    def to_s(v: str, u: str) -> float:
        return float(v) * unit.get(u, 1.0)

    for blk in stats_str.split("Operator "):
        if needle not in blk.split("\n", 1)[0]:
            continue
        m = _re.search(
            r"Remote wall time: ([\d.]+)(\w+) min, ([\d.]+)(\w+) max, "
            r"([\d.]+)(\w+) mean",
            blk,
        )
        if not m:
            return None
        mx = to_s(m.group(3), m.group(4))
        mean = to_s(m.group(5), m.group(6))
        return {
            "min_s": round(to_s(m.group(1), m.group(2)), 3),
            "max_s": round(mx, 3),
            "mean_s": round(mean, 3),
            "max_over_mean": round(mx / mean, 2) if mean > 0 else None,
        }
    return None


SKEW_N = 20000
SKEW_MEGA_EVERY = 50


def _bench_skew(ray) -> dict:
    """Mega-page skew evidence (north rule: url-hash repartition breaks
    mega-page skew).  A deliberately CLUSTERED input — every mega page
    (40× content) contiguous in one file/block — runs the fused stage two
    ways: as-is (one task inherits the whole mega block) and after the
    url-hash range repartition (sort on the pipeline's pid column).
    Records max-task-wall vs mean-task-wall per variant; the salted ratio
    is the bounded one.  Small n — the evidence is the RATIO, not
    throughput."""
    from functools import partial as _partial

    import pyarrow.parquet as pq
    import ray.data as rd

    from edge_deid_studio_ray.config import EngineConfig
    from edge_deid_studio_ray.sources.pages import (
        GENERATOR_VERSION,
        synthesize_pages_table,
    )
    from edge_deid_studio_ray.stages.deid import add_pid, make_deid_batch_fn

    d = f"/tmp/bench_skew_v{GENERATOR_VERSION}_n{SKEW_N}_m{SKEW_MEGA_EVERY}"
    if not os.path.exists(os.path.join(d, "_SUCCESS")):
        os.makedirs(d, exist_ok=True)
        megas = [i for i in range(SKEW_N) if i % SKEW_MEGA_EVERY == 0 and i > 0]
        mega_set = set(megas)
        rest = [i for i in range(SKEW_N) if i not in mega_set]
        pq.write_table(
            synthesize_pages_table(megas, mega_every=SKEW_MEGA_EVERY),
            os.path.join(d, "megas.parquet"),
        )
        for k, lo in enumerate(range(0, len(rest), 1250)):
            pq.write_table(
                synthesize_pages_table(rest[lo : lo + 1250], mega_every=SKEW_MEGA_EVERY),
                os.path.join(d, f"rest{k}.parquet"),
            )
        with open(os.path.join(d, "_SUCCESS"), "w") as f:
            f.write("ok")

    cfg = EngineConfig()
    fused = make_deid_batch_fn(cfg)

    def run(salted: bool) -> dict | None:
        ds = rd.read_parquet(d).map_batches(
            _partial(add_pid, num_partitions=64), batch_format="pyarrow"
        )
        if salted:
            ds = ds.sort("pid")  # url-hash RANGE repartition: megas scatter
        ds = ds.map_batches(fused, batch_format="pyarrow", batch_size=cfg.batch_size)
        # materialize: .sum()/.count() execute a DERIVED plan, leaving this
        # dataset without stats; stats must come from the executed object
        mat = ds.materialize()
        return _stage_wall(mat.stats(), "deid_batch")

    return {
        "n": SKEW_N,
        "mega_every": SKEW_MEGA_EVERY,
        "unsalted": run(False),
        "salted": run(True),
    }


def run_once() -> tuple[dict, dict]:
    """Returns (stdout_line, full_artifact)."""
    import ray

    from edge_deid_studio_ray.config import install_empty_schema_log_filter

    install_empty_schema_log_filter()
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    skip_queries = bool(os.environ.get("GRAFT_SKIP_QUERIES"))
    full_suite = (
        "--suite" in sys.argv
        and sys.argv[sys.argv.index("--suite") + 1 :][:1] == ["full"]
    ) or os.environ.get("GRAFT_SUITE") == "full"
    pages = _bench_pages(ray)
    # scaling subprocesses measure the headline only — the query suite adds
    # minutes per rep without informing the 8-vs-32 ratio
    queries = {} if skip_queries else _bench_queries(SF_DIR, full=full_suite)
    skew = None if skip_queries else _bench_skew(ray)

    result = {
        "metric": "pages extraction+deid end-to-end (read parquet -> fused deid -> write parquet)",
        "value": round(pages["sec"], 3),
        "unit": "sec",
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "pages_n": PAGES_N,
        "docs_per_sec": round(pages["docs_per_sec"], 1),
        "mb_per_sec": round(pages["mb_per_sec"], 2),
        # single-core machine-state anchor (counter increments/sec over a
        # 1-s arithmetic burn): lets any two BENCH_r{N} artifacts be
        # compared net of host speed — the box's single-thread throughput
        # varies up to ~1.6x between sessions
        "calib_single_core_ops": _burn(None),
    }
    result["host"] = dict(_host(), calib_single_core_ops=result["calib_single_core_ops"])
    if skew is not None:
        result["skew"] = skew
    # embed a scaling series only if a `--scaling` run measured it on this
    # host (same CPUs and memory); the repo-committed copy (best observed
    # across sessions, possibly on other hardware) rides along as
    # best_observed for cross-round context, never as this run's series
    try:
        with open(SCALING_CACHE) as f:
            fresh = json.load(f)
        if fresh.get("host") == _host():
            result["scaling"] = fresh
    except (OSError, ValueError):
        pass
    try:
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_scaling.json")) as f:
            best = json.load(f)
        result["scaling_best_observed"] = {
            "scaling_efficiency": best.get("scaling_efficiency"),
            "efficiency_vs_hardware": best.get("efficiency_vs_hardware"),
            "hardware_efficiency_ceiling": best.get("hardware_efficiency_ceiling"),
        }
    except (OSError, ValueError):
        pass
    ray.shutdown()

    # full artifact (repo-committed): complete query map, route attribution,
    # and the per-query regression table vs the previous committed artifact
    repo_dir = os.path.dirname(os.path.abspath(__file__))
    latest_path = os.path.join(repo_dir, "bench_latest.json")
    full = dict(result)
    full["queries"] = dict(sorted(queries.items()))
    full["routes"] = pages["routes"]
    line = dict(result)
    if not skip_queries:
        prev = None
        try:
            with open(latest_path) as f:
                prev = json.load(f)
        except (OSError, ValueError):
            prev = None
        delta = None
        if prev and not all(
            prev.get(k) == result.get(k) for k in ("sf", "num_cpus", "pages_n")
        ):
            prev = None  # different config — a delta would compare apples to oranges
        if prev and prev.get("queries"):
            common = {
                k: round(queries[k] - prev["queries"][k], 3)
                for k in queries
                if k in prev["queries"]
            }
            calib_prev = prev.get("calib_single_core_ops") or 0
            delta = {
                "prev_calib_single_core_ops": calib_prev,
                "calib_ratio": (
                    round(result["calib_single_core_ops"] / calib_prev, 3)
                    if calib_prev
                    else None
                ),
                "per_query_delta_sec": dict(sorted(common.items())),
            }
        full["delta_vs_prev"] = delta
        try:
            with open(latest_path, "w") as f:
                json.dump(full, f, indent=1, sort_keys=True)
        except OSError:
            pass
        # the stdout line must survive a 2000-char tail capture: carry the
        # slowest queries + worst regressions and point at the full artifact
        slowest = dict(sorted(queries.items(), key=lambda kv: -kv[1])[:12])
        line["queries_n"] = len(queries)
        line["queries_full"] = "bench_latest.json"
        line["queries_slowest"] = {k: round(v, 2) for k, v in slowest.items()}
        if delta:
            worst = sorted(
                delta["per_query_delta_sec"].items(), key=lambda kv: -kv[1]
            )[:5]
            line["delta_vs_prev_worst"] = {
                k: round(v, 2) for k, v in worst if v > 0.05
            }
            line["delta_vs_prev_calib_ratio"] = delta["calib_ratio"]
    return line, full


def _host() -> dict:
    """The host facts a scaling series is only valid on."""
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": len(os.sched_getaffinity(0)), "mem_gb": round(mem / 2**30, 1)}


def _burn(_arg):
    import time as _t

    t0 = _t.time()
    x = 0
    while _t.time() - t0 < 1.0:
        x += 1
    return x


def _hardware_scaling(lo: int, hi: int) -> float:
    """CPU-burn calibration: the machine's own lo→hi process-scaling ratio
    (SMT/thermal ceiling).  32 logical CPUs here give ≈3.3× the throughput
    of 8, so 4×-ideal efficiency is hardware-capped at ≈0.83."""
    import multiprocessing as mp

    totals = {}
    for n in (lo, hi):
        with mp.Pool(n) as pool:
            totals[n] = sum(pool.map(_burn, range(n)))
    return totals[hi] / totals[lo]


def run_scaling(reps: int | None = None) -> dict:
    """Interleaved 8-vs-32-cpu headline runs (fresh processes, same input) +
    a CPU-burn hardware calibration BEFORE and AFTER, so the raw efficiency
    and the machine's own ceiling are co-measured in one machine-readable
    artifact.  Best-of-N per level; every per-rep wall time is recorded.
    The result is also cached to SCALING_CACHE, which plain ``bench.py``
    embeds under ``"scaling"`` in its one-line JSON."""

    def sub(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SKIP_QUERIES="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    reps = reps or int(os.environ.get("GRAFT_SCALING_REPS", "3"))
    hw_before = _hardware_scaling(8, 32)
    # interleave repetitions so thermal / cache drift hits both levels alike;
    # per-level result = best observed steady state
    lo = hi = None
    secs_8: list[float] = []
    secs_32: list[float] = []
    for _ in range(reps):
        r8, r32 = sub(8), sub(32)
        secs_8.append(r8["value"])
        secs_32.append(r32["value"])
        lo = r8 if lo is None or r8["value"] < lo["value"] else lo
        hi = r32 if hi is None or r32["value"] < hi["value"] else hi
    hw_after = _hardware_scaling(8, 32)
    hw = max(hw_before, hw_after)  # best hardware state observed

    eff = (lo["value"] / hi["value"]) / (32 / 8)
    result = {
        "metric": "scaling efficiency, num_cpus 8 -> 32 (N vs 4N substitute)",
        "sec_8": lo["value"],
        "sec_32": hi["value"],
        "sec_8_reps": secs_8,
        "sec_32_reps": secs_32,
        "docs_per_sec_8": lo["docs_per_sec"],
        "docs_per_sec_32": hi["docs_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "hardware_scaling_before": round(hw_before, 2),
        "hardware_scaling_after": round(hw_after, 2),
        "hardware_scaling_8_to_32": round(hw, 2),
        "hardware_efficiency_ceiling": round(hw / 4, 3),
        "efficiency_vs_hardware": round((lo["value"] / hi["value"]) / hw, 3),
        "pages_n": lo["pages_n"],
        "host": _host(),
    }
    # regression guard (VERDICT r3 #7): this run — not a cached best — must
    # clear raw >= 0.75 OR vs-hardware >= 0.85; main() exits nonzero on FAIL
    result["guard"] = (
        "FAIL"
        if result["scaling_efficiency"] < 0.75
        and result["efficiency_vs_hardware"] < 0.85
        else "ok"
    )
    repo_cache = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_scaling.json")
    # the repo copy keeps the best measured run (the box's thermal state
    # decays across a session; the best run is the one closest to the
    # machine's true ratio) — /tmp always gets the latest
    best = result
    try:
        with open(repo_cache) as f:
            prior = json.load(f)
        if prior.get("scaling_efficiency", 0) > result["scaling_efficiency"]:
            best = prior
    except (OSError, ValueError):
        pass
    for cache, payload in ((SCALING_CACHE, result), (repo_cache, best)):
        try:
            with open(cache, "w") as f:
                json.dump(payload, f)
        except OSError:
            pass
    return result


def run_latency_profile(chars: int = 10_000, runs: int = 10, warmup: int = 1) -> dict:
    """Reference-comparable single-document latency: the same synthetic
    10k-char text procedure as scripts/benchmark_pipeline.py:35-60, measured
    through our fused kernel (targets: pipeline < 150 ms p95, replacement
    < 5 ms — docs/PERFORMANCE.md:7, docs/TASK_BOARD.md:116)."""
    import statistics

    from edge_deid_studio_ray.kernels.docpipe import process_document

    base = (
        "ID A123456789 and phone 0912345678. "
        "Email test@example.com. Address 台北市信義路1號. "
    )
    chunks: list[str] = []
    while sum(len(c) for c in chunks) < chars:
        chunks.append(base)
    text = "".join(chunks)[:chars]

    samples = {"total_ms": [], "detect_ms": [], "replace_ms": [], "extract_ms": []}
    for i in range(warmup + runs):
        t0 = time.perf_counter()
        row = process_document(text=text, lang="zh")
        total = (time.perf_counter() - t0) * 1000.0
        if i < warmup:
            continue
        samples["total_ms"].append(total)
        samples["detect_ms"].append(row["t_detect_ms"])
        samples["replace_ms"].append(row["t_replace_ms"])
        samples["extract_ms"].append(row["t_extract_ms"])

    def summary(values: list) -> dict:
        ordered = sorted(values)
        return {
            "p50": round(statistics.median(ordered), 3),
            "p95": round(ordered[int(0.95 * (len(ordered) - 1))], 3),
            "mean": round(sum(ordered) / len(ordered), 3),
        }

    return {
        "metric": f"single-doc kernel latency, {chars} chars (reference targets: total p95 < 150 ms, replace < 5 ms)",
        "chars": chars,
        "runs": runs,
        **{k: summary(v) for k, v in samples.items()},
    }


def run_stats() -> str:
    """Print the headline pipeline's ds.stats() per-stage breakdown (wall /
    cpu / UDF time per operator — evidence that wall time is dominated by
    useful compute, not scheduling)."""
    import ray

    from edge_deid_studio_ray.config import install_empty_schema_log_filter

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
    import ray.data as rd

    from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline
    from edge_deid_studio_ray.sources.pages import ensure_pages_parquet, GENERATOR_VERSION

    pages_dir = f"/tmp/bench_pages_v{GENERATOR_VERSION}_n{PAGES_N}_s{PAGES_SEED}_m{MEGA_EVERY}"
    ensure_pages_parquet(pages_dir, PAGES_N, PAGES_SEED, mega_every=MEGA_EVERY)
    out_dir = "/tmp/bench_stats_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    ds = build_deid_pipeline(rd.read_parquet(pages_dir))
    ds.write_parquet(out_dir)
    stats = ds.stats()
    ray.shutdown()
    return stats


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling = run_scaling()
        print(json.dumps(scaling))
        if scaling.get("guard") == "FAIL":
            print(
                "SCALING GUARD FAILED: raw < 0.75 and vs-hardware < 0.85",
                file=sys.stderr,
            )
            sys.exit(1)
    elif "--latency" in sys.argv:
        print(json.dumps(run_latency_profile()))
    elif "--stats" in sys.argv:
        print(run_stats())
    else:
        line, _full = run_once()
        print(json.dumps(line))
