#!/usr/bin/env python3
"""The repo benchmark: one workload, one closed loop, one client.

    python3 perfbench/run.py --workload pages_flagship --seed 1 --seconds 9 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics of ``BENCHMARK.json`` over three Ray sessions.  Each
starts with the set-up (``ray.init`` plus warm-up to the first output
batch; the median of the three is ``setup_s``), then, while the iterations
so far fall short of the session's third of ``--seconds``, an untimed
priming step and iterations back to back.  Spreading the iterations over
the run's sessions keeps a burst of host contention from hitting all of
them.  With ``--trace 1`` it runs half of that untraced (the reference wall time)
and half with spans around every layer call, and reports the per-layer
metrics.  Every iteration's output is checked; the last stdout line is the
JSON result.  Inputs are generated from ``--seed`` before any clock starts
and cached in ``.bench_cache/``; run files go to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import sys
from collections import defaultdict
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SESSIONS = 3  # Ray sessions of an untraced run; each times one set-up


def _args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale", type=float, default=1.0, help="input size factor (the smoke test uses a small one)"
    )
    return p.parse_args(argv)


def _metric_specs() -> dict[str, list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def _loop(wl, seconds: float, rec=None, datasets=None, sampler=None) -> list:
    """Closed loop: the next iteration starts when the previous one is
    done, until the iterations' wall time adds up to ``seconds``."""
    its = []
    busy = 0.0
    while busy < seconds:
        if sampler is not None:
            sampler.active.set()
        it = wl.run(rec, datasets, sampler.active.clear if sampler is not None else None)
        its.append(it)
        busy += it.wall_s
    return its


def _med(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _end_to_end(wl, setups: list[float], its: list, peak_rss: int) -> dict[str, float]:
    wall = _med(it.wall_s for it in its)
    return {
        "setup_s": _med(setups),
        "wall_s": wall,
        "docs_per_s": wl.records / wall,
        "unit_p50_s": _med(u for it in its for u in it.units_s),
        "unit_max_s": _med(max(it.units_s) for it in its),
        "peak_rss_mb": peak_rss / 1e6,
        "out_mb": _med(it.out_bytes for it in its) / 1e6,
    }


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def _per_layer(
    base: list, traced: list, spans: list[dict], counts, ops: dict, inproc: float
) -> tuple[dict, dict]:
    """Per-layer metrics, per iteration, and the sums the reconciliation
    checks.  ``ops`` holds the workload's figures from ``ds.stats()``."""
    from perfbench import tracing, workloads

    n = len(traced)
    tracing.assign_parents(spans, os.getpid())
    selfs = tracing.self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    doc_ms: list[float] = []
    for s in spans:
        self_s[s["name"]] += selfs[s["id"]]
        total_s[s["name"]] += s["end"] - s["start"]
        if s["name"] == "kernels.doc":
            doc_ms.append((s["end"] - s["start"]) * 1e3)
    base_wall = _med(it.wall_s for it in base)
    layers_s = sum(v for k, v in self_s.items() if k != "iteration") / n
    sums = {
        "base_wall_s": base_wall,
        "layers_s": layers_s,
        "spans_s": sum(self_s.values()),
        "traced_wall_s": sum(it.wall_s for it in traced),
    }

    def ratio(a: str, b: str) -> float:
        return counts[a] / counts[b] if counts[b] else 0.0

    m = {
        "ray.read_s": self_s["ray.read"] / n,
        "ray.write_s": self_s["ray.write"] / n,
        "ray.write_mb": _med(it.write_bytes for it in traced) / 1e6,
        "ray.fused_wall_s": ops.get("fused_wall_s", 0.0) / n,
        "ray.fused_udf_s": ops.get("fused_udf_s", 0.0) / n,
        "ray.fused_tasks": ops.get("fused_tasks", 0) / n,
        "ray.fused_max_over_mean": ops.get("fused_max_over_mean", 0.0),
        "ray.overhead_s": base_wall - layers_s,
        "stages.add_pid_s": self_s["stages.add_pid"] / n,
        "stages.deid_batch_s": total_s["stages.deid_batch"] / n,
        "stages.codec_s": self_s["stages.deid_batch"] / n,
        "stages.rows_per_batch": ratio("rows", "batches"),
        "stages.inproc_docs_per_s": inproc,
        "kernels.extract.html_s": self_s["kernels.extract.html"] / n,
        "kernels.extract.pdf_s": self_s["kernels.extract.pdf"] / n,
        "kernels.extract.csv_s": self_s["kernels.extract.csv"] / n,
        "kernels.extract.text_s": self_s["kernels.extract.text"] / n,
        "kernels.detect_s": self_s["kernels.detect"] / n,
        "kernels.replace_s": self_s["kernels.replace"] / n,
        "kernels.replace_cache_hit_ratio": counts["cache_hits"]
        / max(1, counts["cache_hits"] + counts["cache_misses"]),
        "kernels.assemble_s": self_s["kernels.doc"] / n,
        "kernels.replacement_map_entries": counts["replacement_map_entries"] / n,
        "kernels.doc_ms_p50": _med(doc_ms),
        "kernels.doc_ms_p99": _pct(doc_ms, 0.99),
        "kernels.detect_kept_ratio": ratio("kept", "detected"),
        "pipelines.counters_s": self_s["pipelines.counters"] / n,
        "state.commit_s": self_s["state.commit"] / n,
        "state.scan_s": self_s["state.scan"] / n,
        "state.clear_s": self_s["state.clear"] / n,
        "sink.raw_pii_mb": _med(it.raw_pii_bytes for it in traced) / 1e6,
        "queries.self_s": sum(v for k, v in self_s.items() if k.startswith("queries.")) / n,
        "queries.alltoall_s": ops.get("alltoall_s", 0.0) / n,
        "queries.map_groups_udf_s": ops.get("map_groups_udf_s", 0.0) / n,
        "queries.shuffled_rows": ops.get("shuffled_rows", 0.0) / n,
        "trace.overhead_s": _med(it.wall_s for it in traced) - base_wall,
        "trace.spans": len(spans) / n,
    }
    for name in workloads.QueryCogroup.QUERIES:
        m[f"queries.{name}_s"] = total_s[f"queries.{name}"] / n
    return m, sums


def reconcile(workload: str, m: dict, sums: dict) -> list[tuple[str, bool]]:
    """The checks a traced run must pass; each failed one counts as a
    failed unit.  The self times of every span add up to the traced
    iterations' wall time (nothing counted twice, nothing outside an
    iteration); on pages_flagship the layers leave a non-negative
    ``ray.overhead_s``; docs_text never writes and never extracts html."""
    spans_s, traced = sums["spans_s"], sums["traced_wall_s"]
    out = [
        (
            f"span self times {spans_s:.6g} s = traced wall_s {traced:.6g} s (within 1 %)",
            abs(spans_s - traced) <= 0.01 * traced,
        )
    ]
    if workload == "pages_flagship":
        out.append((f"ray.overhead_s {m['ray.overhead_s']:.6g} s >= 0", m["ray.overhead_s"] >= 0))
    if workload == "docs_text":
        for name in ("ray.write_s", "ray.write_mb", "kernels.extract.html_s"):
            out.append((f"{name} {m[name]:.6g} = 0", m[name] == 0))
    return out


def measure(wl, args, cpus: int) -> tuple[dict, list, dict]:
    from perfbench import host, tracing

    if not args.trace:
        setups: list[float] = []
        primed: list = []
        its: list = []
        with host.RssSampler() as sampler:
            for rep in range(SESSIONS):
                t0 = perf_counter()
                host.ray_init(ROOT, cpus)
                wl.warmup()
                setups.append(perf_counter() - t0)
                left = args.seconds * (rep + 1) / SESSIONS - sum(it.wall_s for it in its)
                if left > 0:
                    primed.append(wl.prime())
                    its += _loop(wl, left, sampler=sampler)
                host.ray_shutdown()
        metrics = _end_to_end(wl, setups, its, sampler.peak_bytes)
        return metrics, primed + its, {"setup_s": setups}

    half = args.seconds / 2
    host.ray_init(ROOT, cpus)
    wl.warmup()
    primed = [wl.prime()]
    base = _loop(wl, half)
    host.ray_shutdown()

    trace_dir = os.path.join(ROOT, ".bench_run", f"trace-{os.getpid()}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    os.environ[tracing.TRACE_DIR_ENV] = trace_dir
    rec = tracing.Recorder()
    datasets: list = []
    undo = tracing.install_main(rec, datasets)
    try:
        host.ray_init(ROOT, cpus, setup_hook=tracing.WORKER_HOOK)
        wl.warmup()
        primed.append(wl.prime())
        since = perf_counter()
        traced = _loop(wl, half, rec=rec, datasets=datasets)
        host.ray_shutdown()
    finally:
        tracing.restore(undo)
    worker_spans, counts = tracing.load_worker_records(trace_dir, since)
    spans = [s for s in rec.records() if s["start"] >= since] + worker_spans
    shutil.rmtree(trace_dir, ignore_errors=True)
    texts = [t for it in traced for t in it.stats]
    ops, misses = wl.op_stats(texts)
    metrics, sums = _per_layer(base, traced, spans, counts, ops, wl.inproc_docs_per_s())
    return metrics, primed + base + traced, {
        "spans": spans,
        "sums": sums,
        "checks": reconcile(wl.name, metrics, sums),
        "stats_blocks": len(texts),
        "stats_misses": misses,
    }


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    sys.path.insert(0, ROOT)
    spec = importlib.util.find_spec("edge_deid_studio_ray")
    if spec is None or not (spec.origin or "").startswith(ROOT + os.sep):
        print(f"perfbench: the program (edge_deid_studio_ray) is not in {ROOT}", file=sys.stderr)
        return 2
    # keep every temporary file of this run, and of the Ray workers it
    # starts, inside the checkout
    tmp = os.path.join(ROOT, ".bench_run", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    from perfbench import host, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    specs = _metric_specs()["per_layer" if args.trace else "end_to_end"]
    cpus = host.num_cpus()
    facts = host.host_facts(ROOT, seed=args.seed, cpus=cpus)
    print("# host " + json.dumps(facts, sort_keys=True), flush=True)

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.scale)
    ticks = host.cpu_times()
    try:
        metrics, its, extra = measure(wl, args, cpus)
    finally:
        host.ray_shutdown()
    facts["cpu_steal_share"] = host.steal_share(ticks, host.cpu_times())

    attempted = sum(it.attempted for it in its)
    failed = sum(it.failed for it in its)
    if args.trace:  # a ds.stats() block the parser cannot read is a failure
        attempted += extra["stats_blocks"] + len(extra["checks"])
        failed += extra["stats_misses"] + sum(1 for _, ok in extra["checks"] if not ok)
    errors = [e for it in its for e in it.errors]
    for e in errors[:10]:
        print(f"# error {e}", flush=True)
    if errors and not failed:
        failed = len(errors)

    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for metrics {missing}", file=sys.stderr)
        return 1
    out = {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}
    for name, v in out.items():
        print(f"# {args.workload:<15} {name:<36} {v['value']:>14.6g} {v['unit']}")
    print(
        f"# iterations={len(its)} units={sum(len(it.units_s) for it in its)} "
        f"attempted={attempted} failed={failed} cpu_steal_share={facts['cpu_steal_share']:.3f}"
    )
    if args.trace:
        sums = extra["sums"]
        print(
            f"# reconcile: layer self times {sums['layers_s']:.6g} s + ray.overhead_s "
            f"{out['ray.overhead_s']['value']:.6g} s = untraced wall_s {sums['base_wall_s']:.6g} s"
        )
        for what, ok in extra["checks"]:
            print(f"# check {'ok  ' if ok else 'FAIL'} {what}")

    art_dir = os.path.join(ROOT, ".bench_run", "artifacts")
    os.makedirs(art_dir, exist_ok=True)
    stem = os.path.join(art_dir, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(
            {
                "host": facts,
                "args": vars(args),
                "metrics": out,
                "iterations": [
                    {"wall_s": it.wall_s, "units_s": it.units_s, "out_bytes": it.out_bytes}
                    for it in its
                ],
                "setup_s": extra.get("setup_s"),
                "errors": errors,
            },
            f,
            indent=1,
        )
    if args.trace:
        tracing.write_trace(stem + "-trace.jsonl", extra["spans"], run_id=os.path.basename(stem))

    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
