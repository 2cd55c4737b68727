#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

1. The output checks turn red on a corrupted row: a wrong ``clean_text``,
   a wrong span, a missing doc and a changed query value are each caught.
2. The traced-run reconciliation turns red: concurrent spans share the
   wall time, and a negative ``ray.overhead_s`` or a docs_text write is
   each caught.
3. A tiny size of every workload runs untraced and traced and prints every
   metric of ``BENCHMARK.json`` with its unit and a green verdict.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def _fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def check_corruption_is_caught() -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from edge_deid_studio_ray.stages.deid import make_deid_batch_fn
    from perfbench import checks, inputs

    work = os.path.join(ROOT, ".bench_run", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs.build_docs(work, seed=5, n=64, files=1, dup_share=0.25)
    table = pq.read_table(os.path.join(work, "docs-000.parquet"))
    expected = checks.oracle_digests([table])
    out = make_deid_batch_fn()(table)

    got, repeats = checks.output_digests([out])
    if checks.count_failed_docs(expected, got, repeats) != 0:
        _fail("clean output does not match the oracle")

    rows = out.to_pylist()
    victim = next(i for i, r in enumerate(rows) if r["entities"])
    cases = {
        "clean_text": lambda r: r.update(clean_text=r["clean_text"] + "x"),
        "span end": lambda r: r["entities"][0].update(end=r["entities"][0]["end"] + 1),
    }
    for what, corrupt in cases.items():
        bad = [dict(r, entities=[dict(e) for e in r["entities"]]) for r in rows]
        corrupt(bad[victim])
        got, repeats = checks.output_digests([pa.Table.from_pylist(bad, schema=out.schema)])
        if checks.count_failed_docs(expected, got, repeats) != 1:
            _fail(f"a corrupted {what} was not counted as one failed doc")
    got, repeats = checks.output_digests([out.slice(1)])
    if checks.count_failed_docs(expected, got, repeats) != 1:
        _fail("a missing doc was not counted as one failed doc")

    frame = checks.canon(out.select(["url", "n_spans"]).to_pandas())
    changed = frame.copy()
    changed.loc[0, "n_spans"] += 1
    if checks.query_matches(frame, frame) is not None:
        _fail("identical query results reported as different")
    if checks.query_matches(changed, frame) is None:
        _fail("a changed query value was not caught")
    shutil.rmtree(work, ignore_errors=True)
    print("ok   corrupted rows and values are caught")


def check_reconcile_can_fail() -> None:
    from perfbench import run, tracing

    # a root span with two overlapping worker spans: the self times share
    # the overlap and add up to the root's duration
    spans = [
        {"id": "m", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "m", "start": 1.0, "end": 5.0},
        {"id": "b", "parent": "m", "start": 3.0, "end": 7.0},
    ]
    selfs = tracing.self_times(spans)
    if selfs != {"m": 4.0, "a": 3.0, "b": 3.0}:
        _fail(f"concurrent spans do not share the wall time: {selfs}")

    sums = {"spans_s": 10.0, "traced_wall_s": 10.0}
    pages = {"ray.overhead_s": 0.5}
    docs = {"ray.write_s": 0.0, "ray.write_mb": 0.0, "kernels.extract.html_s": 0.0}
    cases = [
        ("a clean run", "pages_flagship", pages, sums, 0),
        ("a clean run", "docs_text", docs, sums, 0),
        ("span times beyond the wall", "docs_text", docs, dict(sums, spans_s=11.0), 1),
        ("a negative ray.overhead_s", "pages_flagship", {"ray.overhead_s": -0.1}, sums, 1),
        ("a docs_text write", "docs_text", dict(docs, **{"ray.write_s": 0.2}), sums, 1),
    ]
    for what, workload, m, s, want in cases:
        failed = sum(1 for _, ok in run.reconcile(workload, m, s) if not ok)
        if failed != want:
            _fail(f"{what} on {workload}: {failed} failed checks, want {want}")
    print("ok   failed reconciliation checks are caught")


def check_tiny_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "0.05",
            ]  # fmt: skip
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                _fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                _fail(f"{workload} trace={trace}: verdict {result}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                _fail(f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(want)}")
            print(f"ok   {workload} trace={trace}: {len(got)} metrics, {result['attempted']} checked")


if __name__ == "__main__":
    check_corruption_is_caught()
    check_reconcile_can_fail()
    check_tiny_runs()
    print("selftest passed")
