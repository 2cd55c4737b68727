"""Spans around the benchmark's calls into each layer of the program.

A traced run wraps public functions of the program (and the two Ray Data
parquet I/O entry points) with span recorders, without editing the program:

- main-process side (``install_main``): the shard commit protocol in
  ``pipelines.deid`` / ``state.manifest`` and the fused batch function
  ``build_deid_pipeline`` creates;
- worker side (``install_worker``, run as Ray's ``worker_process_setup_hook``):
  parquet read / write, ``stages.deid.add_pid`` and the kernels that
  ``kernels.docpipe.process_document`` calls.

A span is ``(id, name, start, end, parent)`` with ``perf_counter`` times,
which share one clock across processes on a host.  Spans live in memory;
a worker appends its finished spans to ``<trace dir>/spans-<pid>.jsonl``
each time its outermost span closes, because a worker process has no "end
of run" of its own.  The main process merges everything at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
WORKER_HOOK = "perfbench.tracing.install_worker"


class Recorder:
    """Spans and counters of one process."""

    def __init__(self, sink_path: str | None = None):
        self.pid = os.getpid()
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._sink_path = sink_path
        self._flushed = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, float]:
        sid = next(self._ids)
        self._stack().append(sid)
        return sid, perf_counter()

    def end(self, name: str, sid: int, start: float) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        self.spans.append((sid, name, start, end, stack[-1] if stack else None))
        if not stack and self._sink_path is not None:
            self.flush()

    def span(self, name: str):
        return _Span(self, name)

    def flush(self) -> None:
        """Append spans and counters recorded since the last flush."""
        new = self.spans[self._flushed :]
        if not new and not self.counts:
            return
        with open(self._sink_path, "a", encoding="utf-8") as f:
            f.write(json.dumps({"t": perf_counter(), "s": new, "c": dict(self.counts)}) + "\n")
        self._flushed = len(self.spans)
        self.counts.clear()

    def records(self) -> list[dict]:
        return [
            {
                "id": f"{self.pid}:{sid}",
                "name": name,
                "start": start,
                "end": end,
                "parent": None if parent is None else f"{self.pid}:{parent}",
                "pid": self.pid,
            }
            for sid, name, start, end, parent in self.spans
        ]


class _Span:
    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        self.sid, self.start = self.rec.begin()
        return self

    def __exit__(self, *exc) -> None:
        self.rec.end(self.name, self.sid, self.start)


def _wrap(rec: Recorder, name: str, fn: Callable, count: Callable | None = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid, start = rec.begin()
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                count(rec.counts, args, out)
            return out
        finally:
            rec.end(name, sid, start)

    return traced


def _patch(undo: list, obj: Any, attr: str, new: Any) -> None:
    undo.append((obj, attr, getattr(obj, attr)))
    setattr(obj, attr, new)


def restore(undo: list) -> None:
    for obj, attr, old in reversed(undo):
        setattr(obj, attr, old)
    undo.clear()


# ---------------------------------------------------------- main process


def install_main(rec: Recorder, datasets: list) -> list:
    """Wrap the main-process layer calls; every pipeline Dataset built is
    appended to ``datasets`` (for ``ds.stats()``).  Returns the undo list."""
    import edge_deid_studio_ray.pipelines.deid as pdeid

    undo: list = []
    build = pdeid.build_deid_pipeline
    make = pdeid.make_deid_batch_fn

    def build_deid_pipeline(ds, cfg=None):
        out = build(ds, cfg)
        datasets.append(out)
        return out

    _patch(undo, pdeid, "build_deid_pipeline", build_deid_pipeline)
    _patch(undo, pdeid, "make_deid_batch_fn", functools.partial(traced_batch_fn, make))
    _patch(undo, pdeid, "_shard_counters", _wrap(rec, "pipelines.counters", pdeid._shard_counters))
    _patch(undo, pdeid, "write_manifest", _wrap(rec, "state.commit", pdeid.write_manifest))
    _patch(undo, pdeid, "committed_shards", _wrap(rec, "state.scan", pdeid.committed_shards))
    _patch(
        undo, pdeid, "clear_partial_output", _wrap(rec, "state.clear", pdeid.clear_partial_output)
    )
    return undo


def traced_batch_fn(make: Callable, cfg=None) -> Callable:
    """``make_deid_batch_fn`` stand-in: the same batch function inside a
    ``stages.deid_batch`` span that also counts replacement-cache use.  The
    closure keeps the name ``deid_batch`` so ``ds.stats()`` names the
    operator as in an untraced run."""
    inner = make(cfg)

    def deid_batch(batch):
        return _deid_batch_span(inner, batch)

    return deid_batch


def _deid_batch_span(inner: Callable, batch):
    from edge_deid_studio_ray.kernels.replace import fallback_generate

    rec = _worker_recorder()
    with rec.span("stages.deid_batch"):
        before = fallback_generate.cache_info()
        out = inner(batch)
        after = fallback_generate.cache_info()
        rec.counts["cache_hits"] += after.hits - before.hits
        rec.counts["cache_misses"] += after.misses - before.misses
    return out


# ---------------------------------------------------------------- worker

_WORKER: Recorder | None = None


def _worker_recorder() -> Recorder:
    global _WORKER
    if _WORKER is None or _WORKER.pid != os.getpid():
        sink = os.path.join(os.environ[TRACE_DIR_ENV], f"spans-{os.getpid()}.jsonl")
        _WORKER = Recorder(sink)
    return _WORKER


def _traced_generator(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Span every ``next()`` of a generator function, so only the work the
    generator does is timed, not its consumer's."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            sid, start = rec.begin()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.end(name, sid, start)
            yield item

    return traced


def _count_rows(counts: Counter, args, out) -> None:
    counts["batches"] += 1
    counts["rows"] += out.num_rows


def _count_doc(counts: Counter, args, out) -> None:
    counts["docs"] += 1
    counts["replacement_map_entries"] += len(out.get("replacement_map") or ())


def _count_detected(counts: Counter, args, out) -> None:
    counts["detected"] += len(out)


def _count_kept(counts: Counter, args, out) -> None:
    counts["kept"] += len(out)


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: wrap the worker-side layer calls.

    Module attributes are patched before the worker runs any task, so the
    pickled task functions resolve to the wrappers when they load."""
    import edge_deid_studio_ray.kernels.docpipe as docpipe
    import edge_deid_studio_ray.stages.deid as sdeid
    import ray.data._internal.datasource.parquet_datasink as psink
    import ray.data._internal.datasource.parquet_datasource as psrc

    rec = _worker_recorder()
    undo: list = []
    _patch(undo, psrc, "read_fragments", _traced_generator(rec, "ray.read", psrc.read_fragments))
    _patch(
        undo,
        psink.ParquetDatasink,
        "_write_parquet_files",
        _wrap(rec, "ray.write", psink.ParquetDatasink._write_parquet_files),
    )
    _patch(undo, sdeid, "add_pid", _wrap(rec, "stages.add_pid", sdeid.add_pid, _count_rows))
    doc = _wrap(rec, "kernels.doc", docpipe.process_document, _count_doc)
    _patch(undo, docpipe, "process_document", doc)
    _patch(undo, sdeid, "process_document", doc)

    extract = docpipe.extract_page

    @functools.wraps(extract)
    def extract_page(*args, **kwargs):
        sid, start = rec.begin()
        name = "kernels.extract.error"
        try:
            out = extract(*args, **kwargs)
            name = f"kernels.extract.{out[2]}"
            return out
        finally:
            rec.end(name, sid, start)

    _patch(undo, docpipe, "extract_page", extract_page)
    _patch(undo, docpipe, "compile_rules", _wrap(rec, "kernels.detect", docpipe.compile_rules))
    _patch(
        undo,
        docpipe,
        "regex_detect",
        _wrap(rec, "kernels.detect", docpipe.regex_detect, _count_detected),
    )
    _patch(
        undo,
        docpipe,
        "resolve_conflicts",
        _wrap(rec, "kernels.detect", docpipe.resolve_conflicts, _count_kept),
    )
    _patch(undo, docpipe, "replace_text", _wrap(rec, "kernels.replace", docpipe.replace_text))


# --------------------------------------------------------------- analysis


def load_worker_records(trace_dir: str, since: float) -> tuple[list[dict], Counter]:
    """Worker spans that started at or after ``since``, and the counters
    flushed after it."""
    spans: list[dict] = []
    counts: Counter = Counter()
    for name in sorted(os.listdir(trace_dir)):
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        pid = int(name[len("spans-") : -len(".jsonl")])
        with open(os.path.join(trace_dir, name), encoding="utf-8") as f:
            for line in f:
                rec = json.loads(line)
                if rec["t"] < since:
                    continue
                counts.update(rec["c"])
                for sid, sname, start, end, parent in rec["s"]:
                    if start < since:
                        continue
                    spans.append(
                        {
                            "id": f"{pid}:{sid}",
                            "name": sname,
                            "start": start,
                            "end": end,
                            "parent": None if parent is None else f"{pid}:{parent}",
                            "pid": pid,
                        }
                    )
    return spans, counts


def _uncovered(intervals: list[tuple[float, float]], lo: float, hi: float) -> list:
    """The parts of ``[lo, hi]`` that no interval covers."""
    gaps, cur = [], lo
    for a, b in sorted(intervals):
        if a > cur:
            gaps.append((cur, min(a, hi)))
        cur = max(cur, b)
        if cur >= hi:
            break
    if cur < hi:
        gaps.append((cur, hi))
    return [(a, b) for a, b in gaps if b > a]


def assign_parents(spans: list[dict], main_pid: int) -> None:
    """A worker's outermost span becomes the child of the innermost
    main-process span that contains it in time: the main process is blocked
    in that call while Ray runs the work."""
    main = [s for s in spans if s["pid"] == main_pid]
    for s in spans:
        if s["pid"] == main_pid or s["parent"] is not None:
            continue
        best = None
        for d in main:
            if d["start"] <= s["start"] and s["end"] <= d["end"]:
                if best is None or d["start"] >= best["start"]:
                    best = d
        s["parent"] = best["id"] if best else None


def self_times(spans: list[dict]) -> dict[str, float]:
    """span id -> its share of the wall time.

    A span's own time is the part of it its children do not cover.  Each
    instant of wall time is split evenly among the spans whose own time it
    is, so concurrent worker spans share it instead of each claiming all of
    it: the self times of the spans under one root add up to the root's
    duration, on any number of CPUs."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    events = []
    for s in spans:
        for a, b in _uncovered(children.get(s["id"], []), s["start"], s["end"]):
            events.append((a, 1, s["id"]))
            events.append((b, 0, s["id"]))
    events.sort(key=lambda e: (e[0], e[1]))  # at a tie, ends before starts
    out = {s["id"]: 0.0 for s in spans}
    active: set[str] = set()
    prev = 0.0
    for t, starts, sid in events:
        if active and t > prev:
            share = (t - prev) / len(active)
            for a in active:
                out[a] += share
        prev = t
        if starts:
            active.add(sid)
        else:
            active.discard(sid)
    return out


def write_trace(path: str, spans: list[dict], run_id: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in sorted(spans, key=lambda s: s["start"]):
            f.write(json.dumps(dict(s, run=run_id)) + "\n")
