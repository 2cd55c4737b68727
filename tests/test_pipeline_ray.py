"""Dataset-level pipeline tests (Ray; session fixture from conftest)."""

from __future__ import annotations

import shutil

import pyarrow as pa
import pytest


def _shard_factory(lo: int, hi: int, **kw):
    import ray.data as rd

    from edge_deid_studio_ray.sources.pages import synthesize_pages_table

    def factory():
        def gen(batch: pa.Table) -> pa.Table:
            return synthesize_pages_table([i + lo for i in batch["id"].to_pylist()], **kw)

        return rd.range(hi - lo).map_batches(gen, batch_format="pyarrow", batch_size=128)

    return factory


def test_pipeline_matches_kernel_oracle_per_url(ray_session):
    """Byte-identity: the Dataset pipeline vs the pure-Python oracle."""
    from edge_deid_studio_ray.kernels import process_document
    from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline
    from edge_deid_studio_ray.sources.pages import pages_dataset, synthesize_page

    n = 200
    ds = build_deid_pipeline(pages_dataset(n))
    got = {r["url"]: r for r in ds.take_all()}
    assert len(got) == n

    for i in range(n):
        page = synthesize_page(i)
        oracle = process_document(html=page["html"], text=page["text"], url=page["url"], lang=page["lang"])
        row = got[page["url"]]
        assert row["extracted_text"] == oracle["extracted_text"], page["url"]
        assert row["clean_text"] == oracle["clean_text"], page["url"]
        assert row["context_hash"] == oracle["context_hash"]
        assert row["n_spans"] == oracle["n_spans"]
        got_entities = [dict(e) for e in row["entities"]]
        assert got_entities == oracle["entities"], page["url"]


def test_pipeline_output_schema(ray_session):
    from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline
    from edge_deid_studio_ray.sources.pages import pages_dataset
    from edge_deid_studio_ray.stages.deid import DEID_OUTPUT_SCHEMA

    ds = build_deid_pipeline(pages_dataset(50))
    schema = ds.schema()
    assert schema.names == DEID_OUTPUT_SCHEMA.names


def test_resumable_job_skips_committed_shards(ray_session, tmp_path):
    from edge_deid_studio_ray.pipelines.deid import run_deid_job
    from edge_deid_studio_ray.state.manifest import committed_shards

    out = str(tmp_path / "out")
    shards = [("s0", _shard_factory(0, 120)), ("s1", _shard_factory(120, 240))]

    report = run_deid_job(shards, out)
    assert report["shards_run"] == 2 and report["docs"] == 240
    manifests = committed_shards(out)
    assert set(manifests) == {"s0", "s1"}
    assert sum(m.docs for m in manifests.values()) == 240
    # per-pid counters must sum to the shard totals (lineage invariant)
    for m in manifests.values():
        assert sum(v["docs"] for v in m.per_pid.values()) == m.docs
        assert sum(v["spans"] for v in m.per_pid.values()) == m.spans

    report2 = run_deid_job(shards, out)
    assert report2["shards_run"] == 0 and report2["shards_skipped"] == 2
    assert report2["docs"] == 240 and report2["spans"] == report["spans"]


def test_resume_after_partial_failure(ray_session, tmp_path):
    """Kill-and-resume: an uncommitted shard is cleared and reprocessed."""
    import os

    from edge_deid_studio_ray.pipelines.deid import run_deid_job
    from edge_deid_studio_ray.state.manifest import shard_output_dir

    out = str(tmp_path / "out")
    shards = [("s0", _shard_factory(0, 60)), ("s1", _shard_factory(60, 120))]
    run_deid_job(shards[:1], out)  # only s0 committed

    # simulate a crash mid-s1: partial output, no manifest
    partial = shard_output_dir(out, "s1")
    os.makedirs(partial, exist_ok=True)
    with open(os.path.join(partial, "garbage.parquet"), "w") as f:
        f.write("partial")

    report = run_deid_job(shards, out)
    assert report["shards_skipped"] == 1 and report["shards_run"] == 1
    assert report["docs"] == 120

    import pyarrow.dataset as pads

    table = pads.dataset(partial, format="parquet").to_table(columns=["url"])
    assert table.num_rows == 60  # garbage replaced by a clean rerun


def test_blackbox_mode_pipeline(ray_session):
    from edge_deid_studio_ray.config import EngineConfig
    from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline
    from edge_deid_studio_ray.sources.pages import pages_dataset

    cfg = EngineConfig(mode="blackbox")
    rows = build_deid_pipeline(pages_dataset(40), cfg).take_all()
    for row in rows:
        assert len(row["clean_text"]) == len(row["extracted_text"])
        assert len(row["events"]) == 0


def test_mega_page_skew_rows_survive(ray_session):
    """Mega-page fixture: oversized rows flow through without OOM/split issues."""
    from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline
    from edge_deid_studio_ray.sources.pages import pages_dataset

    ds = build_deid_pipeline(pages_dataset(30, mega_every=10))
    rows = ds.take_all()
    assert len(rows) == 30
    assert max(r["n_chars"] for r in rows) > 10_000


def test_csv_route_with_cell_anchors(ray_session):
    """CSV payloads route by url suffix; entities get R{r}C{c} cell anchors."""
    import ray.data as rd

    table = pa.table(
        {
            "url": ["https://x.example/a.csv"],
            "warc_ts": pa.array([0], pa.timestamp("us")),
            "html": pa.array([b"id,phone\nA123456789,0912345678\n"], pa.binary()),
            "text": pa.array([None], pa.string()),
            "lang": ["zh"],
        }
    )
    from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline

    rows = build_deid_pipeline(rd.from_arrow(table)).take_all()
    row = rows[0]
    assert row["route"] == "csv"
    assert row["extracted_text"] == "id\nphone\nA123456789\n0912345678"
    anchored = {e["text"]: e["cell_address"] for e in row["entities"]}
    assert anchored.get("A123456789") == "R2C1"
    assert anchored.get("0912345678") == "R2C2"


def test_pdf_route_bbox_anchors(ray_session):
    """Faux-PDF blocks carry page_index + bbox anchors through to entities."""
    import json

    import ray.data as rd

    blocks = [
        {"page": 0, "bbox": [10, 20, 300, 40], "btype": 0, "text": "id A123456789"},
    ]
    payload = ("%PDF-GRAFT1\n" + "\n".join(json.dumps(b) for b in blocks)).encode()
    table = pa.table(
        {
            "url": ["https://x.example/doc1"],
            "warc_ts": pa.array([0], pa.timestamp("us")),
            "html": pa.array([payload], pa.binary()),
            "text": pa.array([None], pa.string()),
            "lang": ["zh"],
        }
    )
    from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline

    row = build_deid_pipeline(rd.from_arrow(table)).take_all()[0]
    ent = [e for e in row["entities"] if e["text"] == "A123456789"][0]
    assert ent["page_index"] == 0
    assert list(ent["bbox"]) == [10, 20, 300, 40]


def test_partitioned_output_layout(ray_session, tmp_path, monkeypatch):
    """Each write task writes one parquet file of one row group, its rows
    sorted by (pid, url) with the url-hash pid a stored int32 column; the
    shard holds no pid=K/ directory."""
    import glob
    import os

    import pyarrow.parquet as pq

    from edge_deid_studio_ray.pipelines import deid
    from edge_deid_studio_ray.state.manifest import shard_output_dir

    real = deid._CountingParquetSink
    sinks: list = []

    def keep(path):
        sinks.append(real(path))
        return sinks[-1]

    monkeypatch.setattr(deid, "_CountingParquetSink", keep)
    out = str(tmp_path / "out")
    deid.run_deid_job([("s0", _shard_factory(0, 100))], out)
    sdir = shard_output_dir(out, "s0")
    assert not [d for d in os.listdir(sdir) if d.startswith("pid=")]
    files = sorted(glob.glob(f"{sdir}/**/*.parquet", recursive=True))
    assert files == sorted(glob.glob(f"{sdir}/*.parquet"))
    (sink,) = sinks
    assert len(files) == sum(1 for part in sink.write_returns if part) >= 1

    pids: set = set()
    for f in files:
        assert pq.read_metadata(f).num_row_groups == 1, f
        assert pq.read_schema(f).field("pid").type == pa.int32()
        table = pq.read_table(f, columns=["pid", "url"])
        rows = list(zip(table["pid"].to_pylist(), table["url"].to_pylist()))
        assert rows == sorted(rows), f
        pids.update(pid for pid, _ in rows)
    assert len(pids) > 10  # 100 urls spread over 64 pids


def test_every_written_file_goes_through_write_parquet_files(ray_session, tmp_path, monkeypatch):
    """A run_deid_job shard calls ParquetDatasink._write_parquet_files once
    per file it writes.  That call is where the ray.write layer is timed, so
    a file written around it would count as Ray overhead instead."""
    import glob
    import os
    import uuid

    from ray.data._internal.datasource.parquet_datasink import ParquetDatasink

    from edge_deid_studio_ray.pipelines import deid

    calls = str(tmp_path / "calls")
    os.makedirs(calls)
    real = deid._CountingParquetSink

    def recording(path):
        # the sink travels to the write tasks with its instance attributes,
        # so each worker-side call leaves one file in ``calls``
        sink = real(path)

        def write_files(*args, **kwargs):
            open(os.path.join(calls, uuid.uuid4().hex), "w").close()
            return ParquetDatasink._write_parquet_files(sink, *args, **kwargs)

        sink._write_parquet_files = write_files
        return sink

    monkeypatch.setattr(deid, "_CountingParquetSink", recording)
    out = str(tmp_path / "out")
    report = deid.run_deid_job(
        [("s0", _shard_factory(0, 150)), ("s1", _shard_factory(150, 200))], out
    )
    assert report["docs"] == 200
    files = glob.glob(f"{out}/shard=*/**/*.parquet", recursive=True)
    assert len(files) >= 2
    assert len(os.listdir(calls)) == len(files)


def test_main_content_mode_strips_boilerplate(ray_session):
    """extract_mode=main_content drops nav/footer/link-dense blocks while
    keeping content paragraphs (north-star capability 1)."""
    from edge_deid_studio_ray.config import EngineConfig
    from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline
    from edge_deid_studio_ray.sources.pages import pages_dataset

    full_rows = {
        r["url"]: r for r in build_deid_pipeline(pages_dataset(80)).take_all()
    }
    main_rows = {
        r["url"]: r
        for r in build_deid_pipeline(
            pages_dataset(80), EngineConfig(extract_mode="main_content")
        ).take_all()
    }
    html_urls = [u for u, r in full_rows.items() if r["route"] == "html"]
    assert html_urls
    for url in html_urls:
        full_text = full_rows[url]["extracted_text"]
        main_text = main_rows[url]["extracted_text"]
        assert len(main_text) <= len(full_text)
        # nav links from the fixture template never survive the strip
        for marker in ("Home", "Privacy Policy", "Terms of Service"):
            assert marker not in main_text
    # content (with PII) is retained for most pages: spans survive
    kept_spans = sum(main_rows[u]["n_spans"] for u in html_urls)
    assert kept_spans > 0


def test_warc_source_to_deid_pipeline(ray_session, tmp_path):
    """WARC files (Common-Crawl format) parse into pages rows and run the
    full pipeline; http envelopes stripped, warc_ts parsed, gzip handled."""
    from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline
    from edge_deid_studio_ray.sources.warc import build_warc_bytes, read_warc

    records = [
        {"url": "https://a.example/1", "body": b"<p>mail a@b.com</p>"},
        {"url": "https://a.example/2", "body": b"<p>id A123456789</p>", "http": False},
    ]
    plain = tmp_path / "f1.warc"
    plain.write_bytes(build_warc_bytes(records))
    gz = tmp_path / "f2.warc.gz"
    gz.write_bytes(build_warc_bytes([{"url": "https://a.example/3", "body": b"<p>x 0912-345-678</p>"}], gzipped=True))

    pages = read_warc([str(plain), str(gz)], default_lang="zh")
    rows = {r["url"]: r for r in build_deid_pipeline(pages).take_all()}
    assert set(rows) == {"https://a.example/1", "https://a.example/2", "https://a.example/3"}
    assert rows["https://a.example/1"]["extracted_text"] == "mail a@b.com"
    assert rows["https://a.example/2"]["entities"][0]["type"] == "ID"
    assert "0912-345-678" not in rows["https://a.example/3"]["clean_text"]
    # warc_ts parsed to 2026-01-01T00:00:00 UTC
    import datetime

    ts = rows["https://a.example/1"]["warc_ts"] if "warc_ts" in rows["https://a.example/1"] else None


def test_training_data_pipeline_composition(ray_session):
    """Composite flow: extract+deid → quality filter → exact dedup, with
    per-stage attrition counters that add up."""
    from edge_deid_studio_ray.pipelines.webtext import (
        build_training_data_pipeline,
        training_data_report,
    )
    from edge_deid_studio_ray.sources.pages import pages_dataset

    base = pages_dataset(120)

    def relabel(batch: pa.Table) -> pa.Table:
        # keep the path suffix intact (routing is by extension); the
        # "z-" host prefix sorts after the original so the original is kept
        urls = [u.replace("https://", "https://z-") for u in batch["url"].to_pylist()]
        return batch.set_column(0, "url", pa.array(urls, pa.string()))

    doubled = base.union(base.map_batches(relabel, batch_format="pyarrow"))
    out = build_training_data_pipeline(doubled).take_all()

    # dedup kept one representative per distinct extracted text
    hashes = [r["context_hash"] for r in out]
    assert len(hashes) == len(set(hashes))
    # every surviving row passed the filter
    assert all(r["quality"] >= 0.4 and r["n_chars"] >= 50 for r in out)
    # keeper is the min url of each dup pair (original sorts before "?dup")
    assert sum(1 for r in out if "://z-" in r["url"]) == 0

    report = training_data_report(doubled)
    assert report["rows_in"] == 240
    assert report["rows_in"] - report["dropped_quality"] - report["dropped_duplicates"] == report["rows_out"]
    assert report["dropped_duplicates"] >= report["rows_out"]  # every kept row had a dup
    assert report["rows_out"] == len(out)


def test_warc_per_record_gzip_members(tmp_path):
    """Real Common-Crawl .warc.gz files are a CONCATENATION of one gzip
    member per record — the reader must parse that layout, not only
    whole-file gzip."""
    import gzip

    from edge_deid_studio_ray.sources.warc import build_warc_bytes, iter_warc_records

    r1 = [{"url": "https://a.test/1", "date": "2026-01-01T00:00:00Z", "body": b"<p>one</p>"}]
    r2 = [{"url": "https://a.test/2", "date": "2026-01-01T00:00:01Z", "body": b"<p>two</p>"}]
    member_concat = gzip.compress(build_warc_bytes(r1)) + gzip.compress(build_warc_bytes(r2))
    rows = list(iter_warc_records(member_concat))
    assert [r["url"] for r in rows] == ["https://a.test/1", "https://a.test/2"]
    assert rows[1]["html"] == b"<p>two</p>"


def test_empty_shard_commits_and_resumes(ray_session, tmp_path):
    """A 0-row input shard must commit a zero-counter manifest (not crash on
    the missing output directory) so the job can resume past it."""
    import pyarrow as pa
    import ray.data as rd

    from edge_deid_studio_ray.pipelines.deid import run_deid_job
    from edge_deid_studio_ray.sources.pages import PAGES_SCHEMA

    def empty_factory():
        return rd.from_arrow(PAGES_SCHEMA.empty_table())

    out = str(tmp_path / "out")
    shards = [("empty", empty_factory), ("real", _shard_factory(0, 40))]
    report = run_deid_job(shards, out)
    assert report["shards_run"] == 2 and report["docs"] == 40
    report2 = run_deid_job(shards, out)
    assert report2["shards_skipped"] == 2 and report2["docs"] == 40


def test_changed_fingerprint_reruns_shard(ray_session, tmp_path):
    """A committed shard whose caller-supplied input fingerprint changed is
    re-run, not skipped — stale output must not masquerade as current."""
    from edge_deid_studio_ray.pipelines.deid import run_deid_job

    out = str(tmp_path / "out")
    shards = [("s0", _shard_factory(0, 40))]
    run_deid_job(shards, out, fingerprints={"s0": "crawl-v1"})
    # same fingerprint: skipped
    r2 = run_deid_job(shards, out, fingerprints={"s0": "crawl-v1"})
    assert r2["shards_skipped"] == 1
    # changed fingerprint: re-run
    r3 = run_deid_job(shards, out, fingerprints={"s0": "crawl-v2"})
    assert r3["shards_run"] == 1 and r3["shards_skipped"] == 0


def _rederived_counters(sdir: str) -> dict:
    """The manifest counters of a written shard, re-derived row by row."""
    import pyarrow.dataset as pads

    table = pads.dataset(sdir, format="parquet", partitioning="hive").to_table(
        columns=["pid", "n_bytes", "n_spans", "route", "error"]
    )
    want: dict = {"docs": 0, "bytes": 0, "spans": 0, "per_pid": {}, "routes": {}, "errors": {}}
    for row in table.to_pylist():
        slot = want["per_pid"].setdefault(str(row["pid"]), {"docs": 0, "bytes": 0, "spans": 0})
        for total in (want, slot):
            total["docs"] += 1
            total["bytes"] += row["n_bytes"]
            total["spans"] += row["n_spans"]
        want["routes"][row["route"]] = want["routes"].get(row["route"], 0) + 1
        if row["error"] is not None:
            want["errors"][row["error"]] = want["errors"].get(row["error"], 0) + 1
    return want


def test_shard_counters_vectorized_multi_pid_equality(ray_session, tmp_path):
    """Each committed manifest (counted by the write tasks) equals a per-row
    re-derivation over its written shard, one shard at a time and three in
    flight; an empty input shard commits zero counters and writes no
    directory."""
    import os

    import ray.data as rd

    from edge_deid_studio_ray.pipelines.deid import run_deid_job
    from edge_deid_studio_ray.sources.pages import PAGES_SCHEMA
    from edge_deid_studio_ray.state.manifest import committed_shards, shard_output_dir

    shards = [(f"s{i}", _shard_factory(90 * i, 90 * (i + 1))) for i in range(4)]
    shards.append(("empty", lambda: rd.from_arrow(PAGES_SCHEMA.empty_table())))
    for max_in_flight in (1, 3):
        out = str(tmp_path / f"out{max_in_flight}")
        report = run_deid_job(shards, out, max_in_flight=max_in_flight)
        assert report["shards_run"] == 5 and report["docs"] == 360

        manifests = committed_shards(out)
        assert set(manifests) == {sid for sid, _ in shards}
        for sid in ("s0", "s1", "s2", "s3"):
            m = manifests[sid]
            fields = ("docs", "bytes", "spans", "per_pid", "routes", "errors")
            got = {f: getattr(m, f) for f in fields}
            assert got == _rederived_counters(shard_output_dir(out, sid)), (max_in_flight, sid)
            assert len(m.per_pid) > 1  # genuinely multi-pid
            assert set(m.timings_ms) == {"extract", "detect", "replace"}
        empty = manifests["empty"]
        assert (empty.docs, empty.bytes, empty.spans, empty.per_pid) == (0, 0, 0, {})
        assert (empty.routes, empty.errors) == ({}, {})
        assert not os.path.exists(shard_output_dir(out, "empty"))


def test_job_reads_no_output_back(ray_session, tmp_path, monkeypatch):
    """The manifest counters come from the write tasks: the driver opens no
    parquet file while the job runs."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from edge_deid_studio_ray.pipelines.deid import run_deid_job
    from edge_deid_studio_ray.state.manifest import committed_shards, shard_output_dir

    def no_read(*args, **kwargs):
        raise AssertionError(f"driver read parquet: {args}")

    out = str(tmp_path / "out")
    shards = [(f"s{i}", _shard_factory(60 * i, 60 * (i + 1))) for i in range(3)]
    with monkeypatch.context() as m:
        m.setattr(pads, "dataset", no_read)
        m.setattr(pq, "read_table", no_read)
        report = run_deid_job(shards, out, max_in_flight=2)
    assert report["docs"] == 180
    for sid, manifest in committed_shards(out).items():
        assert manifest.per_pid == _rederived_counters(shard_output_dir(out, sid))["per_pid"]


def test_shard_counters_merge_partials():
    """Write partials merge by pid, stage, route and error value; null
    errors are not counted; an empty shard (no partial) counts zero."""
    import pyarrow as pa

    from edge_deid_studio_ray.pipelines.deid import _shard_counters, _write_partial

    def block(pids, routes, errors):
        n = len(pids)
        return pa.table(
            {
                "pid": pa.array(pids, pa.int32()),
                "n_bytes": [10] * n,
                "n_spans": [2] * n,
                "route": routes,
                "error": pa.array(errors, pa.string()),
                "t_extract_ms": [1.0] * n,
                "t_detect_ms": [0.5] * n,
                "t_replace_ms": [0.2] * n,
            }
        )

    a = _write_partial(block([1, 2, 1], ["html", "pdf", "html"], [None, "bad_pdf", None]))
    b = _write_partial(
        pa.concat_tables([block([2], ["pdf"], ["bad_pdf"]), block([3], ["text"], [None])])
    )
    got = _shard_counters([a, None, b])
    assert got == {
        "docs": 5,
        "bytes": 50,
        "spans": 10,
        "per_pid": {
            "1": {"docs": 2, "bytes": 20, "spans": 4},
            "2": {"docs": 2, "bytes": 20, "spans": 4},
            "3": {"docs": 1, "bytes": 10, "spans": 2},
        },
        "timings_ms": {"extract": 5.0, "detect": 2.5, "replace": 1.0},
        "routes": {"html": 2, "pdf": 2, "text": 1},
        "errors": {"bad_pdf": 2},
    }
    zero = _shard_counters([])
    assert (zero["docs"], zero["per_pid"], zero["routes"], zero["errors"]) == (0, {}, {}, {})


def test_sink_writes_no_statistics(ray_session, tmp_path):
    """Written files carry no column min/max statistics, so no document or
    span text reaches parquet metadata."""
    import glob

    import pyarrow.parquet as pq

    from edge_deid_studio_ray.pipelines.deid import run_deid_job
    from edge_deid_studio_ray.state.manifest import shard_output_dir

    out = str(tmp_path / "out")
    run_deid_job([("s0", _shard_factory(0, 80))], out)
    files = sorted(glob.glob(f"{shard_output_dir(out, 's0')}/**/*.parquet", recursive=True))
    assert files
    span_texts: set = set()
    for f in files:
        for entities in pq.read_table(f, columns=["entities"])["entities"].to_pylist():
            span_texts.update(e["text"] for e in entities)
        meta = pq.read_metadata(f)
        for rg in range(meta.num_row_groups):
            group = meta.row_group(rg)
            for c in range(group.num_columns):
                col = group.column(c)
                assert not col.is_stats_set, (f, col.path_in_schema)
    assert span_texts  # the shard holds spans to leak


def test_parent_format_manifest_loads_as_committed(tmp_path):
    """A manifest written before the route / error counters existed still
    loads as committed, with empty counts."""
    import json
    import os

    from edge_deid_studio_ray.state.manifest import committed_shards, manifests_dir

    old = {
        "shard_id": "s0",
        "status": "committed",
        "docs": 3,
        "bytes": 120,
        "spans": 4,
        "per_pid": {"7": {"docs": 3, "bytes": 120, "spans": 4}},
        "timings_ms": {"extract": 1.5, "detect": 2.0, "replace": 0.5},
        "input_fingerprint": "crawl-v1",
    }
    os.makedirs(manifests_dir(str(tmp_path)))
    with open(os.path.join(manifests_dir(str(tmp_path)), "s0.json"), "w") as f:
        json.dump(old, f)
    loaded = committed_shards(str(tmp_path))
    assert set(loaded) == {"s0"}
    m = loaded["s0"]
    assert (m.docs, m.bytes, m.spans, m.per_pid, m.input_fingerprint) == (
        3, 120, 4, old["per_pid"], "crawl-v1"
    )
    assert (m.routes, m.errors) == ({}, {})


def test_concurrent_shard_window_matches_sequential(ray_session, tmp_path):
    from edge_deid_studio_ray.pipelines.deid import run_deid_job
    from edge_deid_studio_ray.state.manifest import committed_shards

    shards = [(f"s{i}", _shard_factory(60 * i, 60 * (i + 1))) for i in range(4)]

    seq_out = str(tmp_path / "seq")
    con_out = str(tmp_path / "con")
    seq = run_deid_job(shards, seq_out)
    con = run_deid_job(shards, con_out, max_in_flight=3)
    assert con["shards_run"] == 4
    assert (con["docs"], con["bytes"], con["spans"]) == (
        seq["docs"],
        seq["bytes"],
        seq["spans"],
    )
    seq_m = committed_shards(seq_out)
    con_m = committed_shards(con_out)
    assert {k: (m.docs, m.bytes, m.spans, m.per_pid) for k, m in seq_m.items()} == {
        k: (m.docs, m.bytes, m.spans, m.per_pid) for k, m in con_m.items()
    }

    # resume over the concurrent output must skip everything
    again = run_deid_job(shards, con_out, max_in_flight=3)
    assert again["shards_run"] == 0 and again["shards_skipped"] == 4
    assert again["docs"] == con["docs"]


def test_concurrent_window_failure_keeps_commits_and_resumes(ray_session, tmp_path):
    from edge_deid_studio_ray.pipelines.deid import run_deid_job
    from edge_deid_studio_ray.state.manifest import committed_shards

    def boom():
        raise RuntimeError("shard input unreadable")

    out = str(tmp_path / "out")
    shards_bad = [
        ("s0", _shard_factory(0, 60)),
        ("s1", boom),
        ("s2", _shard_factory(120, 180)),
    ]
    with pytest.raises(RuntimeError, match="unreadable"):
        run_deid_job(shards_bad, out, max_in_flight=2)
    # the healthy in-flight shards' commits survive the failure
    ok = set(committed_shards(out))
    assert "s1" not in ok

    shards_fixed = [
        ("s0", _shard_factory(0, 60)),
        ("s1", _shard_factory(60, 120)),
        ("s2", _shard_factory(120, 180)),
    ]
    report = run_deid_job(shards_fixed, out, max_in_flight=2)
    assert report["shards_skipped"] == len(ok)
    assert report["shards_run"] == 3 - len(ok)
    assert report["docs"] == 180


def test_concurrent_window_cancels_queued_shards_deterministically(ray_session, tmp_path):
    """Regression for the as_completed + shutdown(cancel_futures) hang: a
    shard that fails while another is mid-flight and MORE are still queued
    must cancel the queued ones and raise — never wait forever on a
    cancelled future that no worker will ever notify."""
    import time as _time

    from edge_deid_studio_ray.pipelines.deid import run_deid_job
    from edge_deid_studio_ray.state.manifest import committed_shards

    def slow(lo, hi):
        inner = _shard_factory(lo, hi)

        def f():
            _time.sleep(3.0)  # holds one window slot while s1 fails
            return inner()

        return f

    def boom():
        raise RuntimeError("bad shard input")

    out = str(tmp_path / "out")
    shards = [
        ("s0", slow(0, 40)),
        ("s1", boom),
        ("s2", _shard_factory(80, 120)),   # queued behind the window
        ("s3", _shard_factory(120, 160)),  # queued behind the window
    ]
    t0 = _time.monotonic()
    with pytest.raises(RuntimeError, match="bad shard"):
        run_deid_job(shards, out, max_in_flight=2)
    assert _time.monotonic() - t0 < 60  # the old code hung here forever
    ok = set(committed_shards(out))
    assert "s1" not in ok
    assert "s0" in ok  # in-flight shard drained and committed

    fixed = [(s, _shard_factory(40 * i, 40 * (i + 1))) for i, s in
             enumerate(["s0", "s1", "s2", "s3"])]
    report = run_deid_job(fixed, out, max_in_flight=2)
    assert report["shards_skipped"] == len(ok)
    assert report["shards_run"] == 4 - len(ok)


_HTTP_MOD = "fsspec.implementations.http"


def _route_http_import(monkeypatch, outcomes: list) -> list:
    """Send each ``import fsspec.implementations.http`` to the next of
    ``outcomes`` (an exception to raise or a module to return); returns
    the list of attempts made."""
    import builtins
    import sys

    real_import = builtins.__import__
    attempts: list = []

    def fake_import(name, *args, **kwargs):
        if name != _HTTP_MOD:
            return real_import(name, *args, **kwargs)
        outcome = outcomes[len(attempts)]
        attempts.append(outcome)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setitem(sys.modules, _HTTP_MOD, None)  # restored after the test
    monkeypatch.setattr(builtins, "__import__", fake_import)
    return attempts


def test_fsspec_probe_installs_sentinel_only_when_module_missing(monkeypatch):
    import sys

    from edge_deid_studio_ray.pipelines.deid import _warm_fsspec_http_probe

    attempts = _route_http_import(monkeypatch, [ModuleNotFoundError("No module named 'aiohttp'")])
    _warm_fsspec_http_probe()
    assert len(attempts) == 1
    sentinel = sys.modules[_HTTP_MOD]
    assert sentinel is not None and not isinstance(object(), sentinel.HTTPFileSystem)


def test_fsspec_probe_retries_transient_import_error(monkeypatch):
    import sys
    import types

    from edge_deid_studio_ray.pipelines.deid import _warm_fsspec_http_probe

    real = types.SimpleNamespace(HTTPFileSystem=type("HTTPFileSystem", (), {}))
    partial = ImportError("cannot import name 'HTTPFileSystem' (partially initialized module)")
    attempts = _route_http_import(monkeypatch, [partial, real])
    _warm_fsspec_http_probe()
    assert len(attempts) == 2
    assert sys.modules[_HTTP_MOD] is None  # no sentinel over an importable module
