"""Seeded workload inputs, generated outside the timed region and cached.

Each input set is a pure function of (generator version, seed, params) and
lives in ``.bench_cache/<key>/`` in the checkout.  A set is written to a
temporary directory and renamed into place, so an interrupted run never
leaves a half-written cache entry behind.

- ``pages_flagship``: the program's own synthetic Common-Crawl generator
  (``sources/pages.py``), split into shard files.
- ``docs_text``: the pre-extracted texts of that generator, as
  text-passthrough documents, with a fixed share of exact duplicates.
- ``query_cogroup``: TPC-H-style tables plus ``events`` / ``documents``
  from this module's generator, in the schema the registry queries read.

The two deid input sets come from the program's generator, so their keys
hash its source: a change to it makes new inputs instead of reusing stale
ones.  The table generator lives here, so a program change cannot change
the query inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# bump when any generator below changes: invalidates cached inputs
INPUT_VERSION = 3
PROGRAM = "edge_deid_studio_ray"
PAGES_GENERATOR = os.path.join(PROGRAM, "sources", "pages.py")


def source_hash(root: str, rel: str) -> str:
    """Short sha256 over the file ``rel`` of the checkout, or over every
    ``.py`` file under it when it is a directory (paths included)."""
    path = os.path.join(root, rel)
    if os.path.isdir(path):
        files = sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names if f.endswith(".py")
        )
    else:
        files = [path]
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, root).encode() + b"\x00")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


def cached_dir(root: str, key: str, build: Callable[[str], None]) -> str:
    """Return ``.bench_cache/<key>``, building it with ``build(tmp_dir)``
    first when it is missing."""
    cache = os.path.join(root, ".bench_cache")
    final = os.path.join(cache, key)
    if os.path.exists(os.path.join(final, "_DONE")):
        return final
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write(key)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True)


def read_json(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# --------------------------------------------------------------- pages


def pages_key(root: str, seed: int, n: int, shards: int, mega_every: int) -> str:
    return (
        f"pages-v{INPUT_VERSION}-g{source_hash(root, PAGES_GENERATOR)}"
        f"-s{seed}-n{n}-k{shards}-m{mega_every}"
    )


def build_pages(out: str, seed: int, n: int, shards: int, mega_every: int) -> None:
    from edge_deid_studio_ray.sources.pages import synthesize_pages_table

    # row ids 1..n: the generator turns each positive multiple of
    # ``mega_every`` into a mega page, so n = mega_every holds exactly one
    bounds = np.linspace(1, n + 1, shards + 1).astype(int)
    for j in range(shards):
        table = synthesize_pages_table(
            range(bounds[j], bounds[j + 1]), seed, mega_every=mega_every
        )
        pq.write_table(table, os.path.join(out, f"shard-{j:03d}.parquet"))


# ----------------------------------------------------------- docs_text


def docs_key(root: str, seed: int, n: int, files: int, dup_share: float) -> str:
    return (
        f"docs-v{INPUT_VERSION}-g{source_hash(root, PAGES_GENERATOR)}"
        f"-s{seed}-n{n}-f{files}-d{dup_share}"
    )


def build_docs(out: str, seed: int, n: int, files: int, dup_share: float) -> None:
    """Text-passthrough docs (``html`` null).  The texts are the
    pre-extracted ``text`` values of the program's pages generator, so their
    length and PII density are those of the pages corpus.  A ``dup_share``
    of the docs copy the text of a doc drawn uniformly from all earlier ones."""
    from edge_deid_studio_ray.sources.pages import synthesize_page

    rng = random.Random(seed)
    row_id = 0
    texts, langs = [], []
    for i in range(n):
        if i > 0 and rng.random() < dup_share:
            j = rng.randrange(i)
            text, lang = texts[j], langs[j]
        else:
            text = None
            while text is None:
                row_id += 1
                page = synthesize_page(row_id, seed)
                text, lang = page["text"], page["lang"]
        texts.append(text)
        langs.append(lang)
    schema = pa.schema(
        [
            ("url", pa.string()),
            ("warc_ts", pa.timestamp("us")),
            ("html", pa.binary()),
            ("text", pa.string()),
            ("lang", pa.string()),
        ]
    )
    table = pa.table(
        {
            "url": [f"https://docs.example/{lang}/d{i}" for i, lang in enumerate(langs)],
            "warc_ts": pa.array(
                [1_767_225_600_000_000 + i * 1_000_000 for i in range(n)], pa.timestamp("us")
            ),
            "html": pa.nulls(n, pa.binary()),
            "text": texts,
            "lang": langs,
        },
        schema=schema,
    )
    bounds = np.linspace(0, n, files + 1).astype(int)
    for j in range(files):
        pq.write_table(
            table.slice(bounds[j], bounds[j + 1] - bounds[j]),
            os.path.join(out, f"docs-{j:03d}.parquet"),
        )


# -------------------------------------------------------------- tables

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
_PART_ADJ = ["small", "large", "red", "blue", "hot", "old", "new", "cold"]
_PART_NOUN = ["ring", "widget", "bolt", "gear", "gizmo", "plate", "anvil", "spring"]
_DOC_WORDS = (
    "a the big small fast slow data row column table key value part line order "
    "customer query scan join merge sort group hash filter agg window stream batch "
    "spark vector"
).split()
_DOC_LANGS = ["en", "zh", "de", "fr", "es"]
_US_PER_DAY = 86_400_000_000
DANGLING = 0.01  # share of foreign keys with no parent row


def tables_key(seed: int) -> str:
    return f"tables-v{INPUT_VERSION}-s{seed}"


def build_tables(out: str, seed: int) -> None:
    """TPC-H-style tables sized like the repo's sf0.001 fixtures.  A
    ``DANGLING`` share of ``lineitem.l_orderkey``, ``lineitem.l_partkey`` and
    ``orders.o_custkey`` values name no parent row, so the orphan counts of
    ``referential_orphans`` are not zero and the anti-join side is checked."""
    rng = np.random.default_rng(seed)
    n_cust, n_supp, n_part = 150, 10, 200
    n_orders, n_lines, n_events, n_docs = 1500, 6000, 1000, 500
    n_users = max(20, n_events // 7)

    def fk(n_parent: int, n: int) -> pa.Array:
        keys = rng.integers(0, n_parent, n)
        dangling = rng.random(n) < DANGLING
        keys[dangling] = n_parent + rng.integers(0, n_parent, int(dangling.sum()))
        return pa.array(keys, pa.int64())

    def money(lo: float, hi: float, n: int) -> np.ndarray:
        return np.round(rng.uniform(lo, hi, n), 2)

    def dates(start_days: int, span_days: int, n: int) -> pa.Array:
        base = np.datetime64("1970-01-01", "us") + np.timedelta64(start_days * _US_PER_DAY, "us")
        days = rng.integers(0, span_days, n)
        return pa.array(base + days * np.timedelta64(_US_PER_DAY, "us"), pa.timestamp("us"))

    tables = {
        "region": pa.table(
            {
                "r_regionkey": pa.array(range(5), pa.int32()),
                "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"],
            }
        ),
        "nation": pa.table(
            {
                "n_nationkey": pa.array(range(25), pa.int32()),
                "n_name": [f"NATION_{i}" for i in range(25)],
                "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32()),
            }
        ),
        "customer": pa.table(
            {
                "c_custkey": pa.array(range(n_cust), pa.int64()),
                "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
                "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
                "c_acctbal": money(-999.99, 9999.99, n_cust),
                "c_mktsegment": rng.choice(_SEGMENTS, n_cust),
            }
        ),
        "supplier": pa.table(
            {
                "s_suppkey": pa.array(range(n_supp), pa.int64()),
                "s_name": [f"Supplier#{i:09d}" for i in range(n_supp)],
                "s_nationkey": pa.array(rng.integers(0, 25, n_supp), pa.int32()),
                "s_acctbal": money(-999.99, 9999.99, n_supp),
            }
        ),
        "part": pa.table(
            {
                "p_partkey": pa.array(range(n_part), pa.int64()),
                "p_name": [
                    f"{a} {b}"
                    for a, b in zip(rng.choice(_PART_ADJ, n_part), rng.choice(_PART_NOUN, n_part))
                ],
                "p_brand": [f"Brand#{b}" for b in rng.integers(1, 26, n_part)],
                "p_type": rng.choice(
                    ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"], n_part
                ),
                "p_size": pa.array(rng.integers(1, 51, n_part), pa.int32()),
                "p_retailprice": np.round(900.0 + (np.arange(n_part) % 1000) * 0.1, 2),
            }
        ),
        "orders": pa.table(
            {
                "o_orderkey": pa.array(range(n_orders), pa.int64()),
                "o_custkey": fk(n_cust, n_orders),
                "o_orderstatus": rng.choice(["F", "O", "P"], n_orders),
                "o_totalprice": money(1000.0, 500000.0, n_orders),
                "o_orderdate": dates(9131, 2405, n_orders),  # 1995-01-01 onwards
                "o_orderpriority": rng.choice(_PRIORITIES, n_orders),
            }
        ),
        "lineitem": pa.table(
            {
                "l_orderkey": fk(n_orders, n_lines),
                "l_partkey": fk(n_part, n_lines),
                "l_suppkey": pa.array(rng.integers(0, n_supp, n_lines), pa.int64()),
                "l_linenumber": pa.array(rng.integers(1, 8, n_lines), pa.int32()),
                "l_quantity": rng.integers(1, 51, n_lines).astype(float),
                "l_extendedprice": money(900.0, 105000.0, n_lines),
                "l_discount": rng.integers(0, 11, n_lines) / 100.0,
                "l_tax": rng.integers(0, 9, n_lines) / 100.0,
                "l_returnflag": rng.choice(["A", "N", "R"], n_lines),
                "l_linestatus": rng.choice(["F", "O"], n_lines),
                "l_shipdate": dates(9132, 2500, n_lines),
            }
        ),
    }

    # events: unique timestamps over 30 days from 2024-01-01
    ts_us = np.sort(rng.choice(30 * _US_PER_DAY, n_events, replace=False))
    tables["events"] = pa.table(
        {
            "event_id": pa.array(range(n_events), pa.int64()),
            "ts": pa.array(
                np.datetime64("2024-01-01", "us") + ts_us.astype("timedelta64[us]"),
                pa.timestamp("us"),
            ),
            "user_id": pa.array(rng.integers(0, n_users, n_events), pa.int64()),
            "event_type": rng.choice(_EVENT_TYPES, n_events),
            "value": money(0.01, 490.0, n_events),
            "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)],
        }
    )

    # documents: word salad; ~5% exact copies of an earlier doc
    texts: list[str] = []
    for i in range(n_docs):
        if i > 10 and rng.random() < 0.05:
            texts.append(texts[int(rng.integers(0, i))])
        else:
            texts.append(" ".join(rng.choice(_DOC_WORDS, int(rng.integers(8, 90)))))
    tables["documents"] = pa.table(
        {
            "doc_id": pa.array(range(n_docs), pa.int64()),
            "text": texts,
            "lang": rng.choice(_DOC_LANGS, n_docs, p=[0.44, 0.15, 0.14, 0.13, 0.14]),
            "source": [f"src{s}" for s in rng.integers(0, 20, n_docs)],
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    for name, table in tables.items():
        pq.write_table(table, os.path.join(out, f"{name}.parquet"))
