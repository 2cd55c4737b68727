"""Output checks: per-document digests against the in-process oracle, and
query results against their DuckDB SQL oracles."""

from __future__ import annotations

import hashlib
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

TABLES = "region nation customer supplier part orders lineitem events documents".split()


def row_digest(url: str, extracted: str | None, clean: str | None, spans) -> str:
    """md5 over url, ``extracted_text``, ``clean_text`` and the
    ``(type, start, end)`` spans of one output row."""
    h = hashlib.md5()
    for part in (url, extracted or "", clean or ""):
        h.update(part.encode("utf-8", "surrogatepass"))
        h.update(b"\x00")
    for typ, start, end in spans:
        h.update(f"{typ}:{start}:{end};".encode())
    return h.hexdigest()


def oracle_digests(tables: list[pa.Table]) -> dict[str, str]:
    """url -> row digest from ``process_document`` run in this process, with
    the arguments the fused batch stage passes."""
    from edge_deid_studio_ray.config import EngineConfig
    from edge_deid_studio_ray.kernels.docpipe import process_document

    cfg = EngineConfig()
    out: dict[str, str] = {}
    for table in tables:
        for row in table.to_pylist():
            doc = process_document(
                html=row["html"], text=row["text"], url=row["url"], lang=row["lang"] or "zh", cfg=cfg
            )
            spans = [(e["type"], e["start"], e["end"]) for e in doc["entities"]]
            out[row["url"]] = row_digest(row["url"], doc["extracted_text"], doc["clean_text"], spans)
    return out


def output_digests(tables: list[pa.Table]) -> tuple[dict[str, str], int]:
    """url -> row digest of pipeline output rows; also the number of rows
    whose url repeats (each repeat is a wrong row)."""
    out: dict[str, str] = {}
    repeats = 0
    for table in tables:
        cols = [table[c].to_pylist() for c in ("url", "extracted_text", "clean_text", "entities")]
        for url, extracted, clean, entities in zip(*cols):
            spans = [(e["type"], e["start"], e["end"]) for e in entities or ()]
            if url in out:
                repeats += 1
            out[url] = row_digest(url, extracted, clean, spans)
    return out, repeats


def count_failed_docs(expected: dict[str, str], got: dict[str, str], repeats: int) -> int:
    """Docs missing or with a digest that differs, plus rows not expected."""
    bad = sum(1 for url, d in expected.items() if got.get(url) != d)
    extra = sum(1 for url in got if url not in expected)
    return bad + extra + repeats


def parquet_files(out_dir: str) -> list[str]:
    return sorted(
        os.path.join(d, f)
        for d, _, names in os.walk(out_dir)
        for f in names
        if f.endswith(".parquet")
    )


def read_output(out_dir: str) -> list[pa.Table]:
    """The checked columns of every parquet file under ``out_dir``."""
    cols = ["url", "extracted_text", "clean_text", "entities"]
    return [pq.read_table(f, columns=cols) for f in parquet_files(out_dir)]


def raw_pii_bytes(out_dir: str) -> int:
    """Compressed bytes of the raw-PII columns the sink wrote:
    ``extracted_text``, ``entities.text`` and ``events.original``."""
    total = 0
    for f in parquet_files(out_dir):
        meta = pq.ParquetFile(f).metadata
        for rg in range(meta.num_row_groups):
            group = meta.row_group(rg)
            for c in range(group.num_columns):
                col = group.column(c)
                path = col.path_in_schema.split(".")
                if path[0] == "extracted_text" or (
                    path[-1] in ("text", "original") and path[0] in ("entities", "events")
                ):
                    total += col.total_compressed_size
    return total


# ------------------------------------------------------------- queries


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Columns sorted by name, object columns as str, rows sorted."""
    df = df[sorted(df.columns)].copy()
    for col in df.columns:
        if df[col].dtype == object:
            df[col] = df[col].astype(str)
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)


def frame_hash(df: pd.DataFrame) -> str:
    return hashlib.sha256(
        pd.util.hash_pandas_object(df, index=False).values.tobytes()
    ).hexdigest()


def oracle_frames(tables_dir: str, names: list[str]) -> dict[str, pd.DataFrame]:
    """Canonical DuckDB oracle result of every named query."""
    import duckdb

    from edge_deid_studio_ray.pipelines.queries import ORACLE_SQL

    con = duckdb.connect()
    try:
        for table in TABLES:
            path = os.path.join(tables_dir, f"{table}.parquet").replace("'", "''")
            con.sql(f"CREATE VIEW {table} AS SELECT * FROM read_parquet('{path}')")
        return {name: canon(con.sql(ORACLE_SQL[name]).df()) for name in names}
    finally:
        con.close()


def query_matches(mine: pd.DataFrame, oracle: pd.DataFrame) -> str | None:
    """None when the canonical frames agree (floats to rtol 1e-9), else why
    not."""
    if list(mine.columns) != list(oracle.columns):
        return f"columns {list(mine.columns)} vs {list(oracle.columns)}"
    if len(mine) != len(oracle):
        return f"rows {len(mine)} vs {len(oracle)}"
    if frame_hash(mine) == frame_hash(oracle):
        return None
    try:
        pd.testing.assert_frame_equal(mine, oracle, check_dtype=False, rtol=1e-9)
    except AssertionError as exc:
        return str(exc)[:200]
    return None
