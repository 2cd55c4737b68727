"""Driver-contract checks at sf0.001: every oracle query must match DuckDB
with the driver's comparison semantics (sorted columns, sorted rows)."""

from __future__ import annotations

import os

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for col in df.columns:
        if df[col].dtype == object:
            df[col] = df[col].astype(str)
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)


def _to_pandas(result) -> pd.DataFrame:
    from ray.data import Dataset

    if isinstance(result, Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for table in TABLES:
        c.sql(f"CREATE VIEW {table} AS SELECT * FROM read_parquet('{SF}/{table}.parquet')")
    return c


@pytest.fixture(scope="module")
def registry():
    from edge_deid_studio_ray.pipelines.queries import ORACLE_SQL, QUERIES

    return QUERIES, ORACLE_SQL


def test_all_oracle_queries_match(ray_session, con, registry):
    queries, oracles = registry
    failures = []
    for name, sql in oracles.items():
        mine = _canon(_to_pandas(queries[name](SF)))
        oracle = _canon(con.sql(sql).df())
        if list(mine.columns) != list(oracle.columns):
            failures.append(f"{name}: columns {list(mine.columns)} vs {list(oracle.columns)}")
            continue
        if len(mine) != len(oracle):
            failures.append(f"{name}: rows {len(mine)} vs {len(oracle)}")
            continue
        try:
            pd.testing.assert_frame_equal(mine, oracle, check_dtype=False, rtol=1e-9)
        except AssertionError as exc:
            failures.append(f"{name}: {str(exc)[:200]}")
    assert not failures, "\n".join(failures)


def test_rows_only_queries_run_and_are_deterministic(ray_session, registry):
    queries, oracles = registry
    assert [name for name in queries if name not in oracles] == []  # every query has an oracle
    # these two oracles re-derive from rows the query itself staged (seeded
    # RNG fills, difflib scores): their values are pinned by running twice
    for name in ("placeholder_corpus", "deid_eval_aggregate"):
        a = _canon(_to_pandas(queries[name](SF)))
        assert len(a) > 0, name
        b = _canon(_to_pandas(queries[name](SF)))
        pd.testing.assert_frame_equal(a, b)


def test_entry_smoke(ray_session):
    import __ray_entry__ as entrymod

    df = _to_pandas(entrymod.entry())
    assert len(df) == 500
    assert "clean_text" in df.columns and "entities" in df.columns


def test_queries_and_oracles_consistent():
    import __ray_entry__ as entrymod

    queries, oracles = entrymod.queries(), entrymod.oracle_sql()
    assert set(oracles) <= set(queries)
    assert len(queries) >= 15
