"""Driver contract for the graft builder (Ray Data target).

The driver initialises Ray BEFORE importing this module; nothing here (or in
the library code it uses) calls ``ray.init()`` / ``ray.shutdown()``.

- ``entry()``: flagship extraction+deid pipeline on /root/testdata/sf0.001.
- ``queries()``: one callable per implemented operator (SURVEY.md §2 + the
  scale operators: dedup, similarity search, text analysis).
- ``oracle_sql()``: a DuckDB equivalent for every query; where per-row
  values are not SQL-expressible, the query stages its per-row outputs and
  the SQL re-derives the layer above them (the per-row bytes are enforced
  by tests/test_reference_parity.py against the reference code).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from edge_deid_studio_ray.config import install_empty_schema_log_filter

# Entry module, not library: silencing the known empty-partition schema
# warning here keeps the driver's bench/correctness logs readable without
# touching global logging on package import.
install_empty_schema_log_filter()


def entry() -> Any:
    """Flagship: sf0.001 documents routed through the full deid pipeline
    (text-passthrough route) — returns the output Dataset."""
    from edge_deid_studio_ray.pipelines.deid import build_deid_pipeline
    from edge_deid_studio_ray.pipelines.queries import _documents_as_pages

    pages = _documents_as_pages("/root/testdata/sf0.001")
    return build_deid_pipeline(pages)


def queries() -> dict[str, Callable[[str], Any]]:
    from edge_deid_studio_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from edge_deid_studio_ray.pipelines.queries import ORACLE_SQL

    # The pages_* oracles read a /tmp fixture the corresponding query writes
    # at build time (query runs before its oracle in the harness).  In case
    # a driver evaluates an oracle first, pre-materialize the fixture for
    # the driver's documented sf here — pure Python, idempotent, and never
    # allowed to break oracle_sql() itself.
    try:
        from edge_deid_studio_ray.pipelines.queries import (
            _ensure_pages_fixture,
            _ensure_synth_fixture,
        )

        _ensure_pages_fixture("/root/testdata/sf0.01")
        _ensure_synth_fixture("/root/testdata/sf0.01")
    except Exception:
        pass
    return dict(ORACLE_SQL)
